//! Fault-injection harness: named failpoints the chaos tests arm to force
//! panics and delays at chosen spots inside the engine and the serving tier.
//!
//! Compiled only under `cfg(any(test, feature = "failpoints"))`; a production
//! build's [`crate::fail_point!`] call sites expand to nothing. Even with the
//! feature on, an unarmed process pays one atomic load per site — the
//! registry is an [`OnceLock`] that is never initialised until a test calls
//! [`set`], so the serving hot path stays allocation-free.
//!
//! The registered sites:
//!
//! | name                | fires in                                          |
//! |---------------------|---------------------------------------------------|
//! | `exec.index.build`  | group-index compilation (outside any engine lock) |
//! | `exec.index.insert` | group-index memoization, **write lock held** — a  |
//! |                     | `Panic` here genuinely poisons the memo map       |
//! | `exec.kernel`       | per-candidate aggregation (batch worker bodies)   |
//! | `exec.gather`       | the transform path's per-query gather             |
//! | `exec.ingest.build` | start of `append_relevant`'s next-epoch build,    |
//! |                     | inside the panic-contained region                 |
//! | `exec.ingest.publish` | end of the epoch build, just before the swap    |
//! |                     | publishes it (still panic-contained)              |
//! | `kernel.cancel`     | every cancellation checkpoint — the aggregation   |
//! |                     | strides of `QueryEngine::evaluate_cancel` and     |
//! |                     | each key probe of a tier lookup under a deadline  |
//! |                     | — but **only** when a `CancelToken` is present;   |
//! |                     | plain traffic never evaluates it                  |
//! | `serving.lookup`    | the serving handle's probe loop, once per answer  |
//! |                     | (point, tier and batch lookups alike)             |
//! | `shard.route`       | the routing step of a serving handle with more    |
//! |                     | than one shard, the shard router's per-request    |
//! |                     | owning-shard probe, and its per-shard transform   |
//! |                     | fan-out (the router's are panic-contained)        |
//! | `shard.append`      | start of a router-level sharded append, before    |
//! |                     | any shard's sub-batch dispatches                  |
//! | `tier.batch`        | the serving tier's worker loop, once per batch    |
//!
//! Failpoints are process-global; tests sharing a binary must serialize on a
//! lock and [`reset`] when done.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed failpoint does when its site is reached.
#[derive(Clone, Debug)]
pub enum Action {
    /// Panic with a message naming the failpoint.
    Panic,
    /// Sleep for the given duration (simulates a stalled worker).
    Delay(Duration),
}

struct FailPoint {
    action: Action,
    /// `Some(n)`: fire `n` more times, then fall dormant (hit counting
    /// continues). `None`: fire on every visit.
    remaining: Option<usize>,
    /// Visits that actually fired.
    hits: usize,
}

static REGISTRY: OnceLock<Mutex<HashMap<String, FailPoint>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, FailPoint>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<String, FailPoint>> {
    // The registry itself is never poisoned — `eval` releases the guard
    // before panicking — but a panicking *test* thread could still hold it.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm `name` to perform `action` on every visit until [`clear`]ed.
pub fn set(name: &str, action: Action) {
    lock().insert(
        name.to_string(),
        FailPoint {
            action,
            remaining: None,
            hits: 0,
        },
    );
}

/// Arm `name` to perform `action` on the next `times` visits only.
pub fn set_times(name: &str, action: Action, times: usize) {
    lock().insert(
        name.to_string(),
        FailPoint {
            action,
            remaining: Some(times),
            hits: 0,
        },
    );
}

/// Disarm `name` (a no-op if it was never armed).
pub fn clear(name: &str) {
    lock().remove(name);
}

/// Disarm every failpoint.
pub fn reset() {
    if let Some(registry) = REGISTRY.get() {
        registry
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// How many times the failpoint named `name` has fired since it was armed.
pub fn hits(name: &str) -> usize {
    lock().get(name).map_or(0, |fp| fp.hits)
}

/// Evaluate the failpoint named `name` — the function behind
/// [`crate::fail_point!`]. Returns immediately (one atomic load, no lock, no
/// allocation) unless some test has initialised the registry.
pub fn eval(name: &str) {
    let Some(registry) = REGISTRY.get() else {
        return;
    };
    let action = {
        let mut map = registry.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(fp) = map.get_mut(name) else { return };
        match &mut fp.remaining {
            Some(0) => return,
            Some(n) => *n -= 1,
            None => {}
        }
        fp.hits += 1;
        fp.action.clone()
    };
    // Act only after the registry guard is dropped, so a forced panic can
    // never poison the harness itself.
    match action {
        Action::Panic => panic!("failpoint {name} forced a panic"),
        Action::Delay(d) => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here use names no engine site evaluates, so they can run in
    // parallel with the rest of the crate's suite.

    #[test]
    fn unarmed_failpoints_do_nothing() {
        eval("failpoint.test.unarmed");
        assert_eq!(hits("failpoint.test.unarmed"), 0);
    }

    #[test]
    fn set_times_fires_exactly_n_times() {
        set_times("failpoint.test.count", Action::Delay(Duration::ZERO), 2);
        for _ in 0..5 {
            eval("failpoint.test.count");
        }
        assert_eq!(hits("failpoint.test.count"), 2);
        clear("failpoint.test.count");
    }

    #[test]
    fn panic_action_panics_with_the_failpoint_name() {
        set_times("failpoint.test.panic", Action::Panic, 1);
        let result = std::panic::catch_unwind(|| eval("failpoint.test.panic"));
        let payload = result.expect_err("armed failpoint must panic");
        let message = crate::exec::panic_message(payload);
        assert!(message.contains("failpoint.test.panic"), "got: {message}");
        // The panic consumed the single armed shot; the site is dormant now.
        eval("failpoint.test.panic");
        assert_eq!(hits("failpoint.test.panic"), 1);
        clear("failpoint.test.panic");
    }
}
