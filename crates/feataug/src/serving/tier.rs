//! The admission-controlled serving tier: bounded queueing, per-request
//! deadlines, load shedding, graceful degradation, and atomic model hot-swap
//! over a prepared [`ServingHandle`] — one engine or key-sharded ones (see
//! [`crate::serving::shard`]); the tier serves both the same way.
//!
//! A [`ServingHandle`] answers one lookup fast, but a production front door
//! needs more than speed: under overload it must refuse work it cannot finish
//! in time ([`TierError::Shed`]), under a missed deadline it must answer
//! *something* (the documented unseen-key semantics — every feature NULL —
//! when [`TierConfig::degrade_on_deadline`] is on), and a worker panicking on
//! one poisoned request must fail that request alone. [`ServingTier`] wraps
//! all three around a small pool of dedicated worker threads draining a
//! bounded queue.
//!
//! Deadlines preempt, not just observe: a request submitted with a deadline
//! runs its lookup under a [`CancelToken`] built from that instant, and the
//! handle's probe loop polls the token before each key probe — a deadline
//! that fires mid-lookup abandons the remaining probes (surfacing through the
//! same degradation policy) instead of finishing the request. A warm lookup
//! does no aggregation work, and the epoch refresh a lookup may run first
//! is memo reads that do not poll the token. [`TierStats::cancelled`]
//! counts how often preemption fired.
//!
//! ## Hot-swap
//!
//! The tier serves from an [`EpochCell`] — an `ArcSwap`-style cell hand-rolled
//! from `Mutex<Arc<_>>` plus a generation counter, so the build stays
//! dependency-free (the same cell the engine core's copy-on-write epochs
//! publish through). A background refit (`FeatAug::fit` → `AugModel::prepare`)
//! publishes its new handle with [`ServingTier::install`]; lookups in flight
//! finish against the model their batch pinned, the next batch sees the new
//! one, and no reader ever blocks longer than another reader's pointer clone.
//! Note that live `append_relevant` ingestion needs **no** swap at all: each
//! installed handle follows its engine's epochs by itself.
//!
//! ```no_run
//! use std::sync::Arc;
//! use feataug::serving::tier::{ServingTier, TierConfig};
//! # fn prepare_handle() -> feataug::ServingHandle<'static> { unimplemented!() }
//! let tier = ServingTier::new(Arc::new(prepare_handle()), TierConfig::default());
//! let features = tier.lookup(&[feataug_tabular::Value::Int(7)]);
//! let generation = tier.install(Arc::new(prepare_handle())); // hot-swap
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use feataug_tabular::{CancelToken, Value};

use crate::exec::{lock_recover, panic_message, EngineError};
use crate::serving::ServingHandle;

/// Sizing and policy of a [`ServingTier`].
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Dedicated worker threads draining the queue (min 1).
    pub workers: usize,
    /// Hard bound on queued requests; admission past it always sheds.
    pub queue_capacity: usize,
    /// Queue depth at which admission starts shedding — the early-warning
    /// line below `queue_capacity` that keeps latency bounded under
    /// overload.
    pub shed_watermark: usize,
    /// Most requests one worker drains per queue acquisition (batch size).
    pub max_batch: usize,
    /// Deadline applied to requests submitted without an explicit one.
    pub default_deadline: Option<Duration>,
    /// When a deadline fires before or during the gather: `true` answers the
    /// documented unseen-key semantics (every feature NULL), `false` returns
    /// [`TierError::DeadlineExceeded`].
    pub degrade_on_deadline: bool,
}

impl Default for TierConfig {
    fn default() -> TierConfig {
        TierConfig {
            workers: 2,
            queue_capacity: 1024,
            shed_watermark: 768,
            max_batch: 32,
            default_deadline: None,
            degrade_on_deadline: true,
        }
    }
}

/// Why a tier request did not come back with features.
#[derive(Debug)]
pub enum TierError {
    /// Admission control refused the request: the queue was already `depth`
    /// deep, past the shed watermark (or the hard capacity).
    Shed {
        /// Queue depth observed at admission time.
        depth: usize,
    },
    /// The request's deadline expired before its gather finished, and
    /// degradation is off.
    DeadlineExceeded,
    /// The tier is shutting down; no new requests are admitted.
    Closed,
    /// The worker disappeared mid-request without answering (its reply
    /// channel dropped) — the request's fate is unknown.
    WorkerLost,
    /// The underlying engine failed the request (including a contained
    /// worker panic, surfaced as [`EngineError::WorkerPanic`]).
    Engine(EngineError),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Shed { depth } => {
                write!(f, "request shed: queue depth {depth} past the watermark")
            }
            TierError::DeadlineExceeded => write!(f, "deadline expired before the gather finished"),
            TierError::Closed => write!(f, "serving tier is shut down"),
            TierError::WorkerLost => write!(f, "serving worker lost before answering"),
            TierError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

// The tier's hot-swap cell is the same `EpochCell` the engine core's
// copy-on-write epochs publish through; re-exported here so existing
// `serving::tier::EpochCell` users keep compiling.
pub use crate::exec::EpochCell;

/// One queued lookup: the key, the admission-stamped deadline, and the reply
/// channel.
struct Request {
    key: Vec<Value>,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<Vec<Option<f64>>, TierError>>,
}

/// State shared between the tier handle and its worker threads.
struct TierShared {
    config: TierConfig,
    queue: Mutex<VecDeque<Request>>,
    available: Condvar,
    model: EpochCell<ServingHandle<'static>>,
    shutdown: AtomicBool,
    submitted: AtomicUsize,
    answered: AtomicUsize,
    shed: AtomicUsize,
    degraded: AtomicUsize,
    cancelled: AtomicUsize,
    worker_panics: AtomicUsize,
}

/// Counters of a [`ServingTier`] (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Requests offered to admission control (shed ones included).
    pub submitted: usize,
    /// Requests answered by a worker (degraded ones included).
    pub answered: usize,
    /// Requests refused at admission.
    pub shed: usize,
    /// Requests answered with the all-NULL degraded row (or
    /// [`TierError::DeadlineExceeded`]) because their deadline fired.
    pub degraded: usize,
    /// Requests whose deadline preempted an in-flight lookup between key
    /// probes ([`EngineError::Cancelled`]) — a subset of `degraded` that
    /// measures how often preemption beat the end of the lookup.
    pub cancelled: usize,
    /// Worker panics contained into [`EngineError::WorkerPanic`] answers.
    pub worker_panics: usize,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// The model generation currently served (number of hot-swaps).
    pub generation: u64,
}

/// A ticket for one admitted request; redeem it with [`PendingLookup::wait`].
pub struct PendingLookup {
    rx: mpsc::Receiver<Result<Vec<Option<f64>>, TierError>>,
}

impl PendingLookup {
    /// Block until the tier answers.
    pub fn wait(self) -> Result<Vec<Option<f64>>, TierError> {
        self.rx.recv().unwrap_or(Err(TierError::WorkerLost))
    }
}

/// The admission-controlled, hot-swappable serving front door. See the
/// [module docs](self).
///
/// Dropping the tier shuts it down: queued requests are drained first, then
/// the workers exit and are joined.
pub struct ServingTier {
    shared: Arc<TierShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServingTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingTier")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ServingTier {
    /// Spawn the worker pool and start serving `model` — a prepared handle
    /// over one engine or over sharded ones.
    pub fn new(model: impl Into<Arc<ServingHandle<'static>>>, config: TierConfig) -> ServingTier {
        let workers = config.workers.max(1);
        let shared = Arc::new(TierShared {
            config,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            model: EpochCell::new(model.into()),
            shutdown: AtomicBool::new(false),
            submitted: AtomicUsize::new(0),
            answered: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            cancelled: AtomicUsize::new(0),
            worker_panics: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("feataug-tier-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // lint: allow(panic): tier construction (startup), never reached from the serving path
                    .expect("spawn serving-tier worker thread")
            })
            .collect();
        ServingTier { shared, workers }
    }

    /// Submit one lookup under the config's default deadline. Admission
    /// control runs here: past the shed watermark (or hard capacity) the
    /// request is refused immediately with [`TierError::Shed`] — refusing
    /// fast is the mechanism that keeps admitted requests' latency bounded.
    pub fn submit(&self, key: Vec<Value>) -> Result<PendingLookup, TierError> {
        self.submit_deadline(key, self.shared.config.default_deadline)
    }

    /// [`ServingTier::submit`] with an explicit per-request deadline
    /// (`None`: no deadline). The clock starts at admission, so time spent
    /// queued counts against it.
    pub fn submit_deadline(
        &self,
        key: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<PendingLookup, TierError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(TierError::Closed);
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = lock_recover(&self.shared.queue);
            let depth = queue.len();
            if depth >= self.shared.config.shed_watermark
                || depth >= self.shared.config.queue_capacity
            {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                return Err(TierError::Shed { depth });
            }
            queue.push_back(Request {
                key,
                deadline: deadline.map(|d| Instant::now() + d),
                reply: tx,
            });
        }
        self.shared.available.notify_one();
        Ok(PendingLookup { rx })
    }

    /// Submit and wait: one blocking lookup through admission control.
    pub fn lookup(&self, key: &[Value]) -> Result<Vec<Option<f64>>, TierError> {
        self.submit(key.to_vec())?.wait()
    }

    /// [`ServingTier::lookup`] with an explicit deadline.
    pub fn lookup_deadline(
        &self,
        key: &[Value],
        deadline: Duration,
    ) -> Result<Vec<Option<f64>>, TierError> {
        self.submit_deadline(key.to_vec(), Some(deadline))?.wait()
    }

    /// Atomically publish a new model (the hot-swap): batches already pinned
    /// to the old model finish against it, every later batch serves the new
    /// one, and no warm lookup blocks on the swap. Returns the new
    /// generation.
    pub fn install(&self, model: impl Into<Arc<ServingHandle<'static>>>) -> u64 {
        self.shared.model.swap(model.into())
    }

    /// Pin the currently-served handle.
    pub fn model(&self) -> Arc<ServingHandle<'static>> {
        self.shared.model.load()
    }

    /// The served model's generation (number of [`ServingTier::install`]s).
    pub fn generation(&self) -> u64 {
        self.shared.model.generation()
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> TierStats {
        TierStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            answered: self.shared.answered.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            degraded: self.shared.degraded.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            worker_panics: self.shared.worker_panics.load(Ordering::Relaxed),
            queue_depth: lock_recover(&self.shared.queue).len(),
            generation: self.shared.model.generation(),
        }
    }
}

impl Drop for ServingTier {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // A worker that somehow died early must not abort the drop.
            let _ = worker.join();
        }
    }
}

/// One worker: drain up to `max_batch` requests per queue acquisition, pin
/// the current model once per batch (a hot-swap lands between batches, never
/// inside one), answer each request with panic containment, exit when the
/// tier shuts down and the queue is empty.
fn worker_loop(shared: &TierShared) {
    loop {
        let batch: Vec<Request> = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let take = queue.len().min(shared.config.max_batch.max(1));
            queue.drain(..take).collect()
        };
        crate::fail_point!("tier.batch");
        let model = shared.model.load();
        for request in batch {
            answer(shared, &model, request);
        }
    }
}

/// Answer one request against the pinned model: skip the gather if the
/// deadline already fired, contain any panic into a typed error, degrade (or
/// error) if the deadline fired mid-gather.
///
/// A request carrying a deadline runs its lookup under a [`CancelToken`]
/// built from that instant: the handle polls the token before each key
/// probe, so a deadline that fires *during* the lookup preempts its
/// remaining probes — surfacing as [`EngineError::Cancelled`], which
/// degrades exactly like a deadline observed at a batch boundary (and is
/// additionally counted in [`TierStats::cancelled`]).
fn answer(shared: &TierShared, model: &ServingHandle<'static>, request: Request) {
    let expired = |deadline: Option<Instant>| deadline.is_some_and(|d| Instant::now() > d);
    let result = if expired(request.deadline) {
        past_deadline(shared, model)
    } else {
        let cancel = request.deadline.map(CancelToken::with_deadline);
        let mut out = Vec::with_capacity(model.num_features());
        let lookup = catch_unwind(AssertUnwindSafe(|| {
            model
                .lookup_with(&request.key, &mut out, cancel.as_ref())
                .map(|()| out)
        }));
        match lookup {
            Ok(Ok(_)) if expired(request.deadline) => past_deadline(shared, model),
            Ok(Ok(row)) => Ok(row),
            Ok(Err(EngineError::Cancelled)) => {
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
                past_deadline(shared, model)
            }
            Ok(Err(e)) => Err(TierError::Engine(e)),
            Err(payload) => {
                shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                Err(TierError::Engine(EngineError::WorkerPanic {
                    context: "serving tier lookup",
                    message: panic_message(payload),
                }))
            }
        }
    };
    shared.answered.fetch_add(1, Ordering::Relaxed);
    // A caller that gave up (dropped its receiver) is not an error.
    let _ = request.reply.send(result);
}

/// The deadline-fired outcome: the documented unseen-key row (every feature
/// NULL) under graceful degradation, a typed error otherwise.
fn past_deadline(
    shared: &TierShared,
    model: &ServingHandle<'static>,
) -> Result<Vec<Option<f64>>, TierError> {
    shared.degraded.fetch_add(1, Ordering::Relaxed);
    if shared.config.degrade_on_deadline {
        Ok(vec![None; model.num_features()])
    } else {
        Err(TierError::DeadlineExceeded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AugPlan, PlannedQuery, PredicateQuery};
    use feataug_tabular::{AggFunc, Column, Predicate, Table};

    fn handle(scale: f64) -> Arc<ServingHandle<'static>> {
        let mut train = Table::new("users");
        train
            .add_column("uid", Column::from_i64s(&[1, 2, 3]))
            .unwrap();
        let mut relevant = Table::new("logs");
        relevant
            .add_column("uid", Column::from_i64s(&[1, 1, 2, 2]))
            .unwrap();
        relevant
            .add_column(
                "pprice",
                Column::from_f64s(&[10.0 * scale, 20.0 * scale, 30.0 * scale, 40.0 * scale]),
            )
            .unwrap();
        let plan = AugPlan::new(
            "logs",
            vec!["uid".into()],
            vec![
                PlannedQuery {
                    query: PredicateQuery {
                        agg: AggFunc::Sum,
                        agg_column: "pprice".into(),
                        predicate: Predicate::True,
                        group_keys: vec!["uid".into()],
                    },
                    loss: 0.0,
                },
                PlannedQuery {
                    query: PredicateQuery {
                        agg: AggFunc::Max,
                        agg_column: "pprice".into(),
                        predicate: Predicate::True,
                        group_keys: vec!["uid".into()],
                    },
                    loss: 0.0,
                },
            ],
        );
        let model =
            crate::pipeline::AugModel::compile_shared(plan, Arc::new(train), Arc::new(relevant))
                .expect("plan compiles");
        Arc::new(model.prepare().unwrap())
    }

    #[test]
    fn tier_answers_like_the_handle() {
        let handle = handle(1.0);
        let tier = ServingTier::new(Arc::clone(&handle), TierConfig::default());
        let got = tier.lookup(&[Value::Int(1)]).unwrap();
        let mut want = Vec::new();
        handle.lookup(&[Value::Int(1)], &mut want).unwrap();
        assert_eq!(got, want);
        assert_eq!(got, vec![Some(30.0), Some(20.0)]);
        // Unseen key: the documented all-NULL row, not an error.
        assert_eq!(tier.lookup(&[Value::Int(99)]).unwrap(), vec![None, None]);
        // Malformed key: a typed engine error for this request only.
        let err = tier.lookup(&[]).unwrap_err();
        assert!(matches!(err, TierError::Engine(_)), "got {err:?}");
        assert_eq!(tier.lookup(&[Value::Int(2)]).unwrap()[0], Some(70.0));
        let stats = tier.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.answered, 4);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn sharded_model_serves_through_the_tier_unchanged() {
        use crate::serving::shard::ShardRouter;
        let mut train = Table::new("users");
        train
            .add_column("uid", Column::from_i64s(&[1, 2, 3]))
            .unwrap();
        let mut relevant = Table::new("logs");
        relevant
            .add_column("uid", Column::from_i64s(&[1, 1, 2, 2]))
            .unwrap();
        relevant
            .add_column("pprice", Column::from_f64s(&[10.0, 20.0, 30.0, 40.0]))
            .unwrap();
        let plan = AugPlan::new(
            "logs",
            vec!["uid".into()],
            vec![PlannedQuery {
                query: PredicateQuery {
                    agg: AggFunc::Sum,
                    agg_column: "pprice".into(),
                    predicate: Predicate::True,
                    group_keys: vec!["uid".into()],
                },
                loss: 0.0,
            }],
        );
        let router = ShardRouter::build_for_plan(Arc::new(train), &relevant, &plan, 3).unwrap();
        let sharded = router.prepare(&plan).unwrap();
        let tier = ServingTier::new(sharded, TierConfig::default());
        assert_eq!(tier.lookup(&[Value::Int(1)]).unwrap(), vec![Some(30.0)]);
        assert_eq!(tier.lookup(&[Value::Int(2)]).unwrap(), vec![Some(70.0)]);
        // Unseen key: the documented all-NULL row, regardless of which shard
        // the hash probes.
        assert_eq!(tier.lookup(&[Value::Int(99)]).unwrap(), vec![None]);
        assert_eq!(tier.model().num_features(), 1);
        assert_eq!(tier.model().key_columns(), ["uid".to_string()]);
        // Live ingestion needs no tier swap: each shard handle follows its
        // shard's epochs by itself.
        let mut batch = Table::new("logs");
        batch.add_column("uid", Column::from_i64s(&[1, 9])).unwrap();
        batch
            .add_column("pprice", Column::from_f64s(&[5.0, 8.0]))
            .unwrap();
        router.append_relevant(&batch).unwrap();
        assert_eq!(tier.lookup(&[Value::Int(1)]).unwrap(), vec![Some(35.0)]);
        assert_eq!(tier.lookup(&[Value::Int(9)]).unwrap(), vec![Some(8.0)]);
        assert_eq!(tier.stats().cancelled, 0);
    }

    #[test]
    fn hot_swap_changes_answers_without_stopping_service() {
        let tier = ServingTier::new(handle(1.0), TierConfig::default());
        assert_eq!(tier.generation(), 0);
        assert_eq!(tier.lookup(&[Value::Int(1)]).unwrap()[0], Some(30.0));
        // A "background refit" doubles every price; publish it.
        assert_eq!(tier.install(handle(2.0)), 1);
        assert_eq!(tier.generation(), 1);
        assert_eq!(tier.lookup(&[Value::Int(1)]).unwrap()[0], Some(60.0));
        assert_eq!(tier.stats().generation, 1);
    }

    #[test]
    fn epoch_cell_swaps_do_not_invalidate_pinned_readers() {
        let cell = EpochCell::new(Arc::new(1_u64));
        let pinned = cell.load();
        assert_eq!(cell.swap(Arc::new(2)), 1);
        assert_eq!(*pinned, 1, "pinned readers keep the old epoch");
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn expired_deadline_degrades_to_all_null_or_errors() {
        let degrading = ServingTier::new(handle(1.0), TierConfig::default());
        // An already-expired deadline: the worker skips the gather and
        // answers the unseen-key row.
        let got = degrading.lookup_deadline(&[Value::Int(1)], Duration::ZERO);
        assert_eq!(got.unwrap(), vec![None, None]);
        assert_eq!(degrading.stats().degraded, 1);

        let strict = ServingTier::new(
            handle(1.0),
            TierConfig {
                degrade_on_deadline: false,
                ..TierConfig::default()
            },
        );
        let err = strict
            .lookup_deadline(&[Value::Int(1)], Duration::ZERO)
            .unwrap_err();
        assert!(matches!(err, TierError::DeadlineExceeded), "got {err:?}");
        // A generous deadline answers normally.
        let ok = strict.lookup_deadline(&[Value::Int(1)], Duration::from_secs(60));
        assert_eq!(ok.unwrap()[0], Some(30.0));
    }

    #[test]
    fn admission_sheds_past_the_watermark() {
        // No workers can drain while we hold no submissions... instead, make
        // the queue tiny and the single worker slow by flooding it: with a
        // watermark of 1 and many in-flight submissions, some must shed.
        let tier = ServingTier::new(
            handle(1.0),
            TierConfig {
                workers: 1,
                queue_capacity: 2,
                shed_watermark: 1,
                max_batch: 1,
                ..TierConfig::default()
            },
        );
        let mut pending = Vec::new();
        let mut shed = 0;
        for _ in 0..64 {
            match tier.submit(vec![Value::Int(1)]) {
                Ok(p) => pending.push(p),
                Err(TierError::Shed { .. }) => shed += 1,
                Err(e) => panic!("unexpected admission error: {e:?}"),
            }
        }
        // Every admitted request still answers correctly.
        for p in pending {
            assert_eq!(p.wait().unwrap()[0], Some(30.0));
        }
        assert_eq!(tier.stats().shed, shed);
        assert_eq!(tier.stats().submitted, 64);
        assert_eq!(tier.stats().answered + shed, 64);
    }

    #[test]
    fn drop_drains_queued_requests_then_shuts_down() {
        let tier = ServingTier::new(
            handle(1.0),
            TierConfig {
                workers: 1,
                ..TierConfig::default()
            },
        );
        let pending: Vec<PendingLookup> = (0..16)
            .map(|_| tier.submit(vec![Value::Int(2)]).unwrap())
            .collect();
        drop(tier);
        for p in pending {
            assert_eq!(p.wait().unwrap()[0], Some(70.0));
        }
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let tier = ServingTier::new(handle(1.0), TierConfig::default());
        tier.shared.shutdown.store(true, Ordering::Release);
        assert!(matches!(
            tier.submit(vec![Value::Int(1)]),
            Err(TierError::Closed)
        ));
    }
}
