//! Cooperative cancellation for long-running kernel and gather loops.
//!
//! A [`CancelToken`] couples an explicit cancel flag with an optional deadline instant. Engines
//! thread `Option<&CancelToken>` through their cancellable paths and poll
//! [`CancelToken::is_cancelled`] at cheap checkpoints (every K groups of an aggregation, every
//! key probe of a lookup), so work is preempted mid-operation instead of at the next batch
//! boundary. Polling is a
//! relaxed atomic load plus (when a deadline is set) one `Instant::now()` — callers pick a
//! checkpoint stride that amortises that cost to noise.
//!
//! The token is deliberately tiny and shareable: a tier hands `&CancelToken` down a call chain
//! synchronously, or wraps it in an `Arc` to cancel from another thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Work was preempted by a [`CancelToken`] before it completed.
///
/// Carried upward as a dedicated error variant so callers can distinguish "the deadline fired"
/// from a genuine evaluation failure and degrade gracefully (e.g. an all-NULL feature row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work cancelled by deadline or explicit cancellation")
    }
}

impl std::error::Error for Cancelled {}

/// An atomic cancel flag plus an optional deadline instant.
///
/// `is_cancelled` reports true once either trips; the flag latches (there is no un-cancel), so
/// checkpoints after the first positive poll stay positive.
#[derive(Debug)]
pub struct CancelToken {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A token with no deadline; it cancels only via [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token that trips once `Instant::now()` passes `deadline` (or [`CancelToken::cancel`]
    /// is called, whichever comes first).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// A token from an optional deadline — `None` behaves like [`CancelToken::new`].
    pub fn with_deadline_opt(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            flag: AtomicBool::new(false),
            deadline,
        }
    }

    /// Trip the explicit cancel flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// The deadline instant, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the flag is set or the deadline has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch so later polls skip the clock read.
                self.flag.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// `Err(Cancelled)` once cancelled — checkpoint form for `?`-style propagation.
    #[inline]
    pub fn check(&self) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.check(), Ok(()));
    }

    #[test]
    fn explicit_cancel_latches() {
        let token = CancelToken::new();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(token.is_cancelled());
        assert_eq!(token.check(), Err(Cancelled));
    }

    #[test]
    fn past_deadline_cancels_future_deadline_does_not() {
        let past = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(past.is_cancelled());

        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
        // An explicit cancel still trips a token whose deadline is far away.
        future.cancel();
        assert!(future.is_cancelled());
    }

    #[test]
    fn deadline_opt_none_matches_plain_token() {
        let token = CancelToken::with_deadline_opt(None);
        assert_eq!(token.deadline(), None);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn token_is_shareable_across_threads() {
        let token = std::sync::Arc::new(CancelToken::new());
        let clone = token.clone();
        std::thread::spawn(move || clone.cancel()).join().unwrap();
        assert!(token.is_cancelled());
    }
}
