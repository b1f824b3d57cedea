//! Offline stand-in for the `criterion` crate.
//!
//! Implements the `bench_function` / `iter` / `criterion_group!` /
//! `criterion_main!` surface with a simple warm-up + timed-batch harness that
//! prints the mean wall-clock time per iteration. Good enough to compare the
//! relative cost of two code paths; not a statistical benchmarking framework.
//! See `crates/support/README.md` for scope and caveats.

use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Runs one benchmark body repeatedly and measures it.
pub struct Bencher {
    /// Mean time per iteration measured by the last `iter` call.
    pub(crate) mean: Duration,
    target: Duration,
}

impl Bencher {
    /// Measure `f`: a short warm-up, then as many timed iterations as fit the
    /// time budget (at least 10).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until ~10% of the budget is spent, at least once.
        let warmup_budget = self.target / 10;
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= warmup_budget {
                break;
            }
        }
        let timed_iters = self.timed_iters(warm_start.elapsed() / warm_iters.max(1) as u32);

        let start = Instant::now();
        for _ in 0..timed_iters {
            black_box(f());
        }
        self.mean = start.elapsed() / timed_iters as u32;
    }

    /// Measure `routine` on a fresh input from `setup` each iteration. Only
    /// the routine is timed: building the input and dropping the output are
    /// not.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Mean routine time over `iters` iterations or, without a count, over
        // as many as `budget` of routine time takes (at least one).
        let mut timed = |iters: Option<u64>, budget: Duration| {
            let (mut spent, mut done) = (Duration::ZERO, 0u64);
            while iters.map_or(done == 0 || spent < budget, |n| done < n) {
                let input = setup();
                let start = Instant::now();
                let out = black_box(routine(input));
                spent += start.elapsed();
                drop(out);
                done += 1;
            }
            spent / done.max(1) as u32
        };
        let per_iter = timed(None, self.target / 10);
        let timed_iters = self.timed_iters(per_iter);
        self.mean = timed(Some(timed_iters), Duration::ZERO);
    }

    /// Timed iterations that fill the budget at `per_iter` each (at least 10).
    fn timed_iters(&self, per_iter: Duration) -> u64 {
        if per_iter.is_zero() {
            1000
        } else {
            ((self.target.as_nanos() / per_iter.as_nanos().max(1)) as u64).clamp(10, 1_000_000)
        }
    }
}

/// How many inputs [`Bencher::iter_batched`] prepares at once. This harness
/// has only criterion's one-setup-per-iteration mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One setup per iteration.
    PerIteration,
}

/// The benchmark harness handle.
pub struct Criterion {
    target: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            target: Duration::from_millis(500),
        }
    }
}

impl Criterion {
    /// Register and immediately run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            mean: Duration::ZERO,
            target: self.target,
        };
        f(&mut b);
        println!("bench {name:<50} {:>12.3?}/iter", b.mean);
        self
    }

    /// Override the per-benchmark time budget.
    pub fn measurement_time(mut self, target: Duration) -> Self {
        self.target = target;
        self
    }

    /// Accepted for API compatibility; this harness sizes iteration counts
    /// from the time budget, not a fixed sample count.
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }
}

/// Group benchmark functions, mirroring `criterion_group!` (both the simple
/// form and the `name/config/targets` form).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
}

/// Emit a `main` running the given groups, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_something() {
        let mut c = Criterion {
            target: Duration::from_millis(20),
        };
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1 + 1));
            ran = true;
        });
        assert!(ran);
    }

    #[test]
    fn iter_batched_runs_setup_once_per_routine_call() {
        let mut b = Bencher {
            mean: Duration::ZERO,
            target: Duration::from_millis(20),
        };
        let (mut setups, mut routines) = (0u64, 0u64);
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 64]
            },
            |v| {
                routines += 1;
                v.len()
            },
            BatchSize::PerIteration,
        );
        assert_eq!(setups, routines);
        assert!(routines >= 11, "warm-up plus at least 10 timed iterations");
    }
}
