//! The host's thread hand-off latency, measured by the benchmark's own code
//! between the measured steps, and the scale it puts a run's timings on.
//!
//! The 2-vCPU KVM guests this benchmark was built on drift between a fast
//! and a slow state over minutes, mostly without steal. Every timing of a
//! run moves with the state at once, by up to 1.7x between runs of one
//! ten-run set, and by as much between sets. A run cannot average that out.
//! Two threads handing a token back and forth through a mutex and a
//! condvar, as a serving-tier client and worker do, slow down with it:
//! over twelve `fit_lr` runs the run median of this round trip correlated
//! 0.82 with `fit_s`, 0.86 with `lookup_p50_us` and 0.94–0.96 with the
//! ingest metrics. The fits hand work to scoped worker pools, so they wait
//! on the same wake-ups.
//!
//! So a run reports its timings at a reference round trip of
//! [`REFERENCE_US`]: each time is multiplied by `REFERENCE_US / measured`
//! and each rate divided by it. The round trip runs none of FeatAug's code,
//! and it is measured only while no other thread of the process is alive,
//! so a change to the program cannot move it; the change shows in the
//! scaled timings in full.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stats::median;

/// The round trip a scale of 1 stands for, in microseconds: about the
/// median on the fast state of an idle 2-vCPU KVM guest of an Intel Xeon
/// (Sapphire Rapids, 2.0 GHz base clock), where a tier lookup's p50 is
/// 17-19 µs.
pub const REFERENCE_US: f64 = 16.0;

/// Round trips timed together as one sample.
const ROUND_TRIPS: u64 = 100;

/// Value the main thread stores to stop its partner. Odd, like a request.
const STOP: u64 = u64::MAX;

/// How long a thread that was just joined may still be listed.
const THREAD_EXIT_GRACE: Duration = Duration::from_secs(1);

/// Wait until the calling thread is the only one listed in
/// `/proc/self/task`. A joined thread can stay listed for a moment: `join`
/// returns once the thread has cleared its id, before the kernel has
/// released it. A thread still listed after [`THREAD_EXIT_GRACE`] is alive.
fn only_thread() -> Result<(), String> {
    let start = Instant::now();
    loop {
        let threads = std::fs::read_dir("/proc/self/task")
            .map_err(|e| format!("listing /proc/self/task: {e}"))?
            .count();
        if threads == 1 {
            return Ok(());
        }
        if start.elapsed() > THREAD_EXIT_GRACE {
            return Err(format!(
                "{threads} threads alive while measuring the host's hand-off latency; expected only the main thread"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Default)]
pub struct HandOff {
    /// Mean round trip of each sample, in microseconds.
    pub round_trip_us: Vec<f64>,
}

impl HandOff {
    /// Hand a token to a partner thread and back, [`ROUND_TRIPS`] at a time,
    /// for `duration`. Fails if any other thread of the process is alive:
    /// a program thread left running would slow the round trip, and the
    /// scaling would then hide the program's cost.
    pub fn measure(&mut self, duration: Duration) -> Result<(), String> {
        only_thread()?;
        // Even: the partner's turn is over. Odd: a request for the partner.
        let token = Mutex::new(0u64);
        let turned = Condvar::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut t = token.lock().expect("hand-off lock");
                loop {
                    while *t % 2 == 0 {
                        t = turned.wait(t).expect("hand-off lock");
                    }
                    if *t == STOP {
                        return;
                    }
                    *t += 1;
                    turned.notify_one();
                }
            });
            let mut next = 0u64;
            let start = Instant::now();
            while start.elapsed() < duration {
                let sample = Instant::now();
                for _ in 0..ROUND_TRIPS {
                    let mut t = token.lock().expect("hand-off lock");
                    *t = next + 1;
                    turned.notify_one();
                    while *t != next + 2 {
                        t = turned.wait(t).expect("hand-off lock");
                    }
                    next += 2;
                }
                self.round_trip_us
                    .push(sample.elapsed().as_secs_f64() * 1e6 / ROUND_TRIPS as f64);
            }
            *token.lock().expect("hand-off lock") = STOP;
            turned.notify_one();
        });
        Ok(())
    }

    /// The run's median round trip, in microseconds.
    pub fn median_us(&self) -> f64 {
        median(&self.round_trip_us)
    }

    /// What a run's times are multiplied by: [`REFERENCE_US`] over the
    /// run's median round trip.
    pub fn scale(&self) -> f64 {
        REFERENCE_US / self.median_us()
    }
}
