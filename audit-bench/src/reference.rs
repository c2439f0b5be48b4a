//! The host-speed reference: a fixed pointer chase, timed next to every
//! audit, so that time metrics read at one host speed.
//!
//! The 2-vCPU virtual machines the benchmark was sized on share their
//! physical machine with other tenants, and how fast they run drifts by
//! a fifth or more over minutes. CPU time drifts along with wall time.
//! A random walk over a 16 MiB cycle on [`THREADS`] threads slows down
//! with the audits. Over thirty 30-second windows of back-to-back
//! `lemma31-degree-one` audits, the windows' median audit times spread
//! 0.155 (q3 − q1 over the median). The medians of each audit's time
//! over the walk timed just before it spread 0.036. The walk runs
//! straight after the previous audit: a second walk straight after the
//! first one tracked the audits less well (0.073 against 0.063 in
//! another 10-minute sample).
//!
//! The walk depends on no crate of the repository, so no change to the
//! program can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::workload::THREADS;

/// Entries of the cycle: 4 Mi `u32`s, 16 MiB, well past the caches a
/// core has to itself.
const ENTRIES: usize = 1 << 22;
/// Steps each thread takes per timed walk.
const STEPS: usize = 300_000;
/// Seed of the cycle's order.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The walk's typical wall time on the host the benchmark was sized on
/// (2-vCPU Xeon virtual machine, Linux). Normalized times are scaled to
/// it, so they read as seconds on that host at its usual speed.
pub const NOMINAL_S: f64 = 0.035;

/// The cycle the walks follow.
pub struct ReferenceWalk {
    next: Vec<u32>,
}

impl ReferenceWalk {
    /// Builds one random cycle through every entry (Sattolo's shuffle),
    /// so no walk falls into a short loop that the caches would hold.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ReferenceWalk {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = SEED;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        ReferenceWalk { next }
    }

    /// Wall seconds of one walk of [`STEPS`] steps on each of [`THREADS`]
    /// threads at once, each thread from its own starting entry.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            let walkers: Vec<_> = (0..THREADS)
                .map(|t| s.spawn(move || self.walk(t * ENTRIES / THREADS)))
                .collect();
            for walker in walkers {
                black_box(walker.join().expect("a reference walk panicked"));
            }
        });
        start.elapsed().as_secs_f64()
    }

    fn walk(&self, start: usize) -> u32 {
        let mut i = start as u32;
        for _ in 0..STEPS {
            i = self.next[i as usize];
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_order_is_one_cycle_through_every_entry() {
        let walk = ReferenceWalk::new();
        let mut seen = vec![false; ENTRIES];
        let mut i = 0usize;
        for _ in 0..ENTRIES {
            assert!(!seen[i], "entry {i} came back early");
            seen[i] = true;
            i = walk.next[i] as usize;
        }
        assert_eq!(i, 0, "the cycle closes after every entry");
    }

    #[test]
    fn a_walk_takes_time() {
        assert!(ReferenceWalk::new().time() > 0.0);
    }
}
