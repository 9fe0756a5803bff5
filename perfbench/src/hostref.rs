//! Host-speed reference: a fixed piece of work that uses none of the
//! HIOS crates, timed before and after every timed block of a pass so
//! that host times can be scaled to one reference host speed.
//!
//! On a shared host, whatever else runs on the same physical core slows
//! throughput-bound code for seconds to minutes at a time.  On a 2-core
//! KVM guest (Intel Xeon, Sapphire Rapids) that showed no steal time,
//! medians of ten short passes varied over 1–2.5 minutes with a
//! coefficient of variation of 0.17 (`fleet-steady`), 0.09
//! (`compile-zoo`) and 0.09 (`serve-churn`), while a dependent ALU chain
//! moved by 0.02.  This reference (eight independent mixing chains, then
//! sorting pseudo-random keys) slowed with the passes, and pass ÷
//! reference varied by 0.02, 0.03 and 0.04.  The reference's code is the
//! benchmark's own, so a change to the program moves the scaled times
//! fully; only the host's speed is divided out.

use crate::mix64;
use std::hint::black_box;
use std::time::Instant;

/// About the seconds one [`sample`] takes on that guest when nothing
/// contends for its cores.  Scaled times are host seconds on a host that
/// runs the reference this fast; the constant only fixes the unit.
pub const NOMINAL_S: f64 = 0.030;

/// Rounds of the eight mixing chains.
const MIX_ROUNDS: u64 = 4_000_000;

/// Keys sorted per round, and sort rounds.
const KEYS: usize = 1 << 16;
const SORT_ROUNDS: usize = 12;

/// Runs the reference once and returns its host seconds.
pub fn sample() -> f64 {
    let mut state = 0x5eed_u64;
    let mut keys: Vec<u32> = (0..KEYS)
        .map(|_| {
            state = mix64(state);
            state as u32
        })
        .collect();
    let started = Instant::now();
    let mut lanes: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..MIX_ROUNDS {
        for x in &mut lanes {
            *x = (*x ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ (*x >> 7);
        }
    }
    black_box(lanes);
    for _ in 0..SORT_ROUNDS {
        keys.sort_unstable();
        for k in &mut keys {
            *k = k.wrapping_mul(2_654_435_761) ^ (*k >> 13);
        }
    }
    black_box(&keys);
    started.elapsed().as_secs_f64()
}

/// The factor that scales host seconds measured while the reference took
/// `ref_s` to the reference host speed.
fn scale(ref_s: f64) -> f64 {
    NOMINAL_S / ref_s
}

/// Times blocks of work and scales each by the reference samples taken
/// just before and just after it.  Consecutive blocks share the sample
/// between them.
pub struct HostClock {
    last: f64,
    raw_s: f64,
    scaled_s: f64,
    /// Every reference sample taken, seconds.
    pub samples: Vec<f64>,
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut clock = HostClock {
            last: 0.0,
            raw_s: 0.0,
            scaled_s: 0.0,
            samples: Vec::new(),
        };
        clock.resample();
        clock
    }

    /// Takes a fresh sample, so that work done since the last one (checks,
    /// set-ups) does not stand between a block and the sample before it.
    pub fn resample(&mut self) {
        self.last = sample();
        self.samples.push(self.last);
    }

    /// The factor for work done right now.
    pub fn scale_now(&self) -> f64 {
        scale(self.last)
    }

    /// Runs `work` and adds its host seconds, raw and scaled.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = work();
        let secs = started.elapsed().as_secs_f64();
        let before = self.last;
        self.resample();
        self.raw_s += secs;
        self.scaled_s += secs * scale(0.5 * (before + self.last));
        out
    }

    /// Raw host seconds timed since the last [`HostClock::take`].
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// `(raw, scaled)` host seconds timed since the last call, and resets
    /// both.
    pub fn take(&mut self) -> (f64, f64) {
        let out = (self.raw_s, self.scaled_s);
        self.raw_s = 0.0;
        self.scaled_s = 0.0;
        out
    }
}
