//! A fixed reference computation whose time tracks the host's speed.
//!
//! On a shared host, such as a VM whose CPUs other tenants use too, a
//! busy neighbour slows every instruction of the benchmark, often for
//! tens of seconds, so whole runs come out slow. The reference
//! computation touches nothing of the engine: hash-map lookups and a
//! sort, on data of its own made from a fixed seed, so its time depends
//! on the host, not on the engine's code. Timed next to the engine's
//! calls, it tells how fast the host was just then, and the benchmark
//! scales its timings to a fixed reference speed: a timing `t` measured
//! while the reference computation took `c` seconds (the median of
//! several timings) is reported as `t * REFERENCE_S / c`.
//!
//! Of the kernels tried (ordered-map scans, a pointer chase, an
//! arithmetic loop, byte decoding, allocation, the same kernel with its
//! data left in cache), this one tracked the engine's slowdowns best:
//! over the rounds of ten runs of each workload, the log of a round's
//! read time rose with slope 0.82 to 1.01 against the log of its time,
//! with correlation 0.85 to 0.87.

use crate::writer::SplitMix;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Keys in the reference map.
const KEYS: usize = 1 << 16;
/// Lookups per timing.
const LOOKUPS: usize = 1 << 14;
/// Values sorted per timing.
const SORTED: usize = 1 << 15;
/// Bytes streamed through before each timing to push the reference
/// data out of the core's private caches.
const EVICT: usize = 8 << 20;

/// The reference speed: a time of the reference computation, in
/// seconds, within the range it took on a 2-vCPU Xeon VM (1.8 to 3.2 ms).
/// Scaled timings read as they would on a host on which it takes this
/// long.
pub const REFERENCE_S: f64 = 2.2e-3;

/// The reference computation's data.
pub struct Calibration {
    map: HashMap<u64, u64>,
    keys: Vec<u64>,
    unsorted: Vec<u64>,
    sorted: RefCell<Vec<u64>>,
    evict: RefCell<Vec<u8>>,
}

impl Calibration {
    /// Builds the reference data (always the same).
    pub fn new() -> Calibration {
        let mut rng = SplitMix(0x0CA1_1B4A);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
        let map = keys.iter().map(|&k| (k, k.rotate_left(7))).collect();
        let keys = (0..LOOKUPS).map(|_| keys[rng.below(KEYS)]).collect();
        let unsorted = (0..SORTED).map(|_| rng.next_u64()).collect();
        let unsorted: Vec<u64> = unsorted;
        let sorted = RefCell::new(unsorted.clone());
        Calibration { map, keys, unsorted, sorted, evict: RefCell::new(vec![0u8; EVICT]) }
    }

    /// Runs the reference computation once and returns its time in
    /// seconds. It first streams through a buffer of its own, so its data
    /// starts out of the core's private caches whatever ran before, and
    /// it allocates nothing.
    pub fn time(&self) -> f64 {
        let mut evict = self.evict.borrow_mut();
        for b in evict.iter_mut().step_by(64) {
            *b = b.wrapping_add(1);
        }
        std::hint::black_box(&*evict);
        let mut v = self.sorted.borrow_mut();
        let t = Instant::now();
        let mut acc = 0u64;
        for k in &self.keys {
            acc = acc.wrapping_add(self.map.get(k).copied().unwrap_or(0));
        }
        v.copy_from_slice(&self.unsorted);
        v.sort_unstable();
        acc ^= v[v.len() / 2];
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// The factor that scales timings taken while the reference computation
/// took `times` seconds to the reference speed. It uses their median, so
/// one timing that the scheduler cut into does not skew it.
pub fn scale(times: &[f64]) -> f64 {
    assert!(!times.is_empty(), "at least one reference timing");
    let mut t = times.to_vec();
    t.sort_by(f64::total_cmp);
    let n = t.len();
    let median = if n % 2 == 1 { t[n / 2] } else { (t[n / 2 - 1] + t[n / 2]) / 2.0 };
    REFERENCE_S / median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_the_reference_time_to_one() {
        assert_eq!(scale(&[REFERENCE_S]), 1.0);
        assert!((scale(&[REFERENCE_S * 2.0, REFERENCE_S * 2.0]) - 0.5).abs() < 1e-12);
        // A host twice as slow: a 10 ms timing reads as 5 ms.
        assert!((0.010 * scale(&[REFERENCE_S * 1.5, REFERENCE_S * 2.5]) - 0.005).abs() < 1e-12);
        // The median: one preempted timing does not move it.
        let r = REFERENCE_S;
        assert!((scale(&[r * 2.0, r * 2.0, r * 9.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_reference_computation_takes_time() {
        let c = Calibration::new();
        assert!(c.time() > 0.0);
    }
}
