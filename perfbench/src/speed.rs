//! Host-speed calibration for the in-process timings.
//!
//! The shared VM this benchmark was built on runs at a few distinct
//! speeds, 5–30% apart, and moves between them every few seconds to
//! minutes; every CPU-bound timing of a run moves with it. A fixed loop of
//! the benchmark's own (gathers and `exp` over a 256 KiB table, never
//! touched by the program) is timed right before each unit of timed work;
//! the unit's seconds are scaled by the loop's reference time over its time
//! now. The result is the unit's time
//! at the reference speed: a slower program still reads slower, a slower
//! host does not.

use crate::inputs::Rng;
use crate::stats::median;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds one calibration loop takes at the reference speed: its median
/// on the 2-vCPU host of `README.md` at its fastest speed.
const REFERENCE_LOOP_S: f64 = 71e-6;
/// Loops timed per sample; the sample is their median.
const REPS: usize = 5;
/// Table entries (256 KiB of f64) and gathers per pass over them.
const TABLE: usize = 32 * 1024;
const GATHERS: usize = 4 * 1024;
const PASSES: usize = 4;

struct Calibration {
    table: Vec<f64>,
    index: Vec<u32>,
}

impl Calibration {
    fn new() -> Self {
        let mut rng = Rng::new(0x5045_4544);
        let table = (0..TABLE).map(|_| rng.next_f64()).collect();
        let index = (0..GATHERS).map(|_| rng.below(TABLE) as u32).collect();
        Self { table, index }
    }

    /// One timed loop, in seconds.
    fn time_loop(&self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0;
        for pass in 0..PASSES {
            for (k, &i) in black_box(&self.index).iter().enumerate() {
                let d = self.table[i as usize] - self.table[(k + pass) % TABLE];
                acc += (-0.5 * d * d).exp();
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// Converts seconds measured while the loop took `loop_s` into seconds at
/// the reference speed.
pub fn to_reference(secs: f64, loop_s: f64) -> f64 {
    secs * REFERENCE_LOOP_S / loop_s
}

/// The factor that converts seconds measured now into reference seconds:
/// the median of [`REPS`] calibration loops, timed now.
pub fn factor() -> f64 {
    static CALIBRATION: OnceLock<Calibration> = OnceLock::new();
    let c = CALIBRATION.get_or_init(Calibration::new);
    let loops: Vec<f64> = (0..REPS).map(|_| c.time_loop()).collect();
    to_reference(1.0, median(&loops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_reads_the_same_and_a_slower_program_slower() {
        // The same work on a host running at half speed: both the unit and
        // the loop take twice as long.
        let fast = to_reference(0.010, REFERENCE_LOOP_S);
        assert!((to_reference(0.020, 2.0 * REFERENCE_LOOP_S) - fast).abs() < 1e-15);
        // Twice the work at the same host speed reads twice as long.
        assert!((to_reference(0.020, REFERENCE_LOOP_S) - 2.0 * fast).abs() < 1e-15);
        let f = factor();
        assert!(f.is_finite() && f > 0.0);
    }
}
