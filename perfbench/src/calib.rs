//! Host-speed calibration: a fixed task of the benchmark's own, timed
//! during every pass so that the pass's times can be scaled to one host
//! speed.
//!
//! On a shared host the speed left to one process drifts by tens of
//! percent within minutes, as other tenants contend for the caches. The
//! drift slows this task and the simulator alike, so a time multiplied by
//! [`NOMINAL_S`] ÷ the task's median time during the same pass spreads
//! from run to run about half as much as the time itself. Hash-map churn
//! over a small key space follows the simulator's slow-downs; an
//! arithmetic loop does not. The task runs no repository code, so a change
//! to the program moves only the time being scaled.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::sys;

/// Seconds one sample takes on the idle host the benchmark was tuned on (a
/// 2-vCPU Xeon virtual machine). Times are reported in seconds at that
/// speed: measured time × `NOMINAL_S` ÷ the samples' median time.
pub const NOMINAL_S: f64 = 0.020;

/// Distinct keys: the table stays within a core's private caches and adds
/// next to nothing to the process's peak resident set.
const KEYS: u64 = 4096;

/// Map operations per sample, about 20 ms on a 2 GHz server core.
const OPS: u64 = 600_000;

/// Checksum every sample must give; any other value means the task did not
/// run as written.
const CHECKSUM: u64 = 8_790_247_125_562;

/// One timed run of the task: (wall seconds, process CPU seconds).
pub fn sample() -> (f64, f64) {
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let sum = churn(black_box(KEYS), black_box(OPS));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::cpu_s() - cpu0;
    assert_eq!(sum, CHECKSUM, "calibration task checksum");
    (wall, cpu)
}

/// Seeded inserts and lookups on a fresh map with a fixed hasher.
fn churn(keys: u64, ops: u64) -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 1;
    let mut sum: u64 = 0;
    for i in 0..ops {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        *map.entry((x >> 20) % keys).or_default() += i;
        sum = sum.wrapping_add(map.get(&((x >> 40) % keys)).copied().unwrap_or(0));
    }
    sum.wrapping_add(map.len() as u64)
}
