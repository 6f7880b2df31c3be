//! Simulation statistics — the quantities the paper's figures plot.

use serde::{Deserialize, Serialize};

/// Per-SM counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmStats {
    /// Warp instructions issued.
    pub warp_instrs: u64,
    /// Thread instructions issued (warp instructions × active threads).
    pub thread_instrs: u64,
    /// Cycles with zero issues while ≥1 warp was blocked by a lock, the
    /// dynamic throttle, or a structural port conflict ("pipeline stall",
    /// paper Sec. VI-B).
    pub stall_cycles: u64,
    /// Cycles with zero issues while every live warp waited on long-latency
    /// results or barriers ("idle", paper Sec. VI-B).
    pub idle_cycles: u64,
    /// Cycles with no resident work at all (grid smaller than the machine or
    /// end-of-grid drain); excluded from the stall/idle split.
    pub empty_cycles: u64,
    /// Thread blocks completed on this SM.
    pub blocks_completed: u64,
    /// Maximum resident blocks observed.
    pub max_resident_blocks: u32,
    /// Lock-acquisition attempts that were denied (busy-wait retries).
    pub lock_retries: u64,
    /// Non-owner memory instructions suppressed by the dynamic throttle.
    pub throttled_issues: u64,
    /// Warp-cycles a global **load** was blocked by event-memory-model
    /// back-pressure: the MSHR table (or the DRAM queue behind it) could not
    /// reserve room for its transactions. Always 0 under the functional
    /// model.
    pub mshr_full_stalls: u64,
    /// Warp-cycles a global **store** was blocked by a full DRAM request
    /// queue (stores take no MSHR entry). Always 0 under the functional
    /// model.
    pub dram_queue_full_stalls: u64,
    /// Idle cycles in which ≥1 live warp was blocked on a register hazard
    /// (scoreboard). Part of the per-reason breakdown:
    /// `stall_scoreboard_cycles + stall_barrier_cycles +
    /// stall_no_ready_cycles == idle_cycles`, bit-identical across engines.
    pub stall_scoreboard_cycles: u64,
    /// Idle cycles in which no live warp was scoreboard-blocked but ≥1 was
    /// parked at a block-wide barrier.
    pub stall_barrier_cycles: u64,
    /// Pipeline-stall cycles attributed to the memory system or structural
    /// conflicts. By construction this equals [`Self::stall_cycles`]: every
    /// zero-issue cycle classified as a pipeline stall is caused by the
    /// MSHR/DRAM issue gate, a per-warp MSHR limit, or a port conflict.
    pub stall_mem_gate_cycles: u64,
    /// Remaining idle cycles: live warps existed but none was ready and
    /// none was scoreboard- or barrier-blocked (lock busy-wait, dynamic
    /// throttle suppression, end-of-block exit drain).
    pub stall_no_ready_cycles: u64,
}

/// Memory-hierarchy counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// L1 load hits (all SMs).
    pub l1_hits: u64,
    /// L1 load misses.
    pub l1_misses: u64,
    /// L2 load hits.
    pub l2_hits: u64,
    /// L2 load misses (DRAM accesses).
    pub l2_misses: u64,
    /// Total global-memory transactions issued by coalescers.
    pub transactions: u64,
    /// Event model: requests that merged into an in-flight MSHR entry for
    /// the same line (hit-under-miss / miss merging) instead of paying for
    /// another DRAM access.
    pub mshr_merges: u64,
    /// Event model: sum over cycles of occupied MSHR entries (all
    /// partitions) — the integral `∫ occupancy dt`, credited in closed form
    /// at release events so it is exact across fast-forward jumps. Divide by
    /// `SimStats::cycles` for the mean outstanding-miss count.
    pub mshr_occupancy_cycles: u64,
    /// Event model: sum over cycles of held DRAM request-queue slots (all
    /// partitions); exact across fast-forward jumps like
    /// [`Self::mshr_occupancy_cycles`].
    pub dram_queue_occupancy_cycles: u64,
    /// Event model: most MSHR entries ever occupied **across all
    /// partitions**, sampled at every admission (admissions are the only
    /// point totals grow, so the sample sees every peak).
    pub peak_mshr_occupancy: u32,
    /// Event model: most DRAM-queue slots ever held across all partitions,
    /// sampled at admission like [`Self::peak_mshr_occupancy`].
    pub peak_dram_queue_occupancy: u32,
}

impl MemStats {
    /// L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        ratio(self.l1_misses, self.l1_hits + self.l1_misses)
    }

    /// L2 miss ratio.
    pub fn l2_miss_ratio(&self) -> f64 {
        ratio(self.l2_misses, self.l2_hits + self.l2_misses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Whole-run statistics returned by [`crate::Simulator::run`].
///
/// # Example
///
/// The paper's metrics are ratios over these counters: IPC is thread
/// instructions per cycle, and the Fig. 9(c,d) decomposition compares
/// stall/idle cycles against a baseline run:
///
/// ```
/// use grs_sim::SimStats;
///
/// let baseline = SimStats {
///     cycles: 1_000,
///     thread_instrs: 8_000,
///     stall_cycles: 400,
///     ..Default::default()
/// };
/// let shared = SimStats {
///     cycles: 800,
///     thread_instrs: 8_000,
///     stall_cycles: 300,
///     ..Default::default()
/// };
/// assert_eq!(baseline.ipc(), 8.0);
/// assert_eq!(shared.ipc(), 10.0);
/// assert_eq!(shared.ipc_improvement_pct(&baseline), 25.0);
/// assert_eq!(shared.stall_decrease_pct(&baseline), 25.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Sum of warp instructions across SMs.
    pub warp_instrs: u64,
    /// Sum of thread instructions across SMs — the numerator of the paper's
    /// IPC metric.
    pub thread_instrs: u64,
    /// Sum of per-SM stall cycles.
    pub stall_cycles: u64,
    /// Sum of per-SM idle cycles.
    pub idle_cycles: u64,
    /// Sum of per-SM empty cycles.
    pub empty_cycles: u64,
    /// Blocks completed (must equal the grid size on a clean run).
    pub blocks_completed: u64,
    /// Max resident blocks observed on any SM — the quantity of paper
    /// Fig. 8(a)/(b) and Tables VI/VIII.
    pub max_resident_blocks: u32,
    /// Busy-wait lock retries.
    pub lock_retries: u64,
    /// Throttle suppressions.
    pub throttled_issues: u64,
    /// Sum of per-SM load-side memory-gate stalls (event model; see
    /// [`SmStats::mshr_full_stalls`]).
    pub mshr_full_stalls: u64,
    /// Sum of per-SM store-side memory-gate stalls (event model).
    pub dram_queue_full_stalls: u64,
    /// Sum of per-SM scoreboard-blocked idle cycles (see
    /// [`SmStats::stall_scoreboard_cycles`]).
    pub stall_scoreboard_cycles: u64,
    /// Sum of per-SM barrier-blocked idle cycles.
    pub stall_barrier_cycles: u64,
    /// Sum of per-SM memory-gate/structural pipeline-stall cycles
    /// (equals [`Self::stall_cycles`] by construction).
    pub stall_mem_gate_cycles: u64,
    /// Sum of per-SM no-ready-warp idle cycles.
    pub stall_no_ready_cycles: u64,
    /// Memory counters.
    pub mem: MemStats,
    /// Per-SM breakdown.
    pub per_sm: Vec<SmStats>,
    /// True if the run hit the safety cycle bound before the grid finished.
    pub timed_out: bool,
}

impl SimStats {
    /// Instructions per cycle (thread instructions, paper metric).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instrs as f64 / self.cycles as f64
        }
    }

    /// Percentage IPC improvement over `baseline`
    /// (`(IPC − IPC_base)/IPC_base × 100`, the paper's headline metric).
    pub fn ipc_improvement_pct(&self, baseline: &SimStats) -> f64 {
        let b = baseline.ipc();
        if b == 0.0 {
            0.0
        } else {
            (self.ipc() - b) / b * 100.0
        }
    }

    /// Percentage decrease in stall cycles vs `baseline` (paper Fig. 9(c,d));
    /// negative values mean stalls increased.
    pub fn stall_decrease_pct(&self, baseline: &SimStats) -> f64 {
        decrease_pct(self.stall_cycles, baseline.stall_cycles)
    }

    /// Percentage decrease in idle cycles vs `baseline`.
    pub fn idle_decrease_pct(&self, baseline: &SimStats) -> f64 {
        decrease_pct(self.idle_cycles, baseline.idle_cycles)
    }

    /// Roll per-SM counters (in SM-id order) and the shared-memory counters
    /// into whole-run statistics.
    pub fn aggregate<'a, I>(cycles: u64, timed_out: bool, mem: MemStats, sms: I) -> SimStats
    where
        I: IntoIterator<Item = &'a SmStats>,
    {
        let mut out = SimStats {
            cycles,
            timed_out,
            mem,
            ..SimStats::default()
        };
        for s in sms {
            out.warp_instrs += s.warp_instrs;
            out.thread_instrs += s.thread_instrs;
            out.stall_cycles += s.stall_cycles;
            out.idle_cycles += s.idle_cycles;
            out.empty_cycles += s.empty_cycles;
            out.blocks_completed += s.blocks_completed;
            out.max_resident_blocks = out.max_resident_blocks.max(s.max_resident_blocks);
            out.lock_retries += s.lock_retries;
            out.throttled_issues += s.throttled_issues;
            out.mshr_full_stalls += s.mshr_full_stalls;
            out.dram_queue_full_stalls += s.dram_queue_full_stalls;
            out.stall_scoreboard_cycles += s.stall_scoreboard_cycles;
            out.stall_barrier_cycles += s.stall_barrier_cycles;
            out.stall_mem_gate_cycles += s.stall_mem_gate_cycles;
            out.stall_no_ready_cycles += s.stall_no_ready_cycles;
            out.per_sm.push(s.clone());
        }
        out
    }
}

fn decrease_pct(now: u64, before: u64) -> f64 {
    if before == 0 {
        if now == 0 {
            0.0
        } else {
            -100.0
        }
    } else {
        (before as f64 - now as f64) / before as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_thread_instrs_per_cycle() {
        let s = SimStats {
            cycles: 100,
            thread_instrs: 2500,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 25.0);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn improvement_pct() {
        let base = SimStats {
            cycles: 100,
            thread_instrs: 1000,
            ..Default::default()
        };
        let better = SimStats {
            cycles: 100,
            thread_instrs: 1200,
            ..Default::default()
        };
        assert!((better.ipc_improvement_pct(&base) - 20.0).abs() < 1e-12);
        assert!((base.ipc_improvement_pct(&better) + 16.666).abs() < 0.01);
    }

    #[test]
    fn decrease_pct_handles_zero_baselines() {
        let zero = SimStats::default();
        let some = SimStats {
            stall_cycles: 50,
            ..Default::default()
        };
        assert_eq!(zero.stall_decrease_pct(&zero), 0.0);
        assert_eq!(some.stall_decrease_pct(&zero), -100.0);
        assert_eq!(zero.stall_decrease_pct(&some), 100.0);
    }

    #[test]
    fn mem_ratios() {
        let m = MemStats {
            l1_hits: 75,
            l1_misses: 25,
            l2_hits: 20,
            l2_misses: 5,
            transactions: 100,
            ..Default::default()
        };
        assert!((m.l1_miss_ratio() - 0.25).abs() < 1e-12);
        assert!((m.l2_miss_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(MemStats::default().l1_miss_ratio(), 0.0);
    }
}
