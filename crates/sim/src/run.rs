//! Public simulation API: [`RunConfig`] + [`Simulator`].

use grs_core::{
    compute_launch_plan, occupancy, reorder_declarations, GpuConfig, KernelFootprint, LaunchPlan,
    ResourceKind, SchedulerKind, Threshold,
};
use grs_isa::Kernel;
use serde::{Deserialize, Serialize};

use crate::gpu::Gpu;
use crate::kinfo::KernelInfo;
use crate::mem::MemoryModel;
use crate::stats::SimStats;
use crate::supervise::RunReport;
use crate::telemetry::TelemetryConfig;

/// Whether (and which) resource sharing is active for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharingMode {
    /// Baseline: block-granularity allocation only.
    None,
    /// Register sharing (paper Sec. III-A).
    Registers,
    /// Scratchpad sharing (paper Sec. III-B).
    Scratchpad,
}

impl SharingMode {
    /// The shared resource, if any.
    pub fn resource(self) -> Option<ResourceKind> {
        match self {
            SharingMode::None => None,
            SharingMode::Registers => Some(ResourceKind::Registers),
            SharingMode::Scratchpad => Some(ResourceKind::Scratchpad),
        }
    }
}

/// Full configuration of one simulation run. The named constructors cover
/// every configuration the paper evaluates; the `with_*` methods tweak
/// individual knobs for ablations.
///
/// # Example
///
/// The paper's register-sharing machine with GTO scheduling and the
/// event-driven memory model, on a 2-SM machine for a quick run:
///
/// ```
/// use grs_core::SchedulerKind;
/// use grs_isa::{GlobalPattern, KernelBuilder};
/// use grs_sim::{MemoryModel, RunConfig, SharingMode, Simulator};
///
/// let mut cfg = RunConfig::paper_register_sharing()
///     .with_scheduler(SchedulerKind::Gto)
///     .with_memory_model(MemoryModel::Event);
/// assert_eq!(cfg.sharing, SharingMode::Registers);
/// cfg.gpu.num_sms = 2;
///
/// let kernel = KernelBuilder::new("stream")
///     .threads_per_block(128)
///     .regs_per_thread(24)
///     .grid_blocks(8)
///     .ld_global(GlobalPattern::Stream)
///     .ffma(2)
///     .build();
/// let stats = Simulator::new(cfg).run(&kernel);
/// assert_eq!(stats.blocks_completed, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Machine description (Table I by default).
    pub gpu: GpuConfig,
    /// Warp scheduler.
    pub scheduler: SchedulerKind,
    /// Sharing mode.
    pub sharing: SharingMode,
    /// Sharing threshold `t`.
    pub threshold: Threshold,
    /// Dynamic warp-execution throttle (paper Sec. IV-C).
    pub dyn_throttle: bool,
    /// Apply the declaration-reordering pass (paper Sec. IV-B) before
    /// simulating.
    pub reorder_decls: bool,
    /// Event-driven fast-forward engine: skip spans of cycles in which no SM
    /// can make progress (see the `grs_sim::gpu` module docs). Statistics
    /// are bit-identical with the engine on or off; the knob exists so tests
    /// and benches can diff the fast path against the per-cycle reference.
    pub fast_forward: bool,
    /// How the shared memory system is timed (see the `grs_sim::mem` module
    /// docs). `Functional` (the default) computes each transaction's full
    /// latency at issue over infinite buffering; `Event` models
    /// per-partition L2 banks with finite MSHR tables and bounded DRAM
    /// queues whose back-pressure gates SM issue.
    pub memory_model: MemoryModel,
    /// Cycle-level telemetry: structured event tracing and periodic metric
    /// sampling (see the [`crate::telemetry`] module docs). `None` (the
    /// default) records nothing and adds no per-cycle work. Tracing is
    /// **observation-only**: [`SimStats`] are bit-identical with telemetry
    /// on or off, pinned by `tests/telemetry.rs` across the full scheduler ×
    /// sharing × memory-model matrix on both engines.
    pub telemetry: Option<TelemetryConfig>,
    /// Forward-progress watchdog window, in cycles. If the run reaches a
    /// cycle at least this far past the last provable progress (an issued
    /// instruction or a scheduled writeback/capacity release) while SMs are
    /// still live, the run ends with
    /// [`RunOutcome::Stalled`](crate::supervise::RunOutcome) and a
    /// structured [`StallDiagnosis`](crate::supervise::StallDiagnosis)
    /// instead of spinning to [`Self::max_cycles`]. `None` (the default)
    /// disables the watchdog. The trip cycle is engine-invariant.
    pub watchdog: Option<u64>,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
}

impl RunConfig {
    const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

    /// The paper's baseline: unshared, LRR scheduling (labelled
    /// `Unshared-LRR` in the figures).
    pub fn baseline_lrr() -> Self {
        RunConfig {
            gpu: GpuConfig::paper_baseline(),
            scheduler: SchedulerKind::Lrr,
            sharing: SharingMode::None,
            threshold: Threshold::paper_default(),
            dyn_throttle: false,
            reorder_decls: false,
            fast_forward: true,
            memory_model: MemoryModel::Functional,
            telemetry: None,
            watchdog: None,
            max_cycles: Self::DEFAULT_MAX_CYCLES,
        }
    }

    /// Unshared baseline with GTO scheduling (`Unshared-GTO`, Fig. 10(a,b)).
    pub fn baseline_gto() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Gto,
            ..Self::baseline_lrr()
        }
    }

    /// Unshared baseline with two-level scheduling (Fig. 10(c,d); the paper
    /// uses fetch groups of 8).
    pub fn baseline_two_level() -> Self {
        RunConfig {
            scheduler: SchedulerKind::TwoLevel { group_size: 8 },
            ..Self::baseline_lrr()
        }
    }

    /// The paper's full register-sharing configuration
    /// (`Shared-OWF-Unroll-Dyn`): OWF scheduling, declaration reordering,
    /// dynamic throttle, t = 0.1.
    pub fn paper_register_sharing() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Owf,
            sharing: SharingMode::Registers,
            dyn_throttle: true,
            reorder_decls: true,
            ..Self::baseline_lrr()
        }
    }

    /// The paper's full scratchpad-sharing configuration (`Shared-OWF`):
    /// OWF scheduling, t = 0.1. (Unroll and Dyn are register-sharing
    /// optimizations; the paper does not apply them to scratchpad sharing.)
    pub fn paper_scratchpad_sharing() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Owf,
            sharing: SharingMode::Scratchpad,
            ..Self::baseline_lrr()
        }
    }

    /// Replace the scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Replace the sharing mode.
    pub fn with_sharing(mut self, s: SharingMode) -> Self {
        self.sharing = s;
        self
    }

    /// Replace the threshold.
    pub fn with_threshold(mut self, t: Threshold) -> Self {
        self.threshold = t;
        self
    }

    /// Enable/disable the dynamic throttle.
    pub fn with_dyn_throttle(mut self, on: bool) -> Self {
        self.dyn_throttle = on;
        self
    }

    /// Enable/disable declaration reordering.
    pub fn with_reorder_decls(mut self, on: bool) -> Self {
        self.reorder_decls = on;
        self
    }

    /// Enable/disable the event-driven fast-forward engine (on by default;
    /// off runs the cycle-by-cycle reference loop — same statistics, slower).
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Replace the memory model (`Functional` by default).
    pub fn with_memory_model(mut self, m: MemoryModel) -> Self {
        self.memory_model = m;
        self
    }

    /// Enable cycle-level telemetry (`None` = off; see [`Self::telemetry`]).
    pub fn with_telemetry(mut self, t: Option<TelemetryConfig>) -> Self {
        self.telemetry = t;
        self
    }

    /// Set the forward-progress watchdog window (`None` = disabled; see
    /// [`Self::watchdog`]).
    pub fn with_watchdog(mut self, w: Option<u64>) -> Self {
        self.watchdog = w;
        self
    }

    /// Replace the machine description.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Replace the cycle bound.
    pub fn with_max_cycles(mut self, c: u64) -> Self {
        self.max_cycles = c;
        self
    }
}

/// Errors a run can fail with before simulation starts.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The kernel failed static validation.
    InvalidKernel(grs_isa::ValidateError),
    /// The simulator's scoreboard supports at most 64 registers per thread.
    TooManyRegisters {
        /// Registers the kernel declares.
        regs: u32,
    },
    /// Not even one block fits on an SM.
    KernelDoesNotFit,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            RunError::TooManyRegisters { regs } => {
                write!(
                    f,
                    "kernel declares {regs} registers/thread; the simulator supports ≤ 64"
                )
            }
            RunError::KernelDoesNotFit => write!(f, "kernel does not fit on one SM"),
        }
    }
}

impl std::error::Error for RunError {}

/// The simulator front end.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: RunConfig,
}

impl Simulator {
    /// Create a simulator for `cfg`.
    pub fn new(cfg: RunConfig) -> Self {
        Simulator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Compute the launch plan this configuration gives `kernel` without
    /// simulating (paper Fig. 8(a,b) / Tables VI, VIII).
    pub fn plan_for(&self, kernel: &Kernel) -> LaunchPlan {
        let fp = KernelFootprint::of(kernel);
        match self.cfg.sharing.resource() {
            Some(res) => compute_launch_plan(&self.cfg.gpu.sm, &fp, self.cfg.threshold, res),
            None => {
                let occ = occupancy(&self.cfg.gpu.sm, &fp);
                LaunchPlan {
                    unshared: occ.blocks,
                    shared_pairs: 0,
                    max_blocks: occ.blocks,
                    baseline_blocks: occ.blocks,
                    resource: ResourceKind::Registers,
                }
            }
        }
    }

    /// Simulate `kernel`; returns statistics or a configuration error.
    ///
    /// Equivalent to [`Self::try_run_report`] with the outcome and
    /// telemetry discarded.
    pub fn try_run(&self, kernel: &Kernel) -> Result<SimStats, RunError> {
        self.try_run_report(kernel).map(|r| r.stats)
    }

    /// Simulate `kernel` under the watchdog; returns the full
    /// [`RunReport`] (statistics plus outcome and telemetry) or a
    /// configuration error.
    pub fn try_run_report(&self, kernel: &Kernel) -> Result<RunReport, RunError> {
        grs_isa::validate(kernel).map_err(RunError::InvalidKernel)?;
        if kernel.regs_per_thread > 64 {
            return Err(RunError::TooManyRegisters {
                regs: kernel.regs_per_thread,
            });
        }
        let mut kernel = kernel.clone();
        if self.cfg.reorder_decls && self.cfg.sharing == SharingMode::Registers {
            reorder_declarations(&mut kernel);
        }
        let plan = self.plan_for(&kernel);
        if plan.max_blocks == 0 {
            return Err(RunError::KernelDoesNotFit);
        }
        let kinfo = KernelInfo::new(kernel, self.cfg.sharing.resource(), self.cfg.threshold);
        let gpu = Gpu::new(
            &self.cfg.gpu,
            &kinfo,
            plan,
            self.cfg.scheduler,
            self.cfg.dyn_throttle,
            self.cfg.sharing.resource(),
            self.cfg.fast_forward,
            self.cfg.memory_model,
            self.cfg.telemetry,
        );
        Ok(crate::supervise::supervise(&self.cfg, gpu, &kinfo))
    }

    /// Simulate `kernel`; panics on configuration errors (convenience for
    /// examples and benches).
    pub fn run(&self, kernel: &Kernel) -> SimStats {
        self.try_run(kernel).expect("simulation failed")
    }

    /// Simulate `kernel` under the watchdog; panics on configuration errors.
    pub fn run_report(&self, kernel: &Kernel) -> RunReport {
        self.try_run_report(kernel).expect("simulation failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::{GlobalPattern, KernelBuilder};

    fn small_kernel() -> Kernel {
        KernelBuilder::new("k")
            .threads_per_block(64)
            .regs_per_thread(16)
            .grid_blocks(8)
            .ialu(4)
            .ld_global(GlobalPattern::Stream)
            .ffma(4)
            .build()
    }

    #[test]
    fn baseline_run_completes_grid() {
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        let stats = Simulator::new(cfg).run(&small_kernel());
        assert!(!stats.timed_out);
        assert_eq!(stats.blocks_completed, 8);
        assert!(stats.ipc() > 0.0);
        // 10 warp instrs per warp × 2 warps × 8 blocks.
        assert_eq!(stats.warp_instrs, 10 * 2 * 8);
        assert_eq!(stats.thread_instrs, stats.warp_instrs * 32);
    }

    #[test]
    fn determinism() {
        let mut cfg = RunConfig::paper_register_sharing();
        cfg.gpu.num_sms = 2;
        let a = Simulator::new(cfg.clone()).run(&small_kernel());
        let b = Simulator::new(cfg).run(&small_kernel());
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_kernel_is_rejected() {
        let mut k = small_kernel();
        k.grid_blocks = 0;
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert!(matches!(err, Err(RunError::InvalidKernel(_))));
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let k = KernelBuilder::new("fat")
            .threads_per_block(1024)
            .regs_per_thread(40)
            .smem_per_block(0)
            .grid_blocks(1)
            .ialu(1)
            .build();
        // 40 × 1024 = 40960 registers > 32768: does not fit.
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert_eq!(err, Err(RunError::KernelDoesNotFit));
    }

    #[test]
    fn too_many_registers_is_rejected() {
        let k = KernelBuilder::new("wide")
            .threads_per_block(32)
            .regs_per_thread(65)
            .grid_blocks(1)
            .ialu(1)
            .build();
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert_eq!(err, Err(RunError::TooManyRegisters { regs: 65 }));
    }

    #[test]
    fn sharing_increases_resident_blocks_for_limited_kernel() {
        // hotspot-like footprint: 36 regs × 256 threads.
        let k = KernelBuilder::new("hotspotish")
            .threads_per_block(256)
            .regs_per_thread(36)
            .grid_blocks(28)
            .ialu(8)
            .build();
        let base = Simulator::new(RunConfig::baseline_lrr()).plan_for(&k);
        let shared = Simulator::new(RunConfig::paper_register_sharing()).plan_for(&k);
        assert_eq!(base.max_blocks, 3);
        assert_eq!(shared.max_blocks, 6);
    }
}
