//! Parallel simulation runner — the batch client of the sweep service.
//!
//! Individual simulations are strictly serial (cycle-accurate state), but
//! experiments sweep many independent (configuration, kernel) pairs. Those
//! are submitted to the process-wide [`SweepService`] ([`SweepService::global`]),
//! which content-hashes each job, answers duplicates from its memo store or
//! by attaching to the identical in-flight run, and executes the rest on
//! its worker pool (the caller helps while waiting); results come back in
//! job order — no shared result slots beyond the service, no cloning of
//! job data.
//!
//! Sweeps are crash-hardened by the service: every job runs under the
//! watchdog inside `catch_unwind`, and a job that returns an error or
//! panics is *recorded* in the sweep report ([`run_all_report`]) rather
//! than aborting the other few hundred simulations of an overnight sweep.
//!
//! Because the service is process-wide, duplicate (configuration, kernel)
//! pairs are simulated **once per process**, not once per occurrence — a
//! suite listing the same benchmark twice, or two experiments sharing a
//! baseline row, hit the memo store on every repeat.

use grs_isa::Kernel;
use grs_sim::{RunConfig, SimStats};

use crate::service::SweepService;

/// One simulation to run.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label carried through to the result (figure row/series name).
    pub label: String,
    /// Run configuration.
    pub cfg: RunConfig,
    /// Kernel to simulate.
    pub kernel: Kernel,
}

impl Job {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, cfg: RunConfig, kernel: Kernel) -> Self {
        Job {
            label: label.into(),
            cfg,
            kernel,
        }
    }
}

/// Scale a kernel's grid down for `--quick` smoke runs. The floor keeps at
/// least one block wave (28 blocks on the Table I machine's 14 SMs × 2
/// minimum residency) without ever *growing* a grid that was already
/// smaller than that.
pub fn shrink_grid(kernel: &mut Kernel, divisor: u32) {
    let floor = kernel.grid_blocks.min(28);
    kernel.grid_blocks = (kernel.grid_blocks / divisor.max(1)).max(floor);
}

/// Outcome of one job in a hardened sweep.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label, verbatim.
    pub label: String,
    /// Statistics, if the run succeeded.
    pub stats: Option<SimStats>,
    /// The `RunError` or panic message of a failed job, `None` on success.
    pub error: Option<String>,
}

/// Run every job through the process-wide [`SweepService`] — in parallel
/// across its worker pool, deduplicated against in-flight and memoized
/// work, with per-job crash isolation (see the module docs); results come
/// back in job order, one [`JobResult`] per job.
pub fn run_all_report(jobs: Vec<Job>) -> Vec<JobResult> {
    if jobs.is_empty() {
        return Vec::new();
    }
    SweepService::global().sweep(jobs)
}

/// Run every job, in parallel across available cores; results come back in
/// job order. A job that fails contributes default (all-zero) statistics
/// under its label, with a warning on stderr — experiments index results
/// positionally and must receive exactly one entry per job.
pub fn run_all(jobs: Vec<Job>) -> Vec<(String, SimStats)> {
    run_all_report(jobs)
        .into_iter()
        .map(|r| {
            let stats = r.stats.unwrap_or_else(|| {
                eprintln!(
                    "warning: job `{}` failed ({}); reporting zeroed stats",
                    r.label,
                    r.error.as_deref().unwrap_or("no error message")
                );
                SimStats::default()
            });
            (r.label, stats)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::KernelBuilder;

    #[test]
    fn runs_jobs_in_order() {
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 1;
        let k = |n: u32| {
            KernelBuilder::new(format!("k{n}"))
                .threads_per_block(32)
                .regs_per_thread(8)
                .grid_blocks(n)
                .ialu(3)
                .build()
        };
        let jobs = vec![
            Job::new("a", cfg.clone(), k(1)),
            Job::new("b", cfg.clone(), k(2)),
            Job::new("c", cfg, k(3)),
        ];
        let out = run_all(jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, "a");
        assert_eq!(out[2].0, "c");
        assert_eq!(out[0].1.blocks_completed, 1);
        assert_eq!(out[2].1.blocks_completed, 3);
    }

    #[test]
    fn parallel_runner_is_deterministic() {
        // Thread scheduling must not leak into results: two parallel sweeps
        // of the same jobs yield identical stats (each simulation is a pure
        // function of its config and kernel).
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        let jobs = || -> Vec<Job> {
            (1..=6u32)
                .map(|n| {
                    let k = KernelBuilder::new(format!("k{n}"))
                        .threads_per_block(64)
                        .regs_per_thread(12)
                        .grid_blocks(4 * n)
                        .ialu(n)
                        .build();
                    Job::new(format!("job{n}"), cfg.clone(), k)
                })
                .collect()
        };
        assert_eq!(run_all(jobs()), run_all(jobs()));
    }

    #[test]
    fn a_failing_job_is_recorded_without_sinking_the_sweep() {
        // grid_blocks = 0 fails validation, so the job returns an error; the
        // sweep must still return every job in order.
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 1;
        let good = KernelBuilder::new("good")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(2)
            .ialu(3)
            .build();
        let mut bad = good.clone();
        bad.grid_blocks = 0;
        let jobs = vec![
            Job::new("a", cfg.clone(), good.clone()),
            Job::new("boom", cfg.clone(), bad),
            Job::new("c", cfg.clone(), good.clone()),
        ];
        let report = run_all_report(jobs.clone());
        assert_eq!(report.len(), 3);
        assert_eq!(report[0].label, "a");
        assert!(report[0].stats.is_some() && report[0].error.is_none());
        let failed = &report[1];
        assert_eq!(failed.label, "boom");
        assert!(failed.stats.is_none());
        assert!(failed.error.is_some());
        assert!(report[2].stats.is_some());

        // The positional interface substitutes zeroed stats, preserving the
        // one-entry-per-job shape experiments index into.
        let flat = run_all(jobs);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat[1].0, "boom");
        assert_eq!(flat[1].1, SimStats::default());
        assert_eq!(flat[2].1.blocks_completed, 2);
    }

    #[test]
    fn shrink_grid_floors_at_one_wave() {
        let mut k = KernelBuilder::new("k").grid_blocks(168).ialu(1).build();
        shrink_grid(&mut k, 4);
        assert_eq!(k.grid_blocks, 42);
        // A big grid shrunk below one wave stops at the 28-block floor.
        let mut big = KernelBuilder::new("b").grid_blocks(64).ialu(1).build();
        shrink_grid(&mut big, 4);
        assert_eq!(big.grid_blocks, 28);
    }

    #[test]
    fn shrink_grid_never_grows_small_grids() {
        let mut tiny = KernelBuilder::new("t").grid_blocks(8).ialu(1).build();
        shrink_grid(&mut tiny, 4);
        assert_eq!(tiny.grid_blocks, 8, "a quick run must not inflate work");
        let mut one = KernelBuilder::new("o").grid_blocks(1).ialu(1).build();
        shrink_grid(&mut one, 4);
        assert_eq!(one.grid_blocks, 1);
    }
}
