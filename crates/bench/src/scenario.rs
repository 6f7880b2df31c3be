//! `repro run <scenario>` — run one named scenario across the standard
//! configuration matrix and print a comparison table.
//!
//! A *scenario* is anything [`grs_workloads::benchmark`] resolves: the 19
//! fixed paper benchmarks (`conv1`, `hotspot`, ...) or a generated
//! stress-profile spec (`gen:<family>:<seed>[:<size>]`, see
//! `grs_workloads::gen`). The matrix is the set of configurations the paper
//! compares — the three baselines and the two sharing modes — plus the
//! event-memory-model point whose back-pressure counters the generated
//! `mshr-thrash` family targets. Rows run through the crash-hardened
//! [`crate::runner::run_all_report`] sweep, so one misbehaving
//! configuration reports its panic instead of sinking the table.
//!
//! With `--check`, the baseline row additionally re-runs on the per-cycle
//! reference loop and asserts bit-identical statistics — the same
//! differential oracle `tests/generated_differential.rs` applies to the
//! whole pinned corpus, available ad hoc for any scenario.

use grs_sim::{MemoryModel, RunConfig, SimStats, Simulator};

use crate::runner::{run_all_report, shrink_grid, Job};

/// The comparison rows `repro run` sweeps (and `repro sweep --matrix`
/// reuses): label plus configuration.
pub(crate) fn matrix() -> Vec<(&'static str, RunConfig)> {
    vec![
        ("lrr", RunConfig::baseline_lrr()),
        ("gto", RunConfig::baseline_gto()),
        ("two-level", RunConfig::baseline_two_level()),
        ("reg-sharing", RunConfig::paper_register_sharing()),
        ("smem-sharing", RunConfig::paper_scratchpad_sharing()),
        (
            "lrr/event",
            RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event),
        ),
    ]
}

fn row(label: &str, stats: &SimStats) -> String {
    format!(
        "{:<14} {:>10} {:>8.3} {:>7} {:>8} {:>10} {:>10} {:>10}",
        label,
        stats.cycles,
        stats.ipc(),
        stats.blocks_completed,
        stats.max_resident_blocks,
        stats.stall_cycles,
        stats.mshr_full_stalls,
        stats.dram_queue_full_stalls
    )
}

/// Run `scenario` across the configuration matrix and print the table.
/// `quick` divides the grid by 4 (floored like every other experiment);
/// `check` re-runs the baseline on the per-cycle reference engine and
/// asserts bit-identity.
pub fn run_scenario(scenario: &str, quick: bool, check: bool) -> Result<(), String> {
    let mut kernel = grs_workloads::benchmark(scenario).ok_or_else(|| {
        format!(
            "unknown scenario `{scenario}` — expected a benchmark name (repro suites) \
             or a generator spec gen:<family>:<seed>[:<size>] with family one of \
             pointer-chase, bursty, barrier-heavy, divergent-tile, mshr-thrash, mixed"
        )
    })?;
    if quick {
        shrink_grid(&mut kernel, 4);
    }
    println!(
        "scenario {scenario}: {} threads/block, {} regs/thread, {} B smem, {} blocks, {} dyn instrs/warp",
        kernel.threads_per_block,
        kernel.regs_per_thread,
        kernel.smem_per_block,
        kernel.grid_blocks,
        kernel.dynamic_instrs_per_warp()
    );
    println!(
        "{:<14} {:>10} {:>8} {:>7} {:>8} {:>10} {:>10} {:>10}",
        "config", "cycles", "ipc", "blocks", "maxres", "stalls", "mshr-full", "dramq-full"
    );

    let jobs: Vec<Job> = matrix()
        .into_iter()
        .map(|(label, cfg)| Job::new(label, cfg, kernel.clone()))
        .collect();
    let mut failed = false;
    let mut baseline = None;
    for r in run_all_report(jobs) {
        match r.stats {
            Some(stats) => {
                println!("{}", row(&r.label, &stats));
                if r.label == "lrr" {
                    baseline = Some(stats);
                }
            }
            None => {
                failed = true;
                println!(
                    "{:<14} FAILED: {}",
                    r.label,
                    r.error.as_deref().unwrap_or("no panic message")
                );
            }
        }
    }

    if check {
        let baseline = baseline.ok_or("baseline row failed; nothing to check against")?;
        let reference = RunConfig::baseline_lrr().with_fast_forward(false);
        if Simulator::new(reference).run(&kernel) != baseline {
            return Err(format!(
                "engine divergence: reference disagrees with the fast-forward \
                 baseline on `{scenario}`"
            ));
        }
        println!("check OK: the reference engine is bit-identical to the baseline");
    }
    if failed {
        return Err("one or more matrix rows failed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenarios_are_reported_not_panicked() {
        let err = run_scenario("gen:warp-yoga:1", false, false).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("mshr-thrash"), "lists the families: {err}");
    }

    #[test]
    fn a_generated_scenario_sweeps_the_matrix_and_checks() {
        // Small generated kernel: the full matrix plus the --check engines
        // complete quickly even in debug builds.
        run_scenario("gen:bursty:7:small", true, true).expect("sweep");
    }

    #[test]
    fn a_fixed_benchmark_resolves_too() {
        run_scenario("gaussian", true, false).expect("fixed benchmark sweep");
    }

    #[test]
    fn the_matrix_covers_baselines_sharing_and_the_event_model() {
        let labels: Vec<&str> = matrix().into_iter().map(|(l, _)| l).collect();
        for expected in [
            "lrr",
            "gto",
            "two-level",
            "reg-sharing",
            "smem-sharing",
            "lrr/event",
        ] {
            assert!(labels.contains(&expected), "{expected} missing");
        }
    }
}
