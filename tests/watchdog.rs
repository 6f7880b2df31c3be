//! The forward-progress watchdog's contract: a genuine livelock (here: a
//! per-warp MSHR quota of zero, which blocks every global-memory warp
//! forever) ends the run `window` cycles past the last provable progress —
//! **well** before `max_cycles` — with a populated `StallDiagnosis`; the
//! trip cycle and statistics are identical across the per-cycle and
//! fast-forward engines; and a healthy run with the watchdog armed is
//! completely unaffected.

use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::{MemoryModel, RunOutcome, StallDiagnosis};

/// A couple of ALU issues (real progress, so the watermark is non-trivial)
/// and then a global load every warp blocks on forever once the per-warp
/// MSHR quota is zeroed.
fn livelock_kernel() -> gpu_resource_sharing::isa::Kernel {
    KernelBuilder::new("livelock")
        .threads_per_block(64)
        .regs_per_thread(16)
        .grid_blocks(8)
        .ialu(2)
        .ld_global(GP::Stream)
        .ffma(2)
        .st_global(GP::Stream)
        .build()
}

fn livelock_config(model: MemoryModel) -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(model);
    cfg.gpu.num_sms = 2;
    // No warp may ever have a global access in flight: every global-memory
    // warp is permanently hard-blocked the moment it reaches its load.
    cfg.gpu.mem.max_pending_per_warp = 0;
    cfg.max_cycles = 1_000_000;
    cfg
}

fn expect_stall(report: &gpu_resource_sharing::sim::RunReport) -> &StallDiagnosis {
    match &report.outcome {
        RunOutcome::Stalled(diag) => diag,
        other => panic!("expected a watchdog trip, got {other:?}"),
    }
}

#[test]
fn a_livelock_trips_the_watchdog_with_a_full_diagnosis() {
    let window = 500u64;
    let cfg = livelock_config(MemoryModel::Event).with_watchdog(Some(window));
    let report = Simulator::new(cfg.clone()).run_report(&livelock_kernel());
    let diag = expect_stall(&report);

    // The trip is exactly one window past the watermark, and far from the
    // cycle bound the run would otherwise have burned to.
    assert_eq!(diag.window, window);
    assert_eq!(diag.at_cycle, diag.last_progress + window);
    assert!(
        diag.at_cycle < cfg.max_cycles / 100,
        "tripped at {} of {} max cycles",
        diag.at_cycle,
        cfg.max_cycles
    );
    assert_eq!(report.stats.cycles, diag.at_cycle);
    assert!(report.stats.timed_out, "a stalled run did not complete");

    // The diagnosis names the culprits: every SM holds resident blocks with
    // live warps, nothing is scheduled to wake anyone, and the memory
    // system has nothing in flight (the warps never got to issue at all).
    assert_eq!(diag.sms.len(), 2);
    for sm in &diag.sms {
        assert!(sm.live_blocks > 0, "SM {} diagnosis is empty", sm.id);
        assert!(sm.live_warps);
        assert_eq!(sm.next_wake, None);
        assert!(!sm.sleeping);
    }
    assert_eq!(diag.mem.next_release, None);
    assert_eq!(diag.mem.mshr_in_flight, 0);
    assert_eq!(diag.mem.dram_queue_in_flight, 0);
}

#[test]
fn the_trip_is_identical_across_both_engines() {
    for model in [MemoryModel::Functional, MemoryModel::Event] {
        let base = livelock_config(model).with_watchdog(Some(750));
        let reference =
            Simulator::new(base.clone().with_fast_forward(false)).run_report(&livelock_kernel());
        expect_stall(&reference);
        let report = Simulator::new(base).run_report(&livelock_kernel());
        assert_eq!(
            report.outcome, reference.outcome,
            "trip diagnosis diverges under {model:?}"
        );
        assert_eq!(
            report.stats, reference.stats,
            "stalled statistics diverge under {model:?}"
        );
    }
}

#[test]
fn a_healthy_run_is_unaffected_by_an_armed_watchdog() {
    let mut conv1 = workloads::set2::conv1();
    conv1.grid_blocks = 28;
    let mut cfg = RunConfig::paper_register_sharing().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 4;
    let plain = Simulator::new(cfg.clone()).run(&conv1);
    // Far smaller than the run, far larger than any real gap between
    // events (DRAM latency bounds quiet spans).
    let report = Simulator::new(cfg.with_watchdog(Some(10_000))).run_report(&conv1);
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(report.stats, plain);
}

#[test]
fn without_the_watchdog_a_livelock_burns_to_the_cycle_bound() {
    // The failure mode the watchdog exists to prevent — pinned so the
    // livelock in these tests is provably a livelock and not a slow run.
    let cfg = livelock_config(MemoryModel::Event).with_max_cycles(20_000);
    let report = Simulator::new(cfg).run_report(&livelock_kernel());
    assert_eq!(report.outcome, RunOutcome::TimedOut);
    assert_eq!(report.stats.cycles, 20_000);
    assert_eq!(report.stats.blocks_completed, 0);
}
