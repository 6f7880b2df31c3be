//! The fast-forward engine's contract: `SimStats` — every field, including
//! the stall/idle/empty cycle split, per-SM breakdowns and memory counters —
//! is **bit-identical** with `RunConfig::fast_forward` on or off. The matrix
//! covers all four schedulers crossed with all three sharing modes on one
//! compute-bound and one memory-latency-bound kernel, plus a property test
//! over random kernels (pinned seeds in `proptest-regressions/`).

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use proptest::prelude::*;

/// hotspot: register-limited and compute-heavy. conv1: scratchpad-limited
/// with streaming global loads and a per-iteration barrier — the
/// memory-latency-bound shape whose dead cycles the engine skips.
fn kernels() -> Vec<gpu_resource_sharing::isa::Kernel> {
    let mut hotspot = workloads::set1::hotspot();
    hotspot.grid_blocks = 28;
    let mut conv1 = workloads::set2::conv1();
    conv1.grid_blocks = 28;
    vec![hotspot, conv1]
}

fn config(sched: SchedulerKind, sharing: SharingMode) -> RunConfig {
    let base = match sharing {
        SharingMode::None => RunConfig::baseline_lrr(),
        SharingMode::Registers => RunConfig::paper_register_sharing(),
        SharingMode::Scratchpad => {
            // Enable the throttle so its RNG stream and window arithmetic
            // are exercised across skipped spans too.
            let mut cfg = RunConfig::paper_scratchpad_sharing();
            cfg.dyn_throttle = true;
            cfg
        }
    };
    let mut cfg = base.with_scheduler(sched);
    cfg.gpu.num_sms = 4;
    cfg
}

#[test]
fn fast_forward_is_bit_identical_across_the_full_matrix() {
    let schedulers = [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::TwoLevel { group_size: 8 },
        SchedulerKind::Owf,
    ];
    let sharing_modes = [
        SharingMode::None,
        SharingMode::Registers,
        SharingMode::Scratchpad,
    ];
    for kernel in kernels() {
        for sched in schedulers {
            for sharing in sharing_modes {
                let cfg = config(sched, sharing);
                let fast = Simulator::new(cfg.clone().with_fast_forward(true)).run(&kernel);
                let reference = Simulator::new(cfg.with_fast_forward(false)).run(&kernel);
                assert_eq!(
                    fast, reference,
                    "{} under {sched:?} × {sharing:?} diverges with fast-forward",
                    kernel.name
                );
                assert!(!fast.timed_out, "{}", kernel.name);
                assert_eq!(fast.blocks_completed, u64::from(kernel.grid_blocks));
            }
        }
    }
}

#[test]
fn fast_forward_actually_skips_on_a_latency_bound_kernel() {
    // Guard against the equivalence test passing vacuously because the
    // engine never engages: on the memory-latency-bound kernel the simulated
    // cycle count must dwarf the number of cycles the fast path physically
    // executes, which we bound from below via idle cycles per SM.
    let kernel = &kernels()[1];
    let cfg = config(SchedulerKind::Lrr, SharingMode::None);
    let stats = Simulator::new(cfg).run(kernel);
    let per_sm_cycles = stats.cycles * u64::from(4u32);
    let dead = stats.idle_cycles + stats.empty_cycles;
    assert!(
        dead * 2 > per_sm_cycles,
        "scenario is not latency-bound: {dead} dead of {per_sm_cycles} SM-cycles"
    );
}

#[test]
fn sms_with_more_than_64_warp_slots_are_bit_identical() {
    // 4096 threads per SM = 128 warp slots, so the scheduler's ready set,
    // its partition masks and the scan's slot masks span two 64-bit words —
    // which the paper's 48-warp machine never reaches. 16-warp blocks limited
    // to 5 per SM by registers and scratchpad, 8 with sharing.
    let kernel = KernelBuilder::new("wide")
        .threads_per_block(512)
        .regs_per_thread(12)
        .smem_per_block(3000)
        .grid_blocks(48)
        .ld_global(GP::BlockTile { tile_lines: 16 })
        .ialu(2)
        .st_shared(0, 64)
        .ld_shared(2048, 64)
        .ffma(2)
        .barrier()
        .loop_back(0, 3)
        .st_global(GP::Stream)
        .build();
    for sched in [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::TwoLevel { group_size: 8 },
        SchedulerKind::Owf,
    ] {
        for sharing in [
            SharingMode::None,
            SharingMode::Registers,
            SharingMode::Scratchpad,
        ] {
            let mut cfg = config(sched, sharing);
            cfg.gpu.sm.max_threads = 4096;
            let fast = Simulator::new(cfg.clone().with_fast_forward(true)).run(&kernel);
            let reference = Simulator::new(cfg.with_fast_forward(false)).run(&kernel);
            assert_eq!(fast, reference, "{sched:?} × {sharing:?} diverges");
            assert_eq!(fast.blocks_completed, 48);
            assert!(
                fast.max_resident_blocks * 16 > 64,
                "{sched:?} × {sharing:?}: {} resident blocks stay within one mask word",
                fast.max_resident_blocks
            );
        }
    }
}

#[derive(Debug, Clone)]
struct KernelSpec {
    threads_log2: u32,
    regs: u32,
    smem: u32,
    grid: u32,
    alu: u32,
    mem_kind: u8,
    trips: u16,
    barrier: bool,
}

fn spec() -> impl Strategy<Value = KernelSpec> {
    (
        0u32..=3,    // threads = 32 << n
        4u32..=48,   // regs/thread
        0u32..=6000, // smem/block
        1u32..=24,   // grid blocks
        1u32..=6,    // alu per iteration
        0u8..=3,     // memory pattern
        0u16..=10,   // loop trips
        proptest::bool::ANY,
    )
        .prop_map(
            |(tl, regs, smem, grid, alu, mem_kind, trips, barrier)| KernelSpec {
                threads_log2: tl,
                regs,
                smem,
                grid,
                alu,
                mem_kind,
                trips,
                barrier,
            },
        )
}

fn build(s: &KernelSpec) -> gpu_resource_sharing::isa::Kernel {
    let mut b = KernelBuilder::new("ffprop")
        .threads_per_block(32 << s.threads_log2)
        .regs_per_thread(s.regs)
        .smem_per_block(s.smem)
        .grid_blocks(s.grid);
    let top = b.here();
    b = match s.mem_kind {
        0 => b.ld_global(GP::Stream),
        1 => b.ld_global(GP::BlockTile { tile_lines: 16 }),
        2 => b.ld_global(GP::Scatter {
            span_lines: 64,
            txns: 2,
        }),
        _ => b.ld_global(GP::KernelTile { tile_lines: 16 }),
    };
    b = b.ialu(s.alu).ffma(2);
    if s.smem > 64 {
        b = b
            .st_shared(0, 64.min(s.smem / 2))
            .ld_shared(s.smem / 2, 64.min(s.smem - s.smem / 2));
    }
    if s.barrier {
        b = b.barrier();
    }
    b = b.loop_back(top, s.trips).st_global(GP::Stream);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_kernels_are_bit_identical_under_fast_forward(s in spec()) {
        let k = build(&s);
        for base in [
            RunConfig::baseline_lrr(),
            RunConfig::baseline_gto(),
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ] {
            let mut cfg = base;
            cfg.gpu.num_sms = 2;
            cfg.max_cycles = 2_000_000;
            let fast = Simulator::new(cfg.clone().with_fast_forward(true)).try_run(&k);
            let reference = Simulator::new(cfg.clone().with_fast_forward(false)).try_run(&k);
            prop_assert_eq!(fast, reference, "spec {:?} under {:?}", s, cfg.scheduler);
        }
    }
}
