//! One function per paper table/figure.
//!
//! Every function prints the same rows the paper plots; the subcommand
//! table in `repro`'s `main.rs` maps each subcommand to its function.

use grs_core::hw_cost::hw_cost;
use grs_core::{
    compute_launch_plan, occupancy, GpuConfig, KernelFootprint, ResourceKind, SchedulerKind,
    Threshold,
};
use grs_isa::Kernel;
use grs_sim::{RunConfig, SharingMode, SimStats};
use grs_workloads::suite::{SET1_NAMES, SET2_NAMES, SET3_NAMES};
use grs_workloads::{set1_benchmarks, set2_benchmarks, set3_benchmarks};

use crate::runner::{run_all, shrink_grid, Job};

fn quick_prep(kernels: &mut [Kernel], quick: bool) {
    if quick {
        for k in kernels {
            shrink_grid(k, 4);
        }
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table I.
pub fn print_config() {
    header("Table I: GPGPU-Sim-equivalent architecture");
    let c = GpuConfig::paper_baseline();
    println!("SMs (clusters x cores)          : {}", c.num_sms);
    println!("Max thread blocks / SM          : {}", c.sm.max_blocks);
    println!("Max threads / SM                : {}", c.sm.max_threads);
    println!("Registers / SM                  : {}", c.sm.registers);
    println!(
        "Scratchpad / SM                 : {} KB",
        c.sm.scratchpad_bytes / 1024
    );
    println!("Warp schedulers / SM            : {}", c.sm.schedulers);
    println!(
        "L1 cache / SM                   : {} KB",
        c.mem.l1_bytes / 1024
    );
    println!(
        "L2 cache (shared)               : {} KB",
        c.mem.l2_bytes / 1024
    );
    println!(
        "Latencies (ialu/imul/fp/sfu/spm): {}/{}/{}/{}/{}",
        c.lat.ialu, c.lat.imul, c.lat.fp, c.lat.sfu, c.lat.scratchpad
    );
    println!(
        "Memory (L1 hit/L2/DRAM, svc L2/DRAM): {}/{}/{} cycles, 1-per-{}/{} quarter-cycles",
        c.mem.l1_hit_latency,
        c.mem.l2_latency,
        c.mem.dram_latency,
        c.mem.l2_service_q4,
        c.mem.dram_service_q4
    );
}

/// Tables II, III, IV.
pub fn print_suites() {
    header("Tables II-IV: benchmark footprints");
    println!(
        "{:<12} {:>8} {:>6} {:>10} {:>8}",
        "benchmark", "threads", "regs", "smem(B)", "grid"
    );
    for (names, ks) in [
        (&SET1_NAMES[..], set1_benchmarks()),
        (&SET2_NAMES[..], set2_benchmarks()),
        (&SET3_NAMES[..], set3_benchmarks()),
    ] {
        for (n, k) in names.iter().zip(ks) {
            println!(
                "{:<12} {:>8} {:>6} {:>10} {:>8}",
                n, k.threads_per_block, k.regs_per_thread, k.smem_per_block, k.grid_blocks
            );
        }
        println!("{}", "-".repeat(48));
    }
}

/// Sec. V hardware cost.
pub fn print_hwcost() {
    header("Section V: hardware storage overhead");
    let cost = hw_cost(&GpuConfig::paper_baseline());
    println!(
        "register sharing : {} bits total ({} bits/SM)",
        cost.register_sharing_bits,
        cost.register_sharing_bits / 14
    );
    println!(
        "scratchpad sharing: {} bits total ({} bits/SM)",
        cost.scratchpad_sharing_bits,
        cost.scratchpad_sharing_bits / 14
    );
    println!("comparators/SM   : {}", cost.comparators_per_sm);
}

/// Fig. 1: motivation — resident blocks and waste percentages.
pub fn fig1() {
    header("Fig 1(a,b): Set-1 resident blocks and register waste");
    let sm = GpuConfig::paper_baseline().sm;
    println!("{:<12} {:>7} {:>12}", "benchmark", "blocks", "reg waste %");
    for (n, k) in SET1_NAMES.iter().zip(set1_benchmarks()) {
        let occ = occupancy(&sm, &KernelFootprint::of(&k));
        println!(
            "{:<12} {:>7} {:>11.1}%",
            n,
            occ.blocks,
            occ.register_waste_pct(&sm)
        );
    }
    header("Fig 1(c,d): Set-2 resident blocks and scratchpad waste");
    println!("{:<12} {:>7} {:>12}", "benchmark", "blocks", "spm waste %");
    for (n, k) in SET2_NAMES.iter().zip(set2_benchmarks()) {
        let occ = occupancy(&sm, &KernelFootprint::of(&k));
        println!(
            "{:<12} {:>7} {:>11.1}%",
            n,
            occ.blocks,
            occ.scratchpad_waste_pct(&sm)
        );
    }
}

/// The `dStall%` and `dIdle%` cells of `now` against `base`, each 10 wide.
/// A decrease is only reported against a baseline count of at least 1% of
/// the baseline run's `cycles`; below that (CONV2's stalls, for one) the
/// percentage of a near-zero count is noise, so the cell reads `n/a`.
fn stall_idle_cells(now: &SimStats, base: &SimStats) -> String {
    let cell = |pct: f64, base_count: u64| {
        if base_count.saturating_mul(100) < base.cycles {
            format!("{:>10}", "n/a")
        } else {
            format!("{pct:>9.1}%")
        }
    };
    format!(
        "{} {}",
        cell(now.stall_decrease_pct(base), base.stall_cycles),
        cell(now.idle_decrease_pct(base), base.idle_cycles)
    )
}

fn improvement_table(
    title: &str,
    names: &[&str],
    baselines: &[(String, SimStats)],
    shared: &[(String, SimStats)],
) {
    header(title);
    println!(
        "{:<12} {:>9} {:>9} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "benchmark", "IPC base", "IPC shr", "dIPC%", "blk base", "blk shr", "dStall%", "dIdle%"
    );
    for ((n, (_, b)), (_, s)) in names.iter().zip(baselines).zip(shared) {
        println!(
            "{:<12} {:>9.1} {:>9.1} {:>7.2}% {:>9} {:>9} {}",
            n,
            b.ipc(),
            s.ipc(),
            s.ipc_improvement_pct(b),
            b.max_resident_blocks,
            s.max_resident_blocks,
            stall_idle_cells(s, b),
        );
    }
}

/// Fig. 8: resident blocks + IPC improvement for both sharing mechanisms.
pub fn fig8(quick: bool) {
    let mut s1 = set1_benchmarks();
    let mut s2 = set2_benchmarks();
    quick_prep(&mut s1, quick);
    quick_prep(&mut s2, quick);

    let mut jobs = Vec::new();
    for k in &s1 {
        jobs.push(Job::new("base", RunConfig::baseline_lrr(), k.clone()));
        jobs.push(Job::new(
            "shared",
            RunConfig::paper_register_sharing(),
            k.clone(),
        ));
    }
    for k in &s2 {
        jobs.push(Job::new("base", RunConfig::baseline_lrr(), k.clone()));
        jobs.push(Job::new(
            "shared",
            RunConfig::paper_scratchpad_sharing(),
            k.clone(),
        ));
    }
    let out = run_all(jobs);
    let (reg, smem) = out.split_at(2 * s1.len());
    let (rb, rs): (Vec<_>, Vec<_>) = split_pairs(reg);
    let (sb, ss): (Vec<_>, Vec<_>) = split_pairs(smem);
    improvement_table(
        "Fig 8(a,c): register sharing (Shared-OWF-Unroll-Dyn vs Unshared-LRR)",
        &SET1_NAMES,
        &rb,
        &rs,
    );
    improvement_table(
        "Fig 8(b,d): scratchpad sharing (Shared-OWF vs Unshared-LRR)",
        &SET2_NAMES,
        &sb,
        &ss,
    );
}

type Labelled = (String, SimStats);

fn split_pairs(out: &[Labelled]) -> (Vec<Labelled>, Vec<Labelled>) {
    let mut base = Vec::new();
    let mut shared = Vec::new();
    for pair in out.chunks(2) {
        base.push(pair[0].clone());
        shared.push(pair[1].clone());
    }
    (base, shared)
}

/// Fig. 9: optimization ablation and stall/idle decrease.
pub fn fig9(quick: bool) {
    let mut s1 = set1_benchmarks();
    let mut s2 = set2_benchmarks();
    quick_prep(&mut s1, quick);
    quick_prep(&mut s2, quick);

    // Register-sharing ablation ladder (paper Fig. 9(a) legend).
    let reg_cfgs: Vec<(&str, RunConfig)> = vec![
        ("Unshared-LRR", RunConfig::baseline_lrr()),
        (
            "Shared-LRR-NoOpt",
            RunConfig::paper_register_sharing()
                .with_scheduler(SchedulerKind::Lrr)
                .with_reorder_decls(false)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-LRR-Unroll",
            RunConfig::paper_register_sharing()
                .with_scheduler(SchedulerKind::Lrr)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-LRR-Unroll-Dyn",
            RunConfig::paper_register_sharing().with_scheduler(SchedulerKind::Lrr),
        ),
        ("Shared-OWF-Unroll-Dyn", RunConfig::paper_register_sharing()),
    ];
    let mut jobs = Vec::new();
    for k in &s1 {
        for (label, cfg) in &reg_cfgs {
            jobs.push(Job::new(*label, cfg.clone(), k.clone()));
        }
    }
    let out = run_all(jobs);
    header("Fig 9(a): register-sharing optimization ablation (% IPC vs Unshared-LRR)");
    print!("{:<12}", "benchmark");
    for (label, _) in &reg_cfgs[1..] {
        print!(" {label:>22}");
    }
    println!();
    for (i, n) in SET1_NAMES.iter().enumerate() {
        let row = &out[i * reg_cfgs.len()..(i + 1) * reg_cfgs.len()];
        let base = &row[0].1;
        print!("{n:<12}");
        for (_, s) in &row[1..] {
            print!(" {:>21.2}%", s.ipc_improvement_pct(base));
        }
        println!();
    }
    header("Fig 9(c): register sharing, % decrease in stall/idle cycles (full config)");
    println!("{:<12} {:>10} {:>10}", "benchmark", "dStall%", "dIdle%");
    for (i, n) in SET1_NAMES.iter().enumerate() {
        let row = &out[i * reg_cfgs.len()..(i + 1) * reg_cfgs.len()];
        let base = &row[0].1;
        let full = &row[reg_cfgs.len() - 1].1;
        println!("{n:<12} {}", stall_idle_cells(full, base));
    }

    // Scratchpad ablation (paper Fig. 9(b)): NoOpt (LRR) vs OWF.
    let smem_cfgs: Vec<(&str, RunConfig)> = vec![
        ("Unshared-LRR", RunConfig::baseline_lrr()),
        (
            "Shared-LRR-NoOpt",
            RunConfig::paper_scratchpad_sharing().with_scheduler(SchedulerKind::Lrr),
        ),
        ("Shared-OWF", RunConfig::paper_scratchpad_sharing()),
    ];
    let mut jobs = Vec::new();
    for k in &s2 {
        for (label, cfg) in &smem_cfgs {
            jobs.push(Job::new(*label, cfg.clone(), k.clone()));
        }
    }
    let out = run_all(jobs);
    header("Fig 9(b): scratchpad-sharing ablation (% IPC vs Unshared-LRR)");
    println!(
        "{:<12} {:>18} {:>12}",
        "benchmark", "Shared-LRR-NoOpt", "Shared-OWF"
    );
    for (i, n) in SET2_NAMES.iter().enumerate() {
        let row = &out[i * smem_cfgs.len()..(i + 1) * smem_cfgs.len()];
        let base = &row[0].1;
        println!(
            "{:<12} {:>17.2}% {:>11.2}%",
            n,
            row[1].1.ipc_improvement_pct(base),
            row[2].1.ipc_improvement_pct(base)
        );
    }
    header("Fig 9(d): scratchpad sharing, % decrease in stall/idle cycles (Shared-OWF)");
    println!("{:<12} {:>10} {:>10}", "benchmark", "dStall%", "dIdle%");
    for (i, n) in SET2_NAMES.iter().enumerate() {
        let row = &out[i * smem_cfgs.len()..(i + 1) * smem_cfgs.len()];
        let base = &row[0].1;
        let full = &row[2].1;
        println!("{n:<12} {}", stall_idle_cells(full, base));
    }
}

/// Fig. 10: sharing vs GTO and Two-Level baselines.
pub fn fig10(quick: bool) {
    let mut s1 = set1_benchmarks();
    let mut s2 = set2_benchmarks();
    quick_prep(&mut s1, quick);
    quick_prep(&mut s2, quick);

    for (title, baseline) in [
        (
            "Fig 10(a,b): sharing vs GTO baseline",
            RunConfig::baseline_gto(),
        ),
        (
            "Fig 10(c,d): sharing vs Two-Level baseline",
            RunConfig::baseline_two_level(),
        ),
    ] {
        let mut jobs = Vec::new();
        for k in &s1 {
            jobs.push(Job::new("base", baseline.clone(), k.clone()));
            jobs.push(Job::new(
                "shared",
                RunConfig::paper_register_sharing(),
                k.clone(),
            ));
        }
        for k in &s2 {
            jobs.push(Job::new("base", baseline.clone(), k.clone()));
            jobs.push(Job::new(
                "shared",
                RunConfig::paper_scratchpad_sharing(),
                k.clone(),
            ));
        }
        let out = run_all(jobs);
        let (reg, smem) = out.split_at(2 * s1.len());
        let (rb, rs) = split_pairs(reg);
        let (sb, ss) = split_pairs(smem);
        header(title);
        println!(
            "{:<12} {:>10} {:>10} {:>8}",
            "benchmark", "IPC base", "IPC shr", "dIPC%"
        );
        for ((n, (_, b)), (_, s)) in SET1_NAMES.iter().zip(&rb).zip(&rs) {
            println!(
                "{:<12} {:>10.1} {:>10.1} {:>7.2}%",
                n,
                b.ipc(),
                s.ipc(),
                s.ipc_improvement_pct(b)
            );
        }
        println!("{}", "-".repeat(44));
        for ((n, (_, b)), (_, s)) in SET2_NAMES.iter().zip(&sb).zip(&ss) {
            println!(
                "{:<12} {:>10.1} {:>10.1} {:>7.2}%",
                n,
                b.ipc(),
                s.ipc(),
                s.ipc_improvement_pct(b)
            );
        }
    }
}

/// Fig. 11: sharing at 1× resources vs unshared LRR at 2× resources.
pub fn fig11(quick: bool) {
    let mut s1 = set1_benchmarks();
    let mut s2 = set2_benchmarks();
    quick_prep(&mut s1, quick);
    quick_prep(&mut s2, quick);

    let mut jobs = Vec::new();
    for k in &s1 {
        jobs.push(Job::new(
            "Unshared-LRR-Reg#65536",
            RunConfig::baseline_lrr().with_gpu(GpuConfig::doubled_registers()),
            k.clone(),
        ));
        jobs.push(Job::new(
            "Shared-OWF-Unroll-Dyn-Reg#32768",
            RunConfig::paper_register_sharing(),
            k.clone(),
        ));
    }
    for k in &s2 {
        jobs.push(Job::new(
            "Unshared-LRR-ShMem#32K",
            RunConfig::baseline_lrr().with_gpu(GpuConfig::doubled_scratchpad()),
            k.clone(),
        ));
        jobs.push(Job::new(
            "Shared-OWF-ShMem#16K",
            RunConfig::paper_scratchpad_sharing(),
            k.clone(),
        ));
    }
    let out = run_all(jobs);
    let (reg, smem) = out.split_at(2 * s1.len());
    header("Fig 11(a): register sharing @32K vs unshared LRR @64K registers (absolute IPC)");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "benchmark", "IPC 64K-LRR", "IPC 32K-shr", "winner"
    );
    for (n, pair) in SET1_NAMES.iter().zip(reg.chunks(2)) {
        let (b, s) = (&pair[0].1, &pair[1].1);
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>8}",
            n,
            b.ipc(),
            s.ipc(),
            if s.ipc() >= b.ipc() {
                "sharing"
            } else {
                "2x-reg"
            }
        );
    }
    header("Fig 11(b): scratchpad sharing @16K vs unshared LRR @32K (absolute IPC)");
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "benchmark", "IPC 32K-LRR", "IPC 16K-shr", "winner"
    );
    for (n, pair) in SET2_NAMES.iter().zip(smem.chunks(2)) {
        let (b, s) = (&pair[0].1, &pair[1].1);
        println!(
            "{:<12} {:>12.1} {:>12.1} {:>8}",
            n,
            b.ipc(),
            s.ipc(),
            if s.ipc() >= b.ipc() {
                "sharing"
            } else {
                "2x-spm"
            }
        );
    }
}

/// Fig. 12: Set-3 policy equivalences.
pub fn fig12(quick: bool) {
    let mut s3 = set3_benchmarks();
    quick_prep(&mut s3, quick);

    for (title, sharing) in [
        (
            "Fig 12(a): Set-3, register sharing (absolute IPC)",
            SharingMode::Registers,
        ),
        (
            "Fig 12(b): Set-3, scratchpad sharing (absolute IPC)",
            SharingMode::Scratchpad,
        ),
    ] {
        let share_base = match sharing {
            SharingMode::Registers => RunConfig::paper_register_sharing(),
            _ => RunConfig::paper_scratchpad_sharing(),
        };
        let cfgs: Vec<(&str, RunConfig)> = vec![
            ("Unshared-LRR", RunConfig::baseline_lrr()),
            (
                "Shared-LRR",
                share_base.clone().with_scheduler(SchedulerKind::Lrr),
            ),
            ("Unshared-GTO", RunConfig::baseline_gto()),
            (
                "Shared-GTO",
                share_base.clone().with_scheduler(SchedulerKind::Gto),
            ),
            ("Shared-OWF", share_base),
        ];
        let mut jobs = Vec::new();
        for k in &s3 {
            for (label, cfg) in &cfgs {
                jobs.push(Job::new(*label, cfg.clone(), k.clone()));
            }
        }
        let out = run_all(jobs);
        header(title);
        print!("{:<12}", "benchmark");
        for (label, _) in &cfgs {
            print!(" {label:>13}");
        }
        println!();
        for (i, n) in SET3_NAMES.iter().enumerate() {
            let row = &out[i * cfgs.len()..(i + 1) * cfgs.len()];
            print!("{n:<12}");
            for (_, s) in row {
                print!(" {:>13.1}", s.ipc());
            }
            println!();
        }
    }
}

/// Diagnostic: full counter dump for one benchmark under the main
/// configurations (not a paper artifact; used to calibrate workload models
/// and debug regressions).
pub fn inspect(name: &str, quick: bool) {
    let Some(mut k) = grs_workloads::benchmark(name) else {
        eprintln!("unknown benchmark {name}");
        return;
    };
    if quick {
        shrink_grid(&mut k, 4);
    }
    let sharing = if k.smem_per_block > 2048 {
        RunConfig::paper_scratchpad_sharing()
    } else {
        RunConfig::paper_register_sharing()
    };
    let cfgs: Vec<(&str, RunConfig)> = vec![
        ("Unshared-LRR", RunConfig::baseline_lrr()),
        ("Unshared-GTO", RunConfig::baseline_gto()),
        (
            "Shared-LRR-NoOpt",
            sharing
                .clone()
                .with_scheduler(SchedulerKind::Lrr)
                .with_reorder_decls(false)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-OWF-NoOpt",
            sharing
                .clone()
                .with_reorder_decls(false)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-LRR-Unroll",
            sharing
                .clone()
                .with_scheduler(SchedulerKind::Lrr)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-GTO-Unroll",
            sharing
                .clone()
                .with_scheduler(SchedulerKind::Gto)
                .with_dyn_throttle(false),
        ),
        ("Shared-OWF-NoDyn", sharing.clone().with_dyn_throttle(false)),
        ("Shared-full", sharing),
    ];
    let jobs: Vec<Job> = cfgs
        .iter()
        .map(|(l, c)| Job::new(*l, c.clone(), k.clone()))
        .collect();
    let out = run_all(jobs);
    header(&format!("inspect: {name} (grid {})", k.grid_blocks));
    println!(
        "{:<18} {:>8} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>10} {:>9} {:>9} {:>4}",
        "config",
        "IPC",
        "cycles",
        "stall",
        "idle",
        "empty",
        "L1m%",
        "L2m%",
        "txns",
        "winstr",
        "lockrtry",
        "throttled",
        "TO"
    );
    for (l, s) in &out {
        println!(
            "{:<18} {:>8.1} {:>9} {:>9} {:>9} {:>9} {:>6.1}% {:>6.1}% {:>9} {:>10} {:>9} {:>9} {:>4}",
            l,
            s.ipc(),
            s.cycles,
            s.stall_cycles,
            s.idle_cycles,
            s.empty_cycles,
            100.0 * s.mem.l1_miss_ratio(),
            100.0 * s.mem.l2_miss_ratio(),
            s.mem.transactions,
            s.warp_instrs,
            s.lock_retries,
            s.throttled_issues,
            if s.timed_out { "YES" } else { "no" }
        );
    }
}

/// Tables V & VI: IPC and resident blocks vs %register sharing.
pub fn table5(quick: bool) {
    sweep_tables(
        "Table V/VI: register sharing sweep",
        set1_benchmarks(),
        &SET1_NAMES,
        SharingMode::Registers,
        quick,
    );
}

/// Tables VII & VIII: IPC and resident blocks vs %scratchpad sharing.
pub fn table7(quick: bool) {
    sweep_tables(
        "Table VII/VIII: scratchpad sharing sweep",
        set2_benchmarks(),
        &SET2_NAMES,
        SharingMode::Scratchpad,
        quick,
    );
}

fn sweep_tables(
    title: &str,
    mut kernels: Vec<Kernel>,
    names: &[&str],
    sharing: SharingMode,
    quick: bool,
) {
    quick_prep(&mut kernels, quick);
    let pcts: [f64; 6] = [0.0, 10.0, 30.0, 50.0, 70.0, 90.0];
    let base = match sharing {
        SharingMode::Registers => RunConfig::paper_register_sharing(),
        _ => RunConfig::paper_scratchpad_sharing(),
    };
    let mut jobs = Vec::new();
    for k in &kernels {
        for &pct in &pcts {
            // 0% sharing = the plain baseline with the same scheduler family:
            // the paper's row 0% is the t→1 degenerate plan (all unshared),
            // still scheduled by OWF (which then sorts by dynamic id).
            let cfg = base
                .clone()
                .with_threshold(Threshold::from_sharing_pct(pct.min(99.0)).unwrap());
            jobs.push(Job::new(format!("{pct}%"), cfg, k.clone()));
        }
    }
    let out = run_all(jobs);
    header(&format!("{title}: IPC"));
    print!("{:<12}", "benchmark");
    for &p in &pcts {
        print!(" {:>9}", format!("{p:.0}%"));
    }
    println!();
    for (i, n) in names.iter().enumerate() {
        let row = &out[i * pcts.len()..(i + 1) * pcts.len()];
        print!("{n:<12}");
        for (_, s) in row {
            print!(" {:>9.1}", s.ipc());
        }
        println!();
    }
    header(&format!("{title}: resident blocks"));
    let res = match sharing {
        SharingMode::Registers => ResourceKind::Registers,
        _ => ResourceKind::Scratchpad,
    };
    let sm = GpuConfig::paper_baseline().sm;
    print!("{:<12}", "benchmark");
    for &p in &pcts {
        print!(" {:>5}", format!("{p:.0}%"));
    }
    println!();
    for (n, k) in names.iter().zip(&kernels) {
        print!("{n:<12}");
        for &p in &pcts {
            let t = Threshold::from_sharing_pct(p.min(99.0)).unwrap();
            let plan = compute_launch_plan(&sm, &KernelFootprint::of(k), t, res);
            print!(" {:>5}", plan.max_blocks);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decreases_against_a_near_zero_baseline_render_as_na() {
        let base = SimStats {
            cycles: 10_000,
            stall_cycles: 99,
            idle_cycles: 100,
            ..SimStats::default()
        };
        let now = SimStats {
            stall_cycles: 8_300,
            idle_cycles: 50,
            ..SimStats::default()
        };
        // 99 < 1% of 10 000 cycles: undefined. 100 is exactly 1%: defined.
        assert_eq!(
            stall_idle_cells(&now, &base),
            format!("{:>10} {:>9.1}%", "n/a", 50.0)
        );
        let zero = SimStats {
            cycles: 10_000,
            ..SimStats::default()
        };
        assert_eq!(
            stall_idle_cells(&now, &zero),
            format!("{:>10} {:>10}", "n/a", "n/a")
        );
    }
}
