//! The two workloads, built from the crates' public constructors.
//!
//! Job lists are kept in *canonical* order — for `fig8-full` exactly the
//! order `repro fig8` submits them in. For `fig8-full` the seed only
//! permutes the submission order, so its statistics digest is the same for
//! every seed.

use grs_core::SchedulerKind;
use grs_isa::Kernel;
use grs_sim::{MemoryModel, RunConfig, SharingMode};
use grs_workloads::suite::{SET1_NAMES, SET2_NAMES};
use grs_workloads::{set1, set2, GenSpec};

use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["fig8-full", "event-stress"];

/// Generated kernels of `event-stress` come from this many generator seeds
/// (`seed % GEN_SEEDS`); `expected.txt` pins the digest of every one.
pub const GEN_SEEDS: u64 = 64;

/// One simulation request.
pub struct Job {
    /// `<figure>:<series>:<benchmark>`, unique within a workload.
    pub label: String,
    /// Run configuration.
    pub cfg: RunConfig,
    /// Kernel to simulate.
    pub kernel: Kernel,
}

/// Configuration class a job's host time is attributed to.
pub fn class(cfg: &RunConfig) -> &'static str {
    if cfg.memory_model == MemoryModel::Event {
        return "event";
    }
    match (cfg.sharing, cfg.scheduler) {
        (SharingMode::Registers, _) => "reg-sharing",
        (SharingMode::Scratchpad, _) => "smem-sharing",
        (SharingMode::None, SchedulerKind::Lrr) => "lrr",
        (SharingMode::None, SchedulerKind::Gto) => "gto",
        (SharingMode::None, SchedulerKind::TwoLevel { .. }) => "two-level",
        (SharingMode::None, SchedulerKind::Owf) => "owf",
    }
}

/// Build a workload's jobs in canonical order, recording one
/// `workloads.build` span per kernel-constructor call. `gen` is the
/// generator seed of `event-stress` (see [`gen_seed`]); `fig8-full`
/// ignores it.
pub fn build(workload: &str, gen: u64, t: &mut Tracer) -> Vec<Job> {
    match workload {
        "fig8-full" => fig8(t),
        "event-stress" => {
            let mut jobs = event_fixed(t);
            jobs.extend(event_generated(gen % GEN_SEEDS, t));
            jobs
        }
        other => panic!("unknown workload `{other}`"),
    }
}

/// Generator seed of a run's `pass`-th pass of `event-stress`, drawn from
/// the run seed and the pass. Generated kernels differ several-fold in
/// work, so each pass draws its own and a run's median spans several
/// instead of resting on one.
pub fn gen_seed(seed: u64, pass: u64) -> u64 {
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix(&mut state) % GEN_SEEDS
}

/// Submission order of a run's `pass`-th pass: the identity for seed 0
/// (`repro`'s order), otherwise a Fisher–Yates shuffle seeded by both.
/// `event-stress` always keeps its order; its seed picks kernels instead.
pub fn submission_order(workload: &str, n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 || workload == "event-stress" {
        return order;
    }
    let mut state = seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn traced<R>(t: &mut Tracer, f: impl FnOnce() -> R) -> R {
    let span = t.begin("workloads.build", None);
    let r = f();
    t.end(span);
    r
}

fn push_grid(
    jobs: &mut Vec<Job>,
    fig: &str,
    names: &[&str],
    kernels: &[Kernel],
    cfgs: &[(&str, RunConfig)],
) {
    for (name, k) in names.iter().zip(kernels) {
        for (series, cfg) in cfgs {
            jobs.push(Job {
                label: format!("{fig}:{series}:{name}"),
                cfg: cfg.clone(),
                kernel: k.clone(),
            });
        }
    }
}

/// Fig. 8 at full grids: Set-1 × {Unshared-LRR, Shared-OWF-Unroll-Dyn}
/// then Set-2 × {Unshared-LRR, Shared-OWF}.
fn fig8(t: &mut Tracer) -> Vec<Job> {
    let s1 = traced(t, grs_workloads::set1_benchmarks);
    let s2 = traced(t, grs_workloads::set2_benchmarks);
    let mut jobs = Vec::new();
    let reg = [
        ("base", RunConfig::baseline_lrr()),
        ("shared", RunConfig::paper_register_sharing()),
    ];
    let smem = [
        ("base", RunConfig::baseline_lrr()),
        ("shared", RunConfig::paper_scratchpad_sharing()),
    ];
    push_grid(&mut jobs, "fig8", &SET1_NAMES, &s1, &reg);
    push_grid(&mut jobs, "fig8", &SET2_NAMES, &s2, &smem);
    jobs
}

/// MUM and CONV1 at full grid, each under Unshared-LRR and under its paper
/// sharing configuration, all on the event memory model.
pub fn event_fixed(t: &mut Tracer) -> Vec<Job> {
    let mum = traced(t, set1::mum);
    let conv1 = traced(t, set2::conv1);
    let event = |cfg: RunConfig| cfg.with_memory_model(MemoryModel::Event);
    let mut jobs = Vec::new();
    push_grid(
        &mut jobs,
        "event",
        &["MUM"],
        &[mum],
        &[
            ("Unshared-LRR", event(RunConfig::baseline_lrr())),
            (
                "Shared-OWF-Unroll-Dyn",
                event(RunConfig::paper_register_sharing()),
            ),
        ],
    );
    push_grid(
        &mut jobs,
        "event",
        &["CONV1"],
        &[conv1],
        &[
            ("Unshared-LRR", event(RunConfig::baseline_lrr())),
            ("Shared-OWF", event(RunConfig::paper_scratchpad_sharing())),
        ],
    );
    jobs
}

/// `gen:mshr-thrash:<s>:medium` and `gen:pointer-chase:<s>:medium` under
/// Unshared-LRR on the event memory model.
pub fn event_generated(gen_seed: u64, t: &mut Tracer) -> Vec<Job> {
    ["mshr-thrash", "pointer-chase"]
        .into_iter()
        .map(|family| {
            let spec = format!("gen:{family}:{gen_seed}:medium");
            let parsed = GenSpec::parse(&spec).expect("the two families and `medium` are valid");
            Job {
                cfg: RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event),
                kernel: traced(t, || parsed.build()),
                label: format!("event:Unshared-LRR:{spec}"),
            }
        })
        .collect()
}
