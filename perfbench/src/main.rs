//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig8-full|event-stress> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- --print-expected
//! ```
//!
//! Every pass is closed loop: one caller thread submits the workload's
//! whole job list to a fresh private `SweepService` without worker
//! threads, then waits on every handle in order, which runs the jobs on
//! that thread. `--trace 0` repeats passes for `--seconds` (at least
//! one; another only if it should end in time) and reports
//! the end-to-end metrics as medians over passes, times scaled by a
//! calibration task timed during each pass (see `calib`); `--trace 1` runs one
//! untraced pass, one traced pass and a single-threaded
//! `Simulator::try_run_report` pass over the unique jobs, and reports the
//! per-layer metrics. The last stdout line is the JSON result; the lines
//! before it describe the host, the checks and (traced) each span's self
//! time. `--print-expected` regenerates `expected.txt`.

mod calib;
mod jobs;
mod sys;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grs_bench::{job_key, ConfigHash, JobSource, ServiceConfig, SweepService};
use grs_sim::{RunReport, ServiceStats, SharingMode, SimStats, Simulator};
use grs_workloads::suite::{SET1_NAMES, SET2_NAMES};

use jobs::Job;
use trace::Tracer;

/// Pinned `SimStats` digests and job counts, one line per workload (and per
/// generator seed of `event-stress`).
const EXPECTED: &str = include_str!("../expected.txt");

/// Extra set-ups timed before every pass and after the last, so that the
/// set-up median samples the host across the whole run, as passes do.
const SETUP_BATCH: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !jobs::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            jobs::WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--print-expected"] {
        print_expected();
        return;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    println!(
        "host: {}",
        sys::host_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    let result = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    println!("{}", result.to_json());
}

// ---------------------------------------------------------------- passes

/// One job's result as the service returned it.
type JobResult = Result<Arc<RunReport>, String>;

/// Threads a pass executes jobs on: only the caller, which
/// `JobHandle::wait` puts to work because the service spawns no worker.
/// One busy thread leaves the host's other cores to the OS and whatever
/// else runs, and makes a pass's time the sum of its jobs' times, whatever
/// the submission order.
const EXECUTING_THREADS: usize = 1;

/// Jobs plus a fresh private service with no worker threads.
fn setup(workload: &str, gen: u64, t: &mut Tracer) -> (Vec<Job>, SweepService) {
    let span = t.begin("setup", None);
    let jobs = jobs::build(workload, gen, t);
    let service = SweepService::new(ServiceConfig {
        workers: EXECUTING_THREADS - 1,
        ..ServiceConfig::default()
    });
    t.end(span);
    (jobs, service)
}

struct Pass {
    /// First submit to last result, calibration samples left out.
    wall_s: f64,
    /// Process CPU over the same span, calibration samples left out.
    cpu_s: f64,
    /// Wall seconds of each calibration sample taken during the pass.
    cal_s: Vec<f64>,
    /// Per job, canonical order.
    results: Vec<JobResult>,
    service: ServiceStats,
    memo_len: usize,
}

/// Calibration samples a pass aims for, spread evenly over the point before
/// its first submit and the points after each job (at least one at each).
const CAL_PER_PASS: usize = 28;

/// Submit every job in `order`, then wait on every handle in that order.
/// With `calibrate`, calibration samples run before the first submit and
/// after every job; their time is taken out of the pass's.
fn run_pass(
    jobs: Vec<Job>,
    service: &SweepService,
    order: &[usize],
    t: &mut Tracer,
    calibrate: bool,
) -> Pass {
    let mut slots: Vec<Option<Job>> = jobs.into_iter().map(Some).collect();
    let per_point = if calibrate {
        (CAL_PER_PASS / (order.len() + 1)).max(1)
    } else {
        0
    };
    let mut cal_s: Vec<f64> = (0..per_point).map(|_| calib::sample().0).collect();
    let (mut cal_wall, mut cal_cpu) = (0.0, 0.0);
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let root = t.begin("run", None);
    let mut handles = Vec::with_capacity(order.len());
    for &i in order {
        let job = slots[i].take().expect("the order is a permutation");
        if t.is_on() {
            let span = t.begin("service.job_key", Some(i));
            black_box(job_key(&job.cfg, &job.kernel, None));
            t.end(span);
        }
        let span = t.begin("service.submit", Some(i));
        handles.push((i, service.submit(job.cfg, job.kernel)));
        t.end(span);
    }
    let mut results: Vec<Option<JobResult>> = vec![None; order.len()];
    for (i, handle) in handles {
        let span = t.begin("service.wait", Some(i));
        results[i] = Some(handle.wait().report.clone());
        t.end(span);
        for _ in 0..per_point {
            let (wall, cpu) = calib::sample();
            cal_s.push(wall);
            cal_wall += wall;
            cal_cpu += cpu;
        }
    }
    t.end(root);
    let wall_s = t0.elapsed().as_secs_f64() - cal_wall;
    let cpu_s = sys::cpu_s() - cpu0 - cal_cpu;
    Pass {
        wall_s,
        cpu_s,
        cal_s,
        results: results
            .into_iter()
            .map(|r| r.expect("every job was waited on"))
            .collect(),
        service: service.stats(),
        memo_len: service.memo_len(),
    }
}

// ---------------------------------------------------------------- checks

/// What the checks need of a job once it was handed to the service.
struct Meta {
    label: String,
    grid: u64,
}

fn metas(jobs: &[Job]) -> Vec<Meta> {
    jobs.iter()
        .map(|j| Meta {
            label: j.label.clone(),
            grid: u64::from(j.kernel.grid_blocks),
        })
        .collect()
}

/// What a job must show to count as done: a completed run (not timed out,
/// not stalled) that retired its whole grid.
fn job_error(meta: &Meta, result: &JobResult) -> Option<String> {
    let report = match result {
        Err(e) => return Some(format!("{}: run failed: {e}", meta.label)),
        Ok(r) => r,
    };
    let s = &report.stats;
    if s.timed_out || !report.completed() {
        return Some(format!(
            "{}: did not complete ({} cycles, {:?})",
            meta.label, s.cycles, report.outcome
        ));
    }
    if s.blocks_completed != meta.grid {
        return Some(format!(
            "{}: {}/{} blocks completed",
            meta.label, s.blocks_completed, meta.grid
        ));
    }
    None
}

/// FNV-1a over every job's `SimStats` debug rendering in canonical order.
/// Independent of the sweep service's key scheme on purpose: a key-version
/// bump must not read as a behaviour change.
fn digest<'a>(results: impl IntoIterator<Item = &'a JobResult>) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in results {
        let text = match r {
            Ok(report) => format!("{:?}\n", report.stats),
            Err(e) => format!("error: {e}\n"),
        };
        for b in text.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// The `expected.txt` line for a workload built with generator seed `gen`:
/// (jobs, distinct jobs, digest).
fn expected(workload: &str, gen: u64) -> Option<(usize, u64, String)> {
    let gen = if workload == "event-stress" {
        (gen % jobs::GEN_SEEDS).to_string()
    } else {
        "-".to_string()
    };
    EXPECTED.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 5 && f[0] == workload && f[1] == gen).then(|| {
            (
                f[2].parse().expect("expected.txt: job count"),
                f[3].parse().expect("expected.txt: distinct count"),
                f[4].to_string(),
            )
        })
    })
}

/// Collects failed-check messages; the run is correct when there are none.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Output checks of one pass of `workload` built with generator seed
    /// `gen`; returns how many jobs failed them.
    fn pass(&mut self, workload: &str, gen: u64, meta: &[Meta], pass: &Pass) -> u64 {
        let mut failed = 0;
        for (m, r) in meta.iter().zip(&pass.results) {
            if let Some(e) = job_error(m, r) {
                failed += 1;
                self.problems.push(e);
            }
        }
        let d = digest(&pass.results);
        println!("digest: {d} ({} jobs)", pass.results.len());
        match expected(workload, gen) {
            None => self
                .problems
                .push(format!("no expected.txt line for {workload}")),
            Some((n, distinct, want)) => {
                self.require(meta.len() == n, || {
                    format!("{} jobs, expected {n}", meta.len())
                });
                let s = &pass.service;
                self.require(
                    s.submitted == n as u64
                        && s.executed == distinct
                        && s.memo_hits + s.deduped + distinct == n as u64,
                    || {
                        format!(
                            "service counters {s:?}, expected {n} submitted, {distinct} executed"
                        )
                    },
                );
                self.require(d == want, || {
                    format!("SimStats digest {d}, expected {want}")
                });
            }
        }
        failed
    }
}

// ---------------------------------------------------------------- results

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                value,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn finish(checks: Checks, attempted: u64, failed: u64, metrics: Vec<Metric>) -> Outcome {
    for p in &checks.problems {
        println!("check failed: {p}");
    }
    if checks.problems.is_empty() {
        println!("checks ok");
    }
    Outcome {
        correct: checks.problems.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------- modes

/// Time one set-up, appending its seconds to `times`.
fn timed_setup(workload: &str, gen: u64, times: &mut Vec<f64>) -> (Vec<Job>, SweepService) {
    let t0 = Instant::now();
    let built = setup(workload, gen, &mut Tracer::off());
    times.push(t0.elapsed().as_secs_f64());
    built
}

/// `--trace 0`: repeated untraced, calibrated passes for `--seconds`;
/// end-to-end metrics as medians over passes (set-up over every set-up
/// done), each time scaled to the calibration's nominal speed by the
/// calibration median of its pass (for set-ups, of the pass they precede,
/// or of the last pass).
fn timed_run(args: &Args) -> Outcome {
    let w = args.workload.as_str();
    let mut checks = Checks::default();
    // Measured seconds, and the calibration medians that scale them.
    let (mut raw_wall, mut raw_cpu, mut raw_setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = Vec::new();
    // Scaled seconds.
    let (mut wall, mut cpu, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut unscaled_setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    // Start another pass only if it should end within the budget.
    while wall.is_empty() || start.elapsed() + longest <= budget {
        let pass_start = Instant::now();
        let n = wall.len() as u64;
        let gen = jobs::gen_seed(args.seed, n);
        for _ in 0..SETUP_BATCH {
            drop(timed_setup(w, gen, &mut unscaled_setups));
        }
        let (jobs, service) = timed_setup(w, gen, &mut unscaled_setups);
        let meta = metas(&jobs);
        let order = jobs::submission_order(w, jobs.len(), args.seed, n);
        let pass = run_pass(jobs, &service, &order, &mut Tracer::off(), true);
        drop(service);
        attempted += meta.len() as u64;
        failed += checks.pass(w, gen, &meta, &pass);
        let cal_s = median(pass.cal_s.clone());
        let scale = calib::NOMINAL_S / cal_s;
        wall.push(pass.wall_s * scale);
        cpu.push(pass.cpu_s * scale);
        raw_wall.push(pass.wall_s);
        raw_cpu.push(pass.cpu_s);
        cal.push(cal_s);
        raw_setup.extend_from_slice(&unscaled_setups);
        setup_s.extend(unscaled_setups.drain(..).map(|s| s * scale));
        drop(pass);
        longest = longest.max(pass_start.elapsed());
    }
    // Every pass runs on this thread against a fresh service, so the
    // process peak is the largest pass's: for event-stress, the largest of
    // several generated kernels rather than one draw.
    let peak_rss_mb = sys::peak_rss_mb();
    let gen = jobs::gen_seed(args.seed, wall.len() as u64);
    for _ in 0..SETUP_BATCH {
        drop(timed_setup(w, gen, &mut unscaled_setups));
    }
    let scale = calib::NOMINAL_S / cal.last().expect("at least one pass ran");
    raw_setup.extend_from_slice(&unscaled_setups);
    setup_s.extend(unscaled_setups.drain(..).map(|s| s * scale));
    println!("passes: {}", wall.len());
    println!("measured wall_s per pass: {raw_wall:?}");
    println!("measured cpu_s per pass: {raw_cpu:?}");
    println!("calibration median s per pass: {cal:?}");
    println!("measured setup_s median: {}", median(raw_setup));
    let metrics = vec![
        metric("wall_s", median(wall), "s"),
        metric("cpu_s", median(cpu), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("setup_s", median(setup_s), "s"),
    ];
    finish(checks, attempted, failed, metrics)
}

/// One job of the single-threaded simulator pass.
struct SimJob {
    class: &'static str,
    kernel: (String, u32),
    shared: bool,
    ns: u64,
    stats: SimStats,
}

/// `--trace 1`: untraced pass, traced pass, then a single-threaded
/// `Simulator::try_run_report` pass over the unique jobs; per-layer
/// metrics from their spans and statistics.
fn traced_run(args: &Args) -> Outcome {
    let w = args.workload.as_str();
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);

    // Every pass of a traced run uses the jobs of a timed run's first pass.
    let gen = jobs::gen_seed(args.seed, 0);
    let (jobs, service) = setup(w, gen, &mut Tracer::off());
    let meta = metas(&jobs);
    let order = jobs::submission_order(w, jobs.len(), args.seed, 0);
    let untraced = run_pass(jobs, &service, &order, &mut Tracer::off(), false);
    drop(service);
    attempted += meta.len() as u64;
    failed += checks.pass(w, gen, &meta, &untraced);

    let mut t = Tracer::on();
    let (jobs, service) = setup(w, gen, &mut t);
    let traced = run_pass(jobs, &service, &order, &mut t, false);
    drop(service);
    attempted += meta.len() as u64;
    failed += checks.pass(w, gen, &meta, &traced);
    checks.require(digest(&traced.results) == digest(&untraced.results), || {
        "traced and untraced passes disagree".to_string()
    });

    // Single-threaded simulator pass over the unique jobs, canonical order.
    let jobs = jobs::build(w, gen, &mut Tracer::off());
    let mut first: HashMap<ConfigHash, usize> = HashMap::new();
    let mut sim_jobs = Vec::new();
    let mut direct: Vec<JobResult> = Vec::with_capacity(jobs.len());
    let root = t.begin("sim.pass", None);
    for (i, job) in jobs.iter().enumerate() {
        let key = job_key(&job.cfg, &job.kernel, None);
        if let Some(&j) = first.get(&key) {
            direct.push(direct[j].clone());
            continue;
        }
        first.insert(key, i);
        let span = t.begin("sim.try_run_report", Some(i));
        let result = Simulator::new(job.cfg.clone()).try_run_report(&job.kernel);
        t.end(span);
        let result = result.map(Arc::new).map_err(|e| e.to_string());
        if let Ok(report) = &result {
            sim_jobs.push(SimJob {
                class: jobs::class(&job.cfg),
                kernel: (job.kernel.name.clone(), job.kernel.grid_blocks),
                shared: job.cfg.sharing != SharingMode::None,
                ns: t.spans[span].ns(),
                stats: report.stats.clone(),
            });
        }
        direct.push(result);
    }
    t.end(root);
    let sim_failed = meta
        .iter()
        .zip(&direct)
        .filter_map(|(m, r)| job_error(m, r))
        .count();
    checks.require(sim_failed == 0, || {
        format!("{sim_failed} jobs failed in the simulator pass")
    });
    checks.require(digest(&direct) == digest(&untraced.results), || {
        "direct simulator pass and service passes disagree".to_string()
    });
    if w == "fig8-full" {
        repro_parity(&mut checks, jobs, &digest(&untraced.results));
    }

    write_spans(args, &t);
    for (name, (count, total, own)) in t.self_times() {
        println!(
            "span {name:<20} count {count:>5}  total {:>10.4} s  self {:>10.4} s",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }

    let metrics = layer_metrics(&t, &untraced, &traced, &sim_jobs, &meta, EXECUTING_THREADS);
    println!(
        "model.*_ipc_gain_pct are unvalidated: the repository holds no measured IPC reference"
    );
    finish(checks, attempted, failed, metrics)
}

fn write_spans(args: &Args, t: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, t.to_tsv())) {
        Ok(()) => println!("spans: {} written to {}", t.spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

/// Host ns per simulated warp instruction over `jobs`.
fn ns_per_winstr<'a>(jobs: impl IntoIterator<Item = &'a SimJob>) -> f64 {
    let (ns, w) = jobs.into_iter().fold((0u64, 0u64), |(ns, w), j| {
        (ns + j.ns, w + j.stats.warp_instrs)
    });
    if w == 0 {
        0.0
    } else {
        ns as f64 / w as f64
    }
}

/// Mean Fig. 8 IPC gain over `names` (0 when the workload has no Fig. 8).
fn fig8_gain(meta: &[Meta], results: &[JobResult], names: &[&str]) -> f64 {
    let by_label: HashMap<&str, &SimStats> = meta
        .iter()
        .zip(results)
        .filter_map(|(m, r)| Some((m.label.as_str(), &r.as_ref().ok()?.stats)))
        .collect();
    let gains: Vec<f64> = names
        .iter()
        .filter_map(|n| {
            let base = by_label.get(format!("fig8:base:{n}").as_str())?;
            let shared = by_label.get(format!("fig8:shared:{n}").as_str())?;
            Some(shared.ipc_improvement_pct(base))
        })
        .collect();
    if gains.is_empty() {
        0.0
    } else {
        gains.iter().sum::<f64>() / gains.len() as f64
    }
}

fn layer_metrics(
    t: &Tracer,
    untraced: &Pass,
    traced: &Pass,
    sim: &[SimJob],
    meta: &[Meta],
    threads: usize,
) -> Vec<Metric> {
    let secs = |name: &str| t.durations(name).iter().sum::<u64>() as f64 * 1e-9;
    let key_us: Vec<f64> = t
        .durations("service.job_key")
        .iter()
        .map(|&ns| ns as f64 * 1e-3)
        .collect();
    let sim_ns: Vec<f64> = sim.iter().map(|j| j.ns as f64).collect();
    let exec_s = sim_ns.iter().sum::<f64>() * 1e-9;
    let s = &traced.service;

    let mut m = vec![
        metric("workloads.build_s", secs("workloads.build"), "s"),
        metric("service.submitted", s.submitted as f64, "count"),
        metric("service.executed", s.executed as f64, "count"),
        metric("service.memo_hit_ratio", s.hit_rate(), "ratio"),
        metric("service.failed", s.failed as f64, "count"),
        metric("service.submit_s", secs("service.submit"), "s"),
        metric("service.key_us.p50", median(key_us), "us"),
        metric(
            "service.pool_util",
            exec_s / (untraced.wall_s * threads as f64),
            "ratio",
        ),
        metric("service.memo_len", traced.memo_len as f64, "count"),
        metric("sim.exec_s", exec_s, "s"),
        metric("sim.job_ms.p50", median(sim_ns.clone()) * 1e-6, "ms"),
        metric(
            "sim.job_ms.max",
            sim_ns.iter().copied().fold(0.0, f64::max) * 1e-6,
            "ms",
        ),
    ];
    // 0 marks a class with no job in this workload.
    for class in [
        "lrr",
        "gto",
        "two-level",
        "reg-sharing",
        "smem-sharing",
        "event",
    ] {
        m.push(metric(
            format!("sim.ns_per_winstr.{class}"),
            ns_per_winstr(sim.iter().filter(|j| j.class == class)),
            "ns",
        ));
    }
    let total = |f: fn(&SimStats) -> u64| sim.iter().map(|j| f(&j.stats)).sum::<u64>();
    let cycles = total(|s| s.cycles);
    let sm_cycles: u64 = sim
        .iter()
        .map(|j| j.stats.cycles * j.stats.per_sm.len() as u64)
        .sum();
    let unissued = total(|s| s.stall_cycles + s.idle_cycles + s.empty_cycles);
    m.push(metric("sim.cycles_per_s", cycles as f64 / exec_s, "1/s"));
    m.push(metric("sim.cycles", cycles as f64, "count"));
    m.push(metric(
        "sim.warp_instrs",
        total(|s| s.warp_instrs) as f64,
        "count",
    ));
    m.push(metric(
        "sim.issue_share",
        1.0 - unissued as f64 / sm_cycles.max(1) as f64,
        "ratio",
    ));

    // Sharing vs baseline host cost on kernels run both ways.
    let mut kernels: BTreeMap<&(String, u32), [bool; 2]> = BTreeMap::new();
    for j in sim {
        kernels.entry(&j.kernel).or_default()[usize::from(j.shared)] = true;
    }
    let both = |j: &&SimJob| kernels[&j.kernel] == [true, true];
    let shared_cost = ns_per_winstr(sim.iter().filter(both).filter(|j| j.shared));
    let base_cost = ns_per_winstr(sim.iter().filter(both).filter(|j| !j.shared));
    m.push(metric(
        "core.sharing_cost",
        if base_cost > 0.0 {
            shared_cost / base_cost
        } else {
            0.0
        },
        "ratio",
    ));

    let l2_hits = total(|s| s.mem.l2_hits);
    let l2_misses = total(|s| s.mem.l2_misses);
    m.push(metric(
        "mem.transactions",
        total(|s| s.mem.transactions) as f64,
        "count",
    ));
    m.push(metric(
        "mem.l2_miss_ratio",
        l2_misses as f64 / (l2_hits + l2_misses).max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "mem.mshr_full_stalls",
        total(|s| s.mshr_full_stalls) as f64,
        "count",
    ));
    m.push(metric(
        "mem.dram_queue_full_stalls",
        total(|s| s.dram_queue_full_stalls) as f64,
        "count",
    ));
    m.push(metric(
        "mem.mshr_merges",
        total(|s| s.mem.mshr_merges) as f64,
        "count",
    ));

    // Modelled design's headline (unvalidated: the repository holds no
    // measured IPC reference); 0 on a workload without Fig. 8.
    m.push(metric(
        "model.reg_ipc_gain_pct",
        fig8_gain(meta, &untraced.results, &SET1_NAMES),
        "%",
    ));
    m.push(metric(
        "model.smem_ipc_gain_pct",
        fig8_gain(meta, &untraced.results, &SET2_NAMES),
        "%",
    ));
    m.push(metric(
        "trace.overhead",
        traced.wall_s - untraced.wall_s,
        "s",
    ));
    m
}

/// `repro fig8` parity: run the CLI's own experiment function (full
/// grids) through the process-wide service, then resubmit this workload's
/// jobs to it. An equal submission count, every resubmission a memo hit,
/// and no new execution mean both lists hold the same jobs; the digest
/// shows they got the same results.
fn repro_parity(checks: &mut Checks, jobs: Vec<Job>, want: &str) {
    let global = SweepService::global();
    grs_bench::experiments::fig8(false);
    let repro = global.stats();
    checks.require(repro.submitted == jobs.len() as u64, || {
        format!(
            "parity: repro fig8 submits {} jobs, fig8-full has {}",
            repro.submitted,
            jobs.len()
        )
    });
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|j| global.submit(j.cfg, j.kernel))
        .collect();
    let misses = handles
        .iter()
        .filter(|h| h.source() != JobSource::MemoHit)
        .count();
    let results: Vec<JobResult> = handles.iter().map(|h| h.wait().report.clone()).collect();
    checks.require(
        misses == 0 && global.stats().executed == repro.executed,
        || format!("parity: {misses} fig8-full jobs are not among repro's"),
    );
    let got = digest(&results);
    checks.require(got == want, || {
        format!("parity: repro's results digest {got}, expected {want}")
    });
    println!(
        "parity: repro fig8 submitted {}, executed {}; {misses} fig8-full jobs missed its memo",
        repro.submitted, repro.executed
    );
}

// ---------------------------------------------------------------- pinning

/// Print `expected.txt`: every workload's job count, distinct-job count and
/// `SimStats` digest, with `event-stress` once per generator seed.
fn print_expected() {
    let service = SweepService::new(ServiceConfig {
        workers: sys::available_parallelism(),
        ..ServiceConfig::default()
    });
    let off = &mut Tracer::off();
    let run = |jobs: Vec<Job>| -> (Vec<JobResult>, Vec<ConfigHash>) {
        let keys = jobs
            .iter()
            .map(|j| job_key(&j.cfg, &j.kernel, None))
            .collect();
        let meta = metas(&jobs);
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|j| service.submit(j.cfg, j.kernel))
            .collect();
        let results: Vec<JobResult> = handles.iter().map(|h| h.wait().report.clone()).collect();
        for e in meta
            .iter()
            .zip(&results)
            .filter_map(|(m, r)| job_error(m, r))
        {
            eprintln!("warning: pinning a failed job: {e}");
        }
        (results, keys)
    };
    let distinct =
        |keys: &[ConfigHash]| keys.iter().collect::<std::collections::HashSet<_>>().len();
    println!("# workload gen-seed jobs distinct simstats-digest (perfbench --print-expected)");
    let (results, keys) = run(jobs::build("fig8-full", 0, off));
    println!(
        "fig8-full - {} {} {}",
        results.len(),
        distinct(&keys),
        digest(&results)
    );
    let (fixed, fixed_keys) = run(jobs::event_fixed(off));
    let generated: Vec<_> = (0..jobs::GEN_SEEDS)
        .map(|s| run(jobs::event_generated(s, off)))
        .collect();
    for (s, (results, keys)) in generated.iter().enumerate() {
        let all: Vec<&JobResult> = fixed.iter().chain(results).collect();
        let all_keys: Vec<ConfigHash> = fixed_keys.iter().chain(keys).copied().collect();
        println!(
            "event-stress {s} {} {} {}",
            all.len(),
            distinct(&all_keys),
            digest(all)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_sim::RunOutcome;

    fn report(outcome: RunOutcome, timed_out: bool, blocks: u64) -> JobResult {
        Ok(Arc::new(RunReport {
            stats: SimStats {
                timed_out,
                blocks_completed: blocks,
                ..SimStats::default()
            },
            outcome,
            recoveries: Vec::new(),
            checkpoints: 0,
            telemetry: None,
        }))
    }

    #[test]
    fn output_checks_fail_incomplete_jobs() {
        let meta = Meta {
            label: "event:Unshared-LRR:gen:mshr-thrash:1:large".to_string(),
            grid: 153,
        };
        // The shape `max_cycles` leaves behind: a timed-out run that retired
        // only part of its grid.
        let timed_out = report(RunOutcome::TimedOut, true, 147);
        assert!(job_error(&meta, &timed_out).is_some());
        let short = report(RunOutcome::Completed, false, 147);
        assert!(job_error(&meta, &short).is_some());
        let err: JobResult = Err("boom".to_string());
        assert!(job_error(&meta, &err).is_some());
        let done = report(RunOutcome::Completed, false, 153);
        assert!(job_error(&meta, &done).is_none());
    }

    #[test]
    fn gen_seed_is_drawn_per_pass() {
        let seeds: Vec<u64> = (0..8).map(|pass| jobs::gen_seed(5, pass)).collect();
        assert!(seeds.iter().all(|&g| g < jobs::GEN_SEEDS));
        assert!(seeds.windows(2).any(|w| w[0] != w[1]), "passes draw anew");
        assert_eq!(
            seeds,
            (0..8).map(|p| jobs::gen_seed(5, p)).collect::<Vec<_>>()
        );
        assert_ne!(jobs::gen_seed(5, 0), jobs::gen_seed(6, 0));
    }

    #[test]
    fn submission_order_is_a_seeded_permutation() {
        let n = jobs::build("fig8-full", 0, &mut Tracer::off()).len();
        let order = jobs::submission_order("fig8-full", n, 7, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        assert_ne!(order, sorted, "a nonzero seed shuffles");
        assert_eq!(order, jobs::submission_order("fig8-full", n, 7, 0));
        assert_ne!(order, jobs::submission_order("fig8-full", n, 7, 1));
        assert_eq!(jobs::submission_order("fig8-full", n, 0, 1), sorted);
    }
}
