//! End-to-end benchmark of mesh router placement: the paper's Figure 3
//! (GA seeded by each ad hoc method) and Figure 4 (neighborhood search,
//! swap vs random movement), at paper scale and beyond.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <ga-paper|ga-s16|ns-s256> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the figure once, then replays it step by step (one
//! GA generation or search phase at a time) for `--seconds`, checks every
//! replay against the figure, and prints the end-to-end metrics. `--trace 1`
//! runs the figure once and replays every cell twice with a span around
//! each call into a layer, and prints the per-layer metrics. The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any cell failed its checks. See `README.md` for the
//! workloads and what each metric should move.

mod adapter;
mod cpus;
mod trace;

use adapter::{CellRun, Counts, Granularity, Plan, Series};
use cpus::CpuRotation;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{median, Span, Tracer};

/// The workloads and why each was chosen (the same text as
/// `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 3] = [
    (
        "ga-paper",
        "Figure 3 as the paper runs it: 64 routers, population 64, 800 generations; per-child fixed costs (state copy, diff, scoring) dominate",
    ),
    (
        "ga-s16",
        "Figure 3 at --quick --scale 16 effort: 1024 routers, ~12% of routers move per child, so wmn-graph batch connectivity repair is ~65% of the work",
    ),
    (
        "ns-s256",
        "Figure 4 at full effort on --scale 256: 16384 routers, one router moved per neighbor, no GA; swap proposals dominate; largest set-up (instance plus full build)",
    ),
];

/// A reported metric: name, unit, which way is better, and a note (what an
/// end-to-end metric measures; which end-to-end metric a layer metric
/// should move, on which workload).
struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

const END_TO_END: [Metric; 4] = [
    metric(
        "setup_s",
        "s",
        "lower",
        "instance + evaluator (+ start build for search); median over slices of the fastest",
    ),
    metric(
        "solve_s",
        "s",
        "lower",
        "time to the figure: sum over its steps of each step's fastest replay",
    ),
    metric(
        "evals_per_s",
        "1/s",
        "higher",
        "placement evaluations per second of solve_s",
    ),
    metric(
        "peak_rss_mb",
        "MB",
        "lower",
        "VmHWM of the benchmark process after its first figure call",
    ),
];

const PER_LAYER: [Metric; 28] = [
    metric(
        "model.instance_ms",
        "ms",
        "lower",
        "setup_s on ns-s256 and ga-s16",
    ),
    metric("placement.init_ms", "ms", "lower", "solve_s on ga-s16"),
    metric(
        "graph.build_ms",
        "ms",
        "lower",
        "setup_s on ns-s256; solve_s on ga-s16",
    ),
    metric("graph.clone_us.p50", "us", "lower", "solve_s on ga-paper"),
    metric("graph.clone_us.p99", "us", "lower", "solve_s on ga-paper"),
    metric("graph.repair_us.p50", "us", "lower", "solve_s on ga-s16"),
    metric("graph.repair_us.p99", "us", "lower", "solve_s on ga-s16"),
    metric("graph.move_us.p50", "us", "lower", "solve_s on ns-s256"),
    metric("graph.move_us.p99", "us", "lower", "solve_s on ns-s256"),
    metric(
        "graph.diff_routers_per_child",
        "count",
        "lower",
        "work per child on ga-paper and ga-s16; should not move",
    ),
    metric(
        "graph.fallback_ratio",
        "ratio",
        "lower",
        "solve_s on ga-s16",
    ),
    metric(
        "graph.bfs_visits_per_repair",
        "count",
        "lower",
        "solve_s on ga-s16",
    ),
    metric(
        "graph.disk_cache_hit_ratio",
        "ratio",
        "higher",
        "solve_s on ga-s16 and ga-paper",
    ),
    metric(
        "graph.coverage_full_ratio",
        "ratio",
        "lower",
        "solve_s on ns-s256",
    ),
    metric("metrics.score_us.p50", "us", "lower", "solve_s on ns-s256"),
    metric("search.propose_us.p50", "us", "lower", "solve_s on ns-s256"),
    metric(
        "search.propose_ms",
        "ms",
        "lower",
        "solve_s on ns-s256 (swap proposals scan densities)",
    ),
    metric("search.phase_ms.p50", "ms", "lower", "solve_s on ns-s256"),
    metric("search.phase_ms.p90", "ms", "lower", "solve_s on ns-s256"),
    metric(
        "search.accept_ratio",
        "ratio",
        "higher",
        "should not move under a pure performance change",
    ),
    metric("ga.reproduce_ms.p50", "ms", "lower", "solve_s on ga-paper"),
    metric("ga.reproduce_ms.p95", "ms", "lower", "solve_s on ga-paper"),
    metric(
        "ga.evaluate_ms.p50",
        "ms",
        "lower",
        "solve_s on ga-s16 and ga-paper",
    ),
    metric(
        "ga.evaluate_ms.p95",
        "ms",
        "lower",
        "solve_s on ga-s16 and ga-paper",
    ),
    metric("ga.unattributed_ms", "ms", "lower", "solve_s on ga-paper"),
    metric(
        "obs.reconcile_gap_pct",
        "%",
        "lower",
        "orchestration plus tracing overhead against the traced run's figure call",
    ),
    metric(
        "quality.giant_frac",
        "ratio",
        "higher",
        "mean over cells of best giant component / routers; should not move",
    ),
    metric(
        "quality.coverage_frac",
        "ratio",
        "higher",
        "mean over cells of covered clients / clients; should not move",
    ),
];

/// The figure is replayed at least this often, and until `--seconds`.
/// Each replay times every step of the figure (a cell's start, then each
/// GA generation or search phase, 0.5-25 ms each); `solve_s` sums each
/// step's fastest time over the replays. The work is deterministic, so
/// other tenants of a shared host can only slow it, and on a 2-vCPU VM they
/// do so in bursts: whole figure calls of a few seconds ran 10-60% slow
/// for minutes at a time, while millisecond steps still found quiet
/// moments between the bursts.
const MIN_REPLAYS: usize = 3;
/// After each replay set-up repeats for this long (at least twice), so the
/// slices span the same stretch of the run as the replays; `setup_s` is the
/// median over slices of each slice's fastest set-up.
const SETUP_SLICE: Duration = Duration::from_millis(150);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(parsed)
}

/// SplitMix64: the benchmark derives its own seeds, so the inputs stay the
/// same whatever the program's RNG plumbing does.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(instance_seed, run_seed)` of a workload seed.
fn derive_seeds(seed: u64) -> (u64, u64) {
    let instance_seed = splitmix64(seed);
    (instance_seed, splitmix64(instance_seed))
}

fn plan_for(args: &Args) -> Plan {
    let (instance_seed, run_seed) = derive_seeds(args.seed);
    Plan::new(&args.workload, instance_seed, run_seed).expect("workload name validated")
}

/// What one invocation prints as its last line.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = plan_for(&args);
    let (instance_seed, run_seed) = plan.seeds();
    println!(
        "workload {} seed {} (instance_seed {instance_seed}, run_seed {run_seed}), {} cells",
        args.workload,
        args.seed,
        plan.cells()
    );
    let result = if args.trace {
        traced_run(&plan)
    } else {
        timed_run(&plan, args.seconds)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print_table(table, &report.metrics);
    println!("cells_failed {} of {}", report.failed, report.attempted);
    println!("{}", render_json(table, &report));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end run, tracing off: one figure call (the reference every
/// replay must reproduce; peak memory is read after it), then step-granular
/// replays for `seconds`, each followed by a slice of repeated set-ups and
/// each pinned to the next allowed CPU in turn.
fn timed_run(plan: &Plan, seconds: u64) -> Result<Report, String> {
    let start = Instant::now();
    let figure = plan.figure()?;
    let figure_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = read_peak_rss_mb()?;
    let prepared = plan.setup(&mut Tracer::default())?;

    let mut fastest: Vec<u64> = Vec::new();
    let mut replay_s = Vec::new();
    let mut setup = Vec::new();
    let mut failed = vec![false; plan.cells()];
    let mut totals = Totals::default();
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut rotation = CpuRotation::new();
    // A replay starts only if one as long as the last still fits.
    while replay_s.len() < MIN_REPLAYS || started.elapsed() + last <= Duration::from_secs(seconds) {
        rotation.advance();
        let replay_start = Instant::now();
        let mut tracer = Tracer::default();
        let runs = plan.replay(&prepared, Granularity::Steps, &mut tracer);
        let failures = cell_failures(&runs, &figure, None);
        if failures.iter().any(|&f| f) {
            for (flag, f) in failed.iter_mut().zip(failures) {
                *flag |= f;
            }
        } else {
            keep_fastest(&mut fastest, tracer.samples(Span::Step))?;
        }
        if replay_s.is_empty() {
            for run in runs.iter().flatten() {
                totals.add(run);
            }
        }
        replay_s.push(tracer.total_s(Span::Step));
        setup.push(fastest_setup(plan)?);
        last = replay_start.elapsed();
    }
    println!(
        "figure call {figure_s:.4} s (the reference, not a metric); {} replays of {} steps \
         and {} evaluations, rotated over CPUs {:?}: {replay_s:.4?} s; set-up slice minima \
         {setup:.6?} s; quality (deterministic per seed): giant_frac {}, coverage_frac {}",
        replay_s.len(),
        fastest.len(),
        plan.evaluations(),
        rotation.cpus(),
        totals.mean_giant_frac(),
        totals.mean_coverage_frac(),
    );
    Ok(Report {
        attempted: plan.cells(),
        failed: failed.iter().filter(|&&f| f).count(),
        metrics: end_to_end_metrics(&Measured {
            setup,
            fastest_steps: fastest,
            evaluations: plan.evaluations(),
            peak_rss_mb,
        }),
    })
}

/// Lowers each of `fastest` to the matching step of `steps` (nanoseconds,
/// in replay order); the first replay fills it.
fn keep_fastest(fastest: &mut Vec<u64>, steps: &[u64]) -> Result<(), String> {
    if fastest.is_empty() {
        fastest.extend_from_slice(steps);
    } else if fastest.len() != steps.len() {
        return Err(format!(
            "a replay took {} steps, an earlier one {}",
            steps.len(),
            fastest.len()
        ));
    } else {
        for (best, &step) in fastest.iter_mut().zip(steps) {
            *best = (*best).min(step);
        }
    }
    Ok(())
}

/// Repeats set-up for `SETUP_SLICE` (at least twice) and returns the
/// fastest, in seconds.
fn fastest_setup(plan: &Plan) -> Result<f64, String> {
    let slice = Instant::now();
    let mut fastest = f64::INFINITY;
    for rep in 0.. {
        if rep >= 2 && slice.elapsed() >= SETUP_SLICE {
            break;
        }
        let start = Instant::now();
        let prepared = plan.setup(&mut Tracer::default())?;
        fastest = fastest.min(start.elapsed().as_secs_f64());
        drop(prepared);
    }
    Ok(fastest)
}

/// Raw measurements of an end-to-end run.
struct Measured {
    /// Each set-up slice's fastest set-up, in seconds.
    setup: Vec<f64>,
    /// Each figure step's fastest replay, in nanoseconds.
    fastest_steps: Vec<u64>,
    evaluations: u64,
    peak_rss_mb: f64,
}

/// The end-to-end metrics, in `END_TO_END` order.
fn end_to_end_metrics(m: &Measured) -> Vec<(&'static str, f64)> {
    let solve_s = m.fastest_steps.iter().sum::<u64>() as f64 * 1e-9;
    vec![
        ("setup_s", median(&m.setup)),
        ("solve_s", solve_s),
        ("evals_per_s", m.evaluations as f64 / solve_s),
        ("peak_rss_mb", m.peak_rss_mb),
    ]
}

/// Traced run: one untraced figure call for reconciliation, then two
/// replays — the first traced, the second to check the work counts repeat.
fn traced_run(plan: &Plan) -> Result<Report, String> {
    let mut tracer = Tracer::default();
    let prepared = plan.setup(&mut tracer)?;
    let start = Instant::now();
    let figure = plan.figure()?;
    let solve_s = start.elapsed().as_secs_f64();
    let first = plan.replay(&prepared, Granularity::Layers, &mut tracer);
    let second = plan.replay(&prepared, Granularity::Layers, &mut Tracer::default());
    let failed = cell_failures(&first, &figure, Some(&second))
        .iter()
        .filter(|&&f| f)
        .count();

    let mut totals = Totals::default();
    for run in first.iter().flatten() {
        totals.add(run);
    }
    let traced_s = tracer.total_s(Span::Instance) + tracer.total_s(Span::Cell);
    println!("figure {solve_s:.4} s untraced; traced instance + cells {traced_s:.4} s");
    println!(
        "{:<16} {:>8} {:>12} {:>8}",
        "span", "samples", "total_ms", "%cells"
    );
    let cells_s = tracer.total_s(Span::Cell);
    for span in Span::ALL {
        println!(
            "{:<16} {:>8} {:>12.3} {:>8.2}",
            span.name(),
            tracer.samples(span).len(),
            tracer.total_s(span) * 1e3,
            100.0 * tracer.total_s(span) / cells_s
        );
    }
    Ok(Report {
        attempted: plan.cells(),
        failed,
        metrics: layer_metrics(&tracer, &totals, solve_s, plan.is_ga()),
    })
}

/// Which cells failed: an error, a replayed series that differs from the
/// figure's, a best placement whose fresh evaluation differs from the
/// incremental one, or (given a second replay) series or work counts that
/// did not repeat.
fn cell_failures(
    runs: &[Result<CellRun, String>],
    figure: &[Series],
    repeat: Option<&[Result<CellRun, String>]>,
) -> Vec<bool> {
    let mut failed = Vec::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let problem = match run {
            Err(e) => Some(format!("error: {e}")),
            Ok(r) if figure.get(i) != Some(&r.series) => {
                Some("replayed series differs from the figure".to_owned())
            }
            Ok(r) if !r.verified => {
                Some("fresh evaluation of the best placement differs".to_owned())
            }
            Ok(r) => match repeat.map(|again| &again[i]) {
                Some(Ok(again)) if again.counts != r.counts || again.series != r.series => {
                    Some("work counts differ between two traced replays".to_owned())
                }
                Some(Err(e)) => Some(format!("second replay error: {e}")),
                _ => None,
            },
        };
        if let Some(problem) = &problem {
            eprintln!("e2ebench: cell {i} failed: {problem}");
        }
        failed.push(problem.is_some());
    }
    failed
}

/// Work counts summed over the replayed cells.
#[derive(Debug, Default)]
struct Totals {
    counts: Counts,
    children: u64,
    phases: u64,
    accepted: u64,
    cells: usize,
    giant_frac: f64,
    coverage_frac: f64,
}

impl Totals {
    fn add(&mut self, run: &CellRun) {
        self.counts.merge(&run.counts);
        self.children += run.children;
        self.phases += run.phases;
        self.accepted += run.accepted;
        self.cells += 1;
        self.giant_frac += run.giant_frac;
        self.coverage_frac += run.coverage_frac;
    }

    fn mean_giant_frac(&self) -> f64 {
        self.giant_frac / self.cells.max(1) as f64
    }

    fn mean_coverage_frac(&self) -> f64 {
        self.coverage_frac / self.cells.max(1) as f64
    }
}

/// `num / den`, 0 when nothing was attempted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics, in `PER_LAYER` order. A layer the workload
/// never calls reads 0.
fn layer_metrics(
    tracer: &Tracer,
    totals: &Totals,
    solve_s: f64,
    ga: bool,
) -> Vec<(&'static str, f64)> {
    let c = |name| totals.counts.get(name);
    let ms = |span| tracer.total_s(span) * 1e3;
    let q_us = |span, q| tracer.quantile_s(span, q) * 1e6;
    let q_ms = |span, q| tracer.quantile_s(span, q) * 1e3;
    let coverage = c("topology.coverage_delta_repairs") + c("topology.coverage_full_recomputes");
    let disk = c("topology.disk_cache_hits") + c("topology.disk_grid_queries");
    let repairs = c("connectivity.repairs");
    let unattributed = if ga {
        ms(Span::Cell)
            - ms(Span::PlacementInit)
            - ms(Span::Build)
            - ms(Span::Reproduce)
            - ms(Span::Evaluate)
    } else {
        0.0
    };
    let traced_s = tracer.total_s(Span::Instance) + tracer.total_s(Span::Cell);
    vec![
        ("model.instance_ms", ms(Span::Instance)),
        ("placement.init_ms", ms(Span::PlacementInit)),
        ("graph.build_ms", ms(Span::Build)),
        ("graph.clone_us.p50", q_us(Span::Clone, 0.50)),
        ("graph.clone_us.p99", q_us(Span::Clone, 0.99)),
        ("graph.repair_us.p50", q_us(Span::Repair, 0.50)),
        ("graph.repair_us.p99", q_us(Span::Repair, 0.99)),
        ("graph.move_us.p50", q_us(Span::Move, 0.50)),
        ("graph.move_us.p99", q_us(Span::Move, 0.99)),
        (
            "graph.diff_routers_per_child",
            ratio(c("topology.batch_moved_routers"), totals.children),
        ),
        (
            "graph.fallback_ratio",
            ratio(c("connectivity.fallbacks"), repairs),
        ),
        (
            "graph.bfs_visits_per_repair",
            ratio(c("connectivity.bfs_edge_visits"), repairs),
        ),
        (
            "graph.disk_cache_hit_ratio",
            ratio(c("topology.disk_cache_hits"), disk),
        ),
        (
            "graph.coverage_full_ratio",
            ratio(c("topology.coverage_full_recomputes"), coverage),
        ),
        ("metrics.score_us.p50", q_us(Span::Score, 0.50)),
        ("search.propose_us.p50", q_us(Span::Propose, 0.50)),
        ("search.propose_ms", ms(Span::Propose)),
        ("search.phase_ms.p50", q_ms(Span::Phase, 0.50)),
        ("search.phase_ms.p90", q_ms(Span::Phase, 0.90)),
        ("search.accept_ratio", ratio(totals.accepted, totals.phases)),
        ("ga.reproduce_ms.p50", q_ms(Span::Reproduce, 0.50)),
        ("ga.reproduce_ms.p95", q_ms(Span::Reproduce, 0.95)),
        ("ga.evaluate_ms.p50", q_ms(Span::Evaluate, 0.50)),
        ("ga.evaluate_ms.p95", q_ms(Span::Evaluate, 0.95)),
        ("ga.unattributed_ms", unattributed),
        (
            "obs.reconcile_gap_pct",
            100.0 * (solve_s - traced_s) / solve_s,
        ),
        ("quality.giant_frac", totals.mean_giant_frac()),
        ("quality.coverage_frac", totals.mean_coverage_frac()),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn read_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn lookup<'t>(table: &'t [Metric], name: &str) -> &'t Metric {
    table
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is missing from its table"))
}

fn print_table(table: &[Metric], metrics: &[(&'static str, f64)]) {
    for &(name, value) in metrics {
        let m = lookup(table, name);
        println!(
            "{name:<30} {value:>16.6} {:<6} {:<7} {}",
            m.unit,
            format!("({})", m.better),
            m.note
        );
    }
}

/// Finite JSON number (NaN and infinities cannot be written).
fn json_number(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn render_json(table: &[Metric], report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(value),
                lookup(table, name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapter::{parse_json, JsonValue};

    fn args(workload: &str, seed: u64) -> Args {
        parse_args(["--workload", workload, "--seed", &seed.to_string()].map(String::from)).unwrap()
    }

    #[test]
    fn seed_argument_reaches_both_seeds() {
        for (workload, _) in WORKLOADS {
            let a = plan_for(&args(workload, 5)).seeds();
            let b = plan_for(&args(workload, 6)).seeds();
            assert_eq!(a, derive_seeds(5));
            assert_ne!(a.0, b.0, "{workload}: instance seed ignores --seed");
            assert_ne!(a.1, b.1, "{workload}: run seed ignores --seed");
            assert_ne!(a.0, a.1, "{workload}: instance and run seeds coincide");
        }
    }

    #[test]
    fn seeds_change_the_instance_and_the_run_stream() {
        let base = Plan::tiny(true, 1, 2);
        let prepared = base.setup(&mut Tracer::default()).unwrap();
        let other_instance = Plan::tiny(true, 3, 2)
            .setup(&mut Tracer::default())
            .unwrap();
        assert_ne!(Plan::clients(&prepared), Plan::clients(&other_instance));
        assert_ne!(
            base.first_population(&prepared),
            Plan::tiny(true, 1, 4).first_population(&prepared)
        );
    }

    #[test]
    fn replay_reproduces_the_figure_at_both_granularities() {
        for ga in [true, false] {
            let plan = Plan::tiny(ga, 11, 12);
            let figure = plan.figure().unwrap();
            let prepared = plan.setup(&mut Tracer::default()).unwrap();
            let mut step_counts = Vec::new();
            for granularity in [Granularity::Steps, Granularity::Layers] {
                let mut tracer = Tracer::default();
                let runs = plan.replay(&prepared, granularity, &mut tracer);
                let again = plan.replay(&prepared, granularity, &mut Tracer::default());
                assert_eq!(runs.len(), plan.cells());
                assert_eq!(
                    cell_failures(&runs, &figure, Some(&again)),
                    vec![false; plan.cells()]
                );
                step_counts.push(tracer.samples(Span::Step).len());
            }
            // A start step per cell, then one per generation or phase (4
            // of either in a tiny plan).
            assert_eq!(step_counts, vec![plan.cells() * 5; 2]);
        }
    }

    #[test]
    fn a_wrong_series_fails_the_cell() {
        let plan = Plan::tiny(false, 11, 12);
        let mut figure = plan.figure().unwrap();
        figure.swap(0, 1);
        let prepared = plan.setup(&mut Tracer::default()).unwrap();
        let runs = plan.replay(&prepared, Granularity::Steps, &mut Tracer::default());
        assert_eq!(cell_failures(&runs, &figure, None), vec![true, true]);
    }

    #[test]
    fn fastest_steps_are_kept_per_step() {
        let mut fastest = Vec::new();
        keep_fastest(&mut fastest, &[5, 9, 7]).unwrap();
        keep_fastest(&mut fastest, &[6, 3, 7]).unwrap();
        assert_eq!(fastest, vec![5, 3, 7]);
        assert!(keep_fastest(&mut fastest, &[1, 1]).is_err());
        let metrics = end_to_end_metrics(&Measured {
            setup: vec![0.3, 0.1, 0.2],
            fastest_steps: vec![250_000_000, 750_000_000],
            evaluations: 10,
            peak_rss_mb: 1.0,
        });
        assert_eq!(
            metrics,
            vec![
                ("setup_s", 0.2),
                ("solve_s", 1.0),
                ("evals_per_s", 10.0),
                ("peak_rss_mb", 1.0)
            ]
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            vec!["--workload", "nope"],
            vec!["--workload", "ga-paper", "--trace", "2"],
            vec!["--workload", "ga-paper", "--seed"],
            vec!["--workload", "ga-paper", "--bogus", "1"],
            vec!["--seed", "1"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
        let parsed = parse_args(
            [
                "--workload",
                "ns-s256",
                "--seed",
                "9",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: "ns-s256".into(),
                seed: 9,
                seconds: 3,
                trace: true
            }
        );
    }

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        parse_json(&text).unwrap()
    }

    fn entries<'j>(doc: &'j JsonValue, key: &str) -> &'j [JsonValue] {
        doc.get(key).and_then(JsonValue::as_array).unwrap()
    }

    fn field<'j>(entry: &'j JsonValue, key: &str) -> &'j str {
        entry.get(key).and_then(JsonValue::as_str).unwrap()
    }

    fn assert_table_matches(doc: &JsonValue, key: &str, table: &[Metric]) {
        let listed = entries(doc, key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(field(entry, "name"), m.name, "{key}");
            assert_eq!(field(entry, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(entry, "better"), m.better, "{}", m.name);
        }
    }

    /// The names each mode prints, from a report built exactly as a real
    /// run builds it.
    fn printed_names(trace: bool) -> Vec<String> {
        let metrics = if trace {
            layer_metrics(&Tracer::default(), &Totals::default(), 1.0, true)
        } else {
            end_to_end_metrics(&Measured {
                setup: vec![1.0],
                fastest_steps: vec![1],
                evaluations: 1,
                peak_rss_mb: 1.0,
            })
        };
        let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
        let line = render_json(
            table,
            &Report {
                attempted: 1,
                failed: 0,
                metrics,
            },
        );
        let doc = parse_json(&line).unwrap();
        match doc.get("metrics").unwrap() {
            JsonValue::Object(members) => members.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn printed_metric_names_equal_benchmark_json() {
        let doc = benchmark_json();
        assert_table_matches(&doc, "end_to_end", &END_TO_END);
        assert_table_matches(&doc, "per_layer", &PER_LAYER);
        let workloads: Vec<(&str, &str)> = entries(&doc, "workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let listed: Vec<String> = entries(&doc, key)
                .iter()
                .map(|e| field(e, "name").to_owned())
                .collect();
            assert_eq!(printed_names(trace), listed, "{key}");
        }
    }
}
