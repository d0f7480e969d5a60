//! Tiny shared argument parsing and the binaries' common entry point.
//!
//! Flags (all optional; the binaries read no environment variable):
//!
//! * `--quick` — reduced search effort (`ExperimentConfig::quickened`),
//!   applied before every other flag wherever it appears, so an explicit
//!   `--ns-budget` wins in either order.
//! * `--seed <n>` — algorithm run seed (default 42).
//! * `--instance-seed <n>` — instance generation seed (default 2009).
//! * `--threads <n>` — experiment-runtime workers (default 0 = one per
//!   core). Results are identical for every value.
//! * `--ga-threads <n>` — evaluation threads inside one GA run (default 4).
//! * `--scale <n>` — proportional instance scale-up: `n`× routers and
//!   clients on `√n`× the area side (at least 1).
//! * `--scale-routers <n>` / `--scale-clients <n>` / `--scale-area <x>` —
//!   individual multipliers (counts at least 1, the area positive and
//!   finite).
//! * `--ns-budget <n>` — neighbors sampled per search phase (at least 1).
//! * `--connectivity <mode>` — connectivity repair strategy: `dynamic`
//!   (default) or `full` (full-rebuild reference pipeline). Results are
//!   bit-identical in both modes; only the work counters differ.
//! * `--telemetry <dir>` — write structured run telemetry
//!   (`telemetry.json` + `spans.jsonl`) to `<dir>`; see
//!   [`crate::telemetry`].
//! * `--retries <n>` — per-cell attempt budget for the panic-isolated
//!   runner (default 1 = no retries). Retried cells re-derive the same
//!   seed, so outputs are byte-identical.
//! * `--fault-plan <spec>` — deterministic fault injection, e.g.
//!   `seed=7;panic@start:p=0.4`; see [`wmn_runtime::fault`]. Off by
//!   default.
//! * `--resume <dir>` — resume an interrupted run from `<dir>`'s
//!   `checkpoint.jsonl`, skipping completed cells; implies `--out <dir>`
//!   (combining with `--out` or `--telemetry` is an error — skipped
//!   cells' telemetry counters cannot be reconstructed).
//! * `--out <dir>` — output directory (default `results`).

use crate::error::ExperimentError;
use crate::scenario::{ExperimentConfig, ScenarioScale};
use std::path::PathBuf;
use std::process::ExitCode;
use wmn_graph::topology::ConnectivityMode;
use wmn_runtime::FaultPlan;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Scale + seeding.
    pub config: ExperimentConfig,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Telemetry output directory (`None` = telemetry disabled, the
    /// zero-overhead default).
    pub telemetry: Option<PathBuf>,
    /// Whether this run resumes from `out_dir`'s `checkpoint.jsonl`
    /// (`--resume`); completed cells recorded there are skipped.
    pub resume: bool,
}

const USAGE: &str = "usage: [--quick] [--seed <n>] [--instance-seed <n>] [--threads <n>] \
[--ga-threads <n>] [--scale <n>] [--scale-routers <n>] [--scale-clients <n>] \
[--scale-area <x>] [--ns-budget <n>] [--connectivity dynamic|full] \
[--retries <n>] [--fault-plan <spec>] [--telemetry <dir>] [--resume <dir>] [--out <dir>]";

/// Parses a connectivity-mode name.
fn connectivity_mode(value: &str) -> Result<ConnectivityMode, String> {
    match value.to_ascii_lowercase().as_str() {
        "dynamic" => Ok(ConnectivityMode::Dynamic),
        "full" | "full-rebuild" | "rebuild" => Ok(ConnectivityMode::FullRebuild),
        other => Err(format!(
            "unknown connectivity mode {other:?} (dynamic|full)"
        )),
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// Rejects a value that is not above zero, naming the flag `name`.
fn positive<T: PartialOrd + Default + std::fmt::Display>(name: &str, v: T) -> Result<T, String> {
    if v > T::default() {
        Ok(v)
    } else {
        Err(format!("{name} must be positive (got {v})"))
    }
}

/// Checks an area multiplier: positive and finite.
fn area_multiplier(name: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() {
        positive(name, x)
    } else {
        Err(format!("{name} must be finite (got {x})"))
    }
}

/// Parses options from an argument iterator (excluding the program name)
/// over the paper defaults.
///
/// # Errors
///
/// Returns a usage message on unknown flags, malformed numbers, a zero
/// `--ns-budget` or scale multiplier, or an area multiplier that is not
/// positive and finite.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    let mut config = ExperimentConfig::paper();
    let mut quick = false;
    let mut ns_budget = None;
    let mut out_dir = PathBuf::from("results");
    let mut out_flag = false;
    let mut telemetry = None;
    let mut resume = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => config.run_seed = parse_num("--seed", it.next())?,
            "--instance-seed" => config.instance_seed = parse_num("--instance-seed", it.next())?,
            "--threads" => config.runner_threads = parse_num("--threads", it.next())?,
            "--ga-threads" => {
                config.threads = parse_num::<usize>("--ga-threads", it.next())?.max(1);
            }
            "--scale" => {
                let n = positive("--scale", parse_num::<u32>("--scale", it.next())?)?;
                config.scale = ScenarioScale::proportional(n);
            }
            "--scale-routers" => {
                config.scale.routers =
                    positive("--scale-routers", parse_num("--scale-routers", it.next())?)?;
            }
            "--scale-clients" => {
                config.scale.clients =
                    positive("--scale-clients", parse_num("--scale-clients", it.next())?)?;
            }
            "--scale-area" => {
                config.scale.area =
                    area_multiplier("--scale-area", parse_num("--scale-area", it.next())?)?;
            }
            "--ns-budget" => {
                ns_budget = Some(positive(
                    "--ns-budget",
                    parse_num("--ns-budget", it.next())?,
                )?);
            }
            "--connectivity" => {
                let v = it.next().ok_or("--connectivity needs a value")?;
                config.connectivity =
                    connectivity_mode(&v).map_err(|e| format!("bad --connectivity value: {e}"))?;
            }
            "--retries" => config.retries = parse_num("--retries", it.next())?,
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan needs a value")?;
                let plan =
                    FaultPlan::parse(&v).map_err(|e| format!("bad --fault-plan value: {e}"))?;
                config.fault_plan = Some(plan);
            }
            "--telemetry" => {
                telemetry = Some(PathBuf::from(it.next().ok_or("--telemetry needs a value")?));
            }
            "--resume" => {
                out_dir = PathBuf::from(it.next().ok_or("--resume needs a value")?);
                resume = true;
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().ok_or("--out needs a value")?);
                out_flag = true;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if quick {
        config = config.quickened();
    }
    if let Some(budget) = ns_budget {
        config.ns_budget = budget;
    }
    if resume && out_flag {
        return Err("--resume implies the output directory; drop --out".to_owned());
    }
    if resume && telemetry.is_some() {
        return Err(
            "--resume cannot be combined with --telemetry (skipped cells' counters \
             cannot be reconstructed)"
                .to_owned(),
        );
    }
    Ok(CliOptions {
        config,
        out_dir,
        telemetry,
        resume,
    })
}

/// Parses the process arguments, exiting with a message on error.
pub fn parse_env() -> CliOptions {
    match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The binaries' shared entry point: parse the arguments, run
/// `body`, and report any failure (with its offending path, for I/O) on
/// stderr instead of panicking.
pub fn run(body: impl FnOnce(&CliOptions) -> Result<(), ExperimentError>) -> ExitCode {
    let opts = parse_env();
    match body(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_vec(args: &[&str]) -> Result<CliOptions, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let opts = parse_vec(&[]).unwrap();
        assert_eq!(opts.config, ExperimentConfig::paper());
        assert_eq!(opts.out_dir, PathBuf::from("results"));
        assert_eq!(opts.telemetry, None);
        assert!(!opts.resume);
    }

    #[test]
    fn robustness_flags() {
        use wmn_runtime::{FaultKind, FaultSite};
        let opts =
            parse_vec(&["--retries", "3", "--fault-plan", "seed=7;error@start:p=1"]).unwrap();
        assert_eq!(opts.config.retries, 3);
        let plan = opts.config.fault_plan.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.decide(FaultSite::JobStart, 0, 0),
            Some(FaultKind::Error)
        );
        assert!(parse_vec(&["--retries", "some"]).is_err());
        assert!(parse_vec(&["--fault-plan", "panic@nowhere:p=1"]).is_err());
        assert!(parse_vec(&["--fault-plan"]).is_err());
    }

    #[test]
    fn resume_implies_out_and_rejects_conflicts() {
        let opts = parse_vec(&["--resume", "/tmp/run"]).unwrap();
        assert!(opts.resume);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/run"));
        assert!(parse_vec(&["--resume", "/tmp/run", "--out", "/tmp/x"]).is_err());
        assert!(parse_vec(&["--out", "/tmp/x", "--resume", "/tmp/run"]).is_err());
        assert!(parse_vec(&["--resume", "/tmp/run", "--telemetry", "/tmp/t"]).is_err());
        assert!(parse_vec(&["--resume"]).is_err());
    }

    #[test]
    fn connectivity_and_telemetry_flags() {
        let opts = parse_vec(&["--connectivity", "full", "--telemetry", "/tmp/t"]).unwrap();
        assert_eq!(opts.config.connectivity, ConnectivityMode::FullRebuild);
        assert_eq!(opts.telemetry, Some(PathBuf::from("/tmp/t")));
        let opts = parse_vec(&["--connectivity", "dynamic"]).unwrap();
        assert_eq!(opts.config.connectivity, ConnectivityMode::Dynamic);
        // Canonical display names parse back too.
        let opts = parse_vec(&["--connectivity", "full-rebuild"]).unwrap();
        assert_eq!(opts.config.connectivity, ConnectivityMode::FullRebuild);
        assert!(parse_vec(&["--connectivity", "bogus"]).is_err());
        assert!(parse_vec(&["--connectivity"]).is_err());
        assert!(parse_vec(&["--telemetry"]).is_err());
    }

    #[test]
    fn removed_rescan_mode_is_an_error_naming_the_accepted_values() {
        for removed in ["rescan", "dsu-rescan", "dsu"] {
            let err = parse_vec(&["--connectivity", removed]).unwrap_err();
            assert!(
                err.contains(&format!("{removed:?} (dynamic|full)")),
                "{err}"
            );
        }
    }

    #[test]
    fn quick_preserves_seeds() {
        let opts = parse_vec(&["--seed", "7", "--quick"]).unwrap();
        assert_eq!(
            opts.config.generations,
            ExperimentConfig::quick().generations
        );
        assert_eq!(opts.config.run_seed, 7);
    }

    #[test]
    fn quick_never_overrides_an_explicit_ns_budget() {
        let mut expected = ExperimentConfig::paper().quickened();
        expected.ns_budget = 3;
        for args in [
            ["--ns-budget", "3", "--quick"],
            ["--quick", "--ns-budget", "3"],
        ] {
            assert_eq!(parse_vec(&args).unwrap().config, expected, "{args:?}");
        }
    }

    #[test]
    fn quick_preserves_threads_and_scale() {
        let opts = parse_vec(&["--threads", "2", "--scale", "4", "--quick"]).unwrap();
        assert_eq!(opts.config.runner_threads, 2);
        assert_eq!(opts.config.scale, ScenarioScale::proportional(4));
        assert_eq!(
            opts.config.generations,
            ExperimentConfig::quick().generations
        );
    }

    #[test]
    fn seed_and_out() {
        let opts = parse_vec(&["--seed", "9", "--instance-seed", "11", "--out", "/tmp/x"]).unwrap();
        assert_eq!(opts.config.run_seed, 9);
        assert_eq!(opts.config.instance_seed, 11);
        assert_eq!(opts.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn thread_flags() {
        let opts = parse_vec(&["--threads", "8", "--ga-threads", "2"]).unwrap();
        assert_eq!(opts.config.runner_threads, 8);
        assert_eq!(opts.config.threads, 2);
        // 0 GA threads clamps to 1 (serial); 0 runner threads means "auto".
        let opts = parse_vec(&["--threads", "0", "--ga-threads", "0"]).unwrap();
        assert_eq!(opts.config.runner_threads, 0);
        assert_eq!(opts.config.threads, 1);
    }

    #[test]
    fn ns_budget_must_be_positive() {
        assert_eq!(
            parse_vec(&["--ns-budget", "3"]).unwrap().config.ns_budget,
            3
        );
        let err = parse_vec(&["--ns-budget", "0"]).unwrap_err();
        assert!(err.contains("--ns-budget"), "{err}");
        assert!(parse_vec(&["--ns-budget", "-1"]).is_err());
        assert!(parse_vec(&["--ns-budget"]).is_err());
    }

    #[test]
    fn scale_flags() {
        let opts = parse_vec(&["--scale-routers", "2", "--scale-clients", "3"]).unwrap();
        assert_eq!(opts.config.scale.routers, 2);
        assert_eq!(opts.config.scale.clients, 3);
        assert_eq!(opts.config.scale.area, 1.0);
        let opts = parse_vec(&["--scale", "4", "--scale-area", "1.5"]).unwrap();
        assert_eq!(opts.config.scale.routers, 4);
        assert!((opts.config.scale.area - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scale_multipliers_must_be_positive_and_finite() {
        for (flag, value) in [
            ("--scale", "0"),
            ("--scale-routers", "0"),
            ("--scale-clients", "0"),
            ("--scale-area", "0"),
            ("--scale-area", "-1"),
            ("--scale-area", "nan"),
            ("--scale-area", "inf"),
            ("--scale-area", "-inf"),
        ] {
            let err = parse_vec(&[flag, value]).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} must be")),
                "{flag} {value}: {err}"
            );
        }
        // The smallest valid values still parse.
        let opts = parse_vec(&["--scale", "1", "--scale-area", "0.5"]).unwrap();
        assert_eq!(opts.config.scale.routers, 1);
        assert_eq!(opts.config.scale.area, 0.5);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse_vec(&["--frob"]).is_err());
        assert!(parse_vec(&["--seed", "abc"]).is_err());
        assert!(parse_vec(&["--seed"]).is_err());
        assert!(parse_vec(&["--threads", "many"]).is_err());
        assert!(parse_vec(&["--scale-area", "wide"]).is_err());
        // Past u32::MAX is refused, not truncated.
        assert!(parse_vec(&["--scale-routers", "4294967296"]).is_err());
        assert!(parse_vec(&["--scale", "4294967296"]).is_err());
        assert!(parse_vec(&["--help"]).is_err());
    }
}
