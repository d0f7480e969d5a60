//! Tiny shared argument parsing and the binaries' common entry point.
//!
//! Flags (all optional; the thread and scale flags each override their
//! `WMN_*` env var — the other flags have no env counterpart):
//!
//! * `--quick` — reduced scale (`ExperimentConfig::quick()`).
//! * `--seed <n>` — algorithm run seed (default 42).
//! * `--instance-seed <n>` — instance generation seed (default 2009).
//! * `--threads <n>` — experiment-runtime workers (`WMN_THREADS`;
//!   default 0 = one per core). Results are identical for every value.
//! * `--ga-threads <n>` — evaluation threads inside one GA run
//!   (`WMN_GA_THREADS`; default 4).
//! * `--scale <n>` — proportional instance scale-up: `n`× routers and
//!   clients on `√n`× the area side (`WMN_SCALE`).
//! * `--scale-routers <n>` / `--scale-clients <n>` / `--scale-area <x>` —
//!   individual multipliers (`WMN_SCALE_ROUTERS` / `WMN_SCALE_CLIENTS` /
//!   `WMN_SCALE_AREA`).
//! * `--ns-budget <n>` — neighbors sampled per search phase.
//! * `--connectivity <mode>` — connectivity repair strategy
//!   (`WMN_CONNECTIVITY`): `dynamic` (default) or `full` (full-rebuild
//!   reference pipeline). Results are bit-identical in both modes; only
//!   the work counters differ.
//! * `--telemetry <dir>` — write structured run telemetry
//!   (`telemetry.json` + `spans.jsonl`) to `<dir>`; see
//!   [`crate::telemetry`].
//! * `--retries <n>` — per-cell attempt budget for the panic-isolated
//!   runner (`WMN_RETRIES`; default 1 = no retries). Retried cells
//!   re-derive the same seed, so outputs are byte-identical.
//! * `--fault-plan <spec>` — deterministic fault injection
//!   (`WMN_FAULT_PLAN`), e.g. `seed=7;panic@start:p=0.4`; see
//!   [`wmn_runtime::fault`]. Off by default.
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

/// Parses a connectivity-mode name (shared by the flag and env paths).
fn connectivity_mode(value: &str) -> Result<ConnectivityMode, String> {
    match value.to_ascii_lowercase().as_str() {
        "dynamic" => Ok(ConnectivityMode::Dynamic),
        "full" | "full-rebuild" | "rebuild" => Ok(ConnectivityMode::FullRebuild),
        other => Err(format!(
            "unknown connectivity mode {other:?} (dynamic|full)"
        )),
    }
}

/// Parses a fault-plan spec (shared by the flag and env paths).
fn fault_plan(value: &str) -> Result<wmn_runtime::FaultPlan, String> {
    wmn_runtime::FaultPlan::parse(value).map_err(|e| format!("bad fault plan: {e}"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

/// Parses options from an argument iterator (excluding the program name),
/// on top of `base` — so environment-derived defaults lose to explicit
/// flags.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed numbers.
pub fn parse_from<I: IntoIterator<Item = String>>(
    base: ExperimentConfig,
    args: I,
) -> Result<CliOptions, String> {
    let mut config = base;
    let mut out_dir = PathBuf::from("results");
    let mut out_flag = false;
    let mut telemetry = None;
    let mut resume = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => config = config.quickened(),
            "--seed" => config.run_seed = parse_num("--seed", it.next())?,
            "--instance-seed" => config.instance_seed = parse_num("--instance-seed", it.next())?,
            "--threads" => config.runner_threads = parse_num("--threads", it.next())?,
            "--ga-threads" => {
                config.threads = parse_num::<usize>("--ga-threads", it.next())?.max(1);
            }
            "--scale" => {
                config.scale =
                    ScenarioScale::proportional(parse_num::<u32>("--scale", it.next())?.max(1));
            }
            "--scale-routers" => config.scale.routers = parse_num("--scale-routers", it.next())?,
            "--scale-clients" => config.scale.clients = parse_num("--scale-clients", it.next())?,
            "--scale-area" => config.scale.area = parse_num("--scale-area", it.next())?,
            "--ns-budget" => config.ns_budget = parse_num("--ns-budget", it.next())?,
            "--connectivity" => {
                let v = it.next().ok_or("--connectivity needs a value")?;
                config.connectivity = connectivity_mode(&v)?;
            }
            "--retries" => config.retries = parse_num("--retries", it.next())?,
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan needs a value")?;
                config.fault_plan = Some(fault_plan(&v)?);
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

/// Parses options from an argument iterator over the paper defaults.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed numbers.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<CliOptions, String> {
    parse_from(ExperimentConfig::paper(), args)
}

/// Applies `WMN_*` environment overrides to the paper defaults. `lookup`
/// abstracts `std::env::var` for testability.
///
/// # Errors
///
/// Returns a message naming the malformed variable.
pub fn config_from_vars(
    lookup: impl Fn(&str) -> Option<String>,
) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig::paper();
    // Parse directly to each knob's type, so the env path rejects exactly
    // what the flag path rejects (no silent u64→u32 truncation).
    fn num<T: std::str::FromStr>(
        lookup: &impl Fn(&str) -> Option<String>,
        name: &str,
    ) -> Result<Option<T>, String> {
        lookup(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name} value {v:?}")))
            .transpose()
    }
    if let Some(n) = num::<usize>(&lookup, "WMN_THREADS")? {
        config.runner_threads = n;
    }
    if let Some(n) = num::<usize>(&lookup, "WMN_GA_THREADS")? {
        config.threads = n.max(1);
    }
    if let Some(n) = num::<u32>(&lookup, "WMN_SCALE")? {
        config.scale = ScenarioScale::proportional(n.max(1));
    }
    if let Some(n) = num::<u32>(&lookup, "WMN_SCALE_ROUTERS")? {
        config.scale.routers = n;
    }
    if let Some(n) = num::<u32>(&lookup, "WMN_SCALE_CLIENTS")? {
        config.scale.clients = n;
    }
    if let Some(x) = num::<f64>(&lookup, "WMN_SCALE_AREA")? {
        config.scale.area = x;
    }
    if let Some(v) = lookup("WMN_CONNECTIVITY") {
        config.connectivity =
            connectivity_mode(&v).map_err(|e| format!("bad WMN_CONNECTIVITY value: {e}"))?;
    }
    if let Some(n) = num::<u32>(&lookup, "WMN_RETRIES")? {
        config.retries = n;
    }
    if let Some(v) = lookup("WMN_FAULT_PLAN") {
        config.fault_plan =
            Some(fault_plan(&v).map_err(|e| format!("bad WMN_FAULT_PLAN value: {e}"))?);
    }
    Ok(config)
}

/// Parses the process environment and arguments, exiting with a message on
/// error.
pub fn parse_env() -> CliOptions {
    let from_env = config_from_vars(|name| std::env::var(name).ok());
    let parsed = from_env.and_then(|base| parse_from(base, std::env::args().skip(1)));
    match parsed {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The binaries' shared entry point: parse environment + arguments, run
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
    fn robustness_env_vars_apply_and_flags_win() {
        let lookup = |name: &str| match name {
            "WMN_RETRIES" => Some("5".to_owned()),
            "WMN_FAULT_PLAN" => Some("seed=1;panic@start:p=0.5".to_owned()),
            _ => None,
        };
        let base = config_from_vars(lookup).unwrap();
        assert_eq!(base.retries, 5);
        assert_eq!(base.fault_plan.unwrap().seed, 1);
        let opts = parse_from(base, ["--retries".to_owned(), "2".to_owned()]).unwrap();
        assert_eq!(opts.config.retries, 2);
        let lookup = |name: &str| (name == "WMN_FAULT_PLAN").then(|| "gibberish".to_owned());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_RETRIES").then(|| "often".to_owned());
        assert!(config_from_vars(lookup).is_err());
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
    fn connectivity_env_var_applies_and_flag_wins() {
        let lookup = |name: &str| (name == "WMN_CONNECTIVITY").then(|| "full".to_owned());
        let base = config_from_vars(lookup).unwrap();
        assert_eq!(base.connectivity, ConnectivityMode::FullRebuild);
        let opts = parse_from(base, ["--connectivity".to_owned(), "dynamic".to_owned()]).unwrap();
        assert_eq!(opts.config.connectivity, ConnectivityMode::Dynamic);
        let lookup = |name: &str| (name == "WMN_CONNECTIVITY").then(|| "bogus".to_owned());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn removed_rescan_mode_is_an_error_naming_the_accepted_values() {
        for removed in ["rescan", "dsu-rescan", "dsu"] {
            let err = parse_vec(&["--connectivity", removed]).unwrap_err();
            assert!(
                err.contains(&format!("{removed:?} (dynamic|full)")),
                "{err}"
            );
            let lookup = |name: &str| (name == "WMN_CONNECTIVITY").then(|| removed.to_owned());
            let err = config_from_vars(lookup).unwrap_err();
            assert!(err.starts_with("bad WMN_CONNECTIVITY value"), "{err}");
            assert!(err.contains("(dynamic|full)"), "{err}");
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
    fn rejects_unknown_and_malformed() {
        assert!(parse_vec(&["--frob"]).is_err());
        assert!(parse_vec(&["--seed", "abc"]).is_err());
        assert!(parse_vec(&["--seed"]).is_err());
        assert!(parse_vec(&["--threads", "many"]).is_err());
        assert!(parse_vec(&["--scale-area", "wide"]).is_err());
        assert!(parse_vec(&["--help"]).is_err());
    }

    #[test]
    fn env_vars_apply_and_flags_win() {
        let lookup = |name: &str| match name {
            "WMN_THREADS" => Some("2".to_owned()),
            "WMN_SCALE" => Some("4".to_owned()),
            _ => None,
        };
        let base = config_from_vars(lookup).unwrap();
        assert_eq!(base.runner_threads, 2);
        assert_eq!(base.scale, ScenarioScale::proportional(4));

        let opts = parse_from(base, ["--threads".to_owned(), "6".to_owned()]).unwrap();
        assert_eq!(opts.config.runner_threads, 6);
        assert_eq!(opts.config.scale, ScenarioScale::proportional(4));
    }

    #[test]
    fn bad_env_var_is_an_error() {
        let lookup = |name: &str| (name == "WMN_THREADS").then(|| "lots".to_owned());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_SCALE_AREA").then(|| "wide".to_owned());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn out_of_range_env_var_is_rejected_not_truncated() {
        // > u32::MAX must error exactly like the flag path, not wrap.
        let too_big = (u64::from(u32::MAX) + 2).to_string();
        let lookup = |name: &str| (name == "WMN_SCALE_ROUTERS").then(|| too_big.clone());
        assert!(config_from_vars(lookup).is_err());
        let lookup = |name: &str| (name == "WMN_SCALE").then(|| too_big.clone());
        assert!(config_from_vars(lookup).is_err());
    }

    #[test]
    fn no_env_vars_is_paper_default() {
        assert_eq!(
            config_from_vars(|_| None).unwrap(),
            ExperimentConfig::paper()
        );
    }
}
