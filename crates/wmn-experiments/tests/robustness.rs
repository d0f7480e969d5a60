//! The robustness acceptance contract: a fixed seed plus any
//! within-retry-budget fault plan leaves every artifact byte-identical to
//! the fault-free run (at 1 and 2 threads); an exhausted budget fails
//! loudly naming the cell; and an interrupted run resumed from its
//! checkpoint produces a byte-identical output directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use wmn_experiments::figures::{run_ga_figure, run_ns_figure};
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_experiments::tables::run_table;
use wmn_runtime::FaultPlan;

/// One rule per site: panics at job start on attempt 0, errors at job
/// finish on attempts 0–1. The worst-case job is doomed on attempts 0
/// and 1 and clean on attempt 2, so `retries = 3` always stays within
/// budget.
const WITHIN_BUDGET_PLAN: &str = "seed=7;panic@start:p=0.4;error@finish:p=0.4,n=2";

fn clean_config(threads: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.runner_threads = threads;
    config
}

fn chaos_config(threads: usize) -> ExperimentConfig {
    let mut config = clean_config(threads);
    config.retries = 3;
    config.fault_plan = Some(FaultPlan::parse(WITHIN_BUDGET_PLAN).unwrap());
    config
}

#[test]
fn faulty_tables_match_fault_free_at_1_and_2_threads() {
    for scenario in Scenario::paper_tables() {
        let reference = run_table(scenario, &clean_config(1)).unwrap();
        for threads in [1, 2] {
            let faulty = run_table(scenario, &chaos_config(threads)).unwrap();
            assert_eq!(faulty, reference, "{scenario} with {threads} threads");
            assert_eq!(faulty.to_csv(), reference.to_csv());
            assert_eq!(faulty.to_markdown(), reference.to_markdown());
        }
    }
}

#[test]
fn faulty_figures_match_fault_free_at_1_and_2_threads() {
    let ga_reference = run_ga_figure(Scenario::Normal, &clean_config(1)).unwrap();
    let ns_reference = run_ns_figure(&clean_config(1)).unwrap();
    for threads in [1, 2] {
        let ga = run_ga_figure(Scenario::Normal, &chaos_config(threads)).unwrap();
        assert_eq!(ga, ga_reference, "ga figure with {threads} threads");
        let ns = run_ns_figure(&chaos_config(threads)).unwrap();
        assert_eq!(ns, ns_reference, "ns figure with {threads} threads");
    }
}

#[test]
fn exhausted_retry_budget_fails_naming_the_cell_and_attempts() {
    // Every attempt of every job is doomed (n=9 > max_attempts): the run
    // must fail reporting the lowest-index cell and the attempt count.
    let mut config = clean_config(2);
    config.retries = 2;
    config.fault_plan = Some(FaultPlan::parse("error@start:p=1,n=9").unwrap());
    let message = run_table(Scenario::Normal, &config)
        .unwrap_err()
        .to_string();
    assert!(message.contains("ga-normal-"), "{message}");
    assert!(message.contains("failed after 2 attempts"), "{message}");
}

// --- binary-level acceptance: whole output directories, byte for byte ---

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs a binary with a scrubbed `WMN_*` environment so ambient
/// configuration cannot leak into the comparison.
fn run_bin(exe: &str, args: &[&str], out_flag: &str, dir: &Path) -> std::process::Output {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars() {
        if key.starts_with("WMN_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args).arg(out_flag).arg(dir);
    cmd.output().expect("binary spawns")
}

fn assert_success(out: &std::process::Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

fn assert_dirs_identical(actual: &Path, expected: &Path) {
    let actual_files = dir_files(actual);
    let expected_files = dir_files(expected);
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&actual_files), names(&expected_files));
    for ((name, actual_bytes), (_, expected_bytes)) in actual_files.iter().zip(&expected_files) {
        assert!(
            actual_bytes == expected_bytes,
            "{name} differs between {} and {}",
            actual.display(),
            expected.display()
        );
    }
}

#[test]
fn run_all_survives_faults_and_resume_with_byte_identical_output() {
    let run_all = env!("CARGO_BIN_EXE_run_all");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let clean = fresh_dir("wmn-robustness-clean");
    let chaos = fresh_dir("wmn-robustness-chaos");
    let resumed = fresh_dir("wmn-robustness-resumed");

    let out = run_bin(run_all, &["--quick", "--threads", "2"], "--out", &clean);
    assert_success(&out, "clean run_all");

    // Chaos run: within-budget faults at a different thread count must
    // still reproduce the clean directory byte for byte.
    let out = run_bin(
        run_all,
        &[
            "--quick",
            "--threads",
            "1",
            "--retries",
            "3",
            "--fault-plan",
            WITHIN_BUDGET_PLAN,
        ],
        "--out",
        &chaos,
    );
    assert_success(&out, "chaos run_all");
    assert_dirs_identical(&chaos, &clean);

    // Interrupted run: only table1 completed (its binary checkpoints the
    // cell), then run_all --resume finishes the rest.
    let out = run_bin(table1, &["--quick", "--threads", "2"], "--out", &resumed);
    assert_success(&out, "table1");
    let out = run_bin(
        run_all,
        &["--quick", "--threads", "2"],
        "--resume",
        &resumed,
    );
    assert_success(&out, "resumed run_all");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("table1 (normal): complete in checkpoint, skipped"),
        "{stdout}"
    );
    assert_dirs_identical(&resumed, &clean);

    for dir in [&clean, &chaos, &resumed] {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn run_all_with_exhausted_budget_exits_nonzero_naming_the_cell() {
    let run_all = env!("CARGO_BIN_EXE_run_all");
    let dir = fresh_dir("wmn-robustness-exhausted");
    let out = run_bin(
        run_all,
        &[
            "--quick",
            "--retries",
            "1",
            "--fault-plan",
            "error@start:p=1",
        ],
        "--out",
        &dir,
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ga-normal-"), "{stderr}");
    assert!(stderr.contains("failed after 1 attempt"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_a_mismatched_configuration() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let dir = fresh_dir("wmn-robustness-mismatch");
    let out = run_bin(table1, &["--quick"], "--out", &dir);
    assert_success(&out, "table1");
    // Resuming at full paper scale against a --quick checkpoint must be
    // refused: the fingerprints differ.
    let out = run_bin(table1, &[], "--resume", &dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
}
