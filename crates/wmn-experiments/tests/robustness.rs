//! The robustness acceptance contract: a fixed seed plus any
//! within-retry-budget fault plan leaves every artifact byte-identical to
//! the fault-free run (at 1 and 2 threads); an exhausted budget fails
//! loudly naming the cell; and a run interrupted at any cell boundary and
//! resumed from its checkpoint produces a byte-identical output directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use wmn_experiments::artifact::{self, PAPER};
use wmn_experiments::cli::CliOptions;
use wmn_experiments::figures::{run_ga_figure, run_ns_figure};
use wmn_experiments::json;
use wmn_experiments::scenario::{ExperimentConfig, Scenario};
use wmn_experiments::tables::run_ga_grid;
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
    for scenario in [Scenario::Normal, Scenario::Exponential, Scenario::Weibull] {
        let reference = run_ga_grid(scenario, &clean_config(1), None).unwrap();
        for threads in [1, 2] {
            let faulty = run_ga_grid(scenario, &chaos_config(threads), None).unwrap();
            assert_eq!(faulty, reference, "{scenario} with {threads} threads");
            assert_eq!(faulty.table.to_csv(), reference.table.to_csv());
            assert_eq!(faulty.table.to_markdown(), reference.table.to_markdown());
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
    let message = run_ga_grid(Scenario::Normal, &config, None)
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

/// Runs a binary with `args`, then `out_flag` (`--out` or `--resume`)
/// and `dir`.
fn run_bin(exe: &str, args: &[&str], out_flag: &str, dir: &Path) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .arg(out_flag)
        .arg(dir)
        .output()
        .expect("binary spawns")
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
fn injected_panics_print_no_panic_report() {
    // Injected faults unwind without the panic hook, so the run's stderr
    // holds the chaos summary and no `panicked at` report.
    let table1 = env!("CARGO_BIN_EXE_table1");
    let dir = fresh_dir("wmn-robustness-quiet-faults");
    let out = run_bin(
        table1,
        &[
            "--quick",
            "--threads",
            "2",
            "--retries",
            "3",
            "--fault-plan",
            WITHIN_BUDGET_PLAN,
        ],
        "--out",
        &dir,
    );
    assert_success(&out, "chaos table1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chaos[ga-normal]"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let _ = fs::remove_dir_all(&dir);
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

// --- in-process: resume from every cell boundary ---

/// Options for an in-process `run_all` over `dir`, at an effort small
/// enough to run the whole paper over twenty times.
fn tiny_run_all(dir: &Path, resume: bool) -> CliOptions {
    let mut config = ExperimentConfig::quick();
    config.population = 6;
    config.generations = 4;
    config.ns_phases = 4;
    config.ns_budget = 3;
    config.runner_threads = 1;
    CliOptions {
        config,
        out_dir: dir.to_owned(),
        telemetry: None,
        resume,
    }
}

/// The `files` a checkpoint line lists.
fn checkpoint_files(line: &str) -> Vec<String> {
    json::parse(line)
        .unwrap()
        .get("files")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|f| f.as_str().unwrap().to_owned())
        .collect()
}

/// Builds every state a run can be stopped in between two writes of
/// different cells: the first `k` checkpoint lines plus the files they
/// list (k = 0..=7), and the same plus cell k+1's files without its line
/// (k = 0..=6). It adds the states where a cell's file went missing after
/// its line was written: the first `k` lines and their files, less cell
/// k's first file (k = 1..=7). Resuming each must reproduce the clean
/// directory, `checkpoint.jsonl` and `summary.*` included.
#[test]
fn resume_from_every_cell_boundary_matches_a_clean_run() {
    let scratch = fresh_dir(&format!("wmn-robustness-boundaries-{}", std::process::id()));
    let clean = scratch.join("clean");
    artifact::run("run_all", &PAPER, &tiny_run_all(&clean, false)).unwrap();
    let checkpoint = fs::read_to_string(clean.join("checkpoint.jsonl")).unwrap();
    let lines: Vec<&str> = checkpoint.lines().collect();
    assert_eq!(lines.len(), PAPER.len());

    let mut states = 0;
    for k in 0..=lines.len() {
        for variant in ["boundary", "next-files", "missing-file"] {
            let mut files: Vec<String> = lines[..k]
                .iter()
                .flat_map(|l| checkpoint_files(l))
                .collect();
            match variant {
                "boundary" => {}
                "next-files" if k < lines.len() => files.extend(checkpoint_files(lines[k])),
                "missing-file" if k > 0 => {
                    let gone = checkpoint_files(lines[k - 1]).remove(0);
                    files.retain(|name| *name != gone);
                }
                _ => continue,
            }
            let dir = scratch.join(format!("k{k}-{variant}"));
            fs::create_dir_all(&dir).unwrap();
            for name in &files {
                fs::copy(clean.join(name), dir.join(name)).unwrap();
            }
            if k > 0 {
                let head: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
                fs::write(dir.join("checkpoint.jsonl"), head).unwrap();
            }
            artifact::run("run_all", &PAPER, &tiny_run_all(&dir, true)).unwrap();
            assert_dirs_identical(&dir, &clean);
            states += 1;
        }
    }
    assert_eq!(states, 22);
    let _ = fs::remove_dir_all(&scratch);
}
