//! Checkpoint/resume for long experiment runs (`--resume <dir>`).
//!
//! The artifact driver ([`crate::artifact::run`]) appends one line to
//! `<out>/checkpoint.jsonl` after each completed cell (a table or figure),
//! rewriting the whole file atomically (write `*.tmp`, fsync, rename — see
//! [`crate::error::write_file`]) so an interrupted run can never leave a
//! torn checkpoint. A later `--resume <dir>` run loads the file, skips
//! every recorded cell, and re-runs only the rest; because all cell
//! outputs are pure functions of `(config, seed)` and artifact writes are
//! themselves atomic, the resumed run's output directory is
//! **byte-identical** to an uninterrupted run's.
//!
//! Each line is one JSON object:
//!
//! ```json
//! {"schema":"wmn-checkpoint/v1","fingerprint":"<hex>","cell":"table1",
//!  "files":["table1.md","table1.csv"],"table":{...}}
//! ```
//!
//! * `fingerprint` — FNV-1a-64 of the determinism-relevant configuration
//!   (the same block `telemetry.json` embeds, which deliberately excludes
//!   thread knobs). Resuming with a different seed/scale/config is refused
//!   rather than silently mixing incompatible artifacts; resuming with a
//!   different thread count is fine, because outputs are thread-invariant.
//! * `files` — the artifact files the cell wrote, relative to the
//!   directory, in write order (informational; each was written
//!   atomically).
//! * `table` — table cells carry their [`TableResult`] payload so a
//!   resumed `run_all` can rebuild `summary.csv` without re-running the
//!   skipped tables. Figure cells omit it.

use crate::error::{write_file, ExperimentError};
use crate::json::{self, JsonValue};
use crate::scenario::{ExperimentConfig, Scenario};
use crate::tables::{TableResult, TableRow};
use crate::telemetry::config_json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use wmn_placement::registry::AdHocMethod;

/// Identifier (and version) of the checkpoint line shape.
pub const SCHEMA: &str = "wmn-checkpoint/v1";

/// FNV-1a 64-bit over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The configuration fingerprint stored in (and checked against) every
/// checkpoint line: FNV-1a-64 of the determinism-relevant config block,
/// as 16 hex digits. Thread knobs are excluded (outputs are
/// thread-invariant), so interrupting at `--threads 8` and resuming at
/// `--threads 1` is valid.
pub fn fingerprint(config: &ExperimentConfig) -> String {
    format!("{:016x}", fnv1a64(config_json(config).as_bytes()))
}

/// One completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellDone {
    /// The cell's stable name (`table1`, `fig3`, …).
    pub cell: String,
    /// Artifact files the cell wrote, relative to the output directory.
    pub files: Vec<String>,
    /// The table payload, for table cells (lets resume rebuild the
    /// cross-table summary without re-running).
    pub table: Option<TableResult>,
}

/// The checkpoint state of one output directory.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    fingerprint: String,
    entries: Vec<CellDone>,
}

impl Checkpoint {
    /// The checkpoint file inside `dir`.
    pub fn file(dir: &Path) -> PathBuf {
        dir.join("checkpoint.jsonl")
    }

    /// The artifact driver's entry point: [`load`](Self::load) when `--resume`
    /// was given, else a fresh [`start`](Self::start). Every run keeps a
    /// checkpoint — a non-resumed run's file is what a later `--resume`
    /// picks up, and its content is deterministic, so output directories
    /// stay byte-comparable across clean/faulty/resumed runs.
    ///
    /// # Errors
    ///
    /// See [`load`](Self::load).
    pub fn open(opts: &crate::cli::CliOptions) -> Result<Self, ExperimentError> {
        if opts.resume {
            Self::load(&opts.out_dir, &opts.config)
        } else {
            Ok(Self::start(&opts.out_dir, &opts.config))
        }
    }

    /// A fresh checkpoint for a non-resumed run (any existing file is
    /// ignored and will be overwritten by the first [`record`](Self::record)).
    pub fn start(dir: &Path, config: &ExperimentConfig) -> Self {
        Checkpoint {
            path: Self::file(dir),
            fingerprint: fingerprint(config),
            entries: Vec::new(),
        }
    }

    /// Loads `dir`'s checkpoint for a `--resume` run. A missing file
    /// yields an empty checkpoint (everything re-runs); a present file
    /// must parse and carry this config's fingerprint on every line.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Checkpoint`] on a malformed file or a
    /// fingerprint mismatch (the directory was produced by a different
    /// configuration).
    pub fn load(dir: &Path, config: &ExperimentConfig) -> Result<Self, ExperimentError> {
        let path = Self::file(dir);
        let expected = fingerprint(config);
        let mut entries = Vec::new();
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Checkpoint {
                    path,
                    fingerprint: expected,
                    entries,
                });
            }
            Err(e) => {
                return Err(ExperimentError::Checkpoint {
                    path,
                    detail: format!("cannot read checkpoint: {e}"),
                });
            }
        };
        let bad = |detail: String| ExperimentError::Checkpoint {
            path: path.clone(),
            detail,
        };
        for (lineno, line) in contents.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|e| bad(format!("line {}: {e}", lineno + 1)))?;
            let entry = parse_entry(&value, &expected)
                .map_err(|detail| bad(format!("line {}: {detail}", lineno + 1)))?;
            entries.push(entry);
        }
        Ok(Checkpoint {
            path,
            fingerprint: expected,
            entries,
        })
    }

    /// The line recording `cell` as complete, if any.
    pub fn get(&self, cell: &str) -> Option<&CellDone> {
        self.entries.iter().find(|e| e.cell == cell)
    }

    /// Records a completed cell and atomically rewrites the checkpoint
    /// file. Re-recording an already-present cell (a resumed run
    /// re-confirming a skipped cell) is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates the atomic file write, naming the checkpoint path.
    pub fn record(&mut self, entry: CellDone) -> Result<(), ExperimentError> {
        if self.get(&entry.cell).is_none() {
            self.entries.push(entry);
        }
        write_file(&self.path, &self.render())
    }

    /// Renders the full checkpoint document (one line per entry).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            render_entry(&mut out, &self.fingerprint, entry);
            out.push('\n');
        }
        out
    }
}

fn render_entry(out: &mut String, fingerprint: &str, entry: &CellDone) {
    write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"fingerprint\":\"{fingerprint}\",\"cell\":\"{}\",\"files\":[",
        json::escape(&entry.cell)
    )
    .expect("writing to a String cannot fail");
    for (i, file) in entry.files.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{}\"", json::escape(file)).expect("writing to a String cannot fail");
    }
    out.push(']');
    if let Some(table) = &entry.table {
        out.push_str(",\"table\":");
        render_table(out, table);
    }
    out.push('}');
}

fn render_table(out: &mut String, table: &TableResult) {
    write!(
        out,
        "{{\"scenario\":\"{}\",\"router_count\":{},\"client_count\":{},\"rows\":[",
        table.scenario.name(),
        table.router_count,
        table.client_count
    )
    .expect("writing to a String cannot fail");
    for (i, row) in table.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"method\":\"{}\",\"giant_by_ga\":{},\"coverage_by_ga\":{},\
             \"giant_standalone\":{},\"coverage_standalone\":{}}}",
            row.method.name(),
            row.giant_by_ga,
            row.coverage_by_ga,
            row.giant_standalone,
            row.coverage_standalone
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}");
}

fn field<'v>(value: &'v JsonValue, key: &str) -> Result<&'v JsonValue, String> {
    value.get(key).ok_or_else(|| format!("missing {key:?}"))
}

fn str_field(value: &JsonValue, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn count_field(value: &JsonValue, key: &str) -> Result<usize, String> {
    field(value, key)?
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("{key:?} is not a count"))
}

fn parse_entry(value: &JsonValue, expected_fingerprint: &str) -> Result<CellDone, String> {
    let schema = str_field(value, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema {schema:?} (expected {SCHEMA:?})"
        ));
    }
    let fp = str_field(value, "fingerprint")?;
    if fp != expected_fingerprint {
        return Err(format!(
            "configuration fingerprint {fp} does not match this run's {expected_fingerprint} \
             (the directory was produced by a different seed/scale/config)"
        ));
    }
    let cell = str_field(value, "cell")?;
    let files = field(value, "files")?
        .as_array()
        .ok_or("\"files\" is not an array")?
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "file entry is not a string".to_owned())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let table = match value.get("table") {
        None => None,
        Some(t) => Some(parse_table(t)?),
    };
    Ok(CellDone { cell, files, table })
}

fn parse_table(value: &JsonValue) -> Result<TableResult, String> {
    let scenario: Scenario = str_field(value, "scenario")?.parse()?;
    let router_count = count_field(value, "router_count")?;
    let client_count = count_field(value, "client_count")?;
    let rows = field(value, "rows")?
        .as_array()
        .ok_or("\"rows\" is not an array")?
        .iter()
        .map(parse_row)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TableResult {
        scenario,
        router_count,
        client_count,
        rows,
    })
}

fn parse_row(value: &JsonValue) -> Result<TableRow, String> {
    let name = str_field(value, "method")?;
    let method = AdHocMethod::all()
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| format!("unknown ad hoc method {name:?}"))?;
    Ok(TableRow {
        method,
        giant_by_ga: count_field(value, "giant_by_ga")?,
        coverage_by_ga: count_field(value, "coverage_by_ga")?,
        giant_standalone: count_field(value, "giant_standalone")?,
        coverage_standalone: count_field(value, "coverage_standalone")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::run_ga_grid;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wmn-checkpoint-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fingerprint_tracks_config_but_not_threads() {
        let mut a = ExperimentConfig::quick();
        let mut b = a;
        b.runner_threads = 8;
        b.threads = 2;
        assert_eq!(fingerprint(&a), fingerprint(&b), "thread-invariant");
        a.run_seed = 7;
        assert_ne!(fingerprint(&a), fingerprint(&b), "seed-sensitive");
    }

    #[test]
    fn fingerprint_covers_every_output_relevant_field() {
        use crate::scenario::ScenarioScale;
        use wmn_graph::topology::ConnectivityMode;

        let base = ExperimentConfig::quick();
        // No `..` in either pattern: a new field fails to compile here
        // until it is sorted into one of the two lists below.
        let ExperimentConfig {
            instance_seed,
            run_seed,
            population,
            generations,
            threads,
            runner_threads,
            scale,
            ns_phases,
            ns_budget,
            sample_every,
            connectivity,
            retries,
            fault_plan,
        } = base;
        let ScenarioScale {
            routers,
            clients,
            area,
        } = scale;
        let other_connectivity = if connectivity == ConnectivityMode::Dynamic {
            ConnectivityMode::FullRebuild
        } else {
            ConnectivityMode::Dynamic
        };
        let fp = fingerprint(&base);

        let output_relevant = [
            (
                "instance_seed",
                ExperimentConfig {
                    instance_seed: instance_seed + 1,
                    ..base
                },
            ),
            (
                "run_seed",
                ExperimentConfig {
                    run_seed: run_seed + 1,
                    ..base
                },
            ),
            (
                "population",
                ExperimentConfig {
                    population: population + 1,
                    ..base
                },
            ),
            (
                "generations",
                ExperimentConfig {
                    generations: generations + 1,
                    ..base
                },
            ),
            (
                "ns_phases",
                ExperimentConfig {
                    ns_phases: ns_phases + 1,
                    ..base
                },
            ),
            (
                "ns_budget",
                ExperimentConfig {
                    ns_budget: ns_budget + 1,
                    ..base
                },
            ),
            (
                "sample_every",
                ExperimentConfig {
                    sample_every: sample_every + 1,
                    ..base
                },
            ),
            (
                "scale.routers",
                ExperimentConfig {
                    scale: ScenarioScale {
                        routers: routers + 1,
                        ..scale
                    },
                    ..base
                },
            ),
            (
                "scale.clients",
                ExperimentConfig {
                    scale: ScenarioScale {
                        clients: clients + 1,
                        ..scale
                    },
                    ..base
                },
            ),
            (
                "scale.area",
                ExperimentConfig {
                    scale: ScenarioScale {
                        area: area * 1.5,
                        ..scale
                    },
                    ..base
                },
            ),
            (
                "connectivity",
                ExperimentConfig {
                    connectivity: other_connectivity,
                    ..base
                },
            ),
        ];
        for (field, changed) in output_relevant {
            assert_ne!(
                fingerprint(&changed),
                fp,
                "{field} must change the fingerprint"
            );
        }

        let plan = wmn_runtime::FaultPlan::parse("seed=7;panic@start:p=0.4").unwrap();
        assert_ne!(fault_plan, Some(plan));
        let output_invariant = [
            (
                "threads",
                ExperimentConfig {
                    threads: threads + 3,
                    ..base
                },
            ),
            (
                "runner_threads",
                ExperimentConfig {
                    runner_threads: runner_threads + 5,
                    ..base
                },
            ),
            (
                "retries",
                ExperimentConfig {
                    retries: retries + 2,
                    ..base
                },
            ),
            (
                "fault_plan",
                ExperimentConfig {
                    fault_plan: Some(plan),
                    ..base
                },
            ),
        ];
        for (field, changed) in output_invariant {
            assert_eq!(
                fingerprint(&changed),
                fp,
                "{field} must not change the fingerprint"
            );
        }
    }

    #[test]
    fn record_then_load_roundtrips_table_payloads() {
        let dir = tmpdir("roundtrip");
        let config = ExperimentConfig::quick();
        let table = run_ga_grid(Scenario::Normal, &config, None).unwrap().table;

        let mut cp = Checkpoint::start(&dir, &config);
        cp.record(CellDone {
            cell: "table1".to_owned(),
            files: vec!["table1.md".to_owned(), "table1.csv".to_owned()],
            table: Some(table.clone()),
        })
        .unwrap();
        cp.record(CellDone {
            cell: "fig1".to_owned(),
            files: vec!["fig1.csv".to_owned()],
            table: None,
        })
        .unwrap();

        let loaded = Checkpoint::load(&dir, &config).unwrap();
        assert_eq!(loaded.get("table1").unwrap().table, Some(table));
        assert_eq!(loaded.get("fig1").unwrap().files, ["fig1.csv"]);
        assert_eq!(loaded.get("fig1").unwrap().table, None);
        assert!(loaded.get("fig4").is_none());
        // Rendering the loaded state reproduces the file byte-for-byte.
        assert_eq!(
            loaded.render(),
            std::fs::read_to_string(Checkpoint::file(&dir)).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let dir = tmpdir("missing");
        let cp = Checkpoint::load(&dir, &ExperimentConfig::quick()).unwrap();
        assert!(cp.get("table1").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmpdir("mismatch");
        let config = ExperimentConfig::quick();
        let mut cp = Checkpoint::start(&dir, &config);
        cp.record(CellDone {
            cell: "fig1".to_owned(),
            files: vec![],
            table: None,
        })
        .unwrap();
        let mut other = config;
        other.run_seed = 99;
        let err = Checkpoint::load(&dir, &other).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("fingerprint"), "{msg}");
        assert!(msg.contains("checkpoint.jsonl"), "{msg}");
        // Same config at a different thread count loads fine.
        let mut threaded = config;
        threaded.runner_threads = 7;
        assert!(Checkpoint::load(&dir, &threaded)
            .unwrap()
            .get("fig1")
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_refused_with_line_numbers() {
        let dir = tmpdir("malformed");
        let config = ExperimentConfig::quick();
        std::fs::write(Checkpoint::file(&dir), "{\"schema\":\"bogus/v9\"}\n").unwrap();
        let err = Checkpoint::load(&dir, &config).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::write(Checkpoint::file(&dir), "not json\n").unwrap();
        assert!(Checkpoint::load(&dir, &config).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_line_is_refused_not_a_crash() {
        let dir = tmpdir("deep");
        std::fs::write(Checkpoint::file(&dir), "[".repeat(200_000)).unwrap();
        let err = Checkpoint::load(&dir, &ExperimentConfig::quick()).unwrap_err();
        assert!(matches!(err, ExperimentError::Checkpoint { .. }), "{err:?}");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert!(err.to_string().contains("nesting"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerecording_a_cell_is_idempotent() {
        let dir = tmpdir("idempotent");
        let config = ExperimentConfig::quick();
        let mut cp = Checkpoint::start(&dir, &config);
        let entry = CellDone {
            cell: "fig2".to_owned(),
            files: vec!["fig2.csv".to_owned()],
            table: None,
        };
        cp.record(entry.clone()).unwrap();
        let once = cp.render();
        cp.record(entry).unwrap();
        assert_eq!(cp.render(), once);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
