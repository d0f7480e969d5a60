//! The experiment harness error type.
//!
//! Binaries used to `.expect()` every run and write, so a failed write
//! panicked with a generic message. [`ExperimentError`] carries the model
//! failure or the offending path, and every binary routes through a single
//! `Result`-returning entry point (see [`crate::cli::run`]).

use std::error::Error;
use std::fmt;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use wmn_model::ModelError;

/// Any failure an experiment run or report can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Instance generation or evaluation failed.
    Model(ModelError),
    /// A filesystem operation failed; the path names the culprit.
    Io {
        /// The file or directory being read or written.
        path: PathBuf,
        /// Whether the failed operation was a read (otherwise a write).
        read: bool,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// A grid cell kept failing until its retry budget ran out; the label
    /// names the cell (e.g. `ga-normal-HotSpot`) so a CI chaos run can
    /// assert *which* cell exhausted its budget.
    Cell {
        /// The failing grid cell's label.
        cell: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The final attempt's failure, rendered.
        detail: String,
    },
    /// A `checkpoint.jsonl` could not be read back for `--resume`.
    Checkpoint {
        /// The checkpoint file being read.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// `wmn-report` was invoked with bad arguments or fed a document it
    /// cannot analyze (the detail names the offending input).
    Report {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Model(e) => write!(f, "experiment run failed: {e}"),
            ExperimentError::Io { path, read, source } => {
                let verb = if *read { "read" } else { "write" };
                write!(f, "cannot {verb} {}: {source}", path.display())
            }
            ExperimentError::Cell {
                cell,
                attempts,
                detail,
            } => {
                let plural = if *attempts == 1 { "" } else { "s" };
                write!(
                    f,
                    "cell {cell} failed after {attempts} attempt{plural}: {detail}"
                )
            }
            ExperimentError::Checkpoint { path, detail } => {
                write!(f, "cannot resume from {}: {detail}", path.display())
            }
            ExperimentError::Report { detail } => write!(f, "{detail}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Model(e) => Some(e),
            ExperimentError::Io { source, .. } => Some(source),
            ExperimentError::Cell { .. }
            | ExperimentError::Checkpoint { .. }
            | ExperimentError::Report { .. } => None,
        }
    }
}

impl From<ModelError> for ExperimentError {
    fn from(e: ModelError) -> Self {
        ExperimentError::Model(e)
    }
}

impl ExperimentError {
    /// Attaches `path` to a failed write (or directory creation).
    pub fn write(path: impl Into<PathBuf>, source: io::Error) -> Self {
        ExperimentError::Io {
            path: path.into(),
            read: false,
            source,
        }
    }

    /// Attaches `path` to a failed read.
    pub fn read(path: impl Into<PathBuf>, source: io::Error) -> Self {
        ExperimentError::Io {
            path: path.into(),
            read: true,
            source,
        }
    }

    /// A `wmn-report` usage or analysis failure.
    pub fn report(detail: impl Into<String>) -> Self {
        ExperimentError::Report {
            detail: detail.into(),
        }
    }
}

/// Atomically replaces `path` with `contents`: the bytes are written to a
/// `*.tmp` sibling, fsynced, and renamed into place, so a crash (or an
/// injected fault) mid-write can never leave a truncated artifact — the
/// old file survives intact or the new one appears whole. If any step
/// fails, the tmp sibling is removed. This is what makes `--resume` safe:
/// every artifact a checkpoint refers to is either complete or absent.
///
/// # Errors
///
/// Returns [`ExperimentError::Io`] naming `path`.
pub fn write_file(path: &Path, contents: &str) -> Result<(), ExperimentError> {
    let tmp = tmp_sibling(path);
    write_then_rename(&tmp, path, contents).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        ExperimentError::write(path, e)
    })
}

fn write_then_rename(tmp: &Path, path: &Path, contents: &str) -> io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    file.write_all(contents.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// The `*.tmp` sibling [`write_file`] writes into.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// `fs::create_dir_all` with the path attached to any failure.
///
/// # Errors
///
/// Returns [`ExperimentError::Io`] naming `dir`.
pub fn create_dir(dir: &Path) -> Result<(), ExperimentError> {
    std::fs::create_dir_all(dir).map_err(|e| ExperimentError::write(dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_name_the_path() {
        let err =
            write_file(Path::new("/nonexistent-root-dir/wmn/table1.md"), "contents").unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with("cannot write /nonexistent-root-dir/wmn/table1.md: "),
            "{msg}"
        );
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn read_errors_say_read() {
        let path = Path::new("/nonexistent-root-dir/wmn/telemetry.json");
        let err = crate::analyze::load_doc(path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with("cannot read /nonexistent-root-dir/wmn/telemetry.json: "),
            "{msg}"
        );
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn write_file_is_atomic_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("wmn-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        std::fs::write(&path, "old contents").unwrap();
        write_file(&path, "new contents").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new contents");
        assert!(!tmp_sibling(&path).exists(), "tmp must be renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_rename_removes_the_tmp_and_keeps_the_target() {
        let dir = std::env::temp_dir().join(format!("wmn-atomic-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A non-empty directory at the target path: the tmp is written and
        // fsynced, then the rename onto the directory fails.
        let path = dir.join("artifact.txt");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        let err = write_file(&path, "new contents").unwrap_err();
        assert!(
            err.to_string()
                .starts_with(&format!("cannot write {}: ", path.display())),
            "{err}"
        );
        assert!(path.join("inside").is_dir(), "the target must stay intact");
        assert!(
            !tmp_sibling(&path).exists(),
            "a failed write must remove its tmp"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_errors_name_the_cell_and_attempts() {
        let err = ExperimentError::Cell {
            cell: "ga-normal-HotSpot".to_owned(),
            attempts: 3,
            detail: "panic: injected panic@start".to_owned(),
        };
        let msg = err.to_string();
        assert!(msg.contains("ga-normal-HotSpot"), "{msg}");
        assert!(msg.contains("3 attempts"), "{msg}");
        let one = ExperimentError::Cell {
            cell: "c".to_owned(),
            attempts: 1,
            detail: "d".to_owned(),
        };
        assert!(one.to_string().contains("1 attempt:"), "{one}");
    }

    #[test]
    fn model_errors_pass_through() {
        let model = ModelError::InvalidSpec {
            reason: "router_count must be positive".to_owned(),
        };
        let err = ExperimentError::from(model);
        assert!(err.to_string().contains("router_count"));
        assert!(Error::source(&err).is_some());
    }
}
