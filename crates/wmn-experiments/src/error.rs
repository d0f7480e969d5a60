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
/// old file survives intact or the new one appears whole. This is what
/// makes `--resume` safe: every artifact a checkpoint refers to is either
/// complete or absent.
///
/// # Errors
///
/// Returns [`ExperimentError::Io`] naming `path`.
pub fn write_file(path: &Path, contents: &str) -> Result<(), ExperimentError> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(contents.as_bytes())
        .map_err(|e| ExperimentError::write(path, e))?;
    file.commit()
}

/// The `*.tmp` sibling a pending [`AtomicFile`] writes into.
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// A file that only appears at its final path once fully written: bytes go
/// to a `*.tmp` sibling and [`commit`](AtomicFile::commit) fsyncs + renames
/// it into place. Dropping without committing removes the temporary, so an
/// abandoned write leaves no debris. Implements [`io::Write`], so streamed
/// writers (`BufWriter`, `JsonlSink`) can layer on top.
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    tmp_path: PathBuf,
    file: Option<std::fs::File>,
}

impl AtomicFile {
    /// Opens the temporary sibling of `path` for writing.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Io`] naming `path`.
    pub fn create(path: &Path) -> Result<Self, ExperimentError> {
        let tmp_path = tmp_sibling(path);
        let file = std::fs::File::create(&tmp_path).map_err(|e| ExperimentError::write(path, e))?;
        Ok(AtomicFile {
            path: path.to_owned(),
            tmp_path,
            file: Some(file),
        })
    }

    /// Fsyncs the temporary and renames it to the final path.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Io`] naming the final path.
    pub fn commit(mut self) -> Result<(), ExperimentError> {
        let file = self.file.take().expect("commit consumes the file");
        file.sync_all()
            .map_err(|e| ExperimentError::write(&self.path, e))?;
        drop(file);
        std::fs::rename(&self.tmp_path, &self.path)
            .map_err(|e| ExperimentError::write(&self.path, e))
    }
}

impl io::Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file
            .as_mut()
            .expect("file open until commit")
            .write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.as_mut().expect("file open until commit").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
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
    fn abandoned_atomic_file_removes_its_tmp_and_keeps_the_original() {
        let dir = std::env::temp_dir().join(format!("wmn-atomic-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        std::fs::write(&path, "old contents").unwrap();
        {
            let mut file = AtomicFile::create(&path).unwrap();
            file.write_all(b"half-writ").unwrap();
            // Dropped without commit — simulates a crash mid-write.
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old contents");
        assert!(
            !tmp_sibling(&path).exists(),
            "abandoned tmp must be removed"
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
