//! Writing experiment outputs to the `results/` directory.
//!
//! File writes route through [`crate::error::ExperimentError`], so a
//! failure names the offending path instead of panicking. The cross-table
//! summary streams through `wmn-runtime`'s [`RowSink`] abstraction — to
//! CSV via this crate's RFC-4180 renderer and to JSON Lines via
//! [`JsonlSink`] — so downstream tooling can consume one file covering
//! every (scenario, method) cell.

use crate::ascii_plot::plot;
use crate::csv::render_series;
use crate::error::{create_dir, write_file, AtomicFile, ExperimentError};
use crate::figures::{GaFigure, NsFigure};
use crate::tables::TableResult;
use std::io::{self, Write};
use std::path::Path;
use wmn_runtime::sink::{JsonlSink, RowSink};

/// Writes a reproduced table as `tableN.md` and `tableN.csv`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_table(dir: &Path, table: &TableResult) -> Result<(), ExperimentError> {
    create_dir(dir)?;
    let n = table.scenario.table_number().unwrap_or(0);
    let title = format!(
        "# Table {} — {} distribution ({} routers, {} clients)\n\n",
        n, table.scenario, table.router_count, table.client_count
    );
    write_file(
        &dir.join(format!("table{n}.md")),
        &format!("{title}{}", table.to_markdown()),
    )?;
    write_file(&dir.join(format!("table{n}.csv")), &table.to_csv())
}

/// Streams aligned series through a [`RowSink`], one row per x value
/// (header `[x, name…]`, the JSONL/CSV twin of
/// [`render_series`]). This is what lets the
/// `--scale 8`+ figure runs emit machine-readable output incrementally
/// through [`JsonlSink`] instead of accumulating a rendered document.
///
/// # Errors
///
/// Propagates the sink's I/O failures.
pub fn stream_series<S: RowSink + ?Sized>(
    sink: &mut S,
    header_x: &str,
    series: &[wmn_metrics::stats::Trace],
) -> io::Result<()> {
    sink.header(&crate::csv::series_header(header_x, series))?;
    for i in 0..crate::csv::series_row_count(series) {
        sink.row(&crate::csv::series_row(series, i))?;
    }
    sink.finish()
}

/// Streams `series` into `path` as JSON Lines, row by row through a
/// buffered [`AtomicFile`] sink (no in-memory document; the file appears
/// at its final path only once complete).
fn write_series_jsonl(
    dir: &Path,
    file: &str,
    header_x: &str,
    series: &[wmn_metrics::stats::Trace],
) -> Result<(), ExperimentError> {
    let path = dir.join(file);
    let out = AtomicFile::create(&path)?;
    let mut sink = JsonlSink::new(io::BufWriter::new(out));
    stream_series(&mut sink, header_x, series).map_err(|e| ExperimentError::io(&path, e))?;
    sink.into_inner()
        .into_inner()
        .map_err(|e| ExperimentError::io(&path, e.into_error()))?
        .commit()
}

/// Writes a GA-evolution figure as `figN.csv`, `figN.jsonl`, and an ASCII
/// `figN.txt`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_ga_figure(dir: &Path, figure: &GaFigure) -> Result<(), ExperimentError> {
    create_dir(dir)?;
    let n = figure.figure_number().unwrap_or(0);
    write_file(
        &dir.join(format!("fig{n}.csv")),
        &render_series("generation", &figure.series),
    )?;
    write_series_jsonl(dir, &format!("fig{n}.jsonl"), "generation", &figure.series)?;
    let title = format!(
        "Figure {n}: size of giant component vs GA generations ({} clients)",
        figure.scenario
    );
    write_file(
        &dir.join(format!("fig{n}.txt")),
        &plot(&title, &figure.series, 72, 20),
    )
}

/// Writes Figure 4 as `fig4.csv`, `fig4.jsonl`, and an ASCII `fig4.txt`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_ns_figure(dir: &Path, figure: &NsFigure) -> Result<(), ExperimentError> {
    create_dir(dir)?;
    let series = [figure.swap.clone(), figure.random.clone()];
    write_file(&dir.join("fig4.csv"), &render_series("phase", &series))?;
    write_series_jsonl(dir, "fig4.jsonl", "phase", &series)?;
    write_file(
        &dir.join("fig4.txt"),
        &plot(
            "Figure 4: neighborhood search, swap vs random movement (normal clients)",
            &series,
            72,
            20,
        ),
    )
}

/// A [`RowSink`] rendering rows as RFC-4180 CSV through this crate's
/// renderer ([`crate::csv`]).
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
}

impl<W: Write> CsvSink<W> {
    /// A sink writing CSV to `writer`.
    pub fn new(writer: W) -> Self {
        CsvSink { writer }
    }

    /// Consumes the sink and returns the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn write_record(&mut self, fields: &[String]) -> io::Result<()> {
        self.writer
            .write_all(crate::csv::render(&[fields]).as_bytes())
    }
}

impl<W: Write> RowSink for CsvSink<W> {
    fn header(&mut self, columns: &[String]) -> io::Result<()> {
        self.write_record(columns)
    }

    fn row(&mut self, fields: &[String]) -> io::Result<()> {
        self.write_record(fields)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The summary header: one column per [`summary_rows`] field.
fn summary_header() -> Vec<String> {
    [
        "table",
        "scenario",
        "method",
        "giant_by_ga",
        "coverage_by_ga",
        "giant_standalone",
        "coverage_standalone",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

/// Flattens every table into summary records, one per (scenario, method)
/// cell, in table order.
fn summary_rows(tables: &[TableResult]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for table in tables {
        let n = table.scenario.table_number().unwrap_or(0);
        for r in &table.rows {
            rows.push(vec![
                n.to_string(),
                table.scenario.name().to_owned(),
                r.method.name().to_owned(),
                r.giant_by_ga.to_string(),
                r.coverage_by_ga.to_string(),
                r.giant_standalone.to_string(),
                r.coverage_standalone.to_string(),
            ]);
        }
    }
    rows
}

/// Streams every table's rows into `sink` (header, rows, finish).
///
/// # Errors
///
/// Propagates the sink's I/O failures.
pub fn stream_summary<S: RowSink + ?Sized>(sink: &mut S, tables: &[TableResult]) -> io::Result<()> {
    wmn_runtime::sink::drain(sink, &summary_header(), &summary_rows(tables))
}

/// Writes the cross-scenario summary as `summary.csv` and `summary.jsonl`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_summary(dir: &Path, tables: &[TableResult]) -> Result<(), ExperimentError> {
    create_dir(dir)?;
    let csv_path = dir.join("summary.csv");
    let mut csv_sink = CsvSink::new(Vec::new());
    stream_summary(&mut csv_sink, tables).map_err(|e| ExperimentError::io(&csv_path, e))?;
    write_file(
        &csv_path,
        &String::from_utf8(csv_sink.into_inner()).expect("CSV output is UTF-8"),
    )?;

    let jsonl_path = dir.join("summary.jsonl");
    let mut jsonl_sink = JsonlSink::new(Vec::new());
    stream_summary(&mut jsonl_sink, tables).map_err(|e| ExperimentError::io(&jsonl_path, e))?;
    write_file(
        &jsonl_path,
        &String::from_utf8(jsonl_sink.into_inner()).expect("JSONL output is UTF-8"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{run_ga_figure, run_ns_figure};
    use crate::scenario::{ExperimentConfig, Scenario};
    use crate::tables::run_table;
    use std::fs;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wmn-report-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_table_files() {
        let dir = tmpdir("table");
        let t = run_table(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        write_table(&dir, &t).unwrap();
        assert!(dir.join("table1.md").exists());
        assert!(dir.join("table1.csv").exists());
        let md = fs::read_to_string(dir.join("table1.md")).unwrap();
        assert!(md.contains("HotSpot"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_figure_files() {
        let dir = tmpdir("figs");
        let fig = run_ga_figure(Scenario::Weibull, &ExperimentConfig::quick()).unwrap();
        write_ga_figure(&dir, &fig).unwrap();
        assert!(dir.join("fig3.csv").exists());
        assert!(dir.join("fig3.txt").exists());
        let jsonl = fs::read_to_string(dir.join("fig3.jsonl")).unwrap();
        assert_eq!(
            jsonl.lines().count(),
            fig.series[0].len(),
            "one JSONL row per sampled generation"
        );
        assert!(jsonl.lines().all(|l| l.starts_with("{\"generation\":")));

        let ns = run_ns_figure(&ExperimentConfig::quick()).unwrap();
        write_ns_figure(&dir, &ns).unwrap();
        let csv = fs::read_to_string(dir.join("fig4.csv")).unwrap();
        assert!(csv.starts_with("phase,Swap,Random"));
        let jsonl = fs::read_to_string(dir.join("fig4.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), ns.swap.len());
        assert!(jsonl.lines().all(|l| l.contains("\"Swap\":")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_series_rows_match_csv_rendering() {
        let fig = run_ga_figure(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        let mut sink = CsvSink::new(Vec::new());
        stream_series(&mut sink, "generation", &fig.series).unwrap();
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            streamed,
            crate::csv::render_series("generation", &fig.series),
            "streaming and document rendering must agree"
        );
    }

    #[test]
    fn write_failure_names_the_path() {
        let t = run_table(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        // A directory path that cannot be created (parent is a file).
        let file = std::env::temp_dir().join(format!("wmn-not-a-dir-{}", std::process::id()));
        fs::write(&file, "occupied").unwrap();
        let err = write_table(&file.join("sub"), &t).unwrap_err();
        assert!(err.to_string().contains("sub"), "{err}");
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn summary_covers_every_cell() {
        let dir = tmpdir("summary");
        let config = ExperimentConfig::quick();
        let tables: Vec<TableResult> = Scenario::paper_tables()
            .into_iter()
            .map(|s| run_table(s, &config).unwrap())
            .collect();
        write_summary(&dir, &tables).unwrap();

        let csv = fs::read_to_string(dir.join("summary.csv")).unwrap();
        assert!(csv.starts_with("table,scenario,method,"));
        assert_eq!(csv.lines().count(), 1 + 3 * 7);
        assert!(csv.contains("1,normal,HotSpot,"));
        assert!(csv.contains("3,weibull,Random,"));

        let jsonl = fs::read_to_string(dir.join("summary.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 3 * 7);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"table\":")));
        let _ = fs::remove_dir_all(&dir);
    }
}
