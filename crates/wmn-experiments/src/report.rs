//! Writing experiment outputs to the `results/` directory.
//!
//! Each writer renders its artifact in memory, writes every file
//! atomically through [`write_file`], and returns the names it wrote, in
//! write order: the `files` of the artifact's checkpoint line (see
//! [`crate::artifact`]). A failure names the offending path instead of
//! panicking. Figures and the cross-table summary write the same rows
//! twice, as CSV ([`csv::render`]) and as JSON Lines
//! ([`csv::render_jsonl`]), so downstream tooling can read one file
//! covering every (scenario, method) cell.

use crate::ascii_plot::plot;
use crate::csv;
use crate::error::{create_dir, write_file, ExperimentError};
use crate::figures::{GaFigure, NsFigure};
use crate::tables::TableResult;
use std::path::Path;
use wmn_metrics::stats::Trace;

/// Writes each `(name, contents)` pair into `dir`, in order, and returns
/// the names.
fn write_files(dir: &Path, files: Vec<(String, String)>) -> Result<Vec<String>, ExperimentError> {
    create_dir(dir)?;
    files
        .into_iter()
        .map(|(name, contents)| write_file(&dir.join(&name), &contents).map(|()| name))
        .collect()
}

/// Writes a reproduced table as `tableN.md` and `tableN.csv`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_table(dir: &Path, table: &TableResult) -> Result<Vec<String>, ExperimentError> {
    let n = table.scenario.table_number();
    let title = format!(
        "# Table {} — {} distribution ({} routers, {} clients)\n\n",
        n, table.scenario, table.router_count, table.client_count
    );
    write_files(
        dir,
        vec![
            (
                format!("table{n}.md"),
                format!("{title}{}", table.to_markdown()),
            ),
            (format!("table{n}.csv"), table.to_csv()),
        ],
    )
}

/// Writes aligned `series` as `{stem}.csv`, `{stem}.jsonl`, and an ASCII
/// plot titled `title` as `{stem}.txt`.
fn write_series(
    dir: &Path,
    stem: &str,
    header_x: &str,
    series: &[Trace],
    title: &str,
) -> Result<Vec<String>, ExperimentError> {
    let rows = csv::series_rows(header_x, series);
    write_files(
        dir,
        vec![
            (format!("{stem}.csv"), csv::render(&rows)),
            (format!("{stem}.jsonl"), csv::render_jsonl(&rows)),
            (format!("{stem}.txt"), plot(title, series, 72, 20)),
        ],
    )
}

/// Writes a GA-evolution figure as `figN.csv`, `figN.jsonl`, and an ASCII
/// `figN.txt`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_ga_figure(dir: &Path, figure: &GaFigure) -> Result<Vec<String>, ExperimentError> {
    let n = figure.figure_number();
    let title = format!(
        "Figure {n}: size of giant component vs GA generations ({} clients)",
        figure.scenario
    );
    write_series(
        dir,
        &format!("fig{n}"),
        "generation",
        &figure.series,
        &title,
    )
}

/// Writes Figure 4 as `fig4.csv`, `fig4.jsonl`, and an ASCII `fig4.txt`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_ns_figure(dir: &Path, figure: &NsFigure) -> Result<Vec<String>, ExperimentError> {
    write_series(
        dir,
        "fig4",
        "phase",
        &[figure.swap.clone(), figure.random.clone()],
        "Figure 4: neighborhood search, swap vs random movement (normal clients)",
    )
}

/// The summary rows: a header, then one record per (scenario, method)
/// cell, in table order.
fn summary_rows(tables: &[TableResult]) -> Vec<Vec<String>> {
    let header = [
        "table",
        "scenario",
        "method",
        "giant_by_ga",
        "coverage_by_ga",
        "giant_standalone",
        "coverage_standalone",
    ];
    let mut rows = vec![header.map(str::to_owned).to_vec()];
    for table in tables {
        let n = table.scenario.table_number();
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

/// Writes the cross-scenario summary as `summary.csv` and `summary.jsonl`.
///
/// # Errors
///
/// Propagates filesystem errors, naming the path.
pub fn write_summary(dir: &Path, tables: &[TableResult]) -> Result<Vec<String>, ExperimentError> {
    let rows = summary_rows(tables);
    write_files(
        dir,
        vec![
            ("summary.csv".to_owned(), csv::render(&rows)),
            ("summary.jsonl".to_owned(), csv::render_jsonl(&rows)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{run_ga_figure, run_ns_figure};
    use crate::scenario::{ExperimentConfig, Scenario};
    use crate::tables::run_ga_grid;
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
        let t = run_ga_grid(Scenario::Normal, &ExperimentConfig::quick(), None)
            .unwrap()
            .table;
        assert_eq!(write_table(&dir, &t).unwrap(), ["table1.md", "table1.csv"]);
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
        assert_eq!(
            write_ga_figure(&dir, &fig).unwrap(),
            ["fig3.csv", "fig3.jsonl", "fig3.txt"]
        );
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
        assert_eq!(
            write_ns_figure(&dir, &ns).unwrap(),
            ["fig4.csv", "fig4.jsonl", "fig4.txt"]
        );
        let csv = fs::read_to_string(dir.join("fig4.csv")).unwrap();
        assert!(csv.starts_with("phase,Swap,Random"));
        let jsonl = fs::read_to_string(dir.join("fig4.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), ns.swap.len());
        assert!(jsonl.lines().all(|l| l.contains("\"Swap\":")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn figure_jsonl_and_csv_render_the_same_rows() {
        let dir = tmpdir("rows");
        let fig = run_ga_figure(Scenario::Normal, &ExperimentConfig::quick()).unwrap();
        write_ga_figure(&dir, &fig).unwrap();
        let csv = fs::read_to_string(dir.join("fig1.csv")).unwrap();
        let jsonl = fs::read_to_string(dir.join("fig1.jsonl")).unwrap();
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        assert_eq!(csv.lines().count(), 1 + jsonl.lines().count());
        for (csv_line, json_line) in csv.lines().skip(1).zip(jsonl.lines()) {
            let object = crate::json::parse(json_line).unwrap();
            for (column, field) in header.iter().zip(csv_line.split(',')) {
                assert_eq!(object.get(column).unwrap().as_str(), Some(field));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_failure_names_the_path() {
        let t = run_ga_grid(Scenario::Normal, &ExperimentConfig::quick(), None)
            .unwrap()
            .table;
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
        let tables: Vec<TableResult> = [Scenario::Normal, Scenario::Exponential, Scenario::Weibull]
            .into_iter()
            .map(|s| run_ga_grid(s, &config, None).unwrap().table)
            .collect();
        assert_eq!(
            write_summary(&dir, &tables).unwrap(),
            ["summary.csv", "summary.jsonl"]
        );

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
