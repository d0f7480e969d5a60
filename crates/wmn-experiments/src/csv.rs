//! Minimal CSV and JSON Lines rendering (no external dependency).
//!
//! Experiment outputs are small, simple tables of header-plus-rows
//! records, rendered as CSV ([`render`], quoting commas, quotes and
//! newlines per RFC 4180) and as JSON Lines ([`render_jsonl`]) from the
//! same rows.

use crate::json;
use wmn_metrics::stats::Trace;

/// Escapes one CSV field.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Renders rows (first row = header) as CSV text.
pub fn render<R, F>(rows: &[R]) -> String
where
    R: AsRef<[F]>,
    F: AsRef<str>,
{
    let mut out = String::new();
    for row in rows {
        let line: Vec<String> = row.as_ref().iter().map(|f| escape(f.as_ref())).collect();
        out.push_str(&line.join(","));
        out.push('\n');
    }
    out
}

/// Renders rows (first row = header) as JSON Lines: one object per data
/// row, each header column mapped to its field as a JSON string. The
/// JSON Lines twin of [`render`] over the same rows.
pub fn render_jsonl<R, F>(rows: &[R]) -> String
where
    R: AsRef<[F]>,
    F: AsRef<str>,
{
    let Some((header, data)) = rows.split_first() else {
        return String::new();
    };
    let mut out = String::new();
    for row in data {
        let members: Vec<String> = header
            .as_ref()
            .iter()
            .zip(row.as_ref())
            .map(|(k, v)| {
                format!(
                    "\"{}\":\"{}\"",
                    json::escape(k.as_ref()),
                    json::escape(v.as_ref())
                )
            })
            .collect();
        out.push('{');
        out.push_str(&members.join(","));
        out.push_str("}\n");
    }
    out
}

/// Aligned series as rows: the header (the x label, then one column per
/// series name), then one row per point index with the shared x value
/// (taken from the first series that has a point there) and each series'
/// y. Series must share x values; a shorter series renders empty
/// trailing fields.
pub fn series_rows(header_x: &str, series: &[Trace]) -> Vec<Vec<String>> {
    let mut header = vec![header_x.to_owned()];
    header.extend(series.iter().map(|s| s.name().to_owned()));
    let len = series.iter().map(Trace::len).max().unwrap_or(0);
    let mut rows = vec![header];
    rows.extend((0..len).map(|i| {
        let x = series
            .iter()
            .find_map(|s| s.points().get(i).map(|&(x, _)| x));
        let mut row = vec![x.map_or(String::new(), trim_float)];
        row.extend(series.iter().map(|s| {
            s.points()
                .get(i)
                .map_or(String::new(), |&(_, y)| trim_float(y))
        }));
        row
    }));
    rows
}

/// Formats a float without trailing zeros (`5` not `5.000`).
pub fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_simple_rows() {
        let rows = vec![vec!["a", "b"], vec!["1", "2"]];
        assert_eq!(render(&rows), "a,b\n1,2\n");
    }

    #[test]
    fn escapes_special_fields() {
        let rows = vec![vec!["x,y", "he said \"hi\"", "line\nbreak"]];
        let out = render(&rows);
        assert_eq!(out, "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
    }

    #[test]
    fn renders_series_columns() {
        let mut a = Trace::new("swap");
        a.push(1.0, 3.0);
        a.push(2.0, 5.0);
        let mut b = Trace::new("random");
        b.push(1.0, 2.0);
        let out = render(&series_rows("phase", &[a, b]));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "phase,swap,random");
        assert_eq!(lines[1], "1,3,2");
        assert_eq!(lines[2], "2,5,");
    }

    #[test]
    fn trim_float_behaviour() {
        assert_eq!(trim_float(5.0), "5");
        assert_eq!(trim_float(0.25), "0.2500");
        assert_eq!(trim_float(-3.0), "-3");
    }

    #[test]
    fn empty_series_renders_header_only() {
        let rows = series_rows("x", &[]);
        assert_eq!(render(&rows), "x\n");
        assert_eq!(render_jsonl(&rows), "");
    }

    #[test]
    fn jsonl_writes_one_object_per_row() {
        let rows = vec![
            vec!["method", "giant"],
            vec!["HotSpot", "55"],
            vec!["Random", "30"],
        ];
        assert_eq!(
            render_jsonl(&rows),
            "{\"method\":\"HotSpot\",\"giant\":\"55\"}\n{\"method\":\"Random\",\"giant\":\"30\"}\n"
        );
    }

    #[test]
    fn jsonl_escapes_special_characters() {
        let rows = vec![vec!["k"], vec!["a\"b\\c\nd\te\u{1}"]];
        let out = render_jsonl(&rows);
        assert_eq!(out, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}\n");
        let parsed = json::parse(out.trim_end()).unwrap();
        assert_eq!(
            parsed.get("k").and_then(json::JsonValue::as_str),
            Some(rows[1][0])
        );
    }
}
