//! Terminal line plots for figure reproduction.
//!
//! The original figures are Excel line charts; offline, an ASCII grid with
//! one glyph per series is enough to read off ordering and convergence
//! shape. The figure binaries write the rendered plot to `figN.txt`.

use wmn_metrics::stats::Trace;

/// Glyphs assigned to series, in order.
const GLYPHS: [char; 8] = ['*', '+', 'o', 'x', '#', '@', '%', '&'];

/// Renders one or more series into a fixed-size character grid.
///
/// The x and y ranges span all series; each series draws with its own
/// glyph (later series overdraw earlier ones on collisions). A legend and
/// axis labels are appended.
///
/// # Examples
///
/// ```
/// use wmn_experiments::ascii_plot::plot;
/// use wmn_metrics::stats::Trace;
///
/// let mut t = Trace::new("swap");
/// for i in 0..20 {
///     t.push(i as f64, (i * i) as f64);
/// }
/// let s = plot("giant component vs phase", &[t], 40, 10);
/// assert!(s.contains("swap"));
/// ```
pub fn plot(title: &str, series: &[Trace], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');

    let points_exist = series.iter().any(|s| !s.is_empty());
    if !points_exist {
        out.push_str("(no data)\n");
        return out;
    }

    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in s.points() {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
    }
    if (max_x - min_x).abs() < f64::EPSILON {
        max_x = min_x + 1.0;
    }
    if (max_y - min_y).abs() < f64::EPSILON {
        max_y = min_y + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in s.points() {
            let cx = (((x - min_x) / (max_x - min_x)) * (width - 1) as f64).round() as usize;
            let cy = (((y - min_y) / (max_y - min_y)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = glyph;
        }
    }

    let y_label_width = 8;
    for (r, row) in grid.iter().enumerate() {
        let y_val = max_y - (max_y - min_y) * r as f64 / (height - 1) as f64;
        let label = if r == 0 || r == height - 1 || r == height / 2 {
            format!("{y_val:>7.1} ")
        } else {
            " ".repeat(y_label_width)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(y_label_width));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{}{:<10.1}{:>width$.1}\n",
        " ".repeat(y_label_width),
        min_x,
        max_x,
        width = width - 9
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, slope: f64) -> Trace {
        let mut t = Trace::new(name);
        for i in 0..30 {
            t.push(i as f64, slope * i as f64);
        }
        t
    }

    #[test]
    fn renders_title_legend_and_axes() {
        let out = plot("test plot", &[line("a", 1.0), line("b", 2.0)], 40, 10);
        assert!(out.starts_with("test plot"));
        assert!(out.contains("* a"));
        assert!(out.contains("+ b"));
        assert!(out.contains('|'));
        assert!(out.contains('+'));
    }

    #[test]
    fn empty_series_render_placeholder() {
        let out = plot("empty", &[], 40, 10);
        assert!(out.contains("(no data)"));
        let out = plot("empty", &[Trace::new("x")], 40, 10);
        assert!(out.contains("(no data)"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let mut t = Trace::new("flat");
        for i in 0..10 {
            t.push(i as f64, 5.0);
        }
        let out = plot("flat", &[t], 30, 6);
        assert!(out.contains('*'));
    }

    #[test]
    fn single_point_series() {
        let mut t = Trace::new("dot");
        t.push(3.0, 7.0);
        let out = plot("dot", &[t], 30, 6);
        assert!(out.contains('*'));
    }

    #[test]
    fn grid_dimensions_are_clamped() {
        let out = plot("tiny", &[line("a", 1.0)], 1, 1);
        // Clamped to at least 16x4: no panic, row count >= 4.
        assert!(out.lines().count() >= 4);
    }

    #[test]
    fn higher_series_draws_higher() {
        let out = plot("order", &[line("low", 0.1), line("high", 5.0)], 40, 12);
        // The 'high' glyph '+' must appear above (earlier line) than most '*'.
        let first_plus = out.lines().position(|l| l.contains('+')).unwrap();
        let last_star = out
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains('*'))
            .map(|(i, _)| i)
            .last()
            .unwrap();
        assert!(first_plus < last_star);
    }
}
