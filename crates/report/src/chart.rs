//! ASCII line charts: multi-series plots on a character grid, used by the
//! Figure 4 (validation vs k) and Figure 7 (distance vs subset size)
//! sections of `mwc`.

/// A named data series for [`line_chart`].
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label; its first character is the plot glyph.
    pub label: String,
    /// Y values, one per x position.
    pub values: Vec<f64>,
}

impl Series {
    /// Create a series.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            values,
        }
    }

    fn glyph(&self) -> char {
        self.label.chars().next().unwrap_or('*')
    }
}

/// Render series on a `height`-row grid. The x axis spans the longest
/// series; each column holds each series' glyph at its scaled y position
/// (later series overwrite earlier ones on collisions). A y-axis scale and
/// a legend are appended.
pub fn line_chart(series: &[Series], height: usize) -> String {
    let height = height.max(2);
    let width = series.iter().map(|s| s.values.len()).max().unwrap_or(0);
    if width == 0 {
        return String::from("(empty chart)\n");
    }
    let lo = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .flat_map(|s| s.values.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for (x, &v) in s.values.iter().enumerate() {
            let norm = (v - lo) / span;
            let y = ((1.0 - norm) * (height - 1) as f64).round() as usize;
            grid[y.min(height - 1)][x] = s.glyph();
        }
    }

    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let y_value = hi - span * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_value:>8.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!("{:>8}  legend: ", ""));
    let legend: Vec<String> = series
        .iter()
        .map(|s| format!("{}={}", s.glyph(), s.label))
        .collect();
    out.push_str(&legend.join("  "));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_grid_with_axis_and_legend() {
        let chart = line_chart(
            &[
                Series::new("alpha", vec![0.0, 1.0, 2.0, 3.0]),
                Series::new("beta", vec![3.0, 2.0, 1.0, 0.0]),
            ],
            5,
        );
        assert!(chart.contains("a=alpha"));
        assert!(chart.contains("b=beta"));
        assert!(chart.contains('|'));
        assert!(chart.contains('+'));
        // 5 grid rows + axis + legend.
        assert_eq!(chart.lines().count(), 7);
    }

    #[test]
    fn extremes_land_on_top_and_bottom_rows() {
        let chart = line_chart(&[Series::new("x", vec![0.0, 10.0])], 4);
        let lines: Vec<&str> = chart.lines().collect();
        assert!(
            lines[0].ends_with('x'),
            "max on the top row: {:?}",
            lines[0]
        );
        assert!(lines[3].contains('x'), "min on the bottom row");
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let chart = line_chart(&[Series::new("c", vec![5.0; 8])], 3);
        assert!(chart.contains('c'));
    }

    #[test]
    fn empty_input_is_graceful() {
        assert_eq!(line_chart(&[], 5), "(empty chart)\n");
        assert_eq!(
            line_chart(&[Series::new("e", vec![])], 5),
            "(empty chart)\n"
        );
    }

    #[test]
    fn height_clamped_to_two() {
        let chart = line_chart(&[Series::new("x", vec![1.0, 2.0])], 0);
        assert!(chart.lines().count() >= 4);
    }
}
