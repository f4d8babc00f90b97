//! SVG rendering of clock trees.
//!
//! Renders a placed tree as a standalone SVG document: L-shaped routes,
//! node markers colored by role and polarity (buffers vs inverters — the
//! picture that makes a polarity assignment legible at a glance), and an
//! optional legend. Pure string generation, no graphics dependencies.

use crate::tree::{ClockTree, NodeKind};
use serde::Serialize;
use wavemin_cells::{CellLibrary, Polarity};

/// Rendering options.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SvgOptions {
    /// Pixels per micron.
    pub scale: f64,
    /// Canvas margin in pixels.
    pub margin: f64,
    /// Node marker radius in pixels.
    pub node_radius: f64,
    /// Draw the role/polarity legend.
    pub legend: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        Self {
            scale: 2.0,
            margin: 24.0,
            node_radius: 4.0,
            legend: true,
        }
    }
}

/// Colors: positive-polarity leaves, negative-polarity leaves, internals,
/// the source, wires.
const POSITIVE: &str = "#2563eb";
const NEGATIVE: &str = "#dc2626";
const INTERNAL: &str = "#6b7280";
const SOURCE: &str = "#059669";
const WIRE: &str = "#9ca3af";

/// Renders the tree as a standalone SVG document.
///
/// Leaf markers are colored by the polarity their cell has in `lib`
/// (unknown cells fall back to the internal color).
#[must_use]
pub fn render(tree: &ClockTree, lib: &CellLibrary, options: &SvgOptions) -> String {
    let (min_x, min_y, max_x, max_y) = bounds(tree);
    let scale = options.scale;
    let margin = options.margin;
    let width = (max_x - min_x) * scale + 2.0 * margin;
    let height = (max_y - min_y) * scale + 2.0 * margin + if options.legend { 28.0 } else { 0.0 };
    let px = |x: f64| (x - min_x) * scale + margin;
    // SVG's y axis grows downward; flip so the die reads naturally.
    let py = |y: f64| (max_y - y) * scale + margin;

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\">\n"
    ));
    svg.push_str("  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");

    // Wires first (under the markers): L-shaped horizontal-then-vertical.
    for (_, node) in tree.iter() {
        let Some(parent) = node.parent() else {
            continue;
        };
        let p = tree.node(parent).location;
        let c = node.location;
        svg.push_str(&format!(
            "  <path d=\"M {:.1} {:.1} H {:.1} V {:.1}\" stroke=\"{WIRE}\" \
             stroke-width=\"1\" fill=\"none\"/>\n",
            px(p.x.value()),
            py(p.y.value()),
            px(c.x.value()),
            py(c.y.value()),
        ));
    }

    // Markers.
    for (_, node) in tree.iter() {
        let (color, r) = match node.kind {
            NodeKind::Source => (SOURCE, options.node_radius * 1.6),
            NodeKind::Internal => (INTERNAL, options.node_radius),
            NodeKind::Leaf => {
                let color = lib
                    .get(&node.cell)
                    .map_or(INTERNAL, |c| match c.polarity() {
                        Polarity::Positive => POSITIVE,
                        Polarity::Negative => NEGATIVE,
                    });
                (color, options.node_radius)
            }
        };
        svg.push_str(&format!(
            "  <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{r:.1}\" fill=\"{color}\">\
             <title>{}</title></circle>\n",
            px(node.location.x.value()),
            py(node.location.y.value()),
            node.cell,
        ));
    }

    if options.legend {
        let y = height - 10.0;
        let mut x = margin;
        for (color, label) in [
            (SOURCE, "source"),
            (INTERNAL, "internal"),
            (POSITIVE, "leaf +"),
            (NEGATIVE, "leaf -"),
        ] {
            svg.push_str(&format!(
                "  <circle cx=\"{x:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"{color}\"/>\n\
                 \x20 <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" \
                 font-family=\"sans-serif\" fill=\"#111\">{label}</text>\n",
                y - 4.0,
                x + 8.0,
                y,
            ));
            x += 70.0;
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// One labeled polyline in a [`render_waveforms`] chart. Plain data, so
/// callers in any crate can build series without new dependencies.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveSeries {
    /// Legend label.
    pub label: String,
    /// Stroke color (`""` picks from the built-in palette by index).
    pub color: String,
    /// `(x, y)` samples in data units, in ascending-x order.
    pub points: Vec<(f64, f64)>,
}

/// Options for [`render_waveforms`].
#[derive(Debug, Clone, PartialEq)]
pub struct WaveChartOptions {
    /// Canvas width in pixels.
    pub width: f64,
    /// Canvas height in pixels.
    pub height: f64,
    /// Margin around the plot area in pixels.
    pub margin: f64,
    /// An `(x, y)` instant to mark with a circle and a vertical guide
    /// (the peak-attribution argmax, typically).
    pub marker: Option<(f64, f64)>,
    /// X-axis caption.
    pub x_label: String,
    /// Y-axis caption.
    pub y_label: String,
}

impl Default for WaveChartOptions {
    fn default() -> Self {
        Self {
            width: 720.0,
            height: 360.0,
            margin: 48.0,
            marker: None,
            x_label: "time (ps)".to_owned(),
            y_label: "current (mA)".to_owned(),
        }
    }
}

/// Fallback stroke palette for series without an explicit color.
const PALETTE: [&str; 6] = [
    "#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2",
];

/// Renders sampled waveforms as an SVG line chart: one polyline per
/// series, a shared linear scale over all points, an optional argmax
/// marker, and a legend. Pure string generation like [`render`].
///
/// Series with no points are skipped (but keep their palette slot so
/// colors stay stable under filtering).
#[must_use]
pub fn render_waveforms(series: &[WaveSeries], options: &WaveChartOptions) -> String {
    let margin = options.margin;
    let width = options.width.max(2.0 * margin + 1.0);
    let height = options.height.max(2.0 * margin + 1.0);

    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = 0.0_f64;
    let mut max_y = f64::NEG_INFINITY;
    for s in series {
        for &(x, y) in &s.points {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
    }
    if let Some((mx, my)) = options.marker {
        min_x = min_x.min(mx);
        max_x = max_x.max(mx);
        min_y = min_y.min(my);
        max_y = max_y.max(my);
    }
    if !min_x.is_finite() {
        min_x = 0.0;
        max_x = 1.0;
    }
    if !max_y.is_finite() {
        max_y = 1.0;
    }
    let span_x = (max_x - min_x).max(1e-12);
    let span_y = (max_y - min_y).max(1e-12);
    let px = |x: f64| margin + (x - min_x) / span_x * (width - 2.0 * margin);
    let py = |y: f64| height - margin - (y - min_y) / span_y * (height - 2.0 * margin);

    let mut svg = String::new();
    svg.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\">\n"
    ));
    svg.push_str("  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n");
    // Axes.
    svg.push_str(&format!(
        "  <path d=\"M {m:.1} {m:.1} V {b:.1} H {r:.1}\" stroke=\"#111\" \
         stroke-width=\"1\" fill=\"none\"/>\n",
        m = margin,
        b = height - margin,
        r = width - margin,
    ));
    svg.push_str(&format!(
        "  <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" font-family=\"sans-serif\" \
         fill=\"#111\" text-anchor=\"middle\">{}</text>\n",
        width / 2.0,
        height - margin / 4.0,
        xml_escape(&options.x_label),
    ));
    svg.push_str(&format!(
        "  <text x=\"{x:.1}\" y=\"{y:.1}\" font-size=\"11\" font-family=\"sans-serif\" \
         fill=\"#111\" text-anchor=\"middle\" transform=\"rotate(-90 {x:.1} {y:.1})\">{label}</text>\n",
        x = margin / 3.0,
        y = height / 2.0,
        label = xml_escape(&options.y_label),
    ));

    for (i, s) in series.iter().enumerate() {
        if s.points.is_empty() {
            continue;
        }
        let color: &str = if s.color.is_empty() {
            PALETTE[i % PALETTE.len()]
        } else {
            &s.color
        };
        let mut d = String::new();
        for &(x, y) in &s.points {
            if !d.is_empty() {
                d.push(' ');
            }
            d.push_str(&format!("{:.1},{:.1}", px(x), py(y)));
        }
        svg.push_str(&format!(
            "  <polyline points=\"{d}\" stroke=\"{color}\" stroke-width=\"1.5\" \
             fill=\"none\"><title>{}</title></polyline>\n",
            xml_escape(&s.label),
        ));
        // Legend entry.
        let ly = margin / 2.0 + i as f64 * 14.0;
        svg.push_str(&format!(
            "  <rect x=\"{:.1}\" y=\"{:.1}\" width=\"10\" height=\"3\" fill=\"{color}\"/>\n\
             \x20 <text x=\"{:.1}\" y=\"{ly:.1}\" font-size=\"10\" \
             font-family=\"sans-serif\" fill=\"#111\" dominant-baseline=\"middle\">{}</text>\n",
            width - margin - 130.0,
            ly - 1.5,
            width - margin - 115.0,
            xml_escape(&s.label),
        ));
    }

    if let Some((mx, my)) = options.marker {
        svg.push_str(&format!(
            "  <path d=\"M {x:.1} {t:.1} V {b:.1}\" stroke=\"#9ca3af\" stroke-width=\"1\" \
             stroke-dasharray=\"4 3\" fill=\"none\"/>\n\
             \x20 <circle cx=\"{x:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"none\" stroke=\"#111\" \
             stroke-width=\"1.5\"><title>peak</title></circle>\n",
            py(my),
            x = px(mx),
            t = margin,
            b = height - margin,
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

/// Minimal XML text escaping for labels.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn bounds(tree: &ClockTree) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for (_, node) in tree.iter() {
        min_x = min_x.min(node.location.x.value());
        min_y = min_y.min(node.location.y.value());
        max_x = max_x.max(node.location.x.value());
        max_y = max_y.max(node.location.y.value());
    }
    if !min_x.is_finite() {
        (0.0, 0.0, 1.0, 1.0)
    } else {
        (min_x, min_y, max_x.max(min_x + 1.0), max_y.max(min_y + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    fn rendered() -> (ClockTree, String) {
        let tree = Benchmark::s15850().synthesize(1);
        let lib = CellLibrary::nangate45();
        let svg = render(&tree, &lib, &SvgOptions::default());
        (tree, svg)
    }

    #[test]
    fn produces_wellformed_svg_skeleton() {
        let (_, svg) = rendered();
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("xmlns=\"http://www.w3.org/2000/svg\""));
    }

    #[test]
    fn draws_every_node_and_wire() {
        let (tree, svg) = rendered();
        let circles = svg.matches("<circle").count();
        let legend_circles = 4;
        assert_eq!(circles, tree.len() + legend_circles);
        let paths = svg.matches("<path").count();
        assert_eq!(paths, tree.len() - 1, "one wire per non-root node");
    }

    #[test]
    fn polarity_colors_follow_cells() {
        let mut tree = Benchmark::s15850().synthesize(1);
        let lib = CellLibrary::nangate45();
        let before = render(&tree, &lib, &SvgOptions::default());
        assert!(
            !before.contains(&NEGATIVE_MARKER()),
            "all-buffer tree has no red leaves"
        );
        let leaf = tree.leaves()[0];
        tree.set_cell(leaf, "INV_X8");
        let after = render(&tree, &lib, &SvgOptions::default());
        assert!(after.contains(&NEGATIVE_MARKER()));
    }

    #[allow(non_snake_case)]
    fn NEGATIVE_MARKER() -> String {
        format!("fill=\"{NEGATIVE}\"><title>INV")
    }

    #[test]
    fn legend_is_optional() {
        let tree = Benchmark::s15850().synthesize(1);
        let lib = CellLibrary::nangate45();
        let options = SvgOptions {
            legend: false,
            ..SvgOptions::default()
        };
        let svg = render(&tree, &lib, &options);
        assert!(!svg.contains("<text"));
        assert_eq!(svg.matches("<circle").count(), tree.len());
    }

    #[test]
    fn titles_carry_cell_names() {
        let (_, svg) = rendered();
        assert!(svg.contains("<title>BUF_X8</title>"));
    }

    fn wave(label: &str, points: Vec<(f64, f64)>) -> WaveSeries {
        WaveSeries {
            label: label.to_owned(),
            color: String::new(),
            points,
        }
    }

    #[test]
    fn waveform_chart_draws_one_polyline_per_nonempty_series() {
        let series = vec![
            wave("total", vec![(0.0, 0.0), (10.0, 5.0), (20.0, 1.0)]),
            wave("sink 3", vec![(0.0, 0.0), (10.0, 3.0), (20.0, 0.5)]),
            wave("empty", Vec::new()),
        ];
        let svg = render_waveforms(&series, &WaveChartOptions::default());
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("<title>total</title>"));
        assert!(svg.contains("<title>sink 3</title>"));
    }

    #[test]
    fn waveform_chart_marks_the_peak_instant() {
        let series = vec![wave("total", vec![(0.0, 0.0), (10.0, 5.0), (20.0, 1.0)])];
        let with = render_waveforms(
            &series,
            &WaveChartOptions {
                marker: Some((10.0, 5.0)),
                ..WaveChartOptions::default()
            },
        );
        let without = render_waveforms(&series, &WaveChartOptions::default());
        assert!(with.contains("<title>peak</title>"));
        assert!(!without.contains("<title>peak</title>"));
        assert!(with.contains("stroke-dasharray"));
    }

    #[test]
    fn waveform_chart_survives_degenerate_input() {
        // No series, no points: still a well-formed document.
        let svg = render_waveforms(&[], &WaveChartOptions::default());
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One flat series at a single x: scales clamp, no NaN/inf output.
        let flat = render_waveforms(
            &[wave("flat", vec![(5.0, 0.0)])],
            &WaveChartOptions::default(),
        );
        assert!(!flat.contains("NaN"));
        assert!(!flat.contains("inf"));
    }

    #[test]
    fn waveform_chart_escapes_labels() {
        let svg = render_waveforms(
            &[wave("a<b&c", vec![(0.0, 1.0), (1.0, 2.0)])],
            &WaveChartOptions::default(),
        );
        assert!(svg.contains("a&lt;b&amp;c"));
        assert!(!svg.contains("a<b&c"));
    }
}
