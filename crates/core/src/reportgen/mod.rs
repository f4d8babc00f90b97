//! Self-contained interactive HTML run reports.
//!
//! [`render_html`] turns one [`RunReport`] (plus optional waveform and
//! tree SVGs and a Chrome trace) into a single HTML file with **zero
//! external references**: styles and scripts are inline, the full
//! report JSON rides along in a `<script type="application/json">`
//! block for machine consumption, and the interactive bits — sorting
//! the peak-attribution table, zooming the zone-solve timeline — are a
//! few dozen lines of dependency-free JavaScript. The file can be
//! attached to a CI run, mailed around, or opened from disk years
//! later and still work.
//!
//! Sections, in order: run summary cards, the latency/size histograms
//! ([`crate::observe::RunHistograms`]) as server-side SVG bar charts
//! with quantile captions, the exact peak-attribution table (the
//! rendered total is the `f64` round-trip of `peak_ma`, so re-summing
//! the rows reproduces the report's value), the overlaid waveform
//! chart, the clock-tree rendering, and a zone-solve timeline
//! reconstructed client-side from the embedded Chrome trace's
//! `zone_solve` complete spans.

use std::fmt::Write as _;

use crate::observe::{bucket_upper_bound, RunHistogram, RunReport};

/// Everything the generator may embed. Only `report` is mandatory;
/// absent extras simply drop their section.
#[derive(Debug, Clone, Copy)]
pub struct ReportInputs<'a> {
    /// Page title (HTML-escaped).
    pub title: &'a str,
    /// The run report to render and embed.
    pub report: &'a RunReport,
    /// Overlaid rail-current waveform chart (from
    /// [`wavemin_clocktree::svg::render_waveforms`]).
    pub waveform_svg: Option<&'a str>,
    /// Clock-tree rendering (from [`wavemin_clocktree::svg::render`]).
    pub tree_svg: Option<&'a str>,
    /// Chrome trace JSON (from [`crate::trace::TraceJournal::chrome_trace`]);
    /// drives the interactive zone-solve timeline.
    pub trace_json: Option<&'a str>,
}

/// Escapes text for HTML element and attribute content.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Makes a JSON document safe to embed inside a `<script>` block:
/// `<` only occurs inside JSON strings, where the `\u003c` escape is
/// equivalent, so the replacement never changes the decoded value but
/// does make `</script>` (and `<!--`) unrepresentable.
fn embed_json(json: &str) -> String {
    json.replace('<', "\\u003c")
}

/// Human-scaled count: `1234567` → `"1.23M"`.
fn human(v: u64) -> String {
    let vf = v as f64;
    if vf >= 1e9 {
        format!("{:.2}G", vf / 1e9)
    } else if vf >= 1e6 {
        format!("{:.2}M", vf / 1e6)
    } else if vf >= 1e3 {
        format!("{:.2}k", vf / 1e3)
    } else {
        v.to_string()
    }
}

/// Renders one histogram as an inline SVG bar chart over its occupied
/// bucket range, one bar per log2 bucket, with a tooltip per bar.
fn histogram_svg(h: &RunHistogram) -> String {
    if h.count == 0 {
        return "<p class=\"empty\">no observations</p>".to_string();
    }
    let lo = h.buckets.first().map_or(0, |b| b.index);
    let hi = h.buckets.last().map_or(0, |b| b.index);
    let n = (hi - lo + 1) as usize;
    let peak = h.buckets.iter().map(|b| b.count).max().unwrap_or(1).max(1);
    let (w, chart_h, pad) = (720.0_f64, 120.0_f64, 4.0_f64);
    let bar_w = (w / n as f64 - pad).max(2.0);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w} {total}\" width=\"{w}\" height=\"{total}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">",
        total = chart_h + 22.0
    );
    for (slot, index) in (lo..=hi).enumerate() {
        let count = h
            .buckets
            .iter()
            .find(|b| b.index == index)
            .map_or(0, |b| b.count);
        let frac = count as f64 / peak as f64;
        let bh = (chart_h * frac).max(if count > 0 { 2.0 } else { 0.0 });
        let x = slot as f64 * (w / n as f64) + pad / 2.0;
        let y = chart_h - bh;
        let _ = write!(
            svg,
            "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{bar_w:.1}\" height=\"{bh:.1}\" \
             fill=\"#4477aa\"><title>&#8804; {ub}: {count}</title></rect>",
            ub = bucket_upper_bound(index as usize),
        );
        if n <= 24 || slot % (n / 12).max(1) == 0 {
            let _ = write!(
                svg,
                "<text x=\"{cx:.1}\" y=\"{ty:.1}\" font-size=\"9\" \
                 text-anchor=\"middle\" fill=\"#666\">{label}</text>",
                cx = x + bar_w / 2.0,
                ty = chart_h + 14.0,
                label = human(bucket_upper_bound(index as usize)),
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// One histogram block: header, quantile caption, bar chart.
fn histogram_section(name: &str, h: &RunHistogram) -> String {
    let mean = if h.count == 0 {
        0
    } else {
        h.sum / h.count.max(1)
    };
    format!(
        "<div class=\"hist\"><h3>{name}</h3>\
         <p class=\"caption\">n={count} &#183; min={min} &#183; mean&#8776;{mean} &#183; \
         max={max} &#183; p50&#8804;{p50} &#183; p90&#8804;{p90} &#183; p99&#8804;{p99}</p>\
         {chart}</div>",
        name = esc(name),
        count = human(h.count),
        min = human(h.min),
        mean = human(mean),
        max = human(h.max),
        p50 = human(h.p50),
        p90 = human(h.p90),
        p99 = human(h.p99),
        chart = histogram_svg(h),
    )
}

/// The summary cards across the top of the page.
fn summary_cards(report: &RunReport) -> String {
    let c = &report.counters;
    let cards: &[(&str, String)] = &[
        ("zone solves", human(c.zone_solves)),
        ("zones reused", human(c.zones_reused)),
        ("labels created", human(c.labels_created)),
        ("solver work", human(c.solver_work)),
        ("pareto paths", human(c.pareto_paths)),
        ("ladder rung", report.ladder_rung.to_string()),
        ("threads", report.threads.to_string()),
    ];
    let mut out = String::from("<div class=\"cards\">");
    for (label, value) in cards {
        let _ = write!(
            out,
            "<div class=\"card\"><div class=\"v\">{}</div><div class=\"l\">{}</div></div>",
            esc(value),
            esc(label)
        );
    }
    out.push_str("</div>");
    out
}

/// The peak-attribution table. Every row carries machine-precision
/// values in `data-v` attributes (used by the sorter); the visible
/// total is the shortest-round-trip rendering of `peak_ma`, so parsing
/// it back yields the report's value exactly.
fn attribution_section(report: &RunReport) -> String {
    let Some(attr) = report.attribution.as_ref() else {
        return String::new();
    };
    let mut out = format!(
        "<section><h2>Peak attribution</h2>\
         <p class=\"caption\">mode {mode} &#183; rail {rail} &#183; edge {edge} &#183; \
         t={time_ps} ps &#183; peak {peak_ma} mA across {n} nodes</p>\
         <table id=\"attr\"><thead><tr>\
         <th data-col=\"0\" data-num=\"1\">node</th>\
         <th data-col=\"1\">cell</th>\
         <th data-col=\"2\">kind</th>\
         <th data-col=\"3\" data-num=\"1\">mA at peak</th>\
         </tr></thead><tbody>",
        mode = attr.mode,
        rail = esc(&attr.rail),
        edge = esc(&attr.edge),
        time_ps = attr.time_ps,
        peak_ma = attr.peak_ma,
        n = attr.contributions.len(),
    );
    for c in &attr.contributions {
        let _ = write!(
            out,
            "<tr><td data-v=\"{node}\">{node}</td><td data-v=\"{cell}\">{cell}</td>\
             <td data-v=\"{kind}\">{kind}</td><td data-v=\"{ma}\">{ma}</td></tr>",
            node = c.node,
            cell = esc(&c.cell),
            kind = esc(&c.kind),
            ma = c.amps_ma,
        );
    }
    let _ = write!(
        out,
        "</tbody><tfoot><tr><td colspan=\"3\">total</td>\
         <td id=\"attr-total\" data-v=\"{peak}\">{peak}</td></tr></tfoot></table></section>",
        peak = attr.peak_ma
    );
    out
}

const STYLE: &str = "\
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:820px;color:#222;padding:0 1rem}\
h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2rem;border-bottom:1px solid #ddd}\
h3{font-size:1rem;margin:0.8rem 0 0.2rem}\
.cards{display:flex;flex-wrap:wrap;gap:.6rem;margin:1rem 0}\
.card{border:1px solid #ddd;border-radius:6px;padding:.5rem .9rem;min-width:6rem;text-align:center}\
.card .v{font-size:1.2rem;font-weight:600}.card .l{font-size:.75rem;color:#666}\
.caption{color:#666;font-size:.85rem;margin:.2rem 0}\
table{border-collapse:collapse;width:100%}th,td{border:1px solid #ddd;padding:.25rem .5rem;text-align:left}\
th{cursor:pointer;background:#f5f5f5;user-select:none}th:hover{background:#e8e8e8}\
tfoot td{font-weight:600;background:#fafafa}\
.empty{color:#999;font-style:italic}\
#tl-rows{position:relative;overflow-x:auto;border:1px solid #ddd;padding:.4rem 0;background:#fafafa}\
.tl-row{position:relative;height:16px;margin:2px 0}\
.tl-span{position:absolute;height:14px;background:#66aa55;border-radius:2px;min-width:1px}\
.tl-controls{margin:.4rem 0}.tl-controls button{margin-right:.3rem}\
svg{max-width:100%;height:auto}";

const SCRIPT: &str = "\
(function(){\
var tbl=document.getElementById('attr');\
if(tbl){var dir={};tbl.tHead.addEventListener('click',function(e){\
var th=e.target.closest('th');if(!th)return;\
var col=+th.dataset.col,num=!!th.dataset.num;dir[col]=-(dir[col]||-1);var d=dir[col];\
var body=tbl.tBodies[0];var rows=Array.prototype.slice.call(body.rows);\
rows.sort(function(a,b){var x=a.cells[col].dataset.v,y=b.cells[col].dataset.v;\
if(num){return d*(parseFloat(x)-parseFloat(y));}return d*x.localeCompare(y);});\
rows.forEach(function(r){body.appendChild(r);});});}\
var tr=document.getElementById('trace-data');\
if(tr){var spans=[];try{\
(JSON.parse(tr.textContent).traceEvents||[]).forEach(function(ev){\
if(ev.ph==='X'&&ev.name==='zone_solve'){spans.push(ev);}});\
}catch(e){spans=[];}\
var rows=document.getElementById('tl-rows'),info=document.getElementById('tl-info');\
if(rows&&spans.length){var zoom=1;\
var t0=Infinity,t1=0;spans.forEach(function(s){t0=Math.min(t0,s.ts);t1=Math.max(t1,s.ts+s.dur);});\
var tids=[];spans.forEach(function(s){if(tids.indexOf(s.tid)<0)tids.push(s.tid);});tids.sort();\
var draw=function(){rows.innerHTML='';\
var scale=zoom*780/Math.max(1,t1-t0);\
tids.forEach(function(tid){var row=document.createElement('div');row.className='tl-row';\
row.style.width=((t1-t0)*scale)+'px';\
spans.forEach(function(s){if(s.tid!==tid)return;\
var d=document.createElement('div');d.className='tl-span';\
d.style.left=((s.ts-t0)*scale)+'px';d.style.width=Math.max(1,s.dur*scale)+'px';\
d.title='zone '+(s.args&&s.args.zone)+': '+s.dur+' \\u00b5s';row.appendChild(d);});\
rows.appendChild(row);});\
info.textContent=spans.length+' zone solves over '+((t1-t0)/1000).toFixed(1)+' ms, zoom '+zoom.toFixed(1)+'\\u00d7';};\
document.getElementById('tl-zin').addEventListener('click',function(){zoom*=1.5;draw();});\
document.getElementById('tl-zout').addEventListener('click',function(){zoom/=1.5;draw();});\
draw();}else if(rows){rows.innerHTML='<p class=\"empty\">no zone-solve spans in trace</p>';}}\
})();";

/// Renders the full report page. The output references nothing outside
/// itself — no external stylesheets, scripts, fonts, or images.
#[must_use]
pub fn render_html(inputs: &ReportInputs<'_>) -> String {
    let report = inputs.report;
    let mut out = String::with_capacity(64 << 10);
    let _ = write!(
        out,
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\
         <title>{title}</title><style>{STYLE}</style></head><body>\
         <h1>{title}</h1>\
         <p class=\"caption\">wavemin run report &#183; schema v{schema}</p>",
        title = esc(inputs.title),
        schema = report.schema_version,
    );
    out.push_str(&summary_cards(report));

    if !report.histograms.is_empty() {
        out.push_str("<section><h2>Distributions</h2>");
        for (name, hist) in report.histograms.named() {
            if hist.count > 0 {
                out.push_str(&histogram_section(name, hist));
            }
        }
        out.push_str("</section>");
    }

    out.push_str(&attribution_section(report));

    if let Some(svg) = inputs.waveform_svg {
        let _ = write!(out, "<section><h2>Rail currents</h2>{svg}</section>");
    }
    if let Some(svg) = inputs.tree_svg {
        let _ = write!(
            out,
            "<section><h2>Clock tree</h2><details><summary>show tree</summary>{svg}</details></section>"
        );
    }
    if let Some(trace) = inputs.trace_json {
        let _ = write!(
            out,
            "<section><h2>Zone-solve timeline</h2>\
             <div class=\"tl-controls\"><button id=\"tl-zin\">zoom in</button>\
             <button id=\"tl-zout\">zoom out</button> <span id=\"tl-info\"></span></div>\
             <div id=\"tl-rows\"></div>\
             <script type=\"application/json\" id=\"trace-data\">{}</script></section>",
            embed_json(trace)
        );
    }

    let report_json = serde_json::to_string(report).unwrap_or_else(|_| "{}".to_string());
    let _ = write!(
        out,
        "<section><h2>Raw report</h2>\
         <p class=\"caption\">the full machine-readable run report is embedded below</p>\
         <script type=\"application/json\" id=\"run-report\">{}</script></section>",
        embed_json(&report_json)
    );
    let _ = write!(out, "<script>{SCRIPT}</script></body></html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Contribution, MetricsRegistry, PeakAttribution, ReportContext};

    fn sample_report() -> RunReport {
        let r = MetricsRegistry::enabled();
        r.ensure_zones(2);
        for labels in [5_u64, 9, 40] {
            r.record_zone_solve(
                (labels % 2) as usize,
                &crate::observe::ZoneSolveRecord {
                    stats: wavemin_mosp::SolveStats {
                        labels_created: labels,
                        labels_pruned: labels / 2,
                        work: labels * 3,
                        front_size: 2,
                        dominance_checks: labels * 4,
                        dominance_skipped: labels,
                    },
                    exhausted: false,
                    arena_arcs: 10,
                    arena_unique_weights: 4,
                    wall_ns: 1_000 * labels,
                },
            );
        }
        let mut report = r.report(&ReportContext::default()).expect("enabled");
        report.attribution = Some(PeakAttribution {
            mode: 0,
            rail: "vdd".to_string(),
            edge: "rise".to_string(),
            time_ps: 103.25,
            peak_ma: 0.1 + 0.2 + 0.30000000000000004,
            contributions: vec![
                Contribution {
                    node: 7,
                    cell: "BUF_X8".to_string(),
                    kind: "sink".to_string(),
                    amps_ma: 0.30000000000000004,
                },
                Contribution {
                    node: 3,
                    cell: "INV_X4 <weird> \"name\"".to_string(),
                    kind: "sink".to_string(),
                    amps_ma: 0.2,
                },
                Contribution {
                    node: 1,
                    cell: "BUF_X16".to_string(),
                    kind: "nonleaf".to_string(),
                    amps_ma: 0.1,
                },
            ],
        });
        report
    }

    #[test]
    fn report_is_self_contained() {
        let report = sample_report();
        let html = render_html(&ReportInputs {
            title: "s15850 run",
            report: &report,
            waveform_svg: Some("<svg xmlns=\"http://www.w3.org/2000/svg\"></svg>"),
            tree_svg: None,
            trace_json: Some(
                r#"{"traceEvents":[{"ph":"X","name":"zone_solve","tid":0,"ts":1,"dur":5,"args":{"zone":0}}]}"#,
            ),
        });
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>"));
        // No external references: every URL-ish string must be the SVG
        // namespace (an identifier, never fetched).
        for needle in ["http://", "https://"] {
            for (i, _) in html.match_indices(needle) {
                let ctx = &html[i.saturating_sub(40)..(i + 40).min(html.len())];
                assert!(
                    ctx.contains("www.w3.org"),
                    "external reference in report: ...{ctx}..."
                );
            }
        }
        assert!(!html.contains("href="), "no external links");
        assert!(!html.contains("src="), "no external resources");
    }

    #[test]
    fn embedded_report_json_round_trips() {
        let report = sample_report();
        let html = render_html(&ReportInputs {
            title: "t",
            report: &report,
            waveform_svg: None,
            tree_svg: None,
            trace_json: None,
        });
        let start = html
            .find("<script type=\"application/json\" id=\"run-report\">")
            .expect("embedded report");
        let rest = &html[start..];
        let open = rest.find('>').expect("tag end") + 1;
        let close = rest.find("</script>").expect("close tag");
        let json = &rest[open..close];
        assert!(
            !json.contains('<'),
            "embedded JSON must not contain a raw '<'"
        );
        let back = RunReport::from_json(json).expect("decode embedded report");
        assert_eq!(back, report, "embedding must be lossless");
    }

    #[test]
    fn attribution_total_matches_the_report_exactly() {
        let report = sample_report();
        let html = render_html(&ReportInputs {
            title: "t",
            report: &report,
            waveform_svg: None,
            tree_svg: None,
            trace_json: None,
        });
        let marker = "id=\"attr-total\" data-v=\"";
        let start = html.find(marker).expect("total cell") + marker.len();
        let end = start + html[start..].find('"').expect("attr end");
        let total: f64 = html[start..end].parse().expect("parse total");
        let peak = report.attribution.as_ref().expect("attribution").peak_ma;
        assert!(
            (total - peak).abs() < 1e-9,
            "rendered total {total} vs report {peak}"
        );
        assert_eq!(
            total.to_bits(),
            peak.to_bits(),
            "shortest round-trip rendering is exact"
        );
        // Cell names with HTML metacharacters are escaped in the table.
        assert!(html.contains("INV_X4 &lt;weird&gt; &quot;name&quot;"));
        assert!(!html.contains("INV_X4 <weird>"));
    }

    #[test]
    fn histograms_render_with_quantile_captions() {
        let report = sample_report();
        let html = render_html(&ReportInputs {
            title: "t",
            report: &report,
            waveform_svg: None,
            tree_svg: None,
            trace_json: None,
        });
        assert!(html.contains("<h3>zone_solve_ns</h3>"), "histogram section");
        assert!(html.contains("p99&#8804;"), "quantile caption");
        assert!(
            !html.contains("<h3>job_wall_ns</h3>"),
            "empty histograms are skipped"
        );
    }
}
