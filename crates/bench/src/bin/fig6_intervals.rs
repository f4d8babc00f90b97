//! Fig. 6 / Fig. 9 / Fig. 11 / Table IV — the feasible-interval grid, the
//! WaveMin → MOSP conversion, and the multi-mode interval intersection
//! feasibility table, on small four-sink instances.
//!
//! Prints the arrival-time grid (each dot of Fig. 6 is a (sink, cell)
//! arrival), the feasible intervals with their degrees of freedom, and the
//! size of the MOSP graph Algorithm 1 would build for the best interval.
//!
//! Usage: `fig6_intervals [seed] [--json out.json]`

use serde::Serialize;
use wavemin::prelude::*;
use wavemin::report::{fmt, render_table};
use wavemin_bench::ExperimentArgs;
use wavemin_cells::units::{Femtofarads, Microns, Volts};

#[derive(Serialize)]
struct IntervalRecord {
    t_lo_ps: f64,
    t_hi_ps: f64,
    degree_of_freedom: usize,
}

fn main() {
    let args = ExperimentArgs::parse();
    // Four sinks with staggered wire lengths (like Fig. 5's arrival times
    // 69/70/71/70).
    let mut tree = ClockTree::new(Point::new(0.0, 0.0), "BUF_X16");
    for (i, len) in [40.0, 70.0, 100.0, 70.0].iter().enumerate() {
        tree.add_leaf(
            tree.root(),
            Point::new(20.0 + 10.0 * i as f64, 20.0),
            "BUF_X8",
            Microns::new(*len),
            Femtofarads::new(4.0 + i as f64),
        );
    }
    let design = Design::new(
        tree,
        CellLibrary::nangate45(),
        PowerDesign::uniform(Volts::new(1.1)),
    );
    let config = WaveMinConfig::default();
    let table = NoiseTable::build(&design, &config, 0).expect("noise table");

    println!("Arrival-time grid (rows = sinks, one dot per candidate cell):\n");
    let mut rows = Vec::new();
    for (i, sink) in table.sinks.iter().enumerate() {
        let mut row = vec![format!("e{}", i + 1)];
        for opt in &sink.options {
            row.push(format!("{}@{:.1}", opt.cell, opt.arrival.value()));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(&["sink", "opt1", "opt2", "opt3", "opt4"], &rows)
    );

    let set = IntervalSet::generate(&table, config.skew_bound, None);
    println!("feasible intervals (κ = {}):\n", config.skew_bound);
    let mut irows = Vec::new();
    let mut records = Vec::new();
    for iv in set.intervals() {
        irows.push(vec![
            format!("[{:.1}, {:.1}]", iv.t_lo.value(), iv.t_hi.value()),
            iv.degree_of_freedom().to_string(),
            iv.allowed
                .iter()
                .map(|a| a.len().to_string())
                .collect::<Vec<_>>()
                .join("/"),
        ]);
        records.push(IntervalRecord {
            t_lo_ps: iv.t_lo.value(),
            t_hi_ps: iv.t_hi.value(),
            degree_of_freedom: iv.degree_of_freedom(),
        });
    }
    println!(
        "{}",
        render_table(&["interval (ps)", "DoF", "allowed per sink"], &irows)
    );

    if let Some(best) = set.intervals().first() {
        // Fig. 9: the MOSP graph for this interval has one vertex per
        // allowed (sink, cell) pair plus src/dest; a vertex in row i has
        // an incoming arc from every vertex in row i−1.
        let vertices: usize = best.degree_of_freedom() + 2;
        let mut arcs = best.allowed[0].len(); // src -> row 1
        for w in best.allowed.windows(2) {
            arcs += w[0].len() * w[1].len();
        }
        arcs += best.allowed.last().map_or(0, Vec::len); // -> dest
        println!(
            "MOSP graph for the best interval: {} vertices, {} arcs, weight dimension |S| = {}",
            vertices,
            arcs,
            config.effective_sample_count()
        );
        println!(
            "{}",
            render_table(
                &["row", "columns (allowed cells)"],
                &best
                    .allowed
                    .iter()
                    .enumerate()
                    .map(|(i, a)| vec![
                        format!("e{}", i + 1),
                        a.iter()
                            .map(|&o| table.sinks[i].options[o].cell.clone())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ])
                    .collect::<Vec<_>>(),
            )
        );
        let _ = fmt(0.0, 0);
    }

    // --- Fig. 11 / Table IV: two-power-mode intersections ----------------
    println!("\nFig. 11 / Table IV — interval intersection across two power modes\n");
    let mm = Design::from_benchmark_multimode_levels(
        &Benchmark::s15850(),
        args.seed,
        2,
        2,
        wavemin_cells::units::Volts::new(0.9),
        wavemin_cells::units::Volts::new(1.1),
    );
    let mut mm_cfg =
        WaveMinConfig::default().with_skew_bound(wavemin_cells::units::Picoseconds::new(30.0));
    mm_cfg.window_margin = 1.0;
    let tables: Vec<NoiseTable> = (0..2)
        .map(|m| NoiseTable::build(&mm, &mm_cfg, m).expect("table"))
        .collect();
    match wavemin::multimode::IntersectionSet::generate(&mm_cfg, &tables, 6) {
        Ok(set) => {
            println!(
                "{} feasible intersections (beam 6); per-sink feasibility of the best:\n",
                set.len()
            );
            let best = &set.intersections()[0];
            let mut frows = Vec::new();
            for (si, allowed) in best.allowed.iter().enumerate().take(6) {
                let marks: Vec<String> = tables[0].sinks[si]
                    .options
                    .iter()
                    .enumerate()
                    .map(|(oi, o)| {
                        format!(
                            "{}:{}",
                            o.cell,
                            if allowed.contains(&oi) {
                                "fsbl"
                            } else {
                                "infsbl"
                            }
                        )
                    })
                    .collect();
                frows.push(vec![format!("e{}", si + 1), marks.join("  ")]);
            }
            println!(
                "{}",
                render_table(&["sink", "candidate feasibility (Table IV style)"], &frows)
            );
            println!(
                "windows: M1 [{:.1}, {:.1}]  M2 [{:.1}, {:.1}]  DoF {}",
                best.windows[0].0.value(),
                best.windows[0].1.value(),
                best.windows[1].0.value(),
                best.windows[1].1.value(),
                best.degree_of_freedom()
            );
        }
        Err(e) => println!("no feasible intersection at κ = 30 ps: {e}"),
    }
    args.persist(&records);
}
