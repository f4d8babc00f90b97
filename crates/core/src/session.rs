//! The long-lived session API: characterize once, solve repeatedly.
//!
//! Every CLI invocation used to re-characterize the design, regenerate
//! the feasible intervals, and rebuild every zone problem just to run one
//! solve. A [`CharacterizedDesign`] holds all of that resident — the
//! `Design` → `CharacterizedDesign` → repeated [`CharacterizedDesign::solve`]
//! split that serve mode ([`crate::serve`]) builds its job queue on.
//!
//! Incremental re-solves come from [`ZoneCache`]: solves keyed through
//! the per-zone content-hash chain (see [`crate::checkpoint`]) publish
//! into the shared cache, and a later session over an edited design
//! re-solves only the zones whose content (or upstream history) actually
//! changed, splicing everything else bit-for-bit. The `zones_reused`
//! counter in the run report surfaces how much was spliced.

use crate::algo::clkwavemin::solve_single_mode;
use crate::algo::{characterize_design, Outcome, PreparedRun};
use crate::checkpoint::ZoneCache;
use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::observe::Instruments;
use wavemin_clocktree::NodeId;

/// Per-job knobs a session solve may vary without re-characterizing.
///
/// Everything that shapes the characterized data (skew bound, sample
/// count, cell list, zone pitch...) is fixed at
/// [`CharacterizedDesign::new`]; a job may only adjust run plumbing and
/// the resource budget.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Per-job wall-clock budget in milliseconds (`None` = the session
    /// config's budget). A budgeted job uses its own cache key space:
    /// the budget is semantic (it changes solve results through the
    /// degradation ladder), so differently-budgeted jobs never share
    /// cached zones.
    pub time_budget_ms: Option<u64>,
    /// Worker-thread override for this job (`None` = the session
    /// config's threads).
    pub threads: Option<usize>,
    /// Collect a [`crate::observe::RunReport`] for this job (read by
    /// [`CharacterizedDesign::solve`] and
    /// [`CharacterizedDesign::solve_cached`];
    /// [`CharacterizedDesign::solve_instrumented`] reports through the
    /// caller's [`Instruments`] instead).
    pub collect_metrics: bool,
}

/// A design characterized once and held resident for repeated solves:
/// the noise table with every candidate's waveforms, the feasible
/// intervals, and the zone partition with per-zone content hashes.
pub struct CharacterizedDesign {
    design: Design,
    config: WaveMinConfig,
    prep: PreparedRun,
}

impl CharacterizedDesign {
    /// Validates and characterizes `design` under `config` (mode 0; the
    /// multi-mode flow manages its own per-mode characterization and is
    /// not session-cached).
    ///
    /// # Errors
    ///
    /// Validation errors, characterization failures, or
    /// [`WaveMinError::NoFeasibleInterval`] when no interval satisfies
    /// the skew bound — an infeasible design fails at session creation,
    /// not at the first job.
    pub fn new(design: Design, config: WaveMinConfig) -> Result<Self, WaveMinError> {
        config.validate()?;
        design.validate()?;
        let prep = characterize_design(&design, &config, &Instruments::disabled())?;
        Ok(Self {
            design,
            config,
            prep,
        })
    }

    /// The characterized design.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &WaveMinConfig {
        &self.config
    }

    /// Number of zones in the partition.
    #[must_use]
    pub fn zone_count(&self) -> usize {
        self.prep.zones.len()
    }

    /// Number of feasible intervals held resident.
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.prep.intersections.len()
    }

    /// Number of characterized sinks.
    #[must_use]
    pub fn sink_count(&self) -> usize {
        self.prep.tables[0].sinks.len()
    }

    /// A sink in the zone solved *last* (the smallest zone in the
    /// largest-first order) — the highest-reuse target for an ECO edit
    /// demo: trimming this sink leaves every earlier zone's content and
    /// chain history unchanged in intervals anchored on other sinks'
    /// arrivals, so a cached re-solve reuses them all.
    #[must_use]
    pub fn eco_probe_sink(&self) -> Option<NodeId> {
        self.prep
            .zone_order
            .iter()
            .rev()
            .find_map(|&z| self.prep.zones.spec(z).sinks.first())
            .map(|&si| self.prep.tables[0].sinks[si].node)
    }

    /// Solves the session's resident problem with no shared cache.
    ///
    /// # Errors
    ///
    /// Same as [`crate::prelude::ClkWaveMin::run`].
    pub fn solve(&self, opts: &SolveOptions) -> Result<Outcome, WaveMinError> {
        let ins = Instruments::from_config(&self.job_config(opts));
        self.solve_instrumented(None, opts, &ins)
    }

    /// Solves against a shared [`ZoneCache`]: zone solutions already
    /// published under matching content-hash chain keys are spliced
    /// bit-for-bit (`zones_reused` in the report counts them), fresh
    /// solves are published for later jobs, and concurrent jobs racing
    /// onto the same zone dedup through the cache's in-flight
    /// reservations.
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_cached(
        &self,
        cache: &ZoneCache,
        opts: &SolveOptions,
    ) -> Result<Outcome, WaveMinError> {
        let ins = Instruments::from_config(&self.job_config(opts));
        self.solve_instrumented(Some(cache), opts, &ins)
    }

    /// Solves the session's problem (against `cache` when given, see
    /// [`Self::solve_cached`]) observed through the caller's
    /// [`Instruments`], which replace `opts.collect_metrics`. Observation
    /// only — results are bit-identical to [`Self::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve`].
    pub fn solve_instrumented(
        &self,
        cache: Option<&ZoneCache>,
        opts: &SolveOptions,
        ins: &Instruments,
    ) -> Result<Outcome, WaveMinError> {
        let config = self.job_config(opts);
        // Cache keys chain from the job's semantic config (plumbing
        // normalized out; see `solve_prepared`), so jobs on different
        // budgets or bounds key into disjoint regions of the shared cache
        // while identical jobs share fully. Note the caveat this inherits from the checkpoint
        // scheme: the degradation ladder's rung at solve time is not a
        // key input, so a budgeted job that degraded mid-run publishes
        // rung-dependent results under its budget's keys.
        solve_single_mode(
            &self.design,
            &config,
            &self.prep,
            config.budget(),
            cache,
            ins,
        )
    }

    /// The effective per-job config: the session config with the job's
    /// plumbing/budget overrides applied.
    fn job_config(&self, opts: &SolveOptions) -> WaveMinConfig {
        let mut cfg = self.config.clone();
        if opts.time_budget_ms.is_some() {
            cfg.time_budget_ms = opts.time_budget_ms;
        }
        if opts.threads.is_some() {
            cfg.threads = opts.threads;
        }
        cfg.collect_metrics = cfg.collect_metrics || opts.collect_metrics;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::Benchmark;

    fn small_design() -> Design {
        Design::from_benchmark(&Benchmark::s15850(), 11)
    }

    #[test]
    fn session_solve_matches_one_shot_run() {
        let design = small_design();
        let config = WaveMinConfig::default();
        let one_shot = crate::prelude::ClkWaveMin::new(config.clone())
            .run(&design)
            .expect("one-shot run");
        let session = CharacterizedDesign::new(design, config).expect("characterize");
        let out = session
            .solve(&SolveOptions::default())
            .expect("session solve");
        assert_eq!(
            out.peak_after.value().to_bits(),
            one_shot.peak_after.value().to_bits(),
            "session split must not change results"
        );
        assert_eq!(out.assignment, one_shot.assignment);
    }

    #[test]
    fn repeated_cached_solves_reuse_every_zone() {
        let design = small_design();
        let session =
            CharacterizedDesign::new(design, WaveMinConfig::default()).expect("characterize");
        let cache = ZoneCache::new(64 << 20);
        let opts = SolveOptions {
            collect_metrics: true,
            ..SolveOptions::default()
        };
        let warm = session.solve_cached(&cache, &opts).expect("warm solve");
        let warm_report = warm.report.as_ref().expect("report");
        assert!(warm_report.counters.zone_solves > 0);
        assert_eq!(warm_report.counters.zones_reused, 0);

        let hot = session.solve_cached(&cache, &opts).expect("hot solve");
        let hot_report = hot.report.as_ref().expect("report");
        assert_eq!(
            hot_report.counters.zone_solves, 0,
            "a repeat job must not re-solve anything"
        );
        assert_eq!(
            hot_report.counters.zones_reused, warm_report.counters.zone_solves,
            "every zone solve is served from the cache"
        );
        assert_eq!(
            hot.peak_after.value().to_bits(),
            warm.peak_after.value().to_bits()
        );
        assert_eq!(hot.assignment, warm.assignment);
    }

    /// Solves one session with an unlimited zone store, then again with
    /// a store that holds about one zone, and asserts the residency
    /// never shows in the results.
    fn assert_residency_invisible(design: Design, config: WaveMinConfig, label: &str) {
        let session = CharacterizedDesign::new(design, config).expect("characterize");
        assert_session_residency_invisible(session, label);
    }

    fn assert_session_residency_invisible(mut session: CharacterizedDesign, label: &str) {
        let opts = SolveOptions {
            collect_metrics: true,
            ..SolveOptions::default()
        };
        let unlimited = session.solve(&opts).expect("unlimited solve");
        let zones = &session.prep.zones;
        let one_zone = (0..zones.len())
            .map(|z| zones.hot_bytes(z, &session.prep.tables))
            .max()
            .unwrap_or(0);
        session.prep.zones.reset(one_zone.max(1));
        let tight = session.solve(&opts).expect("tight solve");

        assert_eq!(
            unlimited.assignment, tight.assignment,
            "{label}: assignment"
        );
        assert_eq!(
            unlimited.estimated_cost.to_bits(),
            tight.estimated_cost.to_bits(),
            "{label}: cost bits"
        );
        assert_eq!(unlimited.peak_after, tight.peak_after, "{label}: peak");
        assert_eq!(unlimited.skew_after, tight.skew_after, "{label}: skew");
        assert_eq!(
            unlimited.intervals_tried, tight.intervals_tried,
            "{label}: intervals"
        );
        assert_eq!(
            unlimited.degenerate_zones, tight.degenerate_zones,
            "{label}: degenerate zones"
        );
        assert_eq!(
            unlimited.faulted_zones, tight.faulted_zones,
            "{label}: faulted zones"
        );
        let (u, t) = (
            unlimited.report.expect("unlimited report"),
            tight.report.expect("tight report"),
        );
        u.validate().expect("unlimited report consistency");
        t.validate().expect("tight report consistency");
        assert_eq!(u.counters.zones_spilled, 0, "{label}: unlimited spilled");
        assert!(
            t.counters.zones_spilled > 0,
            "{label}: tight store never spilled"
        );
        assert!(
            t.counters.zone_recomputes <= t.counters.zones_spilled,
            "{label}: recomputes without spills"
        );
        assert_eq!(
            u.normalized(),
            t.normalized(),
            "{label}: normalized reports"
        );
    }

    #[test]
    fn residency_never_changes_results_across_threads() {
        for bench in [Benchmark::s15850(), Benchmark::s13207()] {
            for threads in [1, 4] {
                let mut cfg = WaveMinConfig::default()
                    .with_sample_count(16)
                    .with_threads(threads)
                    .with_fault_plan(None);
                cfg.max_intervals = Some(6);
                let design = Design::from_benchmark(&bench, 7);
                assert_residency_invisible(design, cfg, &format!("{} x{threads}", bench.name));
            }
        }
    }

    #[test]
    fn residency_never_changes_results_under_fault_injection() {
        for (seed, rate) in [(1, 1.0), (5, 0.25)] {
            let mut cfg = WaveMinConfig::default()
                .with_sample_count(12)
                .with_fault_plan(Some(crate::fault::FaultPlan { seed, rate }));
            cfg.max_intervals = Some(4);
            let design = Design::from_benchmark(&Benchmark::s15850(), 3);
            assert_residency_invisible(design, cfg, &format!("faults {seed}:{rate}"));
        }
    }

    #[test]
    fn residency_never_changes_results_on_a_scale_fixture() {
        // Hundreds of zones: the tight store evicts on nearly every acquire.
        let mut cfg = WaveMinConfig::default()
            .with_sample_count(8)
            .with_fault_plan(None);
        cfg.max_intervals = Some(3);
        let design = Design::from_benchmark(&Benchmark::scale("stream_diff", 300), 5);
        assert_residency_invisible(design, cfg, "scale300");
    }

    #[test]
    fn residency_never_changes_results_on_a_multimode_design() {
        // A session over all four modes' tables and k-window
        // intersections: the same store, now holding every mode's
        // vectors per zone.
        let design = Design::from_benchmark_multimode(&Benchmark::s15850(), 3, 4, 4);
        let config = WaveMinConfig::default()
            .with_skew_bound(wavemin_cells::units::Picoseconds::new(40.0))
            .with_sample_count(16)
            .with_fault_plan(None);
        let algo = crate::multimode::ClkWaveMinM::new(config.clone()).with_beam(8);
        let ins = Instruments::disabled();
        let mut prep = algo.prepare(&design, &ins).expect("prepare");
        prep.intersections = algo
            .intersections(&prep.tables, config.window_margin, &ins)
            .expect("four-mode intersections");
        assert_eq!(prep.tables.len(), 4);
        assert!(prep.intersections.iter().all(|x| x.windows.len() == 4));
        let session = CharacterizedDesign {
            design,
            config,
            prep,
        };
        assert_session_residency_invisible(session, "s15850 x4 modes");
    }

    #[test]
    fn eco_probe_sink_is_a_characterized_leaf() {
        let design = small_design();
        let leaves = design.leaves();
        let session =
            CharacterizedDesign::new(design, WaveMinConfig::default()).expect("characterize");
        let probe = session.eco_probe_sink().expect("probe sink");
        assert!(leaves.contains(&probe));
    }
}
