//! Deterministic fault injection for exercising the containment layer.
//!
//! A [`FaultPlan`] is a seeded, rate-controlled schedule of synthetic
//! faults — worker panics, forced budget exhaustion, NaN-poisoned cost
//! vectors — fired at fixed hook sites inside the zone solver. Whether a
//! given site fires is a *pure function* of `(seed, site)`: there is no
//! global counter and no RNG state, so the schedule is identical across
//! thread counts, solve orders, and reruns. That is the property the
//! chaos suite relies on: a seed that leaves the tier-1 suite green today
//! leaves it green forever.
//!
//! Plans come from the `WAVEMIN_FAULTS=seed:rate` environment variable
//! (read once, so a CI job can blanket an entire test run) or the CLI's
//! `--fault-plan seed:rate` flag. Production runs carry no plan and pay
//! only an `Option` check per zone.
//!
//! Salvage retries — the recovery path a fired fault triggers — run
//! injection-free by construction: the fault layer tests recovery, it
//! does not chase it.

use serde::Serialize;
use std::sync::OnceLock;
use wavemin_mosp::{Budget, Exhaustion, SolveObserver};

/// Environment variable consulted (once) for a process-wide fault plan;
/// grammar `seed:rate` (e.g. `42:0.001`).
pub const FAULT_ENV: &str = "WAVEMIN_FAULTS";

/// Marker prefix carried by every injected panic payload, so containment
/// and logs can tell synthetic faults from real ones.
pub const INJECTED_MARKER: &str = "injected fault";

/// A seeded, rate-controlled schedule of synthetic faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Seed mixed into every site hash.
    pub seed: u64,
    /// Per-site firing probability in `(0, 1]`.
    pub rate: f64,
}

/// A hook site where a plan may fire. Each variant hashes differently,
/// so the same zone can draw different outcomes at different sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Cost-vector ingest for one zone (fires a NaN poison).
    ZoneIngest {
        /// The zone whose vectors are poisoned.
        zone: usize,
    },
    /// A zone worker's solve entry (fires a panic).
    ZoneSolve {
        /// The zone whose worker panics.
        zone: usize,
    },
    /// One vertex expansion inside the MOSP dynamic program (fires a
    /// panic or a forced budget exhaustion, chosen by the site hash).
    Layer {
        /// The zone being solved.
        zone: usize,
        /// The expanded vertex.
        vertex: usize,
    },
}

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an [`INJECTED_MARKER`] payload.
    Panic,
    /// Arm the shared budget's one-shot exhaustion latch.
    ExhaustBudget,
    /// Overwrite one cost component with NaN (caught by the kernels'
    /// ingest guard, never silently propagated).
    PoisonNan,
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parses the `seed:rate` grammar.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending part when the string is not
    /// `<u64>:<f64 in (0, 1]>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (seed_s, rate_s) = s
            .split_once(':')
            .ok_or_else(|| format!("fault plan '{s}' is not 'seed:rate'"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| format!("fault plan seed '{seed_s}' is not a u64"))?;
        let rate: f64 = rate_s
            .trim()
            .parse()
            .map_err(|_| format!("fault plan rate '{rate_s}' is not a number"))?;
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return Err(format!("fault plan rate {rate} must be in (0, 1]"));
        }
        Ok(Self { seed, rate })
    }

    /// The process-wide plan from [`FAULT_ENV`], read once. An unset
    /// variable yields `None`; a malformed one is reported to stderr once
    /// and ignored (chaos tooling should fail loud, not corrupt runs).
    pub fn from_env() -> Option<Self> {
        static FROM_ENV: OnceLock<Option<FaultPlan>> = OnceLock::new();
        *FROM_ENV.get_or_init(|| match std::env::var(FAULT_ENV) {
            Err(_) => None,
            Ok(v) => match Self::parse(&v) {
                Ok(p) => Some(p),
                Err(why) => {
                    eprintln!("warning: ignoring {FAULT_ENV}: {why}");
                    None
                }
            },
        })
    }

    /// The plan's uniform hash for `site` — pure in `(seed, site)`.
    #[must_use]
    fn site_hash(&self, site: FaultSite) -> u64 {
        let (disc, a, b) = match site {
            FaultSite::ZoneIngest { zone } => (0x01, zone as u64, 0),
            FaultSite::ZoneSolve { zone } => (0x02, zone as u64, 0),
            FaultSite::Layer { zone, vertex } => (0x03, zone as u64, vertex as u64),
        };
        mix(mix(mix(self.seed ^ disc) ^ a) ^ b)
    }

    /// Whether `site` fires under this plan, and with what effect.
    /// Deterministic: the same `(seed, site)` always answers the same.
    #[must_use]
    pub fn decide(&self, site: FaultSite) -> Option<FaultKind> {
        let h = self.site_hash(site);
        // Map the hash onto [0, 1) and compare against the rate; the
        // division is exact enough that the decision is stable across
        // platforms (both operands are well inside f64 range).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        Some(match site {
            FaultSite::ZoneIngest { .. } => FaultKind::PoisonNan,
            FaultSite::ZoneSolve { .. } => FaultKind::Panic,
            // Split the layer sites between the two dynamic faults on an
            // independent hash bit.
            FaultSite::Layer { .. } => {
                if mix(h) & 1 == 0 {
                    FaultKind::Panic
                } else {
                    FaultKind::ExhaustBudget
                }
            }
        })
    }

    /// Panics with an [`INJECTED_MARKER`] payload describing `site`.
    /// Factored so every injected panic is grep-ably uniform.
    pub fn fire_panic(&self, site: FaultSite) -> ! {
        panic!(
            "{INJECTED_MARKER}: {site:?} (seed {seed}, rate {rate})",
            seed = self.seed,
            rate = self.rate
        )
    }
}

/// A [`SolveObserver`] that fires [`FaultSite::Layer`] faults at every
/// vertex expansion, then forwards the event to an optional inner
/// observer (the trace journal). Constructed by the zone solver whenever
/// a plan is active — even when tracing is off, so chaos runs exercise
/// the untraced path too.
pub struct FaultObserver<'a> {
    plan: FaultPlan,
    zone: usize,
    budget: &'a Budget,
    inner: Option<&'a mut dyn SolveObserver>,
}

impl<'a> FaultObserver<'a> {
    /// Wraps `inner` (may be `None`) with layer-site injection for `zone`.
    pub fn new(
        plan: FaultPlan,
        zone: usize,
        budget: &'a Budget,
        inner: Option<&'a mut dyn SolveObserver>,
    ) -> Self {
        Self {
            plan,
            zone,
            budget,
            inner,
        }
    }
}

impl SolveObserver for FaultObserver<'_> {
    fn now_ns(&mut self) -> u64 {
        self.inner.as_mut().map_or(0, |o| o.now_ns())
    }

    fn layer_span(&mut self, start_ns: u64, vertex: usize, labels: usize) {
        let site = FaultSite::Layer {
            zone: self.zone,
            vertex,
        };
        match self.plan.decide(site) {
            Some(FaultKind::Panic) => self.plan.fire_panic(site),
            Some(FaultKind::ExhaustBudget) => self.budget.inject_exhaustion(),
            Some(FaultKind::PoisonNan) | None => {}
        }
        if let Some(o) = self.inner.as_mut() {
            o.layer_span(start_ns, vertex, labels);
        }
    }

    fn batch_span(
        &mut self,
        start_ns: u64,
        vertex: usize,
        target: usize,
        attempts: u64,
        pruned: u64,
    ) {
        if let Some(o) = self.inner.as_mut() {
            o.batch_span(start_ns, vertex, target, attempts, pruned);
        }
    }

    fn cap_evictions(&mut self, vertex: usize, count: u64) {
        if let Some(o) = self.inner.as_mut() {
            o.cap_evictions(vertex, count);
        }
    }

    fn budget_exhausted(&mut self, reason: Exhaustion) {
        if let Some(o) = self.inner.as_mut() {
            o.budget_exhausted(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_grammar_and_rejects_garbage() {
        let p = FaultPlan::parse("42:0.25").expect("valid plan");
        assert_eq!(p.seed, 42);
        assert!((p.rate - 0.25).abs() < 1e-12);
        assert!(
            FaultPlan::parse(" 7 : 1.0 ").is_ok(),
            "whitespace tolerated"
        );
        for bad in [
            "", "42", "x:0.5", "42:abs", "42:0", "42:-0.1", "42:1.5", "42:nan",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_site_sensitive() {
        let p = FaultPlan { seed: 1, rate: 0.5 };
        for zone in 0..64 {
            let site = FaultSite::ZoneSolve { zone };
            assert_eq!(p.decide(site), p.decide(site), "zone {zone} must be stable");
        }
        // With rate 1 every site fires, with the kind fixed by the site.
        let all = FaultPlan { seed: 9, rate: 1.0 };
        assert_eq!(
            all.decide(FaultSite::ZoneIngest { zone: 3 }),
            Some(FaultKind::PoisonNan)
        );
        assert_eq!(
            all.decide(FaultSite::ZoneSolve { zone: 3 }),
            Some(FaultKind::Panic)
        );
        assert!(matches!(
            all.decide(FaultSite::Layer { zone: 3, vertex: 8 }),
            Some(FaultKind::Panic | FaultKind::ExhaustBudget)
        ));
    }

    #[test]
    fn rate_controls_fire_frequency() {
        let p = FaultPlan {
            seed: 1234,
            rate: 0.1,
        };
        let fired = (0..10_000)
            .filter(|&z| p.decide(FaultSite::ZoneSolve { zone: z }).is_some())
            .count();
        // 10% ± generous slack for a deterministic hash sequence.
        assert!((500..2_000).contains(&fired), "fired {fired} of 10000");
        // Different seeds reshuffle which sites fire.
        let q = FaultPlan {
            seed: 4321,
            rate: 0.1,
        };
        let overlap = (0..10_000)
            .filter(|&z| {
                p.decide(FaultSite::ZoneSolve { zone: z }).is_some()
                    && q.decide(FaultSite::ZoneSolve { zone: z }).is_some()
            })
            .count();
        assert!(
            overlap < fired,
            "seeds must not reproduce the same schedule"
        );
    }

    #[test]
    fn layer_observer_arms_the_budget_latch() {
        // rate 1.0: every layer site fires; sweep vertices until one
        // draws ExhaustBudget and check the latch armed.
        let plan = FaultPlan { seed: 2, rate: 1.0 };
        let budget = Budget::unlimited().and_work_cap(1 << 30);
        let mut obs = FaultObserver::new(plan, 0, &budget, None);
        let vertex = (0..64)
            .find(|&v| {
                matches!(
                    plan.decide(FaultSite::Layer { zone: 0, vertex: v }),
                    Some(FaultKind::ExhaustBudget)
                )
            })
            .expect("some vertex draws ExhaustBudget at rate 1");
        obs.layer_span(0, vertex, 1);
        assert_eq!(
            budget.exhausted(),
            Some(Exhaustion::WorkCapReached),
            "latch must be armed"
        );
        assert_eq!(budget.exhausted(), None, "and one-shot");
    }

    #[test]
    fn injected_panics_carry_the_marker() {
        let plan = FaultPlan { seed: 3, rate: 1.0 };
        let site = FaultSite::ZoneSolve { zone: 5 };
        let err =
            std::panic::catch_unwind(|| plan.fire_panic(site)).expect_err("fire_panic must panic");
        let payload = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(payload.contains(INJECTED_MARKER), "payload: {payload}");
        assert!(payload.contains("zone: 5"), "payload: {payload}");
    }
}
