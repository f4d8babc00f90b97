//! Zone storage for the interval framework: one lazy, budget-bounded
//! store of shared zone problems.
//!
//! At million-sink scale the zones' sampled option vectors dominate
//! memory, so [`ZoneStorage`] samples a zone's vectors in every power
//! mode ([`ZoneSpec::sample_rows`]) the first time an intersection needs them
//! and keeps them resident behind an `Arc`: every later acquire is an
//! `Arc` clone. Resident zones are charged their hot bytes (summed over
//! modes) against a byte limit; past it the least-recently-used zone is
//! evicted (`zones_spilled`) and rebuilt on its next use
//! (`zone_recomputes`). Sampling is deterministic, so residency never
//! changes results, only time. Without a memory budget the limit is
//! `usize::MAX` and every zone stays resident after its first use.
//!
//! The specs stay resident in one shared, mode-major slice and each slot
//! holds only its vectors: at about one sink per zone (100k-sink trees),
//! a per-zone copy of the spec or a per-zone `Arc` header shows in the
//! process's peak RSS.
//!
//! Workers that miss on the same zone at once build it once: the first
//! claims the slot, the others wait for the install and share its `Arc`.

use super::{ZoneProblem, ZoneSpec};
use crate::noise_table::NoiseTable;
use crate::observe::{Instruments, MetricsRegistry};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The interval framework's zone store.
pub(crate) struct ZoneStorage {
    /// Every zone's spec in every mode, mode-major: zone `zi`'s mode-`m`
    /// spec is `specs[m * zones + zi]` (shared with the handed-out
    /// [`ZoneProblem`]s).
    specs: Arc<[ZoneSpec]>,
    /// Number of zones (`specs.len() / modes`).
    zones: usize,
    /// Byte budget for the resident zones' vectors.
    pub(super) limit_bytes: usize,
    state: Mutex<State>,
    /// Signalled when a slot's build finishes (installed or abandoned).
    built: Condvar,
}

struct State {
    slots: Vec<Slot>,
    /// Logical LRU clock: bumped per acquire, copied into the touched
    /// slot.
    clock: u64,
    /// Total hot bytes across all resident slots.
    bytes: usize,
}

impl State {
    fn empty(zones: usize) -> Self {
        Self {
            slots: (0..zones).map(|_| Slot::default()).collect(),
            clock: 0,
            bytes: 0,
        }
    }
}

#[derive(Default)]
struct Slot {
    vectors: Option<Arc<[Vec<f64>]>>,
    /// A worker is building this zone; others wait on `built`.
    building: bool,
    last_used: u64,
    /// Whether this zone was ever installed — a later build is a
    /// recompute, not a first build.
    ever_built: bool,
}

/// A worker's claim on one slot's build. Dropping it clears the slot's
/// `building` flag and wakes the waiters, on success and on unwind.
struct BuildClaim<'a> {
    store: &'a ZoneStorage,
    zi: usize,
}

impl Drop for BuildClaim<'_> {
    fn drop(&mut self) {
        self.store.lock().slots[self.zi].building = false;
        self.store.built.notify_all();
    }
}

impl ZoneStorage {
    /// An empty store over the mode-major `specs` of `modes` power modes
    /// that keeps at most `limit_bytes` of zone vectors resident
    /// (`usize::MAX` = keep everything).
    pub(crate) fn new(specs: Vec<ZoneSpec>, modes: usize, limit_bytes: usize) -> Self {
        let zones = specs.len() / modes.max(1);
        Self {
            specs: specs.into(),
            zones,
            limit_bytes,
            state: Mutex::new(State::empty(zones)),
            built: Condvar::new(),
        }
    }

    /// Number of zones.
    pub(crate) fn len(&self) -> usize {
        self.zones
    }

    /// The lightweight mode-0 spec of zone `zi` (always resident).
    pub(crate) fn spec(&self, zi: usize) -> &ZoneSpec {
        self.spec_in(0, zi)
    }

    /// The lightweight spec of zone `zi` in power mode `mode`.
    pub(crate) fn spec_in(&self, mode: usize, zi: usize) -> &ZoneSpec {
        &self.specs[mode * self.zones + zi]
    }

    /// Bytes zone `zi`'s vectors occupy while resident, summed over the
    /// modes of `tables`.
    pub(crate) fn hot_bytes(&self, zi: usize, tables: &[NoiseTable]) -> usize {
        tables
            .iter()
            .enumerate()
            .map(|(m, t)| self.spec_in(m, zi).hot_bytes(t))
            .sum()
    }

    /// Empties the store and sets a new byte limit.
    #[cfg(test)]
    pub(crate) fn reset(&mut self, limit_bytes: usize) {
        self.state = Mutex::new(State::empty(self.zones));
        self.limit_bytes = limit_bytes;
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Produces zone `zi` ready to solve: its resident vectors, or a
    /// fresh build when the zone is not resident.
    pub(crate) fn acquire(
        &self,
        zi: usize,
        tables: &[NoiseTable],
        ins: &Instruments,
    ) -> ZoneProblem {
        let vectors = self.vectors(zi, tables, &ins.registry);
        ZoneProblem {
            specs: Arc::clone(&self.specs),
            zi,
            zones: self.zones,
            vectors,
        }
    }

    fn vectors(
        &self,
        zi: usize,
        tables: &[NoiseTable],
        registry: &MetricsRegistry,
    ) -> Arc<[Vec<f64>]> {
        let mut state = self.lock();
        loop {
            state.clock += 1;
            let now = state.clock;
            let slot = &mut state.slots[zi];
            if let Some(vectors) = &slot.vectors {
                slot.last_used = now;
                return Arc::clone(vectors);
            }
            if !slot.building {
                slot.building = true;
                break;
            }
            state = self
                .built
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        // Build outside the lock so other workers keep hitting the store.
        let claim = BuildClaim { store: self, zi };
        let vectors: Arc<[Vec<f64>]> = tables
            .iter()
            .enumerate()
            .flat_map(|(m, t)| self.spec_in(m, zi).sample_rows(t))
            .collect();
        self.install(zi, &vectors, tables, registry);
        drop(claim);
        vectors
    }

    fn install(
        &self,
        zi: usize,
        vectors: &Arc<[Vec<f64>]>,
        tables: &[NoiseTable],
        registry: &MetricsRegistry,
    ) {
        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        let slot = &mut state.slots[zi];
        if slot.ever_built {
            registry.record_zone_recompute();
        }
        slot.vectors = Some(Arc::clone(vectors));
        slot.last_used = now;
        slot.ever_built = true;
        state.bytes += self.hot_bytes(zi, tables);
        // Evict least-recently-used zones (never the one just installed)
        // until the store fits its budget again. A worker still solving
        // an evicted zone keeps its `Arc` until the solve ends.
        while state.bytes > self.limit_bytes {
            let victim = state
                .slots
                .iter()
                .enumerate()
                .filter(|(i, s)| s.vectors.is_some() && *i != zi)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            let Some(v) = victim else {
                break; // only the hot zone is resident; nothing to spill
            };
            state.slots[v].vectors = None;
            state.bytes -= self.hot_bytes(v, tables);
            registry.record_zone_spill();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaveMinConfig;
    use crate::design::Design;
    use crate::observe::{ReportContext, RunReport};
    use wavemin_clocktree::Benchmark;

    fn fixture() -> (Design, WaveMinConfig, [NoiseTable; 1]) {
        let design = Design::from_benchmark(&Benchmark::s15850(), 3);
        let config = WaveMinConfig::default();
        let table = NoiseTable::build(&design, &config, 0).expect("characterize");
        (design, config, [table])
    }

    fn bits(vectors: &[Vec<f64>]) -> Vec<u64> {
        vectors.iter().flatten().map(|x| x.to_bits()).collect()
    }

    fn collecting() -> Instruments {
        Instruments {
            registry: crate::observe::MetricsRegistry::enabled(),
            ..Instruments::default()
        }
    }

    fn report(ins: &Instruments) -> RunReport {
        ins.registry
            .report(&ReportContext::default())
            .expect("enabled registry")
    }

    /// The resident zones, in index order, after checking that the byte
    /// ledger charges exactly their hot bytes.
    fn resident(store: &ZoneStorage, tables: &[NoiseTable]) -> Vec<usize> {
        let state = store.lock();
        let zones: Vec<usize> = state
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.vectors.is_some())
            .map(|(zi, _)| zi)
            .collect();
        let charged: usize = zones.iter().map(|&z| store.hot_bytes(z, tables)).sum();
        assert_eq!(state.bytes, charged, "byte ledger drifted");
        zones
    }
    #[test]
    fn acquires_match_materialize_bit_for_bit() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| bits(&s.sample_rows(&table[0]).collect::<Vec<_>>()))
            .collect();
        let store = ZoneStorage::new(specs, 1, usize::MAX);
        assert_eq!(store.len(), expect.len());
        let ins = Instruments::disabled();
        for (zi, m) in expect.iter().enumerate() {
            let z = store.acquire(zi, &table, &ins);
            assert_eq!(&bits(&z.vectors), m, "zone {zi} vectors differ");
            assert!(
                Arc::ptr_eq(&z.vectors, &store.acquire(zi, &table, &ins).vectors),
                "a resident zone is shared, not rebuilt"
            );
        }
    }

    #[test]
    fn tiny_store_spills_and_recomputes_identically() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        assert!(specs.len() > 1, "fixture needs several zones");
        // A store that holds roughly one zone forces constant eviction
        // on a round-robin access pattern.
        let one_zone = specs
            .iter()
            .map(|s| s.hot_bytes(&table[0]))
            .max()
            .unwrap_or(0);
        let store = ZoneStorage::new(specs, 1, one_zone.max(1));
        let ins = collecting();
        let first: Vec<Vec<u64>> = (0..store.len())
            .map(|zi| bits(&store.acquire(zi, &table, &ins).vectors))
            .collect();
        for (zi, expect) in first.iter().enumerate() {
            let again = bits(&store.acquire(zi, &table, &ins).vectors);
            assert_eq!(&again, expect, "recompute changed zone {zi}");
        }
        let counters = report(&ins).counters;
        assert!(counters.zones_spilled > 0, "store never spilled");
        assert!(counters.zone_recomputes > 0, "nothing recomputed");
        assert!(counters.zone_recomputes <= counters.zones_spilled);
    }

    #[test]
    fn racing_first_builds_are_not_recomputes() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let store = ZoneStorage::new(specs, 1, usize::MAX);
        let ins = collecting();
        const THREADS: usize = 4;
        let barrier = std::sync::Barrier::new(THREADS);
        for zi in 0..store.len() {
            let got: Vec<ZoneProblem> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            store.acquire(zi, &table, &ins)
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("worker"))
                    .collect()
            });
            assert!(
                got.iter().all(|z| Arc::ptr_eq(&z.vectors, &got[0].vectors)),
                "zone {zi}: racing workers must share one build"
            );
        }
        let counters = report(&ins).counters;
        assert_eq!(
            counters.zone_recomputes, 0,
            "first builds are not recomputes"
        );
        assert_eq!(counters.zones_spilled, 0);
    }

    #[test]
    fn unlimited_store_keeps_every_zone_resident() {
        let (design, config, table) = fixture();
        let store = ZoneStorage::new(
            ZoneSpec::build_specs(&design, &config, &table[0]),
            1,
            usize::MAX,
        );
        let ins = collecting();
        let first: Vec<ZoneProblem> = (0..store.len())
            .map(|zi| store.acquire(zi, &table, &ins))
            .collect();
        assert_eq!(
            resident(&store, &table),
            (0..store.len()).collect::<Vec<_>>()
        );
        for zi in (0..store.len()).rev() {
            let again = store.acquire(zi, &table, &ins);
            assert!(
                Arc::ptr_eq(&again.vectors, &first[zi].vectors),
                "zone {zi} was rebuilt"
            );
        }
        let counters = report(&ins).counters;
        assert_eq!(counters.zones_spilled, 0);
        assert_eq!(counters.zone_recomputes, 0);
    }

    #[test]
    fn eviction_takes_the_least_recently_used_zone() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        assert!(specs.len() >= 3, "fixture needs three zones");
        let hot: Vec<usize> = specs.iter().map(|s| s.hot_bytes(&table[0])).collect();
        let mut by_size: Vec<usize> = (0..specs.len()).collect();
        by_size.sort_by_key(|&z| std::cmp::Reverse(hot[z]));
        // `b` is the largest zone, so evicting it alone makes room for `c`.
        let (b, a, c) = (by_size[0], by_size[1], by_size[2]);
        assert!(hot[c] > 0);
        let store = ZoneStorage::new(specs, 1, hot[a] + hot[b]);
        let ins = collecting();

        let held_a = store.acquire(a, &table, &ins);
        store.acquire(b, &table, &ins);
        store.acquire(a, &table, &ins); // `b` is now the LRU zone
        store.acquire(c, &table, &ins);
        let mut expect = vec![a, c];
        expect.sort_unstable();
        assert_eq!(resident(&store, &table), expect, "only `b` is evicted");
        assert!(
            Arc::ptr_eq(&held_a.vectors, &store.acquire(a, &table, &ins).vectors),
            "the recently used zone stays resident"
        );
        let counters = report(&ins).counters;
        assert_eq!(counters.zones_spilled, 1);
        assert_eq!(counters.zone_recomputes, 0);
    }

    #[test]
    fn resident_bytes_never_exceed_the_limit() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| bits(&s.sample_rows(&table[0]).collect::<Vec<_>>()))
            .collect();
        let hot: Vec<usize> = specs.iter().map(|s| s.hot_bytes(&table[0])).collect();
        let total: usize = hot.iter().sum();
        let limit = (total / 2).max(hot.iter().copied().max().unwrap_or(0));
        assert!(total > limit, "fixture must not fit the store");
        let n = specs.len();
        let store = ZoneStorage::new(specs, 1, limit);
        let ins = collecting();
        // A sweep each way, then a scattered pattern.
        let order = (0..n)
            .chain((0..n).rev())
            .chain((0..n).map(|k| (k * 7 + k * k) % n));
        for zi in order {
            let z = store.acquire(zi, &table, &ins);
            assert_eq!(bits(&z.vectors), expect[zi], "zone {zi} differs");
            let held = resident(&store, &table);
            assert!(held.contains(&zi), "the acquired zone is resident");
            let bytes: usize = held.iter().map(|&r| hot[r]).sum();
            assert!(bytes <= limit, "{bytes} resident bytes over {limit}");
        }
        let counters = report(&ins).counters;
        assert!(counters.zones_spilled > 0, "store never spilled");
        assert!(counters.zone_recomputes <= counters.zones_spilled);
    }

    #[test]
    fn a_zone_larger_than_the_limit_is_still_served() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| bits(&s.sample_rows(&table[0]).collect::<Vec<_>>()))
            .collect();
        let n = specs.len();
        let store = ZoneStorage::new(specs, 1, 1);
        let ins = collecting();
        for _ in 0..2 {
            for (zi, want) in expect.iter().enumerate() {
                let z = store.acquire(zi, &table, &ins);
                assert_eq!(&bits(&z.vectors), want, "zone {zi} differs");
                assert_eq!(
                    resident(&store, &table),
                    vec![zi],
                    "only the hot zone stays"
                );
            }
        }
        // Every install but the very first evicts its predecessor, and the
        // second sweep rebuilds every zone.
        let counters = report(&ins).counters;
        assert_eq!(counters.zones_spilled, 2 * n as u64 - 1);
        assert_eq!(counters.zone_recomputes, n as u64);
    }

    #[test]
    fn an_evicted_zone_stays_valid_for_its_holder() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect = bits(&specs[0].sample_rows(&table[0]).collect::<Vec<_>>());
        let store = ZoneStorage::new(specs, 1, 1);
        let ins = collecting();
        let held = store.acquire(0, &table, &ins);
        store.acquire(1, &table, &ins);
        assert_eq!(resident(&store, &table), vec![1], "zone 0 was evicted");
        assert_eq!(bits(&held.vectors), expect, "a holder keeps its vectors");
        let again = store.acquire(0, &table, &ins);
        assert!(
            !Arc::ptr_eq(&held.vectors, &again.vectors),
            "zone 0 was rebuilt"
        );
        assert_eq!(bits(&again.vectors), expect);
        let counters = report(&ins).counters;
        assert_eq!(counters.zone_recomputes, 1);
    }

    #[test]
    fn concurrent_acquires_under_a_tight_store_agree_with_materialize() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect: Vec<Vec<u64>> = specs
            .iter()
            .map(|s| bits(&s.sample_rows(&table[0]).collect::<Vec<_>>()))
            .collect();
        let one_zone = specs
            .iter()
            .map(|s| s.hot_bytes(&table[0]))
            .max()
            .unwrap_or(0);
        let n = specs.len();
        let store = ZoneStorage::new(specs, 1, one_zone.max(1));
        let ins = collecting();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (store, table, ins, expect) = (&store, &table, &ins, &expect);
                scope.spawn(move || {
                    for k in 0..3 * n {
                        let zi = (k + t * (n / 4 + 1)) % n;
                        let z = store.acquire(zi, table, ins);
                        assert_eq!(bits(&z.vectors), expect[zi], "worker {t}: zone {zi}");
                    }
                });
            }
        });
        let counters = report(&ins).counters;
        assert!(counters.zones_spilled > 0, "store never spilled");
        assert!(
            counters.zone_recomputes <= counters.zones_spilled,
            "every rebuild follows an eviction"
        );
    }

    #[test]
    fn an_abandoned_build_hands_the_zone_to_a_waiter() {
        let (design, config, table) = fixture();
        let specs = ZoneSpec::build_specs(&design, &config, &table[0]);
        let expect = bits(&specs[0].sample_rows(&table[0]).collect::<Vec<_>>());
        let store = ZoneStorage::new(specs, 1, usize::MAX);
        let ins = collecting();
        // Claim zone 0 as a builder that will unwind without installing.
        store.lock().slots[0].building = true;
        let claim = BuildClaim {
            store: &store,
            zi: 0,
        };
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| store.acquire(0, &table, &ins));
            // Let the waiter block on the claim; the outcome is the same
            // if it has not started yet.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(claim);
            waiter.join().expect("waiter")
        });
        assert_eq!(bits(&got.vectors), expect);
        assert!(!store.lock().slots[0].building, "the claim was released");
        let counters = report(&ins).counters;
        assert_eq!(
            counters.zone_recomputes, 0,
            "the waiter's build is the first"
        );
        assert_eq!(counters.zones_spilled, 0);
    }
}
