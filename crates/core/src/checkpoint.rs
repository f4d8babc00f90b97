//! The content-hashed zone-result store, [`ZoneCache`], and its optional
//! file tier, the checkpoint journal.
//!
//! Serve mode holds an LRU-bounded in-memory [`ZoneCache`] shared by
//! concurrent jobs, so a re-submitted design with local edits splices
//! cached results for clean zones and re-solves only dirty ones.
//! `optimize --checkpoint PATH` opens the same cache backed by a
//! line-oriented journal: each completed zone's solution is appended as
//! it lands, and `--resume` loads the journal and re-solves only the
//! zones it cannot vouch for. Keys are *content* hashes, so a stale or
//! foreign entry can never be mistaken for a hit — it is simply never
//! looked up.
//!
//! # Format
//!
//! ```text
//! wavemin-checkpoint v3 fingerprint=<hex16>
//! zone <key hex16> <cost-bits hex16> <n> <sink>:<code-bits hex16> ...
//! ```
//!
//! The header fingerprint hashes the characterized design and the solver
//! configuration; a mismatch invalidates every entry. Each entry's key is
//! drawn from a per-intersection *hash chain* ([`ZoneKeyChain`]): the
//! chain starts from a seed (the solver-config fingerprint) and absorbs
//! every earlier zone's *content hash*, *restriction* (allowed options and
//! their delay codes in every mode) and solution in solve order. Zones are
//! solved against the accumulated background noise of their predecessors,
//! so a zone's key changes whenever anything it depends on changes — hit
//! means bit-for-bit reusable. Keying by zone content rather than zone
//! index is what lets an edited design reuse the untouched prefix of a
//! solve: the clean zones hash identically and walk the same chain. Costs
//! and delay codes are stored as raw `f64` bit patterns, so a resumed run
//! reproduces the uninterrupted run exactly.
//!
//! Lines are flushed per zone; a killed process leaves at most one
//! truncated trailing line, which the loader ignores. A malformed line
//! anywhere *else* in the file is corruption, not truncation, and
//! surfaces as [`WaveMinError::Checkpoint`] rather than silently
//! dropping vouched zones.

use crate::config::WaveMinConfig;
use crate::design::Design;
use crate::error::WaveMinError;
use crate::store::{Claim, Lookup, SingleFlightLru};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::Mutex;
use wavemin_cells::units::Picoseconds;

/// Journal format version; bumped on any incompatible layout change.
/// `v2`: chain keys absorb zone content hashes instead of zone indices.
/// `v3`: chain keys absorb each zone's restriction (allowed options and
/// per-mode delay codes) instead of the interval bounds.
pub const FORMAT_VERSION: &str = "v3";

const HEADER_TAG: &str = "wavemin-checkpoint";

/// FNV-1a 64 over raw bytes — the store's only byte-hash primitive.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the characterized design + solver configuration. Any
/// change to either invalidates every checkpoint entry.
///
/// The config fields that cannot change a zone's solution — the worker
/// count, metric collection and the memory budget (zone residency never
/// changes results) — are normalized out before hashing, so an
/// interrupted run and its `--resume` continuation agree on the
/// fingerprint. Everything semantic stays in, including the fault plan
/// (injection changes solve results) and the time budget.
///
/// # Errors
///
/// Returns [`WaveMinError::Checkpoint`] if serialization fails.
pub fn design_fingerprint(design: &Design, config: &WaveMinConfig) -> Result<u64, WaveMinError> {
    let d = serde_json::to_string(design)
        .map_err(|e| WaveMinError::Checkpoint(format!("design fingerprint: {e}")))?;
    Ok(fnv1a(d.as_bytes()) ^ config_fingerprint(config)?.rotate_left(29))
}

/// Fingerprint of the solver configuration alone, with the same
/// normalization as [`design_fingerprint`]. This seeds the
/// per-intersection [`ZoneKeyChain`]: the design itself enters the chain
/// through per-zone content hashes, so two sessions holding *different*
/// designs still share cache entries for zones whose characterized
/// content is identical — the incremental-re-solve path.
///
/// # Errors
///
/// Returns [`WaveMinError::Checkpoint`] if serialization fails.
pub fn config_fingerprint(config: &WaveMinConfig) -> Result<u64, WaveMinError> {
    let mut canon = config.clone();
    canon.threads = None;
    canon.collect_metrics = false;
    canon.memory_budget_mb = None;
    let c = serde_json::to_string(&canon)
        .map_err(|e| WaveMinError::Checkpoint(format!("config fingerprint: {e}")))?;
    Ok(fnv1a(c.as_bytes()))
}

/// A stored zone solution: the min–max cost and the per-sink delay
/// codes, both as exact `f64` bit patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedZone {
    /// `ZoneSolution::cost` bits.
    pub cost_bits: u64,
    /// `(sink index, delay-code bits)` per chosen option.
    pub choices: Vec<(usize, u64)>,
}

impl CachedZone {
    /// The cost as an `f64` (bit-exact round trip).
    #[must_use]
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }

    /// The choices as `(sink, Picoseconds)` pairs (bit-exact round trip).
    #[must_use]
    pub fn choices_ps(&self) -> Vec<(usize, Picoseconds)> {
        self.choices
            .iter()
            .map(|&(s, bits)| (s, Picoseconds::new(f64::from_bits(bits))))
            .collect()
    }

    /// Approximate heap footprint, used for the cache's byte budget.
    fn weight(&self) -> usize {
        std::mem::size_of::<Self>() + self.choices.len() * std::mem::size_of::<(usize, u64)>()
    }
}

/// The per-intersection key chain. Seeded from the config fingerprint;
/// absorbs each solved zone's input hash (its content and its restriction
/// in the intersection) and solution in solve order, so a zone's key
/// covers everything its solve depends on. Intersections with equal
/// restriction prefixes walk the same chain.
#[derive(Debug, Clone)]
pub struct ZoneKeyChain {
    h: u64,
}

impl ZoneKeyChain {
    /// Starts a chain for one feasible intersection.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { h: seed }
    }

    /// The lookup/record key for the zone whose input (content and
    /// restriction) hashes to `input` at the chain's current state.
    #[must_use]
    pub fn key_for(&self, input: u64) -> u64 {
        step(self.h, input ^ 0x5a5a_5a5a_5a5a_5a5a)
    }

    /// Absorbs a completed zone's input hash and solution, advancing the
    /// chain for every zone solved after it.
    pub fn absorb(&mut self, input: u64, cost_bits: u64, choices: &[(usize, Picoseconds)]) {
        self.h = step(self.h, input);
        self.h = step(self.h, cost_bits);
        for &(sink, code) in choices {
            self.h = step(self.h, sink as u64);
            self.h = step(self.h, code.value().to_bits());
        }
    }
}

/// One avalanche step of the chain (splitmix64 finalizer over `h ^ x`).
/// Shared with the zone content hash in `algo`.
#[inline]
pub(crate) fn step(h: u64, x: u64) -> u64 {
    let mut z = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What [`ZoneCache::acquire`] hands back for a key.
pub enum StoreAcquire<'a> {
    /// The cache vouches for this solution; splice it bit-for-bit.
    Hit(CachedZone),
    /// The caller must solve. The reservation marks the key in flight;
    /// dropping it without a [`ZoneReservation::record`] releases waiting
    /// peers to solve themselves.
    Solve(ZoneReservation<'a>),
}

/// The journal file behind a file-backed [`ZoneCache`].
struct JournalFile {
    path: String,
    writer: Mutex<BufWriter<File>>,
}

impl JournalFile {
    /// Appends one entry and flushes, so a killed process loses at most
    /// the zone in flight.
    fn append(&self, key: u64, zone: &CachedZone) -> Result<(), WaveMinError> {
        use std::fmt::Write as _;
        let mut line = format!(
            "zone {key:016x} {:016x} {}",
            zone.cost_bits,
            zone.choices.len()
        );
        for &(sink, bits) in &zone.choices {
            let _ = write!(line, " {sink}:{bits:016x}");
        }
        // A worker that panicked mid-append can only have poisoned the
        // lock after its own writeln completed or failed atomically at
        // the line level; the writer stays coherent.
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(w, "{line}")
            .and_then(|()| w.flush())
            .map_err(|e| WaveMinError::Checkpoint(format!("{}: {e}", self.path)))
    }
}

/// Parses an existing journal; `Ok(None)` means "start fresh" (missing
/// file, wrong header, or fingerprint mismatch). Only a truncated
/// *trailing* line — the signature of a process killed mid-append — is
/// skipped; a malformed line anywhere earlier is corruption and fails
/// the resume rather than silently dropping vouched zones.
fn load_entries(
    path: &str,
    fingerprint: u64,
) -> Result<Option<Vec<(u64, CachedZone)>>, WaveMinError> {
    let Ok(file) = File::open(path) else {
        return Ok(None);
    };
    let mut lines = BufReader::new(file).lines();
    let header = match lines.next() {
        Some(Ok(h)) => h,
        Some(Err(_)) | None => return Ok(None),
    };
    let expect = format!("{HEADER_TAG} {FORMAT_VERSION} fingerprint={fingerprint:016x}");
    if header != expect {
        return Ok(None);
    }
    let body: Vec<String> = lines
        .collect::<Result<_, _>>()
        .map_err(|e| WaveMinError::Checkpoint(format!("{path}: unreadable journal body: {e}")))?;
    let mut entries = Vec::with_capacity(body.len());
    let last = body.len().saturating_sub(1);
    for (i, line) in body.iter().enumerate() {
        match parse_entry(line) {
            Some(entry) => entries.push(entry),
            None if i == last => {
                // A killed process leaves exactly one dangling half line,
                // and it can only be the final one.
            }
            None => {
                return Err(WaveMinError::Checkpoint(format!(
                    "{path}: corrupt journal entry at line {}: {line:?}",
                    i + 2
                )));
            }
        }
    }
    Ok(Some(entries))
}

fn parse_entry(line: &str) -> Option<(u64, CachedZone)> {
    let mut it = line.split_ascii_whitespace();
    if it.next()? != "zone" {
        return None;
    }
    let key = u64::from_str_radix(it.next()?, 16).ok()?;
    let cost_bits = u64::from_str_radix(it.next()?, 16).ok()?;
    let n: usize = it.next()?.parse().ok()?;
    let mut choices = Vec::with_capacity(n);
    for _ in 0..n {
        let (sink, bits) = it.next()?.split_once(':')?;
        choices.push((sink.parse().ok()?, u64::from_str_radix(bits, 16).ok()?));
    }
    if it.next().is_some() {
        return None;
    }
    Some((key, CachedZone { cost_bits, choices }))
}

/// Point-in-time counters for a [`ZoneCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Completed entries currently resident.
    pub entries: usize,
    /// Approximate bytes held by resident entries.
    pub bytes: usize,
    /// Lifetime lookup hits.
    pub hits: u64,
    /// Lifetime lookup misses (each miss reserves the key for a solve).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
}

/// The zone-result store: a content-keyed LRU map shared by concurrent
/// jobs. A miss reserves the key, so two jobs racing onto the same zone
/// never duplicate the solve — the loser blocks on the reservation and
/// splices the winner's result.
///
/// Serve mode holds an in-memory cache ([`ZoneCache::new`]);
/// `optimize --checkpoint` opens a file-backed one ([`ZoneCache::open`])
/// that appends every recorded zone to the journal and is never bounded.
pub struct ZoneCache {
    journal: Option<JournalFile>,
    store: SingleFlightLru<CachedZone>,
}

impl ZoneCache {
    /// Creates a cache bounded to roughly `max_bytes` of entry payload.
    /// The entry just recorded is never evicted, so a budget of zero keeps
    /// exactly one entry: waiters on a reservation still splice its result,
    /// and the next record evicts it.
    #[must_use]
    pub fn new(max_bytes: usize) -> Self {
        Self {
            journal: None,
            store: SingleFlightLru::new(max_bytes, CachedZone::weight),
        }
    }

    /// Opens (or creates) the checkpoint journal at `path` for
    /// `fingerprint` as an unbounded file-backed cache.
    ///
    /// With `resume` set, an existing journal whose header fingerprint
    /// matches is loaded into the cache and appended to; a missing file,
    /// mismatched fingerprint, or unreadable header starts fresh (every
    /// zone dirty). Without `resume`, the file is truncated.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::Checkpoint`] on I/O failure, or when a
    /// resumed journal is corrupt anywhere but its final line.
    pub fn open(path: &str, fingerprint: u64, resume: bool) -> Result<Self, WaveMinError> {
        let io_err = |e: std::io::Error| WaveMinError::Checkpoint(format!("{path}: {e}"));
        let loaded = if resume {
            load_entries(path, fingerprint)?
        } else {
            None
        };
        let (writer, entries) = match loaded {
            Some(entries) => {
                let file = OpenOptions::new().append(true).open(path).map_err(io_err)?;
                (BufWriter::new(file), entries)
            }
            None => {
                let mut writer = BufWriter::new(File::create(path).map_err(io_err)?);
                writeln!(
                    writer,
                    "{HEADER_TAG} {FORMAT_VERSION} fingerprint={fingerprint:016x}"
                )
                .and_then(|()| writer.flush())
                .map_err(io_err)?;
                (writer, Vec::new())
            }
        };
        let store = SingleFlightLru::new(usize::MAX, CachedZone::weight);
        for (key, zone) in entries {
            store.publish(key, zone);
        }
        Ok(Self {
            journal: Some(JournalFile {
                path: path.to_string(),
                writer: Mutex::new(writer),
            }),
            store,
        })
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Looks up `key`: a completed entry is a hit; a key another worker
    /// is solving blocks until it publishes or abandons; otherwise the
    /// caller gets a reservation to solve under.
    pub fn acquire(&self, key: u64) -> StoreAcquire<'_> {
        match self.store.acquire(key) {
            Lookup::Hit(zone) => StoreAcquire::Hit(zone),
            Lookup::Miss(claim) => StoreAcquire::Solve(ZoneReservation { cache: self, claim }),
        }
    }

    /// Publishes a solved zone under `key`. A file-backed cache first
    /// appends and flushes the journal line.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::Checkpoint`] if the journal write fails;
    /// nothing is published then.
    pub fn record(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError> {
        let zone = self.journaled(key, cost_bits, choices)?;
        self.store.publish(key, zone);
        Ok(())
    }

    /// The zone to publish under `key`, after its journal line is
    /// flushed.
    fn journaled(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<CachedZone, WaveMinError> {
        let zone = CachedZone {
            cost_bits,
            choices: choices
                .iter()
                .map(|&(s, c)| (s, c.value().to_bits()))
                .collect(),
        };
        if let Some(journal) = &self.journal {
            journal.append(key, &zone)?;
        }
        Ok(zone)
    }
}

/// Marks a key as being solved by the holder. Dropping it without
/// [`Self::record`] (error or panic path) releases the claim so blocked
/// peers retry and solve for themselves.
pub struct ZoneReservation<'a> {
    cache: &'a ZoneCache,
    claim: Claim<'a, CachedZone>,
}

impl ZoneReservation<'_> {
    /// Publishes the solved zone under the reserved key
    /// ([`ZoneCache::record`]); the claim is released either way.
    ///
    /// # Errors
    ///
    /// Same as [`ZoneCache::record`].
    pub fn record(
        self,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError> {
        let zone = self.cache.journaled(self.claim.key(), cost_bits, choices)?;
        self.claim.publish(zone);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("wavemin-checkpoint-tests");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn ps(v: f64) -> Picoseconds {
        Picoseconds::new(v)
    }

    /// A lookup that leaves nothing in flight: a miss drops its
    /// reservation at once.
    fn lookup(cache: &ZoneCache, key: u64) -> Option<CachedZone> {
        match cache.acquire(key) {
            StoreAcquire::Hit(zone) => Some(zone),
            StoreAcquire::Solve(_) => None,
        }
    }

    #[test]
    fn the_default_config_fingerprint_is_stable() {
        // Journals written by earlier builds stay valid only while the
        // default config hashes the same.
        let cfg = WaveMinConfig::default().with_fault_plan(None);
        assert_eq!(
            config_fingerprint(&cfg).expect("config fingerprint"),
            0xba05_8777_daf9_ea34
        );
    }

    #[test]
    fn round_trips_entries_bit_for_bit() {
        let path = tmp("roundtrip.ckpt");
        let j = ZoneCache::open(&path, 0xdead_beef, false).expect("create");
        let choices = vec![(0usize, ps(12.5)), (3, ps(-0.0)), (7, ps(0.1 + 0.2))];
        j.record(42, 1.75_f64.to_bits(), &choices).expect("record");
        j.record(43, f64::NAN.to_bits(), &[]).expect("record");
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read journal"),
            "wavemin-checkpoint v3 fingerprint=00000000deadbeef\n\
             zone 000000000000002a 3ffc000000000000 3 \
             0:4029000000000000 3:8000000000000000 7:3fd3333333333334\n\
             zone 000000000000002b 7ff8000000000000 0\n",
            "the journal format is fixed"
        );

        let j = ZoneCache::open(&path, 0xdead_beef, true).expect("resume");
        assert_eq!(j.stats().entries, 2);
        let hit = lookup(&j, 42).expect("key 42");
        assert_eq!(hit.cost().to_bits(), 1.75_f64.to_bits());
        let back = hit.choices_ps();
        assert_eq!(back.len(), 3);
        for ((s0, c0), (s1, c1)) in choices.iter().zip(&back) {
            assert_eq!(s0, s1);
            assert_eq!(c0.value().to_bits(), c1.value().to_bits());
        }
        // NaN cost survives as exact bits too (costs are opaque payloads).
        let nan = lookup(&j, 43).expect("key 43");
        assert_eq!(nan.cost_bits, f64::NAN.to_bits());
        assert!(lookup(&j, 99).is_none());
    }

    #[test]
    fn fingerprint_mismatch_discards_everything() {
        let path = tmp("mismatch.ckpt");
        let j = ZoneCache::open(&path, 1, false).expect("create");
        j.record(7, 0, &[]).expect("record");
        drop(j);
        let j = ZoneCache::open(&path, 2, true).expect("resume other fp");
        assert_eq!(j.stats().entries, 0, "foreign entries must not be trusted");
        // And the file was restarted under the new fingerprint.
        drop(j);
        let j = ZoneCache::open(&path, 2, true).expect("reopen");
        assert_eq!(j.stats().entries, 0);
    }

    #[test]
    fn truncated_trailing_line_is_ignored() {
        let path = tmp("truncated.ckpt");
        let j = ZoneCache::open(&path, 5, false).expect("create");
        j.record(1, 10, &[(0, ps(1.0))]).expect("record");
        drop(j);
        // Simulate a kill mid-append: a dangling half line.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        write!(f, "zone 00000000000000ff 000000").expect("write partial");
        drop(f);
        let j = ZoneCache::open(&path, 5, true).expect("resume");
        assert_eq!(j.stats().entries, 1, "only the complete entry survives");
        assert!(lookup(&j, 1).is_some());
        assert!(lookup(&j, 0xff).is_none());
    }

    #[test]
    fn interior_corruption_is_a_typed_error_not_a_silent_skip() {
        let path = tmp("interior.ckpt");
        let j = ZoneCache::open(&path, 5, false).expect("create");
        j.record(1, 10, &[(0, ps(1.0))]).expect("record");
        drop(j);
        // Corrupt the middle of the file: a mangled line *followed by* a
        // valid complete entry cannot be mid-append truncation.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        writeln!(f, "zone 00000000000000ff 000000").expect("write corrupt");
        writeln!(f, "zone 0000000000000002 0000000000000014 0").expect("write valid");
        drop(f);
        match ZoneCache::open(&path, 5, true) {
            Err(WaveMinError::Checkpoint(msg)) => {
                assert!(msg.contains("corrupt"), "message names the cause: {msg}");
                assert!(msg.contains("line 3"), "message locates the line: {msg}");
            }
            Ok(_) => panic!("interior corruption must fail the resume"),
            Err(other) => panic!("wrong error type: {other:?}"),
        }
        // A fresh (non-resume) open of the same path still works: it
        // truncates rather than trusting the corrupt body.
        let j = ZoneCache::open(&path, 5, false).expect("fresh open truncates");
        assert_eq!(j.stats().entries, 0);
        drop(j);
        let header = std::fs::read_to_string(&path).expect("read journal");
        assert_eq!(header.lines().count(), 1, "only the header is left");
    }

    #[test]
    fn key_chain_is_order_and_content_sensitive() {
        let a0 = ZoneKeyChain::new(9);
        let b0 = ZoneKeyChain::new(10);
        assert_ne!(a0.key_for(0), b0.key_for(0), "the seed feeds the key");
        assert_ne!(
            a0.key_for(0),
            a0.key_for(1),
            "distinct content, distinct keys"
        );

        let mut a = a0.clone();
        let mut b = a0.clone();
        a.absorb(0, 1.0_f64.to_bits(), &[(2, ps(3.0))]);
        b.absorb(0, 1.0_f64.to_bits(), &[(2, ps(4.0))]);
        assert_ne!(
            a.key_for(1),
            b.key_for(1),
            "a predecessor's choices change every later key"
        );
        let mut c = a0.clone();
        c.absorb(0, 1.0_f64.to_bits(), &[(2, ps(3.0))]);
        assert_eq!(
            a.key_for(1),
            c.key_for(1),
            "identical history, identical key"
        );
    }

    #[test]
    fn fingerprint_ignores_run_plumbing_but_not_semantics() {
        use crate::prelude::Benchmark;
        let d = Design::from_benchmark(&Benchmark::s15850(), 3);
        let base = WaveMinConfig::default().with_fault_plan(None);
        let fp = design_fingerprint(&d, &base).expect("fingerprint");

        // A resume run differs from its original only in plumbing; the
        // journal header must still match.
        let resumed = base
            .clone()
            .with_threads(4)
            .with_metrics(true)
            .with_memory_budget_mb(512);
        assert_eq!(
            design_fingerprint(&d, &resumed).expect("fingerprint"),
            fp,
            "plumbing flags must not invalidate the journal"
        );

        // Semantic knobs do invalidate: a fault plan changes solve results.
        let faulted = base
            .clone()
            .with_fault_plan(Some(crate::fault::FaultPlan { seed: 1, rate: 0.5 }));
        assert_ne!(
            design_fingerprint(&d, &faulted).expect("fingerprint"),
            fp,
            "a fault-injected run must not share cached zones with a clean one"
        );
        let coarser = base.clone().with_sample_count(8);
        assert_ne!(
            design_fingerprint(&d, &coarser).expect("fingerprint"),
            fp,
            "sampling resolution is semantic"
        );

        // The config-only fingerprint follows the same normalization.
        let cfp = config_fingerprint(&base).expect("config fingerprint");
        assert_eq!(config_fingerprint(&resumed).expect("cfp"), cfp);
        assert_ne!(config_fingerprint(&coarser).expect("cfp"), cfp);
    }

    #[test]
    fn cache_hit_miss_and_reservation_lifecycle() {
        let cache = ZoneCache::new(1 << 20);
        // First acquire: miss with a reservation.
        let res = match cache.acquire(7) {
            StoreAcquire::Solve(r) => r,
            StoreAcquire::Hit(_) => panic!("cold key must miss with a reservation"),
        };
        res.record(2.5_f64.to_bits(), &[(1, ps(4.0))])
            .expect("record");
        // Second acquire: hit, bit-identical payload.
        match cache.acquire(7) {
            StoreAcquire::Hit(z) => {
                assert_eq!(z.cost().to_bits(), 2.5_f64.to_bits());
                assert_eq!(z.choices_ps(), vec![(1usize, ps(4.0))]);
            }
            StoreAcquire::Solve(_) => panic!("recorded key must hit"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn abandoned_reservation_releases_waiters() {
        let cache = ZoneCache::new(1 << 20);
        let res = match cache.acquire(3) {
            StoreAcquire::Solve(r) => r,
            StoreAcquire::Hit(_) => panic!("cold key must miss"),
        };
        drop(res); // solve failed; key must be claimable again
        assert!(
            matches!(cache.acquire(3), StoreAcquire::Solve(_)),
            "abandoned key must be reserved anew, not hit or block"
        );
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        let entry_weight = CachedZone {
            cost_bits: 0,
            choices: vec![],
        }
        .weight();
        // Room for exactly two empty-choice entries.
        let cache = ZoneCache::new(2 * entry_weight);
        cache.record(1, 0, &[]).expect("record");
        cache.record(2, 0, &[]).expect("record");
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(cache.acquire(1), StoreAcquire::Hit(_)));
        cache.record(3, 0, &[]).expect("record");
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(
            matches!(cache.acquire(1), StoreAcquire::Hit(_)),
            "recent key kept"
        );
        assert!(
            matches!(cache.acquire(2), StoreAcquire::Solve(_)),
            "LRU key evicted"
        );
        assert!(
            matches!(cache.acquire(3), StoreAcquire::Hit(_)),
            "new key kept"
        );
    }
    #[test]
    fn a_zero_budget_cache_still_dedups_a_racing_solve() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ZoneCache::new(0);
        let solves = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    match cache.acquire(11) {
                        StoreAcquire::Hit(z) => {
                            assert_eq!(z.cost_bits, 9.0_f64.to_bits());
                            hits.fetch_add(1, Ordering::SeqCst);
                        }
                        StoreAcquire::Solve(reservation) => {
                            solves.fetch_add(1, Ordering::SeqCst);
                            reservation.record(9.0_f64.to_bits(), &[]).expect("record");
                        }
                    }
                });
            }
        });
        // Whether the waiter blocked on the reservation or came after the
        // record, the zone it finds is the one just recorded.
        assert_eq!(solves.load(Ordering::SeqCst), 1, "one solve");
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the waiter hits");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 0));
        // The next record evicts it.
        cache.record(12, 0, &[]).expect("record");
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        assert!(lookup(&cache, 11).is_none());
    }
}
