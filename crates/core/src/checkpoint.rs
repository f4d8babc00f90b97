//! Content-hashed zone-result stores: the on-disk checkpoint journal and
//! the in-memory serve-mode zone cache.
//!
//! `optimize --checkpoint PATH` appends each completed zone's solution to
//! a line-oriented journal as it lands; `--resume` replays the journal
//! and re-solves only the zones it cannot vouch for. Serve mode promotes
//! the same keying scheme into [`ZoneCache`], an LRU-bounded in-memory
//! map shared by concurrent jobs, so a re-submitted design with local
//! edits splices cached results for clean zones and re-solves only dirty
//! ones. Keys are *content* hashes, so a stale or foreign entry can never
//! be mistaken for a hit — it is simply never looked up.
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
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::{Condvar, Mutex};
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
/// Run-plumbing fields that cannot change a zone's solution — the worker
/// count, observability switches, the memory budget (zone residency never
/// changes results), and the checkpoint/resume flags themselves — are
/// normalized out before hashing, so an interrupted run and its
/// `--resume` continuation (or a re-run with `--trace` added) agree on
/// the fingerprint. Everything semantic stays in, including the
/// fault plan (injection changes solve results) and the time budget.
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
/// run-plumbing normalization as [`design_fingerprint`]. This seeds the
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
    canon.trace_spans = false;
    canon.checkpoint_path = None;
    canon.resume = false;
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

/// What [`ZoneStore::acquire`] hands back for a key.
pub enum StoreAcquire<'a> {
    /// The store vouches for this solution; splice it bit-for-bit.
    Hit(CachedZone),
    /// The caller must solve. When the store dedups concurrent work, the
    /// reservation marks the key in flight; dropping it without a
    /// [`ZoneStore::record`] releases waiting peers to solve themselves.
    Solve(Option<ZoneReservation<'a>>),
}

/// A shared zone-solution store: hit → splice, miss → solve and record.
///
/// Implemented by the on-disk [`CheckpointJournal`] (single run,
/// crash-recovery) and the in-memory [`ZoneCache`] (serve mode, shared
/// across concurrent jobs and sessions).
pub trait ZoneStore: Sync {
    /// Looks up `key`, possibly reserving it for the caller to solve.
    fn acquire(&self, key: u64) -> StoreAcquire<'_>;

    /// Publishes a solved zone under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::Checkpoint`] if the store's backing medium
    /// rejects the write (only the journal can fail).
    fn record(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError>;
}

struct Inner {
    writer: BufWriter<File>,
    cache: HashMap<u64, CachedZone>,
}

/// The append-only journal handle shared by zone workers.
pub struct CheckpointJournal {
    path: String,
    inner: Mutex<Inner>,
}

impl CheckpointJournal {
    /// Opens (or creates) the journal at `path` for `fingerprint`.
    ///
    /// With `resume` set, an existing journal whose header fingerprint
    /// matches is loaded into the hit cache and appended to; a missing
    /// file, mismatched fingerprint, or unreadable header starts fresh
    /// (every zone dirty). Without `resume`, the file is truncated.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::Checkpoint`] on I/O failure, or when a
    /// resumed journal is corrupt anywhere but its final line.
    pub fn open(path: &str, fingerprint: u64, resume: bool) -> Result<Self, WaveMinError> {
        let cache = if resume {
            load_entries(path, fingerprint)?
        } else {
            None
        };
        match cache {
            Some(cache) => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| WaveMinError::Checkpoint(format!("{path}: {e}")))?;
                Ok(Self {
                    path: path.to_string(),
                    inner: Mutex::new(Inner {
                        writer: BufWriter::new(file),
                        cache,
                    }),
                })
            }
            None => {
                let file = File::create(path)
                    .map_err(|e| WaveMinError::Checkpoint(format!("{path}: {e}")))?;
                let mut writer = BufWriter::new(file);
                writeln!(
                    writer,
                    "{HEADER_TAG} {FORMAT_VERSION} fingerprint={fingerprint:016x}"
                )
                .and_then(|()| writer.flush())
                .map_err(|e| WaveMinError::Checkpoint(format!("{path}: {e}")))?;
                Ok(Self {
                    path: path.to_string(),
                    inner: Mutex::new(Inner {
                        writer,
                        cache: HashMap::new(),
                    }),
                })
            }
        }
    }

    /// Number of reusable entries loaded at open.
    #[must_use]
    pub fn loaded(&self) -> usize {
        self.lock().cache.len()
    }

    /// Looks up a zone by its chain key.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<CachedZone> {
        self.lock().cache.get(&key).cloned()
    }

    /// Appends a completed zone and flushes, so a killed process loses at
    /// most the zone in flight.
    ///
    /// # Errors
    ///
    /// Returns [`WaveMinError::Checkpoint`] on I/O failure.
    pub fn record(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError> {
        let mut line = format!("zone {key:016x} {cost_bits:016x} {}", choices.len());
        for &(sink, code) in choices {
            use std::fmt::Write as _;
            let _ = write!(line, " {sink}:{:016x}", code.value().to_bits());
        }
        let mut g = self.lock();
        writeln!(g.writer, "{line}")
            .and_then(|()| g.writer.flush())
            .map_err(|e| WaveMinError::Checkpoint(format!("{}: {e}", self.path)))?;
        g.cache.insert(
            key,
            CachedZone {
                cost_bits,
                choices: choices
                    .iter()
                    .map(|&(s, c)| (s, c.value().to_bits()))
                    .collect(),
            },
        );
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker that panicked mid-append can only have poisoned the
        // lock after its own writeln completed or failed atomically at
        // the line level; the cache and writer state remain coherent.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl ZoneStore for CheckpointJournal {
    fn acquire(&self, key: u64) -> StoreAcquire<'_> {
        // A single run never races two workers onto the same key (the
        // share plan consults the store once per group of equal chains),
        // so no in-flight reservation.
        match self.lookup(key) {
            Some(hit) => StoreAcquire::Hit(hit),
            None => StoreAcquire::Solve(None),
        }
    }

    fn record(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError> {
        CheckpointJournal::record(self, key, cost_bits, choices)
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
) -> Result<Option<HashMap<u64, CachedZone>>, WaveMinError> {
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
    let mut cache = HashMap::new();
    let last = body.len().saturating_sub(1);
    for (i, line) in body.iter().enumerate() {
        match parse_entry(line) {
            Some((key, entry)) => {
                cache.insert(key, entry);
            }
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
    Ok(Some(cache))
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

enum Slot {
    Done(CachedZone),
    /// A worker holds a [`ZoneReservation`] and is solving; peers that
    /// acquire the same key block until it publishes or abandons.
    InFlight,
}

struct CacheInner {
    map: HashMap<u64, (Slot, u64)>,
    bytes: usize,
    tick: u64,
    stats: CacheStats,
}

/// The serve-mode in-memory zone store: a content-keyed LRU map shared by
/// concurrent jobs. A miss reserves the key, so two jobs racing onto the
/// same zone never duplicate the solve — the loser blocks on the
/// reservation and splices the winner's result.
pub struct ZoneCache {
    max_bytes: usize,
    inner: Mutex<CacheInner>,
    ready: Condvar,
}

impl ZoneCache {
    /// Creates a cache bounded to roughly `max_bytes` of entry payload.
    /// A budget of zero disables retention (every lookup misses, every
    /// record is immediately evicted) but still dedups in-flight solves.
    #[must_use]
    pub fn new(max_bytes: usize) -> Self {
        Self {
            max_bytes,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        let mut s = g.stats;
        s.bytes = g.bytes;
        s.entries = g
            .map
            .values()
            .filter(|(slot, _)| matches!(slot, Slot::Done(_)))
            .count();
        s
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn publish(&self, key: u64, zone: CachedZone) {
        let weight = zone.weight();
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        if let Some((Slot::Done(old), _)) = g.map.insert(key, (Slot::Done(zone), tick)) {
            g.bytes -= old.weight();
        }
        g.bytes += weight;
        // Evict least-recently-used completed entries until under budget.
        // The entry just published is fair game too: with a zero budget
        // it leaves immediately, which still satisfies the contract
        // (record never fails, waiters were notified of completion).
        while g.bytes > self.max_bytes {
            let victim = g
                .map
                .iter()
                .filter(|(_, (slot, _))| matches!(slot, Slot::Done(_)))
                .min_by_key(|(_, (_, t))| *t)
                .map(|(&k, _)| k);
            let Some(k) = victim else { break };
            if let Some((Slot::Done(old), _)) = g.map.remove(&k) {
                g.bytes -= old.weight();
                g.stats.evictions += 1;
            }
        }
        drop(g);
        self.ready.notify_all();
    }

    fn abandon(&self, key: u64) {
        let mut g = self.lock();
        if matches!(g.map.get(&key), Some((Slot::InFlight, _))) {
            g.map.remove(&key);
        }
        drop(g);
        self.ready.notify_all();
    }
}

impl ZoneStore for ZoneCache {
    fn acquire(&self, key: u64) -> StoreAcquire<'_> {
        let mut g = self.lock();
        loop {
            match g.map.get(&key) {
                Some((Slot::Done(zone), _)) => {
                    let hit = zone.clone();
                    g.tick += 1;
                    let tick = g.tick;
                    if let Some((_, t)) = g.map.get_mut(&key) {
                        *t = tick;
                    }
                    g.stats.hits += 1;
                    return StoreAcquire::Hit(hit);
                }
                Some((Slot::InFlight, _)) => {
                    g = match self.ready.wait(g) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                None => {
                    g.tick += 1;
                    let tick = g.tick;
                    g.map.insert(key, (Slot::InFlight, tick));
                    g.stats.misses += 1;
                    return StoreAcquire::Solve(Some(ZoneReservation { cache: self, key }));
                }
            }
        }
    }

    fn record(
        &self,
        key: u64,
        cost_bits: u64,
        choices: &[(usize, Picoseconds)],
    ) -> Result<(), WaveMinError> {
        self.publish(
            key,
            CachedZone {
                cost_bits,
                choices: choices
                    .iter()
                    .map(|&(s, c)| (s, c.value().to_bits()))
                    .collect(),
            },
        );
        Ok(())
    }
}

/// Marks a key as being solved by the holder. Dropping it without a
/// matching [`ZoneStore::record`] (error or panic path) releases the
/// claim so blocked peers retry and solve for themselves.
pub struct ZoneReservation<'a> {
    cache: &'a ZoneCache,
    key: u64,
}

impl Drop for ZoneReservation<'_> {
    fn drop(&mut self) {
        self.cache.abandon(self.key);
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

    #[test]
    fn round_trips_entries_bit_for_bit() {
        let path = tmp("roundtrip.ckpt");
        let j = CheckpointJournal::open(&path, 0xdead_beef, false).expect("create");
        let choices = vec![(0usize, ps(12.5)), (3, ps(-0.0)), (7, ps(0.1 + 0.2))];
        j.record(42, 1.75_f64.to_bits(), &choices).expect("record");
        j.record(43, f64::NAN.to_bits(), &[]).expect("record");
        drop(j);

        let j = CheckpointJournal::open(&path, 0xdead_beef, true).expect("resume");
        assert_eq!(j.loaded(), 2);
        let hit = j.lookup(42).expect("key 42");
        assert_eq!(hit.cost().to_bits(), 1.75_f64.to_bits());
        let back = hit.choices_ps();
        assert_eq!(back.len(), 3);
        for ((s0, c0), (s1, c1)) in choices.iter().zip(&back) {
            assert_eq!(s0, s1);
            assert_eq!(c0.value().to_bits(), c1.value().to_bits());
        }
        // NaN cost survives as exact bits too (costs are opaque payloads).
        let nan = j.lookup(43).expect("key 43");
        assert_eq!(nan.cost_bits, f64::NAN.to_bits());
        assert!(j.lookup(99).is_none());
    }

    #[test]
    fn fingerprint_mismatch_discards_everything() {
        let path = tmp("mismatch.ckpt");
        let j = CheckpointJournal::open(&path, 1, false).expect("create");
        j.record(7, 0, &[]).expect("record");
        drop(j);
        let j = CheckpointJournal::open(&path, 2, true).expect("resume other fp");
        assert_eq!(j.loaded(), 0, "foreign entries must not be trusted");
        // And the file was restarted under the new fingerprint.
        drop(j);
        let j = CheckpointJournal::open(&path, 2, true).expect("reopen");
        assert_eq!(j.loaded(), 0);
    }

    #[test]
    fn truncated_trailing_line_is_ignored() {
        let path = tmp("truncated.ckpt");
        let j = CheckpointJournal::open(&path, 5, false).expect("create");
        j.record(1, 10, &[(0, ps(1.0))]).expect("record");
        drop(j);
        // Simulate a kill mid-append: a dangling half line.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        write!(f, "zone 00000000000000ff 000000").expect("write partial");
        drop(f);
        let j = CheckpointJournal::open(&path, 5, true).expect("resume");
        assert_eq!(j.loaded(), 1, "only the complete entry survives");
        assert!(j.lookup(1).is_some());
        assert!(j.lookup(0xff).is_none());
    }

    #[test]
    fn interior_corruption_is_a_typed_error_not_a_silent_skip() {
        let path = tmp("interior.ckpt");
        let j = CheckpointJournal::open(&path, 5, false).expect("create");
        j.record(1, 10, &[(0, ps(1.0))]).expect("record");
        drop(j);
        // Corrupt the middle of the file: a mangled line *followed by* a
        // valid complete entry cannot be mid-append truncation.
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        writeln!(f, "zone 00000000000000ff 000000").expect("write corrupt");
        writeln!(f, "zone 0000000000000002 0000000000000014 0").expect("write valid");
        drop(f);
        match CheckpointJournal::open(&path, 5, true) {
            Err(WaveMinError::Checkpoint(msg)) => {
                assert!(msg.contains("corrupt"), "message names the cause: {msg}");
                assert!(msg.contains("line 3"), "message locates the line: {msg}");
            }
            Ok(_) => panic!("interior corruption must fail the resume"),
            Err(other) => panic!("wrong error type: {other:?}"),
        }
        // A fresh (non-resume) open of the same path still works: it
        // truncates rather than trusting the corrupt body.
        let j = CheckpointJournal::open(&path, 5, false).expect("fresh open truncates");
        assert_eq!(j.loaded(), 0);
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
            .with_checkpoint("some/path.ckpt")
            .with_resume(true)
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
            StoreAcquire::Solve(Some(r)) => r,
            _ => panic!("cold key must miss with a reservation"),
        };
        cache
            .record(7, 2.5_f64.to_bits(), &[(1, ps(4.0))])
            .expect("record");
        drop(res);
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
            StoreAcquire::Solve(Some(r)) => r,
            _ => panic!("cold key must miss"),
        };
        drop(res); // solve failed; key must be claimable again
        match cache.acquire(3) {
            StoreAcquire::Solve(Some(_)) => {}
            _ => panic!("abandoned key must be reserved anew, not hit or block"),
        };
    }

    #[test]
    fn concurrent_acquires_dedup_the_solve() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ZoneCache::new(1 << 20);
        let solves = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| match cache.acquire(11) {
                    StoreAcquire::Hit(z) => {
                        assert_eq!(z.cost_bits, 9.0_f64.to_bits());
                    }
                    StoreAcquire::Solve(reservation) => {
                        solves.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        cache.record(11, 9.0_f64.to_bits(), &[]).expect("record");
                        drop(reservation);
                    }
                });
            }
        });
        assert_eq!(
            solves.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "exactly one thread wins the reservation; the rest block and hit"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
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
}
