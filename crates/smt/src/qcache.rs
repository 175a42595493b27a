//! Solver-level query memoization in two tiers, consulted by
//! [`crate::solver::check`] and by the warm
//! [`crate::solver::AssertionScope`] solver. Only definitive verdicts are
//! stored in either tier.
//!
//! **The pool memo** ([`QueryMemo`]) belongs to one [`crate::TermPool`]
//! and is keyed on the queried formula's hash-consed [`TermId`]. Within a
//! pool that id is already canonical: `∧`/`∨` sort and deduplicate their
//! children when they are interned, so structurally equal queries are one
//! id and a lookup builds no key. [`crate::TermPool::new`] switches the
//! memo on; `--no-qcache` (`VerifierConfig::use_qcache`) and the
//! certificate audit switch it off. Cloning a pool copies its memo by
//! value, and no API moves a memo into another pool, whose ids name other
//! formulas. The memo needs no capacity bound: it holds at most one entry
//! per interned formula, so it grows with the pool's own term table and is
//! freed with the pool (the daemon drops its pool after every request).
//!
//! **The shared cache** ([`QueryCache`]) is the cross-pool tier, consulted
//! on a memo miss only where a caller installed one
//! ([`crate::TermPool::set_shared_cache`]): the daemon installs one cache
//! on every worker's pool, and persists its working set in the proof
//! store's `qcache:` lines. Its key is the **canonical form** of the
//! query: the formula exported into the pool-independent [`ExportedTerm`]
//! representation (variables by name, atoms with name-sorted coefficient
//! lists), with the children of every `∧`/`∨` node recursively sorted.
//! Sorting preserves satisfiability (commutativity), and because the key
//! mentions no pool-relative id, structurally equal queries from
//! *different* pools share one entry. Building that key costs an exported
//! tree, one `String` per variable occurrence and a recursive sort, so
//! pools without a shared cache (the CLI, batch and portfolio runs) never
//! build one. A shared hit is copied into the memo.
//!
//! Soundness rules, for both tiers:
//!
//! * only `Sat` (with its model) and `Unsat` are stored. `Unknown` is
//!   **never** stored, so a budget- or deadline-tripped governor cannot
//!   poison either tier;
//! * a hit charges only a governor poll, so an expired deadline or a
//!   standing trip still answers `Unknown`;
//! * a `Sat` hit is re-validated by exact evaluation of the queried
//!   formula under the stored model, so a hit can never claim more than a
//!   fresh solve would;
//! * sat/unsat of a formula does not depend on which engine decided it:
//!   the CDCL and legacy DPLL engines (see [`crate::solver::SolverKind`])
//!   answer the same decision problem, so neither key encodes the engine.
//!
//! The shared cache is an [`Arc`]-shared, sharded hash map with a bounded
//! per-shard capacity and atomic hit/miss/insert/evict counters. Eviction
//! is **second-chance** (a one-bit clock): every lookup sets the entry's
//! referenced bit, and when a shard is over capacity the oldest entry is
//! either evicted (bit clear) or given a second chance at the back of the
//! queue (bit set, cleared in passing). Long-running daemons therefore
//! keep their working set hot under a strict memory bound, instead of
//! either leaking (unbounded growth) or churning it (plain FIFO evicting
//! the entries that are hit every round). Cloning a [`QueryCache`] — or a
//! [`crate::TermPool`] holding one — shares the underlying storage.
//!
//! For cross-*process* reuse (the `seqver serve` proof store), definitive
//! entries can be exported as `(canonical key, verdict)` pairs
//! ([`QueryCache::export_entries`]) whose verdicts have a stable text form
//! ([`CachedVerdict::to_text`]/[`CachedVerdict::parse`]); re-importing on
//! startup pre-warms a fresh cache. The same soundness rules apply: an
//! imported `Sat` model is still re-validated on every hit, so a stale or
//! corrupted entry costs a miss, never a wrong verdict.

use crate::linear::VarId;
use crate::solver::SatResult;
use crate::term::TermId;
use crate::transfer::ExportedTerm;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. A power of two so the shard
/// index is a cheap mask; 16 comfortably exceeds the daemon's worker
/// count, the only concurrent sharers of one cache.
const NUM_SHARDS: usize = 16;

/// Default total capacity (entries across all shards).
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A definitive cached verdict. `Unknown`/`GaveUp` outcomes are
/// deliberately unrepresentable here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// Satisfiable, with the witnessing model exported by variable name
    /// (pool-independent, re-validated on import).
    Sat(Vec<(String, i128)>),
    /// Unsatisfiable.
    Unsat,
}

impl CachedVerdict {
    /// Renders the verdict as a single-line token stream, stable across
    /// processes — the on-disk form used by the `seqver serve` proof
    /// store: `unsat`, or `sat (|name| value)*` with the same
    /// `|…|`-quoting (escaping `\` and `|`) as
    /// [`crate::transfer::ExportedTerm::to_text`].
    pub fn to_text(&self) -> String {
        match self {
            CachedVerdict::Unsat => "unsat".to_owned(),
            CachedVerdict::Sat(model) => {
                let mut out = String::from("sat");
                for (name, v) in model {
                    out.push_str(" (|");
                    for c in name.chars() {
                        if c == '\\' || c == '|' {
                            out.push('\\');
                        }
                        out.push(c);
                    }
                    out.push_str(&format!("| {v})"));
                }
                out
            }
        }
    }

    /// Parses the [`CachedVerdict::to_text`] form back; inverse on every
    /// well-formed input, `Err` (never a panic) on anything else.
    pub fn parse(s: &str) -> Result<CachedVerdict, String> {
        let s = s.trim();
        if s == "unsat" {
            return Ok(CachedVerdict::Unsat);
        }
        let Some(mut rest) = s.strip_prefix("sat") else {
            return Err(format!("invalid cached verdict `{s}`"));
        };
        let mut model = Vec::new();
        loop {
            rest = rest.trim_start();
            if rest.is_empty() {
                return Ok(CachedVerdict::Sat(model));
            }
            rest = rest
                .strip_prefix("(|")
                .ok_or_else(|| format!("expected `(|` in cached model near `{rest}`"))?;
            let mut name = String::new();
            let mut escaped = false;
            let mut consumed = 0;
            let mut closed = false;
            for c in rest.chars() {
                consumed += c.len_utf8();
                if escaped {
                    name.push(c);
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '|' {
                    closed = true;
                    break;
                } else {
                    name.push(c);
                }
            }
            if !closed {
                return Err("unterminated |…| name in cached model".to_owned());
            }
            rest = &rest[consumed..];
            let close = rest
                .find(')')
                .ok_or_else(|| format!("missing `)` in cached model near `{rest}`"))?;
            let value: i128 = rest[..close]
                .trim()
                .parse()
                .map_err(|_| format!("invalid model value `{}`", rest[..close].trim()))?;
            model.push((name, value));
            rest = &rest[close + 1..];
        }
    }
}

/// A point-in-time snapshot of the cache counters. Counters are
/// monotone, so the difference of two snapshots gives the activity of an
/// interval (see `RunStats` in the core crate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Definitive verdicts stored.
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas since `earlier` (saturating, so a stale
    /// snapshot can never underflow).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A definitive verdict in a pool memo, its model in the pool's own
/// [`VarId`]s.
#[derive(Clone, Debug)]
pub(crate) enum MemoVerdict {
    Sat(Box<[(VarId, i128)]>),
    Unsat,
}

/// The pool-owned memo tier: definitive verdicts keyed by the queried
/// formula's [`TermId`] (see the module doc). Outside this crate it is
/// read-only; the solver fills it.
#[derive(Clone, Default)]
pub struct QueryMemo {
    entries: HashMap<TermId, MemoVerdict>,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for QueryMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryMemo")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl QueryMemo {
    pub(crate) fn get(&self, formula: TermId) -> Option<&MemoVerdict> {
        self.entries.get(&formula)
    }

    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }

    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Stores `result` for `formula` unless it is `Unknown`.
    pub(crate) fn insert(&mut self, formula: TermId, result: &SatResult) {
        let verdict = match result {
            SatResult::Sat(model) => MemoVerdict::Sat(model.iter().collect()),
            SatResult::Unsat => MemoVerdict::Unsat,
            SatResult::Unknown => return,
        };
        self.entries.insert(formula, verdict);
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the monotone counters. Entries are never removed, so
    /// `insertions` is the entry count and `evictions` is 0.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.entries.len() as u64,
            evictions: 0,
        }
    }
}

/// A cached verdict plus its second-chance clock bit.
struct Entry {
    verdict: CachedVerdict,
    /// Set on every lookup; grants one round of immunity at eviction time.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<ExportedTerm, Entry>,
    /// Clock order for second-chance eviction (oldest at the front).
    queue: VecDeque<ExportedTerm>,
}

struct CacheInner {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// The sharded concurrent query cache: the cross-pool tier, keyed by
/// canonical [`ExportedTerm`]s (see the module doc). Cheap to clone (an
/// [`Arc`]); clones share storage and counters.
#[derive(Clone)]
pub struct QueryCache {
    inner: Arc<CacheInner>,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::new()
    }
}

impl QueryCache {
    /// A cache with the default capacity.
    pub fn new() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the shard count; at least one entry per shard).
    pub fn with_capacity(capacity: usize) -> QueryCache {
        let capacity_per_shard = capacity.div_ceil(NUM_SHARDS).max(1);
        QueryCache {
            inner: Arc::new(CacheInner {
                shards: (0..NUM_SHARDS)
                    .map(|_| Mutex::new(Shard::default()))
                    .collect(),
                capacity_per_shard,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                insertions: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    fn shard(&self, key: &ExportedTerm) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.inner.shards[hasher.finish() as usize % NUM_SHARDS]
    }

    /// Looks up a canonical key, marking the entry as recently used (its
    /// second-chance bit). Does **not** count a hit or miss — the solver
    /// calls [`QueryCache::note_hit`]/[`QueryCache::note_miss`] after
    /// deciding whether the entry is actually usable (a `Sat` model that
    /// fails re-validation is counted as a miss).
    pub fn get(&self, key: &ExportedTerm) -> Option<CachedVerdict> {
        let mut shard = self.shard(key).lock().expect("qcache shard");
        let entry = shard.map.get_mut(key)?;
        entry.referenced = true;
        Some(entry.verdict.clone())
    }

    /// Records a lookup answered from the cache.
    pub fn note_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup that fell through to a real solve.
    pub fn note_miss(&self) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a definitive verdict, displacing a not-recently-used entry
    /// by second chance when the shard is full. (`Unknown` is
    /// unrepresentable in [`CachedVerdict`] by construction.)
    pub fn insert(&self, key: ExportedTerm, verdict: CachedVerdict) {
        let mut shard = self.shard(&key).lock().expect("qcache shard");
        let entry = Entry {
            verdict,
            referenced: false,
        };
        if shard.map.insert(key.clone(), entry).is_none() {
            shard.queue.push_back(key);
            self.inner.insertions.fetch_add(1, Ordering::Relaxed);
            if shard.queue.len() > self.inner.capacity_per_shard {
                // Second-chance sweep: the oldest unreferenced entry goes;
                // referenced entries are recycled once with the bit
                // cleared. Terminates — every pass either evicts or clears
                // a bit, and bits are not re-set while the lock is held.
                while let Some(oldest) = shard.queue.pop_front() {
                    match shard.map.get_mut(&oldest) {
                        Some(e) if e.referenced => {
                            e.referenced = false;
                            shard.queue.push_back(oldest);
                        }
                        Some(_) => {
                            shard.map.remove(&oldest);
                            self.inner.evictions.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        // Stale queue key (should not happen): drop it and
                        // keep sweeping.
                        None => {}
                    }
                }
            }
        }
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("qcache shard").map.len())
            .sum()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exports up to `limit` cached `(canonical key, verdict)` pairs for
    /// persistence, in shard order. The selection is a best-effort recent
    /// working set (each shard contributes its newest clock entries
    /// first), bounded so a persisted store file stays small.
    pub fn export_entries(&self, limit: usize) -> Vec<(ExportedTerm, CachedVerdict)> {
        let mut out = Vec::new();
        let per_shard = limit.div_ceil(NUM_SHARDS).max(1);
        for shard in &self.inner.shards {
            let shard = shard.lock().expect("qcache shard");
            for key in shard.queue.iter().rev().take(per_shard) {
                if let Some(e) = shard.map.get(key) {
                    out.push((key.clone(), e.verdict.clone()));
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// A snapshot of the monotone counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Sorts the children of every `∧`/`∨` node recursively, producing the
/// canonical pool-independent form used as the cache key. Atom
/// coefficient lists are already name-sorted by the export; conjunction
/// and disjunction are commutative, so reordering children preserves
/// satisfiability exactly.
pub fn canonicalize(term: &mut ExportedTerm) {
    if let ExportedTerm::And(children) | ExportedTerm::Or(children) = term {
        for c in children.iter_mut() {
            canonicalize(c);
        }
        children.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Rel;

    fn atom(name: &str, k: i128) -> ExportedTerm {
        ExportedTerm::Atom {
            coeffs: vec![(name.to_owned(), 1)],
            constant: k,
            rel: Rel::Le0,
        }
    }

    #[test]
    fn canonicalize_sorts_nested_children() {
        let mut a = ExportedTerm::And(vec![atom("y", -1), atom("x", -2)]);
        let mut b = ExportedTerm::And(vec![atom("x", -2), atom("y", -1)]);
        canonicalize(&mut a);
        canonicalize(&mut b);
        assert_eq!(a, b);
        let mut nested = ExportedTerm::Or(vec![
            ExportedTerm::And(vec![atom("b", 0), atom("a", 0)]),
            atom("c", 0),
        ]);
        let mut nested2 = ExportedTerm::Or(vec![
            atom("c", 0),
            ExportedTerm::And(vec![atom("a", 0), atom("b", 0)]),
        ]);
        canonicalize(&mut nested);
        canonicalize(&mut nested2);
        assert_eq!(nested, nested2);
    }

    #[test]
    fn insert_get_and_counters() {
        let cache = QueryCache::new();
        let key = atom("x", -5);
        assert_eq!(cache.get(&key), None);
        cache.note_miss();
        cache.insert(key.clone(), CachedVerdict::Unsat);
        assert_eq!(cache.get(&key), Some(CachedVerdict::Unsat));
        cache.note_hit();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clones_share_storage() {
        let a = QueryCache::new();
        let b = a.clone();
        a.insert(atom("x", 0), CachedVerdict::Unsat);
        assert_eq!(b.get(&atom("x", 0)), Some(CachedVerdict::Unsat));
        b.note_hit();
        assert_eq!(a.stats().hits, 1);
    }

    #[test]
    fn eviction_bounds_size() {
        let cache = QueryCache::with_capacity(NUM_SHARDS); // one entry per shard
        for i in 0..200 {
            cache.insert(atom("x", i), CachedVerdict::Unsat);
        }
        assert!(
            cache.len() <= 2 * NUM_SHARDS,
            "len {} unbounded",
            cache.len()
        );
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn second_chance_protects_the_working_set() {
        // One entry per shard; hammer one shard with inserts while a "hot"
        // entry in it is looked up between inserts — second chance must
        // keep the hot entry alive while cold entries churn.
        let cache = QueryCache::with_capacity(NUM_SHARDS);
        let hot = atom("hot", 0);
        cache.insert(hot.clone(), CachedVerdict::Unsat);
        let mut survivals = 0;
        for i in 1..100 {
            // Touch the hot entry (sets its referenced bit)…
            if cache.get(&hot).is_some() {
                survivals += 1;
            }
            // …then insert a cold entry; whatever shard it lands in may
            // evict, but a referenced `hot` is recycled, not evicted.
            cache.insert(atom("cold", i), CachedVerdict::Unsat);
        }
        assert_eq!(survivals, 99, "hot entry must survive the churn");
        assert!(cache.get(&hot).is_some());
        assert!(cache.stats().evictions > 0, "cold entries must churn");
    }

    #[test]
    fn cached_verdict_text_round_trips() {
        for v in [
            CachedVerdict::Unsat,
            CachedVerdict::Sat(vec![]),
            CachedVerdict::Sat(vec![("x".into(), 3), ("y".into(), -12)]),
            CachedVerdict::Sat(vec![
                ("pipe|name".into(), 1),
                ("back\\slash".into(), i128::MAX),
            ]),
        ] {
            assert_eq!(CachedVerdict::parse(&v.to_text()), Ok(v));
        }
        for bad in [
            "",
            "satx",
            "sat (|x| )",
            "sat (|x 1)",
            "sat (|x| 1",
            "maybe",
        ] {
            assert!(CachedVerdict::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn export_entries_is_bounded_and_reimportable() {
        let cache = QueryCache::new();
        for i in 0..50 {
            cache.insert(atom("x", i), CachedVerdict::Sat(vec![("x".into(), -i)]));
        }
        let exported = cache.export_entries(16);
        assert!(exported.len() <= 16, "limit respected: {}", exported.len());
        assert!(!exported.is_empty());
        let fresh = QueryCache::new();
        for (k, v) in &exported {
            fresh.insert(k.clone(), v.clone());
        }
        for (k, v) in &exported {
            assert_eq!(fresh.get(k).as_ref(), Some(v));
        }
    }

    #[test]
    fn reinsert_does_not_duplicate_queue() {
        let cache = QueryCache::with_capacity(NUM_SHARDS);
        for _ in 0..100 {
            cache.insert(atom("x", 1), CachedVerdict::Unsat);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.stats().evictions, 0);
    }
}
