//! The on-the-fly proof check — Algorithm 2 (§7.2).
//!
//! A DFS over states `(q, Φ, S, ctx)` — product location, Floyd/Hoare
//! assertion set, sleep set, preference-order context — that
//! simultaneously constructs the reduction `(S⋖(P))↓πS` and checks that
//! the proof candidate covers it:
//!
//! * exploration is restricted to a weakly persistent membrane (π);
//! * sleeping letters are skipped, and successor sleep sets use
//!   **proof-sensitive commutativity** `a ↷↷_φ b` with `φ = ⋀Φ`;
//! * states whose assertion conjunction is unsatisfiable are *covered* —
//!   every extension is infeasible — and pruned;
//! * a state from which no counterexample is reachable is recorded in a
//!   cross-round **useless-state cache**; later rounds skip any state with
//!   the same `(q, S, ctx)` and a superset of assertions (sound by
//!   monotonicity of proof-sensitive commutativity, §7.2).
//!
//! The same DFS records certificates ([`crate::certify`]). With a recorder
//! attached, check mode also writes down every fact the traversal relies
//! on and keeps each key the useless-state cache skipped. When the round
//! proves the spec, the same walk resumes under those keys with no cache
//! (`Walk::resume`), so the proving round's record covers the whole
//! reduction without a second walk from the initial state.
//! [`record_reduction`] is that whole walk, for callers that record after
//! the fact: it enters the same states and records the same facts.

use crate::govern::{Category, GiveUp};
use crate::proof::{ProofAutomaton, ProofStateId};
use automata::bitset::BitSet;
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, ProductState, Program, Spec};
use reduction::order::{OrderContext, PreferenceOrder};
use reduction::persistent::{MembraneMode, PersistentSets};
use smt::term::{TermId, TermPool};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of one proof-check round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckResult {
    /// The proof covers the entire reduction: the program is correct.
    Proven,
    /// A trace of the reduction not covered by the proof.
    Counterexample(Vec<LetterId>),
    /// The state budget was exhausted.
    LimitReached,
    /// The round was aborted by the pool's resource governor: deadline,
    /// step budget or an injected fault. The give-up carries the cause.
    Interrupted(GiveUp),
}

/// Per-round exploration counters (the paper's memory proxy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct `(q, Φ, S, ctx)` states visited this round.
    pub visited: usize,
    /// States skipped thanks to the cross-round useless-state cache.
    pub cache_skips: usize,
    /// Useless-cache probes issued (hits are `cache_skips`).
    pub useless_probes: usize,
    /// Useless-cache entries after the round (a gauge, not a delta).
    /// [`check_proof`] leaves it unset; the owner of the cache fills it.
    pub useless_len: usize,
}

/// Switches for the proof check.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Apply sleep sets.
    pub use_sleep: bool,
    /// Apply weakly persistent membranes.
    pub use_persistent: bool,
    /// Use `⋀Φ` as the commutativity condition in sleep-set computation.
    pub proof_sensitive: bool,
    /// The per-round state budget of the one DFS. In check mode
    /// ([`check_proof`]) it aborts with [`CheckResult::LimitReached`]
    /// after visiting this many states. Recording drops the certificate
    /// once the check and its resumption together (or a
    /// [`record_reduction`] walk) visit more than
    /// [`RECORD_VISITED_HEADROOM`]× as many, since recording expands the
    /// subtrees the useless-state cache skipped. Every walk also charges
    /// `Category::DfsStates` per state, so the governor's run-wide budget
    /// is the ultimate authority; this field is the per-round cap.
    pub max_visited: usize,
    /// Ignored: the proof check is always the sequential Algorithm 2 DFS.
    /// The field exists only so that existing `CheckConfig` struct
    /// literals keep compiling.
    pub dfs_threads: usize,
    /// Ignored: check mode always probes and marks the useless-state
    /// cache, and recording mode uses none. The field exists only so that
    /// existing `CheckConfig` struct literals keep compiling.
    pub freeze_useless: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            use_sleep: true,
            use_persistent: true,
            proof_sensitive: true,
            max_visited: usize::MAX,
            dfs_threads: 1,
            freeze_useless: false,
        }
    }
}

/// Cross-round cache of useless states (§7.2).
///
/// A state is *useless* when no counterexample is reachable from it under
/// the current (hence any stronger) proof. Entries are bucketed by `q`
/// and then `ctx`, so the per-visit probe on the DFS hot path borrows its
/// way to one small bucket — no keys are cloned and no unrelated marked
/// state is scanned. Within a bucket, a new state is skipped when some
/// recorded entry has the same sleep set and an assertion subset.
#[derive(Clone, Debug, Default)]
pub struct UselessCache {
    map: HashMap<ProductState, HashMap<OrderContext, Vec<UselessEntry>>>,
}

/// One recorded useless state within a `(q, ctx)` bucket: its sleep set
/// and the (sorted) proof-assertion indices it was useless under.
type UselessEntry = (BitSet, Vec<u32>);

impl UselessCache {
    /// An empty cache.
    pub fn new() -> UselessCache {
        UselessCache::default()
    }

    /// Total recorded entries.
    pub fn len(&self) -> usize {
        self.map
            .values()
            .flat_map(|by_ctx| by_ctx.values())
            .map(Vec::len)
            .sum()
    }

    /// `true` if no entries are recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub(crate) fn is_useless(
        &self,
        q: &ProductState,
        sleep: &BitSet,
        ctx: OrderContext,
        assertions: &[u32],
    ) -> bool {
        self.map
            .get(q)
            .and_then(|by_ctx| by_ctx.get(&ctx))
            .is_some_and(|entries| {
                entries
                    .iter()
                    .any(|(s, set)| s == sleep && is_subset(set, assertions))
            })
    }

    pub(crate) fn mark(
        &mut self,
        q: ProductState,
        sleep: BitSet,
        ctx: OrderContext,
        assertions: Vec<u32>,
    ) {
        let entry = self.map.entry(q).or_default().entry(ctx).or_default();
        // Keep only minimal sets per sleep set.
        if entry
            .iter()
            .any(|(s, set)| *s == sleep && is_subset(set, &assertions))
        {
            return;
        }
        entry.retain(|(s, set)| !(*s == sleep && is_subset(&assertions, set)));
        entry.push((sleep, assertions));
    }
}

/// Sorted-slice subset test.
fn is_subset(small: &[u32], big: &[u32]) -> bool {
    let mut it = big.iter();
    'outer: for &x in small {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum VisitStatus {
    OnStack,
    /// Fully explored, no counterexample reachable, no edge into the stack.
    DoneClean,
    /// Fully explored without counterexample, but the verdict depends on a
    /// state that was still on the stack (possible cycle) — not cacheable.
    DoneTainted,
}

struct Frame {
    q: ProductState,
    phi: ProofStateId,
    sleep: BitSet,
    ctx: OrderContext,
    /// Letter taken from the parent to reach this frame.
    via: Option<LetterId>,
    explore: Vec<LetterId>,
    enabled: Vec<LetterId>,
    next: usize,
    tainted: bool,
}

type Key = (ProductState, ProofStateId, BitSet, OrderContext);

/// Runs one proof-check round (Algorithm 2): the DFS in check mode, which
/// probes `useless` before entering a state and marks every clean subtree.
#[allow(clippy::too_many_arguments)]
pub fn check_proof(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    useless: &mut UselessCache,
    config: &CheckConfig,
    stats: &mut CheckStats,
) -> CheckResult {
    Walk::new(program, spec, order, persistent, config, false)
        .check(pool, oracle, proof, useless, stats)
}

/// The annotation-level image of one fully covered reduction, captured by
/// a recording walk: everything an independent checker needs to replay
/// the DFS of Algorithm 2 *without* re-deriving any solver fact it does
/// not choose to re-verify.
///
/// Proof states are referenced by their `ProofStateId`; the caller
/// translates them to interned assertion sets when exporting a
/// certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedReduction {
    /// Proof state covering the initial product state.
    pub initial: ProofStateId,
    /// Annotation transitions used: `(Φ, a, Φ')` with `Φ' = δ(Φ, a)`.
    pub edges: Vec<(ProofStateId, LetterId, ProofStateId)>,
    /// Proof states pruned as covered (`⋀Φ` unsatisfiable).
    pub bottoms: Vec<ProofStateId>,
    /// Proof states at accepting product states shown to entail the post.
    pub safes: Vec<ProofStateId>,
    /// Proof-sensitive commutativity facts used by sleep sets:
    /// `(a, b, Φ)` means `a ↷↷_φ b` with `φ = ⋀Φ`.
    pub claims: Vec<(LetterId, LetterId, ProofStateId)>,
    /// Unconditional commutativity facts (`a < b`, distinct threads) used
    /// by persistent-set membranes and by condition-free sleep sets.
    pub ucommute: Vec<(LetterId, LetterId)>,
}

/// State-budget headroom of certificate recording, as a multiple of
/// [`CheckConfig::max_visited`]. A recording counts every state of the
/// reduction: the states its check entered plus those its resumption
/// enters under the useless-cache skips (or, for [`record_reduction`],
/// all of them from the initial state). A proven round whose check fit
/// `max_visited` only thanks to those skips still deserves a certificate.
/// The governor's run-wide `Category::DfsStates` budget — charged per
/// resumed state too — is the ultimate authority, so this cap only bounds
/// the recording of a single round.
pub const RECORD_VISITED_HEADROOM: usize = 4;

/// Records the annotation-level structure of the reduction after a round
/// returned [`CheckResult::Proven`], by a recording walk from the initial
/// state with no useless-state cache, so the recorded table covers every
/// subtree earlier rounds had already discharged — the certificate must
/// stand on its own — under [`RECORD_VISITED_HEADROOM`]× the state
/// budget. The verifier itself records during the proving round and only
/// resumes under that round's skips (see the module doc); this
/// stand-alone walk enters the same states and records the same facts.
///
/// Returns `None` when the walk cannot be completed faithfully: the state
/// budget or resource governor trips mid-walk, or (defensively) an
/// uncovered accepting state is found. The verdict is then reported
/// without a certificate rather than with a broken one.
#[allow(clippy::too_many_arguments)]
pub fn record_reduction(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    config: &CheckConfig,
) -> Option<RecordedReduction> {
    // A walk that checked nothing and resumes from the initial state.
    let mut walk = Walk::new(program, spec, order, persistent, config, true);
    let root = walk.root(pool, proof);
    walk.skipped.push(root);
    walk.resume(pool, oracle, proof, 0)
}

/// The facts a recording walk relied on. Edges and claims are kept per
/// proof state and dense over letters: a walk steps far more states than
/// there are distinct facts, so a repeat costs an index and a bit rather
/// than a tree search.
struct Recorder {
    initial: Option<ProofStateId>,
    n_letters: usize,
    /// Indexed by proof state.
    facts: Vec<StateFacts>,
    bottoms: BTreeSet<ProofStateId>,
    safes: BTreeSet<ProofStateId>,
    /// `(a, b)` with `a < b`, as bit `a·n + b`.
    ucommute: BitSet,
}

/// What a walk relied on at one proof state `Φ`.
struct StateFacts {
    /// `δ(Φ, a)` per letter `a` stepped from `Φ`; empty until the first.
    next: Vec<Option<ProofStateId>>,
    /// Claims `a ↷↷_φ b` as bit `a·n + b`; empty until the first.
    claims: BitSet,
}

impl Recorder {
    fn new(n_letters: usize) -> Recorder {
        Recorder {
            initial: None,
            n_letters,
            facts: Vec::new(),
            bottoms: BTreeSet::new(),
            safes: BTreeSet::new(),
            ucommute: BitSet::new(n_letters * n_letters),
        }
    }

    fn at(&mut self, phi: ProofStateId) -> &mut StateFacts {
        let i = phi.0 as usize;
        if i >= self.facts.len() {
            self.facts.resize_with(i + 1, || StateFacts {
                next: Vec::new(),
                claims: BitSet::new(0),
            });
        }
        &mut self.facts[i]
    }

    fn edge(&mut self, phi: ProofStateId, a: LetterId, next: ProofStateId) {
        let n = self.n_letters;
        let f = self.at(phi);
        if f.next.is_empty() {
            f.next = vec![None; n];
        }
        // No assertion is added during a walk, so δ is a function in it.
        debug_assert!(f.next[a.index()].is_none_or(|t| t == next));
        f.next[a.index()] = Some(next);
    }

    fn claim(&mut self, a: LetterId, b: LetterId, phi: ProofStateId) {
        let n = self.n_letters;
        let f = self.at(phi);
        if f.claims.capacity() == 0 {
            f.claims = BitSet::new(n * n);
        }
        f.claims.insert(a.index() * n + b.index());
    }

    fn ucommute(&mut self, a: LetterId, b: LetterId) {
        let (lo, hi) = (a.min(b), a.max(b));
        self.ucommute
            .insert(lo.index() * self.n_letters + hi.index());
    }

    /// The facts in the sorted, deduplicated form of [`RecordedReduction`].
    fn finish(self) -> RecordedReduction {
        let n = self.n_letters;
        let pair = |bit: usize| (LetterId((bit / n) as u32), LetterId((bit % n) as u32));
        let mut edges = Vec::new();
        let mut claims = Vec::new();
        for (i, f) in self.facts.iter().enumerate() {
            let phi = ProofStateId(i as u32);
            for (a, next) in f.next.iter().enumerate() {
                if let Some(next) = *next {
                    edges.push((phi, LetterId(a as u32), next));
                }
            }
            claims.extend(f.claims.iter().map(|bit| {
                let (a, b) = pair(bit);
                (a, b, phi)
            }));
        }
        claims.sort_unstable();
        RecordedReduction {
            initial: self.initial.expect("the walk records its initial state"),
            edges,
            bottoms: self.bottoms.into_iter().collect(),
            safes: self.safes.into_iter().collect(),
            claims,
            ucommute: self.ucommute.iter().map(pair).collect(),
        }
    }
}

/// What entering a state decided.
enum Entered {
    /// The state must be expanded.
    Expand(Frame),
    /// Skipped by the useless-state cache, covered, or a safe accepting
    /// state.
    Done,
    /// An uncovered accepting state.
    Violated,
}

/// One walk of Algorithm 2's DFS over one round's reduction — the only DFS
/// in this module. [`Walk::check`] runs check mode, which probes and marks
/// the useless-state cache. A recording walk also writes each fact into a
/// [`Recorder`] at the point the walk relies on it, and keeps the keys its
/// cache skipped, so that [`Walk::resume`] can expand them once the check
/// has proven the round.
pub(crate) struct Walk<'w> {
    program: &'w Program,
    spec: Spec,
    order: &'w dyn PreferenceOrder,
    persistent: Option<&'w PersistentSets>,
    config: &'w CheckConfig,
    membrane_mode: MembraneMode,
    visited: BTreeMap<Key, VisitStatus>,
    /// The fact table; `None` for a plain check.
    rec: Option<Recorder>,
    /// Keys the useless-state cache skipped, in skip order (kept only
    /// when recording).
    skipped: Vec<Key>,
}

impl<'w> Walk<'w> {
    /// A walk over `program`'s reduction for `spec`; `record` attaches a
    /// recorder.
    pub(crate) fn new(
        program: &'w Program,
        spec: Spec,
        order: &'w dyn PreferenceOrder,
        persistent: Option<&'w PersistentSets>,
        config: &'w CheckConfig,
        record: bool,
    ) -> Walk<'w> {
        Walk {
            program,
            spec,
            order,
            persistent,
            config,
            membrane_mode: match spec {
                Spec::PrePost => MembraneMode::Terminal,
                Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
            },
            visited: BTreeMap::new(),
            rec: record.then(|| Recorder::new(program.num_letters())),
            skipped: Vec::new(),
        }
    }

    /// Check mode from the initial state, under
    /// [`CheckConfig::max_visited`].
    pub(crate) fn check(
        &mut self,
        pool: &mut TermPool,
        oracle: &mut CommutativityOracle,
        proof: &mut ProofAutomaton,
        useless: &mut UselessCache,
        stats: &mut CheckStats,
    ) -> CheckResult {
        let root = self.root(pool, proof);
        let max_visited = self.config.max_visited;
        self.dfs(pool, oracle, proof, Some(useless), root, max_visited, stats)
    }

    /// Finishes the recording of a walk whose check returned
    /// [`CheckResult::Proven`] after entering `checked` states. With no
    /// useless-state cache and on the same visited map, it walks on from
    /// each key the check's cache skipped, in skip order. A skipped key
    /// was never expanded, so it counts as unvisited, whether it comes up
    /// as the next start or is reached again from a resumed state. The
    /// check and the resumption together enter exactly the states a walk
    /// from the initial state with no cache enters, and the recorded facts
    /// are sets over those states, so the record equals
    /// [`record_reduction`]'s.
    ///
    /// Returns `None` when the check and resumed states together exceed
    /// [`RECORD_VISITED_HEADROOM`]× the state budget, the governor trips,
    /// or (defensively) an uncovered accepting state is found.
    pub(crate) fn resume(
        mut self,
        pool: &mut TermPool,
        oracle: &mut CommutativityOracle,
        proof: &mut ProofAutomaton,
        checked: usize,
    ) -> Option<RecordedReduction> {
        let max_visited = self
            .config
            .max_visited
            .saturating_mul(RECORD_VISITED_HEADROOM);
        let mut stats = CheckStats {
            visited: checked,
            ..CheckStats::default()
        };
        let skipped = std::mem::take(&mut self.skipped);
        for key in &skipped {
            self.visited.remove(key);
        }
        for key in skipped {
            if !self.visited.contains_key(&key)
                && self.dfs(pool, oracle, proof, None, key, max_visited, &mut stats)
                    != CheckResult::Proven
            {
                return None;
            }
        }
        // The walk tests its cap only while a state is left to expand, so
        // covered states alone can still exceed it.
        if stats.visited > max_visited {
            return None;
        }
        let mut r = self.rec.expect("a recording walk");
        // Membranes consume the whole unconditional commutativity
        // relation, so the certificate must carry it whenever membranes
        // (or condition-free sleep sets) are in play. The oracle has every
        // pair cached from `PersistentSets::new`, so this is a table scan,
        // not a solver sweep.
        if self.persistent.is_some() || (self.config.use_sleep && !self.config.proof_sensitive) {
            let program = self.program;
            for a in program.letters() {
                for b in program.letters() {
                    if a < b
                        && program.thread_of(a) != program.thread_of(b)
                        && oracle.commute(pool, program, a, b)
                    {
                        r.ucommute(a, b);
                    }
                }
            }
        }
        Some(r.finish())
    }

    /// The initial state's key; a recording walk notes its proof state.
    fn root(&mut self, pool: &mut TermPool, proof: &mut ProofAutomaton) -> Key {
        let init_formula = pool.and([self.program.init_formula(), self.program.pre()]);
        let phi0 = proof.initial_state(pool, init_formula);
        if let Some(r) = self.rec.as_mut() {
            r.initial = Some(phi0);
        }
        let sleep = BitSet::new(self.program.num_letters());
        (self.program.initial_state(), phi0, sleep, 0)
    }

    /// Enters a new state: probes the cross-round cache, then classifies
    /// the state as covered, accepting or to be expanded.
    fn enter(
        &mut self,
        pool: &mut TermPool,
        proof: &mut ProofAutomaton,
        useless: Option<&UselessCache>,
        (q, phi, sleep, ctx): Key,
        via: Option<LetterId>,
        stats: &mut CheckStats,
    ) -> Entered {
        let skip = useless.is_some_and(|cache| {
            stats.useless_probes += 1;
            cache.is_useless(&q, &sleep, ctx, proof.assertion_set(phi))
        });
        let done = if skip {
            stats.cache_skips += 1;
            if self.rec.is_some() {
                self.skipped.push((q.clone(), phi, sleep.clone(), ctx));
            }
            true
        } else {
            stats.visited += 1;
            if proof.is_bottom(pool, phi) {
                // Covered: the prefix is already proven infeasible.
                if let Some(r) = self.rec.as_mut() {
                    r.bottoms.insert(phi);
                }
                true
            } else if self.program.is_accepting(&q, self.spec) {
                let violated = match self.spec {
                    Spec::ErrorOf(_) => true, // reachable error, not refuted
                    Spec::PrePost => !proof.implies_post(pool, phi, self.program.post()),
                };
                if violated {
                    return Entered::Violated;
                }
                if let Some(r) = self.rec.as_mut() {
                    r.safes.insert(phi);
                }
                true
            } else {
                false
            }
        };
        if done {
            self.visited
                .insert((q, phi, sleep, ctx), VisitStatus::DoneClean);
            return Entered::Done;
        }
        let enabled = self.program.enabled(&q);
        let mut explore: Vec<LetterId> = match self.persistent {
            Some(ps) => ps.compute(self.program, &q, self.order, ctx, self.membrane_mode),
            None => enabled.clone(),
        };
        if self.config.use_sleep {
            explore.retain(|l| !sleep.contains(l.index()));
        }
        // Deterministic DFS order: most preferred letter first.
        explore.sort_by_key(|&l| self.order.rank(ctx, l, self.program));
        self.visited
            .insert((q.clone(), phi, sleep.clone(), ctx), VisitStatus::OnStack);
        Entered::Expand(Frame {
            q,
            phi,
            sleep,
            ctx,
            via,
            explore,
            enabled,
            next: 0,
            tainted: false,
        })
    }

    /// The DFS from `root`: check mode when `useless` is given. Returns
    /// [`CheckResult::LimitReached`] once more than `max_visited` states
    /// are counted in `stats`.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        pool: &mut TermPool,
        oracle: &mut CommutativityOracle,
        proof: &mut ProofAutomaton,
        mut useless: Option<&mut UselessCache>,
        root: Key,
        max_visited: usize,
        stats: &mut CheckStats,
    ) -> CheckResult {
        let governor = pool.governor().clone();
        let (program, order, config) = (self.program, self.order, self.config);
        let n_letters = program.num_letters();
        let mut stack: Vec<Frame> = Vec::new();
        match self.enter(pool, proof, useless.as_deref(), root, None, stats) {
            Entered::Expand(f) => stack.push(f),
            Entered::Done => return CheckResult::Proven,
            Entered::Violated => return CheckResult::Counterexample(Vec::new()),
        }

        while let Some(frame) = stack.last_mut() {
            if stats.visited > max_visited {
                return CheckResult::LimitReached;
            }
            // One DFS state per iteration; the charge also observes the
            // deadline and any injected fault, so a round aborts mid-DFS
            // rather than between rounds.
            if let Err(give_up) = governor.charge(Category::DfsStates) {
                return CheckResult::Interrupted(give_up);
            }
            if frame.next >= frame.explore.len() {
                // Subtree done: pop, record, propagate taint. Only the
                // useless-cache marking reads the status and the taint, so
                // a walk without a cache leaves the `OnStack` entry, whose
                // presence alone dedups.
                let frame = stack.pop().expect("frame exists");
                let Some(cache) = useless.as_deref_mut() else {
                    continue;
                };
                let status = if frame.tainted {
                    if let Some(parent) = stack.last_mut() {
                        parent.tainted = true;
                    }
                    VisitStatus::DoneTainted
                } else {
                    cache.mark(
                        frame.q.clone(),
                        frame.sleep.clone(),
                        frame.ctx,
                        proof.assertion_set(frame.phi).to_vec(),
                    );
                    VisitStatus::DoneClean
                };
                self.visited
                    .insert((frame.q, frame.phi, frame.sleep, frame.ctx), status);
                continue;
            }
            let a = frame.explore[frame.next];
            frame.next += 1;

            let (phi, ctx) = (frame.phi, frame.ctx);
            let next_q = program
                .step(&frame.q, a)
                .expect("explored letter is enabled");
            let next_phi = proof.step(pool, program, phi, a);
            let next_ctx = order.step(ctx, a, program);
            if let Some(r) = self.rec.as_mut() {
                r.edge(phi, a, next_phi);
            }
            let mut next_sleep = BitSet::new(n_letters);
            if config.use_sleep {
                let condition: TermId = if config.proof_sensitive {
                    proof.conjunction(phi)
                } else {
                    TermPool::TRUE
                };
                for &b in &frame.enabled {
                    let earlier = frame.sleep.contains(b.index()) || order.less(ctx, b, a, program);
                    if earlier && oracle.commute_under(pool, program, condition, a, b) {
                        next_sleep.insert(b.index());
                        if let Some(r) = self.rec.as_mut() {
                            if config.proof_sensitive {
                                r.claim(a, b, phi);
                            } else {
                                r.ucommute(a, b);
                            }
                        }
                    }
                }
            }

            let key: Key = (next_q, next_phi, next_sleep, next_ctx);
            if let Some(&status) = self.visited.get(&key) {
                // An edge into the stack, directly or through a tainted
                // state, taints the parent.
                frame.tainted |= status != VisitStatus::DoneClean;
                continue;
            }
            match self.enter(pool, proof, useless.as_deref(), key, Some(a), stats) {
                Entered::Expand(f) => stack.push(f),
                Entered::Done => {}
                Entered::Violated => {
                    let trace = stack.iter().filter_map(|f| f.via).chain(Some(a));
                    return CheckResult::Counterexample(trace.collect());
                }
            }
        }
        CheckResult::Proven
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_test() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1]));
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1], &[]));
        assert!(is_subset(&[2], &[2]));
    }

    #[test]
    fn useless_cache_subsumption() {
        let mut c = UselessCache::new();
        let q = ProductState(vec![automata::dfa::StateId(0)]);
        let s = BitSet::new(4);
        c.mark(q.clone(), s.clone(), 0, vec![1, 2]);
        assert!(c.is_useless(&q, &s, 0, &[1, 2, 3]), "superset is skipped");
        assert!(c.is_useless(&q, &s, 0, &[1, 2]));
        assert!(!c.is_useless(&q, &s, 0, &[1]), "subset is not skipped");
        assert!(!c.is_useless(&q, &s, 1, &[1, 2]), "different context");
        // Marking a superset is a no-op; marking a subset replaces.
        c.mark(q.clone(), s.clone(), 0, vec![1, 2, 3]);
        assert_eq!(c.len(), 1);
        c.mark(q.clone(), s.clone(), 0, vec![1]);
        assert_eq!(c.len(), 1);
        assert!(c.is_useless(&q, &s, 0, &[1]));
    }

    /// A certificate is dropped, never truncated, when the recording walk
    /// trips its cap, and kept under the default budget.
    #[test]
    fn recording_drops_the_certificate_when_its_cap_trips() {
        let source = "var x: int = 0;
            thread inc { x := x + 1; }
            thread check { assert x >= 0; }
            spawn inc * 3;
            spawn check;";
        let mut pool = TermPool::new();
        let program = cpl::compile(source, &mut pool).expect("compiles");
        let spec = crate::verify::specs_of(&program)[0];
        let verifier = crate::verify::VerifierConfig::gemcutter_seq();
        let order = verifier.order.build();
        let mut oracle = CommutativityOracle::new(verifier.commutativity);
        let persistent = PersistentSets::new(&mut pool, &program, &mut oracle);
        let mut proof = ProofAutomaton::new();
        let x = pool.var("x");
        let invariant = pool.ge_const(x, 0);
        proof.add_assertion(invariant);
        proof.add_assertion(TermPool::FALSE);
        let config = CheckConfig::default();

        // A fresh cache only skips what this round already explored, so the
        // recording walk visits at least `checked` states.
        let mut stats = CheckStats::default();
        let result = check_proof(
            &mut pool,
            &program,
            spec,
            order.as_ref(),
            &mut oracle,
            Some(&persistent),
            &mut proof,
            &mut UselessCache::new(),
            &config,
            &mut stats,
        );
        assert_eq!(result, CheckResult::Proven);
        let checked = stats.visited;
        assert!(checked >= 2 * RECORD_VISITED_HEADROOM, "{checked} states");

        let mut record = |max_visited: usize| {
            record_reduction(
                &mut pool,
                &program,
                spec,
                order.as_ref(),
                &mut oracle,
                Some(&persistent),
                &mut proof,
                &CheckConfig {
                    max_visited,
                    ..config.clone()
                },
            )
        };
        assert!(record(checked / RECORD_VISITED_HEADROOM - 1).is_none());
        let rec = record(config.max_visited).expect("recorded under the default budget");
        assert!(!rec.edges.is_empty());
        assert!(!rec.bottoms.is_empty(), "the refuted assert is a bottom");
        assert!(!rec.claims.is_empty());
        assert!(!rec.ucommute.is_empty());
    }
}
