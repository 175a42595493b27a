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

use crate::govern::{Category, GiveUp};
use crate::proof::{ProofAutomaton, ProofStateId};
use automata::bitset::BitSet;
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, ProductState, Program, Spec};
use reduction::order::{OrderContext, PreferenceOrder};
use reduction::persistent::{MembraneMode, PersistentSets};
use smt::term::{TermId, TermPool};
use std::collections::HashMap;

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
    /// step budget, cooperative cancellation (another portfolio member
    /// concluded) or an injected fault. The give-up carries the cause.
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
    /// The per-round state budget: the proof-check DFS aborts after
    /// visiting this many states, and the certificate recording re-walk
    /// aborts after [`RECORD_VISITED_HEADROOM`]× as many (it takes no
    /// useless-cache skips, so it can legitimately need more states than
    /// the check did). Both walks also charge `Category::DfsStates` per
    /// state, so the governor's run-wide budget is the ultimate
    /// authority; this field is the per-round cap.
    pub max_visited: usize,
    /// Ignored: the proof check is always the sequential Algorithm 2 DFS.
    /// The field exists only so that existing `CheckConfig` struct
    /// literals keep compiling.
    pub dfs_threads: usize,
    /// Probe the useless-state cache but record no new entries, so the
    /// round leaves the cache as it found it.
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

/// Runs one proof-check round (Algorithm 2).
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
    let governor = pool.governor().clone();
    let membrane_mode = match spec {
        Spec::PrePost => MembraneMode::Terminal,
        Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
    };
    let n_letters = program.num_letters();
    let init_formula = pool.and([program.init_formula(), program.pre()]);
    let phi0 = proof.initial_state(pool, init_formula);

    let mut visited: HashMap<Key, VisitStatus> = HashMap::new();
    let mut stack: Vec<Frame> = Vec::new();

    // Returns Some(frame) if the state should be expanded, None if it is
    // covered/pruned; Err(trace) when it is an uncovered accepting state.
    macro_rules! enter {
        ($q:expr, $phi:expr, $sleep:expr, $ctx:expr, $via:expr, $trace_prefix:expr) => {{
            let q: ProductState = $q;
            let phi: ProofStateId = $phi;
            let sleep: BitSet = $sleep;
            let ctx: OrderContext = $ctx;
            stats.visited += 1;
            // Covered: the prefix is already proven infeasible.
            if proof.is_bottom(pool, phi) {
                visited.insert((q, phi, sleep, ctx), VisitStatus::DoneClean);
                None
            } else if program.is_accepting(&q, spec) {
                let violated = match spec {
                    Spec::ErrorOf(_) => true, // reachable error, not refuted
                    Spec::PrePost => !proof.implies_post(pool, phi, program.post()),
                };
                if violated {
                    let mut trace: Vec<LetterId> = $trace_prefix;
                    if let Some(l) = $via {
                        trace.push(l);
                    }
                    return CheckResult::Counterexample(trace);
                }
                visited.insert((q, phi, sleep, ctx), VisitStatus::DoneClean);
                None
            } else {
                let enabled = program.enabled(&q);
                let mut explore: Vec<LetterId> = match persistent {
                    Some(ps) => ps.compute(program, &q, order, ctx, membrane_mode),
                    None => enabled.clone(),
                };
                if config.use_sleep {
                    explore.retain(|l| !sleep.contains(l.index()));
                }
                // Deterministic DFS order: most preferred letter first.
                explore.sort_by_key(|&l| order.rank(ctx, l, program));
                visited.insert((q.clone(), phi, sleep.clone(), ctx), VisitStatus::OnStack);
                Some(Frame {
                    q,
                    phi,
                    sleep,
                    ctx,
                    via: $via,
                    explore,
                    enabled,
                    next: 0,
                    tainted: false,
                })
            }
        }};
    }

    let q0 = program.initial_state();
    let sleep0 = BitSet::new(n_letters);
    stats.useless_probes += 1;
    if useless.is_useless(&q0, &sleep0, 0, proof.assertion_set(phi0)) {
        stats.cache_skips += 1;
        return CheckResult::Proven;
    }
    match enter!(q0, phi0, sleep0, 0, None, Vec::new()) {
        Some(f) => stack.push(f),
        None => return CheckResult::Proven,
    }

    while let Some(frame) = stack.last_mut() {
        if stats.visited > config.max_visited {
            return CheckResult::LimitReached;
        }
        // One DFS state per iteration; the charge also observes the
        // deadline, cancellation flag and any injected fault, so a round
        // aborts mid-DFS rather than between rounds.
        if let Err(give_up) = governor.charge(Category::DfsStates) {
            return CheckResult::Interrupted(give_up);
        }
        if frame.next >= frame.explore.len() {
            // Subtree done: pop, record, propagate taint.
            let frame = stack.pop().expect("frame exists");
            let key: Key = (frame.q.clone(), frame.phi, frame.sleep.clone(), frame.ctx);
            let status = if frame.tainted {
                VisitStatus::DoneTainted
            } else {
                if !config.freeze_useless {
                    useless.mark(
                        frame.q.clone(),
                        frame.sleep.clone(),
                        frame.ctx,
                        proof.assertion_set(frame.phi).to_vec(),
                    );
                }
                VisitStatus::DoneClean
            };
            visited.insert(key, status);
            if frame.tainted {
                if let Some(parent) = stack.last_mut() {
                    parent.tainted = true;
                }
            }
            continue;
        }
        let a = frame.explore[frame.next];
        frame.next += 1;

        // Successor components.
        let q = frame.q.clone();
        let phi = frame.phi;
        let sleep = frame.sleep.clone();
        let ctx = frame.ctx;
        let enabled = frame.enabled.clone();

        let next_q = program.step(&q, a).expect("explored letter is enabled");
        let next_phi = proof.step(pool, program, phi, a);
        let next_ctx = order.step(ctx, a, program);
        let next_sleep = if config.use_sleep {
            let condition: TermId = if config.proof_sensitive {
                proof.conjunction(phi)
            } else {
                TermPool::TRUE
            };
            let mut s = BitSet::new(n_letters);
            for &b in &enabled {
                let earlier = sleep.contains(b.index()) || order.less(ctx, b, a, program);
                if earlier && oracle.commute_under(pool, program, condition, a, b) {
                    s.insert(b.index());
                }
            }
            s
        } else {
            BitSet::new(n_letters)
        };

        let key: Key = (next_q.clone(), next_phi, next_sleep.clone(), next_ctx);
        match visited.get(&key) {
            Some(VisitStatus::OnStack) => {
                stack.last_mut().expect("parent").tainted = true;
                continue;
            }
            Some(VisitStatus::DoneTainted) => {
                stack.last_mut().expect("parent").tainted = true;
                continue;
            }
            Some(VisitStatus::DoneClean) => continue,
            None => {}
        }
        // Cross-round cache.
        stats.useless_probes += 1;
        if useless.is_useless(
            &next_q,
            &next_sleep,
            next_ctx,
            proof.assertion_set(next_phi),
        ) {
            stats.cache_skips += 1;
            visited.insert(key, VisitStatus::DoneClean);
            continue;
        }
        let trace_prefix: Vec<LetterId> = stack.iter().filter_map(|f| f.via).collect();
        if let Some(f) = enter!(
            next_q,
            next_phi,
            next_sleep,
            next_ctx,
            Some(a),
            trace_prefix
        ) {
            stack.push(f)
        }
    }
    CheckResult::Proven
}

/// The annotation-level image of one fully covered reduction, captured by
/// [`record_reduction`]: everything an independent checker needs to replay
/// the DFS of Algorithm 2 *without* re-deriving any solver fact it does
/// not choose to re-verify.
///
/// Proof states are referenced by their `ProofStateId`; the caller
/// translates them to interned assertion sets when exporting a
/// certificate.
#[derive(Clone, Debug)]
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

/// State-budget headroom for the certificate recording re-walk, as a
/// multiple of [`CheckConfig::max_visited`]. The re-walk takes no
/// useless-cache skips, so it re-expands subtrees the check skipped; a
/// proven round whose check fit `max_visited` only thanks to those skips
/// still deserves a certificate. The governor's run-wide
/// `Category::DfsStates` budget — charged per recorded state too — is
/// the ultimate authority, so this cap only bounds a single re-walk.
pub const RECORD_VISITED_HEADROOM: usize = 4;

/// Re-walks the reduction after a round returned [`CheckResult::Proven`]
/// and records its annotation-level structure.
///
/// Unlike [`check_proof`] this walk takes **no** useless-cache skips, so
/// the recorded table covers subtrees earlier rounds had already
/// discharged — the certificate must stand on its own. Every solver query
/// hits the proof automaton's and oracle's memo tables, so the pass is
/// roughly one cold round of pure graph traversal.
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
    use std::collections::BTreeSet;

    let governor = pool.governor().clone();
    let membrane_mode = match spec {
        Spec::PrePost => MembraneMode::Terminal,
        Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
    };
    let n_letters = program.num_letters();
    let init_formula = pool.and([program.init_formula(), program.pre()]);
    let phi0 = proof.initial_state(pool, init_formula);

    let mut edges: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut bottoms: BTreeSet<u32> = BTreeSet::new();
    let mut safes: BTreeSet<u32> = BTreeSet::new();
    let mut claims: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
    let mut ucommute: BTreeSet<(u32, u32)> = BTreeSet::new();

    // Membranes consume the whole unconditional commutativity relation, so
    // the certificate must carry it whenever membranes (or condition-free
    // sleep sets) are in play. The oracle has every pair cached from
    // `PersistentSets::new`, so this is a table scan, not a solver sweep.
    if persistent.is_some() || (config.use_sleep && !config.proof_sensitive) {
        for a in program.letters() {
            for b in program.letters() {
                if a.index() < b.index()
                    && program.thread_of(a) != program.thread_of(b)
                    && oracle.commute(pool, program, a, b)
                {
                    ucommute.insert((a.index() as u32, b.index() as u32));
                }
            }
        }
    }

    struct RecFrame {
        q: ProductState,
        phi: ProofStateId,
        sleep: BitSet,
        ctx: OrderContext,
        explore: Vec<LetterId>,
        enabled: Vec<LetterId>,
        next: usize,
    }

    let mut visited: BTreeSet<Key> = BTreeSet::new();
    let mut stack: Vec<RecFrame> = Vec::new();
    let mut seen = 0usize;

    // Mirrors `enter!`: classify a state, record the fact that justified
    // its treatment, and return a frame when it must be expanded.
    macro_rules! rec_enter {
        ($q:expr, $phi:expr, $sleep:expr, $ctx:expr) => {{
            let q: ProductState = $q;
            let phi: ProofStateId = $phi;
            let sleep: BitSet = $sleep;
            let ctx: OrderContext = $ctx;
            seen += 1;
            // The recording walk takes no useless-cache skips, so it can
            // legitimately visit more states than the check did — a check
            // that fit `max_visited` only thanks to cache skips must not
            // lose its certificate here. The headroom factor covers that;
            // the `Category::DfsStates` governor charge below still owns
            // the run-wide budget. If the cap trips anyway the certificate
            // is dropped (surfaced as `certs_dropped`), never truncated.
            if seen > config.max_visited.saturating_mul(RECORD_VISITED_HEADROOM) {
                return None;
            }
            if proof.is_bottom(pool, phi) {
                bottoms.insert(phi.0);
                None
            } else if program.is_accepting(&q, spec) {
                match spec {
                    Spec::ErrorOf(_) => return None, // uncovered accepting state
                    Spec::PrePost => {
                        if !proof.implies_post(pool, phi, program.post()) {
                            return None;
                        }
                        safes.insert(phi.0);
                    }
                }
                None
            } else {
                let enabled = program.enabled(&q);
                let mut explore: Vec<LetterId> = match persistent {
                    Some(ps) => ps.compute(program, &q, order, ctx, membrane_mode),
                    None => enabled.clone(),
                };
                if config.use_sleep {
                    explore.retain(|l| !sleep.contains(l.index()));
                }
                explore.sort_by_key(|&l| order.rank(ctx, l, program));
                Some(RecFrame {
                    q,
                    phi,
                    sleep,
                    ctx,
                    explore,
                    enabled,
                    next: 0,
                })
            }
        }};
    }

    let q0 = program.initial_state();
    let sleep0 = BitSet::new(n_letters);
    visited.insert((q0.clone(), phi0, sleep0.clone(), 0));
    if let Some(f) = rec_enter!(q0, phi0, sleep0, 0) {
        stack.push(f);
    }

    while let Some(frame) = stack.last_mut() {
        if governor.charge(Category::DfsStates).is_err() {
            return None;
        }
        if frame.next >= frame.explore.len() {
            stack.pop();
            continue;
        }
        let a = frame.explore[frame.next];
        frame.next += 1;

        let q = frame.q.clone();
        let phi = frame.phi;
        let sleep = frame.sleep.clone();
        let ctx = frame.ctx;
        let enabled = frame.enabled.clone();

        let next_q = program.step(&q, a).expect("explored letter is enabled");
        let next_phi = proof.step(pool, program, phi, a);
        let next_ctx = order.step(ctx, a, program);
        edges.insert((phi.0, a.index() as u32, next_phi.0));
        let next_sleep = if config.use_sleep {
            let condition: TermId = if config.proof_sensitive {
                proof.conjunction(phi)
            } else {
                TermPool::TRUE
            };
            let mut s = BitSet::new(n_letters);
            for &b in &enabled {
                let earlier = sleep.contains(b.index()) || order.less(ctx, b, a, program);
                if earlier && oracle.commute_under(pool, program, condition, a, b) {
                    s.insert(b.index());
                    if config.proof_sensitive {
                        claims.insert((a.index() as u32, b.index() as u32, phi.0));
                    } else {
                        let (lo, hi) = if a.index() < b.index() {
                            (a, b)
                        } else {
                            (b, a)
                        };
                        ucommute.insert((lo.index() as u32, hi.index() as u32));
                    }
                }
            }
            s
        } else {
            BitSet::new(n_letters)
        };

        let key: Key = (next_q.clone(), next_phi, next_sleep.clone(), next_ctx);
        if !visited.insert(key) {
            continue;
        }
        if let Some(f) = rec_enter!(next_q, next_phi, next_sleep, next_ctx) {
            stack.push(f);
        }
    }

    let wrap = |x: &BTreeSet<u32>| x.iter().map(|&s| ProofStateId(s)).collect::<Vec<_>>();
    Some(RecordedReduction {
        initial: phi0,
        edges: edges
            .iter()
            .map(|&(s, l, t)| (ProofStateId(s), LetterId(l), ProofStateId(t)))
            .collect(),
        bottoms: wrap(&bottoms),
        safes: wrap(&safes),
        claims: claims
            .iter()
            .map(|&(a, b, s)| (LetterId(a), LetterId(b), ProofStateId(s)))
            .collect(),
        ucommute: ucommute
            .iter()
            .map(|&(a, b)| (LetterId(a), LetterId(b)))
            .collect(),
    })
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
}
