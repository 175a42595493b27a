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
//! The same DFS has a recording mode, [`record_reduction`]: after a
//! proven round it walks the reduction again with no useless-state cache
//! and writes down every fact the traversal relied on, for the round's
//! certificate ([`crate::certify`]).

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
    /// after visiting this many states; in recording mode
    /// ([`record_reduction`]) it drops the certificate after
    /// [`RECORD_VISITED_HEADROOM`]× as many, since recording takes no
    /// useless-cache skips and can legitimately need more states than the
    /// check did. Both modes also charge `Category::DfsStates` per state,
    /// so the governor's run-wide budget is the ultimate authority; this
    /// field is the per-round cap.
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
    walk(
        pool,
        program,
        spec,
        order,
        oracle,
        persistent,
        proof,
        Some(useless),
        None,
        config,
        stats,
    )
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

/// State-budget headroom of the recording walk, as a multiple of
/// [`CheckConfig::max_visited`]. Recording takes no useless-cache skips,
/// so it expands subtrees the check skipped; a proven round whose check
/// fit `max_visited` only thanks to those skips still deserves a
/// certificate. The governor's run-wide `Category::DfsStates` budget —
/// charged per recorded state too — is the ultimate authority, so this
/// cap only bounds a single recording walk.
pub const RECORD_VISITED_HEADROOM: usize = 4;

/// Records the annotation-level structure of the reduction after a round
/// returned [`CheckResult::Proven`], by running [`check_proof`]'s walk in
/// recording mode: with no useless-state cache, so the recorded table
/// covers subtrees earlier rounds had already discharged — the
/// certificate must stand on its own — and under
/// [`RECORD_VISITED_HEADROOM`]× the state budget. Every solver query hits
/// the proof automaton's and oracle's memo tables, so the pass is roughly
/// one cold round of pure graph traversal.
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
    let config = CheckConfig {
        max_visited: config.max_visited.saturating_mul(RECORD_VISITED_HEADROOM),
        ..config.clone()
    };
    let mut rec = Recorder::default();
    let mut stats = CheckStats::default();
    let result = walk(
        pool,
        program,
        spec,
        order,
        oracle,
        persistent,
        proof,
        None,
        Some(&mut rec),
        &config,
        &mut stats,
    );
    // The walk tests its cap only while a state is left to expand, so a
    // covered initial state alone can still exceed a zero cap.
    (result == CheckResult::Proven && stats.visited <= config.max_visited).then(|| {
        RecordedReduction {
            initial: rec.initial.expect("the walk records its initial state"),
            edges: rec.edges.into_iter().collect(),
            bottoms: rec.bottoms.into_iter().collect(),
            safes: rec.safes.into_iter().collect(),
            claims: rec.claims.into_iter().collect(),
            ucommute: rec.ucommute.into_iter().collect(),
        }
    })
}

/// The facts a recording walk relied on, sorted and deduplicated.
#[derive(Default)]
struct Recorder {
    initial: Option<ProofStateId>,
    edges: BTreeSet<(ProofStateId, LetterId, ProofStateId)>,
    bottoms: BTreeSet<ProofStateId>,
    safes: BTreeSet<ProofStateId>,
    claims: BTreeSet<(LetterId, LetterId, ProofStateId)>,
    ucommute: BTreeSet<(LetterId, LetterId)>,
}

/// The DFS of Algorithm 2 — the only one in this module. `useless` is the
/// check mode's cross-round cache, `rec` the recording mode's fact table;
/// [`check_proof`] passes the first, [`record_reduction`] the second.
#[allow(clippy::too_many_arguments)]
fn walk(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    order: &dyn PreferenceOrder,
    oracle: &mut CommutativityOracle,
    persistent: Option<&PersistentSets>,
    proof: &mut ProofAutomaton,
    mut useless: Option<&mut UselessCache>,
    mut rec: Option<&mut Recorder>,
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

    if let Some(r) = rec.as_deref_mut() {
        r.initial = Some(phi0);
        // Membranes consume the whole unconditional commutativity
        // relation, so the certificate must carry it whenever membranes
        // (or condition-free sleep sets) are in play. The oracle has every
        // pair cached from `PersistentSets::new`, so this is a table scan,
        // not a solver sweep.
        if persistent.is_some() || (config.use_sleep && !config.proof_sensitive) {
            for a in program.letters() {
                for b in program.letters() {
                    if a < b
                        && program.thread_of(a) != program.thread_of(b)
                        && oracle.commute(pool, program, a, b)
                    {
                        r.ucommute.insert((a, b));
                    }
                }
            }
        }
    }

    let mut visited: BTreeMap<Key, VisitStatus> = BTreeMap::new();
    let mut stack: Vec<Frame> = Vec::new();

    // Enters a new state: returns its frame when it must be expanded and
    // None when the cross-round cache skips it or it is covered; returns
    // from the walk with the trace when it is an uncovered accepting state.
    macro_rules! enter {
        ($key:expr, $via:expr) => {{
            let (q, phi, sleep, ctx): Key = $key;
            let via: Option<LetterId> = $via;
            let skip = useless.as_deref().is_some_and(|cache| {
                stats.useless_probes += 1;
                cache.is_useless(&q, &sleep, ctx, proof.assertion_set(phi))
            });
            let done = if skip {
                stats.cache_skips += 1;
                true
            } else {
                stats.visited += 1;
                if proof.is_bottom(pool, phi) {
                    // Covered: the prefix is already proven infeasible.
                    if let Some(r) = rec.as_deref_mut() {
                        r.bottoms.insert(phi);
                    }
                    true
                } else if program.is_accepting(&q, spec) {
                    let violated = match spec {
                        Spec::ErrorOf(_) => true, // reachable error, not refuted
                        Spec::PrePost => !proof.implies_post(pool, phi, program.post()),
                    };
                    if violated {
                        let trace = stack.iter().filter_map(|f| f.via).chain(via).collect();
                        return CheckResult::Counterexample(trace);
                    }
                    if let Some(r) = rec.as_deref_mut() {
                        r.safes.insert(phi);
                    }
                    true
                } else {
                    false
                }
            };
            if done {
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
                    via,
                    explore,
                    enabled,
                    next: 0,
                    tainted: false,
                })
            }
        }};
    }

    let root: Key = (program.initial_state(), phi0, BitSet::new(n_letters), 0);
    match enter!(root, None) {
        Some(f) => stack.push(f),
        None => return CheckResult::Proven,
    }

    while let Some(frame) = stack.last_mut() {
        if stats.visited > config.max_visited {
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
            // useless-cache marking reads the status and the taint, so a
            // recording walk leaves the `OnStack` entry, whose presence
            // alone dedups.
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
            visited.insert((frame.q, frame.phi, frame.sleep, frame.ctx), status);
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
        if let Some(r) = rec.as_deref_mut() {
            r.edges.insert((phi, a, next_phi));
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
                    if let Some(r) = rec.as_deref_mut() {
                        if config.proof_sensitive {
                            r.claims.insert((a, b, phi));
                        } else {
                            r.ucommute.insert((a.min(b), a.max(b)));
                        }
                    }
                }
            }
        }

        let key: Key = (next_q, next_phi, next_sleep, next_ctx);
        if let Some(&status) = visited.get(&key) {
            // An edge into the stack, directly or through a tainted
            // state, taints the parent.
            frame.tainted |= status != VisitStatus::DoneClean;
            continue;
        }
        if let Some(f) = enter!(key, Some(a)) {
            stack.push(f)
        }
    }
    CheckResult::Proven
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
