//! A resumable, single-round verification engine.
//!
//! [`Engine`] packages the per-order state of the refinement loop (the
//! preference order, commutativity oracle, persistent sets and the §7.2
//! useless-state cache) and exposes one refinement round at a time.
//! [`mod@crate::drive`] advances engines round by round; several engines
//! take turns over a *common* [`ProofAutomaton`] — assertions
//! discovered under one preference order are program facts and immediately
//! benefit every other order. This realizes the direction sketched in the
//! paper's §8 Limitations ("dynamically adjust a choice of a preference
//! order based on partial verification efforts").

use crate::certify::SpecCert;
use crate::check::{CheckConfig, CheckResult, CheckStats, RecordedReduction, UselessCache, Walk};
use crate::govern::{Category, GiveUp};
use crate::interpolate::{analyze_trace, TraceResult};
use crate::proof::ProofAutomaton;
use crate::verify::{OrderSpec, RunStats, VerifierConfig};
use program::commutativity::CommutativityOracle;
use program::concurrent::{LetterId, Program, Spec};
use reduction::order::PreferenceOrder;
use reduction::persistent::PersistentSets;
use smt::term::TermPool;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// Outcome of a single refinement round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The proof covers this engine's reduction: the program is correct.
    Proven,
    /// A feasible violating trace.
    Bug(Vec<LetterId>),
    /// The counterexample was refuted; new assertions were added.
    Refined,
    /// This engine cannot continue (budget, solver incompleteness,
    /// deadline, injected fault, …). The give-up carries the category.
    GaveUp(GiveUp),
}

/// A bounded memory of recently seen counterexample traces.
///
/// A refinement round that reproduces *any* recently seen trace is stuck:
/// the proof grew but the preference order keeps steering the check into a
/// cycle of counterexamples it cannot refute further. Comparing only
/// against the immediately preceding trace misses period-2 (and longer)
/// cycles, so we keep a bounded set of trace hashes.
#[derive(Clone, Debug, Default)]
pub struct TraceHistory {
    seen: HashSet<u64>,
    order: VecDeque<u64>,
}

/// How many recent traces a [`TraceHistory`] remembers.
const TRACE_HISTORY_CAPACITY: usize = 64;

impl TraceHistory {
    /// An empty history.
    pub fn new() -> TraceHistory {
        TraceHistory::default()
    }

    /// Records `trace`; returns `true` iff it was already in the history
    /// (i.e. refinement is cycling). Evicts the oldest entry beyond
    /// [`TRACE_HISTORY_CAPACITY`].
    pub fn record(&mut self, trace: &[LetterId]) -> bool {
        let mut hasher = DefaultHasher::new();
        trace.hash(&mut hasher);
        let h = hasher.finish();
        if !self.seen.insert(h) {
            return true;
        }
        self.order.push_back(h);
        if self.order.len() > TRACE_HISTORY_CAPACITY {
            let evicted = self.order.pop_front().expect("nonempty");
            self.seen.remove(&evicted);
        }
        false
    }

    /// Number of remembered traces.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no trace has been recorded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Per-preference-order verification state, advanced one round at a time
/// against a (possibly shared) proof automaton.
pub struct Engine {
    /// Display name (the configuration's).
    pub name: String,
    /// This engine's counters; `useless_len` is its cache's current size.
    pub stats: RunStats,
    spec: Spec,
    order: Box<dyn PreferenceOrder>,
    order_spec: OrderSpec,
    certify: bool,
    oracle: CommutativityOracle,
    persistent: Option<PersistentSets>,
    useless: UselessCache,
    check_config: CheckConfig,
    history: TraceHistory,
    /// Left by the last proving round: the proof's Hoare checks as read
    /// before certification, and the round's certificate.
    proven: Option<(usize, Option<SpecCert>)>,
}

impl Engine {
    /// Creates an engine for `spec` under `config`.
    pub fn new(
        pool: &mut TermPool,
        program: &Program,
        spec: Spec,
        config: &VerifierConfig,
    ) -> Engine {
        let mut oracle = CommutativityOracle::new(config.commutativity);
        let persistent = config
            .use_persistent
            .then(|| PersistentSets::new(pool, program, &mut oracle));
        Engine {
            name: config.name.clone(),
            stats: RunStats::default(),
            spec,
            order: config.order.build(),
            order_spec: config.order.clone(),
            certify: config.certify,
            oracle,
            persistent,
            useless: UselessCache::new(),
            check_config: CheckConfig {
                use_sleep: config.use_sleep,
                use_persistent: config.use_persistent,
                proof_sensitive: config.proof_sensitive,
                max_visited: config.max_visited_per_round,
                ..CheckConfig::default()
            },
            history: TraceHistory::new(),
            proven: None,
        }
    }

    /// The specification this engine checks.
    pub fn spec(&self) -> Spec {
        self.spec
    }

    /// Takes what the last proving round left: the proof's Hoare checks
    /// as read before certification, and the round's certificate (`None`
    /// when certification is disabled for the engine's configuration or
    /// was dropped).
    pub fn take_proven(&mut self) -> Option<(usize, Option<SpecCert>)> {
        self.proven.take()
    }

    /// Turns a proving round's recorded reduction into this engine's
    /// certificate for `proof`. The round recorded it while checking and
    /// then resumed under its useless-cache skips; `None` means that
    /// resumption tripped its state cap or the governor, which counts in
    /// `certs_dropped`.
    fn record_spec_cert(
        &mut self,
        pool: &TermPool,
        proof: &ProofAutomaton,
        rec: Option<RecordedReduction>,
    ) -> Option<SpecCert> {
        let Some(rec) = rec else {
            self.stats.certs_dropped += 1;
            return None;
        };
        Some(SpecCert::from_recorded(
            pool,
            proof,
            &rec,
            self.spec,
            &self.order_spec,
            &self.check_config,
        ))
    }

    /// Runs one proof-check round against `proof` and, on an uncovered
    /// trace, refines `proof` (or reports the bug). With certification
    /// on, the round records its reduction while it checks; when it
    /// proves the spec, it leaves the certificate for
    /// [`Engine::take_proven`].
    pub fn round(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        proof: &mut ProofAutomaton,
    ) -> RoundOutcome {
        self.stats.rounds += 1;
        self.proven = None;
        let mut round = CheckStats::default();
        let mut walk = Walk::new(
            program,
            self.spec,
            self.order.as_ref(),
            self.persistent.as_ref(),
            &self.check_config,
            self.certify,
        );
        let result = walk.check(pool, &mut self.oracle, proof, &mut self.useless, &mut round);
        self.stats.merge(&RunStats {
            visited_states: round.visited,
            max_round_visited: round.visited,
            cache_skips: round.cache_skips,
            useless_probes: round.useless_probes,
            ..RunStats::default()
        });
        self.stats.useless_len = self.useless.len();
        match result {
            CheckResult::Proven => {
                // Read before the resumption extends δ under the skips.
                let hoare_checks = proof.stats().hoare_checks;
                let cert = if self.certify {
                    let rec = walk.resume(pool, &mut self.oracle, proof, round.visited);
                    self.record_spec_cert(pool, proof, rec)
                } else {
                    None
                };
                self.proven = Some((hoare_checks, cert));
                RoundOutcome::Proven
            }
            CheckResult::LimitReached => RoundOutcome::GaveUp(GiveUp::new(
                Category::DfsStates,
                format!(
                    "state budget exhausted ({} states)",
                    self.check_config.max_visited
                ),
            )),
            CheckResult::Interrupted(g) => RoundOutcome::GaveUp(g),
            CheckResult::Counterexample(trace) => {
                if self.history.record(&trace) {
                    RoundOutcome::GaveUp(GiveUp::new(
                        Category::NonProgress,
                        "refinement made no progress",
                    ))
                } else {
                    let analysis = analyze_trace(
                        pool,
                        program,
                        &trace,
                        self.spec,
                        &mut self.stats.interpolation,
                    );
                    match analysis {
                        TraceResult::Feasible => RoundOutcome::Bug(trace),
                        // The governor may be the true cause of an undecided
                        // feasibility check; attribute it if so.
                        TraceResult::Unknown => {
                            RoundOutcome::GaveUp(pool.governor().give_up().unwrap_or_else(|| {
                                GiveUp::new(Category::UnknownTheory, "trace feasibility undecided")
                            }))
                        }
                        TraceResult::Infeasible { chain } => {
                            for a in chain {
                                proof.add_assertion(a);
                            }
                            RoundOutcome::Refined
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::bitset::BitSet;
    use automata::dfa::DfaBuilder;
    use program::stmt::{SimpleStmt, Statement};
    use program::thread::{Thread, ThreadId};
    use smt::linear::LinExpr;

    /// x := x + 1; [assume x > bound → error].
    fn counter(pool: &mut TermPool, bound: i128) -> Program {
        let mut b = Program::builder("c");
        let x = pool.var("x");
        b.add_global(x, 0);
        let incr = b.add_statement(Statement::simple(
            ThreadId(0),
            "x := x + 1",
            SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            pool,
        ));
        let le = pool.le_const(x, bound);
        let gt = pool.not(le);
        let bad = b.add_statement(Statement::simple(
            ThreadId(0),
            "assume x > bound",
            SimpleStmt::Assume(gt),
            pool,
        ));
        let mut cfg = DfaBuilder::new();
        let q0 = cfg.add_state(false);
        let q1 = cfg.add_state(false);
        let err = cfg.add_state(false);
        cfg.add_transition(q0, incr, q1);
        cfg.add_transition(q1, bad, err);
        let mut errors = BitSet::new(3);
        errors.insert(err.index());
        b.add_thread(Thread::new("t", cfg.build(q0), errors));
        b.build(pool)
    }

    /// Period-2 cycle: alternating between two traces must be detected as
    /// non-progress. The old implementation only compared against the
    /// immediately preceding trace and looped forever on `t1, t2, t1, …`.
    #[test]
    fn trace_history_detects_period_two_cycle() {
        let mut h = TraceHistory::new();
        let t1 = [LetterId(0), LetterId(1)];
        let t2 = [LetterId(1), LetterId(0)];
        assert!(!h.record(&t1), "first sighting");
        assert!(!h.record(&t2), "different trace");
        assert!(h.record(&t1), "period-2 repeat must be caught");
        assert!(h.record(&t2), "period-2 repeat must be caught");
    }

    #[test]
    fn trace_history_bounded_eviction() {
        let mut h = TraceHistory::new();
        let trace = |i: u32| [LetterId(i), LetterId(i + 1)];
        for i in 0..(TRACE_HISTORY_CAPACITY as u32) {
            assert!(!h.record(&trace(i)));
        }
        assert_eq!(h.len(), TRACE_HISTORY_CAPACITY);
        // One more evicts the oldest...
        assert!(!h.record(&trace(1_000)));
        assert_eq!(h.len(), TRACE_HISTORY_CAPACITY);
        // ...so the first trace is forgotten, while a recent one is not.
        assert!(!h.record(&trace(0)), "evicted trace is no longer a repeat");
        assert!(h.record(&trace(17)), "recent trace is still remembered");
    }

    /// End-to-end regression: a round that reproduces an earlier — not
    /// necessarily the immediately preceding — counterexample gives up
    /// instead of looping. We seed the history as if the trace the first
    /// round will find had been seen two rounds ago (with a different trace
    /// in between), which the old single-`last_trace` check missed.
    #[test]
    fn engine_gives_up_on_cycling_counterexamples() {
        let mut pool = TermPool::new();
        let p = counter(&mut pool, 5);
        let config = VerifierConfig::gemcutter_seq();
        let mut engine = Engine::new(&mut pool, &p, Spec::ErrorOf(ThreadId(0)), &config);
        // The first check round finds the shortest error path `incr; bad`.
        assert!(!engine.history.record(&[LetterId(0), LetterId(1)]));
        assert!(!engine.history.record(&[LetterId(1), LetterId(0)]));
        let mut proof = ProofAutomaton::new();
        assert_eq!(
            engine.round(&mut pool, &p, &mut proof),
            RoundOutcome::GaveUp(GiveUp::new(
                Category::NonProgress,
                "refinement made no progress"
            ))
        );
    }

    #[test]
    fn engine_steps_to_proven() {
        let mut pool = TermPool::new();
        let p = counter(&mut pool, 5);
        let config = VerifierConfig::gemcutter_seq();
        let mut engine = Engine::new(&mut pool, &p, Spec::ErrorOf(ThreadId(0)), &config);
        let mut proof = ProofAutomaton::new();
        // Round 1: empty proof → counterexample → refined.
        assert_eq!(
            engine.round(&mut pool, &p, &mut proof),
            RoundOutcome::Refined
        );
        assert!(proof.proof_size() > 0);
        // Eventually proven.
        let mut outcome = RoundOutcome::Refined;
        for _ in 0..10 {
            outcome = engine.round(&mut pool, &p, &mut proof);
            if outcome != RoundOutcome::Refined {
                break;
            }
        }
        assert_eq!(outcome, RoundOutcome::Proven);
        assert!(engine.stats.rounds >= 2);
    }

    #[test]
    fn engine_finds_bug() {
        let mut pool = TermPool::new();
        let p = counter(&mut pool, 0); // x = 1 > 0 after one increment
        let config = VerifierConfig::gemcutter_seq();
        let mut engine = Engine::new(&mut pool, &p, Spec::ErrorOf(ThreadId(0)), &config);
        let mut proof = ProofAutomaton::new();
        let mut outcome = RoundOutcome::Refined;
        for _ in 0..10 {
            outcome = engine.round(&mut pool, &p, &mut proof);
            if outcome != RoundOutcome::Refined {
                break;
            }
        }
        let RoundOutcome::Bug(trace) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(trace.len(), 2);
    }

    /// A round that proves within its state budget, but whose check plus
    /// resumption exceed [`crate::check::RECORD_VISITED_HEADROOM`] times
    /// that budget, still proves: only its certificate is dropped and
    /// counted. A round over an already proven proof skips the initial
    /// state itself, so its check enters no state and its resumption walks
    /// the whole reduction.
    #[test]
    fn a_round_over_the_recording_headroom_proves_without_a_certificate() {
        let source = "var x: int = 0;
            thread inc { x := x + 1; }
            thread check { assert x >= 0; }
            spawn inc * 3;
            spawn check;";
        let mut pool = TermPool::new();
        let p = cpl::compile(source, &mut pool).expect("compiles");
        let spec = crate::verify::specs_of(&p)[0];
        let mut engine = Engine::new(&mut pool, &p, spec, &VerifierConfig::gemcutter_seq());
        let mut proof = ProofAutomaton::new();
        let mut outcome = RoundOutcome::Refined;
        while outcome == RoundOutcome::Refined {
            outcome = engine.round(&mut pool, &p, &mut proof);
        }
        assert_eq!(outcome, RoundOutcome::Proven);
        let (_, cert) = engine.take_proven().expect("a proving round");
        let cert = cert.expect("certified under the default budget");

        let (visited, skips) = (engine.stats.visited_states, engine.stats.cache_skips);
        assert_eq!(
            engine.round(&mut pool, &p, &mut proof),
            RoundOutcome::Proven
        );
        assert_eq!(
            engine.stats.visited_states, visited,
            "the check entered no state"
        );
        assert_eq!(
            engine.stats.cache_skips,
            skips + 1,
            "it skipped the initial state"
        );
        let (_, resumed) = engine.take_proven().expect("a proving round");
        assert_eq!(resumed, Some(cert), "resuming from the initial state");

        engine.check_config.max_visited = 1;
        assert_eq!(
            engine.round(&mut pool, &p, &mut proof),
            RoundOutcome::Proven
        );
        assert_eq!(engine.take_proven().map(|(_, cert)| cert), Some(None));
        assert_eq!(engine.stats.certs_dropped, 1);
    }

    #[test]
    fn assertions_from_one_engine_help_another() {
        // Engine A (seq) refines once; engine B (lockstep) then proves in
        // fewer rounds than it would alone, because the shared proof
        // already contains A's assertions.
        let mut pool = TermPool::new();
        let p = counter(&mut pool, 5);
        let spec = Spec::ErrorOf(ThreadId(0));
        let mut a = Engine::new(&mut pool, &p, spec, &VerifierConfig::gemcutter_seq());
        let mut b = Engine::new(&mut pool, &p, spec, &VerifierConfig::gemcutter_lockstep());
        let mut shared = ProofAutomaton::new();
        // Let A do all the refining.
        loop {
            match a.round(&mut pool, &p, &mut shared) {
                RoundOutcome::Refined => continue,
                RoundOutcome::Proven => break,
                other => panic!("{other:?}"),
            }
        }
        // B proves immediately with the shared proof.
        assert_eq!(b.round(&mut pool, &p, &mut shared), RoundOutcome::Proven);
        assert_eq!(b.stats.rounds, 1);
    }
}
