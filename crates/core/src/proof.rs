//! Floyd/Hoare proof automata (§7, after Heizmann et al.).
//!
//! A proof candidate is a finite set of assertions. The induced proof
//! automaton has as states *sets of assertions* (those that provably hold),
//! with transitions `δ(Φ, a) = { ψ | {⋀Φ} a {ψ} is a valid Hoare triple }`.
//! States and transitions are computed lazily and memoized; when the
//! refinement loop adds assertions, cached transitions are *extended*
//! rather than recomputed (each cache entry remembers how many assertions
//! it has examined).

use program::concurrent::{LetterId, Program};
use smt::linear::VarId;
use smt::solver::{check, AssertionScope};
use smt::term::{TermId, TermPool};
use std::collections::HashMap;

/// Index of a proof-automaton state (an interned assertion set).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ProofStateId(pub u32);

impl ProofStateId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cumulative solver-query counters, the paper's proof-check cost metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProofStats {
    /// Hoare-triple validity checks performed.
    pub hoare_checks: usize,
    /// Transition-cache hits.
    pub cache_hits: usize,
    /// Assertions currently in the pool.
    pub num_assertions: usize,
}

struct ProofState {
    /// Sorted assertion indices that hold at this state.
    set: Vec<u32>,
    /// `⋀ set` as a term.
    conj: TermId,
    /// Memo: is the conjunction unsatisfiable (the state "is ⊥")?
    bottom: Option<bool>,
}

struct LetterRelation {
    /// Relation formula over program vars (pre) and primed vars (post).
    formula: TermId,
    /// Written program var → primed var.
    primed: HashMap<VarId, VarId>,
}

/// The Floyd/Hoare proof automaton over a growing assertion pool.
pub struct ProofAutomaton {
    assertions: Vec<TermId>,
    assertion_index: HashMap<TermId, u32>,
    states: Vec<ProofState>,
    state_interner: HashMap<Vec<u32>, ProofStateId>,
    /// (state, letter) → (successor, number of assertions examined).
    transitions: HashMap<(ProofStateId, LetterId), (ProofStateId, usize)>,
    /// Per-letter relation, built once.
    relations: HashMap<LetterId, LetterRelation>,
    /// Canonical primed variable per program variable.
    primed_vars: HashMap<VarId, VarId>,
    /// ψ renamed to primed vars, memoized per (letter, ψ).
    renamed_post: HashMap<(LetterId, TermId), TermId>,
    /// Initial-state memo per (init∧pre formula, assertions examined).
    initial_cache: Option<(TermId, ProofStateId, usize)>,
    stats: ProofStats,
}

impl ProofAutomaton {
    /// An empty proof (no assertions).
    pub fn new() -> ProofAutomaton {
        ProofAutomaton {
            assertions: Vec::new(),
            assertion_index: HashMap::new(),
            states: Vec::new(),
            state_interner: HashMap::new(),
            transitions: HashMap::new(),
            relations: HashMap::new(),
            primed_vars: HashMap::new(),
            renamed_post: HashMap::new(),
            initial_cache: None,
            stats: ProofStats::default(),
        }
    }

    /// Query counters.
    pub fn stats(&self) -> ProofStats {
        ProofStats {
            num_assertions: self.assertions.len(),
            ..self.stats
        }
    }

    /// Number of assertions — the paper's *proof size* metric.
    pub fn proof_size(&self) -> usize {
        self.assertions.len()
    }

    /// The assertion pool in insertion order — what the supervisor harvests
    /// (via [`smt::transfer`]) to recycle a partial proof across restarts.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Adds an assertion (deduplicated); returns whether it was new.
    pub fn add_assertion(&mut self, assertion: TermId) -> bool {
        if assertion == TermPool::TRUE {
            return false; // trivial, never useful
        }
        if self.assertion_index.contains_key(&assertion) {
            return false;
        }
        let idx = self.assertions.len() as u32;
        self.assertions.push(assertion);
        self.assertion_index.insert(assertion, idx);
        true
    }

    /// The assertion set of a state (sorted indices into the pool).
    pub fn assertion_set(&self, s: ProofStateId) -> &[u32] {
        &self.states[s.index()].set
    }

    /// The conjunction `⋀Φ` of a state's assertions.
    pub fn conjunction(&self, s: ProofStateId) -> TermId {
        self.states[s.index()].conj
    }

    /// `true` iff the state's conjunction is unsatisfiable — the state
    /// denotes unreachable configurations, covering any trace through it.
    pub fn is_bottom(&mut self, pool: &mut TermPool, s: ProofStateId) -> bool {
        if let Some(b) = self.states[s.index()].bottom {
            return b;
        }
        let conj = self.states[s.index()].conj;
        let b = check(pool, &[conj]).is_unsat();
        self.states[s.index()].bottom = Some(b);
        b
    }

    /// `true` iff `⋀Φ ⊨ post` (conservative under solver `Unknown`).
    pub fn implies_post(&mut self, pool: &mut TermPool, s: ProofStateId, post: TermId) -> bool {
        let conj = self.states[s.index()].conj;
        smt::entails(pool, conj, post)
    }

    fn intern_state(&mut self, pool: &mut TermPool, set: Vec<u32>) -> ProofStateId {
        if let Some(&id) = self.state_interner.get(&set) {
            return id;
        }
        let conj = pool.and(set.iter().map(|&i| self.assertions[i as usize]));
        let id = ProofStateId(self.states.len() as u32);
        self.states.push(ProofState {
            set: set.clone(),
            conj,
            bottom: None,
        });
        self.state_interner.insert(set, id);
        id
    }

    /// The initial state for a given `init ∧ pre` formula: all assertions
    /// it entails. Extended incrementally as assertions are added.
    pub fn initial_state(&mut self, pool: &mut TermPool, init: TermId) -> ProofStateId {
        let (mut set, mut from) = match &self.initial_cache {
            Some((cached_init, s, upto)) if *cached_init == init => {
                if *upto == self.assertions.len() {
                    return *s;
                }
                (self.states[s.index()].set.clone(), *upto)
            }
            _ => (Vec::new(), 0),
        };
        if from < self.assertions.len() {
            // All entailment checks of this battery share the prefix
            // `init`; the scope front-loads its satisfiability check and
            // replays models, so most assertions cost an evaluation.
            // Under the CDCL engine the scope also keeps one warm solver:
            // the prefix is encoded once and each query push/pops an
            // assertion level, reusing the simplex basis and any theory
            // lemmas learned by earlier checks in the battery.
            let mut scope = AssertionScope::new(pool, &[init]);
            while from < self.assertions.len() {
                let a = self.assertions[from];
                self.stats.hoare_checks += 1;
                let neg = pool.not(a);
                if scope.check(pool, neg).is_unsat() {
                    set.push(from as u32);
                }
                from += 1;
            }
        }
        set.sort_unstable();
        let id = self.intern_state(pool, set);
        self.initial_cache = Some((init, id, self.assertions.len()));
        id
    }

    fn primed_var(&mut self, pool: &mut TermPool, v: VarId) -> VarId {
        if let Some(&p) = self.primed_vars.get(&v) {
            return p;
        }
        let p = pool.fresh_var(&format!("{}!post", pool.var_name(v)));
        self.primed_vars.insert(v, p);
        p
    }

    fn relation(&mut self, pool: &mut TermPool, program: &Program, l: LetterId) -> TermId {
        if let Some(r) = self.relations.get(&l) {
            return r.formula;
        }
        // `stmt` borrows `program`, which is disjoint from `self`/`pool`,
        // so no clone of the statement is needed.
        let stmt = program.statement(l);
        let primed: HashMap<VarId, VarId> = stmt
            .writes()
            .iter()
            .map(|&w| (w, self.primed_var(pool, w)))
            .collect();
        let (formula, _aux) = stmt.relation(pool, &primed);
        self.relations.insert(l, LetterRelation { formula, primed });
        formula
    }

    /// ψ with the letter's written variables renamed to their primed
    /// versions (memoized).
    fn rename_post(&mut self, pool: &mut TermPool, l: LetterId, psi: TermId) -> TermId {
        if let Some(&r) = self.renamed_post.get(&(l, psi)) {
            return r;
        }
        let map = &self.relations[&l].primed;
        let renamed = pool.rename(psi, &|v| map.get(&v).copied().unwrap_or(v));
        self.renamed_post.insert((l, psi), renamed);
        renamed
    }

    /// Is `{⋀Φ} a {ψ}` a valid Hoare triple? Conservative under `Unknown`.
    fn hoare_valid(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        phi_conj: TermId,
        l: LetterId,
        psi: TermId,
    ) -> bool {
        self.stats.hoare_checks += 1;
        let rel = self.relation(pool, program, l);
        let psi_primed = self.rename_post(pool, l, psi);
        let neg = pool.not(psi_primed);
        check(pool, &[phi_conj, rel, neg]).is_unsat()
    }

    /// Validity of the Hoare triple `{pre} l {post}`: no execution of
    /// statement `l` from a `pre`-state reaches a `¬post`-state. This is
    /// the exact solver query the proof automaton's transitions are built
    /// from, exposed so tests can validate interpolant chains (each
    /// consecutive pair of a sequence interpolant must form a valid triple
    /// with the trace statement between them).
    pub fn hoare_triple_valid(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        pre: TermId,
        l: LetterId,
        post: TermId,
    ) -> bool {
        self.hoare_valid(pool, program, pre, l, post)
    }

    /// `δ(Φ, a)`: the state of all assertions valid after executing `a`
    /// from `⋀Φ`. Memoized; extended when new assertions appear.
    pub fn step(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        s: ProofStateId,
        l: LetterId,
    ) -> ProofStateId {
        let total = self.assertions.len();
        let (mut set, mut from) = match self.transitions.get(&(s, l)) {
            Some(&(succ, upto)) => {
                if upto == total {
                    self.stats.cache_hits += 1;
                    return succ;
                }
                (self.states[succ.index()].set.clone(), upto)
            }
            None => (Vec::new(), 0),
        };
        let phi_conj = self.states[s.index()].conj;
        if from < total {
            // Every Hoare check of this battery shares the prefix
            // `⋀Φ ∧ rel(l)`; build it once and assert each ¬ψ′ under a
            // scope, so an unsatisfiable prefix or a reusable model
            // answers without a cold solve per assertion.
            let rel = self.relation(pool, program, l);
            let mut scope = AssertionScope::new(pool, &[phi_conj, rel]);
            while from < total {
                let psi = self.assertions[from];
                self.stats.hoare_checks += 1;
                let psi_primed = self.rename_post(pool, l, psi);
                let neg = pool.not(psi_primed);
                if scope.check(pool, neg).is_unsat() {
                    set.push(from as u32);
                }
                from += 1;
            }
        }
        set.sort_unstable();
        let succ = self.intern_state(pool, set);
        self.transitions.insert((s, l), (succ, total));
        succ
    }
}

impl Default for ProofAutomaton {
    fn default() -> Self {
        ProofAutomaton::new()
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

    /// One thread: x := x + 1.
    fn incr_program(pool: &mut TermPool) -> Program {
        let mut b = Program::builder("incr");
        let x = pool.var("x");
        b.add_global(x, 0);
        let l = b.add_statement(Statement::simple(
            ThreadId(0),
            "x := x + 1",
            SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            pool,
        ));
        let mut cfg = DfaBuilder::new();
        let q0 = cfg.add_state(false);
        let q1 = cfg.add_state(true);
        cfg.add_transition(q0, l, q1);
        b.add_thread(Thread::new("t", cfg.build(q0), BitSet::new(2)));
        b.build(pool)
    }

    #[test]
    fn initial_state_collects_entailed_assertions() {
        let mut pool = TermPool::new();
        let p = incr_program(&mut pool);
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let ge0 = pool.ge_const(x, 0);
        let ge5 = pool.ge_const(x, 5);
        proof.add_assertion(ge0);
        proof.add_assertion(ge5);
        let init = p.init_formula(); // x = 0
        let s0 = proof.initial_state(&mut pool, init);
        assert_eq!(proof.assertion_set(s0), &[0], "x=0 ⊨ x≥0 but not x≥5");
    }

    #[test]
    fn step_propagates_hoare_triples() {
        let mut pool = TermPool::new();
        let p = incr_program(&mut pool);
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let ge0 = pool.ge_const(x, 0);
        let ge1 = pool.ge_const(x, 1);
        proof.add_assertion(ge0);
        proof.add_assertion(ge1);
        let s0 = proof.initial_state(&mut pool, p.init_formula());
        let s1 = proof.step(&mut pool, &p, s0, LetterId(0));
        // After x := x + 1 from x = 0 (i.e. from {x≥0}): both x≥0 and x≥1.
        assert_eq!(proof.assertion_set(s1), &[0, 1]);
    }

    #[test]
    fn bottom_detection() {
        let mut pool = TermPool::new();
        let p = incr_program(&mut pool);
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let ge1 = pool.ge_const(x, 1);
        let le0 = pool.le_const(x, 0);
        proof.add_assertion(ge1);
        proof.add_assertion(le0);
        let s0 = proof.initial_state(&mut pool, TermPool::TRUE);
        assert!(!proof.is_bottom(&mut pool, s0), "⊤ state is not bottom");
        // Build the contradictory state by hand.
        let s = proof.intern_state(&mut pool, vec![0, 1]);
        assert!(proof.is_bottom(&mut pool, s));
        let _ = p;
    }

    #[test]
    fn transitions_extend_when_assertions_grow() {
        let mut pool = TermPool::new();
        let p = incr_program(&mut pool);
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let ge0 = pool.ge_const(x, 0);
        proof.add_assertion(ge0);
        let s0 = proof.initial_state(&mut pool, p.init_formula());
        let s1 = proof.step(&mut pool, &p, s0, LetterId(0));
        assert_eq!(proof.assertion_set(s1), &[0]);
        // Add x ≥ 1 and re-step: the memoized transition must be extended.
        let ge1 = pool.ge_const(x, 1);
        proof.add_assertion(ge1);
        let s0b = proof.initial_state(&mut pool, p.init_formula());
        let s1b = proof.step(&mut pool, &p, s0b, LetterId(0));
        assert_eq!(proof.assertion_set(s1b), &[0, 1]);
    }

    #[test]
    fn implies_post() {
        let mut pool = TermPool::new();
        let p = incr_program(&mut pool);
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let ge0 = pool.ge_const(x, 0);
        let ge1 = pool.ge_const(x, 1);
        proof.add_assertion(ge0);
        proof.add_assertion(ge1);
        // From init x = 0 the initial state carries x ≥ 0; after the
        // increment both x ≥ 0 and x ≥ 1 hold.
        let s0 = proof.initial_state(&mut pool, p.init_formula());
        let s1 = proof.step(&mut pool, &p, s0, LetterId(0));
        let post_weak = pool.ge_const(x, 0);
        let post_strong = pool.ge_const(x, 2);
        assert!(proof.implies_post(&mut pool, s1, post_weak));
        assert!(!proof.implies_post(&mut pool, s1, post_strong));
    }

    #[test]
    fn duplicate_assertions_ignored() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let mut proof = ProofAutomaton::new();
        let a = pool.ge_const(x, 0);
        assert!(proof.add_assertion(a));
        assert!(!proof.add_assertion(a));
        assert!(!proof.add_assertion(TermPool::TRUE));
        assert_eq!(proof.proof_size(), 1);
    }
}
