//! CDCL(T) search over monotone formulas: two-watched-literal propagation,
//! 1UIP clause learning, non-chronological backjumping, VSIDS-style
//! activity, geometric restarts, and theory propagation against a
//! persistent [`IncrementalSimplex`].
//!
//! The pool's formulas are negation-free (see [`crate::term`]), so the
//! encoding is a *one-directional* Tseitin transform: every gate `g`
//! only gets the clauses saying `g → children` (`(¬g ∨ cᵢ)` for `∧`,
//! `(¬g ∨ c₁ ∨ … ∨ cₖ)` for `∨`). Setting a variable false merely
//! declines to use that subformula, which is always sound for a monotone
//! root asserted as a positive unit. The theory only ever sees atoms
//! assigned *true*.
//!
//! Assertion provenance is threaded through the run: every input clause
//! carries the indices of the assertions it came from, learned clauses
//! union the origins of everything resolved, and literals fixed at
//! decision level 0 memoize their own origin closure eagerly
//! ([`CdclSolver::enqueue`]) so the final `Unsat` answer names a sound
//! (often small) subset of the input. [`crate::unsat_core`] minimizes
//! with one warm solver per core: every assertion's gate definitions are
//! emitted once at scope 0 ([`CdclSolver::define`]), and each deletion
//! probe asserts its kept assertions in a pushed scope, solves and pops,
//! so the slack rows, the simplex basis and the theory lemmas carry over
//! from probe to probe. The origins of an `Unsat` probe seed the next
//! deletions.
//!
//! Governor charges: one [`Category::DpllDecisions`] at solve entry and
//! per decision (mirroring the legacy recursion's per-node charge so
//! existing budgets and `FaultPlan`s stay meaningful), one
//! [`Category::CdclConflicts`] per conflict analysis, and
//! [`Category::SimplexPivots`] inside the incremental theory checks.

use crate::lia::{check_integer_governed, LiaResult, DEFAULT_BB_BUDGET};
use crate::linear::{LinearConstraint, VarId};
use crate::resource::{Category, ResourceGovernor};
use crate::simplex::{IncrementalSimplex, SimplexMark, TheoryResult};
use crate::term::{Term, TermId, TermPool};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A boolean variable of the CDCL encoding (atom or gate).
pub type BVar = u32;

/// A literal: variable plus sign, packed as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit(v << 1 | 1)
    }

    /// `v` with explicit sign (`true` = positive).
    pub fn new(v: BVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        self.0 >> 1
    }

    /// `true` for a positive literal.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index (for watch lists).
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_pos() { "+" } else { "-" }, self.var())
    }
}

/// A clause in the database.
#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Sorted assertion indices this clause's validity depends on
    /// (empty for gate definitions and theory lemmas).
    origins: Vec<u32>,
    /// Assertion-scope depth at which the clause was added; popped with
    /// the scope. Theory lemmas use scope 0: they are valid outright.
    scope: u32,
    learned: bool,
    theory: bool,
}

/// Introspection view of one clause (for the internals test battery).
#[derive(Clone, Debug)]
pub struct ClauseInfo {
    /// The literals, watch order first.
    pub lits: Vec<Lit>,
    /// Assertion indices the clause depends on.
    pub origins: Vec<u32>,
    /// Learned by conflict analysis.
    pub learned: bool,
    /// Produced by the theory (simplex conflict, bound clash, blocking).
    pub theory: bool,
}

/// Outcome of a [`CdclSolver::solve`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdclOutcome {
    /// Satisfiable, with an integer model of the true atoms.
    Sat(HashMap<VarId, i128>),
    /// Unsatisfiable; `origins` is a sound subset of the assertion
    /// indices whose conjunction is already unsatisfiable.
    Unsat {
        /// Sorted assertion indices supporting the refutation.
        origins: Vec<u32>,
    },
    /// Budget exhausted, governor tripped, or arithmetic overflow.
    Unknown,
}

/// Counters and invariant-violation tallies collected when auditing is
/// enabled ([`CdclSolver::enable_audit`]). The internals test battery
/// asserts the violation counts stay zero.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Backjumps performed (audited points).
    pub backjumps: u64,
    /// Conflict-free fixpoints at which the strong watch invariant was
    /// checked.
    pub fixpoint_checks: u64,
    /// Strong-invariant violations: a false watch whose partner watch
    /// was not true at a conflict-free fixpoint.
    pub watch_violations: u64,
    /// Structural violations: a clause not registered on exactly its
    /// first two literals' watch lists.
    pub structure_violations: u64,
    /// Trail-shape violations: decision levels not monotone or not
    /// matching the `trail_lim` blocks.
    pub trail_violations: u64,
    /// Learned clauses recorded.
    pub learned: u64,
    /// Learned clauses that were not asserting right after the backjump
    /// (must stay 0 for 1UIP).
    pub non_asserting_learned: u64,
    /// Theory lemmas (conflict explanations, bound clashes, blockings).
    pub theory_lemmas: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Boolean search steps per query (CDCL decisions, legacy DPLL branch
/// nodes) before the search gives up with `Unknown`.
pub const DECISION_BUDGET: usize = 100_000;
/// Geometric restart schedule: first restart after this many conflicts.
const RESTART_FIRST: u64 = 100;
/// Activity decay per conflict (`var_inc /= VAR_DECAY`).
const VAR_DECAY: f64 = 0.95;

/// A CDCL(T) solver instance over one [`TermPool`]'s terms.
///
/// The solver is persistent: the clause database, variable activities,
/// theory lemmas, and the incremental-simplex tableau all survive across
/// [`CdclSolver::solve`] calls, and [`CdclSolver::push_scope`] /
/// [`CdclSolver::pop_scope`] retract assertions without losing what was
/// learned below the popped scope. This is what `solver::AssertionScope`
/// builds its warm batteries on, and what [`crate::unsat_core`] probes
/// deletions with.
#[derive(Clone, Debug, Default)]
pub struct CdclSolver {
    // ---- encoding ----
    var_of: HashMap<TermId, BVar>,
    /// Definition-emission scope per term: popped entries are re-encoded
    /// (their gate clauses were retracted with the scope).
    encoded: HashMap<TermId, u32>,
    /// `Some(constraint)` for atom variables, `None` for gates.
    atom: Vec<Option<LinearConstraint>>,
    // ---- clause database ----
    clauses: Vec<Clause>,
    /// Assertions that normalized to `false`: `(scope, origins)`.
    empty_clauses: Vec<(u32, Vec<u32>)>,
    /// Watch lists indexed by [`Lit::code`].
    watches: Vec<Vec<u32>>,
    // ---- assignment ----
    assign: Vec<Option<bool>>,
    /// Saved phases (default `true`: monotone formulas like atoms on).
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    /// Eager origin closure for level-0 assignments.
    l0_origins: Vec<Vec<u32>>,
    /// Max clause scope used to derive each level-0 assignment.
    l0_scope: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    head: usize,
    theory_head: usize,
    /// Vars relevant to the current assertions (recomputed per solve).
    active: Vec<bool>,
    // ---- theory ----
    simplex: IncrementalSimplex,
    /// Simplex checkpoints taken at each decision level, parallel to
    /// `trail_lim`.
    level_marks: Vec<SimplexMark>,
    // ---- heuristics ----
    activity: Vec<f64>,
    var_inc: f64,
    conflicts: u64,
    restarts: u64,
    scope: u32,
    audit: Option<AuditReport>,
}

enum Candidate {
    Sat(HashMap<VarId, i128>),
    Block(u32),
    Unknown,
}

impl CdclSolver {
    /// An empty solver.
    pub fn new() -> CdclSolver {
        CdclSolver {
            var_inc: 1.0,
            ..CdclSolver::default()
        }
    }

    /// Number of boolean variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Total conflicts analyzed over the solver's lifetime.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total restarts over the solver's lifetime.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Starts collecting an [`AuditReport`].
    pub fn enable_audit(&mut self) {
        self.audit = Some(AuditReport::default());
    }

    /// The audit collected so far, if enabled.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// Snapshot of the clause database (for the internals tests).
    pub fn clause_infos(&self) -> Vec<ClauseInfo> {
        self.clauses
            .iter()
            .map(|c| ClauseInfo {
                lits: c.lits.clone(),
                origins: c.origins.clone(),
                learned: c.learned,
                theory: c.theory,
            })
            .collect()
    }

    // ---- scopes ----------------------------------------------------------

    /// Opens a retractable assertion level.
    pub fn push_scope(&mut self) {
        self.scope += 1;
    }

    /// Retracts every assertion (and every clause *derived under* an
    /// assertion) added since the matching [`CdclSolver::push_scope`].
    /// Theory lemmas are valid outright and survive: that is the
    /// cross-query learning the scope engine exists for.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open or a search is mid-flight.
    pub fn pop_scope(&mut self) {
        assert!(self.scope > 0, "pop_scope without a matching push_scope");
        assert!(self.trail.is_empty(), "pop_scope during an active search");
        self.scope -= 1;
        let s = self.scope;
        self.clauses.retain(|c| c.scope <= s);
        self.empty_clauses.retain(|(cs, _)| *cs <= s);
        self.encoded.retain(|_, es| *es <= s);
        self.rebuild_watches();
    }

    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let pairs: Vec<(u32, usize, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.lits.len() >= 2)
            .map(|(i, c)| (i as u32, c.lits[0].code(), c.lits[1].code()))
            .collect();
        for (i, a, b) in pairs {
            self.watches[a].push(i);
            self.watches[b].push(i);
        }
    }

    // ---- encoding --------------------------------------------------------

    fn new_bvar(&mut self, atom: Option<LinearConstraint>) -> BVar {
        let v = self.assign.len() as BVar;
        self.assign.push(None);
        self.phase.push(true);
        self.level.push(0);
        self.reason.push(None);
        self.l0_origins.push(Vec::new());
        self.l0_scope.push(0);
        self.activity.push(0.0);
        self.atom.push(atom);
        self.active.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    fn var_for(&mut self, t: TermId, atom: Option<LinearConstraint>) -> BVar {
        if let Some(&v) = self.var_of.get(&t) {
            return v;
        }
        let v = self.new_bvar(atom);
        self.var_of.insert(t, v);
        v
    }

    /// One-directional Tseitin encoding of `t`; returns its variable.
    /// Gate definitions are (re-)emitted at the current scope if a pop
    /// retracted them.
    fn encode(&mut self, pool: &TermPool, t: TermId) -> BVar {
        if self.encoded.contains_key(&t) {
            return self.var_of[&t];
        }
        match pool.term(t).clone() {
            Term::Atom(c) => {
                let v = self.var_for(t, Some(c));
                self.encoded.insert(t, 0);
                v
            }
            Term::And(children) => {
                let kids: Vec<BVar> = children.iter().map(|&c| self.encode(pool, c)).collect();
                let g = self.var_for(t, None);
                let scope = self.scope;
                for k in kids {
                    self.add_clause(
                        vec![Lit::neg(g), Lit::pos(k)],
                        Vec::new(),
                        scope,
                        false,
                        false,
                    );
                }
                self.encoded.insert(t, scope);
                g
            }
            Term::Or(children) => {
                let kids: Vec<BVar> = children.iter().map(|&c| self.encode(pool, c)).collect();
                let g = self.var_for(t, None);
                let scope = self.scope;
                let mut lits = Vec::with_capacity(kids.len() + 1);
                lits.push(Lit::neg(g));
                lits.extend(kids.into_iter().map(Lit::pos));
                self.add_clause(lits, Vec::new(), scope, false, false);
                self.encoded.insert(t, scope);
                g
            }
            // The pool's smart constructors never leave `⊤`/`⊥` inside a
            // gate; top-level constants are handled by `add_assertion`.
            Term::True | Term::False => unreachable!("constant below a gate"),
        }
    }

    /// Emits the gate definitions of `t` at the current scope without
    /// asserting it. A later [`CdclSolver::add_assertion`] of `t` in a
    /// pushed scope then adds only its root unit, and popping that scope
    /// keeps the definitions (and every clause learned from them alone).
    pub fn define(&mut self, pool: &TermPool, t: TermId) {
        if !matches!(pool.term(t), Term::True | Term::False) {
            self.encode(pool, t);
        }
    }

    /// Asserts `t` (at the current scope) tagged with assertion index
    /// `origin`; origins flow into learned clauses and the final
    /// [`CdclOutcome::Unsat`] answer.
    pub fn add_assertion(&mut self, pool: &TermPool, t: TermId, origin: u32) {
        match pool.term(t) {
            Term::True => {}
            Term::False => self.empty_clauses.push((self.scope, vec![origin])),
            _ => {
                let root = self.encode(pool, t);
                let scope = self.scope;
                self.add_clause(vec![Lit::pos(root)], vec![origin], scope, false, false);
            }
        }
    }

    fn add_clause(
        &mut self,
        lits: Vec<Lit>,
        mut origins: Vec<u32>,
        scope: u32,
        learned: bool,
        theory: bool,
    ) -> u32 {
        debug_assert!(!lits.is_empty());
        origins.sort_unstable();
        origins.dedup();
        let idx = self.clauses.len() as u32;
        if lits.len() >= 2 {
            self.watches[lits[0].code()].push(idx);
            self.watches[lits[1].code()].push(idx);
        }
        self.clauses.push(Clause {
            lits,
            origins,
            scope,
            learned,
            theory,
        });
        idx
    }

    // ---- assignment primitives ------------------------------------------

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| if l.is_pos() { b } else { !b })
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var() as usize;
        debug_assert!(self.assign[v].is_none(), "enqueue of an assigned var");
        self.assign[v] = Some(l.is_pos());
        self.phase[v] = l.is_pos();
        let lvl = self.current_level();
        self.level[v] = lvl;
        self.reason[v] = reason;
        if lvl == 0 {
            // Eager origin closure: a level-0 literal's support is its
            // reason clause's origins plus the (already closed) supports
            // of the clause's other literals. Decisions never happen at
            // level 0, so a reason always exists.
            let ci = reason.expect("level-0 assignments are implied");
            let (c_lits, mut org, mut sc) = {
                let c = &self.clauses[ci as usize];
                (c.lits.clone(), c.origins.clone(), c.scope)
            };
            for q in c_lits {
                if q.var() != l.var() {
                    merge_origins(&mut org, &self.l0_origins[q.var() as usize]);
                    sc = sc.max(self.l0_scope[q.var() as usize]);
                }
            }
            self.l0_origins[v] = org;
            self.l0_scope[v] = sc;
        }
        self.trail.push(l);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
        self.level_marks.push(self.simplex.mark());
    }

    /// Backjumps to `target`, unassigning everything above it, resetting
    /// the propagation head to 0 (full-trail rescan: this is what keeps
    /// the watch invariant self-healing after lemma attachment), and
    /// retracting the theory bounds asserted above `target`.
    fn backtrack(&mut self, target: u32) {
        if self.current_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for &l in &self.trail[keep..] {
            let v = l.var() as usize;
            self.assign[v] = None;
            self.reason[v] = None;
        }
        self.trail.truncate(keep);
        self.simplex.undo_to(self.level_marks[target as usize]);
        self.trail_lim.truncate(target as usize);
        self.level_marks.truncate(target as usize);
        self.head = 0;
        self.theory_head = self.theory_head.min(keep);
    }

    /// Clears the whole search state (including level 0) so the solver
    /// can be reused; bounds asserted during this solve are retracted
    /// back to `solve_mark`.
    fn reset_search(&mut self, solve_mark: SimplexMark) {
        self.backtrack(0);
        for &l in &self.trail.clone() {
            let v = l.var() as usize;
            self.assign[v] = None;
            self.reason[v] = None;
            self.l0_origins[v].clear();
            self.l0_scope[v] = 0;
        }
        self.trail.clear();
        self.head = 0;
        self.theory_head = 0;
        self.simplex.undo_to(solve_mark);
    }

    // ---- propagation -----------------------------------------------------

    /// Boolean unit propagation from `head`; returns a conflicting
    /// clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.head < self.trail.len() {
            let p = self.trail[self.head];
            self.head += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let cu = ci as usize;
                if self.clauses[cu].lits[0] == false_lit {
                    self.clauses[cu].lits.swap(0, 1);
                }
                let w0 = self.clauses[cu].lits[0];
                if self.lit_value(w0) == Some(true) {
                    i += 1;
                    continue;
                }
                let mut moved = false;
                for k in 2..self.clauses[cu].lits.len() {
                    let lk = self.clauses[cu].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[cu].lits.swap(1, k);
                        self.watches[lk.code()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    ws.swap_remove(i);
                    continue;
                }
                match self.lit_value(w0) {
                    Some(false) => {
                        self.watches[false_lit.code()] = ws;
                        return Some(ci);
                    }
                    _ => {
                        self.enqueue(w0, Some(ci));
                        i += 1;
                    }
                }
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    /// Runs boolean and theory propagation to a joint fixpoint.
    ///
    /// `Ok(Some(ci))` is a conflicting clause (possibly a freshly added
    /// theory lemma whose literals are all currently false);
    /// `Err(())` means the theory gave up (overflow / tripped governor).
    fn propagate_full(&mut self, governor: &ResourceGovernor) -> Result<Option<u32>, ()> {
        loop {
            if let Some(ci) = self.propagate() {
                return Ok(Some(ci));
            }
            // Assert newly-true atoms into the warm tableau.
            let mut new_atoms = false;
            while self.theory_head < self.trail.len() {
                let l = self.trail[self.theory_head];
                self.theory_head += 1;
                if !l.is_pos() {
                    continue;
                }
                let c = match self.atom[l.var() as usize].clone() {
                    Some(c) => c,
                    None => continue,
                };
                new_atoms = true;
                match self.simplex.assert_constraint(&c, l.var()) {
                    TheoryResult::Ok => {}
                    TheoryResult::Conflict(tags) => return Ok(Some(self.theory_lemma(tags))),
                    TheoryResult::Unknown => return Err(()),
                }
            }
            if new_atoms {
                match self.simplex.check(governor) {
                    TheoryResult::Ok => {}
                    TheoryResult::Conflict(tags) => return Ok(Some(self.theory_lemma(tags))),
                    TheoryResult::Unknown => return Err(()),
                }
            }
            // Cheap theory propagation: an unassigned atom whose bound
            // already clashes with an asserted one is forced false via a
            // binary lemma — this is what prunes the boolean search on
            // LIA-level contradictions before any decision tries them.
            let mut propagated = false;
            for v in 0..self.num_vars() {
                if !self.active[v] || self.assign[v].is_some() {
                    continue;
                }
                let c = match self.atom[v].clone() {
                    Some(c) => c,
                    None => continue,
                };
                if let Some(owner) = self.simplex.bound_clash(&c) {
                    let lits = vec![Lit::neg(v as BVar), Lit::neg(owner)];
                    let idx = self.add_clause(lits, Vec::new(), 0, false, true);
                    if let Some(a) = self.audit.as_mut() {
                        a.theory_lemmas += 1;
                    }
                    self.enqueue(Lit::neg(v as BVar), Some(idx));
                    propagated = true;
                }
            }
            if !propagated && self.head >= self.trail.len() && self.theory_head >= self.trail.len()
            {
                return Ok(None);
            }
        }
    }

    /// Turns a simplex conflict (tags = atom vars) into a theory lemma
    /// clause `¬a₁ ∨ … ∨ ¬aₖ` at scope 0 and returns its index. All its
    /// literals are currently false, so it is a conflict clause.
    fn theory_lemma(&mut self, tags: Vec<u32>) -> u32 {
        let lits: Vec<Lit> = tags.into_iter().map(Lit::neg).collect();
        if let Some(a) = self.audit.as_mut() {
            a.theory_lemmas += 1;
        }
        self.add_clause(lits, Vec::new(), 0, false, true)
    }

    // ---- conflict analysis ----------------------------------------------

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// 1UIP analysis of the conflicting clause `ci`. Requires the
    /// current level to be > 0 and to contain at least one literal of
    /// `ci`. Returns `(learnt, origins, scope, backjump_level)` with the
    /// asserting literal at `learnt[0]` and the backjump-level literal
    /// (if any) at `learnt[1]`.
    fn analyze(&mut self, ci: u32) -> (Vec<Lit>, Vec<u32>, u32, u32) {
        let cur = self.current_level();
        debug_assert!(cur > 0);
        let mut seen = vec![false; self.num_vars()];
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot for the UIP
        let mut origins: Vec<u32> = Vec::new();
        let mut scope = 0u32;
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut clause = ci;
        loop {
            let (c_lits, c_org, c_sc) = {
                let c = &self.clauses[clause as usize];
                (c.lits.clone(), c.origins.clone(), c.scope)
            };
            merge_origins(&mut origins, &c_org);
            scope = scope.max(c_sc);
            for q in c_lits {
                let v = q.var() as usize;
                if seen[v] {
                    continue;
                }
                seen[v] = true;
                let lvl = self.level[v];
                if lvl == 0 {
                    // Fold the literal's memoized origin closure instead
                    // of resolving further: this is how learned clauses
                    // keep sound antecedent tracking through facts fixed
                    // before any decision.
                    let l0 = self.l0_origins[v].clone();
                    merge_origins(&mut origins, &l0);
                    scope = scope.max(self.l0_scope[v]);
                } else {
                    self.bump(v);
                    if lvl >= cur {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next literal to resolve on.
            // Only current-level entries can be marked ahead of us, so
            // the scan never escapes the current decision block.
            loop {
                idx -= 1;
                if seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            counter -= 1;
            let p = self.trail[idx];
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            clause = self.reason[p.var() as usize].expect("implied literal at conflict level");
        }
        let beta = if learnt.len() == 1 {
            0
        } else {
            let mut mi = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[mi].var() as usize] {
                    mi = k;
                }
            }
            learnt.swap(1, mi);
            self.level[learnt[1].var() as usize]
        };
        (learnt, origins, scope, beta)
    }

    /// Origins supporting a level-0 conflict on clause `ci`: the
    /// clause's own origins plus the closure of each falsified literal.
    fn final_origins(&self, ci: u32) -> Vec<u32> {
        let c = &self.clauses[ci as usize];
        let mut o = c.origins.clone();
        for &l in &c.lits {
            merge_origins(&mut o, &self.l0_origins[l.var() as usize]);
        }
        o
    }

    // ---- search ----------------------------------------------------------

    /// Marks the variables reachable from the current assertions through
    /// gate definitions; only these are branched on.
    fn recompute_active(&mut self) {
        let n = self.num_vars();
        let mut active = vec![false; n];
        let mut queue: Vec<BVar> = Vec::new();
        let mut edges: HashMap<BVar, Vec<BVar>> = HashMap::new();
        for c in &self.clauses {
            if c.learned || c.theory {
                continue;
            }
            if c.lits.len() == 1 {
                if c.lits[0].is_pos() {
                    queue.push(c.lits[0].var());
                }
                continue;
            }
            // Gate definition: exactly one negative literal (the gate).
            let mut gate = None;
            let mut negs = 0;
            for &l in &c.lits {
                if !l.is_pos() {
                    negs += 1;
                    gate = Some(l.var());
                }
            }
            if negs == 1 {
                let g = gate.expect("counted");
                edges
                    .entry(g)
                    .or_default()
                    .extend(c.lits.iter().filter(|l| l.is_pos()).map(|l| l.var()));
            }
        }
        while let Some(v) = queue.pop() {
            if active[v as usize] {
                continue;
            }
            active[v as usize] = true;
            if let Some(kids) = edges.get(&v) {
                queue.extend(kids.iter().copied());
            }
        }
        self.active = active;
    }

    fn pick_branch(&self) -> Option<BVar> {
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars() {
            if !self.active[v] || self.assign[v].is_some() {
                continue;
            }
            best = match best {
                None => Some(v),
                Some(b) if self.activity[v] > self.activity[b] => Some(v),
                keep => keep,
            };
        }
        best.map(|v| v as BVar)
    }

    /// All active variables are assigned and propagation is at a
    /// conflict-free fixpoint: decide Sat via the warm rational model or
    /// branch-and-bound, or block this boolean solution.
    fn candidate(&mut self, governor: &ResourceGovernor) -> Candidate {
        let mut cs: Vec<LinearConstraint> = Vec::new();
        let mut true_atoms: Vec<BVar> = Vec::new();
        for &l in &self.trail {
            if !l.is_pos() {
                continue;
            }
            if let Some(c) = &self.atom[l.var() as usize] {
                cs.push(c.clone());
                true_atoms.push(l.var());
            }
        }
        // Re-establish tableau feasibility first: a conflict-triggered
        // backjump can leave `beta` violating a basic bound that is
        // still asserted (the bounds themselves are feasible — they were
        // checked before the popped decision — but the assignment is
        // stale until the next pivot pass).
        match self.simplex.check(governor) {
            TheoryResult::Ok => {}
            TheoryResult::Conflict(tags) => return Candidate::Block(self.theory_lemma(tags)),
            TheoryResult::Unknown => return Candidate::Unknown,
        }
        // Warm shortcut: the tableau now holds a rational model of
        // exactly these constraints. If it is integral on their
        // variables, branch-and-bound is unnecessary.
        let relevant: HashSet<VarId> = cs.iter().flat_map(|c| c.expr().vars()).collect();
        let mut model = HashMap::new();
        let mut integral = true;
        for (v, r) in self.simplex.values() {
            if !relevant.contains(&v) {
                continue;
            }
            match r.to_integer() {
                Some(k) => {
                    model.insert(v, k);
                }
                None => {
                    integral = false;
                    break;
                }
            }
        }
        if integral && relevant.iter().all(|v| model.contains_key(v)) {
            debug_assert!(
                cs.iter()
                    .all(|c| c.eval(|v| model.get(&v).copied().unwrap_or(0))),
                "warm simplex model violates an asserted true atom"
            );
            return Candidate::Sat(model);
        }
        match check_integer_governed(&cs, DEFAULT_BB_BUDGET, governor) {
            LiaResult::Sat(m) => {
                debug_assert!(
                    cs.iter()
                        .all(|c| c.eval(|v| m.get(&v).copied().unwrap_or(0))),
                    "branch-and-bound model violates an asserted true atom"
                );
                Candidate::Sat(m)
            }
            LiaResult::Unknown => Candidate::Unknown,
            LiaResult::Unsat => {
                // ℤ-infeasible (though ℚ-feasible): block this set of
                // true atoms. Valid over ℤ outright, hence scope 0.
                let lits: Vec<Lit> = true_atoms.into_iter().map(Lit::neg).collect();
                debug_assert!(!lits.is_empty(), "empty constraint set cannot be ℤ-unsat");
                if let Some(a) = self.audit.as_mut() {
                    a.theory_lemmas += 1;
                }
                Candidate::Block(self.add_clause(lits, Vec::new(), 0, false, true))
            }
        }
    }

    /// Runs the CDCL(T) search under `governor`, giving up after
    /// [`DECISION_BUDGET`] decisions; each candidate's branch-and-bound is
    /// capped at [`DEFAULT_BB_BUDGET`] nodes. The search state (but not
    /// the learned clauses, activities, or tableau rows) is fully reset
    /// before returning, so the solver stays reusable even after
    /// `Unknown`.
    pub fn solve(&mut self, governor: &ResourceGovernor) -> CdclOutcome {
        let solve_mark = self.simplex.mark();
        let out = self.solve_inner(governor);
        self.reset_search(solve_mark);
        out
    }

    /// One probe of a warm battery: asserts each `(term, origin)` of
    /// `assertions` in a pushed scope, solves under the pool's governor,
    /// and pops. The scope-0 assertions, gate definitions, theory lemmas
    /// and the simplex basis carry over to the next probe.
    pub fn solve_scoped(
        &mut self,
        pool: &TermPool,
        assertions: impl IntoIterator<Item = (TermId, u32)>,
    ) -> CdclOutcome {
        self.push_scope();
        for (t, origin) in assertions {
            self.add_assertion(pool, t, origin);
        }
        let out = self.solve(pool.governor());
        self.pop_scope();
        out
    }

    fn solve_inner(&mut self, governor: &ResourceGovernor) -> CdclOutcome {
        // Root charge: the legacy recursion charges its root node, so a
        // tripped governor yields Unknown here too.
        if governor.charge(Category::DpllDecisions).is_err() {
            return CdclOutcome::Unknown;
        }
        let mut decision_budget = DECISION_BUDGET - 1;
        self.recompute_active();
        if let Some((_, origins)) = self.empty_clauses.first() {
            let mut o = origins.clone();
            o.sort_unstable();
            o.dedup();
            return CdclOutcome::Unsat { origins: o };
        }
        // Level-0 units (assertion roots, learned units from earlier
        // solves in this scope stack).
        for ci in 0..self.clauses.len() as u32 {
            let (lit, len) = {
                let c = &self.clauses[ci as usize];
                (c.lits[0], c.lits.len())
            };
            if len != 1 {
                continue;
            }
            match self.lit_value(lit) {
                None => self.enqueue(lit, Some(ci)),
                Some(true) => {}
                Some(false) => {
                    return CdclOutcome::Unsat {
                        origins: self.final_origins(ci),
                    };
                }
            }
        }
        let mut restart_threshold = RESTART_FIRST;
        let mut conflicts_since_restart = 0u64;
        let mut pending: Option<u32> = None;
        loop {
            let conflict = match pending.take() {
                Some(ci) => Some(ci),
                None => match self.propagate_full(governor) {
                    Err(()) => return CdclOutcome::Unknown,
                    Ok(c) => c,
                },
            };
            match conflict {
                Some(ci) => {
                    if governor.charge(Category::CdclConflicts).is_err() {
                        return CdclOutcome::Unknown;
                    }
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    // A lemma attached late can be falsified entirely
                    // below the current level; normalize first.
                    let maxlvl = self.clauses[ci as usize]
                        .lits
                        .iter()
                        .map(|l| self.level[l.var() as usize])
                        .max()
                        .unwrap_or(0);
                    if maxlvl < self.current_level() {
                        self.backtrack(maxlvl);
                    }
                    if self.current_level() == 0 {
                        return CdclOutcome::Unsat {
                            origins: self.final_origins(ci),
                        };
                    }
                    let (learnt, origins, scope, beta) = self.analyze(ci);
                    self.backtrack(beta);
                    let lc = self.add_clause(learnt.clone(), origins, scope, true, false);
                    self.audit_backjump(&learnt);
                    self.enqueue(learnt[0], Some(lc));
                    self.var_inc /= VAR_DECAY;
                    if conflicts_since_restart >= restart_threshold {
                        conflicts_since_restart = 0;
                        restart_threshold = restart_threshold * 3 / 2;
                        self.restarts += 1;
                        if let Some(a) = self.audit.as_mut() {
                            a.restarts += 1;
                        }
                        self.backtrack(0);
                    }
                }
                None => {
                    self.audit_fixpoint();
                    match self.pick_branch() {
                        Some(v) => {
                            if decision_budget == 0
                                || governor.charge(Category::DpllDecisions).is_err()
                            {
                                return CdclOutcome::Unknown;
                            }
                            decision_budget -= 1;
                            self.new_decision_level();
                            let phase = self.phase[v as usize];
                            self.enqueue(Lit::new(v, phase), None);
                        }
                        None => match self.candidate(governor) {
                            Candidate::Sat(m) => return CdclOutcome::Sat(m),
                            Candidate::Unknown => return CdclOutcome::Unknown,
                            Candidate::Block(ci) => pending = Some(ci),
                        },
                    }
                }
            }
        }
    }

    // ---- auditing --------------------------------------------------------

    /// Strong watched-literal invariant, checkable at any conflict-free
    /// fixpoint: in every clause of length ≥ 2, a false watch implies
    /// the partner watch is true. Returns a description of the first
    /// violation.
    pub fn check_watch_invariants(&self) -> Result<(), String> {
        for (i, c) in self.clauses.iter().enumerate() {
            if c.lits.len() < 2 {
                continue;
            }
            let w0 = c.lits[0];
            let w1 = c.lits[1];
            let v0 = self.lit_value(w0);
            let v1 = self.lit_value(w1);
            if (v0 == Some(false) && v1 != Some(true)) || (v1 == Some(false) && v0 != Some(true)) {
                return Err(format!(
                    "clause {i}: watches {w0:?}={v0:?} {w1:?}={v1:?} violate the invariant"
                ));
            }
            for (w, code) in [(w0, w0.code()), (w1, w1.code())] {
                if !self.watches[code].contains(&(i as u32)) {
                    return Err(format!("clause {i}: not on watch list of {w:?}"));
                }
            }
        }
        Ok(())
    }

    /// Trail structure: levels weakly increase along the trail and agree
    /// with the `trail_lim` blocks.
    fn trail_shape_ok(&self) -> bool {
        let mut prev = 0u32;
        for (i, &l) in self.trail.iter().enumerate() {
            let lvl = self.level[l.var() as usize];
            if lvl < prev {
                return false;
            }
            // The level of entry i is the number of decision marks ≤ i.
            let expect = self.trail_lim.iter().filter(|&&m| m <= i).count() as u32;
            if lvl != expect {
                return false;
            }
            prev = lvl;
        }
        true
    }

    fn audit_backjump(&mut self, learnt: &[Lit]) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        a.backjumps += 1;
        a.learned += 1;
        // 1UIP clauses are asserting: after the backjump every literal
        // but the first is false and the first is unassigned.
        let asserting = self.lit_value(learnt[0]).is_none()
            && learnt[1..]
                .iter()
                .all(|&l| self.lit_value(l) == Some(false));
        if !asserting {
            a.non_asserting_learned += 1;
        }
        if !self.trail_shape_ok() {
            a.trail_violations += 1;
        }
        // Structural watch integrity (membership only; the strong
        // invariant is re-established by the post-backjump rescan and
        // checked at the next fixpoint).
        for (i, c) in self.clauses.iter().enumerate() {
            if c.lits.len() < 2 {
                continue;
            }
            if !self.watches[c.lits[0].code()].contains(&(i as u32))
                || !self.watches[c.lits[1].code()].contains(&(i as u32))
            {
                a.structure_violations += 1;
            }
        }
        self.audit = Some(a);
    }

    fn audit_fixpoint(&mut self) {
        let Some(mut a) = self.audit.take() else {
            return;
        };
        a.fixpoint_checks += 1;
        if self.check_watch_invariants().is_err() {
            a.watch_violations += 1;
        }
        if !self.trail_shape_ok() {
            a.trail_violations += 1;
        }
        self.audit = Some(a);
    }
}

/// Inserts every element of `src` into the sorted vector `dst`.
fn merge_origins(dst: &mut Vec<u32>, src: &[u32]) {
    for &o in src {
        if let Err(i) = dst.binary_search(&o) {
            dst.insert(i, o);
        }
    }
}

/// The constraints of `f` if it is a pure conjunction of atoms (or a
/// single atom, or `⊤`) — the common Hoare-check shape that can skip the
/// CDCL machinery entirely.
pub(crate) fn conjunctive_atoms(pool: &TermPool, f: TermId) -> Option<Vec<LinearConstraint>> {
    match pool.term(f) {
        Term::True => Some(Vec::new()),
        Term::Atom(c) => Some(vec![c.clone()]),
        Term::And(children) => {
            let mut out = Vec::with_capacity(children.len());
            for &c in children.iter() {
                match pool.term(c) {
                    Term::Atom(a) => out.push(a.clone()),
                    _ => return None,
                }
            }
            Some(out)
        }
        _ => None,
    }
}

/// One-shot CDCL solve of `formula`, with the same
/// `(model, saw_unknown)` contract as the legacy `Search::dpll` driver:
/// `(Some(model), _)` is Sat, `(None, false)` Unsat, `(None, true)`
/// Unknown. Pure conjunctions bypass the clause engine and go straight
/// to branch-and-bound. Either way the root costs one
/// [`Category::DpllDecisions`] unit, as the legacy recursion's root does:
/// the bypass charges it here, the clause engine in its own root charge.
pub(crate) fn solve_formula(
    pool: &TermPool,
    formula: TermId,
    governor: &ResourceGovernor,
) -> (Option<HashMap<VarId, i128>>, bool) {
    if formula == TermPool::FALSE {
        let tripped = governor.charge(Category::DpllDecisions).is_err();
        return (None, tripped);
    }
    if let Some(cs) = conjunctive_atoms(pool, formula) {
        if governor.charge(Category::DpllDecisions).is_err() {
            return (None, true);
        }
        return match check_integer_governed(&cs, DEFAULT_BB_BUDGET, governor) {
            LiaResult::Sat(m) => (Some(m), false),
            LiaResult::Unsat => (None, false),
            LiaResult::Unknown => (None, true),
        };
    }
    let mut s = CdclSolver::new();
    s.add_assertion(pool, formula, 0);
    match s.solve(governor) {
        CdclOutcome::Sat(m) => (Some(m), false),
        CdclOutcome::Unsat { .. } => (None, false),
        CdclOutcome::Unknown => (None, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fresh solve of the conjunction of `assertions`, assertion `i`
    /// tagged with origin `i`.
    fn check_with_core(
        pool: &TermPool,
        assertions: &[TermId],
        governor: &ResourceGovernor,
    ) -> CdclOutcome {
        let mut s = CdclSolver::new();
        for (i, &t) in assertions.iter().enumerate() {
            s.add_assertion(pool, t, i as u32);
        }
        s.solve(governor)
    }

    fn solve(pool: &TermPool, ts: &[TermId]) -> CdclOutcome {
        check_with_core(pool, ts, &ResourceGovernor::unlimited())
    }

    #[test]
    fn conjunction_sat_and_unsat() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 2);
        let b = p.le_const(x, 5);
        match solve(&p, &[a, b]) {
            CdclOutcome::Sat(m) => assert!((2..=5).contains(&m[&x])),
            other => panic!("{other:?}"),
        }
        let c = p.le_const(x, 1);
        match solve(&p, &[a, c]) {
            CdclOutcome::Unsat { origins } => assert_eq!(origins, vec![0, 1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjunction_picks_a_feasible_branch() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let lo = p.le_const(x, -10);
        let hi = p.ge_const(x, 10);
        let either = p.or([lo, hi]);
        let pos = p.ge_const(x, 0);
        match solve(&p, &[either, pos]) {
            CdclOutcome::Sat(m) => assert!(m[&x] >= 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsat_origins_skip_irrelevant_assertions() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let noise = p.ge_const(y, 0);
        let a = p.ge_const(x, 3);
        let b = p.le_const(x, 1);
        match solve(&p, &[noise, a, b]) {
            CdclOutcome::Unsat { origins } => {
                assert!(origins.contains(&1) && origins.contains(&2));
                assert!(!origins.contains(&0), "origins {origins:?} include noise");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn false_assertion_reports_its_origin() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        match solve(&p, &[a, TermPool::FALSE]) {
            CdclOutcome::Unsat { origins } => assert_eq!(origins, vec![1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scope_pop_restores_sat() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 2);
        let b = p.le_const(x, 1);
        let g = ResourceGovernor::unlimited();
        let mut s = CdclSolver::new();
        s.add_assertion(&p, a, 0);
        assert!(matches!(s.solve(&g), CdclOutcome::Sat(_)));
        s.push_scope();
        s.add_assertion(&p, b, 1);
        assert!(matches!(s.solve(&g), CdclOutcome::Unsat { .. }));
        s.pop_scope();
        assert!(matches!(s.solve(&g), CdclOutcome::Sat(_)));
    }

    #[test]
    fn integer_gap_is_unsat() {
        // x + y = 1 ∧ x − y = 0 has the unique rational solution
        // (1/2, 1/2): branch-and-bound must refute it over ℤ.
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        use crate::linear::{LinExpr, Rel};
        let sum = p.atom(
            LinExpr::var(x)
                .add(&LinExpr::var(y))
                .sub(&LinExpr::constant(1)),
            Rel::Eq0,
        );
        let diff = p.atom(LinExpr::var(x).sub(&LinExpr::var(y)), Rel::Eq0);
        assert!(matches!(solve(&p, &[sum, diff]), CdclOutcome::Unsat { .. }));
    }

    #[test]
    fn governor_budget_trips_to_unknown() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        let g = ResourceGovernor::builder()
            .budget(Category::DpllDecisions, 0)
            .build();
        assert_eq!(check_with_core(&p, &[a], &g), CdclOutcome::Unknown);
        assert_eq!(g.give_up().unwrap().category, Category::DpllDecisions);
    }

    #[test]
    fn solver_reusable_after_unknown() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let lo = p.le_const(x, -1);
        let hi = p.ge_const(x, 1);
        let either = p.or([lo, hi]);
        let mut s = CdclSolver::new();
        s.add_assertion(&p, either, 0);
        // One unit covers the root charge; the first decision trips.
        let tripped = ResourceGovernor::builder()
            .budget(Category::DpllDecisions, 1)
            .build();
        assert_eq!(s.solve(&tripped), CdclOutcome::Unknown);
        // …and the same solver instance still answers afterwards.
        assert!(matches!(
            s.solve(&ResourceGovernor::unlimited()),
            CdclOutcome::Sat(_)
        ));
    }

    #[test]
    fn audit_counts_are_clean() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        // A formula with real search: (x ≤ 0 ∨ x ≥ 5) ∧ (y ≤ 0 ∨ y ≥ 5)
        // ∧ x + y = 5 forces mixed branches.
        use crate::linear::{LinExpr, Rel};
        let a1 = p.le_const(x, 0);
        let a2 = p.ge_const(x, 5);
        let d1 = p.or([a1, a2]);
        let b1 = p.le_const(y, 0);
        let b2 = p.ge_const(y, 5);
        let d2 = p.or([b1, b2]);
        let sum = p.atom(
            LinExpr::var(x)
                .add(&LinExpr::var(y))
                .sub(&LinExpr::constant(5)),
            Rel::Eq0,
        );
        let mut s = CdclSolver::new();
        s.enable_audit();
        s.add_assertion(&p, d1, 0);
        s.add_assertion(&p, d2, 1);
        s.add_assertion(&p, sum, 2);
        let out = s.solve(&ResourceGovernor::unlimited());
        assert!(matches!(out, CdclOutcome::Sat(_)), "{out:?}");
        let a = s.audit_report().unwrap();
        assert_eq!(a.watch_violations, 0);
        assert_eq!(a.structure_violations, 0);
        assert_eq!(a.trail_violations, 0);
        assert_eq!(a.non_asserting_learned, 0);
    }
}
