//! Lazy DPLL(T): boolean search over the negation-free formula structure
//! with LIA theory checks.
//!
//! Because formulas are *monotone* in their atoms (negation was compiled
//! away at construction, see [`crate::term`]), the boolean search never
//! needs to assert the negation of an atom: branching an atom to `false`
//! merely declines to use it, and any theory model for the atoms branched
//! to `true` satisfies the whole formula. This makes the solver short and
//! obviously sound.

use crate::cdcl::{self, CdclOutcome, CdclSolver, DECISION_BUDGET};
use crate::lia::{check_integer_governed, LiaResult, DEFAULT_BB_BUDGET};
use crate::linear::{LinearConstraint, VarId};
use crate::qcache::{self, CachedVerdict, MemoVerdict, QueryCache};
use crate::resource::{Category, ResourceGovernor};
use crate::simplex::{check_rational_governed, SimplexResult};
use crate::term::{Term, TermId, TermPool};
use crate::transfer::ExportedTerm;
use std::collections::HashMap;
use std::fmt;

/// A satisfying integer assignment. Variables not mentioned by any
/// constraint default to `0`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<VarId, i128>,
}

impl Model {
    /// Creates a model from explicit values.
    pub fn from_values(values: HashMap<VarId, i128>) -> Model {
        Model { values }
    }

    /// The value of `v` (0 when unconstrained).
    pub fn value(&self, v: VarId) -> i128 {
        self.values.get(&v).copied().unwrap_or(0)
    }

    /// Iterates over the explicitly assigned variables.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i128)> + '_ {
        self.values.iter().map(|(&v, &k)| (v, k))
    }
}

/// Outcome of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Solver budget exhausted or arithmetic overflow.
    Unknown,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Which boolean search engine answers queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// The legacy recursive DPLL with substitution-based branching
    /// (kept for ablation behind `--solver=dpll`).
    Dpll,
    /// The CDCL(T) engine ([`crate::cdcl`]): watched literals, 1UIP
    /// learning, backjumping, and an incremental simplex.
    #[default]
    Cdcl,
}

impl SolverKind {
    /// Stable name (`"dpll"` / `"cdcl"`), the inverse of
    /// [`SolverKind::parse`].
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Dpll => "dpll",
            SolverKind::Cdcl => "cdcl",
        }
    }

    /// Parses a `--solver=` value.
    pub fn parse(s: &str) -> Option<SolverKind> {
        match s {
            "dpll" => Some(SolverKind::Dpll),
            "cdcl" => Some(SolverKind::Cdcl),
            _ => None,
        }
    }
}

impl fmt::Display for SolverKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checks satisfiability of the conjunction of `assertions` with the
/// pool's solver kind, governor and memoization ([`crate::qcache`]).
///
/// # Example
///
/// ```
/// use smt::term::TermPool;
/// use smt::solver::check;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x");
/// let a = pool.ge_const(x, 1);
/// let b = pool.le_const(x, 0);
/// assert!(check(&mut pool, &[a]).is_sat());
/// assert!(check(&mut pool, &[a, b]).is_unsat());
/// ```
pub fn check(pool: &mut TermPool, assertions: &[TermId]) -> SatResult {
    let formula = pool.and(assertions.iter().copied());
    cached_solve(pool, formula, |pool| {
        let governor = pool.governor().clone();
        let (outcome, saw_unknown) = match pool.solver_kind() {
            SolverKind::Cdcl => {
                let (values, saw_unknown) = cdcl::solve_formula(pool, formula, &governor);
                (values.map(Model::from_values), saw_unknown)
            }
            SolverKind::Dpll => {
                let mut search = Search {
                    pool: &mut *pool,
                    budget: DECISION_BUDGET,
                    saw_unknown: false,
                    governor,
                };
                let mut fixed = Vec::new();
                (search.dpll(formula, &mut fixed), search.saw_unknown)
            }
        };
        match outcome {
            // A found model is definitive even if some branch gave up.
            Some(model) => SatResult::Sat(model),
            None if saw_unknown => SatResult::Unknown,
            None => SatResult::Unsat,
        }
    })
}

/// The memoization protocol around one solve of `formula`, shared by
/// [`check`] and the warm [`AssertionScope`] solver (see
/// [`crate::qcache`]). Trivially-constant formulas, and every formula
/// while memoization is off, go straight to `solve`, so their governor
/// charge sequences are those of a memo-free build. Otherwise the pool
/// memo is consulted first, then the shared cache if one is installed
/// (only then is the canonical key built); a miss in both runs `solve`.
/// Definitive answers are stored in the memo, and solved ones in the
/// shared cache too.
fn cached_solve(
    pool: &mut TermPool,
    formula: TermId,
    solve: impl FnOnce(&mut TermPool) -> SatResult,
) -> SatResult {
    if formula == TermPool::TRUE || formula == TermPool::FALSE || pool.query_cache().is_none() {
        return solve(pool);
    }
    if let Some(result) = consult_memo(pool, formula) {
        return result;
    }
    let shared = pool
        .shared_cache()
        .cloned()
        .map(|cache| (canonical_key(pool, formula), cache));
    let hit = shared
        .as_ref()
        .and_then(|(key, cache)| consult(pool, formula, cache, key));
    let result = match hit {
        Some(result) => result,
        None => {
            let result = solve(pool);
            if let Some((key, cache)) = shared {
                match &result {
                    SatResult::Sat(model) => {
                        cache.insert(key, CachedVerdict::Sat(export_model(pool, model)));
                    }
                    SatResult::Unsat => cache.insert(key, CachedVerdict::Unsat),
                    SatResult::Unknown => {}
                }
            }
            result
        }
    };
    pool.memo_mut().insert(formula, &result);
    result
}

/// `result` if the pool's governor still allows work, else `Unknown`: the
/// only charge of an answer that needs no solve.
fn polled(pool: &TermPool, result: SatResult) -> SatResult {
    match pool.governor().poll() {
        Ok(()) => result,
        Err(_) => SatResult::Unknown,
    }
}

/// Tries to answer the query from the pool memo, counting a hit or a
/// miss. A `Sat` entry is re-validated against `formula` first.
fn consult_memo(pool: &mut TermPool, formula: TermId) -> Option<SatResult> {
    let memo = pool.query_cache().expect("memoization is on");
    let hit = match memo.get(formula) {
        Some(MemoVerdict::Unsat) => Some(SatResult::Unsat),
        Some(MemoVerdict::Sat(values)) => {
            let model = Model::from_values(values.iter().copied().collect());
            pool.eval(formula, &|v| model.value(v))
                .then_some(SatResult::Sat(model))
        }
        None => None,
    };
    match hit {
        Some(result) => {
            pool.memo_mut().note_hit();
            Some(polled(pool, result))
        }
        None => {
            pool.memo_mut().note_miss();
            None
        }
    }
}

/// The pool-independent canonical cache key for `formula`.
fn canonical_key(pool: &TermPool, formula: TermId) -> ExportedTerm {
    let mut key = pool.export(formula);
    qcache::canonicalize(&mut key);
    key
}

/// Exports `model` by variable name for pool-independent storage.
fn export_model(pool: &TermPool, model: &Model) -> Vec<(String, i128)> {
    model
        .iter()
        .map(|(v, k)| (pool.var_name(v).to_owned(), k))
        .collect()
}

/// Tries to answer the query from the shared `cache`. A usable entry
/// counts a hit and charges only a governor poll; anything else counts a
/// miss and returns `None` so the caller solves for real.
fn consult(
    pool: &mut TermPool,
    formula: TermId,
    cache: &QueryCache,
    key: &ExportedTerm,
) -> Option<SatResult> {
    let result = match cache.get(key) {
        Some(CachedVerdict::Unsat) => SatResult::Unsat,
        Some(CachedVerdict::Sat(named)) => {
            // Re-validate: the stored witness must satisfy *this* pool's
            // formula under exact evaluation. (All named variables occur
            // in the canonically-equal formula, so no fresh interning
            // happens here.)
            let values: HashMap<VarId, i128> =
                named.iter().map(|(name, k)| (pool.var(name), *k)).collect();
            let model = Model::from_values(values);
            if !pool.eval(formula, &|v| model.value(v)) {
                cache.note_miss();
                return None;
            }
            SatResult::Sat(model)
        }
        None => {
            cache.note_miss();
            return None;
        }
    };
    cache.note_hit();
    Some(polled(pool, result))
}

/// `true` iff `antecedent → consequent` is valid (reported conservatively:
/// `Unknown` counts as *not* entailed).
pub fn entails(pool: &mut TermPool, antecedent: TermId, consequent: TermId) -> bool {
    let neg = pool.not(consequent);
    check(pool, &[antecedent, neg]).is_unsat()
}

/// `true` iff `t` is valid (conservative under `Unknown`).
pub fn is_valid(pool: &mut TermPool, t: TermId) -> bool {
    let neg = pool.not(t);
    check(pool, &[neg]).is_unsat()
}

/// `true` iff `a` and `b` are logically equivalent (conservative).
pub fn equivalent(pool: &mut TermPool, a: TermId, b: TermId) -> bool {
    entails(pool, a, b) && entails(pool, b, a)
}

/// How many satisfying models an [`AssertionScope`] retains for reuse.
const SCOPE_MODEL_LIMIT: usize = 8;

/// An incremental assertion scope: a fixed prefix conjunction checked
/// against many per-call extra assertions, as in Hoare-triple batteries
/// `{⋀Φ} l {ψ_i}` where every query shares the prefix `⋀Φ ∧ rel(l)`.
///
/// The scope front-loads work that is common to the whole battery:
///
/// * if the prefix alone is unsatisfiable, every scoped query is `Unsat`
///   without solving (only a governor poll is charged);
/// * satisfying models discovered along the way (bounded at
///   [`SCOPE_MODEL_LIMIT`]) are replayed by exact evaluation against each
///   new extra assertion — an evaluation, not a solve;
/// * queries that fall through are solved with the pool's engine, under
///   the pool's memoization keyed by exactly the hash-consed formula a
///   cold `check(&[prefix…, extra])` would build.
///
/// Every shortcut answers what a cold [`check`] would, so the scope is
/// the same with or without memoization; only who computes a verdict
/// differs.
#[derive(Debug)]
pub struct AssertionScope {
    prefix: TermId,
    /// The prefix alone is known unsatisfiable.
    prefix_unsat: bool,
    /// Recent models satisfying the prefix, newest last.
    models: Vec<Model>,
    /// Persistent CDCL solver warm across the whole battery under
    /// [`SolverKind::Cdcl`], made by the first query that solves: the
    /// prefix is asserted once, each extra rides in a pushed scope
    /// ([`CdclSolver::solve_scoped`]), and theory lemmas plus the simplex
    /// basis carry over from query to query.
    engine: Option<CdclSolver>,
}

impl AssertionScope {
    /// Opens a scope over the conjunction of `prefix`. This performs one
    /// up-front satisfiability check of the prefix; its verdict (and
    /// model, if any) is shared by every subsequent
    /// [`AssertionScope::check`].
    pub fn new(pool: &mut TermPool, prefix: &[TermId]) -> AssertionScope {
        let prefix = pool.and(prefix.iter().copied());
        let mut scope = AssertionScope {
            prefix,
            prefix_unsat: false,
            models: Vec::new(),
            engine: None,
        };
        if prefix == TermPool::FALSE {
            scope.prefix_unsat = true;
        } else {
            match check(pool, &[prefix]) {
                SatResult::Unsat => scope.prefix_unsat = true,
                SatResult::Sat(m) => scope.models.push(m),
                SatResult::Unknown => {}
            }
        }
        scope
    }

    /// Checks `prefix ∧ extra`.
    pub fn check(&mut self, pool: &mut TermPool, extra: TermId) -> SatResult {
        if self.prefix_unsat {
            return polled(pool, SatResult::Unsat);
        }
        // Replay retained models (newest first) by exact evaluation.
        let reusable =
            self.models.iter().rev().find(|m| {
                pool.eval(self.prefix, &|v| m.value(v)) && pool.eval(extra, &|v| m.value(v))
            });
        if let Some(model) = reusable {
            return polled(pool, SatResult::Sat(model.clone()));
        }
        let result = match pool.solver_kind() {
            SolverKind::Cdcl => self.warm_check(pool, extra),
            SolverKind::Dpll => check(pool, &[self.prefix, extra]),
        };
        if let SatResult::Sat(model) = &result {
            if self.models.len() == SCOPE_MODEL_LIMIT {
                self.models.remove(0);
            }
            self.models.push(model.clone());
        }
        result
    }

    /// Checks `prefix ∧ extra` on the warm solver, through the same
    /// memoization protocol as a plain [`check`]. A constant formula goes
    /// to [`check`] itself.
    fn warm_check(&mut self, pool: &mut TermPool, extra: TermId) -> SatResult {
        let formula = pool.and([self.prefix, extra]);
        if formula == TermPool::TRUE || formula == TermPool::FALSE {
            return check(pool, &[formula]);
        }
        let prefix = self.prefix;
        let engine = &mut self.engine;
        cached_solve(pool, formula, |pool| {
            let solver = engine.get_or_insert_with(|| {
                let mut solver = CdclSolver::new();
                solver.add_assertion(pool, prefix, 0);
                solver
            });
            match solver.solve_scoped(pool, [(extra, 1)]) {
                CdclOutcome::Sat(values) => SatResult::Sat(Model::from_values(values)),
                CdclOutcome::Unsat { .. } => SatResult::Unsat,
                CdclOutcome::Unknown => SatResult::Unknown,
            }
        })
    }

    /// `true` when the prefix alone was proven unsatisfiable.
    pub fn prefix_unsat(&self) -> bool {
        self.prefix_unsat
    }
}

struct Search<'a> {
    pool: &'a mut TermPool,
    budget: usize,
    saw_unknown: bool,
    /// Cloned from the pool once per query; charged per DPLL decision and
    /// forwarded into the theory layers.
    governor: ResourceGovernor,
}

impl Search<'_> {
    /// Recursive DPLL. `fixed` is the conjunction of atoms branched true.
    fn dpll(&mut self, formula: TermId, fixed: &mut Vec<LinearConstraint>) -> Option<Model> {
        if self.budget == 0 || self.governor.charge(Category::DpllDecisions).is_err() {
            self.saw_unknown = true;
            return None;
        }
        self.budget -= 1;
        match self.pool.term(formula) {
            Term::False => None,
            Term::True => match check_integer_governed(fixed, DEFAULT_BB_BUDGET, &self.governor) {
                LiaResult::Sat(values) => Some(Model::from_values(values)),
                LiaResult::Unsat => None,
                LiaResult::Unknown => {
                    self.saw_unknown = true;
                    None
                }
            },
            _ => {
                // Unit propagation: conjuncts that are atoms must hold.
                if let Term::And(children) = self.pool.term(formula) {
                    let units: Vec<TermId> = children
                        .iter()
                        .copied()
                        .filter(|&c| matches!(self.pool.term(c), Term::Atom(_)))
                        .collect();
                    if !units.is_empty() {
                        let saved = fixed.len();
                        let mut f = formula;
                        for u in units {
                            if let Term::Atom(c) = self.pool.term(u) {
                                fixed.push(c.clone());
                            }
                            f = assign(self.pool, f, u, true);
                        }
                        let result = if self.prune(fixed) {
                            None
                        } else {
                            self.dpll(f, fixed)
                        };
                        fixed.truncate(saved);
                        return result;
                    }
                }
                // Branch on the first atom in the formula.
                let atom =
                    first_atom(self.pool, formula).expect("non-constant formula has an atom");
                let Term::Atom(constraint) = self.pool.term(atom).clone() else {
                    unreachable!("first_atom returns an atom");
                };
                // Try atom = true.
                let f_true = assign(self.pool, formula, atom, true);
                fixed.push(constraint);
                if !self.prune(fixed) {
                    if let Some(m) = self.dpll(f_true, fixed) {
                        fixed.pop();
                        return Some(m);
                    }
                }
                fixed.pop();
                // Try atom = false (monotone: no negation needed).
                let f_false = assign(self.pool, formula, atom, false);
                self.dpll(f_false, fixed)
            }
        }
    }

    /// Cheap rational pruning of the current partial conjunction.
    fn prune(&mut self, fixed: &[LinearConstraint]) -> bool {
        matches!(
            check_rational_governed(fixed, &self.governor),
            SimplexResult::Unsat
        )
    }
}

/// Replaces every occurrence of the atom `atom` in `formula` by the given
/// constant and re-simplifies.
fn assign(pool: &mut TermPool, formula: TermId, atom: TermId, value: bool) -> TermId {
    let replacement = if value {
        TermPool::TRUE
    } else {
        TermPool::FALSE
    };
    let mut memo = HashMap::new();
    assign_rec(pool, formula, atom, replacement, &mut memo)
}

fn assign_rec(
    pool: &mut TermPool,
    formula: TermId,
    atom: TermId,
    replacement: TermId,
    memo: &mut HashMap<TermId, TermId>,
) -> TermId {
    if formula == atom {
        return replacement;
    }
    if let Some(&r) = memo.get(&formula) {
        return r;
    }
    let result = match pool.term(formula).clone() {
        Term::True | Term::False | Term::Atom(_) => formula,
        Term::And(children) => {
            let mapped: Vec<TermId> = children
                .iter()
                .map(|&c| assign_rec(pool, c, atom, replacement, memo))
                .collect();
            pool.and(mapped)
        }
        Term::Or(children) => {
            let mapped: Vec<TermId> = children
                .iter()
                .map(|&c| assign_rec(pool, c, atom, replacement, memo))
                .collect();
            pool.or(mapped)
        }
    };
    memo.insert(formula, result);
    result
}

/// The first atom (in DFS order) of `formula`, if any.
fn first_atom(pool: &TermPool, formula: TermId) -> Option<TermId> {
    match pool.term(formula) {
        Term::True | Term::False => None,
        Term::Atom(_) => Some(formula),
        Term::And(children) | Term::Or(children) => {
            children.iter().find_map(|&c| first_atom(pool, c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;

    #[test]
    fn conjunction_sat_and_model() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let a = p.ge_const(x, 3);
        let sum = LinExpr::var(x).add(&LinExpr::var(y));
        let b = p.eq(&sum, &LinExpr::constant(5));
        match check(&mut p, &[a, b]) {
            SatResult::Sat(m) => {
                assert!(m.value(x) >= 3);
                assert_eq!(m.value(x) + m.value(y), 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn disjunction_explores_branches() {
        let mut p = TermPool::new();
        let x = p.var("x");
        // (x ≤ 0 ∨ x ≥ 10) ∧ x ≥ 5  → x ≥ 10 branch.
        let low = p.le_const(x, 0);
        let high = p.ge_const(x, 10);
        let disj = p.or([low, high]);
        let five = p.ge_const(x, 5);
        match check(&mut p, &[disj, five]) {
            SatResult::Sat(m) => assert!(m.value(x) >= 10),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsat_through_disjunction() {
        let mut p = TermPool::new();
        let x = p.var("x");
        // (x ≤ 0 ∨ x ≥ 10) ∧ 3 ≤ x ≤ 7 → unsat.
        let low = p.le_const(x, 0);
        let high = p.ge_const(x, 10);
        let disj = p.or([low, high]);
        let a = p.ge_const(x, 3);
        let b = p.le_const(x, 7);
        assert!(check(&mut p, &[disj, a, b]).is_unsat());
    }

    #[test]
    fn model_satisfies_formula_eval() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let a = p.ne(&LinExpr::var(x), &LinExpr::var(y));
        let b = p.le_const(x, 2);
        let c = p.ge_const(y, 2);
        let f = p.and([a, b, c]);
        match check(&mut p, &[f]) {
            SatResult::Sat(m) => assert!(p.eval(f, &|v| m.value(v))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entailment_and_validity() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let ge5 = p.ge_const(x, 5);
        let ge3 = p.ge_const(x, 3);
        assert!(entails(&mut p, ge5, ge3));
        assert!(!entails(&mut p, ge3, ge5));
        let taut = p.or([ge3, TermPool::TRUE]);
        assert!(is_valid(&mut p, taut));
        let lt3 = p.not(ge3);
        let excluded_middle = p.or([ge3, lt3]);
        assert!(is_valid(&mut p, excluded_middle));
    }

    #[test]
    fn equivalence() {
        let mut p = TermPool::new();
        let x = p.var("x");
        // x ≥ 1 ⇔ x > 0 over ℤ (the pool normalizes both to the same atom,
        // so also test a structurally different pair).
        let a = p.ge_const(x, 1);
        let b = p.gt(&LinExpr::var(x), &LinExpr::constant(0));
        assert!(equivalent(&mut p, a, b));
        let c = p.ge_const(x, 2);
        assert!(!equivalent(&mut p, a, c));
    }

    #[test]
    fn empty_assertions_are_sat() {
        let mut p = TermPool::new();
        assert!(check(&mut p, &[]).is_sat());
    }

    #[test]
    fn false_assertion_unsat() {
        let mut p = TermPool::new();
        assert!(check(&mut p, &[TermPool::FALSE]).is_unsat());
    }

    #[test]
    fn nested_disjunction_of_equalities() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        // (x = 1 ∨ x = 2) ∧ (y = x + 10) ∧ y ≥ 12 → x = 2, y = 12.
        let x1 = p.eq_const(x, 1);
        let x2 = p.eq_const(x, 2);
        let xd = p.or([x1, x2]);
        let lhs = LinExpr::var(y);
        let rhs = LinExpr::var(x).add(&LinExpr::constant(10));
        let link = p.eq(&lhs, &rhs);
        let y12 = p.ge_const(y, 12);
        match check(&mut p, &[xd, link, y12]) {
            SatResult::Sat(m) => {
                assert_eq!(m.value(x), 2);
                assert_eq!(m.value(y), 12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pool_governor_interrupts_query() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        let b = p.le_const(x, 10);
        p.set_governor(
            ResourceGovernor::builder()
                .budget(Category::DpllDecisions, 0)
                .build(),
        );
        assert_eq!(check(&mut p, &[a, b]), SatResult::Unknown);
        assert_eq!(
            p.governor().give_up().unwrap().category,
            Category::DpllDecisions
        );
        // Entailment degrades conservatively: a tripped governor can only
        // make `entails` answer "not entailed", never "entailed".
        assert!(!entails(&mut p, a, a));
        p.set_governor(ResourceGovernor::unlimited());
        assert!(check(&mut p, &[a, b]).is_sat());
    }

    #[test]
    fn tiny_budget_reports_unknown() {
        let mut p = TermPool::new();
        p.set_memoization(false);
        let x = p.var("x");
        let a = p.ge_const(x, 0);
        let b = p.le_const(x, 10);
        for solver in [SolverKind::Dpll, SolverKind::Cdcl] {
            p.set_solver_kind(solver);
            p.set_governor(
                ResourceGovernor::builder()
                    .budget(Category::DpllDecisions, 0)
                    .build(),
            );
            assert_eq!(check(&mut p, &[a, b]), SatResult::Unknown, "{solver}");
        }
    }

    /// A query refuted at the root, before any decision, costs one
    /// `DpllDecisions` unit under either engine: a budget of 1 answers it
    /// and a budget of 0 trips.
    #[test]
    fn a_root_refutation_costs_one_decision_unit_under_both_engines() {
        let mut p = TermPool::new();
        p.set_memoization(false);
        let x = p.var("x");
        let y = p.var("y");
        let ge3 = p.ge_const(x, 3);
        let le1 = p.le_const(x, 1);
        let low = p.le_const(y, 0);
        let high = p.ge_const(y, 5);
        let either = p.or([low, high]);
        let refuted = [ge3, le1, either];
        for solver in [SolverKind::Dpll, SolverKind::Cdcl] {
            p.set_solver_kind(solver);
            for (budget, expected) in [(1, SatResult::Unsat), (0, SatResult::Unknown)] {
                p.set_governor(
                    ResourceGovernor::builder()
                        .budget(Category::DpllDecisions, budget)
                        .build(),
                );
                assert_eq!(
                    check(&mut p, &refuted),
                    expected,
                    "{solver}, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_structured_formulas() {
        let mut p = TermPool::new();
        p.set_memoization(false);
        let x = p.var("x");
        let y = p.var("y");
        let low = p.le_const(x, 0);
        let high = p.ge_const(x, 10);
        let disj = p.or([low, high]);
        let link = {
            let lhs = LinExpr::var(y);
            let rhs = LinExpr::var(x).add(&LinExpr::constant(1));
            p.eq(&lhs, &rhs)
        };
        let cap = p.le_const(y, 5);
        for battery in [vec![disj], vec![disj, link], vec![disj, link, cap]] {
            let mut results = Vec::new();
            for solver in [SolverKind::Dpll, SolverKind::Cdcl] {
                p.set_solver_kind(solver);
                results.push(check(&mut p, &battery));
            }
            assert_eq!(results[0].is_sat(), results[1].is_sat(), "{battery:?}");
            assert_eq!(results[0].is_unsat(), results[1].is_unsat(), "{battery:?}");
        }
    }
}
