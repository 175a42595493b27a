//! Hash-consed, negation-free boolean formulas over linear-arithmetic atoms.
//!
//! Negation is eliminated at construction: atoms are negated exactly (using
//! integrality, see [`LinearConstraint::negate`]) and `¬` is pushed through
//! `∧`/`∨` by De Morgan. Every formula the solver sees is therefore a
//! positive combination of [`LinearConstraint`] atoms, which keeps DPLL(T)
//! and cube extraction simple.

use crate::linear::{LinExpr, LinearConstraint, NormalizedConstraint, Rel, VarId};
use crate::qcache::{QueryCache, QueryMemo};
use crate::resource::ResourceGovernor;
use crate::solver::SolverKind;
use std::collections::HashMap;
use std::fmt;

/// An interned formula. Ids are only meaningful relative to the
/// [`TermPool`] that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Structure of an interned formula.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// The formula `true`.
    True,
    /// The formula `false`.
    False,
    /// A linear-constraint atom.
    Atom(LinearConstraint),
    /// Conjunction (≥ 2 children, sorted, deduplicated).
    And(Box<[TermId]>),
    /// Disjunction (≥ 2 children, sorted, deduplicated).
    Or(Box<[TermId]>),
}

/// Arena and hash-cons table for formulas, plus the variable name table.
///
/// # Example
///
/// ```
/// use smt::term::TermPool;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x");
/// let a = pool.le_const(x, 5); // x ≤ 5
/// let b = pool.ge_const(x, 1); // x ≥ 1
/// let f = pool.and([a, b]);
/// assert!(pool.eval(f, &|_| 3));
/// assert!(!pool.eval(f, &|_| 9));
/// let g = pool.not(f);
/// assert!(pool.eval(g, &|_| 9));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TermPool {
    terms: Vec<Term>,
    intern: HashMap<Term, TermId>,
    var_names: Vec<String>,
    var_intern: HashMap<String, VarId>,
    negation_cache: HashMap<TermId, TermId>,
    /// The resource governor charged by every solver query routed through
    /// this pool (defaults to [`ResourceGovernor::unlimited`]).
    governor: ResourceGovernor,
    /// Definitive solver verdicts for this pool's formulas, keyed by
    /// [`TermId`] (the first tier of [`crate::qcache`]). Owned: cloning
    /// the pool copies it, and no API moves it into another pool.
    memo: QueryMemo,
    /// Whether solver calls through this pool consult and fill `memo`
    /// (and `shared`); [`TermPool::new`] switches it on.
    memoize: bool,
    /// The cross-pool tier, consulted on a memo miss when installed.
    /// Cloning the pool shares it (it is `Arc`-backed); the daemon
    /// installs one cache on every worker's pool.
    shared: Option<QueryCache>,
    /// Which boolean search engine answers queries routed through this
    /// pool (defaults to [`SolverKind::Cdcl`]; `--solver=dpll` selects
    /// the legacy search for ablation).
    solver_kind: SolverKind,
}

impl TermPool {
    /// Creates an empty pool (with `true` and `false` pre-interned).
    pub fn new() -> Self {
        let mut pool = TermPool::default();
        let t = pool.intern_term(Term::True);
        let f = pool.intern_term(Term::False);
        debug_assert_eq!(t, TermPool::TRUE);
        debug_assert_eq!(f, TermPool::FALSE);
        pool.memoize = true;
        pool
    }

    /// The interned `true` formula.
    pub const TRUE: TermId = TermId(0);
    /// The interned `false` formula.
    pub const FALSE: TermId = TermId(1);

    fn intern_term(&mut self, term: Term) -> TermId {
        if let Some(&id) = self.intern.get(&term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.clone());
        self.intern.insert(term, id);
        id
    }

    /// The structure of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from another pool.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    // ---- resource governance ---------------------------------------------

    /// Installs `governor`: every subsequent solver query routed through
    /// this pool charges it. Pass [`ResourceGovernor::unlimited`] to
    /// remove governance.
    pub fn set_governor(&mut self, governor: ResourceGovernor) {
        self.governor = governor;
    }

    /// The governor charged by queries through this pool.
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Selects the boolean search engine for queries through this pool.
    pub fn set_solver_kind(&mut self, kind: SolverKind) {
        self.solver_kind = kind;
    }

    /// The boolean search engine used by queries through this pool.
    pub fn solver_kind(&self) -> SolverKind {
        self.solver_kind
    }

    // ---- query memoization -----------------------------------------------

    /// This pool's memo, or `None` while memoization is off. Read-only:
    /// its [`QueryMemo::stats`] count the lookups made through this pool.
    pub fn query_cache(&self) -> Option<&QueryMemo> {
        self.memoize.then_some(&self.memo)
    }

    pub(crate) fn memo_mut(&mut self) -> &mut QueryMemo {
        &mut self.memo
    }

    /// Switches memoization on or off. While it is off, solver calls
    /// consult and fill neither the memo nor the shared cache; the memo
    /// keeps its entries and counters for when it is switched back on.
    pub fn set_memoization(&mut self, on: bool) {
        self.memoize = on;
    }

    /// The cross-pool cache consulted on memo misses, if one is installed.
    /// [`TermPool::new`] installs none.
    pub fn shared_cache(&self) -> Option<&QueryCache> {
        self.shared.as_ref()
    }

    /// Installs `cache` as the cross-pool tier (shared storage: the
    /// handle is `Arc`-backed).
    pub fn set_shared_cache(&mut self, cache: QueryCache) {
        self.shared = Some(cache);
    }

    // ---- variables -------------------------------------------------------

    /// Interns a named integer variable.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_intern.get(name) {
            return v;
        }
        let v = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        self.var_intern.insert(name.to_owned(), v);
        v
    }

    /// Creates a fresh variable with a unique, `base`-derived name.
    pub fn fresh_var(&mut self, base: &str) -> VarId {
        let mut k = self.var_names.len();
        loop {
            let name = format!("{base}#{k}");
            if !self.var_intern.contains_key(&name) {
                return self.var(&name);
            }
            k += 1;
        }
    }

    /// The name of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is from another pool.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Number of interned variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    // ---- constructors ----------------------------------------------------

    /// Interns the atom `expr rel 0` (normalized; may collapse to ⊤/⊥).
    pub fn atom(&mut self, expr: LinExpr, rel: Rel) -> TermId {
        match LinearConstraint::new(expr, rel) {
            NormalizedConstraint::True => TermPool::TRUE,
            NormalizedConstraint::False => TermPool::FALSE,
            NormalizedConstraint::Constraint(c) => self.intern_term(Term::Atom(c)),
        }
    }

    /// `lhs ≤ rhs`.
    pub fn le(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        self.atom(lhs.sub(rhs), Rel::Le0)
    }

    /// `lhs < rhs` (integer-exact: `lhs + 1 ≤ rhs`).
    pub fn lt(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        self.atom(lhs.sub(rhs).add(&LinExpr::constant(1)), Rel::Le0)
    }

    /// `lhs ≥ rhs`.
    pub fn ge(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        self.le(rhs, lhs)
    }

    /// `lhs > rhs`.
    pub fn gt(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        self.lt(rhs, lhs)
    }

    /// `lhs = rhs`.
    pub fn eq(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        self.atom(lhs.sub(rhs), Rel::Eq0)
    }

    /// `lhs ≠ rhs`.
    pub fn ne(&mut self, lhs: &LinExpr, rhs: &LinExpr) -> TermId {
        let eq = self.eq(lhs, rhs);
        self.not(eq)
    }

    /// `var ≤ k`.
    pub fn le_const(&mut self, var: VarId, k: i128) -> TermId {
        self.atom(LinExpr::var(var).sub(&LinExpr::constant(k)), Rel::Le0)
    }

    /// `var ≥ k`.
    pub fn ge_const(&mut self, var: VarId, k: i128) -> TermId {
        self.atom(LinExpr::constant(k).sub(&LinExpr::var(var)), Rel::Le0)
    }

    /// `var = k`.
    pub fn eq_const(&mut self, var: VarId, k: i128) -> TermId {
        self.atom(LinExpr::var(var).sub(&LinExpr::constant(k)), Rel::Eq0)
    }

    /// N-ary conjunction with flattening, deduplication, unit and
    /// complement simplification.
    pub fn and(&mut self, children: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        for c in children {
            match self.term(c) {
                Term::True => {}
                Term::False => return TermPool::FALSE,
                Term::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // Complement pair ⇒ ⊥ (lookup-only: no construction, no recursion).
        for &c in &flat {
            if let Some(n) = self.known_complement(c) {
                if flat.binary_search(&n).is_ok() {
                    return TermPool::FALSE;
                }
            }
        }
        match flat.len() {
            0 => TermPool::TRUE,
            1 => flat[0],
            _ => self.intern_term(Term::And(flat.into_boxed_slice())),
        }
    }

    /// N-ary disjunction with flattening, deduplication, unit and
    /// complement simplification.
    pub fn or(&mut self, children: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat: Vec<TermId> = Vec::new();
        for c in children {
            match self.term(c) {
                Term::False => {}
                Term::True => return TermPool::TRUE,
                Term::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &c in &flat {
            if let Some(n) = self.known_complement(c) {
                if flat.binary_search(&n).is_ok() {
                    return TermPool::TRUE;
                }
            }
        }
        match flat.len() {
            0 => TermPool::FALSE,
            1 => flat[0],
            _ => self.intern_term(Term::Or(flat.into_boxed_slice())),
        }
    }

    /// The already-interned complement of `id`, if one exists.
    ///
    /// For `≤`-atoms the complement is a single atom whose normalized form
    /// can be computed and looked up without inserting anything; for other
    /// terms only the negation cache is consulted. This is deliberately a
    /// pure lookup so that the `and`/`or` constructors can detect
    /// complement pairs without recursing through [`TermPool::not`].
    fn known_complement(&self, id: TermId) -> Option<TermId> {
        if let Term::Atom(c) = self.term(id) {
            if c.rel() == Rel::Le0 {
                let mut negs = c.negate();
                debug_assert_eq!(negs.len(), 1);
                if let NormalizedConstraint::Constraint(n) = negs.pop()? {
                    return self.intern.get(&Term::Atom(n)).copied();
                }
                return None;
            }
        }
        self.negation_cache.get(&id).copied()
    }

    /// Negation, eliminated structurally: atoms negate exactly over ℤ,
    /// `∧`/`∨` dualize (De Morgan). The result contains no negation node.
    pub fn not(&mut self, id: TermId) -> TermId {
        if let Some(&n) = self.negation_cache.get(&id) {
            return n;
        }
        let result = match self.term(id).clone() {
            Term::True => TermPool::FALSE,
            Term::False => TermPool::TRUE,
            Term::Atom(c) => {
                let parts: Vec<TermId> = c
                    .negate()
                    .into_iter()
                    .map(|n| match n {
                        NormalizedConstraint::True => TermPool::TRUE,
                        NormalizedConstraint::False => TermPool::FALSE,
                        NormalizedConstraint::Constraint(c) => self.intern_term(Term::Atom(c)),
                    })
                    .collect();
                self.or(parts)
            }
            Term::And(children) => {
                let negs: Vec<TermId> = children.iter().map(|&c| self.not(c)).collect();
                self.or(negs)
            }
            Term::Or(children) => {
                let negs: Vec<TermId> = children.iter().map(|&c| self.not(c)).collect();
                self.and(negs)
            }
        };
        self.negation_cache.insert(id, result);
        self.negation_cache.insert(result, id);
        result
    }

    // ---- queries and transformations --------------------------------------

    /// Evaluates `id` under the total integer assignment `value`.
    pub fn eval(&self, id: TermId, value: &dyn Fn(VarId) -> i128) -> bool {
        match self.term(id) {
            Term::True => true,
            Term::False => false,
            Term::Atom(c) => c.eval(value),
            Term::And(children) => children.iter().all(|&c| self.eval(c, value)),
            Term::Or(children) => children.iter().any(|&c| self.eval(c, value)),
        }
    }

    /// The free variables of `id`, sorted.
    pub fn free_vars(&self, id: TermId) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(id, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, id: TermId, out: &mut Vec<VarId>) {
        match self.term(id) {
            Term::True | Term::False => {}
            Term::Atom(c) => out.extend(c.expr().vars()),
            Term::And(children) | Term::Or(children) => {
                for &c in children.iter() {
                    self.collect_vars(c, out);
                }
            }
        }
    }

    /// All distinct atoms of `id`.
    pub fn atoms(&self, id: TermId) -> Vec<LinearConstraint> {
        let mut out = Vec::new();
        self.collect_atoms(id, &mut out);
        out
    }

    fn collect_atoms(&self, id: TermId, out: &mut Vec<LinearConstraint>) {
        match self.term(id) {
            Term::True | Term::False => {}
            Term::Atom(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            Term::And(children) | Term::Or(children) => {
                for &c in children.iter() {
                    self.collect_atoms(c, out);
                }
            }
        }
    }

    /// Substitutes `x := e` throughout `id` (re-normalizing atoms).
    pub fn substitute(&mut self, id: TermId, x: VarId, e: &LinExpr) -> TermId {
        match self.term(id).clone() {
            Term::True | Term::False => id,
            Term::Atom(c) => {
                if !c.expr().mentions(x) {
                    id
                } else {
                    let expr = c.expr().substitute(x, e);
                    self.atom(expr, c.rel())
                }
            }
            Term::And(children) => {
                let subst: Vec<TermId> =
                    children.iter().map(|&c| self.substitute(c, x, e)).collect();
                self.and(subst)
            }
            Term::Or(children) => {
                let subst: Vec<TermId> =
                    children.iter().map(|&c| self.substitute(c, x, e)).collect();
                self.or(subst)
            }
        }
    }

    /// Renames variables through `f` (injective on the free variables).
    pub fn rename(&mut self, id: TermId, f: &dyn Fn(VarId) -> VarId) -> TermId {
        match self.term(id).clone() {
            Term::True | Term::False => id,
            Term::Atom(c) => {
                let renamed = c.rename(f);
                self.intern_term(Term::Atom(renamed))
            }
            Term::And(children) => {
                let mapped: Vec<TermId> = children.iter().map(|&c| self.rename(c, f)).collect();
                self.and(mapped)
            }
            Term::Or(children) => {
                let mapped: Vec<TermId> = children.iter().map(|&c| self.rename(c, f)).collect();
                self.or(mapped)
            }
        }
    }

    /// Pretty-prints `id` using variable names.
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::True => "true".to_owned(),
            Term::False => "false".to_owned(),
            Term::Atom(c) => self.display_constraint(c),
            Term::And(children) => {
                let parts: Vec<String> = children.iter().map(|&c| self.display_paren(c)).collect();
                parts.join(" && ")
            }
            Term::Or(children) => {
                let parts: Vec<String> = children.iter().map(|&c| self.display_paren(c)).collect();
                parts.join(" || ")
            }
        }
    }

    fn display_paren(&self, id: TermId) -> String {
        match self.term(id) {
            Term::And(_) | Term::Or(_) => format!("({})", self.display(id)),
            _ => self.display(id),
        }
    }

    /// Pretty-prints a single constraint using variable names.
    pub fn display_constraint(&self, c: &LinearConstraint) -> String {
        let mut lhs = String::new();
        for (i, &(v, coeff)) in c.expr().terms().iter().enumerate() {
            let name = self.var_name(v);
            if i == 0 {
                match coeff {
                    1 => lhs.push_str(name),
                    -1 => lhs.push_str(&format!("-{name}")),
                    _ => lhs.push_str(&format!("{coeff}*{name}")),
                }
            } else if coeff > 0 {
                if coeff == 1 {
                    lhs.push_str(&format!(" + {name}"));
                } else {
                    lhs.push_str(&format!(" + {coeff}*{name}"));
                }
            } else if coeff == -1 {
                lhs.push_str(&format!(" - {name}"));
            } else {
                lhs.push_str(&format!(" - {}*{name}", -coeff));
            }
        }
        let rel = match c.rel() {
            Rel::Le0 => "<=",
            Rel::Eq0 => "==",
        };
        format!("{lhs} {rel} {}", -c.expr().constant_term())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a1 = p.le_const(x, 5);
        let a2 = p.le_const(x, 5);
        assert_eq!(a1, a2);
        let c1 = p.and([a1, TermPool::TRUE]);
        assert_eq!(c1, a1, "true is a neutral element");
    }

    #[test]
    fn and_or_simplifications() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let a = p.le_const(x, 5);
        assert_eq!(p.and([a, TermPool::FALSE]), TermPool::FALSE);
        assert_eq!(p.or([a, TermPool::TRUE]), TermPool::TRUE);
        assert_eq!(p.and(std::iter::empty()), TermPool::TRUE);
        assert_eq!(p.or(std::iter::empty()), TermPool::FALSE);
        let na = p.not(a);
        assert_eq!(p.and([a, na]), TermPool::FALSE);
        assert_eq!(p.or([a, na]), TermPool::TRUE);
    }

    #[test]
    fn negation_is_involutive_and_exact() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let a = p.le_const(x, 3);
        let b = p.eq_const(y, 1);
        let f = p.and([a, b]);
        let nf = p.not(f);
        assert_eq!(p.not(nf), f);
        // Exact complement under evaluation.
        for xv in 0..6 {
            for yv in 0..3 {
                let val = move |v: VarId| if v == x { xv } else { yv };
                assert_ne!(p.eval(f, &val), p.eval(nf, &val), "x={xv} y={yv}");
            }
        }
    }

    #[test]
    fn eval_structure() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let low = p.ge_const(x, 2);
        let high = p.le_const(x, 4);
        let range = p.and([low, high]);
        let outside = p.not(range);
        assert!(p.eval(range, &|_| 3));
        assert!(!p.eval(range, &|_| 1));
        assert!(p.eval(outside, &|_| 5));
    }

    #[test]
    fn free_vars_and_atoms() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        let z = p.var("z");
        let a = p.le(&LinExpr::var(x), &LinExpr::var(y));
        let b = p.eq_const(z, 0);
        let f = p.or([a, b]);
        assert_eq!(p.free_vars(f), vec![x, y, z]);
        assert_eq!(p.atoms(f).len(), 2);
    }

    #[test]
    fn substitution() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        // x ≤ 5 with x := y + 10  →  y ≤ -5
        let f = p.le_const(x, 5);
        let e = LinExpr::var(y).add(&LinExpr::constant(10));
        let g = p.substitute(f, x, &e);
        assert!(p.eval(g, &|_| -5));
        assert!(!p.eval(g, &|_| -4));
        assert!(!p.free_vars(g).contains(&x));
    }

    #[test]
    fn rename_vars() {
        let mut p = TermPool::new();
        let x = p.var("x");
        let x2 = p.var("x'");
        let f = p.ge_const(x, 1);
        let g = p.rename(f, &move |v| if v == x { x2 } else { v });
        assert_eq!(p.free_vars(g), vec![x2]);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut p = TermPool::new();
        let a = p.fresh_var("tmp");
        let b = p.fresh_var("tmp");
        assert_ne!(a, b);
        assert_ne!(p.var_name(a), p.var_name(b));
    }

    #[test]
    fn display_round_trips_names() {
        let mut p = TermPool::new();
        let x = p.var("pendingIo");
        let one = p.ge_const(x, 1);
        assert_eq!(p.display(one), "-pendingIo <= -1");
    }

    #[test]
    fn strict_inequality_is_tightened() {
        let mut p = TermPool::new();
        let x = p.var("x");
        // x < 3 over ℤ means x ≤ 2.
        let f = p.lt(&LinExpr::var(x), &LinExpr::constant(3));
        let g = p.le(&LinExpr::var(x), &LinExpr::constant(2));
        assert_eq!(f, g);
    }
}
