//! Program statements as transition formulas.
//!
//! A [`Statement`] is one letter of the program alphabet. Simple statements
//! (`assume`, assignment, `havoc`) have a single internal path; an `atomic`
//! block is a single letter whose relation is the *disjunction over the
//! block's internal paths* (branching inside an atomic block is allowed,
//! loops are not — the frontend enforces this).
//!
//! Two views of a statement's semantics are provided:
//!
//! * [`Statement::encode_ssa`] — the relation as an SSA-indexed formula,
//!   used for exact trace-feasibility checks and Hoare triple validity;
//! * [`Statement::post_image`] — the strongest postcondition on a DNF over
//!   *program* variables, used by the interpolation engine.

use crate::thread::ThreadId;
use crate::var::Versions;
use smt::cube::Dnf;
use smt::linear::{LinExpr, VarId};
use smt::term::{Term, TermId, TermPool};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An indivisible step inside a statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimpleStmt {
    /// Blocks unless the guard holds.
    Assume(TermId),
    /// `x := e`.
    Assign(VarId, LinExpr),
    /// `x := *` (nondeterministic integer).
    Havoc(VarId),
}

/// One letter of the program alphabet: a statement owned by a thread.
///
/// # Example
///
/// ```
/// use smt::term::TermPool;
/// use smt::linear::LinExpr;
/// use program::stmt::{SimpleStmt, Statement};
/// use program::thread::ThreadId;
///
/// let mut pool = TermPool::new();
/// let x = pool.var("x");
/// let incr = Statement::simple(
///     ThreadId(0),
///     "x := x + 1",
///     SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
///     &pool,
/// );
/// assert!(incr.writes().contains(&x));
/// ```
#[derive(Clone, Debug)]
pub struct Statement {
    thread: ThreadId,
    label: String,
    /// Internal paths; the statement's relation is their disjunction.
    paths: Vec<Vec<SimpleStmt>>,
    reads: BTreeSet<VarId>,
    writes: BTreeSet<VarId>,
}

impl Statement {
    /// A single-step statement.
    pub fn simple(thread: ThreadId, label: &str, stmt: SimpleStmt, pool: &TermPool) -> Statement {
        Statement::atomic(thread, label, vec![vec![stmt]], pool)
    }

    /// An atomic block given as its set of internal paths (each a sequence
    /// of simple statements). The relation is the disjunction of the paths'
    /// sequential compositions.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty.
    pub fn atomic(
        thread: ThreadId,
        label: &str,
        paths: Vec<Vec<SimpleStmt>>,
        pool: &TermPool,
    ) -> Statement {
        assert!(!paths.is_empty(), "a statement needs at least one path");
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        for path in &paths {
            for s in path {
                match s {
                    SimpleStmt::Assume(g) => reads.extend(pool.free_vars(*g)),
                    SimpleStmt::Assign(x, e) => {
                        reads.extend(e.vars());
                        writes.insert(*x);
                    }
                    SimpleStmt::Havoc(x) => {
                        writes.insert(*x);
                    }
                }
            }
        }
        Statement {
            thread,
            label: label.to_owned(),
            paths,
            reads,
            writes,
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Human-readable label (used in traces and DOT dumps).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The internal paths.
    pub fn paths(&self) -> &[Vec<SimpleStmt>] {
        &self.paths
    }

    /// Variables read by any path (guards and right-hand sides).
    pub fn reads(&self) -> &BTreeSet<VarId> {
        &self.reads
    }

    /// Variables written by any path.
    pub fn writes(&self) -> &BTreeSet<VarId> {
        &self.writes
    }

    /// Variables accessed (read or written).
    pub fn accesses(&self) -> BTreeSet<VarId> {
        self.reads.union(&self.writes).copied().collect()
    }

    /// Encodes the statement's relation over SSA versions.
    ///
    /// Reads use the versions current in `versions` on entry; every written
    /// variable gets a fresh version (shared across paths). Havoc values
    /// become fresh auxiliary variables, free in the result (existential at
    /// the formula level).
    pub fn encode_ssa(&self, pool: &mut TermPool, versions: &mut Versions) -> TermId {
        let in_version: HashMap<VarId, VarId> = self
            .accesses()
            .iter()
            .map(|&v| (v, versions.current(v)))
            .collect();
        let out_version: HashMap<VarId, VarId> = self
            .writes
            .iter()
            .map(|&w| (w, versions.bump(pool, w)))
            .collect();

        let mut disjuncts = Vec::with_capacity(self.paths.len());
        for path in &self.paths {
            let mut sym = SymState::new(&in_version);
            sym.exec_path(pool, path);
            let mut conjuncts = sym.guards.clone();
            // Written variables in `BTreeSet` order, so the equalities are
            // interned in the same order on every run.
            for w in &self.writes {
                let final_value = sym.value(*w);
                let out = LinExpr::var(out_version[w]);
                conjuncts.push(pool.eq(&out, &final_value));
            }
            disjuncts.push(pool.and(conjuncts));
        }
        pool.or(disjuncts)
    }

    /// Strongest postcondition of `state` (a DNF over program variables).
    ///
    /// Returns the post-state DNF and whether it is exact over ℤ; an
    /// inexact result over-approximates (still sound for Hoare chains).
    pub fn post_image(&self, pool: &mut TermPool, state: &Dnf) -> (Dnf, bool) {
        let mut out = Dnf::bottom();
        let mut exact = true;
        for path in &self.paths {
            let mut cur = state.clone();
            for s in path {
                let (next, e) = Self::post_simple(pool, &cur, s);
                cur = next;
                exact &= e;
            }
            out = out.or(cur);
        }
        out.prune_inconsistent();
        (out, exact)
    }

    fn post_simple(pool: &mut TermPool, state: &Dnf, s: &SimpleStmt) -> (Dnf, bool) {
        match s {
            SimpleStmt::Assume(g) => {
                let guard = Dnf::from_term(pool, *g);
                let exact = guard.is_exact();
                (state.and(&guard), exact)
            }
            SimpleStmt::Assign(x, e) => {
                let ghost = pool.fresh_var(&format!("{}!old", pool.var_name(*x)));
                let e_old = apply_to_expr(e, &HashMap::from([(*x, LinExpr::var(ghost))]));
                let mut cubes = Vec::new();
                let mut exact = true;
                for cube in state.cubes() {
                    let Some(shifted) = cube.substitute(*x, &LinExpr::var(ghost)) else {
                        continue;
                    };
                    let lhs = LinExpr::var(*x);
                    let eq =
                        smt::linear::LinearConstraint::new(lhs.sub(&e_old), smt::linear::Rel::Eq0);
                    let mut c = shifted;
                    if !c.add(eq) {
                        continue;
                    }
                    let (projected, e_ok) = c.eliminate(ghost);
                    exact &= e_ok;
                    if let Some(p) = projected {
                        cubes.push(p);
                    }
                }
                let mut dnf = Dnf::bottom();
                for c in cubes {
                    dnf = dnf.or(Dnf::from_cube(c));
                }
                (dnf, exact)
            }
            SimpleStmt::Havoc(x) => {
                let ghost = pool.fresh_var(&format!("{}!old", pool.var_name(*x)));
                let mut dnf = Dnf::bottom();
                let mut exact = true;
                for cube in state.cubes() {
                    let Some(shifted) = cube.substitute(*x, &LinExpr::var(ghost)) else {
                        continue;
                    };
                    let (projected, e_ok) = shifted.eliminate(ghost);
                    exact &= e_ok;
                    if let Some(p) = projected {
                        dnf = dnf.or(Dnf::from_cube(p));
                    }
                }
                (dnf, exact)
            }
        }
    }

    /// The relation of this statement as a formula over program variables
    /// `V` (pre-state) and `primed` variables (post-state, written vars
    /// only), together with leftover auxiliary havoc variables.
    ///
    /// Used by the semantic commutativity check; see
    /// [`crate::commutativity`].
    pub fn relation(
        &self,
        pool: &mut TermPool,
        primed: &HashMap<VarId, VarId>,
    ) -> (TermId, Vec<VarId>) {
        let identity: HashMap<VarId, VarId> = self.accesses().iter().map(|&v| (v, v)).collect();
        let mut disjuncts = Vec::with_capacity(self.paths.len());
        let mut aux = Vec::new();
        for path in &self.paths {
            let mut sym = SymState::new(&identity);
            sym.exec_path(pool, path);
            let mut conjuncts = sym.guards.clone();
            for &w in &self.writes {
                let out = LinExpr::var(primed[&w]);
                let value = sym.value(w);
                conjuncts.push(pool.eq(&out, &value));
            }
            aux.extend(sym.aux.iter().copied());
            disjuncts.push(pool.and(conjuncts));
        }
        (pool.or(disjuncts), aux)
    }
}

/// The relation of the sequential composition `first; second` over program
/// variables `V` (pre) and `primed` variables (post).
///
/// `primed` must cover `writes(first) ∪ writes(second)`. Intermediate
/// values are composed symbolically (no existential mid-state variables);
/// only havoc values remain as auxiliary free variables, returned for the
/// caller to eliminate.
pub fn compose_relation(
    pool: &mut TermPool,
    first: &Statement,
    second: &Statement,
    primed: &HashMap<VarId, VarId>,
) -> (TermId, Vec<VarId>) {
    let mut writes: BTreeSet<VarId> = first.writes().clone();
    writes.extend(second.writes().iter().copied());
    let identity: HashMap<VarId, VarId> = first
        .accesses()
        .union(&second.accesses())
        .map(|&v| (v, v))
        .collect();
    let mut disjuncts = Vec::new();
    let mut aux = Vec::new();
    for p1 in first.paths() {
        for p2 in second.paths() {
            let mut sym = SymState::new(&identity);
            sym.exec_path(pool, p1);
            sym.exec_path(pool, p2);
            let mut conjuncts = sym.guards.clone();
            for &w in &writes {
                let out = LinExpr::var(primed[&w]);
                let value = sym.value(w);
                conjuncts.push(pool.eq(&out, &value));
            }
            aux.extend(sym.aux.iter().copied());
            disjuncts.push(pool.and(conjuncts));
        }
    }
    (pool.or(disjuncts), aux)
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Symbolic execution state for a single path: each program variable maps
/// to its current symbolic value (an expression over entry versions and
/// auxiliary havoc variables).
struct SymState {
    sym: HashMap<VarId, LinExpr>,
    guards: Vec<TermId>,
    aux: Vec<VarId>,
}

impl SymState {
    fn new(in_version: &HashMap<VarId, VarId>) -> SymState {
        SymState {
            sym: in_version
                .iter()
                .map(|(&v, &iv)| (v, LinExpr::var(iv)))
                .collect(),
            guards: Vec::new(),
            aux: Vec::new(),
        }
    }

    fn value(&self, v: VarId) -> LinExpr {
        self.sym.get(&v).cloned().unwrap_or_else(|| LinExpr::var(v))
    }

    fn exec_path(&mut self, pool: &mut TermPool, path: &[SimpleStmt]) {
        for s in path {
            match s {
                SimpleStmt::Assume(g) => {
                    let mapped = apply_to_term(pool, *g, &self.sym);
                    self.guards.push(mapped);
                }
                SimpleStmt::Assign(x, e) => {
                    let value = apply_to_expr(e, &self.sym);
                    self.sym.insert(*x, value);
                }
                SimpleStmt::Havoc(x) => {
                    let h = pool.fresh_var(&format!("{}!havoc", pool.var_name(*x)));
                    self.aux.push(h);
                    self.sym.insert(*x, LinExpr::var(h));
                }
            }
        }
    }
}

/// Simultaneous substitution of variables in a linear expression
/// (capture-free: all replacements are applied at once).
pub fn apply_to_expr(e: &LinExpr, map: &HashMap<VarId, LinExpr>) -> LinExpr {
    let mut out = LinExpr::constant(e.constant_term());
    for &(v, c) in e.terms() {
        match map.get(&v) {
            Some(r) => out = out.add(&r.scale(c)),
            None => out = out.add(&LinExpr::var(v).scale(c)),
        }
    }
    out
}

/// Simultaneous substitution of variables throughout a formula.
pub fn apply_to_term(pool: &mut TermPool, t: TermId, map: &HashMap<VarId, LinExpr>) -> TermId {
    match pool.term(t).clone() {
        Term::True | Term::False => t,
        Term::Atom(c) => {
            let expr = apply_to_expr(c.expr(), map);
            pool.atom(expr, c.rel())
        }
        Term::And(children) => {
            let mapped: Vec<TermId> = children
                .iter()
                .map(|&c| apply_to_term(pool, c, map))
                .collect();
            pool.and(mapped)
        }
        Term::Or(children) => {
            let mapped: Vec<TermId> = children
                .iter()
                .map(|&c| apply_to_term(pool, c, map))
                .collect();
            pool.or(mapped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt::solver::{check, entails};

    fn t0() -> ThreadId {
        ThreadId(0)
    }

    #[test]
    fn read_write_sets() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let y = pool.var("y");
        let g = pool.ge_const(y, 1);
        let s = Statement::atomic(
            t0(),
            "atomic",
            vec![vec![
                SimpleStmt::Assume(g),
                SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            ]],
            &pool,
        );
        assert_eq!(s.reads().iter().copied().collect::<Vec<_>>(), vec![x, y]);
        assert_eq!(s.writes().iter().copied().collect::<Vec<_>>(), vec![x]);
        assert_eq!(s.accesses().len(), 2);
    }

    #[test]
    fn encode_ssa_increment() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let s = Statement::simple(
            t0(),
            "x := x + 1",
            SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            &pool,
        );
        let mut versions = Versions::new();
        let init = pool.eq_const(x, 5);
        let f = s.encode_ssa(&mut pool, &mut versions);
        let x1 = versions.current(x);
        assert_ne!(x1, x);
        // init ∧ f entails x1 = 6.
        let conj = pool.and([init, f]);
        let expected = pool.eq_const(x1, 6);
        assert!(entails(&mut pool, conj, expected));
    }

    #[test]
    fn encode_ssa_assume_blocks() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let g = pool.ge_const(x, 10);
        let s = Statement::simple(t0(), "assume x >= 10", SimpleStmt::Assume(g), &pool);
        let mut versions = Versions::new();
        let f = s.encode_ssa(&mut pool, &mut versions);
        let low = pool.le_const(x, 5);
        assert!(check(&mut pool, &[f, low]).is_unsat());
        // Assume writes nothing: version unchanged.
        assert_eq!(versions.current(x), x);
    }

    #[test]
    fn encode_ssa_atomic_branching() {
        // The bluetooth Close block: pendingIo := pendingIo - 1;
        // if (pendingIo == 0) stoppingEvent := true;
        let mut pool = TermPool::new();
        let p = pool.var("pendingIo");
        let ev = pool.var("stoppingEvent");
        let dec = LinExpr::var(p).sub(&LinExpr::constant(1));
        let p_zero = pool.eq_const(p, 0);
        let p_nonzero = pool.not(p_zero);
        let close = Statement::atomic(
            t0(),
            "close",
            vec![
                vec![
                    SimpleStmt::Assign(p, dec.clone()),
                    SimpleStmt::Assume(p_zero),
                    SimpleStmt::Assign(ev, LinExpr::constant(1)),
                ],
                vec![SimpleStmt::Assign(p, dec), SimpleStmt::Assume(p_nonzero)],
            ],
            &pool,
        );
        // Note: the second path doesn't write `ev`; the encoding must frame
        // it to the *entry* value of ev.
        let mut versions = Versions::new();
        let p1init = pool.eq_const(p, 1);
        let ev0 = pool.eq_const(ev, 0);
        let pre = pool.and([p1init, ev0]);
        let f = close.encode_ssa(&mut pool, &mut versions);
        let p1 = versions.current(p);
        let ev1 = versions.current(ev);
        let conj = pool.and([pre, f]);
        // From pendingIo = 1: after close, pendingIo' = 0 and event' = 1.
        let want_p = pool.eq_const(p1, 0);
        let want_ev = pool.eq_const(ev1, 1);
        assert!(entails(&mut pool, conj, want_p));
        assert!(entails(&mut pool, conj, want_ev));
    }

    #[test]
    fn atomic_unwritten_path_frames_variable() {
        // Same block, starting from pendingIo = 5: event must stay 0.
        let mut pool = TermPool::new();
        let p = pool.var("pendingIo");
        let ev = pool.var("stoppingEvent");
        let dec = LinExpr::var(p).sub(&LinExpr::constant(1));
        let p_zero = pool.eq_const(p, 0);
        let p_nonzero = pool.not(p_zero);
        let close = Statement::atomic(
            t0(),
            "close",
            vec![
                vec![
                    SimpleStmt::Assign(p, dec.clone()),
                    SimpleStmt::Assume(p_zero),
                    SimpleStmt::Assign(ev, LinExpr::constant(1)),
                ],
                vec![SimpleStmt::Assign(p, dec), SimpleStmt::Assume(p_nonzero)],
            ],
            &pool,
        );
        let mut versions = Versions::new();
        let p5init = pool.eq_const(p, 5);
        let ev0 = pool.eq_const(ev, 0);
        let pre = pool.and([p5init, ev0]);
        let f = close.encode_ssa(&mut pool, &mut versions);
        let ev1 = versions.current(ev);
        let conj = pool.and([pre, f]);
        let want_ev = pool.eq_const(ev1, 0);
        assert!(entails(&mut pool, conj, want_ev));
    }

    #[test]
    fn encode_ssa_havoc_is_unconstrained() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let s = Statement::simple(t0(), "havoc x", SimpleStmt::Havoc(x), &pool);
        let mut versions = Versions::new();
        let pre = pool.eq_const(x, 0);
        let f = s.encode_ssa(&mut pool, &mut versions);
        let x1 = versions.current(x);
        let arbitrary = pool.eq_const(x1, 42);
        // havoc can reach any value.
        assert!(check(&mut pool, &[pre, f, arbitrary]).is_sat());
    }

    #[test]
    fn post_image_increment() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let s = Statement::simple(
            t0(),
            "x := x + 1",
            SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            &pool,
        );
        let init = pool.ge_const(x, 2);
        let state = Dnf::from_term(&pool, init);
        let (post, exact) = s.post_image(&mut pool, &state);
        assert!(exact);
        let t = post.to_term(&mut pool);
        let expected = pool.ge_const(x, 3);
        assert!(smt::equivalent(&mut pool, t, expected));
    }

    #[test]
    fn post_image_assume_intersects() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let g = pool.le_const(x, 10);
        let s = Statement::simple(t0(), "assume", SimpleStmt::Assume(g), &pool);
        let init = pool.ge_const(x, 5);
        let state = Dnf::from_term(&pool, init);
        let (post, exact) = s.post_image(&mut pool, &state);
        assert!(exact);
        let t = post.to_term(&mut pool);
        let lo = pool.ge_const(x, 5);
        let hi = pool.le_const(x, 10);
        let expected = pool.and([lo, hi]);
        assert!(smt::equivalent(&mut pool, t, expected));
    }

    #[test]
    fn post_image_blocking_assume_is_bottom() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let g = pool.ge_const(x, 10);
        let s = Statement::simple(t0(), "assume", SimpleStmt::Assume(g), &pool);
        let init = pool.le_const(x, 3);
        let state = Dnf::from_term(&pool, init);
        let (post, _) = s.post_image(&mut pool, &state);
        assert!(post.is_bottom());
    }

    #[test]
    fn post_image_havoc_forgets() {
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let y = pool.var("y");
        let s = Statement::simple(t0(), "havoc x", SimpleStmt::Havoc(x), &pool);
        let both = {
            let a = pool.eq_const(x, 1);
            let b = pool.eq_const(y, 2);
            pool.and([a, b])
        };
        let state = Dnf::from_term(&pool, both);
        let (post, exact) = s.post_image(&mut pool, &state);
        assert!(exact);
        let t = post.to_term(&mut pool);
        let expected = pool.eq_const(y, 2);
        assert!(smt::equivalent(&mut pool, t, expected));
    }

    #[test]
    fn relation_composes_for_commutativity() {
        // x := x + 1 and y := y + 1 obviously commute; their relations over
        // a shared primed set must be conjoinable.
        let mut pool = TermPool::new();
        let x = pool.var("x");
        let y = pool.var("y");
        let sx = Statement::simple(
            t0(),
            "x+1",
            SimpleStmt::Assign(x, LinExpr::var(x).add(&LinExpr::constant(1))),
            &pool,
        );
        let xp = pool.var("x'");
        let primed = HashMap::from([(x, xp)]);
        let (rel, aux) = sx.relation(&mut pool, &primed);
        assert!(aux.is_empty());
        let pre = pool.eq_const(x, 1);
        let conj = pool.and([pre, rel]);
        let expected = pool.eq_const(xp, 2);
        assert!(entails(&mut pool, conj, expected));
        let _ = y;
    }
}
