//! Cubes (conjunctions of linear constraints), DNF sets of cubes, and
//! variable elimination.
//!
//! The strongest-postcondition interpolation engine represents the
//! assertion after each trace prefix as a DNF over program variables and
//! eliminates stale SSA versions as it goes. Elimination is *exact* when a
//! variable can be solved from an equality with a ±1 coefficient (the
//! overwhelmingly common case: every assignment produces such an equality)
//! or when Fourier–Motzkin only combines ±1 coefficients; otherwise the
//! result over-approximates over ℤ and is flagged, so callers can fall back
//! to a precise mode.

use crate::linear::{LinExpr, LinearConstraint, NormalizedConstraint, Rel, VarId};
use crate::resource::ResourceGovernor;
use crate::simplex::{IncrementalSimplex, TheoryResult};
use crate::term::{Term, TermId, TermPool};

/// A conjunction of linear constraints. The empty cube is `true`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Cube {
    /// Sorted, deduplicated constraints.
    constraints: Vec<LinearConstraint>,
}

/// Ordering key for deterministic cube normal forms.
fn constraint_key(c: &LinearConstraint) -> (Vec<(VarId, i128)>, i128, crate::linear::Rel) {
    (c.expr().terms().to_vec(), c.expr().constant_term(), c.rel())
}

impl Cube {
    /// The `true` cube.
    pub fn tautology() -> Cube {
        Cube {
            constraints: Vec::new(),
        }
    }

    /// Builds a cube from constraints; returns `None` if any is trivially
    /// false after normalization.
    pub fn from_constraints(cs: impl IntoIterator<Item = NormalizedConstraint>) -> Option<Cube> {
        let mut cube = Cube::tautology();
        for c in cs {
            if !cube.add(c) {
                return None;
            }
        }
        Some(cube)
    }

    /// Adds a normalized constraint; returns `false` if the cube became
    /// trivially false.
    pub fn add(&mut self, c: NormalizedConstraint) -> bool {
        match c {
            NormalizedConstraint::True => true,
            NormalizedConstraint::False => false,
            NormalizedConstraint::Constraint(c) => {
                match self
                    .constraints
                    .binary_search_by_key(&constraint_key(&c), constraint_key)
                {
                    Ok(_) => {}
                    Err(i) => self.constraints.insert(i, c),
                }
                true
            }
        }
    }

    /// The constraints of the cube.
    pub fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }

    /// All variables mentioned.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs: Vec<VarId> = self
            .constraints
            .iter()
            .flat_map(|c| c.expr().vars())
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// `true` if `x` occurs in the cube.
    pub fn mentions(&self, x: VarId) -> bool {
        self.constraints.iter().any(|c| c.expr().mentions(x))
    }

    /// Conjunction of the two cubes, `None` if trivially false.
    pub fn meet(&self, other: &Cube) -> Option<Cube> {
        let mut out = self.clone();
        for c in &other.constraints {
            if !out.add(NormalizedConstraint::Constraint(c.clone())) {
                return None;
            }
        }
        Some(out)
    }

    /// Substitutes `x := e` in every constraint; `None` if trivially false.
    pub fn substitute(&self, x: VarId, e: &LinExpr) -> Option<Cube> {
        Cube::from_constraints(self.constraints.iter().map(|c| c.substitute(x, e)))
    }

    /// Eliminates `∃x` from the cube.
    ///
    /// Returns the projected cube and whether the projection is exact over
    /// the integers. A `None` cube means the projection is trivially false
    /// (possible via normalization of combined constraints).
    pub fn eliminate(&self, x: VarId) -> (Option<Cube>, bool) {
        if !self.mentions(x) {
            return (Some(self.clone()), true);
        }
        // Prefer an equality with a ±1 coefficient on x: exact substitution.
        if let Some(eq) = self
            .constraints
            .iter()
            .find(|c| c.rel() == Rel::Eq0 && c.expr().coeff(x).abs() == 1)
        {
            let coeff = eq.expr().coeff(x);
            // c·x + e = 0 ⇒ x = −e/c = −c·e (c = ±1).
            let rest = eq.expr().sub(&LinExpr::var(x).scale(coeff));
            let solution = rest.scale(-coeff);
            let others = self
                .constraints
                .iter()
                .filter(|c| *c != eq)
                .map(|c| c.substitute(x, &solution));
            return (Cube::from_constraints(others), true);
        }
        // Fourier–Motzkin. Equalities with non-unit coefficient split into
        // two inequalities first.
        let mut uppers: Vec<LinExpr> = Vec::new(); // a·x + e ≤ 0, a > 0
        let mut lowers: Vec<LinExpr> = Vec::new(); // a·x + e ≤ 0, a < 0
        let mut rest: Vec<NormalizedConstraint> = Vec::new();
        let mut exact = true;
        for c in &self.constraints {
            let a = c.expr().coeff(x);
            if a == 0 {
                rest.push(NormalizedConstraint::Constraint(c.clone()));
                continue;
            }
            if a.abs() != 1 {
                exact = false;
            }
            match c.rel() {
                Rel::Le0 => {
                    if a > 0 {
                        uppers.push(c.expr().clone());
                    } else {
                        lowers.push(c.expr().clone());
                    }
                }
                Rel::Eq0 => {
                    // Split into e ≤ 0 and −e ≤ 0, sorted by the sign of
                    // x's coefficient in each half.
                    if a > 0 {
                        uppers.push(c.expr().clone());
                        lowers.push(c.expr().scale(-1));
                    } else {
                        uppers.push(c.expr().scale(-1));
                        lowers.push(c.expr().clone());
                    }
                }
            }
        }
        // One-sided occurrences eliminate exactly (choose x far enough).
        if uppers.is_empty() || lowers.is_empty() {
            return (Cube::from_constraints(rest), true);
        }
        for u in &uppers {
            let a = u.coeff(x);
            debug_assert!(a > 0);
            for l in &lowers {
                let b = -l.coeff(x);
                debug_assert!(b > 0);
                // a·x + e ≤ 0 and −b·x + f ≤ 0 combine to b·e + a·f ≤ 0.
                let combined = u
                    .sub(&LinExpr::var(x).scale(a))
                    .scale(b)
                    .add(&l.add(&LinExpr::var(x).scale(b)).scale(a));
                rest.push(LinearConstraint::new(combined, Rel::Le0));
            }
        }
        (Cube::from_constraints(rest), exact)
    }

    /// Renders the cube as a term of `pool`.
    pub fn to_term(&self, pool: &mut TermPool) -> TermId {
        let atoms: Vec<TermId> = self
            .constraints
            .iter()
            .map(|c| pool.atom(c.expr().clone(), c.rel()))
            .collect();
        pool.and(atoms)
    }

    /// Syntactic implication: `self ⇒ other` if every constraint of `other`
    /// appears in `self`.
    pub fn syntactically_implies(&self, other: &Cube) -> bool {
        other.constraints.iter().all(|c| {
            self.constraints
                .binary_search_by_key(&constraint_key(c), constraint_key)
                .is_ok()
        })
    }
}

/// A disjunction of cubes with an exactness flag, representing a formula in
/// DNF. The empty DNF is `false`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dnf {
    cubes: Vec<Cube>,
    exact: bool,
}

/// Maximum number of cubes kept before over-approximating (see
/// `Dnf::compress`).
pub const MAX_CUBES: usize = 128;

impl Dnf {
    /// The `false` DNF.
    pub fn bottom() -> Dnf {
        Dnf {
            cubes: Vec::new(),
            exact: true,
        }
    }

    /// The `true` DNF.
    pub fn top() -> Dnf {
        Dnf {
            cubes: vec![Cube::tautology()],
            exact: true,
        }
    }

    /// A single-cube DNF.
    pub fn from_cube(cube: Cube) -> Dnf {
        Dnf {
            cubes: vec![cube],
            exact: true,
        }
    }

    /// Converts an arbitrary (negation-free) term of `pool` into DNF.
    pub fn from_term(pool: &TermPool, t: TermId) -> Dnf {
        let mut dnf = match pool.term(t) {
            Term::True => Dnf::top(),
            Term::False => Dnf::bottom(),
            Term::Atom(c) => {
                let mut cube = Cube::tautology();
                let ok = cube.add(NormalizedConstraint::Constraint(c.clone()));
                debug_assert!(ok);
                Dnf::from_cube(cube)
            }
            Term::Or(children) => {
                let mut out = Dnf::bottom();
                for &c in children.iter() {
                    out = out.or(Dnf::from_term(pool, c));
                }
                out
            }
            Term::And(children) => {
                let mut out = Dnf::top();
                for &c in children.iter() {
                    out = out.and(&Dnf::from_term(pool, c));
                }
                out
            }
        };
        dnf.compress();
        dnf
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// `true` if no over-approximation has occurred.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// `true` if the DNF is syntactically `false`.
    pub fn is_bottom(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Disjunction.
    pub fn or(mut self, other: Dnf) -> Dnf {
        self.cubes.extend(other.cubes);
        self.exact &= other.exact;
        self.subsume();
        self
    }

    /// Conjunction (cross product of cubes, dropping inconsistent ones).
    pub fn and(&self, other: &Dnf) -> Dnf {
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                if let Some(m) = a.meet(b) {
                    cubes.push(m);
                }
            }
        }
        let mut out = Dnf {
            cubes,
            exact: self.exact && other.exact,
        };
        out.subsume();
        out.compress();
        out
    }

    /// Eliminates `∃x` cube-wise.
    pub fn eliminate(&self, x: VarId) -> Dnf {
        let mut cubes = Vec::new();
        let mut exact = self.exact;
        for c in &self.cubes {
            let (projected, e) = c.eliminate(x);
            exact &= e;
            if let Some(p) = projected {
                cubes.push(p);
            }
        }
        let mut out = Dnf { cubes, exact };
        out.subsume();
        out
    }

    /// Removes rationally inconsistent cubes (exact).
    ///
    /// A single incremental simplex is shared across all cubes: each cube
    /// is asserted inside a mark/undo bracket, so slack rows for atoms
    /// that recur across cubes (the common case after a cross-product
    /// `and`) are created once and only their bounds churn. Overflow
    /// (`Unknown`) keeps the cube — pruning is only ever an optimization.
    pub fn prune_inconsistent(&mut self) {
        let gov = ResourceGovernor::unlimited();
        let mut simplex = IncrementalSimplex::new();
        self.cubes.retain(|cube| {
            let mark = simplex.mark();
            let mut verdict = None;
            for (i, c) in cube.constraints().iter().enumerate() {
                match simplex.assert_constraint(c, i as u32) {
                    TheoryResult::Conflict(_) => {
                        verdict = Some(false);
                        break;
                    }
                    TheoryResult::Unknown => {
                        verdict = Some(true);
                        break;
                    }
                    TheoryResult::Ok => {}
                }
            }
            let keep = verdict
                .unwrap_or_else(|| !matches!(simplex.check(&gov), TheoryResult::Conflict(_)));
            simplex.undo_to(mark);
            keep
        });
    }

    /// Drops cubes syntactically implied by another cube (exact).
    fn subsume(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::new();
        for c in cubes {
            if kept.iter().any(|k| c.syntactically_implies(k) && &c != k) || kept.contains(&c) {
                continue;
            }
            kept.retain(|k| !(k.syntactically_implies(&c) && *k != c));
            kept.push(c);
        }
        self.cubes = kept;
    }

    /// If more than [`MAX_CUBES`] cubes accumulated, over-approximates by
    /// merging the surplus into the common constraints of all cubes.
    fn compress(&mut self) {
        if self.cubes.len() <= MAX_CUBES {
            return;
        }
        // Over-approximate: intersect the constraint sets of all cubes.
        let first = self.cubes[0].clone();
        let common: Vec<LinearConstraint> = first
            .constraints()
            .iter()
            .filter(|c| {
                self.cubes[1..]
                    .iter()
                    .all(|cube| cube.constraints().contains(c))
            })
            .cloned()
            .collect();
        let merged =
            Cube::from_constraints(common.into_iter().map(NormalizedConstraint::Constraint))
                .expect("constraints from existing cubes are not trivially false");
        self.cubes = vec![merged];
        self.exact = false;
    }

    /// Renders the DNF as a term.
    pub fn to_term(&self, pool: &mut TermPool) -> TermId {
        let disjuncts: Vec<TermId> = self.cubes.iter().map(|c| c.to_term(pool)).collect();
        pool.or(disjuncts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::equivalent;

    fn pool_xy() -> (TermPool, VarId, VarId) {
        let mut p = TermPool::new();
        let x = p.var("x");
        let y = p.var("y");
        (p, x, y)
    }

    #[test]
    fn dnf_round_trip_preserves_semantics() {
        let (mut p, x, y) = pool_xy();
        let a = p.le_const(x, 3);
        let b = p.ge_const(y, 1);
        let c = p.eq_const(x, 7);
        let ab = p.and([a, b]);
        let f = p.or([ab, c]);
        let dnf = Dnf::from_term(&p, f);
        assert!(dnf.is_exact());
        assert_eq!(dnf.cubes().len(), 2);
        let back = dnf.to_term(&mut p);
        assert!(equivalent(&mut p, f, back));
    }

    #[test]
    fn elimination_by_substitution_is_exact() {
        let (mut p, x, y) = pool_xy();
        // x = y + 1 ∧ x ≥ 3  →  ∃x ...  ⇔ y ≥ 2.
        let lhs = LinExpr::var(x);
        let rhs = LinExpr::var(y).add(&LinExpr::constant(1));
        let eq = p.eq(&lhs, &rhs);
        let ge = p.ge_const(x, 3);
        let f = p.and([eq, ge]);
        let dnf = Dnf::from_term(&p, f).eliminate(x);
        assert!(dnf.is_exact());
        let t = dnf.to_term(&mut p);
        let expected = p.ge_const(y, 2);
        assert!(equivalent(&mut p, t, expected));
    }

    #[test]
    fn fm_elimination_with_unit_coeffs_is_exact() {
        let (mut p, x, y) = pool_xy();
        // y ≤ x ∧ x ≤ 5  →  ∃x ⇔ y ≤ 5.
        let a = p.le(&LinExpr::var(y), &LinExpr::var(x));
        let b = p.le_const(x, 5);
        let f = p.and([a, b]);
        let dnf = Dnf::from_term(&p, f).eliminate(x);
        assert!(dnf.is_exact());
        let t = dnf.to_term(&mut p);
        let expected = p.le_const(y, 5);
        assert!(equivalent(&mut p, t, expected));
    }

    #[test]
    fn fm_elimination_with_big_coeffs_is_flagged() {
        let (mut p, x, y) = pool_xy();
        // 2x ≥ y ∧ 2x ≤ y: ∃x over ℤ requires y even; FM yields y ≤ y (true),
        // an over-approximation, which must be flagged inexact.
        let a = p.le(&LinExpr::var(y), &LinExpr::var(x).scale(2));
        let b = p.le(&LinExpr::var(x).scale(2), &LinExpr::var(y));
        let f = p.and([a, b]);
        let dnf = Dnf::from_term(&p, f).eliminate(x);
        assert!(!dnf.is_exact());
    }

    #[test]
    fn one_sided_elimination_is_exact() {
        let (p, x, y) = {
            let (p, x, y) = pool_xy();
            (p, x, y)
        };
        let mut p = p;
        // x ≥ y (no upper bound on x): ∃x ⇔ true.
        let a = p.ge(&LinExpr::var(x), &LinExpr::var(y));
        let dnf = Dnf::from_term(&p, a).eliminate(x);
        assert!(dnf.is_exact());
        let t = dnf.to_term(&mut p);
        assert_eq!(t, TermPool::TRUE);
    }

    #[test]
    fn inconsistent_cube_pruning() {
        let (mut p, x, _) = pool_xy();
        let a = p.ge_const(x, 5);
        let b = p.le_const(x, 1);
        let c = p.eq_const(x, 0);
        let bad = p.and([a, b]);
        let f = p.or([bad, c]);
        let mut dnf = Dnf::from_term(&p, f);
        assert_eq!(dnf.cubes().len(), 2);
        dnf.prune_inconsistent();
        assert_eq!(dnf.cubes().len(), 1);
    }

    #[test]
    fn subsumption_drops_stronger_cube() {
        let (mut p, x, _) = pool_xy();
        let a = p.ge_const(x, 0);
        let b = p.le_const(x, 5);
        let weak = a;
        let strong = p.and([a, b]);
        let f = p.or([weak, strong]);
        // The Or constructor doesn't subsume; DNF does.
        let dnf = Dnf::from_term(&p, f);
        assert_eq!(dnf.cubes().len(), 1);
        assert!(dnf.cubes()[0].constraints().len() <= 1);
    }

    #[test]
    fn meet_detects_contradiction_via_normalization() {
        let (mut p, x, _) = pool_xy();
        let a = p.eq_const(x, 1);
        let b = p.eq_const(x, 2);
        let da = Dnf::from_term(&p, a);
        let db = Dnf::from_term(&p, b);
        let mut both = da.and(&db);
        // The contradictory cube survives syntactically but dies rationally.
        both.prune_inconsistent();
        assert!(both.is_bottom());
    }

    #[test]
    fn eliminate_unmentioned_var_is_identity() {
        let (mut p, x, y) = pool_xy();
        let a = p.ge_const(x, 1);
        let dnf = Dnf::from_term(&p, a);
        let e = dnf.eliminate(y);
        assert_eq!(dnf, e);
        let t = e.to_term(&mut p);
        assert!(equivalent(&mut p, t, a));
    }
}
