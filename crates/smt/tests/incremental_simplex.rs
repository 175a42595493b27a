//! Incremental-simplex regression battery.
//!
//! The CDCL engine keeps one warm [`IncrementalSimplex`] across decision
//! levels, scope pushes/pops, and whole `AssertionScope` batteries. These
//! tests pin the contract that makes that reuse sound:
//!
//! * asserting a battery after arbitrary mark/undo churn yields the same
//!   verdict as a fresh solver and as the batch rational check;
//! * a warm basis left over from a *different* battery never changes a
//!   verdict;
//! * `AssertionScope` batteries under the CDCL engine agree with
//!   one-shot legacy checks on every extra.
//!
//! Corpus-level identity (same verdicts *and* same per-benchmark round
//! counts for `--solver=cdcl` vs `--solver=dpll`) is enforced end-to-end
//! by the `table2` bench harness, which panics on any drift.

use smt::linear::{LinExpr, LinearConstraint, NormalizedConstraint, Rel, VarId};
use smt::rational::Rat;
use smt::resource::ResourceGovernor;
use smt::simplex::{check_rational, IncrementalSimplex, SimplexResult, TheoryResult};
use smt::solver::{check, AssertionScope, SatResult, SolverKind};
use smt::term::{TermId, TermPool};

const NUM_VARS: usize = 3;

struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn int(&mut self, lo: i128, hi: i128) -> i128 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i128
    }
}

fn gen_constraint(rng: &mut Rng) -> Option<LinearConstraint> {
    let k = rng.int(-6, 6);
    let coeffs: Vec<(VarId, i128)> = (0..NUM_VARS)
        .map(|i| (VarId(i as u32), rng.int(-3, 3)))
        .collect();
    let e = LinExpr::from_terms(coeffs, k);
    let rel = if rng.below(4) == 0 {
        Rel::Eq0
    } else {
        Rel::Le0
    };
    match LinearConstraint::new(e, rel) {
        NormalizedConstraint::Constraint(c) => Some(c),
        _ => None,
    }
}

fn gen_battery(rng: &mut Rng, max: usize) -> Vec<LinearConstraint> {
    let n = 1 + rng.below(max as u64) as usize;
    (0..n * 2)
        .filter_map(|_| gen_constraint(rng))
        .take(n)
        .collect()
}

/// `Some(feasible)` or `None` when the check was inconclusive (overflow
/// or governor) and the seed should be skipped.
fn assert_all(
    inc: &mut IncrementalSimplex,
    cs: &[LinearConstraint],
    governor: &ResourceGovernor,
) -> Option<bool> {
    for (i, c) in cs.iter().enumerate() {
        match inc.assert_constraint(c, i as u32) {
            TheoryResult::Conflict(_) => return Some(false),
            TheoryResult::Unknown => return None,
            TheoryResult::Ok => {}
        }
    }
    match inc.check(governor) {
        TheoryResult::Ok => Some(true),
        TheoryResult::Conflict(_) => Some(false),
        TheoryResult::Unknown => None,
    }
}

/// Exact rational evaluation of the incremental model against every
/// constraint (the model must witness its own `Ok`).
fn model_satisfies(inc: &IncrementalSimplex, cs: &[LinearConstraint]) -> bool {
    let vals = inc.values();
    let value = |v: VarId| {
        vals.iter()
            .find(|(w, _)| *w == v)
            .map(|(_, r)| *r)
            .unwrap_or(Rat::ZERO)
    };
    cs.iter().all(|c| {
        let mut acc = Rat::from_int(c.expr().constant_term());
        for &(v, k) in c.expr().terms() {
            acc = acc.add(Rat::from_int(k).mul(value(v)).unwrap()).unwrap();
        }
        match c.rel() {
            Rel::Le0 => acc <= Rat::ZERO,
            Rel::Eq0 => acc == Rat::ZERO,
        }
    })
}

/// Random nested mark/undo churn, then the real battery: the verdict must
/// match the batch rational check, and feasible models must evaluate.
/// (Promoted from the scratch differential that found the original
/// warm-basis bugs.)
#[test]
fn churned_assertions_match_batch_check() {
    let gov = ResourceGovernor::unlimited();
    for seed in 0..4000u64 {
        let mut rng = Rng(seed ^ 0xabcdef);
        let cs = gen_battery(&mut rng, 6);
        if cs.is_empty() {
            continue;
        }
        let mut inc = IncrementalSimplex::new();
        // Two nested levels of churn: assert a prefix, mark, assert
        // another prefix, undo both levels in order.
        let m0 = inc.mark();
        for (i, c) in cs
            .iter()
            .take(rng.below(cs.len() as u64 + 1) as usize)
            .enumerate()
        {
            let _ = inc.assert_constraint(c, i as u32);
        }
        let m1 = inc.mark();
        for (i, c) in cs
            .iter()
            .rev()
            .take(rng.below(cs.len() as u64 + 1) as usize)
            .enumerate()
        {
            let _ = inc.assert_constraint(c, i as u32);
        }
        let _ = inc.check(&gov);
        inc.undo_to(m1);
        let _ = inc.check(&gov);
        inc.undo_to(m0);

        let Some(inc_sat) = assert_all(&mut inc, &cs, &gov) else {
            continue;
        };
        let batch_sat = match check_rational(&cs) {
            SimplexResult::Sat(_) => true,
            SimplexResult::Unsat => false,
            SimplexResult::Unknown => continue,
        };
        assert_eq!(
            inc_sat, batch_sat,
            "seed {seed}: churned incremental vs batch on {cs:?}"
        );
        if inc_sat {
            assert!(
                model_satisfies(&inc, &cs),
                "seed {seed}: model violates a constraint in {cs:?}"
            );
        }
    }
}

/// Push/pop N levels, then re-assert the same battery: verdict identical
/// to a fresh solver on the same constraints.
#[test]
fn push_pop_reassert_matches_fresh() {
    let gov = ResourceGovernor::unlimited();
    for seed in 0..2000u64 {
        let mut rng = Rng(seed ^ 0x5caffe);
        let cs = gen_battery(&mut rng, 5);
        if cs.is_empty() {
            continue;
        }
        let mut inc = IncrementalSimplex::new();
        // N nested levels, one constraint each, then unwind them all.
        let levels: Vec<_> = (0..cs.len())
            .map(|i| {
                let m = inc.mark();
                let _ = inc.assert_constraint(&cs[i], i as u32);
                let _ = inc.check(&gov);
                m
            })
            .collect();
        for &m in levels.iter().rev() {
            inc.undo_to(m);
        }
        let warm = assert_all(&mut inc, &cs, &gov);
        let fresh = assert_all(&mut IncrementalSimplex::new(), &cs, &gov);
        if let (Some(w), Some(f)) = (warm, fresh) {
            assert_eq!(w, f, "seed {seed}: push/pop changed the verdict on {cs:?}");
        }
    }
}

/// A warm basis left by solving an unrelated battery (then retracting
/// it) never changes the verdict of the next battery.
#[test]
fn warm_basis_never_changes_verdict() {
    let gov = ResourceGovernor::unlimited();
    for seed in 0..2000u64 {
        let mut rng = Rng(seed ^ 0xfeed5);
        let warmup = gen_battery(&mut rng, 5);
        let cs = gen_battery(&mut rng, 5);
        if cs.is_empty() {
            continue;
        }
        let mut inc = IncrementalSimplex::new();
        let m = inc.mark();
        let _ = assert_all(&mut inc, &warmup, &gov);
        inc.undo_to(m);
        let warm = assert_all(&mut inc, &cs, &gov);
        let fresh = assert_all(&mut IncrementalSimplex::new(), &cs, &gov);
        if let (Some(w), Some(f)) = (warm, fresh) {
            assert_eq!(
                w, f,
                "seed {seed}: warm basis from {warmup:?} changed the verdict on {cs:?}"
            );
        }
    }
}

fn lower_atoms(pool: &mut TermPool, rng: &mut Rng, n: usize) -> Vec<TermId> {
    (0..n)
        .map(|_| {
            let k = rng.int(-6, 6);
            let coeffs: Vec<(VarId, i128)> = (0..NUM_VARS)
                .map(|i| (pool.var(&format!("v{i}")), rng.int(-3, 3)))
                .collect();
            let e = LinExpr::from_terms(coeffs, k);
            let rel = if rng.below(4) == 0 {
                Rel::Eq0
            } else {
                Rel::Le0
            };
            pool.atom(e, rel)
        })
        .collect()
}

/// `AssertionScope` batteries (the warm CDCL scope engine used by the
/// Hoare-check loop) agree with one-shot legacy checks on every extra.
/// The scope takes the same shortcuts with or without a query cache, so
/// both rows run: the cache changes only what is memoized.
#[test]
fn scope_battery_matches_oneshot_legacy() {
    for cached in [true, false] {
        for seed in 0..300u64 {
            scope_battery_row(seed, cached);
        }
    }
}

fn scope_battery_row(seed: u64, cached: bool) {
    let mut rng = Rng(seed ^ 0xba77e);
    let mut pool = TermPool::new();
    if !cached {
        pool.set_memoization(false);
    }
    pool.set_solver_kind(SolverKind::Cdcl);
    let n_prefix = 1 + rng.below(3) as usize;
    let prefix = lower_atoms(&mut pool, &mut rng, n_prefix);
    let extras = lower_atoms(&mut pool, &mut rng, 4);
    let mut scope = AssertionScope::new(&mut pool, &prefix);

    // Legacy pool, memoization off, same term stream.
    let mut legacy = TermPool::new();
    legacy.set_memoization(false);
    legacy.set_solver_kind(SolverKind::Dpll);
    let mut lrng = Rng(seed ^ 0xba77e);
    let ln_prefix = 1 + lrng.below(3) as usize;
    let lprefix = lower_atoms(&mut legacy, &mut lrng, ln_prefix);
    let lextras = lower_atoms(&mut legacy, &mut lrng, 4);

    for (i, (&e, &le)) in extras.iter().zip(lextras.iter()).enumerate() {
        let warm = scope.check(&mut pool, e);
        let mut batch: Vec<TermId> = lprefix.clone();
        batch.push(le);
        let oneshot = check(&mut legacy, &batch);
        match (&warm, &oneshot) {
            (SatResult::Sat(_), SatResult::Sat(_)) | (SatResult::Unsat, SatResult::Unsat) => {}
            (SatResult::Unknown, _) | (_, SatResult::Unknown) => {}
            other => panic!(
                "seed {seed} cached {cached} extra {i}: scope vs one-shot diverged: {other:?}"
            ),
        }
    }
}

/// The scope's shortcuts do not depend on the query cache: on a pool whose
/// cache was taken, an unsatisfiable prefix is found by the up-front
/// check, and every scoped query answers `Unsat` from it.
#[test]
fn cacheless_scope_detects_an_unsat_prefix() {
    for kind in [SolverKind::Cdcl, SolverKind::Dpll] {
        let mut pool = TermPool::new();
        pool.set_memoization(false);
        pool.set_solver_kind(kind);
        let x = pool.var("x");
        let y = pool.var("y");
        // x + y ≥ 3 ∧ x ≤ 1 ∧ y ≤ 1: unsatisfiable, but only by arithmetic.
        let sum = pool.ge(
            &LinExpr::var(x).add(&LinExpr::var(y)),
            &LinExpr::constant(3),
        );
        let x_le = pool.le_const(x, 1);
        let y_le = pool.le_const(y, 1);
        let mut scope = AssertionScope::new(&mut pool, &[sum, x_le, y_le]);
        assert!(scope.prefix_unsat(), "{kind}: prefix not found unsat");
        let extra = pool.ge_const(x, 0);
        assert_eq!(scope.check(&mut pool, extra), SatResult::Unsat, "{kind}");
    }
}
