//! Differential solver fuzzing: the CDCL engine against the legacy DPLL
//! search on random bounded LIA formulas.
//!
//! Every generated case runs through both engines on the same pool
//! (memoization disabled, so neither engine can see the other's work):
//!
//! * the engines must agree `Sat`/`Unsat` (`Unknown` is conservative and
//!   exempt — neither engine reports a definitive verdict it can't back);
//! * every `Sat` model is re-validated by exact integer evaluation of
//!   the queried formula;
//! * every `Unsat` verdict's core (computed under the CDCL engine, which
//!   exercises the antecedent-origin certificate path and the warm
//!   push/pop probes) is cross-checked unsatisfiable by the *legacy*
//!   engine, and is the very core the legacy engine's deletion loop
//!   computes — trace slicing must not depend on the engine.
//!
//! The proptest battery is a fixed-seed 512-case regression; the
//! `randomized_pass` test adds a bounded-time pass whose seed comes from
//! `SEQVER_FUZZ_SEED` (CI sets a per-run value so coverage accumulates
//! across runs without making any single run flaky).

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use seqver::smt::linear::{LinExpr, VarId};
use seqver::smt::solver::{check, SatResult, SolverKind};
use seqver::smt::term::{TermId, TermPool};
use seqver::smt::unsat_core::unsat_core;
use seqver::smt::Rel;
use std::time::{Duration, Instant};

/// Number of variables used by generated formulas.
const NUM_VARS: usize = 3;
/// All variables are boxed to `-BOX..=BOX` so brute force stays cheap.
const BOX: i128 = 4;

#[derive(Clone, Debug)]
enum F {
    Le(Vec<i128>, i128),
    Eq(Vec<i128>, i128),
    And(Box<F>, Box<F>),
    Or(Box<F>, Box<F>),
    Not(Box<F>),
}

fn coeffs() -> impl Strategy<Value = Vec<i128>> {
    proptest::collection::vec(-3i128..=3, NUM_VARS)
}

fn formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        (coeffs(), -6i128..=6).prop_map(|(c, k)| F::Le(c, k)),
        (coeffs(), -6i128..=6).prop_map(|(c, k)| F::Eq(c, k)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| F::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| F::Not(Box::new(a))),
        ]
    })
}

fn lower(pool: &mut TermPool, vars: &[VarId], f: &F) -> TermId {
    match f {
        F::Le(cs, k) => {
            let e = LinExpr::from_terms(cs.iter().enumerate().map(|(i, &c)| (vars[i], c)), -*k);
            pool.atom(e, Rel::Le0)
        }
        F::Eq(cs, k) => {
            let e = LinExpr::from_terms(cs.iter().enumerate().map(|(i, &c)| (vars[i], c)), -*k);
            pool.atom(e, Rel::Eq0)
        }
        F::And(a, b) => {
            let (ta, tb) = (lower(pool, vars, a), lower(pool, vars, b));
            pool.and([ta, tb])
        }
        F::Or(a, b) => {
            let (ta, tb) = (lower(pool, vars, a), lower(pool, vars, b));
            pool.or([ta, tb])
        }
        F::Not(a) => {
            let t = lower(pool, vars, a);
            pool.not(t)
        }
    }
}

/// Checks `assertions` with the engine `kind`.
fn check_with(pool: &mut TermPool, assertions: &[TermId], kind: SolverKind) -> SatResult {
    pool.set_solver_kind(kind);
    check(pool, assertions)
}

/// Runs one generated formula through both engines and checks the
/// differential contract.
fn check_one(f: &F) {
    let mut pool = TermPool::new();
    // Disable memoization: each engine must earn its own verdict.
    pool.set_memoization(false);
    let vars: Vec<VarId> = (0..NUM_VARS).map(|i| pool.var(&format!("v{i}"))).collect();
    let t = lower(&mut pool, &vars, f);
    // The query is a *battery* of assertions (formula + box bounds), so
    // unsat cores have room to differ from the full assertion list.
    let mut assertions = vec![t];
    for &v in &vars {
        assertions.push(pool.ge_const(v, -BOX));
        assertions.push(pool.le_const(v, BOX));
    }
    let conj = pool.and(assertions.clone());

    let dpll = check_with(&mut pool, &assertions, SolverKind::Dpll);
    let cdcl = check_with(&mut pool, &assertions, SolverKind::Cdcl);

    match (&dpll, &cdcl) {
        (SatResult::Sat(md), SatResult::Sat(mc)) => {
            assert!(
                pool.eval(conj, &|v| md.value(v)),
                "dpll model fails evaluation on {f:?}"
            );
            assert!(
                pool.eval(conj, &|v| mc.value(v)),
                "cdcl model fails evaluation on {f:?}"
            );
        }
        (SatResult::Unsat, SatResult::Unsat) => {
            pool.set_solver_kind(SolverKind::Cdcl);
            let core = unsat_core(&mut pool, &assertions)
                .expect("unsat input must yield a core under cdcl");
            pool.set_solver_kind(SolverKind::Dpll);
            let dpll_core = unsat_core(&mut pool, &assertions)
                .expect("unsat input must yield a core under dpll");
            assert_eq!(
                core, dpll_core,
                "cdcl and dpll deletion loops chose different cores on {f:?}"
            );
            assert!(!core.is_empty(), "empty core for unsat input {f:?}");
            let core_terms: Vec<TermId> = core.iter().map(|&i| assertions[i]).collect();
            assert!(
                matches!(
                    check_with(&mut pool, &core_terms, SolverKind::Dpll),
                    SatResult::Unsat
                ),
                "cdcl core {core:?} not unsat under legacy dpll on {f:?}"
            );
        }
        (SatResult::Unknown, _) | (_, SatResult::Unknown) => {
            // Conservative verdicts are allowed on either side.
        }
        (a, b) => panic!("engines disagree on {f:?}: dpll={a:?} cdcl={b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Fixed-seed 512-case differential battery.
    #[test]
    fn engines_agree_on_random_formulas(f in formula()) {
        check_one(&f);
    }
}

/// Bounded-time randomized pass. `SEQVER_FUZZ_SEED` selects the stream
/// (defaulting to a fixed one), so CI can rotate coverage per run while
/// any failure stays reproducible from the seed it prints.
#[test]
fn randomized_pass() {
    let seed: u64 = std::env::var("SEQVER_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xf00d);
    let deadline = Instant::now() + Duration::from_secs(15);
    let strat = formula();
    let mut rng = TestRng::deterministic(seed);
    let mut cases = 0u32;
    while cases < 512 && Instant::now() < deadline {
        let f = strat.generate(&mut rng);
        check_one(&f);
        cases += 1;
    }
    println!("randomized_pass: seed={seed} cases={cases}");
    assert!(cases > 0);
}
