//! Proof-obligation validity: the SMT artifacts the refinement loop is
//! built on are checked directly against the solver.
//!
//! 1. **Unsat cores** (deletion-based, [`seqver::smt::unsat_core`]) are
//!    actually unsat and *locally minimal*: dropping any single member
//!    makes the remainder satisfiable.
//! 2. **Sequence interpolants** returned by trace analysis are
//!    *inductive*: every consecutive Hoare triple `{I_k} stmt_k {I_{k+1}}`
//!    validates through the proof automaton's own Hoare-check entry point,
//!    the first interpolant is implied by the initial condition, and the
//!    last one refutes the error.

use seqver::bench_suite;
use seqver::gemcutter::check::{check_proof, CheckConfig, CheckResult, CheckStats, UselessCache};
use seqver::gemcutter::interpolate::{
    analyze_trace_with_mode, InterpolationMode, InterpolationStats, TraceResult,
};
use seqver::gemcutter::proof::ProofAutomaton;
use seqver::gemcutter::verify::VerifierConfig;
use seqver::program::commutativity::CommutativityOracle;
use seqver::program::concurrent::{Program, Spec};
use seqver::reduction::persistent::PersistentSets;
use seqver::smt::unsat_core::unsat_core;
use seqver::smt::{check, entails, LinExpr, TermId, TermPool};

// ---------------------------------------------------------------------------
// 1. Deletion-based unsat cores: unsat + locally minimal
// ---------------------------------------------------------------------------

/// A battery of unsat LIA assertion sets, each with redundant members so
/// the core is a strict subset.
fn lia_battery(pool: &mut TermPool) -> Vec<(&'static str, Vec<TermId>)> {
    let x = pool.var("x");
    let y = pool.var("y");
    let z = pool.var("z");
    let mut battery = Vec::new();

    // Interval conflict with two irrelevant side constraints.
    battery.push((
        "interval-conflict",
        vec![
            pool.le_const(x, 2),
            pool.ge_const(x, 4),
            pool.ge_const(y, 0),
            pool.le_const(z, 100),
        ],
    ));

    // Chain x <= y <= z <= x - 1 (cyclic strict drop), plus noise.
    let le_xy = pool.le(&LinExpr::var(x), &LinExpr::var(y));
    let le_yz = pool.le(&LinExpr::var(y), &LinExpr::var(z));
    let lt_zx = pool.le(
        &LinExpr::var(z),
        &LinExpr::var(x).sub(&LinExpr::constant(1)),
    );
    let noise = pool.ge_const(y, -50);
    battery.push(("cyclic-chain", vec![le_xy, le_yz, lt_zx, noise]));

    // Scaled conflict: 3x = y with x ≤ 2 forces y ≤ 6, contradicting
    // y ≥ 7; `x ≥ 1` is redundant.
    let triple = pool.eq(&LinExpr::var(x).scale(3), &LinExpr::var(y));
    let ub = pool.le_const(x, 2);
    let lb = pool.ge_const(y, 7);
    let redundant = pool.ge_const(x, 1);
    battery.push(("scaled-conflict", vec![redundant, triple, ub, lb]));

    // Sum conflict: x + y <= 1, x >= 1, y >= 1, and a redundant copy of a
    // weaker bound.
    let sum = pool.le(
        &LinExpr::var(x).add(&LinExpr::var(y)),
        &LinExpr::constant(1),
    );
    let gx = pool.ge_const(x, 1);
    let gy = pool.ge_const(y, 1);
    let weak = pool.ge_const(x, 0);
    battery.push(("sum-conflict", vec![sum, gx, gy, weak]));

    // Equalities: x = y, y = z, z = x + 3.
    let exy = pool.eq(&LinExpr::var(x), &LinExpr::var(y));
    let eyz = pool.eq(&LinExpr::var(y), &LinExpr::var(z));
    let ezx = pool.eq(
        &LinExpr::var(z),
        &LinExpr::var(x).add(&LinExpr::constant(3)),
    );
    let extra = pool.le_const(y, 7);
    battery.push(("equality-chain", vec![exy, eyz, ezx, extra]));
    battery
}

#[test]
fn unsat_cores_are_unsat_and_locally_minimal() {
    let mut pool = TermPool::new();
    for (name, assertions) in lia_battery(&mut pool) {
        assert!(
            check(&mut pool, &assertions).is_unsat(),
            "{name}: battery instance must be unsat"
        );
        let core = unsat_core(&mut pool, &assertions)
            .unwrap_or_else(|| panic!("{name}: no core on an unsat instance"));
        assert!(!core.is_empty(), "{name}: empty core");
        let core_terms: Vec<TermId> = core.iter().map(|&i| assertions[i]).collect();
        assert!(
            check(&mut pool, &core_terms).is_unsat(),
            "{name}: core is not unsat"
        );
        // Local minimality: dropping any single member flips to Sat.
        for drop in 0..core_terms.len() {
            let without: Vec<TermId> = core_terms
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &t)| t)
                .collect();
            assert!(
                check(&mut pool, &without).is_sat(),
                "{name}: core not locally minimal — member {drop} is redundant"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Sequence interpolants are inductive Hoare chains
// ---------------------------------------------------------------------------

/// Runs refinement on `program`, validating the interpolant chain of every
/// refuted counterexample as an inductive Hoare chain. Returns how many
/// chains were validated.
fn validate_chains(pool: &mut TermPool, program: &Program, mode: InterpolationMode) -> usize {
    let config = VerifierConfig::gemcutter_seq();
    let spec = match program.asserting_threads().first() {
        Some(&t) => Spec::ErrorOf(t),
        None => Spec::PrePost,
    };
    let order = config.order.build();
    let mut oracle = CommutativityOracle::new(config.commutativity);
    let persistent = PersistentSets::new(pool, program, &mut oracle);
    let mut proof = ProofAutomaton::new();
    let mut useless = UselessCache::new();
    let check_config = CheckConfig {
        use_sleep: config.use_sleep,
        use_persistent: true,
        proof_sensitive: config.proof_sensitive,
        max_visited: 100_000,
        ..CheckConfig::default()
    };
    let mut istats = InterpolationStats::default();
    let mut validated = 0;
    for _round in 0..15 {
        let mut cstats = CheckStats::default();
        let result = check_proof(
            pool,
            program,
            spec,
            order.as_ref(),
            &mut oracle,
            Some(&persistent),
            &mut proof,
            &mut useless,
            &check_config,
            &mut cstats,
        );
        let CheckResult::Counterexample(trace) = result else {
            break;
        };
        let TraceResult::Infeasible { chain } =
            analyze_trace_with_mode(pool, program, &trace, spec, mode, &mut istats)
        else {
            break; // feasible (bug benchmark) or unknown: nothing to validate
        };
        assert_eq!(
            chain.len(),
            trace.len() + 1,
            "chain must have one interpolant per trace position"
        );
        // The chain starts from the initial condition...
        let init = pool.and([program.init_formula(), program.pre()]);
        assert!(
            entails(pool, init, chain[0]),
            "first interpolant not implied by the initial condition"
        );
        // ...ends in a refutation of the error...
        assert_eq!(
            *chain.last().expect("nonempty"),
            TermPool::FALSE,
            "error-trace chain must end in false"
        );
        // ...and every consecutive triple is a valid Hoare triple.
        for (k, &l) in trace.iter().enumerate() {
            assert!(
                proof.hoare_triple_valid(pool, program, chain[k], l, chain[k + 1]),
                "non-inductive step {k}: {{{}}} {} {{{}}}",
                pool.display(chain[k]),
                program.statement(l).label(),
                pool.display(chain[k + 1]),
            );
        }
        validated += 1;
        for a in chain {
            proof.add_assertion(a);
        }
    }
    validated
}

#[test]
fn sequence_interpolants_are_inductive() {
    // A slice of the corpus that stays fast but needs several rounds.
    let names = [
        "bluetooth-1",
        "counter-safe-1",
        "dekker",
        "peterson",
        "count-up-down-1",
    ];
    for mode in [InterpolationMode::SpChain] {
        let mut total = 0;
        for b in bench_suite::all()
            .into_iter()
            .filter(|b| names.contains(&b.name.as_str()))
        {
            let mut pool = TermPool::new();
            let p = b.compile(&mut pool);
            total += validate_chains(&mut pool, &p, mode);
        }
        assert!(
            total >= 3,
            "{mode:?}: expected at least 3 validated interpolant chains, got {total}"
        );
    }
}
