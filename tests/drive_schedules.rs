//! Every shape of `drive` run honours its members' configuration: the
//! solver kind, the memoization switch and the governor (step budgets and
//! fault plans, including `Rounds` charged once per round). Each check
//! runs a single-member run with a retry ladder and a two-member run.

use std::path::Path;

use seqver::gemcutter::drive::{drive, Driven, RetryPolicy, Run};
use seqver::gemcutter::govern::{Category, FaultPlan};
use seqver::gemcutter::verify::{verify, OrderSpec, VerifierConfig};
use seqver::program::concurrent::Program;
use seqver::smt::{SolverKind, TermPool};

fn counter() -> (TermPool, Program) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/cpl/counter.cpl");
    let source = std::fs::read_to_string(path).unwrap();
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(&source, &mut pool).unwrap();
    (pool, p)
}

/// The two runs, each built from `config`.
fn runs(config: &VerifierConfig) -> Vec<(&'static str, Run)> {
    let second = VerifierConfig {
        name: format!("{}-lockstep", config.name),
        order: OrderSpec::Lockstep,
        ..config.clone()
    };
    // Factor 1: a retry repeats the same limits, so a budget give-up
    // stays a budget give-up.
    let retry = RetryPolicy::with_retries(1).escalating_by(1);
    vec![
        (
            "take-turns with retries",
            Run::single(config).retrying(retry),
        ),
        (
            "take-turns, two members",
            Run::new(vec![config.clone(), second]),
        ),
    ]
}

fn drive_counter(run: &Run) -> Driven {
    let (mut pool, p) = counter();
    drive(&mut pool, &p, run)
}

#[test]
fn every_schedule_runs_the_members_solver() {
    // A DPLL decision budget the plain loop runs out of…
    let mut config = VerifierConfig::gemcutter_seq().with_solver(SolverKind::Dpll);
    config.govern.dpll_decision_budget = Some(10);
    let (mut pool, p) = counter();
    let plain = verify(&mut pool, &p, &config);
    let category = plain.verdict.give_up().map(|g| g.category);
    assert_eq!(
        category,
        Some(Category::DpllDecisions),
        "{:?}",
        plain.verdict
    );
    for (name, run) in runs(&config) {
        let driven = drive_counter(&run);
        let category = driven.outcome.verdict.give_up().map(|g| g.category);
        assert_eq!(
            category,
            Some(Category::DpllDecisions),
            "{name}: {:?}",
            driven.outcome.verdict
        );
    }
    // …and a zero CDCL conflict budget only a CDCL run can trip.
    let mut config = VerifierConfig::gemcutter_seq().with_solver(SolverKind::Dpll);
    config.govern.cdcl_conflict_budget = Some(0);
    for (name, run) in runs(&config) {
        let driven = drive_counter(&run);
        assert!(
            driven.outcome.verdict.is_correct(),
            "{name}: {:?}",
            driven.outcome.verdict
        );
    }
}

#[test]
fn every_schedule_honours_use_qcache() {
    let (mut pool, p) = counter();
    let cached = verify(&mut pool, &p, &VerifierConfig::gemcutter_seq());
    assert!(
        cached.stats.qcache_misses > 0,
        "the memo is consulted when on"
    );
    let config = VerifierConfig::gemcutter_seq().without_qcache();
    for (name, run) in runs(&config) {
        let (mut pool, p) = counter();
        let memo = pool.query_cache().expect("pools memoize by default");
        let before = (memo.stats(), memo.len());
        let driven = drive(&mut pool, &p, &run);
        assert!(driven.outcome.verdict.is_correct(), "{name}");
        let memo = pool.query_cache().expect("the run restores memoization");
        assert_eq!(
            (memo.stats(), memo.len()),
            before,
            "{name}: the memo was consulted"
        );
        let stats = &driven.outcome.stats;
        assert_eq!(
            (stats.qcache_hits, stats.qcache_misses),
            (0, 0),
            "{name}: a memo-off run must report no memo activity"
        );
    }
}

/// A plain `verify` installs no shared cross-pool cache, and its
/// `qcache_*` counters are exactly the pool memo's.
#[test]
fn default_runs_count_the_pool_memo() {
    let (mut pool, p) = counter();
    let outcome = verify(&mut pool, &p, &VerifierConfig::gemcutter_seq());
    assert!(outcome.verdict.is_correct(), "{:?}", outcome.verdict);
    assert!(pool.shared_cache().is_none(), "no shared tier by default");
    let memo = pool
        .query_cache()
        .expect("pools memoize by default")
        .stats();
    assert!(memo.hits > 0 && memo.misses > 0, "{memo:?}");
    assert_eq!(
        (outcome.stats.qcache_hits, outcome.stats.qcache_misses),
        (memo.hits, memo.misses)
    );
}

#[test]
fn every_schedule_charges_rounds() {
    let mut config = VerifierConfig::gemcutter_seq();
    config.govern.fault_plan = FaultPlan::parse("rounds:1:unknown").unwrap();
    for (name, run) in runs(&config) {
        let driven = drive_counter(&run);
        let first = driven.attempts[0].give_up.as_ref().map(|g| g.category);
        assert_eq!(first, Some(Category::InjectedFault), "{name}");
        assert!(
            driven
                .give_up_history
                .iter()
                .any(|g| g.give_up.category == Category::InjectedFault),
            "{name}: {:?}",
            driven.give_up_history
        );
    }
}
