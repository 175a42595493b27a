//! Unit-level tests of the configuration surface and the two portfolio
//! models on a compact program family.

use automata::bitset::BitSet;
use automata::dfa::DfaBuilder;
use gemcutter::drive::{drive, EngineStatus, Run, Schedule};
use gemcutter::portfolio::{default_portfolio, portfolio_verify};
use gemcutter::verify::{verify, OrderSpec, Verdict, VerifierConfig};
use program::concurrent::Program;
use program::stmt::{SimpleStmt, Statement};
use program::thread::{Thread, ThreadId};
use smt::linear::LinExpr;
use smt::term::TermPool;

/// Two threads increment a shared counter; a checker asserts the total.
fn two_inc(pool: &mut TermPool, bound: i128) -> Program {
    let mut b = Program::builder("two-inc");
    let c = pool.var("c");
    let done = pool.var("done");
    b.add_global(c, 0);
    b.add_global(done, 0);
    for t in 0..2u32 {
        let l = b.add_statement(Statement::atomic(
            ThreadId(t),
            "inc",
            vec![vec![
                SimpleStmt::Assign(c, LinExpr::var(c).add(&LinExpr::constant(1))),
                SimpleStmt::Assign(done, LinExpr::var(done).add(&LinExpr::constant(1))),
            ]],
            pool,
        ));
        let mut cfg = DfaBuilder::new();
        let entry = cfg.add_state(false);
        let exit = cfg.add_state(true);
        cfg.add_transition(entry, l, exit);
        b.add_thread(Thread::new("inc", cfg.build(entry), BitSet::new(2)));
    }
    let all_done = pool.ge_const(done, 2);
    let ok_guard = pool.le_const(c, bound);
    let bad_guard = pool.not(ok_guard);
    let wait = b.add_statement(Statement::simple(
        ThreadId(2),
        "await",
        SimpleStmt::Assume(all_done),
        pool,
    ));
    let ok = b.add_statement(Statement::simple(
        ThreadId(2),
        "ok",
        SimpleStmt::Assume(ok_guard),
        pool,
    ));
    let bad = b.add_statement(Statement::simple(
        ThreadId(2),
        "bad",
        SimpleStmt::Assume(bad_guard),
        pool,
    ));
    let mut cfg = DfaBuilder::new();
    let q0 = cfg.add_state(false);
    let q1 = cfg.add_state(false);
    let exit = cfg.add_state(true);
    let err = cfg.add_state(false);
    cfg.add_transition(q0, wait, q1);
    cfg.add_transition(q1, ok, exit);
    cfg.add_transition(q1, bad, err);
    let mut errors = BitSet::new(4);
    errors.insert(err.index());
    b.add_thread(Thread::new("checker", cfg.build(q0), errors));
    b.build(pool)
}

#[test]
fn order_spec_names_and_builders() {
    assert_eq!(OrderSpec::Seq.name(), "seq");
    assert_eq!(OrderSpec::Lockstep.name(), "lockstep");
    assert_eq!(OrderSpec::Random(7).name(), "rand(7)");
    assert_eq!(OrderSpec::Priority(vec![1, 0]).name(), "priority(1,0)");
    for spec in [
        OrderSpec::Seq,
        OrderSpec::Lockstep,
        OrderSpec::Random(7),
        OrderSpec::Priority(vec![1, 0]),
    ] {
        let order = spec.build();
        assert!(!order.name().is_empty());
    }
}

#[test]
fn config_constructors_have_expected_flags() {
    let gem = VerifierConfig::gemcutter_seq();
    assert!(gem.use_sleep && gem.use_persistent && gem.proof_sensitive);
    let auto = VerifierConfig::automizer();
    assert!(!auto.use_sleep && !auto.use_persistent && !auto.proof_sensitive);
    let sleep = VerifierConfig::sleep_only();
    assert!(sleep.use_sleep && !sleep.use_persistent);
    let pers = VerifierConfig::persistent_only();
    assert!(!pers.use_sleep && pers.use_persistent && !pers.proof_sensitive);
    let nops = VerifierConfig::gemcutter_seq().without_proof_sensitivity();
    assert!(!nops.proof_sensitive);
    assert!(nops.name.ends_with("-nops"));
}

#[test]
fn priority_order_verifies_too() {
    let mut pool = TermPool::new();
    let p = two_inc(&mut pool, 2);
    let config = VerifierConfig {
        name: "gemcutter-prio".to_owned(),
        order: OrderSpec::Priority(vec![2, 0, 1]),
        ..VerifierConfig::gemcutter_seq()
    };
    let outcome = verify(&mut pool, &p, &config);
    assert!(outcome.verdict.is_correct(), "{:?}", outcome.verdict);
}

#[test]
fn racing_and_adaptive_portfolios_agree() {
    for bound in [2i128, 1] {
        let mut pool = TermPool::new();
        let p = two_inc(&mut pool, bound);
        let race = portfolio_verify(&mut pool, &p, &default_portfolio(), true);
        let mut pool2 = TermPool::new();
        let p2 = two_inc(&mut pool2, bound);
        let shared = drive(
            &mut pool2,
            &p2,
            &Run::new(Schedule::TakeTurns, default_portfolio()),
        );
        let (adaptive, winner) = (shared.outcome, shared.winner);
        assert_eq!(
            race.outcome.verdict.is_correct(),
            adaptive.verdict.is_correct(),
            "bound {bound}"
        );
        if bound == 2 {
            assert!(adaptive.verdict.is_correct());
            assert!(winner.is_some());
        } else {
            assert!(matches!(adaptive.verdict, Verdict::Incorrect { .. }));
        }
    }
}

#[test]
fn adaptive_respects_round_budget() {
    let mut pool = TermPool::new();
    let p = two_inc(&mut pool, 2);
    // One shared round in total: the first member's budget is one round,
    // every other member's is zero.
    let mut members = default_portfolio();
    for (i, member) in members.iter_mut().enumerate() {
        member.max_rounds = usize::from(i == 0);
    }
    let shared = drive(&mut pool, &p, &Run::new(Schedule::TakeTurns, members));
    let (outcome, winner) = (shared.outcome, shared.winner);
    // One shared round cannot finish this program.
    assert!(matches!(outcome.verdict, Verdict::GaveUp(_)));
    assert!(winner.is_none());
    assert_eq!(outcome.stats.rounds, 1);
}

#[test]
fn parallel_portfolio_agrees_with_sequential() {
    for deterministic in [false, true] {
        for bound in [2i128, 1] {
            let mut pool = TermPool::new();
            let p = two_inc(&mut pool, bound);
            let schedule = if deterministic {
                Schedule::Lockstep
            } else {
                Schedule::Race
            };
            let result = drive(&mut pool, &p, &Run::new(schedule, default_portfolio()));
            if bound == 2 {
                assert!(
                    result.outcome.verdict.is_correct(),
                    "det={deterministic}: {:?}",
                    result.outcome.verdict
                );
            } else {
                assert!(
                    matches!(result.outcome.verdict, Verdict::Incorrect { .. }),
                    "det={deterministic}: {:?}",
                    result.outcome.verdict
                );
            }
            assert!(result.winner.is_some(), "conclusive run names a winner");
            assert_eq!(result.engines.len(), default_portfolio().len());
            let wins = result
                .engines
                .iter()
                .filter(|r| r.status == EngineStatus::Won)
                .count();
            assert_eq!(wins, 1, "exactly one winner per spec phase");
            assert!(result.outcome.stats.rounds > 0);
        }
    }
}

#[test]
fn parallel_zero_wall_clock_budget_degrades_gracefully() {
    let mut pool = TermPool::new();
    let p = two_inc(&mut pool, 2);
    let mut members = default_portfolio();
    for member in &mut members {
        member.govern.deadline = Some(std::time::Duration::ZERO);
    }
    let result = drive(&mut pool, &p, &Run::new(Schedule::Race, members));
    // Every engine runs out of budget before its first round; the run
    // still terminates cleanly with a give-up instead of hanging/panicking.
    assert!(matches!(result.outcome.verdict, Verdict::GaveUp(_)));
    assert!(result.winner.is_none());
    for report in &result.engines {
        assert!(
            matches!(report.status, EngineStatus::GaveUp(_) | EngineStatus::Lost),
            "{:?}",
            report.status
        );
    }
}

#[test]
fn parallel_round_budget_degrades_gracefully() {
    let mut pool = TermPool::new();
    let p = two_inc(&mut pool, 2);
    let mut members = default_portfolio();
    for member in &mut members {
        member.max_rounds = 1;
    }
    let result = drive(&mut pool, &p, &Run::new(Schedule::Lockstep, members));
    match &result.outcome.verdict {
        Verdict::GaveUp(g) => assert_eq!(g.category, gemcutter::Category::Rounds, "{g}"),
        other => panic!("expected round-budget give-up, got {other:?}"),
    }
    for report in &result.engines {
        assert!(report.rounds <= 1, "round budget respected: {report:?}");
    }
}

#[test]
fn parallel_deterministic_runs_are_reproducible() {
    let reference: Vec<_> = (0..3)
        .map(|_| {
            let mut pool = TermPool::new();
            let p = two_inc(&mut pool, 2);
            let r = drive(
                &mut pool,
                &p,
                &Run::new(Schedule::Lockstep, default_portfolio()),
            );
            (r.outcome.verdict.is_correct(), r.winner, r.engines)
        })
        .collect();
    assert_eq!(reference[0], reference[1]);
    assert_eq!(reference[0], reference[2]);
    assert!(reference[0].0, "two_inc(2) is safe");
}

#[test]
fn run_stats_time_per_round() {
    let mut pool = TermPool::new();
    let p = two_inc(&mut pool, 2);
    let outcome = verify(&mut pool, &p, &VerifierConfig::gemcutter_seq());
    assert!(outcome.stats.rounds > 0);
    assert!(outcome.stats.time_per_round() <= outcome.stats.time);
}
