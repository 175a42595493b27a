//! Restart-supervisor battery: escalation converts budget give-ups into
//! conclusive verdicts, recycled proofs shrink the final attempt, the
//! give-up history stays deduplicated across attempts, and seeding can
//! never flip a buggy program to `Correct` (recycled assertions are
//! *candidates* — every proof transition is re-validated by Hoare
//! queries, so a bad seed costs completeness, never soundness).

use seqver::gemcutter::drive::{drive, RetryPolicy, Run};
use seqver::gemcutter::govern::GovernorConfig;
use seqver::gemcutter::verify::{verify, Verdict, VerifierConfig};
use seqver::smt::TermPool;

/// Two four-iteration workers plus a checker — the `chain-medium`
/// example: gives up under a 400-state DFS budget, converges one or two
/// escalation rungs later.
const CHAIN_MEDIUM: &str = r#"
    var c: int = 0;
    var done: int = 0;
    thread inc {
        local i: int = 0;
        while (i < 4) {
            c := c + 1;
            i := i + 1;
        }
        done := done + 1;
    }
    thread checker {
        assume done >= 2;
        assert c <= 8;
    }
    spawn inc * 2;
    spawn checker;
"#;

/// The buggy sibling: the bound is one increment too tight.
const CHAIN_MEDIUM_BUGGY: &str = r#"
    var c: int = 0;
    var done: int = 0;
    thread inc {
        local i: int = 0;
        while (i < 4) {
            c := c + 1;
            i := i + 1;
        }
        done := done + 1;
    }
    thread checker {
        assume done >= 2;
        assert c <= 7;
    }
    spawn inc * 2;
    spawn checker;
"#;

fn tight_config(dfs_budget: u64) -> VerifierConfig {
    VerifierConfig {
        govern: GovernorConfig {
            dfs_state_budget: Some(dfs_budget),
            ..GovernorConfig::default()
        },
        ..VerifierConfig::gemcutter_seq()
    }
}

#[test]
fn escalation_converts_budget_give_up_to_conclusive() {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(CHAIN_MEDIUM, &mut pool).unwrap();
    let config = tight_config(400);

    // Without supervision the tight budget is fatal.
    let plain = verify(&mut pool, &p, &config);
    assert!(
        plain.verdict.give_up().is_some(),
        "budget should be fatal unsupervised, got {:?}",
        plain.verdict
    );

    // With the ladder the same budget converges.
    let policy = RetryPolicy::with_retries(3).escalating_by(4);
    let sup = drive(&mut pool, &p, &Run::single(&config).retrying(policy));
    assert!(
        sup.outcome.verdict.is_correct(),
        "escalation should convert the give-up, got {:?}",
        sup.outcome.verdict
    );
    assert!(sup.retries_used() > 0, "conversion must have retried");
}

#[test]
fn recycled_proofs_shrink_the_final_attempt() {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(CHAIN_MEDIUM, &mut pool).unwrap();
    let policy = RetryPolicy::with_retries(3).escalating_by(4);
    let sup = drive(
        &mut pool,
        &p,
        &Run::single(&tight_config(400)).retrying(policy),
    );
    assert!(sup.outcome.verdict.is_correct());
    assert!(
        sup.recycled_assertions > 0,
        "escalated attempts should be seeded with harvested assertions"
    );
    let rate = sup.recycle_hit_rate();
    assert!(
        rate > 0.0 && rate < 1.0,
        "hit rate should be a proper fraction, got {rate}"
    );
    // The last attempt reports the seeds it imported.
    let last = sup.attempts.last().unwrap();
    assert_eq!(last.seeded, sup.recycled_assertions);
    assert_eq!(last.give_up, None);
}

#[test]
fn give_up_history_is_deduped_across_attempts() {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(CHAIN_MEDIUM, &mut pool).unwrap();
    // Factor 1: every rung re-runs the same fatal budget, so every
    // attempt gives up with the same (engine, category) key.
    let policy = RetryPolicy::with_retries(2).escalating_by(1);
    let sup = drive(
        &mut pool,
        &p,
        &Run::single(&tight_config(200)).retrying(policy),
    );
    assert!(
        sup.outcome.verdict.give_up().is_some(),
        "factor-1 escalation cannot converge, got {:?}",
        sup.outcome.verdict
    );
    assert_eq!(sup.attempts.len(), 3, "all rungs should run");
    let mut keys: Vec<_> = sup.give_up_history.iter().map(|g| g.key()).collect();
    let total = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), total, "give-up history must be deduped");
    assert!(
        total < sup.attempts.len(),
        "three identical give-ups should collapse, history has {total}"
    );
}

#[test]
fn seeding_never_flips_a_buggy_program() {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(CHAIN_MEDIUM_BUGGY, &mut pool).unwrap();
    let policy = RetryPolicy::with_retries(3).escalating_by(4);
    let sup = drive(
        &mut pool,
        &p,
        &Run::single(&tight_config(400)).retrying(policy),
    );
    assert!(
        !sup.outcome.verdict.is_correct(),
        "recycled seeds flipped a buggy program to Correct"
    );
    if sup.outcome.verdict.give_up().is_none() {
        assert!(matches!(sup.outcome.verdict, Verdict::Incorrect { .. }));
    }
}

#[test]
fn unlimited_budget_never_retries_and_matches_plain_verify() {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(CHAIN_MEDIUM, &mut pool).unwrap();
    let config = VerifierConfig::gemcutter_seq();
    let plain = verify(&mut pool, &p, &config);

    let mut pool2 = TermPool::new();
    let p2 = seqver::cpl::compile(CHAIN_MEDIUM, &mut pool2).unwrap();
    let policy = RetryPolicy::with_retries(3).escalating_by(4);
    let sup = drive(&mut pool2, &p2, &Run::single(&config).retrying(policy));

    assert_eq!(sup.attempts.len(), 1, "nothing to retry");
    assert_eq!(sup.rounds_skipped, 0);
    assert_eq!(sup.recycle_hit_rate(), 0.0);
    assert_eq!(
        format!("{:?}", sup.outcome.verdict),
        format!("{:?}", plain.verdict)
    );
    assert_eq!(sup.outcome.stats.rounds, plain.stats.rounds);
    assert_eq!(sup.outcome.stats.proof_size, plain.stats.proof_size);
}
