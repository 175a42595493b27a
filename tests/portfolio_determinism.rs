//! Determinism of the shared-proof portfolio: with several members taking
//! turns, [`drive`] must be a pure function of the program and the engine
//! list — verdict, winner, per-engine round counts and proof sizes
//! identical across repeated runs. The determinism contract extends to
//! certificates: the winning certificate must clear the independent
//! checker and its serialized text must be byte-identical across runs. It
//! extends to solver work as well: the step counts a governor records are
//! the same on every run.

use seqver::bench_suite::{self, generators};
use seqver::gemcutter::certify::{check_certificate, CertifyMode};
use seqver::gemcutter::drive::{drive, Run};
use seqver::gemcutter::engine::{Engine, RoundOutcome};
use seqver::gemcutter::proof::ProofAutomaton;
use seqver::gemcutter::verify::{specs_of, verify, Verdict, VerifierConfig};
use seqver::smt::resource::{Category, ResourceGovernor};
use seqver::smt::TermPool;

/// The four-engine portfolio the determinism contract is tested with:
/// three fixed orders plus two seeded random orders.
fn engines() -> Vec<VerifierConfig> {
    vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
        VerifierConfig::gemcutter_random(1),
        VerifierConfig::gemcutter_random(2),
    ]
}

/// Runs the four-engine portfolio 5 times on `name` and asserts every run
/// reproduces the first one exactly.
fn assert_reproducible(name: &str) {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} not in the suite"));
    let portfolio = Run::new(engines());

    let mut reference = None;
    for run in 0..5 {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let result = drive(&mut pool, &p, &portfolio);
        let fingerprint = (
            result.outcome.verdict.clone(),
            result.winner.clone(),
            result.engines.clone(),
        );
        match &reference {
            None => reference = Some(fingerprint),
            Some(first) => assert_eq!(*first, fingerprint, "{name}: run {run} diverged from run 0"),
        }
    }
}

#[test]
fn portfolio_is_reproducible_on_peterson() {
    assert_reproducible("peterson");
}

#[test]
fn portfolio_is_reproducible_on_dekker() {
    assert_reproducible("dekker");
}

/// The winning certificate is part of the reproducibility contract: it
/// must exist, clear the independent checker, and serialize
/// byte-identically across 5 runs.
#[test]
fn portfolio_certificates_check_and_are_stable() {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "peterson")
        .expect("peterson in the suite");
    let portfolio = Run::new(vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
    ]);
    let mut reference: Option<String> = None;
    for run in 0..5 {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let result = drive(&mut pool, &p, &portfolio);
        assert_eq!(result.outcome.verdict, Verdict::Correct, "run {run}");
        let cert = result
            .outcome
            .certificate
            .unwrap_or_else(|| panic!("run {run}: no certificate"));
        let report = check_certificate(&mut pool, &p, &cert, CertifyMode::Full);
        assert!(report.ok, "run {run}: certificate rejected: {report}");
        let text = cert.to_text();
        match &reference {
            None => reference = Some(text),
            Some(first) => assert_eq!(*first, text, "run {run}: certificate text diverged"),
        }
    }
}

/// The seq and lockstep engines each certify their own single-engine
/// runs: different reductions, different proofs — both independently
/// checkable on the same program.
#[test]
fn seq_and_lockstep_certificates_both_check() {
    let bench = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "peterson")
        .expect("peterson in the suite");
    for config in [
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
    ] {
        let mut pool = TermPool::new();
        let p = bench.compile(&mut pool);
        let outcome = verify(&mut pool, &p, &config);
        assert_eq!(outcome.verdict, Verdict::Correct, "{}", config.name);
        let cert = outcome
            .certificate
            .unwrap_or_else(|| panic!("{}: no certificate", config.name));
        let report = check_certificate(&mut pool, &p, &cert, CertifyMode::Full);
        assert!(report.ok, "{}: certificate rejected: {report}", config.name);
    }
}

/// Simplex pivots of one full refinement run of `source`, one engine round
/// at a time under a counting governor.
fn pivots_of(source: &str) -> u64 {
    let mut pool = TermPool::new();
    let program = seqver::cpl::compile(source, &mut pool).expect("generated source compiles");
    pool.set_governor(ResourceGovernor::builder().build());
    let config = VerifierConfig::gemcutter_seq();
    for spec in specs_of(&program) {
        let mut engine = Engine::new(&mut pool, &program, spec, &config);
        let mut proof = ProofAutomaton::new();
        while let RoundOutcome::Refined = engine.round(&mut pool, &program, &mut proof) {}
    }
    pool.governor().count(Category::SimplexPivots)
}

/// `parallel_add` has statements that write two variables at once. Their
/// SSA encoding must intern its post-state equalities in one fixed order,
/// or the solver's work (here: simplex pivots) changes from run to run
/// inside one process, with the same verdict.
#[test]
fn solver_work_is_reproducible_within_a_process() {
    let source = generators::parallel_add(5);
    let first = pivots_of(&source);
    assert!(first > 0, "the counting governor saw no pivots");
    for run in 1..4 {
        assert_eq!(pivots_of(&source), first, "run {run} diverged from run 0");
    }
}
