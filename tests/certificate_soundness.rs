//! Certificate soundness battery: an unmutated certificate always passes
//! the independent checker, and every single-point mutation of a valid
//! certificate — flipped bound, dropped obligation, weakened or permuted
//! annotation, re-homed assertion, truncated trace, foreign fingerprint —
//! is rejected in `Full` mode.
//!
//! Verification runs once per fixture program (the expensive part); each
//! property case then re-compiles the program into a fresh pool, parses
//! the certificate text, mutates it, and re-checks — exactly the
//! store→serve path a mutated store record would take.

use proptest::prelude::*;
use seqver::bench_suite::{self, Expected};
use seqver::gemcutter::certify::{
    check_certificate, CertMutation, Certificate, CertifyMode, SpecCert,
};
use seqver::gemcutter::check::{
    check_proof, record_reduction, CheckConfig, CheckResult, CheckStats, UselessCache,
};
use seqver::gemcutter::engine::{Engine, RoundOutcome};
use seqver::gemcutter::interpolate::{analyze_trace, InterpolationStats, TraceResult};
use seqver::gemcutter::proof::ProofAutomaton;
use seqver::gemcutter::snapshot::fnv1a;
use seqver::gemcutter::verify::{specs_of, verify, Verdict, VerifierConfig};
use seqver::program::commutativity::CommutativityOracle;
use seqver::program::concurrent::{Program, Spec};
use seqver::reduction::persistent::PersistentSets;
use seqver::smt::TermPool;
use std::sync::OnceLock;

/// One verified fixture: CPL source plus its certificate, serialized.
struct Fixture {
    name: String,
    source: String,
    cert_text: String,
}

fn compile(source: &str, pool: &mut TermPool) -> Program {
    seqver::cpl::compile(source, pool).expect("fixture source compiles")
}

/// Verifies the first few small corpus programs of `expected` ground
/// truth under the default (certifying) sequential configuration and
/// returns their serialized certificates.
fn fixtures(expected: Expected, want: usize) -> Vec<Fixture> {
    let mut out = Vec::new();
    for b in bench_suite::all() {
        if b.expected != expected || b.name.ends_with("-3") || b.name.ends_with("-4") {
            continue;
        }
        let mut pool = TermPool::new();
        let program = compile(&b.source, &mut pool);
        let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
        match (&outcome.verdict, expected) {
            (Verdict::Correct, Expected::Safe) | (Verdict::Incorrect { .. }, Expected::Unsafe) => {}
            other => panic!("{}: unexpected verdict {other:?}", b.name),
        }
        let cert = outcome
            .certificate
            .unwrap_or_else(|| panic!("{}: conclusive verdict without a certificate", b.name));
        let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
        assert!(
            report.ok,
            "{}: fresh certificate rejected: {report}",
            b.name
        );
        out.push(Fixture {
            name: b.name.clone(),
            source: b.source.clone(),
            cert_text: cert.to_text(),
        });
        if out.len() == want {
            break;
        }
    }
    assert_eq!(out.len(), want, "not enough {expected:?} corpus fixtures");
    out
}

fn safe_fixtures() -> &'static [Fixture] {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| fixtures(Expected::Safe, 2))
}

fn unsafe_fixtures() -> &'static [Fixture] {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| fixtures(Expected::Unsafe, 2))
}

/// Parses a fixture back and re-checks it in a fresh pool, optionally
/// after mutating. Returns `None` when the mutation had no applicable
/// site (the certificate is untouched then).
fn check_mutated(
    fixture: &Fixture,
    mutation: Option<CertMutation>,
    salt: u64,
    mode: CertifyMode,
) -> Option<bool> {
    let mut pool = TermPool::new();
    let program = compile(&fixture.source, &mut pool);
    let mut cert = Certificate::parse(&fixture.cert_text).expect("fixture certificate parses");
    if let Some(m) = mutation {
        if !m.apply(&mut cert, salt) {
            return None;
        }
    }
    Some(check_certificate(&mut pool, &program, &cert, mode).ok)
}

#[test]
fn unmutated_certificates_pass_in_every_mode() {
    for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
        for mode in [
            CertifyMode::Structural,
            CertifyMode::Sample,
            CertifyMode::Full,
        ] {
            assert_eq!(
                check_mutated(fixture, None, 0, mode),
                Some(true),
                "clean certificate rejected in {} mode",
                mode.name()
            );
        }
    }
}

#[test]
fn certificate_text_roundtrips_bit_identically() {
    for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
        let cert = Certificate::parse(&fixture.cert_text).expect("parses");
        assert_eq!(cert.to_text(), fixture.cert_text);
    }
}

/// FNV-1a of each safe fixture's certificate text. The recording walk must
/// reproduce these bytes exactly; a deliberate change to the certificate
/// format or the walk re-pins them.
const PINNED_SAFE_CERTS: [(&str, u64); 2] = [
    ("bluetooth-1", 0xf19a_addf_537d_51ee),
    ("bluetooth-2", 0xbd94_5da4_343b_b5ca),
];

/// Useless-cache skips taken by the conclusive round of each spec,
/// summed: the refinement loop re-run one engine round at a time, as
/// `drive`'s take-turns schedule runs a single member.
fn conclusive_round_skips(source: &str) -> usize {
    let mut pool = TermPool::new();
    let program = compile(source, &mut pool);
    let config = VerifierConfig::gemcutter_seq();
    let mut skips = 0;
    for spec in specs_of(&program) {
        let mut engine = Engine::new(&mut pool, &program, spec, &config);
        let mut proof = ProofAutomaton::new();
        loop {
            let before = engine.stats.cache_skips;
            match engine.round(&mut pool, &program, &mut proof) {
                RoundOutcome::Proven => {
                    skips += engine.stats.cache_skips - before;
                    break;
                }
                RoundOutcome::Refined => {}
                other => panic!("unexpected round outcome {other:?}"),
            }
        }
    }
    skips
}

#[test]
fn safe_certificates_are_byte_identical_to_the_pinned_ones() {
    let fixtures = safe_fixtures();
    assert_eq!(fixtures.len(), PINNED_SAFE_CERTS.len());
    let mut skipped = false;
    for (fixture, (name, hash)) in fixtures.iter().zip(PINNED_SAFE_CERTS) {
        assert_eq!(fixture.name, name);
        assert_eq!(
            fnv1a(fixture.cert_text.as_bytes()),
            hash,
            "{name}: certificate bytes changed"
        );
        assert_eq!(
            check_mutated(fixture, None, 0, CertifyMode::Full),
            Some(true)
        );
        skipped |= conclusive_round_skips(&fixture.source) > 0;
    }
    // Recording expands the subtrees such a round skipped.
    assert!(skipped, "no pinned fixture's conclusive round took a skip");
}

/// The certificate of `spec` as the stand-alone re-walk records it: the
/// refinement loop re-run from outside with [`check_proof`] on its own
/// pool, proof and useless-state cache, then [`record_reduction`] from the
/// initial state. `None` when the spec has a bug.
fn rewalk_cert(source: &str, spec: Spec) -> Option<SpecCert> {
    let mut pool = TermPool::new();
    let program = compile(source, &mut pool);
    let config = VerifierConfig::gemcutter_seq();
    let order = config.order.build();
    let mut oracle = CommutativityOracle::new(config.commutativity);
    let persistent = PersistentSets::new(&mut pool, &program, &mut oracle);
    let check_config = CheckConfig {
        max_visited: config.max_visited_per_round,
        ..CheckConfig::default()
    };
    let mut proof = ProofAutomaton::new();
    let mut useless = UselessCache::new();
    loop {
        let result = check_proof(
            &mut pool,
            &program,
            spec,
            order.as_ref(),
            &mut oracle,
            Some(&persistent),
            &mut proof,
            &mut useless,
            &check_config,
            &mut CheckStats::default(),
        );
        let trace = match result {
            CheckResult::Proven => break,
            CheckResult::Counterexample(trace) => trace,
            other => panic!("unexpected check result {other:?}"),
        };
        let mut stats = InterpolationStats::default();
        match analyze_trace(&mut pool, &program, &trace, spec, &mut stats) {
            TraceResult::Infeasible { chain } => {
                for a in chain {
                    proof.add_assertion(a);
                }
            }
            TraceResult::Feasible => return None,
            TraceResult::Unknown => panic!("trace feasibility undecided"),
        }
    }
    let rec = record_reduction(
        &mut pool,
        &program,
        spec,
        order.as_ref(),
        &mut oracle,
        Some(&persistent),
        &mut proof,
        &check_config,
    )
    .expect("the re-walk fits its budget");
    Some(SpecCert::from_recorded(
        &pool,
        &proof,
        &rec,
        spec,
        &config.order,
        &check_config,
    ))
}

/// A proving round records its certificate while it checks and then walks
/// on only under its useless-cache skips. What it records must equal what
/// a re-walk of the whole reduction records after the same rounds, field
/// by field. The two pipelines run on separate proof automata, so proof
/// states are also created in the same order: a certificate numbers its
/// nodes by that order. Each fixture's proving rounds take skips.
#[test]
fn the_proving_round_records_what_the_rewalk_records() {
    let bluetooth = bench_suite::all()
        .into_iter()
        .find(|b| b.name == "bluetooth-2")
        .expect("bluetooth-2 is in the suite");
    for (name, source) in [
        ("bluetooth-2", bluetooth.source),
        ("parallel_add(5)", bench_suite::generators::parallel_add(5)),
        (
            "shared_counter(3,2,6)",
            bench_suite::generators::shared_counter(3, 2, 6),
        ),
    ] {
        let mut pool = TermPool::new();
        let program = compile(&source, &mut pool);
        let config = VerifierConfig::gemcutter_seq();
        let (mut proven, mut skips) = (0, 0);
        for spec in specs_of(&program) {
            let mut engine = Engine::new(&mut pool, &program, spec, &config);
            let mut proof = ProofAutomaton::new();
            let proving = loop {
                let before = engine.stats.cache_skips;
                match engine.round(&mut pool, &program, &mut proof) {
                    RoundOutcome::Refined => {}
                    RoundOutcome::Proven => break Some(before),
                    RoundOutcome::Bug(_) => break None,
                    RoundOutcome::GaveUp(g) => panic!("{name}: gave up: {g}"),
                }
            };
            let Some(before) = proving else {
                assert!(rewalk_cert(&source, spec).is_none(), "{name}: verdicts");
                continue;
            };
            skips += engine.stats.cache_skips - before;
            proven += 1;
            let (_, cert) = engine.take_proven().expect("a proving round");
            let round = cert.unwrap_or_else(|| panic!("{name}: certificate dropped"));
            let rewalk = rewalk_cert(&source, spec).expect("the re-walk proves the spec");
            assert_eq!(round.initial, rewalk.initial, "{name}: initial");
            assert_eq!(round.annotations, rewalk.annotations, "{name}: nodes");
            assert_eq!(round.edges, rewalk.edges, "{name}: edges");
            assert_eq!(round.bottoms, rewalk.bottoms, "{name}: bottoms");
            assert_eq!(round.safes, rewalk.safes, "{name}: safes");
            assert_eq!(round.claims, rewalk.claims, "{name}: claims");
            assert_eq!(round.ucommute, rewalk.ucommute, "{name}: ucommute");
            assert_eq!(round, rewalk, "{name}: certificate");
        }
        assert!(proven > 0, "{name}: no spec proven");
        assert!(skips > 0, "{name}: no proving round took a skip");
    }
}

/// The mutations applicable to a CORRECT (proof) certificate.
const PROOF_MUTATIONS: [CertMutation; 6] = [
    CertMutation::WeakenAnnotation,
    CertMutation::DropObligation,
    CertMutation::RehomeAssertion,
    CertMutation::FlipBound,
    CertMutation::PermuteAnnotation,
    CertMutation::ForeignFingerprint,
];

/// The mutations applicable to a BUG (trace) certificate.
const TRACE_MUTATIONS: [CertMutation; 2] = [
    CertMutation::TruncateTrace,
    CertMutation::ForeignFingerprint,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_proof_mutation_is_rejected(
        which in 0usize..2,
        mutation in proptest::sample::select(PROOF_MUTATIONS.to_vec()),
        salt in any::<u64>(),
    ) {
        let fixture = &safe_fixtures()[which];
        if let Some(ok) = check_mutated(fixture, Some(mutation), salt, CertifyMode::Full) {
            prop_assert!(!ok, "mutation {} (salt {salt}) survived the checker", mutation.name());
        }
    }

    #[test]
    fn every_trace_mutation_is_rejected(
        which in 0usize..2,
        mutation in proptest::sample::select(TRACE_MUTATIONS.to_vec()),
        salt in any::<u64>(),
    ) {
        let fixture = &unsafe_fixtures()[which];
        if let Some(ok) = check_mutated(fixture, Some(mutation), salt, CertifyMode::Full) {
            prop_assert!(!ok, "mutation {} (salt {salt}) survived the checker", mutation.name());
        }
    }
}

/// Beyond sampling: every injector-supported mutation must also be caught
/// deterministically with salt 0 — the exact configuration the serve-side
/// fault injector uses.
#[test]
fn injector_kinds_are_caught_at_salt_zero() {
    for kind in CertMutation::injector_kinds() {
        let mut caught_somewhere = false;
        for fixture in safe_fixtures().iter().chain(unsafe_fixtures()) {
            // `None` means the kind has no applicable site on this
            // certificate shape.
            if let Some(ok) = check_mutated(fixture, Some(kind), 0, CertifyMode::Full) {
                assert!(!ok, "injector mutation {} survived", kind.name());
                caught_somewhere = true;
            }
        }
        assert!(
            caught_somewhere,
            "injector mutation {} applied nowhere",
            kind.name()
        );
    }
}

/// The `structural` tier's trust boundary: it replays the reduction and
/// checks inclusion without the solver, so it rejects mutations of the
/// certificate's shape — a dropped obligation, a weakened annotation — but
/// trusts solver facts: a flipped bound passes it and only the `full` tier
/// re-discharges the obligation and rejects it.
#[test]
fn structural_tier_rejects_shape_mutations_and_trusts_solver_facts() {
    for fixture in safe_fixtures() {
        let mut applied = [0usize; 3];
        for salt in 0..16 {
            for (i, mutation) in [CertMutation::DropObligation, CertMutation::WeakenAnnotation]
                .into_iter()
                .enumerate()
            {
                if let Some(ok) =
                    check_mutated(fixture, Some(mutation), salt, CertifyMode::Structural)
                {
                    assert!(
                        !ok,
                        "{}: {} (salt {salt}) passed the structural tier",
                        fixture.name,
                        mutation.name()
                    );
                    applied[i] += 1;
                }
            }
            let flip = Some(CertMutation::FlipBound);
            if let Some(ok) = check_mutated(fixture, flip, salt, CertifyMode::Structural) {
                assert!(
                    ok,
                    "{}: flip-bound (salt {salt}) failed the structural tier",
                    fixture.name
                );
                assert_eq!(
                    check_mutated(fixture, flip, salt, CertifyMode::Full),
                    Some(false),
                    "{}: flip-bound (salt {salt}) passed the full tier",
                    fixture.name
                );
                applied[2] += 1;
            }
        }
        assert!(
            applied.iter().all(|&n| n > 0),
            "{}: a mutation applied nowhere: {applied:?}",
            fixture.name
        );
    }
}
