//! Differential testing of `drive` on randomly generated concurrent
//! programs: the plain single-order loop ([`verify`]) and the shared-proof
//! portfolio (several members taking turns in [`drive`]) must never
//! contradict each other's conclusive verdicts, and every reported bug
//! trace must replay as feasible under exact trace analysis. On fixed
//! corpus programs, every single-member driver path — a retry ladder, a
//! checkpointed run and a cold daemon request — must also report the same
//! run counters as [`verify`].

use proptest::prelude::*;
use seqver::automata::bitset::BitSet;
use seqver::automata::dfa::DfaBuilder;
use seqver::bench_suite;
use seqver::gemcutter::drive::{drive, RetryPolicy, Run};
use seqver::gemcutter::interpolate::{
    analyze_trace_with_mode, InterpolationMode, InterpolationStats, TraceResult,
};
use seqver::gemcutter::verify::{specs_of, verify, Outcome, Verdict, VerifierConfig};
use seqver::program::concurrent::{LetterId, Program, Spec};
use seqver::program::stmt::{SimpleStmt, Statement};
use seqver::program::thread::{Thread, ThreadId};
use seqver::serve::client::Client;
use seqver::serve::proto::{Status, VerifyOpts, WireVerdict};
use seqver::serve::server::{ServeConfig, Server};
use seqver::smt::linear::LinExpr;
use seqver::smt::TermPool;
use std::time::Duration;

/// A random simple statement description: which variable (0..3, where 0–1
/// are shared between threads) and what operation.
#[derive(Clone, Debug)]
struct StmtDesc {
    var: usize,
    op: u8, // 0: := k, 1: += 1, 2: havoc
}

fn stmt_desc() -> impl Strategy<Value = StmtDesc> {
    (0usize..4, 0u8..3).prop_map(|(var, op)| StmtDesc { var, op })
}

/// 2–3 threads with 1–3 statements each.
fn program_desc() -> impl Strategy<Value = Vec<Vec<StmtDesc>>> {
    proptest::collection::vec(proptest::collection::vec(stmt_desc(), 1..=3), 2..=3)
}

/// Builds the random program with an error guard `assume s0 > bound`
/// appended to thread 0, so every generated program has an asserting
/// thread and the corpus mixes safe and unsafe instances.
fn build_program(pool: &mut TermPool, desc: &[Vec<StmtDesc>], bound: i128) -> Program {
    let mut b = Program::builder("random");
    let shared: Vec<_> = (0..2).map(|i| pool.var(&format!("s{i}"))).collect();
    for &v in &shared {
        b.add_global(v, 0);
    }
    let mut letters_per_thread = Vec::new();
    for (t, stmts) in desc.iter().enumerate() {
        let private: Vec<_> = (0..2).map(|i| pool.var(&format!("p{t}_{i}"))).collect();
        for &v in &private {
            b.add_global(v, 0);
        }
        let mut letters = Vec::new();
        for (s, d) in stmts.iter().enumerate() {
            let var = if d.var < 2 {
                shared[d.var]
            } else {
                private[d.var - 2]
            };
            let stmt = match d.op {
                0 => SimpleStmt::Assign(var, LinExpr::constant(s as i128)),
                1 => SimpleStmt::Assign(var, LinExpr::var(var).add(&LinExpr::constant(1))),
                _ => SimpleStmt::Havoc(var),
            };
            letters.push(b.add_statement(Statement::simple(
                ThreadId(t as u32),
                &format!("t{t}s{s}"),
                stmt,
                pool,
            )));
        }
        letters_per_thread.push(letters);
    }
    let le = pool.le_const(shared[0], bound);
    let violated = pool.not(le);
    let guard = b.add_statement(Statement::simple(
        ThreadId(0),
        "assert-fail",
        SimpleStmt::Assume(violated),
        pool,
    ));
    for (t, letters) in letters_per_thread.iter().enumerate() {
        let mut cfg = DfaBuilder::new();
        let mut prev = cfg.add_state(letters.is_empty());
        let entry = prev;
        for (i, &l) in letters.iter().enumerate() {
            let next = cfg.add_state(i + 1 == letters.len());
            cfg.add_transition(prev, l, next);
            prev = next;
        }
        let mut errors = BitSet::new(letters.len() + 2);
        if t == 0 {
            // Thread 0 carries the assertion: its exit has an edge into an
            // error location guarded by the violated condition.
            let err = cfg.add_state(false);
            cfg.add_transition(prev, guard, err);
            errors.insert(err.index());
        }
        b.add_thread(Thread::new("t", cfg.build(entry), errors));
    }
    b.build(pool)
}

/// The portfolio used by the differential runs (kept small: the random
/// programs are tiny and three orders cover the interesting diversity).
fn configs(seed: u64) -> Vec<VerifierConfig> {
    vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
        VerifierConfig::gemcutter_random(seed),
    ]
}

/// Replays `trace` through exact feasibility analysis.
fn replay_is_feasible(pool: &mut TermPool, program: &Program, trace: &[LetterId]) -> bool {
    let mut stats = InterpolationStats::default();
    matches!(
        analyze_trace_with_mode(
            pool,
            program,
            trace,
            Spec::ErrorOf(ThreadId(0)),
            InterpolationMode::SpChain,
            &mut stats,
        ),
        TraceResult::Feasible
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn verification_entry_points_agree(
        desc in program_desc(),
        bound in 0i128..4,
        seed in 0u64..100,
    ) {
        let mut pool = TermPool::new();
        let p = build_program(&mut pool, &desc, bound);
        let configs = configs(seed);

        // (name, verdict) from every entry point.
        let mut verdicts: Vec<(String, Verdict)> = Vec::new();
        for config in &configs {
            let outcome = verify(&mut pool, &p, config);
            verdicts.push((format!("verify/{}", config.name), outcome.verdict));
        }
        let shared = drive(&mut pool, &p, &Run::new(configs.clone()));
        verdicts.push(("take-turns".to_owned(), shared.outcome.verdict));

        // No two conclusive verdicts may contradict.
        let correct: Vec<&str> = verdicts
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Correct))
            .map(|(n, _)| n.as_str())
            .collect();
        let incorrect: Vec<&str> = verdicts
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Incorrect { .. }))
            .map(|(n, _)| n.as_str())
            .collect();
        prop_assert!(
            correct.is_empty() || incorrect.is_empty(),
            "contradiction: {correct:?} proved safe, {incorrect:?} found bugs ({desc:?}, bound {bound})"
        );

        // Every reported bug trace replays as feasible.
        for (name, verdict) in &verdicts {
            if let Verdict::Incorrect { trace } = verdict {
                prop_assert!(
                    replay_is_feasible(&mut pool, &p, trace),
                    "{name}: reported trace does not replay as feasible"
                );
            }
        }
    }

    /// The query cache is a pure memoization layer: with it on or off,
    /// every configuration must produce the identical verdict (including
    /// the counterexample trace), the same number of refinement rounds
    /// and the same final proof size.
    #[test]
    fn qcache_on_off_runs_are_identical(
        desc in program_desc(),
        bound in 0i128..4,
        seed in 0u64..100,
    ) {
        for config in configs(seed) {
            let mut cached_pool = TermPool::new();
            let cached_program = build_program(&mut cached_pool, &desc, bound);
            let cached = verify(&mut cached_pool, &cached_program, &config);

            let mut cold_pool = TermPool::new();
            let cold_program = build_program(&mut cold_pool, &desc, bound);
            let cold_config = config.clone().without_qcache();
            let cold = verify(&mut cold_pool, &cold_program, &cold_config);

            prop_assert_eq!(
                &cached.verdict, &cold.verdict,
                "{}: verdict differs with cache on/off", config.name
            );
            prop_assert_eq!(
                cached.stats.rounds, cold.stats.rounds,
                "{}: round count differs with cache on/off", config.name
            );
            prop_assert_eq!(
                cached.stats.proof_size, cold.stats.proof_size,
                "{}: proof size differs with cache on/off", config.name
            );
            prop_assert_eq!(
                (cold.stats.qcache_hits, cold.stats.qcache_misses),
                (0, 0),
                "{}: cache-off run must not touch the cache", config.name
            );
        }
    }
}

/// No driver path drops a counter. `verify`, a single-member run with a
/// retry ladder, a checkpointed run and one cold request to a fresh
/// in-process daemon run the same engine rounds, so they must report every
/// counter of [`RunStats::counters`] with the same value: none may drop
/// one, none may count the Hoare checks of the certificate resumption,
/// and the drivers attribute the query cache by the same rule. The daemon
/// spells each key with `-` for `_`; its `qcache` pair is the shared
/// cache's, not a run's, so it is left out. New counters are covered
/// without touching this test. `bluetooth-bug-2` has two specs.
///
/// [`RunStats::counters`]: seqver::gemcutter::verify::RunStats::counters
#[test]
fn every_driver_path_reports_every_counter() {
    let config = VerifierConfig::gemcutter_seq();
    for (name, specs) in [
        ("counter-safe-2", 1),
        ("counter-bug-2", 1),
        ("bluetooth-2", 1),
        ("bluetooth-bug-2", 2),
    ] {
        let bench = bench_suite::all()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("benchmark {name} not in the suite"));
        let run = |drive: &dyn Fn(&mut TermPool, &Program) -> Outcome| {
            let mut pool = TermPool::new();
            let p = bench.compile(&mut pool);
            assert_eq!(specs_of(&p).len(), specs, "{name}: spec count");
            drive(&mut pool, &p)
        };
        let plain = run(&|pool, p| verify(pool, p, &config));
        assert_eq!(
            plain.verdict.is_correct(),
            !name.contains("bug"),
            "{name}: unexpected verdict"
        );
        assert!(plain.stats.useless_probes > 0 && plain.stats.useless_len > 0);
        assert!(plain.stats.hoare_checks > 0);
        let counters = plain.stats.counters();
        let checkpoint = std::env::temp_dir().join(format!(
            "seqver-counters-{name}-{}.ckpt",
            std::process::id()
        ));
        let retrying = Run::single(&config).retrying(RetryPolicy::with_retries(2));
        let checkpointed = Run {
            checkpoint: Some(checkpoint.clone()),
            ..Run::single(&config)
        };
        for (path, driven) in [("retries", retrying), ("checkpoint", checkpointed)] {
            let other = run(&|pool, p| drive(pool, p, &driven).outcome);
            assert_eq!(other.verdict, plain.verdict, "{name}/{path}: verdict");
            assert_eq!(other.stats.counters(), counters, "{name}/{path}: counters");
        }
        assert!(checkpoint.exists(), "{name}: no checkpoint written");
        let _ = std::fs::remove_file(&checkpoint);

        let server = Server::bind(ServeConfig::default()).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let daemon = std::thread::spawn(move || server.run());
        let mut client =
            Client::connect_with_timeout(&addr, Duration::from_secs(120)).expect("connect");
        let response = client
            .verify_source(name, &bench.source, VerifyOpts::default())
            .expect("verify");
        assert_eq!(response.status, Some(Status::Ok), "{name}: {response:?}");
        assert!(!response.store_hit, "{name}: the request must run cold");
        let expected = match plain.verdict {
            Verdict::Correct => WireVerdict::Correct,
            Verdict::Incorrect { ref trace } => {
                WireVerdict::Incorrect(trace.iter().map(|l| l.0).collect())
            }
            Verdict::GaveUp(ref g) => panic!("{name}: gave up: {g}"),
        };
        assert_eq!(response.verdict, Some(expected), "{name}: daemon verdict");
        let stats = client.stats().expect("stats");
        for (key, n) in counters.iter().filter(|(k, _)| !k.starts_with("qcache_")) {
            let key = key.replace('_', "-");
            let reported = stats
                .iter()
                .find(|(k, _)| *k == key)
                .unwrap_or_else(|| panic!("{name}: the daemon reports no `{key}` in {stats:?}"));
            assert_eq!(reported.1, n.to_string(), "{name}: daemon `{key}`");
        }
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread").expect("clean drain");
    }
}

/// Certification changes no run counter. A proving round records its
/// reduction while it checks, and it walks on under its useless-cache
/// skips only after the proof's Hoare checks are read. So a certifying
/// run and a run with `certify: false` go through the same rounds and
/// report the same counters. Only the query-cache pair (the resumption
/// asks the solver too) and `certs_dropped` may differ.
#[test]
fn certification_changes_no_run_counter() {
    use seqver::bench_suite::generators as gen;
    let mut programs = vec![
        ("bluetooth(4)".to_owned(), gen::bluetooth(4)),
        ("parallel_add(5)".to_owned(), gen::parallel_add(5)),
        (
            "shared_counter(4,2,8)".to_owned(),
            gen::shared_counter(4, 2, 8),
        ),
        ("count_up_down(8)".to_owned(), gen::count_up_down(8)),
    ];
    for name in ["bluetooth", "chain-medium", "chain-trio", "counter"] {
        let path = format!("{}/examples/cpl/{name}.cpl", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).expect("example source");
        programs.push((format!("{name}.cpl"), source));
    }
    let certifying = VerifierConfig::gemcutter_seq();
    let plain = VerifierConfig {
        certify: false,
        ..certifying.clone()
    };
    let run = |source: &str, config: &VerifierConfig| {
        let mut pool = TermPool::new();
        let program = seqver::cpl::compile(source, &mut pool).expect("compiles");
        let outcome = verify(&mut pool, &program, config);
        let counters: Vec<(&str, u64)> = outcome
            .stats
            .counters()
            .into_iter()
            .filter(|(key, _)| !matches!(*key, "qcache_hits" | "qcache_misses" | "certs_dropped"))
            .collect();
        (outcome, counters)
    };
    for (name, source) in &programs {
        let (certified, with) = run(source, &certifying);
        let (uncertified, without) = run(source, &plain);
        assert!(
            certified.verdict.is_correct(),
            "{name}: {:?}",
            certified.verdict
        );
        assert!(certified.certificate.is_some(), "{name}: no certificate");
        assert_eq!(uncertified.verdict, certified.verdict, "{name}: verdict");
        assert!(
            uncertified.certificate.is_none(),
            "{name}: certified anyway"
        );
        assert_eq!(with, without, "{name}: counters");
    }
}
