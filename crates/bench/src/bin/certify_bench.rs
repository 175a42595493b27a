//! **Certificate audit study**: the cost and the coverage of certified
//! verdicts, in three phases.
//!
//! 1. *Clean sweep* — every conclusive corpus verdict's certificate must
//!    clear the independent checker in `full` mode (pass rate gated at
//!    100%: a fresh certificate that fails the audit is a checker or
//!    recorder bug, either of which is a soundness hole).
//! 2. *Mutation battery* — every applicable single-point mutation of
//!    every clean certificate must be rejected in `full` mode (catch
//!    rate gated at 100%: a surviving mutation means a wrong verdict
//!    could be served as certified).
//! 3. *Warm-serve overhead* — the same corpus served warm from a
//!    persisted store by an in-process daemon, with `--certify off`
//!    versus the default `--certify sample`; the sampled audit must cost
//!    ≤ 10% on the warm path, with bit-identical verdicts. Each mode
//!    serves the corpus for several rounds (the warm workload: the same
//!    verdicts served repeatedly); off and sample passes interleave in
//!    pairs, and the median of the per-pair sample/off time ratios is
//!    scored, so a scheduler stall in one pass cannot fail the gate.
//!
//! Results go to `BENCH_certify.json` for the jq gates in CI's `certify`
//! job. Run: `cargo run --release -p bench --bin certify_bench`
//! (`SEQVER_QUICK=1` restricts the corpus, as everywhere in the harness.)

use bench::{corpus, fmt_time};
use gemcutter::certify::{check_certificate, CertMutation, Certificate, CertifyMode};
use gemcutter::verify::{verify, Verdict, VerifierConfig};
use serve::client::Client;
use serve::proto::{Status, VerifyOpts};
use serve::server::{ServeConfig, Server};
use smt::term::TermPool;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Every defined mutation kind, injector-supported or battery-only.
const ALL_MUTATIONS: [CertMutation; 7] = [
    CertMutation::WeakenAnnotation,
    CertMutation::DropObligation,
    CertMutation::RehomeAssertion,
    CertMutation::TruncateTrace,
    CertMutation::FlipBound,
    CertMutation::PermuteAnnotation,
    CertMutation::ForeignFingerprint,
];

/// One warm pass against `store` at the given audit tier: verdict lines
/// plus the wall clock and the daemon's audit counters.
struct Pass {
    verdicts: Vec<String>,
    store_hits: u64,
    certs_checked: u64,
    certs_quarantined: u64,
    time_s: f64,
}

fn run_pass(
    store: &std::path::Path,
    programs: &[(String, String)],
    certify: CertifyMode,
    rounds: usize,
) -> Pass {
    let server = Server::bind(ServeConfig {
        store_path: Some(store.to_path_buf()),
        request_timeout: Duration::from_secs(120),
        certify,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let shutdown = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());

    let mut client =
        Client::connect_with_timeout(&addr, Duration::from_secs(300)).expect("connect");
    let start = Instant::now();
    let mut pass = Pass {
        verdicts: Vec::new(),
        store_hits: 0,
        certs_checked: 0,
        certs_quarantined: 0,
        time_s: 0.0,
    };
    for _ in 0..rounds {
        for (name, source) in programs {
            let t = Instant::now();
            let resp = client
                .verify_source(name, source, VerifyOpts::default())
                .expect("response");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if std::env::var("CERTIFY_BENCH_TRACE").is_ok() && ms > 2.0 {
                eprintln!(
                    "    slow request: {name} {ms:.1}ms (hit={})",
                    resp.store_hit
                );
            }
            assert_eq!(resp.status, Some(Status::Ok), "{name}: {:?}", resp.reason);
            if resp.store_hit {
                pass.store_hits += 1;
            }
            pass.verdicts.push(resp.verdict_line());
        }
    }
    pass.time_s = start.elapsed().as_secs_f64();
    for (key, value) in client.stats().expect("stats") {
        match key.as_str() {
            "certs-checked" => pass.certs_checked = value.parse().unwrap_or(0),
            "certs-quarantined" => pass.certs_quarantined = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    let _ = client.shutdown();
    drop(client);
    shutdown.store(true, Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean drain");
    pass
}

/// The median of `xs` (the upper one of an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::var("SEQVER_QUICK").is_ok();
    let benchmarks = corpus();
    println!(
        "certificate audit study ({} corpus, {} programs)",
        if quick { "quick" } else { "full" },
        benchmarks.len()
    );

    // Phase 1: clean sweep — verify everything once, full-check every
    // certificate. Serialized texts are kept for the mutation battery.
    let config = VerifierConfig::gemcutter_seq();
    let mut checked = 0u64;
    let mut passed = 0u64;
    let mut gave_up = 0u64;
    let mut fixtures: Vec<(String, String, String)> = Vec::new(); // (name, source, cert text)
    let sweep_start = Instant::now();
    for b in &benchmarks {
        let mut pool = TermPool::new();
        let program = b.compile(&mut pool);
        let outcome = verify(&mut pool, &program, &config);
        if matches!(outcome.verdict, Verdict::GaveUp(_)) {
            gave_up += 1;
            continue;
        }
        let cert = outcome
            .certificate
            .unwrap_or_else(|| panic!("{}: conclusive verdict without a certificate", b.name));
        checked += 1;
        let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
        if report.ok {
            passed += 1;
        } else {
            eprintln!("FAIL {}: {report}", b.name);
        }
        fixtures.push((b.name.clone(), b.source.clone(), cert.to_text()));
    }
    let clean_pass_rate = if checked == 0 {
        0.0
    } else {
        passed as f64 / checked as f64
    };
    println!(
        "  clean sweep: {passed}/{checked} certificates pass full audit ({} gave up) in {}",
        gave_up,
        fmt_time(sweep_start.elapsed().as_secs_f64())
    );

    // Phase 2: mutation battery — every applicable mutation of every
    // clean certificate must be rejected.
    let mut applied = 0u64;
    let mut caught = 0u64;
    let battery_start = Instant::now();
    for (name, source, cert_text) in &fixtures {
        for kind in ALL_MUTATIONS {
            let mut pool = TermPool::new();
            let program = cpl::compile(source, &mut pool).expect("corpus program compiles");
            let mut cert = Certificate::parse(cert_text).expect("fixture certificate parses");
            if !kind.apply(&mut cert, 0) {
                continue; // no applicable site on this certificate shape
            }
            applied += 1;
            let report = check_certificate(&mut pool, &program, &cert, CertifyMode::Full);
            if report.ok {
                eprintln!("SURVIVED {name}: mutation {} passed the audit", kind.name());
            } else {
                caught += 1;
            }
        }
    }
    let mutation_catch_rate = if applied == 0 {
        0.0
    } else {
        caught as f64 / applied as f64
    };
    println!(
        "  mutation battery: {caught}/{applied} mutations caught in {}",
        fmt_time(battery_start.elapsed().as_secs_f64())
    );

    // Phase 3: warm-serve overhead — populate the store cold, then serve
    // the corpus warm with the audit off and with the default sample
    // tier. The sampled audit must stay within 10% of the uncosted path
    // and must not change a single verdict.
    //
    // A pass serves the quick corpus WARM_ROUNDS times and takes about a
    // second on a shared 2-core VM, long enough that a scheduler stall is
    // a small share of it.
    const WARM_ROUNDS: usize = 192;
    const WARM_PASSES: usize = 5;
    let programs: Vec<(String, String)> =
        benchmarks.into_iter().map(|b| (b.name, b.source)).collect();
    let dir = std::env::temp_dir().join(format!("seqver-certify-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.join("proofs.store");

    let cold = run_pass(&store, &programs, CertifyMode::Off, 1);
    println!(
        "  cold:        {}  (store-hits {})",
        fmt_time(cold.time_s),
        cold.store_hits
    );
    let warm_reference: Vec<String> = cold
        .verdicts
        .iter()
        .cloned()
        .cycle()
        .take(cold.verdicts.len() * WARM_ROUNDS)
        .collect();
    // Interleaved pairs: an off pass, then a sample pass, so slow drift in
    // the machine's load lands on both modes alike. Each pair gives one
    // sample/off ratio and the median ratio is scored.
    let mut identity = true;
    let mut sample_quarantined = 0;
    let mut off_times = Vec::new();
    let mut sample_times = Vec::new();
    let mut ratios = Vec::new();
    for pair in 0..WARM_PASSES {
        let off = run_pass(&store, &programs, CertifyMode::Off, WARM_ROUNDS);
        let sample = run_pass(&store, &programs, CertifyMode::Sample, WARM_ROUNDS);
        println!(
            "  warm pair {pair}: off {}  sample {}  (store-hits {}/{}, certs-checked {})",
            fmt_time(off.time_s),
            fmt_time(sample.time_s),
            off.store_hits,
            sample.store_hits,
            sample.certs_checked
        );
        identity &= off.verdicts == warm_reference && sample.verdicts == warm_reference;
        sample_quarantined += sample.certs_quarantined;
        ratios.push(sample.time_s / off.time_s);
        off_times.push(off.time_s);
        sample_times.push(sample.time_s);
    }
    assert!(identity, "a warm pass changed a verdict");
    assert_eq!(
        sample_quarantined, 0,
        "a genuine certificate was quarantined"
    );
    let warm_off_time_s = median(&mut off_times);
    let warm_sample_time_s = median(&mut sample_times);
    let sample_overhead = median(&mut ratios) - 1.0;
    println!(
        "  identity: {identity}   clean pass rate {clean_pass_rate:.4}   \
         catch rate {mutation_catch_rate:.4}   sample overhead {:+.1}%",
        sample_overhead * 100.0
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"corpus\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str(&format!("  \"benchmarks\": {},\n", programs.len()));
    json.push_str(&format!("  \"gave_up\": {gave_up},\n"));
    json.push_str(&format!("  \"certs_checked\": {checked},\n"));
    json.push_str(&format!("  \"certs_passed\": {passed},\n"));
    json.push_str(&format!("  \"clean_pass_rate\": {clean_pass_rate:.4},\n"));
    json.push_str(&format!("  \"mutations_applied\": {applied},\n"));
    json.push_str(&format!("  \"mutations_caught\": {caught},\n"));
    json.push_str(&format!(
        "  \"mutation_catch_rate\": {mutation_catch_rate:.4},\n"
    ));
    json.push_str(&format!("  \"identity\": {identity},\n"));
    json.push_str(&format!("  \"warm_off_time_s\": {warm_off_time_s:.6},\n"));
    json.push_str(&format!(
        "  \"warm_sample_time_s\": {warm_sample_time_s:.6},\n"
    ));
    json.push_str(&format!(
        "  \"sample_quarantined\": {sample_quarantined},\n"
    ));
    json.push_str(&format!("  \"sample_overhead\": {sample_overhead:.4}\n"));
    json.push_str("}\n");
    let mut f = std::fs::File::create("BENCH_certify.json").expect("create BENCH_certify.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_certify.json");
    println!("  wrote BENCH_certify.json");
    let _ = std::fs::remove_dir_all(&dir);
}
