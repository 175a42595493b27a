//! The batch workloads: compile + verify per program at the default
//! configuration, as `seqver verify` does, repeated for the run's time.

use crate::instances::{gate, Instance};
use crate::report::{percentile, ratio, Metrics};
use gemcutter::certify::{check_certificate, Certificate, CertifyMode};
use gemcutter::snapshot::program_fingerprint;
use gemcutter::verify::{verify, Outcome, VerifierConfig};
use smt::term::TermPool;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Passes over the instance list a run makes even when `--seconds` is
/// shorter, so every per-program time is the best of at least two.
const MIN_PASSES: usize = 2;
/// Timed batches of set-ups before each pass.
const SETUPS_PER_PASS: usize = 4;
/// The shortest a timed batch of set-ups lasts: a set-up can take only a
/// few milliseconds, too short to time one by one on a loaded host.
const SETUP_BATCH: Duration = Duration::from_millis(50);
/// Warm re-checks of every proven program after each verification. The
/// first follows a verification that left the caches cold; spreading the
/// re-checks over the whole run keeps a phase of the host's load from
/// deciding their low percentile.
const WARM_PER_PROGRAM: usize = 2;

/// One gated compile + verify.
pub struct Verified {
    pub outcome: Outcome,
    /// Compile + verify wall time.
    pub secs: f64,
    /// Conclusive and agreeing with ground truth (`false`: gave up).
    pub decided: bool,
}

/// Compiles and verifies `inst` in a fresh pool, then gates the verdict.
pub fn verify_instance(inst: &Instance) -> Result<Verified, String> {
    let start = Instant::now();
    let mut pool = TermPool::new();
    let program = inst.compile(&mut pool)?;
    let outcome = verify(&mut pool, &program, &VerifierConfig::gemcutter_seq());
    let secs = start.elapsed().as_secs_f64();
    let decided = gate(inst, &pool, &program, &outcome.verdict)?;
    Ok(Verified {
        outcome,
        secs,
        decided,
    })
}

/// What the warm path costs per request, in microseconds.
#[derive(Default)]
pub struct WarmPath {
    /// Whole re-checks (compile, fingerprint, certificate audit), per
    /// proven program by label.
    per_program: BTreeMap<String, Vec<f64>>,
    /// Every sample.
    pub compile_us: Vec<f64>,
    pub fingerprint_us: Vec<f64>,
}

impl WarmPath {
    /// Serves each already-proven program again from its certificate,
    /// `reps` times round-robin, the way the daemon serves a stored
    /// verdict: compile, fingerprint, match the certificate, sample audit.
    /// A failing audit aborts the run.
    pub fn sample(
        &mut self,
        proven: &[(&Instance, &Certificate)],
        reps: usize,
    ) -> Result<(), String> {
        if proven.is_empty() {
            return Err("no certificate to serve warm".to_owned());
        }
        for _ in 0..reps {
            for (inst, cert) in proven {
                let start = Instant::now();
                let mut pool = TermPool::new();
                let program = inst.compile(&mut pool)?;
                let compiled = Instant::now();
                let fingerprint = program_fingerprint(&pool, &program);
                let fingerprinted = Instant::now();
                if fingerprint != cert.fingerprint() {
                    return Err(format!("{}: certificate fingerprint mismatch", inst.label));
                }
                let report = check_certificate(&mut pool, &program, cert, CertifyMode::Sample);
                let done = Instant::now();
                if !report.ok {
                    return Err(format!("{}: certificate rejected: {report}", inst.label));
                }
                let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
                self.per_program
                    .entry(inst.label.clone())
                    .or_default()
                    .push(us(start, done));
                self.compile_us.push(us(start, compiled));
                self.fingerprint_us.push(us(compiled, fingerprinted));
            }
        }
        Ok(())
    }

    /// Each proven program's 10th-percentile whole re-check. Percentiles
    /// over these are steadier than over the pooled samples, whose p50
    /// falls between two programs and so reads the slowest sample of one
    /// of them. Not the fastest: the audit of a bug certificate runs 2–3x
    /// faster than usual in about one re-check in fifty, so whether a run
    /// meets such a re-check would decide its fastest time. Not the median
    /// either, which a phase of the host's load covering half a run moves.
    pub fn low_decile(&self) -> Vec<f64> {
        self.per_program
            .values()
            .map(|s| percentile(s, 0.1))
            .collect()
    }
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The result of a batch run.
pub struct BatchRun {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs passes until `seconds` have elapsed (at least [`MIN_PASSES`]) and
/// reports the end-to-end metrics. Each pass is preceded by
/// [`SETUPS_PER_PASS`] timed batches of calls of `set_up`, which makes the
/// instance list, and each verification is followed by [`WARM_PER_PROGRAM`]
/// warm re-checks of every program proven so far.
pub fn run(
    seconds: u64,
    mut set_up: impl FnMut() -> Result<Vec<Instance>, String>,
) -> Result<BatchRun, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut instances = Vec::new();
    let mut times: Vec<Vec<f64>> = Vec::new();
    let mut rounds = Vec::new();
    let mut warm = WarmPath::default();
    // By label, so that re-checks run in a fixed order: the cost of a
    // re-check depends on what ran just before it, and the seed is not
    // meant to change that.
    let mut proven: BTreeMap<String, (Instance, Certificate)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < budget {
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let mut reps = 0u32;
            while reps == 0 || t.elapsed() < SETUP_BATCH {
                instances = set_up()?;
                reps += 1;
            }
            setup_s.push(t.elapsed().as_secs_f64() / f64::from(reps));
        }
        times.resize(instances.len(), Vec::new());
        rounds.resize(instances.len(), 0);
        for (i, inst) in instances.iter().enumerate() {
            let v = verify_instance(inst)?;
            attempted += 1;
            if !v.decided {
                failed += 1;
            }
            times[i].push(v.secs);
            rounds[i] = v.outcome.stats.rounds;
            if let Some(cert) = v.outcome.certificate {
                proven
                    .entry(inst.label.clone())
                    .or_insert_with(|| (inst.clone(), cert));
            }
            if !proven.is_empty() {
                let round: Vec<(&Instance, &Certificate)> =
                    proven.values().map(|(inst, c)| (inst, c)).collect();
                warm.sample(&round, WARM_PER_PROGRAM)?;
            }
        }
        passes += 1;
    }
    eprintln!(
        "seqbench: {passes} passes over {} programs in {:.2}s",
        instances.len(),
        start.elapsed().as_secs_f64()
    );

    if proven.is_empty() {
        return Err("no certificate to serve warm".to_owned());
    }
    // Each program at its fastest pass and set-up at its fastest batch: the
    // work is deterministic, so the minimum is the estimate least disturbed
    // by other load on the host, which can slow whole passes down by half
    // or more.
    let cold_ms: Vec<f64> = times.iter().map(|t| fastest(t) * 1e3).collect();
    let wall_s = cold_ms.iter().sum::<f64>() / 1e3;
    let total_rounds: usize = rounds.iter().sum();
    let warm_us = warm.low_decile();

    let mut m = Metrics::default();
    m.push("setup_s", fastest(&setup_s), "s");
    m.push("wall_s", wall_s, "s");
    m.push(
        "time_per_round_ms",
        ratio(wall_s * 1e3, total_rounds as f64),
        "ms",
    );
    m.push(
        "decided_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
        "ratio",
    );
    m.push("peak_rss_mb", crate::report::peak_rss_mb()?, "MB");
    m.push("cold_p50_ms", percentile(&cold_ms, 0.50), "ms");
    m.push("cold_p95_ms", percentile(&cold_ms, 0.95), "ms");
    m.push("warm_p50_us", percentile(&warm_us, 0.50), "us");
    m.push("warm_p95_us", percentile(&warm_us, 0.95), "us");
    Ok(BatchRun {
        metrics: m,
        attempted,
        failed,
    })
}
