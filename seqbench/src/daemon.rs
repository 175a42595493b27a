//! The `serve-mixed` workload: an in-process `serve::server::Server` with
//! a journaled store, driven closed-loop by two `serve::client::Client`
//! connections over a fixed, seeded request schedule.

use crate::instances::{cross_check_ground_truth, gate_letters, Instance, Rng, Workload};
use crate::report::{median, percentile, ratio, Metrics};
use crate::traced::{reference_pass, Reference};
use gemcutter::snapshot::program_fingerprint;
use serve::client::Client;
use serve::proto::{Response, Status, VerifyOpts, WireVerdict};
use serve::server::{ServeConfig, Server};
use smt::term::TermPool;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections (one per core of the reference box).
const CONNECTIONS: usize = 2;
/// Daemon verification workers.
const MAX_INFLIGHT: usize = 2;
/// Fresh programs per template: 8 templates give 208 cold requests, so
/// the cold p95 has ten samples beyond it.
const FRESH_PER_TEMPLATE: usize = 26;
/// Reads per write: about 90% of requests resubmit stored programs.
const READS_PER_WRITE: usize = 9;
/// In-process warm-path samples (compile and fingerprint timings).
const WARMPATH_SAMPLES: usize = 200;

/// A `stats` RPC snapshot: counter name to value.
pub type Stats = BTreeMap<String, f64>;

#[derive(Clone, Copy, Debug)]
enum Req {
    /// Resubmit stored program `i` of the read set.
    Read(usize),
    /// Submit fresh program `i`.
    Write(usize),
}

/// The seeded inputs of one run.
pub struct Plan {
    /// Stored before the timed window (the read set).
    read: Vec<Instance>,
    /// First seen during the timed window (the writes).
    fresh: Vec<Instance>,
    schedule: Vec<Req>,
}

impl Plan {
    /// Every template once for the read set and [`FRESH_PER_TEMPLATE`]
    /// times for the writes, each with its own renamed globals; reads
    /// pick stored programs uniformly; the schedule interleaves both.
    pub fn generate(seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let templates = Workload::ServeMixed.families();
        let read: Vec<Instance> = templates
            .iter()
            .map(|&f| Instance::generate(f, &mut rng))
            .collect();
        let mut fresh = Vec::new();
        for _ in 0..FRESH_PER_TEMPLATE {
            for &f in &templates {
                fresh.push(Instance::generate(f, &mut rng));
            }
        }
        rng.shuffle(&mut fresh);
        let mut schedule: Vec<Req> = (0..fresh.len()).map(Req::Write).collect();
        for _ in 0..fresh.len() * READS_PER_WRITE {
            schedule.push(Req::Read(rng.below(read.len())));
        }
        rng.shuffle(&mut schedule);
        Plan {
            read,
            fresh,
            schedule,
        }
    }

    /// Index of `req`'s program in [`Plan::programs`].
    fn index(&self, req: Req) -> usize {
        match req {
            Req::Read(i) => i,
            Req::Write(i) => self.read.len() + i,
        }
    }

    fn instance(&self, req: Req) -> &Instance {
        match req {
            Req::Read(i) => &self.read[i],
            Req::Write(i) => &self.fresh[i],
        }
    }

    /// Every distinct program: the read set, then the fresh ones.
    pub fn programs(&self) -> Vec<Instance> {
        self.read.iter().chain(&self.fresh).cloned().collect()
    }
}

/// A running daemon on its own thread.
struct Daemon {
    addr: String,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Binds a daemon on a fresh journaled store in `dir` (port 0).
    fn start(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let server = Server::bind(ServeConfig {
            store_path: Some(dir.join("proofs.store")),
            max_inflight: MAX_INFLIGHT,
            ..ServeConfig::default()
        })?;
        for w in server.store_warnings() {
            eprintln!("seqbench: store warning: {w}");
        }
        let addr = server.local_addr()?.to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    /// A clean drain: a `shutdown` request, then the server's own exit.
    fn stop(self) -> Result<(), String> {
        let response = Client::connect(&self.addr)?.shutdown()?;
        if response.status != Some(Status::Ok) {
            return Err(format!("shutdown refused: {:?}", response.reason));
        }
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?
    }

    fn stats(&self) -> Result<Stats, String> {
        Ok(Client::connect(&self.addr)?
            .stats()?
            .into_iter()
            .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k, v)))
            .collect())
    }
}

/// Gates one response. `Ok(true)`: OK, durable, conclusive and agreeing
/// with ground truth. `Ok(false)`: busy, error or give-up (failed, never
/// retried). `Err`: a wrong verdict, a non-replaying trace or an OK that
/// is not durable — the run aborts.
fn gate_response(inst: &Instance, r: &Response) -> Result<bool, String> {
    if r.status != Some(Status::Ok) {
        return Ok(false);
    }
    if !r.durable {
        return Err(format!("{}: OK response without durable: true", inst.label));
    }
    let trace = match &r.verdict {
        Some(WireVerdict::Correct) => None,
        Some(WireVerdict::Incorrect(t)) => Some(t.as_slice()),
        Some(WireVerdict::GaveUp) | None => return Ok(false),
    };
    let mut pool = TermPool::new();
    let program = inst.compile(&mut pool)?;
    gate_letters(inst, &pool, &program, trace)
}

/// Binds a daemon and stores the read set through it. This is the
/// workload's set-up.
fn set_up(dir: &Path, plan: &Plan) -> Result<Daemon, String> {
    let daemon = Daemon::start(dir)?;
    let mut client = Client::connect(&daemon.addr)?;
    for (i, inst) in plan.read.iter().enumerate() {
        let r = client.verify_source(&format!("fill-{i}"), &inst.source, VerifyOpts::default())?;
        if !gate_response(inst, &r)? {
            return Err(format!(
                "{}: not stored during set-up: {:?}",
                inst.label, r.reason
            ));
        }
    }
    Ok(daemon)
}

struct Sample {
    req: Req,
    us: f64,
    response: Response,
}

/// The timed window: the schedule, pulled closed-loop by [`CONNECTIONS`]
/// clients, one request outstanding per connection.
fn drive(addr: &str, plan: &Plan) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| -> Result<Vec<Sample>, String> {
                    let mut client = Client::connect(addr)?;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&req) = plan.schedule.get(i) else {
                            return Ok(out);
                        };
                        let t = Instant::now();
                        let response = client.verify_source(
                            &format!("req-{i}"),
                            &plan.instance(req).source,
                            VerifyOpts::default(),
                        )?;
                        out.push(Sample {
                            req,
                            us: t.elapsed().as_secs_f64() * 1e6,
                            response,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    Ok((samples, window_s))
}

/// The result of a `serve-mixed` run.
pub struct ServeRun {
    pub metrics: Metrics,
    /// Server, store and warm-path layer metrics (for the traced run).
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// In-process `verify()` of every distinct program, in
    /// [`Plan::programs`] order.
    pub reference: Reference,
}

/// The templates' ground-truth rules cross-checked against explicit-state
/// search; set-up `setup_reps` times, about half before the window (the
/// last of these daemons serves it) and the rest after it, so that
/// `setup_s` is not decided by one moment of the host's load; the timed
/// window with `stats` snapshots around it, a clean drain, then the
/// correctness gate on every response, including agreement with an
/// in-process `verify()` of the same source.
pub fn run(plan: &Plan, tmp: &Path, setup_reps: usize) -> Result<ServeRun, String> {
    cross_check_ground_truth(&Workload::ServeMixed.families())?;
    let mut setup_s = Vec::new();
    let mut timed_set_up = |rep: usize| -> Result<Daemon, String> {
        let start = Instant::now();
        let daemon = set_up(&tmp.join(format!("store-{rep}")), plan)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(daemon)
    };
    let before_window = setup_reps / 2 + 1;
    for rep in 1..before_window {
        timed_set_up(rep)?.stop()?;
    }
    let daemon = timed_set_up(0)?;
    let before = daemon.stats()?;
    let (samples, window_s) = drive(&daemon.addr, plan)?;
    let after = daemon.stats()?;
    daemon.stop()?;
    for rep in before_window..setup_reps {
        timed_set_up(rep)?.stop()?;
    }
    let reference = reference_pass(&plan.programs())?;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut warm_us, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut cold_rounds, mut seed_assertions) = (0u64, 0u64);
    for s in &samples {
        attempted += 1;
        let inst = plan.instance(s.req);
        let wire = match &s.response.verdict {
            Some(WireVerdict::Correct) => Some(true),
            Some(WireVerdict::Incorrect(_)) => Some(false),
            _ => None,
        };
        if let (Some(wire), Some(local)) = (wire, reference.conclusive(plan.index(s.req))) {
            if wire != local {
                return Err(format!(
                    "{}: daemon and in-process verdicts differ",
                    inst.label
                ));
            }
        }
        // A read that misses the store was not served warm: failed.
        let served = gate_response(inst, &s.response)?
            && (matches!(s.req, Req::Write(_)) || s.response.store_hit);
        if !served {
            failed += 1;
            continue;
        }
        match s.req {
            Req::Read(_) => warm_us.push(s.us),
            Req::Write(_) => {
                cold_ms.push(s.us / 1e3);
                cold_rounds += s.response.rounds;
                seed_assertions += s.response.warm_assertions;
            }
        }
    }
    if attempted != plan.schedule.len() as u64 {
        return Err(format!(
            "{attempted} responses for {} requests",
            plan.schedule.len()
        ));
    }

    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("wall_s", window_s, "s");
    m.push(
        "time_per_round_ms",
        ratio(cold_ms.iter().sum(), cold_rounds as f64),
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
    m.push(
        "req_per_s",
        ratio((attempted - failed) as f64, window_s),
        "req/s",
    );

    let mut layers = Metrics::default();
    push_server_layers(&mut layers, &before, &after, seed_assertions);
    let warm = warm_path(&plan.read)?;
    push_warmpath(
        &mut layers,
        m.get("warm_p50_us").unwrap_or(0.0),
        &warm.0,
        &warm.1,
    );
    Ok(ServeRun {
        metrics: m,
        layers,
        attempted,
        failed,
        reference,
    })
}

/// In-process compile and fingerprint timings over the read set (µs).
fn warm_path(read: &[Instance]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut compile, mut fingerprint) = (Vec::new(), Vec::new());
    for inst in read.iter().cycle().take(WARMPATH_SAMPLES) {
        let start = Instant::now();
        let mut pool = TermPool::new();
        let program = inst.compile(&mut pool)?;
        let compiled = Instant::now();
        std::hint::black_box(program_fingerprint(&pool, &program));
        compile.push((compiled - start).as_secs_f64() * 1e6);
        fingerprint.push(compiled.elapsed().as_secs_f64() * 1e6);
    }
    Ok((compile, fingerprint))
}

/// The warm-path breakdown: compile and fingerprint medians, and what
/// `warm_p50_us` leaves beyond them (protocol, admission, lookup, audit).
pub fn push_warmpath(
    m: &mut Metrics,
    warm_p50_us: f64,
    compile_us: &[f64],
    fingerprint_us: &[f64],
) {
    let (c, f) = (median(compile_us), median(fingerprint_us));
    m.push("warmpath.compile_us", c, "us");
    m.push("warmpath.fingerprint_us", f, "us");
    m.push("warmpath.residual_us", warm_p50_us - c - f, "us");
}

/// Server and store layer metrics: deltas of the `stats` RPC across the
/// window, store sizes at its end. Empty snapshots give the zeros of a
/// workload that runs no daemon.
pub fn push_server_layers(m: &mut Metrics, before: &Stats, after: &Stats, seed_assertions: u64) {
    let at_end = |k: &str| after.get(k).copied().unwrap_or(0.0);
    let delta = |k: &str| at_end(k) - before.get(k).copied().unwrap_or(0.0);
    for (name, key) in [
        ("server.requests", "requests"),
        ("server.errors", "errors"),
        ("server.busy", "busy"),
        ("server.store_hits", "store-hits"),
        ("server.warm_starts", "warm-starts"),
    ] {
        m.push(name, delta(key), "count");
    }
    m.push("server.seed_assertions", seed_assertions as f64, "count");
    for (name, key) in [
        ("server.certs_checked", "certs-checked"),
        ("server.qcache_hits", "qcache-hits"),
        ("server.qcache_misses", "qcache-misses"),
        ("server.qcache_evictions", "qcache-evictions"),
        ("store.journal_appends", "journal-appends"),
        ("store.journal_fsyncs", "journal-fsyncs"),
    ] {
        m.push(name, delta(key), "count");
    }
    m.push(
        "store.appends_per_fsync",
        ratio(delta("journal-appends"), delta("journal-fsyncs")),
        "ratio",
    );
    m.push("store.compactions", delta("compactions"), "count");
    m.push("store.journal_bytes", at_end("journal-bytes"), "bytes");
    m.push("store.snapshot_bytes", at_end("snapshot-bytes"), "bytes");
    m.push("store.records", at_end("store-records"), "count");
}

/// Scratch directory for the run's stores, removed when dropped.
pub struct TmpDir(pub PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
