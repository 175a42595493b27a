//! The `seqver serve` daemon.
//!
//! Architecture (all `std` threads and channels):
//!
//! ```text
//!  acceptor (nonblocking, polls the shutdown flag)
//!    └─ connection threads: framing, parsing, admission control
//!         └─ bounded job queue ──► N worker threads (a fresh TermPool per
//!            request, all sharing one QueryCache), each request supervised
//!            by its own ResourceGovernor budget + escalation ladder
//!                └─ proof store (SharedStore): lookup before; journal
//!                   append + group-commit fsync *before* the response
//!                   (acknowledged means durable)
//!    └─ compactor thread: folds the journal into the snapshot once it
//!       outgrows `--journal-max-ratio` × snapshot size
//! ```
//!
//! Robustness axes, in the order the issue names them:
//!
//! * **Crash-safe persistence** — every served verdict is appended to the
//!   [`ProofStore`]'s write-ahead journal and fsynced (one group commit
//!   per admission drain, not per request) before the client sees `OK`,
//!   so a `kill -9` anywhere loses only unacknowledged requests; a
//!   restart replays the journal's valid prefix and re-serves the
//!   acknowledged prefix from the store ([`handle_verify`] serves exact
//!   fingerprint matches directly, seeds near-duplicates' assertions, and
//!   pre-warms the shared query cache from persisted entries).
//! * **Request-level fault isolation** — every request runs under
//!   `catch_unwind` with a *fresh* `TermPool` (its own query memo, plus
//!   the panic-safe query cache shared by all workers), inside [`gemcutter::drive`]'s escalation ladder and
//!   a per-request governor deadline capped by the server's
//!   `request_timeout`. A panicking request returns a structured error,
//!   the poisoned worker thread is quarantined (it exits, discarding all
//!   of its state) and a replacement thread is spawned; siblings never
//!   notice.
//! * **Graceful degradation** — admission control sheds load with an
//!   explicit `busy` + retry-after hint once `max_inflight + queue_depth`
//!   requests are in the system (bounded queue, no silent pileup);
//!   per-connection read timeouts drive the frame reader's idle and
//!   slow-loris clocks; SIGINT/SIGTERM (via the shutdown flag) stops
//!   accepting, lets in-flight requests finish, flushes the store and
//!   returns cleanly.

use crate::certfault::{CertFaultPlan, CertFaultSite};
use crate::crash::{CrashPlan, CrashSite};
use crate::proto::{
    write_frame, Command, FrameError, FrameEvent, FrameReader, Request, Response, Status,
    WireVerdict, MAX_FRAME,
};
use crate::store::{ProofStore, SharedStore, StoreRecord, StoredVerdict};
use gemcutter::certify::{check_certificate, CertifyMode};
use gemcutter::drive::{drive, RetryPolicy, Run};
use gemcutter::govern::{Category, FaultPlan};
use gemcutter::snapshot::program_fingerprint;
use gemcutter::verify::{RunStats, Verdict, VerifierConfig};
use smt::qcache::QueryCache;
use smt::term::TermPool;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables of one daemon instance (the CLI's `serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (printed on startup).
    pub addr: String,
    /// Proof-store file (`None`: in-memory only, still fully functional).
    pub store_path: Option<PathBuf>,
    /// Concurrent verification workers — the hard concurrency cap.
    pub max_inflight: usize,
    /// Requests allowed to queue beyond the running ones before admission
    /// control sheds with `busy`.
    pub queue_depth: usize,
    /// Per-request wall-clock ceiling: every request's governor deadline
    /// is capped by this, so a hanging request cannot pin a worker.
    pub request_timeout: Duration,
    /// Mid-frame stall timeout (the slow-loris clock) and socket write
    /// timeout.
    pub io_timeout: Duration,
    /// Idle timeout between frames before a connection is closed politely.
    pub idle_timeout: Duration,
    /// Escalation-ladder retries per request, and the cap on a request's
    /// own `retries:` option (a request may ask for fewer, not more).
    pub retries: u32,
    /// Crash-point injection plan (`--crash-at SITE:N`): deterministic
    /// `abort()`s at named durability sites, for the crash sweep.
    pub crash_plan: Arc<CrashPlan>,
    /// Compact once the journal outgrows this multiple of the snapshot
    /// size.
    pub journal_max_ratio: f64,
    /// Certificate audit tier for warm hits (`--certify MODE`): a stored
    /// verdict is only served after its certificate clears the
    /// independent checker at this tier; a failing certificate
    /// quarantines the record and the request falls through to a fresh
    /// verification.
    pub certify: CertifyMode,
    /// Certificate-mutation injection plan (`--cert-fault SITE:KIND:N`):
    /// deterministic corruption at the engine→store and store→serve
    /// boundaries, for the mutation sweep. Every injected mutation must
    /// be caught by the audit — never served.
    pub cert_faults: Arc<CertFaultPlan>,
}

impl ServeConfig {
    /// The retries a request asking for `requested` runs with: the
    /// daemon's `retries`, lowered (never raised) by the request. The
    /// worker's escalation ladder and the connection's backstop both use
    /// this one value, so the backstop always outlasts the ladder.
    fn retries_for(&self, requested: Option<u32>) -> u32 {
        requested.map_or(self.retries, |r| r.min(self.retries))
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_path: None,
            max_inflight: 4,
            queue_depth: 4,
            request_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            retries: 0,
            crash_plan: Arc::default(),
            journal_max_ratio: 4.0,
            certify: CertifyMode::default(),
            cert_faults: Arc::default(),
        }
    }
}

/// Backoff hint attached to `busy` responses.
const RETRY_AFTER: Duration = Duration::from_millis(50);
/// Socket read timeout — the tick driving the frame reader's clocks and
/// the acceptor/worker shutdown polls.
const POLL_TICK: Duration = Duration::from_millis(25);
/// How often the compactor thread re-checks the journal/snapshot ratio.
const COMPACT_TICK: Duration = Duration::from_millis(100);
/// How long `run` waits for connections to drain after shutdown.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// How many query-cache entries to persist alongside the records.
const QCACHE_PERSIST: usize = 2048;

/// One queued verification.
struct Job {
    id: String,
    source: String,
    opts: crate::proto::VerifyOpts,
    reply: Sender<Response>,
}

/// State shared by the acceptor, connections and workers.
struct Shared {
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    store: SharedStore,
    cache: QueryCache,
    /// Verifications queued or running (admission control).
    inflight: AtomicUsize,
    /// Open connections (drain accounting).
    connections: AtomicUsize,
    /// The daemon's own counters.
    counters: [AtomicU64; Counter::ALL.len()],
    /// Every cold request's run counters, folded with [`RunStats::merge`].
    runs: Mutex<RunStats>,
    /// Fingerprints whose stored certificate already cleared the sample
    /// audit in this process. In-memory records are immutable between
    /// replacement and quarantine, so re-auditing identical bytes on
    /// every warm hit is pure waste on the hot path; the entry is dropped
    /// whenever the record changes (write-back or quarantine), forcing a
    /// fresh audit on the next hit. The `full` and `structural` tiers
    /// never consult this — paranoid deployments re-check every serve.
    ///
    /// Needs no cap: an entry is only inserted for a record found in the
    /// store, and write-back and quarantine remove it, so every entry names
    /// a record in the store and the set never outgrows it.
    certs_audited: Mutex<HashSet<u64>>,
    latencies_ms: Mutex<LatencyRing>,
}

/// The daemon's own counters, one slot each in [`Shared::counters`].
#[derive(Clone, Copy)]
enum Counter {
    Requests,
    Ok,
    Errors,
    Busy,
    ProtocolErrors,
    PanicsContained,
    WorkersReplaced,
    StoreHits,
    WarmStarts,
    CertsChecked,
    CertsPassed,
    CertsQuarantined,
}

impl Counter {
    /// Every counter with its `stats` key, in slot order.
    const ALL: [(Counter, &'static str); 12] = [
        (Counter::Requests, "requests"),
        (Counter::Ok, "ok"),
        (Counter::Errors, "errors"),
        (Counter::Busy, "busy"),
        (Counter::ProtocolErrors, "protocol-errors"),
        (Counter::PanicsContained, "panics-contained"),
        (Counter::WorkersReplaced, "workers-replaced"),
        (Counter::StoreHits, "store-hits"),
        (Counter::WarmStarts, "warm-starts"),
        (Counter::CertsChecked, "certs-checked"),
        (Counter::CertsPassed, "certs-passed"),
        (Counter::CertsQuarantined, "certs-quarantined"),
    ];
}

impl Shared {
    fn bump(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Every daemon-wide metric as `(key, value)`: the daemon's counters,
    /// the folded run counters (`_` spelled `-`; the `qcache` pair is the
    /// shared cache's below), the store, the cache and the latency ring.
    fn metrics(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Counter::ALL
            .iter()
            .zip(&self.counters)
            .map(|((_, key), n)| (key.to_string(), n.load(Ordering::Relaxed)))
            .collect();
        let runs = *self.runs.lock().expect("runs");
        out.extend(
            runs.counters()
                .into_iter()
                .filter(|(key, _)| !key.starts_with("qcache_"))
                .map(|(key, n)| (key.replace('_', "-"), n)),
        );
        let (p50, p95, max) = self.latencies_ms.lock().expect("latencies").percentiles();
        let qc = self.cache.stats();
        let store = self.store.lock();
        let js = store.stats();
        out.extend(
            [
                ("store-records", store.len() as u64),
                ("journal-appends", js.appends),
                ("journal-fsyncs", js.fsyncs),
                ("compactions", js.compactions),
                ("journal-bytes", store.journal_bytes()),
                ("snapshot-bytes", store.snapshot_bytes()),
                ("durable-seq", store.durable_seq()),
                ("qcache-hits", qc.hits),
                ("qcache-misses", qc.misses),
                ("qcache-evictions", qc.evictions),
                ("latency-p50-ms", p50),
                ("latency-p95-ms", p95),
                ("latency-max-ms", max),
            ]
            .map(|(key, n)| (key.to_owned(), n)),
        );
        out
    }
}

/// How many latency samples a [`LatencyRing`] keeps.
const LATENCY_SAMPLES: usize = 4096;

/// The most recent [`LATENCY_SAMPLES`] request latencies in a fixed ring,
/// so a long-running daemon's latency memory and the cost of a `stats`
/// call stay flat however many requests it serves.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    /// The slot the next sample overwrites once the ring is full.
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, ms: u64) {
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(ms);
        } else {
            self.samples[self.next] = ms;
        }
        self.next = (self.next + 1) % LATENCY_SAMPLES;
    }

    /// `(p50, p95, max)` over the retained samples; zeros when empty.
    fn percentiles(&self) -> (u64, u64, u64) {
        if self.samples.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        (at(0.50), at(0.95), sorted[sorted.len() - 1])
    }
}

/// A bound daemon, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    store_warnings: Vec<String>,
}

impl Server {
    /// Opens (leniently) the proof store, pre-warms the shared query
    /// cache from its persisted entries, and binds the listener.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let (store, store_warnings) = match &config.store_path {
            Some(path) => ProofStore::open_with(path, Arc::clone(&config.crash_plan)),
            None => (ProofStore::in_memory(), Vec::new()),
        };
        let cache = QueryCache::new();
        for (key, verdict) in store.qcache_entries() {
            cache.insert(key.clone(), verdict.clone());
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;
        let shared = Arc::new(Shared {
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            store: SharedStore::new(store),
            cache,
            inflight: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            counters: Default::default(),
            runs: Mutex::default(),
            certs_audited: Mutex::new(HashSet::new()),
            latencies_ms: Mutex::new(LatencyRing::default()),
        });
        Ok(Server {
            listener,
            shared,
            store_warnings,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read local address: {e}"))
    }

    /// Warnings from the lenient store load — cold-start causes the
    /// operator should see.
    pub fn store_warnings(&self) -> &[String] {
        &self.store_warnings
    }

    /// The cooperative shutdown flag: raise it (from a signal handler or
    /// a `shutdown` request) and [`Server::run`] drains and returns.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Serves until the shutdown flag is raised, then drains: stops
    /// accepting, waits for open connections and in-flight requests,
    /// flushes the store one final time and returns.
    pub fn run(self) -> Result<(), String> {
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut workers = Vec::new();
        for i in 0..self.shared.config.max_inflight.max(1) {
            workers.push(spawn_worker(
                i,
                Arc::clone(&self.shared),
                Arc::clone(&job_rx),
            ));
        }

        // Background compactor: folds the journal into the snapshot once
        // it outgrows the configured ratio. Off the request path — a
        // request only ever pays for its own append + group commit.
        let compactor = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("seqver-compactor".to_owned())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::Relaxed) {
                        std::thread::sleep(COMPACT_TICK);
                        if shared
                            .store
                            .needs_compaction(shared.config.journal_max_ratio)
                        {
                            let entries = shared.cache.export_entries(QCACHE_PERSIST);
                            if let Err(e) = shared.store.compact_with_qcache(entries) {
                                eprintln!("warning: journal compaction failed: {e}");
                            }
                        }
                    }
                })
                .expect("spawn compactor thread")
        };

        let shared = Arc::clone(&self.shared);
        loop {
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    let job_tx = job_tx.clone();
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            serve_connection(&shared, stream, &job_tx)
                        }));
                        if result.is_err() {
                            shared.bump(Counter::PanicsContained);
                        }
                        shared.connections.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        }

        // Drain: no new connections; let the open ones and the queue
        // finish, then retire the workers by dropping the job sender.
        let drain_start = Instant::now();
        while (shared.connections.load(Ordering::Relaxed) > 0
            || shared.inflight.load(Ordering::Relaxed) > 0)
            && drain_start.elapsed() < DRAIN_DEADLINE
        {
            std::thread::sleep(POLL_TICK);
        }
        drop(job_tx);
        for w in workers {
            let _ = w.join();
        }
        let _ = compactor.join();
        // Final fold: persist the query-cache working set and leave the
        // journal empty, so a clean shutdown hands the next daemon a
        // single complete snapshot.
        let entries = shared.cache.export_entries(QCACHE_PERSIST);
        let mut store = shared.store.lock();
        store.set_qcache_entries(entries);
        store.flush()?;
        Ok(())
    }
}

/// One worker thread. On a contained panic the thread quarantines itself
/// (exits, discarding all of its state) and spawns its replacement — the
/// queue and its siblings never stall.
fn spawn_worker(
    index: usize,
    shared: Arc<Shared>,
    jobs: Arc<Mutex<Receiver<Job>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("seqver-worker-{index}"))
        .spawn(move || loop {
            let job = {
                let rx = jobs.lock().expect("job queue");
                rx.recv_timeout(POLL_TICK)
            };
            let job = match job {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    // Retire once draining is done even if some connection
                    // thread still holds a sender clone open.
                    if shared.shutdown.load(Ordering::Relaxed)
                        && shared.inflight.load(Ordering::Relaxed) == 0
                    {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_verify(&shared, &job)
            }));
            let response = match outcome {
                Ok(response) => response,
                Err(payload) => {
                    // Quarantine-and-replace: this thread's solver state
                    // may be poisoned, so it exits after spawning a fresh
                    // replacement; the defective request gets a structured
                    // error and its siblings keep flowing.
                    shared.bump(Counter::PanicsContained);
                    shared.bump(Counter::WorkersReplaced);
                    shared.bump(Counter::Errors);
                    let reason = gemcutter::govern::panic_reason(payload.as_ref());
                    let response =
                        Response::error(&job.id, format!("request panicked (contained): {reason}"));
                    let _ = job.reply.send(response);
                    shared.inflight.fetch_sub(1, Ordering::Relaxed);
                    spawn_worker(index, Arc::clone(&shared), Arc::clone(&jobs));
                    return;
                }
            };
            let _ = job.reply.send(response);
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
        })
        .expect("spawn worker thread")
}

/// Serves one verification request end to end: compile, store lookup,
/// warm-seeded driver run with the retry ladder, store write-back.
fn handle_verify(shared: &Shared, job: &Job) -> Response {
    let start = Instant::now();
    let finish = |mut response: Response, shared: &Shared| {
        response.time_ms = start.elapsed().as_millis() as u64;
        match response.status {
            Some(Status::Error) => {
                shared.bump(Counter::Errors);
            }
            _ => {
                shared.bump(Counter::Ok);
            }
        }
        shared
            .latencies_ms
            .lock()
            .expect("latencies")
            .record(response.time_ms);
        response
    };

    // Test hook (the wire-level sibling of `--crash-at`): every panic a
    // fault plan can inject is already contained one layer down, inside
    // the driver's round-level `catch_unwind`, so this is the only
    // deterministic way to exercise the worker's own outermost
    // quarantine-and-replace layer from a protocol test.
    if job.opts.faults.as_deref() == Some("worker:panic") {
        panic!("injected worker fault");
    }

    // Fresh pool per request: panic quarantine is trivial (drop it), and
    // pools and their memos cannot grow without bound across a daemon's
    // lifetime. The shared query cache is the only cross-request solver
    // state; it sees only the lookups the pool's memo missed.
    let mut pool = TermPool::new();
    pool.set_shared_cache(shared.cache.clone());
    let program = match cpl::compile(&job.source, &mut pool) {
        Ok(program) => program,
        Err(e) => {
            return finish(
                Response::error(&job.id, format!("compile error: {e}")),
                shared,
            )
        }
    };
    let fingerprint = program_fingerprint(&pool, &program);

    // Exact fingerprint match: serve the persisted definitive verdict —
    // but only after its certificate clears the independent checker. The
    // physical checksums only prove the record is the bytes we wrote;
    // the certificate audit proves those bytes still constitute a proof
    // (or a replayable counterexample) of *this* program.
    let hit = shared
        .store
        .lock()
        .lookup(fingerprint)
        .map(|r| (r.verdict.clone(), r.rounds, r.certificate.clone()));
    if let Some((stored_verdict, rounds, certificate)) = hit {
        let audited = match (shared.config.certify, certificate) {
            (CertifyMode::Off, _) => true,
            // Sample tier: an unchanged record is audited once per
            // process, not once per hit — see `Shared::certs_audited`.
            (CertifyMode::Sample, Some(_))
                if shared
                    .certs_audited
                    .lock()
                    .expect("certs_audited")
                    .contains(&fingerprint) =>
            {
                true
            }
            (mode, Some(mut cert)) => {
                // Test hook: deterministic corruption on the lookup path,
                // modeling silent store rot below the checksums.
                shared
                    .config
                    .cert_faults
                    .hit(CertFaultSite::StoreServe, &mut cert);
                shared.bump(Counter::CertsChecked);
                let report = check_certificate(&mut pool, &program, &cert, mode);
                if report.ok {
                    shared.bump(Counter::CertsPassed);
                    if mode == CertifyMode::Sample {
                        shared
                            .certs_audited
                            .lock()
                            .expect("certs_audited")
                            .insert(fingerprint);
                    }
                    true
                } else {
                    eprintln!(
                        "warning: stored certificate for `{}` ({fingerprint:#018x}) failed the \
                         {} audit — {report}; quarantining the record and re-verifying",
                        program.name(),
                        mode.name(),
                    );
                    shared.bump(Counter::CertsQuarantined);
                    shared
                        .certs_audited
                        .lock()
                        .expect("certs_audited")
                        .remove(&fingerprint);
                    if let Err(e) = shared.store.quarantine(fingerprint) {
                        eprintln!("warning: quarantine failed: {e}");
                    }
                    false
                }
            }
            // Record predates certification (or its engine ran with
            // certificates off): nothing to audit, so it is not served
            // warm; the fresh run below re-records it with a certificate.
            (_, None) => false,
        };
        if audited {
            shared.bump(Counter::StoreHits);
            let verdict = match &stored_verdict {
                StoredVerdict::Correct => WireVerdict::Correct,
                StoredVerdict::Incorrect(trace) => WireVerdict::Incorrect(trace.clone()),
            };
            let response = Response {
                id: job.id.clone(),
                status: Some(Status::Ok),
                verdict: Some(verdict),
                rounds,
                store_hit: true,
                // A warm hit is served *from* the durable store: nothing
                // new needs fsyncing for the verdict to survive a crash.
                durable: shared.store.lock().persistent(),
                ..Response::default()
            };
            return finish(response, shared);
        }
    }

    // Near-duplicate warm start: same program name, different fingerprint.
    // Bounded — seeds are candidates the proof automaton re-validates one
    // by one, so an unbounded pile would cost time, not soundness.
    const MAX_WARM_SEEDS: usize = 256;
    let mut warm = shared
        .store
        .lock()
        .warm_assertions(program.name(), fingerprint);
    warm.truncate(MAX_WARM_SEEDS);
    if !warm.is_empty() {
        shared.bump(Counter::WarmStarts);
    }

    let mut config = VerifierConfig::gemcutter_seq();
    let deadline = job.opts.timeout.map_or(shared.config.request_timeout, |t| {
        t.min(shared.config.request_timeout)
    });
    config.govern.deadline = Some(deadline);
    for (cat, n) in &job.opts.steps {
        let Some(category) = Category::parse(cat) else {
            return finish(
                Response::error(&job.id, format!("unknown budget category `{cat}`")),
                shared,
            );
        };
        if let Err(e) = config.govern.set_step_budget(category, *n) {
            return finish(Response::error(&job.id, e), shared);
        }
    }
    if let Some(spec) = &job.opts.faults {
        match FaultPlan::parse(spec) {
            Ok(plan) => config.govern.fault_plan = plan,
            Err(e) => return finish(Response::error(&job.id, e), shared),
        }
    }

    // Warm seeds are candidates the proof automaton re-validates with
    // Hoare queries: soundness costs nothing, and every counter starts at
    // zero.
    let run = Run {
        retry: RetryPolicy::with_retries(shared.config.retries_for(job.opts.retries)),
        seed: warm.clone(),
        ..Run::single(&config)
    };
    let sup = drive(&mut pool, &program, &run);
    shared.runs.lock().expect("runs").merge(&sup.outcome.stats);

    let mut response = Response {
        id: job.id.clone(),
        status: Some(Status::Ok),
        rounds: sup.outcome.stats.rounds as u64,
        warm_assertions: warm.len() as u64,
        ..Response::default()
    };
    let stored = match &sup.outcome.verdict {
        Verdict::Correct => {
            response.verdict = Some(WireVerdict::Correct);
            Some(StoredVerdict::Correct)
        }
        Verdict::Incorrect { trace } => {
            let letters: Vec<u32> = trace.iter().map(|l| l.0).collect();
            response.verdict = Some(WireVerdict::Incorrect(letters.clone()));
            Some(StoredVerdict::Incorrect(letters))
        }
        Verdict::GaveUp(g) => {
            response.verdict = Some(WireVerdict::GaveUp);
            response.category = Some(g.category.to_string());
            response.reason = Some(g.reason.clone());
            // Budget-dependent outcomes are never persisted: a restart
            // with better luck or bigger budgets must be free to differ.
            None
        }
    };

    if let Some(verdict) = stored {
        // Test hook: deterministic corruption on the persist path,
        // modeling a verifier or serializer writing a wrong proof. The
        // record lands mutated; the store→serve audit must catch it on
        // the next lookup.
        let mut certificate = sup.outcome.certificate.clone();
        if let Some(cert) = certificate.as_mut() {
            shared
                .config
                .cert_faults
                .hit(CertFaultSite::EngineStore, cert);
        }
        // Journal the verdict and group-commit it *before* the response:
        // `OK` on the wire means the record survives a kill -9. The append
        // stages the frame under the lock; `commit` elects one thread per
        // batch to write + fsync everything pending, so concurrent workers
        // share a single fsync instead of paying one each.
        // The write-back replaces any prior record under this
        // fingerprint: its sample-audit memo no longer describes the
        // stored bytes, so the next warm hit must re-audit.
        shared
            .certs_audited
            .lock()
            .expect("certs_audited")
            .remove(&fingerprint);
        let appended = shared.store.lock().append(StoreRecord {
            fingerprint,
            name: program.name().to_owned(),
            verdict,
            rounds: sup.outcome.stats.rounds as u64,
            assertions: sup.harvest.clone(),
            certificate,
        });
        match appended {
            Ok(seq) => match shared.store.commit(seq) {
                Ok(()) => {
                    response.durable = shared.store.lock().persistent();
                }
                Err(e) => eprintln!("warning: proof store commit failed: {e}"),
            },
            Err(e) => eprintln!("warning: proof store append failed: {e}"),
        }
        // Deterministic kill -9 at the worst moment: the work is durable,
        // the response is not. Recovery tests restart and must re-serve
        // the finished prefix from the store. Charged once per persisted
        // definitive verdict.
        shared.config.crash_plan.hit(CrashSite::PostFsync);
    }
    finish(response, shared)
}

/// Serves one connection: frames in, responses out, one batch stats line
/// on close.
fn serve_connection(shared: &Shared, stream: TcpStream, job_tx: &Sender<Job>) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(MAX_FRAME);
    let mut read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut write_half = stream;
    let mut batch = BatchStats::default();
    let mut idle_since = Instant::now();

    loop {
        if shared.shutdown.load(Ordering::Relaxed) && !reader.mid_frame() {
            break;
        }
        // Short idle ticks so shutdown is noticed promptly; the real idle
        // budget is enforced across ticks.
        let tick = shared.config.idle_timeout.min(Duration::from_millis(200));
        let frame = match reader.read_frame(&mut read_half, tick, shared.config.io_timeout) {
            Ok(FrameEvent::Frame(frame)) => {
                idle_since = Instant::now();
                frame
            }
            Ok(FrameEvent::Closed) => break,
            Ok(FrameEvent::Idle) => {
                if idle_since.elapsed() >= shared.config.idle_timeout {
                    break;
                }
                continue;
            }
            Err(e) => {
                shared.bump(Counter::ProtocolErrors);
                // Best-effort structured goodbye; the framing layer is
                // compromised, so the connection closes either way.
                let goodbye = Response::error("", e.to_string());
                let _ = write_frame(&mut write_half, &goodbye.to_text());
                if !matches!(e, FrameError::Disconnected) {
                    batch.errors += 1;
                }
                break;
            }
        };
        shared.bump(Counter::Requests);
        let request = match Request::parse(&frame) {
            Ok(request) => request,
            Err(e) => {
                shared.bump(Counter::ProtocolErrors);
                shared.bump(Counter::Errors);
                batch.errors += 1;
                let resp = Response::error("", format!("bad request: {e}"));
                if write_frame(&mut write_half, &resp.to_text()).is_err() {
                    break;
                }
                continue;
            }
        };
        let response = match request.cmd {
            Command::Ping => Response {
                id: request.id,
                status: Some(Status::Ok),
                info: vec![("pong".to_owned(), "1".to_owned())],
                ..Response::default()
            },
            Command::Stats => Response {
                id: request.id,
                status: Some(Status::Ok),
                info: shared
                    .metrics()
                    .into_iter()
                    .map(|(key, n)| (key, n.to_string()))
                    .collect(),
                ..Response::default()
            },
            Command::Shutdown => {
                shared.shutdown.store(true, Ordering::Relaxed);
                Response {
                    id: request.id,
                    status: Some(Status::Ok),
                    info: vec![("draining".to_owned(), "1".to_owned())],
                    ..Response::default()
                }
            }
            Command::Verify { source, opts } => {
                dispatch_verify(shared, job_tx, request.id, source, opts, &mut batch)
            }
        };
        batch.note(&response);
        if write_frame(&mut write_half, &response.to_text()).is_err() {
            break;
        }
    }

    if batch.served > 0 {
        eprintln!("{}", batch.render(shared));
    }
}

/// Admission control + queue hand-off for one verification.
fn dispatch_verify(
    shared: &Shared,
    job_tx: &Sender<Job>,
    id: String,
    source: String,
    opts: crate::proto::VerifyOpts,
    batch: &mut BatchStats,
) -> Response {
    let cap = shared.config.max_inflight.max(1) + shared.config.queue_depth;
    loop {
        let current = shared.inflight.load(Ordering::Relaxed);
        if current >= cap {
            shared.bump(Counter::Busy);
            batch.shed += 1;
            return Response::busy(&id, RETRY_AFTER);
        }
        if shared
            .inflight
            .compare_exchange(current, current + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            break;
        }
    }
    let retries = shared.config.retries_for(opts.retries);
    let (reply_tx, reply_rx) = channel();
    let job = Job {
        id: id.clone(),
        source,
        opts,
        reply: reply_tx,
    };
    if job_tx.send(job).is_err() {
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        return Response::error(&id, "server is shutting down");
    }
    // Backstop only: the governor's deadline (capped by request_timeout,
    // escalated per retry) bounds real work, and panics are contained —
    // a worker always replies unless the process itself is dying.
    let ladder = 1u32 << retries.saturating_add(2).min(16);
    let backstop = shared
        .config
        .request_timeout
        .saturating_mul(ladder)
        .saturating_add(Duration::from_secs(10));
    match reply_rx.recv_timeout(backstop) {
        Ok(response) => response,
        Err(_) => {
            shared.bump(Counter::Errors);
            Response::error(&id, "request worker lost")
        }
    }
}

/// Per-connection batch accounting, reported as one stats line on stderr
/// on close (stdout stays the embedding program's).
#[derive(Default)]
struct BatchStats {
    served: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    store_hits: u64,
    warm_starts: u64,
    verifications: u64,
    latencies_ms: LatencyRing,
}

impl BatchStats {
    fn note(&mut self, response: &Response) {
        self.served += 1;
        match response.status {
            Some(Status::Ok) => self.ok += 1,
            Some(Status::Error) => self.errors += 1,
            _ => {}
        }
        if response.store_hit {
            self.store_hits += 1;
        }
        if response.warm_assertions > 0 {
            self.warm_starts += 1;
        }
        if response.verdict.is_some() {
            self.verifications += 1;
            self.latencies_ms.record(response.time_ms);
        }
    }

    /// This connection's counts, then every daemon-wide metric.
    fn render(&self, shared: &Shared) -> String {
        let (p50, p95, max) = self.latencies_ms.percentiles();
        let hit_rate = if self.verifications == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.verifications as f64
        };
        let mut line = format!(
            "batch: served={} ok={} errors={} shed={} store-hits={} hit-rate={hit_rate:.2} \
             warm-starts={} p50-ms={p50} p95-ms={p95} max-ms={max} daemon:",
            self.served, self.ok, self.errors, self.shed, self.store_hits, self.warm_starts,
        );
        for (key, n) in shared.metrics() {
            line.push_str(&format!(" {key}={n}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_slots_follow_the_name_table() {
        for (slot, (counter, _)) in Counter::ALL.iter().enumerate() {
            assert_eq!(*counter as usize, slot);
        }
    }

    #[test]
    fn latency_ring_stays_at_capacity() {
        let mut ring = LatencyRing::default();
        for ms in 0..10_000 {
            ring.record(ms);
        }
        assert_eq!(ring.samples.len(), LATENCY_SAMPLES);
        // Only the most recent samples remain.
        let oldest = 10_000 - LATENCY_SAMPLES as u64;
        assert_eq!(ring.samples.iter().min(), Some(&oldest));
        assert_eq!(ring.percentiles().2, 9_999);
    }
}
