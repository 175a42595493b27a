//! The `seqver serve` daemon.
//!
//! Architecture (all `std`, following `gemcutter::portfolio`'s
//! worker-thread idiom):
//!
//! ```text
//!  acceptor (nonblocking, polls the shutdown flag)
//!    └─ connection threads: framing, parsing, admission control
//!         └─ bounded job queue ──► N worker threads (one TermPool clone
//!            each, sharing one QueryCache), each request supervised by
//!            its own ResourceGovernor budget + escalation ladder
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
//!   `catch_unwind` with a *fresh* `TermPool` (sharing only the panic-safe
//!   query cache), inside [`gemcutter::drive`]'s escalation ladder and
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
use gemcutter::verify::{Verdict, VerifierConfig};
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
    /// Default escalation-ladder retries per request (a request's own
    /// `retries:` option wins).
    pub retries: u32,
    /// Crash-point injection plan (`--crash-at SITE:N`): deterministic
    /// `abort()`s at named durability sites, for the crash sweep. The old
    /// `--crash-after N` maps to `post-fsync:N`.
    pub crash_plan: Arc<CrashPlan>,
    /// Compact once the journal outgrows this multiple of the snapshot
    /// size.
    pub journal_max_ratio: f64,
    /// How many query-cache entries to persist alongside the records.
    pub qcache_persist: usize,
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
            qcache_persist: 2048,
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
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy_shed: AtomicU64,
    protocol_errors: AtomicU64,
    panics_contained: AtomicU64,
    workers_replaced: AtomicU64,
    store_hits: AtomicU64,
    warm_starts: AtomicU64,
    certs_checked: AtomicU64,
    certs_passed: AtomicU64,
    certs_quarantined: AtomicU64,
    certs_dropped: AtomicU64,
    /// Useless-cache counters, aggregated from each request's run stats
    /// (daemon-wide, like the `certs-*` family).
    useless_probes: AtomicU64,
    useless_hits: AtomicU64,
    /// Fingerprints whose stored certificate already cleared the sample
    /// audit in this process. In-memory records are immutable between
    /// replacement and quarantine, so re-auditing identical bytes on
    /// every warm hit is pure waste on the hot path; the entry is dropped
    /// whenever the record changes (write-back or quarantine), forcing a
    /// fresh audit on the next hit. The `full` and `structural` tiers
    /// never consult this — paranoid deployments re-check every serve.
    certs_audited: Mutex<HashSet<u64>>,
    latencies_ms: Mutex<Vec<u64>>,
}

impl Shared {
    fn stats_info(&self) -> Vec<(String, String)> {
        let mut info = vec![
            (
                "requests".to_owned(),
                self.requests.load(Ordering::Relaxed).to_string(),
            ),
            ("ok".to_owned(), self.ok.load(Ordering::Relaxed).to_string()),
            (
                "errors".to_owned(),
                self.errors.load(Ordering::Relaxed).to_string(),
            ),
            (
                "busy".to_owned(),
                self.busy_shed.load(Ordering::Relaxed).to_string(),
            ),
            (
                "protocol-errors".to_owned(),
                self.protocol_errors.load(Ordering::Relaxed).to_string(),
            ),
            (
                "panics-contained".to_owned(),
                self.panics_contained.load(Ordering::Relaxed).to_string(),
            ),
            (
                "workers-replaced".to_owned(),
                self.workers_replaced.load(Ordering::Relaxed).to_string(),
            ),
            (
                "store-hits".to_owned(),
                self.store_hits.load(Ordering::Relaxed).to_string(),
            ),
            (
                "warm-starts".to_owned(),
                self.warm_starts.load(Ordering::Relaxed).to_string(),
            ),
            (
                "certs-checked".to_owned(),
                self.certs_checked.load(Ordering::Relaxed).to_string(),
            ),
            (
                "certs-passed".to_owned(),
                self.certs_passed.load(Ordering::Relaxed).to_string(),
            ),
            (
                "certs-quarantined".to_owned(),
                self.certs_quarantined.load(Ordering::Relaxed).to_string(),
            ),
            (
                "certs-dropped".to_owned(),
                self.certs_dropped.load(Ordering::Relaxed).to_string(),
            ),
            (
                "useless-probes".to_owned(),
                self.useless_probes.load(Ordering::Relaxed).to_string(),
            ),
            (
                "useless-hits".to_owned(),
                self.useless_hits.load(Ordering::Relaxed).to_string(),
            ),
            (
                "store-records".to_owned(),
                self.store.lock().len().to_string(),
            ),
        ];
        {
            let store = self.store.lock();
            let js = store.stats();
            info.push(("journal-appends".to_owned(), js.appends.to_string()));
            info.push(("journal-fsyncs".to_owned(), js.fsyncs.to_string()));
            info.push(("compactions".to_owned(), js.compactions.to_string()));
            info.push((
                "journal-bytes".to_owned(),
                store.journal_bytes().to_string(),
            ));
            info.push((
                "snapshot-bytes".to_owned(),
                store.snapshot_bytes().to_string(),
            ));
            info.push(("durable-seq".to_owned(), store.durable_seq().to_string()));
        }
        let qc = self.cache.stats();
        info.push(("qcache-hits".to_owned(), qc.hits.to_string()));
        info.push(("qcache-misses".to_owned(), qc.misses.to_string()));
        info.push(("qcache-evictions".to_owned(), qc.evictions.to_string()));
        let (p50, p95, max) = percentiles(&self.latencies_ms.lock().expect("latencies"));
        info.push(("latency-p50-ms".to_owned(), p50.to_string()));
        info.push(("latency-p95-ms".to_owned(), p95.to_string()));
        info.push(("latency-max-ms".to_owned(), max.to_string()));
        info
    }
}

fn percentiles(samples: &[u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (at(0.50), at(0.95), sorted[sorted.len() - 1])
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
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy_shed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            warm_starts: AtomicU64::new(0),
            certs_checked: AtomicU64::new(0),
            certs_passed: AtomicU64::new(0),
            certs_quarantined: AtomicU64::new(0),
            certs_dropped: AtomicU64::new(0),
            useless_probes: AtomicU64::new(0),
            useless_hits: AtomicU64::new(0),
            certs_audited: Mutex::new(HashSet::new()),
            latencies_ms: Mutex::new(Vec::new()),
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
                            let entries = shared.cache.export_entries(shared.config.qcache_persist);
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
                            shared.panics_contained.fetch_add(1, Ordering::Relaxed);
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
        let entries = shared.cache.export_entries(shared.config.qcache_persist);
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
                    shared.panics_contained.fetch_add(1, Ordering::Relaxed);
                    shared.workers_replaced.fetch_add(1, Ordering::Relaxed);
                    shared.errors.fetch_add(1, Ordering::Relaxed);
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
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                shared.ok.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared
            .latencies_ms
            .lock()
            .expect("latencies")
            .push(response.time_ms);
        response
    };

    // Test hook (the wire-level sibling of `crash_after`): every panic a
    // fault plan can inject is already contained one layer down, inside
    // the driver's round-level `catch_unwind`, so this is the only
    // deterministic way to exercise the worker's own outermost
    // quarantine-and-replace layer from a protocol test.
    if job.opts.faults.as_deref() == Some("worker:panic") {
        panic!("injected worker fault");
    }

    // Fresh pool per request: panic quarantine is trivial (drop it), and
    // pools cannot grow without bound across a daemon's lifetime. The
    // shared query cache is the only cross-request solver state.
    let mut pool = TermPool::new();
    pool.set_query_cache(shared.cache.clone());
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
                shared.certs_checked.fetch_add(1, Ordering::Relaxed);
                let report = check_certificate(&mut pool, &program, &cert, mode);
                if report.ok {
                    shared.certs_passed.fetch_add(1, Ordering::Relaxed);
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
                    shared.certs_quarantined.fetch_add(1, Ordering::Relaxed);
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
            shared.store_hits.fetch_add(1, Ordering::Relaxed);
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
        shared.warm_starts.fetch_add(1, Ordering::Relaxed);
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
        let slot = match category {
            Category::SimplexPivots => &mut config.govern.simplex_pivot_budget,
            Category::DpllDecisions => &mut config.govern.dpll_decision_budget,
            Category::CdclConflicts => &mut config.govern.cdcl_conflict_budget,
            Category::BranchNodes => &mut config.govern.branch_node_budget,
            Category::DfsStates => &mut config.govern.dfs_state_budget,
            other => {
                return finish(
                    Response::error(&job.id, format!("category `{other}` has no step budget")),
                    shared,
                )
            }
        };
        *slot = Some(*n);
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
        retry: RetryPolicy::with_retries(job.opts.retries.unwrap_or(shared.config.retries)),
        seed: warm.clone(),
        ..Run::single(&config)
    };
    let sup = drive(&mut pool, &program, &run);
    shared
        .useless_probes
        .fetch_add(sup.outcome.stats.useless_probes as u64, Ordering::Relaxed);
    shared
        .useless_hits
        .fetch_add(sup.outcome.stats.cache_skips as u64, Ordering::Relaxed);
    shared
        .certs_dropped
        .fetch_add(sup.outcome.stats.certs_dropped as u64, Ordering::Relaxed);

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
        // the finished prefix from the store. Charged per persisted
        // definitive verdict so the old `--crash-after N` keeps counting
        // the same events it always did.
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
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
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
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let request = match Request::parse(&frame) {
            Ok(request) => request,
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.errors.fetch_add(1, Ordering::Relaxed);
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
                info: shared.stats_info(),
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
        println!("{}", batch.render(shared));
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
            shared.busy_shed.fetch_add(1, Ordering::Relaxed);
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
    let ladder = 1u32 << (shared.config.retries + 2).min(16);
    let backstop = shared
        .config
        .request_timeout
        .saturating_mul(ladder)
        .saturating_add(Duration::from_secs(10));
    match reply_rx.recv_timeout(backstop) {
        Ok(response) => response,
        Err(_) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            Response::error(&id, "request worker lost")
        }
    }
}

/// Per-connection batch accounting, reported as one stats line on close.
#[derive(Default)]
struct BatchStats {
    served: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    store_hits: u64,
    warm_starts: u64,
    latencies_ms: Vec<u64>,
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
            self.latencies_ms.push(response.time_ms);
        }
    }

    fn render(&self, shared: &Shared) -> String {
        let (p50, p95, max) = percentiles(&self.latencies_ms);
        let verifications = self.latencies_ms.len() as u64;
        let hit_rate = if verifications == 0 {
            0.0
        } else {
            self.store_hits as f64 / verifications as f64
        };
        format!(
            "batch: served={} ok={} errors={} shed={} store-hits={} hit-rate={:.2} warm-starts={} \
             certs-checked={} certs-passed={} certs-quarantined={} certs-dropped={} \
             useless-probes={} useless-hits={} \
             p50-ms={} p95-ms={} max-ms={} qcache-evictions={}",
            self.served,
            self.ok,
            self.errors,
            self.shed,
            self.store_hits,
            hit_rate,
            self.warm_starts,
            shared.certs_checked.load(Ordering::Relaxed),
            shared.certs_passed.load(Ordering::Relaxed),
            shared.certs_quarantined.load(Ordering::Relaxed),
            shared.certs_dropped.load(Ordering::Relaxed),
            shared.useless_probes.load(Ordering::Relaxed),
            shared.useless_hits.load(Ordering::Relaxed),
            p50,
            p95,
            max,
            shared.cache.stats().evictions,
        )
    }
}
