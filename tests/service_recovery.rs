//! Crash-recovery battery for the `seqver serve` daemon, run against the
//! real binary as a subprocess: a deterministic `kill -9` at the worst
//! moment (`--crash-at post-fsync:N` aborts right after a store flush,
//! before the response is sent) followed by a restart must re-serve the
//! finished prefix warm from the persistent proof store and reproduce the
//! uninterrupted batch's verdicts bit for bit; a corrupted store must
//! degrade to a warned cold start with — again — identical verdicts.

use serve::client::Client;
use serve::proto::{Response, Status, VerifyOpts};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_seqver");

/// `c <= bound` after `incs` unit increments: correct iff `bound >= incs`.
fn source(incs: u32, bound: u32) -> String {
    format!(
        "var c: int = 0;\n\
         thread inc {{ c := c + 1; }}\n\
         thread chk {{ assert c <= {bound}; }}\n\
         spawn inc * {incs};\n\
         spawn chk;\n"
    )
}

/// A small mixed batch: three definitive-correct programs and one with a
/// deterministic bug (its witness trace is part of the bit-exact verdict
/// line).
fn corpus() -> Vec<String> {
    vec![source(1, 1), source(2, 2), source(1, 0), source(3, 4)]
}

struct Daemon {
    child: Child,
    addr: String,
    stderr_path: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, store: &Path, extra: &[&str]) -> Daemon {
        static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let stderr_path = dir.join(format!(
            "daemon-{}.stderr",
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let stderr_file = std::fs::File::create(&stderr_path).expect("stderr file");
        let mut child = Command::new(BIN)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--request-timeout", "30s"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr_file))
            .spawn()
            .expect("spawn daemon");
        // The daemon announces its (port-0-resolved) address on stdout.
        let stdout = child.stdout.take().expect("stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon exited before announcing its address")
                .expect("read stdout");
            if let Some(addr) = line.strip_prefix("listening on ") {
                break addr.trim().to_owned();
            }
        };
        // Keep draining stdout (batch stats lines) so the pipe never fills.
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            addr,
            stderr_path,
        }
    }

    fn client(&self) -> Client {
        Client::connect_with_timeout(&self.addr, Duration::from_secs(120)).expect("connect")
    }

    /// Asks the daemon to drain, then expects a clean exit 0.
    fn shutdown_cleanly(mut self) -> String {
        self.client().shutdown().expect("shutdown ack");
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "daemon exited uncleanly: {status}");
        let mut stderr = String::new();
        std::fs::File::open(&self.stderr_path)
            .expect("stderr file")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        stderr
    }

    /// Waits for the daemon to die on its own (the `--crash-at` abort).
    fn wait_for_crash(mut self) {
        let status = self.child.wait().expect("wait");
        assert!(
            !status.success(),
            "daemon with --crash-at exited cleanly instead of aborting"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqver-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Submits the whole corpus over one connection, returning each response.
/// Stops early if the daemon dies mid-batch (the crash runs).
fn submit_batch(client: &mut Client, programs: &[String]) -> Vec<Result<Response, String>> {
    let mut out = Vec::new();
    for (i, program) in programs.iter().enumerate() {
        let result = client.verify_source(&format!("req-{i}"), program, VerifyOpts::default());
        let died = result.is_err();
        out.push(result);
        if died {
            break;
        }
    }
    out
}

fn verdict_lines(responses: &[Result<Response, String>]) -> Vec<String> {
    responses
        .iter()
        .map(|r| r.as_ref().expect("response").verdict_line())
        .collect()
}

fn stat(client: &mut Client, key: &str) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no stat `{key}` in {stats:?}"))
        .1
        .parse()
        .expect("numeric stat")
}

/// No response may ever carry evidence of an uncontained failure.
fn assert_no_panic_observed(responses: &[Result<Response, String>]) {
    for r in responses.iter().flatten() {
        assert!(
            !r.reason.as_deref().unwrap_or("").contains("panic"),
            "a request observed a panic: {r:?}"
        );
    }
}

#[test]
fn crash_mid_batch_then_restart_reproduces_the_batch_warm() {
    let dir = scratch_dir("crash");
    let programs = corpus();

    // Reference: one uninterrupted daemon serves the whole batch cold.
    let reference_store = dir.join("reference.store");
    let daemon = Daemon::start(&dir, &reference_store, &[]);
    let mut client = daemon.client();
    let reference = submit_batch(&mut client, &programs);
    let reference_lines = verdict_lines(&reference);
    assert_no_panic_observed(&reference);
    assert_eq!(reference_lines.len(), programs.len());
    assert!(
        reference_lines.iter().any(|l| l == "CORRECT"),
        "{reference_lines:?}"
    );
    assert!(
        reference_lines
            .iter()
            .any(|l| l.starts_with("INCORRECT trace=")),
        "{reference_lines:?}"
    );
    assert_eq!(stat(&mut client, "store-hits"), 0, "reference ran cold");
    drop(client);
    daemon.shutdown_cleanly();

    // Crash run: a fresh store, and an abort() immediately after the 2nd
    // verification's store flush — the work is on disk, the response was
    // never sent. The client observes a dead connection, not a panic.
    let store = dir.join("proofs.store");
    let daemon = Daemon::start(&dir, &store, &["--crash-at", "post-fsync:2"]);
    let mut client = daemon.client();
    let interrupted = submit_batch(&mut client, &programs);
    drop(client);
    daemon.wait_for_crash();
    assert!(
        interrupted.last().expect("at least one request").is_err(),
        "the crash must surface as a dead connection mid-batch"
    );
    let served: Vec<&Response> = interrupted.iter().flatten().collect();
    assert!(
        served.len() < programs.len(),
        "batch must have been cut short"
    );
    for (i, resp) in served.iter().enumerate() {
        assert_eq!(resp.verdict_line(), reference_lines[i], "pre-crash prefix");
    }
    assert!(store.exists(), "the store must have survived the abort");

    // Restart on the same store and resubmit everything: bit-identical
    // verdicts, with the persisted prefix served warm from the store.
    let daemon = Daemon::start(&dir, &store, &[]);
    let mut client = daemon.client();
    let recovered = submit_batch(&mut client, &programs);
    assert_no_panic_observed(&recovered);
    assert_eq!(verdict_lines(&recovered), reference_lines);
    let hits = stat(&mut client, "store-hits");
    assert!(
        hits >= 2,
        "both persisted pre-crash verdicts must be store hits, got {hits}"
    );
    for resp in recovered.iter().flatten().take(2) {
        assert!(
            resp.store_hit,
            "pre-crash prefix must be served from the store"
        );
    }
    drop(client);
    daemon.shutdown_cleanly();

    // One more restart: now the *whole* batch is warm.
    let daemon = Daemon::start(&dir, &store, &[]);
    let mut client = daemon.client();
    let warm = submit_batch(&mut client, &programs);
    assert_eq!(verdict_lines(&warm), reference_lines);
    assert_eq!(stat(&mut client, "store-hits"), programs.len() as u64);
    drop(client);
    daemon.shutdown_cleanly();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_store_cold_starts_with_a_warning_and_identical_verdicts() {
    let dir = scratch_dir("corrupt");
    let programs = corpus();
    let store = dir.join("proofs.store");

    // Build a fully populated store, then record the cold verdicts.
    let daemon = Daemon::start(&dir, &store, &[]);
    let mut client = daemon.client();
    let reference = submit_batch(&mut client, &programs);
    let reference_lines = verdict_lines(&reference);
    drop(client);
    daemon.shutdown_cleanly();

    // Damage it: chop off the tail, taking the completeness marker with
    // it — the shape a torn non-atomic writer would leave.
    let text = std::fs::read_to_string(&store).expect("read store");
    assert!(text.len() > 16);
    std::fs::write(&store, &text[..text.len() - 8]).expect("truncate store");

    // The daemon must come up anyway, warn the operator, and verify the
    // whole batch from scratch to the same verdicts.
    let daemon = Daemon::start(&dir, &store, &[]);
    let mut client = daemon.client();
    let recovered = submit_batch(&mut client, &programs);
    assert_no_panic_observed(&recovered);
    assert_eq!(verdict_lines(&recovered), reference_lines);
    assert_eq!(
        stat(&mut client, "store-hits"),
        0,
        "cold start after corruption"
    );
    drop(client);
    let stderr = daemon.shutdown_cleanly();
    assert!(
        stderr.contains("warning") || stderr.contains("cold"),
        "operator must be told about the cold start; stderr was: {stderr}"
    );

    // The rebuilt store is whole again: a final restart serves warm.
    let daemon = Daemon::start(&dir, &store, &[]);
    let mut client = daemon.client();
    let warm = submit_batch(&mut client, &programs);
    assert_eq!(verdict_lines(&warm), reference_lines);
    assert_eq!(stat(&mut client, "store-hits"), programs.len() as u64);
    drop(client);
    daemon.shutdown_cleanly();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn busy_responses_guide_a_full_batch_through_an_overloaded_daemon() {
    let dir = scratch_dir("shed");
    let store = dir.join("proofs.store");
    // A single worker with no queue: concurrent clients must be shed with
    // `busy` + a retry hint, and following the hint must still get every
    // request served eventually.
    let daemon = Daemon::start(&dir, &store, &["--max-inflight", "1", "--queue-depth", "0"]);
    let addr = daemon.addr.clone();
    let mut threads = Vec::new();
    for t in 0u32..4 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client =
                Client::connect_with_timeout(&addr, Duration::from_secs(120)).expect("connect");
            let mut busy = 0u64;
            for r in 0u32..3 {
                let program = source(1, 10 + t * 10 + r);
                loop {
                    let resp = client
                        .verify_source(&format!("shed-{t}-{r}"), &program, VerifyOpts::default())
                        .expect("response");
                    if resp.status == Some(Status::Busy) {
                        busy += 1;
                        std::thread::sleep(Duration::from_millis(
                            resp.retry_after_ms.expect("hint"),
                        ));
                        continue;
                    }
                    assert_eq!(resp.status, Some(Status::Ok));
                    break;
                }
            }
            busy
        }));
    }
    let busy_total: u64 = threads.into_iter().map(|t| t.join().expect("thread")).sum();
    assert!(busy_total >= 1, "overload never shed a single request");
    daemon.shutdown_cleanly();
    let _ = std::fs::remove_dir_all(&dir);
}
