//! Wire-protocol and fault-isolation battery for `seqver serve`, against
//! an in-process daemon on a loopback port: malformed frames, oversized
//! payloads, mid-frame disconnects and slow-loris trickles must produce a
//! structured goodbye (or a clean drop) without disturbing concurrent
//! requests; injected panics must be contained at both layers (the
//! supervisor's round-level catch and the worker's quarantine-and-replace
//! outer layer); and admission control must shed with `busy` + a retry
//! hint instead of queueing without bound.

use serve::client::Client;
use serve::proto::{
    write_frame, FrameEvent, FrameReader, Request, Response, Status, VerifyOpts, WireVerdict,
    MAX_FRAME,
};
use serve::server::{ServeConfig, Server};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct TestServer {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Result<(), String>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        let server = Server::bind(config).expect("bind test server");
        let addr = server.local_addr().expect("local addr").to_string();
        let shutdown = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::connect_with_timeout(&self.addr, Duration::from_secs(60)).expect("connect")
    }

    fn raw(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .expect("read timeout");
        stream
    }

    fn stat(&self, key: &str) -> u64 {
        let stats = self.client().stats().expect("stats");
        stats
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no stat `{key}` in {stats:?}"))
            .1
            .parse()
            .expect("numeric stat")
    }

    fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("running")
            .join()
            .expect("server thread")
            .expect("clean drain");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn fast_config() -> ServeConfig {
    ServeConfig {
        request_timeout: Duration::from_secs(20),
        io_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_secs(20),
        ..ServeConfig::default()
    }
}

/// `c <= bound` after one increment: correct for `bound >= 1`, a
/// deterministic bug (the `inc; chk` interleaving) for `bound == 0`.
fn source(bound: u32) -> String {
    format!(
        "var c: int = 0;\n\
         thread inc {{ c := c + 1; }}\n\
         thread chk {{ assert c <= {bound}; }}\n\
         spawn inc;\n\
         spawn chk;\n"
    )
}

/// Reads one frame from a raw socket, waiting out short idle ticks.
fn read_response(reader: &mut FrameReader, stream: &mut TcpStream) -> FrameEvent {
    for _ in 0..400 {
        match reader.read_frame(stream, Duration::from_millis(50), Duration::from_secs(5)) {
            Ok(FrameEvent::Idle) => continue,
            Ok(event) => return event,
            Err(e) => panic!("raw read failed: {e}"),
        }
    }
    panic!("no frame within the wait budget");
}

// ---------------------------------------------------------------------------
// Framing attacks
// ---------------------------------------------------------------------------

#[test]
fn malformed_length_line_gets_goodbye_and_close() {
    let server = TestServer::start(fast_config());
    let mut stream = server.raw();
    use std::io::Write;
    stream.write_all(b"not-a-number\njunk").expect("write");
    let mut reader = FrameReader::new(MAX_FRAME);
    match read_response(&mut reader, &mut stream) {
        FrameEvent::Frame(payload) => {
            let resp = Response::parse(&payload).expect("goodbye parses");
            assert_eq!(resp.status, Some(Status::Error));
            assert!(
                resp.reason.as_deref().unwrap_or("").contains("malformed"),
                "reason: {:?}",
                resp.reason
            );
        }
        other => panic!("expected goodbye frame, got {other:?}"),
    }
    assert_eq!(read_response(&mut reader, &mut stream), FrameEvent::Closed);
    server.stop();
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let server = TestServer::start(fast_config());
    let mut stream = server.raw();
    use std::io::Write;
    stream
        .write_all(format!("{}\n", MAX_FRAME + 1).as_bytes())
        .expect("write");
    let mut reader = FrameReader::new(MAX_FRAME);
    match read_response(&mut reader, &mut stream) {
        FrameEvent::Frame(payload) => {
            let resp = Response::parse(&payload).expect("goodbye parses");
            assert_eq!(resp.status, Some(Status::Error));
            assert!(
                resp.reason.as_deref().unwrap_or("").contains("oversized"),
                "reason: {:?}",
                resp.reason
            );
        }
        other => panic!("expected goodbye frame, got {other:?}"),
    }
    server.stop();
}

#[test]
fn mid_frame_disconnect_is_counted_and_contained() {
    let server = TestServer::start(fast_config());
    {
        let mut stream = server.raw();
        use std::io::Write;
        stream
            .write_all(b"50\nonly-part-of-the-frame")
            .expect("write");
        stream
            .shutdown(std::net::Shutdown::Both)
            .expect("disconnect");
    }
    // The damage is visible in the counters, and the daemon still serves.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stat("protocol-errors") == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "mid-frame disconnect never counted"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let resp = server
        .client()
        .verify_source("after-disconnect", &source(1), VerifyOpts::default())
        .expect("verify after disconnect");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    server.stop();
}

#[test]
fn slow_loris_is_dropped_while_sibling_is_served() {
    let server = TestServer::start(fast_config());
    // The attacker starts a frame and trickles nothing further.
    let mut attacker = server.raw();
    use std::io::Write;
    attacker.write_all(b"100\na-few-bytes").expect("write");
    // A sibling on its own connection is served normally meanwhile.
    let resp = server
        .client()
        .verify_source("sibling", &source(1), VerifyOpts::default())
        .expect("sibling verify");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    // The attacker's connection stalls out (io_timeout) with a structured
    // goodbye, then closes.
    let mut reader = FrameReader::new(MAX_FRAME);
    match read_response(&mut reader, &mut attacker) {
        FrameEvent::Frame(payload) => {
            let resp = Response::parse(&payload).expect("goodbye parses");
            assert_eq!(resp.status, Some(Status::Error));
            assert!(
                resp.reason.as_deref().unwrap_or("").contains("stalled"),
                "reason: {:?}",
                resp.reason
            );
        }
        other => panic!("expected goodbye frame, got {other:?}"),
    }
    assert_eq!(
        read_response(&mut reader, &mut attacker),
        FrameEvent::Closed
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// Request-level failures on a healthy wire
// ---------------------------------------------------------------------------

#[test]
fn bad_request_payload_leaves_connection_usable() {
    let server = TestServer::start(fast_config());
    let mut stream = server.raw();
    let mut reader = FrameReader::new(MAX_FRAME);
    // A well-framed frame whose payload is not a request.
    write_frame(&mut stream, "zalgo, he comes").expect("write");
    match read_response(&mut reader, &mut stream) {
        FrameEvent::Frame(payload) => {
            let resp = Response::parse(&payload).expect("error response parses");
            assert_eq!(resp.status, Some(Status::Error));
            assert!(
                resp.reason.as_deref().unwrap_or("").contains("bad request"),
                "reason: {:?}",
                resp.reason
            );
        }
        other => panic!("expected error response, got {other:?}"),
    }
    // Same connection, next frame: still served.
    let ping = Request::control("p-1", serve::proto::Command::Ping);
    write_frame(&mut stream, &ping.to_text()).expect("write ping");
    match read_response(&mut reader, &mut stream) {
        FrameEvent::Frame(payload) => {
            let resp = Response::parse(&payload).expect("pong parses");
            assert_eq!(resp.id, "p-1");
            assert_eq!(resp.status, Some(Status::Ok));
        }
        other => panic!("expected pong, got {other:?}"),
    }
    server.stop();
}

#[test]
fn compile_errors_are_structured_not_fatal() {
    let server = TestServer::start(fast_config());
    let mut client = server.client();
    let resp = client
        .verify_source(
            "nonsense",
            "this is not CPL at all {",
            VerifyOpts::default(),
        )
        .expect("response");
    assert_eq!(resp.status, Some(Status::Error));
    assert!(
        resp.reason
            .as_deref()
            .unwrap_or("")
            .contains("compile error"),
        "reason: {:?}",
        resp.reason
    );
    // Same connection keeps working.
    let resp = client
        .verify_source("valid", &source(1), VerifyOpts::default())
        .expect("verify");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    // An in-memory store has nothing to fsync: the daemon must not claim
    // the verdict is durable.
    assert!(
        !resp.durable,
        "durable acknowledgement without a persistent store: {resp:?}"
    );
    server.stop();
}

// ---------------------------------------------------------------------------
// Fault isolation: budgets, deadlines and panics
// ---------------------------------------------------------------------------

#[test]
fn budget_and_deadline_giveups_are_structured_per_request() {
    let server = TestServer::start(fast_config());
    let mut client = server.client();
    // Deterministic simulated timeout via the fault plan.
    let resp = client
        .verify_source(
            "deadline",
            &source(1),
            VerifyOpts {
                faults: Some("rounds:1:timeout".to_owned()),
                ..VerifyOpts::default()
            },
        )
        .expect("response");
    assert_eq!(resp.status, Some(Status::Ok));
    assert_eq!(resp.verdict, Some(WireVerdict::GaveUp));
    assert_eq!(resp.category.as_deref(), Some("deadline"));
    // Step-budget exhaustion.
    let resp = client
        .verify_source(
            "budget",
            &source(1),
            VerifyOpts {
                steps: vec![("dfs-states".to_owned(), 1)],
                ..VerifyOpts::default()
            },
        )
        .expect("response");
    assert_eq!(resp.verdict, Some(WireVerdict::GaveUp));
    assert_eq!(resp.category.as_deref(), Some("dfs-states"));
    // The same connection and daemon still conclude definitively, and
    // give-ups were not persisted as verdicts.
    let resp = client
        .verify_source("definitive", &source(1), VerifyOpts::default())
        .expect("verify");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    assert!(!resp.store_hit, "give-ups must not have seeded the store");
    server.stop();
}

/// A request may lower the daemon's `--retries`, never raise it: the
/// worker's escalation ladder and the connection's backstop then agree.
/// A `retries: 5` request on a `--retries 0` daemon runs one 100 ms
/// attempt instead of a six-rung ladder (100 ms doubling to 3.2 s).
#[test]
fn request_retries_are_capped_by_the_daemon() {
    let server = TestServer::start(ServeConfig {
        retries: 0,
        ..fast_config()
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/cpl/chain-wide.cpl"
    );
    let source = std::fs::read_to_string(path).expect("read chain-wide.cpl");
    let mut client = server.client();
    let started = std::time::Instant::now();
    let resp = client
        .verify_source(
            "chain-wide",
            &source,
            VerifyOpts {
                timeout: Some(Duration::from_millis(100)),
                retries: Some(5),
                ..VerifyOpts::default()
            },
        )
        .expect("response");
    let elapsed = started.elapsed();
    assert_eq!(resp.status, Some(Status::Ok), "{resp:?}");
    assert_eq!(resp.verdict, Some(WireVerdict::GaveUp), "{resp:?}");
    assert_eq!(resp.category.as_deref(), Some("deadline"), "{resp:?}");
    assert!(
        elapsed < Duration::from_secs(2),
        "a capped request took {elapsed:?}"
    );
    server.stop();
}

#[test]
fn injected_panic_is_contained_by_the_supervisor() {
    let server = TestServer::start(fast_config());
    let mut client = server.client();
    let resp = client
        .verify_source(
            "panicky",
            &source(1),
            VerifyOpts {
                // `dfs-states` is charged inside the proof-check loop, i.e.
                // within the supervisor's round-level `catch_unwind` (a
                // `rounds` fault would fire between rounds and escape to
                // the worker's outer quarantine layer instead).
                faults: Some("dfs-states:1:panic".to_owned()),
                ..VerifyOpts::default()
            },
        )
        .expect("response");
    // The supervisor's round-level catch converts the panic into a
    // structured give-up; the daemon and the connection never notice.
    assert_eq!(resp.status, Some(Status::Ok));
    assert_eq!(resp.verdict, Some(WireVerdict::GaveUp));
    assert_eq!(resp.category.as_deref(), Some("injected-fault"));
    let resp = client
        .verify_source("sibling", &source(1), VerifyOpts::default())
        .expect("sibling verify");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    server.stop();
}

#[test]
fn worker_panic_is_quarantined_and_replaced() {
    // One worker only: if quarantine-and-replace failed to spawn a live
    // replacement, the follow-up request could never complete.
    let server = TestServer::start(ServeConfig {
        max_inflight: 1,
        ..fast_config()
    });
    let mut client = server.client();
    let resp = client
        .verify_source(
            "boom",
            &source(1),
            VerifyOpts {
                faults: Some("worker:panic".to_owned()),
                ..VerifyOpts::default()
            },
        )
        .expect("structured error, not a dropped connection");
    assert_eq!(resp.status, Some(Status::Error));
    assert!(
        resp.reason
            .as_deref()
            .unwrap_or("")
            .contains("panicked (contained)"),
        "reason: {:?}",
        resp.reason
    );
    assert!(server.stat("panics-contained") >= 1);
    assert!(server.stat("workers-replaced") >= 1);
    // The replacement worker serves the next request.
    let resp = client
        .verify_source("after-boom", &source(1), VerifyOpts::default())
        .expect("verify after quarantine");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    server.stop();
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_busy_with_retry_hint_and_recovers() {
    let server = TestServer::start(ServeConfig {
        max_inflight: 1,
        queue_depth: 0,
        ..fast_config()
    });
    let addr = server.addr.clone();
    let mut threads = Vec::new();
    for t in 0..6 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client =
                Client::connect_with_timeout(&addr, Duration::from_secs(60)).expect("connect");
            let mut busy_seen = 0u64;
            for r in 0..3 {
                // Distinct programs, so no request is an instant store hit.
                let program = source(100 + t * 10 + r);
                let id = format!("flood-{t}-{r}");
                let mut attempts = 0;
                loop {
                    let resp = client
                        .verify_source(&id, &program, VerifyOpts::default())
                        .expect("response");
                    match resp.status {
                        Some(Status::Busy) => {
                            busy_seen += 1;
                            // Honor the daemon's own backoff guidance.
                            let backoff = resp.retry_after_ms.expect("busy carries a hint");
                            assert!(backoff > 0);
                            attempts += 1;
                            assert!(attempts < 1000, "starved out");
                            std::thread::sleep(Duration::from_millis(backoff));
                        }
                        _ => {
                            assert_eq!(resp.verdict, Some(WireVerdict::Correct), "{id}");
                            break;
                        }
                    }
                }
            }
            busy_seen
        }));
    }
    let busy_total: u64 = threads.into_iter().map(|t| t.join().expect("thread")).sum();
    // Six clients against a single worker with no queue: overlap is
    // effectively certain across 18 requests.
    assert!(busy_total >= 1, "no request was ever shed");
    assert!(server.stat("busy") >= busy_total);
    server.stop();
}

// ---------------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------------

#[test]
fn shutdown_request_drains_cleanly() {
    let server = TestServer::start(fast_config());
    let mut client = server.client();
    let resp = client
        .verify_source("pre-drain", &source(1), VerifyOpts::default())
        .expect("verify");
    assert_eq!(resp.verdict, Some(WireVerdict::Correct));
    let resp = client.shutdown().expect("shutdown ack");
    assert_eq!(resp.status, Some(Status::Ok));
    drop(client);
    server.stop();
}
