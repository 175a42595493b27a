//! `seqver` — command-line front end of the verifier.
//!
//! ```text
//! seqver verify <file.cpl> [--order seq|lockstep|rand:<seed>|prio:<p0,p1,...>] [--config NAME]
//!                          [--no-proof-sensitivity] [--no-qcache] [--solver dpll|cdcl]
//!                          [--max-rounds N] [--portfolio]
//!                          [--parallel] [--deterministic]
//!                          [--timeout DUR] [--steps CAT=N] [--faults SPEC]
//! seqver info   <file.cpl>
//! seqver reduce <file.cpl> [--order ...] [--dot]
//! ```

use seqver::automata::dot::to_dot;
use seqver::cpl;
use seqver::gemcutter::certify::{check_certificate, CertifyMode};
use seqver::gemcutter::drive::{drive, RetryPolicy, Run, Schedule};
use seqver::gemcutter::govern::{Category, FaultPlan, GovernorConfig};
use seqver::gemcutter::portfolio::{default_portfolio, portfolio_verify};
use seqver::gemcutter::snapshot::fnv1a;
use seqver::gemcutter::snapshot::Snapshot;
use seqver::gemcutter::verify::{OrderSpec, Verdict, VerifierConfig};
use seqver::program::commutativity::{CommutativityLevel, CommutativityOracle};
use seqver::program::concurrent::{Program, Spec};
use seqver::reduction::reduce::{reduction_automaton, ReductionConfig};
use seqver::serve::certfault::CertFaultPlan;
use seqver::serve::client::{BusyRetryPolicy, Client};
use seqver::serve::crash::CrashPlan;
use seqver::serve::proto::{Status, VerifyOpts, WireVerdict};
use seqver::serve::server::{ServeConfig, Server};
use seqver::smt::{SolverKind, TermPool};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  seqver verify <file.cpl> [--order seq|lockstep|rand:<seed>] [--config gemcutter|automizer|sleep|persistent]
                           [--no-proof-sensitivity] [--no-qcache] [--solver dpll|cdcl]
                           [--max-rounds N] [--portfolio]
                           [--parallel] [--deterministic]
                           [--timeout DUR] [--steps CAT=N] [--faults SPEC]
                           [--retries N] [--escalate Fx]
                           [--checkpoint PATH] [--resume PATH]
                           [--certify off|structural|sample|full]
  seqver info   <file.cpl>
  seqver reduce <file.cpl> [--order seq|lockstep|rand:<seed>] [--dot]
  seqver serve  [--addr HOST:PORT] [--store PATH] [--max-inflight N]
                [--queue-depth N] [--request-timeout DUR] [--io-timeout DUR]
                [--idle-timeout DUR] [--retries N] [--journal-max-ratio F]
                [--crash-at SITE:N] [--crash-after N]
                [--certify off|structural|sample|full] [--cert-fault SITE:KIND:N]
  seqver submit <file.cpl>... --addr HOST:PORT [--timeout DUR] [--steps CAT=N]
                [--retries N] [--faults SPEC] [--retry-busy N]
                [--require-durable] [--stats] [--shutdown]

  --no-qcache      disable solver-level query memoization (escape hatch and
                   measurement baseline; verdicts are identical either way)
  --solver KIND    SMT boolean search engine: cdcl (default; watched
                   literals, 1UIP learning, incremental simplex) or dpll
                   (the legacy search, kept as the ablation baseline)
  --portfolio      race the five §8 preference orders sequentially
  --parallel       multi-threaded shared-proof portfolio (one engine per
                   preference order; assertions are exchanged between them)
  --deterministic  with --parallel: lockstep rounds with engine-index-ordered
                   assertion merges, reproducible across runs
  --timeout DUR    wall-clock deadline polled inside solver loops and the
                   proof-check DFS (e.g. 500ms, 1s, 2m); on expiry the run
                   ends with verdict GAVE-UP, exit code 3
  --steps CAT=N    step budget for one governor category (repeatable), e.g.
                   --steps simplex-pivots=10000 --steps dfs-states=50000
  --faults SPEC    deterministic fault injection for robustness testing:
                   comma-separated CATEGORY:N:KIND sites, KIND one of
                   unknown|timeout|panic, e.g. simplex-pivots:100:unknown
  --retries N      restart supervision: on GAVE-UP, retry up to N times with
                   escalated limits, recycling the partial proof of each
                   failed attempt into the next (single runs and --parallel)
  --escalate Fx    escalation factor per retry (default 2x): the --timeout
                   deadline and --steps budgets stretch by F each attempt
  --checkpoint P   write a crash-safe snapshot to P at every round boundary
                   (single-engine runs only); SIGINT writes a final snapshot
                   and exits 3
  --resume P       continue a killed verification from snapshot P (same
                   program and config; reaches the same verdict and
                   cumulative round count as an uninterrupted run)
  --certify MODE   self-check the run's proof certificate with the
                   independent checker before reporting: structural (replay
                   + inclusion, solver-free), sample (deterministic 1-in-8
                   obligation re-discharge), full (every obligation); a
                   rejected certificate exits 3 even on CORRECT

serve flags:
  --addr A         bind address (default 127.0.0.1:0; the chosen port is
                   printed as `listening on ADDR` at startup)
  --store P        crash-safe persistent proof store: verdicts, harvested
                   assertions and query-cache entries survive restarts and
                   kill -9 (omitted: in-memory only). Writes go to an
                   append-only journal at P.wal, fsynced before the client
                   is acknowledged, folded into P by background compaction
  --max-inflight N concurrent verification workers (default 4); admission
                   control sheds `busy` beyond max-inflight + queue-depth
  --queue-depth N  requests allowed to queue beyond the running ones
                   (default 4)
  --request-timeout DUR  per-request wall-clock ceiling (default 30s); a
                   hanging or runaway request returns GAVE-UP, its worker
                   survives
  --io-timeout DUR mid-frame stall timeout (slow-loris defense) and socket
                   write timeout (default 2s)
  --idle-timeout DUR  idle connection close (default 30s)
  --journal-max-ratio F  compact once the journal outgrows F x the
                   snapshot size (default 4; 0 compacts after every batch)
  --crash-at SITE:N  test aid: abort() at the N-th arrival of a named
                   durability site, comma-separable; sites: pre-append,
                   post-append, post-fsync, compact-tmp, pre-rename,
                   post-rename (deterministic kill -9 for crash sweeps)
  --crash-after N  shorthand for --crash-at post-fsync:N (kept for
                   compatibility with older recovery drills)
  --certify MODE   certificate audit tier for warm hits (default sample):
                   a stored verdict is served only after its certificate
                   clears the independent checker; a failing certificate
                   quarantines the record and the request is re-verified
                   fresh. off disables the audit (serves any checksummed
                   record), structural replays without the solver, full
                   re-discharges every obligation
  --cert-fault S   test aid: mutate the N-th certificate crossing a trust
                   boundary, comma-separable SITE:KIND:N specs; sites:
                   engine-store, store-serve; kinds: weaken-annotation,
                   drop-obligation, rehome-assertion, truncate-trace
                   (deterministic corruption for the mutation sweep — the
                   audit must quarantine it, never serve it)

submit flags:
  --addr A         daemon address (required)
  --retry-busy N   on a `busy` shed, honor the server's retry-after hint
                   up to N times before reporting BUSY (default 0)
  --require-durable  fail (exit 5) any definitive verdict the daemon did
                   not fsync before acknowledging; without it a
                   non-durable verdict only warns on stderr
  --stats          print server counters after the batch
  --shutdown       ask the daemon to drain and exit after the batch

submit exit codes: worst across the batch of 0 CORRECT, 1 INCORRECT,
  3 GAVE-UP (category in the verdict line), 4 BUSY, 5 ERROR/non-durable";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "verify" => cmd_verify(rest),
        "info" => cmd_info(rest),
        "reduce" => cmd_reduce(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load(path: &str, pool: &mut TermPool) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    cpl::compile(&source, pool).map_err(|e| format!("{path}:{e}"))
}

fn parse_order(spec: &str) -> Result<OrderSpec, String> {
    match spec {
        "seq" => Ok(OrderSpec::Seq),
        "lockstep" => Ok(OrderSpec::Lockstep),
        other => {
            if let Some(seed) = other.strip_prefix("rand:") {
                return seed
                    .parse()
                    .map(OrderSpec::Random)
                    .map_err(|_| format!("invalid seed in `{other}`"));
            }
            if let Some(perm) = other.strip_prefix("prio:") {
                let table: Result<Vec<u32>, _> = perm.split(',').map(str::parse).collect();
                return table
                    .map(OrderSpec::Priority)
                    .map_err(|_| format!("invalid priority table in `{other}`"));
            }
            Err(format!("unknown order `{other}`"))
        }
    }
}

struct Flags {
    file: String,
    order: Option<OrderSpec>,
    config: String,
    proof_sensitive: bool,
    qcache: bool,
    solver: SolverKind,
    max_rounds: Option<usize>,
    portfolio: bool,
    parallel: bool,
    deterministic: bool,
    dot: bool,
    govern: GovernorConfig,
    retries: u32,
    escalate: Option<u32>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    certify: Option<CertifyMode>,
}

/// Parses `500ms`, `1s`, `2m`, or a bare number of seconds.
fn parse_duration(spec: &str) -> Result<std::time::Duration, String> {
    let bad = || format!("invalid duration `{spec}` (expected e.g. 500ms, 1s, 2m)");
    let (digits, unit) = match spec.find(|c: char| !c.is_ascii_digit()) {
        Some(0) | None if spec.is_empty() => return Err(bad()),
        Some(split) => spec.split_at(split),
        None => (spec, "s"),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    match unit {
        "ms" => Ok(std::time::Duration::from_millis(n)),
        "s" => Ok(std::time::Duration::from_secs(n)),
        "m" => Ok(std::time::Duration::from_secs(n * 60)),
        _ => Err(bad()),
    }
}

/// Parses a `--steps CAT=N` budget assignment into the governor config.
fn parse_steps(govern: &mut GovernorConfig, spec: &str) -> Result<(), String> {
    let (cat, n) = spec
        .split_once('=')
        .ok_or_else(|| format!("invalid --steps `{spec}` (expected CATEGORY=N)"))?;
    let category =
        Category::parse(cat).ok_or_else(|| format!("unknown budget category `{cat}`"))?;
    let budget: u64 = n
        .parse()
        .map_err(|_| format!("invalid budget in --steps `{spec}`"))?;
    let slot = match category {
        Category::SimplexPivots => &mut govern.simplex_pivot_budget,
        Category::DpllDecisions => &mut govern.dpll_decision_budget,
        Category::CdclConflicts => &mut govern.cdcl_conflict_budget,
        Category::BranchNodes => &mut govern.branch_node_budget,
        Category::DfsStates => &mut govern.dfs_state_budget,
        other => return Err(format!("category `{other}` has no step budget")),
    };
    *slot = Some(budget);
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        file: String::new(),
        order: None,
        config: "gemcutter".to_owned(),
        proof_sensitive: true,
        qcache: true,
        solver: SolverKind::default(),
        max_rounds: None,
        portfolio: false,
        parallel: false,
        deterministic: false,
        dot: false,
        govern: GovernorConfig::default(),
        retries: 0,
        escalate: None,
        checkpoint: None,
        resume: None,
        certify: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--order" => {
                let v = it.next().ok_or("--order needs a value")?;
                flags.order = Some(parse_order(v)?);
            }
            "--config" => {
                flags.config = it.next().ok_or("--config needs a value")?.clone();
            }
            "--no-proof-sensitivity" => flags.proof_sensitive = false,
            "--no-qcache" => flags.qcache = false,
            "--solver" => {
                let v = it.next().ok_or("--solver needs a value")?;
                flags.solver = SolverKind::parse(v)
                    .ok_or_else(|| format!("unknown solver `{v}` (expected dpll or cdcl)"))?;
            }
            "--max-rounds" => {
                let v = it.next().ok_or("--max-rounds needs a value")?;
                flags.max_rounds = Some(v.parse().map_err(|_| "invalid --max-rounds")?);
            }
            "--portfolio" => flags.portfolio = true,
            "--parallel" => flags.parallel = true,
            "--deterministic" => flags.deterministic = true,
            "--dot" => flags.dot = true,
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs a value")?;
                flags.govern.deadline = Some(parse_duration(v)?);
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                parse_steps(&mut flags.govern, v)?;
            }
            "--faults" => {
                let v = it.next().ok_or("--faults needs a value")?;
                flags.govern.fault_plan = FaultPlan::parse(v)?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                flags.retries = v.parse().map_err(|_| "invalid --retries")?;
            }
            "--escalate" => {
                let v = it.next().ok_or("--escalate needs a value")?;
                flags.escalate = Some(RetryPolicy::parse_factor(v)?);
            }
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a value")?;
                flags.checkpoint = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = it.next().ok_or("--resume needs a value")?;
                flags.resume = Some(PathBuf::from(v));
            }
            "--certify" => {
                let v = it.next().ok_or("--certify needs a value")?;
                flags.certify = Some(CertifyMode::parse(v)?);
            }
            other if !other.starts_with("--") && flags.file.is_empty() => {
                flags.file = other.to_owned();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if flags.file.is_empty() {
        return Err("missing input file".to_owned());
    }
    Ok(flags)
}

fn build_config(flags: &Flags) -> Result<VerifierConfig, String> {
    let mut config = match flags.config.as_str() {
        "gemcutter" => VerifierConfig::gemcutter_seq(),
        "automizer" => VerifierConfig::automizer(),
        "sleep" => VerifierConfig::sleep_only(),
        "persistent" => VerifierConfig::persistent_only(),
        other => return Err(format!("unknown config `{other}`")),
    };
    if let Some(order) = &flags.order {
        config.order = order.clone();
        config.name = format!("{}-{}", flags.config, order.name());
    }
    if !flags.proof_sensitive {
        config = config.without_proof_sensitivity();
    }
    if !flags.qcache {
        config = config.without_qcache();
    }
    config = config.with_solver(flags.solver);
    if let Some(r) = flags.max_rounds {
        config.max_rounds = r;
    }
    config.govern = flags.govern.clone();
    Ok(config)
}

/// The portfolio members with the CLI's resource limits applied to each.
fn governed_portfolio(flags: &Flags) -> Vec<VerifierConfig> {
    let mut members = default_portfolio();
    for member in &mut members {
        member.govern = flags.govern.clone();
        member.use_qcache = flags.qcache;
        member.solver = flags.solver;
        if let Some(r) = flags.max_rounds {
            member.max_rounds = r;
        }
    }
    members
}

/// SIGINT routing for checkpointed runs: the handler raises a flag the
/// supervisor polls at round boundaries (write final checkpoint, exit 3).
static INTERRUPT: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(flag) = INTERRUPT.get() {
        flag.store(true, Ordering::Relaxed);
    }
}

/// Installs the SIGINT hook and returns the flag it raises. Uses libc's
/// `signal` directly (already linked through std) to avoid a dependency.
#[cfg(unix)]
fn install_sigint() -> Arc<AtomicBool> {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    let flag = Arc::clone(INTERRUPT.get_or_init(|| Arc::new(AtomicBool::new(false))));
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    flag
}

#[cfg(not(unix))]
fn install_sigint() -> Arc<AtomicBool> {
    Arc::clone(INTERRUPT.get_or_init(|| Arc::new(AtomicBool::new(false))))
}

/// Routes SIGINT *and* SIGTERM to `flag` — the daemon's drain trigger
/// (stop accepting, finish in-flight requests, flush the store, exit 0).
#[cfg(unix)]
fn install_shutdown_signals(flag: Arc<AtomicBool>) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let _ = INTERRUPT.set(flag);
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
        signal(SIGTERM, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals(flag: Arc<AtomicBool>) {
    let _ = INTERRUPT.set(flag);
}

fn cmd_verify(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let mut pool = TermPool::new();
    let program = load(&flags.file, &mut pool)?;
    if flags.deterministic && !flags.parallel {
        return Err("--deterministic requires --parallel".to_owned());
    }
    let supervised = flags.retries > 0
        || flags.escalate.is_some()
        || flags.checkpoint.is_some()
        || flags.resume.is_some();
    if (flags.checkpoint.is_some() || flags.resume.is_some()) && (flags.parallel || flags.portfolio)
    {
        return Err(
            "--checkpoint/--resume need a single-engine run (no --portfolio/--parallel)".to_owned(),
        );
    }
    if supervised && flags.portfolio {
        return Err("--retries is not supported with --portfolio (use --parallel)".to_owned());
    }
    let mut driven = None;
    let (verdict, stats, config_name, certificate) = if flags.portfolio {
        let result = portfolio_verify(&mut pool, &program, &governed_portfolio(&flags), true);
        let name = result.winner.clone().unwrap_or_else(|| "portfolio".into());
        (
            result.outcome.verdict,
            result.outcome.stats,
            name,
            result.outcome.certificate,
        )
    } else {
        let mut retry = RetryPolicy::with_retries(flags.retries);
        if let Some(f) = flags.escalate {
            retry = retry.escalating_by(f);
        }
        let resume = match &flags.resume {
            Some(path) => {
                let snap = Snapshot::load(path)?;
                if !snap.matches(&pool, &program) {
                    return Err(format!(
                        "snapshot `{}` was taken for a different program",
                        path.display()
                    ));
                }
                Some(snap)
            }
            None => None,
        };
        let (schedule, members) = match (flags.parallel, flags.deterministic) {
            (false, _) => (Schedule::TakeTurns, vec![build_config(&flags)?]),
            (true, true) => (Schedule::Lockstep, governed_portfolio(&flags)),
            (true, false) => (Schedule::Race, governed_portfolio(&flags)),
        };
        let run = Run {
            members,
            schedule,
            retry,
            resume,
            checkpoint: flags.checkpoint.clone(),
            interrupt: flags.checkpoint.is_some().then(install_sigint),
            ..Run::default()
        };
        let result = drive(&mut pool, &program, &run);
        let name = match (flags.parallel, &result.winner) {
            (false, _) => run.members[0].name.clone(),
            (true, Some(winner)) => winner.clone(),
            (true, None) => "parallel-portfolio".to_owned(),
        };
        let outcome = result.outcome.clone();
        driven = supervised.then_some(result);
        (outcome.verdict, outcome.stats, name, outcome.certificate)
    };
    println!(
        "{}: {} threads, {} statements (config: {config_name})",
        program.name(),
        program.num_threads(),
        program.num_letters()
    );
    let code = match &verdict {
        Verdict::Correct => {
            println!("verdict: CORRECT");
            ExitCode::SUCCESS
        }
        Verdict::Incorrect { trace } => {
            println!(
                "verdict: INCORRECT — witness interleaving ({} context switches):",
                seqver::gemcutter::trace::context_switches(&program, trace)
            );
            print!(
                "{}",
                seqver::gemcutter::trace::render_columns(&program, trace)
            );
            ExitCode::from(1)
        }
        Verdict::GaveUp(give_up) => {
            println!("verdict: GAVE-UP {give_up}");
            ExitCode::from(3)
        }
    };
    // Certificate self-check: the verdict above is only reported as
    // trustworthy if the independent checker agrees with it.
    let code = match flags.certify {
        None | Some(CertifyMode::Off) => code,
        Some(mode) => match &certificate {
            Some(cert) => {
                let report = check_certificate(&mut pool, &program, cert, mode);
                println!("certificate: {report}");
                if report.ok {
                    code
                } else {
                    eprintln!(
                        "error: the verdict's certificate failed the {} audit",
                        mode.name()
                    );
                    ExitCode::from(3)
                }
            }
            None => {
                if matches!(verdict, Verdict::GaveUp(_)) {
                    println!("certificate: none (GAVE-UP verdicts are not certified)");
                    code
                } else {
                    eprintln!("error: conclusive verdict without a certificate");
                    ExitCode::from(3)
                }
            }
        },
    };
    println!(
        "rounds={} proof_size={} visited={} hoare_checks={} qcache_hits={} qcache_misses={} qcache_hit_rate={:.2} useless_hits={} useless_probes={} useless_len={} time={:?}",
        stats.rounds,
        stats.proof_size,
        stats.visited_states,
        stats.hoare_checks,
        stats.qcache_hits,
        stats.qcache_misses,
        stats.qcache_hit_rate(),
        stats.cache_skips,
        stats.useless_probes,
        stats.useless_len,
        stats.time
    );
    if let Some(sup) = &driven {
        println!(
            "attempts={} recycled={} rounds_skipped={} hit_rate={:.2}",
            sup.attempts.len(),
            sup.recycled_assertions,
            sup.rounds_skipped,
            sup.recycle_hit_rate()
        );
        if sup.interrupted {
            if let Some(path) = &flags.checkpoint {
                println!("interrupted: checkpoint written to {}", path.display());
            }
        }
        if let Some(e) = &sup.checkpoint_error {
            eprintln!("warning: checkpointing degraded: {e}");
        }
    }
    Ok(code)
}

fn cmd_info(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let mut pool = TermPool::new();
    let program = load(&flags.file, &mut pool)?;
    println!("name:        {}", program.name());
    println!("threads:     {}", program.num_threads());
    for (i, t) in program.threads().iter().enumerate() {
        println!(
            "  T{i} `{}`: {} locations{}",
            t.name(),
            t.size(),
            if t.has_error_locations() {
                ", has asserts"
            } else {
                ""
            }
        );
    }
    println!("statements:  {}", program.num_letters());
    println!("globals:     {}", program.globals().len());
    println!("size(P):     {}", program.size());
    println!("pre:         {}", pool.display(program.pre()));
    println!("post:        {}", pool.display(program.post()));
    Ok(ExitCode::SUCCESS)
}

fn cmd_reduce(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args)?;
    let mut pool = TermPool::new();
    let program = load(&flags.file, &mut pool)?;
    let order = flags.order.clone().unwrap_or(OrderSpec::Seq).build();
    let spec = match program.asserting_threads().first() {
        Some(&t) => Spec::ErrorOf(t),
        None => Spec::PrePost,
    };
    let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
    let product = program.explicit_product(spec);
    let reduction = reduction_automaton(
        &mut pool,
        &program,
        spec,
        order.as_ref(),
        &mut oracle,
        ReductionConfig::default(),
    );
    println!(
        "product:   {} states, {} transitions",
        product.num_states(),
        product.num_transitions()
    );
    println!(
        "reduction: {} states, {} transitions (order {})",
        reduction.num_states(),
        reduction.num_transitions(),
        order.name()
    );
    if flags.dot {
        println!(
            "{}",
            to_dot(&reduction, &format!("{}-reduction", program.name()))
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut config = ServeConfig::default();
    let mut crash_specs: Vec<String> = Vec::new();
    let mut cert_fault_specs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--store" => {
                config.store_path = Some(PathBuf::from(it.next().ok_or("--store needs a value")?))
            }
            "--max-inflight" => {
                let v = it.next().ok_or("--max-inflight needs a value")?;
                config.max_inflight = v.parse().map_err(|_| "invalid --max-inflight")?;
                if config.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".to_owned());
                }
            }
            "--queue-depth" => {
                let v = it.next().ok_or("--queue-depth needs a value")?;
                config.queue_depth = v.parse().map_err(|_| "invalid --queue-depth")?;
            }
            "--request-timeout" => {
                let v = it.next().ok_or("--request-timeout needs a value")?;
                config.request_timeout = parse_duration(v)?;
            }
            "--io-timeout" => {
                let v = it.next().ok_or("--io-timeout needs a value")?;
                config.io_timeout = parse_duration(v)?;
            }
            "--idle-timeout" => {
                let v = it.next().ok_or("--idle-timeout needs a value")?;
                config.idle_timeout = parse_duration(v)?;
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                config.retries = v.parse().map_err(|_| "invalid --retries")?;
            }
            "--journal-max-ratio" => {
                let v = it.next().ok_or("--journal-max-ratio needs a value")?;
                config.journal_max_ratio = v
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .ok_or("invalid --journal-max-ratio")?;
            }
            "--crash-at" => {
                crash_specs.push(it.next().ok_or("--crash-at needs a value")?.clone());
            }
            "--crash-after" => {
                let n: u64 = it
                    .next()
                    .ok_or("--crash-after needs a value")?
                    .parse()
                    .map_err(|_| "invalid --crash-after")?;
                crash_specs.push(format!("post-fsync:{n}"));
            }
            "--certify" => {
                let v = it.next().ok_or("--certify needs a value")?;
                config.certify = CertifyMode::parse(v)?;
            }
            "--cert-fault" => {
                cert_fault_specs.push(it.next().ok_or("--cert-fault needs a value")?.clone());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !crash_specs.is_empty() {
        config.crash_plan = Arc::new(CrashPlan::parse(&crash_specs.join(","))?);
    }
    if !cert_fault_specs.is_empty() {
        config.cert_faults = Arc::new(CertFaultPlan::parse(&cert_fault_specs.join(","))?);
    }
    let server = Server::bind(config)?;
    for warning in server.store_warnings() {
        eprintln!("warning: {warning}");
    }
    install_shutdown_signals(server.shutdown_flag());
    // Port 0 resolves at bind time; tests and scripts scrape this line.
    println!("listening on {}", server.local_addr()?);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run()?;
    println!("drained: store flushed, exiting");
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut files: Vec<String> = Vec::new();
    let mut addr: Option<String> = None;
    let mut opts = VerifyOpts::default();
    let mut retry_busy = 0u32;
    let mut require_durable = false;
    let mut want_stats = false;
    let mut want_shutdown = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--timeout" => {
                let v = it.next().ok_or("--timeout needs a value")?;
                opts.timeout = Some(parse_duration(v)?);
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                let (cat, n) = v
                    .split_once('=')
                    .ok_or_else(|| format!("invalid --steps `{v}` (expected CATEGORY=N)"))?;
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("invalid budget in --steps `{v}`"))?;
                opts.steps.push((cat.to_owned(), n));
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                opts.retries = Some(v.parse().map_err(|_| "invalid --retries")?);
            }
            "--faults" => opts.faults = Some(it.next().ok_or("--faults needs a value")?.clone()),
            "--retry-busy" => {
                let v = it.next().ok_or("--retry-busy needs a value")?;
                retry_busy = v.parse().map_err(|_| "invalid --retry-busy")?;
            }
            "--require-durable" => require_durable = true,
            "--stats" => want_stats = true,
            "--shutdown" => want_shutdown = true,
            other if !other.starts_with("--") => files.push(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let addr = addr.ok_or("submit needs --addr HOST:PORT")?;
    if files.is_empty() && !want_stats && !want_shutdown {
        return Err("missing input files".to_owned());
    }
    let mut client = Client::connect(&addr)?;
    // Worst across the batch: 0 = correct < 1 = incorrect < 3 = gave-up
    // < 4 = busy (shed, retryable) < 5 = error/non-durable.
    let mut worst = 0u8;
    for (index, file) in files.iter().enumerate() {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        let id = format!("{index}-{file}");
        // Sheds are retried with capped exponential backoff over the
        // server's hint; the jitter seed is derived from the request id so
        // a fleet of submitters de-synchronizes, yet reruns are bit-stable.
        let policy = BusyRetryPolicy {
            max_retries: retry_busy,
            seed: fnv1a(id.as_bytes()),
            ..BusyRetryPolicy::default()
        };
        let (response, report) = client.verify_with_retry(&id, &source, opts.clone(), &policy)?;
        if report.busy_retries > 0 || report.budget_exhausted {
            eprintln!(
                "note: `{file}` was shed {} time(s); slept {:?}{}",
                report.busy_retries,
                report.slept,
                if report.budget_exhausted {
                    " (retry budget exhausted)"
                } else {
                    ""
                }
            );
        }
        let line = response.verdict_line();
        println!("{file}: {line}");
        // The durable-acknowledgement contract: a definitive verdict the
        // daemon did not fsync before acknowledging evaporates on kill -9.
        let definitive = matches!(
            response.verdict,
            Some(WireVerdict::Correct) | Some(WireVerdict::Incorrect(_))
        );
        let durability_failed = if definitive && !response.durable {
            if require_durable {
                eprintln!("error: `{file}` verdict was not durably persisted (--require-durable)");
            } else {
                eprintln!(
                    "warning: `{file}` verdict is not durable (in-memory store or commit \
                     failure); pass --require-durable to fail on this"
                );
            }
            require_durable
        } else {
            false
        };
        worst = worst.max(match (response.status, &response.verdict) {
            _ if durability_failed => 5,
            (Some(Status::Ok), Some(WireVerdict::Correct)) => 0,
            (Some(Status::Ok), Some(WireVerdict::Incorrect(_))) => 1,
            // The category rode the frame; the verdict line above prints
            // `GAVE-UP <category>: <reason>`.
            (Some(Status::Ok), Some(WireVerdict::GaveUp)) => 3,
            (Some(Status::Busy), _) => 4,
            _ => 5,
        });
    }
    if want_stats {
        for (key, value) in client.stats()? {
            println!("stat {key}={value}");
        }
    }
    if want_shutdown {
        client.shutdown()?;
        println!("shutdown requested");
    }
    Ok(ExitCode::from(worst))
}
