//! The traced run: re-drives the refinement loop of `gemcutter::verify`
//! through each layer's public functions, timing every call from outside
//! (spans) and tallying each layer's counters as before/after deltas.
//!
//! Nothing inside the verifier is instrumented. This module mirrors
//! `verify_spec` call for call at the default configuration, so its
//! verdicts, counts and certificates must equal the untraced `verify()`
//! outcome — [`run`] checks that per program, and that two traced passes
//! produce identical counts.

use crate::batch::verify_instance;
use crate::instances::Instance;
use crate::report::{ratio, Metrics};
use gemcutter::certify::{check_certificate, CertSpec, Certificate, CertifyMode, SpecCert};
use gemcutter::check::{
    check_proof, record_reduction, CheckConfig, CheckResult, CheckStats, UselessCache,
};
use gemcutter::engine::TraceHistory;
use gemcutter::govern::{Category, GiveUp, ResourceGovernor};
use gemcutter::interpolate::{analyze_trace_with_mode, InterpolationStats, TraceResult};
use gemcutter::proof::ProofAutomaton;
use gemcutter::snapshot::program_fingerprint;
use gemcutter::verify::{specs_of, Outcome, Verdict, VerifierConfig};
use program::commutativity::CommutativityOracle;
use program::concurrent::{Program, Spec};
use reduction::order::PreferenceOrder;
use reduction::persistent::PersistentSets;
use smt::term::TermPool;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed layer call.
struct Span {
    name: &'static str,
    program: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder, written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, program: usize) -> usize {
        let id = self.spans.len();
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            program,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end = self.epoch.elapsed();
    }

    fn span<T>(&mut self, name: &'static str, program: usize, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, program);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time per span name in ms: each span's duration minus the part
    /// its children cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - c).as_secs_f64() * 1e3;
        }
        out
    }

    fn write_tsv(&self, path: &Path, labels: &[String]) -> Result<(), String> {
        let mut out = String::from("id\tparent\tprogram\tname\tstart_us\tend_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                labels[s.program],
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Layer counters, summed over a pass.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts(BTreeMap<String, f64>);

impl Counts {
    fn add(&mut self, key: &str, v: usize) {
        *self.0.entry(key.to_owned()).or_insert(0.0) += v as f64;
    }

    fn max(&mut self, key: &str, v: usize) {
        let e = self.0.entry(key.to_owned()).or_insert(0.0);
        *e = e.max(v as f64);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Solver work of one layer call, from the counting governor and the
    /// pool's query cache.
    fn smt(&mut self, caller: &str, before: SmtSnap, after: SmtSnap) {
        for (what, a, b) in [
            ("decisions", after.decisions, before.decisions),
            ("conflicts", after.conflicts, before.conflicts),
            ("pivots", after.pivots, before.pivots),
            ("branch_nodes", after.branch_nodes, before.branch_nodes),
            ("qcache_hits", after.qcache_hits, before.qcache_hits),
            ("qcache_misses", after.qcache_misses, before.qcache_misses),
        ] {
            self.add(&format!("smt.{caller}.{what}"), (a - b) as usize);
        }
    }
}

/// Monotone solver counters at one instant.
#[derive(Clone, Copy, Default)]
struct SmtSnap {
    decisions: u64,
    conflicts: u64,
    pivots: u64,
    branch_nodes: u64,
    dfs_states: u64,
    qcache_hits: u64,
    qcache_misses: u64,
}

impl SmtSnap {
    fn take(pool: &TermPool) -> SmtSnap {
        let g = pool.governor();
        let q = pool.query_cache().map(|c| c.stats()).unwrap_or_default();
        SmtSnap {
            decisions: g.count(Category::DpllDecisions),
            conflicts: g.count(Category::CdclConflicts),
            pivots: g.count(Category::SimplexPivots),
            branch_nodes: g.count(Category::BranchNodes),
            dfs_states: g.count(Category::DfsStates),
            qcache_hits: q.hits,
            qcache_misses: q.misses,
        }
    }
}

/// The per-program quantities traced and untraced runs must agree on,
/// with `verify()`'s own definitions (`hoare_checks` is the last
/// analyzed spec's count before certificate recording).
#[derive(Clone, Debug, PartialEq)]
struct Summary {
    verdict: Verdict,
    rounds: usize,
    proof_size: usize,
    visited: usize,
    hoare_checks: usize,
}

impl Summary {
    fn of(outcome: &Outcome) -> Summary {
        Summary {
            verdict: outcome.verdict.clone(),
            rounds: outcome.stats.rounds,
            proof_size: outcome.stats.proof_size,
            visited: outcome.stats.visited_states,
            hoare_checks: outcome.stats.hoare_checks,
        }
    }
}

/// The untraced outcomes the traced run is held to.
pub struct Reference {
    outcomes: Vec<(Summary, Option<Certificate>)>,
    /// Wall time of the untraced pass.
    wall_s: f64,
}

impl Reference {
    /// Program `i`'s conclusive verdict: `Some(true)` for CORRECT,
    /// `Some(false)` for INCORRECT, `None` for a give-up.
    pub fn conclusive(&self, i: usize) -> Option<bool> {
        match self.outcomes[i].0.verdict {
            Verdict::Correct => Some(true),
            Verdict::Incorrect { .. } => Some(false),
            Verdict::GaveUp(_) => None,
        }
    }

    /// The programs that came with a certificate, paired with it.
    pub fn proven<'a>(&'a self, instances: &'a [Instance]) -> Vec<(&'a Instance, &'a Certificate)> {
        instances
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(inst, (_, cert))| cert.as_ref().map(|c| (inst, c)))
            .collect()
    }
}

/// One untraced, gated pass of `verify()` over `instances`.
pub fn reference_pass(instances: &[Instance]) -> Result<Reference, String> {
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(instances.len());
    for inst in instances {
        let v = verify_instance(inst)?;
        outcomes.push((Summary::of(&v.outcome), v.outcome.certificate));
    }
    Ok(Reference {
        outcomes,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Everything one spec's refinement loop carries across rounds.
struct SpecState {
    order: Box<dyn PreferenceOrder>,
    oracle: CommutativityOracle,
    persistent: Option<PersistentSets>,
    proof: ProofAutomaton,
    useless: UselessCache,
    check_config: CheckConfig,
    history: TraceHistory,
    useless_len: usize,
}

/// Shared context of one traced program.
struct Ctx<'a> {
    program: &'a Program,
    spec: Spec,
    config: &'a VerifierConfig,
    id: usize,
}

impl SpecState {
    fn new(pool: &mut TermPool, cx: &Ctx, tr: &mut Tracer, counts: &mut Counts) -> SpecState {
        let before = SmtSnap::take(pool);
        let (oracle, persistent) = tr.span("reduction.setup", cx.id, || {
            let mut oracle = CommutativityOracle::new(cx.config.commutativity);
            let persistent = cx
                .config
                .use_persistent
                .then(|| PersistentSets::new(pool, cx.program, &mut oracle));
            (oracle, persistent)
        });
        counts.smt("reduction", before, SmtSnap::take(pool));
        SpecState {
            order: cx.config.order.build(),
            oracle,
            persistent,
            proof: ProofAutomaton::new(),
            useless: UselessCache::new(),
            check_config: CheckConfig {
                use_sleep: cx.config.use_sleep,
                use_persistent: cx.config.use_persistent,
                proof_sensitive: cx.config.proof_sensitive,
                max_visited: cx.config.max_visited_per_round,
                dfs_threads: 1,
                freeze_useless: false,
            },
            history: TraceHistory::new(),
            useless_len: 0,
        }
    }

    /// One refinement round; `Some` when the spec is decided.
    fn round(
        &mut self,
        pool: &mut TermPool,
        cx: &Ctx,
        tr: &mut Tracer,
        counts: &mut Counts,
        s: &mut Summary,
    ) -> Option<(Verdict, Option<SpecCert>)> {
        let mut rs = CheckStats::default();
        let before = SmtSnap::take(pool);
        let result = tr.span("check", cx.id, || {
            let r = check_proof(
                pool,
                cx.program,
                cx.spec,
                self.order.as_ref(),
                &mut self.oracle,
                self.persistent.as_ref(),
                &mut self.proof,
                &mut self.useless,
                &self.check_config,
                &mut rs,
            );
            rs.useless_len = self.useless.len();
            r
        });
        counts.smt("check", before, SmtSnap::take(pool));
        counts.add("check.visited", rs.visited);
        counts.max("check.max_round_visited", rs.visited);
        counts.add("check.useless_probes", rs.useless_probes);
        counts.add("check.useless_hits", rs.cache_skips);
        self.useless_len = rs.useless_len;
        s.visited += rs.visited;
        s.hoare_checks = self.proof.stats().hoare_checks;
        s.proof_size = s.proof_size.max(self.proof.proof_size());
        match result {
            CheckResult::Proven => {
                let before = SmtSnap::take(pool);
                let cert = tr.span("certify.record", cx.id, || {
                    record_reduction(
                        pool,
                        cx.program,
                        cx.spec,
                        self.order.as_ref(),
                        &mut self.oracle,
                        self.persistent.as_ref(),
                        &mut self.proof,
                        &self.check_config,
                    )
                    .map(|rec| {
                        SpecCert::from_recorded(
                            pool,
                            &self.proof,
                            &rec,
                            cx.spec,
                            &cx.config.order,
                            &self.check_config,
                        )
                    })
                });
                let after = SmtSnap::take(pool);
                counts.smt("record", before, after);
                counts.add(
                    "certify.record_dfs_states",
                    (after.dfs_states - before.dfs_states) as usize,
                );
                if cert.is_none() {
                    counts.add("certify.certs_dropped", 1);
                }
                Some((Verdict::Correct, cert))
            }
            CheckResult::LimitReached => Some((
                Verdict::gave_up(
                    Category::DfsStates,
                    format!(
                        "state budget exhausted ({} states)",
                        cx.config.max_visited_per_round
                    ),
                ),
                None,
            )),
            CheckResult::Interrupted(g) => Some((Verdict::GaveUp(g), None)),
            CheckResult::Counterexample(trace) => {
                if self.history.record(&trace) {
                    return Some((
                        Verdict::gave_up(Category::NonProgress, "refinement made no progress"),
                        None,
                    ));
                }
                let mut istats = InterpolationStats::default();
                let before = SmtSnap::take(pool);
                let analyzed = tr.span("interpolate", cx.id, || {
                    analyze_trace_with_mode(
                        pool,
                        cx.program,
                        &trace,
                        cx.spec,
                        cx.config.interpolation,
                        &mut istats,
                    )
                });
                counts.smt("interpolate", before, SmtSnap::take(pool));
                counts.add("interpolate.calls", 1);
                counts.add("interpolate.sliced_statements", istats.sliced_statements);
                match analyzed {
                    TraceResult::Feasible => {
                        counts.add("interpolate.feasible", 1);
                        Some((Verdict::Incorrect { trace }, None))
                    }
                    TraceResult::Unknown => Some((
                        Verdict::GaveUp(pool.governor().give_up().unwrap_or_else(|| {
                            GiveUp::new(Category::UnknownTheory, "trace feasibility undecided")
                        })),
                        None,
                    )),
                    TraceResult::Infeasible { chain } => {
                        counts.add("interpolate.chain_assertions", chain.len());
                        for a in chain {
                            if self.proof.add_assertion(a) {
                                counts.add("interpolate.new_assertions", 1);
                            }
                        }
                        s.proof_size = s.proof_size.max(self.proof.proof_size());
                        None
                    }
                }
            }
        }
    }

    /// Folds the spec's end-of-loop gauges into the pass counters.
    fn finish(&self, counts: &mut Counts) {
        let o = self.oracle.stats();
        counts.add("commutativity.semantic_checks", o.semantic_checks);
        counts.add("commutativity.syntactic_hits", o.syntactic_hits);
        counts.add("commutativity.cache_hits", o.cache_hits);
        let p = self.proof.stats();
        counts.add("proof.hoare_checks", p.hoare_checks);
        counts.add("proof.cache_hits", p.cache_hits);
        counts.add("proof.assertions", self.proof.proof_size());
        counts.add("check.useless_len", self.useless_len);
    }
}

/// Mirrors `verify_spec`: rounds until the spec is decided.
fn traced_spec(
    pool: &mut TermPool,
    cx: &Ctx,
    tr: &mut Tracer,
    counts: &mut Counts,
    s: &mut Summary,
) -> (Verdict, Option<SpecCert>) {
    let mut st = SpecState::new(pool, cx, tr, counts);
    let governor = pool.governor().clone();
    let mut decided = None;
    for _ in 0..cx.config.max_rounds {
        if let Err(g) = governor.charge(Category::Rounds) {
            decided = Some((Verdict::GaveUp(g), None));
            break;
        }
        s.rounds += 1;
        let round = tr.enter("verify.round", cx.id);
        decided = st.round(pool, cx, tr, counts, s);
        tr.exit(round);
        if decided.is_some() {
            break;
        }
    }
    st.finish(counts);
    tr.span("verify.teardown", cx.id, || drop(st));
    decided.unwrap_or_else(|| {
        (
            Verdict::gave_up(
                Category::Rounds,
                format!("no proof within {} refinement rounds", cx.config.max_rounds),
            ),
            None,
        )
    })
}

/// Mirrors `verify()` on one program, then audits its certificate.
fn traced_program(
    inst: &Instance,
    id: usize,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(Summary, Option<Certificate>), String> {
    let root = tr.enter("program", id);
    let config = VerifierConfig::gemcutter_seq();
    let mut pool = TermPool::new();
    let program = tr.span("cpl.compile", id, || inst.compile(&mut pool))?;
    counts.add("cpl.letters", program.num_letters());
    // A governor with no limits changes nothing but tallies every solver
    // step and DFS state.
    pool.set_governor(ResourceGovernor::builder().build());
    pool.set_solver_kind(config.solver);
    let mut s = Summary {
        verdict: Verdict::Correct,
        rounds: 0,
        proof_size: 0,
        visited: 0,
        hoare_checks: 0,
    };
    let mut spec_certs = Vec::new();
    let mut failed_spec = None;
    for spec in specs_of(&program) {
        let cx = Ctx {
            program: &program,
            spec,
            config: &config,
            id,
        };
        let (verdict, cert) = traced_spec(&mut pool, &cx, tr, counts, &mut s);
        if verdict.is_correct() {
            spec_certs.push(cert);
        } else {
            s.verdict = verdict;
            failed_spec = Some(spec);
            break;
        }
    }
    let fingerprint = tr.span("certify.fingerprint", id, || {
        program_fingerprint(&pool, &program)
    });
    let certificate = match &s.verdict {
        Verdict::Correct => spec_certs
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .map(|specs| Certificate::Correct { fingerprint, specs }),
        Verdict::Incorrect { trace } => failed_spec.map(|spec| Certificate::Bug {
            fingerprint,
            spec: CertSpec::of(spec),
            trace: trace.iter().map(|l| l.0).collect(),
        }),
        Verdict::GaveUp(_) => None,
    };
    if let Some(cert) = &certificate {
        let report = tr.span("certify.audit", id, || {
            check_certificate(&mut pool, &program, cert, CertifyMode::Full)
        });
        counts.add("certify.audit_calls", 1);
        if !report.ok {
            return Err(format!("{}: certificate rejected: {report}", inst.label));
        }
    }
    tr.span("verify.teardown", id, || {
        drop(program);
        drop(pool);
    });
    tr.exit(root);
    Ok((s, certificate))
}

/// One traced pass over all instances.
struct TracedPass {
    outcomes: Vec<(Summary, Option<Certificate>)>,
    counts: Counts,
    tracer: Tracer,
    wall_s: f64,
}

fn traced_pass(instances: &[Instance]) -> Result<TracedPass, String> {
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(instances.len());
    for (id, inst) in instances.iter().enumerate() {
        outcomes.push(traced_program(inst, id, &mut tracer, &mut counts)?);
    }
    Ok(TracedPass {
        outcomes,
        counts,
        tracer,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Relative tolerance for simplex pivot counts between two passes with
/// the same seed. Pivots are the one counter observed to vary (by about
/// 2 in 10⁵ on `scale-traversal`, inside interpolation) while verdicts,
/// decisions, conflicts and every other count repeat exactly.
const PIVOT_TOLERANCE: f64 = 1e-3;

/// The largest share of traced wall time that may fall outside every
/// layer span.
const MAX_UNATTRIBUTED: f64 = 0.05;

/// Whether a count repeated across two passes with the same seed.
fn repeats(key: &str, a: f64, b: f64) -> bool {
    if key.ends_with(".pivots") {
        (a - b).abs() <= PIVOT_TOLERANCE * a.max(b)
    } else {
        a == b
    }
}

/// Two traced passes held to `reference` and to each other; writes the
/// first pass's spans to `spans_path` and returns the layer metrics.
pub fn run(
    instances: &[Instance],
    reference: &Reference,
    spans_path: &Path,
) -> Result<Metrics, String> {
    let first = traced_pass(instances)?;
    let second = traced_pass(instances)?;
    for ((inst, traced), untraced) in instances
        .iter()
        .zip(&first.outcomes)
        .zip(&reference.outcomes)
    {
        if traced != untraced {
            return Err(format!(
                "{}: traced run diverged from verify(): traced {:?} vs untraced {:?}",
                inst.label, traced.0, untraced.0
            ));
        }
    }
    let differing: Vec<String> = first
        .counts
        .0
        .keys()
        .chain(second.counts.0.keys())
        .filter(|k| !repeats(k, first.counts.get(k), second.counts.get(k)))
        .map(|k| format!("{k}: {} vs {}", first.counts.get(k), second.counts.get(k)))
        .collect();
    if !differing.is_empty() {
        return Err(format!(
            "two traced passes with the same seed disagree on {differing:?}"
        ));
    }
    let labels: Vec<String> = instances.iter().map(|i| i.label.clone()).collect();
    first.tracer.write_tsv(spans_path, &labels)?;

    let c = &first.counts;
    let t = first.tracer.self_ms();
    let ms = |name: &str| t.get(name).copied().unwrap_or(0.0);
    // Wall time no layer span covers: the self time of the per-program
    // root spans and the gaps between them.
    let wall_ms = first.wall_s * 1e3;
    let layers_ms: f64 = t
        .iter()
        .filter(|(name, _)| **name != "program")
        .map(|(_, ms)| ms)
        .sum();
    let unattributed_ms = wall_ms - layers_ms;
    if unattributed_ms > MAX_UNATTRIBUTED * wall_ms {
        return Err(format!(
            "layer spans leave {:.1}% of traced wall time unattributed, more than {:.0}%",
            unattributed_ms / wall_ms * 100.0,
            MAX_UNATTRIBUTED * 100.0
        ));
    }
    let visited = c.get("check.visited");
    let cert_bytes: usize = first
        .outcomes
        .iter()
        .filter_map(|(_, cert)| cert.as_ref())
        .map(|cert| cert.to_text().len())
        .sum();
    let smt_total = |what: &str| -> f64 {
        ["check", "interpolate", "record", "reduction"]
            .iter()
            .map(|caller| c.get(&format!("smt.{caller}.{what}")))
            .sum()
    };

    let mut m = Metrics::default();
    m.push("cpl.compile_ms", ms("cpl.compile"), "ms");
    m.push("cpl.letters", c.get("cpl.letters"), "count");
    m.push("reduction.setup_ms", ms("reduction.setup"), "ms");
    let (sem, syn, hits) = (
        c.get("commutativity.semantic_checks"),
        c.get("commutativity.syntactic_hits"),
        c.get("commutativity.cache_hits"),
    );
    m.push("commutativity.semantic_checks", sem, "count");
    m.push("commutativity.syntactic_hits", syn, "count");
    m.push("commutativity.cache_hits", hits, "count");
    m.push(
        "commutativity.hit_ratio",
        ratio(hits, hits + syn + sem),
        "ratio",
    );
    m.push("check.ms", ms("check"), "ms");
    m.push("check.visited", visited, "count");
    m.push(
        "check.max_round_visited",
        c.get("check.max_round_visited"),
        "count",
    );
    m.push(
        "check.us_per_state",
        ratio(ms("check") * 1e3, visited),
        "us",
    );
    let (probes, skips) = (c.get("check.useless_probes"), c.get("check.useless_hits"));
    m.push("check.useless_probes", probes, "count");
    m.push("check.useless_hits", skips, "count");
    m.push("check.useless_hit_ratio", ratio(skips, probes), "ratio");
    m.push("check.useless_len", c.get("check.useless_len"), "count");
    let hoare = c.get("proof.hoare_checks");
    m.push("proof.hoare_checks", hoare, "count");
    m.push("proof.cache_hits", c.get("proof.cache_hits"), "count");
    m.push("proof.hoare_per_state", ratio(hoare, visited), "ratio");
    m.push("proof.assertions", c.get("proof.assertions"), "count");
    m.push("interpolate.ms", ms("interpolate"), "ms");
    for key in [
        "calls",
        "feasible",
        "sliced_statements",
        "chain_assertions",
        "new_assertions",
    ] {
        let name = format!("interpolate.{key}");
        m.push(&name, c.get(&name), "count");
    }
    m.push(
        "interpolate.useful_ratio",
        ratio(
            c.get("interpolate.new_assertions"),
            c.get("interpolate.chain_assertions"),
        ),
        "ratio",
    );
    let rounds: usize = first.outcomes.iter().map(|(s, _)| s.rounds).sum();
    m.push("verify.rounds", rounds as f64, "count");
    m.push("verify.loop_self_ms", ms("verify.round"), "ms");
    m.push("verify.teardown_ms", ms("verify.teardown"), "ms");
    m.push("verify.unattributed_ms", unattributed_ms, "ms");
    m.push(
        "verify.trace_overhead",
        (first.wall_s - ms("certify.audit") / 1e3) / reference.wall_s,
        "ratio",
    );
    m.push("certify.record_ms", ms("certify.record"), "ms");
    m.push(
        "certify.record_dfs_states",
        c.get("certify.record_dfs_states"),
        "count",
    );
    m.push(
        "certify.certs_dropped",
        c.get("certify.certs_dropped"),
        "count",
    );
    m.push("certify.cert_bytes", cert_bytes as f64, "bytes");
    m.push("certify.audit_ms", ms("certify.audit"), "ms");
    m.push("certify.audit_calls", c.get("certify.audit_calls"), "count");
    for caller in ["check", "interpolate", "record", "reduction"] {
        for what in [
            "decisions",
            "conflicts",
            "pivots",
            "branch_nodes",
            "qcache_hits",
            "qcache_misses",
        ] {
            let name = format!("smt.{caller}.{what}");
            m.push(&name, c.get(&name), "count");
        }
    }
    let (qh, qm) = (smt_total("qcache_hits"), smt_total("qcache_misses"));
    m.push("smt.qcache_hit_ratio", ratio(qh, qh + qm), "ratio");
    Ok(m)
}
