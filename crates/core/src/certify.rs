//! Certified verdicts: pool-independent proof certificates and their
//! independent checker.
//!
//! Every CORRECT verdict carries the annotation-level image of the
//! covered reduction: the Floyd/Hoare annotation as [`ExportedTerm`]s,
//! the annotation transition table, and every solver fact the traversal
//! relied on (bottoms, post entailments, commutativity claims). The
//! proving round records it with the proof check's own DFS: the check
//! writes each fact down as it goes, and then walks on, with no
//! useless-state cache, under the subtrees that cache let it skip (see
//! [`crate::check`]). Every BUG verdict carries the
//! counterexample trace. [`check_certificate`] re-validates either kind
//! with a deliberately small trusted base, independent of the engine that
//! produced the verdict:
//!
//! * the reduction's structural coverage is replayed from the certificate
//!   alone and re-checked as a language inclusion via `crates/automata`;
//! * every Hoare obligation is re-discharged with the legacy DPLL solver
//!   (`--solver=dpll`) with query memoization off (neither the pool memo
//!   nor a shared cache is read or filled), so a CDCL or cache bug cannot
//!   confirm its own output;
//! * bug traces are replayed concretely through `program::interp`,
//!   branching over escalating havoc domains, with an SSA feasibility
//!   check as the fallback for witnesses outside the concrete domains.
//!
//! The checker trusts: the term pool's evaluator/DPLL core, the
//! `crates/automata` inclusion check, and the program representation
//! itself. It does **not** trust the CDCL solver, the query cache, the
//! interpolation engine, the useless-state cache, or the store.

use crate::check::{CheckConfig, RecordedReduction};
use crate::interpolate::{analyze_trace, InterpolationStats, TraceResult};
use crate::proof::ProofAutomaton;
use crate::snapshot::program_fingerprint;
use crate::verify::{specs_of, OrderSpec};
use automata::bitset::BitSet;
use automata::dfa::{Dfa, DfaBuilder, StateId};
use automata::ops;
use program::commutativity::{CommutativityLevel, CommutativityOracle};
use program::concurrent::{LetterId, ProductState, Program, Spec};
use program::interp::Interpreter;
use program::thread::ThreadId;
use reduction::order::OrderContext;
use reduction::persistent::{MembraneMode, PersistentSets};
use smt::resource::{Category, ResourceGovernor};
use smt::solver::{check as smt_check, entails, SolverKind};
use smt::term::{TermId, TermPool};
use smt::transfer::ExportedTerm;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// How thoroughly a certificate is re-checked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CertifyMode {
    /// No checking; certificates pass through untouched.
    Off,
    /// Solver-free integrity tier: full replay of the reduction DFS from
    /// the certificate, automata-level inclusion against the annotation
    /// table, and all consistency rules. Recorded solver facts (bottoms,
    /// post entailments, commutativity claims) are trusted.
    Structural,
    /// Cheap spot-check for hot paths: all consistency rules plus a
    /// deterministic, budget-capped sample of the solver obligations (a
    /// 1-in-8 stripe rotated by the program fingerprint, at most
    /// [`SAMPLE_BUDGET`] re-discharged per check). The product replay is
    /// skipped to bound latency; full coverage is the `full` tier's job.
    #[default]
    Sample,
    /// Everything: structural replay, inclusion, and every solver
    /// obligation re-discharged.
    Full,
}

impl CertifyMode {
    /// Stable name, the inverse of [`CertifyMode::parse`].
    pub fn name(self) -> &'static str {
        match self {
            CertifyMode::Off => "off",
            CertifyMode::Structural => "structural",
            CertifyMode::Sample => "sample",
            CertifyMode::Full => "full",
        }
    }

    /// Parses `"off" | "structural" | "sample" | "full"`.
    pub fn parse(s: &str) -> Result<CertifyMode, String> {
        match s {
            "off" => Ok(CertifyMode::Off),
            "structural" => Ok(CertifyMode::Structural),
            "sample" => Ok(CertifyMode::Sample),
            "full" => Ok(CertifyMode::Full),
            other => Err(format!(
                "unknown certify mode `{other}` (expected off|structural|sample|full)"
            )),
        }
    }
}

/// Pool-independent image of a [`Spec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertSpec {
    /// The pre/post specification.
    PrePost,
    /// The assert specification for the given thread index.
    ErrorOf(u32),
}

impl CertSpec {
    /// The corresponding in-memory [`Spec`].
    pub fn to_spec(self) -> Spec {
        match self {
            CertSpec::PrePost => Spec::PrePost,
            CertSpec::ErrorOf(t) => Spec::ErrorOf(ThreadId(t)),
        }
    }

    /// The pool-independent image of `spec`.
    pub fn of(spec: Spec) -> CertSpec {
        match spec {
            Spec::PrePost => CertSpec::PrePost,
            Spec::ErrorOf(t) => CertSpec::ErrorOf(t.0),
        }
    }

    fn to_text(self) -> String {
        match self {
            CertSpec::PrePost => "pre-post".to_owned(),
            CertSpec::ErrorOf(t) => format!("error-of {t}"),
        }
    }

    fn parse(s: &str) -> Result<CertSpec, String> {
        if s == "pre-post" {
            return Ok(CertSpec::PrePost);
        }
        if let Some(t) = s.strip_prefix("error-of ") {
            return t
                .parse::<u32>()
                .map(CertSpec::ErrorOf)
                .map_err(|e| format!("bad spec thread: {e}"));
        }
        Err(format!("unknown spec `{s}`"))
    }
}

/// The certificate for one specification of a CORRECT verdict: the
/// Floyd/Hoare annotation (as a deduplicated node table over exported
/// assertions) plus everything needed to replay the covered reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecCert {
    /// Which specification this certifies.
    pub spec: CertSpec,
    /// The preference order the reduction was computed under.
    pub order: OrderSpec,
    /// Sleep sets were applied.
    pub use_sleep: bool,
    /// Weakly persistent membranes were applied.
    pub use_persistent: bool,
    /// Sleep commutativity was conditioned on `⋀Φ`.
    pub proof_sensitive: bool,
    /// The proof's assertions, pool-independent.
    pub assertions: Vec<ExportedTerm>,
    /// Annotation node table: each node is a sorted set of assertion
    /// indices.
    pub annotations: Vec<Vec<u32>>,
    /// Node covering the initial product state.
    pub initial: u32,
    /// Annotation transitions `(node, letter, node)`, sorted.
    pub edges: Vec<(u32, u32, u32)>,
    /// Nodes whose conjunction is claimed unsatisfiable (covered).
    pub bottoms: Vec<u32>,
    /// Nodes claimed to entail the postcondition at accepting states.
    pub safes: Vec<u32>,
    /// Proof-sensitive commutativity claims `(a, b, node)`:
    /// `a ↷↷_φ b` with `φ = ⋀ann(node)`.
    pub claims: Vec<(u32, u32, u32)>,
    /// Unconditional commutativity claims `(a, b)` with `a < b`.
    pub ucommute: Vec<(u32, u32)>,
}

impl SpecCert {
    /// Builds the pool-independent certificate from a recorded reduction.
    ///
    /// Proof states are renumbered densely in `ProofStateId` order, so two
    /// runs that build the same proof produce byte-identical certificates.
    pub fn from_recorded(
        pool: &TermPool,
        proof: &ProofAutomaton,
        rec: &RecordedReduction,
        spec: Spec,
        order: &OrderSpec,
        config: &CheckConfig,
    ) -> SpecCert {
        let mut states: BTreeSet<u32> = BTreeSet::new();
        states.insert(rec.initial.0);
        for &(f, _, t) in &rec.edges {
            states.insert(f.0);
            states.insert(t.0);
        }
        for &s in &rec.bottoms {
            states.insert(s.0);
        }
        for &s in &rec.safes {
            states.insert(s.0);
        }
        for &(_, _, s) in &rec.claims {
            states.insert(s.0);
        }
        let index: HashMap<u32, u32> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let annotations: Vec<Vec<u32>> = states
            .iter()
            .map(|&s| proof.assertion_set(crate::proof::ProofStateId(s)).to_vec())
            .collect();
        SpecCert {
            spec: CertSpec::of(spec),
            order: order.clone(),
            use_sleep: config.use_sleep,
            use_persistent: config.use_persistent,
            proof_sensitive: config.proof_sensitive,
            assertions: proof.assertions().iter().map(|&t| pool.export(t)).collect(),
            annotations,
            initial: index[&rec.initial.0],
            edges: rec
                .edges
                .iter()
                .map(|&(f, l, t)| (index[&f.0], l.0, index[&t.0]))
                .collect(),
            bottoms: rec.bottoms.iter().map(|s| index[&s.0]).collect(),
            safes: rec.safes.iter().map(|s| index[&s.0]).collect(),
            claims: rec
                .claims
                .iter()
                .map(|&(a, b, s)| (a.0, b.0, index[&s.0]))
                .collect(),
            ucommute: rec.ucommute.iter().map(|&(a, b)| (a.0, b.0)).collect(),
        }
    }
}

/// A checkable verdict certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Correct: one [`SpecCert`] per specification, in `specs_of` order.
    Correct {
        /// Fingerprint of the program the certificate was built for.
        fingerprint: u64,
        /// Per-specification proof certificates.
        specs: Vec<SpecCert>,
    },
    /// Incorrect: a counterexample trace violating one specification.
    Bug {
        /// Fingerprint of the program the certificate was built for.
        fingerprint: u64,
        /// The violated specification.
        spec: CertSpec,
        /// The violating trace, as letter indices.
        trace: Vec<u32>,
    },
}

impl Certificate {
    /// The program fingerprint the certificate binds to.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Certificate::Correct { fingerprint, .. } => *fingerprint,
            Certificate::Bug { fingerprint, .. } => *fingerprint,
        }
    }

    /// Serializes to a sequence of single-line records (no line is empty,
    /// none contains a newline) — the store embeds each under a `cert:`
    /// key.
    pub fn to_lines(&self) -> Vec<String> {
        let mut out = vec!["cert-format 1".to_owned()];
        match self {
            Certificate::Correct { fingerprint, specs } => {
                out.push(format!("verdict correct {fingerprint} {}", specs.len()));
                for sc in specs {
                    out.push(format!("spec {}", sc.spec.to_text()));
                    out.push(format!("order {}", order_to_text(&sc.order)));
                    out.push(format!(
                        "flags sleep={} persistent={} ps={}",
                        sc.use_sleep as u8, sc.use_persistent as u8, sc.proof_sensitive as u8
                    ));
                    for a in &sc.assertions {
                        out.push(format!("assert {}", a.to_text()));
                    }
                    for ann in &sc.annotations {
                        let mut line = "ann".to_owned();
                        for i in ann {
                            line.push(' ');
                            line.push_str(&i.to_string());
                        }
                        out.push(line);
                    }
                    out.push(format!("init {}", sc.initial));
                    for &(f, l, t) in &sc.edges {
                        out.push(format!("edge {f} {l} {t}"));
                    }
                    for &b in &sc.bottoms {
                        out.push(format!("bottom {b}"));
                    }
                    for &s in &sc.safes {
                        out.push(format!("safe {s}"));
                    }
                    for &(a, b, s) in &sc.claims {
                        out.push(format!("claim {a} {b} {s}"));
                    }
                    for &(a, b) in &sc.ucommute {
                        out.push(format!("ucommute {a} {b}"));
                    }
                    out.push("end-spec".to_owned());
                }
            }
            Certificate::Bug {
                fingerprint,
                spec,
                trace,
            } => {
                out.push(format!("verdict bug {fingerprint}"));
                out.push(format!("spec {}", spec.to_text()));
                let mut line = "trace".to_owned();
                for l in trace {
                    line.push(' ');
                    line.push_str(&l.to_string());
                }
                out.push(line);
            }
        }
        out.push("end-cert".to_owned());
        out
    }

    /// The certificate as one newline-joined text block.
    pub fn to_text(&self) -> String {
        self.to_lines().join("\n")
    }

    /// Parses the output of [`Certificate::to_lines`].
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(
        lines: I,
    ) -> Result<Certificate, String> {
        let mut it = lines.into_iter();
        let next = |it: &mut I::IntoIter| -> Result<&'a str, String> {
            it.next().ok_or_else(|| "truncated certificate".to_owned())
        };
        let header = next(&mut it)?;
        if header != "cert-format 1" {
            return Err(format!("unknown certificate format `{header}`"));
        }
        let verdict = next(&mut it)?;
        let cert = if let Some(rest) = verdict.strip_prefix("verdict correct ") {
            let mut parts = rest.split(' ');
            let fingerprint: u64 = parts
                .next()
                .ok_or("missing fingerprint")?
                .parse()
                .map_err(|e| format!("bad fingerprint: {e}"))?;
            let n: usize = parts
                .next()
                .ok_or("missing spec count")?
                .parse()
                .map_err(|e| format!("bad spec count: {e}"))?;
            let mut specs = Vec::with_capacity(n);
            for _ in 0..n {
                specs.push(parse_spec_cert(&mut it)?);
            }
            Certificate::Correct { fingerprint, specs }
        } else if let Some(rest) = verdict.strip_prefix("verdict bug ") {
            let fingerprint: u64 = rest.parse().map_err(|e| format!("bad fingerprint: {e}"))?;
            let spec_line = next(&mut it)?;
            let spec = CertSpec::parse(
                spec_line
                    .strip_prefix("spec ")
                    .ok_or_else(|| format!("expected spec line, got `{spec_line}`"))?,
            )?;
            let trace_line = next(&mut it)?;
            let rest = trace_line
                .strip_prefix("trace")
                .ok_or_else(|| format!("expected trace line, got `{trace_line}`"))?;
            let trace = rest
                .split_whitespace()
                .map(|t| {
                    t.parse::<u32>()
                        .map_err(|e| format!("bad trace letter: {e}"))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Certificate::Bug {
                fingerprint,
                spec,
                trace,
            }
        } else {
            return Err(format!("unknown verdict line `{verdict}`"));
        };
        let end = next(&mut it)?;
        if end != "end-cert" {
            return Err(format!("expected end-cert, got `{end}`"));
        }
        Ok(cert)
    }

    /// Parses a newline-joined text block.
    pub fn parse(text: &str) -> Result<Certificate, String> {
        Certificate::from_lines(text.lines())
    }
}

fn order_to_text(o: &OrderSpec) -> String {
    match o {
        OrderSpec::Seq => "seq".to_owned(),
        OrderSpec::Lockstep => "lockstep".to_owned(),
        OrderSpec::Random(s) => format!("rand {s}"),
        OrderSpec::Priority(p) => {
            let body: Vec<String> = p.iter().map(|t| t.to_string()).collect();
            format!("priority {}", body.join(","))
        }
    }
}

fn order_from_text(s: &str) -> Result<OrderSpec, String> {
    match s {
        "seq" => return Ok(OrderSpec::Seq),
        "lockstep" => return Ok(OrderSpec::Lockstep),
        _ => {}
    }
    if let Some(seed) = s.strip_prefix("rand ") {
        return seed
            .parse::<u64>()
            .map(OrderSpec::Random)
            .map_err(|e| format!("bad order seed: {e}"));
    }
    if let Some(body) = s.strip_prefix("priority ") {
        let p = body
            .split(',')
            .map(|t| t.parse::<u32>().map_err(|e| format!("bad priority: {e}")))
            .collect::<Result<Vec<u32>, String>>()?;
        return Ok(OrderSpec::Priority(p));
    }
    Err(format!("unknown order `{s}`"))
}

fn parse_spec_cert<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<SpecCert, String> {
    let mut spec = None;
    let mut order = None;
    let mut flags = None;
    let mut assertions = Vec::new();
    let mut annotations = Vec::new();
    let mut initial = None;
    let mut edges = Vec::new();
    let mut bottoms = Vec::new();
    let mut safes = Vec::new();
    let mut claims = Vec::new();
    let mut ucommute = Vec::new();
    for line in it {
        if line == "end-spec" {
            let (use_sleep, use_persistent, proof_sensitive) = flags.ok_or("missing flags line")?;
            return Ok(SpecCert {
                spec: spec.ok_or("missing spec line")?,
                order: order.ok_or("missing order line")?,
                use_sleep,
                use_persistent,
                proof_sensitive,
                assertions,
                annotations,
                initial: initial.ok_or("missing init line")?,
                edges,
                bottoms,
                safes,
                claims,
                ucommute,
            });
        }
        if let Some(rest) = line.strip_prefix("spec ") {
            spec = Some(CertSpec::parse(rest)?);
        } else if let Some(rest) = line.strip_prefix("order ") {
            order = Some(order_from_text(rest)?);
        } else if let Some(rest) = line.strip_prefix("flags ") {
            let mut sleep = None;
            let mut persistent = None;
            let mut ps = None;
            for tok in rest.split(' ') {
                let (key, val) = tok.split_once('=').ok_or("bad flags token")?;
                let b = match val {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad flag value `{val}`")),
                };
                match key {
                    "sleep" => sleep = Some(b),
                    "persistent" => persistent = Some(b),
                    "ps" => ps = Some(b),
                    _ => return Err(format!("unknown flag `{key}`")),
                }
            }
            flags = Some((
                sleep.ok_or("missing sleep flag")?,
                persistent.ok_or("missing persistent flag")?,
                ps.ok_or("missing ps flag")?,
            ));
        } else if let Some(rest) = line.strip_prefix("assert ") {
            assertions.push(ExportedTerm::parse(rest)?);
        } else if let Some(rest) = line.strip_prefix("ann") {
            let set = rest
                .split_whitespace()
                .map(|t| t.parse::<u32>().map_err(|e| format!("bad ann index: {e}")))
                .collect::<Result<Vec<u32>, String>>()?;
            annotations.push(set);
        } else if let Some(rest) = line.strip_prefix("init ") {
            initial = Some(rest.parse::<u32>().map_err(|e| format!("bad init: {e}"))?);
        } else if let Some(rest) = line.strip_prefix("edge ") {
            edges.push(parse_triple(rest)?);
        } else if let Some(rest) = line.strip_prefix("bottom ") {
            bottoms.push(
                rest.parse::<u32>()
                    .map_err(|e| format!("bad bottom: {e}"))?,
            );
        } else if let Some(rest) = line.strip_prefix("safe ") {
            safes.push(rest.parse::<u32>().map_err(|e| format!("bad safe: {e}"))?);
        } else if let Some(rest) = line.strip_prefix("claim ") {
            claims.push(parse_triple(rest)?);
        } else if let Some(rest) = line.strip_prefix("ucommute ") {
            let mut parts = rest.split(' ');
            let a = parse_u32(parts.next())?;
            let b = parse_u32(parts.next())?;
            ucommute.push((a, b));
        } else {
            return Err(format!("unknown certificate line `{line}`"));
        }
    }
    Err("truncated certificate (missing end-spec)".to_owned())
}

fn parse_u32(tok: Option<&str>) -> Result<u32, String> {
    tok.ok_or("missing field")?
        .parse::<u32>()
        .map_err(|e| format!("bad field: {e}"))
}

fn parse_triple(s: &str) -> Result<(u32, u32, u32), String> {
    let mut parts = s.split(' ');
    Ok((
        parse_u32(parts.next())?,
        parse_u32(parts.next())?,
        parse_u32(parts.next())?,
    ))
}

/// Outcome of a certificate check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifyReport {
    /// The certificate validates under the requested mode.
    pub ok: bool,
    /// Why it was rejected (empty when `ok`).
    pub reason: String,
    /// Solver obligations enumerated (whether or not sampled in).
    pub obligations: usize,
    /// Solver obligations actually re-discharged.
    pub checked: usize,
}

impl CertifyReport {
    fn pass(obligations: usize, checked: usize) -> CertifyReport {
        CertifyReport {
            ok: true,
            reason: String::new(),
            obligations,
            checked,
        }
    }

    fn fail(reason: impl Into<String>, obligations: usize, checked: usize) -> CertifyReport {
        CertifyReport {
            ok: false,
            reason: reason.into(),
            obligations,
            checked,
        }
    }
}

impl fmt::Display for CertifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok {
            write!(
                f,
                "ok ({} obligations, {} re-discharged)",
                self.obligations, self.checked
            )
        } else {
            write!(f, "REJECTED: {}", self.reason)
        }
    }
}

/// Re-validates `cert` against a freshly compiled `program` in `pool`.
///
/// The pool is temporarily switched to the DPLL solver with memoization
/// off (neither the pool memo nor a shared cache is read or filled) and
/// an unlimited governor, so every re-discharged obligation is answered
/// by a code path independent of the CDCL engine and of any verdict the
/// engine computed; the previous solver, memoization switch and governor
/// are restored before returning. The check runs to completion — callers on
/// latency-sensitive paths should use [`CertifyMode::Sample`] or
/// [`CertifyMode::Structural`].
pub fn check_certificate(
    pool: &mut TermPool,
    program: &Program,
    cert: &Certificate,
    mode: CertifyMode,
) -> CertifyReport {
    if mode == CertifyMode::Off {
        return CertifyReport::pass(0, 0);
    }
    let saved_kind = pool.solver_kind();
    let saved_memoize = pool.query_cache().is_some();
    let saved_governor = pool.governor().clone();
    pool.set_solver_kind(SolverKind::Dpll);
    pool.set_memoization(false);
    // The sample tier runs under a small deterministic step budget: a
    // governor trip mid-obligation means the spot-check ran out of
    // latency budget, not that the certificate is wrong, and the caller
    // stops re-discharging instead of rejecting. Full and structural
    // checks run to completion.
    let governor = if mode == CertifyMode::Sample {
        ResourceGovernor::builder()
            .budget(Category::DpllDecisions, SAMPLE_DECISION_BUDGET)
            .budget(Category::SimplexPivots, 16 * SAMPLE_DECISION_BUDGET)
            .build()
    } else {
        ResourceGovernor::unlimited()
    };
    pool.set_governor(governor);
    let report = check_inner(pool, program, cert, mode);
    pool.set_solver_kind(saved_kind);
    pool.set_governor(saved_governor);
    pool.set_memoization(saved_memoize);
    report
}

/// Upper bound on solver obligations re-discharged per `Sample` check.
///
/// The sample tier guards the warm-serve path, where the whole audit has
/// a latency budget of a small fraction of a request (~100µs against a
/// ~1ms warm hit); a single pathological obligation can cost hundreds of
/// microseconds to re-discharge, so the spot-check is capped by count,
/// not by rate alone.
pub const SAMPLE_BUDGET: usize = 2;

/// Per-obligation size cap for the sample tier, in constraint atoms.
///
/// The fresh-pool DPLL re-discharge is worst-case exponential in the
/// formula, so a count budget alone does not bound latency — one
/// obligation over a wide annotation conjunction can cost milliseconds.
/// Sampled obligations whose certificate-side formulas exceed this many
/// atoms are skipped (left to the `full` tier) instead of re-discharged.
pub const SAMPLE_ATOM_CAP: usize = 24;

/// Boolean-search step budget for one `Sample` check (charged per DPLL
/// branch node; the simplex budget scales off it). The atom cap bounds
/// the *size* of what the spot-check attempts; this bounds the *time* —
/// DPLL is worst-case exponential, so even a small formula can blow the
/// latency budget without a step cap. A trip is a skip, never a reject.
pub const SAMPLE_DECISION_BUDGET: u64 = 2_000;

/// Number of constraint atoms in an exported term — the cost proxy the
/// sample tier budgets obligations by.
fn atom_count(t: &ExportedTerm) -> usize {
    match t {
        ExportedTerm::True | ExportedTerm::False => 0,
        ExportedTerm::Atom { .. } => 1,
        ExportedTerm::And(cs) | ExportedTerm::Or(cs) => cs.iter().map(atom_count).sum(),
    }
}

/// Memoized on-demand interning of a certificate's assertions and
/// annotation conjunctions: nothing is imported until an obligation that
/// uses it is actually re-discharged.
struct LazyImports<'a> {
    sc: &'a SpecCert,
    terms: Vec<Option<TermId>>,
    conjs: Vec<Option<TermId>>,
}

impl<'a> LazyImports<'a> {
    fn new(sc: &'a SpecCert) -> LazyImports<'a> {
        LazyImports {
            sc,
            terms: vec![None; sc.assertions.len()],
            conjs: vec![None; sc.annotations.len()],
        }
    }

    /// The interned assertion `i`.
    fn term(&mut self, pool: &mut TermPool, i: usize) -> TermId {
        if let Some(t) = self.terms[i] {
            return t;
        }
        let t = pool.import(&self.sc.assertions[i]);
        self.terms[i] = Some(t);
        t
    }

    /// The interned conjunction of annotation node `node`.
    fn conj(&mut self, pool: &mut TermPool, node: usize) -> TermId {
        if let Some(t) = self.conjs[node] {
            return t;
        }
        let n = self.sc.annotations[node].len();
        let mut parts = Vec::with_capacity(n);
        for k in 0..n {
            let i = self.sc.annotations[node][k] as usize;
            parts.push(self.term(pool, i));
        }
        let t = pool.and(parts);
        self.conjs[node] = Some(t);
        t
    }
}

/// Tracks obligation sampling: `Full` checks everything, `Sample` checks
/// a deterministic 1-in-8 stripe rotated by the salt until the
/// [`SAMPLE_BUDGET`] is spent, skipping obligations costed above
/// [`SAMPLE_ATOM_CAP`]; `Structural` counts without checking.
struct Obligations {
    mode: CertifyMode,
    salt: u64,
    total: usize,
    checked: usize,
}

impl Obligations {
    /// Decides whether to re-discharge the next obligation, whose
    /// certificate-side formulas total `cost` constraint atoms.
    fn take(&mut self, cost: usize) -> bool {
        let i = self.total as u64;
        self.total += 1;
        let selected = match self.mode {
            CertifyMode::Full => true,
            CertifyMode::Sample => {
                self.checked < SAMPLE_BUDGET
                    && cost <= SAMPLE_ATOM_CAP
                    && (i.wrapping_add(self.salt)).is_multiple_of(8)
            }
            _ => false,
        };
        if selected {
            self.checked += 1;
        }
        selected
    }
}

fn check_inner(
    pool: &mut TermPool,
    program: &Program,
    cert: &Certificate,
    mode: CertifyMode,
) -> CertifyReport {
    let fp = program_fingerprint(pool, program);
    if cert.fingerprint() != fp {
        return CertifyReport::fail(
            format!(
                "fingerprint mismatch: certificate {:016x}, program {:016x}",
                cert.fingerprint(),
                fp
            ),
            0,
            0,
        );
    }
    let specs = specs_of(program);
    match cert {
        Certificate::Correct { specs: scs, .. } => {
            let want: Vec<CertSpec> = specs.iter().map(|&s| CertSpec::of(s)).collect();
            let have: Vec<CertSpec> = scs.iter().map(|sc| sc.spec).collect();
            if want != have {
                return CertifyReport::fail(
                    format!("specification list mismatch: program {want:?}, certificate {have:?}"),
                    0,
                    0,
                );
            }
            let mut ob = Obligations {
                mode,
                salt: fp,
                total: 0,
                checked: 0,
            };
            for sc in scs {
                if let Err(reason) = check_spec_cert(pool, program, sc, mode, &mut ob) {
                    return CertifyReport::fail(
                        format!("[{}] {reason}", sc.spec.to_text()),
                        ob.total,
                        ob.checked,
                    );
                }
            }
            CertifyReport::pass(ob.total, ob.checked)
        }
        Certificate::Bug { spec, trace, .. } => {
            if !specs.contains(&spec.to_spec()) {
                return CertifyReport::fail(
                    format!(
                        "bug spec {} not a specification of the program",
                        spec.to_text()
                    ),
                    0,
                    0,
                );
            }
            check_bug_cert(pool, program, spec.to_spec(), trace, mode)
        }
    }
}

/// Validates one CORRECT spec certificate. Returns `Err(reason)` on the
/// first failed rule.
fn check_spec_cert(
    pool: &mut TermPool,
    program: &Program,
    sc: &SpecCert,
    mode: CertifyMode,
    ob: &mut Obligations,
) -> Result<(), String> {
    let n_letters = program.num_letters();
    let n_nodes = sc.annotations.len();
    let n_assert = sc.assertions.len();

    // --- Consistency rules (all modes). ---
    if sc.initial as usize >= n_nodes {
        return Err("initial node out of range".to_owned());
    }
    for (i, ann) in sc.annotations.iter().enumerate() {
        if !ann.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("annotation {i} not sorted/unique"));
        }
        if ann.iter().any(|&a| a as usize >= n_assert) {
            return Err(format!("annotation {i} references unknown assertion"));
        }
    }
    let mut table: HashMap<(u32, u32), u32> = HashMap::new();
    for &(f, l, t) in &sc.edges {
        if f as usize >= n_nodes || t as usize >= n_nodes {
            return Err("edge references unknown node".to_owned());
        }
        if l as usize >= n_letters {
            return Err("edge references unknown letter".to_owned());
        }
        if let Some(&prev) = table.get(&(f, l)) {
            if prev != t {
                return Err(format!(
                    "nondeterministic annotation transition at ({f}, {l})"
                ));
            }
        }
        table.insert((f, l), t);
    }
    let bottoms: HashSet<u32> = sc.bottoms.iter().copied().collect();
    let safes: HashSet<u32> = sc.safes.iter().copied().collect();
    for &b in bottoms.iter().chain(safes.iter()) {
        if b as usize >= n_nodes {
            return Err("bottom/safe references unknown node".to_owned());
        }
    }
    for &b in &sc.bottoms {
        // ⋀∅ = true is never unsatisfiable; an empty bottom annotation is
        // structurally broken, whatever the solver would say.
        if sc.annotations[b as usize].is_empty() {
            return Err(format!("bottom node {b} has an empty annotation"));
        }
    }
    let claims: HashSet<(u32, u32, u32)> = sc.claims.iter().copied().collect();
    for &(a, b, s) in &sc.claims {
        if a as usize >= n_letters || b as usize >= n_letters || s as usize >= n_nodes {
            return Err("claim references unknown letter/node".to_owned());
        }
        if program.thread_of(LetterId(a)) == program.thread_of(LetterId(b)) {
            return Err("claim pairs same-thread letters".to_owned());
        }
    }
    let ucommute: HashSet<(u32, u32)> = sc.ucommute.iter().copied().collect();
    for &(a, b) in &sc.ucommute {
        if a >= b || b as usize >= n_letters {
            return Err("malformed unconditional commutativity pair".to_owned());
        }
        if program.thread_of(LetterId(a)) == program.thread_of(LetterId(b)) {
            return Err("unconditional pair on same thread".to_owned());
        }
    }

    // --- Lazy import into the pool. ---
    //
    // The structural replay never touches terms and the sample tier
    // re-discharges at most [`SAMPLE_BUDGET`] obligations, so importing
    // every assertion up front would make large certificates expensive to
    // spot-check for no benefit: assertions and annotation conjunctions
    // are interned only when an obligation that uses them is taken. Full
    // mode ends up importing everything, exactly as an eager pass would.
    let mut imports = LazyImports::new(sc);
    // Per-assertion and per-node atom counts: the sample tier's cost
    // proxy for skipping obligations it cannot afford to re-discharge.
    let weights: Vec<usize> = sc.assertions.iter().map(atom_count).collect();
    let node_weights: Vec<usize> = sc
        .annotations
        .iter()
        .map(|ann| ann.iter().map(|&i| weights[i as usize]).sum())
        .collect();

    // --- Structural replay + inclusion (Structural | Full). ---
    if matches!(mode, CertifyMode::Structural | CertifyMode::Full) {
        replay_reduction(program, sc, &table, &bottoms, &safes, &claims, &ucommute)?;
    }

    // --- Solver obligations (Full; sampled under Sample). ---
    //
    // Every failed re-discharge consults the governor first: under the
    // sample tier's step budget a trip is sticky, so one exhausted
    // obligation means every later solver call would fail fast too — the
    // spot-check stops there and passes on what it completed. Full mode
    // runs ungoverned, so `tripped` never fires and a failure is final.
    let tripped = |pool: &TermPool, ob: &mut Obligations| {
        let t = pool.governor().is_tripped();
        if t {
            // The exhausted obligation was counted when taken but was
            // not actually re-discharged.
            ob.checked -= 1;
        }
        t
    };
    let spec = sc.spec.to_spec();
    for &i in &sc.annotations[sc.initial as usize] {
        if ob.take(weights[i as usize]) {
            let init = pool.and([program.init_formula(), program.pre()]);
            let assertion = imports.term(pool, i as usize);
            if !entails(pool, init, assertion) {
                if tripped(pool, ob) {
                    return Ok(());
                }
                return Err(format!(
                    "initial annotation assertion {i} not entailed by init∧pre"
                ));
            }
        }
    }
    let mut hoare = ProofAutomaton::new();
    for &(f, l, t) in &sc.edges {
        for &i in &sc.annotations[t as usize] {
            if ob.take(node_weights[f as usize] + weights[i as usize]) {
                let pre = imports.conj(pool, f as usize);
                let post = imports.term(pool, i as usize);
                if !hoare.hoare_triple_valid(pool, program, pre, LetterId(l), post) {
                    if tripped(pool, ob) {
                        return Ok(());
                    }
                    return Err(format!(
                        "Hoare obligation failed: {{node {f}}} letter {l} {{assertion {i}}}"
                    ));
                }
            }
        }
    }
    for &b in &sc.bottoms {
        if ob.take(node_weights[b as usize]) {
            let conj = imports.conj(pool, b as usize);
            if !smt_check(pool, &[conj]).is_unsat() {
                if tripped(pool, ob) {
                    return Ok(());
                }
                return Err(format!("bottom node {b} is satisfiable"));
            }
        }
    }
    if spec == Spec::PrePost {
        for &s in &sc.safes {
            if ob.take(node_weights[s as usize]) {
                let conj = imports.conj(pool, s as usize);
                if !entails(pool, conj, program.post()) {
                    if tripped(pool, ob) {
                        return Ok(());
                    }
                    return Err(format!("safe node {s} does not entail the postcondition"));
                }
            }
        }
    } else if !sc.safes.is_empty() {
        return Err("safe nodes recorded for an error specification".to_owned());
    }
    let mut oracle = CommutativityOracle::new(CommutativityLevel::Semantic);
    for &(a, b, s) in &sc.claims {
        if ob.take(node_weights[s as usize]) {
            let conj = imports.conj(pool, s as usize);
            if !oracle.commute_under(pool, program, conj, LetterId(a), LetterId(b)) {
                if tripped(pool, ob) {
                    return Ok(());
                }
                return Err(format!(
                    "commutativity claim ({a}, {b}) fails under node {s}"
                ));
            }
        }
    }
    for &(a, b) in &sc.ucommute {
        // Unconditional claims involve only the two letters' transition
        // formulas, which live program-side: no certificate-side cost.
        if ob.take(0) && !oracle.commute(pool, program, LetterId(a), LetterId(b)) {
            if tripped(pool, ob) {
                return Ok(());
            }
            return Err(format!(
                "unconditional commutativity claim ({a}, {b}) fails"
            ));
        }
    }
    Ok(())
}

/// Replays the reduction DFS from the certificate alone: membranes are
/// re-derived from the claimed commutativity table, sleep sets from the
/// claims table, annotation transitions from the edge table. Any state
/// the replay demands that the certificate does not justify is a reject.
/// The replayed reduction is then re-checked as a language inclusion
/// against the annotation automaton via `crates/automata`.
fn replay_reduction(
    program: &Program,
    sc: &SpecCert,
    table: &HashMap<(u32, u32), u32>,
    bottoms: &HashSet<u32>,
    safes: &HashSet<u32>,
    claims: &HashSet<(u32, u32, u32)>,
    ucommute: &HashSet<(u32, u32)>,
) -> Result<(), String> {
    let spec = sc.spec.to_spec();
    let membrane_mode = match spec {
        Spec::PrePost => MembraneMode::Terminal,
        Spec::ErrorOf(t) => MembraneMode::ErrorThread(t),
    };
    let order = sc.order.build();
    let n_letters = program.num_letters();
    let commuting = |a: LetterId, b: LetterId| -> bool {
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        a != b && ucommute.contains(&(lo, hi))
    };
    let persistent = sc
        .use_persistent
        .then(|| PersistentSets::from_commuting(program, commuting));

    type RKey = (ProductState, u32, BitSet, OrderContext);
    let mut red = DfaBuilder::new();
    let mut ids: HashMap<RKey, StateId> = HashMap::new();
    let mut work: Vec<RKey> = Vec::new();

    let q0 = program.initial_state();
    let start: RKey = (q0, sc.initial, BitSet::new(n_letters), 0);
    ids.insert(start.clone(), red.add_state(true));
    work.push(start);

    while let Some(key) = work.pop() {
        let (q, node, sleep, ctx) = key.clone();
        let from = ids[&key];
        if bottoms.contains(&node) {
            continue; // covered: claimed ⊥, pruned
        }
        if program.is_accepting(&q, spec) {
            match spec {
                Spec::ErrorOf(_) => {
                    return Err(format!("reduction reaches an error state at node {node}"));
                }
                Spec::PrePost => {
                    if !safes.contains(&node) {
                        return Err(format!(
                            "accepting state covered by node {node} not claimed safe"
                        ));
                    }
                }
            }
            continue;
        }
        let enabled = program.enabled(&q);
        let mut explore: Vec<LetterId> = match &persistent {
            Some(ps) => ps.compute(program, &q, order.as_ref(), ctx, membrane_mode),
            None => enabled.clone(),
        };
        if sc.use_sleep {
            explore.retain(|l| !sleep.contains(l.index()));
        }
        explore.sort_by_key(|&l| order.rank(ctx, l, program));
        for a in explore {
            let next_q = program
                .step(&q, a)
                .ok_or_else(|| "membrane letter not enabled".to_owned())?;
            let next_node = *table.get(&(node, a.0)).ok_or_else(|| {
                format!(
                    "missing annotation transition at (node {node}, letter {})",
                    a.0
                )
            })?;
            let next_ctx = order.step(ctx, a, program);
            let next_sleep = if sc.use_sleep {
                let mut s = BitSet::new(n_letters);
                for &b in &enabled {
                    let earlier = sleep.contains(b.index()) || order.less(ctx, b, a, program);
                    let commutes = if sc.proof_sensitive {
                        claims.contains(&(a.0, b.0, node))
                    } else {
                        commuting(a, b)
                    };
                    if earlier && commutes {
                        s.insert(b.index());
                    }
                }
                s
            } else {
                BitSet::new(n_letters)
            };
            let next_key: RKey = (next_q, next_node, next_sleep, next_ctx);
            let to = match ids.get(&next_key) {
                Some(&id) => id,
                None => {
                    let id = red.add_state(true);
                    ids.insert(next_key.clone(), id);
                    work.push(next_key);
                    id
                }
            };
            red.add_transition(from, a, to);
        }
    }

    // Independent structural coverage: every word of the replayed
    // reduction must be a word of the annotation automaton.
    let red_dfa = red.build(
        ids[&(
            program.initial_state(),
            sc.initial,
            BitSet::new(n_letters),
            0,
        )],
    );
    let proof_dfa = annotation_dfa(sc, table);
    if !ops::is_subset_of(&red_dfa, &proof_dfa) {
        return Err("reduction not included in annotation automaton".to_owned());
    }
    Ok(())
}

/// The annotation automaton as a DFA over letters: states are annotation
/// nodes (all accepting — coverage is per-prefix), transitions from the
/// certificate's edge table.
fn annotation_dfa(sc: &SpecCert, table: &HashMap<(u32, u32), u32>) -> Dfa<LetterId> {
    let mut b = DfaBuilder::new();
    let states: Vec<StateId> = (0..sc.annotations.len())
        .map(|_| b.add_state(true))
        .collect();
    for (&(f, l), &t) in table {
        b.add_transition(states[f as usize], LetterId(l), states[t as usize]);
    }
    b.build(states[sc.initial as usize])
}

/// Validates a BUG certificate: the trace must structurally reach an
/// accepting state of the spec, and (Sample/Full) be confirmed feasible —
/// first by concrete replay through `program::interp` over escalating
/// havoc domains, falling back to an SSA feasibility check under the DPLL
/// solver for witnesses outside the concrete domains.
fn check_bug_cert(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    trace: &[u32],
    mode: CertifyMode,
) -> CertifyReport {
    let n_letters = program.num_letters();
    if trace.iter().any(|&l| l as usize >= n_letters) {
        return CertifyReport::fail("trace references unknown letter", 0, 0);
    }
    let letters: Vec<LetterId> = trace.iter().map(|&l| LetterId(l)).collect();
    let Some(end) = program.run(&letters) else {
        return CertifyReport::fail("trace not executable in the product", 0, 0);
    };
    if !program.is_accepting(&end, spec) {
        return CertifyReport::fail("trace does not reach an accepting state", 0, 0);
    }
    if !matches!(mode, CertifyMode::Sample | CertifyMode::Full) {
        return CertifyReport::pass(0, 0);
    }
    // Concrete replay: for an error spec, completing the trace into the
    // error location is the violation itself; for pre/post, the final
    // concrete state must additionally violate the postcondition.
    for domain in [vec![0, 1], vec![-1, 0, 1, 2]] {
        let interp = Interpreter::new(program).with_havoc_domain(domain);
        if concrete_violation(pool, program, &interp, spec, &letters) {
            return CertifyReport::pass(1, 1);
        }
    }
    // The witness may need havoc values outside the concrete domains:
    // fall back to SSA feasibility under the (independent) DPLL solver.
    let mut stats = InterpolationStats::default();
    match analyze_trace(pool, program, &letters, spec, &mut stats) {
        TraceResult::Feasible => CertifyReport::pass(1, 1),
        // Under the sample tier's step budget a governor trip means the
        // re-analysis ran out of budget, not that the trace is bogus: the
        // structural product run above still stands, so pass unchecked.
        _ if pool.governor().is_tripped() => CertifyReport::pass(1, 0),
        TraceResult::Infeasible { .. } => {
            CertifyReport::fail("trace is infeasible under re-analysis", 1, 1)
        }
        TraceResult::Unknown => {
            CertifyReport::fail("trace feasibility could not be confirmed", 1, 1)
        }
    }
}

/// Replays `letters` concretely, keeping the full frontier of reachable
/// valuations, and reports whether some resolution of the nondeterminism
/// demonstrates the violation.
fn concrete_violation(
    pool: &TermPool,
    program: &Program,
    interp: &Interpreter<'_>,
    spec: Spec,
    letters: &[LetterId],
) -> bool {
    let pre = program.pre();
    let mut frontier: Vec<_> = interp
        .initial_states()
        .into_iter()
        .filter(|s| pool.eval(pre, &|v| s.value(v)))
        .collect();
    for &l in letters {
        let mut next = Vec::new();
        for s in &frontier {
            next.extend(interp.step(pool, s, l));
        }
        next.sort();
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            return false;
        }
    }
    match spec {
        // Reaching the error location concretely is the violation.
        Spec::ErrorOf(_) => true,
        // All threads at exit: some final valuation must violate post.
        Spec::PrePost => {
            let post = program.post();
            frontier.iter().any(|s| !pool.eval(post, &|v| s.value(v)))
        }
    }
}

/// A single-point certificate mutation, used by the store/serve fault
/// injector and the soundness battery. Mutations are deterministic given
/// `salt` and return `false` when inapplicable to the certificate shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertMutation {
    /// Empty out one bottom/safe node's annotation (or drop an assertion
    /// index from the densest node), weakening the proof below validity.
    WeakenAnnotation,
    /// Remove one entry from the annotation transition table (falling back
    /// to un-claiming a bottom node), dropping a discharged obligation.
    DropObligation,
    /// Move an assertion index from one annotation node to another,
    /// leaving totals intact but homes wrong.
    RehomeAssertion,
    /// Drop the final letter of a bug trace.
    TruncateTrace,
    /// Bump a linear atom's constant in one assertion (battery only).
    FlipBound,
    /// Permute two distinct annotation nodes (battery only).
    PermuteAnnotation,
    /// Rebind the certificate to a different program (battery only).
    ForeignFingerprint,
}

impl CertMutation {
    /// Stable name, the inverse of [`CertMutation::parse`].
    pub fn name(self) -> &'static str {
        match self {
            CertMutation::WeakenAnnotation => "weaken-annotation",
            CertMutation::DropObligation => "drop-obligation",
            CertMutation::RehomeAssertion => "rehome-assertion",
            CertMutation::TruncateTrace => "truncate-trace",
            CertMutation::FlipBound => "flip-bound",
            CertMutation::PermuteAnnotation => "permute-annotation",
            CertMutation::ForeignFingerprint => "foreign-fingerprint",
        }
    }

    /// Parses a mutation name.
    pub fn parse(s: &str) -> Result<CertMutation, String> {
        Ok(match s {
            "weaken-annotation" => CertMutation::WeakenAnnotation,
            "drop-obligation" => CertMutation::DropObligation,
            "rehome-assertion" => CertMutation::RehomeAssertion,
            "truncate-trace" => CertMutation::TruncateTrace,
            "flip-bound" => CertMutation::FlipBound,
            "permute-annotation" => CertMutation::PermuteAnnotation,
            "foreign-fingerprint" => CertMutation::ForeignFingerprint,
            other => return Err(format!("unknown certificate mutation `{other}`")),
        })
    }

    /// All mutation kinds the store/serve injector supports.
    pub fn injector_kinds() -> [CertMutation; 4] {
        [
            CertMutation::WeakenAnnotation,
            CertMutation::DropObligation,
            CertMutation::RehomeAssertion,
            CertMutation::TruncateTrace,
        ]
    }

    /// Applies the mutation in place. Returns `false` (leaving the
    /// certificate untouched) when the certificate has no applicable site.
    pub fn apply(self, cert: &mut Certificate, salt: u64) -> bool {
        match (self, cert) {
            (CertMutation::TruncateTrace, Certificate::Bug { trace, .. }) => {
                if trace.is_empty() {
                    return false;
                }
                trace.pop();
                true
            }
            (CertMutation::ForeignFingerprint, c) => {
                match c {
                    Certificate::Correct { fingerprint, .. }
                    | Certificate::Bug { fingerprint, .. } => {
                        *fingerprint ^= 0x9e3779b97f4a7c15;
                    }
                }
                true
            }
            (m, Certificate::Correct { specs, .. }) => {
                if specs.is_empty() {
                    return false;
                }
                let pick = salt as usize % specs.len();
                let sc = &mut specs[pick];
                match m {
                    CertMutation::WeakenAnnotation => weaken_annotation(sc, salt),
                    CertMutation::DropObligation => drop_obligation(sc, salt),
                    CertMutation::RehomeAssertion => rehome_assertion(sc, salt),
                    CertMutation::FlipBound => flip_bound(sc, salt),
                    CertMutation::PermuteAnnotation => permute_annotation(sc),
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

fn weaken_annotation(sc: &mut SpecCert, salt: u64) -> bool {
    // Prefer a node whose annotation is load-bearing for pruning: a bottom
    // (emptying it makes ⋀ = true, never unsatisfiable) or a safe node
    // (true rarely entails a real postcondition). Fall back to thinning
    // the densest annotation.
    if !sc.bottoms.is_empty() {
        let b = sc.bottoms[salt as usize % sc.bottoms.len()] as usize;
        if !sc.annotations[b].is_empty() {
            sc.annotations[b].clear();
            return true;
        }
    }
    if !sc.safes.is_empty() {
        let s = sc.safes[salt as usize % sc.safes.len()] as usize;
        if !sc.annotations[s].is_empty() {
            sc.annotations[s].clear();
            return true;
        }
    }
    let densest = (0..sc.annotations.len()).max_by_key(|&i| sc.annotations[i].len());
    match densest {
        Some(i) if !sc.annotations[i].is_empty() => {
            let k = salt as usize % sc.annotations[i].len();
            sc.annotations[i].remove(k);
            true
        }
        _ => false,
    }
}

fn drop_obligation(sc: &mut SpecCert, salt: u64) -> bool {
    if !sc.edges.is_empty() {
        sc.edges.remove(salt as usize % sc.edges.len());
        return true;
    }
    if !sc.bottoms.is_empty() {
        sc.bottoms.remove(salt as usize % sc.bottoms.len());
        return true;
    }
    false
}

fn rehome_assertion(sc: &mut SpecCert, salt: u64) -> bool {
    // Move one assertion index out of a donor node into a recipient that
    // does not hold it. The donor loses strength where it was needed; the
    // recipient claims strength nobody established.
    let n = sc.annotations.len();
    if n < 2 {
        return false;
    }
    let donor_order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..n).collect();
        // Bottoms first: weakening a bottom is reliably detected.
        idx.sort_by_key(|&i| (!sc.bottoms.contains(&(i as u32)), i));
        idx
    };
    for &d in &donor_order {
        if sc.annotations[d].is_empty() {
            continue;
        }
        let k = salt as usize % sc.annotations[d].len();
        let moved = sc.annotations[d][k];
        for off in 0..n {
            let r = (d + 1 + off) % n;
            if r != d && !sc.annotations[r].contains(&moved) {
                sc.annotations[d].remove(k);
                let pos = sc.annotations[r].partition_point(|&x| x < moved);
                sc.annotations[r].insert(pos, moved);
                return true;
            }
        }
    }
    false
}

/// A bound shift far beyond any slack a real annotation carries, so the
/// strengthened atom is no longer derivable wherever it is re-checked.
const FLIP_SHIFT: i128 = 1 << 40;

fn flip_bound(sc: &mut SpecCert, salt: u64) -> bool {
    if sc.assertions.is_empty() {
        return false;
    }
    // Target an assertion the checker re-discharges an obligation for:
    // the initial node's annotation (checked against the precondition)
    // first, then edge-target annotations (checked as Hoare posts). A
    // small shift on an arbitrary assertion could land inside the proof's
    // slack and leave the certificate valid — which the checker rightly
    // accepts — so the battery's flip must provably break an obligation.
    let mut candidates: Vec<u32> = Vec::new();
    if let Some(init) = sc.annotations.get(sc.initial as usize) {
        candidates.extend(init.iter().copied());
    }
    for &(_, _, to) in &sc.edges {
        if let Some(node) = sc.annotations.get(to as usize) {
            candidates.extend(node.iter().copied());
        }
    }
    candidates.extend(0..sc.assertions.len() as u32);
    candidates.dedup();
    let n = candidates.len();
    for off in 0..n {
        let i = candidates[(salt as usize + off) % n] as usize;
        if i < sc.assertions.len() && flip_first_atom(&mut sc.assertions[i]) {
            return true;
        }
    }
    false
}

fn flip_first_atom(t: &mut ExportedTerm) -> bool {
    match t {
        ExportedTerm::Atom { constant, .. } => {
            *constant += FLIP_SHIFT;
            true
        }
        // Only descend conjunctions: strengthening one disjunct of an
        // `Or` weakens nothing and could leave the certificate valid.
        ExportedTerm::And(parts) => parts.iter_mut().any(flip_first_atom),
        _ => false,
    }
}

fn permute_annotation(sc: &mut SpecCert) -> bool {
    let n = sc.annotations.len();
    for i in 0..n {
        for j in (i + 1)..n {
            if sc.annotations[i] != sc.annotations[j] {
                sc.annotations.swap(i, j);
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cert() -> Certificate {
        Certificate::Correct {
            fingerprint: 0xdead_beef,
            specs: vec![SpecCert {
                spec: CertSpec::ErrorOf(1),
                order: OrderSpec::Random(42),
                use_sleep: true,
                use_persistent: false,
                proof_sensitive: true,
                assertions: vec![
                    ExportedTerm::Atom {
                        coeffs: vec![("x".to_owned(), 1)],
                        constant: -3,
                        rel: smt::linear::Rel::Le0,
                    },
                    ExportedTerm::False,
                ],
                annotations: vec![vec![], vec![0], vec![0, 1]],
                initial: 0,
                edges: vec![(0, 0, 1), (1, 2, 2)],
                bottoms: vec![2],
                safes: vec![],
                claims: vec![(0, 3, 1)],
                ucommute: vec![(0, 3)],
            }],
        }
    }

    #[test]
    fn certificate_text_roundtrip() {
        let cert = sample_cert();
        let text = cert.to_text();
        let back = Certificate::parse(&text).expect("parses");
        assert_eq!(cert, back);

        let bug = Certificate::Bug {
            fingerprint: 7,
            spec: CertSpec::PrePost,
            trace: vec![3, 1, 4, 1, 5],
        };
        assert_eq!(Certificate::parse(&bug.to_text()).unwrap(), bug);

        let empty_trace = Certificate::Bug {
            fingerprint: 7,
            spec: CertSpec::ErrorOf(0),
            trace: vec![],
        };
        assert_eq!(
            Certificate::parse(&empty_trace.to_text()).unwrap(),
            empty_trace
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Certificate::parse("").is_err());
        assert!(Certificate::parse("cert-format 2\nverdict bug 1").is_err());
        assert!(Certificate::parse("cert-format 1\nverdict maybe 1\nend-cert").is_err());
        let mut lines = sample_cert().to_lines();
        lines.pop(); // drop end-cert
        assert!(Certificate::from_lines(lines.iter().map(|s| s.as_str())).is_err());
    }

    #[test]
    fn mutations_change_the_certificate() {
        for m in [
            CertMutation::WeakenAnnotation,
            CertMutation::DropObligation,
            CertMutation::RehomeAssertion,
            CertMutation::FlipBound,
            CertMutation::PermuteAnnotation,
            CertMutation::ForeignFingerprint,
        ] {
            let original = sample_cert();
            let mut mutated = original.clone();
            assert!(m.apply(&mut mutated, 1), "{} applies", m.name());
            assert_ne!(
                original,
                mutated,
                "{} must change the certificate",
                m.name()
            );
        }
        let bug = Certificate::Bug {
            fingerprint: 7,
            spec: CertSpec::PrePost,
            trace: vec![0, 1],
        };
        let mut mutated = bug.clone();
        assert!(CertMutation::TruncateTrace.apply(&mut mutated, 0));
        assert_ne!(bug, mutated);
        // Inapplicable: truncating a correct certificate.
        let mut c = sample_cert();
        assert!(!CertMutation::TruncateTrace.apply(&mut c, 0));
        assert_eq!(c, sample_cert());
    }

    #[test]
    fn mutation_names_roundtrip() {
        for m in [
            CertMutation::WeakenAnnotation,
            CertMutation::DropObligation,
            CertMutation::RehomeAssertion,
            CertMutation::TruncateTrace,
            CertMutation::FlipBound,
            CertMutation::PermuteAnnotation,
            CertMutation::ForeignFingerprint,
        ] {
            assert_eq!(CertMutation::parse(m.name()).unwrap(), m);
        }
        assert!(CertMutation::parse("no-such").is_err());
    }

    #[test]
    fn certify_mode_names_roundtrip() {
        for m in [
            CertifyMode::Off,
            CertifyMode::Structural,
            CertifyMode::Sample,
            CertifyMode::Full,
        ] {
            assert_eq!(CertifyMode::parse(m.name()).unwrap(), m);
        }
        assert!(CertifyMode::parse("everything").is_err());
    }
}
