//! The refinement loop: configuration, verdicts and statistics.
//!
//! Each round checks the current proof candidate against the on-the-fly
//! reduction (Algorithm 2); an uncovered trace is analyzed exactly and
//! either reported as a bug or turned into new assertions. The *baseline*
//! configuration ([`VerifierConfig::automizer`]) disables every reduction
//! mechanism and thus explores the full interleaving product — the paper's
//! comparison against Ultimate Automizer.

use crate::certify::Certificate;
use crate::drive::{drive, Run};
use crate::govern::{Category, GiveUp, GovernorConfig};
use crate::interpolate::{InterpolationMode, InterpolationStats};
use program::commutativity::CommutativityLevel;
use program::concurrent::{LetterId, Program, Spec};
use reduction::order::{LockstepOrder, PreferenceOrder, PriorityOrder, RandomOrder, SeqOrder};
use smt::term::TermPool;
use smt::SolverKind;
use std::time::Duration;

/// Which preference order to instantiate (§8 evaluates these three
/// families).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderSpec {
    /// Thread-uniform order approximating sequential composition.
    Seq,
    /// Positional order approximating lockstep scheduling.
    Lockstep,
    /// Seeded pseudo-random permutation of the alphabet.
    Random(u64),
    /// Thread-uniform order with an explicit thread priority permutation.
    Priority(Vec<u32>),
}

impl OrderSpec {
    /// Instantiates the order.
    pub fn build(&self) -> Box<dyn PreferenceOrder> {
        match self {
            OrderSpec::Seq => Box::new(SeqOrder::new()),
            OrderSpec::Lockstep => Box::new(LockstepOrder::new()),
            OrderSpec::Random(seed) => Box::new(RandomOrder::new(*seed)),
            OrderSpec::Priority(p) => Box::new(PriorityOrder::new(p.clone())),
        }
    }

    /// The order's display name.
    pub fn name(&self) -> String {
        match self {
            OrderSpec::Seq => "seq".to_owned(),
            OrderSpec::Lockstep => "lockstep".to_owned(),
            OrderSpec::Random(s) => format!("rand({s})"),
            OrderSpec::Priority(p) => format!(
                "priority({})",
                p.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            ),
        }
    }
}

/// Full verifier configuration.
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Display name (e.g. `"gemcutter-seq"`, `"automizer"`).
    pub name: String,
    /// The preference order.
    pub order: OrderSpec,
    /// Sleep sets (language-minimal reduction).
    pub use_sleep: bool,
    /// Weakly persistent membranes (state pruning).
    pub use_persistent: bool,
    /// Proof-sensitive commutativity in sleep sets (§7.2).
    pub proof_sensitive: bool,
    /// Commutativity oracle level.
    pub commutativity: CommutativityLevel,
    /// Ignored: refinement always interpolates with the sp-chain engine.
    /// The field exists only so that the `seqbench` harness, which reads
    /// it, keeps compiling.
    pub interpolation: InterpolationMode,
    /// Maximum refinement rounds before giving up.
    pub max_rounds: usize,
    /// Maximum visited states per proof-check round. One documented
    /// budget for the one DFS: a check round stops at this bound, and its
    /// certificate is dropped when the check plus the recording
    /// resumption visit more than [`crate::check::RECORD_VISITED_HEADROOM`]
    /// times it (both charge `Category::DfsStates` per state, so
    /// [`GovernorConfig`] owns the run-wide limit).
    pub max_visited_per_round: usize,
    /// Resource governance: deadline, run-wide step budgets and fault
    /// injection. Unlimited by default.
    pub govern: GovernorConfig,
    /// Solver-level query memoization ([`smt::qcache`]): the pool memo,
    /// and a shared cross-pool cache where the caller installed one (the
    /// daemon). When disabled, memoization is switched off on the pool for
    /// the duration of the run: neither tier is read or filled, and every
    /// query runs as it would have on a miss — the measurement baseline.
    pub use_qcache: bool,
    /// Which boolean search engine answers SMT queries
    /// ([`SolverKind::Cdcl`] by default; [`SolverKind::Dpll`] is the
    /// legacy ablation baseline). Installed on the pool for the
    /// duration of the run, like the governor and the memoization switch.
    pub solver: SolverKind,
    /// Emit a checkable [`Certificate`] with every conclusive verdict:
    /// every check round records its reduction, and a proving round then
    /// walks on under its useless-cache skips. When recording cannot
    /// complete — e.g. the governor trips mid-walk — the verdict is
    /// reported without a certificate rather than delayed.
    pub certify: bool,
}

impl VerifierConfig {
    /// GemCutter with the `seq` preference order (full machinery).
    pub fn gemcutter_seq() -> VerifierConfig {
        VerifierConfig {
            name: "gemcutter-seq".to_owned(),
            order: OrderSpec::Seq,
            use_sleep: true,
            use_persistent: true,
            proof_sensitive: true,
            commutativity: CommutativityLevel::Semantic,
            interpolation: InterpolationMode::SpChain,
            max_rounds: 60,
            max_visited_per_round: 400_000,
            govern: GovernorConfig::default(),
            use_qcache: true,
            solver: SolverKind::default(),
            certify: true,
        }
    }

    /// GemCutter with the lockstep preference order.
    pub fn gemcutter_lockstep() -> VerifierConfig {
        VerifierConfig {
            name: "gemcutter-lockstep".to_owned(),
            order: OrderSpec::Lockstep,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// GemCutter with a seeded random preference order.
    pub fn gemcutter_random(seed: u64) -> VerifierConfig {
        VerifierConfig {
            name: format!("gemcutter-rand({seed})"),
            order: OrderSpec::Random(seed),
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// The Automizer baseline: trace abstraction over the *full*
    /// interleaving product (no reduction machinery at all).
    pub fn automizer() -> VerifierConfig {
        VerifierConfig {
            name: "automizer".to_owned(),
            order: OrderSpec::Seq,
            use_sleep: false,
            use_persistent: false,
            proof_sensitive: false,
            commutativity: CommutativityLevel::Syntactic,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Sleep sets only (Table 2's "sleep" column).
    pub fn sleep_only() -> VerifierConfig {
        VerifierConfig {
            name: "sleep".to_owned(),
            use_persistent: false,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Persistent sets only (Table 2's "persistent" column).
    pub fn persistent_only() -> VerifierConfig {
        VerifierConfig {
            name: "persistent".to_owned(),
            use_sleep: false,
            proof_sensitive: false,
            ..VerifierConfig::gemcutter_seq()
        }
    }

    /// Disables proof-sensitive commutativity (the §8 ablation).
    pub fn without_proof_sensitivity(mut self) -> VerifierConfig {
        self.proof_sensitive = false;
        self.name = format!("{}-nops", self.name);
        self
    }

    /// Disables solver-level query memoization (the `--no-qcache`
    /// escape hatch and the perf baseline).
    pub fn without_qcache(mut self) -> VerifierConfig {
        self.use_qcache = false;
        self
    }

    /// Selects the SMT boolean search engine (`--solver=dpll|cdcl`).
    pub fn with_solver(mut self, solver: SolverKind) -> VerifierConfig {
        self.solver = solver;
        self
    }
}

/// Verification verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The program satisfies its specification.
    Correct,
    /// A feasible violating trace was found.
    Incorrect {
        /// The violating trace (letters of the program alphabet).
        trace: Vec<LetterId>,
    },
    /// The verifier gave up: resource exhaustion, solver incompleteness,
    /// cancellation or an injected fault — categorized in the record.
    GaveUp(GiveUp),
}

impl Verdict {
    /// A give-up verdict from a category and reason.
    pub fn gave_up(category: Category, reason: impl Into<String>) -> Verdict {
        Verdict::GaveUp(GiveUp::new(category, reason))
    }

    /// `true` for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }

    /// The give-up record, for [`Verdict::GaveUp`].
    pub fn give_up(&self) -> Option<&GiveUp> {
        match self {
            Verdict::GaveUp(g) => Some(g),
            _ => None,
        }
    }
}

/// Aggregated run statistics (the quantities reported in Tables 1–2): the
/// one counter record. An engine accumulates into one, the driver and the
/// daemon fold records with [`RunStats::merge`], and every report reads
/// [`RunStats::counters`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Refinement rounds across all analyses.
    pub rounds: usize,
    /// Final proof size (number of assertions).
    pub proof_size: usize,
    /// Total visited proof-check states (memory proxy).
    pub visited_states: usize,
    /// Largest single-round visited count.
    pub max_round_visited: usize,
    /// Hoare-triple solver queries of the run's proofs, summed over specs
    /// (a proof shared by several engines counts once), read when the
    /// proving round's check ends, before its certificate resumption.
    pub hoare_checks: usize,
    /// Useless-cache skips (§7.2 optimization effectiveness).
    pub cache_skips: usize,
    /// Useless-cache probes (skips are the hits; misses are the rest).
    pub useless_probes: usize,
    /// Useless-cache entries at the end of the run (a gauge the engine
    /// assigns; for multi-engine runs, summed over engines).
    pub useless_len: usize,
    /// Wall-clock time of the whole run.
    pub time: Duration,
    /// Interpolation statistics.
    pub interpolation: InterpolationStats,
    /// Solver queries answered from the pool memo during this run: the
    /// memo's delta over the whole run (see [`mod@crate::drive`]), zero
    /// when no engine memoized.
    pub qcache_hits: u64,
    /// Solver queries the pool memo missed (same rule); a shared cache,
    /// where one is installed, may still answer them.
    pub qcache_misses: u64,
    /// Proven results whose certificate was dropped because the recording
    /// resumption tripped its state budget or the resource governor.
    pub certs_dropped: usize,
}

impl RunStats {
    /// Folds `other` into `self`: the one fold of every counter. Proof
    /// size and the largest round are maxima; everything else sums.
    pub fn merge(&mut self, other: &RunStats) {
        self.rounds += other.rounds;
        self.proof_size = self.proof_size.max(other.proof_size);
        self.visited_states += other.visited_states;
        self.max_round_visited = self.max_round_visited.max(other.max_round_visited);
        self.hoare_checks += other.hoare_checks;
        self.cache_skips += other.cache_skips;
        self.useless_probes += other.useless_probes;
        self.useless_len += other.useless_len;
        self.time += other.time;
        self.interpolation.feasibility_checks += other.interpolation.feasibility_checks;
        self.interpolation.sliced_statements += other.interpolation.sliced_statements;
        self.qcache_hits += other.qcache_hits;
        self.qcache_misses += other.qcache_misses;
        self.certs_dropped += other.certs_dropped;
    }

    /// Every counter as `(key, value)`, wall time excluded: what the CLI
    /// stats line prints and the daemon's `stats` reply reports.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rounds", self.rounds as u64),
            ("proof_size", self.proof_size as u64),
            ("visited", self.visited_states as u64),
            ("hoare_checks", self.hoare_checks as u64),
            ("qcache_hits", self.qcache_hits),
            ("qcache_misses", self.qcache_misses),
            ("useless_hits", self.cache_skips as u64),
            ("useless_probes", self.useless_probes as u64),
            ("useless_len", self.useless_len as u64),
            ("max_round_visited", self.max_round_visited as u64),
            ("certs_dropped", self.certs_dropped as u64),
            (
                "feasibility_checks",
                self.interpolation.feasibility_checks as u64,
            ),
            (
                "sliced_statements",
                self.interpolation.sliced_statements as u64,
            ),
        ]
    }

    /// Average time per refinement round (Table 2's metric).
    pub fn time_per_round(&self) -> Duration {
        if self.rounds == 0 {
            self.time
        } else {
            self.time / self.rounds as u32
        }
    }

    /// Pool-memo hit rate of this run (0 when memoization was off or the
    /// memo was never consulted).
    pub fn qcache_hit_rate(&self) -> f64 {
        let total = self.qcache_hits + self.qcache_misses;
        if total == 0 {
            0.0
        } else {
            self.qcache_hits as f64 / total as f64
        }
    }
}

/// A verdict together with its statistics.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics of the run.
    pub stats: RunStats,
    /// The verdict's checkable certificate, when one was recorded.
    /// `None` for give-ups, for runs with certification disabled, and
    /// for the rare conclusive run whose recording pass was interrupted.
    pub certificate: Option<Certificate>,
}

/// The specification list for `program`: one [`Spec::ErrorOf`] per
/// asserting thread (footnote 4 of the paper), or the single
/// pre/postcondition pair when no thread asserts.
pub fn specs_of(program: &Program) -> Vec<Spec> {
    let asserting = program.asserting_threads();
    if asserting.is_empty() {
        vec![Spec::PrePost]
    } else {
        asserting.into_iter().map(Spec::ErrorOf).collect()
    }
}

/// Verifies `program` under `config`: [`drive`] with one member taking
/// every turn.
///
/// Programs with asserts are analyzed once per asserting thread
/// (footnote 4 of the paper); programs without asserts are verified
/// against their pre/postcondition pair. The configuration's governor,
/// solver kind and memoization switch are installed on `pool` for the
/// run and restored afterwards; panics are contained and reported as
/// [`Verdict::GaveUp`] with [`Category::InjectedFault`].
pub fn verify(pool: &mut TermPool, program: &Program, config: &VerifierConfig) -> Outcome {
    drive(pool, program, &Run::single(config)).outcome
}
