//! The refinement driver: Algorithm 1 — check the proof candidate against
//! the reduction, refine on a spurious counterexample — written once, for
//! every way the verifier runs it.
//!
//! [`drive`] takes a [`Run`]: the member configurations (one preference
//! order each), a [`Schedule`], a [`RetryPolicy`] and optional seed,
//! checkpoint, resume and interrupt settings.
//!
//! * **Schedules.** [`Schedule::TakeTurns`] runs the members on the
//!   calling thread over one shared proof, one round at a time, cheapest
//!   member (fewest visited states) first — the direction sketched in the
//!   paper's §8 Limitations. With one member it is the plain refinement
//!   loop of [`crate::verify::verify`]. [`Schedule::Lockstep`] and
//!   [`Schedule::Race`] run one OS thread per member, each with its own
//!   [`TermPool`] clone and proof, relaying newly discovered assertions as
//!   pool-independent [`ExportedTerm`]s: lockstep exchanges them at round
//!   barriers in member order (verdict, round counts and certificates are
//!   reproducible), race as soon as they appear, and the first conclusive
//!   member wins and cancels the others mid-query.
//! * **Per attempt.** Each member gets a governor built from its `govern`
//!   limits, its solver kind and its query-cache setting, installed on the
//!   pool it runs on (the caller's pool is restored at the end). Race
//!   members build a fresh governor per spec with the attempt's remaining
//!   deadline, because the race's stop flag trips the losers' governors.
//! * **Per round** (`Seat::step`): honour the member's `max_rounds`,
//!   charge [`Category::Rounds`], contain panics at round granularity,
//!   and record the certificate when the round proves the spec.
//! * **Around attempts**, one ladder: a give-up escalates every member's
//!   deadline and step budgets (and `max_visited_per_round`) by the
//!   [`RetryPolicy`], recycles the proofs of the failed spec as seeds, and
//!   resumes at that spec. Round-boundary checkpoints ([`Run::checkpoint`],
//!   written under `TakeTurns`; spec boundaries under every schedule) make
//!   a killed run resumable with the same verdict and cumulative round
//!   count ([`Run::resume`]).
//!
//! **Counters.** Every member's engine folds through
//! [`RunStats::add_engine`]; `hoare_checks` sums the proofs' counts over
//! specs (a shared proof counts once), read before any certificate-
//! recording walk. Query-cache counters follow one rule: the delta of the
//! run's cache between the start and the end of [`drive`] — engine set-up,
//! rounds and certificate recording included, across attempts and worker
//! clones — or zero when no member uses the cache. The delta is exact when
//! nothing else uses the cache concurrently.
//!
//! **Soundness of recycling.** Seeds are only ever *candidate* assertions:
//! the proof automaton re-validates every transition with a Hoare query and
//! a bug verdict replays its trace exactly, so a stale, foreign or even
//! adversarial seed costs completeness, never soundness.

use crate::certify::{CertSpec, Certificate, SpecCert};
use crate::engine::{Engine, EngineStats, RoundOutcome};
use crate::govern::{
    panic_reason, push_give_up_deduped, AttributedGiveUp, Category, GiveUp, ResourceGovernor,
};
use crate::proof::ProofAutomaton;
use crate::snapshot::{program_fingerprint, Snapshot};
use crate::verify::{specs_of, Outcome, RunStats, Verdict, VerifierConfig};
use program::concurrent::{LetterId, Program, Spec};
use smt::term::{TermId, TermPool};
use smt::transfer::ExportedTerm;
use smt::{QueryCache, SolverKind};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// How the members of a [`Run`] share the work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// One round at a time on the calling thread, cheapest member first,
    /// over one shared proof.
    #[default]
    TakeTurns,
    /// One thread per member; assertions exchanged at round barriers in
    /// member order; the lowest-indexed conclusive member wins.
    Lockstep,
    /// One thread per member; assertions relayed as they appear; the
    /// first conclusive member wins.
    Race,
}

/// The escalation ladder: how many restarts a run gets and how fast its
/// resource limits grow between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of restarts after the initial attempt.
    pub max_retries: u32,
    /// Per-retry multiplier on the wall-clock deadline.
    pub deadline_factor: u32,
    /// Per-retry multiplier on per-category step budgets (and the
    /// per-round visited-state cap).
    pub step_factor: u32,
}

impl Default for RetryPolicy {
    /// No retries; ×2 ladders once retries are enabled.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            deadline_factor: 2,
            step_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// A policy with `n` retries at the default ×2 escalation.
    pub fn with_retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }

    /// Sets both escalation factors; builder style.
    pub fn escalating_by(mut self, factor: u32) -> RetryPolicy {
        self.deadline_factor = factor;
        self.step_factor = factor;
        self
    }

    /// Parses an `--escalate` factor spec: `4x` or a bare `4`. The factor
    /// applies to both the deadline and the step budgets.
    pub fn parse_factor(spec: &str) -> Result<u32, String> {
        let digits = spec.strip_suffix('x').unwrap_or(spec);
        let f: u32 = digits
            .parse()
            .map_err(|_| format!("invalid escalation factor `{spec}` (expected e.g. 4x)"))?;
        if f == 0 {
            return Err("escalation factor must be at least 1".to_owned());
        }
        Ok(f)
    }

    /// `config` escalated for `attempt`: deadline and step budgets
    /// stretched (fault plans dropped after the first attempt) and the
    /// per-round visited-state cap scaled like the step budgets.
    fn escalate(&self, config: &VerifierConfig, attempt: u32) -> VerifierConfig {
        let mut escalated = config.clone();
        escalated.govern = config
            .govern
            .escalated(attempt, self.deadline_factor, self.step_factor);
        escalated.max_visited_per_round = config
            .max_visited_per_round
            .saturating_mul(self.step_factor.saturating_pow(attempt).max(1) as usize);
        escalated
    }
}

/// Everything [`drive`] needs besides the pool and the program.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// The member configurations; at least one.
    pub members: Vec<VerifierConfig>,
    /// How the members share the work.
    pub schedule: Schedule,
    /// The escalation ladder around attempts.
    pub retry: RetryPolicy,
    /// Candidate assertions imported into the first analyzed spec's
    /// proofs (a proof store's warm start); a resumed run takes its
    /// snapshot's assertions instead.
    pub seed: Vec<ExportedTerm>,
    /// Where to write round-boundary checkpoints.
    pub checkpoint: Option<PathBuf>,
    /// Resume state loaded from a checkpoint.
    pub resume: Option<Snapshot>,
    /// Cooperative interrupt flag: when raised, the run writes a final
    /// checkpoint at the next round boundary and returns with
    /// [`Driven::interrupted`] set.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl Run {
    /// A run of `members` under `schedule`, without retries, seeds or
    /// checkpoints.
    pub fn new(schedule: Schedule, members: Vec<VerifierConfig>) -> Run {
        Run {
            members,
            schedule,
            ..Run::default()
        }
    }

    /// The plain refinement loop: one member taking every turn.
    pub fn single(config: &VerifierConfig) -> Run {
        Run::new(Schedule::TakeTurns, vec![config.clone()])
    }

    /// Sets the escalation ladder; builder style.
    pub fn retrying(mut self, retry: RetryPolicy) -> Run {
        self.retry = retry;
        self
    }
}

/// One rung of the ladder, as reported back to the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptReport {
    /// Absolute attempt number (0 = the initial run; resumed runs
    /// continue their snapshot's counter).
    pub attempt: u32,
    /// Refinement rounds this attempt executed.
    pub rounds: usize,
    /// Recycled assertions seeded into this attempt's proofs.
    pub seeded: usize,
    /// `None` when the attempt concluded (or was interrupted).
    pub give_up: Option<GiveUp>,
}

/// How one member ended one spec phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineStatus {
    /// This member decided the spec.
    Won,
    /// Another member decided the spec first.
    Lost,
    /// The member gave up (budget, solver incompleteness, non-progress,
    /// contained panic).
    GaveUp(GiveUp),
}

/// Per-member summary of one spec phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineReport {
    /// The member's configuration name.
    pub name: String,
    /// Index of the analyzed spec (one per asserting thread).
    pub spec: usize,
    /// Refinement rounds this member executed on the spec.
    pub rounds: usize,
    /// Final size of the proof this member worked on.
    pub proof_size: usize,
    /// How the member ended.
    pub status: EngineStatus,
}

/// Result of [`drive`].
#[derive(Clone, Debug)]
pub struct Driven {
    /// Final verdict and statistics. `stats.rounds` includes the rounds
    /// carried in from a resumed snapshot.
    pub outcome: Outcome,
    /// The member that decided the last analyzed spec, if conclusive.
    pub winner: Option<String>,
    /// One report per (attempt, spec, member), in execution order.
    pub engines: Vec<EngineReport>,
    /// One report per attempt this process executed.
    pub attempts: Vec<AttemptReport>,
    /// Give-up history across attempts and members, deduped by
    /// `(member, category)`.
    pub give_up_history: Vec<AttributedGiveUp>,
    /// Assertions seeded into the final attempt.
    pub recycled_assertions: usize,
    /// Rounds whose refinement work the final attempt did not repeat:
    /// rounds carried in from the snapshot plus rounds of earlier attempts.
    pub rounds_skipped: usize,
    /// The run stopped at a round boundary because the interrupt flag was
    /// raised; a final checkpoint was written if a path was configured.
    pub interrupted: bool,
    /// The last checkpoint-write failure, if any (checkpointing is
    /// best-effort).
    pub checkpoint_error: Option<String>,
    /// Every proof assertion of the run, across specs, attempts and
    /// members, exported in discovery order — what a proof store persists.
    pub harvest: Vec<ExportedTerm>,
}

impl Driven {
    /// Restarts used beyond the first attempt of this process.
    pub fn retries_used(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The recycling effectiveness metric reported by the benches:
    /// `rounds skipped / rounds total`, where *skipped* rounds are those
    /// whose assertions the final attempt recycled instead of re-deriving.
    /// `0.0` when nothing was recycled.
    pub fn recycle_hit_rate(&self) -> f64 {
        if self.rounds_skipped == 0 {
            return 0.0;
        }
        let executed = self.attempts.last().map_or(0, |a| a.rounds);
        self.rounds_skipped as f64 / (self.rounds_skipped + executed) as f64
    }
}

/// Verifies `program` with the members of `run` under its schedule and
/// retry ladder.
///
/// A resumed run whose snapshot does not match `program` refuses to start
/// and reports a give-up — it never verifies the wrong program against
/// recycled state.
///
/// # Panics
///
/// Panics if `run.members` is empty.
pub fn drive(pool: &mut TermPool, program: &Program, run: &Run) -> Driven {
    assert!(!run.members.is_empty(), "a run needs at least one member");
    let start = Instant::now();
    let mut lad = Ladder::new(pool, program, run);
    if let Some(snap) = &run.resume {
        if snap.program_hash != lad.program_hash {
            let reason = format!(
                "snapshot program hash {:016x} does not match this program ({:016x}); \
                 refusing to resume",
                snap.program_hash, lad.program_hash
            );
            return lad.finish(
                run,
                Verdict::gave_up(Category::Cancelled, reason),
                None,
                start,
            );
        }
        lad.resume(snap);
    } else {
        lad.recycled.extend(&run.seed);
    }
    let specs = specs_of(program);
    let saved = Installed::take(pool);
    let cache = saved.cache.clone();
    let cache_before = cache
        .as_ref()
        .filter(|_| run.members.iter().any(|m| m.use_qcache))
        .map(QueryCache::stats);
    let last_attempt = run.retry.max_retries.max(lad.attempt);

    let verdict = loop {
        let attempt = lad.attempt;
        let members: Vec<Member> = run
            .members
            .iter()
            .map(|c| Member::new(run.retry.escalate(c, attempt)))
            .collect();
        let seeded = lad.recycled.list.len();
        let rounds_before = lad.stats.rounds;
        let end = loop {
            let Some(&spec) = specs.get(lad.specs_done) else {
                break End::Proven;
            };
            let phase = match run.schedule {
                Schedule::TakeTurns => {
                    take_turns(pool, program, spec, &members, cache.as_ref(), &mut lad)
                }
                Schedule::Lockstep | Schedule::Race => threaded(
                    pool,
                    program,
                    spec,
                    &members,
                    cache.as_ref(),
                    &lad.recycled.list,
                    run.schedule == Schedule::Race,
                ),
            };
            match lad.absorb(phase, &members) {
                End::Proven => {
                    lad.specs_done += 1;
                    lad.recycled.clear();
                    // Record the spec transition so a crash right here
                    // resumes into the next spec, not back into this one.
                    lad.write_checkpoint(pool, None, 0);
                }
                other => break other,
            }
        };
        let give_up = match &end {
            End::GaveUp(g) => Some(g.clone()),
            _ => None,
        };
        lad.attempts.push(AttemptReport {
            attempt,
            rounds: lad.stats.rounds - rounds_before,
            seeded,
            give_up,
        });
        match end {
            End::Proven => break Verdict::Correct,
            End::Bug(trace) => break Verdict::Incorrect { trace },
            End::Interrupted => {
                lad.interrupted = true;
                break Verdict::gave_up(
                    Category::Cancelled,
                    "interrupted at a round boundary; checkpoint written",
                );
            }
            // Escalate and restart at the failed spec; the recycled pool
            // already holds its harvest.
            End::GaveUp(_) if attempt < last_attempt && !lad.is_interrupted() => {
                lad.attempt += 1;
            }
            End::GaveUp(g) if lad.attempts.len() > 1 => {
                let reason = format!(
                    "gave up after {} attempts (last cause: {})",
                    lad.attempts.len(),
                    g.reason
                );
                break Verdict::gave_up(g.category, reason);
            }
            End::GaveUp(g) => break Verdict::GaveUp(g),
        }
    };
    saved.restore(pool);
    if let (Some(cache), Some(before)) = (&cache, cache_before) {
        let delta = cache.stats().since(&before);
        lad.stats.qcache_hits = delta.hits;
        lad.stats.qcache_misses = delta.misses;
    }
    let failed_spec = specs.get(lad.specs_done).copied();
    let certificate = lad.certificate(run, &verdict, failed_spec);
    lad.finish(run, verdict, certificate, start)
}

/// The pool settings a run installs and restores.
struct Installed {
    governor: ResourceGovernor,
    solver: SolverKind,
    cache: Option<QueryCache>,
}

impl Installed {
    fn take(pool: &TermPool) -> Installed {
        Installed {
            governor: pool.governor().clone(),
            solver: pool.solver_kind(),
            cache: pool.query_cache().cloned(),
        }
    }

    fn restore(self, pool: &mut TermPool) {
        pool.set_governor(self.governor);
        pool.set_solver_kind(self.solver);
        match self.cache {
            Some(cache) => pool.set_query_cache(cache),
            None => {
                pool.take_query_cache();
            }
        }
    }
}

/// One member for one attempt: its escalated configuration and the
/// governor built from it (the deadline starts counting here).
struct Member {
    config: VerifierConfig,
    governor: ResourceGovernor,
}

impl Member {
    fn new(config: VerifierConfig) -> Member {
        let governor = config.govern.build();
        Member { config, governor }
    }

    /// Installs this member's governor, solver kind and query-cache
    /// setting on `pool`; `cache` is the run's cache. A member with the
    /// cache disabled solves every query cold; other holders of the
    /// shared cache are unaffected.
    fn install(&self, pool: &mut TermPool, cache: Option<&QueryCache>) {
        pool.set_governor(self.governor.clone());
        pool.set_solver_kind(self.config.solver);
        match cache.filter(|_| self.config.use_qcache) {
            Some(cache) => pool.set_query_cache(cache.clone()),
            None => {
                pool.take_query_cache();
            }
        }
    }

    /// A governor for one race phase: this member's limits, the attempt's
    /// remaining deadline, and the race's stop flag as cancellation token.
    fn race_governor(&self, stop: &Arc<AtomicBool>) -> ResourceGovernor {
        let mut govern = self.config.govern.clone();
        govern.deadline = self
            .governor
            .deadline()
            .map(|d| d.saturating_duration_since(Instant::now()));
        govern.build_with_cancel(Arc::clone(stop))
    }
}

/// One member's engine on one spec.
#[derive(Default)]
struct Seat {
    engine: Option<Engine>,
    /// The proof's Hoare checks when this seat proved its spec, read
    /// before the certificate-recording walk.
    proven_hoare_checks: Option<usize>,
    /// The certificate recorded when this seat proved its spec.
    cert: Option<SpecCert>,
}

impl Seat {
    fn stats(&self) -> EngineStats {
        self.engine.as_ref().map(|e| e.stats).unwrap_or_default()
    }

    /// One refinement round of `config` against `proof` under the
    /// governor installed on `pool` — the one round every schedule runs.
    /// Creates the engine on first use, honours `max_rounds`, charges
    /// [`Category::Rounds`], records the certificate when the round proves
    /// the spec, and contains panics as [`Category::InjectedFault`]
    /// give-ups (the engine and proof stay usable for the harvest).
    fn step(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        spec: Spec,
        config: &VerifierConfig,
        proof: &mut ProofAutomaton,
    ) -> RoundOutcome {
        let governor = pool.governor().clone();
        catch_unwind(AssertUnwindSafe(|| {
            let engine = self
                .engine
                .get_or_insert_with(|| Engine::new(pool, program, spec, config));
            if engine.stats.rounds >= config.max_rounds {
                return RoundOutcome::GaveUp(GiveUp::new(
                    Category::Rounds,
                    format!("no proof within {} refinement rounds", config.max_rounds),
                ));
            }
            if let Err(g) = governor.charge(Category::Rounds) {
                return RoundOutcome::GaveUp(g);
            }
            let outcome = engine.round(pool, program, proof);
            if outcome == RoundOutcome::Proven {
                self.proven_hoare_checks = Some(proof.stats().hoare_checks);
                self.cert = engine.record_spec_cert(pool, program, proof);
            }
            outcome
        }))
        .unwrap_or_else(|payload| {
            RoundOutcome::GaveUp(
                governor
                    .give_up()
                    .filter(|g| g.category == Category::InjectedFault)
                    .unwrap_or_else(|| {
                        GiveUp::new(
                            Category::InjectedFault,
                            format!("panic contained: {}", panic_reason(payload.as_ref())),
                        )
                    }),
            )
        })
    }
}

/// How one spec phase (or one attempt) ended.
enum End {
    Proven,
    Bug(Vec<LetterId>),
    GaveUp(GiveUp),
    Interrupted,
}

/// How one member ended a spec phase, with its counters.
struct MemberEnd {
    stats: EngineStats,
    proof_size: usize,
    status: EngineStatus,
}

/// One spec phase of one attempt, as every schedule reports it.
struct Phase {
    end: End,
    /// The member that decided the spec.
    winner: Option<usize>,
    /// The winner's certificate, when it proved the spec.
    cert: Option<SpecCert>,
    /// One entry per member, in member order.
    members: Vec<MemberEnd>,
    /// Hoare checks of the phase's proofs (a shared proof counts once).
    hoare_checks: usize,
    /// Largest proof of the phase.
    proof_size: usize,
    /// Every assertion of the phase's proofs, exported.
    harvest: Vec<ExportedTerm>,
}

/// The phase's give-up when no member concluded: a lone member's own
/// give-up, otherwise the first root cause in member order (a `cancelled`
/// member only echoes whichever member tripped first).
fn all_gave_up(members: &[MemberEnd]) -> GiveUp {
    let give_ups: Vec<&GiveUp> = members
        .iter()
        .filter_map(|m| match &m.status {
            EngineStatus::GaveUp(g) => Some(g),
            _ => None,
        })
        .collect();
    match give_ups
        .iter()
        .find(|g| g.category != Category::Cancelled)
        .or(give_ups.first())
    {
        Some(&g) if members.len() == 1 => g.clone(),
        Some(g) => GiveUp::new(
            g.category,
            format!("every portfolio engine gave up (e.g. {})", g.reason),
        ),
        None => GiveUp::new(Category::Cancelled, "every portfolio engine gave up"),
    }
}

fn import(pool: &mut TermPool, proof: &mut ProofAutomaton, batch: &[ExportedTerm]) {
    for t in batch {
        let id = pool.import(t);
        proof.add_assertion(id);
    }
}

fn export(pool: &TermPool, terms: &[TermId]) -> Vec<ExportedTerm> {
    terms.iter().map(|&t| pool.export(t)).collect()
}

/// [`Schedule::TakeTurns`] on one spec: the members take turns over one
/// shared proof on the calling thread, cheapest first.
fn take_turns(
    pool: &mut TermPool,
    program: &Program,
    spec: Spec,
    members: &[Member],
    cache: Option<&QueryCache>,
    lad: &mut Ladder,
) -> Phase {
    let mut proof = ProofAutomaton::new();
    import(pool, &mut proof, &lad.recycled.list);
    let mut seats: Vec<Seat> = members.iter().map(|_| Seat::default()).collect();
    let mut gave_up: Vec<Option<GiveUp>> = vec![None; members.len()];
    let spec_rounds = |seats: &[Seat]| seats.iter().map(|s| s.stats().rounds).sum::<usize>();
    let (end, winner) = loop {
        let Some(i) = (0..members.len())
            .filter(|&i| gave_up[i].is_none())
            .min_by_key(|&i| seats[i].stats().visited)
        else {
            break (None, None);
        };
        if lad.is_interrupted() {
            lad.write_checkpoint(pool, Some(&proof), spec_rounds(&seats));
            break (Some(End::Interrupted), None);
        }
        members[i].install(pool, cache);
        match seats[i].step(pool, program, spec, &members[i].config, &mut proof) {
            RoundOutcome::Refined => {
                lad.write_checkpoint(pool, Some(&proof), spec_rounds(&seats));
            }
            RoundOutcome::Proven => break (Some(End::Proven), Some(i)),
            RoundOutcome::Bug(trace) => break (Some(End::Bug(trace)), Some(i)),
            RoundOutcome::GaveUp(g) => gave_up[i] = Some(g),
            // Only a tripped governor cancels a turn; it recorded the cause.
            RoundOutcome::Cancelled => {
                gave_up[i] = Some(
                    pool.governor()
                        .give_up()
                        .unwrap_or_else(|| GiveUp::new(Category::Cancelled, "governor tripped")),
                )
            }
        }
    };
    let proof_size = proof.proof_size();
    let member_ends: Vec<MemberEnd> = seats
        .iter()
        .zip(gave_up)
        .enumerate()
        .map(|(i, (seat, g))| MemberEnd {
            stats: seat.stats(),
            proof_size,
            status: match g {
                Some(g) => EngineStatus::GaveUp(g),
                None if winner == Some(i) => EngineStatus::Won,
                None => EngineStatus::Lost,
            },
        })
        .collect();
    let end = end.unwrap_or_else(|| End::GaveUp(all_gave_up(&member_ends)));
    let (hoare_checks, cert) = winner.map_or((None, None), |w| {
        (seats[w].proven_hoare_checks, seats[w].cert.take())
    });
    Phase {
        end,
        winner,
        cert,
        members: member_ends,
        hoare_checks: hoare_checks.unwrap_or_else(|| proof.stats().hoare_checks),
        proof_size,
        harvest: export(pool, proof.assertions()),
    }
}

/// Worker → coordinator messages of a threaded phase.
enum WorkerMsg {
    /// The assertions one round added (possibly none — in lockstep every
    /// round replies, which is the barrier).
    Batch {
        member: usize,
        batch: Vec<ExportedTerm>,
    },
    /// The member is done with the spec.
    Exit(Box<WorkerExit>),
}

/// The terminal state of one worker.
struct WorkerExit {
    member: usize,
    /// `Proven`, `Bug`, `GaveUp` or `Cancelled` (stopped by the phase).
    outcome: RoundOutcome,
    stats: EngineStats,
    proof_size: usize,
    hoare_checks: usize,
    /// The worker's whole proof, exported.
    assertions: Vec<ExportedTerm>,
    cert: Option<SpecCert>,
}

impl WorkerExit {
    /// The record of a worker that gave up without running its loop to
    /// the end (its thread panicked outside a round, or its exit report
    /// never arrived).
    fn lost(member: usize, give_up: GiveUp) -> WorkerExit {
        WorkerExit {
            member,
            outcome: RoundOutcome::GaveUp(give_up),
            stats: EngineStats::default(),
            proof_size: 0,
            hoare_checks: 0,
            assertions: Vec::new(),
            cert: None,
        }
    }

    fn concluded(&self) -> bool {
        matches!(self.outcome, RoundOutcome::Proven | RoundOutcome::Bug(_))
    }
}

/// [`Schedule::Lockstep`] and [`Schedule::Race`] on one spec: one thread
/// per member, each with a clone of `pool` (sharing its query cache) and
/// its own proof seeded with `seeds`.
fn threaded(
    pool: &TermPool,
    program: &Program,
    spec: Spec,
    members: &[Member],
    cache: Option<&QueryCache>,
    seeds: &[ExportedTerm],
    race: bool,
) -> Phase {
    let n = members.len();
    let stop = Arc::new(AtomicBool::new(false));
    let (to_coord, from_workers) = channel::<WorkerMsg>();
    let (winner, exits) = std::thread::scope(|scope| {
        let mut to_workers = Vec::with_capacity(n);
        for (idx, member) in members.iter().enumerate() {
            let (tx_batches, rx_batches) = channel::<Vec<Vec<ExportedTerm>>>();
            to_workers.push(tx_batches);
            let tx = to_coord.clone();
            let stop = Arc::clone(&stop);
            let mut worker_pool = pool.clone();
            scope.spawn(move || {
                let exit = catch_unwind(AssertUnwindSafe(|| {
                    member.install(&mut worker_pool, cache);
                    if race {
                        worker_pool.set_governor(member.race_governor(&stop));
                    }
                    let ctx = WorkerCtx {
                        program,
                        spec,
                        member,
                        idx,
                        race,
                        rx: &rx_batches,
                        tx: &tx,
                        stop: &stop,
                    };
                    ctx.run(&mut worker_pool, seeds)
                }))
                .unwrap_or_else(|payload| {
                    let reason = format!("worker panicked: {}", panic_reason(payload.as_ref()));
                    WorkerExit::lost(idx, GiveUp::new(Category::InjectedFault, reason))
                });
                // The coordinator may already be gone when the phase was
                // decided; a failed send is fine then.
                let _ = tx.send(WorkerMsg::Exit(Box::new(exit)));
            });
        }
        drop(to_coord);
        if race {
            coordinate_race(n, &from_workers, &to_workers, &stop)
        } else {
            coordinate_lockstep(n, &from_workers, to_workers)
        }
    });
    let mut exits: Vec<WorkerExit> = exits
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            e.unwrap_or_else(|| {
                let reason = format!("worker lost: engine {i} exited without a report");
                WorkerExit::lost(i, GiveUp::new(Category::Cancelled, reason))
            })
        })
        .collect();
    let members: Vec<MemberEnd> = exits
        .iter()
        .map(|e| MemberEnd {
            stats: e.stats,
            proof_size: e.proof_size,
            status: match &e.outcome {
                RoundOutcome::GaveUp(g) => EngineStatus::GaveUp(g.clone()),
                _ if winner == Some(e.member) => EngineStatus::Won,
                _ => EngineStatus::Lost,
            },
        })
        .collect();
    let end = match winner.map(|w| &exits[w].outcome) {
        Some(RoundOutcome::Proven) => End::Proven,
        Some(RoundOutcome::Bug(trace)) => End::Bug(trace.clone()),
        _ => End::GaveUp(all_gave_up(&members)),
    };
    Phase {
        end,
        winner,
        cert: winner.and_then(|w| exits[w].cert.take()),
        hoare_checks: exits.iter().map(|e| e.hoare_checks).sum(),
        proof_size: exits.iter().map(|e| e.proof_size).max().unwrap_or(0),
        harvest: exits.into_iter().flat_map(|e| e.assertions).collect(),
        members,
    }
}

/// What one worker thread needs besides its pool.
struct WorkerCtx<'a> {
    program: &'a Program,
    spec: Spec,
    member: &'a Member,
    idx: usize,
    race: bool,
    rx: &'a Receiver<Vec<Vec<ExportedTerm>>>,
    tx: &'a Sender<WorkerMsg>,
    stop: &'a AtomicBool,
}

impl WorkerCtx<'_> {
    /// The worker's round loop: absorb the other members' assertions
    /// (lockstep: block at the barrier; race: drain what arrived), run one
    /// round, publish what it added.
    fn run(&self, pool: &mut TermPool, seeds: &[ExportedTerm]) -> WorkerExit {
        let mut seat = Seat::default();
        let mut proof = ProofAutomaton::new();
        import(pool, &mut proof, seeds);
        let outcome = loop {
            if self.race {
                while let Ok(batches) = self.rx.try_recv() {
                    batches.iter().for_each(|b| import(pool, &mut proof, b));
                }
                if self.stop.load(Ordering::Relaxed) {
                    break RoundOutcome::Cancelled;
                }
            } else {
                // A closed channel is the coordinator's stop signal.
                let Ok(batches) = self.rx.recv() else {
                    break RoundOutcome::Cancelled;
                };
                batches.iter().for_each(|b| import(pool, &mut proof, b));
            }
            match seat.step(
                pool,
                self.program,
                self.spec,
                &self.member.config,
                &mut proof,
            ) {
                RoundOutcome::Refined => {
                    let added = seat.engine.as_mut().map(Engine::take_new_assertions);
                    let batch = export(pool, &added.unwrap_or_default());
                    let msg = WorkerMsg::Batch {
                        member: self.idx,
                        batch,
                    };
                    if self.tx.send(msg).is_err() {
                        break RoundOutcome::Cancelled;
                    }
                }
                done => break done,
            }
        };
        WorkerExit {
            member: self.idx,
            outcome,
            stats: seat.stats(),
            proof_size: proof.proof_size(),
            hoare_checks: seat
                .proven_hoare_checks
                .unwrap_or_else(|| proof.stats().hoare_checks),
            assertions: export(pool, proof.assertions()),
            cert: seat.cert,
        }
    }
}

/// Lockstep coordinator: full round barriers, batches broadcast in member
/// order, the lowest-indexed member that concluded in a round wins.
/// Dropping the senders releases the survivors as cancelled.
fn coordinate_lockstep(
    n: usize,
    from_workers: &Receiver<WorkerMsg>,
    mut to_workers: Vec<Sender<Vec<Vec<ExportedTerm>>>>,
) -> (Option<usize>, Vec<Option<WorkerExit>>) {
    let mut exits: Vec<Option<WorkerExit>> = (0..n).map(|_| None).collect();
    // Batches of the previous round, by member.
    let mut pending: Vec<Vec<ExportedTerm>> = vec![Vec::new(); n];
    loop {
        let living: Vec<usize> = (0..n).filter(|&i| exits[i].is_none()).collect();
        if living.is_empty() {
            return (None, exits);
        }
        let broadcast: Vec<Vec<ExportedTerm>> = pending
            .iter_mut()
            .filter(|b| !b.is_empty())
            .map(std::mem::take)
            .collect();
        for &i in &living {
            // A failed send means the worker already exited; its exit
            // report is collected below.
            let _ = to_workers[i].send(broadcast.clone());
        }
        for _ in &living {
            match from_workers.recv() {
                Ok(WorkerMsg::Batch { member, batch }) => pending[member] = batch,
                Ok(WorkerMsg::Exit(exit)) => {
                    let i = exit.member;
                    exits[i] = Some(*exit);
                }
                // Every worker is gone; missing reports become give-ups.
                Err(_) => return (None, exits),
            }
        }
        let winner = living
            .into_iter()
            .find(|&i| exits[i].as_ref().is_some_and(WorkerExit::concluded));
        if winner.is_some() {
            to_workers.clear();
            drain_exits(from_workers, &mut exits);
            return (winner, exits);
        }
    }
}

/// Race coordinator: relays batches as they arrive; the first conclusive
/// exit wins and raises the stop flag.
fn coordinate_race(
    n: usize,
    from_workers: &Receiver<WorkerMsg>,
    to_workers: &[Sender<Vec<Vec<ExportedTerm>>>],
    stop: &AtomicBool,
) -> (Option<usize>, Vec<Option<WorkerExit>>) {
    let mut exits: Vec<Option<WorkerExit>> = (0..n).map(|_| None).collect();
    let mut winner = None;
    while exits.iter().any(Option::is_none) {
        match from_workers.recv() {
            Ok(WorkerMsg::Batch { member, batch }) if !batch.is_empty() => {
                for (i, sender) in to_workers.iter().enumerate() {
                    if i != member && exits[i].is_none() {
                        let _ = sender.send(vec![batch.clone()]);
                    }
                }
            }
            Ok(WorkerMsg::Batch { .. }) => {}
            Ok(WorkerMsg::Exit(exit)) => {
                let i = exit.member;
                if winner.is_none() && exit.concluded() {
                    winner = Some(i);
                    stop.store(true, Ordering::Relaxed);
                }
                exits[i] = Some(*exit);
            }
            Err(_) => break,
        }
    }
    (winner, exits)
}

/// Receives the remaining exit reports after the phase was decided.
fn drain_exits(from_workers: &Receiver<WorkerMsg>, exits: &mut [Option<WorkerExit>]) {
    while exits.iter().any(Option::is_none) {
        match from_workers.recv() {
            Ok(WorkerMsg::Exit(exit)) => {
                let i = exit.member;
                exits[i] = Some(*exit);
            }
            Ok(WorkerMsg::Batch { .. }) => {}
            Err(_) => break,
        }
    }
}

/// Exported assertions, deduplicated, in discovery order.
#[derive(Default)]
struct Assertions {
    list: Vec<ExportedTerm>,
    seen: HashSet<ExportedTerm>,
}

impl Assertions {
    fn extend(&mut self, terms: &[ExportedTerm]) {
        for t in terms {
            if self.seen.insert(t.clone()) {
                self.list.push(t.clone());
            }
        }
    }

    fn clear(&mut self) {
        self.list.clear();
        self.seen.clear();
    }
}

/// The ladder's state, threaded through attempts and spec phases.
#[derive(Default)]
struct Ladder {
    program_hash: u64,
    config_name: String,
    checkpoint: Option<PathBuf>,
    checkpoint_error: Option<String>,
    interrupt: Option<Arc<AtomicBool>>,
    interrupted: bool,
    attempt: u32,
    specs_done: usize,
    /// Rounds carried in from the resumed snapshot.
    base_rounds: usize,
    /// Counters of this process (all attempts).
    stats: RunStats,
    attempts: Vec<AttemptReport>,
    reports: Vec<EngineReport>,
    give_ups: Vec<AttributedGiveUp>,
    /// Candidate assertions for the spec in progress.
    recycled: Assertions,
    /// Everything harvested across specs and attempts.
    harvest: Assertions,
    /// One certificate per proven spec, in spec order; specs proven before
    /// a resumed snapshot have none.
    spec_certs: Vec<Option<SpecCert>>,
    /// The member that decided the last analyzed spec.
    winner: Option<usize>,
}

impl Ladder {
    fn new(pool: &TermPool, program: &Program, run: &Run) -> Ladder {
        let names: Vec<&str> = run.members.iter().map(|m| m.name.as_str()).collect();
        Ladder {
            program_hash: program_fingerprint(pool, program),
            config_name: names.join(","),
            checkpoint: run.checkpoint.clone(),
            interrupt: run.interrupt.clone(),
            ..Ladder::default()
        }
    }

    /// Continues the counters of a snapshot taken for this program.
    fn resume(&mut self, snap: &Snapshot) {
        self.attempt = snap.attempt;
        self.specs_done = snap.specs_done;
        self.spec_certs = vec![None; snap.specs_done];
        self.base_rounds = snap.rounds_completed;
        for g in &snap.give_ups {
            push_give_up_deduped(&mut self.give_ups, g.clone());
        }
        self.recycled.extend(&snap.assertions);
    }

    fn is_interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Folds one spec phase into the run: counters, reports, give-up
    /// history, harvest (recycled only when the phase failed — a decided
    /// spec's assertions do not seed the next spec) and certificate.
    fn absorb(&mut self, phase: Phase, members: &[Member]) -> End {
        for (member, end) in members.iter().zip(phase.members) {
            self.stats.add_engine(&end.stats);
            if let EngineStatus::GaveUp(g) = &end.status {
                let entry = AttributedGiveUp::new(&member.config.name, g.clone());
                push_give_up_deduped(&mut self.give_ups, entry);
            }
            self.reports.push(EngineReport {
                name: member.config.name.clone(),
                spec: self.specs_done,
                rounds: end.stats.rounds,
                proof_size: end.proof_size,
                status: end.status,
            });
        }
        self.stats.hoare_checks += phase.hoare_checks;
        self.stats.proof_size = self.stats.proof_size.max(phase.proof_size);
        self.harvest.extend(&phase.harvest);
        match phase.end {
            End::Proven | End::Bug(_) => self.winner = phase.winner,
            End::GaveUp(_) | End::Interrupted => self.recycled.extend(&phase.harvest),
        }
        if let End::Proven = phase.end {
            self.spec_certs.push(phase.cert);
        }
        phase.end
    }

    /// Writes a round-boundary checkpoint if a path is configured; `proof`
    /// is the spec in progress (`None`: the recycled pool) and
    /// `spec_rounds` its rounds so far. Best-effort: failures are
    /// recorded, not fatal.
    fn write_checkpoint(
        &mut self,
        pool: &TermPool,
        proof: Option<&ProofAutomaton>,
        spec_rounds: usize,
    ) {
        let Some(path) = &self.checkpoint else {
            return;
        };
        let snapshot = Snapshot {
            program_hash: self.program_hash,
            config_name: self.config_name.clone(),
            attempt: self.attempt,
            specs_done: self.specs_done,
            rounds_completed: self.base_rounds + self.stats.rounds + spec_rounds,
            give_ups: self.give_ups.clone(),
            assertions: match proof {
                Some(proof) => export(pool, proof.assertions()),
                None => self.recycled.list.clone(),
            },
        };
        if let Err(e) = snapshot.save_atomic(path) {
            self.checkpoint_error = Some(e);
        }
    }

    /// The end-to-end certificate: a CORRECT verdict needs a recorded
    /// proof for *every* specification; an INCORRECT verdict carries its
    /// violating trace bound to the failed spec, when the member that
    /// found it certifies.
    fn certificate(
        &mut self,
        run: &Run,
        verdict: &Verdict,
        failed_spec: Option<Spec>,
    ) -> Option<Certificate> {
        match verdict {
            Verdict::Correct => Some(Certificate::Correct {
                fingerprint: self.program_hash,
                specs: std::mem::take(&mut self.spec_certs)
                    .into_iter()
                    .collect::<Option<Vec<_>>>()?,
            }),
            Verdict::Incorrect { .. } if !run.members[self.winner?].certify => None,
            Verdict::Incorrect { trace } => Some(Certificate::Bug {
                fingerprint: self.program_hash,
                spec: CertSpec::of(failed_spec?),
                trace: trace.iter().map(|l| l.0).collect(),
            }),
            Verdict::GaveUp(_) => None,
        }
    }

    fn finish(
        self,
        run: &Run,
        verdict: Verdict,
        certificate: Option<Certificate>,
        start: Instant,
    ) -> Driven {
        let final_rounds = self.attempts.last().map_or(0, |a| a.rounds);
        let mut stats = self.stats;
        stats.rounds += self.base_rounds;
        stats.time = start.elapsed();
        let conclusive = !matches!(verdict, Verdict::GaveUp(_));
        Driven {
            rounds_skipped: stats.rounds.saturating_sub(final_rounds),
            outcome: Outcome {
                verdict,
                stats,
                certificate,
            },
            winner: self
                .winner
                .filter(|_| conclusive)
                .map(|w| run.members[w].name.clone()),
            engines: self.reports,
            recycled_assertions: self.attempts.last().map_or(0, |a| a.seeded),
            attempts: self.attempts,
            give_up_history: self.give_ups,
            interrupted: self.interrupted,
            checkpoint_error: self.checkpoint_error,
            harvest: self.harvest.list,
        }
    }
}
