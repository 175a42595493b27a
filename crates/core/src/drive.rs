//! The refinement driver: Algorithm 1 — check the proof candidate against
//! the reduction, refine on a spurious counterexample — written once, for
//! every way the verifier runs it.
//!
//! [`drive`] takes a [`Run`]: the member configurations (one preference
//! order each), a [`RetryPolicy`] and optional seed, checkpoint, resume and
//! interrupt settings.
//!
//! * **Taking turns.** The members run on the calling thread over one
//!   shared proof, one round at a time, cheapest member (fewest visited
//!   states) first — the direction sketched in the paper's §8 Limitations.
//!   With one member this is the plain refinement loop of
//!   [`crate::verify::verify`].
//! * **Per attempt.** Each member gets a governor built from its `govern`
//!   limits, its solver kind and its memoization switch, installed on the
//!   pool before each of its rounds (the caller's settings are restored at
//!   the end).
//! * **Per round** (`Seat::step`): honour the member's `max_rounds`,
//!   charge [`Category::Rounds`] and contain panics at round granularity;
//!   a proving round leaves its certificate on the engine.
//! * **Around attempts**, one ladder: a give-up escalates every member's
//!   deadline and step budgets (and `max_visited_per_round`) by the
//!   [`RetryPolicy`], recycles the proof of the failed spec as seeds, and
//!   resumes at that spec. Round-boundary and spec-boundary checkpoints
//!   ([`Run::checkpoint`]) make a killed run resumable with the same
//!   verdict and cumulative round count ([`Run::resume`]).
//!
//! **Counters.** Each engine accumulates its own [`RunStats`]; each spec
//! phase folds every member's record, plus one record carrying the shared
//! proof's `hoare_checks` (read before the proving round's certificate
//! resumption extends δ) and size, through [`RunStats::merge`].
//! Query-cache counters follow one rule: the delta of the pool memo's
//! counters ([`smt::QueryMemo`]) between the start and the end of
//! [`drive`] — engine set-up, rounds and certificate recording included,
//! across attempts — or zero when no member memoizes. The memo is owned
//! by the pool, so the delta is exact; a shared cross-pool cache keeps
//! its own counters.
//!
//! **Soundness of recycling.** Seeds are only ever *candidate* assertions:
//! the proof automaton re-validates every transition with a Hoare query and
//! a bug verdict replays its trace exactly, so a stale, foreign or even
//! adversarial seed costs completeness, never soundness.

use crate::certify::{CertSpec, Certificate, SpecCert};
use crate::engine::{Engine, RoundOutcome};
use crate::govern::{
    panic_reason, push_give_up_deduped, AttributedGiveUp, Category, GiveUp, ResourceGovernor,
};
use crate::proof::ProofAutomaton;
use crate::snapshot::{program_fingerprint, Snapshot};
use crate::verify::{specs_of, Outcome, RunStats, Verdict, VerifierConfig};
use program::concurrent::{LetterId, Program, Spec};
use smt::term::{TermId, TermPool};
use smt::transfer::ExportedTerm;
use smt::{QueryMemo, SolverKind};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The escalation ladder: how many restarts a run gets and how fast its
/// resource limits grow between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of restarts after the initial attempt.
    pub max_retries: u32,
    /// Per-retry multiplier on the wall-clock deadline, the per-category
    /// step budgets and the per-round visited-state cap.
    pub factor: u32,
}

impl Default for RetryPolicy {
    /// No retries; ×2 ladders once retries are enabled.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            factor: 2,
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

    /// Sets the escalation factor; builder style.
    pub fn escalating_by(mut self, factor: u32) -> RetryPolicy {
        self.factor = factor;
        self
    }

    /// Parses an `--escalate` factor spec: `4x` or a bare `4`.
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
        escalated.govern = config.govern.escalated(attempt, self.factor);
        escalated.max_visited_per_round = config
            .max_visited_per_round
            .saturating_mul(self.factor.saturating_pow(attempt).max(1) as usize);
        escalated
    }
}

/// Everything [`drive`] needs besides the pool and the program.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// The member configurations; at least one. They take turns over one
    /// shared proof, cheapest first.
    pub members: Vec<VerifierConfig>,
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
    /// A run of `members`, without retries, seeds or checkpoints.
    pub fn new(members: Vec<VerifierConfig>) -> Run {
        Run {
            members,
            ..Run::default()
        }
    }

    /// The plain refinement loop: one member taking every turn.
    pub fn single(config: &VerifierConfig) -> Run {
        Run::new(vec![config.clone()])
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

/// Verifies `program` with the members of `run` under its retry ladder.
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
    let memo_before = pool.query_cache().map(QueryMemo::stats);
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
            match lad.take_turns(pool, program, spec, &members, saved.memoize) {
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
    if let (Some(memo), Some(before)) = (pool.query_cache(), memo_before) {
        let delta = memo.stats().since(&before);
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
    memoize: bool,
}

impl Installed {
    fn take(pool: &TermPool) -> Installed {
        Installed {
            governor: pool.governor().clone(),
            solver: pool.solver_kind(),
            memoize: pool.query_cache().is_some(),
        }
    }

    fn restore(self, pool: &mut TermPool) {
        pool.set_governor(self.governor);
        pool.set_solver_kind(self.solver);
        pool.set_memoization(self.memoize);
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

    /// Installs this member's governor, solver kind and memoization
    /// switch on `pool`; `memoize` is whether the run's pool memoizes at
    /// all. A member with `use_qcache` off memoizes nothing, and keeps
    /// the memo's entries for the members that do.
    fn install(&self, pool: &mut TermPool, memoize: bool) {
        pool.set_governor(self.governor.clone());
        pool.set_solver_kind(self.config.solver);
        pool.set_memoization(memoize && self.config.use_qcache);
    }
}

/// One member's engine on one spec.
#[derive(Default)]
struct Seat {
    engine: Option<Engine>,
}

impl Seat {
    fn stats(&self) -> RunStats {
        self.engine.as_ref().map(|e| e.stats).unwrap_or_default()
    }

    /// One refinement round of `config` against `proof` under the
    /// governor installed on `pool`.
    /// Creates the engine on first use, honours `max_rounds`, charges
    /// [`Category::Rounds`] and contains panics as [`Category::InjectedFault`]
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
            engine.round(pool, program, proof)
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

/// The phase's give-up when every member gave up: a lone member's own
/// give-up, otherwise the first member's cause.
fn all_gave_up(gave_up: &[Option<GiveUp>]) -> GiveUp {
    let first = gave_up[0].clone().expect("every member gave up");
    if gave_up.len() == 1 {
        return first;
    }
    GiveUp::new(
        first.category,
        format!("every portfolio engine gave up (e.g. {})", first.reason),
    )
}

fn export(pool: &TermPool, terms: &[TermId]) -> Vec<ExportedTerm> {
    terms.iter().map(|&t| pool.export(t)).collect()
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

    /// One spec phase of one attempt: the members take turns over one
    /// shared proof, seeded with the recycled assertions, cheapest first.
    /// Folds the phase into the run — counters, reports, give-up history,
    /// harvest (recycled only when the phase failed: a decided spec's
    /// assertions do not seed the next spec) and certificate — and returns
    /// how it ended.
    fn take_turns(
        &mut self,
        pool: &mut TermPool,
        program: &Program,
        spec: Spec,
        members: &[Member],
        memoize: bool,
    ) -> End {
        let mut proof = ProofAutomaton::new();
        for t in &self.recycled.list {
            let id = pool.import(t);
            proof.add_assertion(id);
        }
        let mut seats: Vec<Seat> = members.iter().map(|_| Seat::default()).collect();
        let mut gave_up: Vec<Option<GiveUp>> = vec![None; members.len()];
        let spec_rounds = |seats: &[Seat]| seats.iter().map(|s| s.stats().rounds).sum::<usize>();
        let (end, winner) = loop {
            let Some(i) = (0..members.len())
                .filter(|&i| gave_up[i].is_none())
                .min_by_key(|&i| seats[i].stats().visited_states)
            else {
                break (End::GaveUp(all_gave_up(&gave_up)), None);
            };
            if self.is_interrupted() {
                self.write_checkpoint(pool, Some(&proof), spec_rounds(&seats));
                break (End::Interrupted, None);
            }
            members[i].install(pool, memoize);
            match seats[i].step(pool, program, spec, &members[i].config, &mut proof) {
                RoundOutcome::Refined => {
                    self.write_checkpoint(pool, Some(&proof), spec_rounds(&seats));
                }
                RoundOutcome::Proven => break (End::Proven, Some(i)),
                RoundOutcome::Bug(trace) => break (End::Bug(trace), Some(i)),
                RoundOutcome::GaveUp(g) => gave_up[i] = Some(g),
            }
        };
        let proof_size = proof.proof_size();
        for (i, ((member, seat), g)) in members.iter().zip(&seats).zip(gave_up).enumerate() {
            let stats = seat.stats();
            self.stats.merge(&stats);
            let status = match g {
                Some(g) => {
                    let entry = AttributedGiveUp::new(&member.config.name, g.clone());
                    push_give_up_deduped(&mut self.give_ups, entry);
                    EngineStatus::GaveUp(g)
                }
                None if winner == Some(i) => EngineStatus::Won,
                None => EngineStatus::Lost,
            };
            self.reports.push(EngineReport {
                name: member.config.name.clone(),
                spec: self.specs_done,
                rounds: stats.rounds,
                proof_size,
                status,
            });
        }
        let (proven_hoare_checks, cert) = winner
            .and_then(|w| seats[w].engine.as_mut()?.take_proven())
            .unzip();
        self.stats.merge(&RunStats {
            hoare_checks: proven_hoare_checks.unwrap_or_else(|| proof.stats().hoare_checks),
            proof_size,
            ..RunStats::default()
        });
        let harvest = export(pool, proof.assertions());
        self.harvest.extend(&harvest);
        match end {
            End::Proven => {
                self.winner = winner;
                self.spec_certs.push(cert.flatten());
            }
            End::Bug(_) => self.winner = winner,
            End::GaveUp(_) | End::Interrupted => self.recycled.extend(&harvest),
        }
        end
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
