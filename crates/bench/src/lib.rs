//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index). This library provides
//! the common machinery: running a corpus under a configuration, the
//! portfolio model, and plain-text table/series formatting.

use bench_suite::{Benchmark, Expected, Suite};
use gemcutter::drive::{drive, RetryPolicy};
use gemcutter::portfolio::{default_portfolio, portfolio_verify};
use gemcutter::verify::{verify, Outcome, Verdict, VerifierConfig};
use smt::term::TermPool;

/// The result of one (benchmark, configuration) run.
#[derive(Clone, Debug)]
pub struct Run {
    /// Benchmark name.
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// Ground truth.
    pub expected: Expected,
    /// Configuration name.
    pub config: String,
    /// Outcome.
    pub outcome: Outcome,
}

impl Run {
    /// `true` if the verdict is conclusive and matches the ground truth.
    pub fn successful(&self) -> bool {
        matches!(
            (&self.outcome.verdict, self.expected),
            (Verdict::Correct, Expected::Safe) | (Verdict::Incorrect { .. }, Expected::Unsafe)
        )
    }

    /// `true` if the verdict is conclusive but contradicts ground truth —
    /// this would indicate a soundness bug and is asserted against.
    pub fn contradicts_ground_truth(&self) -> bool {
        matches!(
            (&self.outcome.verdict, self.expected),
            (Verdict::Correct, Expected::Unsafe) | (Verdict::Incorrect { .. }, Expected::Safe)
        )
    }

    /// Memory proxy: visited proof-check states.
    pub fn memory(&self) -> usize {
        self.outcome.stats.visited_states
    }

    /// CPU time in seconds.
    pub fn time_s(&self) -> f64 {
        self.outcome.stats.time.as_secs_f64()
    }
}

/// Runs `benchmarks` under `config`.
///
/// # Panics
///
/// Panics if any verdict contradicts the ground truth (soundness bug).
pub fn run_config(benchmarks: &[Benchmark], config: &VerifierConfig) -> Vec<Run> {
    benchmarks
        .iter()
        .map(|b| {
            let mut pool = TermPool::new();
            let p = b.compile(&mut pool);
            let outcome = verify(&mut pool, &p, config);
            let run = Run {
                name: b.name.clone(),
                suite: b.suite,
                expected: b.expected,
                config: config.name.clone(),
                outcome,
            };
            assert!(
                !run.contradicts_ground_truth(),
                "SOUNDNESS BUG on {}: {:?} but expected {:?}",
                run.name,
                run.outcome.verdict,
                run.expected
            );
            run
        })
        .collect()
}

/// Runs the five-order portfolio on `benchmarks` (parallel model: the
/// fastest conclusive member's outcome is reported). When `full` is set,
/// every member runs even after a success — needed by Figure 8.
pub fn run_portfolio(benchmarks: &[Benchmark], full: bool) -> Vec<(Run, Vec<(String, Outcome)>)> {
    benchmarks
        .iter()
        .map(|b| {
            let mut pool = TermPool::new();
            let p = b.compile(&mut pool);
            let result = portfolio_verify(&mut pool, &p, &default_portfolio(), !full);
            let run = Run {
                name: b.name.clone(),
                suite: b.suite,
                expected: b.expected,
                config: result
                    .winner
                    .clone()
                    .unwrap_or_else(|| "portfolio".to_owned()),
                outcome: result.outcome.clone(),
            };
            assert!(
                !run.contradicts_ground_truth(),
                "SOUNDNESS BUG on {}: {:?} but expected {:?}",
                run.name,
                run.outcome.verdict,
                run.expected
            );
            (run, result.members)
        })
        .collect()
}

/// The result of one supervised (restart-ladder) run: the plain [`Run`]
/// plus the supervision counters the recovery tables report.
#[derive(Clone, Debug)]
pub struct SupervisedRun {
    /// The final-attempt outcome, comparable to any other [`Run`].
    pub run: Run,
    /// Attempts beyond the first (0 = converged without restarting).
    pub retries_used: usize,
    /// Assertions recycled into the final attempt's initial proof.
    pub recycled: usize,
    /// Refinement rounds whose work the final attempt did not repeat.
    pub rounds_skipped: usize,
    /// `rounds_skipped / (rounds_skipped + final-attempt rounds)`.
    pub hit_rate: f64,
}

/// Runs `benchmarks` under `config` wrapped in the restart supervisor
/// with `policy` (escalation ladder + proof recycling, no checkpointing).
///
/// # Panics
///
/// Panics if any verdict contradicts the ground truth (soundness bug).
pub fn run_supervised(
    benchmarks: &[Benchmark],
    config: &VerifierConfig,
    policy: RetryPolicy,
) -> Vec<SupervisedRun> {
    benchmarks
        .iter()
        .map(|b| {
            let mut pool = TermPool::new();
            let p = b.compile(&mut pool);
            let sup = drive(
                &mut pool,
                &p,
                &gemcutter::drive::Run::single(config).retrying(policy),
            );
            let run = Run {
                name: b.name.clone(),
                suite: b.suite,
                expected: b.expected,
                config: config.name.clone(),
                outcome: sup.outcome.clone(),
            };
            assert!(
                !run.contradicts_ground_truth(),
                "SOUNDNESS BUG on {}: {:?} but expected {:?}",
                run.name,
                run.outcome.verdict,
                run.expected
            );
            SupervisedRun {
                run,
                retries_used: sup.retries_used(),
                recycled: sup.recycled_assertions,
                rounds_skipped: sup.rounds_skipped,
                hit_rate: sup.recycle_hit_rate(),
            }
        })
        .collect()
}

/// Aggregate row: count, total time, total memory proxy, total rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    /// Number of runs aggregated.
    pub count: usize,
    /// Total CPU time (s).
    pub time_s: f64,
    /// Total memory proxy (visited states).
    pub memory: usize,
    /// Total refinement rounds.
    pub rounds: usize,
    /// Total proof size.
    pub proof_size: usize,
}

impl Aggregate {
    /// Accumulates successful runs from `runs` filtered by `keep`.
    pub fn of<'a>(
        runs: impl IntoIterator<Item = &'a Run>,
        keep: impl Fn(&Run) -> bool,
    ) -> Aggregate {
        let mut agg = Aggregate::default();
        for r in runs {
            if r.successful() && keep(r) {
                agg.count += 1;
                agg.time_s += r.time_s();
                agg.memory += r.memory();
                agg.rounds += r.outcome.stats.rounds;
                agg.proof_size += r.outcome.stats.proof_size;
            }
        }
        agg
    }
}

/// Prints a quantile series: point `x` is the x-th smallest value.
pub fn print_quantile_series(label: &str, mut values: Vec<f64>) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    println!("  {label}:");
    for (i, v) in values.iter().enumerate() {
        println!("    {:3} {v:.6}", i + 1);
    }
}

/// Formats seconds in a compact human unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2}s")
    } else {
        format!("{:.1}ms", seconds * 1e3)
    }
}

/// The corpus restricted by the `SEQVER_QUICK` environment variable: when
/// set, only benchmarks with small indices/parameters run (used to smoke-
/// test the harnesses quickly).
pub fn corpus() -> Vec<Benchmark> {
    let all = bench_suite::all();
    if std::env::var("SEQVER_QUICK").is_ok() {
        all.into_iter()
            .filter(|b| !b.name.ends_with("-4") && !b.name.ends_with("-3"))
            .collect()
    } else {
        all
    }
}
