//! `seqbench`: the seqver benchmark.
//!
//! ```text
//! cargo run --release --manifest-path seqbench/Cargo.toml -- \
//!     --workload scale-traversal --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Generates a workload's programs from `--seed`, runs them through the
//! public entry points (`cpl::compile`, `gemcutter::verify::verify`, an
//! in-process `serve` daemon), checks every verdict against ground truth
//! and prints the end-to-end metrics (`--trace 0`) or, re-driving the same
//! work through each layer's public functions, the per-layer metrics
//! (`--trace 1`). The last line of standard output is one JSON object. A
//! verdict that contradicts ground truth ends the run with exit code 1 and
//! no result. See `seqbench/README.md`.

mod batch;
mod daemon;
mod instances;
mod report;
mod traced;

use instances::{batch_instances, cross_check_ground_truth, Instance, Workload};
use report::Metrics;
use std::path::Path;
use std::process::ExitCode;

/// Where spans and the daemon's stores go, relative to the working
/// directory.
const OUT_DIR: &str = ".seqbench";
/// Set-up repetitions of a `serve-mixed` run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Warm re-checks per proven program in a traced batch run.
const WARM_REPS: usize = 25;

const USAGE: &str =
    "usage: seqbench --workload scale-traversal|scale-solver|refine-deep|serve-mixed \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints.
struct Output {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("seqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!(
                "seqbench {} seed={} trace={}: {} attempted, {} failed",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                out.attempted,
                out.failed
            );
            print!("{}", out.metrics.render_table());
            println!(
                "{}",
                out.metrics.render_json(true, out.attempted, out.failed)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("seqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Output, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let spans = out_dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let tmp = daemon::TmpDir(out_dir.join(format!("tmp-{}", std::process::id())));
    match args.workload {
        Workload::ServeMixed => serve_mixed(args, &tmp.0, &spans),
        w => batch_workload(args, w, &tmp.0, &spans),
    }
}

/// `scale-traversal`, `scale-solver` and `refine-deep`.
fn batch_workload(args: &Args, w: Workload, tmp: &Path, spans: &Path) -> Result<Output, String> {
    // Set-up: generate the seeded sources and cross-check the families'
    // ground-truth rules against explicit-state search.
    let set_up = || -> Result<Vec<Instance>, String> {
        let instances = batch_instances(w, args.seed);
        cross_check_ground_truth(&w.families())?;
        Ok(instances)
    };
    if !args.trace {
        let run = batch::run(args.seconds, set_up)?;
        return Ok(Output {
            metrics: run.metrics,
            attempted: run.attempted,
            failed: run.failed,
        });
    }
    let instances = set_up()?;
    let reference = traced::reference_pass(&instances)?;
    let mut metrics = traced::run(&instances, &reference, spans)?;
    if w == Workload::RefineDeep {
        // `serve-mixed` is not among the benchmark's workloads (its timings
        // follow the host's load too closely for the bounds), so the
        // daemon's layers are measured here, with its correctness gate.
        let run = daemon::run(&daemon::Plan::generate(args.seed), tmp, SETUP_REPS)?;
        metrics.extend(run.layers);
    } else {
        daemon::push_server_layers(&mut metrics, &Default::default(), &Default::default(), 0);
        let mut warm = batch::WarmPath::default();
        warm.sample(&reference.proven(&instances), WARM_REPS)?;
        daemon::push_warmpath(
            &mut metrics,
            report::percentile(&warm.low_decile(), 0.5),
            &warm.compile_us,
            &warm.fingerprint_us,
        );
    }
    let failed = (0..instances.len())
        .filter(|&i| reference.conclusive(i).is_none())
        .count() as u64;
    Ok(Output {
        metrics,
        attempted: instances.len() as u64,
        failed,
    })
}

/// `serve-mixed`.
fn serve_mixed(args: &Args, tmp: &Path, spans: &Path) -> Result<Output, String> {
    let plan = daemon::Plan::generate(args.seed);
    let run = daemon::run(&plan, tmp, SETUP_REPS)?;
    let metrics = if args.trace {
        let mut m = traced::run(&plan.programs(), &run.reference, spans)?;
        m.extend(run.layers);
        m
    } else {
        run.metrics
    };
    Ok(Output {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
    })
}
