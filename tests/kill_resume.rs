//! Kill/resume equivalence: abort a run at a deterministic round via the
//! fault plan (`rounds:N:unknown`, firing as round N is charged), resume
//! from the crash-safe checkpoint, and check the resumed run reaches the
//! *same verdict with the same cumulative round count* as the
//! uninterrupted run — on every corpus example that terminates quickly,
//! and bit-identically when resumed twice.

use std::path::{Path, PathBuf};

use seqver::gemcutter::drive::{drive, Driven, Run};
use seqver::gemcutter::govern::{FaultPlan, GovernorConfig};
use seqver::gemcutter::snapshot::Snapshot;
use seqver::gemcutter::verify::VerifierConfig;
use seqver::program::concurrent::Program;
use seqver::smt::TermPool;

fn compile_example(name: &str) -> (TermPool, Program) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/cpl")
        .join(name);
    let source = std::fs::read_to_string(&path).unwrap();
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(&source, &mut pool).unwrap();
    (pool, p)
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "seqver-killresume-{}-{tag}.ckpt",
        std::process::id()
    ))
}

fn run_clean(name: &str, run: Run) -> Driven {
    let (mut pool, p) = compile_example(name);
    drive(
        &mut pool,
        &p,
        &Run {
            members: vec![VerifierConfig::gemcutter_seq()],
            ..run
        },
    )
}

/// Aborts `name` at `abort_round` with checkpointing on; returns the
/// snapshot, or `None` if the run concluded before the fault fired.
fn kill_at(name: &str, abort_round: u64, ckpt: &Path) -> Option<Snapshot> {
    let (mut pool, p) = compile_example(name);
    let config = VerifierConfig {
        govern: GovernorConfig {
            fault_plan: FaultPlan::parse(&format!("rounds:{abort_round}:unknown")).unwrap(),
            ..GovernorConfig::default()
        },
        ..VerifierConfig::gemcutter_seq()
    };
    let killed = drive(
        &mut pool,
        &p,
        &Run {
            checkpoint: Some(ckpt.to_path_buf()),
            ..Run::single(&config)
        },
    );
    assert!(
        killed.checkpoint_error.is_none(),
        "{:?}",
        killed.checkpoint_error
    );
    if killed.outcome.verdict.give_up().is_some() && ckpt.exists() {
        Some(Snapshot::load(ckpt).unwrap())
    } else {
        None
    }
}

fn resume_with(name: &str, snap: Snapshot) -> Driven {
    run_clean(
        name,
        Run {
            resume: Some(snap),
            ..Run::default()
        },
    )
}

/// Kill at every early round boundary and check resume equivalence.
fn check_kill_resume(name: &str, abort_rounds: &[u64]) {
    let reference = run_clean(name, Run::default());
    for &abort in abort_rounds {
        let ckpt = scratch(&format!("{name}-{abort}"));
        let Some(snap) = kill_at(name, abort, &ckpt) else {
            let _ = std::fs::remove_file(&ckpt);
            continue;
        };
        let resumed = resume_with(name, snap);
        assert_eq!(
            format!("{:?}", resumed.outcome.verdict),
            format!("{:?}", reference.outcome.verdict),
            "{name}: verdict diverged after kill at round {abort}"
        );
        assert_eq!(
            resumed.outcome.stats.rounds, reference.outcome.stats.rounds,
            "{name}: cumulative round count diverged after kill at round {abort}"
        );
        assert!(
            resumed.rounds_skipped > 0,
            "{name}: resume must account for the checkpointed rounds"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn kill_resume_matches_uninterrupted_on_corpus_examples() {
    // Every deterministic-terminating example in examples/cpl/ (chain-wide
    // does not converge even unlimited, so it has no reference verdict).
    check_kill_resume("counter.cpl", &[2, 3]);
    check_kill_resume("counter-racy.cpl", &[2, 3]);
    check_kill_resume("bluetooth.cpl", &[2, 4]);
    check_kill_resume("chain-medium.cpl", &[2, 6, 10]);
}

#[test]
fn resume_is_deterministic() {
    let ckpt = scratch("determinism");
    let snap = kill_at("chain-medium.cpl", 6, &ckpt).expect("fault should fire mid-proof");
    let a = resume_with("chain-medium.cpl", snap.clone());
    let b = resume_with("chain-medium.cpl", snap);
    assert_eq!(
        format!("{:?}", a.outcome.verdict),
        format!("{:?}", b.outcome.verdict)
    );
    assert_eq!(a.outcome.stats.rounds, b.outcome.stats.rounds);
    assert_eq!(a.outcome.stats.proof_size, b.outcome.stats.proof_size);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_refuses_a_different_program() {
    let ckpt = scratch("wrong-program");
    let snap = kill_at("chain-medium.cpl", 6, &ckpt).expect("fault should fire mid-proof");
    let resumed = run_clean(
        "chain-trio.cpl",
        Run {
            resume: Some(snap),
            ..Run::default()
        },
    );
    let give_up = resumed
        .outcome
        .verdict
        .give_up()
        .expect("hash mismatch must not silently verify");
    assert!(
        give_up.reason.contains("refusing to resume"),
        "unexpected reason: {}",
        give_up.reason
    );
    let _ = std::fs::remove_file(&ckpt);
}
