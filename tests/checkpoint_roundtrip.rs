//! Checkpoint round-trip property battery: a snapshot written at a round
//! boundary survives serialize → parse **bit-identically**, and resuming
//! verification from the parsed copy reaches the same verdict, the same
//! cumulative round count and the same proof size as an uninterrupted
//! run of the same program.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use seqver::gemcutter::drive::{drive, RetryPolicy, Run};
use seqver::gemcutter::govern::{FaultPlan, GovernorConfig};
use seqver::gemcutter::snapshot::Snapshot;
use seqver::gemcutter::verify::VerifierConfig;
use seqver::program::concurrent::Program;
use seqver::smt::TermPool;

/// `workers` increment threads of `iters` iterations plus a checker; safe
/// iff `bound >= workers * iters`.
fn chain_source(workers: usize, iters: usize, bound: i64) -> String {
    format!(
        r#"
        var c: int = 0;
        var done: int = 0;
        thread inc {{
            local i: int = 0;
            while (i < {iters}) {{
                c := c + 1;
                i := i + 1;
            }}
            done := done + 1;
        }}
        thread checker {{
            assume done >= {workers};
            assert c <= {bound};
        }}
        spawn inc * {workers};
        spawn checker;
        "#
    )
}

fn compile(source: &str) -> (TermPool, Program) {
    let mut pool = TermPool::new();
    let p = seqver::cpl::compile(source, &mut pool).unwrap();
    (pool, p)
}

/// A fresh checkpoint path per case (proptest reuses the process).
fn scratch_path() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("seqver-roundtrip-{}-{n}.ckpt", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_roundtrips_and_resume_matches_uninterrupted(
        workers in 2usize..=3,
        iters in 1usize..=2,
        safe_flag in 0u8..2,
        abort_round in 2u64..=6,
    ) {
        let bound = (workers * iters) as i64 - if safe_flag == 1 { 0 } else { 1 };
        let source = chain_source(workers, iters, bound);

        // Reference: uninterrupted, unlimited run.
        let (mut pool, p) = compile(&source);
        let reference = drive(
            &mut pool,
            &p,
            &Run::single(&VerifierConfig::gemcutter_seq()),
        );

        // Kill: abort deterministically at `abort_round` while writing
        // round-boundary checkpoints.
        let ckpt = scratch_path();
        let faulty = VerifierConfig {
            govern: GovernorConfig {
                fault_plan: FaultPlan::parse(&format!("rounds:{abort_round}:unknown")).unwrap(),
                ..GovernorConfig::default()
            },
            ..VerifierConfig::gemcutter_seq()
        };
        let (mut pool2, p2) = compile(&source);
        let killed = drive(
            &mut pool2,
            &p2,
            &Run {
                checkpoint: Some(ckpt.clone()),
                ..Run::single(&faulty)
            },
        );
        prop_assert!(killed.checkpoint_error.is_none(), "{:?}", killed.checkpoint_error);

        // Only resume when the fault actually fired mid-proof and a
        // checkpoint was written (tiny programs may conclude first).
        if killed.outcome.verdict.give_up().is_some() && ckpt.exists() {
            // Serialize → parse is bit-identical.
            let snap = Snapshot::load(&ckpt).unwrap();
            let reparsed = Snapshot::parse(&snap.to_text()).unwrap();
            prop_assert_eq!(snap.to_text(), reparsed.to_text(), "snapshot text not stable");

            // Re-verify from the parsed copy.
            let (mut pool3, p3) = compile(&source);
            let resumed = drive(
                &mut pool3,
                &p3,
                &Run {
                    retry: RetryPolicy::default(),
                    resume: Some(reparsed),
                    ..Run::single(&VerifierConfig::gemcutter_seq())
                },
            );
            prop_assert_eq!(
                format!("{:?}", resumed.outcome.verdict),
                format!("{:?}", reference.outcome.verdict),
                "resumed verdict diverged"
            );
            prop_assert_eq!(
                resumed.outcome.stats.rounds,
                reference.outcome.stats.rounds,
                "cumulative round count diverged"
            );
            prop_assert_eq!(
                resumed.outcome.stats.proof_size,
                reference.outcome.stats.proof_size,
                "proof size diverged"
            );
        }
        let _ = std::fs::remove_file(&ckpt);
    }
}
