//! **Table 2**: proof size for successfully verified correct programs and
//! time per refinement round for all successfully analysed programs —
//! Automizer vs. four GemCutter variants (portfolio, sleep-only,
//! persistent-only and lockstep), plus the solver-level query-cache ablation
//! (`seq` vs. `seq-nocache`). The ablation pair is asserted identical
//! per benchmark (verdict, trace, rounds, proof size) and its measured
//! time-per-round speedup and hit rates are emitted to
//! `target/bench/BENCH_qcache.json` for the perf trajectory, next to the
//! solver ablation's `BENCH_cdcl.json`; the committed `BENCH_*.json`
//! records at the repository root are never overwritten.
//!
//! Run: `cargo run --release -p bench --bin table2`

use bench::{run_config, run_portfolio, run_supervised, Aggregate, Run};
use bench_suite::{Expected, Suite};
use gemcutter::drive::RetryPolicy;
use gemcutter::govern::Category;
use gemcutter::verify::{Verdict, VerifierConfig};
use smt::SolverKind;

/// DFS-state budget for the supervised column's *first* attempt. Tight
/// enough that the harder corpus programs give up initially, so the
/// escalation ladder (and its recycle hit rate) has something to show.
const SUPERVISED_DFS_BUDGET: u64 = 400;

struct Column {
    name: &'static str,
    runs: Vec<Run>,
}

fn proof_size_row(cols: &[Column], suite: Option<Suite>) -> Vec<f64> {
    cols.iter()
        .map(|c| {
            let agg = Aggregate::of(c.runs.iter(), |r| {
                r.expected == Expected::Safe && suite.is_none_or(|s| r.suite == s)
            });
            if agg.count == 0 {
                f64::NAN
            } else {
                agg.proof_size as f64 / agg.count as f64
            }
        })
        .collect()
}

fn time_per_round_row(cols: &[Column], suite: Option<Suite>) -> Vec<f64> {
    cols.iter()
        .map(|c| {
            let agg = Aggregate::of(c.runs.iter(), |r| suite.is_none_or(|s| r.suite == s));
            if agg.rounds == 0 {
                f64::NAN
            } else {
                agg.time_s / agg.rounds as f64
            }
        })
        .collect()
}

fn print_row(label: &str, values: &[f64], unit: &str) {
    print!("  {label:12}");
    for v in values {
        print!(" {v:>10.3}{unit}");
    }
    println!();
}

/// Count of runs that gave up with `category`, per column. `None` counts
/// give-ups outside the categories listed in the table.
fn give_up_row(cols: &[Column], category: Option<Category>, listed: &[Category]) -> Vec<usize> {
    cols.iter()
        .map(|c| {
            c.runs
                .iter()
                .filter(|r| match (&r.outcome.verdict, category) {
                    (Verdict::GaveUp(g), Some(cat)) => g.category == cat,
                    (Verdict::GaveUp(g), None) => !listed.contains(&g.category),
                    _ => false,
                })
                .count()
        })
        .collect()
}

fn print_count_row(label: &str, values: &[usize]) {
    print!("  {label:16}");
    for v in values {
        print!(" {v:>11}");
    }
    println!();
}

/// Query-cache hit rate (hits / lookups) per column; NaN when a column
/// never touched the cache (e.g. the `seq-nocache` ablation).
fn hit_rate_row(cols: &[Column]) -> Vec<f64> {
    cols.iter()
        .map(|c| {
            let (hits, misses) = c.runs.iter().fold((0u64, 0u64), |(h, m), r| {
                (
                    h + r.outcome.stats.qcache_hits,
                    m + r.outcome.stats.qcache_misses,
                )
            });
            if hits + misses == 0 {
                f64::NAN
            } else {
                hits as f64 / (hits + misses) as f64
            }
        })
        .collect()
}

/// Useless-cache hit rate (skips / probes) per column; NaN when a column
/// never probed the cache.
fn useless_rate_row(cols: &[Column]) -> Vec<f64> {
    cols.iter()
        .map(|c| {
            let (skips, probes) = c.runs.iter().fold((0usize, 0usize), |(s, p), r| {
                (
                    s + r.outcome.stats.cache_skips,
                    p + r.outcome.stats.useless_probes,
                )
            });
            if probes == 0 {
                f64::NAN
            } else {
                skips as f64 / probes as f64
            }
        })
        .collect()
}

/// Final useless-cache size per column (entries, summed over runs — a
/// memory gauge for the §7.2 cache rather than a rate).
fn useless_len_row(cols: &[Column]) -> Vec<usize> {
    cols.iter()
        .map(|c| c.runs.iter().map(|r| r.outcome.stats.useless_len).sum())
        .collect()
}

/// Aggregated measurements of one ablation side for `BENCH_qcache.json`.
struct CacheSide {
    time_s: f64,
    rounds: usize,
    hoare_checks: usize,
    hits: u64,
    misses: u64,
}

impl CacheSide {
    fn of(runs: &[Run]) -> CacheSide {
        let mut side = CacheSide {
            time_s: 0.0,
            rounds: 0,
            hoare_checks: 0,
            hits: 0,
            misses: 0,
        };
        for r in runs {
            side.time_s += r.time_s();
            side.rounds += r.outcome.stats.rounds;
            side.hoare_checks += r.outcome.stats.hoare_checks;
            side.hits += r.outcome.stats.qcache_hits;
            side.misses += r.outcome.stats.qcache_misses;
        }
        side
    }

    fn time_per_round(&self) -> f64 {
        if self.rounds == 0 {
            f64::NAN
        } else {
            self.time_s / self.rounds as f64
        }
    }

    fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    fn json(&self, name: &str) -> String {
        format!(
            "    {{\"config\": \"{name}\", \"time_s\": {:.6}, \"rounds\": {}, \
             \"time_per_round_s\": {:.6}, \"hoare_checks\": {}, \
             \"qcache_hits\": {}, \"qcache_misses\": {}, \"hit_rate\": {:.4}}}",
            self.time_s,
            self.rounds,
            self.time_per_round(),
            self.hoare_checks,
            self.hits,
            self.misses,
            self.hit_rate()
        )
    }
}

/// Asserts the ablation pair is observationally identical per benchmark:
/// same verdict (including any counterexample trace), same round count,
/// same final proof size — the cache may only change *who computes* a
/// verdict, never the verdict. Also asserts the cache-off side really ran
/// cache-free.
fn assert_cache_identity(cached: &[Run], cold: &[Run]) {
    assert_eq!(cached.len(), cold.len());
    for (on, off) in cached.iter().zip(cold) {
        assert_eq!(on.name, off.name);
        assert_eq!(
            on.outcome.verdict, off.outcome.verdict,
            "QCACHE SOUNDNESS BUG on {}: verdict differs with cache on/off",
            on.name
        );
        assert_eq!(
            on.outcome.stats.rounds, off.outcome.stats.rounds,
            "QCACHE DRIFT on {}: round count differs with cache on/off",
            on.name
        );
        assert_eq!(
            on.outcome.stats.proof_size, off.outcome.stats.proof_size,
            "QCACHE DRIFT on {}: proof size differs with cache on/off",
            on.name
        );
        assert_eq!(
            (
                off.outcome.stats.qcache_hits,
                off.outcome.stats.qcache_misses
            ),
            (0, 0),
            "cache-off run of {} touched the cache",
            on.name
        );
    }
}

/// Asserts the solver ablation pair is observationally identical per
/// benchmark: the boolean search engine decides the same decision
/// problems, so swapping CDCL for the legacy DPLL may change time, never
/// the verdict, the counterexample handling, or the refinement
/// trajectory (round count and final proof size).
fn assert_solver_identity(cdcl: &[Run], dpll: &[Run]) {
    assert_eq!(cdcl.len(), dpll.len());
    for (new, old) in cdcl.iter().zip(dpll) {
        assert_eq!(new.name, old.name);
        assert_eq!(
            new.outcome.verdict, old.outcome.verdict,
            "SOLVER SOUNDNESS BUG on {}: verdict differs between cdcl and dpll",
            new.name
        );
        assert_eq!(
            new.outcome.stats.rounds, old.outcome.stats.rounds,
            "SOLVER DRIFT on {}: round count differs between cdcl and dpll",
            new.name
        );
        assert_eq!(
            new.outcome.stats.proof_size, old.outcome.stats.proof_size,
            "SOLVER DRIFT on {}: proof size differs between cdcl and dpll",
            new.name
        );
    }
}

fn main() {
    let corpus = bench::corpus();
    println!("Table 2: proof size and proof-check efficiency per configuration\n");

    let mut tight = VerifierConfig::gemcutter_seq();
    tight.name = "supervised".to_owned();
    tight.govern.dfs_state_budget = Some(SUPERVISED_DFS_BUDGET);
    let policy = RetryPolicy::with_retries(3).escalating_by(4);
    let supervised = run_supervised(&corpus, &tight, policy);

    // Query-cache ablation pair: the sequential configuration with the
    // solver-level cache on (the default) and off.
    let seq_runs = run_config(&corpus, &VerifierConfig::gemcutter_seq());
    let mut nocache = VerifierConfig::gemcutter_seq().without_qcache();
    nocache.name = "seq-nocache".to_owned();
    let nocache_runs = run_config(&corpus, &nocache);
    assert_cache_identity(&seq_runs, &nocache_runs);

    // Solver ablation pair: the same sequential configuration with the
    // legacy DPLL engine. `seq` above runs the default (CDCL).
    let mut dpll = VerifierConfig::gemcutter_seq().with_solver(SolverKind::Dpll);
    dpll.name = "seq-dpll".to_owned();
    let dpll_runs = run_config(&corpus, &dpll);
    assert_solver_identity(&seq_runs, &dpll_runs);

    let cols = vec![
        Column {
            name: "automizer",
            runs: run_config(&corpus, &VerifierConfig::automizer()),
        },
        Column {
            name: "seq",
            runs: seq_runs,
        },
        Column {
            name: "seq-nocache",
            runs: nocache_runs,
        },
        Column {
            name: "seq-dpll",
            runs: dpll_runs,
        },
        Column {
            name: "portfolio",
            runs: run_portfolio(&corpus, false)
                .into_iter()
                .map(|(r, _)| r)
                .collect(),
        },
        Column {
            name: "sleep",
            runs: run_config(&corpus, &VerifierConfig::sleep_only()),
        },
        Column {
            name: "persistent",
            runs: run_config(&corpus, &VerifierConfig::persistent_only()),
        },
        Column {
            name: "lockstep",
            runs: run_config(&corpus, &VerifierConfig::gemcutter_lockstep()),
        },
        Column {
            name: "supervised",
            runs: supervised.iter().map(|s| s.run.clone()).collect(),
        },
    ];

    print!("  {:12}", "");
    for c in &cols {
        print!(" {:>11}", c.name);
    }
    println!();

    println!("Proof size for successfully verified correct programs (avg #assertions)");
    print_row("total", &proof_size_row(&cols, None), " ");
    print_row(
        "- SV-COMP",
        &proof_size_row(&cols, Some(Suite::SvComp)),
        " ",
    );
    print_row("- Weaver", &proof_size_row(&cols, Some(Suite::Weaver)), " ");

    println!("Time per refinement round (in s) for successfully analysed programs");
    print_row("total", &time_per_round_row(&cols, None), "s");
    print_row(
        "- SV-COMP",
        &time_per_round_row(&cols, Some(Suite::SvComp)),
        "s",
    );
    print_row(
        "- Weaver",
        &time_per_round_row(&cols, Some(Suite::Weaver)),
        "s",
    );

    println!("Query-cache hit rate (hits / lookups; NaN = cache disabled or untouched)");
    print_row("total", &hit_rate_row(&cols), " ");

    println!("Useless-cache hit rate (skips / probes; NaN = never probed)");
    print_row("total", &useless_rate_row(&cols), " ");
    println!("Useless-cache entries at exit (memory gauge, summed over runs)");
    print_count_row("total", &useless_len_row(&cols));

    println!("Give-ups per resource category (count of inconclusive runs)");
    let listed = [
        Category::Deadline,
        Category::SimplexPivots,
        Category::DfsStates,
        Category::Rounds,
        Category::UnknownTheory,
    ];
    for cat in listed {
        print_count_row(cat.name(), &give_up_row(&cols, Some(cat), &listed));
    }
    print_count_row("other", &give_up_row(&cols, None, &listed));

    // Restart supervision: retries used and recycle hit rate under a tight
    // first-attempt budget (the `supervised` column above).
    println!();
    println!(
        "Restart supervision (dfs-states budget {SUPERVISED_DFS_BUDGET}, retries {}, escalate {}x)",
        policy.max_retries, policy.factor
    );
    let retried: Vec<_> = supervised.iter().filter(|s| s.retries_used > 0).collect();
    let converted = retried.iter().filter(|s| s.run.successful()).count();
    let with_recycling = supervised.iter().filter(|s| s.hit_rate > 0.0).count();
    println!(
        "  programs escalated: {} of {} ({} converted to a conclusive verdict)",
        retried.len(),
        supervised.len(),
        converted
    );
    println!("  programs with recycle hit rate > 0: {with_recycling}");
    println!(
        "  {:24} {:>8} {:>9} {:>8} {:>9}",
        "", "retries", "recycled", "skipped", "hit rate"
    );
    for s in &retried {
        println!(
            "  {:24} {:>8} {:>9} {:>8} {:>8.0}%",
            s.run.name,
            s.retries_used,
            s.recycled,
            s.rounds_skipped,
            s.hit_rate * 100.0
        );
    }

    // Paper shape: the portfolio's average proof size beats the baseline's.
    let total = proof_size_row(&cols, None);
    let col_idx = |name: &str| cols.iter().position(|c| c.name == name).expect("column");
    println!();
    println!(
        "Paper shape: portfolio avg proof size {:.1} vs automizer {:.1} (smaller is the paper's finding)",
        total[col_idx("portfolio")],
        total[col_idx("automizer")]
    );

    // Query-cache perf trajectory: aggregate the ablation pair, report the
    // time-per-round speedup (total and Weaver-only) and persist the first
    // BENCH_qcache.json entry. The identity assertion above already
    // guarantees both sides did the same logical work.
    let seq = &cols[col_idx("seq")].runs;
    let cold = &cols[col_idx("seq-nocache")].runs;
    let on = CacheSide::of(seq);
    let off = CacheSide::of(cold);
    let weaver = |runs: &[Run]| {
        CacheSide::of(
            &runs
                .iter()
                .filter(|r| r.suite == Suite::Weaver)
                .cloned()
                .collect::<Vec<_>>(),
        )
    };
    let (on_w, off_w) = (weaver(seq), weaver(cold));
    let speedup = off.time_per_round() / on.time_per_round();
    let speedup_w = off_w.time_per_round() / on_w.time_per_round();
    println!();
    println!(
        "Query-cache ablation: time/round {} (on) vs {} (off) — {speedup:.2}x, \
         Weaver-only {speedup_w:.2}x, hit rate {:.1}%",
        bench::fmt_time(on.time_per_round()),
        bench::fmt_time(off.time_per_round()),
        on.hit_rate() * 100.0
    );
    let json = format!(
        "{{\n  \"corpus\": \"{}\",\n  \"benchmarks\": {},\n  \"identity\": true,\n  \
         \"speedup_time_per_round\": {speedup:.4},\n  \
         \"speedup_time_per_round_weaver\": {speedup_w:.4},\n  \"configs\": [\n{},\n{},\n{},\n{}\n  ]\n}}\n",
        if std::env::var("SEQVER_QUICK").is_ok() { "quick" } else { "full" },
        seq.len(),
        on.json("gemcutter-seq"),
        off.json("seq-nocache"),
        on_w.json("gemcutter-seq/weaver"),
        off_w.json("seq-nocache/weaver"),
    );
    write_bench_json("BENCH_qcache.json", &json);

    // Solver-engine perf trajectory: CDCL (the `seq` default) vs the
    // legacy DPLL on identical logical work (asserted above), reported as
    // a time-per-round speedup and persisted to BENCH_cdcl.json.
    let dpll_runs = &cols[col_idx("seq-dpll")].runs;
    let cdcl_side = CacheSide::of(seq);
    let dpll_side = CacheSide::of(dpll_runs);
    let (cdcl_w, dpll_w) = (weaver(seq), weaver(dpll_runs));
    let solver_speedup = dpll_side.time_per_round() / cdcl_side.time_per_round();
    let solver_speedup_w = dpll_w.time_per_round() / cdcl_w.time_per_round();
    println!();
    println!(
        "Solver ablation: time/round {} (cdcl) vs {} (dpll) — {solver_speedup:.2}x, \
         Weaver-only {solver_speedup_w:.2}x",
        bench::fmt_time(cdcl_side.time_per_round()),
        bench::fmt_time(dpll_side.time_per_round()),
    );
    let json = format!(
        "{{\n  \"corpus\": \"{}\",\n  \"benchmarks\": {},\n  \"identity\": true,\n  \
         \"speedup_time_per_round\": {solver_speedup:.4},\n  \
         \"speedup_time_per_round_weaver\": {solver_speedup_w:.4},\n  \"configs\": [\n{},\n{},\n{},\n{}\n  ]\n}}\n",
        if std::env::var("SEQVER_QUICK").is_ok() { "quick" } else { "full" },
        seq.len(),
        cdcl_side.json("gemcutter-seq"),
        dpll_side.json("seq-dpll"),
        cdcl_w.json("gemcutter-seq/weaver"),
        dpll_w.json("seq-dpll/weaver"),
    );
    write_bench_json("BENCH_cdcl.json", &json);
}

/// Writes one measurement record to `target/bench/<name>`, creating the
/// directory if missing.
fn write_bench_json(name: &str, json: &str) {
    let dir = std::path::Path::new("target/bench");
    std::fs::create_dir_all(dir).expect("create target/bench");
    let path = dir.join(name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
