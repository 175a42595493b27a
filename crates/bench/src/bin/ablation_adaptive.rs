//! **Extension ablation**: classic (independent race) portfolio vs. the
//! shared-proof adaptive portfolio (the §8 Limitations direction: adjust
//! the preference order dynamically based on partial verification effort).
//!
//! Run: `cargo run --release -p bench --bin ablation_adaptive`

use bench_suite::Expected;
use gemcutter::drive::{drive, Run};
use gemcutter::portfolio::{default_portfolio, portfolio_verify};
use gemcutter::verify::Verdict;
use smt::term::TermPool;

fn main() {
    let corpus = bench::corpus();
    println!("Ablation: racing portfolio vs shared-proof adaptive portfolio\n");
    println!(
        "{:26} {:>14} {:>14} {:>12} {:>12}",
        "benchmark", "race rounds", "adaptive", "race visited", "adaptive"
    );
    let mut race_rounds = 0usize;
    let mut adaptive_rounds = 0usize;
    let mut race_visited = 0usize;
    let mut adaptive_visited = 0usize;
    let mut adaptive_solved = 0usize;
    let mut race_solved = 0usize;
    for b in &corpus {
        let mut pool = TermPool::new();
        let p = b.compile(&mut pool);
        // Racing model: every member runs to completion (sequential
        // emulation; cost = sum over members).
        let race = portfolio_verify(&mut pool, &p, &default_portfolio(), false);
        let race_total_rounds: usize = race.members.iter().map(|(_, o)| o.stats.rounds).sum();
        let race_total_visited: usize = race
            .members
            .iter()
            .map(|(_, o)| o.stats.visited_states)
            .sum();

        let mut pool2 = TermPool::new();
        let p2 = b.compile(&mut pool2);
        let adaptive = drive(&mut pool2, &p2, &Run::new(default_portfolio())).outcome;

        let ok = |v: &Verdict| {
            matches!(
                (v, b.expected),
                (Verdict::Correct, Expected::Safe) | (Verdict::Incorrect { .. }, Expected::Unsafe)
            )
        };
        assert!(
            !matches!(&race.outcome.verdict, v if !ok(v) && !matches!(v, Verdict::GaveUp(_))),
            "race wrong on {}",
            b.name
        );
        assert!(
            !matches!(&adaptive.verdict, v if !ok(v) && !matches!(v, Verdict::GaveUp(_))),
            "adaptive wrong on {}",
            b.name
        );
        race_solved += usize::from(ok(&race.outcome.verdict));
        adaptive_solved += usize::from(ok(&adaptive.verdict));
        race_rounds += race_total_rounds;
        adaptive_rounds += adaptive.stats.rounds;
        race_visited += race_total_visited;
        adaptive_visited += adaptive.stats.visited_states;
        println!(
            "{:26} {:>14} {:>14} {:>12} {:>12}",
            b.name,
            race_total_rounds,
            adaptive.stats.rounds,
            race_total_visited,
            adaptive.stats.visited_states
        );
    }
    println!();
    println!(
        "Totals: rounds {race_rounds} (race) vs {adaptive_rounds} (adaptive); visited {race_visited} vs {adaptive_visited}; solved {race_solved} vs {adaptive_solved} of {}",
        corpus.len()
    );
    println!("Sharing the proof lets later engines skip work the first engine already justified.");
}
