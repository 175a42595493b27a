//! The preference-order portfolio of §8, in the paper's sequential
//! measurement model.
//!
//! The paper's headline GemCutter numbers aggregate, per benchmark, the
//! best result among five preference orders: `seq`, `lockstep`, and three
//! seeded random orders. The portfolio conceptually runs them in parallel
//! and terminates as soon as any order terminates; sequential execution
//! here ([`portfolio_verify`]) runs [`verify`] once per order, records
//! every order's independent outcome (Figure 8 needs them all) and reports
//! the *winner* (earliest conclusive verdict), with the parallel-model CPU
//! time being the winner's own time. The shared-proof portfolio, where
//! the orders take turns over one proof, is a multi-member run of
//! [`mod@crate::drive`].

use crate::verify::{verify, Outcome, Verdict, VerifierConfig};
use program::concurrent::Program;
use smt::term::TermPool;

/// The five orders evaluated in §8.
pub fn default_portfolio() -> Vec<VerifierConfig> {
    vec![
        VerifierConfig::gemcutter_seq(),
        VerifierConfig::gemcutter_lockstep(),
        VerifierConfig::gemcutter_random(1),
        VerifierConfig::gemcutter_random(2),
        VerifierConfig::gemcutter_random(3),
    ]
}

/// Result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning configuration's name, if any verdict was conclusive.
    pub winner: Option<String>,
    /// The winner's outcome (or the last inconclusive one).
    pub outcome: Outcome,
    /// Every member's `(name, outcome)`, in portfolio order.
    pub members: Vec<(String, Outcome)>,
}

/// Runs the portfolio on `program`, stopping at the first conclusive
/// verdict when `stop_at_first` is set (the parallel model); otherwise
/// every member runs (needed to identify per-benchmark best orders for
/// Figure 8).
pub fn portfolio_verify(
    pool: &mut TermPool,
    program: &Program,
    configs: &[VerifierConfig],
    stop_at_first: bool,
) -> PortfolioOutcome {
    assert!(!configs.is_empty(), "portfolio needs at least one member");
    let mut members: Vec<(String, Outcome)> = Vec::new();
    let mut winner: Option<usize> = None;
    for config in configs {
        let outcome = verify(pool, program, config);
        let conclusive = !matches!(outcome.verdict, Verdict::GaveUp(_));
        members.push((config.name.clone(), outcome));
        if conclusive {
            // Parallel model: the fastest conclusive member wins. When all
            // members run, pick the conclusive one with minimal time.
            winner = match winner {
                None => Some(members.len() - 1),
                Some(w)
                    if members.last().expect("just pushed").1.stats.time
                        < members[w].1.stats.time =>
                {
                    Some(members.len() - 1)
                }
                other => other,
            };
            if stop_at_first {
                break;
            }
        }
    }
    let outcome = match winner {
        Some(w) => members[w].1.clone(),
        None => members.last().expect("nonempty").1.clone(),
    };
    PortfolioOutcome {
        winner: winner.map(|w| members[w].0.clone()),
        outcome,
        members,
    }
}
