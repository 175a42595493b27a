//! Resource governance for verification runs: building and installing
//! [`ResourceGovernor`]s, and the give-up taxonomy surfaced in verdicts.
//!
//! The governor primitive lives in [`smt::resource`] (the solver crate is
//! the bottom of the dependency stack and its loops are the hottest charge
//! sites); this module re-exports it and adds the verifier-level
//! configuration: [`GovernorConfig`] describes *relative* limits (a
//! deadline duration, per-category budgets, a fault plan) that
//! [`GovernorConfig::build`] turns into a live governor whose deadline
//! starts counting immediately.
//!
//! Sound degradation invariants (enforced by the charge sites, tested by
//! `tests/fault_soundness.rs`):
//!
//! * unknown commutativity ⇒ treated as **dependent** (reduction shrinks,
//!   never grows);
//! * unknown infeasibility ⇒ the trace is **not refuted** (no spurious
//!   `Incorrect`), and equally never reported feasible (no spurious bug);
//! * unknown Hoare validity ⇒ the assertion is **not used** by the proof;
//! * any tripped governor ⇒ the verdict downgrades to
//!   [`Verdict::GaveUp`](crate::verify::Verdict::GaveUp) — never to
//!   `Correct`.

pub use smt::resource::{
    Category, FaultKind, FaultPlan, FaultSite, GiveUp, GovernorBuilder, ResourceGovernor,
};

use std::time::Duration;

/// Relative resource limits for one verification run. `Default` is fully
/// unlimited; [`GovernorConfig::build`] then returns the free
/// [`ResourceGovernor::unlimited`] handle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Wall-clock budget for the whole run (polled inside solver loops and
    /// the proof-check DFS, not just between rounds).
    pub deadline: Option<Duration>,
    /// Total simplex pivots across the run.
    pub simplex_pivot_budget: Option<u64>,
    /// Total DPLL/CDCL branch decisions across the run.
    pub dpll_decision_budget: Option<u64>,
    /// Total CDCL conflict analyses across the run.
    pub cdcl_conflict_budget: Option<u64>,
    /// Total branch-and-bound nodes across the run.
    pub branch_node_budget: Option<u64>,
    /// Total proof-check DFS states across the run.
    pub dfs_state_budget: Option<u64>,
    /// Deterministic fault-injection plan (empty = none).
    pub fault_plan: FaultPlan,
}

impl GovernorConfig {
    /// A config with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> GovernorConfig {
        GovernorConfig {
            deadline: Some(deadline),
            ..GovernorConfig::default()
        }
    }

    /// Sets the step budget of `category`: the `--steps CAT=N` mapping of
    /// the CLI and the daemon. Categories without a budget slot (deadline,
    /// rounds, faults) are an error.
    pub fn set_step_budget(&mut self, category: Category, budget: u64) -> Result<(), String> {
        let slot = match category {
            Category::SimplexPivots => &mut self.simplex_pivot_budget,
            Category::DpllDecisions => &mut self.dpll_decision_budget,
            Category::CdclConflicts => &mut self.cdcl_conflict_budget,
            Category::BranchNodes => &mut self.branch_node_budget,
            Category::DfsStates => &mut self.dfs_state_budget,
            other => return Err(format!("category `{other}` has no step budget")),
        };
        *slot = Some(budget);
        Ok(())
    }

    /// `true` when nothing is limited or injected — building would be a
    /// no-op.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.simplex_pivot_budget.is_none()
            && self.dpll_decision_budget.is_none()
            && self.cdcl_conflict_budget.is_none()
            && self.branch_node_budget.is_none()
            && self.dfs_state_budget.is_none()
            && self.fault_plan.is_empty()
    }

    /// Builds a governor; a configured deadline starts counting now.
    pub fn build(&self) -> ResourceGovernor {
        self.builder()
            .map_or_else(ResourceGovernor::unlimited, GovernorBuilder::build)
    }

    /// The config after `attempt` escalation steps of the supervisor's
    /// retry ladder: the deadline and every configured step budget stretch
    /// by `factor^attempt` (saturating). The fault plan is dropped on
    /// retries (`attempt > 0`): injected faults model the crash that
    /// *caused* the restart, so a recovery attempt runs clean — otherwise
    /// the same charge index would re-fire the same fault forever and no
    /// ladder could ever converge.
    pub fn escalated(&self, attempt: u32, factor: u32) -> GovernorConfig {
        let stretch = factor.saturating_pow(attempt).max(1);
        let stretch_time = |d: Duration| d.saturating_mul(stretch);
        let stretch_steps = |n: u64| n.saturating_mul(u64::from(stretch));
        GovernorConfig {
            deadline: self.deadline.map(stretch_time),
            simplex_pivot_budget: self.simplex_pivot_budget.map(stretch_steps),
            dpll_decision_budget: self.dpll_decision_budget.map(stretch_steps),
            cdcl_conflict_budget: self.cdcl_conflict_budget.map(stretch_steps),
            branch_node_budget: self.branch_node_budget.map(stretch_steps),
            dfs_state_budget: self.dfs_state_budget.map(stretch_steps),
            fault_plan: if attempt == 0 {
                self.fault_plan.clone()
            } else {
                FaultPlan::new()
            },
        }
    }

    fn builder(&self) -> Option<GovernorBuilder> {
        if self.is_unlimited() {
            return None;
        }
        let mut b = GovernorBuilder::default()
            .deadline_opt(self.deadline)
            .fault_plan(self.fault_plan.clone());
        for (category, budget) in [
            (Category::SimplexPivots, self.simplex_pivot_budget),
            (Category::DpllDecisions, self.dpll_decision_budget),
            (Category::CdclConflicts, self.cdcl_conflict_budget),
            (Category::BranchNodes, self.branch_node_budget),
            (Category::DfsStates, self.dfs_state_budget),
        ] {
            if let Some(n) = budget {
                b = b.budget(category, n);
            }
        }
        Some(b)
    }
}

/// A give-up attributed to the engine (configuration) that produced it —
/// the unit of the supervisor's give-up history. The supervisor dedupes
/// history entries by `(engine, category)` so an escalated retry that
/// trips over the same root cause again is not double-reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributedGiveUp {
    /// Name of the engine/configuration that gave up.
    pub engine: String,
    /// The give-up record.
    pub give_up: GiveUp,
}

impl AttributedGiveUp {
    /// Creates an attributed give-up.
    pub fn new(engine: impl Into<String>, give_up: GiveUp) -> AttributedGiveUp {
        AttributedGiveUp {
            engine: engine.into(),
            give_up,
        }
    }

    /// The dedupe key: two records with the same key describe the same
    /// root cause observed twice.
    pub fn key(&self) -> (&str, Category) {
        (&self.engine, self.give_up.category)
    }
}

/// Appends `entry` to `history` unless an entry with the same
/// `(engine, category)` key is already present (satellite of the retry
/// ladder: escalated attempts must not double-report one root cause).
pub fn push_give_up_deduped(history: &mut Vec<AttributedGiveUp>, entry: AttributedGiveUp) -> bool {
    if history.iter().any(|e| e.key() == entry.key()) {
        return false;
    }
    history.push(entry);
    true
}

/// Renders a `catch_unwind` payload (used to contain injected panics).
pub fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_config_builds_noop_governor() {
        let cfg = GovernorConfig::default();
        assert!(cfg.is_unlimited());
        assert!(!cfg.build().is_governed());
    }

    #[test]
    fn budgets_reach_the_governor() {
        let cfg = GovernorConfig {
            simplex_pivot_budget: Some(3),
            ..GovernorConfig::default()
        };
        let g = cfg.build();
        assert!(g.is_governed());
        for _ in 0..3 {
            assert!(g.charge(Category::SimplexPivots).is_ok());
        }
        assert_eq!(
            g.charge(Category::SimplexPivots).unwrap_err().category,
            Category::SimplexPivots
        );
    }

    #[test]
    fn escalation_stretches_budgets_and_drops_faults() {
        let base = GovernorConfig {
            deadline: Some(Duration::from_millis(100)),
            simplex_pivot_budget: Some(10),
            dfs_state_budget: Some(u64::MAX - 1),
            fault_plan: FaultPlan::parse("rounds:2:unknown").unwrap(),
            ..GovernorConfig::default()
        };
        let attempt0 = base.escalated(0, 4);
        assert_eq!(attempt0, base, "attempt 0 is the configured run");
        let attempt2 = base.escalated(2, 4);
        assert_eq!(attempt2.deadline, Some(Duration::from_millis(1600)));
        assert_eq!(attempt2.simplex_pivot_budget, Some(160));
        assert_eq!(attempt2.dfs_state_budget, Some(u64::MAX), "saturates");
        assert!(attempt2.fault_plan.is_empty(), "retries run clean");
        assert_eq!(attempt2.dpll_decision_budget, None, "unset stays unset");
    }

    #[test]
    fn fault_plan_round_trips_through_config() {
        let cfg = GovernorConfig {
            fault_plan: FaultPlan::parse("rounds:2:unknown").unwrap(),
            ..GovernorConfig::default()
        };
        assert!(!cfg.is_unlimited());
        let g = cfg.build();
        assert!(g.charge(Category::Rounds).is_ok());
        assert_eq!(
            g.charge(Category::Rounds).unwrap_err().category,
            Category::InjectedFault
        );
    }
}
