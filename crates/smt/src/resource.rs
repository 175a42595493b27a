//! Run-scoped resource governance: wall-clock deadlines, per-category step
//! budgets, and deterministic fault injection.
//!
//! A [`ResourceGovernor`] is a cheap, shareable handle (an `Arc` clone)
//! threaded through every long-running loop of the solver stack and the
//! proof check. Each loop iteration calls [`ResourceGovernor::charge`] with
//! its [`Category`]; the first exhausted budget, passed deadline or
//! matching injected fault *trips* the governor, and every subsequent
//! charge fails fast — unwinding recursive searches mid-query without any
//! extra plumbing. The recorded [`GiveUp`] explains the first cause, so an
//! `Unknown` verdict bubbling out of the solver can be attributed precisely
//! at the top of the stack.
//!
//! Soundness contract: a failed charge must only ever make a caller *more*
//! conservative (`Unknown`, "dependent", "cannot refute"). The governor
//! never influences which model or certificate is produced — it only
//! decides whether a computation is allowed to continue.
//!
//! Fault injection ([`FaultPlan`]) is keyed by `(category, nth charge)`
//! pairs — plain counting, no RNG — so a faulted run replays bit-for-bit.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What kind of work (or failure cause) a charge or give-up refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Simplex pivot steps ([`crate::simplex`]).
    SimplexPivots,
    /// Boolean search decisions ([`crate::solver`]); charged by both the
    /// legacy DPLL recursion (per branch node) and the CDCL engine (per
    /// decision), so step budgets and fault plans keyed on this category
    /// stay meaningful across `--solver` modes.
    DpllDecisions,
    /// CDCL conflict analyses ([`crate::cdcl`]): one charge per learned
    /// clause. Only the CDCL engine charges this category.
    CdclConflicts,
    /// Branch-and-bound nodes ([`crate::lia`]).
    BranchNodes,
    /// Proof-check DFS states (the verifier's Algorithm 2 loop).
    DfsStates,
    /// Refinement rounds.
    Rounds,
    /// Wall-clock deadline exceeded.
    Deadline,
    /// The run was stopped: an interrupt, a refused resume, or a tripped
    /// governor whose cause was not recorded.
    Cancelled,
    /// The theory solver returned `Unknown` outside governor control
    /// (legacy per-query budget or `i128` overflow).
    UnknownTheory,
    /// Refinement reproduced a previously seen counterexample.
    NonProgress,
    /// A deterministic injected fault ([`FaultPlan`]).
    InjectedFault,
}

/// Number of categories (array sizing).
const NCAT: usize = 11;

impl Category {
    /// All categories, in declaration order.
    pub const ALL: [Category; NCAT] = [
        Category::SimplexPivots,
        Category::DpllDecisions,
        Category::CdclConflicts,
        Category::BranchNodes,
        Category::DfsStates,
        Category::Rounds,
        Category::Deadline,
        Category::Cancelled,
        Category::UnknownTheory,
        Category::NonProgress,
        Category::InjectedFault,
    ];

    /// Dense index for per-category arrays.
    pub fn index(self) -> usize {
        match self {
            Category::SimplexPivots => 0,
            Category::DpllDecisions => 1,
            Category::CdclConflicts => 2,
            Category::BranchNodes => 3,
            Category::DfsStates => 4,
            Category::Rounds => 5,
            Category::Deadline => 6,
            Category::Cancelled => 7,
            Category::UnknownTheory => 8,
            Category::NonProgress => 9,
            Category::InjectedFault => 10,
        }
    }

    /// Stable kebab-case name (used in CLI flags and bench tables).
    pub fn name(self) -> &'static str {
        match self {
            Category::SimplexPivots => "simplex-pivots",
            Category::DpllDecisions => "dpll-decisions",
            Category::CdclConflicts => "cdcl-conflicts",
            Category::BranchNodes => "branch-nodes",
            Category::DfsStates => "dfs-states",
            Category::Rounds => "rounds",
            Category::Deadline => "deadline",
            Category::Cancelled => "cancelled",
            Category::UnknownTheory => "unknown-theory",
            Category::NonProgress => "non-progress",
            Category::InjectedFault => "injected-fault",
        }
    }

    /// Parses a [`Category::name`] back.
    pub fn parse(s: &str) -> Option<Category> {
        Category::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured give-up: the first cause that tripped the governor, or a
/// solver-level incompleteness attributed by the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GiveUp {
    /// The failure category.
    pub category: Category,
    /// Human-readable detail.
    pub reason: String,
}

impl GiveUp {
    /// Creates a give-up record.
    pub fn new(category: Category, reason: impl Into<String>) -> GiveUp {
        GiveUp {
            category,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for GiveUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.category, self.reason)
    }
}

/// What an injected fault does when its site is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Trip with [`Category::InjectedFault`] — the query degrades to
    /// `Unknown` and the run to `GaveUp`.
    Unknown,
    /// Trip with [`Category::Deadline`], simulating a timeout.
    Timeout,
    /// Panic (exercises the `catch_unwind` containment layers).
    Panic,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::Unknown => "unknown",
            FaultKind::Timeout => "timeout",
            FaultKind::Panic => "panic",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "unknown" => Some(FaultKind::Unknown),
            "timeout" => Some(FaultKind::Timeout),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }
}

/// One injection site: fire `kind` at the `at`-th charge (1-based) of
/// `category`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSite {
    /// Which charge counter the site watches.
    pub category: Category,
    /// 1-based charge index at which the fault fires.
    pub at: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A deterministic fault-injection plan: a set of [`FaultSite`]s keyed by
/// per-category charge indices. No randomness is involved, so the same
/// plan against the same (deterministic) run injects at exactly the same
/// program points every time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    sites: Vec<FaultSite>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a site; builder style.
    pub fn with(mut self, category: Category, at: u64, kind: FaultKind) -> FaultPlan {
        self.sites.push(FaultSite { category, at, kind });
        self
    }

    /// `true` when no site is registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The registered sites.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Parses a comma-separated plan spec: `CATEGORY:N:KIND`, e.g.
    /// `simplex-pivots:100:unknown,dfs-states:5:panic`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let fields: Vec<&str> = part.trim().split(':').collect();
            let [cat, at, kind] = fields[..] else {
                return Err(format!("fault site `{part}` is not CATEGORY:N:KIND"));
            };
            let category = Category::parse(cat)
                .ok_or_else(|| format!("unknown fault category `{cat}` in `{part}`"))?;
            let at: u64 = at
                .parse()
                .map_err(|_| format!("invalid charge index in `{part}`"))?;
            if at == 0 {
                return Err(format!("charge index in `{part}` must be ≥ 1"));
            }
            let kind = FaultKind::parse(kind)
                .ok_or_else(|| format!("unknown fault kind `{kind}` in `{part}`"))?;
            plan.sites.push(FaultSite { category, at, kind });
        }
        Ok(plan)
    }

    /// Renders the plan back into its `parse` syntax.
    pub fn spec(&self) -> String {
        self.sites
            .iter()
            .map(|s| format!("{}:{}:{}", s.category, s.at, s.kind.name()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// How many charges pass between two `Instant::now()` deadline polls.
/// Solver-core charges arrive at well over 10 kHz, so a stride of 64 keeps
/// the deadline overshoot in the low milliseconds while amortizing the
/// clock read.
const DEADLINE_POLL_STRIDE: u64 = 64;

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    budgets: [u64; NCAT],
    counters: [AtomicU64; NCAT],
    /// Global charge counter driving the strided deadline poll.
    ticks: AtomicU64,
    tripped: AtomicBool,
    trip_cell: OnceLock<GiveUp>,
    /// Injection sites, indexed by category.
    faults: [Vec<(u64, FaultKind)>; NCAT],
}

/// The shareable governor handle. `Clone` is an `Arc` clone: all clones
/// share counters and the trip state. The [`ResourceGovernor::unlimited`]
/// handle has no state at all and makes every charge a no-op, so
/// ungoverned entry points stay allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ResourceGovernor {
    inner: Option<Arc<Inner>>,
}

impl ResourceGovernor {
    /// The no-op governor: every charge succeeds, nothing is counted.
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor { inner: None }
    }

    /// Starts building a real (counting) governor.
    pub fn builder() -> GovernorBuilder {
        GovernorBuilder::default()
    }

    /// `true` when this handle actually governs (is not
    /// [`ResourceGovernor::unlimited`]).
    pub fn is_governed(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one unit of work in `category`. `Err` means the governor is
    /// tripped (now or earlier); the caller must abandon the computation
    /// and degrade conservatively.
    #[inline]
    pub fn charge(&self, category: Category) -> Result<(), GiveUp> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.charge(category),
        }
    }

    /// Trips the governor with an explicit cause (first cause wins).
    /// Returns the recorded give-up.
    pub fn trip(&self, give_up: GiveUp) -> GiveUp {
        match &self.inner {
            None => give_up,
            Some(inner) => inner.trip(give_up),
        }
    }

    /// The first recorded give-up, if the governor has tripped.
    pub fn give_up(&self) -> Option<GiveUp> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.trip_cell.get().cloned())
    }

    /// `true` once any charge failed or [`ResourceGovernor::trip`] ran.
    pub fn is_tripped(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.tripped.load(Ordering::Relaxed))
    }

    /// Total charges recorded for `category`.
    pub fn count(&self, category: Category) -> u64 {
        self.inner.as_ref().map_or(0, |inner| {
            inner.counters[category.index()].load(Ordering::Relaxed)
        })
    }

    /// The absolute deadline, if one was configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|inner| inner.deadline)
    }

    /// Polls the deadline immediately (no stride, no counting) — for coarse
    /// outer loops that want tight latency.
    pub fn poll(&self) -> Result<(), GiveUp> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.tripped.load(Ordering::Relaxed) {
            return Err(inner.current_give_up());
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(inner.trip(GiveUp::new(
                    Category::Deadline,
                    "wall-clock deadline exceeded",
                )));
            }
        }
        Ok(())
    }
}

impl Inner {
    fn current_give_up(&self) -> GiveUp {
        self.trip_cell
            .get()
            .cloned()
            .unwrap_or_else(|| GiveUp::new(Category::Cancelled, "governor tripped"))
    }

    fn trip(&self, give_up: GiveUp) -> GiveUp {
        // First cause wins; later trips read the original record.
        let _ = self.trip_cell.set(give_up);
        self.tripped.store(true, Ordering::Release);
        self.current_give_up()
    }

    fn charge(&self, category: Category) -> Result<(), GiveUp> {
        if self.tripped.load(Ordering::Relaxed) {
            return Err(self.current_give_up());
        }
        let i = category.index();
        let n = self.counters[i].fetch_add(1, Ordering::Relaxed) + 1;
        if !self.faults[i].is_empty() {
            if let Some(&(_, kind)) = self.faults[i].iter().find(|&&(at, _)| at == n) {
                return Err(self.inject(category, n, kind));
            }
        }
        if n > self.budgets[i] {
            return Err(self.trip(GiveUp::new(
                category,
                format!("{category} budget exhausted after {n} steps"),
            )));
        }
        if let Some(deadline) = self.deadline {
            let t = self.ticks.fetch_add(1, Ordering::Relaxed);
            if t.is_multiple_of(DEADLINE_POLL_STRIDE) && Instant::now() >= deadline {
                return Err(self.trip(GiveUp::new(
                    Category::Deadline,
                    "wall-clock deadline exceeded",
                )));
            }
        }
        Ok(())
    }

    fn inject(&self, category: Category, n: u64, kind: FaultKind) -> GiveUp {
        match kind {
            FaultKind::Unknown => self.trip(GiveUp::new(
                Category::InjectedFault,
                format!("injected unknown at {category} charge {n}"),
            )),
            FaultKind::Timeout => self.trip(GiveUp::new(
                Category::Deadline,
                format!("injected timeout at {category} charge {n}"),
            )),
            FaultKind::Panic => {
                self.trip(GiveUp::new(
                    Category::InjectedFault,
                    format!("injected panic at {category} charge {n}"),
                ));
                panic!("injected panic at {category} charge {n}");
            }
        }
    }
}

/// Builder for a governed [`ResourceGovernor`].
#[derive(Clone, Debug, Default)]
pub struct GovernorBuilder {
    deadline: Option<Duration>,
    budgets: Vec<(Category, u64)>,
    plan: FaultPlan,
}

impl GovernorBuilder {
    /// Sets a wall-clock deadline, measured from [`GovernorBuilder::build`].
    pub fn deadline(mut self, d: Duration) -> GovernorBuilder {
        self.deadline = Some(d);
        self
    }

    /// As [`GovernorBuilder::deadline`], tolerating `None`.
    pub fn deadline_opt(mut self, d: Option<Duration>) -> GovernorBuilder {
        self.deadline = d;
        self
    }

    /// Caps `category` at `budget` total charges across the run.
    pub fn budget(mut self, category: Category, budget: u64) -> GovernorBuilder {
        self.budgets.push((category, budget));
        self
    }

    /// Installs a deterministic fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> GovernorBuilder {
        self.plan = plan;
        self
    }

    /// Builds the governor; a configured deadline starts counting now.
    pub fn build(self) -> ResourceGovernor {
        let mut budgets = [u64::MAX; NCAT];
        for (c, b) in self.budgets {
            budgets[c.index()] = b;
        }
        let mut faults: [Vec<(u64, FaultKind)>; NCAT] = Default::default();
        for site in self.plan.sites() {
            faults[site.category.index()].push((site.at, site.kind));
        }
        ResourceGovernor {
            inner: Some(Arc::new(Inner {
                deadline: self.deadline.map(|d| Instant::now() + d),
                budgets,
                counters: Default::default(),
                ticks: AtomicU64::new(1),
                tripped: AtomicBool::new(false),
                trip_cell: OnceLock::new(),
                faults,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_a_noop() {
        let g = ResourceGovernor::unlimited();
        for _ in 0..10_000 {
            assert!(g.charge(Category::SimplexPivots).is_ok());
        }
        assert!(!g.is_governed());
        assert!(!g.is_tripped());
        assert_eq!(g.count(Category::SimplexPivots), 0);
    }

    #[test]
    fn budget_trips_and_sticks() {
        let g = ResourceGovernor::builder()
            .budget(Category::SimplexPivots, 5)
            .build();
        for _ in 0..5 {
            assert!(g.charge(Category::SimplexPivots).is_ok());
        }
        let e = g.charge(Category::SimplexPivots).unwrap_err();
        assert_eq!(e.category, Category::SimplexPivots);
        // Sticky: every category now fails fast with the original cause.
        let e2 = g.charge(Category::DpllDecisions).unwrap_err();
        assert_eq!(e2, e);
        assert_eq!(g.give_up(), Some(e));
    }

    #[test]
    fn first_trip_wins() {
        let g = ResourceGovernor::builder()
            .budget(Category::BranchNodes, 1)
            .build();
        assert!(g.charge(Category::BranchNodes).is_ok());
        let first = g.charge(Category::BranchNodes).unwrap_err();
        let later = g.trip(GiveUp::new(Category::Deadline, "late"));
        assert_eq!(later, first, "an earlier trip is never overwritten");
    }

    #[test]
    fn zero_deadline_trips_via_poll_and_charge() {
        let g = ResourceGovernor::builder().deadline(Duration::ZERO).build();
        assert_eq!(g.poll().unwrap_err().category, Category::Deadline);
        let g2 = ResourceGovernor::builder().deadline(Duration::ZERO).build();
        // The strided poll fires within one stride of charges.
        let mut tripped = None;
        for _ in 0..(DEADLINE_POLL_STRIDE + 1) {
            if let Err(e) = g2.charge(Category::DpllDecisions) {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(tripped.unwrap().category, Category::Deadline);
    }

    #[test]
    fn fault_plan_fires_at_exact_index() {
        let plan = FaultPlan::new().with(Category::BranchNodes, 3, FaultKind::Unknown);
        let g = ResourceGovernor::builder().fault_plan(plan).build();
        assert!(g.charge(Category::BranchNodes).is_ok());
        assert!(g.charge(Category::BranchNodes).is_ok());
        let e = g.charge(Category::BranchNodes).unwrap_err();
        assert_eq!(e.category, Category::InjectedFault);
        assert!(e.reason.contains("charge 3"), "{e}");
    }

    #[test]
    fn injected_timeout_reads_as_deadline() {
        let plan = FaultPlan::new().with(Category::DfsStates, 1, FaultKind::Timeout);
        let g = ResourceGovernor::builder().fault_plan(plan).build();
        let e = g.charge(Category::DfsStates).unwrap_err();
        assert_eq!(e.category, Category::Deadline);
    }

    #[test]
    fn injected_panic_panics_and_trips() {
        let plan = FaultPlan::new().with(Category::DpllDecisions, 2, FaultKind::Panic);
        let g = ResourceGovernor::builder().fault_plan(plan).build();
        assert!(g.charge(Category::DpllDecisions).is_ok());
        let g2 = g.clone();
        let result = std::panic::catch_unwind(move || {
            let _ = g2.charge(Category::DpllDecisions);
        });
        assert!(result.is_err());
        assert_eq!(g.give_up().unwrap().category, Category::InjectedFault);
    }

    #[test]
    fn plan_spec_round_trip() {
        let spec = "simplex-pivots:100:unknown,dfs-states:5:panic,rounds:2:timeout";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.sites().len(), 3);
        assert_eq!(plan.spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert!(FaultPlan::parse("bogus:1:unknown").is_err());
        assert!(FaultPlan::parse("rounds:0:unknown").is_err(), "1-based");
        assert!(FaultPlan::parse("rounds:1:explode").is_err());
        assert!(FaultPlan::parse("rounds1unknown").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn counters_are_observable() {
        let g = ResourceGovernor::builder().build();
        for _ in 0..7 {
            g.charge(Category::SimplexPivots).unwrap();
        }
        for _ in 0..3 {
            g.charge(Category::DfsStates).unwrap();
        }
        assert_eq!(g.count(Category::SimplexPivots), 7);
        assert_eq!(g.count(Category::DfsStates), 3);
        assert_eq!(g.count(Category::Rounds), 0);
    }

    #[test]
    fn category_name_round_trip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.name()), Some(c));
        }
        assert_eq!(Category::parse("nope"), None);
    }
}
