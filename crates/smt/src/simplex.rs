//! Feasibility of conjunctions of linear constraints over ℚ, via the
//! general simplex procedure of Dutertre & de Moura (the algorithm used by
//! most SMT solvers' arithmetic cores).
//!
//! Each input constraint `Σ cᵢxᵢ + k ⋈ 0` becomes a *slack variable*
//! `s = Σ cᵢxᵢ` bounded by `−k` (upper bound for `≤`, both bounds for `=`).
//! Program variables are unbounded. The procedure pivots with Bland's rule,
//! which guarantees termination.

use crate::linear::{LinearConstraint, Rel, VarId};
use crate::rational::{ArithmeticOverflow, Rat};
use crate::resource::{Category, ResourceGovernor};
use std::collections::HashMap;

/// Why the tableau abandoned a check: `i128` overflow, or a tripped
/// resource governor (pivot budget, deadline, cancellation, injected
/// fault). Both degrade to `Unknown`; the governor's `GiveUp` record
/// carries the precise cause for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Halt {
    Overflow,
    Interrupted,
}

impl From<ArithmeticOverflow> for Halt {
    fn from(_: ArithmeticOverflow) -> Halt {
        Halt::Overflow
    }
}

/// Outcome of a rational feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// Feasible; a satisfying rational assignment for the program variables.
    Sat(HashMap<VarId, Rat>),
    /// Infeasible over ℚ (hence over ℤ).
    Unsat,
    /// Arithmetic overflow — no verdict.
    Unknown,
}

/// Checks feasibility over ℚ of the conjunction of `constraints`.
///
/// # Example
///
/// ```
/// use smt::linear::{LinExpr, LinearConstraint, NormalizedConstraint, Rel, VarId};
/// use smt::simplex::{check_rational, SimplexResult};
///
/// let x = VarId(0);
/// let mk = |e, r| match LinearConstraint::new(e, r) {
///     NormalizedConstraint::Constraint(c) => c,
///     _ => unreachable!(),
/// };
/// // x ≥ 1 ∧ x ≤ 0 is infeasible.
/// let c1 = mk(LinExpr::constant(1).sub(&LinExpr::var(x)), Rel::Le0);
/// let c2 = mk(LinExpr::var(x), Rel::Le0);
/// assert_eq!(check_rational(&[c1, c2]), SimplexResult::Unsat);
/// ```
pub fn check_rational(constraints: &[LinearConstraint]) -> SimplexResult {
    check_rational_governed(constraints, &ResourceGovernor::unlimited())
}

/// As [`check_rational`], charging `governor` one
/// [`Category::SimplexPivots`] unit per pivot iteration. A tripped
/// governor aborts mid-check with [`SimplexResult::Unknown`]; the
/// governor's give-up record carries the cause.
pub fn check_rational_governed(
    constraints: &[LinearConstraint],
    governor: &ResourceGovernor,
) -> SimplexResult {
    let outcome = Tableau::new(constraints)
        .map_err(Halt::from)
        .and_then(|mut t| {
            t.check(governor)?;
            Ok(t.feasible.then(|| t.model()))
        });
    match outcome {
        Ok(Some(model)) => SimplexResult::Sat(model),
        Ok(None) => SimplexResult::Unsat,
        Err(_) => SimplexResult::Unknown,
    }
}

/// Internal solver variable: program variables first, then slacks.
type SVar = usize;

struct Tableau {
    /// Total number of solver variables.
    n: usize,
    /// Number of program variables (prefix of the solver variables).
    n_program: usize,
    /// Map program `VarId` → solver index, and its inverse prefix.
    var_ids: Vec<VarId>,
    /// Lower/upper bounds per solver variable.
    lower: Vec<Option<Rat>>,
    upper: Vec<Option<Rat>>,
    /// Current assignment β.
    beta: Vec<Rat>,
    /// `basic[i]` = solver var owned by row i; `row_of[v]` = its row.
    basic: Vec<SVar>,
    row_of: Vec<Option<usize>>,
    /// Dense tableau rows over all solver variables: for basic `b` with row
    /// `r`, `x_b = Σ_j rows[r][j]·x_j` where the sum ranges over nonbasic
    /// variables (entries of basic variables are kept at zero).
    rows: Vec<Vec<Rat>>,
    feasible: bool,
}

impl Tableau {
    fn new(constraints: &[LinearConstraint]) -> Result<Tableau, ArithmeticOverflow> {
        // Collect program variables.
        let mut var_index: HashMap<VarId, usize> = HashMap::new();
        let mut var_ids: Vec<VarId> = Vec::new();
        for c in constraints {
            for v in c.expr().vars() {
                var_index.entry(v).or_insert_with(|| {
                    var_ids.push(v);
                    var_ids.len() - 1
                });
            }
        }
        let n_program = var_ids.len();
        let n = n_program + constraints.len();

        let mut lower: Vec<Option<Rat>> = vec![None; n];
        let mut upper: Vec<Option<Rat>> = vec![None; n];
        let mut rows: Vec<Vec<Rat>> = Vec::with_capacity(constraints.len());
        let mut basic: Vec<SVar> = Vec::with_capacity(constraints.len());
        let mut row_of: Vec<Option<usize>> = vec![None; n];

        for (i, c) in constraints.iter().enumerate() {
            let slack = n_program + i;
            let mut row = vec![Rat::ZERO; n];
            for &(v, coeff) in c.expr().terms() {
                row[var_index[&v]] = Rat::from_int(coeff);
            }
            let bound = Rat::from_int(-c.expr().constant_term());
            match c.rel() {
                Rel::Le0 => upper[slack] = Some(bound),
                Rel::Eq0 => {
                    lower[slack] = Some(bound);
                    upper[slack] = Some(bound);
                }
            }
            row_of[slack] = Some(rows.len());
            rows.push(row);
            basic.push(slack);
        }

        Ok(Tableau {
            n,
            n_program,
            var_ids,
            lower,
            upper,
            beta: vec![Rat::ZERO; n],
            basic,
            row_of,
            rows,
            feasible: true,
        })
    }

    fn recompute_basic_values(&mut self) -> Result<(), ArithmeticOverflow> {
        for r in 0..self.rows.len() {
            let b = self.basic[r];
            let mut v = Rat::ZERO;
            for j in 0..self.n {
                let c = self.rows[r][j];
                if !c.is_zero() {
                    v = v.add(c.mul(self.beta[j])?)?;
                }
            }
            self.beta[b] = v;
        }
        Ok(())
    }

    fn is_nonbasic(&self, v: SVar) -> bool {
        self.row_of[v].is_none()
    }

    fn violates_lower(&self, v: SVar) -> bool {
        self.lower[v].is_some_and(|l| self.beta[v] < l)
    }

    fn violates_upper(&self, v: SVar) -> bool {
        self.upper[v].is_some_and(|u| self.beta[v] > u)
    }

    fn can_increase(&self, v: SVar) -> bool {
        self.upper[v].is_none_or(|u| self.beta[v] < u)
    }

    fn can_decrease(&self, v: SVar) -> bool {
        self.lower[v].is_none_or(|l| self.beta[v] > l)
    }

    /// Main check loop (Bland's rule: smallest-index selection).
    fn check(&mut self, governor: &ResourceGovernor) -> Result<(), Halt> {
        self.recompute_basic_values()?;
        loop {
            if governor.charge(Category::SimplexPivots).is_err() {
                return Err(Halt::Interrupted);
            }
            // Smallest violating basic variable.
            let Some(b) = (0..self.n)
                .filter(|&v| !self.is_nonbasic(v))
                .find(|&v| self.violates_lower(v) || self.violates_upper(v))
            else {
                self.feasible = true;
                return Ok(());
            };
            let r = self.row_of[b].expect("basic var has a row");
            let increase = self.violates_lower(b);
            let target = if increase {
                self.lower[b].expect("violated lower bound exists")
            } else {
                self.upper[b].expect("violated upper bound exists")
            };

            // Smallest suitable nonbasic variable.
            let mut pivot_col: Option<SVar> = None;
            for j in 0..self.n {
                if !self.is_nonbasic(j) {
                    continue;
                }
                let a = self.rows[r][j];
                if a.is_zero() {
                    continue;
                }
                let suitable = if increase {
                    (a.signum() > 0 && self.can_increase(j))
                        || (a.signum() < 0 && self.can_decrease(j))
                } else {
                    (a.signum() > 0 && self.can_decrease(j))
                        || (a.signum() < 0 && self.can_increase(j))
                };
                if suitable {
                    pivot_col = Some(j);
                    break;
                }
            }
            let Some(j) = pivot_col else {
                self.feasible = false;
                return Ok(());
            };
            self.pivot_and_update(r, b, j, target)?;
        }
    }

    /// Sets `x_b := target` by moving `x_j`, then pivots `b` out and `j` in.
    #[allow(clippy::needless_range_loop)] // dense-row pivoting reads clearest with indices
    fn pivot_and_update(
        &mut self,
        r: usize,
        b: SVar,
        j: SVar,
        target: Rat,
    ) -> Result<(), ArithmeticOverflow> {
        let a = self.rows[r][j];
        let theta = target.sub(self.beta[b])?.div(a)?;
        self.beta[b] = target;
        self.beta[j] = self.beta[j].add(theta)?;
        // Update other basic variables' values.
        for rr in 0..self.rows.len() {
            if rr == r {
                continue;
            }
            let coeff = self.rows[rr][j];
            if !coeff.is_zero() {
                let bb = self.basic[rr];
                self.beta[bb] = self.beta[bb].add(coeff.mul(theta)?)?;
            }
        }
        // Pivot: solve row r for x_j:
        // x_b = Σ a_k x_k  ⇒  x_j = (x_b − Σ_{k≠j} a_k x_k) / a_j
        let inv = Rat::ONE.div(a)?;
        let mut new_row = vec![Rat::ZERO; self.n];
        new_row[b] = inv;
        for k in 0..self.n {
            if k == j || k == b {
                continue;
            }
            let c = self.rows[r][k];
            if !c.is_zero() {
                new_row[k] = c.mul(inv)?.neg()?;
            }
        }
        self.rows[r] = new_row;
        self.basic[r] = j;
        self.row_of[j] = Some(r);
        self.row_of[b] = None;
        // Substitute x_j into the other rows.
        for rr in 0..self.rows.len() {
            if rr == r {
                continue;
            }
            let c = self.rows[rr][j];
            if c.is_zero() {
                continue;
            }
            self.rows[rr][j] = Rat::ZERO;
            for k in 0..self.n {
                let add = c.mul(self.rows[r][k])?;
                if !add.is_zero() {
                    self.rows[rr][k] = self.rows[rr][k].add(add)?;
                }
            }
        }
        Ok(())
    }

    fn model(&self) -> HashMap<VarId, Rat> {
        (0..self.n_program)
            .map(|i| (self.var_ids[i], self.beta[i]))
            .collect()
    }
}

/// Outcome of an incremental assert or check: feasible so far, a conflict
/// explained by the *tags* of the participating asserted constraints, or
/// no verdict (overflow / tripped governor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryResult {
    /// No contradiction detected.
    Ok,
    /// Rational conflict; the tags of a (small) inconsistent subset of the
    /// currently asserted constraints.
    Conflict(Vec<u32>),
    /// Arithmetic overflow or governor trip — no verdict.
    Unknown,
}

/// An undo record for one retractable bound.
#[derive(Clone, Debug)]
struct UndoBound {
    col: SVar,
    is_upper: bool,
    prev: Option<(Rat, u32)>,
}

/// A checkpoint into the bound trail of an [`IncrementalSimplex`]
/// (see [`IncrementalSimplex::mark`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimplexMark(usize);

/// A persistent, incremental variant of the general simplex: constraints
/// are asserted as *retractable bounds* over a tableau whose rows and basis
/// survive retraction, so re-checks after push/pop warm-start from the last
/// feasible basis instead of rebuilding from scratch.
///
/// Each distinct linear-combination shape `Σ cᵢxᵢ` gets one slack row,
/// created on first use and kept forever; asserting a constraint only
/// tightens a bound (recording an undo entry). [`IncrementalSimplex::mark`]
/// / [`IncrementalSimplex::undo_to`] retract bounds in LIFO order without
/// touching the basis. Single-variable constraints bound their program
/// column directly (no row), which is also what makes
/// [`IncrementalSimplex::bound_clash`]-style theory propagation cheap.
///
/// Conflicts are reported as the set of caller-chosen `tag`s of the
/// asserted constraints forming an infeasible subset (a Farkas row read
/// back through the bound ownership), which the CDCL engine turns into
/// learned theory clauses.
#[derive(Clone, Debug, Default)]
pub struct IncrementalSimplex {
    /// Total solver columns (program variables and slacks interleaved in
    /// creation order).
    n: usize,
    var_index: HashMap<VarId, SVar>,
    /// `Some(v)` for program columns, `None` for slacks.
    program_of: Vec<Option<VarId>>,
    /// One slack column per distinct term vector.
    slack_of_terms: HashMap<Vec<(VarId, i128)>, SVar>,
    /// Retractable bounds: `(value, tag of the owning assertion)`.
    lower: Vec<Option<(Rat, u32)>>,
    upper: Vec<Option<(Rat, u32)>>,
    beta: Vec<Rat>,
    basic: Vec<SVar>,
    row_of: Vec<Option<usize>>,
    /// Dense rows, lazily padded as columns are added.
    rows: Vec<Vec<Rat>>,
    trail: Vec<UndoBound>,
    /// Total pivots performed over the lifetime (introspection).
    pivots: u64,
}

impl IncrementalSimplex {
    /// An empty incremental tableau.
    pub fn new() -> IncrementalSimplex {
        IncrementalSimplex::default()
    }

    /// A checkpoint; [`IncrementalSimplex::undo_to`] retracts every bound
    /// asserted after it. Rows and basis are never retracted.
    pub fn mark(&self) -> SimplexMark {
        SimplexMark(self.trail.len())
    }

    /// Retracts bounds back to `m` (LIFO). The current assignment stays
    /// valid: loosening bounds cannot invalidate a nonbasic variable.
    pub fn undo_to(&mut self, m: SimplexMark) {
        while self.trail.len() > m.0 {
            let u = self.trail.pop().expect("trail length checked");
            if u.is_upper {
                self.upper[u.col] = u.prev;
            } else {
                self.lower[u.col] = u.prev;
            }
        }
    }

    /// Number of tableau rows (introspection: the warm basis size).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Total pivots performed so far (introspection).
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Current rational assignment of the program variables, in column
    /// (creation) order.
    pub fn values(&self) -> Vec<(VarId, Rat)> {
        (0..self.n)
            .filter_map(|j| self.program_of[j].map(|v| (v, self.beta[j])))
            .collect()
    }

    fn new_col(&mut self, program: Option<VarId>) -> SVar {
        let j = self.n;
        self.n += 1;
        self.program_of.push(program);
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(Rat::ZERO);
        self.row_of.push(None);
        j
    }

    fn ensure_var(&mut self, v: VarId) -> SVar {
        if let Some(&j) = self.var_index.get(&v) {
            return j;
        }
        let j = self.new_col(Some(v));
        self.var_index.insert(v, j);
        j
    }

    fn coef(&self, r: usize, j: SVar) -> Rat {
        self.rows[r].get(j).copied().unwrap_or(Rat::ZERO)
    }

    fn set_coef(row: &mut Vec<Rat>, j: SVar, v: Rat) {
        if row.len() <= j {
            row.resize(j + 1, Rat::ZERO);
        }
        row[j] = v;
    }

    /// Creates the slack row `x_s = Σ cᵢxᵢ` for a new term vector,
    /// substituting currently-basic variables through their rows so the
    /// tableau invariant (rows range over nonbasic variables) holds.
    fn new_row(&mut self, terms: &[(VarId, i128)]) -> Result<SVar, ArithmeticOverflow> {
        let cols: Vec<(SVar, Rat)> = terms
            .iter()
            .map(|&(v, c)| (self.ensure_var(v), Rat::from_int(c)))
            .collect();
        let s = self.new_col(None);
        let mut row: Vec<Rat> = vec![Rat::ZERO; self.n];
        let mut val = Rat::ZERO;
        for &(j, c) in &cols {
            val = val.add(c.mul(self.beta[j])?)?;
            match self.row_of[j] {
                None => row[j] = row[j].add(c)?,
                Some(r) => {
                    for (k, &a) in self.rows[r].iter().enumerate() {
                        if !a.is_zero() {
                            row[k] = row[k].add(c.mul(a)?)?;
                        }
                    }
                }
            }
        }
        self.beta[s] = val;
        self.row_of[s] = Some(self.rows.len());
        self.basic.push(s);
        self.rows.push(row);
        self.slack_of_terms.insert(terms.to_vec(), s);
        Ok(s)
    }

    /// Asserts `c` as a retractable bound owned by `tag`. Detects
    /// immediate bound clashes (`lower > upper`) without pivoting; call
    /// [`IncrementalSimplex::check`] afterwards for full feasibility.
    pub fn assert_constraint(&mut self, c: &LinearConstraint, tag: u32) -> TheoryResult {
        match self.assert_inner(c, tag) {
            Ok(r) => r,
            Err(_) => TheoryResult::Unknown,
        }
    }

    fn assert_inner(
        &mut self,
        c: &LinearConstraint,
        tag: u32,
    ) -> Result<TheoryResult, ArithmeticOverflow> {
        let terms = c.expr().terms();
        let k = c.expr().constant_term();
        // Single-variable constraints (±1 coefficient after normalization)
        // bound the program column directly.
        let (col, bound, upper_dir) = if let [(x, a)] = *terms {
            debug_assert!(a == 1 || a == -1, "normalized single-var coefficient");
            let col = self.ensure_var(x);
            (col, Rat::new(-k, a)?, a > 0)
        } else {
            let col = match self.slack_of_terms.get(terms) {
                Some(&s) => s,
                None => self.new_row(terms)?,
            };
            (col, Rat::from_int(-k), true)
        };
        match c.rel() {
            Rel::Le0 => {
                if upper_dir {
                    self.tighten(col, true, bound, tag)
                } else {
                    self.tighten(col, false, bound, tag)
                }
            }
            Rel::Eq0 => {
                match self.tighten(col, true, bound, tag)? {
                    TheoryResult::Ok => {}
                    other => return Ok(other),
                }
                self.tighten(col, false, bound, tag)
            }
        }
    }

    /// Tightens one bound, recording an undo entry when it actually moves.
    fn tighten(
        &mut self,
        col: SVar,
        is_upper: bool,
        val: Rat,
        tag: u32,
    ) -> Result<TheoryResult, ArithmeticOverflow> {
        let current = if is_upper {
            &self.upper[col]
        } else {
            &self.lower[col]
        };
        let tighter = match current {
            Some((b, _)) => {
                if is_upper {
                    val < *b
                } else {
                    val > *b
                }
            }
            None => true,
        };
        if !tighter {
            return Ok(TheoryResult::Ok);
        }
        self.trail.push(UndoBound {
            col,
            is_upper,
            prev: *current,
        });
        if is_upper {
            self.upper[col] = Some((val, tag));
            if let Some((l, lt)) = self.lower[col] {
                if l > val {
                    return Ok(TheoryResult::Conflict(vec![lt, tag]));
                }
            }
            if self.row_of[col].is_none() && self.beta[col] > val {
                self.update_nonbasic(col, val)?;
            }
        } else {
            self.lower[col] = Some((val, tag));
            if let Some((u, ut)) = self.upper[col] {
                if u < val {
                    return Ok(TheoryResult::Conflict(vec![ut, tag]));
                }
            }
            if self.row_of[col].is_none() && self.beta[col] < val {
                self.update_nonbasic(col, val)?;
            }
        }
        Ok(TheoryResult::Ok)
    }

    /// Moves nonbasic `j` to `v`, propagating the delta into every basic
    /// variable depending on it (Dutertre–de Moura `update`).
    fn update_nonbasic(&mut self, j: SVar, v: Rat) -> Result<(), ArithmeticOverflow> {
        let delta = v.sub(self.beta[j])?;
        self.beta[j] = v;
        for r in 0..self.rows.len() {
            let c = self.coef(r, j);
            if !c.is_zero() {
                let b = self.basic[r];
                self.beta[b] = self.beta[b].add(c.mul(delta)?)?;
            }
        }
        Ok(())
    }

    /// If the single-variable constraint `c` is directly contradicted by a
    /// currently asserted bound on its variable, returns the owning tag.
    /// This is the cheap bound-clash theory propagation the CDCL engine
    /// turns into binary learned clauses.
    pub fn bound_clash(&self, c: &LinearConstraint) -> Option<u32> {
        let [(x, a)] = *c.expr().terms() else {
            return None;
        };
        let col = *self.var_index.get(&x)?;
        let bound = Rat::new(-c.expr().constant_term(), a).ok()?;
        let lower_clash = || self.lower[col].and_then(|(l, t)| (l > bound).then_some(t));
        let upper_clash = || self.upper[col].and_then(|(u, t)| (u < bound).then_some(t));
        match c.rel() {
            // a > 0: demands x ≤ bound; a < 0: demands x ≥ bound.
            Rel::Le0 if a > 0 => lower_clash(),
            Rel::Le0 => upper_clash(),
            Rel::Eq0 => lower_clash().or_else(upper_clash),
        }
    }

    /// Repairs feasibility from the current (warm) basis, charging
    /// `governor` one [`Category::SimplexPivots`] unit per pivot.
    pub fn check(&mut self, governor: &ResourceGovernor) -> TheoryResult {
        match self.check_inner(governor) {
            Ok(r) => r,
            Err(_) => TheoryResult::Unknown,
        }
    }

    fn check_inner(&mut self, governor: &ResourceGovernor) -> Result<TheoryResult, Halt> {
        loop {
            if governor.charge(Category::SimplexPivots).is_err() {
                return Err(Halt::Interrupted);
            }
            // Smallest violating basic variable (Bland's rule).
            let violated = (0..self.n).find(|&v| {
                self.row_of[v].is_some()
                    && (self.lower[v].is_some_and(|(l, _)| self.beta[v] < l)
                        || self.upper[v].is_some_and(|(u, _)| self.beta[v] > u))
            });
            let Some(b) = violated else {
                return Ok(TheoryResult::Ok);
            };
            let r = self.row_of[b].expect("basic var has a row");
            let increase = self.lower[b].is_some_and(|(l, _)| self.beta[b] < l);
            let target = if increase {
                self.lower[b].expect("violated lower bound exists").0
            } else {
                self.upper[b].expect("violated upper bound exists").0
            };
            // Smallest suitable nonbasic column.
            let mut pivot_col: Option<SVar> = None;
            for j in 0..self.n {
                if self.row_of[j].is_some() {
                    continue;
                }
                let a = self.coef(r, j);
                if a.is_zero() {
                    continue;
                }
                let can_inc = self.upper[j].is_none_or(|(u, _)| self.beta[j] < u);
                let can_dec = self.lower[j].is_none_or(|(l, _)| self.beta[j] > l);
                let suitable = if increase {
                    (a.signum() > 0 && can_inc) || (a.signum() < 0 && can_dec)
                } else {
                    (a.signum() > 0 && can_dec) || (a.signum() < 0 && can_inc)
                };
                if suitable {
                    pivot_col = Some(j);
                    break;
                }
            }
            let Some(j) = pivot_col else {
                return Ok(TheoryResult::Conflict(self.explain(b, r, increase)));
            };
            self.pivots += 1;
            self.pivot_and_update(r, b, j, target)?;
        }
    }

    /// Reads the conflict explanation off the stuck row: the violated
    /// bound of `b` plus, per nonzero column, the bound blocking it.
    fn explain(&self, b: SVar, r: usize, increase: bool) -> Vec<u32> {
        let own = if increase {
            self.lower[b].expect("violated lower bound").1
        } else {
            self.upper[b].expect("violated upper bound").1
        };
        let mut tags = vec![own];
        for j in 0..self.n {
            if self.row_of[j].is_some() || j == b {
                continue;
            }
            let a = self.coef(r, j);
            if a.is_zero() {
                continue;
            }
            let blocked_upper = if increase {
                a.signum() > 0
            } else {
                a.signum() < 0
            };
            let t = if blocked_upper {
                self.upper[j].expect("blocking upper bound exists").1
            } else {
                self.lower[j].expect("blocking lower bound exists").1
            };
            tags.push(t);
        }
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// Sets `x_b := target` by moving `x_j`, then pivots `b` out, `j` in
    /// (the dense-row pivot of [`Tableau`], adapted to lazily-padded rows).
    fn pivot_and_update(
        &mut self,
        r: usize,
        b: SVar,
        j: SVar,
        target: Rat,
    ) -> Result<(), ArithmeticOverflow> {
        let a = self.coef(r, j);
        let theta = target.sub(self.beta[b])?.div(a)?;
        self.beta[b] = target;
        self.beta[j] = self.beta[j].add(theta)?;
        for rr in 0..self.rows.len() {
            if rr == r {
                continue;
            }
            let coeff = self.coef(rr, j);
            if !coeff.is_zero() {
                let bb = self.basic[rr];
                self.beta[bb] = self.beta[bb].add(coeff.mul(theta)?)?;
            }
        }
        let inv = Rat::ONE.div(a)?;
        let mut new_row = vec![Rat::ZERO; self.n];
        Self::set_coef(&mut new_row, b, inv);
        for k in 0..self.rows[r].len() {
            if k == j || k == b {
                continue;
            }
            let c = self.rows[r][k];
            if !c.is_zero() {
                Self::set_coef(&mut new_row, k, c.mul(inv)?.neg()?);
            }
        }
        self.rows[r] = new_row;
        self.basic[r] = j;
        self.row_of[j] = Some(r);
        self.row_of[b] = None;
        for rr in 0..self.rows.len() {
            if rr == r {
                continue;
            }
            let c = self.coef(rr, j);
            if c.is_zero() {
                continue;
            }
            Self::set_coef(&mut self.rows[rr], j, Rat::ZERO);
            for k in 0..self.rows[r].len() {
                let add = c.mul(self.rows[r][k])?;
                if !add.is_zero() {
                    let cur = self.coef(rr, k);
                    Self::set_coef(&mut self.rows[rr], k, cur.add(add)?);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::{LinExpr, NormalizedConstraint};

    fn cons(e: LinExpr, r: Rel) -> LinearConstraint {
        match LinearConstraint::new(e, r) {
            NormalizedConstraint::Constraint(c) => c,
            other => panic!("trivial constraint {other:?}"),
        }
    }

    fn x() -> VarId {
        VarId(0)
    }
    fn y() -> VarId {
        VarId(1)
    }

    /// e ≤ k as constraint.
    fn le(e: LinExpr, k: i128) -> LinearConstraint {
        cons(e.sub(&LinExpr::constant(k)), Rel::Le0)
    }
    /// e ≥ k.
    fn ge(e: LinExpr, k: i128) -> LinearConstraint {
        cons(LinExpr::constant(k).sub(&e), Rel::Le0)
    }
    /// e = k.
    fn eq(e: LinExpr, k: i128) -> LinearConstraint {
        cons(e.sub(&LinExpr::constant(k)), Rel::Eq0)
    }

    fn assert_sat_model(cs: &[LinearConstraint]) {
        match check_rational(cs) {
            SimplexResult::Sat(m) => {
                for c in cs {
                    // Verify the model satisfies every constraint over ℚ.
                    let mut v = Rat::from_int(c.expr().constant_term());
                    for &(var, coeff) in c.expr().terms() {
                        v = v.add(Rat::from_int(coeff).mul(m[&var]).unwrap()).unwrap();
                    }
                    let ok = match c.rel() {
                        Rel::Le0 => v <= Rat::ZERO,
                        Rel::Eq0 => v == Rat::ZERO,
                    };
                    assert!(ok, "model violates {c:?} (value {v:?})");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn satisfiable_box() {
        assert_sat_model(&[ge(LinExpr::var(x()), 1), le(LinExpr::var(x()), 5)]);
    }

    #[test]
    fn unsat_interval() {
        let cs = [ge(LinExpr::var(x()), 3), le(LinExpr::var(x()), 2)];
        assert_eq!(check_rational(&cs), SimplexResult::Unsat);
    }

    #[test]
    fn equality_chain_unsat() {
        // x = y, y = x + 1
        let cs = [
            eq(LinExpr::var(x()).sub(&LinExpr::var(y())), 0),
            eq(LinExpr::var(y()).sub(&LinExpr::var(x())), 1),
        ];
        assert_eq!(check_rational(&cs), SimplexResult::Unsat);
    }

    #[test]
    fn equality_chain_sat() {
        // x = 2, y = x + 3, y ≤ 5
        assert_sat_model(&[
            eq(LinExpr::var(x()), 2),
            eq(LinExpr::var(y()).sub(&LinExpr::var(x())), 3),
            le(LinExpr::var(y()), 5),
        ]);
    }

    #[test]
    fn two_var_polytope() {
        // x + y ≤ 4, x − y ≤ 0, x ≥ 1 → e.g. (1, 3).
        assert_sat_model(&[
            le(LinExpr::var(x()).add(&LinExpr::var(y())), 4),
            le(LinExpr::var(x()).sub(&LinExpr::var(y())), 0),
            ge(LinExpr::var(x()), 1),
        ]);
    }

    #[test]
    fn farkas_style_unsat() {
        // x + y ≥ 5, x ≤ 1, y ≤ 2  → 5 ≤ x + y ≤ 3, unsat.
        let cs = [
            ge(LinExpr::var(x()).add(&LinExpr::var(y())), 5),
            le(LinExpr::var(x()), 1),
            le(LinExpr::var(y()), 2),
        ];
        assert_eq!(check_rational(&cs), SimplexResult::Unsat);
    }

    #[test]
    fn unbounded_is_sat() {
        assert_sat_model(&[ge(LinExpr::var(x()), 1_000_000)]);
    }

    #[test]
    fn empty_input_is_sat() {
        assert_eq!(check_rational(&[]), SimplexResult::Sat(HashMap::new()));
    }

    #[test]
    fn degenerate_pivoting_terminates() {
        // A system that forces several pivots: x ≥ 0, y ≥ 0,
        // x + y ≤ 0, x − y = 0  →  only (0,0).
        assert_sat_model(&[
            ge(LinExpr::var(x()), 0),
            ge(LinExpr::var(y()), 0),
            le(LinExpr::var(x()).add(&LinExpr::var(y())), 0),
            eq(LinExpr::var(x()).sub(&LinExpr::var(y())), 0),
        ]);
    }

    #[test]
    fn pivot_budget_degrades_to_unknown() {
        // x + y ≥ 5, x ≤ 1, y ≤ 2 needs several pivots to refute.
        let cs = [
            ge(LinExpr::var(x()).add(&LinExpr::var(y())), 5),
            le(LinExpr::var(x()), 1),
            le(LinExpr::var(y()), 2),
        ];
        let g = ResourceGovernor::builder()
            .budget(Category::SimplexPivots, 1)
            .build();
        assert_eq!(check_rational_governed(&cs, &g), SimplexResult::Unknown);
        assert_eq!(g.give_up().unwrap().category, Category::SimplexPivots);
        // Ungoverned, the same system is decided exactly.
        assert_eq!(check_rational(&cs), SimplexResult::Unsat);
    }

    #[test]
    fn redundant_constraints() {
        assert_sat_model(&[
            ge(LinExpr::var(x()), 1),
            ge(LinExpr::var(x()), 1),
            ge(LinExpr::var(x()).scale(1), 0),
        ]);
    }
}
