//! Seeded workload instances built on `bench_suite::generators`, with
//! ground truth taken from each family's construction rule and the
//! correctness gate every verdict passes through.

use bench_suite::generators as gen;
use gemcutter::verify::Verdict;
use program::concurrent::{LetterId, Program, Spec};
use program::interp::{Interpreter, SearchResult};
use smt::term::TermPool;
use std::collections::HashSet;

/// One parametric family instance of `bench_suite::generators`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Bluetooth(usize),
    BluetoothBuggy(usize),
    ParallelAdd(usize),
    SharedCounter { n: usize, k: usize, bound: i128 },
    CountUpDown(usize),
    CountUpDownBuggy(usize),
}

impl Family {
    /// The generated CPL source.
    pub fn source(self) -> String {
        match self {
            Family::Bluetooth(n) => gen::bluetooth(n),
            Family::BluetoothBuggy(n) => gen::bluetooth_buggy(n),
            Family::ParallelAdd(n) => gen::parallel_add(n),
            Family::SharedCounter { n, k, bound } => gen::shared_counter(n, k, bound),
            Family::CountUpDown(n) => gen::count_up_down(n),
            Family::CountUpDownBuggy(n) => gen::count_up_down_buggy(n),
        }
    }

    /// Ground truth from the family's construction rule, independent of
    /// the verifier: the corrected bluetooth driver, parallel addition and
    /// balanced counting are safe, their buggy variants are not, and a
    /// shared counter is safe iff its bound is at least `n·k`.
    pub fn safe(self) -> bool {
        match self {
            Family::Bluetooth(_) | Family::ParallelAdd(_) | Family::CountUpDown(_) => true,
            Family::BluetoothBuggy(_) | Family::CountUpDownBuggy(_) => false,
            Family::SharedCounter { n, k, bound } => bound >= (n * k) as i128,
        }
    }

    pub fn label(self) -> String {
        match self {
            Family::Bluetooth(n) => format!("bluetooth({n})"),
            Family::BluetoothBuggy(n) => format!("bluetooth_buggy({n})"),
            Family::ParallelAdd(n) => format!("parallel_add({n})"),
            Family::SharedCounter { n, k, bound } => format!("shared_counter({n},{k},{bound})"),
            Family::CountUpDown(n) => format!("count_up_down({n})"),
            Family::CountUpDownBuggy(n) => format!("count_up_down_buggy({n})"),
        }
    }

    /// Families sharing a construction rule: same generator, same truth.
    fn rule(self) -> (std::mem::Discriminant<Family>, bool) {
        (std::mem::discriminant(&self), self.safe())
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScaleTraversal,
    ScaleSolver,
    RefineDeep,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScaleTraversal,
        Workload::ScaleSolver,
        Workload::RefineDeep,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleTraversal => "scale-traversal",
            Workload::ScaleSolver => "scale-solver",
            Workload::RefineDeep => "refine-deep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The instance list of a batch workload, smallest first within each
    /// family (the seed only permutes it, so every seed does
    /// the same verification work). For `serve-mixed`, the templates its
    /// stored and fresh programs are drawn from.
    pub fn families(self) -> Vec<Family> {
        let mut out = Vec::new();
        match self {
            Workload::ScaleTraversal => {
                out.extend((4..=7).map(Family::Bluetooth));
                out.extend((5..=8).map(Family::ParallelAdd));
                out.extend((2..=4).map(Family::BluetoothBuggy));
            }
            Workload::ScaleSolver => {
                for (n, k) in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)] {
                    let nk = (n * k) as i128;
                    out.push(Family::SharedCounter { n, k, bound: nk });
                    out.push(Family::SharedCounter {
                        n,
                        k,
                        bound: nk - 1,
                    });
                }
            }
            Workload::RefineDeep => {
                for n in 8..=16 {
                    out.push(Family::CountUpDown(n));
                    out.push(Family::CountUpDownBuggy(n));
                }
            }
            Workload::ServeMixed => {
                for n in 2..=3 {
                    out.push(Family::CountUpDown(n));
                    out.push(Family::CountUpDownBuggy(n));
                }
                for (n, k) in [(2, 1), (2, 2)] {
                    let nk = (n * k) as i128;
                    out.push(Family::SharedCounter { n, k, bound: nk });
                    out.push(Family::SharedCounter {
                        n,
                        k,
                        bound: nk - 1,
                    });
                }
            }
        }
        out
    }
}

/// SplitMix64: a tiny deterministic generator, so a seed fixes the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A generated program with its ground truth.
#[derive(Clone, Debug)]
pub struct Instance {
    /// `family(params)#tag`, unique within a run.
    pub label: String,
    pub family: Family,
    /// The source the verifier sees: the family's generated text with
    /// every global renamed by a seed-drawn tag.
    pub source: String,
}

impl Instance {
    /// `family`'s generated source, unchanged.
    pub fn plain(family: Family) -> Instance {
        Instance {
            label: family.label(),
            family,
            source: family.source(),
        }
    }

    /// `family` with its globals renamed by a tag drawn from `rng`.
    pub fn generate(family: Family, rng: &mut Rng) -> Instance {
        let tag = format!("{:08x}", rng.next_u64() as u32);
        Instance {
            label: format!("{}#{tag}", family.label()),
            family,
            source: rename_globals(&family.source(), &format!("_{tag}")),
        }
    }

    pub fn safe(&self) -> bool {
        self.family.safe()
    }

    pub fn compile(&self, pool: &mut TermPool) -> Result<Program, String> {
        cpl::compile(&self.source, pool).map_err(|e| format!("{}: compile error: {e}", self.label))
    }
}

/// A batch workload's instances: every family once, in seeded order. The
/// sources are not renamed: names reach the query cache's canonical term
/// order and the certificate audit's sampling salt, so renaming would give
/// each seed different work to time.
pub fn batch_instances(workload: Workload, seed: u64) -> Vec<Instance> {
    let mut families = workload.families();
    Rng::new(seed).shuffle(&mut families);
    families.into_iter().map(Instance::plain).collect()
}

/// Appends `suffix` to every global declared with `var` in `source`
/// (whole identifiers only). Renaming changes no verification work; it
/// makes every seed's programs distinct to the daemon's proof store.
pub fn rename_globals(source: &str, suffix: &str) -> String {
    let globals: HashSet<&str> = source
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("var "))
        .filter_map(|rest| rest.split(':').next())
        .map(str::trim)
        .collect();
    let mut out = String::with_capacity(source.len() + 16 * globals.len());
    let mut ident = String::new();
    for ch in source.chars().chain(std::iter::once('\n')) {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            ident.push(ch);
            continue;
        }
        if !ident.is_empty() {
            out.push_str(&ident);
            if globals.contains(ident.as_str()) {
                out.push_str(suffix);
            }
            ident.clear();
        }
        out.push(ch);
    }
    out.pop();
    out
}

/// Values the interpreter substitutes for `havoc`; covers every guard the
/// families use.
const HAVOC_DOMAIN: [i128; 5] = [0, 1, 2, 3, 10];
/// State bound of the explicit-state cross-check.
const SEARCH_STATES: usize = 40_000;

fn interpreter(program: &Program) -> Interpreter<'_> {
    Interpreter::new(program).with_havoc_domain(HAVOC_DOMAIN.to_vec())
}

/// Cross-checks each construction rule used by `families` on its
/// smallest instance against the bounded explicit-state search of
/// `program::interp` — never against the verifier under test. An unsafe
/// rule needs a reachable error; a safe rule needs none within the bound.
pub fn cross_check_ground_truth(families: &[Family]) -> Result<usize, String> {
    let mut seen = Vec::new();
    for &family in families {
        if seen.contains(&family.rule()) {
            continue;
        }
        seen.push(family.rule());
        let mut pool = TermPool::new();
        let program = cpl::compile(&family.source(), &mut pool)
            .map_err(|e| format!("{}: compile error: {e}", family.label()))?;
        let interp = interpreter(&program);
        let reachable = program.asserting_threads().into_iter().any(|t| {
            matches!(
                interp.search(&pool, Spec::ErrorOf(t), SEARCH_STATES),
                SearchResult::ErrorReachable(_)
            )
        });
        if reachable == family.safe() {
            return Err(format!(
                "ground-truth rule for {} (safe = {}) contradicted by explicit-state search",
                family.label(),
                family.safe()
            ));
        }
    }
    Ok(seen.len())
}

/// The correctness gate. `Ok(true)` for a conclusive verdict that agrees
/// with ground truth (an INCORRECT trace must also replay concretely),
/// `Ok(false)` for a give-up, which counts as failed. `Err` for a verdict
/// that contradicts ground truth: the run aborts, nothing is recorded.
pub fn gate(
    inst: &Instance,
    pool: &TermPool,
    program: &Program,
    verdict: &Verdict,
) -> Result<bool, String> {
    match verdict {
        Verdict::GaveUp(_) => Ok(false),
        Verdict::Correct if inst.safe() => Ok(true),
        Verdict::Incorrect { trace } if !inst.safe() => {
            if interpreter(program).replay(pool, trace) {
                Ok(true)
            } else {
                Err(format!(
                    "{}: INCORRECT trace does not replay concretely",
                    inst.label
                ))
            }
        }
        _ => Err(format!(
            "{}: verdict {} contradicts ground truth (safe = {})",
            inst.label,
            if verdict.is_correct() {
                "CORRECT"
            } else {
                "INCORRECT"
            },
            inst.safe()
        )),
    }
}

/// [`gate`] for a wire verdict: letters are indices into the program's
/// alphabet, which compilation fixes.
pub fn gate_letters(
    inst: &Instance,
    pool: &TermPool,
    program: &Program,
    incorrect: Option<&[u32]>,
) -> Result<bool, String> {
    let verdict = match incorrect {
        None => Verdict::Correct,
        Some(trace) => Verdict::Incorrect {
            trace: trace.iter().map(|&l| LetterId(l)).collect(),
        },
    };
    gate(inst, pool, program, &verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_touches_whole_global_identifiers_only() {
        let src = "var c: int = 0;\nvar done: int = 0;\nthread t { local cc: int = 0; c := c + cc; done := 1; }\n";
        let out = rename_globals(src, "_x");
        assert_eq!(
            out,
            "var c_x: int = 0;\nvar done_x: int = 0;\nthread t { local cc: int = 0; c_x := c_x + cc; done_x := 1; }\n"
        );
    }

    #[test]
    fn same_seed_same_instances() {
        let a = batch_instances(Workload::RefineDeep, 7);
        let b = batch_instances(Workload::RefineDeep, 7);
        let c = batch_instances(Workload::RefineDeep, 8);
        let sources = |v: &[Instance]| v.iter().map(|i| i.source.clone()).collect::<Vec<_>>();
        assert_eq!(sources(&a), sources(&b));
        assert_ne!(sources(&a), sources(&c));
        assert_eq!(a.len(), Workload::RefineDeep.families().len());
    }
}
