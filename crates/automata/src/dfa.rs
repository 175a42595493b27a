//! Deterministic finite automata with partial transition functions.
//!
//! The paper (§3) models each thread, the interleaving product, and every
//! reduction as a DFA whose transition function `δ` is *partial*: a missing
//! transition simply rejects. This module provides that representation plus
//! the basic queries (`accepts`, `run`, reachability, trimming).

use crate::bitset::BitSet;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Index of a state inside a [`Dfa`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The state's index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A deterministic finite automaton over letters of type `L`.
///
/// Transitions are partial: [`Dfa::step`] returns `None` when `δ(q, a)` is
/// undefined, and a word is rejected as soon as it falls off the automaton.
///
/// Build one with [`DfaBuilder`]:
///
/// ```
/// use automata::dfa::DfaBuilder;
///
/// let mut b = DfaBuilder::new();
/// let q0 = b.add_state(true);
/// b.add_transition(q0, 0u8, q0);
/// let dfa = b.build(q0);
/// assert!(dfa.accepts([0u8, 0, 0].iter().copied()));
/// ```
#[derive(Clone, Debug)]
pub struct Dfa<L> {
    /// `transitions[q]` lists `(letter, target)` pairs sorted by letter.
    transitions: Vec<Vec<(L, StateId)>>,
    accepting: BitSet,
    initial: StateId,
}

impl<L: Copy + Eq + Ord + Hash> Dfa<L> {
    /// Number of states (including unreachable ones).
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q.index())
    }

    /// `δ(q, a)`, or `None` if undefined.
    pub fn step(&self, q: StateId, letter: L) -> Option<StateId> {
        let row = &self.transitions[q.index()];
        row.binary_search_by(|(l, _)| l.cmp(&letter))
            .ok()
            .map(|i| row[i].1)
    }

    /// The letters enabled at `q` (those with a defined transition), in
    /// increasing letter order.
    pub fn enabled(&self, q: StateId) -> impl Iterator<Item = L> + '_ {
        self.transitions[q.index()].iter().map(|&(l, _)| l)
    }

    /// The outgoing `(letter, target)` edges of `q` in letter order.
    pub fn edges(&self, q: StateId) -> impl Iterator<Item = (L, StateId)> + '_ {
        self.transitions[q.index()].iter().copied()
    }

    /// Runs the automaton on `word` from the initial state.
    ///
    /// Returns the reached state, or `None` if the run falls off a missing
    /// transition (the paper's `δ*` restricted to complete runs).
    pub fn run(&self, word: impl IntoIterator<Item = L>) -> Option<StateId> {
        let mut q = self.initial;
        for a in word {
            q = self.step(q, a)?;
        }
        Some(q)
    }

    /// Language membership.
    pub fn accepts(&self, word: impl IntoIterator<Item = L>) -> bool {
        self.run(word).is_some_and(|q| self.is_accepting(q))
    }

    /// The set of states reachable from the initial state.
    pub fn reachable_states(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states());
        let mut stack = vec![self.initial];
        seen.insert(self.initial.index());
        while let Some(q) = stack.pop() {
            for &(_, t) in &self.transitions[q.index()] {
                if seen.insert(t.index()) {
                    stack.push(t);
                }
            }
        }
        seen
    }

    /// The set of states from which some accepting state is reachable.
    pub fn coreachable_states(&self) -> BitSet {
        // Reverse adjacency, then BFS from accepting states.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states()];
        for (q, row) in self.transitions.iter().enumerate() {
            for &(_, t) in row {
                rev[t.index()].push(StateId(q as u32));
            }
        }
        let mut seen = BitSet::new(self.num_states());
        let mut stack: Vec<StateId> = self.accepting.iter().map(|i| StateId(i as u32)).collect();
        for q in &stack {
            seen.insert(q.index());
        }
        while let Some(q) = stack.pop() {
            for &p in &rev[q.index()] {
                if seen.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// `true` iff the recognized language is empty.
    pub fn is_empty(&self) -> bool {
        let reach = self.reachable_states();
        !self.accepting.iter().any(|i| reach.contains(i))
    }

    /// Returns the automaton restricted to states that are both reachable and
    /// co-reachable, renumbering states. The language is unchanged.
    ///
    /// If the initial state is pruned (empty language), the result is a
    /// single non-accepting initial state with no transitions.
    pub fn trim(&self) -> Dfa<L> {
        let mut keep = self.reachable_states();
        keep.intersect_with(&self.coreachable_states());
        if !keep.contains(self.initial.index()) {
            let mut b = DfaBuilder::new();
            let q0 = b.add_state(false);
            return b.build(q0);
        }
        let mut rename: HashMap<StateId, StateId> = HashMap::new();
        let mut b = DfaBuilder::new();
        for i in keep.iter() {
            let q = StateId(i as u32);
            let nq = b.add_state(self.is_accepting(q));
            rename.insert(q, nq);
        }
        for i in keep.iter() {
            let q = StateId(i as u32);
            for &(l, t) in &self.transitions[q.index()] {
                if keep.contains(t.index()) {
                    b.add_transition(rename[&q], l, rename[&t]);
                }
            }
        }
        b.build(rename[&self.initial])
    }

    /// All distinct letters appearing on some transition, sorted.
    pub fn alphabet(&self) -> Vec<L> {
        let mut letters: Vec<L> = self
            .transitions
            .iter()
            .flat_map(|row| row.iter().map(|&(l, _)| l))
            .collect();
        letters.sort_unstable();
        letters.dedup();
        letters
    }

    /// Iterator over all state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.num_states() as u32).map(StateId)
    }
}

/// Incremental constructor for [`Dfa`].
///
/// # Example
///
/// ```
/// use automata::dfa::DfaBuilder;
///
/// let mut b = DfaBuilder::new();
/// let q0 = b.add_state(false);
/// let q1 = b.add_state(true);
/// b.add_transition(q0, 'x', q1);
/// let dfa = b.build(q0);
/// assert_eq!(dfa.num_states(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DfaBuilder<L> {
    transitions: Vec<Vec<(L, StateId)>>,
    accepting: Vec<bool>,
}

impl<L: Copy + Eq + Ord + Hash> DfaBuilder<L> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DfaBuilder {
            transitions: Vec::new(),
            accepting: Vec::new(),
        }
    }

    /// Adds a state and returns its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.transitions.push(Vec::new());
        self.accepting.push(accepting);
        StateId(self.transitions.len() as u32 - 1)
    }

    /// Number of states added so far.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Marks `q` accepting or not.
    pub fn set_accepting(&mut self, q: StateId, accepting: bool) {
        self.accepting[q.index()] = accepting;
    }

    /// Adds the transition `δ(from, letter) = to`.
    ///
    /// # Panics
    ///
    /// Panics if a *different* transition on the same letter already exists
    /// from `from` (determinism violation). Re-adding the identical
    /// transition is a no-op.
    pub fn add_transition(&mut self, from: StateId, letter: L, to: StateId) {
        let row = &mut self.transitions[from.index()];
        match row.binary_search_by(|(l, _)| l.cmp(&letter)) {
            Ok(i) => assert_eq!(
                row[i].1, to,
                "determinism violation: duplicate transition on the same letter"
            ),
            Err(i) => row.insert(i, (letter, to)),
        }
    }

    /// Finalizes the automaton with `initial` as the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not a state of this builder.
    pub fn build(self, initial: StateId) -> Dfa<L> {
        assert!(
            initial.index() < self.transitions.len(),
            "initial state out of range"
        );
        let mut accepting = BitSet::new(self.accepting.len().max(1));
        for (i, &acc) in self.accepting.iter().enumerate() {
            if acc {
                accepting.insert(i);
            }
        }
        Dfa {
            transitions: self.transitions,
            accepting,
            initial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(ab)*` over {a, b}.
    fn ab_star() -> Dfa<char> {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(true);
        let q1 = b.add_state(false);
        b.add_transition(q0, 'a', q1);
        b.add_transition(q1, 'b', q0);
        b.build(q0)
    }

    #[test]
    fn accepts_and_rejects() {
        let d = ab_star();
        assert!(d.accepts("".chars()));
        assert!(d.accepts("ab".chars()));
        assert!(d.accepts("abab".chars()));
        assert!(!d.accepts("a".chars()));
        assert!(!d.accepts("ba".chars()));
        assert!(!d.accepts("abz".chars()));
    }

    #[test]
    fn enabled_letters() {
        let d = ab_star();
        assert_eq!(d.enabled(StateId(0)).collect::<Vec<_>>(), vec!['a']);
        assert_eq!(d.enabled(StateId(1)).collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn reachability_and_trim() {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        let dead = b.add_state(false); // reachable but not co-reachable
        let unreach = b.add_state(true); // accepting but unreachable
        b.add_transition(q0, 'a', q1);
        b.add_transition(q0, 'd', dead);
        b.add_transition(unreach, 'a', q1);
        let d = b.build(q0);
        assert_eq!(d.reachable_states().len(), 3);
        assert!(d.coreachable_states().contains(q0.index()));
        assert!(!d.coreachable_states().contains(dead.index()));
        let t = d.trim();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts("a".chars()));
        assert!(!t.accepts("d".chars()));
    }

    #[test]
    fn trim_empty_language() {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(false);
        b.add_transition(q0, 'a', q0);
        let d = b.build(q0);
        assert!(d.is_empty());
        let t = d.trim();
        assert_eq!(t.num_states(), 1);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "determinism violation")]
    fn duplicate_transition_panics() {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(false);
        let q1 = b.add_state(true);
        b.add_transition(q0, 'a', q0);
        b.add_transition(q0, 'a', q1);
    }

    #[test]
    fn alphabet_is_sorted_and_deduped() {
        let d = ab_star();
        assert_eq!(d.alphabet(), vec!['a', 'b']);
    }

    #[test]
    fn idempotent_duplicate_transition_ok() {
        let mut b = DfaBuilder::new();
        let q0 = b.add_state(true);
        b.add_transition(q0, 'a', q0);
        b.add_transition(q0, 'a', q0);
        let d = b.build(q0);
        assert_eq!(d.num_transitions(), 1);
    }
}
