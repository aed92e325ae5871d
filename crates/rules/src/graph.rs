//! The triggering graph and infinite-triggering analysis (Section 6.1).
//!
//! Definition 6.1: the triggering graph of a rule set `J` has the rules as
//! vertices and an edge `(J1, J2)` whenever
//! `GetTrigP(action(J1)) ∩ triggers(J2) ≠ ∅` — executing `J1`'s violation
//! response may trigger `J2`. "Infinite rule triggering in a rule set J can
//! only occur if the triggering graph of J contains one or more cycles", so
//! an integrity control subsystem validates rule sets by constructing and
//! analysing this graph; declaring actions *non-triggering*
//! (Definition 6.2) removes their outgoing edges.

use std::collections::BTreeSet;
use std::fmt;

use crate::gentrig::get_trig_px;
use crate::index::TriggerIndex;
use crate::rule::IntegrityRule;

/// The triggering graph of a rule set.
#[derive(Debug, Clone)]
pub struct TriggeringGraph {
    names: Vec<String>,
    /// Adjacency: `edges[i]` lists the indices of rules triggered by rule
    /// `i`'s action.
    edges: Vec<Vec<usize>>,
}

impl TriggeringGraph {
    /// Build the triggering graph of `rules` (Definition 6.1, with
    /// `GetTrigPX` so non-triggering actions contribute no edges).
    ///
    /// Edge construction routes through a [`TriggerIndex`] over the rules'
    /// trigger sets: each rule's out-edges are one inverted lookup over
    /// its *action* triggers, so building costs O(N·affected) rather than
    /// the all-pairs O(N²) intersection — on a catalog where most actions
    /// trigger nothing (every aborting rule), the per-rule cost is O(1).
    /// [`TriggerIndex::candidates`] returns positions sorted in catalog
    /// order, exactly matching what the linear scan produced.
    pub fn build(rules: &[IntegrityRule]) -> TriggeringGraph {
        let index = TriggerIndex::build(rules.iter().map(|r| r.triggers()));
        TriggeringGraph {
            names: rules.iter().map(|r| r.name.clone()).collect(),
            edges: rules
                .iter()
                .map(|r| index.candidates(&get_trig_px(&r.action.as_program(), r.non_triggering)))
                .collect(),
        }
    }

    /// Append a vertex for the next rule (its position is the current
    /// vertex count): `out` lists the positions its action triggers,
    /// sorted, with its own position marking a self-loop; `from` lists
    /// the existing vertices whose actions trigger it.
    pub fn push_vertex(&mut self, name: String, out: Vec<usize>, from: &[usize]) {
        let v = self.len();
        for &i in from {
            // `v` is the largest position, so the list stays sorted.
            self.edges[i].push(v);
        }
        self.names.push(name);
        self.edges.push(out);
    }

    /// Remove vertex `v` with every edge into and out of it; the vertices
    /// above it move down one position, as in a `Vec::remove` of the
    /// catalog's rules.
    pub fn remove_vertex(&mut self, v: usize) {
        self.names.remove(v);
        self.edges.remove(v);
        for targets in &mut self.edges {
            targets.retain(|&j| j != v);
            for j in targets.iter_mut().filter(|j| **j > v) {
                *j -= 1;
            }
        }
    }

    /// Whether vertex `v` lies on a cycle, i.e. belongs to a cyclic SCC:
    /// a search from its successors that comes back to it. A vertex
    /// without out-edges answers at once.
    pub fn on_cycle(&self, v: usize) -> bool {
        if self.edges[v].is_empty() {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = self.edges[v].clone();
        while let Some(w) = stack.pop() {
            if w == v {
                return true;
            }
            if !std::mem::replace(&mut seen[w], true) {
                stack.extend_from_slice(&self.edges[w]);
            }
        }
        false
    }

    /// The graph obtained by deleting the given `(from, to)` edges —
    /// the semantic-refinement step: an edge whose triggering is proven
    /// impossible is removed before re-running cycle detection.
    pub fn without_edges(&self, pruned: &BTreeSet<(usize, usize)>) -> TriggeringGraph {
        TriggeringGraph {
            names: self.names.clone(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, targets)| {
                    targets
                        .iter()
                        .copied()
                        .filter(|&j| !pruned.contains(&(i, j)))
                        .collect()
                })
                .collect(),
        }
    }

    /// The vertex names, in catalog order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Adjacency lists: `edges()[i]` holds the positions triggered by rule
    /// `i`'s action, sorted.
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// One explicit closed triggering walk per cyclic SCC, rendered as
    /// rule names with the start repeated at the end (`["a", "b", "a"]`),
    /// deterministic. Where [`TriggeringGraph::cycles`] reports the
    /// *membership* of each cycle, this reports a concrete path — the form
    /// an error message can show as `a -> b -> a`.
    pub fn cycle_paths(&self) -> Vec<Vec<String>> {
        let mut paths = Vec::new();
        for scc in self.tarjan_sccs() {
            let cyclic = scc.len() > 1 || (scc.len() == 1 && self.edges[scc[0]].contains(&scc[0]));
            if !cyclic {
                continue;
            }
            let start = scc[0]; // sorted: smallest catalog position
            if let Some(path) = self.closed_walk(start, &scc) {
                paths.push(path.into_iter().map(|i| self.names[i].clone()).collect());
            }
        }
        paths.sort();
        paths
    }

    /// A closed walk `start -> … -> start` staying inside `scc` (sorted),
    /// found by BFS from `start`'s successors back to `start`.
    fn closed_walk(&self, start: usize, scc: &[usize]) -> Option<Vec<usize>> {
        let in_scc = |v: usize| scc.binary_search(&v).is_ok();
        // BFS parent pointers from start, over SCC-internal edges.
        let mut parent: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        for &next in &self.edges[start] {
            if in_scc(next) && !parent.contains_key(&next) && next != start {
                parent.insert(next, start);
                queue.push_back(next);
            }
            if next == start {
                return Some(vec![start, start]); // self-loop
            }
        }
        while let Some(v) = queue.pop_front() {
            for &next in &self.edges[v] {
                if next == start {
                    // Found the way back: unwind the parent chain.
                    let mut rev = vec![start, v];
                    let mut cur = v;
                    while let Some(&p) = parent.get(&cur) {
                        if p == start {
                            break;
                        }
                        rev.push(p);
                        cur = p;
                    }
                    rev.push(start);
                    rev.reverse();
                    return Some(rev);
                }
                if in_scc(next) && !parent.contains_key(&next) {
                    parent.insert(next, v);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Number of vertices (rules).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The edges as `(from, to)` rule-name pairs, deterministic order.
    pub fn edge_names(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        for (i, targets) in self.edges.iter().enumerate() {
            for &j in targets {
                out.push((self.names[i].as_str(), self.names[j].as_str()));
            }
        }
        out
    }

    /// All elementary cycles' vertex sets, as rule-name lists — computed
    /// via strongly connected components (a rule set is cycle-free iff
    /// every SCC is a single vertex without a self-loop).
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let sccs = self.tarjan_sccs();
        let mut cycles = Vec::new();
        for scc in sccs {
            let cyclic = scc.len() > 1 || (scc.len() == 1 && self.edges[scc[0]].contains(&scc[0]));
            if cyclic {
                let mut names: Vec<String> = scc.iter().map(|&i| self.names[i].clone()).collect();
                names.sort();
                cycles.push(names);
            }
        }
        cycles.sort();
        cycles
    }

    /// Whether the rule set is free of potential infinite triggering.
    pub fn is_acyclic(&self) -> bool {
        self.cycles().is_empty()
    }

    fn tarjan_sccs(&self) -> Vec<Vec<usize>> {
        struct State<'g> {
            graph: &'g TriggeringGraph,
            index: usize,
            indices: Vec<Option<usize>>,
            lowlink: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            sccs: Vec<Vec<usize>>,
        }
        fn strongconnect(s: &mut State<'_>, v: usize) {
            s.indices[v] = Some(s.index);
            s.lowlink[v] = s.index;
            s.index += 1;
            s.stack.push(v);
            s.on_stack[v] = true;
            for i in 0..s.graph.edges[v].len() {
                let w = s.graph.edges[v][i];
                if s.indices[w].is_none() {
                    strongconnect(s, w);
                    s.lowlink[v] = s.lowlink[v].min(s.lowlink[w]);
                } else if s.on_stack[w] {
                    s.lowlink[v] = s.lowlink[v].min(s.indices[w].expect("visited"));
                }
            }
            if Some(s.lowlink[v]) == s.indices[v] {
                let mut scc = Vec::new();
                loop {
                    let w = s.stack.pop().expect("stack non-empty");
                    s.on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                scc.sort_unstable();
                s.sccs.push(scc);
            }
        }
        let n = self.len();
        let mut state = State {
            graph: self,
            index: 0,
            indices: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            sccs: Vec::new(),
        };
        for v in 0..n {
            if state.indices[v].is_none() {
                strongconnect(&mut state, v);
            }
        }
        state.sccs
    }
}

impl fmt::Display for TriggeringGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "triggering graph: {} rule(s)", self.len())?;
        for (from, to) in self.edge_names() {
            writeln!(f, "  {from} -> {to}")?;
        }
        Ok(())
    }
}

/// Result of validating a rule set for triggering behaviour (the check
/// Section 6.1 prescribes at rule definition time).
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Cyclic rule groups; empty means the set is safe.
    pub cycles: Vec<Vec<String>>,
    /// Rule names indexed consistently with the graph.
    pub rule_names: Vec<String>,
}

impl ValidationReport {
    /// Validate a rule set: build the triggering graph and collect cycles.
    pub fn validate(rules: &[IntegrityRule]) -> ValidationReport {
        ValidationReport::of(&TriggeringGraph::build(rules))
    }

    /// The report of a triggering graph already at hand (a catalog keeps
    /// its graph current as rules come and go).
    pub fn of(graph: &TriggeringGraph) -> ValidationReport {
        ValidationReport {
            cycles: graph.cycles(),
            rule_names: graph.names().to_vec(),
        }
    }

    /// Whether the rule set may trigger forever.
    pub fn has_cycles(&self) -> bool {
        !self.cycles.is_empty()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cycles.is_empty() {
            write!(
                f,
                "rule set is cycle-free ({} rules)",
                self.rule_names.len()
            )
        } else {
            writeln!(f, "rule set has potential infinite triggering:")?;
            for c in &self.cycles {
                writeln!(f, "  cycle: {}", c.join(" -> "))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleAction;
    use crate::trigger::{Trigger, TriggerSet};
    use tm_calculus::parse_formula;

    fn abort_rule(name: &str, triggers: Vec<Trigger>) -> IntegrityRule {
        IntegrityRule::new(
            name,
            TriggerSet::from_triggers(triggers),
            parse_formula("1 = 1").unwrap(),
            RuleAction::Abort,
        )
    }

    fn compensating_rule(name: &str, triggers: Vec<Trigger>, action: &str) -> IntegrityRule {
        IntegrityRule::new(
            name,
            TriggerSet::from_triggers(triggers),
            parse_formula("1 = 1").unwrap(),
            RuleAction::Compensate(tm_algebra::parse_program(action).unwrap()),
        )
    }

    #[test]
    fn aborting_rules_never_cycle() {
        let rules = vec![
            abort_rule("a", vec![Trigger::ins("r")]),
            abort_rule("b", vec![Trigger::del("r")]),
        ];
        let g = TriggeringGraph::build(&rules);
        assert!(g.is_acyclic());
        assert!(g.edge_names().is_empty());
    }

    #[test]
    fn compensation_creates_edges() {
        let rules = vec![
            compensating_rule("fixup", vec![Trigger::ins("r")], "insert(s, {(1)})"),
            abort_rule("check_s", vec![Trigger::ins("s")]),
        ];
        let g = TriggeringGraph::build(&rules);
        assert_eq!(g.edge_names(), vec![("fixup", "check_s")]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn self_loop_detected() {
        // Rule triggered by INS(r) whose action inserts into r.
        let rules = vec![compensating_rule(
            "looper",
            vec![Trigger::ins("r")],
            "insert(r, {(1)})",
        )];
        let g = TriggeringGraph::build(&rules);
        assert!(!g.is_acyclic());
        assert_eq!(g.cycles(), vec![vec!["looper".to_owned()]]);
    }

    #[test]
    fn two_rule_cycle_detected() {
        let rules = vec![
            compensating_rule("a", vec![Trigger::ins("r")], "insert(s, {(1)})"),
            compensating_rule("b", vec![Trigger::ins("s")], "insert(r, {(1)})"),
        ];
        let report = ValidationReport::validate(&rules);
        assert!(report.has_cycles());
        assert_eq!(report.cycles, vec![vec!["a".to_owned(), "b".to_owned()]]);
    }

    #[test]
    fn non_triggering_breaks_cycle() {
        let rules = vec![
            compensating_rule("a", vec![Trigger::ins("r")], "insert(s, {(1)})"),
            compensating_rule("b", vec![Trigger::ins("s")], "insert(r, {(1)})").non_triggering(),
        ];
        let report = ValidationReport::validate(&rules);
        assert!(!report.has_cycles(), "{report}");
    }

    #[test]
    fn diamond_without_cycle() {
        let rules = vec![
            compensating_rule(
                "top",
                vec![Trigger::ins("a")],
                "insert(b, {(1)}); insert(c, {(1)})",
            ),
            compensating_rule("left", vec![Trigger::ins("b")], "insert(d, {(1)})"),
            compensating_rule("right", vec![Trigger::ins("c")], "insert(d, {(1)})"),
            abort_rule("bottom", vec![Trigger::ins("d")]),
        ];
        let g = TriggeringGraph::build(&rules);
        assert!(g.is_acyclic());
        assert_eq!(g.edge_names().len(), 4);
    }

    #[test]
    fn vertex_insert_and_remove_match_build() {
        let rules = vec![
            compensating_rule("a", vec![Trigger::ins("r")], "insert(s, {(1)})"),
            compensating_rule("b", vec![Trigger::ins("s")], "insert(r, {(1)})"),
            compensating_rule("loop", vec![Trigger::ins("r")], "insert(r, {(1)})"),
            abort_rule("check_s", vec![Trigger::ins("s")]),
        ];
        let mut g = TriggeringGraph::build(&[]);
        for (n, rule) in rules.iter().enumerate() {
            let full = TriggeringGraph::build(&rules[..=n]);
            let out = full.edges()[n].clone();
            let from: Vec<usize> = (0..n).filter(|&i| full.edges()[i].contains(&n)).collect();
            g.push_vertex(rule.name.clone(), out, &from);
            assert_eq!(g.edges(), full.edges(), "after adding {}", rule.name);
        }
        assert!(g.on_cycle(0) && g.on_cycle(1) && g.on_cycle(2));
        assert!(!g.on_cycle(3));
        for pos in 0..rules.len() {
            let mut h = g.clone();
            h.remove_vertex(pos);
            let mut rest = rules.clone();
            rest.remove(pos);
            let full = TriggeringGraph::build(&rest);
            assert_eq!((h.names(), h.edges()), (full.names(), full.edges()));
        }
    }

    #[test]
    fn display_renders_edges() {
        let rules = vec![
            compensating_rule("fixup", vec![Trigger::ins("r")], "insert(s, {(1)})"),
            abort_rule("check_s", vec![Trigger::ins("s")]),
        ];
        let g = TriggeringGraph::build(&rules);
        let s = g.to_string();
        assert!(s.contains("fixup -> check_s"));
    }
}
