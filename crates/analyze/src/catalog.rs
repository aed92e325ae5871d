//! Incremental catalog analysis: per-rule diagnostics, semantic
//! triggering-graph refinement, and the termination certificate.
//!
//! ## What refinement proves
//!
//! The syntactic triggering graph (Definition 6.1) has an edge
//! `J1 → J2` whenever `GetTrigPX(action(J1)) ∩ triggers(J2) ≠ ∅`. The
//! edge is **semantically false** when `J1`'s action provably cannot
//! violate `J2`'s condition; then selecting `J2` *because of* `J1`
//! appends a program that does nothing — an alarm that selects no rows,
//! or (for compensating targets) a repair with nothing to repair. The
//! analyzer prunes exactly the edges whose target condition gets a
//! *dropped* verdict against the source action's write summary: the
//! verdict table of [`tm_translate::specialize`], the one prepare-time
//! specialization and the Δ compiler use.
//!
//! ## Soundness provisos
//!
//! All edge proofs hold *relative to the integrity assumption*: the
//! state satisfies the constraints when the transaction starts (the
//! induction invariant transaction modification maintains). For
//! **aborting** targets the argument is then exact: a skipped check is
//! an `alarm` that would have selected nothing. For **compensating**
//! targets, skipping the selection also skips the response action, and
//! the claim "the action would have done nothing" additionally relies
//! on the paper's well-formedness assumption for repair actions — a
//! compensating action is a no-op when its rule's constraint is already
//! satisfied (e.g. it deletes exactly the violating rows). A
//! compensating action with unconditional side effects (say, an audit
//! insert performed even when there is nothing to repair) falls outside
//! that assumption, and pruning an edge into it changes behaviour; see
//! `docs/analysis.md`.
//!
//! ## Cost of a catalog change
//!
//! The analysis is maintained in O(Δ): positions mirror the catalog's
//! parallel vectors, and a change does analysis work only for the rules
//! it can interact with. Adding a rule finds its out-edges through an
//! index over rule triggers and its in-edges through an index over
//! action triggers (`GetTrigPX`), computes edge verdicts for exactly
//! those edges, and compares it for subsumption only with the aborting
//! `Domain` rules on its relation. A cycle search (SCC pass) runs only
//! when the new rule has both an in-edge and an out-edge in the graph
//! concerned; a vertex missing either lies on no cycle. Removing a rule
//! drops its vertex, edges, pruned proofs and the diagnostics it takes
//! part in, renumbers the positions above it, and re-runs the cycle
//! search only when the rule lay on a cycle.

use std::collections::BTreeMap;
use std::sync::Arc;

use tm_relational::DatabaseSchema;
use tm_rules::{get_trig_px, IntegrityRule, TriggerIndex, TriggerSet, TriggeringGraph};
use tm_translate::{ConditionShape, DropReason, Verdict, Writes};

use crate::domain;
use crate::report::{AnalysisReport, Code, Diagnostic, PrunedEdge, TerminationCertificate};

/// Everything the analyzer knows about one rule, computed once at
/// definition time.
#[derive(Debug, Clone)]
struct RuleFacts {
    /// Identity that survives renumbering; ties diagnostics to rules.
    id: u64,
    name: String,
    is_abort: bool,
    triggers: TriggerSet,
    /// The condition's shape — computed once, for every rule:
    /// refinement pushes writes through *compensating* rules' conditions
    /// too.
    shape: ConditionShape,
    /// The action's write summary.
    writes: Writes,
}

impl RuleFacts {
    fn of(id: u64, rule: &IntegrityRule, shape: ConditionShape, schema: &DatabaseSchema) -> Self {
        RuleFacts {
            id,
            name: rule.name.clone(),
            is_abort: rule.action().is_abort(),
            triggers: rule.triggers().clone(),
            shape,
            writes: Writes::of(&rule.action().as_program(), schema),
        }
    }

    /// The relation of an aborting `Domain` rule — the only rules A003
    /// relates, and only to each other on the same relation.
    fn subsumption_relation(&self) -> Option<&str> {
        let (rel, _) = self.shape.domain().filter(|_| self.is_abort)?;
        Some(rel)
    }
}

fn subset(a: &TriggerSet, b: &TriggerSet) -> bool {
    a.iter().all(|t| b.contains(t))
}

/// Per-thread counts of the analysis work units, so tests can pin what
/// one catalog change costs.
#[cfg(test)]
mod work {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Calls of `edge_verdict`.
        pub(super) static EDGE_VERDICTS: Cell<usize> = const { Cell::new(0) };
        /// Calls of `subsumption_diag`.
        pub(super) static SUBSUMPTION_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count(counter: &'static LocalKey<Cell<usize>>) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

/// The weakest-precondition verdict for the syntactic edge
/// `from → to`: `Some(proof)` when the edge is semantically false.
fn edge_verdict(facts: &[RuleFacts], from: usize, to: usize) -> Option<String> {
    #[cfg(test)]
    work::count(&work::EDGE_VERDICTS);
    let (src, dst) = (&facts[from], &facts[to]);
    let Verdict::Dropped(reason) = dst.shape.verdict(&src.writes) else {
        return None;
    };
    Some(match reason {
        DropReason::Untouched(rel) => format!(
            "action of `{}` never writes `{rel}`, the relation `{}`'s condition constrains",
            src.name, dst.name
        ),
        DropReason::DeletesOnly(rel) => format!(
            "action of `{}` only deletes from `{rel}`; deletions cannot violate a universal constraint",
            src.name
        ),
        DropReason::RowsFold(rel) => format!(
            "every `{rel}` row inserted by `{}` constant-folds `{}`'s violation predicate to false",
            src.name, dst.name
        ),
        DropReason::NoMatchLost { rel_r, rel_s } => format!(
            "action of `{}` neither inserts into `{rel_r}` nor deletes from `{rel_s}`; the referential condition of `{}` cannot lose a match",
            src.name, dst.name
        ),
    })
}

/// A001/A002 for one rule (aborting `Domain` rules only: a compensating
/// rule's response runs regardless of its condition, so liveness claims
/// about the condition say nothing about the action).
fn liveness_diag(facts: &RuleFacts) -> Option<Diagnostic> {
    if !facts.is_abort {
        return None;
    }
    let (rel, violation_pred) = facts.shape.domain()?;
    if domain::always_true(violation_pred) {
        return Some(Diagnostic {
            code: Code::UnsatisfiableConstraint,
            rule: facts.name.clone(),
            message: format!(
                "constraint on `{rel}` is unsatisfiable: the violation predicate `{violation_pred}` holds for every tuple, so any insert into `{rel}` aborts"
            ),
        });
    }
    if domain::never_true(violation_pred) {
        return Some(Diagnostic {
            code: Code::TautologicalConstraint,
            rule: facts.name.clone(),
            message: format!(
                "constraint on `{rel}` is tautological: the violation predicate `{violation_pred}` holds for no tuple, so the compiled check can never fire (dead rule)"
            ),
        });
    }
    None
}

/// A003 between an older and a newer rule: both aborting `Domain`
/// checks on the same relation. A rule is subsumed when the other rule
/// triggers whenever it does (trigger-set inclusion) and aborts
/// whenever it would (violation-predicate implication).
fn subsumption_diag(older: &RuleFacts, newer: &RuleFacts) -> Option<Diagnostic> {
    #[cfg(test)]
    work::count(&work::SUBSUMPTION_CHECKS);
    if !older.is_abort || !newer.is_abort {
        return None;
    }
    let ((rel_o, v_o), (rel_n, v_n)) = (older.shape.domain()?, newer.shape.domain()?);
    if rel_o != rel_n {
        return None;
    }
    let subsumed_by = |winner: &RuleFacts, loser: &RuleFacts| {
        Diagnostic {
        code: Code::SubsumedBy,
        rule: loser.name.clone(),
        message: format!(
            "subsumed by `{}`: every tuple violating this rule's constraint on `{rel_o}` also violates `{}`'s, and `{}` triggers whenever this rule does — removing this rule preserves behaviour",
            winner.name, winner.name, winner.name
        ),
    }
    };
    if subset(&newer.triggers, &older.triggers) && domain::implies(v_n, v_o) {
        Some(subsumed_by(older, newer))
    } else if subset(&older.triggers, &newer.triggers) && domain::implies(v_o, v_n) {
        Some(subsumed_by(newer, older))
    } else {
        None
    }
}

/// The cached static analysis of one catalog state. Positions mirror
/// the catalog's rule vector; maintain with
/// [`CatalogAnalysis::add_rule`] / [`CatalogAnalysis::remove_rule`].
#[derive(Debug, Clone)]
pub struct CatalogAnalysis {
    schema: Arc<DatabaseSchema>,
    facts: Vec<RuleFacts>,
    /// The id the next added rule gets.
    next_id: u64,
    /// A001–A003 in definition order, each as `(owner, partner, finding)`:
    /// the id of the rule whose definition produced it and, for A003, the
    /// id of the older rule it was compared with.
    rule_diags: Vec<(u64, Option<u64>, Diagnostic)>,
    /// Positions of the aborting `Domain` rules per constrained
    /// relation, ascending: a new rule's only A003 candidates.
    domain_rules: BTreeMap<String, Vec<usize>>,
    /// Inverted index over the rules' trigger sets: the rules an action
    /// triggers (a new rule's out-edges). The catalog's rule selection
    /// index.
    triggers: TriggerIndex,
    /// Inverted index over the actions' `GetTrigPX` sets: the rules whose
    /// actions trigger a given rule (a new rule's in-edges).
    actions: TriggerIndex,
    graph: TriggeringGraph,
    /// Proofs of the semantically false edges, by `(from, to)`.
    pruned: BTreeMap<(usize, usize), String>,
    /// `graph` without the `pruned` edges.
    refined: TriggeringGraph,
    syntactic_cycles: Vec<Vec<String>>,
    refined_cycles: Vec<Vec<String>>,
}

impl CatalogAnalysis {
    /// An empty analysis over a schema.
    pub fn new(schema: Arc<DatabaseSchema>) -> CatalogAnalysis {
        CatalogAnalysis {
            schema,
            facts: Vec::new(),
            next_id: 0,
            rule_diags: Vec::new(),
            domain_rules: BTreeMap::new(),
            triggers: TriggerIndex::new(),
            actions: TriggerIndex::new(),
            graph: TriggeringGraph::build(&[]),
            pruned: BTreeMap::new(),
            refined: TriggeringGraph::build(&[]),
            syntactic_cycles: Vec::new(),
            refined_cycles: Vec::new(),
        }
    }

    /// Number of rules analysed.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether no rules have been analysed.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Fold in the next rule (position = number of rules added before
    /// it, matching the catalog), with the shape of its analysed
    /// condition ([`tm_translate::condition_shape`]). The engine's catalog
    /// passes the shape it compiled the rule with, so each definition
    /// computes it once.
    pub fn add_rule(&mut self, rule: &IntegrityRule, shape: ConditionShape) {
        let n = self.facts.len();
        let facts = RuleFacts::of(self.next_id, rule, shape, &self.schema);
        self.next_id += 1;
        let action_triggers = get_trig_px(&rule.action().as_program(), rule.non_triggering);

        // A001–A003: subsumption only ever relates aborting `Domain`
        // rules on one relation, so only that relation's are compared.
        if let Some(d) = liveness_diag(&facts) {
            self.rule_diags.push((facts.id, None, d));
        }
        if let Some(rel) = facts.subsumption_relation() {
            let bucket = self.domain_rules.entry(rel.to_owned()).or_default();
            for &o in bucket.iter() {
                let older = &self.facts[o];
                if let Some(d) = subsumption_diag(older, &facts) {
                    self.rule_diags.push((facts.id, Some(older.id), d));
                }
            }
            bucket.push(n);
        }

        // The new vertex's edges, from the two indexes; its own position
        // among the out-edges is a self-loop.
        self.triggers.add(&facts.triggers);
        self.actions.add(&action_triggers);
        let out = self.triggers.candidates(&action_triggers);
        let mut from = self.actions.candidates(&facts.triggers);
        from.retain(|&i| i != n);
        let name = facts.name.clone();
        self.facts.push(facts);

        // Verdicts for exactly those edges.
        for (i, j) in out
            .iter()
            .map(|&j| (n, j))
            .chain(from.iter().map(|&i| (i, n)))
        {
            if let Some(proof) = edge_verdict(&self.facts, i, j) {
                self.pruned.insert((i, j), proof);
            }
        }
        let refined_out: Vec<usize> = out
            .iter()
            .copied()
            .filter(|&j| !self.pruned.contains_key(&(n, j)))
            .collect();
        let refined_from: Vec<usize> = from
            .iter()
            .copied()
            .filter(|&i| !self.pruned.contains_key(&(i, n)))
            .collect();

        // A vertex without an in-edge or without an out-edge lies on no
        // cycle: the cycle lists stay as they are.
        let closes_cycle = |out: &[usize], from: &[usize]| {
            !out.is_empty() && (!from.is_empty() || out.contains(&n))
        };
        let syntactic_pass = closes_cycle(&out, &from);
        let refined_pass = closes_cycle(&refined_out, &refined_from);
        self.graph.push_vertex(name.clone(), out, &from);
        self.refined.push_vertex(name, refined_out, &refined_from);
        if syntactic_pass {
            self.syntactic_cycles = self.graph.cycle_paths();
        }
        if refined_pass {
            self.refined_cycles = self.refined.cycle_paths();
        }
    }

    /// Remove the rule at `position` (the catalog position it was added
    /// at); the rules above it move down one position.
    pub fn remove_rule(&mut self, position: usize) {
        let syntactic_pass = self.graph.on_cycle(position);
        let refined_pass = self.refined.on_cycle(position);

        let removed = self.facts.remove(position);
        self.rule_diags
            .retain(|(owner, partner, _)| *owner != removed.id && *partner != Some(removed.id));
        if let Some(rel) = removed.subsumption_relation() {
            let bucket = self
                .domain_rules
                .get_mut(rel)
                .expect("every aborting Domain rule is in its relation's bucket");
            bucket.retain(|&p| p != position);
            if bucket.is_empty() {
                self.domain_rules.remove(rel);
            }
        }
        let shift = |p: usize| if p > position { p - 1 } else { p };
        for bucket in self.domain_rules.values_mut() {
            for p in bucket {
                *p = shift(*p);
            }
        }

        self.triggers.remove(position);
        self.actions.remove(position);
        self.graph.remove_vertex(position);
        self.refined.remove_vertex(position);
        self.pruned = std::mem::take(&mut self.pruned)
            .into_iter()
            .filter(|((i, j), _)| *i != position && *j != position)
            .map(|((i, j), proof)| ((shift(i), shift(j)), proof))
            .collect();
        if syntactic_pass {
            self.syntactic_cycles = self.graph.cycle_paths();
        }
        if refined_pass {
            self.refined_cycles = self.refined.cycle_paths();
        }
    }

    /// Whether termination is proven: the refined triggering graph is
    /// acyclic, so modification reaches a fixpoint within `|catalog|`
    /// rounds and the runtime round budget is provably unreachable.
    pub fn certified(&self) -> bool {
        self.refined_cycles.is_empty()
    }

    /// The inverted index over the rules' trigger sets, positions
    /// matching the catalog's — the index rule selection consults.
    pub fn trigger_index(&self) -> &TriggerIndex {
        &self.triggers
    }

    /// The condition shape of the rule at `position`, computed once when
    /// it was added.
    pub fn shape(&self, position: usize) -> &ConditionShape {
        &self.facts[position].shape
    }

    /// The condition shape of the rule at `position` if it is an aborting
    /// check — the only rules whose checks may be specialized: a
    /// compensating action runs whenever it is selected.
    pub fn check_shape(&self, position: usize) -> Option<&ConditionShape> {
        let facts = &self.facts[position];
        facts.is_abort.then_some(&facts.shape)
    }

    /// The syntactic triggering graph (Definition 6.1) of the rules.
    pub fn graph(&self) -> &TriggeringGraph {
        &self.graph
    }

    /// Whether the syntactic edge `from → to` was semantically pruned.
    /// `ModP` skips a selection when every program appended in the
    /// previous round reaches it only over pruned edges.
    pub fn edge_pruned(&self, from: usize, to: usize) -> bool {
        self.pruned.contains_key(&(from, to))
    }

    /// Cycle paths surviving refinement (empty iff certified).
    pub fn refined_cycles(&self) -> &[Vec<String>] {
        &self.refined_cycles
    }

    /// The first surviving cycle path, for error rendering.
    pub fn first_refined_cycle(&self) -> Vec<String> {
        self.refined_cycles.first().cloned().unwrap_or_default()
    }

    /// Assemble the full report for the current catalog state.
    pub fn report(&self) -> AnalysisReport {
        let mut diagnostics: Vec<Diagnostic> =
            self.rule_diags.iter().map(|(_, _, d)| d.clone()).collect();
        let pruned: Vec<PrunedEdge> = self
            .pruned
            .iter()
            .map(|(&(i, j), proof)| PrunedEdge {
                from: self.facts[i].name.clone(),
                to: self.facts[j].name.clone(),
                proof: proof.clone(),
            })
            .collect();
        for p in &pruned {
            diagnostics.push(Diagnostic {
                code: Code::FalseEdgePruned,
                rule: p.from.clone(),
                message: format!("triggering edge to `{}` pruned: {}", p.to, p.proof),
            });
        }
        for c in &self.refined_cycles {
            diagnostics.push(Diagnostic {
                code: Code::UnprovenTermination,
                rule: c.first().cloned().unwrap_or_default(),
                message: format!(
                    "triggering cycle survives semantic refinement: {}; termination unproven, the runtime round budget stays armed",
                    c.join(" -> ")
                ),
            });
        }
        AnalysisReport {
            rules: self.facts.len(),
            syntactic_edges: self.graph.edge_count(),
            refined_edges: self.refined.edge_count(),
            diagnostics,
            certificate: TerminationCertificate {
                certified: self.certified(),
                syntactic_cycles: self.syntactic_cycles.clone(),
                refined_cycles: self.refined_cycles.clone(),
                pruned,
            },
        }
    }
}

#[cfg(test)]
mod incremental;

#[cfg(test)]
mod tests {
    use super::*;
    use tm_calculus::analyze;
    use tm_relational::{RelationSchema, ValueType};
    use tm_rules::parse_rule;
    use tm_translate::condition_shape;

    fn schema() -> Arc<DatabaseSchema> {
        DatabaseSchema::from_relations(vec![
            RelationSchema::of("r", &[("v", ValueType::Int)]),
            RelationSchema::of("s", &[("m", ValueType::Int)]),
            RelationSchema::of("log", &[("code", ValueType::Int)]),
        ])
        .unwrap()
        .into_shared()
    }

    fn analysis_of(rules: &[(&str, &str)]) -> CatalogAnalysis {
        let schema = schema();
        let mut a = CatalogAnalysis::new(schema.clone());
        for (name, text) in rules {
            let rule = parse_rule(text, name).unwrap();
            let info = analyze(rule.condition(), &schema).unwrap();
            a.add_rule(&rule, condition_shape(&info.formula, &schema));
        }
        a
    }

    #[test]
    fn empty_catalog_is_certified() {
        let a = CatalogAnalysis::new(schema());
        assert!(a.certified());
        assert!(a.report().diagnostics.is_empty());
    }

    #[test]
    fn unsatisfiable_constraint_reported() {
        let a = analysis_of(&[(
            "impossible",
            "IF NOT forall x (x in r implies x.v < 0 and x.v > 10) THEN abort",
        )]);
        let report = a.report();
        assert!(report.has(Code::UnsatisfiableConstraint, "impossible"));
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn dead_rule_reported() {
        let a = analysis_of(&[(
            "dead",
            "IF NOT forall x (x in r implies x.v < 5 or x.v >= 5) THEN abort",
        )]);
        let report = a.report();
        assert!(report.has(Code::TautologicalConstraint, "dead"));
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn live_rule_clean() {
        let a = analysis_of(&[(
            "live",
            "IF NOT forall x (x in r implies x.v >= 0) THEN abort",
        )]);
        assert!(a.report().diagnostics.is_empty());
        assert!(a.certified());
    }

    #[test]
    fn loose_rule_subsumed_by_tight() {
        let a = analysis_of(&[
            (
                "tight",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 10) THEN abort",
            ),
            (
                "loose",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN abort",
            ),
        ]);
        let report = a.report();
        assert!(report.has(Code::SubsumedBy, "loose"), "{report}");
        assert!(!report.has(Code::SubsumedBy, "tight"));
    }

    #[test]
    fn subsumption_respects_trigger_inclusion() {
        // The loose rule triggers on more update types than the tight
        // one, so the tight rule does not cover it.
        let a = analysis_of(&[
            (
                "tight",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 10) THEN abort",
            ),
            (
                "loose",
                "WHEN INS(r), DEL(s) IF NOT forall x (x in r implies x.v >= 0) THEN abort",
            ),
        ]);
        assert!(!a.report().has(Code::SubsumedBy, "loose"));
    }

    #[test]
    fn repair_cycle_refines_to_certified() {
        // Syntactic 2-cycle of well-formed repairs; both edges are
        // semantically false (each action leaves the other's relation
        // untouched), plus an insert edge refuted by row folding.
        let a = analysis_of(&[
            (
                "clamp",
                "WHEN INS(r), DEL(s) IF NOT forall x (x in r implies x.v >= 0) \
                 THEN delete(r, select[#0 < 0](r)); insert(log, {(0)})",
            ),
            (
                "mark",
                "WHEN DEL(r) IF NOT forall y (y in s implies y.m >= 0) \
                 THEN delete(s, select[#0 < 0](s))",
            ),
            (
                "logcheck",
                "WHEN INS(log) IF NOT forall z (z in log implies z.code >= 0) THEN abort",
            ),
        ]);
        let report = a.report();
        assert!(!report.certificate.syntactic_cycles.is_empty());
        assert!(a.certified(), "{report}");
        assert!(report.certificate.refined_cycles.is_empty());
        // clamp→mark, clamp→logcheck, mark→clamp all pruned.
        assert_eq!(report.certificate.pruned.len(), 3, "{report}");
        assert!(a.edge_pruned(0, 1) && a.edge_pruned(0, 2) && a.edge_pruned(1, 0));
        assert_eq!(report.syntactic_edges, 3);
        assert_eq!(report.refined_edges, 0);
    }

    #[test]
    fn opaque_cycle_stays_unproven() {
        let a = analysis_of(&[
            (
                "ping",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN insert(s, r@ins)",
            ),
            (
                "pong",
                "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN insert(r, s@ins)",
            ),
        ]);
        assert!(!a.certified());
        let report = a.report();
        assert!(report.has(Code::UnprovenTermination, "ping"), "{report}");
        assert_eq!(a.first_refined_cycle(), vec!["ping", "pong", "ping"]);
    }

    #[test]
    fn removal_rebuilds_positions_and_verdicts() {
        let mut a = analysis_of(&[
            (
                "tight",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 10) THEN abort",
            ),
            (
                "loose",
                "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN abort",
            ),
        ]);
        assert!(a.report().has(Code::SubsumedBy, "loose"));
        a.remove_rule(1);
        let report = a.report();
        assert_eq!(report.rules, 1);
        assert!(report.diagnostics.is_empty(), "{report}");
        assert!(a.certified());
    }

    #[test]
    fn self_loop_with_satisfying_insert_pruned() {
        // The action re-inserts a row that provably satisfies the
        // constraint: the self-edge folds away.
        let a = analysis_of(&[(
            "selfheal",
            "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) \
             THEN delete(r, select[#0 < 0](r)); insert(r, {(0)})",
        )]);
        assert!(a.certified(), "{}", a.report());
        assert!(a.edge_pruned(0, 0));
    }

    #[test]
    fn referential_edge_pruned_when_no_match_lost() {
        // sref: every s.m must have a matching r.v. The repair inserts
        // into s's referenced relation r — inserts into the referenced
        // side cannot lose a match... but here the action inserts into
        // the *referencing* side's referenced relation r, which is
        // fine; deleting from s is also fine for r-side.
        let a = analysis_of(&[
            (
                "sref",
                "WHEN INS(s), INS(r) IF NOT forall x (x in s implies exists y (y in r and x.m = y.v)) THEN abort",
            ),
            (
                "feeder",
                "WHEN DEL(log) IF NOT forall x (x in r implies x.v >= 0) THEN insert(r, {(1)})",
            ),
        ]);
        // feeder inserts into r (the referenced relation): edge
        // feeder→sref exists syntactically (INS(r)), but cannot violate
        // the referential condition.
        assert!(a.edge_pruned(1, 0), "{}", a.report());
    }
}
