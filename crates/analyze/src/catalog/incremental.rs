//! The incrementally maintained analysis against the whole-catalog
//! rebuild it replaced: after every `add_rule` / `remove_rule` the two
//! must agree on everything the analysis reports, and one catalog change
//! must cost the rules it can interact with, not the catalog.

use std::cell::Cell;
use std::collections::BTreeSet;

use proptest::prelude::*;
use tm_calculus::{analyze, ConstraintInfo};
use tm_relational::{RelationSchema, ValueType};
use tm_rules::parse_rule;
use tm_translate::condition_shape;

use super::*;

/// The analysis of a rule list built from scratch: every rule's facts,
/// all O(n²) subsumption pairs, the whole triggering graph and a verdict
/// for every edge, then one cycle search per graph.
struct Rebuilt {
    report: AnalysisReport,
    pruned: BTreeSet<(usize, usize)>,
    graph: TriggeringGraph,
}

fn rebuild(schema: &DatabaseSchema, rules: &[(IntegrityRule, ConstraintInfo)]) -> Rebuilt {
    let facts: Vec<RuleFacts> = rules
        .iter()
        .map(|(rule, info)| RuleFacts::of(0, rule, condition_shape(&info.formula, schema), schema))
        .collect();
    let mut diagnostics = Vec::new();
    for n in 0..facts.len() {
        diagnostics.extend(liveness_diag(&facts[n]));
        for o in 0..n {
            diagnostics.extend(subsumption_diag(&facts[o], &facts[n]));
        }
    }
    let plain: Vec<IntegrityRule> = rules.iter().map(|(r, _)| r.clone()).collect();
    let graph = TriggeringGraph::build(&plain);
    let mut pruned = BTreeSet::new();
    let mut proofs = Vec::new();
    for (i, targets) in graph.edges().iter().enumerate() {
        for &j in targets {
            if let Some(proof) = edge_verdict(&facts, i, j) {
                pruned.insert((i, j));
                proofs.push(PrunedEdge {
                    from: facts[i].name.clone(),
                    to: facts[j].name.clone(),
                    proof,
                });
            }
        }
    }
    let refined = graph.without_edges(&pruned);
    let refined_cycles = refined.cycle_paths();
    for p in &proofs {
        diagnostics.push(Diagnostic {
            code: Code::FalseEdgePruned,
            rule: p.from.clone(),
            message: format!("triggering edge to `{}` pruned: {}", p.to, p.proof),
        });
    }
    for c in &refined_cycles {
        diagnostics.push(Diagnostic {
            code: Code::UnprovenTermination,
            rule: c[0].clone(),
            message: format!(
                "triggering cycle survives semantic refinement: {}; termination unproven, the runtime round budget stays armed",
                c.join(" -> ")
            ),
        });
    }
    let report = AnalysisReport {
        rules: facts.len(),
        syntactic_edges: graph.edge_count(),
        refined_edges: refined.edge_count(),
        diagnostics,
        certificate: TerminationCertificate {
            certified: refined.is_acyclic(),
            syntactic_cycles: graph.cycle_paths(),
            refined_cycles,
            pruned: proofs,
        },
    };
    Rebuilt {
        report,
        pruned,
        graph,
    }
}

/// A maintained analysis next to the rule list it covers; every change
/// is checked against [`rebuild`].
struct Harness {
    schema: Arc<DatabaseSchema>,
    analysis: CatalogAnalysis,
    rules: Vec<(IntegrityRule, ConstraintInfo)>,
}

impl Harness {
    fn new() -> Harness {
        let schema = DatabaseSchema::from_relations(vec![
            RelationSchema::of("r", &[("v", ValueType::Int)]),
            RelationSchema::of("s", &[("m", ValueType::Int)]),
            RelationSchema::of("log", &[("code", ValueType::Int)]),
        ])
        .unwrap()
        .into_shared();
        Harness {
            analysis: CatalogAnalysis::new(schema.clone()),
            schema,
            rules: Vec::new(),
        }
    }

    fn add(&mut self, name: &str, text: &str) -> &mut Harness {
        let rule = parse_rule(text, name).unwrap();
        let info = analyze(rule.condition(), &self.schema).unwrap();
        self.analysis
            .add_rule(&rule, condition_shape(&info.formula, &self.schema));
        self.rules.push((rule, info));
        self.check(&format!("after adding {name}"))
    }

    fn remove(&mut self, name: &str) -> &mut Harness {
        let position = self.rules.iter().position(|(r, _)| r.name == name);
        let position = position.unwrap_or_else(|| panic!("no rule {name}"));
        self.analysis.remove_rule(position);
        self.rules.remove(position);
        self.check(&format!("after removing {name}"))
    }

    fn check(&mut self, step: &str) -> &mut Harness {
        let a = &self.analysis;
        let r = rebuild(&self.schema, &self.rules);
        assert_eq!(a.report(), r.report, "{step}");
        assert_eq!(a.certified(), r.report.certificate.certified, "{step}");
        assert_eq!(
            a.refined_cycles(),
            r.report.certificate.refined_cycles.as_slice(),
            "{step}"
        );
        for i in 0..self.rules.len() {
            for j in 0..self.rules.len() {
                assert_eq!(
                    a.edge_pruned(i, j),
                    r.pruned.contains(&(i, j)),
                    "{step}: edge {i} -> {j}"
                );
            }
        }
        assert_eq!(
            (a.graph().names(), a.graph().edges()),
            (r.graph.names(), r.graph.edges()),
            "{step}"
        );
        assert_eq!(
            a.trigger_index(),
            &TriggerIndex::build(self.rules.iter().map(|(rule, _)| rule.triggers())),
            "{step}"
        );
        self
    }

    fn report(&self) -> AnalysisReport {
        self.analysis.report()
    }
}

/// The generator's rule pool over `r(v)`, `s(m)`, `log(code)`; `k` is a
/// constant the rule may use.
fn rule_text(kind: usize, k: i64) -> String {
    match kind {
        // Aborting `Domain` rules: A001, A002, and A003 in both
        // directions (thresholds and trigger sets vary).
        0 => format!("WHEN INS(r) IF NOT forall x (x in r implies x.v >= {k}) THEN abort"),
        1 => format!("WHEN INS(r), DEL(s) IF NOT forall x (x in r implies x.v >= {k}) THEN abort"),
        2 => "WHEN INS(r) IF NOT forall x (x in r implies x.v < 0 and x.v > 10) THEN abort".into(),
        3 => "WHEN INS(r) IF NOT forall x (x in r implies x.v < 5 or x.v >= 5) THEN abort".into(),
        4 => format!("WHEN INS(s) IF NOT forall y (y in s implies y.m >= {k}) THEN abort"),
        // A `Referential` constraint.
        5 => {
            "WHEN INS(s), DEL(r) IF NOT forall x (x in s implies exists y (y in r and x.m = y.v)) \
              THEN abort"
                .into()
        }
        // Opaque copies `r → s` and `s → r`: a 2-cycle refinement keeps,
        // unless the second is NON-TRIGGERING.
        6 => "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) THEN insert(s, r@ins)".into(),
        7 => "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN insert(r, s@ins)".into(),
        8 => "WHEN INS(s) IF NOT forall y (y in s implies y.m >= 0) THEN insert(r, s@ins) \
              NON-TRIGGERING"
            .into(),
        // Well-formed repairs: a 2-cycle refinement prunes.
        9 => "WHEN INS(r), DEL(s) IF NOT forall x (x in r implies x.v >= 0) \
              THEN delete(r, select[#0 < 0](r)); insert(log, {(0)})"
            .into(),
        10 => "WHEN DEL(r) IF NOT forall y (y in s implies y.m >= 0) \
               THEN delete(s, select[#0 < 0](s))"
            .into(),
        11 => format!("WHEN INS(log) IF NOT forall z (z in log implies z.code >= {k}) THEN abort"),
        // Self-loops: pruned when the re-inserted row satisfies the
        // rule's own condition, kept otherwise.
        12 => format!(
            "WHEN INS(r) IF NOT forall x (x in r implies x.v >= 0) \
             THEN delete(r, select[#0 < 0](r)); insert(r, {{({k})}})"
        ),
        13 => "WHEN INS(r) IF NOT 1 = 1 THEN insert(r, r@ins)".into(),
        // An alarm, and a literal feeder into `r`.
        14 => "WHEN INS(log) IF NOT 1 = 1 THEN alarm(select[#0 < 0](log@ins))".into(),
        _ => format!(
            "WHEN DEL(log) IF NOT forall x (x in r implies x.v >= 0) THEN insert(r, {{({k})}})"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random declare/remove sequences over the pool: after every step
    /// the maintained analysis equals the one built from scratch.
    #[test]
    fn incremental_equals_rebuild(
        steps in prop::collection::vec((0..16usize, -3..12i64, 0..4u8, 0..64usize), 1..48),
    ) {
        let mut h = Harness::new();
        for (step, (kind, k, op, victim)) in steps.into_iter().enumerate() {
            if op == 0 && !h.rules.is_empty() {
                let name = h.rules[victim % h.rules.len()].0.name.clone();
                h.remove(&name);
            } else {
                h.add(&format!("k{kind}_{step}"), &rule_text(kind, k));
            }
        }
    }
}

/// Every case the generator is meant to reach, reached on purpose.
#[test]
fn scripted_changes_equal_rebuild() {
    let mut h = Harness::new();
    // A003 with the newer rule subsumed, then its winner removed.
    h.add("tight", &rule_text(0, 10))
        .add("loose", &rule_text(0, 0));
    assert!(h.report().has(Code::SubsumedBy, "loose"));
    h.remove("tight");
    assert!(!h.report().has(Code::SubsumedBy, "loose"));
    // A003 with the older rule subsumed; A001 and A002 beside it.
    h.add("tighter", &rule_text(1, 20))
        .add("impossible", &rule_text(2, 0))
        .add("dead", &rule_text(3, 0));
    let report = h.report();
    assert!(report.has(Code::UnsatisfiableConstraint, "impossible"));
    assert!(report.has(Code::TautologicalConstraint, "dead"));
    h.add("tight_again", &rule_text(0, 10));
    assert!(h.report().has(Code::SubsumedBy, "loose"));
    h.remove("loose").remove("impossible");
    // An opaque 2-cycle: kept by refinement, broken by removing a member.
    h.add("ping", &rule_text(6, 0))
        .add("pong", &rule_text(7, 0));
    assert!(!h.analysis.certified());
    h.remove("ping");
    assert!(h.analysis.certified());
    h.add("ping", &rule_text(6, 0))
        .add("quiet_pong", &rule_text(8, 0));
    assert!(!h.report().has(Code::UnprovenTermination, "ping"));
    // A 2-cycle of repairs that refinement prunes, and a referential
    // target it reaches.
    h.add("clamp", &rule_text(9, 0))
        .add("mark", &rule_text(10, 0))
        .add("logcheck", &rule_text(11, 0))
        .add("sref", &rule_text(5, 0));
    assert!(!h.report().certificate.syntactic_cycles.is_empty());
    h.remove("mark");
    // Self-loops: pruned, then kept, then the kept one removed.
    h.add("selfheal", &rule_text(12, 0))
        .add("looper", &rule_text(13, 0));
    assert!(h.analysis.edge_pruned(h.rules.len() - 2, h.rules.len() - 2));
    assert!(!h.analysis.certified());
    h.remove("looper").remove("pong");
    assert!(h.analysis.certified());
    h.add("alarm", &rule_text(14, 0))
        .add("feeder", &rule_text(15, -1));
    h.remove("clamp").remove("tighter").remove("selfheal");
}

/// Reset and return this thread's `(edge verdicts, subsumption checks)`.
fn take_work() -> (usize, usize) {
    let take = |c: &Cell<usize>| c.replace(0);
    (
        work::EDGE_VERDICTS.with(take),
        work::SUBSUMPTION_CHECKS.with(take),
    )
}

/// On a catalog of 3 000 cold alarm rules, declaring and removing an
/// aborting `Domain` constraint on another relation evaluates no edge
/// verdict and compares it only with that relation's aborting `Domain`
/// rules.
#[test]
fn a_constraint_change_costs_its_relation_not_the_catalog() {
    let mut relations: Vec<RelationSchema> = (0..300)
        .map(|r| RelationSchema::of(&format!("cold{r}"), &[("v", ValueType::Int)]))
        .collect();
    relations.push(RelationSchema::of("hot", &[("v", ValueType::Int)]));
    let schema = DatabaseSchema::from_relations(relations)
        .unwrap()
        .into_shared();
    let mut a = CatalogAnalysis::new(schema.clone());
    let add = |a: &mut CatalogAnalysis, name: &str, text: &str| {
        let rule = parse_rule(text, name).unwrap();
        let info = analyze(rule.condition(), &schema).unwrap();
        a.add_rule(&rule, condition_shape(&info.formula, &schema));
    };
    for k in 0..3 {
        add(
            &mut a,
            &format!("hot_{k}"),
            &format!("WHEN INS(hot) IF NOT forall x (x in hot implies x.v >= {k}) THEN abort"),
        );
    }
    for r in 0..300 {
        for i in 0..10 {
            add(
                &mut a,
                &format!("cold_{r}_{i}"),
                &format!(
                    "WHEN INS(cold{r}) IF NOT 1 = 1 THEN alarm(select[#0 < {i}](cold{r}@ins))"
                ),
            );
        }
    }
    assert_eq!(a.len(), 3_003);

    take_work();
    add(
        &mut a,
        "capped",
        "WHEN INS(hot) IF NOT forall x (x in hot implies x.v >= 5) THEN abort",
    );
    assert_eq!(take_work(), (0, 3), "add: no edges, three bucket partners");
    assert!(a.report().has(Code::SubsumedBy, "hot_2"));

    a.remove_rule(3_003);
    assert_eq!(take_work(), (0, 0), "remove from the end");
    assert!(!a.report().has(Code::SubsumedBy, "hot_2"));

    a.remove_rule(0);
    assert_eq!(take_work(), (0, 0), "remove from the front");
    assert_eq!(a.len(), 3_002);
    assert!(a.certified());
}
