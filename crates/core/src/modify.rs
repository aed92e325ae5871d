//! The transaction modification algorithms (Algorithms 5.1 and 6.2).
//!
//! Algorithm 5.1 defines modification declaratively:
//!
//! ```text
//! ModT(T, J) = ModP(T↓, J)↑
//! ModP(P, J) = P                         if TrigP(P, J) = Pε
//!            = P ⊕ ModP(TrigP(P, J), J)  otherwise
//! TrigP(P, J) = TrOptRS(SelRS(P, J))
//! ```
//!
//! `TrOptRS` optimizes and translates the selected rules. Rules are
//! translated once, when they are declared (Section 6.2), so `TrigP` here
//! is `ConcatP(SelPS(P, K))` over the catalog's compiled integrity
//! programs: `SelPS` selects the programs whose trigger sets intersect the
//! update types of `P` (via `GetTrigP`), and the differential variant
//! selects a delta-specialized program per matched trigger. Translating
//! at definition time appends exactly what translating per transaction
//! would (`tests/example_5_1.rs` pins that equality).
//!
//! The recursion terminates when a round triggers nothing. A round budget
//! guards against rule sets with triggering cycles (which Definition 6.1's
//! validation reports at definition time, but the engine can be configured
//! to admit).

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

use tm_algebra::{Program, Statement, Transaction};
use tm_analyze::CatalogAnalysis;
use tm_relational::DatabaseSchema;
use tm_rules::{gentrig::get_trig_px, TriggerIndex, TriggerSet};
use tm_translate::{specialize_check, SpecializedCheck, Writes};

use crate::error::{EngineError, Result};
use crate::programs::IntegrityProgram;

/// Which compiled program of a selected rule is appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionMode {
    /// The rule's full integrity program (`SelPS`/`ConcatP`,
    /// Algorithm 6.2).
    Static,
    /// The rule's per-trigger differential program, once per matched
    /// trigger (§5.2.1).
    Differential,
}

/// Statistics of one `ModT` run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModificationTrace {
    /// Fixpoint rounds executed (0 = transaction triggered nothing).
    pub rounds: usize,
    /// Names of the rules selected, in append order (duplicates possible
    /// across rounds).
    pub rules_fired: Vec<String>,
    /// Statements appended to the user transaction.
    pub statements_appended: usize,
}

/// The provenance of one rule selection after specialization: what the
/// specializer did with the check, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecOutcome {
    /// The template provably cannot violate this rule — the check was
    /// omitted from the plan, with the recorded proof.
    Dropped {
        /// Why the check cannot fire against this template.
        proof: String,
    },
    /// The check was reduced to per-row point checks/probes.
    Probe {
        /// Number of probe statements that replaced the generic check.
        statements: usize,
    },
    /// The generic check was kept (no sound reduction applied, or
    /// specialization is disabled).
    Generic,
}

/// One rule selection with its specialization provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpecialization {
    /// The selection name (rule name; `name[trigger]` in Differential
    /// mode).
    pub rule: String,
    /// What the specializer decided.
    pub outcome: SpecOutcome,
    /// Statements this selection appended to the template (0 for dropped
    /// checks). Decisions are recorded in append order, so these counts
    /// partition the appended region of the modified transaction — the
    /// metrics sink uses them to attribute per-check timings to rules.
    pub appended: usize,
}

/// The specialization record of one `ModT` run: which catalog rules were
/// never selected (relevance filtering), and per selection whether the
/// check was dropped, reduced to probes, or kept generic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecializationReport {
    /// Whether weakest-precondition specialization ran (false: disabled
    /// or `Off` mode; relevance filtering still applies whenever rule
    /// selection does).
    pub enabled: bool,
    /// Catalog size at modification time.
    pub catalog_rules: usize,
    /// Rules the template's updates can never trigger — filtered out by
    /// trigger relevance without ever being looked at.
    pub untriggered: usize,
    /// Per-selection decisions, in append order (a rule selected in
    /// several rounds or for several triggers appears once per selection).
    pub decisions: Vec<RuleSpecialization>,
}

impl SpecializationReport {
    /// Selections whose checks were dropped with a proof.
    pub fn dropped(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, SpecOutcome::Dropped { .. }))
            .count()
    }

    /// Selections reduced to point checks/probes.
    pub fn probed(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, SpecOutcome::Probe { .. }))
            .count()
    }

    /// Selections that kept their generic program.
    pub fn generic(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d.outcome, SpecOutcome::Generic))
            .count()
    }

    /// Collapse the report into per-execution check counts.
    pub fn summary(&self) -> CheckSummary {
        CheckSummary {
            skipped: self.untriggered + self.dropped(),
            probed: self.probed(),
            evaluated: self.generic(),
        }
    }
}

impl fmt::Display for SpecializationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rule(s): {} untriggered, {} dropped, {} probed, {} generic",
            self.catalog_rules,
            self.untriggered,
            self.dropped(),
            self.probed(),
            self.generic()
        )
    }
}

/// Per-execution rule-check accounting, derived from the specialization
/// report: how many catalog rules were skipped outright (untriggered or
/// dropped with a proof), reduced to point probes, or evaluated
/// generically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Rules that cost nothing at execution: never triggered by the
    /// template, or dropped by a weakest-precondition proof.
    pub skipped: usize,
    /// Checks reduced to per-row point checks/probes.
    pub probed: usize,
    /// Checks evaluated via their generic program.
    pub evaluated: usize,
}

/// Everything one `ModT` run selects against: the mode, the catalog's
/// compiled integrity programs with their trigger index, and the optional
/// catalog analysis (condition shapes for weakest-precondition reduction,
/// pruned edges for refinement). Build one per catalog state and call
/// [`mod_t_with`].
#[derive(Debug, Clone)]
pub struct ModContext<'a> {
    /// Which compiled program of a selected rule is appended.
    pub mode: SelectionMode,
    /// The catalog's compiled integrity programs, in declaration order.
    pub programs: &'a [IntegrityProgram],
    /// The database schema.
    pub schema: &'a DatabaseSchema,
    /// Round budget for the `ModP` recursion.
    pub max_rounds: usize,
    /// Inverted trigger index over the catalog (positions must match
    /// `programs`).
    pub index: Cow<'a, TriggerIndex>,
    /// Whether single-`alarm` checks of aborting rules are specialized
    /// against the template, by the condition shapes `analysis` holds.
    pub specialize: bool,
    /// The catalog's static analysis (positions must match). `Some`
    /// enables semantic triggering-graph refinement: recursion rounds
    /// skip selections reachable only over proven-false edges, and a
    /// certified catalog replaces the runtime round budget with a
    /// structural debug assertion.
    pub analysis: Option<&'a CatalogAnalysis>,
}

impl<'a> ModContext<'a> {
    /// A plain context: a trigger index built over the programs' trigger
    /// sets, no analysis, no specialization.
    pub fn basic(
        mode: SelectionMode,
        programs: &'a [IntegrityProgram],
        schema: &'a DatabaseSchema,
        max_rounds: usize,
    ) -> ModContext<'a> {
        ModContext {
            mode,
            programs,
            schema,
            max_rounds,
            index: Cow::Owned(TriggerIndex::build(programs.iter().map(|k| k.triggers()))),
            specialize: false,
            analysis: None,
        }
    }
}

/// One selected program together with its triggering metadata for the next
/// recursion round. The program is borrowed from the catalog and cloned
/// only if it is appended as is; one the specializer drops or replaces
/// with probes is never copied.
struct SelectedProgram<'a> {
    name: String,
    /// Catalog position of the originating rule.
    rule_idx: usize,
    program: &'a Program,
    non_triggering: bool,
}

/// Internal: one modification round — `TrigP(P, J)`.
///
/// The candidate positions come from one inverted lookup in the trigger
/// index (O(|frontier| + |affected|)), in catalog order.
fn trig_p<'a>(frontier_triggers: &TriggerSet, ctx: &ModContext<'a>) -> Vec<SelectedProgram<'a>> {
    let mut selected = Vec::new();
    for i in ctx.index.candidates(frontier_triggers) {
        let k = &ctx.programs[i];
        let select = |name, program| SelectedProgram {
            name,
            rule_idx: i,
            program,
            non_triggering: k.non_triggering,
        };
        match ctx.mode {
            // SelPS + ConcatP over the precompiled programs.
            SelectionMode::Static => selected.push(select(k.name.clone(), &k.program)),
            // Per-trigger selection: one specialized program per matched
            // trigger.
            SelectionMode::Differential => selected.extend(
                k.triggers()
                    .iter()
                    .filter(|t| frontier_triggers.contains(t))
                    .map(|t| select(format!("{}[{}]", k.name, t), k.program_for_trigger(t))),
            ),
        }
    }
    selected
}

/// Whether a check program is eligible for per-template specialization: a
/// single `alarm` statement (every aborting check the translator emits).
/// Compensating actions and multi-statement programs always run generic.
fn single_alarm(program: &Program) -> bool {
    program.len() == 1 && matches!(program.statements().first(), Some(Statement::Alarm(_)))
}

/// `ModT` (Algorithm 5.1) over a [`ModContext`]: modify a transaction and
/// report both the modification trace and the specialization provenance.
///
/// When `ctx.specialize` is set, every selected single-`alarm` check of an
/// aborting rule is pushed through [`specialize_check`] against the
/// template's writes *at its append point* (statements appended by
/// earlier selections are visible to later ones, matching execution
/// order): checks provably unviolable are dropped, reducible ones become
/// per-row point probes, the rest stay generic. Dropped and probed checks
/// are alarm-only, so the rewrite never changes the triggering frontier
/// of the next round.
pub fn mod_t_with(
    tx: &Transaction,
    ctx: &ModContext<'_>,
) -> Result<(Transaction, ModificationTrace, SpecializationReport)> {
    let mut trace = ModificationTrace::default();
    // T↓ — debracket.
    let mut result = tx.debracket().clone();
    // Track the template's per-relation writes only when specialization
    // is on.
    let shapes = ctx.analysis.filter(|_| ctx.specialize);
    let mut writes = shapes.map(|_| Writes::of(&result, ctx.schema));
    // The first frontier is the user program itself (always triggering).
    let mut frontier_triggers = get_trig_px(&result, false);
    let mut decisions = Vec::new();
    let mut selected_rules: BTreeSet<usize> = BTreeSet::new();
    // The selections appended in the previous round, with the triggers
    // their programs actually fire — the *origins* of the current
    // frontier. `None` in round 1: the user transaction is never
    // refined away.
    let mut last_round: Option<Vec<(usize, TriggerSet)>> = None;

    loop {
        if frontier_triggers.is_empty() {
            break;
        }
        let mut selected = trig_p(&frontier_triggers, ctx);
        // Semantic refinement: drop a selection when every origin that
        // could have triggered it reaches it only over an edge the
        // catalog analysis proved false (the origin's action cannot
        // violate its condition). Recorded as a dropped decision, like
        // the weakest-precondition drops of per-template
        // specialization.
        if let (Some(analysis), Some(origins)) = (ctx.analysis, last_round.as_ref()) {
            selected.retain(|s| {
                let rule_triggers = ctx.programs[s.rule_idx].triggers();
                let skip = origins
                    .iter()
                    .filter(|(_, fired)| fired.intersects(rule_triggers))
                    .all(|(origin, _)| analysis.edge_pruned(*origin, s.rule_idx));
                if skip {
                    selected_rules.insert(s.rule_idx);
                    decisions.push(RuleSpecialization {
                        rule: s.name.clone(),
                        outcome: SpecOutcome::Dropped {
                            proof: "semantic refinement: every triggering edge into this rule \
                                    from the previous round is proven false"
                                .to_string(),
                        },
                        appended: 0,
                    });
                }
                !skip
            });
        }
        if selected.is_empty() {
            break;
        }
        trace.rounds += 1;
        if ctx.analysis.is_some_and(|a| a.certified()) {
            // Certified catalog: the refined triggering graph is
            // acyclic, so every surviving selection chain follows a
            // refined path and the recursion depth is structurally
            // bounded — the configured round budget is unreachable and
            // is demoted to a debug assertion.
            debug_assert!(
                trace.rounds <= ctx.programs.len() + 1,
                "certified catalog exceeded its structural round bound"
            );
        } else if trace.rounds > ctx.max_rounds {
            return Err(EngineError::ModificationDiverged {
                rounds: ctx.max_rounds,
                cycle: ctx
                    .analysis
                    .map(|a| a.first_refined_cycle())
                    .unwrap_or_default(),
            });
        }
        // Compute the next frontier's triggers before consuming programs.
        // Specialization only rewrites alarm-only programs (which trigger
        // nothing), so the original programs give the same frontier.
        let mut next_triggers = TriggerSet::empty();
        let mut origins = Vec::with_capacity(selected.len());
        for s in &selected {
            let fired = get_trig_px(s.program, s.non_triggering);
            next_triggers = next_triggers.union(fired.clone());
            origins.push((s.rule_idx, fired));
        }
        last_round = Some(origins);
        // P ⊕ ConcatP(selected), specializing each check in place.
        for s in selected {
            selected_rules.insert(s.rule_idx);
            let specialized = match (writes.as_ref(), shapes) {
                (Some(w), Some(analysis)) if single_alarm(s.program) => analysis
                    .check_shape(s.rule_idx)
                    .map(|shape| specialize_check(shape, w)),
                _ => None,
            };
            match specialized {
                Some(SpecializedCheck::Dropped { proof }) => {
                    decisions.push(RuleSpecialization {
                        rule: s.name,
                        outcome: SpecOutcome::Dropped { proof },
                        appended: 0,
                    });
                    // Nothing appended: the check cannot fire.
                }
                Some(SpecializedCheck::Probe { statements }) => {
                    trace.statements_appended += statements.len();
                    trace.rules_fired.push(s.name.clone());
                    decisions.push(RuleSpecialization {
                        rule: s.name,
                        outcome: SpecOutcome::Probe {
                            statements: statements.len(),
                        },
                        appended: statements.len(),
                    });
                    if let Some(w) = writes.as_mut() {
                        for st in &statements {
                            w.observe(st, ctx.schema);
                        }
                    }
                    result = result.concat(Program::new(statements));
                }
                Some(SpecializedCheck::Generic) | None => {
                    trace.statements_appended += s.program.len();
                    trace.rules_fired.push(s.name.clone());
                    decisions.push(RuleSpecialization {
                        rule: s.name,
                        outcome: SpecOutcome::Generic,
                        appended: s.program.len(),
                    });
                    if let Some(w) = writes.as_mut() {
                        for st in s.program.statements() {
                            w.observe(st, ctx.schema);
                        }
                    }
                    result = result.concat(s.program.clone());
                }
            }
        }
        frontier_triggers = next_triggers;
    }
    let catalog_rules = ctx.programs.len();
    let report = SpecializationReport {
        enabled: shapes.is_some(),
        catalog_rules,
        untriggered: catalog_rules - selected_rules.len(),
        decisions,
    };
    // ↑ — rebracket.
    Ok((result.bracket(), trace, report))
}

/// `ModT` (Algorithm 5.1): modify a transaction with respect to a set of
/// compiled integrity programs.
///
/// Returns the modified transaction and the modification trace. This is
/// the plain entry point — a trigger index built for this call, no
/// specialization, no refinement; see [`mod_t_with`] for both.
pub fn mod_t(
    tx: &Transaction,
    mode: SelectionMode,
    programs: &[IntegrityProgram],
    schema: &DatabaseSchema,
    max_rounds: usize,
) -> Result<(Transaction, ModificationTrace)> {
    let ctx = ModContext::basic(mode, programs, schema, max_rounds);
    mod_t_with(tx, &ctx).map(|(modified, trace, _)| (modified, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::builder::TransactionBuilder;
    use tm_relational::schema::beer_schema;
    use tm_relational::Tuple;
    use tm_rules::{parse_rule, IntegrityRule};

    fn rules() -> Vec<IntegrityRule> {
        vec![
            parse_rule(
                "IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
                "r1",
            )
            .unwrap(),
            parse_rule(
                "IF NOT forall x (x in beer implies \
                 exists y (y in brewery and x.brewery = y.name)) \
                 THEN temp := minus(project[#2](beer), project[#0](brewery)); \
                      insert(brewery, project[#0, null, null](temp))",
                "r2",
            )
            .unwrap(),
        ]
    }

    /// `GetIntP` over `rules`, as the catalog compiles them.
    fn compiled(rules: &[IntegrityRule], schema: &DatabaseSchema) -> Vec<IntegrityProgram> {
        rules
            .iter()
            .map(|r| crate::programs::get_int_p(r, schema).unwrap().0)
            .collect()
    }

    /// `mod_t` in `Static` mode over the compiled `rules`.
    fn mod_static(
        tx: &Transaction,
        rules: &[IntegrityRule],
        schema: &DatabaseSchema,
        max_rounds: usize,
    ) -> Result<(Transaction, ModificationTrace)> {
        let programs = compiled(rules, schema);
        mod_t(tx, SelectionMode::Static, &programs, schema, max_rounds)
    }

    fn example_51_tx() -> Transaction {
        TransactionBuilder::new()
            .insert_tuple(
                "beer",
                Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
            )
            .build()
    }

    #[test]
    fn example_5_1_static_modification() {
        let schema = beer_schema();
        let (modified, trace) = mod_static(&example_51_tx(), &rules(), &schema, 32).unwrap();
        // Paper Example 5.1: insert + alarm (R1) + two compensation
        // statements (R2) = 4 statements.
        assert_eq!(modified.len(), 4);
        let rendered = modified.to_string();
        assert!(rendered.contains("insert(beer"), "{rendered}");
        assert!(
            rendered.contains("alarm(select[(#3 < 0)](beer))"),
            "{rendered}"
        );
        assert!(rendered.contains("temp := "), "{rendered}");
        assert!(rendered.contains("insert(brewery"), "{rendered}");
        // R2's compensation inserts into brewery; no rule watches
        // INS(brewery), so exactly one round happens... but the paper's
        // recursion continues until the frontier triggers nothing.
        assert_eq!(trace.rounds, 1);
        assert_eq!(trace.rules_fired, vec!["r1".to_owned(), "r2".to_owned()]);
    }

    #[test]
    fn differential_mode_uses_delta_checks() {
        let schema = beer_schema();
        let ks = compiled(&rules(), &schema);
        let (modified, _) = mod_t(
            &example_51_tx(),
            SelectionMode::Differential,
            &ks,
            &schema,
            32,
        )
        .unwrap();
        let rendered = modified.to_string();
        assert!(rendered.contains("beer@ins"), "{rendered}");
    }

    #[test]
    fn non_update_transaction_unmodified() {
        let schema = beer_schema();
        let tx = TransactionBuilder::new()
            .assign("t", tm_algebra::RelExpr::relation("beer"))
            .build();
        let (modified, trace) = mod_static(&tx, &rules(), &schema, 32).unwrap();
        assert_eq!(modified, tx);
        assert_eq!(trace.rounds, 0);
    }

    #[test]
    fn untriggered_updates_unmodified() {
        let schema = beer_schema();
        // Deleting beers triggers neither rule (r1: INS(beer); r2:
        // INS(beer), DEL(brewery)).
        let tx = TransactionBuilder::new()
            .delete_where("beer", tm_algebra::ScalarExpr::true_())
            .build();
        let (modified, trace) = mod_static(&tx, &rules(), &schema, 32).unwrap();
        assert_eq!(modified, tx);
        assert_eq!(trace.rounds, 0);
    }

    #[test]
    fn recursion_follows_compensation_chains() {
        let schema = tm_relational::DatabaseSchema::from_relations(vec![
            tm_relational::RelationSchema::of("a", &[("x", tm_relational::ValueType::Int)]),
            tm_relational::RelationSchema::of("b", &[("x", tm_relational::ValueType::Int)]),
            tm_relational::RelationSchema::of("c", &[("x", tm_relational::ValueType::Int)]),
        ])
        .unwrap();
        let rs = vec![
            parse_rule("WHEN INS(a) IF NOT 1 = 1 THEN insert(b, a@ins)", "a_to_b").unwrap(),
            parse_rule("WHEN INS(b) IF NOT 1 = 1 THEN insert(c, b@ins)", "b_to_c").unwrap(),
        ];
        let tx = TransactionBuilder::new()
            .insert_tuple("a", Tuple::of((1,)))
            .build();
        let (modified, trace) = mod_static(&tx, &rs, &schema, 32).unwrap();
        assert_eq!(trace.rounds, 2);
        assert_eq!(
            trace.rules_fired,
            vec!["a_to_b".to_owned(), "b_to_c".to_owned()]
        );
        assert_eq!(modified.len(), 3);
    }

    #[test]
    fn cyclic_rules_hit_round_budget() {
        let schema =
            tm_relational::DatabaseSchema::from_relations(vec![tm_relational::RelationSchema::of(
                "a",
                &[("x", tm_relational::ValueType::Int)],
            )])
            .unwrap();
        let rs =
            vec![parse_rule("WHEN INS(a) IF NOT 1 = 1 THEN insert(a, {(1)})", "loop").unwrap()];
        let tx = TransactionBuilder::new()
            .insert_tuple("a", Tuple::of((1,)))
            .build();
        let err = mod_static(&tx, &rs, &schema, 8).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ModificationDiverged { rounds: 8, .. }
        ));
    }

    #[test]
    fn non_triggering_action_stops_recursion() {
        let schema =
            tm_relational::DatabaseSchema::from_relations(vec![tm_relational::RelationSchema::of(
                "a",
                &[("x", tm_relational::ValueType::Int)],
            )])
            .unwrap();
        let rs = vec![parse_rule(
            "WHEN INS(a) IF NOT 1 = 1 THEN insert(a, {(1)}) NON-TRIGGERING",
            "fix",
        )
        .unwrap()];
        let tx = TransactionBuilder::new()
            .insert_tuple("a", Tuple::of((1,)))
            .build();
        let (_, trace) = mod_static(&tx, &rs, &schema, 8).unwrap();
        assert_eq!(trace.rounds, 1);
    }
}
