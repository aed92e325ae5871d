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

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

use tm_algebra::{Program, Statement, Transaction};
use tm_analyze::CatalogAnalysis;
use tm_relational::DatabaseSchema;
use tm_rules::{gentrig::get_trig_px, TriggerIndex, TriggerSet};
use tm_translate::{specialize_check, SpecializedCheck, Writes};

use crate::catalog::Catalog;
use crate::engine::{EnforcementMode, EngineConfig};
use crate::error::{EngineError, Result};
use crate::programs::IntegrityProgram;

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

/// One rule selection of a `ModT` run: which rule, what the specializer
/// decided, and which statements it appended.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecision {
    /// The selection label: the rule name, or `name[trigger]` for a
    /// per-trigger program in `Differential` mode.
    pub rule: String,
    /// What the specializer decided.
    pub outcome: SpecOutcome,
    /// The statements this selection appended, as positions in the
    /// modified transaction (empty for a dropped check). In append order
    /// the ranges partition the appended region.
    pub range: Range<usize>,
    /// The `alarm` statements among them: the checks that per-check
    /// timing samples ([`crate::EngineOutcome::check_times_ns`]), whether
    /// they run as point ops or generic.
    pub timed: usize,
}

/// The record of one `ModT` run: how many rounds it took, which catalog
/// rules were never selected (relevance filtering), and per selection
/// whether the check was dropped, reduced to probes, or kept generic,
/// with the statements it appended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModificationReport {
    /// Fixpoint rounds executed (0 = the transaction triggered nothing).
    pub rounds: usize,
    /// Catalog size at modification time.
    pub catalog_rules: usize,
    /// Rules the transaction's updates can never trigger — filtered out
    /// by trigger relevance without ever being looked at.
    pub untriggered: usize,
    /// Whether weakest-precondition specialization ran (false: disabled
    /// or `Off` mode; relevance filtering still applies whenever rule
    /// selection does).
    pub specialized: bool,
    /// Per-selection decisions, in append order (a rule selected in
    /// several rounds or for several triggers appears once per selection).
    pub decisions: Vec<RuleDecision>,
}

impl ModificationReport {
    /// Labels of the selections that appended statements (probed or
    /// generic), in append order; duplicates possible across rounds.
    pub fn rules_fired(&self) -> Vec<&str> {
        self.decisions
            .iter()
            .filter(|d| !matches!(d.outcome, SpecOutcome::Dropped { .. }))
            .map(|d| d.rule.as_str())
            .collect()
    }

    /// Statements appended to the user transaction.
    pub fn statements_appended(&self) -> usize {
        self.decisions.iter().map(|d| d.range.len()).sum()
    }

    fn count(&self, pick: impl Fn(&SpecOutcome) -> bool) -> usize {
        self.decisions.iter().filter(|d| pick(&d.outcome)).count()
    }

    /// Selections whose checks were dropped with a proof.
    pub fn dropped(&self) -> usize {
        self.count(|o| matches!(o, SpecOutcome::Dropped { .. }))
    }

    /// Selections reduced to point checks/probes.
    pub fn probed(&self) -> usize {
        self.count(|o| matches!(o, SpecOutcome::Probe { .. }))
    }

    /// Selections that kept their generic program.
    pub fn generic(&self) -> usize {
        self.count(|o| matches!(o, SpecOutcome::Generic))
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

impl fmt::Display for ModificationReport {
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

/// Per-execution rule-check accounting, derived from the modification
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
/// compiled integrity programs with their trigger index, and the catalog
/// analysis (condition shapes for weakest-precondition reduction, pruned
/// edges for refinement). Build one per catalog state
/// ([`ModContext::new`]) and call [`mod_t_with`].
#[derive(Debug, Clone)]
pub struct ModContext<'a> {
    /// What a selected rule appends: `Static` its full integrity program
    /// (`SelPS`/`ConcatP`, Algorithm 6.2), `Differential` its per-trigger
    /// program once per matched trigger (§5.2.1), `Off` nothing.
    pub mode: EnforcementMode,
    /// The catalog's compiled integrity programs, in declaration order.
    pub programs: &'a [IntegrityProgram],
    /// The database schema.
    pub schema: &'a DatabaseSchema,
    /// Round budget for the `ModP` recursion.
    pub max_rounds: usize,
    /// Inverted trigger index over the catalog (positions must match
    /// `programs`).
    pub index: &'a TriggerIndex,
    /// Whether single-`alarm` checks of aborting rules are specialized
    /// against the template, by the condition shapes `analysis` holds.
    pub specialize: bool,
    /// The catalog's static analysis (positions must match). It drives
    /// semantic triggering-graph refinement: recursion rounds skip
    /// selections reachable only over proven-false edges, and a certified
    /// catalog replaces the runtime round budget with a structural debug
    /// assertion.
    pub analysis: &'a CatalogAnalysis,
}

impl<'a> ModContext<'a> {
    /// The context of `catalog` under `config`'s mode, round budget and
    /// `specialize` switch.
    pub fn new(catalog: &'a Catalog, config: &EngineConfig) -> ModContext<'a> {
        ModContext {
            mode: config.mode,
            programs: catalog.programs(),
            schema: catalog.schema(),
            max_rounds: config.max_rounds,
            index: catalog.trigger_index(),
            specialize: config.specialize,
            analysis: catalog.analysis(),
        }
    }
}

/// One selected program together with its triggering metadata for the next
/// recursion round. The program is borrowed from the catalog and copied
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
            EnforcementMode::Off => {}
            // SelPS + ConcatP over the precompiled programs.
            EnforcementMode::Static => selected.push(select(k.name.clone(), &k.program)),
            // Per-trigger selection: one specialized program per matched
            // trigger.
            EnforcementMode::Differential => selected.extend(
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
/// report what the modification did.
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
) -> Result<(Transaction, ModificationReport)> {
    let mut report = ModificationReport {
        catalog_rules: ctx.programs.len(),
        specialized: ctx.specialize,
        ..ModificationReport::default()
    };
    // T↓ — debracket.
    let mut result = tx.debracket().clone();
    // Track the template's per-relation writes only when specialization
    // is on.
    let mut writes = ctx.specialize.then(|| Writes::of(&result, ctx.schema));
    // The first frontier is the user program itself (always triggering).
    let mut frontier_triggers = get_trig_px(&result, false);
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
        if let Some(origins) = last_round.as_ref() {
            selected.retain(|s| {
                let rule_triggers = ctx.programs[s.rule_idx].triggers();
                let skip = origins
                    .iter()
                    .filter(|(_, fired)| fired.intersects(rule_triggers))
                    .all(|(origin, _)| ctx.analysis.edge_pruned(*origin, s.rule_idx));
                if skip {
                    selected_rules.insert(s.rule_idx);
                    report.decisions.push(RuleDecision {
                        rule: s.name.clone(),
                        outcome: SpecOutcome::Dropped {
                            proof: "semantic refinement: every triggering edge into this rule \
                                    from the previous round is proven false"
                                .to_string(),
                        },
                        range: result.len()..result.len(),
                        timed: 0,
                    });
                }
                !skip
            });
        }
        if selected.is_empty() {
            break;
        }
        report.rounds += 1;
        if ctx.analysis.certified() {
            // Certified catalog: the refined triggering graph is
            // acyclic, so every surviving selection chain follows a
            // refined path and the recursion depth is structurally
            // bounded — the configured round budget is unreachable and
            // is demoted to a debug assertion.
            debug_assert!(
                report.rounds <= ctx.programs.len() + 1,
                "certified catalog exceeded its structural round bound"
            );
        } else if report.rounds > ctx.max_rounds {
            return Err(EngineError::ModificationDiverged {
                rounds: ctx.max_rounds,
                cycle: ctx.analysis.first_refined_cycle(),
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
            let specialized = match writes.as_ref() {
                Some(w) if single_alarm(s.program) => ctx
                    .analysis
                    .check_shape(s.rule_idx)
                    .map(|shape| specialize_check(shape, w)),
                _ => None,
            };
            let (outcome, appended) = match specialized {
                // Nothing appended: the check cannot fire.
                Some(SpecializedCheck::Dropped { proof }) => {
                    (SpecOutcome::Dropped { proof }, Vec::new())
                }
                Some(SpecializedCheck::Probe { statements }) => (
                    SpecOutcome::Probe {
                        statements: statements.len(),
                    },
                    statements,
                ),
                Some(SpecializedCheck::Generic) | None => {
                    (SpecOutcome::Generic, s.program.statements().to_vec())
                }
            };
            let start = result.len();
            let mut timed = 0;
            for st in appended {
                if let Some(w) = writes.as_mut() {
                    w.observe(&st, ctx.schema);
                }
                timed += usize::from(matches!(st, Statement::Alarm(_)));
                result.push(st);
            }
            report.decisions.push(RuleDecision {
                rule: s.name,
                outcome,
                range: start..result.len(),
                timed,
            });
        }
        frontier_triggers = next_triggers;
    }
    report.untriggered = report.catalog_rules - selected_rules.len();
    // ↑ — rebracket.
    Ok((result.bracket(), report))
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

    /// `ModT` over a catalog of `rules`, unspecialized.
    fn modify(
        tx: &Transaction,
        mode: EnforcementMode,
        rules: &[IntegrityRule],
        schema: &DatabaseSchema,
        max_rounds: usize,
    ) -> Result<(Transaction, ModificationReport)> {
        let mut catalog = Catalog::new(schema.clone().into_shared());
        for rule in rules {
            catalog.add_rule(rule.clone()).unwrap();
        }
        let config = EngineConfig {
            mode,
            max_rounds,
            specialize: false,
            ..EngineConfig::default()
        };
        mod_t_with(tx, &ModContext::new(&catalog, &config))
    }

    /// [`modify`] in `Static` mode.
    fn mod_static(
        tx: &Transaction,
        rules: &[IntegrityRule],
        schema: &DatabaseSchema,
        max_rounds: usize,
    ) -> Result<(Transaction, ModificationReport)> {
        modify(tx, EnforcementMode::Static, rules, schema, max_rounds)
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
        assert_eq!(trace.rules_fired(), ["r1", "r2"]);
    }

    #[test]
    fn differential_mode_uses_delta_checks() {
        let schema = beer_schema();
        let (modified, _) = modify(
            &example_51_tx(),
            EnforcementMode::Differential,
            &rules(),
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
        assert_eq!(trace.rules_fired(), ["a_to_b", "b_to_c"]);
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
