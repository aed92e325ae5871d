//! Differential-relation optimization (§5.2.1, refs \[18, 5, 7\]).
//!
//! The paper lists "the use of differential relations to avoid unnecessary
//! data access" as the primary `OptC` technique; the author's companion
//! work \[7\] (*Parallel Handling of Integrity Constraints on Fragmented
//! Relations*) develops it fully. The idea: when a constraint held in the
//! pre-transaction state, only tuples *touched by the transaction* can
//! introduce a violation, so the appended check may run against the small
//! delta relations `R@ins` / `R@del` instead of the full base relations.
//!
//! The specialization is **per trigger** — the same rule contributes a
//! different (smaller) program depending on which update type activated it.
//! Each trigger's share of a transaction ([`Writes::of_trigger`]) goes
//! through the verdict table of [`crate::specialize`]; a probe verdict
//! becomes `alarm` of the check over `R@ins` or `S@del`:
//!
//! * domain `(∀x∈R) ψ`: `INS(R)` → `alarm(σ_{¬ψ}(R@ins))`;
//! * referential `(∀x∈R)(∃y∈S) ρ`: `INS(R)` → `alarm(R@ins ▷_ρ S)`, new
//!   children need a parent, and `DEL(S)` → `alarm((R ⋉_ρ S@del) ▷_ρ S)`,
//!   children that referenced a deleted parent and have no parent left.
//!
//! Every other trigger — a generic verdict (aggregates included) or a
//! dropped one — keeps the full check, so correctness never depends on the
//! optimizer recognising a shape. Soundness of the delta checks requires
//! the constraint to hold in the pre-transaction state — exactly the
//! induction invariant transaction modification maintains (Definition
//! 3.5) — and is property-tested against the CL evaluator of the test
//! oracle (`tm_paper::oracle`) in the integration suites.

use tm_algebra::{Program, Statement};
use tm_rules::{IntegrityRule, Trigger};

use crate::simplify::simplify_rel;
use crate::specialize::{ConditionShape, Verdict, Writes};

/// A per-trigger specialized program.
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialProgram {
    /// The trigger this program handles.
    pub trigger: Trigger,
    /// The specialized check (or compensation) program.
    pub program: Program,
    /// Whether specialization succeeded (false ⇒ full fallback check).
    pub specialized: bool,
}

/// Compute the per-trigger specialized programs for a rule (§5.2.1) from
/// its condition `shape` and its translated program `full` (`TransR`).
///
/// Compensating rules are returned unspecialized (their response action is
/// the program, per `TransCA`); aborting rules get delta checks where the
/// verdict probes, full checks otherwise.
pub fn differential_programs(
    rule: &IntegrityRule,
    shape: &ConditionShape,
    full: &Program,
) -> Vec<DifferentialProgram> {
    rule.triggers()
        .iter()
        .map(|t| {
            let verdict = if rule.action().is_abort() {
                shape.verdict(&Writes::of_trigger(t))
            } else {
                Verdict::Generic
            };
            let (program, specialized) = match verdict {
                Verdict::Probe(operands) => (
                    operands
                        .iter()
                        .map(|o| Statement::Alarm(simplify_rel(shape.check_over(o))))
                        .collect(),
                    true,
                ),
                Verdict::Dropped(_) | Verdict::Generic => (full.clone(), false),
            };
            DifferentialProgram {
                trigger: t.clone(),
                program,
                specialized,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_calculus::analysis::analyze;
    use tm_relational::schema::beer_schema;
    use tm_rules::parse_rule;

    use crate::specialize::condition_shape;
    use crate::transr::trans_r;

    fn programs_of(rule: &IntegrityRule) -> Vec<DifferentialProgram> {
        let schema = beer_schema();
        let info = analyze(rule.condition(), &schema).unwrap();
        let shape = condition_shape(&info.formula, &schema);
        let full = trans_r(rule, &schema).unwrap().program;
        differential_programs(rule, &shape, &full)
    }

    fn r1() -> IntegrityRule {
        parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) THEN abort",
            "r1",
        )
        .unwrap()
    }

    fn r2() -> IntegrityRule {
        parse_rule(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) THEN abort",
            "r2",
        )
        .unwrap()
    }

    #[test]
    fn domain_rule_specializes_to_ins_delta() {
        let ps = programs_of(&r1());
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].trigger, Trigger::ins("beer"));
        assert!(ps[0].specialized);
        assert_eq!(
            ps[0].program.to_string().trim(),
            "alarm(select[(#3 < 0)](beer@ins));"
        );
    }

    #[test]
    fn referential_rule_specializes_both_triggers() {
        let ps = programs_of(&r2());
        assert_eq!(ps.len(), 2);
        let ins = ps
            .iter()
            .find(|p| p.trigger == Trigger::ins("beer"))
            .unwrap();
        assert!(ins.specialized);
        assert_eq!(
            ins.program.to_string().trim(),
            "alarm(antijoin[(#2 = #4)](beer@ins, brewery));"
        );
        let del = ps
            .iter()
            .find(|p| p.trigger == Trigger::del("brewery"))
            .unwrap();
        assert!(del.specialized);
        assert_eq!(
            del.program.to_string().trim(),
            "alarm(antijoin[(#2 = #4)](semijoin[(#2 = #4)](beer, brewery@del), brewery));"
        );
    }

    #[test]
    fn aggregate_rule_falls_back_to_full_check() {
        let rule = parse_rule("IF NOT CNT(beer) <= 100 THEN abort", "cnt").unwrap();
        let ps = programs_of(&rule);
        assert_eq!(ps.len(), 2); // INS+DEL triggers
        assert!(ps.iter().all(|p| !p.specialized));
        assert!(ps[0].program.to_string().contains("CNT(beer)"));
        // A domain shape whose predicate reads an aggregate gets no
        // `beer@ins` check either: the insert raises `CNT(beer)` for the
        // old rows too.
        let rule = parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= CNT(beer)) THEN abort",
            "agg",
        )
        .unwrap();
        assert!(programs_of(&rule).iter().all(|p| !p.specialized));
    }

    #[test]
    fn compensating_rule_not_specialized() {
        let rule = parse_rule(
            "IF NOT forall x (x in beer implies x.alcohol >= 0) \
             THEN delete(beer, select[#3 < 0](beer)) NON-TRIGGERING",
            "fix",
        )
        .unwrap();
        let ps = programs_of(&rule);
        assert!(ps.iter().all(|p| !p.specialized));
        assert!(ps[0].program.to_string().contains("delete"));
    }

    #[test]
    fn transition_constraints_not_misclassified() {
        let rule = parse_rule(
            "IF NOT forall x (x in beer@pre implies exists y (y in beer and x == y)) \
             THEN abort",
            "persist",
        )
        .unwrap();
        let ps = programs_of(&rule);
        // Trigger is DEL(beer); outer range is the immutable pre-state →
        // no specialization.
        assert_eq!(ps.len(), 1);
        assert!(!ps[0].specialized);
    }
}
