//! The scenario workloads of the tenancy-isolation tests.
//!
//! Each [`Scenario`] packages a schema, an integrity catalog,
//! parameterized transaction templates (RA text with `?N` placeholders —
//! the wire-protocol `Prepare` form), and a deterministic binding stream:
//!
//! * [`bank`] — the bank-compensation example at scale: overdraft
//!   aborts plus a compensating audit rule that fires on every deposit;
//! * [`violation_storm`] — adversarial aborts: most bindings violate,
//!   exercising rollback under sustained integrity failure.
//!
//! (Throughput over served traffic is measured by the repo's benchmark,
//! `benchmark/`, on its own generated model.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tm_relational::{DatabaseSchema, RelationSchema, Value, ValueType};
use txmod::{EnforcementMode, Engine, EngineConfig};

/// A packaged service workload: schema + catalog + templates + binding
/// stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable; selects the binding stream).
    pub name: &'static str,
    /// The database schema.
    pub schema: DatabaseSchema,
    /// CL constraints `(name, text)` declared at setup.
    pub constraints: Vec<(&'static str, &'static str)>,
    /// Parameterized transaction templates (RA text, `?N` placeholders).
    /// Binding streams index into this list.
    pub templates: Vec<&'static str>,
    /// Expected fraction of committing bindings (for sanity checks; the
    /// storm scenario is deliberately below 1).
    pub expect_commit_ratio: f64,
}

impl Scenario {
    /// Build this scenario's engine: schema plus declared constraints.
    pub fn engine(&self, mode: EnforcementMode) -> Engine {
        let mut engine = Engine::with_config(
            self.schema.clone(),
            EngineConfig {
                mode,
                ..EngineConfig::default()
            },
        );
        for (name, cl) in &self.constraints {
            engine
                .define_constraint(name, cl)
                .unwrap_or_else(|e| panic!("scenario {}: constraint {name}: {e}", self.name));
        }
        engine
    }

    /// A deterministic binding stream: `n` `(template_index, params)`
    /// pairs. Distinct seeds give non-overlapping key ranges, so
    /// several connections can stream concurrently without set-semantic
    /// collisions.
    pub fn bindings(&self, seed: u64, n: usize) -> Vec<(usize, Vec<Value>)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        // Partition the id space by seed so streams never collide.
        let base = (seed as i64) << 40;
        (0..n)
            .map(|i| self.binding(&mut rng, base + i as i64, i))
            .collect()
    }

    fn binding(&self, rng: &mut StdRng, uid: i64, i: usize) -> (usize, Vec<Value>) {
        match self.name {
            "bank" => (
                0,
                vec![
                    Value::Int(uid),
                    Value::str(format!("owner-{}", uid & 0xff)),
                    Value::Int(rng.gen_range(0..10_000)),
                ],
            ),
            "violation_storm" => {
                // Three in four bindings violate the overdraft constraint.
                let balance = if i.is_multiple_of(4) {
                    rng.gen_range(0..1_000)
                } else {
                    rng.gen_range(-1_000..-1)
                };
                (
                    0,
                    vec![
                        Value::Int(uid),
                        Value::str(format!("owner-{}", uid & 0xff)),
                        Value::Int(balance),
                    ],
                )
            }
            other => unreachable!("unknown scenario {other}"),
        }
    }
}

/// The bank-compensation example at scale: deposits guarded by the
/// overdraft constraint, with a compensating audit rule copying every
/// inserted account row into `audit` — each commit fires a triggered
/// action, not just a check.
pub fn bank() -> Scenario {
    let schema = DatabaseSchema::from_relations(vec![
        RelationSchema::of(
            "account",
            &[
                ("id", ValueType::Int),
                ("owner", ValueType::Str),
                ("balance", ValueType::Int),
            ],
        ),
        RelationSchema::of(
            "audit",
            &[("id", ValueType::Int), ("balance", ValueType::Int)],
        ),
    ])
    .unwrap();
    Scenario {
        name: "bank",
        schema,
        constraints: vec![(
            "no_overdraft",
            "forall x (x in account implies x.balance >= 0)",
        )],
        templates: vec!["insert(account, row(?0, ?1, ?2))"],
        expect_commit_ratio: 1.0,
    }
}

/// The RL text of the bank audit rule (compensating action: every
/// inserted account row is mirrored into `audit`; compensations run
/// as-is on every trigger, so the condition is vacuous). Defined
/// through the wire (`DefineRule`) or [`Engine::add_rule_text`] after
/// setup; kept out of [`bank`]'s constraints because it is a rule, not
/// CL.
pub const BANK_AUDIT_RULE: &str = "RULE bank_audit WHEN INS(account) IF NOT 1 = 1 \
     THEN insert(audit, project[#0, #2](account@ins)) NON-TRIGGERING";

/// Adversarial aborts: the [`bank`] catalog under a binding stream where
/// three in four deposits violate the overdraft constraint — sustained
/// rollback pressure with interleaved commits.
pub fn violation_storm() -> Scenario {
    Scenario {
        name: "violation_storm",
        expect_commit_ratio: 0.25,
        ..bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_relational::Tuple;

    /// Every scenario's engine builds, its templates prepare, and a
    /// binding stream executes with roughly the expected commit ratio.
    #[test]
    fn scenarios_prepare_and_execute() {
        for scenario in [bank(), violation_storm()] {
            let mut engine = scenario.engine(EnforcementMode::Static);
            engine.add_rule_text(BANK_AUDIT_RULE, "bank_audit").unwrap();
            let templates: Vec<_> = scenario
                .templates
                .iter()
                .map(|t| {
                    let tx = tm_algebra::parser::parse_program(t)
                        .unwrap_or_else(|e| panic!("{}: template parse: {e}", scenario.name))
                        .bracket();
                    engine.prepare(&tx).unwrap()
                })
                .collect();
            let bindings = scenario.bindings(1, 200);
            let mut committed = 0usize;
            for (idx, params) in &bindings {
                let bound = templates[*idx].bind(params).unwrap();
                let out = engine.execute_bound(&bound).unwrap();
                if out.committed() {
                    committed += 1;
                }
            }
            let ratio = committed as f64 / bindings.len() as f64;
            assert!(
                (ratio - scenario.expect_commit_ratio).abs() < 0.1,
                "{}: commit ratio {ratio} (expected ~{})",
                scenario.name,
                scenario.expect_commit_ratio
            );
        }
    }

    /// The audit rule fires as a compensating action: every committed
    /// deposit is mirrored.
    #[test]
    fn bank_audit_rule_mirrors_deposits() {
        let scenario = bank();
        let mut engine = scenario.engine(EnforcementMode::Static);
        engine.add_rule_text(BANK_AUDIT_RULE, "bank_audit").unwrap();
        let tx = tm_algebra::parser::parse_program(scenario.templates[0])
            .unwrap()
            .bracket();
        let prepared = engine.prepare(&tx).unwrap();
        let bound = prepared
            .bind(&[Value::Int(1), Value::str("a"), Value::Int(50)])
            .unwrap();
        assert!(engine.execute_bound(&bound).unwrap().committed());
        assert_eq!(engine.relation("audit").unwrap().len(), 1);
        assert!(engine
            .relation("audit")
            .unwrap()
            .contains(&Tuple::of((1i64, 50i64))));
    }
}
