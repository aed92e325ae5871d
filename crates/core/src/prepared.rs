//! Prepared transactions — run `ModT` once, bind and execute many times.
//!
//! The point of the *static* approach (§6, Algorithm 6.2 / Definition 6.3)
//! is to move integrity work from enforcement time to definition time.
//! Ad-hoc submission stops halfway: rules are compiled once, but a
//! submission still needs a plan — rule **selection** over the whole
//! catalog, program **concatenation**, a fresh transaction AST, plan
//! compilation. [`crate::Engine::execute`] keeps one plan per point
//! transaction shape; anything else pays that modification cost on every
//! submission.
//!
//! This module finishes the move:
//!
//! * [`crate::Engine::prepare`] runs `ModT` **once** over a transaction
//!   *template* — a transaction whose constants may be parameter
//!   placeholders `?0`, `?1`, … ([`ScalarExpr::Param`]) — and compiles the
//!   modified result into an execution plan ([`tm_algebra::ExecPlan`]),
//! * [`Prepared::bind`] checks a value vector against the template's
//!   parameter arity and the attribute domains its placeholders feed,
//!   producing a [`BoundTransaction`],
//! * [`crate::Engine::execute_bound`] runs a caller-held plan against the
//!   binding — no per-execution rule selection, no program concatenation,
//!   no AST construction, no per-statement analysis.
//!
//! Plans the engine should keep live in its one statement table:
//! [`crate::Engine::store_statement`] hands back a [`StatementId`], and
//! [`crate::Engine::execute_statement`] binds and runs by id. Sessions
//! ([`Session`], [`crate::ConcurrentSession`]) are handles over that table.
//!
//! ## Plan invalidation
//!
//! A prepared plan encodes the rule catalog *as of* [`crate::Engine::prepare`].
//! The engine stamps every catalog change with a monotonically increasing
//! epoch; executing a plan whose epoch is behind re-runs `ModT` from the
//! original template, so a rule added after `prepare` is still enforced
//! (stale-plan safety — property-tested in `tests/prepared_equivalence.rs`).
//! [`crate::Engine::execute_statement`] refreshes the stored plan in place,
//! once per catalog change however many sessions share the id;
//! [`crate::Engine::execute_bound`] on a caller-held stale [`Prepared`]
//! re-modifies per call until the caller re-prepares.

use std::sync::Arc;

use tm_algebra::{ExecPlan, RelExpr, ScalarExpr, Statement, Transaction};
use tm_relational::{Database, DatabaseSchema, Value, ValueType};

use crate::engine::{Engine, EngineOutcome};
use crate::error::{EngineError, Result};
use crate::modify::{CheckSummary, ModificationReport, SpecOutcome};

/// A prepared transaction: the `ModT`-modified template compiled into an
/// execution plan, with parameter metadata and the catalog epoch it was
/// prepared under. Produced by [`crate::Engine::prepare`]; executed by
/// binding values ([`Prepared::bind`]) and submitting the binding to
/// [`crate::Engine::execute_bound`], or stored in the engine's statement
/// table ([`crate::Engine::store_statement`]) and executed by id.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The transaction as submitted — `ModT` re-runs from here when the
    /// plan goes stale. `None` when the plan is [`Prepared::verbatim`]:
    /// its own template is the source, kept once.
    source: Option<Transaction>,
    /// The modified template, compiled (statement analysis cached).
    plan: ExecPlan,
    /// Expected attribute domain per parameter slot, where the template
    /// determines one (a placeholder feeding a base-relation row position
    /// or update assignment). `None` slots are checked only by the
    /// executor's authoritative base-relation validation.
    expected: Vec<Option<ValueType>>,
    /// The `ModT` record of the preparation. Shared, so an execution can
    /// hand it out with its outcome ([`EngineOutcome::modification`],
    /// [`EngineOutcome::rule_checks`]) for the price of a refcount.
    modification: Arc<ModificationReport>,
    /// [`ModificationReport::summary`], collapsed once at build so hot
    /// executions report per-call check counts without re-walking the
    /// decision list.
    summary: CheckSummary,
    /// Catalog epoch this plan encodes.
    epoch: u64,
}

impl Prepared {
    pub(crate) fn build(
        source: Option<Transaction>,
        template: Transaction,
        schema: &DatabaseSchema,
        modification: ModificationReport,
        epoch: u64,
        lifted: bool,
    ) -> Prepared {
        let plan = if lifted {
            ExecPlan::compile_lifted(template)
        } else {
            ExecPlan::compile(template)
        };
        let expected = expected_param_types(&plan, schema);
        Prepared {
            source,
            plan,
            expected,
            summary: modification.summary(),
            modification: Arc::new(modification),
            epoch,
        }
    }

    /// Index of the first statement `ModT` appended to the source
    /// transaction — the boundary the per-check instrumentation times
    /// from: alarms/probes from here on belong to rule checks, those
    /// before it to the user program.
    pub fn checks_from(&self) -> usize {
        self.source().len()
    }

    /// [`ModificationReport::summary`] of this plan, precomputed.
    pub fn check_summary(&self) -> CheckSummary {
        self.summary
    }

    /// The check summary of one binding. For a plan over a lifted ad-hoc
    /// shape, a selection reduced to point checks that the binding proves
    /// all false counts as skipped, not probed — exactly what the plan of
    /// the literal transaction, which dropped it, reports. Every other
    /// plan proves no check false and answers [`Prepared::check_summary`].
    pub(crate) fn check_summary_for(&self, values: &[Value]) -> CheckSummary {
        let mut summary = self.summary;
        for d in &self.modification.decisions {
            if matches!(d.outcome, SpecOutcome::Probe { .. })
                && !d.range.is_empty()
                && d.range
                    .clone()
                    .all(|i| self.plan.check_proven_false(i, values))
            {
                summary.probed -= 1;
                summary.skipped += 1;
            }
        }
        summary
    }

    /// The transaction as originally submitted to `prepare`.
    pub fn source(&self) -> &Transaction {
        self.source.as_ref().unwrap_or(self.plan.transaction())
    }

    /// The `ModT`-modified template this plan executes.
    pub fn transaction(&self) -> &Transaction {
        self.plan.transaction()
    }

    /// The compiled execution plan.
    pub(crate) fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// Number of parameter slots the template requires (0 = ground).
    pub fn param_count(&self) -> usize {
        self.plan.param_count()
    }

    /// The `ModT` record of the preparation: rounds, and per selected
    /// rule whether its check was dropped (with proof), reduced to point
    /// probes, or kept generic, with the statements it appended — plus
    /// how many catalog rules were never triggered at all. Executions
    /// that reuse the plan report no record of their own
    /// ([`EngineOutcome::modification`] is `None`): the modification
    /// happened here, once.
    pub fn modification(&self) -> &Arc<ModificationReport> {
        &self.modification
    }

    /// Whether the plan executes exactly the submitted statements: `Off`
    /// mode, an untriggered template, or a template whose every selected
    /// check was dropped by a specialization proof. `false` whenever
    /// modification (specialized or not) changed the check plan.
    pub fn verbatim(&self) -> bool {
        self.source.is_none()
    }

    /// The catalog epoch this plan was prepared under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the engine's rule catalog changed since this plan was
    /// prepared. A stale plan is never executed as-is: the engine
    /// re-modifies from [`Prepared::source`] instead.
    pub fn is_stale(&self, engine: &Engine) -> bool {
        self.epoch != engine.plan_epoch()
    }

    /// The one stale-plan decision every execution surface takes: `None`
    /// while this plan is current, else its replacement, re-modified from
    /// [`Prepared::source`] under the engine's present catalog. Where the
    /// replacement goes — back into the engine's statement table, or away
    /// with the call — is the caller's business.
    pub(crate) fn refreshed(&self, engine: &Engine) -> Result<Option<Prepared>> {
        if self.is_stale(engine) {
            engine.prepare(self.source()).map(Some)
        } else {
            Ok(None)
        }
    }

    pub(crate) fn into_transaction(self) -> Transaction {
        self.plan.into_transaction()
    }

    /// Bind a value vector to the template's placeholders, checking arity
    /// (exactly [`Prepared::param_count`] values) and — where the template
    /// pins a placeholder to an attribute — the value's domain. `Null`
    /// conforms to every domain, as in base-relation validation.
    pub fn bind<'p>(&'p self, values: &[Value]) -> Result<BoundTransaction<'p>> {
        self.check_binding(values)?;
        Ok(BoundTransaction {
            prepared: self,
            values: values.to_vec(),
        })
    }

    /// The validation half of [`Prepared::bind`] — arity and domain
    /// checks without materializing a [`BoundTransaction`]. The hot
    /// by-id path validates with this and executes straight off the
    /// caller's slice, so a binding never allocates.
    pub(crate) fn check_binding(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.param_count() {
            return Err(EngineError::ParamArity {
                expected: self.param_count(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            if let Some(ty) = self.expected[i] {
                if !v.conforms_to(ty) {
                    return Err(EngineError::ParamType {
                        index: i,
                        expected: ty,
                        value: v.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A prepared transaction together with a checked parameter binding —
/// everything [`crate::Engine::execute_bound`] needs. The binding does
/// **not** materialize a substituted AST: the executor resolves
/// placeholders against the value vector directly, so a bind is O(#params)
/// regardless of template size. [`BoundTransaction::substituted`] produces
/// the ground transaction the binding denotes when one is wanted.
#[derive(Debug, Clone)]
pub struct BoundTransaction<'p> {
    prepared: &'p Prepared,
    values: Vec<Value>,
}

impl<'p> BoundTransaction<'p> {
    /// The prepared statement this binding belongs to.
    pub fn prepared(&self) -> &'p Prepared {
        self.prepared
    }

    /// The bound parameter values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Materialize the ground transaction this binding denotes (every
    /// `?i` replaced by its value). The prepared execution path never
    /// builds this; it is the semantic reference — executing the
    /// substituted transaction ad hoc commits/aborts identically — and
    /// useful for logging and inspection.
    pub fn substituted(&self) -> Transaction {
        self.prepared.plan.transaction().bind_params(&self.values)
    }
}

/// Handle to a prepared statement in an engine's statement table
/// ([`crate::Engine::store_statement`]). Ids are engine-scoped — any
/// session over the engine may execute any of them — and live as long as
/// the engine; the wrapped value is the table index (a server's wire id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatementId(pub usize);

/// A single-owner handle over an engine's statement table: prepares into
/// it, executes by id, and serves read snapshots — each a one-line forward
/// to [`Engine`]. It survives only because the repository's benchmark
/// adapter (`benchmark/src/sut.rs`) drives it; new code calls the engine.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e mut Engine,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e mut Engine) -> Session<'e> {
        Session { engine }
    }

    /// [`Engine::prepare`] into the engine's statement table.
    pub fn prepare(&mut self, tx: &Transaction) -> Result<StatementId> {
        Ok(self.engine.store_statement(self.engine.prepare(tx)?))
    }

    /// [`Engine::execute_statement`].
    pub fn execute_prepared(&mut self, id: StatementId, params: &[Value]) -> Result<EngineOutcome> {
        self.engine.execute_statement(id, params)
    }

    /// A consistent read snapshot of the engine's database: an
    /// O(#relations) copy-on-write clone of [`Engine::database`].
    pub fn snapshot(&self) -> Database {
        self.engine.database().clone()
    }
}

/// Derive the expected attribute domain per parameter slot from the
/// statements of a template: a placeholder at row position `j` of an
/// insert/delete `row(…)` source into base relation `R` must conform to
/// `R`'s attribute `j`; a placeholder assigned to attribute `j` by an
/// update does too. Placeholders in other positions (predicates,
/// arithmetic) are unconstrained here — the executor's base-relation
/// validation remains authoritative. When the same placeholder feeds two
/// differently-typed positions, the first is checked at bind time and the
/// executor reports the other.
fn expected_param_types(plan: &ExecPlan, schema: &DatabaseSchema) -> Vec<Option<ValueType>> {
    let mut expected: Vec<Option<ValueType>> = vec![None; plan.param_count()];
    if expected.is_empty() {
        return expected; // ground: no slot to type, skip the walk
    }
    for stmt in plan.transaction().debracket().statements() {
        // The (attribute position, value expression) pairs the statement
        // writes into its base relation.
        let (relation, written): (_, Vec<(usize, &ScalarExpr)>) = match stmt {
            Statement::Insert { relation, source } | Statement::Delete { relation, source } => {
                let RelExpr::Singleton(exprs) = source else {
                    continue;
                };
                (relation, exprs.iter().enumerate().collect())
            }
            Statement::Update { relation, set, .. } => (
                relation,
                set.iter().map(|a| (a.position, &a.value)).collect(),
            ),
            _ => continue,
        };
        let Ok(rs) = schema.relation(relation) else {
            continue;
        };
        for (pos, e) in written {
            if let (ScalarExpr::Param(i), Some(attr)) = (e, rs.attributes().get(pos)) {
                if let Some(slot @ None) = expected.get_mut(*i) {
                    *slot = Some(attr.value_type());
                }
            }
        }
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::beer_engine;
    use crate::EnforcementMode;
    use tm_algebra::builder::TransactionBuilder;
    use tm_relational::Tuple;

    fn engine() -> Engine {
        let mut e = beer_engine(EnforcementMode::Static);
        e.define_constraint("r1", "forall x (x in beer implies x.alcohol >= 0)")
            .unwrap();
        e.load("brewery", vec![Tuple::of(("guineken", "dublin", "ie"))])
            .unwrap();
        e
    }

    fn template() -> Transaction {
        TransactionBuilder::new().insert_params("beer", 4).build()
    }

    #[test]
    fn prepare_runs_modt_once_and_counts_params() {
        let e = engine();
        let p = e.prepare(&template()).unwrap();
        assert_eq!(p.param_count(), 4);
        assert_eq!(p.modification().rounds, 1);
        assert!(p.transaction().len() > p.source().len());
        assert!(!p.verbatim());
        assert!(!p.is_stale(&e));
    }

    #[test]
    fn bind_checks_arity() {
        let e = engine();
        let p = e.prepare(&template()).unwrap();
        let err = p.bind(&[Value::str("a")]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ParamArity {
                expected: 4,
                got: 1
            }
        ));
    }

    #[test]
    fn bind_checks_types_against_schema() {
        let e = engine();
        let p = e.prepare(&template()).unwrap();
        // beer(name: Str, type: Str, brewery: Str, alcohol: Double) — an
        // Int where a Str is expected is rejected at bind time.
        let err = p
            .bind(&[
                Value::Int(3),
                Value::str("stout"),
                Value::str("guineken"),
                Value::double(5.0),
            ])
            .unwrap_err();
        assert!(matches!(err, EngineError::ParamType { index: 0, .. }));
        // Null conforms to every domain.
        assert!(p
            .bind(&[
                Value::Null,
                Value::str("stout"),
                Value::str("guineken"),
                Value::double(5.0),
            ])
            .is_ok());
    }

    #[test]
    fn substituted_matches_manual_binding() {
        let e = engine();
        let p = e.prepare(&template()).unwrap();
        let bound = p
            .bind(&[
                Value::str("pils"),
                Value::str("lager"),
                Value::str("guineken"),
                Value::double(5.0),
            ])
            .unwrap();
        let ground = bound.substituted();
        assert_eq!(ground.param_count(), 0);
        assert!(ground.to_string().contains("\"pils\""));
    }

    #[test]
    fn unknown_statement_id_reported() {
        let mut e = engine();
        let err = e.execute_statement(StatementId(7), &[]).unwrap_err();
        assert!(matches!(err, EngineError::UnknownStatement(7)));
        assert!(e.statement(StatementId(7)).is_err());
    }

    #[test]
    fn update_assignment_params_typed() {
        let e = engine();
        let tx = TransactionBuilder::new()
            .update(
                "beer",
                ScalarExpr::true_(),
                vec![tm_algebra::UpdateAssignment::new(3, ScalarExpr::param(0))],
            )
            .build();
        let p = e.prepare(&tx).unwrap();
        assert_eq!(p.param_count(), 1);
        let err = p.bind(&[Value::str("not a double")]).unwrap_err();
        assert!(matches!(err, EngineError::ParamType { index: 0, .. }));
        assert!(p.bind(&[Value::double(4.2)]).is_ok());
    }
}
