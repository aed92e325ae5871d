//! Prepared transactions and the session API — run `ModT` once, bind and
//! execute many times.
//!
//! The point of the *static* approach (§6, Algorithm 6.2 / Definition 6.3)
//! is to move integrity work from enforcement time to definition time.
//! [`crate::Engine::execute`] stops halfway: rules are compiled once, but
//! every submission prepares a plan and drops it: rule **selection** over
//! the whole catalog, program **concatenation**, a fresh transaction AST,
//! plan compilation. A hot workload of millions of structurally identical
//! transactions pays that modification cost millions of times.
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
//! * [`crate::Engine::execute_bound`] (and the session-level
//!   [`Session::execute_prepared`]) runs the plan against the binding —
//!   no per-execution rule selection, no program concatenation, no AST
//!   construction, no per-statement analysis.
//!
//! A [`Session`] owns prepared statements on behalf of a client and serves
//! **consistent read snapshots** ([`Session::snapshot`]): an O(#relations)
//! copy-on-write clone of the engine state, so readers never block the
//! writer and never see a transaction's intermediate states.
//!
//! ## Plan invalidation
//!
//! A prepared plan encodes the rule catalog *as of* [`crate::Engine::prepare`].
//! The engine stamps every catalog change with a monotonically increasing
//! epoch; executing a plan whose epoch is behind re-runs `ModT` from the
//! original template, so a rule added after `prepare` is still enforced
//! (stale-plan safety — property-tested in `tests/prepared_equivalence.rs`).
//! [`Session::execute_prepared`] refreshes the stored plan in place;
//! [`crate::Engine::execute_bound`] on a caller-held stale [`Prepared`]
//! re-modifies per call until the caller re-prepares.

use tm_algebra::{ExecPlan, RelExpr, ScalarExpr, Statement, Transaction};
use tm_relational::{Database, DatabaseSchema, Value, ValueType};

use crate::engine::{Engine, EngineOutcome, ModStats};
use crate::error::{EngineError, Result};
use crate::modify::SpecializationReport;

/// A prepared transaction: the `ModT`-modified template compiled into an
/// execution plan, with parameter metadata and the catalog epoch it was
/// prepared under. Produced by [`crate::Engine::prepare`]; executed by
/// binding values ([`Prepared::bind`]) and submitting the binding to
/// [`crate::Engine::execute_bound`] or [`Session::execute_prepared`].
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
    /// The `ModT` trace of the preparation.
    modification: ModStats,
    /// The specialization provenance of the preparation: which rules were
    /// never triggered, dropped with a proof, reduced to probes, or kept
    /// generic.
    specialization: SpecializationReport,
    /// [`SpecializationReport::summary`], collapsed once at build so hot
    /// executions report per-call check counts without re-walking the
    /// decision list.
    summary: crate::modify::CheckSummary,
    /// Catalog epoch this plan encodes.
    epoch: u64,
    /// Index of the first statement `ModT` appended — the boundary the
    /// per-check instrumentation times from (alarms before it belong to
    /// the user program, not to a rule).
    checks_from: usize,
    /// Per selection decision, in append order: the rule name and how
    /// many of its appended statements are `alarm`s. Zipping these counts
    /// against [`tm_algebra::CheckTimings::ns`] attributes each timed
    /// check to the rule whose selection appended it.
    timed_checks: Vec<(String, usize)>,
}

impl Prepared {
    pub(crate) fn build(
        source: Option<Transaction>,
        template: Transaction,
        schema: &DatabaseSchema,
        modification: ModStats,
        specialization: SpecializationReport,
        epoch: u64,
    ) -> Prepared {
        let plan = ExecPlan::compile(template);
        let expected = expected_param_types(&plan, schema);
        let checks_from = source.as_ref().unwrap_or(plan.transaction()).len();
        let stmts = plan.transaction().debracket().statements();
        let mut timed_checks = Vec::with_capacity(specialization.decisions.len());
        let mut pos = checks_from;
        for d in &specialization.decisions {
            let end = (pos + d.appended).min(stmts.len());
            let alarms = stmts[pos..end]
                .iter()
                .filter(|s| matches!(s, Statement::Alarm(_)))
                .count();
            timed_checks.push((d.rule.clone(), alarms));
            pos = end;
        }
        Prepared {
            source,
            plan,
            expected,
            modification,
            summary: specialization.summary(),
            specialization,
            epoch,
            checks_from,
            timed_checks,
        }
    }

    /// Index of the first statement `ModT` appended to the source
    /// transaction — alarms/probes from here on belong to rule checks.
    pub fn checks_from(&self) -> usize {
        self.checks_from
    }

    /// Per selection decision, in append order: the rule name and the
    /// number of timed checks (alarm statements, or fast-path check/probe
    /// ops — the counts coincide) its selection appended. Zipping these
    /// counts against [`EngineOutcome::check_times_ns`] attributes each
    /// per-check latency sample to its rule.
    pub fn check_attribution(&self) -> &[(String, usize)] {
        &self.timed_checks
    }

    /// [`SpecializationReport::summary`] of this plan, precomputed.
    pub fn check_summary(&self) -> crate::modify::CheckSummary {
        self.summary
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

    /// The `ModT` statistics of the preparation (rounds, rules fired,
    /// statements appended). Executions through a reused plan report an
    /// empty per-execution trace — the modification happened here, once.
    pub fn modification(&self) -> &ModStats {
        &self.modification
    }

    /// Whether the plan executes exactly the submitted statements: `Off`
    /// mode, an untriggered template, or a template whose every selected
    /// check was dropped by a specialization proof. `false` whenever
    /// modification (specialized or not) changed the check plan.
    pub fn verbatim(&self) -> bool {
        self.source.is_none()
    }

    /// The specialization provenance of this plan: per selected rule,
    /// whether its check was dropped (with proof), reduced to point
    /// probes, or kept generic — plus how many catalog rules were never
    /// triggered at all.
    pub fn specialization(&self) -> &SpecializationReport {
        &self.specialization
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
    /// replacement goes — back into a session's statement table, or away
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
    /// session path validates with this and executes straight off the
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

/// A client session over an engine: owns prepared statements, executes
/// bindings against them (refreshing stale plans in place), and serves
/// consistent O(#relations) read snapshots of the database. Obtained from
/// [`crate::Engine::session`]; dropping it releases the engine borrow
/// (prepared statements die with the session, as in any statement-oriented
/// client protocol).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e mut Engine,
    statements: Statements,
}

/// Handle to a prepared statement owned by a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatementId(pub(crate) usize);

/// The prepared statements a session holds, addressed by [`StatementId`]
/// — the table behind both [`Session`] and
/// [`crate::ConcurrentSession`].
#[derive(Debug, Default)]
pub(crate) struct Statements(Vec<Prepared>);

impl Statements {
    pub(crate) fn push(&mut self, prepared: Prepared) -> StatementId {
        self.0.push(prepared);
        StatementId(self.0.len() - 1)
    }

    pub(crate) fn get(&self, id: StatementId) -> Result<&Prepared> {
        self.0.get(id.0).ok_or(EngineError::UnknownStatement(id.0))
    }

    /// Execute statement `id` against `params` on `engine` — the one body
    /// behind [`Session::execute_prepared`] and
    /// [`crate::ConcurrentSession::execute_prepared`]. When the rule
    /// catalog changed since the statement was prepared, the plan is
    /// re-modified from its source and the stored statement replaced
    /// first (the outcome then reports `reused_plan: false` and the fresh
    /// modification trace).
    pub(crate) fn execute(
        &mut self,
        engine: &mut Engine,
        id: StatementId,
        params: &[Value],
    ) -> Result<EngineOutcome> {
        let slot = self
            .0
            .get_mut(id.0)
            .ok_or(EngineError::UnknownStatement(id.0))?;
        let mut reused = true;
        if let Some(fresh) = slot.refreshed(engine)? {
            *slot = fresh;
            reused = false;
        }
        slot.check_binding(params)?;
        engine.run(slot, reused, params)
    }
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e mut Engine) -> Session<'e> {
        Session {
            engine,
            statements: Statements::default(),
        }
    }

    /// The underlying engine (read access).
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The full static analysis of the engine's current rule set
    /// (diagnostics, pruned triggering edges, termination certificate)
    /// — see [`crate::Engine::validate_full`].
    pub fn analysis(&self) -> tm_analyze::AnalysisReport {
        self.engine.validate_full()
    }

    /// Declare a constraint mid-session (see
    /// [`crate::Engine::define_constraint`]). Statements prepared earlier
    /// in this session go stale and are re-modified on their next
    /// execution — the new constraint is enforced on them too.
    pub fn define_constraint(&mut self, name: &str, cl: &str) -> Result<()> {
        self.engine.define_constraint(name, cl)
    }

    /// Add a rule from RL text mid-session (see
    /// [`crate::Engine::add_rule_text`]); same staleness consequences as
    /// [`Session::define_constraint`].
    pub fn add_rule_text(&mut self, text: &str, default_name: &str) -> Result<()> {
        self.engine.add_rule_text(text, default_name)
    }

    /// Prepare a transaction template: one `ModT` run, stored for the
    /// session's lifetime.
    pub fn prepare(&mut self, tx: &Transaction) -> Result<StatementId> {
        Ok(self.statements.push(self.engine.prepare(tx)?))
    }

    /// Look up a prepared statement.
    pub fn prepared(&self, id: StatementId) -> Result<&Prepared> {
        self.statements.get(id)
    }

    /// Bind `params` to a prepared statement and execute it. When the
    /// rule catalog changed since the statement was prepared, the plan is
    /// re-modified from its source and the stored statement replaced
    /// first (the outcome then reports `reused_plan: false` and the fresh
    /// modification trace).
    pub fn execute_prepared(&mut self, id: StatementId, params: &[Value]) -> Result<EngineOutcome> {
        self.statements.execute(self.engine, id, params)
    }

    /// Execute an ad-hoc transaction through the engine (prepare + empty
    /// bind, not retained).
    pub fn execute(&mut self, tx: &Transaction) -> Result<EngineOutcome> {
        self.engine.execute(tx)
    }

    /// A consistent read snapshot of the current database state —
    /// O(#relations) reference-count bumps on the copy-on-write tuple
    /// storage, no tuple is copied. The snapshot is an independent
    /// [`Database`] value: later writes through this session (or the
    /// engine) unshare only the relations they touch, so readers never
    /// block the writer and never observe a transaction's intermediate
    /// states.
    pub fn snapshot(&self) -> Database {
        self.engine.database().clone()
    }

    /// Take (and clear) the deferred error of the most recent failed
    /// automatic checkpoint, if any — see
    /// [`crate::Engine::take_checkpoint_error`]. Auto-checkpoints run
    /// inside commits, which cannot fail for a checkpoint problem (the
    /// commit itself is already durable), so the engine parks the error;
    /// session holders — and the service front-end's health reporting —
    /// poll it here without needing `&mut Engine` access of their own.
    pub fn take_checkpoint_error(&mut self) -> Option<EngineError> {
        self.engine.take_checkpoint_error()
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
        let mut s = e.session();
        let err = s.execute_prepared(StatementId(7), &[]).unwrap_err();
        assert!(matches!(err, EngineError::UnknownStatement(7)));
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
