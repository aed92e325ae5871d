//! Transaction execution with full atomicity (Definition 2.5) in **O(Δ)**.
//!
//! A transaction `T = ⟨a1; …; an⟩` executes against a database state `D^t`.
//! During execution the database passes through intermediate states
//! `D^{t,1}, …, D^{t,n}` that may contain temporary relations; these states
//! "have no semantics beyond the execution of T". The end bracket then
//! installs `[D^{t,n}]` (temporaries removed) as `D^{t+1}` on commit, or
//! re-installs `D^t` on abort — the atomicity property of Section 2.2.
//!
//! The executor also maintains the auxiliary relations of Section 4.1 for
//! every base relation `R`:
//!
//! * `R@pre` — the state of `R` at transaction begin (pre-transaction
//!   state, used by transition constraints),
//! * `R@ins` — the net set of tuples inserted so far (`R − R@pre`),
//! * `R@del` — the net set of tuples deleted so far (`R@pre − R`).
//!
//! The differentials are maintained incrementally with the classic rules:
//! an insertion of `t` cancels a pending deletion of `t` if one exists,
//! otherwise it records `t` in `R@ins` (symmetrically for deletions), so
//! the invariants `R@ins = R − R@pre` and `R@del = R@pre − R` hold after
//! every statement — property-tested in `tests/`.
//!
//! ## The logical snapshot
//!
//! Atomicity does **not** copy the database. The executor mutates the
//! caller's state in place and relies on the differentials doubling as an
//! exact change record (every actual base-relation mutation flows through
//! `note_insert`/`note_delete`):
//!
//! * **commit** keeps the mutated state and drops the records — O(1);
//! * **abort** applies the inverse delta (remove `R@ins`, re-insert
//!   `R@del`) — O(Δ), restoring a state set-identical to `D^t`;
//! * **`R@pre`** is *reconstructed* on first reference as
//!   `(R − R@ins) ∪ R@del` and cached for the rest of the transaction —
//!   free for untouched relations (the reconstruction is a copy-on-write
//!   clone of the live state), one set copy for relations the transaction
//!   already modified.
//!
//! This is the "logical update view" realization of snapshots — sharing
//! plus change records instead of physical copies — so the cost of a
//! transaction is proportional to its delta and the data its checks
//! actually read, never to the size of the database. Expression results
//! are copy-on-write clones, so a statement reading the relation it
//! updates still sees a consistent input (the first write unshares the
//! live set from the evaluated copy). Every *error* path rolls back
//! exactly; a Rust panic mid-transaction, however, leaves the in-place
//! state mid-flight — unwinding recovery is out of scope for this
//! main-memory engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use tm_relational::{
    auxiliary::{self, AuxKind},
    Database, Relation, RelationDelta, RelationSchema, Tuple, Value,
};

use crate::error::{AlgebraError, Result};
use crate::eval::{eval_arith, eval_scalar, evaluate, EvalContext, SchemaView};
use crate::expr::{ArithOp, CmpOp, ScalarExpr};
use crate::keys::{extract_equi_keys, key_values_match};
use crate::program::{Statement, Transaction};
use crate::rel_expr::RelExpr;
use tm_relational::util::FxHashMap;

/// Execution statistics for a transaction, used by the benchmark harness
/// and by the engine's reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statements executed (including appended integrity statements).
    pub statements: usize,
    /// `alarm` statements evaluated.
    pub alarms_evaluated: usize,
    /// `alarm` statements that fired (non-empty argument).
    pub alarms_fired: usize,
    /// Tuples actually inserted into base relations (net of duplicates).
    pub tuples_inserted: usize,
    /// Tuples actually deleted from base relations.
    pub tuples_deleted: usize,
}

/// Wall-clock capture of the integrity checks one execution evaluated —
/// the instrumentation behind per-rule check latencies in the service
/// metrics. Timing is **opt-in** (see
/// [`Executor::execute_plan_instrumented`]): two clock reads per check are
/// measurable against the few-hundred-nanosecond fast path, so the default
/// entry points never pay them.
#[derive(Debug, Default)]
pub struct CheckTimings {
    /// Index of the first statement to time — the boundary between the
    /// submitted transaction's own statements and the checks `ModT`
    /// appended to it (alarms before the boundary belong to the user
    /// program, not to a rule).
    pub first: usize,
    /// Nanoseconds per timed `alarm` evaluation, in execution order. An
    /// aborting check records its time before the abort unwinds.
    pub ns: Vec<u64>,
}

/// The outcome of executing a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The transaction committed; the post-state was installed.
    Committed(ExecStats),
    /// The transaction aborted; the pre-state was re-installed.
    Aborted {
        /// Why the transaction aborted.
        reason: AbortReason,
        /// Statistics up to the abort point.
        stats: ExecStats,
    },
}

impl TxOutcome {
    /// Whether the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxOutcome::Committed(_))
    }

    /// The statistics regardless of outcome.
    pub fn stats(&self) -> &ExecStats {
        match self {
            TxOutcome::Committed(s) => s,
            TxOutcome::Aborted { stats, .. } => stats,
        }
    }
}

/// Why a transaction aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// An `alarm(E)` statement found `E` non-empty (Definition 5.1) —
    /// an integrity constraint was violated.
    AlarmFired {
        /// Rendering of the alarm's argument expression.
        expr: String,
        /// Number of violating tuples the alarm saw.
        violations: usize,
    },
    /// An explicit `abort` statement was executed.
    ExplicitAbort,
    /// A runtime error occurred; atomicity demands rollback.
    RuntimeError(AlgebraError),
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::AlarmFired { expr, violations } => {
                write!(f, "alarm fired on {violations} violating tuple(s): {expr}")
            }
            AbortReason::ExplicitAbort => write!(f, "explicit abort"),
            AbortReason::RuntimeError(e) => write!(f, "runtime error: {e}"),
        }
    }
}

/// The evaluation context of a running transaction: the working database
/// state (the caller's state, mutated in place), the temporaries of the
/// intermediate states `D^{t,i}`, and the auxiliary relations.
///
/// Opening the context is O(1): nothing is cloned. The differential maps
/// start **empty** — an absent entry *is* the empty differential — and the
/// `R@pre` cache starts empty too. Entries are allocated only when the
/// transaction first touches them: on the first recorded change to `R`, or
/// when a statement's expressions mention the auxiliary by name (they are
/// materialized just before the statement runs, so reads of untouched
/// differentials resolve to a freshly shared empty relation and `R@pre`
/// of an untouched relation is a copy-on-write clone of `R` itself).
pub struct TxContext<'db> {
    working: &'db mut Database,
    /// The parameter binding of this execution; placeholder `?i` resolves
    /// to `params[i]`. Empty for ground (non-prepared) transactions, in
    /// which case any remaining placeholder aborts the transaction with
    /// [`AlgebraError::UnboundParam`].
    params: &'db [Value],
    /// Lazily reconstructed pre-transaction states, `(R − R@ins) ∪ R@del`
    /// at first reference (backs `R@pre`; immutable once cached).
    pre: FxHashMap<String, Relation>,
    temps: FxHashMap<String, Relation>,
    ins: FxHashMap<String, Relation>,
    del: FxHashMap<String, Relation>,
    stats: ExecStats,
}

impl<'db> TxContext<'db> {
    /// Open a transaction context over the current database state —
    /// no copies at all; the state is mutated in place and
    /// [`TxContext::rollback`] undoes every recorded change on abort.
    pub fn begin(db: &'db mut Database) -> TxContext<'db> {
        TxContext::begin_bound(db, &[])
    }

    /// Open a transaction context with a parameter binding: placeholder
    /// `?i` in any evaluated expression resolves to `params[i]`.
    pub fn begin_bound(db: &'db mut Database, params: &'db [Value]) -> TxContext<'db> {
        TxContext {
            working: db,
            params,
            pre: FxHashMap::default(),
            temps: FxHashMap::default(),
            ins: FxHashMap::default(),
            del: FxHashMap::default(),
            stats: ExecStats::default(),
        }
    }

    /// The working state (the current intermediate state `D^{t,i}`).
    pub fn working(&self) -> &Database {
        self.working
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Undo every change this transaction made to the working state by
    /// applying the inverse of the net differentials — O(Δ). After the
    /// call the working state is set-identical to the state at
    /// [`TxContext::begin`] and the differentials are empty.
    pub fn rollback(&mut self) {
        let mut bases: Vec<&String> = self.ins.keys().chain(self.del.keys()).collect();
        bases.sort();
        bases.dedup();
        for base in bases {
            let rel = self
                .working
                .relation_mut(base)
                .expect("differential tracks an existing base relation");
            apply_inverse_delta(
                rel,
                self.ins.get(base.as_str()),
                self.del.get(base.as_str()),
            );
        }
        self.ins.clear();
        self.del.clear();
        self.pre.clear();
    }

    /// Flatten the net differential maps into per-relation redo records,
    /// sorted by relation name (and tuple order within each list) so the
    /// serialized form is byte-deterministic. Called at commit by the
    /// capturing executor entry points; relations whose net change is
    /// empty are omitted.
    fn net_deltas(&self) -> Vec<RelationDelta> {
        let mut bases: Vec<&String> = self.ins.keys().chain(self.del.keys()).collect();
        bases.sort();
        bases.dedup();
        let mut out = Vec::with_capacity(bases.len());
        for base in bases {
            let inserted = self
                .ins
                .get(base.as_str())
                .map(Relation::sorted_tuples)
                .unwrap_or_default();
            let deleted = self
                .del
                .get(base.as_str())
                .map(Relation::sorted_tuples)
                .unwrap_or_default();
            if inserted.is_empty() && deleted.is_empty() {
                continue;
            }
            out.push(RelationDelta {
                relation: base.clone(),
                inserted,
                deleted,
            });
        }
        out
    }

    fn delta_relation<'m>(
        map: &'m mut FxHashMap<String, Relation>,
        base_schema: Arc<RelationSchema>,
        base: &str,
        kind: AuxKind,
    ) -> &'m mut Relation {
        map.entry(base.to_owned()).or_insert_with(|| {
            Relation::empty(Arc::new(
                base_schema.renamed(auxiliary::aux_name(base, kind)),
            ))
        })
    }

    /// Materialize the auxiliary entries named by `refs` (computed by
    /// [`statement_aux_refs`], either just-in-time or once at
    /// [`ExecPlan::compile`] time), so `relation_state` never has to
    /// answer for an absent entry. Cost is proportional to the number of
    /// auxiliaries named plus the pre-states among them: entries are
    /// allocated once per transaction. `R@pre` of an untouched relation
    /// is a copy-on-write clone of `R`; for an already-modified relation
    /// it is reconstructed as `(R − R@ins) ∪ R@del` (one set copy).
    fn ensure_aux(&mut self, refs: &[(String, AuxKind)]) {
        for (base, kind) in refs {
            // Unknown bases are left absent everywhere; the read path
            // reports the error exactly as before.
            let Ok(rel) = self.working.relation(base) else {
                continue;
            };
            let schema = rel.schema().clone();
            match kind {
                AuxKind::Ins => {
                    Self::delta_relation(&mut self.ins, schema, base, AuxKind::Ins);
                }
                AuxKind::Del => {
                    Self::delta_relation(&mut self.del, schema, base, AuxKind::Del);
                }
                AuxKind::Pre => {
                    if self.pre.contains_key(base.as_str()) {
                        continue;
                    }
                    // Reconstruct the begin state from the live state and
                    // the net change records — the same inverse-delta
                    // application `rollback` performs; valid at any
                    // statement boundary by the differential invariants,
                    // and cached because the begin state never changes.
                    let mut pre = rel.clone();
                    apply_inverse_delta(
                        &mut pre,
                        self.ins.get(base.as_str()),
                        self.del.get(base.as_str()),
                    );
                    self.pre.insert(base.clone(), pre);
                }
            }
        }
    }

    /// Record the actual insertion of `t` into base relation `base`,
    /// maintaining the net differentials.
    fn note_insert(&mut self, base: &str, t: &Tuple) {
        let schema = self
            .working
            .relation(base)
            .expect("base exists")
            .schema()
            .clone();
        let del = Self::delta_relation(&mut self.del, schema.clone(), base, AuxKind::Del);
        if !del.remove(t) {
            let ins = Self::delta_relation(&mut self.ins, schema, base, AuxKind::Ins);
            ins.insert_unchecked(t.clone());
        }
        self.stats.tuples_inserted += 1;
    }

    /// Record the actual deletion of `t` from base relation `base`.
    fn note_delete(&mut self, base: &str, t: &Tuple) {
        let schema = self
            .working
            .relation(base)
            .expect("base exists")
            .schema()
            .clone();
        let ins = Self::delta_relation(&mut self.ins, schema.clone(), base, AuxKind::Ins);
        if !ins.remove(t) {
            let del = Self::delta_relation(&mut self.del, schema, base, AuxKind::Del);
            del.insert_unchecked(t.clone());
        }
        self.stats.tuples_deleted += 1;
    }

    /// Execute one statement against the working state. `aux` is the
    /// statement's auxiliary-reference analysis when the caller holds a
    /// compiled [`ExecPlan`]; `None` computes it just in time.
    fn execute_statement(
        &mut self,
        stmt: &Statement,
        aux: Option<&[(String, AuxKind)]>,
    ) -> std::result::Result<(), AbortReason> {
        self.stats.statements += 1;
        match aux {
            Some(refs) => self.ensure_aux(refs),
            None => {
                let refs = statement_aux_refs(stmt);
                self.ensure_aux(&refs);
            }
        }
        match stmt {
            Statement::Assign { target, expr } => self.run(|ctx| {
                if ctx.working.schema().contains(target) {
                    return Err(AlgebraError::AssignToBase(target.clone()));
                }
                if auxiliary::is_auxiliary(target) {
                    return Err(AlgebraError::AuxiliaryUpdate(target.clone()));
                }
                let rel = evaluate(expr, ctx)?;
                ctx.temps.insert(target.clone(), rel);
                Ok(())
            }),
            Statement::Insert { relation, source } => self.run(|ctx| {
                if auxiliary::is_auxiliary(relation) {
                    return Err(AlgebraError::AuxiliaryUpdate(relation.clone()));
                }
                let src = evaluate(source, ctx)?;
                let target_schema = ctx.working.relation(relation)?.schema().clone();
                for t in src.iter() {
                    target_schema.validate_tuple(t)?;
                }
                // Bulk apply: borrow the target once — one name lookup and
                // at most one COW unshare for the whole statement (this is
                // the path view refresh materialization takes too) — then
                // record the net differential changes.
                let mut inserted: Vec<Tuple> = Vec::new();
                {
                    let rel = ctx.working.relation_mut(relation)?;
                    for t in src.iter() {
                        if rel.insert_unchecked(t.clone()) {
                            inserted.push(t.clone());
                        }
                    }
                }
                for t in &inserted {
                    ctx.note_insert(relation, t);
                }
                Ok(())
            }),
            Statement::Delete { relation, source } => self.run(|ctx| {
                if auxiliary::is_auxiliary(relation) {
                    return Err(AlgebraError::AuxiliaryUpdate(relation.clone()));
                }
                let src = evaluate(source, ctx)?;
                // Arity mismatches surface as "tuple not present" under set
                // semantics; validate explicitly for a better error.
                let target_schema = ctx.working.relation(relation)?.schema().clone();
                for t in src.iter() {
                    target_schema.validate_tuple(t)?;
                }
                // Bulk apply with a single borrow of the target, as for
                // insert above.
                let mut removed: Vec<Tuple> = Vec::new();
                {
                    let rel = ctx.working.relation_mut(relation)?;
                    for t in src.iter() {
                        if rel.remove(t) {
                            removed.push(t.clone());
                        }
                    }
                }
                for t in &removed {
                    ctx.note_delete(relation, t);
                }
                Ok(())
            }),
            Statement::Update {
                relation,
                pred,
                set,
            } => self.run(|ctx| {
                if auxiliary::is_auxiliary(relation) {
                    return Err(AlgebraError::AuxiliaryUpdate(relation.clone()));
                }
                let target_schema = ctx.working.relation(relation)?.schema().clone();
                // Single scan over the live relation: evaluation only
                // *reads* the context, so no snapshot of the whole state is
                // needed, and only the selected (old, new) pairs are ever
                // materialized — O(Δ) space, not O(|R|). Mutation happens
                // after the scan (below), so the iterator is never
                // invalidated. A predicate selecting nothing leaves the
                // relation's COW storage shared.
                let mut pairs: Vec<(Tuple, Tuple)> = Vec::new();
                for t in ctx.working.relation(relation)?.iter() {
                    let selected = eval_scalar(pred, t, ctx)?
                        .as_bool()
                        .ok_or_else(|| AlgebraError::NotABoolean(pred.to_string()))?;
                    if !selected {
                        continue;
                    }
                    let mut values = t.values().to_vec();
                    for a in set {
                        if a.position >= values.len() {
                            return Err(AlgebraError::ColumnOutOfRange {
                                offset: a.position,
                                arity: values.len(),
                            });
                        }
                        values[a.position] = eval_scalar(&a.value, t, ctx)?;
                    }
                    let new_t = Tuple::from_values(values);
                    target_schema.validate_tuple(&new_t)?;
                    pairs.push((t.clone(), new_t));
                }
                // Apply as delete-then-insert (Definition 4.5's reading of
                // an update as a DEL/INS combination).
                for (old, _) in &pairs {
                    if ctx.working.relation_mut(relation)?.remove(old) {
                        ctx.note_delete(relation, old);
                    }
                }
                for (_, new_t) in &pairs {
                    if ctx
                        .working
                        .relation_mut(relation)?
                        .insert_unchecked(new_t.clone())
                    {
                        ctx.note_insert(relation, new_t);
                    }
                }
                Ok(())
            }),
            Statement::Alarm(expr) => {
                self.stats.alarms_evaluated += 1;
                let rel = match evaluate(expr, self) {
                    Ok(rel) => rel,
                    Err(e) => return Err(AbortReason::RuntimeError(e)),
                };
                if rel.is_empty() {
                    Ok(())
                } else {
                    self.stats.alarms_fired += 1;
                    Err(AbortReason::AlarmFired {
                        expr: expr.to_string(),
                        violations: rel.len(),
                    })
                }
            }
            Statement::Abort => Err(AbortReason::ExplicitAbort),
        }
    }

    fn run(
        &mut self,
        f: impl FnOnce(&mut TxContext) -> Result<()>,
    ) -> std::result::Result<(), AbortReason> {
        f(self).map_err(AbortReason::RuntimeError)
    }
}

/// The auxiliary relations a statement's expressions can read, as
/// `(base, kind)` pairs. This is the analysis `TxContext` needs before a
/// statement runs; [`ExecPlan::compile`] precomputes it once per statement
/// so repeated executions of a prepared transaction skip the expression
/// walk (and its string allocations) entirely.
pub fn statement_aux_refs(stmt: &Statement) -> Vec<(String, AuxKind)> {
    let names = match stmt {
        Statement::Assign { expr, .. } | Statement::Alarm(expr) => expr.referenced_relations(),
        Statement::Insert { source, .. } | Statement::Delete { source, .. } => {
            source.referenced_relations()
        }
        Statement::Update { pred, set, .. } => {
            let mut v = pred.referenced_relations();
            for a in set {
                v.extend(a.value.referenced_relations());
            }
            v
        }
        Statement::Abort => Vec::new(),
    };
    names
        .into_iter()
        .filter_map(|name| {
            auxiliary::parse_auxiliary(&name).map(|(base, kind)| (base.to_owned(), kind))
        })
        .collect()
}

/// A compiled execution plan: a transaction template together with the
/// per-statement auxiliary-reference analysis and its parameter count,
/// both computed once. Executing through a plan
/// ([`Executor::execute_plan`]) does no per-execution analysis of the
/// transaction — the engine's prepared-transaction surface (`txmod`)
/// builds one `ExecPlan` per prepared statement and reuses it for every
/// binding.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    tx: Transaction,
    aux: Vec<Vec<(String, AuxKind)>>,
    param_count: usize,
    fast: Option<Vec<FastOp>>,
}

impl ExecPlan {
    /// Compile a transaction into a plan (one walk over its statements).
    pub fn compile(tx: Transaction) -> ExecPlan {
        let aux = tx
            .debracket()
            .statements()
            .iter()
            .map(statement_aux_refs)
            .collect();
        let param_count = tx.param_count();
        let fast = recognize_fast(&tx);
        ExecPlan {
            aux,
            param_count,
            fast,
            tx,
        }
    }

    /// The planned transaction template.
    pub fn transaction(&self) -> &Transaction {
        &self.tx
    }

    /// Consume the plan, returning the template.
    pub fn into_transaction(self) -> Transaction {
        self.tx
    }

    /// Number of parameter slots the template requires (0 = ground).
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Whether the plan executes on the fast path: every statement was
    /// recognized as a grounded singleton write, a compensating copy of a
    /// base relation's differential, or a specialized point-probe check,
    /// so execution touches only the rows it names or wrote — no relation
    /// clones, no differential maps, no derived-schema allocations. See
    /// `recognize_fast` for the recognized shapes.
    pub fn is_fast(&self) -> bool {
        self.fast.is_some()
    }
}

/// One statement of a fast-path plan — the compiled form of the statement
/// shapes prepare-time specialization and `ModT` emit (grounded singleton
/// writes, compensating differential copies, and `alarm` checks over a
/// single candidate row). Recognized once at [`ExecPlan::compile`];
/// executed without a [`TxContext`].
#[derive(Debug, Clone, PartialEq)]
enum FastOp {
    /// `insert(R, ⟨e0, …, ek⟩)` (`insert`) or `delete(R, ⟨e0, …, ek⟩)` of a
    /// grounded (column-free, aggregate-free) row.
    Write {
        relation: String,
        row: Vec<ScalarExpr>,
        insert: bool,
    },
    /// `insert(T, S@ins)` (`insert`) or `delete(T, S@del)` of base
    /// relations `T` (`relation`) and `S` (`source`) — a compensating
    /// action as `ModT` appends it. The differential read is the plan's
    /// own net `S@ins`/`S@del` so far, folded from the undo log by
    /// [`net_deltas`]; its tuples are written into `T` through the
    /// undo-logged path of [`FastOp::Write`]. `T` and `S` are checked
    /// union-compatible before the run starts (see [`fast_schemas_valid`]),
    /// so no copied tuple can fail validation.
    Copy {
        relation: String,
        source: String,
        insert: bool,
    },
    /// `alarm(select[p](⟨row⟩))` — a domain check on one candidate row.
    /// `check` is `p` with every `#i` replaced by `row[i]` (the weakest
    /// precondition of the alarm over the singleton), so evaluation needs
    /// no tuple at all; `pred_text`/`alarm_text` preserve the generic
    /// path's error and abort renderings. `row_params` is `Some(n)` when
    /// the row is constants and parameters only — then row evaluation
    /// cannot fail once `n` parameters are bound and is skipped entirely
    /// (its values are unused; it is evaluated by the generic path only
    /// for error ordering).
    /// `flat` is the postfix compilation of `check` when the expression
    /// is jump-free (see [`compile_flat`]); evaluation then runs a tight
    /// loop over contiguous instructions instead of chasing `Box`ed AST
    /// nodes.
    Check {
        row: Vec<ScalarExpr>,
        row_params: Option<usize>,
        check: ScalarExpr,
        flat: Option<Vec<Instr>>,
        pred_text: String,
        alarm_text: String,
    },
    /// `alarm(antijoin[p](⟨row⟩, S))` — a referential check probing the
    /// live relation `S` for a partner of one candidate row. `pairs` are
    /// `(row column, S column)` equalities extracted from `p` at compile
    /// time (S's arity is unknown until execution, so they are validated
    /// against it per run); `residual` is the rest of `p`, and `pred` the
    /// original for the no-keys scan fallback. `row_params` is the
    /// infallible-row witness (see [`FastOp::Check`]); `full_key` records
    /// that `p` is pure distinct key equalities, so whenever the pairs
    /// also cover all of S's columns the probe is decided by one borrowed
    /// set lookup built straight from the bound parameters — no row
    /// evaluation, no tuple.
    Probe {
        row: Vec<ScalarExpr>,
        row_params: Option<usize>,
        relation: String,
        pairs: Vec<(usize, usize)>,
        full_key: bool,
        residual: Option<ScalarExpr>,
        pred: ScalarExpr,
        alarm_text: String,
    },
}

impl FastOp {
    /// The base relation a write op targets (checks never mutate).
    fn write_target(&self) -> &str {
        match self {
            FastOp::Write { relation, .. } | FastOp::Copy { relation, .. } => relation,
            FastOp::Check { .. } | FastOp::Probe { .. } => {
                unreachable!("checks are not undo-logged")
            }
        }
    }
}

/// A scalar expression the fast path can evaluate without an input tuple
/// or relation access: no columns, no aggregates (parameters are fine).
fn grounded(e: &ScalarExpr) -> bool {
    e.max_col().is_none() && !e.has_aggregates()
}

/// One instruction of a flat postfix check program — the compiled form
/// of a jump-free scalar expression (constants, parameters, arithmetic,
/// comparisons). Connectives are excluded: their short-circuit semantics
/// would need jumps, and the specializer's point checks are overwhelmingly
/// bare comparisons.
#[derive(Debug, Clone, PartialEq)]
enum Instr {
    /// Push a constant.
    Const(Value),
    /// Push the value bound to `?i` (error if unbound).
    Param(usize),
    /// Pop two operands, push the arithmetic result.
    Arith(ArithOp),
    /// Pop two operands, push the boolean comparison result.
    Cmp(CmpOp),
    /// Pop one operand `l`, push `l op const` — a [`Instr::Const`]
    /// followed by [`Instr::Arith`], fused so the constant is never
    /// cloned onto the stack.
    ArithConst(ArithOp, Value),
    /// Pop one operand `l`, push `l op const` — fused comparison.
    CmpConst(CmpOp, Value),
}

/// Peephole-fuse a postfix program: a constant push consumed immediately
/// as the right operand of an arithmetic or comparison instruction folds
/// into the operator. The specializer's point checks (`?i + c >= d`)
/// collapse from five instructions and three stack pushes to three
/// instructions and one push. Evaluation order and errors are unchanged —
/// constants cannot fail, and the left operand still evaluates first.
fn fuse_flat(prog: &mut Vec<Instr>) {
    let mut out = Vec::with_capacity(prog.len());
    for ins in prog.drain(..) {
        match ins {
            Instr::Arith(op) if matches!(out.last(), Some(Instr::Const(_))) => {
                let Some(Instr::Const(c)) = out.pop() else {
                    unreachable!("guarded by matches!")
                };
                out.push(Instr::ArithConst(op, c));
            }
            Instr::Cmp(op) if matches!(out.last(), Some(Instr::Const(_))) => {
                let Some(Instr::Const(c)) = out.pop() else {
                    unreachable!("guarded by matches!")
                };
                out.push(Instr::CmpConst(op, c));
            }
            other => out.push(other),
        }
    }
    *prog = out;
}

/// Compile `e` into postfix instructions appended to `out`. Returns
/// `false` (leaving `out` in an unspecified state the caller discards)
/// if the expression contains anything but constants, parameters,
/// arithmetic, and comparisons. The instruction order is exactly the
/// left-to-right evaluation order of [`eval_scalar`], so every runtime
/// error (unbound parameter, division by zero, type error) surfaces at
/// the same point with the same rendering.
fn compile_flat(e: &ScalarExpr, out: &mut Vec<Instr>) -> bool {
    match e {
        ScalarExpr::Const(v) => {
            out.push(Instr::Const(v.clone()));
            true
        }
        ScalarExpr::Param(i) => {
            out.push(Instr::Param(*i));
            true
        }
        ScalarExpr::Arith(op, l, r) => {
            compile_flat(l, out) && compile_flat(r, out) && {
                out.push(Instr::Arith(*op));
                true
            }
        }
        ScalarExpr::Cmp(op, l, r) => {
            compile_flat(l, out) && compile_flat(r, out) && {
                out.push(Instr::Cmp(*op));
                true
            }
        }
        _ => false,
    }
}

/// Run a flat check program against a binding. `stack` is caller-owned
/// scratch space (cleared here) so repeated checks share one allocation.
fn eval_flat(prog: &[Instr], params: &[Value], stack: &mut Vec<Value>) -> Result<Value> {
    stack.clear();
    for ins in prog {
        match ins {
            Instr::Const(v) => stack.push(v.clone()),
            Instr::Param(i) => match params.get(*i) {
                Some(v) => stack.push(v.clone()),
                None => return Err(AlgebraError::UnboundParam(*i)),
            },
            Instr::Arith(op) => {
                let r = stack.pop().expect("flat program is well-formed");
                let l = stack.pop().expect("flat program is well-formed");
                stack.push(eval_arith(*op, &l, &r)?);
            }
            Instr::Cmp(op) => {
                let r = stack.pop().expect("flat program is well-formed");
                let l = stack.pop().expect("flat program is well-formed");
                stack.push(Value::Bool(op.test(l.compare(&r))));
            }
            Instr::ArithConst(op, c) => {
                let l = stack.pop().expect("flat program is well-formed");
                stack.push(eval_arith(*op, &l, c)?);
            }
            Instr::CmpConst(op, c) => {
                let l = stack.pop().expect("flat program is well-formed");
                stack.push(Value::Bool(op.test(l.compare(c))));
            }
        }
    }
    Ok(stack.pop().expect("flat program is well-formed"))
}

/// `Some(n)` if every expression in `row` is a bare constant or
/// parameter — evaluation then cannot fail once `n` parameters are
/// bound. `None` for any composite expression (arithmetic can divide by
/// zero, so it must actually run).
fn infallible_row_params(row: &[ScalarExpr]) -> Option<usize> {
    let mut need = 0;
    for e in row {
        match e {
            ScalarExpr::Const(_) => {}
            ScalarExpr::Param(i) => need = need.max(i + 1),
            _ => return None,
        }
    }
    Some(need)
}

/// Recognize a transaction as a fast-path plan: every statement must be a
/// grounded singleton insert/delete into a base relation, a compensating
/// `insert(T, S@ins)` / `delete(T, S@del)` of base relations, or an
/// `alarm` over `select[p](⟨row⟩)` / `antijoin[p](⟨row⟩, S)` with an
/// aggregate-free predicate — exactly the shapes `ModT` and its
/// prepare-time specializer emit. Anything else (temporaries, updates,
/// other auxiliary sources or targets, multi-row sources, aggregates) returns
/// `None` and the plan executes generically. The fast execution is
/// *observably identical* to the generic one for every recognized plan —
/// same outcome, same statistics, same abort renderings, same captured
/// differentials — which the equivalence tests below and the
/// specialization-soundness suite pin down.
fn recognize_fast(tx: &Transaction) -> Option<Vec<FastOp>> {
    let program = tx.debracket();
    let mut ops = Vec::with_capacity(program.len());
    for stmt in program.statements() {
        let op = match stmt {
            Statement::Insert { relation, source } | Statement::Delete { relation, source }
                if !auxiliary::is_auxiliary(relation) =>
            {
                let insert = matches!(stmt, Statement::Insert { .. });
                match source {
                    RelExpr::Singleton(row) if row.iter().all(grounded) => FastOp::Write {
                        relation: relation.clone(),
                        row: row.clone(),
                        insert,
                    },
                    // `insert(T, S@ins)` / `delete(T, S@del)`.
                    RelExpr::Rel(name) => {
                        let (base, kind) = auxiliary::parse_auxiliary(name)?;
                        if kind != if insert { AuxKind::Ins } else { AuxKind::Del } {
                            return None;
                        }
                        FastOp::Copy {
                            relation: relation.clone(),
                            source: base.to_owned(),
                            insert,
                        }
                    }
                    _ => return None,
                }
            }
            Statement::Alarm(expr) => recognize_alarm(expr)?,
            _ => return None,
        };
        ops.push(op);
    }
    Some(ops)
}

/// Recognize one `alarm` argument as a point check ([`FastOp::Check`]) or
/// point probe ([`FastOp::Probe`]).
fn recognize_alarm(expr: &RelExpr) -> Option<FastOp> {
    match expr {
        RelExpr::Select(input, pred) => {
            let RelExpr::Singleton(row) = input.as_ref() else {
                return None;
            };
            if !row.iter().all(grounded) || pred.has_aggregates() {
                return None;
            }
            // A column past the row would error generically; leave it to
            // the generic path rather than replicating the error.
            if pred.max_col().is_some_and(|m| m >= row.len()) {
                return None;
            }
            let check = pred.substitute_cols(row);
            let flat = {
                let mut prog = Vec::new();
                compile_flat(&check, &mut prog).then(|| {
                    fuse_flat(&mut prog);
                    prog
                })
            };
            Some(FastOp::Check {
                row: row.clone(),
                row_params: infallible_row_params(row),
                check,
                flat,
                pred_text: pred.to_string(),
                alarm_text: expr.to_string(),
            })
        }
        RelExpr::AntiJoin(l, r, pred) => {
            let RelExpr::Singleton(row) = l.as_ref() else {
                return None;
            };
            let RelExpr::Rel(name) = r.as_ref() else {
                return None;
            };
            if auxiliary::is_auxiliary(name) || !row.iter().all(grounded) || pred.has_aggregates() {
                return None;
            }
            // `(row column, S column)` key pairs plus the residual. S's
            // arity is only known at execution time, so its side is left
            // open; pairs whose S offset turns out to be out of range
            // force the whole execution onto the generic path (see
            // [`Executor::execute_plan`]), which reports the range error.
            // Without pairs the probe scans S on `pred` itself.
            let (pairs, residual) = extract_equi_keys(pred, row.len(), usize::MAX)
                .map_or((Vec::new(), None), |k| (k.pairs, k.residual));
            let full_key = residual.is_none() && !pairs.is_empty() && distinct_right(&pairs);
            Some(FastOp::Probe {
                row: row.clone(),
                row_params: infallible_row_params(row),
                relation: name.clone(),
                pairs,
                full_key,
                residual,
                pred: pred.clone(),
                alarm_text: expr.to_string(),
            })
        }
        _ => None,
    }
}

/// The [`EvalContext`] of the fast path: a parameter binding and nothing
/// else. Every expression the fast path evaluates is aggregate-free (by
/// [`recognize_fast`]'s gates), so relation access is unreachable.
struct ParamsCtx<'a> {
    params: &'a [Value],
}

impl SchemaView for ParamsCtx<'_> {
    fn schema_of(&self, name: &str) -> Result<Arc<RelationSchema>> {
        Err(AlgebraError::Internal(format!(
            "fast path evaluated a relation-bearing expression (`{name}`)"
        )))
    }
}

impl EvalContext for ParamsCtx<'_> {
    fn relation_state(&self, name: &str) -> Result<&Relation> {
        Err(AlgebraError::Internal(format!(
            "fast path evaluated a relation-bearing expression (`{name}`)"
        )))
    }

    fn param(&self, i: usize) -> Option<&Value> {
        self.params.get(i)
    }
}

/// Check the plan against the live schemas: every probe's compile-time
/// key pairs against the arity of its relation, and every copy's source
/// and target for union compatibility (same arity, same column types, so
/// each copied tuple validates against the target). `false` sends the
/// execution to the generic path — a predicate referencing columns past
/// its relation, a copy whose tuples may not fit its target, or a missing
/// relation; the generic path owns those errors' renderings. Schemas
/// cannot change mid-transaction (fast plans only move rows), so one check
/// up front covers the whole run.
fn fast_schemas_valid(db: &Database, ops: &[FastOp]) -> bool {
    ops.iter().all(|op| match op {
        FastOp::Probe {
            relation, pairs, ..
        } => match db.relation(relation) {
            Ok(s) => {
                let arity = s.schema().arity();
                pairs.iter().all(|&(_, j)| j < arity)
            }
            Err(_) => false,
        },
        FastOp::Copy {
            relation, source, ..
        } => match (db.relation(relation), db.relation(source)) {
            (Ok(t), Ok(s)) => t.schema().union_compatible(s.schema()),
            _ => false,
        },
        _ => true,
    })
}

/// Does `row` have a partner in `s` under the probe's predicate? The
/// decision procedure mirrors the generic hash anti-join exactly:
///
/// * **all of `s`'s columns are keyed, no residual** — one set lookup; a
///   hit is definitive (tuple equality implies key equality), and so is a
///   miss whenever the key is well-typed ([`miss_is_definitive`]); only a
///   key value from another domain than its column (`Double(1.0)` against
///   an `Int` column, which compare-matches `Int(1)`) re-decides by the
///   scan below;
/// * **some key pairs** — scan `s`, matching keys with
///   [`key_values_match`] (the hash path's verification) and evaluating
///   only the residual per key match;
/// * **no key pairs** — scan `s` evaluating the full predicate over the
///   concatenated tuple, the nested-loop semantics.
///
/// The scans are O(|S|) where the generic path is O(|S|) *per execution
/// anyway* (it clones `S` out of `Rel` before joining); the point-probe
/// win is the first case, which every translator-emitted foreign-key
/// check hits.
fn probe_matches(
    row: &Tuple,
    s: &Relation,
    pairs: &[(usize, usize)],
    residual: Option<&ScalarExpr>,
    pred: &ScalarExpr,
    ctx: &ParamsCtx<'_>,
) -> Result<bool> {
    let arity = s.schema().arity();
    if !pairs.is_empty() {
        if residual.is_none() && pairs.len() == arity && distinct_right(pairs) {
            let mut key = vec![Value::Null; arity];
            for &(i, j) in pairs {
                key[j] = row.get(i).cloned().expect("pair row offsets in range");
            }
            if s.contains_row(&key) {
                return Ok(true);
            }
            if miss_is_definitive(&key, s.schema()) {
                return Ok(false);
            }
            // A key value from another domain can still compare-match a
            // cross-type partner the typed set lookup misses; fall through
            // to the scan.
        }
        for t in s.iter() {
            if !key_values_match(row, t, pairs) {
                continue;
            }
            match residual {
                None => return Ok(true),
                Some(res) => {
                    let joined = row.concat(t);
                    let v = eval_scalar(res, &joined, ctx)?;
                    if v.as_bool()
                        .ok_or_else(|| AlgebraError::NotABoolean(res.to_string()))?
                    {
                        return Ok(true);
                    }
                }
            }
        }
        return Ok(false);
    }
    for t in s.iter() {
        let joined = row.concat(t);
        let v = eval_scalar(pred, &joined, ctx)?;
        if v.as_bool()
            .ok_or_else(|| AlgebraError::NotABoolean(pred.to_string()))?
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Whether a full-key set lookup that missed `key` decides the probe:
/// every key value is a member of its `S` column's domain. Every write to
/// a base relation validates, so a column holds only values of its
/// declared type or `Null`, and a value of the column's own type
/// compare-matches exactly the values it is typed-equal to. Only a key
/// value from another domain — `Double(1.0)` against an `Int` column,
/// which compare-matches `Int(1)` — can have a partner the lookup misses.
fn miss_is_definitive(key: &[Value], schema: &RelationSchema) -> bool {
    key.iter()
        .zip(schema.attributes())
        .all(|(v, a)| v.conforms_to(a.value_type()))
}

/// Build a full-key probe's lookup key in place, straight from the bound
/// parameters — the direct path of [`FastOp::Probe`], reached only when
/// the row is infallible (`row_params`), so every keyed row expression is
/// a constant or a bound parameter. `None` defers to the scan of
/// [`probe_matches`].
fn direct_key(
    row: &[ScalarExpr],
    pairs: &[(usize, usize)],
    params: &[Value],
    arity: usize,
    key: &mut Vec<Value>,
) -> Option<()> {
    key.clear();
    key.resize(arity, Value::Null);
    for &(i, j) in pairs {
        *key.get_mut(j)? = match row.get(i)? {
            ScalarExpr::Const(v) => v.clone(),
            ScalarExpr::Param(p) => params.get(*p)?.clone(),
            _ => return None,
        };
    }
    Some(())
}

/// Whether the S-side offsets of the key pairs are pairwise distinct —
/// required for the full-key set lookup (duplicate offsets mean two row
/// columns constrain the same S column; only the scan checks both).
fn distinct_right(pairs: &[(usize, usize)]) -> bool {
    pairs
        .iter()
        .all(|&(_, j)| pairs.iter().filter(|&&(_, k)| k == j).count() == 1)
}

/// Apply the inverse of a recorded net delta to `rel`: remove the `R@ins`
/// tuples, re-insert the `R@del` tuples (the two sets are disjoint by the
/// differential invariants). The one definition behind both
/// [`TxContext::rollback`] and the `R@pre` reconstruction — they must
/// never drift apart.
fn apply_inverse_delta(rel: &mut Relation, ins: Option<&Relation>, del: Option<&Relation>) {
    if let Some(ins) = ins {
        for t in ins.iter() {
            rel.remove(t);
        }
    }
    if let Some(del) = del {
        for t in del.iter() {
            rel.insert_unchecked(t.clone());
        }
    }
}

/// Write one tuple into base relation `relation` under a fast plan's undo
/// log — the one write path of [`FastOp::Write`] and [`FastOp::Copy`]. The
/// tuple is validated against the relation's schema first, as the generic
/// `insert`/`delete` do; a write that changes nothing (inserting a present
/// tuple, deleting an absent one) is not logged or counted.
fn fast_write(
    db: &mut Database,
    relation: &str,
    t: Tuple,
    insert: bool,
    op: usize,
    stats: &mut ExecStats,
    undo: &mut Vec<(usize, Tuple, bool)>,
) -> Result<()> {
    let rel = db.relation_mut(relation)?;
    rel.schema().validate_tuple(&t)?;
    if insert {
        if !rel.insert_unchecked(t.clone()) {
            return Ok(());
        }
        stats.tuples_inserted += 1;
    } else {
        if !rel.remove(&t) {
            return Ok(());
        }
        stats.tuples_deleted += 1;
    }
    undo.push((op, t, insert));
    Ok(())
}

impl SchemaView for TxContext<'_> {
    fn schema_of(&self, name: &str) -> Result<Arc<RelationSchema>> {
        if let Some(t) = self.temps.get(name) {
            return Ok(t.schema().clone());
        }
        if let Some((base, _)) = auxiliary::parse_auxiliary(name) {
            return Ok(self.working.relation(base)?.schema().clone());
        }
        Ok(self.working.relation(name)?.schema().clone())
    }
}

impl EvalContext for TxContext<'_> {
    fn relation_state(&self, name: &str) -> Result<&Relation> {
        if let Some(t) = self.temps.get(name) {
            return Ok(t);
        }
        if let Some((base, kind)) = auxiliary::parse_auxiliary(name) {
            // Ensure the base actually exists before answering aux reads.
            let _ = self.working.relation(base)?;
            // Auxiliary entries are allocated lazily; every name an
            // expression can resolve was materialized by
            // `ensure_differentials` before its statement started (the
            // same walk `evaluate` performs), so absence here is a bug in
            // that pre-pass. It surfaces as an abortable error — the
            // transaction rolls back through the normal path — rather
            // than a panic with the database mid-mutation.
            let missing = || {
                AlgebraError::Internal(format!("auxiliary `{name}` read before materialization"))
            };
            return match kind {
                AuxKind::Pre => self.pre.get(base).ok_or_else(missing),
                AuxKind::Ins => self.ins.get(base).ok_or_else(missing),
                AuxKind::Del => self.del.get(base).ok_or_else(missing),
            };
        }
        Ok(self.working.relation(name)?)
    }

    fn param(&self, i: usize) -> Option<&Value> {
        self.params.get(i)
    }
}

/// Net `(R@ins, R@del)` sets per relation, keyed and sorted by name.
type NetDeltas<'o> = BTreeMap<&'o str, (BTreeSet<Tuple>, BTreeSet<Tuple>)>;

/// Fold a fast-plan undo log into the net differentials of every relation
/// it wrote, or of relation `only` — the fast-path miniature of the
/// generic `R@ins`/`R@del` maps. Each log entry is a genuine state change
/// at the moment it ran, so replaying the log with insert/delete
/// cancellation yields exactly the net pair the generic path maintains.
/// The one fold behind commit capture ([`fold_undo_deltas`]) and
/// [`FastOp::Copy`]'s read of `S@ins`/`S@del` mid-plan.
fn net_deltas<'o>(
    ops: &'o [FastOp],
    undo: &[(usize, Tuple, bool)],
    only: Option<&str>,
) -> NetDeltas<'o> {
    let mut per = NetDeltas::new();
    for (idx, t, was_insert) in undo {
        let relation = ops[*idx].write_target();
        if only.is_some_and(|o| o != relation) {
            continue;
        }
        let (ins, del) = per.entry(relation).or_default();
        if *was_insert {
            if !del.remove(t) {
                ins.insert(t.clone());
            }
        } else if !ins.remove(t) {
            del.insert(t.clone());
        }
    }
    per
}

/// Fold a fast-plan undo log into net per-relation redo records — the
/// fast-path miniature of [`TxContext::net_deltas`], through
/// [`net_deltas`]. Output is sorted by relation name and tuple order.
fn fold_undo_deltas(ops: &[FastOp], undo: &[(usize, Tuple, bool)]) -> Vec<RelationDelta> {
    // The prepared single-row hot path: one op, nothing to cancel or sort.
    if let [(idx, t, was_insert)] = undo {
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        if *was_insert {
            inserted.push(t.clone());
        } else {
            deleted.push(t.clone());
        }
        return vec![RelationDelta {
            relation: ops[*idx].write_target().to_owned(),
            inserted,
            deleted,
        }];
    }
    net_deltas(ops, undo, None)
        .into_iter()
        .filter(|(_, (ins, del))| !ins.is_empty() || !del.is_empty())
        .map(|(relation, (ins, del))| RelationDelta {
            relation: relation.to_owned(),
            inserted: ins.into_iter().collect(),
            deleted: del.into_iter().collect(),
        })
        .collect()
}

/// The transaction executor: runs bracketed programs against a database
/// with full atomicity.
#[derive(Debug, Clone, Copy, Default)]
pub struct Executor;

impl Executor {
    /// Execute `tx` against `db`, mutating it in place in O(Δ).
    ///
    /// On commit the working state (temporaries never enter it) is already
    /// installed and the logical time advances. On abort — alarm fired,
    /// explicit `abort`, or runtime error — the recorded changes are
    /// undone, leaving `db` set-identical to its pre-transaction state
    /// (the paper installs `D^t` as `D^{t+1}`; we advance the logical
    /// clock in both cases).
    pub fn execute(&self, db: &mut Database, tx: &Transaction) -> TxOutcome {
        self.execute_bound(db, tx, &[])
    }

    /// Execute a transaction template against a parameter binding:
    /// placeholder `?i` resolves to `params[i]`. A placeholder beyond the
    /// binding aborts the transaction with
    /// [`AlgebraError::UnboundParam`] — templates cannot half-execute.
    ///
    /// This is the generic executor on a raw transaction — no plan, no
    /// fast path — and as such the reference the plan executions are
    /// tested against.
    pub fn execute_bound(
        &self,
        db: &mut Database,
        tx: &Transaction,
        params: &[Value],
    ) -> TxOutcome {
        self.run(db, tx, params, None, None, None)
    }

    /// Execute a compiled [`ExecPlan`] against a parameter binding. Same
    /// semantics as [`Executor::execute_bound`] on the plan's template,
    /// but the per-statement analysis was paid once at compile time, and
    /// plans recognized by `recognize_fast` skip the [`TxContext`]
    /// machinery entirely: writes go straight to the live relations under
    /// a tuple-level undo log, checks evaluate as point probes. Never
    /// reads the clock.
    pub fn execute_plan(&self, db: &mut Database, plan: &ExecPlan, params: &[Value]) -> TxOutcome {
        self.execute_plan_instrumented(db, plan, params, None, None)
    }

    /// [`Executor::execute_plan`], fully optioned: differential capture
    /// and per-check wall-clock instrumentation, both opt-in.
    ///
    /// When `capture` is supplied, a committed execution stores its net
    /// per-relation differentials there — the redo records the durability
    /// layer serializes into its WAL — sorted by relation name and tuple
    /// order for deterministic bytes (the generic path harvests them from
    /// the same `R@ins`/`R@del` maps that back rollback and `R@pre`, the
    /// fast path from its tuple-level undo log). An aborted transaction
    /// captures nothing (its net effect is empty by atomicity).
    ///
    /// When `timings` is supplied, every check (`alarm` statement, or
    /// fast-path check/probe op) evaluated at or past `timings.first`
    /// appends its elapsed nanoseconds to `timings.ns` in execution order —
    /// including the check that aborts the transaction.
    pub fn execute_plan_instrumented(
        &self,
        db: &mut Database,
        plan: &ExecPlan,
        params: &[Value],
        capture: Option<&mut Vec<RelationDelta>>,
        timings: Option<&mut CheckTimings>,
    ) -> TxOutcome {
        if let Some(ops) = &plan.fast {
            if fast_schemas_valid(db, ops) {
                return self.run_fast(db, ops, params, capture, timings);
            }
            // A probe's key columns fall outside its relation, a copy's
            // source and target schemas differ, or a relation is missing:
            // the generic path owns those error renderings. Nothing has
            // executed yet, so falling back is observably free.
        }
        self.run(db, &plan.tx, params, Some(&plan.aux), capture, timings)
    }

    /// Run a recognized fast plan. Equivalent to the generic path on the
    /// same template — same outcome, statistics, and abort renderings —
    /// but O(1) per row statement and O(undo log) per copy: no
    /// differential maps, no `R@pre`, no derived singleton schemas.
    /// Atomicity comes from a tuple-level undo log (the net change record,
    /// replayed in reverse on abort), the fast-path miniature of the
    /// generic inverse-delta rollback; the same log answers a copy's
    /// `S@ins`/`S@del` read.
    fn run_fast(
        &self,
        db: &mut Database,
        ops: &[FastOp],
        params: &[Value],
        capture: Option<&mut Vec<RelationDelta>>,
        mut timings: Option<&mut CheckTimings>,
    ) -> TxOutcome {
        let ctx = ParamsCtx { params };
        let empty = Tuple::empty();
        let mut stats = ExecStats::default();
        // (op index, tuple, was_insert) — reversed on abort.
        let mut undo: Vec<(usize, Tuple, bool)> = Vec::new();
        // Operand stack reused across every flat check in the plan.
        let mut scratch: Vec<Value> = Vec::with_capacity(8);

        let eval_row = |row: &[ScalarExpr]| -> std::result::Result<Vec<Value>, AbortReason> {
            let mut values = Vec::with_capacity(row.len());
            for e in row {
                match eval_scalar(e, &empty, &ctx) {
                    Ok(v) => values.push(v),
                    Err(e) => return Err(AbortReason::RuntimeError(e)),
                }
            }
            Ok(values)
        };

        for (i, op) in ops.iter().enumerate() {
            stats.statements += 1;
            let clock = match (&timings, op) {
                (Some(t), FastOp::Check { .. } | FastOp::Probe { .. }) if i >= t.first => {
                    Some(Instant::now())
                }
                _ => None,
            };
            let step: std::result::Result<(), AbortReason> = match op {
                FastOp::Write {
                    relation,
                    row,
                    insert,
                } => eval_row(row).and_then(|values| {
                    let t = Tuple::from_values(values);
                    fast_write(db, relation, t, *insert, i, &mut stats, &mut undo)
                        .map_err(AbortReason::RuntimeError)
                }),
                FastOp::Copy {
                    relation,
                    source,
                    insert,
                } => {
                    let (ins, del) = net_deltas(ops, &undo, Some(source))
                        .remove(source.as_str())
                        .unwrap_or_default();
                    let tuples = if *insert { ins } else { del };
                    tuples
                        .into_iter()
                        .try_for_each(|t| {
                            fast_write(db, relation, t, *insert, i, &mut stats, &mut undo)
                        })
                        .map_err(AbortReason::RuntimeError)
                }
                FastOp::Check {
                    row,
                    row_params,
                    check,
                    flat,
                    pred_text,
                    alarm_text,
                } => {
                    stats.alarms_evaluated += 1;
                    // The generic path evaluates the singleton's row first;
                    // keep its error ordering (e.g. an unbound parameter in
                    // the row surfaces before a predicate error). A row of
                    // constants and bound parameters cannot fail, so its
                    // (unused) values are not materialized at all.
                    let row_ok = match row_params {
                        Some(n) if params.len() >= *n => Ok(()),
                        _ => eval_row(row).map(drop),
                    };
                    row_ok.and_then(|_| {
                        let evaluated = match flat {
                            Some(prog) => eval_flat(prog, params, &mut scratch),
                            None => eval_scalar(check, &empty, &ctx),
                        };
                        let v = match evaluated {
                            Ok(v) => v,
                            Err(e) => return Err(AbortReason::RuntimeError(e)),
                        };
                        let violated = v.as_bool().ok_or_else(|| {
                            AbortReason::RuntimeError(AlgebraError::NotABoolean(pred_text.clone()))
                        })?;
                        if violated {
                            stats.alarms_fired += 1;
                            Err(AbortReason::AlarmFired {
                                expr: alarm_text.clone(),
                                violations: 1,
                            })
                        } else {
                            Ok(())
                        }
                    })
                }
                FastOp::Probe {
                    row,
                    row_params,
                    relation,
                    pairs,
                    full_key,
                    residual,
                    pred,
                    alarm_text,
                } => {
                    stats.alarms_evaluated += 1;
                    match db.relation(relation) {
                        Err(e) => Err(AbortReason::RuntimeError(e.into())),
                        Ok(s) => {
                            // Direct path: pure distinct key equalities
                            // covering all of S's columns, from an
                            // infallible row — decide by one borrowed set
                            // lookup. A hit, or a miss on a well-typed key,
                            // is definitive; a key value from another
                            // domain falls through (cross-type
                            // compare-matches, see `miss_is_definitive`).
                            let direct = *full_key
                                && matches!(row_params, Some(n) if params.len() >= *n)
                                && pairs.len() == s.schema().arity()
                                && direct_key(row, pairs, params, pairs.len(), &mut scratch)
                                    .is_some();
                            match direct {
                                true if s.contains_row(&scratch) => Ok(()),
                                true if miss_is_definitive(&scratch, s.schema()) => {
                                    stats.alarms_fired += 1;
                                    Err(AbortReason::AlarmFired {
                                        expr: alarm_text.clone(),
                                        violations: 1,
                                    })
                                }
                                _ => eval_row(row).and_then(|values| {
                                    let t = Tuple::from_values(values);
                                    match probe_matches(&t, s, pairs, residual.as_ref(), pred, &ctx)
                                    {
                                        Ok(true) => Ok(()),
                                        Ok(false) => {
                                            stats.alarms_fired += 1;
                                            Err(AbortReason::AlarmFired {
                                                expr: alarm_text.clone(),
                                                violations: 1,
                                            })
                                        }
                                        Err(e) => Err(AbortReason::RuntimeError(e)),
                                    }
                                }),
                            }
                        }
                    }
                }
            };
            if let (Some(t0), Some(t)) = (clock, timings.as_deref_mut()) {
                t.ns.push(t0.elapsed().as_nanos() as u64);
            }
            if let Err(reason) = step {
                for (idx, t, was_insert) in undo.iter().rev() {
                    let rel = db
                        .relation_mut(ops[*idx].write_target())
                        .expect("undo targets a relation that existed at write time");
                    if *was_insert {
                        rel.remove(t);
                    } else {
                        rel.insert_unchecked(t.clone());
                    }
                }
                db.tick();
                return TxOutcome::Aborted { reason, stats };
            }
        }
        if let Some(out) = capture {
            *out = fold_undo_deltas(ops, &undo);
        }
        db.tick();
        TxOutcome::Committed(stats)
    }

    fn run(
        &self,
        db: &mut Database,
        tx: &Transaction,
        params: &[Value],
        aux: Option<&[Vec<(String, AuxKind)>]>,
        capture: Option<&mut Vec<RelationDelta>>,
        mut timings: Option<&mut CheckTimings>,
    ) -> TxOutcome {
        let program = tx.debracket();
        let mut ctx = TxContext::begin_bound(db, params);
        for (i, stmt) in program.statements().iter().enumerate() {
            let stmt_aux = aux.map(|a| a[i].as_slice());
            let clock = match (&timings, stmt) {
                (Some(t), Statement::Alarm(_)) if i >= t.first => Some(Instant::now()),
                _ => None,
            };
            let step = ctx.execute_statement(stmt, stmt_aux);
            if let (Some(t0), Some(t)) = (clock, timings.as_deref_mut()) {
                t.ns.push(t0.elapsed().as_nanos() as u64);
            }
            if let Err(reason) = step {
                ctx.rollback(); // undo the delta: re-install D^t as D^{t+1}
                let stats = ctx.stats.clone();
                db.tick();
                return TxOutcome::Aborted { reason, stats };
            }
        }
        // End bracket: temporaries die with the context, the mutated
        // working state is [D^{t,n}] — nothing to install, just tick.
        let stats = ctx.stats.clone();
        if let Some(out) = capture {
            *out = ctx.net_deltas();
        }
        drop(ctx);
        db.tick();
        TxOutcome::Committed(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ScalarExpr};
    use crate::program::Program;
    use crate::rel_expr::RelExpr;
    use tm_relational::{DatabaseSchema, RelationSchema, ValueType};

    /// `r(a, b) = {(1, one)}` and `s(x) = {10}`; for the compensating-copy
    /// tests `p(x) = {10, 30}` and its mirror `m(y) = {20, 30}` (they share
    /// 30, `p` alone holds 10, `m` alone 20); `d(v: double) = {1.0}`.
    fn db() -> Database {
        let schema = DatabaseSchema::from_relations(vec![
            RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Str)]),
            RelationSchema::of("s", &[("x", ValueType::Int)]),
            RelationSchema::of("p", &[("x", ValueType::Int)]),
            RelationSchema::of("m", &[("y", ValueType::Int)]),
            RelationSchema::of("d", &[("v", ValueType::Double)]),
        ])
        .unwrap();
        let mut db = Database::new(schema.into_shared());
        db.insert("r", Tuple::of((1, "one"))).unwrap();
        db.insert("s", Tuple::of((10,))).unwrap();
        db.extend("p", [Tuple::of((10,)), Tuple::of((30,))])
            .unwrap();
        db.extend("m", [Tuple::of((20,)), Tuple::of((30,))])
            .unwrap();
        db.insert("d", Tuple::of((1.0,))).unwrap();
        db
    }

    fn exec(db: &mut Database, stmts: Vec<Statement>) -> TxOutcome {
        Executor.execute(db, &Program::new(stmts).bracket())
    }

    #[test]
    fn commit_installs_changes() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::insert_tuples("r", vec![Tuple::of((2, "two"))])],
        );
        assert!(out.is_committed());
        assert_eq!(d.relation("r").unwrap().len(), 2);
        assert_eq!(d.logical_time(), 1);
        assert_eq!(out.stats().tuples_inserted, 1);
    }

    #[test]
    fn abort_restores_state() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
                Statement::Abort,
            ],
        );
        assert!(!out.is_committed());
        assert_eq!(d.relation("r").unwrap().len(), 1);
        assert_eq!(d.logical_time(), 1); // time still advances
    }

    #[test]
    fn alarm_empty_is_noop() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::Alarm(
                RelExpr::relation("r").select(ScalarExpr::false_()),
            )],
        );
        assert!(out.is_committed());
        assert_eq!(out.stats().alarms_evaluated, 1);
        assert_eq!(out.stats().alarms_fired, 0);
    }

    #[test]
    fn alarm_nonempty_aborts() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
                Statement::Alarm(RelExpr::relation("r")),
            ],
        );
        match out {
            TxOutcome::Aborted {
                reason: AbortReason::AlarmFired { violations, .. },
                stats,
            } => {
                assert_eq!(violations, 2);
                assert_eq!(stats.alarms_fired, 1);
            }
            other => panic!("expected alarm abort, got {other:?}"),
        }
        assert_eq!(d.relation("r").unwrap().len(), 1);
    }

    #[test]
    fn temporaries_are_dropped_on_commit() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::Assign {
                    target: "temp".into(),
                    expr: RelExpr::relation("r"),
                },
                Statement::Insert {
                    relation: "r".into(),
                    source: RelExpr::relation("temp").project(vec![
                        ScalarExpr::arith(
                            crate::expr::ArithOp::Add,
                            ScalarExpr::col(0),
                            ScalarExpr::int(100),
                        ),
                        ScalarExpr::col(1),
                    ]),
                },
            ],
        );
        assert!(out.is_committed());
        assert!(d.relation("r").unwrap().contains(&Tuple::of((101, "one"))));
        // temp does not survive the transaction
        assert!(d.relation("temp").is_err());
    }

    #[test]
    fn assign_to_base_is_error() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::Assign {
                target: "r".into(),
                expr: RelExpr::relation("s"),
            }],
        );
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::AssignToBase(_)),
                ..
            }
        ));
    }

    #[test]
    fn auxiliary_relations_read_only() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::insert_tuples("r@ins", vec![Tuple::of((1, "x"))])],
        );
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::AuxiliaryUpdate(_)),
                ..
            }
        ));
    }

    #[test]
    fn pre_state_visible_during_transaction() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::delete_where("r", ScalarExpr::true_()),
                // r is now empty, but r@pre still holds the old tuple;
                // alarm(r@pre − r@pre) must not fire while alarm on the
                // difference of r@pre and r fires on 1 tuple? No —
                // we assert commit by alarming on an empty difference.
                Statement::Alarm(RelExpr::relation("r@pre").difference(RelExpr::relation("r@pre"))),
                Statement::insert_tuples("r", vec![Tuple::of((5, "five"))]),
            ],
        );
        assert!(out.is_committed());
        assert_eq!(d.relation("r").unwrap().len(), 1);
        assert!(d.relation("r").unwrap().contains(&Tuple::of((5, "five"))));
    }

    #[test]
    fn differentials_track_net_changes() {
        let mut d = db();
        // Insert then delete the same tuple: net differentials are empty.
        let out = exec(
            &mut d,
            vec![
                Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
                Statement::Delete {
                    relation: "r".into(),
                    source: RelExpr::Literal(vec![Tuple::of((2, "two"))]),
                },
                Statement::Alarm(RelExpr::relation("r@ins")),
                Statement::Alarm(RelExpr::relation("r@del")),
            ],
        );
        assert!(
            out.is_committed(),
            "net-zero change must not alarm: {out:?}"
        );
    }

    #[test]
    fn differential_delete_then_insert_cancels() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::Delete {
                    relation: "r".into(),
                    source: RelExpr::Literal(vec![Tuple::of((1, "one"))]),
                },
                Statement::insert_tuples("r", vec![Tuple::of((1, "one"))]),
                Statement::Alarm(RelExpr::relation("r@ins")),
                Statement::Alarm(RelExpr::relation("r@del")),
            ],
        );
        assert!(out.is_committed(), "{out:?}");
    }

    #[test]
    fn differential_ins_visible() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
                // r@ins = {(2,two)} — alarm fires.
                Statement::Alarm(RelExpr::relation("r@ins")),
            ],
        );
        match out {
            TxOutcome::Aborted {
                reason: AbortReason::AlarmFired { violations, .. },
                ..
            } => assert_eq!(violations, 1),
            other => panic!("expected alarm, got {other:?}"),
        }
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::Update {
                relation: "s".into(),
                pred: ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::int(10)),
                set: vec![crate::program::UpdateAssignment::new(
                    0,
                    ScalarExpr::arith(
                        crate::expr::ArithOp::Add,
                        ScalarExpr::col(0),
                        ScalarExpr::int(1),
                    ),
                )],
            }],
        );
        assert!(out.is_committed());
        assert!(d.relation("s").unwrap().contains(&Tuple::of((11,))));
        assert!(!d.relation("s").unwrap().contains(&Tuple::of((10,))));
        assert_eq!(out.stats().tuples_inserted, 1);
        assert_eq!(out.stats().tuples_deleted, 1);
    }

    #[test]
    fn runtime_error_aborts_atomically() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![
                Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
                Statement::Insert {
                    relation: "nonexistent".into(),
                    source: RelExpr::relation("r"),
                },
            ],
        );
        assert!(!out.is_committed());
        assert_eq!(d.relation("r").unwrap().len(), 1);
    }

    #[test]
    fn insert_validates_against_base_schema() {
        let mut d = db();
        let out = exec(
            &mut d,
            vec![Statement::insert_tuples("s", vec![Tuple::of(("wrong",))])],
        );
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::Relational(_)),
                ..
            }
        ));
    }

    #[test]
    fn unbound_param_aborts_atomically() {
        let mut d = db();
        let tx = Program::new(vec![
            Statement::insert_tuples("r", vec![Tuple::of((2, "two"))]),
            Statement::insert_params("s", 1),
        ])
        .bracket();
        let out = Executor.execute(&mut d, &tx);
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::UnboundParam(0)),
                ..
            }
        ));
        assert_eq!(d.relation("r").unwrap().len(), 1, "rolled back");
    }

    #[test]
    fn execute_bound_resolves_params() {
        let mut d = db();
        let tx = Program::new(vec![Statement::insert_params("r", 2)]).bracket();
        let out = Executor.execute_bound(
            &mut d,
            &tx,
            &[
                tm_relational::Value::Int(9),
                tm_relational::Value::str("nine"),
            ],
        );
        assert!(out.is_committed(), "{out:?}");
        assert!(d.relation("r").unwrap().contains(&Tuple::of((9, "nine"))));
    }

    #[test]
    fn bound_param_types_flow_into_derived_schemas() {
        // `project[…, ?0]` of a string parameter must produce a Str
        // column, exactly as the substituted-constant form would —
        // otherwise the derived schema mistypes the projected value and
        // insertion into the (Int, Str) base relation misvalidates.
        let mut d = db();
        let tx = Program::new(vec![Statement::Insert {
            relation: "r".into(),
            source: RelExpr::relation("r").project(vec![
                ScalarExpr::arith(
                    crate::expr::ArithOp::Add,
                    ScalarExpr::col(0),
                    ScalarExpr::int(1),
                ),
                ScalarExpr::param(0),
            ]),
        }])
        .bracket();
        let params = [tm_relational::Value::str("p")];
        let out = Executor.execute_bound(&mut d, &tx, &params);
        assert!(out.is_committed(), "{out:?}");
        assert!(d.relation("r").unwrap().contains(&Tuple::of((2, "p"))));
        // And the substituted form agrees.
        let mut d2 = db();
        let out2 = Executor.execute(&mut d2, &tx.bind_params(&params));
        assert!(out2.is_committed(), "{out2:?}");
        assert!(d.state_eq(&d2));
    }

    #[test]
    fn exec_plan_matches_direct_execution() {
        let tx = Program::new(vec![
            Statement::insert_params("r", 2),
            // Mentions auxiliaries, so the plan caches non-trivial refs.
            Statement::Alarm(RelExpr::relation("r@ins").difference(RelExpr::relation("r@ins"))),
            Statement::Alarm(RelExpr::relation("r@pre").select(ScalarExpr::cmp(
                CmpOp::Eq,
                ScalarExpr::col(0),
                ScalarExpr::param(0),
            ))),
        ])
        .bracket();
        let plan = ExecPlan::compile(tx.clone());
        assert_eq!(plan.param_count(), 2);
        assert_eq!(plan.transaction(), &tx);
        let params = [tm_relational::Value::Int(3), tm_relational::Value::str("x")];

        let mut via_plan = db();
        let out_plan = Executor.execute_plan(&mut via_plan, &plan, &params);
        let mut direct = db();
        let out_direct = Executor.execute_bound(&mut direct, &tx, &params);
        assert_eq!(out_plan, out_direct);
        assert!(via_plan.state_eq(&direct));
        assert!(out_plan.is_committed(), "{out_plan:?}");
    }

    /// Execute `tx` through its (fast) plan and through the generic
    /// interpreter on twin databases; the outcomes, captured differentials
    /// and final states must be indistinguishable. Returns the plan
    /// outcome.
    fn assert_fast_equals_generic(
        mk: impl Fn() -> Database,
        tx: &Transaction,
        params: &[Value],
    ) -> TxOutcome {
        let plan = ExecPlan::compile(tx.clone());
        assert!(plan.is_fast(), "plan unexpectedly generic: {tx}");
        let (mut via_plan, mut plan_deltas) = (mk(), Vec::new());
        let out_plan = Executor.execute_plan_instrumented(
            &mut via_plan,
            &plan,
            params,
            Some(&mut plan_deltas),
            None,
        );
        let (mut generic, mut generic_deltas) = (mk(), Vec::new());
        let out_generic = Executor.run(
            &mut generic,
            tx,
            params,
            None,
            Some(&mut generic_deltas),
            None,
        );
        assert_eq!(out_plan, out_generic, "outcome diverged for {tx}");
        assert_eq!(plan_deltas, generic_deltas, "capture diverged for {tx}");
        assert!(via_plan.state_eq(&generic), "state diverged for {tx}");
        assert_eq!(via_plan.logical_time(), generic.logical_time());
        out_plan
    }

    fn singleton(values: Vec<ScalarExpr>) -> RelExpr {
        RelExpr::Singleton(values)
    }

    /// `insert(relation, source)` or `delete(relation, source)`.
    fn write(insert: bool, relation: &str, source: RelExpr) -> Statement {
        let relation = relation.to_owned();
        if insert {
            Statement::Insert { relation, source }
        } else {
            Statement::Delete { relation, source }
        }
    }

    /// `insert(target, source)` / `delete(target, source)` of a named
    /// (auxiliary) relation — the compensating-action shape.
    fn copy(insert: bool, target: &str, source: &str) -> Statement {
        write(insert, target, RelExpr::relation(source))
    }

    /// `insert(p, ⟨?0⟩)` / `delete(p, ⟨?0⟩)`.
    fn write_p(insert: bool) -> Statement {
        write(insert, "p", singleton(vec![ScalarExpr::param(0)]))
    }

    #[test]
    fn fast_plan_recognizes_specialized_shapes() {
        // Grounded singleton writes + point check + point probe: fast.
        let tx = Program::new(vec![
            Statement::Insert {
                relation: "r".into(),
                source: singleton(vec![ScalarExpr::param(0), ScalarExpr::param(1)]),
            },
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)]).select(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(0),
                    ScalarExpr::int(0),
                )),
            ),
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)])
                    .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 1)),
            ),
        ])
        .bracket();
        assert!(ExecPlan::compile(tx).is_fast());
        // Compensating copies of a base relation's differentials: fast.
        let tx = Program::new(vec![copy(true, "m", "p@ins"), copy(false, "m", "p@del")]).bracket();
        assert!(ExecPlan::compile(tx).is_fast());

        // Any other statement shape falls back to the generic path.
        for tx in [
            Program::new(vec![Statement::insert_tuples(
                "r@ins",
                vec![Tuple::of((1, "x"))],
            )]),
            Program::new(vec![Statement::Insert {
                relation: "r".into(),
                source: RelExpr::relation("s"),
            }]),
            // `S@pre` sources, crossed pairs and auxiliary targets stay
            // generic.
            Program::new(vec![copy(true, "m", "p@pre")]),
            Program::new(vec![copy(false, "m", "p@pre")]),
            Program::new(vec![copy(true, "m", "p@del")]),
            Program::new(vec![copy(false, "m", "p@ins")]),
            Program::new(vec![copy(true, "m@ins", "p@ins")]),
            Program::new(vec![Statement::Alarm(RelExpr::relation("r"))]),
            Program::new(vec![Statement::Abort]),
            Program::new(vec![Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)]).select(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::Cnt(Box::new(RelExpr::relation("s"))),
                    ScalarExpr::int(0),
                )),
            )]),
        ] {
            assert!(
                !ExecPlan::compile(tx.clone().bracket()).is_fast(),
                "unexpectedly fast: {tx}"
            );
        }
    }

    #[test]
    fn fast_path_commit_and_duplicate_insert() {
        let tx = Program::new(vec![
            Statement::Insert {
                relation: "r".into(),
                source: singleton(vec![ScalarExpr::param(0), ScalarExpr::param(1)]),
            },
            // Duplicate of the first insert: no net change, still counted
            // as a statement.
            Statement::Insert {
                relation: "r".into(),
                source: singleton(vec![ScalarExpr::param(0), ScalarExpr::param(1)]),
            },
        ])
        .bracket();
        let params = [Value::Int(7), Value::str("seven")];
        let out = assert_fast_equals_generic(db, &tx, &params);
        assert!(out.is_committed());
        assert_eq!(out.stats().tuples_inserted, 1);
        assert_eq!(out.stats().statements, 2);
    }

    #[test]
    fn fast_path_check_fires_and_rolls_back() {
        let tx = Program::new(vec![
            Statement::Insert {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::param(0)]),
            },
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)]).select(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(0),
                    ScalarExpr::int(0),
                )),
            ),
        ])
        .bracket();
        // Clean value commits…
        let ok = assert_fast_equals_generic(db, &tx, &[Value::Int(5)]);
        assert!(ok.is_committed());
        // …violating value fires the alarm and rolls the insert back.
        let bad = assert_fast_equals_generic(db, &tx, &[Value::Int(-5)]);
        match bad {
            TxOutcome::Aborted {
                reason: AbortReason::AlarmFired { expr, violations },
                stats,
            } => {
                assert_eq!(violations, 1);
                assert!(expr.contains("select"), "generic rendering: {expr}");
                assert_eq!(stats.alarms_fired, 1);
            }
            other => panic!("expected alarm abort, got {other:?}"),
        }
    }

    #[test]
    fn fast_path_probe_hit_and_miss() {
        // Referential probe: ⟨?0⟩ must have a partner in s (arity 1), so
        // the pair covers all of s's columns — the set-lookup path.
        let tx = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0)])
                .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 1)),
        )])
        .bracket();
        let hit = assert_fast_equals_generic(db, &tx, &[Value::Int(10)]);
        assert!(hit.is_committed(), "{hit:?}");
        let miss = assert_fast_equals_generic(db, &tx, &[Value::Int(11)]);
        assert!(!miss.is_committed());
    }

    #[test]
    fn fast_path_probe_matches_numeric_cross_type() {
        // s holds Int(10); a Double(10.0) probe key misses the typed set
        // lookup but must still match under `compare`, exactly as the
        // generic hash join does.
        let tx = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0)])
                .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 1)),
        )])
        .bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::double(10.0)]);
        assert!(out.is_committed(), "{out:?}");
        let out = assert_fast_equals_generic(db, &tx, &[Value::double(10.5)]);
        assert!(!out.is_committed());
    }

    #[test]
    fn fast_path_probe_with_residual_and_without_keys() {
        // Residual probe: equality key plus an inequality conjunct.
        let with_residual = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0), ScalarExpr::param(1)]).anti_join(
                RelExpr::relation("r"),
                ScalarExpr::and(
                    ScalarExpr::col_eq(0, 2),
                    ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(1), ScalarExpr::col(2)),
                ),
            ),
        )])
        .bracket();
        let out = assert_fast_equals_generic(db, &with_residual, &[Value::Int(1), Value::Int(0)]);
        assert!(out.is_committed(), "{out:?}");
        let out = assert_fast_equals_generic(db, &with_residual, &[Value::Int(1), Value::Int(2)]);
        assert!(!out.is_committed());

        // Keyless probe: pure inequality predicate, full scan semantics.
        let keyless = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0)]).anti_join(
                RelExpr::relation("s"),
                ScalarExpr::cmp(CmpOp::Lt, ScalarExpr::col(0), ScalarExpr::col(1)),
            ),
        )])
        .bracket();
        let out = assert_fast_equals_generic(db, &keyless, &[Value::Int(3)]);
        assert!(out.is_committed(), "{out:?}");
        let out = assert_fast_equals_generic(db, &keyless, &[Value::Int(30)]);
        assert!(!out.is_committed());
    }

    #[test]
    fn fast_path_probe_out_of_range_falls_back() {
        // The probe's key references column 5 of the concat, but s has
        // arity 1 (concat arity 2): the fast plan detects the mismatch at
        // execution and the generic path reports its usual range error.
        let tx = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0)])
                .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 5)),
        )])
        .bracket();
        let plan = ExecPlan::compile(tx.clone());
        assert!(plan.is_fast());
        let mut via_plan = db();
        let out_plan = Executor.execute_plan(&mut via_plan, &plan, &[Value::Int(1)]);
        let mut generic = db();
        let out_generic = Executor.execute_bound(&mut generic, &tx, &[Value::Int(1)]);
        assert_eq!(out_plan, out_generic);
        assert!(matches!(
            out_plan,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::ColumnOutOfRange { .. }),
                ..
            }
        ));
    }

    #[test]
    fn fast_path_unbound_param_and_validation_errors() {
        // Unbound parameter in the row aborts atomically.
        let tx = Program::new(vec![
            Statement::Insert {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::int(42)]),
            },
            Statement::Insert {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::param(0)]),
            },
        ])
        .bracket();
        let out = assert_fast_equals_generic(db, &tx, &[]);
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::UnboundParam(0)),
                ..
            }
        ));

        // Type mismatch against the base schema aborts atomically.
        let tx = Program::new(vec![
            Statement::Insert {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::int(42)]),
            },
            Statement::Insert {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::str("wrong")]),
            },
        ])
        .bracket();
        let out = assert_fast_equals_generic(db, &tx, &[]);
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::RuntimeError(AlgebraError::Relational(_)),
                ..
            }
        ));
    }

    #[test]
    fn fast_path_delete_then_failing_probe_restores_state() {
        // Delete a row, then probe for it — the probe misses (the delete
        // already happened), the alarm fires, and rollback restores the
        // deleted tuple.
        let tx = Program::new(vec![
            Statement::Delete {
                relation: "s".into(),
                source: singleton(vec![ScalarExpr::param(0)]),
            },
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)])
                    .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 1)),
            ),
        ])
        .bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(10)]);
        assert!(!out.is_committed());
        let mut d = db();
        let plan = ExecPlan::compile(tx);
        Executor.execute_plan(&mut d, &plan, &[Value::Int(10)]);
        assert!(d.relation("s").unwrap().contains(&Tuple::of((10,))));
    }

    #[test]
    fn fast_copy_of_a_fresh_write_moves_one_row() {
        // A fresh insert into p is mirrored into m…
        let tx = Program::new(vec![write_p(true), copy(true, "m", "p@ins")]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(7)]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(out.stats().tuples_inserted, 2);
        // …and a delete from p is mirrored out of m.
        let tx = Program::new(vec![write_p(false), copy(false, "m", "p@del")]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(30)]);
        assert_eq!(out.stats().tuples_deleted, 2);
    }

    #[test]
    fn fast_copy_of_a_duplicate_insert_copies_nothing() {
        // 10 is already in p (and not in m): p@ins is empty.
        let tx = Program::new(vec![write_p(true), copy(true, "m", "p@ins")]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(10)]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(out.stats().tuples_inserted, 0);
    }

    #[test]
    fn fast_copy_after_delete_and_reinsert_copies_nothing() {
        // Deleting and re-inserting p's pre-existing 10 nets to no
        // differential: p@ins is empty, so m (which lacks 10) stays as it
        // is — although the undo log holds an insert of 10 that no later
        // entry deletes.
        let tx = Program::new(vec![
            write_p(false),
            write_p(true),
            copy(true, "m", "p@ins"),
        ]);
        let out = assert_fast_equals_generic(db, &tx.bracket(), &[Value::Int(10)]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(
            (out.stats().tuples_deleted, out.stats().tuples_inserted),
            (1, 1),
            "only p's own delete and re-insert count"
        );
    }

    #[test]
    fn fast_copy_of_a_row_already_in_the_target_is_a_no_op() {
        // 20 is fresh in p but already in m.
        let tx = Program::new(vec![write_p(true), copy(true, "m", "p@ins")]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(20)]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(out.stats().tuples_inserted, 1);
        assert_eq!(out.stats().statements, 2);
    }

    #[test]
    fn fast_copy_is_rolled_back_by_a_later_failing_check() {
        let tx = Program::new(vec![
            write_p(true),
            copy(true, "m", "p@ins"),
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)]).select(ScalarExpr::cmp(
                    CmpOp::Lt,
                    ScalarExpr::col(0),
                    ScalarExpr::int(0),
                )),
            ),
        ])
        .bracket();
        let out = assert_fast_equals_generic(db, &tx, &[Value::Int(-1)]);
        assert!(matches!(
            out,
            TxOutcome::Aborted {
                reason: AbortReason::AlarmFired { .. },
                ..
            }
        ));
        assert_eq!(out.stats().tuples_inserted, 2, "both writes ran first");
        let mut d = db();
        Executor.execute_plan(&mut d, &ExecPlan::compile(tx), &[Value::Int(-1)]);
        assert!(d.state_eq(&db()), "p and m are both restored");
    }

    #[test]
    fn fast_copy_schema_mismatch_falls_back_with_the_generic_error() {
        // p(x: int) differs from r(a, b) in arity and from d(v: double) in
        // type: the whole execution runs generically and aborts with the
        // generic path's error…
        let copy_into =
            |target| Program::new(vec![write_p(true), copy(true, target, "p@ins")]).bracket();
        for target in ["r", "d"] {
            let out = assert_fast_equals_generic(db, &copy_into(target), &[Value::Int(7)]);
            assert!(
                matches!(
                    out,
                    TxOutcome::Aborted {
                        reason: AbortReason::RuntimeError(AlgebraError::Relational(_)),
                        ..
                    }
                ),
                "{target}: {out:?}"
            );
        }
        // …or commits when the differential is empty (10 is already in p).
        let out = assert_fast_equals_generic(db, &copy_into("r"), &[Value::Int(10)]);
        assert!(out.is_committed(), "{out:?}");
    }

    #[test]
    fn fast_path_probe_miss_on_a_well_typed_key_is_definitive() {
        let probe = |relation: &str| {
            Program::new(vec![Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)])
                    .anti_join(RelExpr::relation(relation), ScalarExpr::col_eq(0, 1)),
            )])
            .bracket()
        };
        // An Int key into s's Int column: the lookup's miss decides.
        let out = assert_fast_equals_generic(db, &probe("s"), &[Value::Int(11)]);
        assert!(!out.is_committed());
        // An Int key into d's Double column still finds Double(1.0).
        let out = assert_fast_equals_generic(db, &probe("d"), &[Value::Int(1)]);
        assert!(out.is_committed(), "{out:?}");
        let out = assert_fast_equals_generic(db, &probe("d"), &[Value::Int(2)]);
        assert!(!out.is_committed());
    }

    #[test]
    fn statement_aux_refs_finds_only_auxiliaries() {
        let stmt = Statement::Alarm(
            RelExpr::relation("r@pre")
                .union(RelExpr::relation("r"))
                .union(RelExpr::relation("s@del")),
        );
        let refs = statement_aux_refs(&stmt);
        assert_eq!(
            refs,
            vec![
                ("r".to_owned(), AuxKind::Pre),
                ("s".to_owned(), AuxKind::Del)
            ]
        );
        assert!(statement_aux_refs(&Statement::Abort).is_empty());
    }

    #[test]
    fn transition_reporting() {
        let mut d = db();
        let before = d.clone();
        let out = Executor.execute(
            &mut d,
            &Program::new(vec![Statement::insert_tuples("s", vec![Tuple::of((20,))])]).bracket(),
        );
        let tr = tm_relational::Transition::new(before, d);
        assert!(out.is_committed());
        assert!(!tr.is_identity());
        assert_eq!(tr.before.relation("s").unwrap().len(), 1);
        assert_eq!(tr.after.relation("s").unwrap().len(), 2);
    }

    #[test]
    fn aborted_transition_is_identity() {
        let mut d = db();
        let before = d.clone();
        let out = Executor.execute(
            &mut d,
            &Program::new(vec![
                Statement::insert_tuples("s", vec![Tuple::of((20,))]),
                Statement::Abort,
            ])
            .bracket(),
        );
        let tr = tm_relational::Transition::new(before, d);
        assert!(!out.is_committed());
        assert!(tr.is_identity());
    }
}
