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
//! All three are functions of one record, the transaction's **change
//! log**: every write that actually changes a base relation appends
//! `(statement index, tuple, was_insert)`, and the statement index names
//! the written relation. Folding the log with the classic cancellation
//! rule — an insertion of `t` cancels a logged deletion of `t`, and
//! symmetrically — yields `R@ins` and `R@del`, so the invariants
//! `R@ins = R − R@pre` and `R@del = R@pre − R` hold after every statement
//! (property-tested in `tests/`).
//!
//! ## The logical snapshot
//!
//! Atomicity does **not** copy the database. There is one executor: a
//! plan is a list of ops, one per statement, and one driver runs every
//! plan over one transaction context. An op is either a compiled point
//! operation (a singleton write, a compensating differential copy, a
//! point check or probe) or `Generic` — the statement evaluated by the
//! relational evaluator. Every op mutates the caller's state in place
//! and appends to the same change log, the transaction's only change
//! record:
//!
//! * **commit** keeps the mutated state; a caller's commit hook, when one
//!   is installed, reads the log's net view ([`net_view`]) before the
//!   bracket closes — O(Δ) — and its failure undoes the transaction as
//!   an abort does;
//! * **abort** replays the log in reverse — O(Δ), restoring a state
//!   set-identical to `D^t`;
//! * **`R@ins` / `R@del`** are the log's net view for `R`, computed just
//!   before a statement that names them and kept until an op — of any
//!   kind — logs a write;
//! * **`R@pre`** is folded once, at first reference, as
//!   `(R − R@ins) ∪ R@del` and cached for the rest of the transaction —
//!   free for untouched relations (a copy-on-write clone of the live
//!   state), one set copy for relations the transaction already modified.
//!
//! This is the "logical update view" realization of snapshots — sharing
//! plus one change log instead of physical copies — so the cost of a
//! transaction is proportional to its delta and the data its checks
//! actually read, never to the size of the database. Expression results
//! are copy-on-write clones, so a statement reading the relation it
//! updates still sees a consistent input (the first write unshares the
//! live set from the evaluated copy). Every *error* path rolls back
//! exactly; a Rust panic mid-transaction, however, leaves the in-place
//! state mid-flight — unwinding recovery is out of scope for this
//! main-memory engine.

use std::convert::Infallible;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tm_relational::{
    auxiliary::{self, AuxKind},
    net_view, Database, NetChange, Relation, RelationSchema, Tuple, Value,
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

/// One entry of a transaction's change log: the index of the statement
/// that made the change (it names the written relation, see [`written`]),
/// the tuple, and whether it was inserted (else deleted). Only actual
/// changes are logged, so every entry is a genuine state change at the
/// moment it ran.
type Change = (usize, Tuple, bool);

/// The context of a running transaction, shared by every op of its plan:
/// the working database state (the caller's state, mutated in place), the
/// parameter binding, the temporaries of the intermediate states
/// `D^{t,i}`, the change log, the auxiliary relations folded from it, and
/// the statistics.
///
/// Opening the context is O(1): nothing is cloned. An auxiliary relation
/// is folded from the log only when a `Generic` statement's expressions
/// name it, just before the statement runs, so a differential of an
/// untouched relation is a freshly shared empty relation and `R@pre` of an
/// untouched relation is a copy-on-write clone of `R` itself.
struct TxContext<'a> {
    working: &'a mut Database,
    /// The parameter binding of this execution; placeholder `?i` resolves
    /// to `params[i]`. Empty for ground (non-prepared) transactions, in
    /// which case any remaining placeholder aborts the transaction with
    /// [`AlgebraError::UnboundParam`].
    params: &'a [Value],
    /// The transaction's statements; a change's index resolves here.
    stmts: &'a [Statement],
    temps: FxHashMap<String, Relation>,
    log: Vec<Change>,
    /// `(R@ins, R@del)` per base, folded from `log` at first reference
    /// and dropped whenever an op logs a write.
    diffs: FxHashMap<String, (Relation, Relation)>,
    /// `R@pre` per base, folded at first reference (the begin state never
    /// changes, so it is kept for the whole transaction).
    pre: FxHashMap<String, Relation>,
    stats: ExecStats,
}

impl<'a> TxContext<'a> {
    fn begin(db: &'a mut Database, stmts: &'a [Statement], params: &'a [Value]) -> TxContext<'a> {
        TxContext {
            working: db,
            params,
            stmts,
            temps: FxHashMap::default(),
            log: Vec::new(),
            diffs: FxHashMap::default(),
            pre: FxHashMap::default(),
            stats: ExecStats::default(),
        }
    }

    /// Fold the auxiliary relations named by `refs` (computed once per
    /// statement by [`statement_aux_refs`]) from the change log, so
    /// `relation_state` never has to answer for an absent entry. A fold
    /// costs the log's length; `R@pre` of an already-modified relation
    /// costs one set copy on top.
    fn ensure_aux(&mut self, refs: &[(String, AuxKind)]) {
        for (base, kind) in refs {
            // Unknown bases are left absent everywhere; the read path
            // reports the error.
            let Ok(rel) = self.working.relation(base) else {
                continue;
            };
            let cached = match kind {
                AuxKind::Pre => self.pre.contains_key(base.as_str()),
                AuxKind::Ins | AuxKind::Del => self.diffs.contains_key(base.as_str()),
            };
            if cached {
                continue;
            }
            let net = log_view(self.stmts, &self.log, Some(base));
            if *kind == AuxKind::Pre {
                let mut pre = rel.clone();
                for &(_, t, inserted) in &net {
                    if inserted {
                        pre.remove(t);
                    } else {
                        pre.insert_unchecked(t.clone());
                    }
                }
                self.pre.insert(base.clone(), pre);
                continue;
            }
            let side = |kind| {
                let schema = rel.schema().renamed(auxiliary::aux_name(base, kind));
                let mut r = Relation::empty(Arc::new(schema));
                for &(_, t, inserted) in &net {
                    if inserted == (kind == AuxKind::Ins) {
                        r.insert_unchecked(t.clone());
                    }
                }
                r
            };
            let diff = (side(AuxKind::Ins), side(AuxKind::Del));
            self.diffs.insert(base.clone(), diff);
        }
    }

    /// Execute statement `i` with the relational evaluator — the
    /// [`Op::Generic`] op; `aux` is its auxiliary-reference analysis.
    fn execute_statement(&mut self, i: usize, aux: &[(String, AuxKind)]) -> Step {
        self.ensure_aux(aux);
        let stmts = self.stmts;
        let stmt = &stmts[i];
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
            Statement::Insert { relation, source } | Statement::Delete { relation, source } => {
                let insert = matches!(stmt, Statement::Insert { .. });
                self.run(|ctx| {
                    if auxiliary::is_auxiliary(relation) {
                        return Err(AlgebraError::AuxiliaryUpdate(relation.clone()));
                    }
                    let src = evaluate(source, ctx)?;
                    // Validate every tuple before the first write (for a
                    // delete, an arity mismatch would otherwise surface as
                    // "tuple not present" under set semantics).
                    let target_schema = ctx.working.relation(relation)?.schema().clone();
                    for t in src.iter() {
                        target_schema.validate_tuple(t)?;
                    }
                    // Bulk apply: borrow the target once — one name lookup
                    // and at most one COW unshare for the whole statement
                    // (the path view refresh materialization takes too).
                    let rel = ctx.working.relation_mut(relation)?;
                    for t in src.iter() {
                        logged_write(rel, t.clone(), insert, i, &mut ctx.stats, &mut ctx.log);
                    }
                    Ok(())
                })
            }
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
                let rel = ctx.working.relation_mut(relation)?;
                for (old, _) in &pairs {
                    logged_write(rel, old.clone(), false, i, &mut ctx.stats, &mut ctx.log);
                }
                for (_, new_t) in pairs {
                    logged_write(rel, new_t, true, i, &mut ctx.stats, &mut ctx.log);
                }
                Ok(())
            }),
            Statement::Alarm(expr) => {
                self.stats.alarms_evaluated += 1;
                match evaluate(expr, self) {
                    Err(e) => Err(AbortReason::RuntimeError(e)),
                    Ok(rel) if rel.is_empty() => Ok(()),
                    Ok(rel) => {
                        self.stats.alarms_fired += 1;
                        Err(AbortReason::AlarmFired {
                            expr: expr.to_string(),
                            violations: rel.len(),
                        })
                    }
                }
            }
            Statement::Abort => Err(AbortReason::ExplicitAbort),
        }
    }

    fn run(&mut self, f: impl FnOnce(&mut TxContext) -> Result<()>) -> Step {
        f(self).map_err(AbortReason::RuntimeError)
    }

    /// Run op `op`, the compiled statement `i`. A copy or probe that does
    /// not fit the live schemas ([`Op::fits`]) runs its statement as
    /// `Generic`.
    fn run_op(&mut self, i: usize, op: &Op, scratch: &mut Vec<Value>) -> Step {
        match op {
            Op::Generic { aux } => self.execute_statement(i, aux),
            Op::Copy { .. } if !op.fits(self.working) => self.run_generic(i),
            Op::Write {
                relation,
                row,
                insert,
            } => self
                .eval_row(row)
                .and_then(|values| self.write(relation, Tuple::from_values(values), *insert, i))
                .map_err(AbortReason::RuntimeError),
            Op::Copy {
                relation,
                source,
                insert,
            } => {
                let tuples: Vec<Tuple> = log_view(self.stmts, &self.log, Some(source))
                    .into_iter()
                    .filter(|&(_, _, inserted)| inserted == *insert)
                    .map(|(_, t, _)| t.clone())
                    .collect();
                tuples
                    .into_iter()
                    .try_for_each(|t| self.write(relation, t, *insert, i))
                    .map_err(AbortReason::RuntimeError)
            }
            Op::Check {
                row,
                row_params,
                pred,
                check,
                flat,
                pred_text,
                alarm_text,
                lifted,
            } => {
                self.stats.alarms_evaluated += 1;
                // The generic path evaluates the singleton's row first;
                // keep its error ordering (e.g. an unbound parameter in
                // the row surfaces before a predicate error). A row of
                // constants and bound parameters cannot fail, so its
                // (unused) values are not materialized at all.
                if !matches!(row_params, Some(n) if self.params.len() >= *n) {
                    self.eval_row(row).map_err(AbortReason::RuntimeError)?;
                }
                let v = match flat {
                    Some(prog) => eval_flat(prog, self.params, scratch),
                    None => eval_scalar(check, no_tuple(), self),
                }
                .map_err(AbortReason::RuntimeError)?;
                let violated = v.as_bool().ok_or_else(|| {
                    AbortReason::RuntimeError(AlgebraError::NotABoolean(
                        pred_text.get(|| pred.to_string()),
                    ))
                })?;
                if !violated {
                    return Ok(());
                }
                self.stats.alarms_fired += 1;
                Err(AbortReason::AlarmFired {
                    expr: alarm_text.of_row(row, *lifted, self.params, |row| {
                        RelExpr::Singleton(row).select(pred.clone()).to_string()
                    }),
                    violations: 1,
                })
            }
            Op::Probe {
                row,
                row_params,
                relation,
                pairs,
                full_key,
                residual,
                pred,
                alarm_text,
                lifted,
            } => {
                let Some(s) = probe_target(self.working, relation, pairs) else {
                    return self.run_generic(i);
                };
                self.stats.alarms_evaluated += 1;
                // Direct path: pure distinct key equalities covering all
                // of S's columns, from an infallible row — decide by one
                // borrowed set lookup. A hit, or a miss on a well-typed
                // key, is definitive; a key value from another domain
                // falls through (cross-type compare-matches, see
                // `miss_is_definitive`).
                let params = self.params;
                let direct = *full_key
                    && matches!(row_params, Some(n) if params.len() >= *n)
                    && pairs.len() == s.schema().arity()
                    && direct_key(row, pairs, params, pairs.len(), scratch).is_some();
                let found = match direct {
                    true if s.contains_row(scratch) => true,
                    true if miss_is_definitive(scratch, s.schema()) => false,
                    _ => self
                        .eval_row(row)
                        .and_then(|values| {
                            let t = Tuple::from_values(values);
                            probe_matches(&t, s, pairs, residual.as_ref(), pred, self)
                        })
                        .map_err(AbortReason::RuntimeError)?,
                };
                if found {
                    return Ok(());
                }
                self.stats.alarms_fired += 1;
                Err(AbortReason::AlarmFired {
                    expr: alarm_text.of_row(row, *lifted, params, |row| {
                        RelExpr::Singleton(row)
                            .anti_join(RelExpr::relation(relation), pred.clone())
                            .to_string()
                    }),
                    violations: 1,
                })
            }
        }
    }

    /// Run statement `i` as `Generic` — an op that does not fit.
    fn run_generic(&mut self, i: usize) -> Step {
        self.execute_statement(i, &statement_aux_refs(&self.stmts[i]))
    }

    /// Evaluate a grounded row (no columns, no aggregates). This and
    /// [`TxContext::write`] are inlined into the driver: as out-of-line
    /// calls they cost the prepared serial workload ≈ 5 % of its
    /// throughput (2 vCPUs, ten alternating benchmark pairs).
    #[inline(always)]
    fn eval_row(&self, row: &[ScalarExpr]) -> Result<Vec<Value>> {
        let mut values = Vec::with_capacity(row.len());
        for e in row {
            values.push(eval_scalar(e, no_tuple(), self)?);
        }
        Ok(values)
    }

    /// Write one tuple into base relation `relation` for statement `i` —
    /// [`Op::Write`] and [`Op::Copy`]. The tuple is validated against the
    /// relation's schema first, as the generic `insert`/`delete` do.
    #[inline(always)]
    fn write(&mut self, relation: &str, t: Tuple, insert: bool, i: usize) -> Result<()> {
        let rel = self.working.relation_mut(relation)?;
        rel.schema().validate_tuple(&t)?;
        logged_write(rel, t, insert, i, &mut self.stats, &mut self.log);
        Ok(())
    }
}

/// What one op leaves behind: `Err` aborts the transaction.
type Step = std::result::Result<(), AbortReason>;

/// The input tuple of a grounded expression, which reads none.
fn no_tuple() -> &'static Tuple {
    static EMPTY: OnceLock<Tuple> = OnceLock::new();
    EMPTY.get_or_init(Tuple::empty)
}

/// The auxiliary relations a statement's expressions can read, as
/// `(base, kind)` pairs — the analysis a `Generic` op needs before its
/// statement runs. It is computed at [`ExecPlan::compile`] for a plan's
/// `Generic` ops, and per call for [`Executor::execute_bound`] and for an
/// op that does not fit.
fn statement_aux_refs(stmt: &Statement) -> Vec<(String, AuxKind)> {
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

/// A compiled execution plan: a transaction template, its parameter count,
/// and one op per statement, all computed once. Executing through a
/// plan ([`Executor::execute_plan`]) does no per-execution analysis of the
/// transaction — the engine's prepared-transaction surface (`txmod`)
/// builds one `ExecPlan` per prepared statement and reuses it for every
/// binding.
///
/// Each statement compiles on its own: a recognized point shape becomes a
/// point op, and anything else a `Generic` op, which the relational
/// evaluator runs over the same transaction context. A plan may therefore
/// mix both kinds — the user's set-oriented statements followed by the
/// point checks `ModT` appended, say.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    tx: Transaction,
    param_count: usize,
    ops: Vec<Op>,
}

impl ExecPlan {
    /// Compile a transaction into a plan (one walk over its statements).
    pub fn compile(tx: Transaction) -> ExecPlan {
        let param_count = tx.param_count();
        let ops = tx
            .debracket()
            .statements()
            .iter()
            .map(Op::compile)
            .collect();
        ExecPlan {
            tx,
            param_count,
            ops,
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

    /// Whether the plan is all point ops — no `Generic` op: every
    /// statement was recognized as a grounded singleton write, a
    /// compensating copy of a base relation's differential, or a
    /// specialized point check or probe, so execution touches only the
    /// rows it names or wrote — no relation clones, no folded differential
    /// relations, no derived-schema allocations. See `Op::compile` for the
    /// recognized shapes.
    pub fn is_fast(&self) -> bool {
        !self.ops.iter().any(|op| matches!(op, Op::Generic { .. }))
    }

    /// Compile the plan of a *lifted* template — an ad-hoc transaction
    /// whose constants became parameters ([`Transaction::lift_constants`]),
    /// so that one plan serves every transaction of its shape. Executing
    /// it against the lifted values answers exactly as the plan of the
    /// literal transaction would: the decisions that plan took from its
    /// constants at compile time are taken from the binding at run time.
    /// A point check over a lifted row is skipped, uncounted, when the
    /// binding proves it false (the literal plan never held it), and
    /// checks over lifted rows render their abort text from the bound
    /// row. Only point ops know these rules; store such a plan only when
    /// [`ExecPlan::runs_fast_on`] holds, so that it never runs a `Generic`
    /// op.
    pub fn compile_lifted(tx: Transaction) -> ExecPlan {
        let mut plan = ExecPlan::compile(tx);
        for op in &mut plan.ops {
            if let Op::Check { row, lifted, .. } | Op::Probe { row, lifted, .. } = op {
                *lifted = row.iter().any(|e| e.max_param().is_some());
            }
        }
        plan
    }

    /// Whether executions against `db` run point ops only: the plan is
    /// fast and every op fits `db`'s schemas (`Op::fits`). A database's
    /// schema never changes, so the answer holds for its lifetime.
    pub fn runs_fast_on(&self, db: &Database) -> bool {
        self.is_fast() && self.ops.iter().all(|op| op.fits(db))
    }

    /// Whether statement `stmt` is a point check over a lifted row that
    /// `params` proves false — a check the lifted plan skips for this
    /// binding (see [`ExecPlan::compile_lifted`]).
    pub fn check_proven_false(&self, stmt: usize, params: &[Value]) -> bool {
        self.ops.get(stmt).is_some_and(|op| op.proven_false(params))
    }
}

/// A text rendered on first use and then kept — a fast check's abort
/// rendering, which a committing execution never needs. Equality ignores
/// it: a plan is the same plan before and after its first abort.
#[derive(Debug, Clone, Default)]
struct Rendered(OnceLock<String>);

impl Rendered {
    fn get(&self, render: impl FnOnce() -> String) -> String {
        self.0.get_or_init(render).clone()
    }

    /// The abort text of a check over `row`: rendered from the plan's own
    /// row once and kept — or, for a lifted row, rendered afresh from the
    /// bound row, so the text names this execution's values, never `?i`.
    fn of_row(
        &self,
        row: &[ScalarExpr],
        lifted: bool,
        params: &[Value],
        render: impl FnOnce(Vec<ScalarExpr>) -> String,
    ) -> String {
        if lifted {
            render(row.iter().map(|e| e.bind_params(params)).collect())
        } else {
            self.get(|| render(row.to_vec()))
        }
    }
}

impl PartialEq for Rendered {
    fn eq(&self, _: &Rendered) -> bool {
        true
    }
}

/// One statement of a plan, compiled once at [`ExecPlan::compile`] — one
/// op per statement, so a change-log entry's statement index names the
/// written relation whichever op wrote it. Every op runs over the one
/// [`TxContext`]. The point ops are the compiled form of the statement
/// shapes prepare-time specialization and `ModT` emit (grounded singleton
/// writes, compensating differential copies, and `alarm` checks over a
/// single candidate row); every other statement is [`Op::Generic`].
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Any statement, evaluated by the relational evaluator over the
    /// transaction context; `aux` is its auxiliary-reference analysis
    /// ([`statement_aux_refs`]).
    Generic { aux: Vec<(String, AuxKind)> },
    /// `insert(R, ⟨e0, …, ek⟩)` (`insert`) or `delete(R, ⟨e0, …, ek⟩)` of a
    /// grounded (column-free, aggregate-free) row — or of a one-tuple
    /// literal `{t}`, compiled as the row of `t`'s values as constants.
    /// Both validate against `R` at write time, as the generic path does.
    Write {
        relation: String,
        row: Vec<ScalarExpr>,
        insert: bool,
    },
    /// `insert(T, S@ins)` (`insert`) or `delete(T, S@del)` of base
    /// relations `T` (`relation`) and `S` (`source`) — a compensating
    /// action as `ModT` appends it. The differential read is the plan's
    /// own net `S@ins`/`S@del` so far, folded from the change log by
    /// [`net_view`] exactly as a `Generic` read folds it; its tuples are
    /// written into `T` through the logged path of [`Op::Write`]. The op
    /// runs only when `T` and `S` are union-compatible ([`Op::fits`]), so
    /// no copied tuple can fail validation.
    Copy {
        relation: String,
        source: String,
        insert: bool,
    },
    /// `alarm(select[p](⟨row⟩))` — a domain check on one candidate row.
    /// `check` is `p` with every `#i` replaced by `row[i]` (the weakest
    /// precondition of the alarm over the singleton), so evaluation needs
    /// no tuple at all; `pred_text`/`alarm_text` are the generic path's
    /// error and abort renderings, rendered from `row` and `pred` by the
    /// first execution that needs them. `row_params` is `Some(n)` when
    /// the row is constants and parameters only — then row evaluation
    /// cannot fail once `n` parameters are bound and is skipped entirely
    /// (its values are unused; it is evaluated by the generic path only
    /// for error ordering).
    /// `flat` is the postfix compilation of `check` when the expression
    /// is jump-free (see [`compile_flat`]); evaluation then runs a tight
    /// loop over contiguous instructions instead of chasing `Box`ed AST
    /// nodes. `lifted` marks a row holding constants lifted out of an
    /// ad-hoc transaction ([`ExecPlan::compile_lifted`]): the check is then
    /// skipped, uncounted, whenever the binding decides `check` false
    /// ([`ScalarExpr::const_verdict`]) — the drop proof prepare-time
    /// specialization takes on the literal row — and its abort text is
    /// rendered from the bound row on every abort instead of `alarm_text`.
    Check {
        row: Vec<ScalarExpr>,
        row_params: Option<usize>,
        pred: ScalarExpr,
        check: ScalarExpr,
        flat: Option<Vec<Instr>>,
        pred_text: Rendered,
        alarm_text: Rendered,
        lifted: bool,
    },
    /// `alarm(antijoin[p](⟨row⟩, S))` — a referential check probing the
    /// live relation `S` for a partner of one candidate row. `pairs` are
    /// `(row column, S column)` equalities extracted from `p` at compile
    /// time (S's arity is unknown until execution, so they are validated
    /// against it per run); `residual` is the rest of `p`, and `pred` the
    /// original for the no-keys scan fallback. `row_params` is the
    /// infallible-row witness (see [`Op::Check`]); `full_key` records
    /// that `p` is pure distinct key equalities, so whenever the pairs
    /// also cover all of S's columns the probe is decided by one borrowed
    /// set lookup built straight from the bound parameters — no row
    /// evaluation, no tuple. `alarm_text` is rendered from `row`,
    /// `relation` and `pred` on the first miss — or, for a `lifted` row
    /// (see [`Op::Check`]), from the bound row on every miss.
    Probe {
        row: Vec<ScalarExpr>,
        row_params: Option<usize>,
        relation: String,
        pairs: Vec<(usize, usize)>,
        full_key: bool,
        residual: Option<ScalarExpr>,
        pred: ScalarExpr,
        alarm_text: Rendered,
        lifted: bool,
    },
}

/// A scalar expression a point op can evaluate without an input tuple
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

impl Op {
    /// Compile one statement: a point op when it has one of the shapes
    /// [`Op::point`] recognizes, else [`Op::Generic`].
    fn compile(stmt: &Statement) -> Op {
        Op::point(stmt).unwrap_or_else(|| Op::Generic {
            aux: statement_aux_refs(stmt),
        })
    }

    /// Recognize a statement as a point op: a grounded singleton
    /// insert/delete into a base relation, a compensating
    /// `insert(T, S@ins)` / `delete(T, S@del)` of base relations, or an
    /// `alarm` over `select[p](⟨row⟩)` / `antijoin[p](⟨row⟩, S)` with an
    /// aggregate-free predicate — exactly the shapes `ModT` and its
    /// prepare-time specializer emit. A one-tuple literal source (`{t}`,
    /// the ad-hoc form of a singleton write) counts as a grounded
    /// singleton. Anything else (temporaries, updates, other auxiliary
    /// sources or targets, multi-row sources, literals of two or more
    /// tuples, aggregates) returns `None`. A point op is *observably
    /// identical* to its statement run as `Generic` — same outcome, same
    /// statistics, same abort renderings, same commit views —
    /// which the equivalence tests below and the specialization-soundness
    /// suite pin down.
    fn point(stmt: &Statement) -> Option<Op> {
        match stmt {
            Statement::Insert { relation, source } | Statement::Delete { relation, source }
                if !auxiliary::is_auxiliary(relation) =>
            {
                let insert = matches!(stmt, Statement::Insert { .. });
                match source {
                    RelExpr::Singleton(row) if row.iter().all(grounded) => Some(Op::Write {
                        relation: relation.clone(),
                        row: row.clone(),
                        insert,
                    }),
                    // `insert(R, {t})` / `delete(R, {t})`: the statement
                    // `insert(R, row(t0, …, tk))` with constant cells.
                    RelExpr::Literal(tuples) if tuples.len() == 1 => Some(Op::Write {
                        relation: relation.clone(),
                        row: tuples[0]
                            .values()
                            .iter()
                            .cloned()
                            .map(ScalarExpr::Const)
                            .collect(),
                        insert,
                    }),
                    // `insert(T, S@ins)` / `delete(T, S@del)`.
                    RelExpr::Rel(name) => {
                        let (base, kind) = auxiliary::parse_auxiliary(name)?;
                        (kind == if insert { AuxKind::Ins } else { AuxKind::Del }).then(|| {
                            Op::Copy {
                                relation: relation.clone(),
                                source: base.to_owned(),
                                insert,
                            }
                        })
                    }
                    _ => None,
                }
            }
            Statement::Alarm(expr) => recognize_alarm(expr),
            _ => None,
        }
    }

    /// Whether the op runs as compiled against `db`'s schemas: a probe's
    /// compile-time key pairs lie within its relation's arity, and a
    /// copy's source and target are union-compatible (same arity, same
    /// column types, so each copied tuple validates against the target).
    /// An op that does not fit — a predicate referencing columns past its
    /// relation, a copy whose tuples may not fit its target, a missing
    /// relation, or a probe of a temporary — runs its statement as
    /// `Generic`, which owns those errors' renderings. Schemas never
    /// change, so the answer for a database holds for its lifetime.
    fn fits(&self, db: &Database) -> bool {
        match self {
            Op::Probe {
                relation, pairs, ..
            } => probe_target(db, relation, pairs).is_some(),
            Op::Copy {
                relation, source, ..
            } => match (db.relation(relation), db.relation(source)) {
                (Ok(t), Ok(s)) => t.schema().union_compatible(s.schema()),
                _ => false,
            },
            _ => true,
        }
    }

    /// Whether the op is a point check over a lifted row that `params`
    /// proves false — skipped, uncounted (see [`ExecPlan::compile_lifted`]).
    fn proven_false(&self, params: &[Value]) -> bool {
        matches!(self, Op::Check { lifted: true, check, .. }
            if check.const_verdict(params) == Some(false))
    }
}

/// Recognize one `alarm` argument as a point check ([`Op::Check`]) or
/// point probe ([`Op::Probe`]).
fn recognize_alarm(expr: &RelExpr) -> Option<Op> {
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
            Some(Op::Check {
                row: row.clone(),
                row_params: infallible_row_params(row),
                pred: pred.clone(),
                check,
                flat,
                pred_text: Rendered::default(),
                alarm_text: Rendered::default(),
                lifted: false,
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
            // make the op run its statement as `Generic` ([`Op::fits`]),
            // which reports the range error.
            // Without pairs the probe scans S on `pred` itself.
            let (pairs, residual) = extract_equi_keys(pred, row.len(), usize::MAX)
                .map_or((Vec::new(), None), |k| (k.pairs, k.residual));
            let full_key = residual.is_none() && !pairs.is_empty() && distinct_right(&pairs);
            Some(Op::Probe {
                row: row.clone(),
                row_params: infallible_row_params(row),
                relation: name.clone(),
                pairs,
                full_key,
                residual,
                pred: pred.clone(),
                alarm_text: Rendered::default(),
                lifted: false,
            })
        }
        _ => None,
    }
}

/// The relation a probe reads, when it exists in `db` and the probe's
/// key pairs lie within its arity — the probe half of [`Op::fits`].
fn probe_target<'d>(
    db: &'d Database,
    relation: &str,
    pairs: &[(usize, usize)],
) -> Option<&'d Relation> {
    let s = db.relation(relation).ok()?;
    let arity = s.schema().arity();
    pairs.iter().all(|&(_, j)| j < arity).then_some(s)
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
    ctx: &TxContext<'_>,
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
/// parameters — the direct path of [`Op::Probe`], reached only when
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

/// The base relation statement `idx` writes. Every change-log entry names
/// a write statement: only `insert`, `delete` and `update` log changes,
/// and ops map 1:1 to the statements they compile.
fn written(stmts: &[Statement], idx: usize) -> &str {
    match &stmts[idx] {
        Statement::Insert { relation, .. }
        | Statement::Delete { relation, .. }
        | Statement::Update { relation, .. } => relation,
        other => unreachable!("`{other}` logged a change"),
    }
}

/// Apply one change to `rel` on behalf of statement `stmt` and log it —
/// the one write path of every op. A write that changes nothing
/// (inserting a present tuple, deleting an absent one) is neither logged
/// nor counted. The caller has validated `t` against `rel`'s schema.
fn logged_write(
    rel: &mut Relation,
    t: Tuple,
    insert: bool,
    stmt: usize,
    stats: &mut ExecStats,
    log: &mut Vec<Change>,
) {
    if insert {
        if !rel.insert_unchecked(t.clone()) {
            return;
        }
        stats.tuples_inserted += 1;
    } else {
        if !rel.remove(&t) {
            return;
        }
        stats.tuples_deleted += 1;
    }
    log.push((stmt, t, insert));
}

/// Replay a change log in reverse, undoing every change — the abort,
/// O(Δ). Afterwards `db` is set-identical to its state
/// before the first logged write.
fn undo_log(db: &mut Database, stmts: &[Statement], log: &[Change]) {
    for (idx, t, was_insert) in log.iter().rev() {
        let rel = db
            .relation_mut(written(stmts, *idx))
            .expect("a logged relation existed at write time");
        if *was_insert {
            rel.remove(t);
        } else {
            rel.insert_unchecked(t.clone());
        }
    }
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
            // Every auxiliary an expression can resolve was folded by
            // `ensure_aux` before its statement started (the same walk
            // `evaluate` performs), so absence here is a bug in that
            // pre-pass. It surfaces as an abortable error — the
            // transaction rolls back through the normal path — rather
            // than a panic with the database mid-mutation.
            let found = match kind {
                AuxKind::Pre => self.pre.get(base),
                AuxKind::Ins => self.diffs.get(base).map(|(ins, _)| ins),
                AuxKind::Del => self.diffs.get(base).map(|(_, del)| del),
            };
            return found.ok_or_else(|| {
                AlgebraError::Internal(format!("auxiliary `{name}` read before materialization"))
            });
        }
        Ok(self.working.relation(name)?)
    }

    fn param(&self, i: usize) -> Option<&Value> {
        self.params.get(i)
    }
}

/// The net view ([`net_view`]) of a change log, or of its entries for
/// relation `only` — the one fold behind a commit hook, a `Generic` op's
/// `R@ins`/`R@del`/`R@pre`, and [`Op::Copy`]'s read mid-plan.
fn log_view<'s>(
    stmts: &'s [Statement],
    log: &'s [Change],
    only: Option<&str>,
) -> Vec<NetChange<'s>> {
    net_view(
        log.iter()
            .map(|(idx, t, inserted)| (written(stmts, *idx), t, *inserted))
            .filter(|(relation, _, _)| only.is_none_or(|o| o == *relation)),
    )
}

/// A commit hook: handed a committing transaction's net view
/// ([`net_view`]) before the end bracket closes. An `Err` undoes the
/// transaction through the change log, as an abort is undone, and is
/// returned to the caller in place of the outcome.
pub type OnCommit<'h, E> = &'h mut dyn FnMut(&[NetChange<'_>]) -> std::result::Result<(), E>;

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
    /// This runs every statement as `Generic` — no compiled plan, no point
    /// ops — and as such is the reference the plan executions are tested
    /// against. It shares the driver of [`Executor::execute_plan`].
    pub fn execute_bound(
        &self,
        db: &mut Database,
        tx: &Transaction,
        params: &[Value],
    ) -> TxOutcome {
        let stmts = tx.debracket().statements();
        let Ok(outcome) = run_ops::<Infallible>(db, stmts, &generic_ops(stmts), params, None, None);
        outcome
    }

    /// Execute a compiled [`ExecPlan`] against a parameter binding. Same
    /// semantics as [`Executor::execute_bound`] on the plan's template,
    /// but the per-statement analysis was paid once at compile time, and
    /// point ops skip the relational evaluator: writes go straight to the
    /// live relations under the same change log, checks evaluate as point
    /// probes. A plan with `Generic` ops runs them over the same context,
    /// statement by statement. Never reads the clock.
    pub fn execute_plan(&self, db: &mut Database, plan: &ExecPlan, params: &[Value]) -> TxOutcome {
        let Ok(outcome) =
            self.execute_plan_instrumented::<Infallible>(db, plan, params, None, None);
        outcome
    }

    /// [`Executor::execute_plan`], fully optioned: a commit hook and
    /// per-check wall-clock instrumentation, both opt-in.
    ///
    /// When `on_commit` is supplied, a committing execution hands it the
    /// transaction's net view ([`net_view`]: sorted by relation name and
    /// tuple order, folded from the change log that also backs rollback
    /// and the auxiliary relations, whichever ops wrote it) before the
    /// bracket closes — the durable engine appends its WAL frame there.
    /// When the hook fails, the transaction is undone through the change
    /// log, as an abort is, and the hook's error is returned. An aborted
    /// transaction never reaches the hook (its net effect is empty by
    /// atomicity).
    ///
    /// When `timings` is supplied, every check (`alarm` statement, whether
    /// a point op or `Generic`) evaluated at or past `timings.first`
    /// appends its elapsed nanoseconds to `timings.ns` in execution order —
    /// including the check that aborts the transaction.
    pub fn execute_plan_instrumented<E>(
        &self,
        db: &mut Database,
        plan: &ExecPlan,
        params: &[Value],
        on_commit: Option<OnCommit<'_, E>>,
        timings: Option<&mut CheckTimings>,
    ) -> std::result::Result<TxOutcome, E> {
        let stmts = plan.tx.debracket().statements();
        run_ops(db, stmts, &plan.ops, params, on_commit, timings)
    }
}

/// The all-`Generic` ops of `stmts` — the plan [`Executor::execute_bound`]
/// runs.
fn generic_ops(stmts: &[Statement]) -> Vec<Op> {
    stmts
        .iter()
        .map(|stmt| Op::Generic {
            aux: statement_aux_refs(stmt),
        })
        .collect()
}

/// The one driver: run `ops`, the compiled `stmts` (one op each), over one
/// transaction context, then close the bracket. After any op that logs a
/// write, the folded `R@ins` / `R@del` are dropped, so a later `Generic`
/// read re-folds them whichever op wrote.
fn run_ops<E>(
    db: &mut Database,
    stmts: &[Statement],
    ops: &[Op],
    params: &[Value],
    on_commit: Option<OnCommit<'_, E>>,
    mut timings: Option<&mut CheckTimings>,
) -> std::result::Result<TxOutcome, E> {
    let mut ctx = TxContext::begin(db, stmts, params);
    // Operand stack reused across every flat check and probe key.
    let mut scratch: Vec<Value> = Vec::new();
    let mut step = Ok(());
    for (i, op) in ops.iter().enumerate() {
        if op.proven_false(params) {
            continue; // the literal plan dropped this check
        }
        ctx.stats.statements += 1;
        let clock = match &timings {
            Some(t) if i >= t.first && matches!(stmts[i], Statement::Alarm(_)) => {
                Some(Instant::now())
            }
            _ => None,
        };
        let logged = ctx.log.len();
        step = ctx.run_op(i, op, &mut scratch);
        if ctx.log.len() != logged {
            ctx.diffs.clear();
        }
        if let (Some(t0), Some(t)) = (clock, timings.as_deref_mut()) {
            t.ns.push(t0.elapsed().as_nanos() as u64);
        }
        if step.is_err() {
            break;
        }
    }
    // Temporaries and folded auxiliaries die with the context.
    end_bracket(ctx.working, stmts, &ctx.log, ctx.stats, step, on_commit)
}

/// The end bracket of [`run_ops`]. On abort the change log is replayed
/// in reverse, re-installing `D^t` as `D^{t+1}`; on commit the mutated
/// working state already is `[D^{t,n}]`, and the commit hook, when
/// installed, reads the log's net view first — a failing hook undoes the
/// transaction by the same reverse replay. The logical clock advances
/// either way.
fn end_bracket<E>(
    db: &mut Database,
    stmts: &[Statement],
    log: &[Change],
    stats: ExecStats,
    step: std::result::Result<(), AbortReason>,
    on_commit: Option<OnCommit<'_, E>>,
) -> std::result::Result<TxOutcome, E> {
    let outcome = match step {
        Err(reason) => Ok(TxOutcome::Aborted { reason, stats }),
        Ok(()) => match on_commit {
            Some(hook) => hook(&log_view(stmts, log, None)).map(|()| TxOutcome::Committed(stats)),
            None => Ok(TxOutcome::Committed(stats)),
        },
    };
    if !matches!(outcome, Ok(TxOutcome::Committed(_))) {
        undo_log(db, stmts, log);
    }
    db.tick();
    outcome
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

    /// A commit hook that keeps an owned copy of the net view it is handed.
    fn capture(
        out: &mut Vec<(String, Tuple, bool)>,
    ) -> impl FnMut(&[NetChange<'_>]) -> std::result::Result<(), Infallible> + '_ {
        |net| {
            out.extend(net.iter().map(|&(r, t, i)| (r.to_owned(), t.clone(), i)));
            Ok(())
        }
    }

    /// Execute `tx` through its compiled plan and through the all-`Generic`
    /// reference on twin databases; the outcomes (verdict, abort text,
    /// `ExecStats`), commit views, timed checks, final states and
    /// logical clocks must be indistinguishable. The plan runs twice, each
    /// time on a fresh database, so an abort rendering cached by the first
    /// run is checked against the reference too. Returns the reference
    /// outcome.
    fn assert_plan_equals_generic(
        mk: impl Fn() -> Database,
        tx: &Transaction,
        params: &[Value],
    ) -> TxOutcome {
        let plan = ExecPlan::compile(tx.clone());
        let stmts = tx.debracket().statements();
        let timed = || CheckTimings::default();
        let (mut generic, mut generic_deltas, mut generic_timed) = (mk(), Vec::new(), timed());
        let Ok(out_generic) = run_ops::<Infallible>(
            &mut generic,
            stmts,
            &generic_ops(stmts),
            params,
            Some(&mut capture(&mut generic_deltas)),
            Some(&mut generic_timed),
        );
        for run in ["first", "second"] {
            let (mut via_plan, mut plan_deltas, mut plan_timed) = (mk(), Vec::new(), timed());
            let Ok(out_plan) = Executor.execute_plan_instrumented::<Infallible>(
                &mut via_plan,
                &plan,
                params,
                Some(&mut capture(&mut plan_deltas)),
                Some(&mut plan_timed),
            );
            assert_eq!(
                out_plan, out_generic,
                "{run} run: outcome diverged for {tx}"
            );
            assert_eq!(
                plan_deltas, generic_deltas,
                "{run} run: commit view diverged for {tx}"
            );
            assert_eq!(
                plan_timed.ns.len(),
                generic_timed.ns.len(),
                "{run} run: timed checks diverged for {tx}"
            );
            assert!(
                via_plan.state_eq(&generic),
                "{run} run: state diverged for {tx}"
            );
            assert_eq!(via_plan.logical_time(), generic.logical_time());
        }
        out_generic
    }

    /// [`assert_plan_equals_generic`] for a plan of point ops only.
    fn assert_fast_equals_generic(
        mk: impl Fn() -> Database,
        tx: &Transaction,
        params: &[Value],
    ) -> TxOutcome {
        assert!(
            ExecPlan::compile(tx.clone()).is_fast(),
            "plan unexpectedly generic: {tx}"
        );
        assert_plan_equals_generic(mk, tx, params)
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

    /// `insert(relation, {t, …})` / `delete(relation, {t, …})`.
    fn literal(insert: bool, relation: &str, tuples: Vec<Tuple>) -> Statement {
        write(insert, relation, RelExpr::Literal(tuples))
    }

    #[test]
    fn fast_literal_write_inserts_and_deletes_one_tuple() {
        let tx = Program::new(vec![literal(true, "r", vec![Tuple::of((2, "two"))])]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(out.stats().tuples_inserted, 1);
        let tx = Program::new(vec![literal(false, "r", vec![Tuple::of((1, "one"))])]).bracket();
        let out = assert_fast_equals_generic(db, &tx, &[]);
        assert!(out.is_committed(), "{out:?}");
        assert_eq!(out.stats().tuples_deleted, 1);
    }

    #[test]
    fn fast_literal_duplicate_insert_and_absent_delete_are_no_ops() {
        for stmt in [
            literal(true, "r", vec![Tuple::of((1, "one"))]),
            literal(false, "r", vec![Tuple::of((9, "nine"))]),
        ] {
            let out = assert_fast_equals_generic(db, &Program::new(vec![stmt]).bracket(), &[]);
            assert_eq!(
                out,
                TxOutcome::Committed(ExecStats {
                    statements: 1,
                    ..ExecStats::default()
                })
            );
        }
    }

    #[test]
    fn fast_literal_write_is_rolled_back_by_a_failing_check_or_probe() {
        let row = || singleton(vec![ScalarExpr::int(11)]);
        // 11 has no partner in p: the point probe fires.
        let probe =
            Statement::Alarm(row().anti_join(RelExpr::relation("p"), ScalarExpr::col_eq(0, 1)));
        // 11 > 0: the point check fires.
        let check = Statement::Alarm(row().select(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(0),
            ScalarExpr::int(0),
        )));
        for (alarm, shape) in [(probe, "antijoin"), (check, "select")] {
            let tx =
                Program::new(vec![literal(true, "s", vec![Tuple::of((11,))]), alarm]).bracket();
            match assert_fast_equals_generic(db, &tx, &[]) {
                TxOutcome::Aborted {
                    reason:
                        AbortReason::AlarmFired {
                            expr,
                            violations: 1,
                        },
                    stats,
                } => {
                    assert!(expr.starts_with(shape), "generic rendering: {expr}");
                    assert_eq!((stats.tuples_inserted, stats.alarms_fired), (1, 1));
                }
                other => panic!("expected alarm abort, got {other:?}"),
            }
            let mut d = db();
            Executor.execute_plan(&mut d, &ExecPlan::compile(tx), &[]);
            assert!(d.state_eq(&db()), "the literal insert is undone");
        }
    }

    #[test]
    fn fast_literal_write_of_a_null_cell() {
        let t = Tuple::from_values(vec![Value::Int(3), Value::Null]);
        let out = assert_fast_equals_generic(
            db,
            &Program::new(vec![literal(true, "r", vec![t])]).bracket(),
            &[],
        );
        assert!(out.is_committed(), "{out:?}");
    }

    #[test]
    fn fast_literal_write_errors_are_the_generic_errors() {
        for (relation, t) in [
            ("s", Tuple::of((1, 2))), // wrong arity
            ("s", Tuple::of(("x",))), // wrong type
            ("nowhere", Tuple::of((1,))),
        ] {
            for insert in [true, false] {
                let tx = Program::new(vec![
                    literal(true, "s", vec![Tuple::of((42,))]),
                    literal(insert, relation, vec![t.clone()]),
                ])
                .bracket();
                let out = assert_fast_equals_generic(db, &tx, &[]);
                assert!(
                    matches!(
                        out,
                        TxOutcome::Aborted {
                            reason: AbortReason::RuntimeError(AlgebraError::Relational(_)),
                            ..
                        }
                    ),
                    "{tx}: {out:?}"
                );
            }
        }
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
        // One-tuple literal writes, the ad-hoc form of a singleton: fast.
        let tx = Program::new(vec![
            literal(true, "r", vec![Tuple::of((2, "two"))]),
            literal(false, "r", vec![Tuple::of((1, "one"))]),
        ])
        .bracket();
        assert!(ExecPlan::compile(tx).is_fast());

        // Any other statement shape falls back to the generic path.
        for tx in [
            // Literals of two or more tuples (or none), and literal writes
            // into an auxiliary relation.
            Program::new(vec![literal(
                true,
                "r",
                vec![Tuple::of((2, "two")), Tuple::of((3, "three"))],
            )]),
            Program::new(vec![literal(false, "s", vec![])]),
            Program::new(vec![literal(true, "r@ins", vec![Tuple::of((1, "x"))])]),
            Program::new(vec![literal(false, "r@del", vec![Tuple::of((1, "x"))])]),
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
        // arity 1 (concat arity 2): the probe op does not fit s, so that
        // one op runs its statement as `Generic`, which reports its usual
        // range error.
        let tx = Program::new(vec![Statement::Alarm(
            singleton(vec![ScalarExpr::param(0)])
                .anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 5)),
        )])
        .bracket();
        let plan = ExecPlan::compile(tx.clone());
        assert!(plan.is_fast());
        assert!(!plan.runs_fast_on(&db()));
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
        // type: the copy op does not fit, so it runs its statement as
        // `Generic` — after the point write before it — and aborts with
        // the generic error…
        let copy_into =
            |target| Program::new(vec![write_p(true), copy(true, target, "p@ins")]).bracket();
        for target in ["r", "d"] {
            assert!(!ExecPlan::compile(copy_into(target)).runs_fast_on(&db()));
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

    /// The op kinds of a compiled plan, in statement order.
    fn op_kinds(plan: &ExecPlan) -> Vec<&'static str> {
        plan.ops
            .iter()
            .map(|op| match op {
                Op::Generic { .. } => "Generic",
                Op::Write { .. } => "Write",
                Op::Copy { .. } => "Copy",
                Op::Check { .. } => "Check",
                Op::Probe { .. } => "Probe",
            })
            .collect()
    }

    /// `alarm(select[#0 op c](relation))` — a check over a whole
    /// (auxiliary) relation, which only a `Generic` op evaluates.
    fn alarm_over(relation: &str, op: CmpOp, c: ScalarExpr) -> Statement {
        Statement::Alarm(RelExpr::relation(relation).select(ScalarExpr::cmp(
            op,
            ScalarExpr::col(0),
            c,
        )))
    }

    #[test]
    fn mixed_plans_equal_the_generic_reference() {
        let probe_of = |relation: &str, s_col: usize| {
            Statement::Alarm(
                singleton(vec![ScalarExpr::param(0)])
                    .anti_join(RelExpr::relation(relation), ScalarExpr::col_eq(0, s_col)),
            )
        };
        /// (statements, op kinds, [(?0, commits)]).
        type Case = (Vec<Statement>, Vec<&'static str>, Vec<(i64, bool)>);
        let cases: Vec<Case> = vec![
            // A point write between `Generic` reads of `p@ins`: the first
            // read folds `p@ins` before the write, so the second sees the
            // write only if the write dropped that fold. `p@pre` is the
            // begin state throughout.
            (
                vec![
                    alarm_over("p@ins", CmpOp::Lt, ScalarExpr::int(0)),
                    write_p(true),
                    alarm_over("p@ins", CmpOp::Lt, ScalarExpr::int(0)),
                    alarm_over("p@pre", CmpOp::Eq, ScalarExpr::param(0)),
                ],
                vec!["Generic", "Write", "Generic", "Generic"],
                vec![(7, true), (-1, false), (10, false), (30, false)],
            ),
            // A temporary, then a probe of it: the probe does not fit the
            // database (no relation `t`), so it runs as `Generic` over
            // the temporaries.
            (
                vec![
                    Statement::Assign {
                        target: "t".into(),
                        expr: RelExpr::relation("p").select(ScalarExpr::cmp(
                            CmpOp::Gt,
                            ScalarExpr::col(0),
                            ScalarExpr::int(15),
                        )),
                    },
                    write(true, "s", singleton(vec![ScalarExpr::param(0)])),
                    probe_of("t", 1),
                ],
                vec!["Generic", "Write", "Probe"],
                vec![(30, true), (7, false), (10, false)],
            ),
            // An update, a `Generic` read of `m@ins`, then point copies
            // of the update's `p@ins` / `p@del` into `m` and a second
            // read of `m@ins`, which must see the copies.
            (
                vec![
                    Statement::Update {
                        relation: "p".into(),
                        pred: ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::col(0), ScalarExpr::param(0)),
                        set: vec![crate::program::UpdateAssignment::new(
                            0,
                            ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(0), ScalarExpr::int(1)),
                        )],
                    },
                    alarm_over("m@ins", CmpOp::Ge, ScalarExpr::int(31)),
                    copy(true, "m", "p@ins"),
                    copy(false, "m", "p@del"),
                    alarm_over("m@ins", CmpOp::Ge, ScalarExpr::int(31)),
                ],
                vec!["Generic", "Generic", "Copy", "Copy", "Generic"],
                vec![(10, true), (30, false), (19, true)],
            ),
            // A literal of two tuples between two point writes, and
            // `Generic` reads of `s@del` before and after the second.
            (
                vec![
                    write(true, "s", singleton(vec![ScalarExpr::param(0)])),
                    literal(true, "s", vec![Tuple::of((1,)), Tuple::of((2,))]),
                    alarm_over("s@del", CmpOp::Eq, ScalarExpr::param(0)),
                    literal(false, "s", vec![Tuple::of((10,))]),
                    alarm_over("s@del", CmpOp::Eq, ScalarExpr::param(0)),
                ],
                vec!["Write", "Generic", "Generic", "Write", "Generic"],
                vec![(7, true), (10, false), (2, true)],
            ),
            // A point write, then a probe whose key lies past s's arity:
            // the probe runs as `Generic`, its range error aborts, and the
            // abort undoes the write.
            (
                vec![
                    write(true, "s", singleton(vec![ScalarExpr::param(0)])),
                    probe_of("s", 5),
                ],
                vec!["Write", "Probe"],
                vec![(7, false)],
            ),
        ];
        for (stmts, kinds, values) in cases {
            let tx = Program::new(stmts).bracket();
            let plan = ExecPlan::compile(tx.clone());
            assert_eq!(op_kinds(&plan), kinds, "{tx}");
            assert!(!plan.runs_fast_on(&db()), "{tx}");
            for (v, commits) in values {
                let out = assert_plan_equals_generic(db, &tx, &[Value::Int(v)]);
                assert_eq!(out.is_committed(), commits, "{tx} with {v}: {out:?}");
                if !commits {
                    let mut d = db();
                    Executor.execute_plan(&mut d, &plan, &[Value::Int(v)]);
                    assert!(d.state_eq(&db()), "{tx} with {v}: not undone");
                }
            }
        }
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
