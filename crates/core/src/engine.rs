//! The integrated transaction modification engine.
//!
//! [`Engine`] owns a database state, an integrity [`Catalog`], and an
//! [`EngineConfig`]; every transaction submitted through
//! [`Engine::execute`] or [`Engine::execute_bound`] passes through `ModT`
//! (per the configured [`EnforcementMode`]) into a [`Prepared`] plan, and
//! every plan reaches the database through the one `run_plan` on the
//! main-memory executor of `tm-algebra`. Plans meant to be reused live in
//! the engine's one statement table ([`Engine::store_statement`]), keyed
//! by [`StatementId`]; ad-hoc point transactions reuse one plan per shape
//! from a table of their own (see [`Engine::execute`]).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use tm_algebra::{evaluate, CheckTimings, Executor, OnCommit, RelExpr, Transaction, TxOutcome};
use tm_analyze::AnalysisReport;
use tm_calculus::parse_formula;
use tm_durable::{Durability, DurabilityConfig, WalRecord};
use tm_relational::{Database, DatabaseSchema, NetChange, Relation, Tuple, Value};
use tm_rules::{parse_rule, IntegrityRule, RuleAction, ValidationReport};

use crate::catalog::Catalog;
use crate::durability::DurableState;
use crate::error::{EngineError, Result};
use crate::modify::{mod_t_with, CheckSummary, ModContext, ModificationReport};
use crate::prepared::{BoundTransaction, Prepared, Session, StatementId};
use crate::shapes::ShapeCache;
use crate::views::ViewDef;

/// How (and whether) integrity is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnforcementMode {
    /// No modification — transactions run as submitted. (Baseline; an
    /// integrity-free DBMS.)
    Off,
    /// Rules are compiled once at definition time into integrity programs
    /// (Definition 6.3) and concatenated at enforcement time
    /// (Algorithm 6.2). The paper's recommended configuration. It appends
    /// what Algorithm 5.1's enforcement-time translation would append,
    /// without translating per transaction.
    #[default]
    Static,
    /// Like `Static`, with per-trigger differential-relation
    /// specializations (§5.2.1/\[7\]): checks touch only `R@ins`/`R@del`
    /// where the condition's shape allows.
    Differential,
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Enforcement mode (default: `Static`).
    pub mode: EnforcementMode,
    /// Admit rule sets whose triggering graph has cycles (Definition 6.1).
    /// The modification fixpoint is then only guarded by `max_rounds`.
    pub allow_cycles: bool,
    /// Round budget for the `ModP` recursion.
    pub max_rounds: usize,
    /// Specialize appended checks against the transaction template
    /// (weakest-precondition pruning + point-probe reduction; default
    /// `true`). Disable to append every selected rule's generic check.
    /// `false` is not a neutral baseline: for a rule whose `WHEN` is
    /// narrower than its condition, a non-triggering write can falsify
    /// the condition, and then the generic check (which re-reads the
    /// whole relation) aborts a transaction that the specialized check
    /// (which reads the triggering rows) commits. ROADMAP item 12 decides
    /// which meaning such a rule has; for a rule whose triggers cover its
    /// condition the two agree (`specialization_soundness`).
    pub specialize: bool,
    /// Durability knobs (commit logging level, group commit, automatic
    /// checkpointing). Only consulted once durability is attached via
    /// [`Engine::make_durable`] / [`Engine::recover`]; a plain in-memory
    /// engine ignores them.
    pub durability: DurabilityConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: EnforcementMode::Static,
            allow_cycles: false,
            max_rounds: 32,
            specialize: true,
            durability: DurabilityConfig::default(),
        }
    }
}

/// The result of executing one transaction through the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// The executor's verdict (committed or aborted, with statistics).
    pub outcome: TxOutcome,
    /// The transaction as actually executed, when `ModT` changed it and
    /// nobody retains the plan that ran: an ad-hoc [`Engine::execute`]
    /// that prepared its own plan, or an [`Engine::execute_bound`] whose
    /// caller-held plan had gone stale. `None` means the submitted
    /// transaction ran verbatim (`Off` mode, or nothing was appended)
    /// **or** the plan that ran is retained — by the caller, its session,
    /// or the engine's ad-hoc shape table (an ad-hoc execution that
    /// reused its shape's plan); inspect a retained plan via
    /// [`crate::prepared::Prepared::transaction`] instead.
    pub modified: Option<Transaction>,
    /// The `ModT` record of the plan, when **this execution** prepared it
    /// — an ad-hoc transaction's own plan, or the replacement of a stale
    /// one (in `Off` mode an empty record: nothing was selected).
    /// `None` for an execution that reused a plan — prepared, or an
    /// ad-hoc shape's: its modification happened once, when the plan was
    /// prepared ([`crate::prepared::Prepared::modification`]).
    pub modification: Option<Arc<ModificationReport>>,
    /// Whether this execution ran a plan prepared by an earlier call,
    /// without re-running `ModT`. For ad-hoc [`Engine::execute`], `true`
    /// exactly when the call reused the plan of its transaction's shape —
    /// never on the first transaction of a shape in a catalog epoch, nor
    /// for a transaction with no point shape; for a prepared execution,
    /// `true` unless the plan had gone stale and was re-modified for this
    /// call.
    pub reused_plan: bool,
    /// Rule-check accounting of the plan this execution ran: rules
    /// skipped (untriggered or dropped with a weakest-precondition
    /// proof), reduced to point probes, and evaluated generically. For a
    /// reused prepared plan these are the prepare-time counts; for an
    /// ad-hoc shape's plan, the counts of the literal transaction's own
    /// plan; for `Off` mode, all zeros.
    pub checks: CheckSummary,
    /// Wall-clock nanoseconds of each rule check this execution ran, in
    /// plan order — one entry per appended check statement reached,
    /// whether it ran as a point op or `Generic`. Empty unless
    /// per-check timing is enabled ([`Engine::set_check_timing`]) — on
    /// every surface alike, ad-hoc executions included; attribute entries
    /// to rules by zipping against the `timed` counts of the plan's
    /// decisions ([`crate::Prepared::modification`]). An aborting check
    /// records its time before the abort unwinds.
    pub check_times_ns: Vec<u64>,
    /// The `ModT` record of the stored statement that ran — its
    /// decisions' `timed` counts are the key to
    /// [`EngineOutcome::check_times_ns`] — shared with the statement
    /// table. Set only for executions of a stored statement
    /// ([`Engine::execute_statement`], a concurrent session's batches)
    /// with per-check timing on, so untimed executions pay no refcount.
    pub rule_checks: Option<Arc<ModificationReport>>,
}

impl EngineOutcome {
    /// Whether the transaction committed.
    pub fn committed(&self) -> bool {
        self.outcome.is_committed()
    }

    /// The modified transaction, or `None` when the submitted transaction
    /// ran unchanged.
    pub fn modified_transaction(&self) -> Option<&Transaction> {
        self.modified.as_ref()
    }
}

impl fmt::Display for EngineOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.outcome {
            TxOutcome::Committed(_) => write!(f, "committed")?,
            TxOutcome::Aborted { reason, .. } => write!(f, "aborted: {reason}")?,
        }
        let none = ModificationReport::default();
        let m = self.modification.as_deref().unwrap_or(&none);
        write!(
            f,
            " ({} rounds, {} rules fired, {} statements appended)",
            m.rounds,
            m.rules_fired().len(),
            m.statements_appended()
        )
    }
}

/// The transaction modification engine: database + catalog + config.
#[derive(Debug)]
pub struct Engine {
    db: Database,
    catalog: Catalog,
    config: EngineConfig,
    views: Vec<ViewDef>,
    /// Monotonic stamp of the rule catalog: bumped on every catalog
    /// change, recorded by [`Engine::prepare`] into each plan, checked at
    /// prepared execution for stale-plan safety.
    epoch: u64,
    /// Attached durability (WAL + checkpoint directory), when any.
    durable: Option<Box<DurableState>>,
    /// Record per-check wall-clock time into
    /// [`EngineOutcome::check_times_ns`]. Deliberately **not** part of
    /// [`EngineConfig`] — the config is encoded into checkpoints, and
    /// timing is an observability toggle of the running process, not a
    /// semantic property of the database. Off by default: the hot prepared
    /// path stays free of `Instant` calls unless asked.
    time_checks: bool,
    /// The statement table: every stored plan, indexed by
    /// [`StatementId`]. Not persisted — [`Engine::recover`] starts empty.
    statements: Vec<Prepared>,
    /// The ad-hoc plan cache: one plan per lifted point-transaction shape,
    /// for the current catalog epoch ([`Engine::execute`]). Not persisted
    /// and not cloned.
    shapes: ShapeCache,
}

impl Clone for Engine {
    /// Clones share no durability: the WAL file handle belongs to exactly
    /// one engine, so the clone is a plain in-memory copy (the usual use
    /// is a never-crashed "twin" for equivalence checks). Attach its own
    /// directory via [`Engine::make_durable`] if the clone must persist.
    /// The statement table is copied: ids valid here are valid there. The
    /// ad-hoc shape table is not — it is a cache, and the clone fills its
    /// own.
    fn clone(&self) -> Engine {
        Engine {
            db: self.db.clone(),
            catalog: self.catalog.clone(),
            config: self.config.clone(),
            views: self.views.clone(),
            epoch: self.epoch,
            durable: None,
            time_checks: self.time_checks,
            statements: self.statements.clone(),
            shapes: ShapeCache::default(),
        }
    }
}

impl Engine {
    /// Create an engine over a schema with the default (Static) config.
    pub fn new(schema: DatabaseSchema) -> Engine {
        Engine::with_config(schema, EngineConfig::default())
    }

    /// Create an engine with an explicit configuration.
    pub fn with_config(schema: DatabaseSchema, config: EngineConfig) -> Engine {
        let shared = schema.into_shared();
        Engine {
            db: Database::new(shared.clone()),
            catalog: Catalog::new(shared),
            config,
            views: Vec::new(),
            epoch: 0,
            durable: None,
            time_checks: false,
            statements: Vec::new(),
            shapes: ShapeCache::default(),
        }
    }

    /// Enable or disable per-check wall-clock timing: when on, every
    /// execution fills [`EngineOutcome::check_times_ns`] with one sample
    /// per rule check reached. Off by default — each sample costs two
    /// monotonic-clock reads, which a microbenchmark-grade hot path
    /// notices. The flag is process-local observability state and is not
    /// persisted in checkpoints.
    pub fn set_check_timing(&mut self, on: bool) {
        self.time_checks = on;
    }

    /// Whether per-check timing is enabled ([`Engine::set_check_timing`]).
    pub fn check_timing(&self) -> bool {
        self.time_checks
    }

    /// The current database state.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Internal mutable database access (recovery replay and durability
    /// rollback paths).
    pub(crate) fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The registered materialized views, in definition order.
    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    pub(crate) fn durable(&self) -> &Option<Box<DurableState>> {
        &self.durable
    }

    pub(crate) fn durable_mut(&mut self) -> &mut Option<Box<DurableState>> {
        &mut self.durable
    }

    pub(crate) fn set_durable(&mut self, durable: Option<Box<DurableState>>) {
        self.durable = durable;
    }

    /// The integrity catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access to the engine configuration. Changing the
    /// enforcement mode or the `specialize` switch affects only future
    /// modifications; already-prepared plans keep executing as compiled
    /// until the catalog epoch moves. The ad-hoc shape table is emptied:
    /// ad-hoc transactions always run under the present configuration.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        self.shapes.clear();
        &mut self.config
    }

    /// Bulk-load tuples into a relation, bypassing integrity enforcement
    /// (initial database population; the paper's §7 experiments load the
    /// test database this way before measuring constraint checks). Loads
    /// through [`Database::extend`]: one relation lookup and at most one
    /// COW unshare for the whole batch.
    ///
    /// Under attached durability the whole batch is logged as a **single**
    /// WAL record — one frame, one fsync — after the in-memory extend
    /// succeeded; a logging failure rolls the batch back out again.
    pub fn load(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<usize> {
        if !self.wal_active() {
            let n = self.db.extend(relation, tuples)?;
            if n > 0 {
                // Loads advance the logical clock like any other state
                // transition, as the logged path below does.
                self.db.tick();
            }
            return Ok(n);
        }
        // Track what was *actually* inserted, not the input batch:
        // relations are sets, so tuples already present were not inserted
        // by this load — unapplying the whole batch on failure would
        // silently delete pre-existing committed rows.
        let inserted = self.db.extend_returning(relation, tuples)?;
        let n = inserted.len();
        if n == 0 {
            return Ok(0); // nothing to make durable
        }
        if let Err(e) = self.wal_log(&WalRecord::Load {
            relation: relation.to_owned(),
            tuples: inserted.clone(),
        }) {
            let undo = tm_relational::RelationDelta {
                relation: relation.to_owned(),
                inserted,
                deleted: Vec::new(),
            };
            let _ = undo.unapply(&mut self.db);
            return Err(e);
        }
        self.db.tick();
        self.checkpoint_if_due();
        Ok(n)
    }

    /// Add a parsed integrity rule. The rule is compiled immediately and
    /// folded into the catalog's static analysis; unless
    /// [`EngineConfig::allow_cycles`] is set, a rule set whose *refined*
    /// triggering graph becomes cyclic is rejected and the rule removed.
    /// (Syntactic cycles that semantic refinement proves false — every
    /// cycle edge carries a proof that its source action cannot violate
    /// its target condition — are admitted: the catalog stays certified
    /// terminating.)
    ///
    /// Under `Static` and `Differential` enforcement an aborting rule's
    /// compiled violation query is also evaluated once on the current
    /// state, as [`Engine::check_state`] does: a state that already
    /// violates the rule rejects it with [`EngineError::StateViolation`]
    /// (an evaluation failure with [`EngineError::Eval`]), leaving the
    /// catalog, the plan epoch and the WAL as they were. `Off` admits it
    /// unchecked.
    pub fn add_rule(&mut self, rule: IntegrityRule) -> Result<()> {
        let record = self.wal_active().then(|| WalRecord::AddRule {
            name: rule.name.clone(),
            text: rule.canonical_text(),
        });
        let name = rule.name.clone();
        self.admit_rule(rule, self.config.mode != EnforcementMode::Off)?;
        if let Some(record) = record {
            if let Err(e) = self.wal_append(&record) {
                // Keep memory and disk in agreement: an unlogged rule
                // must not stay in the catalog.
                self.catalog.remove_rule(&name);
                self.epoch += 1;
                return Err(e);
            }
        }
        Ok(())
    }

    /// [`Engine::add_rule`] without WAL logging and without evaluating
    /// the rule on the current state — the recovery replay path (the log
    /// already holds the record being replayed) and the internal half of
    /// logged operations.
    pub(crate) fn add_rule_unlogged(&mut self, rule: IntegrityRule) -> Result<()> {
        self.admit_rule(rule, false)
    }

    /// Add `rule` to the catalog, unless the refined triggering graph
    /// turns cyclic (and cycles are not allowed) or, with `check`, the
    /// current state violates it ([`Engine::holds_now`]): then the rule
    /// is removed again and the plan epoch stays where it was.
    fn admit_rule(&mut self, rule: IntegrityRule, check: bool) -> Result<()> {
        let name = rule.name.clone();
        self.catalog.add_rule(rule)?;
        let refined = self.catalog.analysis().refined_cycles();
        let admitted = if !self.config.allow_cycles && !refined.is_empty() {
            Err(EngineError::TriggeringCycle(refined.to_vec()))
        } else if check {
            self.holds_now(&name)
        } else {
            Ok(())
        };
        if let Err(e) = admitted {
            self.catalog.remove_rule(&name);
            return Err(e);
        }
        // The catalog changed: plans prepared before this point are stale.
        self.epoch += 1;
        Ok(())
    }

    /// Evaluate catalog rule `name`'s compiled violation query on the
    /// current state, as [`Engine::check_state`] does, when the rule
    /// aborts. One evaluation gives the verdict and the witness: a
    /// violation names the query's smallest tuple — one tuple, the same
    /// for equal states.
    fn holds_now(&self, name: &str) -> Result<()> {
        let Some((_, query)) = self.catalog.violation_queries().find(|(n, _)| *n == name) else {
            return Ok(());
        };
        match self.violations(query)?.iter().min() {
            None => Ok(()),
            witness => Err(EngineError::StateViolation {
                rule: name.to_owned(),
                witness: witness.cloned(),
            }),
        }
    }

    /// The tuples of an aborting rule's compiled violation query
    /// ([`Catalog::violation_queries`]) on the current state, which the
    /// algebra reads as the transition `(D, D)`: `R@pre` is `R`.
    fn violations(&self, query: &RelExpr) -> Result<Relation> {
        evaluate(query, &self.db).map_err(|e| EngineError::Eval(e.to_string()))
    }

    /// Remove a rule from the catalog by name; returns whether it existed.
    /// Under attached durability the removal is logged (before the catalog
    /// is touched, so a logging failure leaves the rule in place).
    pub fn remove_rule(&mut self, name: &str) -> Result<bool> {
        if self.catalog.rule(name).is_none() {
            return Ok(false);
        }
        if !self.wal_active() {
            return Ok(self.remove_rule_unlogged(name));
        }
        self.wal_log(&WalRecord::RemoveRule {
            name: name.to_owned(),
        })?;
        let existed = self.remove_rule_unlogged(name);
        // Only now may a checkpoint capture the catalog: one at this
        // frame's LSN must not hold the rule the frame removes.
        self.checkpoint_if_due();
        Ok(existed)
    }

    /// Catalog removal + epoch bump, no logging (recovery replay path).
    pub(crate) fn remove_rule_unlogged(&mut self, name: &str) -> bool {
        let existed = self.catalog.remove_rule(name);
        if existed {
            self.epoch += 1;
        }
        existed
    }

    /// Add a rule from RL text (`WHEN … IF NOT … THEN …`).
    pub fn add_rule_text(&mut self, text: &str, default_name: &str) -> Result<()> {
        let rule =
            parse_rule(text, default_name).map_err(|e| EngineError::RuleParse(e.to_string()))?;
        self.add_rule(rule)
    }

    /// Declare a constraint from CL text with the default enforcement
    /// (abort on violation) and a generated trigger set — the paper's
    /// "default way" of Section 4.
    pub fn define_constraint(&mut self, name: &str, cl: &str) -> Result<()> {
        let formula = parse_formula(cl).map_err(|e| EngineError::RuleParse(e.to_string()))?;
        self.add_rule(IntegrityRule::with_generated_triggers(
            name,
            formula,
            RuleAction::Abort,
        ))
    }

    /// Define a materialized view maintained by transaction modification
    /// (the paper's second application, §7). See [`crate::views`].
    ///
    /// The definition is atomic: when the initial materialization aborts,
    /// the already-registered maintenance rule is removed again, so a
    /// failed definition leaves neither a rule that poisons later
    /// transactions nor a half-registered view behind.
    ///
    /// Under attached durability a successful definition is logged as one
    /// `DefineView` record — not as an `AddRule` plus a `Commit`: replay
    /// re-runs the definition, whose initial materialization is
    /// deterministic in the database state.
    pub fn define_view(&mut self, view: ViewDef) -> Result<()> {
        let record = self.wal_active().then(|| WalRecord::DefineView {
            name: view.name.clone(),
            definition: view.definition.to_string(),
        });
        let rule_name = self.define_view_unlogged(view)?;
        if let Some(record) = record {
            if let Err(e) = self.wal_append(&record) {
                // Roll the whole definition back: drop the maintenance
                // rule, the registration, and the materialized contents.
                self.catalog.remove_rule(&rule_name);
                self.epoch += 1;
                let view = self.views.pop().expect("view was just registered");
                let contents = tm_relational::RelationDelta {
                    relation: view.name.clone(),
                    inserted: self
                        .db
                        .relation(&view.name)
                        .map(|r| r.sorted_tuples())
                        .unwrap_or_default(),
                    deleted: Vec::new(),
                };
                let _ = contents.unapply(&mut self.db);
                return Err(e);
            }
        }
        Ok(())
    }

    /// [`Engine::define_view`] without WAL logging (recovery replay and
    /// the internal half of the logged path). Returns the maintenance
    /// rule's name so the caller can roll the definition back.
    pub(crate) fn define_view_unlogged(&mut self, view: ViewDef) -> Result<String> {
        let rule = view.maintenance_rule(self.catalog.schema())?;
        let rule_name = rule.name.clone();
        // Materialize the initial contents.
        let init = view.refresh_program();
        self.add_rule_unlogged(rule)?;
        let outcome = Executor.execute(&mut self.db, &init.bracket());
        match outcome {
            TxOutcome::Committed(_) => {
                self.views.push(view);
                Ok(rule_name)
            }
            TxOutcome::Aborted { reason, .. } => {
                self.catalog.remove_rule(&rule_name);
                self.epoch += 1; // the catalog changed again
                Err(EngineError::View(reason.to_string()))
            }
        }
    }

    /// Re-register a view whose maintenance rule and materialized contents
    /// were already restored from a checkpoint (recovery only — no rule is
    /// added, nothing is materialized, nothing is logged).
    pub(crate) fn restore_view(&mut self, view: ViewDef) {
        self.views.push(view);
    }

    /// Validate the rule set's triggering behaviour (Section 6.1) —
    /// the *syntactic* report. See [`Engine::validate_full`] for the
    /// semantic analysis.
    pub fn validate(&self) -> ValidationReport {
        self.catalog.validate()
    }

    /// The full static analysis of the current rule set: coded
    /// diagnostics (unsatisfiable / dead / subsumed constraints), the
    /// pruned-edge proofs of semantic triggering-graph refinement, and
    /// the termination certificate. Assembled from the incrementally
    /// maintained catalog analysis — no re-analysis happens here.
    pub fn validate_full(&self) -> AnalysisReport {
        self.catalog.analysis_report()
    }

    /// The modification context for the current catalog state: the
    /// configured mode plus the catalog's trigger index (O(affected) rule
    /// selection) and its analysis, whose condition shapes specialize
    /// checks when [`EngineConfig::specialize`] is on. Refinement is
    /// driven by definition-time proofs, not by the per-template
    /// `specialize` switch: pruned edges and the termination certificate
    /// hold for every transaction. `None` in `Off` mode.
    fn mod_context(&self) -> Option<ModContext<'_>> {
        (self.config.mode != EnforcementMode::Off)
            .then(|| ModContext::new(&self.catalog, &self.config))
    }

    /// Run `ModT` on a transaction without executing it — useful for
    /// inspecting modifications (Example 5.1) and for benchmarks that
    /// isolate modification cost.
    ///
    /// Returns `Cow::Borrowed` and an empty record when enforcement is
    /// `Off`: the no-op path hands the submitted transaction straight
    /// back without copying it.
    pub fn modify_only<'t>(
        &self,
        tx: &'t Transaction,
    ) -> Result<(Cow<'t, Transaction>, ModificationReport)> {
        match self.mod_context() {
            None => Ok((Cow::Borrowed(tx), ModificationReport::default())),
            Some(ctx) => {
                mod_t_with(tx, &ctx).map(|(modified, report)| (Cow::Owned(modified), report))
            }
        }
    }

    /// Execute a transaction: modify per the configured mode, then run it
    /// with full atomicity.
    ///
    /// This is the ad-hoc path. A *point* transaction — every statement
    /// an `insert`/`delete` of a one-tuple literal or a `row(…)` — is
    /// first lifted into its shape: its constants become parameters
    /// ([`Transaction::lift_constants`]). When the engine holds a fast
    /// plan of that shape for the current catalog epoch and the lifted
    /// values pass its bind checks, the values are bound and the plan runs:
    /// no `ModT`, no compilation, `reused_plan: true`, no per-execution
    /// `ModT` record, `modified: None`. The outcome and check
    /// summary are exactly those the literal transaction's own plan gives:
    /// point checks that plan dropped for its constants are skipped for
    /// the binding, and abort texts name the values.
    ///
    /// Every other call runs [`Engine::prepare`] on the transaction itself
    /// plus an empty bind plus the run every prepared execution takes,
    /// the plan dropped afterwards (`reused_plan: false`, this call's
    /// `ModT` record, the modified transaction). The first such call of a
    /// point shape in an epoch also prepares the shape and keeps its plan
    /// — or notes that the shape runs generic, so it is not tried again
    /// until the epoch moves. The engine keeps a bounded number of shapes;
    /// past the bound, new shapes run uncached.
    ///
    /// The transaction must be ground (no `?i` placeholders); submit
    /// templates through [`Engine::prepare`] instead.
    pub fn execute(&mut self, tx: &Transaction) -> Result<EngineOutcome> {
        let params = tx.param_count();
        if params > 0 {
            // The empty bind of the prepare/bind/execute contract: ad-hoc
            // execution is ground.
            return Err(EngineError::ParamArity {
                expected: params,
                got: 0,
            });
        }
        let Some((shape, values)) = tx.lift_constants() else {
            return self.execute_literal(tx);
        };
        match self.shapes.at(self.epoch).get(&shape) {
            Some(Some(slot)) if self.shapes.plan(slot).check_binding(&values).is_ok() => {
                let checks = self.shapes.plan(slot).check_summary_for(&values);
                let mut out = self.run_plan(PlanAt::Shape(slot), true, &values, Vec::new())?;
                out.checks = checks;
                Ok(out)
            }
            // A shape that runs generic, or values its plan refuses.
            Some(_) => self.execute_literal(tx),
            None => {
                let out = self.execute_literal(tx)?;
                self.store_shape(shape, &values);
                Ok(out)
            }
        }
    }

    /// The uncached ad-hoc path: prepare `tx` itself and run the plan
    /// once.
    fn execute_literal(&mut self, tx: &Transaction) -> Result<EngineOutcome> {
        let plan = self.prepare(tx)?;
        self.run_unretained(plan, &[])
    }

    /// Prepare a point-transaction shape and keep its plan — or, when the
    /// plan would not run on point ops only, the note that the shape
    /// runs generic. A full table, a shape that fails to prepare, or
    /// `values` its plan refuses leave the table as it was.
    fn store_shape(&mut self, shape: Transaction, values: &[Value]) {
        if self.shapes.is_full() {
            return;
        }
        let Ok(plan) = self.prepare_as(&shape, true) else {
            return;
        };
        if plan.check_binding(values).is_err() {
            return;
        }
        let fast = plan.plan().runs_fast_on(&self.db).then_some(plan);
        self.shapes.insert(shape, fast);
    }

    /// Number of ad-hoc shapes the engine currently keeps a plan (or a
    /// runs-generic note) for — see [`Engine::execute`].
    pub fn cached_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// The current catalog epoch — the stamp [`Engine::prepare`] records
    /// into each plan. Any rule-catalog change bumps it, invalidating
    /// previously prepared plans (they are transparently re-modified when
    /// next executed).
    pub fn plan_epoch(&self) -> u64 {
        self.epoch
    }

    /// Prepare a transaction template: run `ModT` **once** over it (per
    /// the configured enforcement mode) and compile the modified result
    /// into an execution plan. The template's constants may be parameter
    /// placeholders `?0`, `?1`, … — bind values with
    /// [`Prepared::bind`] and execute with [`Engine::execute_bound`]
    /// (or store it with [`Engine::store_statement`]); each execution then
    /// skips rule selection, program concatenation, AST construction, and
    /// per-statement analysis entirely.
    pub fn prepare(&self, tx: &Transaction) -> Result<Prepared> {
        self.prepare_as(tx, false)
    }

    /// [`Engine::prepare`]; `lifted` compiles the plan of an ad-hoc shape,
    /// whose checks over lifted rows re-decide their drop proofs and
    /// abort texts against each binding
    /// ([`tm_algebra::ExecPlan::compile_lifted`]).
    fn prepare_as(&self, tx: &Transaction, lifted: bool) -> Result<Prepared> {
        let (modified, report) = self.modify_only(tx)?;
        // A plan that executes exactly the submitted statements — the
        // `Off`-mode borrow, but also a template whose every selected
        // check was dropped by a specialization proof, where `ModT`
        // returns the submitted program unchanged — keeps one copy of
        // them, not two.
        let (source, template) = match modified {
            Cow::Owned(t) if t != *tx => (Some(tx.clone()), t),
            Cow::Owned(t) => (None, t),
            Cow::Borrowed(t) => (None, t.clone()),
        };
        Ok(Prepared::build(
            source,
            template,
            self.catalog.schema(),
            report,
            self.epoch,
            lifted,
        ))
    }

    /// Execute a bound prepared transaction. When the plan is current,
    /// this is the whole per-execution cost of integrity enforcement:
    /// run the compiled plan against the binding (`reused_plan: true`, no
    /// per-execution `ModT` record). When the catalog changed
    /// since `prepare`, the plan is re-modified from its source for this
    /// call — stale plans are never executed — and the outcome reports
    /// `reused_plan: false`; re-prepare (or store the plan, which
    /// [`Engine::execute_statement`] refreshes in place) to stop paying
    /// that per call.
    pub fn execute_bound(&mut self, bound: &BoundTransaction<'_>) -> Result<EngineOutcome> {
        let (prepared, values) = (bound.prepared(), bound.values());
        match prepared.refreshed(self)? {
            None => self.run_plan(PlanAt::Held(prepared), true, values, Vec::new()),
            // The caller's Prepared does NOT hold what runs: a stale plan
            // revalidates the binding against its replacement.
            Some(fresh) => {
                fresh.check_binding(values)?;
                self.run_unretained(fresh, values)
            }
        }
    }

    /// Run a plan nobody keeps — an ad-hoc transaction's, or the
    /// replacement of a caller-held stale one — and hand the modified
    /// transaction over with the outcome, so "the transaction as actually
    /// executed" stays inspectable. (A verbatim plan keeps the usual
    /// ran-as-submitted `None`.)
    fn run_unretained(&mut self, plan: Prepared, values: &[Value]) -> Result<EngineOutcome> {
        let mut out = self.run_plan(PlanAt::Held(&plan), false, values, Vec::new())?;
        if !plan.verbatim() {
            out.modified = Some(plan.into_transaction());
        }
        Ok(out)
    }

    /// The one road from a plan to the database: run the plan `at` names —
    /// current, its binding `values` already checked — on the engine's
    /// database. `reused` says whether the plan was prepared by an earlier
    /// call; when it was not, its `ModT` record is reported as paid by this
    /// execution. When a WAL is attached, the executor's commit hook
    /// appends the transaction's `Commit` frame before the end bracket
    /// closes, so a failed append undoes the transaction through the
    /// change log and surfaces as [`EngineError::Durability`]. With
    /// per-check timing on, `times` (cleared first) becomes the outcome's
    /// one nanosecond sample per rule check reached; untimed and without a
    /// WAL the run adds nothing to the bare executor. A checkpoint that
    /// came due is begun afterwards. Takes the slice directly so hot
    /// callers pay no per-execution allocation.
    fn run_plan(
        &mut self,
        at: PlanAt<'_>,
        reused: bool,
        values: &[Value],
        mut times: Vec<u64>,
    ) -> Result<EngineOutcome> {
        let plan = match at {
            PlanAt::Held(plan) => plan,
            PlanAt::Stored(slot) => &self.statements[slot],
            PlanAt::Shape(slot) => self.shapes.plan(slot),
        };
        let mut timings = self.time_checks.then(|| {
            times.clear();
            CheckTimings {
                first: plan.checks_from(),
                ns: times,
            }
        });
        let durability = self.config.durability;
        let mut append = self
            .durable
            .as_deref_mut()
            .filter(|_| durability.level != Durability::None)
            .map(|state| move |net: &[NetChange<'_>]| state.append_commit(&durability, net));
        let on_commit = append.as_mut().map(|f| f as OnCommit<'_, EngineError>);
        let outcome = Executor.execute_plan_instrumented(
            &mut self.db,
            plan.plan(),
            values,
            on_commit,
            timings.as_mut(),
        )?;
        let out = EngineOutcome {
            outcome,
            modified: None,
            modification: (!reused).then(|| Arc::clone(plan.modification())),
            reused_plan: reused,
            checks: plan.check_summary(),
            check_times_ns: timings.map(|t| t.ns).unwrap_or_default(),
            rule_checks: None,
        };
        self.checkpoint_if_due();
        Ok(out)
    }

    /// Store a prepared plan in the engine's statement table and return
    /// its id. Ids are engine-scoped and never reused: any session over
    /// this engine may execute any of them for the engine's lifetime.
    pub fn store_statement(&mut self, prepared: Prepared) -> StatementId {
        self.statements.push(prepared);
        StatementId(self.statements.len() - 1)
    }

    /// Look up a stored statement.
    pub fn statement(&self, id: StatementId) -> Result<&Prepared> {
        self.statements
            .get(id.0)
            .ok_or(EngineError::UnknownStatement(id.0))
    }

    /// Bind `params` to stored statement `id` and execute it. When the
    /// rule catalog changed since the statement was prepared, the plan is
    /// re-modified from its source and the stored statement replaced
    /// first — once per catalog change, whichever session gets there
    /// first — and that call reports `reused_plan: false` and the fresh
    /// `ModT` record. The one-binding case of the statement run
    /// that [`crate::ConcurrentSession::execute_prepared_many`] holds
    /// across a batch.
    pub fn execute_statement(
        &mut self,
        id: StatementId,
        params: &[Value],
    ) -> Result<EngineOutcome> {
        self.statement_run(id)?.execute(params)
    }

    /// Resolve stored statement `id` for a run of executions: look it up
    /// and, when the catalog changed since it was prepared, re-modify it
    /// and replace the stored statement. The run borrows the engine, so
    /// the catalog cannot move under it — the lookup and the stale-plan
    /// decision are paid once for all its bindings.
    pub(crate) fn statement_run(&mut self, id: StatementId) -> Result<StatementRun<'_>> {
        let reused = match self.statement(id)?.refreshed(self)? {
            None => true,
            Some(fresh) => {
                self.statements[id.0] = fresh;
                false
            }
        };
        Ok(StatementRun {
            engine: self,
            slot: id.0,
            reused,
            times: Vec::new(),
            rule_checks: None,
        })
    }

    /// Open a [`Session`] over this engine. It survives only for the
    /// repository's benchmark adapter; new code calls
    /// [`Engine::store_statement`] / [`Engine::execute_statement`].
    pub fn session(&mut self) -> Session<'_> {
        Session::new(self)
    }

    /// Check the current state (Definition 3.2 / 3.4): evaluate every
    /// *aborting* rule's compiled violation query — the argument of the
    /// `alarm` its transactions append — with `R@pre` read as the current
    /// `R`, and return the names of the rules whose query is non-empty,
    /// in catalog order. A query that fails to evaluate is an
    /// [`EngineError::Eval`]. Compensating rules are skipped: their
    /// conditions are assumed to hold after their actions ran, not
    /// checked. A compensating action that does not repair its condition
    /// can therefore commit a violating state that this check does not
    /// report (ROADMAP item 9). The test suites compare this answer with
    /// an oracle that evaluates the CL conditions directly.
    pub fn check_state(&self) -> Result<Vec<String>> {
        let mut violated = Vec::new();
        for (name, query) in self.catalog.violation_queries() {
            if !self.violations(query)?.is_empty() {
                violated.push(name.to_owned());
            }
        }
        Ok(violated)
    }

    /// Direct access to a relation state.
    pub fn relation(&self, name: &str) -> Result<&tm_relational::Relation> {
        Ok(self.db.relation(name)?)
    }
}

/// Convenience: build the beer schema engine of the paper's examples.
pub fn beer_engine(mode: EnforcementMode) -> Engine {
    Engine::with_config(
        tm_relational::schema::beer_schema(),
        EngineConfig {
            mode,
            ..EngineConfig::default()
        },
    )
}

/// A stored statement resolved by [`Engine::statement_run`], executing
/// one binding at a time against the same current plan. Outcomes handed
/// back through [`StatementRun::recycle`] lend their check-time buffer and
/// `ModT` record to the next binding, so a run of many bindings allocates
/// and refcounts them once.
pub(crate) struct StatementRun<'e> {
    engine: &'e mut Engine,
    slot: usize,
    /// `false` until the first binding of a run that re-modified the plan
    /// has executed: that binding reports the re-modification.
    reused: bool,
    times: Vec<u64>,
    rule_checks: Option<Arc<ModificationReport>>,
}

impl StatementRun<'_> {
    /// Check `params` against the plan and run it on the engine's
    /// database ([`Engine::run_plan`]). With per-check timing on, the
    /// outcome carries the statement's `ModT` record
    /// ([`EngineOutcome::rule_checks`]).
    pub(crate) fn execute(&mut self, params: &[Value]) -> Result<EngineOutcome> {
        let engine = &mut *self.engine;
        engine.statements[self.slot].check_binding(params)?;
        let times = std::mem::take(&mut self.times);
        let at = PlanAt::Stored(self.slot);
        let mut out = engine.run_plan(at, self.reused, params, times)?;
        if engine.time_checks {
            let table = self.rule_checks.take();
            let plan = &engine.statements[self.slot];
            out.rule_checks = Some(table.unwrap_or_else(|| Arc::clone(plan.modification())));
        }
        self.reused = true;
        Ok(out)
    }

    /// Hand back an outcome of this run once its reader is done with it.
    pub(crate) fn recycle(&mut self, out: EngineOutcome) {
        self.times = out.check_times_ns;
        self.rule_checks = out.rule_checks;
    }
}

/// Where the plan [`Engine::run_plan`] runs lives: named rather than
/// borrowed when it is the engine's own, so the run can borrow it beside
/// the database it writes.
enum PlanAt<'p> {
    /// A plan the engine does not keep: a caller-held prepared plan, or one
    /// prepared for this call.
    Held(&'p Prepared),
    /// A stored statement's plan, by its statement-table slot.
    Stored(usize),
    /// An ad-hoc shape's plan, by its shape-table slot.
    Shape(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::builder::TransactionBuilder;

    fn engine(mode: EnforcementMode) -> Engine {
        let mut e = beer_engine(mode);
        e.define_constraint("r1", "forall x (x in beer implies x.alcohol >= 0)")
            .unwrap();
        e.add_rule_text(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) THEN abort",
            "r2",
        )
        .unwrap();
        e.load("brewery", vec![Tuple::of(("guineken", "dublin", "ie"))])
            .unwrap();
        e
    }

    fn good_tx() -> Transaction {
        TransactionBuilder::new()
            .insert_tuple(
                "beer",
                Tuple::of(("exportgold", "stout", "guineken", 6.0_f64)),
            )
            .build()
    }

    /// A constraint the current state violates is rejected in `Static`
    /// and `Differential`, naming the rule and the smallest violating
    /// tuple, with the catalog, the plan epoch and the WAL untouched; the
    /// same definition is admitted once the violating rows are gone, and
    /// `Off` admits it unchecked.
    #[test]
    fn a_constraint_the_state_violates_is_rejected() {
        let cap = "forall x (x in beer implies x.alcohol <= 10)";
        // A transition rule: on `(D, D)` no beer is stronger than itself.
        let stronger_than_before = "forall x (x in beer implies exists y \
            (y in beer@pre and x.name = y.name and x.alcohol > y.alcohol))";
        let strong = Tuple::of(("strong", "ale", "guineken", 10.5_f64));
        let stronger = Tuple::of(("stronger", "ale", "guineken", 12.0_f64));
        let light = Tuple::of(("light", "ale", "guineken", 4.0_f64));
        for mode in [
            EnforcementMode::Static,
            EnforcementMode::Differential,
            EnforcementMode::Off,
        ] {
            let mut e = engine(mode);
            e.load(
                "beer",
                vec![stronger.clone(), light.clone(), strong.clone()],
            )
            .unwrap();
            let dir = std::env::temp_dir()
                .join(format!("txmod-violated-{mode:?}-{}", std::process::id()));
            e.make_durable(&dir).unwrap();
            let (epoch, lsn, rules) = (e.plan_epoch(), e.durable_lsn(), e.catalog().len());
            let defined = e.define_constraint("cap", cap);
            if mode == EnforcementMode::Off {
                defined.unwrap();
                e.define_constraint("grow", stronger_than_before).unwrap();
                assert_eq!(e.check_state().unwrap(), ["cap", "grow"]);
                std::fs::remove_dir_all(&dir).unwrap();
                continue;
            }
            let err = defined.unwrap_err();
            assert_eq!(
                err,
                EngineError::StateViolation {
                    rule: "cap".to_owned(),
                    witness: Some(strong.clone()),
                },
                "{mode:?}"
            );
            assert!(
                err.to_string()
                    .ends_with(r#"by ("strong", "ale", "guineken", 10.5)"#),
                "{err}"
            );
            assert!(e.catalog().rule("cap").is_none(), "{mode:?}");
            assert_eq!(
                (e.plan_epoch(), e.durable_lsn(), e.catalog().len()),
                (epoch, lsn, rules),
                "{mode:?}"
            );
            // The rule-text surface takes the same check.
            let text = format!("IF NOT {cap} THEN abort");
            let err = e.add_rule_text(&text, "cap").unwrap_err();
            assert!(matches!(err, EngineError::StateViolation { .. }), "{err:?}");
            // A condition whose evaluation fails is rejected as such.
            let err = e
                .define_constraint("zero", "forall x (x in beer implies x.alcohol / 0 >= 0)")
                .unwrap_err();
            assert!(matches!(err, EngineError::Eval(_)), "{err:?}");
            assert_eq!((e.plan_epoch(), e.durable_lsn()), (epoch, lsn));
            // `beer@pre` is read as the current `beer`.
            assert_eq!(
                e.define_constraint("grow", stronger_than_before),
                Err(EngineError::StateViolation {
                    rule: "grow".to_owned(),
                    witness: Some(light.clone()),
                }),
                "{mode:?}"
            );
            assert_eq!((e.plan_epoch(), e.durable_lsn()), (epoch, lsn));
            // With the violating rows deleted the definition is admitted.
            let delete = TransactionBuilder::new()
                .delete_tuple("beer", strong.clone())
                .delete_tuple("beer", stronger.clone())
                .build();
            assert!(e.execute(&delete).unwrap().committed());
            e.define_constraint("cap", cap).unwrap();
            assert_eq!(e.plan_epoch(), epoch + 1);
            assert!(e.check_state().unwrap().is_empty());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    fn bad_domain_tx() -> Transaction {
        TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("bad", "stout", "guineken", -1.0_f64)))
            .build()
    }

    fn bad_ref_tx() -> Transaction {
        TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("orphan", "stout", "nowhere", 5.0_f64)))
            .build()
    }

    #[test]
    fn all_modes_accept_good_and_reject_bad() {
        for mode in [EnforcementMode::Static, EnforcementMode::Differential] {
            let mut e = engine(mode);
            assert!(e.execute(&good_tx()).unwrap().committed(), "{mode:?}");
            assert!(
                !e.execute(&bad_domain_tx()).unwrap().committed(),
                "{mode:?}"
            );
            assert!(!e.execute(&bad_ref_tx()).unwrap().committed(), "{mode:?}");
            // State reflects only the good transaction.
            assert_eq!(e.relation("beer").unwrap().len(), 1, "{mode:?}");
            assert!(e.check_state().unwrap().is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn adhoc_literal_insert_compiles_to_a_fast_plan_in_every_mode() {
        for mode in [
            EnforcementMode::Off,
            EnforcementMode::Static,
            EnforcementMode::Differential,
        ] {
            let mut e = beer_engine(mode);
            e.define_constraint("dom", "forall x (x in beer implies x.alcohol >= 0)")
                .unwrap();
            e.define_constraint(
                "ref",
                "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
            )
            .unwrap();
            let plan = e.prepare(&good_tx()).unwrap();
            assert!(plan.plan().is_fast(), "{mode:?}: {}", plan.transaction());
        }
    }

    #[test]
    fn off_mode_lets_violations_through() {
        let mut e = engine(EnforcementMode::Off);
        assert!(e.execute(&bad_domain_tx()).unwrap().committed());
        assert_eq!(e.check_state().unwrap(), vec!["r1".to_owned()]);
    }

    #[test]
    fn cyclic_rule_set_rejected() {
        let mut e = beer_engine(EnforcementMode::Static);
        let err = e
            .add_rule_text(
                "WHEN INS(beer) IF NOT 1 = 1 THEN insert(beer, beer@ins)",
                "self_loop",
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::TriggeringCycle(_)));
        assert!(e.catalog().is_empty(), "rejected rule must be rolled back");
    }

    #[test]
    fn cycles_admitted_when_configured() {
        let mut e = Engine::with_config(
            tm_relational::schema::beer_schema(),
            EngineConfig {
                allow_cycles: true,
                max_rounds: 4,
                ..EngineConfig::default()
            },
        );
        e.add_rule_text(
            "WHEN INS(beer) IF NOT 1 = 1 THEN insert(beer, beer@ins)",
            "self_loop",
        )
        .unwrap();
        let err = e.execute(&good_tx()).unwrap_err();
        assert!(matches!(err, EngineError::ModificationDiverged { .. }));
    }

    #[test]
    fn compensating_rule_repairs_state() {
        // Paper's R2: missing breweries are inserted instead of aborting.
        let mut e = beer_engine(EnforcementMode::Static);
        e.add_rule_text(
            "IF NOT forall x (x in beer implies \
             exists y (y in brewery and x.brewery = y.name)) \
             THEN temp := minus(project[#2](beer), project[#0](brewery)); \
                  insert(brewery, project[#0, null, null](temp))",
            "r2_compensate",
        )
        .unwrap();
        let out = e.execute(&bad_ref_tx()).unwrap();
        assert!(out.committed());
        // The compensation inserted ("nowhere", null, null).
        let breweries = e.relation("brewery").unwrap();
        assert_eq!(breweries.len(), 1);
        assert!(breweries.contains(&Tuple::of((
            tm_relational::Value::str("nowhere"),
            tm_relational::Value::Null,
            tm_relational::Value::Null
        ))));
        assert!(e.check_state().unwrap().is_empty());
    }

    #[test]
    fn transition_constraint_enforced() {
        let mut e = beer_engine(EnforcementMode::Static);
        e.define_constraint(
            "grow_only",
            "forall x (x in beer@pre implies exists y (y in beer and x == y))",
        )
        .unwrap();
        e.load(
            "beer",
            vec![Tuple::of(("pils", "lager", "guineken", 5.0_f64))],
        )
        .unwrap();
        // Deleting a beer violates the transition constraint.
        let tx = TransactionBuilder::new()
            .delete_tuple("beer", Tuple::of(("pils", "lager", "guineken", 5.0_f64)))
            .build();
        let out = e.execute(&tx).unwrap();
        assert!(!out.committed());
        assert_eq!(e.relation("beer").unwrap().len(), 1);
        // Inserting more beers is fine.
        let tx = TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("ale", "ale", "guineken", 4.0_f64)))
            .build();
        assert!(e.execute(&tx).unwrap().committed());
    }

    #[test]
    fn modification_trace_exposed() {
        let e = engine(EnforcementMode::Static);
        let tx = good_tx();
        let (modified, stats) = e.modify_only(&tx).unwrap();
        assert_eq!(stats.rounds, 1);
        // Specialization (on by default) proves r1 unviolable for this
        // constant insert (6.0 ≥ 0) and drops its check; r2's referential
        // check reduces to a point probe.
        assert_eq!(stats.rules_fired(), ["r2"]);
        assert!(modified.len() > tx.len());
        assert!(matches!(modified, Cow::Owned(_)));
    }

    #[test]
    fn specialization_off_appends_every_selected_check() {
        let mut e = engine(EnforcementMode::Static);
        e.config.specialize = false;
        let tx = good_tx();
        let (modified, stats) = e.modify_only(&tx).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.rules_fired().len(), 2);
        assert!(modified.len() > tx.len());
        // And the outcomes agree with the specialized engine on both the
        // good and the violating transactions.
        let mut spec = engine(EnforcementMode::Static);
        for tx in [good_tx(), bad_domain_tx(), bad_ref_tx()] {
            let a = e.execute(&tx).unwrap();
            let b = spec.execute(&tx).unwrap();
            assert_eq!(a.committed(), b.committed(), "{tx}");
        }
        assert_eq!(
            e.relation("beer").unwrap().len(),
            spec.relation("beer").unwrap().len()
        );
    }

    #[test]
    fn ad_hoc_executions_are_timed_like_prepared_ones() {
        let mut e = engine(EnforcementMode::Static);
        // Unspecialized, the insert gets both rules' generic checks.
        e.config.specialize = false;
        assert!(e.execute(&good_tx()).unwrap().check_times_ns.is_empty());
        e.set_check_timing(true);
        let tx = TransactionBuilder::new()
            .insert_tuple("beer", Tuple::of(("pils", "lager", "guineken", 5.0_f64)))
            .build();
        let attributed: usize = e
            .prepare(&tx)
            .unwrap()
            .modification()
            .decisions
            .iter()
            .map(|d| d.timed)
            .sum();
        assert_eq!(attributed, 2);
        let out = e.execute(&tx).unwrap();
        assert!(out.committed() && !out.reused_plan);
        assert_eq!(out.modification.unwrap().rules_fired().len(), 2);
        assert_eq!(out.check_times_ns.len(), 2, "one sample per appended check");
    }

    #[test]
    fn check_summary_reports_skips_probes_and_generics() {
        let mut e = engine(EnforcementMode::Static);
        // A third rule the transaction never triggers.
        e.define_constraint("r3", "forall x (x in brewery implies x.name <> null)")
            .unwrap();
        let out = e.execute(&good_tx()).unwrap();
        assert!(out.committed());
        // r3 untriggered + r1 dropped = 2 skipped; r2 probed; none generic.
        assert_eq!(out.checks.skipped, 2);
        assert_eq!(out.checks.probed, 1);
        assert_eq!(out.checks.evaluated, 0);
        // Off mode reports zeros.
        let mut off = beer_engine(EnforcementMode::Off);
        let out = off.execute(&good_tx()).unwrap();
        assert_eq!(out.checks, crate::modify::CheckSummary::default());
    }

    #[test]
    fn off_mode_modify_only_borrows() {
        let e = beer_engine(EnforcementMode::Off);
        let tx = good_tx();
        let (modified, stats) = e.modify_only(&tx).unwrap();
        assert!(
            matches!(modified, Cow::Borrowed(_)),
            "Off mode must not copy the transaction"
        );
        assert_eq!(stats.statements_appended(), 0);
        // And execution keeps no copy either.
        let mut e = beer_engine(EnforcementMode::Off);
        let out = e.execute(&tx).unwrap();
        assert!(out.committed());
        assert!(out.modified.is_none());
        assert!(out.modified_transaction().is_none());
    }

    #[test]
    fn evaluation_failures_are_not_parse_errors() {
        // The rule parses and analyses fine; evaluating its condition on a
        // non-empty state divides by zero — a `check_state` *evaluation*
        // failure, which must surface as `Eval`, not `RuleParse`.
        let mut e = beer_engine(EnforcementMode::Off);
        e.define_constraint("div", "forall x (x in beer implies 1 / 0 = 1)")
            .unwrap();
        e.load(
            "beer",
            vec![Tuple::of(("pils", "lager", "guineken", 5.0_f64))],
        )
        .unwrap();
        let err = e.check_state().unwrap_err();
        assert!(matches!(err, EngineError::Eval(_)), "got {err:?}");
    }

    /// Execute `tx` on `e` and, on a clone of its pre-state, through the
    /// uncached ad-hoc path; the two answers must be identical.
    fn execute_as_uncached(e: &mut Engine, tx: &Transaction) -> Result<EngineOutcome> {
        let expected = e.clone().execute_literal(tx);
        let got = e.execute(tx);
        assert_eq!(got, expected, "{tx}");
        got
    }

    #[test]
    fn shape_table_is_bounded_and_admits_only_point_shapes() {
        use crate::shapes::SHAPE_CAP;
        let tx = |text: String| tm_algebra::parse_program(&text).unwrap().bracket();
        // A computed cell keeps its constants in the shape, so every `k`
        // is a shape of its own; every third one violates `r1`.
        let shape = |k: usize, name: &str| {
            let alcohol = if k % 3 == 1 {
                format!("0.5 - {k}")
            } else {
                format!("{k} + 0.5")
            };
            tx(format!(
                "insert(beer, row(\"{name}{k}\", \"ale\", \"guineken\", {alcohol}))"
            ))
        };
        let mut e = engine(EnforcementMode::Static);
        for k in 0..SHAPE_CAP + 40 {
            let out = e.execute(&shape(k, "a")).unwrap();
            assert_eq!(out.committed(), k % 3 != 1, "{k}");
            assert!(!out.reused_plan, "{k}");
            assert!(e.shapes.len() <= SHAPE_CAP);
        }
        assert_eq!(e.shapes.len(), SHAPE_CAP);
        // The first SHAPE_CAP shapes were kept; later ones run uncached.
        for k in 0..SHAPE_CAP + 40 {
            let out = e.execute(&shape(k, "b")).unwrap();
            assert_eq!(out.committed(), k % 3 != 1, "{k}");
            assert_eq!(out.reused_plan, k < SHAPE_CAP, "{k}");
        }
        assert_eq!(e.shapes.len(), SHAPE_CAP);
        assert!(e.check_state().unwrap().is_empty());

        // Multi-row literals, set-oriented work, and values a shape's plan
        // refuses leave the table as they found it and answer exactly as
        // the uncached path does.
        let mut e = engine(EnforcementMode::Static);
        let stored = tx(r#"insert(beer, {("pils", "lager", "guineken", 5.0)})"#.into());
        assert!(!execute_as_uncached(&mut e, &stored).unwrap().reused_plan);
        assert_eq!(e.shapes.len(), 1);
        for text in [
            r#"insert(beer, {("a", "ale", "guineken", 4.0), ("b", "ale", "nowhere", 4.0)})"#,
            r#"insert(beer, select[#3 > 4.5](beer))"#,
            r#"delete(beer, select[#3 > 100.0](beer)); insert(beer, {("c", "ale", "guineken", 1.0)})"#,
            // The stored shape, and a new one, with a string where
            // `alcohol` is a double.
            r#"insert(beer, {("d", "ale", "guineken", "strong")})"#,
            r#"delete(beer, {("d", "ale", "guineken", "strong")})"#,
        ] {
            let out = execute_as_uncached(&mut e, &tx(text.into())).unwrap();
            assert!(!out.reused_plan, "{text}");
            assert_eq!(e.shapes.len(), 1, "{text}");
        }
        // The refused delete shape was not stored; the insert shape still
        // is.
        let delete = tx(r#"delete(beer, {("pils", "lager", "guineken", 5.0)})"#.into());
        assert!(!e.execute(&delete).unwrap().reused_plan);
        assert!(e.execute(&stored).unwrap().reused_plan);
        assert_eq!(e.shapes.len(), 2);

        // A shape whose modification diverges is an error on every call,
        // the same error as uncached, and is never stored.
        let mut e = Engine::with_config(
            tm_relational::schema::beer_schema(),
            EngineConfig {
                allow_cycles: true,
                max_rounds: 4,
                ..EngineConfig::default()
            },
        );
        e.add_rule_text(
            "WHEN INS(beer) IF NOT 1 = 1 THEN insert(beer, beer@ins)",
            "self_loop",
        )
        .unwrap();
        for _ in 0..2 {
            let err = execute_as_uncached(&mut e, &good_tx()).unwrap_err();
            assert!(matches!(err, EngineError::ModificationDiverged { .. }));
            assert_eq!(e.shapes.len(), 0);
        }

        // A shape whose plan is generic is stored as a runs-generic note,
        // and its transactions run their literal plans. Here the literal
        // plan drops the check: the deleted and inserted rows are known
        // and pass it. The lifted shape cannot prove that — parameter rows
        // meet a delete of the same relation — and keeps a full scan of
        // `r`, which the note keeps out of every call.
        use tm_relational::{RelationSchema, ValueType};
        let r = RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]);
        let mut e = Engine::new(DatabaseSchema::from_relations(vec![r]).unwrap());
        e.define_constraint("nonneg", "forall x (x in r implies x.b >= 0)")
            .unwrap();
        let dropped = CheckSummary {
            skipped: 1,
            probed: 0,
            evaluated: 0,
        };
        for k in 0..3 {
            let literal = tx(format!("delete(r, {{({k}, 2)}}); insert(r, {{({k}, 3)}})"));
            let out = execute_as_uncached(&mut e, &literal).unwrap();
            assert!(out.committed() && !out.reused_plan, "{k}");
            assert_eq!(out.checks, dropped, "{k}");
            let (shape, _) = literal.lift_constants().unwrap();
            assert!(matches!(e.shapes.get(&shape), Some(None)), "{k}: {shape}");
            assert_eq!(e.shapes.len(), 1);
        }
        let (shape, _) = tx("delete(r, {(0, 2)}); insert(r, {(0, 3)})".into())
            .lift_constants()
            .unwrap();
        let generic = e.prepare_as(&shape, true).unwrap();
        assert_eq!(generic.modification().generic(), 1, "{shape}");
    }

    /// Every rule is compiled with its delta programs, so an engine
    /// switched to `Differential` after construction prepares what one
    /// constructed `Differential` prepares.
    #[test]
    fn switching_to_differential_selects_the_delta_programs() {
        let tx = tm_algebra::parse_program("insert(beer, select[#3 > 100.0](beer))")
            .unwrap()
            .bracket();
        let mut switched = engine(EnforcementMode::Static);
        switched.config_mut().mode = EnforcementMode::Differential;
        let built = engine(EnforcementMode::Differential);
        let (a, b) = (switched.prepare(&tx).unwrap(), built.prepare(&tx).unwrap());
        assert_eq!(a.transaction(), b.transaction());
        assert_eq!(a.modification(), b.modification());
        let rendered = a.transaction().to_string();
        assert!(rendered.contains("beer@ins"), "{rendered}");
    }

    #[test]
    fn duplicate_rule_name_rejected() {
        let mut e = engine(EnforcementMode::Static);
        let err = e
            .define_constraint("r1", "forall x (x in beer implies x.alcohol >= 0)")
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRule(_)));
    }
}
