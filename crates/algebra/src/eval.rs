//! Evaluation of scalar and relational expressions.
//!
//! Expressions are evaluated against an [`EvalContext`], which resolves
//! relation names to relation states. During transaction execution the
//! context is the executor's private transaction context (base
//! relations from the working state, temporaries, and the auxiliary
//! relations folded from the change log, see [`crate::exec`]). A plain
//! [`tm_relational::Database`] is a context too, the state read as the
//! transition `(D, D)`: the engine checks a state that way.

use std::sync::Arc;

use tm_relational::ops::{aggregate, arith};
use tm_relational::util::{fx_map_with_capacity, FxHashMap};
use tm_relational::{
    auxiliary, Attribute, AuxKind, Database, Relation, RelationSchema, Tuple, Value, ValueType,
};

use crate::error::{AlgebraError, Result};
use crate::expr::{AggFunc, ArithOp, ScalarExpr};
use crate::keys::{extract_equi_keys, hash_key_values, key_values_match, JoinKeys};
use crate::rel_expr::RelExpr;

/// How join-shaped operators (`Join`, `SemiJoin`, `AntiJoin`) execute.
///
/// [`JoinStrategy::Hash`] — the default — analyses the join predicate with
/// [`crate::keys::extract_equi_keys`]; when equality key pairs exist it
/// builds a hash table on the smaller input and probes with the other,
/// evaluating only the residual predicate per candidate (`O(|L| + |R| +
/// matches)`). Predicates without extractable keys fall back to nested
/// loops, as does [`JoinStrategy::NestedLoop`] unconditionally (kept as
/// the obviously-correct baseline for property tests and benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Hash-based execution where an equi-join key exists (default).
    #[default]
    Hash,
    /// Always use the O(|L|·|R|) nested-loop baseline.
    NestedLoop,
}

/// Read access to relation schemas by name (used at translation and
/// validation time, before any data exists).
pub trait SchemaView {
    /// The schema of relation `name`; auxiliary names (`R@pre`, …) resolve
    /// to their base relation's attribute list.
    fn schema_of(&self, name: &str) -> Result<Arc<RelationSchema>>;
}

/// Read access to relation *states* by name — what expression evaluation
/// needs.
pub trait EvalContext: SchemaView {
    /// The current state of relation `name`.
    fn relation_state(&self, name: &str) -> Result<&Relation>;

    /// The value bound to parameter placeholder `?i`, if any. The default
    /// is an unbound context: evaluating [`ScalarExpr::Param`] against it
    /// raises [`AlgebraError::UnboundParam`] — a transaction template
    /// cannot execute without a binding. The transaction executor
    /// overrides this with the binding it was given.
    fn param(&self, _i: usize) -> Option<&Value> {
        None
    }
}

/// A database outside any transaction is the transition `(D, D)`: `R@pre`
/// names the current `R`. That is how a state is checked against a
/// transition constraint's violation query. The differentials `R@ins` and
/// `R@del` exist only inside a transaction.
fn current(name: &str) -> &str {
    match auxiliary::parse_auxiliary(name) {
        Some((base, AuxKind::Pre)) => base,
        _ => name,
    }
}

impl SchemaView for Database {
    fn schema_of(&self, name: &str) -> Result<Arc<RelationSchema>> {
        Ok(self.relation(current(name))?.schema().clone())
    }
}

impl EvalContext for Database {
    fn relation_state(&self, name: &str) -> Result<&Relation> {
        Ok(self.relation(current(name))?)
    }
}

/// Evaluate a scalar expression against an input tuple (relation
/// subexpressions inside aggregates use the default [`JoinStrategy::Hash`]).
pub fn eval_scalar(expr: &ScalarExpr, tuple: &Tuple, ctx: &impl EvalContext) -> Result<Value> {
    eval_scalar_with(expr, tuple, ctx, JoinStrategy::Hash)
}

/// Evaluate a scalar expression with an explicit [`JoinStrategy`] for the
/// relation subexpressions of aggregate terms — so a `NestedLoop`
/// evaluation is nested-loop *all the way down*, including `CNT(R ⋈ S)`
/// style predicates.
pub fn eval_scalar_with(
    expr: &ScalarExpr,
    tuple: &Tuple,
    ctx: &impl EvalContext,
    strategy: JoinStrategy,
) -> Result<Value> {
    match expr {
        ScalarExpr::Const(v) => Ok(v.clone()),
        ScalarExpr::Param(i) => ctx.param(*i).cloned().ok_or(AlgebraError::UnboundParam(*i)),
        ScalarExpr::Col(i) => tuple
            .get(*i)
            .cloned()
            .ok_or(AlgebraError::ColumnOutOfRange {
                offset: *i,
                arity: tuple.arity(),
            }),
        ScalarExpr::Arith(op, l, r) => {
            let lv = eval_scalar_with(l, tuple, ctx, strategy)?;
            let rv = eval_scalar_with(r, tuple, ctx, strategy)?;
            eval_arith(*op, &lv, &rv)
        }
        ScalarExpr::Cmp(op, l, r) => {
            let lv = eval_scalar_with(l, tuple, ctx, strategy)?;
            let rv = eval_scalar_with(r, tuple, ctx, strategy)?;
            Ok(Value::Bool(op.test(lv.compare(&rv))))
        }
        ScalarExpr::And(l, r) => {
            // Short-circuit: the right operand is skipped when the left is
            // false, which also skips its runtime errors (two-valued logic).
            if as_bool(&eval_scalar_with(l, tuple, ctx, strategy)?, l)? {
                Ok(Value::Bool(as_bool(
                    &eval_scalar_with(r, tuple, ctx, strategy)?,
                    r,
                )?))
            } else {
                Ok(Value::Bool(false))
            }
        }
        ScalarExpr::Or(l, r) => {
            if as_bool(&eval_scalar_with(l, tuple, ctx, strategy)?, l)? {
                Ok(Value::Bool(true))
            } else {
                Ok(Value::Bool(as_bool(
                    &eval_scalar_with(r, tuple, ctx, strategy)?,
                    r,
                )?))
            }
        }
        ScalarExpr::Not(e) => Ok(Value::Bool(!as_bool(
            &eval_scalar_with(e, tuple, ctx, strategy)?,
            e,
        )?)),
        ScalarExpr::IsNull(e) => Ok(Value::Bool(
            eval_scalar_with(e, tuple, ctx, strategy)?.is_null(),
        )),
        ScalarExpr::Agg(func, rel, col) => {
            let input = evaluate_with(rel, ctx, strategy)?;
            eval_aggregate(*func, &input, *col)
        }
        ScalarExpr::Cnt(rel) => {
            let input = evaluate_with(rel, ctx, strategy)?;
            Ok(Value::Int(input.len() as i64))
        }
    }
}

/// [`ScalarExpr::infer_type`] made binding-aware: a placeholder's type is
/// that of its bound value (statically it is unknowable and defaults to
/// `Int`, which would mistype derived schemas under a binding — e.g.
/// `project[?0]` of a string parameter must yield a `Str` column, exactly
/// as the substituted-constant form would). Only `Param` and the `Arith`
/// spine above it need the context; every other node's type is
/// binding-independent.
fn infer_type_bound(e: &ScalarExpr, cols: &[ValueType], ctx: &impl EvalContext) -> ValueType {
    match e {
        ScalarExpr::Param(i) => ctx
            .param(*i)
            .and_then(Value::value_type)
            .unwrap_or(ValueType::Int),
        ScalarExpr::Arith(_, l, r) => {
            if infer_type_bound(l, cols, ctx) == ValueType::Double
                || infer_type_bound(r, cols, ctx) == ValueType::Double
            {
                ValueType::Double
            } else {
                ValueType::Int
            }
        }
        _ => e.infer_type(cols),
    }
}

fn as_bool(v: &Value, expr: &ScalarExpr) -> Result<bool> {
    v.as_bool()
        .ok_or_else(|| AlgebraError::NotABoolean(expr.to_string()))
}

/// [`arith`] with its error in the algebra's error type.
pub(crate) fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    Ok(arith(op, l, r)?)
}

/// [`aggregate`] over zero-based column `col` of `input`, with its error
/// in the algebra's error type.
pub fn eval_aggregate(func: AggFunc, input: &Relation, col: usize) -> Result<Value> {
    Ok(aggregate(func, input, col)?)
}

/// Evaluate a relational expression to a relation state with the default
/// [`JoinStrategy::Hash`] execution.
pub fn evaluate(expr: &RelExpr, ctx: &impl EvalContext) -> Result<Relation> {
    evaluate_with(expr, ctx, JoinStrategy::Hash)
}

/// Evaluate a relational expression with an explicit [`JoinStrategy`].
pub fn evaluate_with(
    expr: &RelExpr,
    ctx: &impl EvalContext,
    strategy: JoinStrategy,
) -> Result<Relation> {
    match expr {
        RelExpr::Rel(name) => Ok(ctx.relation_state(name)?.clone()),
        RelExpr::Literal(tuples) => {
            let schema = infer_literal_schema(tuples);
            let mut rel = Relation::with_capacity(schema, tuples.len());
            for t in tuples {
                rel.insert_unchecked(t.clone());
            }
            Ok(rel)
        }
        RelExpr::Singleton(exprs) => {
            let empty = Tuple::empty();
            let mut values = Vec::with_capacity(exprs.len());
            for e in exprs {
                values.push(eval_scalar_with(e, &empty, ctx, strategy)?);
            }
            let schema = {
                let attrs: Vec<Attribute> = values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        Attribute::new(format!("c{i}"), v.value_type().unwrap_or(ValueType::Int))
                    })
                    .collect();
                Arc::new(
                    RelationSchema::new("one".to_owned(), attrs)
                        .expect("generated names are unique"),
                )
            };
            let mut rel = Relation::with_capacity(schema, 1);
            rel.insert_unchecked(Tuple::from_values(values));
            Ok(rel)
        }
        RelExpr::Select(input, pred) => {
            let input = evaluate_with(input, ctx, strategy)?;
            let mut out = Relation::with_capacity(input.schema().clone(), input.len());
            for t in input.iter() {
                if as_bool(&eval_scalar_with(pred, t, ctx, strategy)?, pred)? {
                    out.insert_unchecked(t.clone());
                }
            }
            Ok(out)
        }
        RelExpr::Project(input, exprs) => {
            let input = evaluate_with(input, ctx, strategy)?;
            let in_types: Vec<ValueType> = input.schema().domain();
            let schema = Arc::new(
                RelationSchema::new(
                    "π".to_owned(),
                    exprs
                        .iter()
                        .enumerate()
                        .map(|(i, e)| {
                            Attribute::new(format!("c{i}"), infer_type_bound(e, &in_types, ctx))
                        })
                        .collect(),
                )
                .expect("generated names are unique"),
            );
            let mut out = Relation::with_capacity(schema, input.len());
            for t in input.iter() {
                let mut values = Vec::with_capacity(exprs.len());
                for e in exprs {
                    values.push(eval_scalar_with(e, t, ctx, strategy)?);
                }
                out.insert_unchecked(Tuple::from_values(values));
            }
            Ok(out)
        }
        RelExpr::Join(l, r, pred) => {
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            let schema = concat_schema(left.schema(), right.schema());
            if strategy == JoinStrategy::Hash {
                let total = left.schema().arity() + right.schema().arity();
                if let Some(keys) = extract_equi_keys(pred, left.schema().arity(), total) {
                    return hash_join(&left, &right, &keys, schema, ctx);
                }
            }
            let mut out = Relation::with_capacity(schema, left.len());
            for lt in left.iter() {
                for rt in right.iter() {
                    let joined = lt.concat(rt);
                    if as_bool(&eval_scalar_with(pred, &joined, ctx, strategy)?, pred)? {
                        out.insert_unchecked(joined);
                    }
                }
            }
            Ok(out)
        }
        RelExpr::SemiJoin(l, r, pred) => {
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            if strategy == JoinStrategy::Hash {
                let total = left.schema().arity() + right.schema().arity();
                if let Some(keys) = extract_equi_keys(pred, left.schema().arity(), total) {
                    return hash_semi_anti(&left, &right, &keys, ctx, true);
                }
            }
            let mut out = Relation::with_capacity(left.schema().clone(), left.len());
            for lt in left.iter() {
                if matches_any(lt, &right, pred, ctx, strategy)? {
                    out.insert_unchecked(lt.clone());
                }
            }
            Ok(out)
        }
        RelExpr::AntiJoin(l, r, pred) => {
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            if strategy == JoinStrategy::Hash {
                let total = left.schema().arity() + right.schema().arity();
                if let Some(keys) = extract_equi_keys(pred, left.schema().arity(), total) {
                    return hash_semi_anti(&left, &right, &keys, ctx, false);
                }
            }
            let mut out = Relation::with_capacity(left.schema().clone(), left.len());
            for lt in left.iter() {
                if !matches_any(lt, &right, pred, ctx, strategy)? {
                    out.insert_unchecked(lt.clone());
                }
            }
            Ok(out)
        }
        RelExpr::Union(l, r) => {
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            check_union_compatible(&left, &right)?;
            // Empty or identical-storage right side: the result *is* the
            // left operand — return it without unsharing its COW storage
            // (differential checks union empty deltas constantly).
            if right.is_empty() || left.shares_storage(&right) {
                return Ok(left);
            }
            let mut out = left;
            for t in right.iter() {
                out.insert_unchecked(t.clone());
            }
            Ok(out)
        }
        RelExpr::Difference(l, r) => {
            // Whole-tuple set lookups: `contains` probes the right side's
            // tuple hash set, so this is already a hash "join" on the full
            // key — O(|L| + |R|).
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            check_union_compatible(&left, &right)?;
            if right.is_empty() {
                return Ok(left); // R − ∅ = R, storage shared
            }
            if left.shares_storage(&right) {
                // R − R = ∅ without scanning (e.g. `alarm(R@pre − R@pre)`).
                return Ok(Relation::empty(left.schema().clone()));
            }
            let mut out = Relation::with_capacity(left.schema().clone(), left.len());
            for t in left.iter() {
                if !right.contains(t) {
                    out.insert_unchecked(t.clone());
                }
            }
            Ok(out)
        }
        RelExpr::Intersect(l, r) => {
            let left = evaluate_with(l, ctx, strategy)?;
            let right = evaluate_with(r, ctx, strategy)?;
            check_union_compatible(&left, &right)?;
            if left.shares_storage(&right) {
                return Ok(left); // R ∩ R = R, storage shared
            }
            if left.is_empty() || right.is_empty() {
                return Ok(Relation::empty(left.schema().clone()));
            }
            let (small, large) = if left.len() <= right.len() {
                (&left, &right)
            } else {
                (&right, &left)
            };
            let mut out = Relation::with_capacity(left.schema().clone(), small.len());
            for t in small.iter() {
                if large.contains(t) {
                    out.insert_unchecked(t.clone());
                }
            }
            Ok(out)
        }
    }
}

fn matches_any(
    lt: &Tuple,
    right: &Relation,
    pred: &ScalarExpr,
    ctx: &impl EvalContext,
    strategy: JoinStrategy,
) -> Result<bool> {
    for rt in right.iter() {
        let joined = lt.concat(rt);
        if as_bool(&eval_scalar_with(pred, &joined, ctx, strategy)?, pred)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Verify one bucket candidate: the paired key columns compare equal and
/// the residual predicate (if any) accepts the concatenated tuple.
fn candidate_matches(
    lt: &Tuple,
    rt: &Tuple,
    keys: &JoinKeys,
    ctx: &impl EvalContext,
) -> Result<bool> {
    if !key_values_match(lt, rt, &keys.pairs) {
        return Ok(false);
    }
    if let Some(res) = &keys.residual {
        let joined = lt.concat(rt);
        return as_bool(
            &eval_scalar_with(res, &joined, ctx, JoinStrategy::Hash)?,
            res,
        );
    }
    Ok(true)
}

/// Hash theta-join: build on the smaller input, probe with the larger,
/// verify bucket candidates with the compare-based key test and the
/// residual predicate. The output is identical to the nested-loop join for
/// error-free predicates (see [`crate::keys::extract_equi_keys`]).
fn hash_join(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    schema: Arc<RelationSchema>,
    ctx: &impl EvalContext,
) -> Result<Relation> {
    let build_left = left.len() <= right.len();
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let (build_cols, probe_cols) = if build_left {
        (keys.left_cols(), keys.right_cols())
    } else {
        (keys.right_cols(), keys.left_cols())
    };
    let mut table: FxHashMap<u64, Vec<&Tuple>> = fx_map_with_capacity(build.len());
    for t in build.iter() {
        table
            .entry(hash_key_values(t, &build_cols))
            .or_default()
            .push(t);
    }
    let mut out = Relation::with_capacity(schema, probe.len());
    for pt in probe.iter() {
        let Some(bucket) = table.get(&hash_key_values(pt, &probe_cols)) else {
            continue;
        };
        for bt in bucket {
            let (lt, rt) = if build_left { (*bt, pt) } else { (pt, *bt) };
            if candidate_matches(lt, rt, keys, ctx)? {
                out.insert_unchecked(lt.concat(rt));
            }
        }
    }
    Ok(out)
}

/// Hash semi-join (`keep = true`) / anti-join (`keep = false`): emit left
/// tuples with (without) at least one right match. Builds the hash table
/// on the smaller input either way — probing left tuples against a right
/// table, or scanning the right input against a left table and marking
/// matched left tuples (with early exit once every left tuple matched).
fn hash_semi_anti(
    left: &Relation,
    right: &Relation,
    keys: &JoinKeys,
    ctx: &impl EvalContext,
    keep: bool,
) -> Result<Relation> {
    let mut out = Relation::with_capacity(left.schema().clone(), left.len());
    let (left_cols, right_cols) = (keys.left_cols(), keys.right_cols());
    if right.len() <= left.len() {
        // Build on right, probe each left tuple for a match.
        let mut table: FxHashMap<u64, Vec<&Tuple>> = fx_map_with_capacity(right.len());
        for t in right.iter() {
            table
                .entry(hash_key_values(t, &right_cols))
                .or_default()
                .push(t);
        }
        for lt in left.iter() {
            let mut matched = false;
            if let Some(bucket) = table.get(&hash_key_values(lt, &left_cols)) {
                for rt in bucket {
                    if candidate_matches(lt, rt, keys, ctx)? {
                        matched = true;
                        break;
                    }
                }
            }
            if matched == keep {
                out.insert_unchecked(lt.clone());
            }
        }
    } else {
        // Build on left, scan right once and mark matched left tuples.
        let left_tuples: Vec<&Tuple> = left.iter().collect();
        let mut table: FxHashMap<u64, Vec<u32>> = fx_map_with_capacity(left_tuples.len());
        for (i, t) in left_tuples.iter().enumerate() {
            table
                .entry(hash_key_values(t, &left_cols))
                .or_default()
                .push(i as u32);
        }
        let mut matched = vec![false; left_tuples.len()];
        let mut unmatched = left_tuples.len();
        'scan: for rt in right.iter() {
            let Some(bucket) = table.get(&hash_key_values(rt, &right_cols)) else {
                continue;
            };
            for &i in bucket {
                let i = i as usize;
                if matched[i] {
                    continue;
                }
                if !candidate_matches(left_tuples[i], rt, keys, ctx)? {
                    continue;
                }
                matched[i] = true;
                unmatched -= 1;
                if unmatched == 0 {
                    break 'scan;
                }
            }
        }
        for (i, lt) in left_tuples.iter().enumerate() {
            if matched[i] == keep {
                out.insert_unchecked((*lt).clone());
            }
        }
    }
    Ok(out)
}

fn check_union_compatible(left: &Relation, right: &Relation) -> Result<()> {
    if left.schema().union_compatible(right.schema()) {
        Ok(())
    } else {
        Err(AlgebraError::NotUnionCompatible {
            left: left.schema().to_string(),
            right: right.schema().to_string(),
        })
    }
}

fn concat_schema(left: &Arc<RelationSchema>, right: &Arc<RelationSchema>) -> Arc<RelationSchema> {
    let mut attrs: Vec<Attribute> = Vec::with_capacity(left.arity() + right.arity());
    for (i, a) in left
        .attributes()
        .iter()
        .chain(right.attributes())
        .enumerate()
    {
        // Positional names avoid collisions between the two sides.
        attrs.push(Attribute::new(format!("c{i}"), a.value_type()));
    }
    Arc::new(RelationSchema::new("⨯".to_owned(), attrs).expect("generated names are unique"))
}

fn infer_literal_schema(tuples: &[Tuple]) -> Arc<RelationSchema> {
    let arity = tuples.first().map_or(0, Tuple::arity);
    let attrs: Vec<Attribute> = (0..arity)
        .map(|i| {
            let ty = tuples
                .iter()
                .find_map(|t| t.get(i).and_then(Value::value_type))
                .unwrap_or(ValueType::Int);
            Attribute::new(format!("c{i}"), ty)
        })
        .collect();
    Arc::new(RelationSchema::new("lit".to_owned(), attrs).expect("generated names are unique"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use tm_relational::DatabaseSchema;

    fn test_db() -> Database {
        let schema = DatabaseSchema::from_relations(vec![
            RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Str)]),
            RelationSchema::of("s", &[("x", ValueType::Int)]),
        ])
        .unwrap();
        let mut db = Database::new(schema.into_shared());
        for (a, b) in [(1, "one"), (2, "two"), (3, "three")] {
            db.insert("r", Tuple::of((a, b))).unwrap();
        }
        for x in [2, 3, 4] {
            db.insert("s", Tuple::of((x,))).unwrap();
        }
        db
    }

    #[test]
    fn select_filters() {
        let db = test_db();
        let e = RelExpr::relation("r").select(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(0),
            ScalarExpr::int(1),
        ));
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Tuple::of((2, "two"))));
        assert!(out.contains(&Tuple::of((3, "three"))));
    }

    #[test]
    fn project_computes() {
        let db = test_db();
        let e = RelExpr::relation("s").project(vec![ScalarExpr::arith(
            ArithOp::Mul,
            ScalarExpr::col(0),
            ScalarExpr::int(10),
        )]);
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.contains(&Tuple::of((20,))));
        assert!(out.contains(&Tuple::of((40,))));
    }

    #[test]
    fn project_deduplicates() {
        let db = test_db();
        let e = RelExpr::relation("r").project(vec![ScalarExpr::int(1)]);
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 1); // set semantics collapse
    }

    #[test]
    fn join_theta() {
        let db = test_db();
        let e = RelExpr::relation("r").join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 2));
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&Tuple::of((2, "two", 2))));
        assert!(out.contains(&Tuple::of((3, "three", 3))));
    }

    #[test]
    fn semi_and_anti_join_partition() {
        let db = test_db();
        let semi = evaluate(
            &RelExpr::relation("r").semi_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 2)),
            &db,
        )
        .unwrap();
        let anti = evaluate(
            &RelExpr::relation("r").anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 2)),
            &db,
        )
        .unwrap();
        assert_eq!(semi.len() + anti.len(), 3);
        assert!(semi.contains(&Tuple::of((2, "two"))));
        assert!(anti.contains(&Tuple::of((1, "one"))));
    }

    #[test]
    fn set_operations() {
        let db = test_db();
        let r_ints = RelExpr::relation("r").project_cols(&[0]);
        let s = RelExpr::relation("s");
        let union = evaluate(&r_ints.clone().union(s.clone()), &db).unwrap();
        assert_eq!(union.len(), 4); // {1,2,3} ∪ {2,3,4}
        let diff = evaluate(&r_ints.clone().difference(s.clone()), &db).unwrap();
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&Tuple::of((1,))));
        let inter = evaluate(&r_ints.intersect(s), &db).unwrap();
        assert_eq!(inter.len(), 2);
    }

    #[test]
    fn union_incompatible_rejected() {
        let db = test_db();
        let e = RelExpr::relation("r").union(RelExpr::relation("s"));
        assert!(matches!(
            evaluate(&e, &db),
            Err(AlgebraError::NotUnionCompatible { .. })
        ));
    }

    #[test]
    fn product_sizes() {
        // The cartesian product is `join[true]`: |r|·|s| tuples.
        let db = test_db();
        let e = RelExpr::relation("r").join(RelExpr::relation("s"), ScalarExpr::true_());
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 9);
        assert_eq!(out.schema().arity(), 3);
    }

    #[test]
    fn aggregates() {
        let db = test_db();
        let sum = eval_scalar(
            &ScalarExpr::Agg(AggFunc::Sum, Box::new(RelExpr::relation("s")), 0),
            &Tuple::empty(),
            &db,
        )
        .unwrap();
        assert_eq!(sum, Value::Int(9));
        let avg = eval_scalar(
            &ScalarExpr::Agg(AggFunc::Avg, Box::new(RelExpr::relation("s")), 0),
            &Tuple::empty(),
            &db,
        )
        .unwrap();
        assert_eq!(avg, Value::double(3.0));
        let min = eval_scalar(
            &ScalarExpr::Agg(AggFunc::Min, Box::new(RelExpr::relation("s")), 0),
            &Tuple::empty(),
            &db,
        )
        .unwrap();
        assert_eq!(min, Value::Int(2));
        let cnt = eval_scalar(
            &ScalarExpr::Cnt(Box::new(RelExpr::relation("r"))),
            &Tuple::empty(),
            &db,
        )
        .unwrap();
        assert_eq!(cnt, Value::Int(3));
    }

    #[test]
    fn empty_aggregates() {
        let db = test_db();
        let empty = RelExpr::relation("s").select(ScalarExpr::false_());
        let sum = eval_scalar(
            &ScalarExpr::Agg(AggFunc::Sum, Box::new(empty.clone()), 0),
            &Tuple::empty(),
            &db,
        )
        .unwrap();
        assert_eq!(sum, Value::Int(0));
        let min = eval_scalar(
            &ScalarExpr::Agg(AggFunc::Min, Box::new(empty), 0),
            &Tuple::empty(),
            &db,
        );
        assert!(matches!(min, Err(AlgebraError::EmptyAggregate("MIN"))));
    }

    #[test]
    fn singleton_with_aggregate() {
        let db = test_db();
        let e = RelExpr::Singleton(vec![ScalarExpr::Cnt(Box::new(RelExpr::relation("r")))]);
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::of((3,))));
    }

    #[test]
    fn literal_relation() {
        let db = test_db();
        let e = RelExpr::Literal(vec![Tuple::of((1,)), Tuple::of((2,)), Tuple::of((1,))]);
        let out = evaluate(&e, &db).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(
            eval_arith(ArithOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(matches!(
            eval_arith(ArithOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(AlgebraError::DivisionByZero)
        ));
        assert_eq!(
            eval_arith(ArithOp::Add, &Value::Int(1), &Value::double(0.5)).unwrap(),
            Value::double(1.5)
        );
        assert!(eval_arith(ArithOp::Add, &Value::str("x"), &Value::Int(1)).is_err());
    }

    #[test]
    fn short_circuit_skips_errors() {
        let db = test_db();
        // Col(99) would error, but the left operand decides.
        let e = ScalarExpr::and(ScalarExpr::false_(), ScalarExpr::col(99));
        assert_eq!(
            eval_scalar(&e, &Tuple::empty(), &db).unwrap(),
            Value::Bool(false)
        );
        let e = ScalarExpr::or(ScalarExpr::true_(), ScalarExpr::col(99));
        assert_eq!(
            eval_scalar(&e, &Tuple::empty(), &db).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn hash_and_nested_join_agree() {
        let db = test_db();
        let pred = ScalarExpr::and(
            ScalarExpr::col_eq(0, 2),
            ScalarExpr::cmp(CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::int(2)),
        );
        let e = RelExpr::relation("r").join(RelExpr::relation("s"), pred);
        let hash = evaluate_with(&e, &db, JoinStrategy::Hash).unwrap();
        let nested = evaluate_with(&e, &db, JoinStrategy::NestedLoop).unwrap();
        assert_eq!(hash.sorted_tuples(), nested.sorted_tuples());
        assert_eq!(hash.len(), 1);
        assert!(hash.contains(&Tuple::of((3, "three", 3))));
    }

    #[test]
    fn hash_semi_anti_agree_with_nested() {
        let db = test_db();
        for (mk, len) in [
            (
                RelExpr::relation("r").semi_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 2)),
                2,
            ),
            (
                RelExpr::relation("r").anti_join(RelExpr::relation("s"), ScalarExpr::col_eq(0, 2)),
                1,
            ),
        ] {
            let hash = evaluate_with(&mk, &db, JoinStrategy::Hash).unwrap();
            let nested = evaluate_with(&mk, &db, JoinStrategy::NestedLoop).unwrap();
            assert_eq!(hash.sorted_tuples(), nested.sorted_tuples());
            assert_eq!(hash.len(), len);
        }
    }

    #[test]
    fn hash_join_matches_int_against_double() {
        // `compare` equates Int(2) with Double(2.0); the hash path must
        // produce the same matches as the nested loop would.
        let schema = DatabaseSchema::from_relations(vec![
            RelationSchema::of("ints", &[("a", ValueType::Int)]),
            RelationSchema::of("dbls", &[("x", ValueType::Double)]),
        ])
        .unwrap();
        let mut db = Database::new(schema.into_shared());
        for a in [1, 2, 3] {
            db.insert("ints", Tuple::of((a,))).unwrap();
        }
        for x in [2.0_f64, 4.0] {
            db.insert("dbls", Tuple::of((x,))).unwrap();
        }
        let e = RelExpr::relation("ints").join(RelExpr::relation("dbls"), ScalarExpr::col_eq(0, 1));
        let hash = evaluate_with(&e, &db, JoinStrategy::Hash).unwrap();
        let nested = evaluate_with(&e, &db, JoinStrategy::NestedLoop).unwrap();
        assert_eq!(hash.sorted_tuples(), nested.sorted_tuples());
        assert_eq!(hash.len(), 1);
        assert!(hash.contains(&Tuple::of((2, 2.0_f64))));
    }

    #[test]
    fn hash_join_empty_build_side() {
        let db = test_db();
        let empty = RelExpr::relation("s").select(ScalarExpr::false_());
        let e = RelExpr::relation("r").join(empty.clone(), ScalarExpr::col_eq(0, 2));
        assert_eq!(evaluate(&e, &db).unwrap().len(), 0);
        let anti = RelExpr::relation("r").anti_join(empty, ScalarExpr::col_eq(0, 2));
        assert_eq!(evaluate(&anti, &db).unwrap().len(), 3);
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        let db = test_db();
        let e = RelExpr::relation("r").select(ScalarExpr::int(1));
        assert!(matches!(
            evaluate(&e, &db),
            Err(AlgebraError::NotABoolean(_))
        ));
    }
}
