//! Static typechecking of RL action programs.
//!
//! Compensating actions are arbitrary algebra programs written by the
//! rule designer; unlike compiled checks they are not derived from an
//! analysed formula, so nothing guarantees they are well-formed. Before
//! this pass, an action naming an unknown relation or inserting rows of
//! the wrong arity was admitted at definition time and only failed
//! (with a runtime error aborting the transaction) when it first fired
//! — possibly millions of executions later. [`check_program`] rejects
//! such actions when the rule is defined.
//!
//! The checks are purely static:
//!
//! * every referenced relation resolves — a temporary bound earlier in
//!   the program, an auxiliary differential (`R@ins` / `R@del` /
//!   `R@pre`) of a base relation, or a base relation of the schema;
//! * arities are consistent through every operator (predicates may only
//!   address columns of the tuple they see, set operations unify their
//!   operand arities, projections define the output arity);
//! * `insert` / `delete` / `update` targets are *base* relations with a
//!   matching source arity;
//! * literal tuples and grounded singleton rows conform per attribute
//!   to the target's declared domains (`null` conforms to every domain;
//!   numeric types are exact, matching runtime tuple validation).
//!
//! Arity inference is partial: an empty literal has unknown arity, and
//! unknown arities unify with anything (no false rejections).

use std::collections::BTreeMap;

use tm_algebra::{Program, RelExpr, ScalarExpr, Statement};
use tm_relational::auxiliary::{is_auxiliary, parse_auxiliary};
use tm_relational::{DatabaseSchema, RelationSchema, Value};

/// Environment of temporaries bound so far: name → arity when known.
type Temps = BTreeMap<String, Option<usize>>;

/// Typecheck an action program against a schema. Returns a
/// human-readable description of the first defect found.
pub fn check_program(program: &Program, schema: &DatabaseSchema) -> Result<(), String> {
    let mut temps: Temps = BTreeMap::new();
    for stmt in program.statements() {
        match stmt {
            Statement::Assign { target, expr } => {
                if is_auxiliary(target) {
                    return Err(format!(
                        "temporary `{target}` uses the reserved auxiliary-relation marker"
                    ));
                }
                if schema.relation(target).is_ok() {
                    return Err(format!("temporary `{target}` shadows a base relation"));
                }
                let arity = infer(expr, schema, &temps)?;
                temps.insert(target.clone(), arity);
            }
            Statement::Insert { relation, source } => {
                let rel = base_target(relation, "insert", schema, &temps)?;
                let arity = infer(source, schema, &temps)?;
                unify_target(rel, arity, "insert")?;
                check_inserted_values(rel, source)?;
            }
            Statement::Delete { relation, source } => {
                let rel = base_target(relation, "delete", schema, &temps)?;
                let arity = infer(source, schema, &temps)?;
                unify_target(rel, arity, "delete")?;
            }
            Statement::Update {
                relation,
                pred,
                set,
            } => {
                let rel = base_target(relation, "update", schema, &temps)?;
                let arity = rel.arity();
                check_scalar(pred, Some(arity), schema, &temps)?;
                for assignment in set {
                    if assignment.position >= arity {
                        return Err(format!(
                            "update of `{relation}` assigns attribute #{} but the relation has arity {arity}",
                            assignment.position
                        ));
                    }
                    check_scalar(&assignment.value, Some(arity), schema, &temps)?;
                    if let ScalarExpr::Const(v) = &assignment.value {
                        let attr = &rel.attributes()[assignment.position];
                        if !v.conforms_to(attr.value_type()) {
                            return Err(format!(
                                "update of `{relation}` assigns {v} to `{}` which has domain {}",
                                attr.name(),
                                attr.value_type()
                            ));
                        }
                    }
                }
            }
            Statement::Alarm(expr) => {
                infer(expr, schema, &temps)?;
            }
            Statement::Abort => {}
        }
    }
    Ok(())
}

/// Resolve an `insert`/`delete`/`update` target: must be a known base
/// relation — not an auxiliary, not a temporary.
fn base_target<'s>(
    relation: &str,
    verb: &str,
    schema: &'s DatabaseSchema,
    temps: &Temps,
) -> Result<&'s RelationSchema, String> {
    if is_auxiliary(relation) {
        return Err(format!(
            "{verb} target `{relation}` is an auxiliary differential; only base relations can be written"
        ));
    }
    if temps.contains_key(relation) {
        return Err(format!(
            "{verb} target `{relation}` is a temporary; only base relations can be written"
        ));
    }
    schema
        .relation(relation)
        .map_err(|_| format!("{verb} target `{relation}` is not a relation of the schema"))
}

fn unify_target(
    rel: &RelationSchema,
    source_arity: Option<usize>,
    verb: &str,
) -> Result<(), String> {
    if let Some(a) = source_arity {
        if a != rel.arity() {
            return Err(format!(
                "{verb} into `{}` expects arity {}, source has arity {a}",
                rel.name(),
                rel.arity()
            ));
        }
    }
    Ok(())
}

/// Per-attribute domain conformance for statically known inserted rows
/// (literal tuples and grounded singleton values). Mirrors the
/// runtime's tuple validation: `null` conforms to every domain, numeric
/// types are exact.
fn check_inserted_values(rel: &RelationSchema, source: &RelExpr) -> Result<(), String> {
    let check_value = |v: &Value, position: usize| -> Result<(), String> {
        let attr = &rel.attributes()[position];
        if v.conforms_to(attr.value_type()) {
            Ok(())
        } else {
            Err(format!(
                "insert into `{}` puts {v} in `{}` which has domain {}",
                rel.name(),
                attr.name(),
                attr.value_type()
            ))
        }
    };
    match source {
        RelExpr::Literal(tuples) => {
            for t in tuples {
                if t.arity() == rel.arity() {
                    for (i, v) in t.values().iter().enumerate() {
                        check_value(v, i)?;
                    }
                }
            }
        }
        RelExpr::Singleton(exprs) if exprs.len() == rel.arity() => {
            for (i, e) in exprs.iter().enumerate() {
                if let ScalarExpr::Const(v) = e {
                    check_value(v, i)?;
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Infer the arity of a relational expression, validating every name
/// and predicate on the way. `None` means statically unknown (empty
/// literal), which unifies with anything.
fn infer(expr: &RelExpr, schema: &DatabaseSchema, temps: &Temps) -> Result<Option<usize>, String> {
    match expr {
        RelExpr::Rel(name) => {
            if let Some(arity) = temps.get(name) {
                return Ok(*arity);
            }
            if let Some((base, _)) = parse_auxiliary(name) {
                return match schema.relation(base) {
                    Ok(rel) => Ok(Some(rel.arity())),
                    Err(_) => Err(format!(
                        "`{name}` is a differential of `{base}`, which is not a relation of the schema"
                    )),
                };
            }
            match schema.relation(name) {
                Ok(rel) => Ok(Some(rel.arity())),
                Err(_) => Err(format!("unknown relation `{name}`")),
            }
        }
        RelExpr::Literal(tuples) => {
            let mut arity = None;
            for t in tuples {
                match arity {
                    None => arity = Some(t.arity()),
                    Some(a) if a != t.arity() => {
                        return Err(format!(
                            "literal relation mixes tuples of arity {a} and {}",
                            t.arity()
                        ))
                    }
                    Some(_) => {}
                }
            }
            Ok(arity)
        }
        RelExpr::Singleton(exprs) => {
            // Singleton rows are evaluated over the empty tuple: column
            // references cannot resolve.
            for e in exprs {
                check_scalar(e, Some(0), schema, temps)?;
            }
            Ok(Some(exprs.len()))
        }
        RelExpr::Select(inner, pred) => {
            let arity = infer(inner, schema, temps)?;
            check_scalar(pred, arity, schema, temps)?;
            Ok(arity)
        }
        RelExpr::Project(inner, exprs) => {
            let arity = infer(inner, schema, temps)?;
            for e in exprs {
                check_scalar(e, arity, schema, temps)?;
            }
            Ok(Some(exprs.len()))
        }
        RelExpr::Join(l, r, pred) => {
            let (la, ra) = (infer(l, schema, temps)?, infer(r, schema, temps)?);
            let joint = match (la, ra) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            check_scalar(pred, joint, schema, temps)?;
            Ok(joint)
        }
        RelExpr::SemiJoin(l, r, pred) | RelExpr::AntiJoin(l, r, pred) => {
            let (la, ra) = (infer(l, schema, temps)?, infer(r, schema, temps)?);
            let joint = match (la, ra) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            check_scalar(pred, joint, schema, temps)?;
            Ok(la)
        }
        RelExpr::Union(l, r) | RelExpr::Difference(l, r) | RelExpr::Intersect(l, r) => {
            let (la, ra) = (infer(l, schema, temps)?, infer(r, schema, temps)?);
            match (la, ra) {
                (Some(a), Some(b)) if a != b => Err(format!(
                    "set operation over operands of different arities ({a} vs {b})"
                )),
                (Some(a), _) | (_, Some(a)) => Ok(Some(a)),
                (None, None) => Ok(None),
            }
        }
    }
}

/// Validate a scalar expression over a tuple of (possibly unknown)
/// arity: column references must be in range, nested relational
/// subexpressions (aggregates, counts) must themselves typecheck.
fn check_scalar(
    expr: &ScalarExpr,
    arity: Option<usize>,
    schema: &DatabaseSchema,
    temps: &Temps,
) -> Result<(), String> {
    match expr {
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => Ok(()),
        ScalarExpr::Col(i) => match arity {
            Some(a) if *i >= a => Err(format!(
                "column #{i} referenced, but the tuple in scope has arity {a}"
            )),
            _ => Ok(()),
        },
        ScalarExpr::Arith(_, l, r) | ScalarExpr::Cmp(_, l, r) => {
            check_scalar(l, arity, schema, temps)?;
            check_scalar(r, arity, schema, temps)
        }
        ScalarExpr::And(l, r) | ScalarExpr::Or(l, r) => {
            check_scalar(l, arity, schema, temps)?;
            check_scalar(r, arity, schema, temps)
        }
        ScalarExpr::Not(e) | ScalarExpr::IsNull(e) => check_scalar(e, arity, schema, temps),
        ScalarExpr::Agg(_, rel, col) => {
            let inner = infer(rel, schema, temps)?;
            if let Some(a) = inner {
                if *col >= a {
                    return Err(format!(
                        "aggregate over column #{col} of a relation of arity {a}"
                    ));
                }
            }
            Ok(())
        }
        ScalarExpr::Cnt(rel) => {
            infer(rel, schema, temps)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::parse_program;
    use tm_relational::{RelationSchema, ValueType};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::from_relations(vec![
            RelationSchema::of(
                "brewery",
                &[
                    ("name", ValueType::Str),
                    ("city", ValueType::Str),
                    ("est", ValueType::Int),
                ],
            ),
            RelationSchema::of(
                "beer",
                &[
                    ("name", ValueType::Str),
                    ("brewery", ValueType::Str),
                    ("alcohol", ValueType::Double),
                ],
            ),
            RelationSchema::of("a", &[("x", ValueType::Int)]),
            RelationSchema::of("b", &[("x", ValueType::Int)]),
        ])
        .unwrap()
    }

    fn check(text: &str) -> Result<(), String> {
        check_program(&parse_program(text).unwrap(), &schema())
    }

    #[test]
    fn existing_compensations_pass() {
        check(
            "temp := minus(project[#1](beer), project[#0](brewery)); \
             insert(brewery, project[#0, null, null](temp))",
        )
        .unwrap();
        check("insert(b, a@ins)").unwrap();
        check("insert(a, {(1)})").unwrap();
        check("delete(beer, select[#2 > 10.0](beer))").unwrap();
    }

    #[test]
    fn unknown_relation_rejected() {
        let err = check("insert(a, nosuch)").unwrap_err();
        assert!(err.contains("unknown relation `nosuch`"), "{err}");
        let err = check("insert(nosuch, a)").unwrap_err();
        assert!(err.contains("not a relation"), "{err}");
        let err = check("insert(a, nosuch@ins)").unwrap_err();
        assert!(err.contains("not a relation"), "{err}");
    }

    #[test]
    fn arity_mismatches_rejected() {
        let err = check("insert(a, beer)").unwrap_err();
        assert!(err.contains("expects arity 1"), "{err}");
        let err = check("insert(beer, {(1, 2)})").unwrap_err();
        assert!(err.contains("expects arity 3"), "{err}");
        let err = check("t := union(a, beer); insert(a, t)").unwrap_err();
        assert!(err.contains("different arities"), "{err}");
    }

    #[test]
    fn out_of_range_columns_rejected() {
        let err = check("insert(a, project[#5](beer))").unwrap_err();
        assert!(err.contains("column #5"), "{err}");
        let err = check("delete(a, select[#1 = 0](a))").unwrap_err();
        assert!(err.contains("column #1"), "{err}");
    }

    #[test]
    fn writes_to_non_base_relations_rejected() {
        let err = check("insert(a@ins, a)").unwrap_err();
        assert!(err.contains("auxiliary"), "{err}");
        let err = check("t := a; insert(t, a)").unwrap_err();
        assert!(err.contains("temporary"), "{err}");
        let err = check("a := b").unwrap_err();
        assert!(err.contains("shadows"), "{err}");
    }

    #[test]
    fn domain_conformance_checked() {
        // Int does not conform to a Double attribute (matches runtime
        // tuple validation), but null conforms everywhere.
        let err = check("insert(beer, {(\"pils\", \"brk\", 5)})").unwrap_err();
        assert!(err.contains("domain double"), "{err}");
        check("insert(brewery, {(\"brk\", null, null)})").unwrap();
    }

    #[test]
    fn temporaries_resolve_in_order() {
        check("t := select[#0 > 0](a); u := union(t, b); insert(a, u)").unwrap();
        let err = check("insert(a, t)").unwrap_err();
        assert!(err.contains("unknown relation `t`"), "{err}");
    }
}
