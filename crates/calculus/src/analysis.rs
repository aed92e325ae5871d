//! Static analysis of CL formulas: closedness, safety, schema resolution.
//!
//! Constraints must be *closed* well-formed formulas (every tuple variable
//! bound by a quantifier) and *safe*: every quantified variable must be
//! range-restricted by a membership atom `x ∈ R` inside its scope, which
//! fixes the relation the variable ranges over. Safety is what makes both
//! direct evaluation (the test oracle in `tm-paper`) and the
//! calculus-to-algebra translation (`tm-translate`) possible; it is the
//! standard restriction for tuple relational calculus [Ullman 1982], which
//! the paper inherits via its reference \[21\].
//!
//! The analysis also resolves named attribute selections (`x.alcohol`) to
//! the paper's 1-based positions (`x.4`) against the database schema, and
//! type-checks comparisons and aggregate applications.

use tm_relational::util::FxHashMap;
use tm_relational::{auxiliary, DatabaseSchema, RelationSchema, ValueType};

use crate::ast::{AggFunc, Atom, AttrSel, Formula, Term, VarName};
use crate::error::{CalculusError, Result};

/// The result of analysing a constraint formula.
#[derive(Debug, Clone)]
pub struct ConstraintInfo {
    /// The analysed formula with all variables made unique (alpha-renamed
    /// where needed) and all attribute selections resolved to 1-based
    /// positions.
    pub formula: Formula,
    /// For every (renamed) quantified variable, the relation it ranges
    /// over — derived from the membership atoms in its scope.
    pub ranges: FxHashMap<VarName, String>,
    /// Relations referenced by the formula.
    pub relations: Vec<String>,
}

/// Compute the free tuple variables of a formula, in first-use order.
pub fn free_variables(f: &Formula) -> Vec<VarName> {
    fn term_vars(t: &Term, bound: &[VarName], out: &mut Vec<VarName>) {
        match t {
            Term::Attr { var, .. } => {
                if !bound.contains(var) && !out.contains(var) {
                    out.push(var.clone());
                }
            }
            Term::Arith(_, l, r) => {
                term_vars(l, bound, out);
                term_vars(r, bound, out);
            }
            Term::Const(_) | Term::Agg { .. } | Term::Cnt { .. } => {}
        }
    }
    fn walk(f: &Formula, bound: &mut Vec<VarName>, out: &mut Vec<VarName>) {
        match f {
            Formula::Atom(Atom::Member { var, .. }) => {
                if !bound.contains(var) && !out.contains(var) {
                    out.push(var.clone());
                }
            }
            Formula::Atom(Atom::TupleEq(a, b)) => {
                for v in [a, b] {
                    if !bound.contains(v) && !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
            Formula::Atom(Atom::Cmp(_, l, r)) => {
                term_vars(l, bound, out);
                term_vars(r, bound, out);
            }
            Formula::Not(x) => walk(x, bound, out),
            Formula::And(l, r) | Formula::Or(l, r) | Formula::Implies(l, r) => {
                walk(l, bound, out);
                walk(r, bound, out);
            }
            Formula::Quant(_, v, body) => {
                bound.push(v.clone());
                walk(body, bound, out);
                bound.pop();
            }
        }
    }
    let mut out = Vec::new();
    walk(f, &mut Vec::new(), &mut out);
    out
}

/// Alpha-rename so every quantifier binds a globally unique variable name.
/// Re-used names get `#n` suffixes (not producible by the parser, so no
/// collisions with user names).
fn alpha_rename(f: &Formula) -> Formula {
    fn rename_term(t: &Term, map: &FxHashMap<VarName, VarName>) -> Term {
        match t {
            Term::Attr { var, sel } => Term::Attr {
                var: map.get(var).cloned().unwrap_or_else(|| var.clone()),
                sel: sel.clone(),
            },
            Term::Arith(op, l, r) => Term::Arith(
                *op,
                Box::new(rename_term(l, map)),
                Box::new(rename_term(r, map)),
            ),
            other => other.clone(),
        }
    }
    fn walk(
        f: &Formula,
        map: &mut FxHashMap<VarName, VarName>,
        used: &mut FxHashMap<VarName, usize>,
    ) -> Formula {
        match f {
            Formula::Atom(Atom::Member { var, rel }) => Formula::Atom(Atom::Member {
                var: map.get(var).cloned().unwrap_or_else(|| var.clone()),
                rel: rel.clone(),
            }),
            Formula::Atom(Atom::TupleEq(a, b)) => Formula::Atom(Atom::TupleEq(
                map.get(a).cloned().unwrap_or_else(|| a.clone()),
                map.get(b).cloned().unwrap_or_else(|| b.clone()),
            )),
            Formula::Atom(Atom::Cmp(op, l, r)) => {
                Formula::Atom(Atom::Cmp(*op, rename_term(l, map), rename_term(r, map)))
            }
            Formula::Not(x) => Formula::not(walk(x, map, used)),
            Formula::And(l, r) => Formula::and(walk(l, map, used), walk(r, map, used)),
            Formula::Or(l, r) => Formula::or(walk(l, map, used), walk(r, map, used)),
            Formula::Implies(l, r) => Formula::implies(walk(l, map, used), walk(r, map, used)),
            Formula::Quant(q, v, body) => {
                let count = used.entry(v.clone()).or_insert(0);
                *count += 1;
                let fresh = if *count == 1 {
                    v.clone()
                } else {
                    format!("{v}#{count}")
                };
                let shadowed = map.insert(v.clone(), fresh.clone());
                let body = walk(body, map, used);
                match shadowed {
                    Some(old) => {
                        map.insert(v.clone(), old);
                    }
                    None => {
                        map.remove(v);
                    }
                }
                Formula::Quant(*q, fresh, Box::new(body))
            }
        }
    }
    walk(f, &mut FxHashMap::default(), &mut FxHashMap::default())
}

/// Collect the membership atoms `var ∈ R` of a formula (after renaming,
/// variable names are unique, so a flat map suffices). A variable bound to
/// two different relations is rejected; binding the same relation twice is
/// harmless.
fn collect_ranges(f: &Formula, ranges: &mut FxHashMap<VarName, String>) -> Result<()> {
    match f {
        Formula::Atom(Atom::Member { var, rel }) => {
            if let Some(existing) = ranges.get(var) {
                if existing != rel {
                    return Err(CalculusError::TypeError(format!(
                        "variable `{var}` ranges over both `{existing}` and `{rel}`"
                    )));
                }
            }
            ranges.insert(var.clone(), rel.clone());
            Ok(())
        }
        Formula::Atom(_) => Ok(()),
        Formula::Not(x) => collect_ranges(x, ranges),
        Formula::And(l, r) | Formula::Or(l, r) | Formula::Implies(l, r) => {
            collect_ranges(l, ranges)?;
            collect_ranges(r, ranges)
        }
        Formula::Quant(_, _, body) => collect_ranges(body, ranges),
    }
}

fn quantified_vars(f: &Formula, out: &mut Vec<VarName>) {
    match f {
        Formula::Atom(_) => {}
        Formula::Not(x) => quantified_vars(x, out),
        Formula::And(l, r) | Formula::Or(l, r) | Formula::Implies(l, r) => {
            quantified_vars(l, out);
            quantified_vars(r, out);
        }
        Formula::Quant(_, v, body) => {
            out.push(v.clone());
            quantified_vars(body, out);
        }
    }
}

/// Look up the schema for a (possibly auxiliary) relation name.
pub(crate) fn resolve_schema<'s>(
    schema: &'s DatabaseSchema,
    name: &str,
) -> Result<&'s RelationSchema> {
    let base = auxiliary::base_of(name);
    // `R@wat` would parse as base `R@wat` (invalid aux suffix) and fail the
    // schema lookup below, so no separate validation is needed.
    schema
        .relation(base)
        .map_err(|_| CalculusError::UnknownRelation(name.to_owned()))
}

/// Resolve an attribute selector against a relation schema, producing the
/// 1-based position.
fn resolve_sel(rs: &RelationSchema, rel: &str, sel: &AttrSel) -> Result<usize> {
    match sel {
        AttrSel::Position(p) => {
            if *p >= 1 && *p <= rs.arity() {
                Ok(*p)
            } else {
                Err(CalculusError::UnknownAttribute {
                    relation: rel.to_owned(),
                    attribute: p.to_string(),
                })
            }
        }
        AttrSel::Name(n) => {
            rs.position_of(n)
                .map(|p| p + 1)
                .map_err(|_| CalculusError::UnknownAttribute {
                    relation: rel.to_owned(),
                    attribute: n.clone(),
                })
        }
    }
}

/// The inferred type of a term (coarse: exact scalar type).
fn term_type(
    t: &Term,
    schema: &DatabaseSchema,
    ranges: &FxHashMap<VarName, String>,
) -> Result<Option<ValueType>> {
    match t {
        Term::Const(v) => Ok(v.value_type()),
        Term::Attr { var, sel } => {
            let rel = ranges
                .get(var)
                .ok_or_else(|| CalculusError::UnboundVariable(var.clone()))?;
            let rs = resolve_schema(schema, rel)?;
            let pos = resolve_sel(rs, rel, sel)?;
            Ok(Some(rs.attributes()[pos - 1].value_type()))
        }
        Term::Arith(_, l, r) => {
            for side in [l, r] {
                if let Some(ty) = term_type(side, schema, ranges)? {
                    if !matches!(ty, ValueType::Int | ValueType::Double) {
                        return Err(CalculusError::TypeError(format!(
                            "arithmetic over non-numeric term `{side}` of type {ty}"
                        )));
                    }
                }
            }
            let lt = term_type(l, schema, ranges)?;
            let rt = term_type(r, schema, ranges)?;
            Ok(match (lt, rt) {
                (Some(ValueType::Double), _) | (_, Some(ValueType::Double)) => {
                    Some(ValueType::Double)
                }
                _ => Some(ValueType::Int),
            })
        }
        Term::Agg { func, rel, sel } => {
            let rs = resolve_schema(schema, rel)?;
            let pos = resolve_sel(rs, rel, sel)?;
            let col_ty = rs.attributes()[pos - 1].value_type();
            match func {
                AggFunc::Avg => Ok(Some(ValueType::Double)),
                AggFunc::Sum => {
                    if matches!(col_ty, ValueType::Int | ValueType::Double) {
                        Ok(Some(col_ty))
                    } else {
                        Err(CalculusError::TypeError(format!(
                            "SUM over non-numeric attribute of `{rel}`"
                        )))
                    }
                }
                AggFunc::Min | AggFunc::Max => Ok(Some(col_ty)),
            }
        }
        Term::Cnt { rel } => {
            resolve_schema(schema, rel)?;
            Ok(Some(ValueType::Int))
        }
    }
}

fn comparable(l: Option<ValueType>, r: Option<ValueType>) -> bool {
    match (l, r) {
        (None, _) | (_, None) => true, // null compares with anything
        (Some(a), Some(b)) => {
            a == b
                || (matches!(a, ValueType::Int | ValueType::Double)
                    && matches!(b, ValueType::Int | ValueType::Double))
        }
    }
}

/// Resolve attribute names to positions throughout a formula.
fn resolve_formula(
    f: &Formula,
    schema: &DatabaseSchema,
    ranges: &FxHashMap<VarName, String>,
) -> Result<Formula> {
    fn resolve_term(
        t: &Term,
        schema: &DatabaseSchema,
        ranges: &FxHashMap<VarName, String>,
    ) -> Result<Term> {
        match t {
            Term::Attr { var, sel } => {
                let rel = ranges
                    .get(var)
                    .ok_or_else(|| CalculusError::UnboundVariable(var.clone()))?;
                let rs = resolve_schema(schema, rel)?;
                let pos = resolve_sel(rs, rel, sel)?;
                Ok(Term::Attr {
                    var: var.clone(),
                    sel: AttrSel::Position(pos),
                })
            }
            Term::Arith(op, l, r) => Ok(Term::Arith(
                *op,
                Box::new(resolve_term(l, schema, ranges)?),
                Box::new(resolve_term(r, schema, ranges)?),
            )),
            Term::Agg { func, rel, sel } => {
                let rs = resolve_schema(schema, rel)?;
                let pos = resolve_sel(rs, rel, sel)?;
                Ok(Term::Agg {
                    func: *func,
                    rel: rel.clone(),
                    sel: AttrSel::Position(pos),
                })
            }
            Term::Cnt { rel } => {
                resolve_schema(schema, rel)?;
                Ok(t.clone())
            }
            Term::Const(_) => Ok(t.clone()),
        }
    }
    match f {
        Formula::Atom(Atom::Cmp(op, l, r)) => {
            let lt = term_type(l, schema, ranges)?;
            let rt = term_type(r, schema, ranges)?;
            if !comparable(lt, rt) {
                return Err(CalculusError::TypeError(format!(
                    "cannot compare `{l}` with `{r}`"
                )));
            }
            Ok(Formula::Atom(Atom::Cmp(
                *op,
                resolve_term(l, schema, ranges)?,
                resolve_term(r, schema, ranges)?,
            )))
        }
        Formula::Atom(Atom::Member { var, rel }) => {
            resolve_schema(schema, rel)?;
            Ok(Formula::Atom(Atom::Member {
                var: var.clone(),
                rel: rel.clone(),
            }))
        }
        Formula::Atom(Atom::TupleEq(a, b)) => {
            // Both sides must range over union-compatible relations.
            let ra = ranges
                .get(a)
                .ok_or_else(|| CalculusError::UnboundVariable(a.clone()))?;
            let rb = ranges
                .get(b)
                .ok_or_else(|| CalculusError::UnboundVariable(b.clone()))?;
            let sa = resolve_schema(schema, ra)?;
            let sb = resolve_schema(schema, rb)?;
            if !sa.union_compatible(sb) {
                return Err(CalculusError::TypeError(format!(
                    "tuple comparison `{a} == {b}` over incompatible relations `{ra}`/`{rb}`"
                )));
            }
            Ok(f.clone())
        }
        Formula::Not(x) => Ok(Formula::not(resolve_formula(x, schema, ranges)?)),
        Formula::And(l, r) => Ok(Formula::and(
            resolve_formula(l, schema, ranges)?,
            resolve_formula(r, schema, ranges)?,
        )),
        Formula::Or(l, r) => Ok(Formula::or(
            resolve_formula(l, schema, ranges)?,
            resolve_formula(r, schema, ranges)?,
        )),
        Formula::Implies(l, r) => Ok(Formula::implies(
            resolve_formula(l, schema, ranges)?,
            resolve_formula(r, schema, ranges)?,
        )),
        Formula::Quant(q, v, body) => Ok(Formula::Quant(
            *q,
            v.clone(),
            Box::new(resolve_formula(body, schema, ranges)?),
        )),
    }
}

/// Analyse a constraint formula against a database schema.
///
/// Checks, in order: closedness, safety (every quantified variable has a
/// membership atom), schema resolution (relations, attributes) and type
/// consistency of comparisons. Returns the resolved formula plus the
/// variable range map used by evaluation and translation.
pub fn analyze(f: &Formula, schema: &DatabaseSchema) -> Result<ConstraintInfo> {
    let free = free_variables(f);
    if !free.is_empty() {
        return Err(CalculusError::NotClosed(free));
    }
    let renamed = alpha_rename(f);
    let mut ranges = FxHashMap::default();
    collect_ranges(&renamed, &mut ranges)?;
    let mut qvars = Vec::new();
    quantified_vars(&renamed, &mut qvars);
    for v in &qvars {
        if !ranges.contains_key(v) {
            return Err(CalculusError::UnsafeVariable(v.clone()));
        }
    }
    let resolved = resolve_formula(&renamed, schema, &ranges)?;
    let relations = resolved.referenced_relations();
    Ok(ConstraintInfo {
        formula: resolved,
        ranges,
        relations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;
    use tm_relational::schema::beer_schema;

    fn analyze_src(src: &str) -> Result<ConstraintInfo> {
        analyze(&parse_formula(src).unwrap(), &beer_schema())
    }

    #[test]
    fn paper_constraints_analyze() {
        let info = analyze_src("forall x (x in beer implies x.alcohol >= 0)").unwrap();
        assert_eq!(info.ranges.get("x").map(String::as_str), Some("beer"));
        // alcohol is position 4 (1-based)
        assert!(info.formula.to_string().contains("x.4"));

        let info = analyze_src(
            "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
        )
        .unwrap();
        assert_eq!(info.ranges.get("y").map(String::as_str), Some("brewery"));
        assert!(info.formula.to_string().contains("x.3 = y.1"));
    }

    #[test]
    fn free_variables_detected() {
        let f = parse_formula("x.alcohol >= 0").unwrap();
        assert_eq!(free_variables(&f), vec!["x".to_owned()]);
        assert!(matches!(
            analyze(&f, &beer_schema()),
            Err(CalculusError::NotClosed(_))
        ));
    }

    #[test]
    fn unsafe_variable_detected() {
        // x is quantified but never bound to a relation.
        let e = analyze_src("forall x (x.1 >= 0)").unwrap_err();
        assert!(matches!(e, CalculusError::UnsafeVariable(_)));
    }

    #[test]
    fn unknown_relation_and_attribute() {
        assert!(matches!(
            analyze_src("forall x (x in nosuch implies x.1 > 0)"),
            Err(CalculusError::UnknownRelation(_))
        ));
        assert!(matches!(
            analyze_src("forall x (x in beer implies x.nosuch > 0)"),
            Err(CalculusError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            analyze_src("forall x (x in beer implies x.9 > 0)"),
            Err(CalculusError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn type_errors_detected() {
        // name (str) compared with int
        assert!(matches!(
            analyze_src("forall x (x in beer implies x.name > 5)"),
            Err(CalculusError::TypeError(_))
        ));
        // arithmetic over string
        assert!(matches!(
            analyze_src("forall x (x in beer implies x.name + 1 > 5)"),
            Err(CalculusError::TypeError(_))
        ));
        // int/double comparison is fine
        assert!(analyze_src("forall x (x in beer implies x.alcohol >= 0)").is_ok());
    }

    #[test]
    fn sibling_scopes_alpha_renamed() {
        let info = analyze_src(
            "forall x (x in beer implies x.alcohol >= 0) and \
             forall x (x in brewery implies x.country != 'nowhere')",
        )
        .unwrap();
        // Two distinct entries must exist.
        assert_eq!(info.ranges.len(), 2);
        assert!(info.ranges.values().any(|r| r == "beer"));
        assert!(info.ranges.values().any(|r| r == "brewery"));
    }

    #[test]
    fn conflicting_ranges_rejected() {
        let e = analyze_src("forall x (x in beer and x in brewery implies x.1 = x.1)").unwrap_err();
        assert!(matches!(e, CalculusError::TypeError(_)));
    }

    #[test]
    fn aux_relations_resolve_to_base_schema() {
        let info = analyze_src("forall x (x in beer@pre implies x.alcohol >= 0)").unwrap();
        assert_eq!(info.ranges.get("x").map(String::as_str), Some("beer@pre"));
        assert!(info.formula.to_string().contains("x.4"));
        assert!(matches!(
            analyze_src("forall x (x in beer@bogus implies x.1 = x.1)"),
            Err(CalculusError::UnknownRelation(_))
        ));
    }

    #[test]
    fn tuple_eq_requires_compatibility() {
        assert!(analyze_src(
            "forall x (x in beer implies not exists y (y in beer and x == y and x.1 != y.1))"
        )
        .is_ok());
        assert!(matches!(
            analyze_src("forall x (x in beer implies exists y (y in brewery and x == y))"),
            Err(CalculusError::TypeError(_))
        ));
    }

    #[test]
    fn aggregates_resolve_positions() {
        let info = analyze_src("AVG(beer, alcohol) <= 7.5").unwrap();
        assert!(info.formula.to_string().contains("AVG(beer, 4)"));
        assert!(matches!(
            analyze_src("SUM(beer, name) <= 10"),
            Err(CalculusError::TypeError(_))
        ));
    }
}
