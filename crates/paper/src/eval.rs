//! Direct semantic evaluation of CL constraints — the ground truth.
//!
//! Definition 3.1 says a state constraint is a boolean function over
//! database states; Definition 3.3 extends this to transitions. This module
//! evaluates analysed formulas exactly that way, by structural recursion
//! with quantifiers ranging over the tuples of the relation each variable
//! is bound to (safety guarantees such a relation exists). It is the
//! evaluator of the test oracle ([`crate::oracle`]); no product crate
//! calls it.
//!
//! ## Execution strategies
//!
//! The baseline recursion is O(∏ |R_i|) nested loops, kept available as
//! [`eval_formula_naive`] because its role is to be *obviously correct*:
//! the whole transaction modification machinery is property-tested against
//! it. The default entry points ([`eval_formula`], [`eval_constraint`])
//! additionally apply a **hash probe fast path** to quantifiers: for a
//! body shaped like `exists y (y in S and … x.i = y.j …)` — the inner
//! quantifier of every referential constraint — the
//! relation `S` is indexed **once** on the pinned attributes `j` (values
//! hashed with [`Value::hash_for_join`], the same compare-consistent hash
//! the algebra's hash joins use), and each entry from the enclosing
//! quantifier probes the index instead of scanning `S`. That turns
//! `forall x (x in R implies exists y (y in S and x.i = y.j))` from
//! O(|R|·|S|) into O(|R| + |S|). Bucket candidates are verified with
//! [`Value::compare`] and then evaluated through the ordinary recursion,
//! so the fast path only *restricts which tuples are visited* — any tuple
//! it skips has a false key conjunct and hence a false body. A universal
//! quantifier is probed the same way on the equalities every *false* body
//! implies: `forall y (y in S implies x.i != y.j)` (Table 1's exclusion)
//! and `forall y ((y in S and x.i = y.j) implies …)` (its key / FD row)
//! can only be refuted by a `y` with `y.j = x.i`, so a skipped tuple has a
//! true body. Formulas whose *probe* terms fail to evaluate fall back to
//! the full scan.
//!
//! One caveat on error-raising bodies (mirroring the algebra's hash
//! paths, see `tm_algebra::keys::extract_equi_keys`): the naive recursion
//! evaluates a skipped tuple's conjuncts left-to-right until the false
//! key conjunct short-circuits, so a runtime error (division by zero) in
//! a conjunct *before* the key surfaces under the naive evaluator but not
//! under the fast path, which never visits that tuple. For error-free
//! bodies — everything the analyser's type checks and the property suite
//! cover — the two evaluators agree exactly.

use tm_relational::ops::{aggregate, arith};
use tm_relational::util::{hash_join_key, FxHashMap};
use tm_relational::{auxiliary, AuxKind, Database, Relation, Transition, Tuple, Value};

use tm_calculus::ast::{Atom, AttrSel, CmpOp, Formula, Quantifier, Term, VarName};
use tm_calculus::{CalculusError, ConstraintInfo, Result};

/// Resolves relation names during constraint evaluation.
pub trait ConstraintSource {
    /// The state of (possibly auxiliary) relation `name`.
    fn relation(&self, name: &str) -> Result<&Relation>;
}

/// Evaluate constraints against a single database state; `R@pre` resolves
/// to the *same* state (a transition that changed nothing), which makes
/// transition constraints vacuously about `(D, D)` — useful for initial
/// validation.
pub struct StateSource<'a>(pub &'a Database);

impl ConstraintSource for StateSource<'_> {
    fn relation(&self, name: &str) -> Result<&Relation> {
        let base = auxiliary::base_of(name);
        self.0
            .relation(base)
            .map_err(|_| CalculusError::UnknownRelation(name.to_owned()))
    }
}

/// Evaluate constraints against a transition `(D^t, D^{t+1})`: plain names
/// resolve to the post-state, `R@pre` to the pre-state, and the
/// differential names `R@ins` / `R@del` are not part of CL and are
/// rejected.
pub struct TransitionSource<'a>(pub &'a Transition);

impl ConstraintSource for TransitionSource<'_> {
    fn relation(&self, name: &str) -> Result<&Relation> {
        match auxiliary::parse_auxiliary(name) {
            None => self
                .0
                .after
                .relation(name)
                .map_err(|_| CalculusError::UnknownRelation(name.to_owned())),
            Some((base, AuxKind::Pre)) => self
                .0
                .before
                .relation(base)
                .map_err(|_| CalculusError::UnknownRelation(name.to_owned())),
            Some((_, _)) => Err(CalculusError::UnknownRelation(format!(
                "`{name}`: differential relations are not part of CL"
            ))),
        }
    }
}

type Env = FxHashMap<VarName, Tuple>;

fn eval_term(t: &Term, env: &Env, src: &impl ConstraintSource) -> Result<Value> {
    match t {
        Term::Const(v) => Ok(v.clone()),
        Term::Attr { var, sel } => {
            let tuple = env
                .get(var)
                .ok_or_else(|| CalculusError::UnboundVariable(var.clone()))?;
            let pos = match sel {
                AttrSel::Position(p) => *p,
                AttrSel::Name(n) => {
                    return Err(CalculusError::Eval(format!(
                        "unresolved attribute name `{var}.{n}` (run analysis first)"
                    )))
                }
            };
            tuple
                .get(pos - 1)
                .cloned()
                .ok_or_else(|| CalculusError::Eval(format!("position {pos} out of range")))
        }
        Term::Arith(op, l, r) => {
            let lv = eval_term(l, env, src)?;
            let rv = eval_term(r, env, src)?;
            Ok(arith(*op, &lv, &rv)?)
        }
        Term::Agg { func, rel, sel } => {
            let relation = src.relation(rel)?;
            let pos = match sel {
                AttrSel::Position(p) => *p,
                AttrSel::Name(n) => {
                    return Err(CalculusError::Eval(format!(
                        "unresolved attribute name in aggregate over `{rel}`: `{n}`"
                    )))
                }
            };
            Ok(aggregate(*func, relation, pos - 1)?)
        }
        Term::Cnt { rel } => Ok(Value::Int(src.relation(rel)?.len() as i64)),
    }
}

fn eval_atom(a: &Atom, env: &Env, src: &impl ConstraintSource) -> Result<bool> {
    match a {
        Atom::Cmp(op, l, r) => {
            let lv = eval_term(l, env, src)?;
            let rv = eval_term(r, env, src)?;
            Ok(op.test(lv.compare(&rv)))
        }
        Atom::Member { var, rel } => {
            let tuple = env
                .get(var)
                .ok_or_else(|| CalculusError::UnboundVariable(var.clone()))?;
            Ok(src.relation(rel)?.contains(tuple))
        }
        Atom::TupleEq(a, b) => {
            let ta = env
                .get(a)
                .ok_or_else(|| CalculusError::UnboundVariable(a.clone()))?;
            let tb = env
                .get(b)
                .ok_or_else(|| CalculusError::UnboundVariable(b.clone()))?;
            Ok(ta == tb)
        }
    }
}

/// One pinned attribute of a quantified variable: the quantified side's
/// 1-based position and the outer term it is equated to.
struct ProbeKey<'f> {
    inner_pos: usize,
    outer: &'f Term,
}

/// A hash index of one relation on the pinned attributes of a quantifier
/// body, built lazily on the first entry into that quantifier node and
/// reused for every subsequent entry (the relation cannot change during
/// one evaluation).
struct RelIndex {
    tuples: Vec<Tuple>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

/// The cached probe plan of one quantifier node: the pinned 1-based
/// positions of the quantified variable, the (owned) outer terms they are
/// equated to, and the relation index. Detection and index construction
/// are pure functions of the body node, so both are cached together.
struct ProbePlan {
    inner_pos: Vec<usize>,
    outer: Vec<Term>,
    index: RelIndex,
}

/// Per-evaluation state: lazily built probe plans keyed by the address of
/// the quantifier body (stable while the formula is borrowed). `None`
/// records that the node has no usable plan (no keys, or the index was
/// abandoned).
struct EvalCache {
    enabled: bool,
    plans: FxHashMap<usize, Option<ProbePlan>>,
}

impl EvalCache {
    fn new(enabled: bool) -> EvalCache {
        EvalCache {
            enabled,
            plans: FxHashMap::default(),
        }
    }
}

fn term_mentions(t: &Term, v: &VarName) -> bool {
    match t {
        Term::Attr { var, .. } => var == v,
        Term::Arith(_, l, r) => term_mentions(l, v) || term_mentions(r, v),
        // Aggregates and counts are closed over their own relation.
        Term::Const(_) | Term::Agg { .. } | Term::Cnt { .. } => false,
    }
}

/// Collect the equalities `v.j = τ` (τ not mentioning `v`) that hold
/// whenever `f` evaluates to `want` — the probe keys of a quantifier body.
/// An `exists` needs a true body: its keys are top-level equality
/// conjuncts, as in a referential body. A `forall` is refuted only by a
/// false body: `x.1 ≠ y.1` and an antecedent `… ∧ x.1 = y.1 ⇒ …` both
/// pin `y.1`, which covers Table 1's exclusion and key / FD rows.
fn probe_keys<'f>(v: &VarName, f: &'f Formula, want: bool, out: &mut Vec<ProbeKey<'f>>) {
    match (f, want) {
        (Formula::And(l, r), true) | (Formula::Or(l, r), false) => {
            probe_keys(v, l, want, out);
            probe_keys(v, r, want, out);
        }
        (Formula::Implies(l, r), false) => {
            probe_keys(v, l, true, out);
            probe_keys(v, r, false, out);
        }
        (Formula::Not(x), _) => probe_keys(v, x, !want, out),
        (Formula::Atom(Atom::Cmp(op, l, r)), _)
            if *op == if want { CmpOp::Eq } else { CmpOp::Ne } =>
        {
            for (a, b) in [(l, r), (r, l)] {
                if let Term::Attr {
                    var,
                    sel: AttrSel::Position(p),
                } = a
                {
                    if var == v && !term_mentions(b, v) {
                        out.push(ProbeKey {
                            inner_pos: *p,
                            outer: b,
                        });
                        break;
                    }
                }
            }
        }
        _ => {}
    }
}

/// Build the index of `rel_name` on the pinned positions. `Ok(None)` means
/// the relation's tuples are too short for a pinned position (the scan
/// path will surface the error exactly as the naive evaluator does).
fn build_index(
    src: &impl ConstraintSource,
    rel_name: &str,
    keys: &[ProbeKey<'_>],
) -> Result<Option<RelIndex>> {
    let rel = src.relation(rel_name)?;
    let mut tuples = Vec::with_capacity(rel.len());
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut key_vals = Vec::with_capacity(keys.len());
    for t in rel.iter() {
        key_vals.clear();
        for k in keys {
            match t.get(k.inner_pos - 1) {
                Some(val) => key_vals.push(val),
                None => return Ok(None),
            }
        }
        buckets
            .entry(hash_join_key(key_vals.iter().copied()))
            .or_default()
            .push(tuples.len() as u32);
        tuples.push(t.clone());
    }
    Ok(Some(RelIndex { tuples, buckets }))
}

/// The fast path for `exists v (v in S and … key equalities …)` and for
/// a `forall v` whose body can only be false on key matches: probe the
/// (lazily built) index of `S` with the outer key values instead of
/// scanning. `Ok(None)` means "not applicable — use the generic scan".
/// A skipped tuple fails a key, so its body is false under `exists` and
/// true under `forall` — it cannot decide the quantifier either way.
fn try_indexed(
    q: Quantifier,
    v: &VarName,
    body: &Formula,
    env: &mut Env,
    src: &impl ConstraintSource,
    ranges: &FxHashMap<VarName, String>,
    cache: &mut EvalCache,
) -> Result<Option<bool>> {
    // `exists` is decided by the first true body, `forall` by the first
    // false one; the keys are those a deciding body implies.
    let decisive = q == Quantifier::Exists;
    let node = body as *const Formula as usize;
    if let std::collections::hash_map::Entry::Vacant(slot) = cache.plans.entry(node) {
        let mut keys = Vec::new();
        probe_keys(v, body, decisive, &mut keys);
        let plan = if keys.is_empty() {
            None
        } else {
            build_index(src, &ranges[v], &keys)?.map(|index| ProbePlan {
                inner_pos: keys.iter().map(|k| k.inner_pos).collect(),
                outer: keys.iter().map(|k| k.outer.clone()).collect(),
                index,
            })
        };
        slot.insert(plan);
    }
    let Some(plan) = cache.plans.get(&node).and_then(Option::as_ref) else {
        return Ok(None);
    };
    // Outer key terms must evaluate; if they do not (unbound sibling-scope
    // variable, arithmetic error), fall back to the scan so errors surface
    // — or stay hidden behind a short-circuit — exactly as in the naive
    // evaluator.
    let mut probe_vals = Vec::with_capacity(plan.outer.len());
    for term in &plan.outer {
        match eval_term(term, env, src) {
            Ok(val) => probe_vals.push(val),
            Err(_) => return Ok(None),
        }
    }
    let probe_hash = hash_join_key(probe_vals.iter());
    // Materialise the verified candidates so the borrow on the cache ends
    // before the recursion below needs it again for nested quantifiers.
    let candidates: Vec<Tuple> = match plan.index.buckets.get(&probe_hash) {
        None => Vec::new(),
        Some(ids) => {
            ids.iter()
                .filter_map(|&i| {
                    let t = &plan.index.tuples[i as usize];
                    let key_match =
                        plan.inner_pos.iter().zip(&probe_vals).all(|(&pos, pv)| {
                            t.get(pos - 1).is_some_and(|tv| tv.compare(pv).is_eq())
                        });
                    key_match.then(|| t.clone())
                })
                .collect()
        }
    };
    for t in candidates {
        env.insert(v.clone(), t);
        let ok = eval_rec(body, env, src, ranges, cache)?;
        env.remove(v);
        if ok == decisive {
            return Ok(Some(decisive));
        }
    }
    Ok(Some(!decisive))
}

fn eval_rec(
    f: &Formula,
    env: &mut Env,
    src: &impl ConstraintSource,
    ranges: &FxHashMap<VarName, String>,
    cache: &mut EvalCache,
) -> Result<bool> {
    match f {
        Formula::Atom(a) => eval_atom(a, env, src),
        Formula::Not(x) => Ok(!eval_rec(x, env, src, ranges, cache)?),
        Formula::And(l, r) => {
            Ok(eval_rec(l, env, src, ranges, cache)? && eval_rec(r, env, src, ranges, cache)?)
        }
        Formula::Or(l, r) => {
            Ok(eval_rec(l, env, src, ranges, cache)? || eval_rec(r, env, src, ranges, cache)?)
        }
        Formula::Implies(l, r) => {
            Ok(!eval_rec(l, env, src, ranges, cache)? || eval_rec(r, env, src, ranges, cache)?)
        }
        Formula::Quant(q, v, body) => {
            let rel_name = ranges
                .get(v)
                .ok_or_else(|| CalculusError::UnsafeVariable(v.clone()))?;
            if cache.enabled {
                if let Some(result) = try_indexed(*q, v, body, env, src, ranges, cache)? {
                    return Ok(result);
                }
            }
            // Generic scan: iterate the relation directly — only the tuple
            // entering the environment is cloned, never the tuple list.
            match q {
                Quantifier::Forall => {
                    for t in src.relation(rel_name)?.iter() {
                        env.insert(v.clone(), t.clone());
                        let ok = eval_rec(body, env, src, ranges, cache)?;
                        env.remove(v);
                        if !ok {
                            return Ok(false);
                        }
                    }
                    Ok(true)
                }
                Quantifier::Exists => {
                    for t in src.relation(rel_name)?.iter() {
                        env.insert(v.clone(), t.clone());
                        let ok = eval_rec(body, env, src, ranges, cache)?;
                        env.remove(v);
                        if ok {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
            }
        }
    }
}

/// Evaluate an analysed formula against a source (with the indexed
/// quantifier fast path).
pub fn eval_formula(
    formula: &Formula,
    ranges: &FxHashMap<VarName, String>,
    src: &impl ConstraintSource,
) -> Result<bool> {
    eval_rec(
        formula,
        &mut Env::default(),
        src,
        ranges,
        &mut EvalCache::new(true),
    )
}

/// Evaluate an analysed formula with the naive nested-loop recursion only
/// — the obviously-correct baseline the fast path is property-tested
/// against, and the slow side of the `hash_vs_nested` benchmark.
pub fn eval_formula_naive(
    formula: &Formula,
    ranges: &FxHashMap<VarName, String>,
    src: &impl ConstraintSource,
) -> Result<bool> {
    eval_rec(
        formula,
        &mut Env::default(),
        src,
        ranges,
        &mut EvalCache::new(false),
    )
}

/// Evaluate an analysed constraint (output of
/// [`tm_calculus::analyze`]) against a source.
pub fn eval_constraint(info: &ConstraintInfo, src: &impl ConstraintSource) -> Result<bool> {
    eval_formula(&info.formula, &info.ranges, src)
}

/// Naive-recursion variant of [`eval_constraint`].
pub fn eval_constraint_naive(info: &ConstraintInfo, src: &impl ConstraintSource) -> Result<bool> {
    eval_formula_naive(&info.formula, &info.ranges, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_calculus::{analyze, parse_formula};
    use tm_relational::schema::beer_schema;

    fn beer_db() -> Database {
        let mut db = Database::new(beer_schema().into_shared());
        db.insert("brewery", Tuple::of(("heineken", "amsterdam", "nl")))
            .unwrap();
        db.insert("brewery", Tuple::of(("guinness", "dublin", "ie")))
            .unwrap();
        db.insert("beer", Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
            .unwrap();
        db.insert("beer", Tuple::of(("stout", "stout", "guinness", 4.2_f64)))
            .unwrap();
        db
    }

    fn check(src_text: &str, db: &Database) -> Result<bool> {
        let info = analyze(&parse_formula(src_text).unwrap(), db.schema()).unwrap();
        eval_constraint(&info, &StateSource(db))
    }

    #[test]
    fn domain_constraint_holds_then_fails() {
        let mut db = beer_db();
        let c = "forall x (x in beer implies x.alcohol >= 0)";
        assert_eq!(check(c, &db), Ok(true));
        db.insert("beer", Tuple::of(("bad", "lager", "heineken", -1.0_f64)))
            .unwrap();
        assert_eq!(check(c, &db), Ok(false));
    }

    #[test]
    fn referential_constraint() {
        let mut db = beer_db();
        let c = "forall x (x in beer implies \
                 exists y (y in brewery and x.brewery = y.name))";
        assert_eq!(check(c, &db), Ok(true));
        db.insert("beer", Tuple::of(("orphan", "ale", "nowhere", 5.0_f64)))
            .unwrap();
        assert_eq!(check(c, &db), Ok(false));
    }

    #[test]
    fn exists_over_empty_relation_is_false() {
        let db = Database::new(beer_schema().into_shared());
        assert_eq!(
            check("exists x (x in beer and x.alcohol > 0)", &db),
            Ok(false)
        );
        // forall over empty is vacuously true
        assert_eq!(
            check("forall x (x in beer implies x.alcohol > 0)", &db),
            Ok(true)
        );
    }

    #[test]
    fn aggregates_in_constraints() {
        let db = beer_db();
        assert_eq!(check("CNT(beer) <= 2", &db), Ok(true));
        assert_eq!(check("CNT(beer) < 2", &db), Ok(false));
        assert_eq!(check("AVG(beer, alcohol) < 5.0", &db), Ok(true));
        assert_eq!(check("MAX(beer, alcohol) = 5.0", &db), Ok(true));
        assert_eq!(check("MIN(beer, alcohol) > 4.0", &db), Ok(true));
        assert_eq!(check("SUM(beer, alcohol) > 9.0", &db), Ok(true));
    }

    #[test]
    fn tuple_equality_semantics() {
        let db = beer_db();
        // every beer equals itself: no two distinct tuples with same name
        let c = "forall x (x in beer implies \
                 forall y (y in beer implies (x == y or x.name != y.name)))";
        assert_eq!(check(c, &db), Ok(true));
    }

    #[test]
    fn transition_constraints_via_pre() {
        let before = beer_db();
        let mut after = before.clone();
        after
            .insert("beer", Tuple::of(("extra", "ale", "guinness", 6.0_f64)))
            .unwrap();
        after.tick();
        let tr = Transition::new(before, after);
        // "beers are never removed": every pre-beer still exists.
        let grow_only = "forall x (x in beer@pre implies exists y (y in beer and x == y))";
        let info = analyze(&parse_formula(grow_only).unwrap(), tr.after.schema()).unwrap();
        assert_eq!(eval_constraint(&info, &TransitionSource(&tr)), Ok(true));

        // Now delete a beer: the constraint must fail.
        let before = beer_db();
        let mut after = before.clone();
        after
            .delete("beer", &Tuple::of(("pils", "lager", "heineken", 5.0_f64)))
            .unwrap();
        after.tick();
        let tr = Transition::new(before, after);
        assert_eq!(eval_constraint(&info, &TransitionSource(&tr)), Ok(false));
    }

    #[test]
    fn differential_names_rejected_in_cl() {
        let before = beer_db();
        let mut after = before.clone();
        after.tick();
        let tr = Transition::new(before, after);
        let src = TransitionSource(&tr);
        assert!(matches!(
            src.relation("beer@ins"),
            Err(CalculusError::UnknownRelation(_))
        ));
    }

    #[test]
    fn arith_in_constraints() {
        let db = beer_db();
        assert_eq!(
            check("forall x (x in beer implies x.alcohol * 2 <= 10.0)", &db),
            Ok(true)
        );
        assert_eq!(
            check("forall x (x in beer implies x.alcohol + 1 > 5.0)", &db),
            Ok(true)
        );
    }

    #[test]
    fn empty_min_errors() {
        let db = Database::new(beer_schema().into_shared());
        let r = check("MIN(beer, alcohol) > 0", &db);
        assert!(matches!(r, Err(CalculusError::Eval(_))));
    }

    #[test]
    fn indexed_and_naive_agree_on_zoo() {
        let mut db = beer_db();
        db.insert("beer", Tuple::of(("orphan", "ale", "nowhere", 5.0_f64)))
            .unwrap();
        let zoo = [
            // Referential shape — the indexed Exists path.
            "forall x (x in beer implies exists y (y in brewery and x.brewery = y.name))",
            // Negated referential.
            "not exists x (x in beer and exists y (y in brewery and x.brewery = y.name))",
            // Constant-pinned existentials.
            "exists x (x in brewery and x.country = 'nl')",
            "exists x (x in brewery and x.country = 'atlantis')",
            // Multi-key pinning.
            "forall x (x in brewery implies \
             exists y (y in brewery and x.name = y.name and x.city = y.city))",
            // Exists without keys (scan path).
            "exists x (x in beer and x.alcohol > 4.0)",
            // Key term with arithmetic on the outer side.
            "forall x (x in beer implies \
             not exists y (y in beer and y.alcohol = x.alcohol + 100))",
            // Universal bodies refuted only on a key match — the indexed
            // Forall path: exclusion, and a key / FD pair denial.
            "forall x (x in beer implies forall y (y in brewery implies x.brewery != y.name))",
            "forall x, y (x in beer and y in beer and x.name = y.name \
             implies x.alcohol = y.alcohol)",
            // A conjunctive consequent refutes without a key (scan path).
            "forall x (x in beer implies \
             forall y (y in brewery implies (x.brewery != y.name and y.country != 'xx')))",
        ];
        for c in zoo {
            let info = analyze(&parse_formula(c).unwrap(), db.schema()).unwrap();
            let fast = eval_constraint(&info, &StateSource(&db));
            let naive = eval_constraint_naive(&info, &StateSource(&db));
            assert_eq!(fast, naive, "{c}");
        }
    }

    #[test]
    fn indexed_path_finds_cross_type_numeric_matches() {
        // alcohol is a double column; pin it with an integer constant. The
        // index must bucket Int(5) with Double(5.0).
        let db = beer_db();
        let c = "exists x (x in beer and x.alcohol = 5)";
        assert_eq!(check(c, &db), Ok(true));
        let c = "exists x (x in beer and x.alcohol = 7)";
        assert_eq!(check(c, &db), Ok(false));
    }

    #[test]
    fn state_source_resolves_pre_to_same_state() {
        let db = beer_db();
        assert_eq!(
            check(
                "forall x (x in beer@pre implies exists y (y in beer and x == y))",
                &db
            ),
            Ok(true)
        );
    }
}
