//! Table 1 of the paper: "Translation of typical constraint constructs".
//!
//! Each row pairs a schematic CL construct with its aborting algebra
//! translation. The paper's right-hand column uses value-level shortcuts
//! (`π_i R − π_j S`); our translator produces tuple-level equivalents
//! (anti-joins, joins), which fire the alarm in exactly the same
//! situations. Both forms are recorded here: `paper_translation` verbatim
//! (rendered in ASCII) and `program` as produced by
//! [`tm_translate::trans_c`] on the instantiated construct.
//!
//! The pairwise rows translate to a single join, as the paper's row 4
//! does: row 3 is `alarm(join[(#0 = #2)](r, s))` and row 4 is
//! `alarm(join[((#0 = #2) and (#1 > #3))](r, s))` — the violation
//! predicate's conjuncts sit on the join, so it executes as one hash build
//! on `x.1 = y.1` and one probe, and no `|r|·|s|` product is built.
//!
//! The constructs are instantiated over the two-relation schema
//! `r(a int, b int)`, `s(c int, d int)` with `c(x) ≡ x.1 ≥ 0`,
//! `c1(x,y) ≡ x.1 = y.1`, `c2(x,y) ≡ x.2 <= y.2`, `i = 1`, `j = 1`.

use tm_algebra::Program;
use tm_calculus::parse_formula;
use tm_relational::{DatabaseSchema, RelationSchema, ValueType};
use tm_translate::{trans_c, Result};

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row number (1-based, as in the paper).
    pub id: usize,
    /// The schematic construct, as the paper writes it.
    pub construct: &'static str,
    /// The instantiated CL source translated by this reproduction.
    pub instance: &'static str,
    /// The paper's translation (ASCII rendering of the table cell).
    pub paper_translation: &'static str,
    /// Our translated program.
    pub program: Program,
}

/// The `r(a, b)`, `s(c, d)` schema the rows are instantiated on.
pub fn table1_schema() -> DatabaseSchema {
    DatabaseSchema::from_relations(vec![
        RelationSchema::of("r", &[("a", ValueType::Int), ("b", ValueType::Int)]),
        RelationSchema::of("s", &[("c", ValueType::Int), ("d", ValueType::Int)]),
    ])
    .expect("static schema is valid")
}

/// Build all seven rows of Table 1.
pub fn table1_rows() -> Result<Vec<Table1Row>> {
    let schema = table1_schema();
    let specs: [(usize, &'static str, &'static str, &'static str); 7] = [
        (
            1,
            "(∀x)(x ∈ R ⇒ c(x))",
            "forall x (x in r implies x.1 >= 0)",
            "alarm(σ_{¬c'}(R))",
        ),
        (
            2,
            "(∀x)(x ∈ R ⇒ (∃y)(y ∈ S ∧ x.i = y.j))",
            "forall x (x in r implies exists y (y in s and x.1 = y.1))",
            "alarm(π_i(R) − π_j(S))",
        ),
        (
            3,
            "(∀x)(x ∈ R ⇒ (∀y)(y ∈ S ⇒ x.i ≠ y.j))",
            "forall x (x in r implies forall y (y in s implies x.1 != y.1))",
            "alarm(π_i(R) ∩ π_j(S))",
        ),
        (
            4,
            "(∀x,y)((x ∈ R ∧ y ∈ S ∧ c1(x,y)) ⇒ c2(x,y))",
            "forall x, y (x in r and y in s and x.1 = y.1 implies x.2 <= y.2)",
            "alarm(σ_{¬c2'}(R ⋈_{c1'} S))",
        ),
        (
            5,
            "(∃x)(x ∈ R ∧ c(x))",
            "exists x (x in r and x.1 >= 0)",
            "alarm(σ_{attr1=0}(CNT(σ_{c'}(R))))",
        ),
        (
            6,
            "c(AGGR(R, i))",
            "SUM(r, 1) <= 1000",
            "alarm(σ_{¬c'}(AGGR(R, i)))",
        ),
        (7, "c(CNT(R))", "CNT(r) < 100", "alarm(σ_{¬c'}(CNT(R)))"),
    ];
    let mut rows = Vec::with_capacity(specs.len());
    for (id, construct, instance, paper_translation) in specs {
        let formula = parse_formula(instance).expect("static instance parses");
        let program = trans_c(&formula, &schema)?;
        rows.push(Table1Row {
            id,
            construct,
            instance,
            paper_translation,
            program,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_algebra::Executor;
    use tm_relational::{Database, Tuple};

    fn db(r: &[(i64, i64)], s: &[(i64, i64)]) -> Database {
        let mut db = Database::new(table1_schema().into_shared());
        for &(a, b) in r {
            db.insert("r", Tuple::of((a, b))).unwrap();
        }
        for &(c, d) in s {
            db.insert("s", Tuple::of((c, d))).unwrap();
        }
        db
    }

    fn satisfied(program: &Program, db: &Database) -> bool {
        let mut working = db.clone();
        Executor
            .execute(&mut working, &program.clone().bracket())
            .is_committed()
    }

    #[test]
    fn all_rows_translate() {
        let rows = table1_rows().unwrap();
        assert_eq!(rows.len(), 7);
        for row in &rows {
            assert_eq!(row.program.len(), 1, "row {} is a single alarm", row.id);
            assert!(
                row.program.to_string().starts_with("alarm("),
                "row {} is aborting",
                row.id
            );
        }
    }

    #[test]
    fn rows_3_and_4_are_one_join() {
        // Each pairwise row is one hash join on `x.1 = y.1`: no product,
        // no `join[true]` under a selection.
        let rows = table1_rows().unwrap();
        let text = |i: usize| rows[i].program.to_string().trim().to_owned();
        assert_eq!(text(2), "alarm(join[(#0 = #2)](r, s));");
        assert_eq!(text(3), "alarm(join[((#0 = #2) and (#1 > #3))](r, s));");
        for i in [2, 3] {
            assert!(!text(i).contains("times"), "{}", text(i));
            assert!(!text(i).contains("join[true]"), "{}", text(i));
        }
    }

    #[test]
    fn row1_domain_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[0].program;
        assert!(satisfied(p, &db(&[(1, 1)], &[])));
        assert!(!satisfied(p, &db(&[(-1, 1)], &[])));
    }

    #[test]
    fn row2_referential_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[1].program;
        assert!(satisfied(p, &db(&[(1, 9)], &[(1, 0)])));
        assert!(!satisfied(p, &db(&[(2, 9)], &[(1, 0)])));
    }

    #[test]
    fn row3_exclusion_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[2].program;
        assert!(satisfied(p, &db(&[(1, 1)], &[(2, 2)])));
        assert!(!satisfied(p, &db(&[(1, 1)], &[(1, 2)])));
    }

    #[test]
    fn row4_conditional_pair_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[3].program;
        // matching keys require x.2 <= y.2
        assert!(satisfied(p, &db(&[(1, 5)], &[(1, 9)])));
        assert!(!satisfied(p, &db(&[(1, 9)], &[(1, 5)])));
        // non-matching keys unconstrained
        assert!(satisfied(p, &db(&[(1, 9)], &[(2, 5)])));
    }

    #[test]
    fn row5_existence_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[4].program;
        assert!(satisfied(p, &db(&[(3, 0)], &[])));
        assert!(!satisfied(p, &db(&[], &[])));
        assert!(!satisfied(p, &db(&[(-3, 0)], &[])));
    }

    #[test]
    fn row6_aggregate_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[5].program;
        assert!(satisfied(p, &db(&[(400, 0), (500, 0)], &[])));
        assert!(!satisfied(p, &db(&[(600, 0), (500, 0)], &[])));
    }

    #[test]
    fn row7_count_semantics() {
        let rows = table1_rows().unwrap();
        let p = &rows[6].program;
        let mut big = db(&[], &[]);
        for i in 0..99 {
            big.insert("r", Tuple::of((i, 0))).unwrap();
        }
        assert!(satisfied(p, &big));
        big.insert("r", Tuple::of((999, 0))).unwrap();
        assert!(!satisfied(p, &big));
    }
}
