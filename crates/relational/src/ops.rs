//! The value operators CL and the algebra share: the value function
//! symbols `FV = {+, -, *, /}`, the value predicates
//! `PV = {<, ≤, =, ≠, ≥, >}` and the aggregate functions
//! `FA = {SUM, AVG, MIN, MAX}` of Definition 4.1, with their one
//! semantics. A constraint and its translated check evaluate built-ins
//! through the same functions, so a built-in cannot mean one thing in a
//! constraint and another in its check.

use std::cmp::Ordering;
use std::fmt;

use crate::{Relation, Value};

/// Binary arithmetic operators — the value function symbols `FV`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (errors on division by zero).
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators — the value predicate symbols `PV`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≥`
    Ge,
    /// `>`
    Gt,
}

impl CmpOp {
    /// The negated comparison (`¬(a < b) ⇔ a ≥ b` …).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Gt => CmpOp::Le,
        }
    }

    /// The mirrored comparison (`a < b ⇔ b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }

    /// Apply the comparison to an [`Ordering`] — the ordering of
    /// [`Value::compare`], which widens an `Int` compared with a `Double`.
    #[inline]
    pub fn test(self, ord: Ordering) -> bool {
        use Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Lt, Less)
                | (CmpOp::Le, Less | Equal)
                | (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less | Greater)
                | (CmpOp::Ge, Greater | Equal)
                | (CmpOp::Gt, Greater)
        )
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

/// Aggregate function symbols — `FA = {SUM, AVG, MIN, MAX}`. The counting
/// function `CNT` needs no column and is a term of its own in each
/// language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Sum of a numeric column.
    Sum,
    /// Average of a numeric column (always a double).
    Avg,
    /// Minimum of a column.
    Min,
    /// Maximum of a column.
    Max,
}

impl AggFunc {
    /// The keyword in source text and displays.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// The function named by an upper-case keyword.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
            .into_iter()
            .find(|f| f.name() == name)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Why a value operator has no result. Each language converts it into
/// its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// Division by zero in an arithmetic term.
    DivisionByZero,
    /// An operand of the wrong type (the message names it).
    TypeError(String),
    /// `MIN`, `MAX` or `AVG` of an empty relation, which is undefined.
    EmptyAggregate(&'static str),
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::DivisionByZero => write!(f, "division by zero"),
            ValueError::TypeError(msg) => write!(f, "{msg}"),
            ValueError::EmptyAggregate(func) => {
                write!(f, "aggregate {func} over an empty relation is undefined")
            }
        }
    }
}

impl std::error::Error for ValueError {}

/// Apply an arithmetic operator. Two `Int`s give an `Int`, with
/// wrapping overflow and truncating division; any other numeric pair
/// computes in `f64`. A non-numeric operand (`null` included) is a type
/// error, and a zero divisor of either kind is an error.
#[inline]
pub fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, ValueError> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(Value::Int(match op {
            ArithOp::Add => a.wrapping_add(*b),
            ArithOp::Sub => a.wrapping_sub(*b),
            ArithOp::Mul => a.wrapping_mul(*b),
            ArithOp::Div if *b == 0 => return Err(ValueError::DivisionByZero),
            ArithOp::Div => a.wrapping_div(*b),
        }));
    }
    let number = |v: &Value| {
        v.as_double()
            .ok_or_else(|| ValueError::TypeError(format!("non-numeric operand {v}")))
    };
    let (a, b) = (number(l)?, number(r)?);
    Ok(Value::double(match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div if b == 0.0 => return Err(ValueError::DivisionByZero),
        ArithOp::Div => a / b,
    }))
}

/// Evaluate an aggregate over zero-based column `col` of `input`.
///
/// Nulls are skipped. `SUM` of no value is `Int` 0, and it is an `Int`
/// (with wrapping overflow) unless a `Double` is summed. `AVG` is always
/// a `Double`. `MIN` and `MAX` order by [`Value::compare`] and keep the
/// first of equal values. `MIN`, `MAX` and `AVG` of no value are errors.
pub fn aggregate(func: AggFunc, input: &Relation, col: usize) -> Result<Value, ValueError> {
    let mut values = input
        .iter()
        .filter_map(|t| t.get(col))
        .filter(|v| !v.is_null());
    match func {
        AggFunc::Sum => {
            let mut int_sum: i64 = 0;
            let mut dbl_sum: f64 = 0.0;
            let mut any_double = false;
            for v in values {
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.wrapping_add(*i);
                        dbl_sum += *i as f64;
                    }
                    Value::Double(d) => {
                        any_double = true;
                        dbl_sum += d;
                    }
                    other => {
                        return Err(ValueError::TypeError(format!(
                            "SUM over non-numeric value {other}"
                        )))
                    }
                }
            }
            Ok(if any_double {
                Value::double(dbl_sum)
            } else {
                Value::Int(int_sum)
            })
        }
        AggFunc::Avg => {
            let mut sum = 0.0;
            let mut n = 0usize;
            for v in values {
                sum += v.as_double().ok_or_else(|| {
                    ValueError::TypeError(format!("AVG over non-numeric value {v}"))
                })?;
                n += 1;
            }
            if n == 0 {
                Err(ValueError::EmptyAggregate(func.name()))
            } else {
                Ok(Value::double(sum / n as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let better = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let first = values
                .next()
                .ok_or(ValueError::EmptyAggregate(func.name()))?;
            Ok(values
                .fold(
                    first,
                    |best, v| {
                        if v.compare(best) == better {
                            v
                        } else {
                            best
                        }
                    },
                )
                .clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::{RelationSchema, Tuple, ValueType};

    #[test]
    fn arithmetic_edge_cases() {
        let int = Value::Int;
        assert_eq!(arith(ArithOp::Div, &int(7), &int(2)), Ok(int(3)));
        assert_eq!(
            arith(ArithOp::Div, &int(7), &Value::double(2.0)),
            Ok(Value::double(3.5))
        );
        assert_eq!(
            arith(ArithOp::Add, &int(i64::MAX), &int(1)),
            Ok(int(i64::MIN))
        );
        assert_eq!(
            arith(ArithOp::Div, &int(1), &int(0)),
            Err(ValueError::DivisionByZero)
        );
        assert_eq!(
            arith(ArithOp::Div, &int(1), &Value::double(0.0)),
            Err(ValueError::DivisionByZero)
        );
        assert!(matches!(
            arith(ArithOp::Add, &Value::Null, &int(1)),
            Err(ValueError::TypeError(_))
        ));
    }

    #[test]
    fn aggregates_skip_nulls_and_reject_empty_inputs() {
        let mut r = Relation::empty(Arc::new(RelationSchema::of("r", &[("a", ValueType::Int)])));
        assert_eq!(aggregate(AggFunc::Sum, &r, 0), Ok(Value::Int(0)));
        for f in [AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            assert_eq!(
                aggregate(f, &r, 0),
                Err(ValueError::EmptyAggregate(f.name()))
            );
        }
        for v in [Value::Int(3), Value::Null, Value::Int(-1)] {
            r.insert(Tuple::from_values(vec![v])).unwrap();
        }
        assert_eq!(aggregate(AggFunc::Sum, &r, 0), Ok(Value::Int(2)));
        assert_eq!(aggregate(AggFunc::Avg, &r, 0), Ok(Value::double(1.0)));
        assert_eq!(aggregate(AggFunc::Min, &r, 0), Ok(Value::Int(-1)));
        assert_eq!(aggregate(AggFunc::Max, &r, 0), Ok(Value::Int(3)));
        assert_eq!(AggFunc::from_name("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("avg"), None);
    }
}
