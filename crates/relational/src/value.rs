//! Attribute values and their domains.
//!
//! Definition 2.1 of the paper leaves attribute domains `dom(A_i)` abstract;
//! the prototype (PRISMA/DB) used the usual scalar SQL-ish domains. We
//! support 64-bit integers, IEEE doubles, strings, booleans, and an explicit
//! `null` (needed by the paper's own Example 4.2, whose compensating action
//! inserts `(name, null, null)` tuples into `brewery`).
//!
//! Values must be usable as hash-set members (relations are sets of tuples),
//! so [`Value`] implements `Eq`/`Hash`/`Ord` with a total order. Doubles are
//! compared via [`f64::total_cmp`] semantics (canonicalising NaN and the
//! zero sign on construction so that `Eq`/`Hash` agree).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type (domain) of an attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// 64-bit signed integers.
    Int,
    /// IEEE-754 double precision floats with a canonical total order.
    Double,
    /// UTF-8 strings.
    Str,
    /// Booleans.
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Double => write!(f, "double"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A single attribute value.
///
/// `Null` is a member of every domain: `Value::Null.type_check(t)` succeeds
/// for all `t`. Comparison predicates on `Null` follow the paper's simple
/// two-valued logic — `Null` equals only itself and sorts before every other
/// value — rather than SQL's three-valued logic, because the CL language of
/// Section 4.1 is two-valued.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value, used by compensating actions (cf. Example 4.2).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Canonicalised double (no NaN, no negative zero).
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Construct a double value, canonicalising NaN and `-0.0` so that the
    /// derived equality and hashing are consistent.
    pub fn double(v: f64) -> Self {
        if v.is_nan() {
            // A single canonical NaN keeps Eq/Hash lawful.
            Value::Double(f64::NAN)
        } else if v == 0.0 {
            Value::Double(0.0)
        } else {
            Value::Double(v)
        }
    }

    /// Construct a string value.
    pub fn str(v: impl Into<String>) -> Self {
        Value::Str(v.into())
    }

    /// The [`ValueType`] of this value, or `None` for `Null` (which belongs
    /// to every domain).
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Double(_) => Some(ValueType::Double),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
        }
    }

    /// Whether this value is a member of domain `ty` (`Null` always is).
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        match self.value_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret as a double, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Interpret as a string slice if possible.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric comparison used by the value predicates `PV` of
    /// Definition 4.1; integers and doubles compare numerically, other
    /// combinations compare by the total order.
    pub fn compare(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Double(b)) => (*a as f64).total_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => self.cmp(other),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Feed this value into a hasher such that values equal under
    /// [`Value::compare`] always hash equally — the hash contract of the
    /// engine's *join keys*, as opposed to the derived [`Hash`] impl whose
    /// contract is the typed set equality of relations.
    ///
    /// `compare` equates `Int(i)` with the `Double` it widens to, so both
    /// numeric variants hash under one shared tag as the `f64` bit
    /// pattern. Because two distinct large integers can both compare equal
    /// to the double they round to, compare-equality is not transitive and
    /// has no exact canonical key: hash consumers must bucket by this hash
    /// and re-verify candidates with [`Value::compare`] (false bucket
    /// collisions are possible; false negatives are not).
    pub fn hash_for_join<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(u8::from(*b));
            }
            Value::Int(i) => {
                state.write_u8(3);
                state.write_u64((*i as f64).to_bits());
            }
            Value::Double(d) => {
                state.write_u8(3);
                state.write_u64(d.to_bits());
            }
            Value::Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.rank());
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Double(d) => d.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            // Keep the type in the text: an integral double renders with a
            // `.0` (`5.0`, not `5`), so logged rule text parses back as a
            // double. `f64`'s `Display` never uses an exponent, which the
            // lexers (`digits.digits` only) would reject.
            Value::Double(d) if d.is_finite() && d.fract() == 0.0 => write!(f, "{d}.0"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::FxHashSet;

    #[test]
    fn typing() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::double(1.5).value_type(), Some(ValueType::Double));
        assert_eq!(Value::str("x").value_type(), Some(ValueType::Str));
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Null.value_type(), None);
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Str));
        assert!(Value::Int(1).conforms_to(ValueType::Int));
        assert!(!Value::Int(1).conforms_to(ValueType::Str));
    }

    #[test]
    fn double_canonicalisation() {
        assert_eq!(Value::double(-0.0), Value::double(0.0));
        #[allow(clippy::zero_divided_by_zero)]
        let nan = 0.0 / 0.0;
        assert_eq!(Value::double(f64::NAN), Value::double(nan));
        let mut s: FxHashSet<Value> = FxHashSet::default();
        s.insert(Value::double(-0.0));
        assert!(s.contains(&Value::double(0.0)));
        s.insert(Value::double(f64::NAN));
        assert!(s.contains(&Value::double(f64::NAN)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2).compare(&Value::double(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).compare(&Value::double(2.5)), Ordering::Less);
        assert_eq!(
            Value::double(3.0).compare(&Value::Int(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_order_is_consistent() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(1),
            Value::double(0.5),
            Value::str("a"),
            Value::str("b"),
        ];
        for a in &vals {
            assert_eq!(a.cmp(a), Ordering::Equal);
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
            }
        }
    }

    #[test]
    fn null_equals_only_itself() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::str(""));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::Int(7).as_double(), Some(7.0));
        assert_eq!(Value::str("y").as_str(), Some("y"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("y").as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("ale").to_string(), "\"ale\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::double(5.0).to_string(), "5.0");
        assert_eq!(Value::double(-3.0).to_string(), "-3.0");
        assert_eq!(Value::double(0.25).to_string(), "0.25");
        assert_eq!(Value::double(1e21).to_string(), "1000000000000000000000.0");
    }
}
