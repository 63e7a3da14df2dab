//! Typed attribute values with SQL null semantics.
//!
//! [`Value`] is the cell type of every relation. Equality and hashing treat
//! `Null` as a regular variant (so values can key hash maps, which the
//! subsumption and join machinery relies on), while the *SQL* comparison
//! methods ([`Value::sql_eq`], [`Value::sql_cmp`]) implement three-valued
//! semantics where any comparison against null is [`Truth::Unknown`].
//!
//! Strings are shared: [`Value::Str`] holds an `Arc<str>`, so copying a
//! cell — into a join row, a scanned table, a padded row or a cache hit —
//! bumps a reference count instead of copying its bytes. A `Value` is 24
//! bytes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::truth::Truth;

/// The type of an attribute's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A single attribute value, possibly null.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL: value missing or inapplicable.
    Null,
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
    /// String value, shared by every copy of the cell.
    Str(Arc<str>),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Is this value null?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type, or `None` for null (which inhabits every domain).
    #[must_use]
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Does this value inhabit `ty`? Null inhabits every domain.
    #[must_use]
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty || (t == DataType::Int && ty == DataType::Float),
        }
    }

    /// Numeric view: integers widen to floats. `None` for non-numerics.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL equality: `Unknown` if either side is null, otherwise
    /// a definite answer. Int/Float compare by exact value.
    #[must_use]
    pub fn sql_eq(&self, other: &Value) -> Truth {
        match self.sql_cmp(other) {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(ord == Ordering::Equal),
        }
    }

    /// SQL ordering comparison. Returns `None` when either side is null or
    /// the types are incomparable (which SQL would reject statically; we
    /// treat it as unknown at run time for robustness in walks over
    /// heterogeneous columns).
    #[must_use]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::{Bool, Float, Int, Null, Str};
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).map(Ordering::reverse),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for deterministic output (sorting rendered
    /// tables, canonicalizing test fixtures), and `Value`'s `==`. Nulls
    /// sort first; across types the order is Null < Bool < Int/Float <
    /// Str. An Int and a Float compare by exact value, never by the
    /// Int's nearest float, so the order stays transitive past 2^53.
    #[must_use]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::{Bool, Float, Int, Null, Str};
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_total_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_total_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Arithmetic addition with SQL null propagation.
    pub fn add(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Arithmetic subtraction with SQL null propagation.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Arithmetic multiplication with SQL null propagation.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        self.numeric_binop(other, "*", |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Arithmetic division with SQL null propagation. Integer division by
    /// zero is an error; float division follows IEEE.
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(Error::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a / b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a / b)),
                _ => Err(Error::TypeMismatch(format!(
                    "cannot divide {self} by {other}"
                ))),
            },
        }
    }

    fn numeric_binop(
        &self,
        other: &Value,
        op: &str,
        int_op: impl Fn(i64, i64) -> Option<i64>,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
                .map(Value::Int)
                .ok_or_else(|| Error::Invalid(format!("integer overflow in {a} {op} {b}"))),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(float_op(a, b))),
                _ => Err(Error::TypeMismatch(format!(
                    "cannot apply `{op}` to {self} and {other}"
                ))),
            },
        }
    }
}

/// The exact order of an integer and a float, `None` for NaN: no
/// rounding of `a` to `f64`, so distinct integers past 2^53 stay
/// distinct from each other's nearest float. `-0.0` equals `0`.
fn int_float_cmp(a: i64, b: f64) -> Option<Ordering> {
    // 2^63: every i64 is below it, and every float in [-2^63, 2^63)
    // floors to an exact i64
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        None
    } else if b >= TWO_63 {
        Some(Ordering::Less)
    } else if b < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let floor = b.floor();
        // `a` equal to the floor of a fractional `b` is below `b`
        Some(a.cmp(&(floor as i64)).then(if b > floor {
            Ordering::Less
        } else {
            Ordering::Equal
        }))
    }
}

/// [`int_float_cmp`] completed to [`f64::total_cmp`]'s order, which puts
/// `-0.0` just below `0` and a NaN past every number on its sign's side:
/// the integer `a` sits where the float of its exact value would.
fn int_float_total_cmp(a: i64, b: f64) -> Ordering {
    match int_float_cmp(a, b) {
        Some(Ordering::Equal) if b == 0.0 && b.is_sign_negative() => Ordering::Greater,
        Some(ord) => ord,
        None if b.is_sign_negative() => Ordering::Greater,
        None => Ordering::Less,
    }
}

/// Structural equality: `Null == Null`, floats compare bitwise-by-total-order.
/// This is the *container* equality (hash maps, dedup), not SQL equality.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash consistently with total_cmp equality:
            // an Int and the equal Float must share a hash. An Int no
            // float equals (past 2^53) shares its nearest float's hash,
            // a collision that `==` then resolves exactly.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("-"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
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
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), Truth::Unknown);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn sql_eq_across_numeric_types() {
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.0)), Truth::True);
        assert_eq!(Value::Int(2).sql_eq(&Value::Float(2.5)), Truth::False);
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incomparable_types_are_unknown() {
        assert_eq!(Value::Int(1).sql_eq(&Value::str("1")), Truth::Unknown);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn container_equality_treats_null_as_equal_to_null() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_eq!(Value::Int(3), Value::Float(3.0));
    }

    #[test]
    fn hash_consistent_with_container_equality() {
        let mut set = HashSet::new();
        set.insert(Value::Int(3));
        assert!(set.contains(&Value::Float(3.0)));
        set.insert(Value::Null);
        assert!(set.contains(&Value::Null));
        assert!(!set.contains(&Value::str("3")));
    }

    #[test]
    fn arithmetic_propagates_null() {
        assert_eq!(Value::Null.add(&Value::Int(1)).unwrap(), Value::Null);
        assert_eq!(Value::Int(1).mul(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)).unwrap(), Value::Int(-1));
        assert_eq!(
            Value::Int(2).mul(&Value::Float(1.5)).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(7.0).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error_for_ints() {
        assert_eq!(
            Value::Int(1).div(&Value::Int(0)),
            Err(Error::DivisionByZero)
        );
    }

    #[test]
    fn string_arithmetic_is_a_type_error() {
        assert!(Value::str("a").add(&Value::Int(1)).is_err());
    }

    #[test]
    fn overflow_is_detected() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn total_cmp_orders_nulls_first_and_is_total() {
        let mut vals = [
            Value::str("b"),
            Value::Int(1),
            Value::Null,
            Value::Bool(false),
            Value::Float(0.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(*vals.last().unwrap(), Value::str("b"));
    }

    #[test]
    fn int_float_comparison_is_exact() {
        let big = 1i64 << 53;
        let (int, float) = (Value::Int, Value::Float);
        assert_eq!(int(big), float(big as f64));
        assert_ne!(int(big + 1), float(big as f64));
        assert!(int(big + 1).total_cmp(&float(big as f64)).is_gt());
        assert!(int(i64::MAX).total_cmp(&float(i64::MAX as f64)).is_lt()); // 2^63
        assert_eq!(int(i64::MIN), float(i64::MIN as f64)); // -2^63
        assert!(int(2).total_cmp(&float(2.5)).is_lt());
        assert!(int(-3).total_cmp(&float(-2.5)).is_lt());
        assert_eq!(int(-3), float(-3.0));
        // NaN and -0.0 keep f64::total_cmp's places
        assert!(int(0).total_cmp(&float(-0.0)).is_gt());
        assert_eq!(int(0), float(0.0));
        assert!(int(i64::MAX).total_cmp(&float(f64::NAN)).is_lt());
        assert!(int(i64::MIN).total_cmp(&float(-f64::NAN)).is_gt());
        // SQL comparison: exact too, with -0.0 = 0 and NaN unknown
        assert_eq!(int(big + 1).sql_eq(&float(big as f64)), Truth::False);
        assert_eq!(int(0).sql_eq(&float(-0.0)), Truth::True);
        assert_eq!(int(1).sql_cmp(&float(f64::NAN)), None);
    }

    /// Numbers near ±2^53 and ±2^63, where an i64 has no exact f64, and
    /// the floats `f64::total_cmp` places apart (±0.0, ±NaN, ±∞).
    fn edge_number() -> impl Strategy<Value = Value> {
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ];
        let int_near = |c: i64| (-3i64..4).prop_map(move |d| Value::Int(c.saturating_add(d)));
        // d ulps of 2^53 or 2^63 away from c
        let float_near = |c: f64| {
            (-2i32..3).prop_map(move |d| Value::Float(c + f64::from(d) * c.abs() * f64::EPSILON))
        };
        let (p53, p63) = (2f64.powi(53), 2f64.powi(63));
        prop_oneof![
            int_near(1 << 53),
            int_near(-(1 << 53)),
            int_near(i64::MAX),
            int_near(i64::MIN),
            float_near(p53),
            float_near(-p53),
            float_near(p63),
            float_near(-p63),
            (0usize..SPECIAL.len()).prop_map(|i| Value::Float(SPECIAL[i])),
        ]
    }

    /// Where `v` sits on the number line: its exact integer value
    /// (every finite float `edge_number` makes is integral), with
    /// `f64::total_cmp`'s places for -0.0, the infinities and the NaNs.
    fn exact_key(v: &Value) -> (i8, i128, i8) {
        match v {
            Value::Int(i) => (0, i128::from(*i), 0),
            Value::Float(f) if f.is_nan() => (if f.is_sign_negative() { -2 } else { 2 }, 0, 0),
            Value::Float(f) if f.is_infinite() => (if *f < 0.0 { -1 } else { 1 }, 0, 0),
            Value::Float(f) => (
                0,
                *f as i128,
                if *f == 0.0 && f.is_sign_negative() {
                    -1
                } else {
                    0
                },
            ),
            other => unreachable!("not a number: {other:?}"),
        }
    }

    proptest! {
        /// Every pair orders as its exact values do, so the order is
        /// transitive; equal values hash alike.
        #[test]
        fn total_cmp_is_exact_near_the_float_limits(
            values in proptest::collection::vec(edge_number(), 2..16),
        ) {
            use std::hash::BuildHasher;
            let state = std::hash::RandomState::new();
            for a in &values {
                for b in &values {
                    prop_assert_eq!(a.total_cmp(b), exact_key(a).cmp(&exact_key(b)), "{:?} vs {:?}", a, b);
                    if a == b {
                        prop_assert_eq!(state.hash_one(a), state.hash_one(b));
                    }
                }
            }
        }
    }

    #[test]
    fn conforms_to_allows_null_everywhere_and_int_widening() {
        assert!(Value::Null.conforms_to(DataType::Str));
        assert!(Value::Int(1).conforms_to(DataType::Float));
        assert!(!Value::Float(1.0).conforms_to(DataType::Int));
        assert!(Value::str("x").conforms_to(DataType::Str));
    }

    #[test]
    fn display_renders_null_as_dash() {
        assert_eq!(Value::Null.to_string(), "-");
        assert_eq!(Value::str("Maya").to_string(), "Maya");
        assert_eq!(Value::Int(2).to_string(), "2");
    }

    #[test]
    fn clones_share_the_string_and_a_value_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let a = Value::str("Maya");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn from_option_maps_none_to_null() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }
}
