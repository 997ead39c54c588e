//! Atomic values and their types.
//!
//! The engine supports the four scalar domains the paper's examples need
//! (integers, floats, text, booleans) plus SQL-style NULL. Values are
//! totally ordered and hashable so they can serve as key components; NULL
//! comparisons in *predicates* use three-valued logic (see
//! [`crate::predicate`]), while the total order here is only used for
//! storage and sorting, where `Null` sorts first and floats use IEEE total
//! ordering.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The scalar type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single atomic value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (absence of a value).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 text, immutable and shared: cloning a text value bumps a
    /// reference count instead of copying the string.
    Text(Arc<str>),
}

impl Value {
    /// The type of this value, or `None` for NULL (which conforms to every
    /// nullable attribute).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True when this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True when this value conforms to `ty` (NULL conforms to all types).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// True when `other` is this value in this variant. `==` follows the
    /// storage order, under which `Int(2) == Float(2.0)`; a column holds
    /// one of them, so "the value is already there" asks for more.
    pub fn identical(&self, other: &Value) -> bool {
        self == other && self.data_type() == other.data_type()
    }

    /// Convenience constructor for text values.
    pub fn text(s: impl Into<Arc<str>>) -> Value {
        Value::Text(s.into())
    }

    /// Extract as integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Extract as float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Extract as text if possible.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract as bool if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different variants; NULL sorts first.
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics compare with each other
            Value::Text(_) => 3,
        }
    }

    /// Compare two values numerically when both are numeric (Int/Float mix).
    fn numeric_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            _ => None,
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
        if let Some(ord) = self.numeric_cmp(other) {
            return ord;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float hash through the same path when the float is
            // integral, so that Int(2) == Float(2.0) implies equal hashes.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
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
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn type_conformance() {
        assert!(Value::Int(3).conforms_to(DataType::Int));
        assert!(!Value::Int(3).conforms_to(DataType::Text));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert_eq!(Value::text("x").data_type(), Some(DataType::Text));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn total_order_across_variants() {
        let mut vs = [
            Value::text("b"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
            Value::text("a"),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[2], Value::Float(0.5));
        assert_eq!(vs[3], Value::Int(1));
        assert_eq!(vs[4], Value::text("a"));
        assert_eq!(vs[5], Value::text("b"));
    }

    #[test]
    fn nan_is_orderable() {
        // total_cmp puts NaN above all other floats; crucially sorting does
        // not panic and NaN equals itself, so storage stays consistent.
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(1e308) < nan);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::text("hi").as_text(), Some("hi"));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::text("hi").as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::text("a").to_string(), "'a'");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
