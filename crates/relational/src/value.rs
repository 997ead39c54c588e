//! Atomic values and their types.
//!
//! The engine supports the four scalar domains the paper's examples need
//! (integers, floats, text, booleans) plus SQL-style NULL. Values are
//! totally ordered and hashable so they can serve as key components; NULL
//! comparisons in *predicates* use three-valued logic (see
//! [`crate::predicate`]), while the total order here is only used for
//! storage and sorting, where `Null` sorts first and floats use IEEE total
//! ordering.

use std::borrow::Cow;
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
    /// UTF-8 text: up to [`Text::INLINE`] bytes in place, longer text
    /// shared (see [`Text`]).
    Text(Text),
}

// A value is three words: a short text fits in them, and the variant tag
// lives in the values an inline text's length byte leaves free.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

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
    pub fn text(s: impl Into<Text>) -> Value {
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
            Value::Text(s) => Some(s.as_str()),
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

    /// An 8-byte prefix of this value ordered as the values are, when it
    /// is of the type `ty` a column declares: an `INT` with its sign bit
    /// flipped, a `TEXT`'s first 8 bytes ([`Text::prefix`]). Two such
    /// values whose prefixes differ order as the prefixes do, and equal
    /// values have equal prefixes; equal prefixes say nothing. `None` for
    /// any other type, or a value not of `ty` — `Float(2.0)` equals
    /// `Int(2)` and has no prefix among integers.
    pub fn abbrev(&self, ty: DataType) -> Option<u64> {
        match (ty, self) {
            (DataType::Int, Value::Int(i)) => Some((*i as u64) ^ 1 << 63),
            (DataType::Text, Value::Text(t)) => Some(t.prefix()),
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
            (Value::Int(a), Value::Float(b)) => Some(int_float_cmp(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(int_float_cmp(*b, *a).reverse()),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            _ => None,
        }
    }
}

/// `a` against `b` exactly. Past 2^53 an `i64` need not be a float, and
/// comparing its nearest float alone made two integers equal one float,
/// and so each other. The nearest float still orders `a` wherever it
/// differs from `b` — rounding never crosses another float — so it places
/// an integer among `-0.0`, the infinities and the NaNs as
/// [`f64::total_cmp`] does. Where it equals `b`, `b` is an integer of at
/// most 2^63 in magnitude, and the two compare as integers.
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    (a as f64)
        .total_cmp(&b)
        .then_with(|| i128::from(a).cmp(&(b as i128)))
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

/// Immutable UTF-8 text, as a [`Value`] holds it. A string of up to
/// [`Text::INLINE`] bytes is stored in place: building or cloning one
/// allocates nothing and touches no reference count. A longer one is one
/// shared `Arc<str>`, which a clone shares. Which of the two a text is
/// follows from its length alone, so every constructor builds the same
/// text from the same string. Order, equality, hashing, `Display` and
/// `Debug` are the string's own.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// The string's bytes, zero-padded. Zero padding makes comparing the
    /// padded arrays, then the lengths, exactly the string's order: where
    /// one string is a prefix of the other the arrays agree up to the
    /// longer one's next nonzero byte, and the lengths decide the rest —
    /// NUL bytes included.
    Inline(Len, [u8; Text::INLINE]),
    /// Longer than [`Text::INLINE`] bytes.
    Heap(Arc<str>),
}

/// An inline text's length. An enum rather than a `u8`, so the byte's
/// other 233 values are free to tag [`Repr`] and [`Value`]: that is how a
/// value stays three words.
#[rustfmt::skip]
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Len {
    L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
    L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
}

#[rustfmt::skip]
const LENS: [Len; Text::INLINE + 1] = {
    use Len::*;
    [
        L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
        L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
    ]
};

impl Text {
    /// The longest text stored in place: what is left of a value's three
    /// words after the length byte, which also carries the enums' tags.
    /// It holds the keys and names the paper's relations are made of —
    /// course ids, department names, titles, levels.
    pub const INLINE: usize = 22;

    /// `s` in place, when it fits.
    fn inline(s: &str) -> Option<Text> {
        let len = *LENS.get(s.len())?;
        let mut bytes = [0; Text::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline(len, bytes)))
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // `Text::inline`, the one constructor of `Repr::Inline`, copies
            // a whole `&str` into `bytes[..len]`
            Repr::Inline(len, bytes) => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline text holds the bytes of a whole string"),
            Repr::Heap(s) => s,
        }
    }

    /// True when the text is stored in place, so that a clone copies it.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(..))
    }

    /// The first 8 bytes, big-endian and zero-padded: ordered as the
    /// strings are wherever two prefixes differ, by the argument behind
    /// [`Repr::Inline`]'s order — a string ending inside the 8 bytes is
    /// padded with zeros, which no byte sorts below. A shared text is
    /// longer than [`Text::INLINE`], so it has 8 bytes to give.
    pub fn prefix(&self) -> u64 {
        let head = match &self.0 {
            Repr::Inline(_, bytes) => &bytes[..8],
            Repr::Heap(s) => &s.as_bytes()[..8],
        };
        u64::from_be_bytes(head.try_into().expect("8 bytes"))
    }

    /// An inline text as two big-endian words ordered as the string is:
    /// its first 16 bytes, then its last 6 with the length after them.
    fn words(len: Len, bytes: &[u8; Text::INLINE]) -> (u128, u64) {
        let (head, tail) = bytes.split_at(16);
        let mut low = [0; 8];
        low[..6].copy_from_slice(tail);
        low[6] = len as u8;
        let head = u128::from_be_bytes(head.try_into().expect("16 bytes"));
        (head, u64::from_be_bytes(low))
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline(la, a), Repr::Inline(lb, b)) => la == lb && a == b,
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            // a text is inline exactly when it fits
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline(la, a), Repr::Inline(lb, b)) => {
                Text::words(*la, a).cmp(&Text::words(*lb, b))
            }
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(s.into())))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Heap(s.into())))
    }
}

/// A long string is shared, not copied; a short one is copied in place.
impl From<Arc<str>> for Text {
    fn from(s: Arc<str>) -> Self {
        Text::inline(&s).unwrap_or(Text(Repr::Heap(s)))
    }
}

impl From<Cow<'_, str>> for Text {
    fn from(s: Cow<'_, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Text::from(s),
            Cow::Owned(s) => Text::from(s),
        }
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

    /// The prefix law over the edge set: for two values of a column's
    /// declared type, prefixes that differ order the values as they
    /// order, and equal values have equal prefixes. A value of another
    /// type has none.
    #[test]
    fn a_prefix_orders_its_values_or_ties() {
        let two53 = 1i64 << 53;
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -two53 - 1,
            -two53,
            -two53 + 1,
            -1,
            0,
            1,
            two53 - 1,
            two53,
            two53 + 1,
            i64::MAX - 1,
            i64::MAX,
        ]
        .map(Value::Int);
        let shared = "abcdefgh";
        let texts = [
            String::new(),
            "a".into(),
            "a\0".into(),
            "a\0b".into(),
            "b".into(),
            "abcdefg".into(),
            shared.into(),
            format!("{shared}\0"),
            format!("{shared}A"),
            format!("{shared}{}", "x".repeat(14)),
            format!("{shared}{}", "x".repeat(15)),
            format!("{shared}{}", "y".repeat(15)),
            "\u{7f}".into(),
            "é".into(),
            "éa".into(),
            "日本語テキスト".into(),
            "\u{10FFFF}".into(),
        ]
        .map(Value::text);
        assert!(texts
            .iter()
            .any(|t| !matches!(t, Value::Text(s) if s.is_inline())));
        for (ty, values) in [(DataType::Int, &ints[..]), (DataType::Text, &texts[..])] {
            for a in values {
                let pa = a.abbrev(ty).expect("a value of the declared type");
                for b in values {
                    let pb = b.abbrev(ty).expect("a value of the declared type");
                    if pa < pb {
                        assert!(a < b, "{a} < {b} by prefix");
                    }
                    if a == b {
                        assert_eq!(pa, pb, "{a} == {b}");
                    }
                }
            }
        }
        // a probe not of the declared type has no prefix: it is compared
        // in full, where Float(2.0) equals Int(2)
        for (ty, v) in [
            (DataType::Int, Value::Float(2.0)),
            (DataType::Int, Value::text("2")),
            (DataType::Int, Value::Null),
            (DataType::Text, Value::Int(2)),
            (DataType::Float, Value::Float(2.0)),
            (DataType::Bool, Value::Bool(true)),
        ] {
            assert_eq!(v.abbrev(ty), None, "{v} under {ty}");
        }
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
        assert_eq!(format!("{:?}", Value::text("a")), "Text(\"a\")");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("s"), Value::text("s"));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn text_is_inline_up_to_22_bytes_and_shared_past_them() {
        let short = "x".repeat(Text::INLINE);
        let long = "x".repeat(Text::INLINE + 1);
        assert!(Text::from(short.as_str()).is_inline());
        assert!(!Text::from(long.as_str()).is_inline());
        // an `Arc<str>` that fits is copied in place; one that does not is
        // shared
        assert!(Text::from(Arc::<str>::from(short.as_str())).is_inline());
        let shared: Arc<str> = long.as_str().into();
        let Repr::Heap(held) = Text::from(shared.clone()).0 else {
            panic!("a long text is not inline");
        };
        assert!(Arc::ptr_eq(&held, &shared));
        // NUL bytes are characters, not padding
        assert!(Text::from("a") < Text::from("a\0"));
        assert!(Text::from("a\0") < Text::from("a\0\0"));
        assert_ne!(Text::from("a"), Text::from("a\0"));
    }
}
