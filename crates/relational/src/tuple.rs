//! Tuples and keys.

use crate::error::{Error, Result};
use crate::schema::RelationSchema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple: an ordered list of values conforming to some relation schema.
///
/// A tuple is one immutable, reference-counted allocation: `clone` bumps
/// the count, so the row a table stores, the row an instance binds, the
/// row an overlay holds as a post-image and the row the journal records
/// are the same memory ([`Tuple::ptr_eq`]). Changing a value means
/// building a new tuple ([`Tuple::with_named`], or [`Tuple::raw`] over an
/// edited copy of [`Tuple::values`]). Conformance to a schema is checked
/// at construction ([`Tuple::new`]) and, in place, at every table
/// mutation ([`Tuple::validate`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

// Rows are shared between the head database, pinned snapshots and the
// parallel instantiation workers.
const _: fn() = vo_exec::assert_send_sync::<Tuple>;

impl Tuple {
    /// Build a tuple validated against `schema`: arity, types, and
    /// NULLability must all conform.
    pub fn new(schema: &RelationSchema, values: Vec<Value>) -> Result<Self> {
        // checked first: a refused row never becomes an allocation
        conforms(&values, schema)?;
        Ok(Tuple::raw(values))
    }

    /// Build a tuple without schema validation. Used internally by
    /// operators whose output schema is synthesized (projections, joins).
    pub fn raw(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// Check this tuple against `schema` in place: arity, types, and
    /// NULLability must all conform. Everything that accepts a tuple built
    /// elsewhere (table mutations, the overlay, snapshot restore, update
    /// validation) checks it this way and keeps the tuple it was handed,
    /// so a row is allocated once however many layers vouch for it.
    pub fn validate(&self, schema: &RelationSchema) -> Result<()> {
        conforms(&self.0, schema)
    }

    /// True when both tuples are the same allocation — stronger than `==`:
    /// it shows a row was shared, not copied.
    pub fn ptr_eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Value of the named attribute under `schema`.
    pub fn get_named(&self, schema: &RelationSchema, attr: &str) -> Result<&Value> {
        Ok(&self.0[schema.index_of(attr)?])
    }

    /// Return a copy with the named attribute replaced, re-validated — or
    /// this very allocation when the value is already there.
    pub fn with_named(&self, schema: &RelationSchema, attr: &str, value: Value) -> Result<Tuple> {
        let idx = schema.index_of(attr)?;
        if self.0[idx].identical(&value) {
            return Ok(self.clone());
        }
        let mut vals = self.0.to_vec();
        vals[idx] = value;
        Tuple::new(schema, vals)
    }

    /// Extract this tuple's primary key under `schema`.
    pub fn key(&self, schema: &RelationSchema) -> Key {
        Key(schema
            .key_indices()
            .iter()
            .map(|&i| self.0[i].clone())
            .collect())
    }

    /// Project to the given attribute indices (no validation).
    pub fn project(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.0[i].clone()).collect()
    }

    /// True when a value at one of `positions` is NULL — such a tuple
    /// connects to nothing through them (Definition 2.1).
    pub fn has_null_at(&self, positions: &[usize]) -> bool {
        positions.iter().any(|&p| self.0[p].is_null())
    }

    /// The values at `positions` as the slice a lookup is keyed by, or
    /// `None` when one of them is NULL: NULL never connects (Definition
    /// 2.1). One position is borrowed from the tuple; several are gathered
    /// into `buf`, which a caller reuses from probe to probe.
    pub fn connecting<'v>(
        &'v self,
        positions: &[usize],
        buf: &'v mut Vec<Value>,
    ) -> Option<&'v [Value]> {
        if self.has_null_at(positions) {
            return None;
        }
        if let [p] = positions {
            return Some(std::slice::from_ref(&self.0[*p]));
        }
        buf.clear();
        buf.extend(positions.iter().map(|&p| self.0[p].clone()));
        Some(buf)
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.0.len()
    }
}

/// Arity, types and NULLability of `values` against `schema`.
fn conforms(values: &[Value], schema: &RelationSchema) -> Result<()> {
    if values.len() != schema.arity() {
        return Err(Error::ArityMismatch {
            relation: schema.name().to_owned(),
            expected: schema.arity(),
            found: values.len(),
        });
    }
    for (v, a) in values.iter().zip(schema.attributes()) {
        if v.is_null() {
            if !a.nullable {
                return Err(Error::NullViolation {
                    relation: schema.name().to_owned(),
                    attribute: a.name.clone(),
                });
            }
        } else if !v.conforms_to(a.ty) {
            return Err(Error::TypeMismatch {
                relation: schema.name().to_owned(),
                attribute: a.name.clone(),
                expected: a.ty.to_string(),
                found: format!("{v}"),
            });
        }
    }
    Ok(())
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// A primary-key value: the key attributes of one tuple, in key order.
///
/// `Key` is the handle by which tuples are addressed in tables and in
/// [`crate::database::DbOp`] operation lists.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// Build a key from values.
    pub fn new(values: Vec<Value>) -> Self {
        Key(values)
    }

    /// Single-component convenience constructor.
    pub fn single(v: impl Into<Value>) -> Self {
        Key(vec![v.into()])
    }

    /// Key components.
    pub fn values(&self) -> &[Value] {
        &self.0
    }
}

/// A key is looked up by its components: a point lookup and a range from
/// a key prefix both take a borrowed slice, so a probe never builds a
/// `Key`. Sound because `Key`'s derived `Eq`, `Ord` and `Hash` are those of
/// its one field, a `Vec<Value>`, which are its slice's.
impl std::borrow::Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;
    use crate::value::DataType;

    fn grades_schema() -> RelationSchema {
        RelationSchema::new(
            "GRADES",
            vec![
                AttributeDef::required("course_id", DataType::Text),
                AttributeDef::required("student_id", DataType::Int),
                AttributeDef::nullable("grade", DataType::Text),
            ],
            &["course_id", "student_id"],
        )
        .unwrap()
    }

    #[test]
    fn validated_construction() {
        let s = grades_schema();
        let t = Tuple::new(&s, vec!["CS345".into(), 7.into(), Value::Null]).unwrap();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get_named(&s, "course_id").unwrap(), &Value::text("CS345"));
    }

    #[test]
    fn rejects_bad_arity() {
        let s = grades_schema();
        let r = Tuple::new(&s, vec!["CS345".into()]);
        assert!(matches!(r, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn rejects_type_mismatch() {
        let s = grades_schema();
        let r = Tuple::new(&s, vec!["CS345".into(), "oops".into(), Value::Null]);
        assert!(matches!(r, Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn rejects_null_in_required() {
        let s = grades_schema();
        let r = Tuple::new(&s, vec![Value::Null, 7.into(), Value::Null]);
        assert!(matches!(r, Err(Error::NullViolation { .. })));
    }

    #[test]
    fn key_extraction_follows_key_order() {
        let s = grades_schema();
        let t = Tuple::new(&s, vec!["CS345".into(), 7.into(), "A".into()]).unwrap();
        assert_eq!(t.key(&s), Key(vec!["CS345".into(), 7.into()]));
    }

    #[test]
    fn with_named_replaces_and_revalidates() {
        let s = grades_schema();
        let t = Tuple::new(&s, vec!["CS345".into(), 7.into(), "A".into()]).unwrap();
        let t2 = t.with_named(&s, "grade", "B".into()).unwrap();
        assert_eq!(t2.get_named(&s, "grade").unwrap(), &Value::text("B"));
        assert!(t.with_named(&s, "student_id", Value::Null).is_err());
        // a value already there keeps the allocation
        assert!(t.with_named(&s, "grade", "A".into()).unwrap().ptr_eq(&t));
        assert!(!t2.ptr_eq(&t));
    }

    #[test]
    fn connecting_borrows_one_value_and_gathers_several() {
        let s = grades_schema();
        let t = Tuple::new(&s, vec!["CS345".into(), 7.into(), Value::Null]).unwrap();
        let mut buf = Vec::new();
        let one = t.connecting(&[1], &mut buf).unwrap();
        assert!(std::ptr::eq(one.as_ptr(), t.get(1)));
        assert_eq!(
            t.connecting(&[1, 0], &mut buf).unwrap(),
            [7.into(), "CS345".into()]
        );
        // NULL never connects
        assert!(t.connecting(&[2], &mut buf).is_none());
        assert!(t.connecting(&[0, 2], &mut buf).is_none());
    }

    #[test]
    fn display_is_parenthesized() {
        let s = grades_schema();
        let t = Tuple::new(&s, vec!["CS345".into(), 7.into(), Value::Null]).unwrap();
        assert_eq!(t.to_string(), "('CS345', 7, NULL)");
        assert_eq!(t.key(&s).to_string(), "('CS345', 7)");
    }
}
