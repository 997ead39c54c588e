//! Relation schemas and the database schema catalog.
//!
//! A [`RelationSchema`] is an ordered list of typed attributes plus a
//! designated primary key — the `K(R)` of the paper. The catalog
//! ([`DatabaseSchema`]) maps relation names to schemas and is shared by the
//! structural model and the view-object layer, both of which reason about
//! keys and non-key attributes (`NK(R)`).

use crate::error::{Error, Result};
use crate::value::DataType;
use std::collections::BTreeMap;

/// A typed, possibly-nullable attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Attribute name, unique within its relation.
    pub name: String,
    /// Scalar domain.
    pub ty: DataType,
    /// Whether NULL is a legal value. Key attributes must be non-nullable.
    pub nullable: bool,
}

impl AttributeDef {
    /// A non-nullable attribute.
    pub fn required(name: impl Into<String>, ty: DataType) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable attribute.
    pub fn nullable(name: impl Into<String>, ty: DataType) -> Self {
        AttributeDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// Schema of one relation: named attributes and a primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<AttributeDef>,
    /// Indices (into `attributes`) of the primary-key attributes, in
    /// declaration order.
    key: Vec<usize>,
}

impl RelationSchema {
    /// Build and validate a relation schema.
    ///
    /// Validation enforces: at least one attribute, unique attribute names,
    /// a non-empty key over existing attributes, and non-nullable key
    /// attributes.
    pub fn new(
        name: impl Into<String>,
        attributes: Vec<AttributeDef>,
        key: &[&str],
    ) -> Result<Self> {
        let name = name.into();
        if attributes.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "relation {name} has no attributes"
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in &attributes {
            if !seen.insert(a.name.clone()) {
                return Err(Error::DuplicateAttribute {
                    relation: name,
                    attribute: a.name.clone(),
                });
            }
        }
        if key.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "relation {name} has an empty key"
            )));
        }
        let mut key_idx = Vec::with_capacity(key.len());
        for k in key {
            let idx = attributes
                .iter()
                .position(|a| a.name == *k)
                .ok_or_else(|| {
                    Error::InvalidSchema(format!("relation {name}: key attribute {k} not declared"))
                })?;
            if attributes[idx].nullable {
                return Err(Error::InvalidSchema(format!(
                    "relation {name}: key attribute {k} must be non-nullable"
                )));
            }
            if key_idx.contains(&idx) {
                return Err(Error::InvalidSchema(format!(
                    "relation {name}: key attribute {k} listed twice"
                )));
            }
            key_idx.push(idx);
        }
        Ok(RelationSchema {
            name,
            attributes,
            key: key_idx,
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[AttributeDef] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Index of the named attribute.
    pub fn index_of(&self, attr: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a.name == attr)
            .ok_or_else(|| Error::NoSuchAttribute {
                relation: self.name.clone(),
                attribute: attr.to_owned(),
            })
    }

    /// The attribute definition for `attr`.
    pub fn attribute(&self, attr: &str) -> Result<&AttributeDef> {
        self.index_of(attr).map(|i| &self.attributes[i])
    }

    /// True when `attr` exists in this relation.
    pub fn has_attribute(&self, attr: &str) -> bool {
        self.attributes.iter().any(|a| a.name == attr)
    }

    /// Indices of the primary-key attributes.
    pub fn key_indices(&self) -> &[usize] {
        &self.key
    }

    /// True when `indices` are the key's leading positions — all of them or
    /// the first few — in any order: rows are stored in key order, so an
    /// equality lookup over them is one lookup in the primary index, or one
    /// contiguous range of it ([`crate::table::Table::index_at`]).
    pub fn leads_key_at(&self, indices: &[usize]) -> bool {
        // key positions are distinct, so finding each of the first n among
        // n `indices` makes `indices` a permutation of them
        let n = indices.len();
        (1..=self.key.len()).contains(&n) && self.key[..n].iter().all(|k| indices.contains(k))
    }

    /// Names of the primary-key attributes — the paper's `K(R)`.
    pub fn key_names(&self) -> Vec<&str> {
        self.key
            .iter()
            .map(|&i| self.attributes[i].name.as_str())
            .collect()
    }

    /// Names of the non-key attributes — the paper's `NK(R)`.
    pub fn nonkey_names(&self) -> Vec<&str> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.key.contains(i))
            .map(|(_, a)| a.name.as_str())
            .collect()
    }

    /// True when `attr` participates in the primary key.
    pub fn is_key_attribute(&self, attr: &str) -> bool {
        self.index_of(attr)
            .map(|i| self.key.contains(&i))
            .unwrap_or(false)
    }

    /// True when `attrs` is exactly the key set (order-insensitive).
    pub fn attrs_equal_key(&self, attrs: &[String]) -> bool {
        let mut k: Vec<&str> = self.key_names();
        let mut a: Vec<&str> = attrs.iter().map(|s| s.as_str()).collect();
        k.sort_unstable();
        a.sort_unstable();
        k == a
    }

    /// True when every name in `attrs` is a key attribute (subset of K(R)).
    pub fn attrs_subset_of_key(&self, attrs: &[String]) -> bool {
        attrs.iter().all(|a| self.is_key_attribute(a))
    }

    /// True when every name in `attrs` is a non-key attribute (subset of NK(R)).
    pub fn attrs_subset_of_nonkey(&self, attrs: &[String]) -> bool {
        attrs
            .iter()
            .all(|a| self.has_attribute(a) && !self.is_key_attribute(a))
    }

    /// Resolve a list of attribute names to their indices.
    pub fn indices_of(&self, attrs: &[String]) -> Result<Vec<usize>> {
        attrs.iter().map(|a| self.index_of(a)).collect()
    }

    /// Types of the named attributes, for domain-compatibility checks.
    pub fn types_of(&self, attrs: &[String]) -> Result<Vec<DataType>> {
        attrs
            .iter()
            .map(|a| self.attribute(a).map(|d| d.ty))
            .collect()
    }
}

/// The catalog of all relation schemas in a database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatabaseSchema {
    relations: BTreeMap<String, RelationSchema>,
}

impl DatabaseSchema {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation schema; rejects duplicates.
    pub fn add(&mut self, schema: RelationSchema) -> Result<()> {
        if self.relations.contains_key(schema.name()) {
            return Err(Error::DuplicateRelation(schema.name().to_owned()));
        }
        self.relations.insert(schema.name().to_owned(), schema);
        Ok(())
    }

    /// Look up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))
    }

    /// True when the relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// All relation names, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// Iterate over all relation schemas.
    pub fn iter(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn courses() -> RelationSchema {
        RelationSchema::new(
            "COURSES",
            vec![
                AttributeDef::required("course_id", DataType::Text),
                AttributeDef::required("title", DataType::Text),
                AttributeDef::nullable("units", DataType::Int),
                AttributeDef::required("dept_name", DataType::Text),
            ],
            &["course_id"],
        )
        .unwrap()
    }

    #[test]
    fn key_and_nonkey_partition() {
        let s = courses();
        assert_eq!(s.key_names(), vec!["course_id"]);
        assert_eq!(s.nonkey_names(), vec!["title", "units", "dept_name"]);
        assert!(s.is_key_attribute("course_id"));
        assert!(!s.is_key_attribute("title"));
    }

    #[test]
    fn rejects_empty_key() {
        let r = RelationSchema::new("X", vec![AttributeDef::required("a", DataType::Int)], &[]);
        assert!(matches!(r, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn rejects_nullable_key() {
        let r = RelationSchema::new(
            "X",
            vec![AttributeDef::nullable("a", DataType::Int)],
            &["a"],
        );
        assert!(matches!(r, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let r = RelationSchema::new(
            "X",
            vec![
                AttributeDef::required("a", DataType::Int),
                AttributeDef::required("a", DataType::Text),
            ],
            &["a"],
        );
        assert!(matches!(r, Err(Error::DuplicateAttribute { .. })));
    }

    #[test]
    fn rejects_unknown_key_attribute() {
        let r = RelationSchema::new(
            "X",
            vec![AttributeDef::required("a", DataType::Int)],
            &["b"],
        );
        assert!(matches!(r, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn rejects_repeated_key_attribute() {
        let r = RelationSchema::new(
            "X",
            vec![
                AttributeDef::required("a", DataType::Int),
                AttributeDef::required("b", DataType::Int),
            ],
            &["a", "a"],
        );
        assert!(matches!(r, Err(Error::InvalidSchema(_))));
    }

    #[test]
    fn attr_set_predicates() {
        let s = RelationSchema::new(
            "GRADES",
            vec![
                AttributeDef::required("course_id", DataType::Text),
                AttributeDef::required("student_id", DataType::Int),
                AttributeDef::nullable("grade", DataType::Text),
            ],
            &["course_id", "student_id"],
        )
        .unwrap();
        assert!(s.attrs_equal_key(&["student_id".into(), "course_id".into()]));
        assert!(!s.attrs_equal_key(&["course_id".into()]));
        assert!(s.attrs_subset_of_key(&["course_id".into()]));
        assert!(s.attrs_subset_of_nonkey(&["grade".into()]));
        assert!(!s.attrs_subset_of_nonkey(&["course_id".into()]));
    }

    #[test]
    fn catalog_add_lookup() {
        let mut cat = DatabaseSchema::new();
        cat.add(courses()).unwrap();
        assert!(cat.contains("COURSES"));
        assert!(cat.relation("COURSES").is_ok());
        assert!(matches!(cat.relation("X"), Err(Error::NoSuchRelation(_))));
        assert!(matches!(
            cat.add(courses()),
            Err(Error::DuplicateRelation(_))
        ));
        assert_eq!(cat.relation_names(), vec!["COURSES"]);
        assert_eq!(cat.len(), 1);
    }
}
