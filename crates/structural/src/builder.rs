//! Fluent builder for structural schemas.
//!
//! Collects relation and connection declarations, then validates the whole
//! schema at [`StructuralSchemaBuilder::build`] time, returning every
//! problem at once rather than failing on the first.

use crate::connection::Connection;
use crate::schema::StructuralSchema;
use vo_relational::prelude::*;

/// Declarative builder: declare relations and connections in any order,
/// then `build()` validates everything.
#[derive(Debug, Default)]
pub struct StructuralSchemaBuilder {
    relations: Vec<RelationSchema>,
    connections: Vec<Connection>,
    errors: Vec<Error>,
}

impl StructuralSchemaBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a relation. `attrs` pairs attribute names with types;
    /// names listed in `key` form the primary key and are non-nullable,
    /// all other attributes are nullable.
    pub fn relation(mut self, name: &str, attrs: &[(&str, DataType)], key: &[&str]) -> Self {
        let defs: Vec<AttributeDef> = attrs
            .iter()
            .map(|(n, t)| {
                if key.contains(n) {
                    AttributeDef::required(*n, *t)
                } else {
                    AttributeDef::nullable(*n, *t)
                }
            })
            .collect();
        match RelationSchema::new(name, defs, key) {
            Ok(r) => self.relations.push(r),
            Err(e) => self.errors.push(e),
        }
        self
    }

    /// Declare an ownership connection `from —* to` (single-attribute pairs
    /// may use the short form `owns`).
    pub fn owns(
        self,
        name: &str,
        from: &str,
        from_attrs: &[&str],
        to: &str,
        to_attrs: &[&str],
    ) -> Self {
        self.conn(Connection::ownership(name, from, from_attrs, to, to_attrs))
    }

    /// Declare a reference connection `from —> to`.
    pub fn references(
        self,
        name: &str,
        from: &str,
        from_attrs: &[&str],
        to: &str,
        to_attrs: &[&str],
    ) -> Self {
        self.conn(Connection::reference(name, from, from_attrs, to, to_attrs))
    }

    /// Declare a subset connection `from —⊃ to`.
    pub fn subset(
        self,
        name: &str,
        from: &str,
        from_attrs: &[&str],
        to: &str,
        to_attrs: &[&str],
    ) -> Self {
        self.conn(Connection::subset(name, from, from_attrs, to, to_attrs))
    }

    fn conn(mut self, c: Connection) -> Self {
        self.connections.push(c);
        self
    }

    /// Validate and build. Returns the first accumulated error if any
    /// declaration failed.
    pub fn build(self) -> Result<StructuralSchema> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let mut catalog = DatabaseSchema::new();
        for r in self.relations {
            catalog.add(r)?;
        }
        let mut schema = StructuralSchema::new(catalog);
        for c in self.connections {
            schema.add_connection(c)?;
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_schema() {
        let s = StructuralSchemaBuilder::new()
            .relation(
                "DEPARTMENT",
                &[("dept_name", DataType::Text)],
                &["dept_name"],
            )
            .relation(
                "COURSES",
                &[("course_id", DataType::Text), ("dept_name", DataType::Text)],
                &["course_id"],
            )
            .references(
                "cd",
                "COURSES",
                &["dept_name"],
                "DEPARTMENT",
                &["dept_name"],
            )
            .build()
            .unwrap();
        assert_eq!(s.catalog().len(), 2);
        assert_eq!(s.connections().len(), 1);
    }

    #[test]
    fn nonkey_attrs_are_nullable() {
        let s = StructuralSchemaBuilder::new()
            .relation("X", &[("k", DataType::Int), ("v", DataType::Text)], &["k"])
            .build()
            .unwrap();
        let r = s.catalog().relation("X").unwrap();
        assert!(!r.attribute("k").unwrap().nullable);
        assert!(r.attribute("v").unwrap().nullable);
    }

    #[test]
    fn surfaces_declaration_errors() {
        let r = StructuralSchemaBuilder::new()
            .relation("X", &[("k", DataType::Int)], &["missing"])
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn surfaces_connection_errors() {
        let r = StructuralSchemaBuilder::new()
            .relation("X", &[("k", DataType::Int)], &["k"])
            .relation("Y", &[("k", DataType::Int)], &["k"])
            .owns("bad", "X", &["k"], "Y", &["k"]) // X2 not a proper subset
            .build();
        assert!(r.is_err());
    }
}
