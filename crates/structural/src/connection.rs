//! Connections between relations (paper §2, Definitions 2.1–2.4).
//!
//! A connection relates two relations `R1` and `R2` through attribute sets
//! `X1` and `X2` of equal arity and matching domains. The three kinds —
//! ownership, reference, subset — carry the integrity rules the paper
//! states, and each kind constrains how `X1`/`X2` relate to the keys:
//!
//! | kind      | X1            | X2            | cardinality |
//! |-----------|---------------|---------------|-------------|
//! | ownership | `= K(R1)`     | `⊂ K(R2)`     | 1:n         |
//! | reference | `⊆ K(R1)` or `⊆ NK(R1)` | `= K(R2)` | n:1 |
//! | subset    | `= K(R1)`     | `= K(R2)`     | 1:\[0,1\]  |

use std::fmt;
use vo_relational::prelude::*;

/// The three connection types of the structural model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionKind {
    /// Owned tuples depend on a single owner tuple (`R1 —* R2`).
    Ownership,
    /// Referencing tuples point at a more abstract entity (`R1 —> R2`).
    Reference,
    /// `R2` specializes `R1` (`R1 —⊃ R2`), at most one `R2` tuple per `R1`.
    Subset,
}

impl fmt::Display for ConnectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionKind::Ownership => "ownership",
            ConnectionKind::Reference => "reference",
            ConnectionKind::Subset => "subset",
        };
        f.write_str(s)
    }
}

/// A directed, typed connection from relation `from` (`R1`) to relation
/// `to` (`R2`) through the ordered attribute pair `⟨X1, X2⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Unique connection name (used by policies and dialogs).
    pub name: String,
    /// Connection type.
    pub kind: ConnectionKind,
    /// `R1`.
    pub from: String,
    /// `R2`.
    pub to: String,
    /// `X1` — connecting attributes of `R1`.
    pub from_attrs: Vec<String>,
    /// `X2` — connecting attributes of `R2`.
    pub to_attrs: Vec<String>,
}

impl Connection {
    /// Construct an ownership connection.
    pub fn ownership(
        name: impl Into<String>,
        from: impl Into<String>,
        from_attrs: &[&str],
        to: impl Into<String>,
        to_attrs: &[&str],
    ) -> Self {
        Self::build(
            name,
            ConnectionKind::Ownership,
            from,
            from_attrs,
            to,
            to_attrs,
        )
    }

    /// Construct a reference connection.
    pub fn reference(
        name: impl Into<String>,
        from: impl Into<String>,
        from_attrs: &[&str],
        to: impl Into<String>,
        to_attrs: &[&str],
    ) -> Self {
        Self::build(
            name,
            ConnectionKind::Reference,
            from,
            from_attrs,
            to,
            to_attrs,
        )
    }

    /// Construct a subset connection.
    pub fn subset(
        name: impl Into<String>,
        from: impl Into<String>,
        from_attrs: &[&str],
        to: impl Into<String>,
        to_attrs: &[&str],
    ) -> Self {
        Self::build(name, ConnectionKind::Subset, from, from_attrs, to, to_attrs)
    }

    fn build(
        name: impl Into<String>,
        kind: ConnectionKind,
        from: impl Into<String>,
        from_attrs: &[&str],
        to: impl Into<String>,
        to_attrs: &[&str],
    ) -> Self {
        Connection {
            name: name.into(),
            kind,
            from: from.into(),
            to: to.into(),
            from_attrs: from_attrs.iter().map(|s| (*s).to_owned()).collect(),
            to_attrs: to_attrs.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Validate this connection against a schema catalog, enforcing
    /// Definitions 2.1–2.4: both relations exist, `X1`/`X2` have equal
    /// arity and matching domains, and the key conditions for the kind.
    pub fn validate(&self, catalog: &DatabaseSchema) -> Result<()> {
        let r1 = catalog.relation(&self.from)?;
        let r2 = catalog.relation(&self.to)?;
        if self.from_attrs.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "connection {}: empty connecting attribute set",
                self.name
            )));
        }
        if self.from_attrs.len() != self.to_attrs.len() {
            return Err(Error::InvalidSchema(format!(
                "connection {}: X1 and X2 differ in arity",
                self.name
            )));
        }
        let t1 = r1.types_of(&self.from_attrs)?;
        let t2 = r2.types_of(&self.to_attrs)?;
        if t1 != t2 {
            return Err(Error::InvalidSchema(format!(
                "connection {}: X1 and X2 domains differ",
                self.name
            )));
        }
        match self.kind {
            ConnectionKind::Ownership => {
                if !r1.attrs_equal_key(&self.from_attrs) {
                    return Err(Error::InvalidSchema(format!(
                        "ownership connection {}: X1 must equal K({})",
                        self.name, self.from
                    )));
                }
                if !r2.attrs_subset_of_key(&self.to_attrs)
                    || self.to_attrs.len() >= r2.key_indices().len()
                {
                    return Err(Error::InvalidSchema(format!(
                        "ownership connection {}: X2 must be a proper subset of K({})",
                        self.name, self.to
                    )));
                }
            }
            ConnectionKind::Reference => {
                let in_key = r1.attrs_subset_of_key(&self.from_attrs);
                let in_nonkey = r1.attrs_subset_of_nonkey(&self.from_attrs);
                if !in_key && !in_nonkey {
                    return Err(Error::InvalidSchema(format!(
                        "reference connection {}: X1 must lie within K({f}) or within NK({f})",
                        self.name,
                        f = self.from
                    )));
                }
                if !r2.attrs_equal_key(&self.to_attrs) {
                    return Err(Error::InvalidSchema(format!(
                        "reference connection {}: X2 must equal K({})",
                        self.name, self.to
                    )));
                }
            }
            ConnectionKind::Subset => {
                if !r1.attrs_equal_key(&self.from_attrs) {
                    return Err(Error::InvalidSchema(format!(
                        "subset connection {}: X1 must equal K({})",
                        self.name, self.from
                    )));
                }
                if !r2.attrs_equal_key(&self.to_attrs) {
                    return Err(Error::InvalidSchema(format!(
                        "subset connection {}: X2 must equal K({})",
                        self.name, self.to
                    )));
                }
            }
        }
        Ok(())
    }

    /// The end the other end's tuples depend on — owner, general entity or
    /// referenced relation — with its connecting attributes, which for
    /// every kind are exactly its primary key (the table in the module
    /// docs; [`Connection::validate`] enforces it).
    pub fn parent_end(&self) -> (&str, &[String]) {
        match self.kind {
            ConnectionKind::Ownership | ConnectionKind::Subset => (&self.from, &self.from_attrs),
            ConnectionKind::Reference => (&self.to, &self.to_attrs),
        }
    }

    /// The end whose tuples need a connected tuple at the parent end —
    /// owned, specializing or referencing relation — with its connecting
    /// attributes.
    pub fn dependent_end(&self) -> (&str, &[String]) {
        match self.kind {
            ConnectionKind::Ownership | ConnectionKind::Subset => (&self.to, &self.to_attrs),
            ConnectionKind::Reference => (&self.from, &self.from_attrs),
        }
    }

    /// Values of `X1` in a tuple of `R1`.
    pub fn from_values(&self, r1: &RelationSchema, tuple: &Tuple) -> Result<Vec<Value>> {
        self.from_attrs
            .iter()
            .map(|a| tuple.get_named(r1, a).cloned())
            .collect()
    }

    /// Values of `X2` in a tuple of `R2`.
    pub fn to_values(&self, r2: &RelationSchema, tuple: &Tuple) -> Result<Vec<Value>> {
        self.to_attrs
            .iter()
            .map(|a| tuple.get_named(r2, a).cloned())
            .collect()
    }

    /// Two tuples are connected iff their connecting values match and are
    /// non-NULL (Definition 2.1).
    pub fn tuples_connected(
        &self,
        r1: &RelationSchema,
        t1: &Tuple,
        r2: &RelationSchema,
        t2: &Tuple,
    ) -> Result<bool> {
        let v1 = self.from_values(r1, t1)?;
        let v2 = self.to_values(r2, t2)?;
        Ok(!v1.iter().any(Value::is_null) && v1 == v2)
    }

    /// Graphical symbol used by the paper's figures.
    pub fn symbol(&self) -> &'static str {
        match self.kind {
            ConnectionKind::Ownership => "—*",
            ConnectionKind::Reference => "—>",
            ConnectionKind::Subset => "—⊃",
        }
    }
}

impl fmt::Display for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} on ({} ~ {}) [{}]",
            self.from,
            self.symbol(),
            self.to,
            self.from_attrs.join(","),
            self.to_attrs.join(","),
            self.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> DatabaseSchema {
        let mut cat = DatabaseSchema::new();
        cat.add(
            RelationSchema::new(
                "COURSES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::required("dept_name", DataType::Text),
                ],
                &["course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "GRADES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::nullable("grade", DataType::Text),
                ],
                &["course_id", "ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "DEPARTMENT",
                vec![AttributeDef::required("dept_name", DataType::Text)],
                &["dept_name"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "PEOPLE",
                vec![
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::required("name", DataType::Text),
                ],
                &["ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "STUDENT",
                vec![
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::nullable("degree_program", DataType::Text),
                ],
                &["ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn valid_ownership() {
        let c = Connection::ownership(
            "courses_grades",
            "COURSES",
            &["course_id"],
            "GRADES",
            &["course_id"],
        );
        c.validate(&catalog()).unwrap();
        assert_eq!(c.symbol(), "—*");
    }

    #[test]
    fn ownership_rejects_full_key_target() {
        // X2 = K(R2) is a subset connection, not ownership (proper subset required)
        let c = Connection::ownership("bad", "PEOPLE", &["ssn"], "STUDENT", &["ssn"]);
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn ownership_rejects_nonkey_source() {
        let c = Connection::ownership("bad", "COURSES", &["dept_name"], "GRADES", &["course_id"]);
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn valid_reference_from_nonkey() {
        let c = Connection::reference(
            "courses_dept",
            "COURSES",
            &["dept_name"],
            "DEPARTMENT",
            &["dept_name"],
        );
        c.validate(&catalog()).unwrap();
        assert_eq!(c.symbol(), "—>");
    }

    #[test]
    fn valid_reference_from_key() {
        let c = Connection::reference(
            "grades_courses",
            "GRADES",
            &["course_id"],
            "COURSES",
            &["course_id"],
        );
        c.validate(&catalog()).unwrap();
    }

    #[test]
    fn reference_rejects_nonkey_target() {
        let c = Connection::reference("bad", "COURSES", &["dept_name"], "GRADES", &["grade"]);
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn reference_rejects_mixed_x1() {
        // X1 straddling key and non-key is not allowed
        let c = Connection::reference(
            "bad",
            "GRADES",
            &["course_id", "grade"],
            "COURSES",
            &["course_id", "dept_name"],
        );
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn valid_subset() {
        let c = Connection::subset("people_student", "PEOPLE", &["ssn"], "STUDENT", &["ssn"]);
        c.validate(&catalog()).unwrap();
        assert_eq!(c.symbol(), "—⊃");
    }

    #[test]
    fn rejects_domain_mismatch() {
        let c = Connection::subset("bad", "PEOPLE", &["ssn"], "DEPARTMENT", &["dept_name"]);
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        let c = Connection::reference(
            "bad",
            "GRADES",
            &["course_id", "ssn"],
            "COURSES",
            &["course_id"],
        );
        assert!(c.validate(&catalog()).is_err());
    }

    #[test]
    fn rejects_unknown_relation() {
        let c = Connection::reference("bad", "NOPE", &["x"], "DEPARTMENT", &["dept_name"]);
        assert!(matches!(
            c.validate(&catalog()),
            Err(Error::NoSuchRelation(_))
        ));
    }

    #[test]
    fn tuple_connection_matching() {
        let cat = catalog();
        let c = Connection::reference(
            "courses_dept",
            "COURSES",
            &["dept_name"],
            "DEPARTMENT",
            &["dept_name"],
        );
        let courses = cat.relation("COURSES").unwrap();
        let dept = cat.relation("DEPARTMENT").unwrap();
        let t1 = Tuple::new(courses, vec!["CS345".into(), "CS".into()]).unwrap();
        let d_cs = Tuple::new(dept, vec!["CS".into()]).unwrap();
        let d_ee = Tuple::new(dept, vec!["EE".into()]).unwrap();
        assert!(c.tuples_connected(courses, &t1, dept, &d_cs).unwrap());
        assert!(!c.tuples_connected(courses, &t1, dept, &d_ee).unwrap());
    }

    #[test]
    fn display_shows_shape() {
        let c = Connection::ownership(
            "courses_grades",
            "COURSES",
            &["course_id"],
            "GRADES",
            &["course_id"],
        );
        let s = c.to_string();
        assert!(s.contains("COURSES —* GRADES"));
    }
}
