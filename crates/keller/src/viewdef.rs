//! Select-project-join view definitions.
//!
//! Keller's approach to updating relational databases through views (the
//! approach the paper extends, §4) operates on *flat* views: each view
//! tuple is in first normal form, produced by joining base relations,
//! selecting rows, and projecting columns. This module defines such views
//! and evaluates them against a database.

use vo_relational::prelude::*;

/// An equi-join condition between two relations of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCond {
    /// Left relation name.
    pub left_rel: String,
    /// Left attribute.
    pub left_attr: String,
    /// Right relation name.
    pub right_rel: String,
    /// Right attribute.
    pub right_attr: String,
}

/// One projected column of the view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewColumn {
    /// Base relation the column comes from.
    pub relation: String,
    /// Base attribute name.
    pub attr: String,
    /// Name exposed by the view.
    pub alias: String,
}

/// A select-project-join view over base relations.
#[derive(Debug, Clone, PartialEq)]
pub struct SpjView {
    /// View name.
    pub name: String,
    /// Base relations, in join order; the first is the view's root.
    pub relations: Vec<String>,
    /// Join conditions (each must connect a later relation to an earlier
    /// one).
    pub joins: Vec<JoinCond>,
    /// Selection predicate over qualified (`rel.attr`) columns.
    pub selection: Expr,
    /// Projected columns.
    pub columns: Vec<ViewColumn>,
}

impl SpjView {
    /// Start a single-relation view projecting the given attributes.
    pub fn new(name: impl Into<String>, root: impl Into<String>) -> Self {
        SpjView {
            name: name.into(),
            relations: vec![root.into()],
            joins: Vec::new(),
            selection: Expr::True,
            columns: Vec::new(),
        }
    }

    /// Join another relation in.
    pub fn join(mut self, relation: impl Into<String>, on: &[(&str, &str, &str, &str)]) -> Self {
        let relation = relation.into();
        for (lr, la, rr, ra) in on {
            self.joins.push(JoinCond {
                left_rel: (*lr).to_owned(),
                left_attr: (*la).to_owned(),
                right_rel: (*rr).to_owned(),
                right_attr: (*ra).to_owned(),
            });
        }
        self.relations.push(relation);
        self
    }

    /// Add a selection.
    pub fn select(mut self, pred: Expr) -> Self {
        self.selection = self.selection.and_also(pred);
        self
    }

    /// Project a column (alias defaults to the attribute name).
    pub fn column(mut self, relation: &str, attr: &str) -> Self {
        self.columns.push(ViewColumn {
            relation: relation.to_owned(),
            attr: attr.to_owned(),
            alias: attr.to_owned(),
        });
        self
    }

    /// Project a column under an alias.
    pub fn column_as(mut self, relation: &str, attr: &str, alias: &str) -> Self {
        self.columns.push(ViewColumn {
            relation: relation.to_owned(),
            attr: attr.to_owned(),
            alias: alias.to_owned(),
        });
        self
    }

    /// Validate the definition against a catalog: relations exist, joined
    /// attributes exist with matching types, and every projected column
    /// resolves.
    pub fn validate(&self, catalog: &DatabaseSchema) -> Result<()> {
        if self.relations.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "view {} has no relations",
                self.name
            )));
        }
        for r in &self.relations {
            catalog.relation(r)?;
        }
        for j in &self.joins {
            let l = catalog.relation(&j.left_rel)?.attribute(&j.left_attr)?;
            let r = catalog.relation(&j.right_rel)?.attribute(&j.right_attr)?;
            if l.ty != r.ty {
                return Err(Error::InvalidSchema(format!(
                    "view {}: join {}.{} = {}.{} has mismatched types",
                    self.name, j.left_rel, j.left_attr, j.right_rel, j.right_attr
                )));
            }
        }
        if self.columns.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "view {} projects no columns",
                self.name
            )));
        }
        for c in &self.columns {
            if !self.relations.contains(&c.relation) {
                return Err(Error::InvalidSchema(format!(
                    "view {}: column {}.{} references a relation outside the view",
                    self.name, c.relation, c.attr
                )));
            }
            catalog.relation(&c.relation)?.attribute(&c.attr)?;
        }
        Ok(())
    }

    /// Compile to a relational plan.
    pub fn plan(&self) -> Plan {
        let mut plan = Plan::scan(self.relations[0].clone());
        for (i, rel) in self.relations.iter().enumerate().skip(1) {
            let on: Vec<(String, String)> = self
                .joins
                .iter()
                .filter(|j| j.right_rel == *rel && self.relations[..i].contains(&j.left_rel))
                .map(|j| {
                    (
                        format!("{}.{}", j.left_rel, j.left_attr),
                        format!("{}.{}", j.right_rel, j.right_attr),
                    )
                })
                .collect();
            plan = plan.join(Plan::scan(rel.clone()), on);
        }
        if self.selection != Expr::True {
            plan = plan.select(self.selection.clone());
        }
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("{}.{}", c.relation, c.attr))
            .collect();
        let mut plan = plan.project(cols);
        let renames: Vec<(String, String)> = self
            .columns
            .iter()
            .map(|c| (format!("{}.{}", c.relation, c.attr), c.alias.clone()))
            .collect();
        plan = plan.rename(renames);
        plan
    }

    /// Evaluate against a database.
    pub fn evaluate(&self, db: &Database) -> Result<ResultSet> {
        db.execute(&self.plan())
    }

    /// Index of the view column with `alias`.
    pub fn column_index(&self, alias: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.alias == alias)
            .ok_or_else(|| Error::NoSuchAttribute {
                relation: self.name.clone(),
                attribute: alias.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::university_database;

    /// The flat counterpart of the paper's ω: course × department × grades.
    pub fn course_view() -> SpjView {
        SpjView::new("course_flat", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .join("GRADES", &[("COURSES", "course_id", "GRADES", "course_id")])
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department")
            .column("GRADES", "ssn")
            .column("GRADES", "grade")
    }

    #[test]
    fn validates_and_evaluates() {
        let (schema, db) = university_database();
        let v = course_view();
        v.validate(schema.catalog()).unwrap();
        let rs = v.evaluate(&db).unwrap();
        assert_eq!(
            rs.columns,
            vec!["course_id", "title", "department", "ssn", "grade"]
        );
        assert_eq!(rs.len(), 17); // one row per grade
    }

    #[test]
    fn selection_filters() {
        let (_, db) = university_database();
        let v = course_view().select(Expr::attr("COURSES.level").eq(Expr::lit("graduate")));
        let rs = v.evaluate(&db).unwrap();
        assert_eq!(rs.len(), 9); // CS345 (3) + EE282 (6)
    }

    #[test]
    fn rejects_unknown_relation() {
        let (schema, _) = university_database();
        let v = SpjView::new("bad", "NOPE").column("NOPE", "x");
        assert!(v.validate(schema.catalog()).is_err());
    }

    #[test]
    fn rejects_mismatched_join_types() {
        let (schema, _) = university_database();
        let v = SpjView::new("bad", "COURSES")
            .join("GRADES", &[("COURSES", "course_id", "GRADES", "ssn")])
            .column("COURSES", "course_id");
        assert!(v.validate(schema.catalog()).is_err());
    }

    #[test]
    fn rejects_column_outside_view() {
        let (schema, _) = university_database();
        let v = SpjView::new("bad", "COURSES").column("GRADES", "grade");
        assert!(v.validate(schema.catalog()).is_err());
    }

    #[test]
    fn column_lookup() {
        let v = course_view();
        assert_eq!(v.column_index("department").unwrap(), 2);
        assert!(v.column_index("nope").is_err());
    }
}
