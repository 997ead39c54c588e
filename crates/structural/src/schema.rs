//! The structural schema: a directed graph whose vertices are relations
//! and whose edges are typed connections (paper §2).

use crate::connection::{Connection, ConnectionKind};
use vo_relational::prelude::*;

/// A traversal step over a connection, in either the stored (forward)
/// direction or the inverse direction (`C⁻¹` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal<'a> {
    /// The underlying connection.
    pub connection: &'a Connection,
    /// True when traversing `from → to`; false for the inverse.
    pub forward: bool,
}

impl<'a> Traversal<'a> {
    /// The relation this step starts at.
    pub fn source(&self) -> &'a str {
        if self.forward {
            &self.connection.from
        } else {
            &self.connection.to
        }
    }

    /// The relation this step arrives at.
    pub fn target(&self) -> &'a str {
        if self.forward {
            &self.connection.to
        } else {
            &self.connection.from
        }
    }

    /// Connecting attributes on the source side.
    pub fn source_attrs(&self) -> &'a [String] {
        if self.forward {
            &self.connection.from_attrs
        } else {
            &self.connection.to_attrs
        }
    }

    /// Connecting attributes on the target side.
    pub fn target_attrs(&self) -> &'a [String] {
        if self.forward {
            &self.connection.to_attrs
        } else {
            &self.connection.from_attrs
        }
    }

    /// Human-readable label, e.g. `GRADES *— STUDENT` for an inverse
    /// ownership step.
    pub fn label(&self) -> String {
        if self.forward {
            format!(
                "{} {} {}",
                self.source(),
                self.connection.symbol(),
                self.target()
            )
        } else {
            let sym = match self.connection.kind {
                ConnectionKind::Ownership => "*—",
                ConnectionKind::Reference => "<—",
                ConnectionKind::Subset => "⊂—",
            };
            format!("{} {} {}", self.source(), sym, self.target())
        }
    }
}

/// A validated structural schema: catalog + connections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructuralSchema {
    catalog: DatabaseSchema,
    connections: Vec<Connection>,
}

impl StructuralSchema {
    /// Build from a catalog with no connections yet.
    pub fn new(catalog: DatabaseSchema) -> Self {
        StructuralSchema {
            catalog,
            connections: Vec::new(),
        }
    }

    /// The relation catalog.
    pub fn catalog(&self) -> &DatabaseSchema {
        &self.catalog
    }

    /// All connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Add a connection after validating it against the catalog; also
    /// rejects duplicate connection names.
    pub fn add_connection(&mut self, connection: Connection) -> Result<()> {
        connection.validate(&self.catalog)?;
        if self.connections.iter().any(|c| c.name == connection.name) {
            return Err(Error::InvalidSchema(format!(
                "duplicate connection name {}",
                connection.name
            )));
        }
        self.connections.push(connection);
        Ok(())
    }

    /// Look up a connection by name.
    pub fn connection(&self, name: &str) -> Result<&Connection> {
        self.connections
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| Error::InvalidSchema(format!("no connection named {name}")))
    }

    /// Connections leaving `relation` (stored direction).
    pub fn outgoing(&self, relation: &str) -> Vec<&Connection> {
        self.connections
            .iter()
            .filter(|c| c.from == relation)
            .collect()
    }

    /// Connections arriving at `relation` (stored direction).
    pub fn incoming(&self, relation: &str) -> Vec<&Connection> {
        self.connections
            .iter()
            .filter(|c| c.to == relation)
            .collect()
    }

    /// All traversal steps available from `relation`, in both directions.
    /// This realizes the paper's rule that every connection `C` has an
    /// inverse `C⁻¹`.
    pub fn traversals_from(&self, relation: &str) -> Vec<Traversal<'_>> {
        let mut out = Vec::new();
        for c in &self.connections {
            if c.from == relation {
                out.push(Traversal {
                    connection: c,
                    forward: true,
                });
            }
            if c.to == relation {
                out.push(Traversal {
                    connection: c,
                    forward: false,
                });
            }
        }
        out
    }

    /// Relations owned (directly) by `relation` plus subset specializations
    /// — the targets that deletions must cascade to.
    pub fn dependents_of(&self, relation: &str) -> Vec<&Connection> {
        self.outgoing(relation)
            .into_iter()
            .filter(|c| matches!(c.kind, ConnectionKind::Ownership | ConnectionKind::Subset))
            .collect()
    }

    /// Reference connections whose *target* is `relation` — the referencing
    /// relations that must be repaired when `relation` tuples are deleted
    /// or re-keyed.
    pub fn referencers_of(&self, relation: &str) -> Vec<&Connection> {
        self.incoming(relation)
            .into_iter()
            .filter(|c| c.kind == ConnectionKind::Reference)
            .collect()
    }

    /// Connections along which `relation` *depends on* another relation:
    /// inverse ownership (owner must exist), inverse subset (general entity
    /// must exist), and forward reference (referenced tuple must exist).
    pub fn dependencies_of(&self, relation: &str) -> Vec<Traversal<'_>> {
        let mut out = Vec::new();
        for c in &self.connections {
            match c.kind {
                ConnectionKind::Ownership | ConnectionKind::Subset => {
                    if c.to == relation {
                        out.push(Traversal {
                            connection: c,
                            forward: false,
                        });
                    }
                }
                ConnectionKind::Reference => {
                    if c.from == relation {
                        out.push(Traversal {
                            connection: c,
                            forward: true,
                        });
                    }
                }
            }
        }
        out
    }

    /// True when the *undirected* connection graph contains a cycle that is
    /// reachable from `start`. The paper's tree-generation step must break
    /// such circuits (Figure 2b).
    pub fn has_circuit_from(&self, start: &str) -> bool {
        // undirected DFS tracking the edge used to enter each vertex
        let mut visited: std::collections::BTreeSet<&str> = Default::default();
        let mut stack: Vec<(&str, Option<&str>)> = vec![(start, None)];
        let mut parent_edge: std::collections::BTreeMap<&str, &str> = Default::default();
        while let Some((rel, via)) = stack.pop() {
            if !visited.insert(rel) {
                continue;
            }
            if let Some(e) = via {
                parent_edge.insert(rel, e);
            }
            for t in self.traversals_from(rel) {
                let next = t.target();
                let edge = t.connection.name.as_str();
                if Some(&edge) == parent_edge.get(rel) {
                    continue; // don't go straight back over the same edge
                }
                if visited.contains(next) {
                    return true;
                }
                stack.push((next, Some(edge)));
            }
        }
        false
    }

    /// Render the schema as a sorted list of `R1 sym R2` lines — the
    /// textual equivalent of the paper's Figure 1.
    pub fn to_graph_string(&self) -> String {
        let mut lines: Vec<String> = self.connections.iter().map(|c| c.to_string()).collect();
        lines.sort();
        let mut out = String::new();
        out.push_str("relations:\n");
        for r in self.catalog.relation_names() {
            let schema = self.catalog.relation(r).expect("listed");
            let attrs: Vec<String> = schema
                .attributes()
                .iter()
                .map(|a| {
                    if schema.is_key_attribute(&a.name) {
                        format!("{}*", a.name)
                    } else {
                        a.name.clone()
                    }
                })
                .collect();
            out.push_str(&format!("  {r}({})\n", attrs.join(", ")));
        }
        out.push_str("connections:\n");
        for l in lines {
            out.push_str("  ");
            out.push_str(&l);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal 4-relation schema: A —* B, B —> C, A —⊃ D.
    fn schema() -> StructuralSchema {
        let mut cat = DatabaseSchema::new();
        cat.add(
            RelationSchema::new(
                "A",
                vec![AttributeDef::required("a", DataType::Int)],
                &["a"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "B",
                vec![
                    AttributeDef::required("a", DataType::Int),
                    AttributeDef::required("b", DataType::Int),
                    AttributeDef::nullable("c", DataType::Int),
                ],
                &["a", "b"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "C",
                vec![AttributeDef::required("c", DataType::Int)],
                &["c"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "D",
                vec![AttributeDef::required("a", DataType::Int)],
                &["a"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut s = StructuralSchema::new(cat);
        s.add_connection(Connection::ownership("a_owns_b", "A", &["a"], "B", &["a"]))
            .unwrap();
        s.add_connection(Connection::reference("b_refs_c", "B", &["c"], "C", &["c"]))
            .unwrap();
        s.add_connection(Connection::subset("a_sub_d", "A", &["a"], "D", &["a"]))
            .unwrap();
        s
    }

    #[test]
    fn adjacency() {
        let s = schema();
        assert_eq!(s.outgoing("A").len(), 2);
        assert_eq!(s.incoming("B").len(), 1);
        assert_eq!(s.traversals_from("B").len(), 2); // inverse a_owns_b + forward b_refs_c
        assert_eq!(s.traversals_from("C").len(), 1);
    }

    #[test]
    fn rejects_duplicate_name() {
        let mut s = schema();
        let dup = Connection::ownership("a_owns_b", "A", &["a"], "B", &["a"]);
        assert!(s.add_connection(dup).is_err());
    }

    #[test]
    fn rejects_invalid_connection() {
        let mut s = schema();
        let bad = Connection::ownership("bad", "C", &["c"], "B", &["b", "a"]);
        assert!(s.add_connection(bad).is_err());
    }

    #[test]
    fn traversal_directions() {
        let s = schema();
        let ts = s.traversals_from("B");
        let inv = ts.iter().find(|t| !t.forward).unwrap();
        assert_eq!(inv.source(), "B");
        assert_eq!(inv.target(), "A");
        assert_eq!(inv.source_attrs(), &["a".to_string()]);
        assert!(inv.label().contains("*—"));
        let fwd = ts.iter().find(|t| t.forward).unwrap();
        assert_eq!(fwd.target(), "C");
    }

    #[test]
    fn dependents_and_referencers() {
        let s = schema();
        let deps: Vec<&str> = s.dependents_of("A").iter().map(|c| c.to.as_str()).collect();
        assert_eq!(deps, vec!["B", "D"]);
        let refs: Vec<&str> = s
            .referencers_of("C")
            .iter()
            .map(|c| c.from.as_str())
            .collect();
        assert_eq!(refs, vec!["B"]);
        assert!(s.referencers_of("B").is_empty());
    }

    #[test]
    fn dependencies() {
        let s = schema();
        // B depends on A (owner) and C (referenced)
        let deps: Vec<&str> = s.dependencies_of("B").iter().map(|t| t.target()).collect();
        assert_eq!(deps, vec!["A", "C"]);
        // D depends on A (general entity)
        let deps: Vec<&str> = s.dependencies_of("D").iter().map(|t| t.target()).collect();
        assert_eq!(deps, vec!["A"]);
        // A depends on nothing
        assert!(s.dependencies_of("A").is_empty());
    }

    #[test]
    fn no_circuit_in_tree_schema() {
        let s = schema();
        assert!(!s.has_circuit_from("A"));
    }

    #[test]
    fn circuit_detected() {
        let mut s = schema();
        // close a circuit: D —> C reference
        let mut cat_has = false;
        if s.catalog().contains("C") {
            cat_has = true;
        }
        assert!(cat_has);
        // need an attribute of D with C's key type; reuse key a (Int)
        s.add_connection(Connection::reference("d_refs_c", "D", &["a"], "C", &["c"]))
            .unwrap();
        assert!(s.has_circuit_from("A"));
        assert!(s.has_circuit_from("C"));
    }

    #[test]
    fn graph_string_mentions_all() {
        let s = schema();
        let g = s.to_graph_string();
        assert!(g.contains("A —* B"));
        assert!(g.contains("B —> C"));
        assert!(g.contains("A —⊃ D"));
        assert!(g.contains("B(a*, b*, c)"));
    }

    #[test]
    fn connection_lookup() {
        let s = schema();
        assert!(s.connection("a_owns_b").is_ok());
        assert!(s.connection("nope").is_err());
    }
}
