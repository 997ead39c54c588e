//! JSON codecs for the structural model.
//!
//! Decoding re-validates: connections are re-checked against the decoded
//! catalog through [`StructuralSchema::add_connection`], so a tampered
//! document cannot smuggle in an ill-typed connection.

use crate::connection::{Connection, ConnectionKind};
use crate::schema::StructuralSchema;
use vo_relational::prelude::*;
use vo_relational::schema::RelationSchema;

json_enum!(
    ConnectionKind { Ownership => "ownership", Reference => "reference", Subset => "subset" },
    Error,
    "connection kind"
);

// Structure only — call `Connection::validate` or add through a schema to
// re-check a decoded connection.
json_struct!(
    Connection {
        name,
        kind,
        from,
        to,
        from_attrs,
        to_attrs
    },
    Error
);

/// Decoding re-validates every relation schema and every connection.
impl JsonCodec for StructuralSchema {
    type Error = Error;

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("catalog", Json::list(self.catalog().iter())),
            ("connections", Json::list(self.connections())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self> {
        let mut catalog = DatabaseSchema::new();
        for r in json.get::<Vec<RelationSchema>>("catalog")? {
            catalog.add(r)?;
        }
        let mut schema = StructuralSchema::new(catalog);
        for c in json.get::<Vec<Connection>>("connections")? {
            schema.add_connection(c)?;
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_relational::json::{assert_roundtrip, parse};
    use vo_relational::schema::AttributeDef;

    fn sample() -> StructuralSchema {
        let mut catalog = DatabaseSchema::new();
        catalog
            .add(
                RelationSchema::new(
                    "DEPT",
                    vec![AttributeDef::required("dept", DataType::Text)],
                    &["dept"],
                )
                .unwrap(),
            )
            .unwrap();
        catalog
            .add(
                RelationSchema::new(
                    "COURSE",
                    vec![
                        AttributeDef::required("id", DataType::Text),
                        AttributeDef::required("dept", DataType::Text),
                    ],
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        let mut schema = StructuralSchema::new(catalog);
        schema
            .add_connection(Connection::reference(
                "course_dept",
                "COURSE",
                &["dept"],
                "DEPT",
                &["dept"],
            ))
            .unwrap();
        schema
    }

    #[test]
    fn schema_roundtrip() {
        let schema = sample();
        assert_roundtrip(&schema.connections()[0]);
        assert_roundtrip(&schema);
    }

    #[test]
    fn tampered_connection_rejected() {
        let schema = sample();
        // point the connection at a non-existent relation
        let text = schema
            .to_json()
            .pretty()
            .replace("\"to\": \"DEPT\"", "\"to\": \"NOPE\"");
        assert!(StructuralSchema::from_json(&parse(&text).unwrap()).is_err());
    }
}
