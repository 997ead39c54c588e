//! JSON codecs for the persistable relational types: [`JsonCodec`] impls
//! over the shared combinators in [`crate::json`].
//!
//! Decoding re-validates everything it can locally (schemas via
//! [`RelationSchema::new`]), while tuple-level validation happens when a
//! snapshot is restored into a database.

use crate::database::DbOp;
use crate::error::{Error, Result};
use crate::json::{
    json_enum, json_struct, missing_field, write_list, Json, JsonCodec, Kind, Reader, Scalar,
};
use crate::schema::{AttributeDef, RelationSchema};
use crate::storage::{DatabaseSnapshot, RelationDelta, RelationSnapshot, SnapshotDelta};
use crate::tuple::{Key, Tuple};
use crate::value::{DataType, Value};

json_enum!(
    DataType { Int => "INT", Float => "FLOAT", Text => "TEXT", Bool => "BOOL" },
    Error,
    "data type"
);

/// NULL, booleans, integers and text map onto the corresponding JSON
/// scalars; floats are wrapped in `{"float": …}` so that `Text("1.5")` and
/// `Float(1.5)` stay distinguishable and non-finite floats (encoded as
/// tagged strings) cannot collide with text values.
impl JsonCodec for Value {
    type Error = Error;

    fn to_json(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Int(i) => Json::Int(*i),
            Value::Float(x) => Json::obj(vec![("float", Json::Float(*x))]),
            Value::Text(s) => Json::str(&**s),
        }
    }

    fn from_json(json: &Json) -> Result<Self> {
        match json {
            Json::Obj(_) => wrapped_float(json.field("float")?.scalar()?),
            other => bare_value(other.scalar()?),
        }
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        if r.kind()? != Kind::Obj {
            return bare_value(r.scalar()?);
        }
        // the `float` entry wherever it stands, as `Json::field` finds it
        let mut float = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            if key == "float" {
                float = Some(wrapped_float(r.scalar()?)?);
            } else {
                r.skip_value()?;
            }
        }
        float.ok_or_else(|| missing_field("float").into())
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => Scalar::Null.write(out),
            Value::Bool(b) => Scalar::Bool(*b).write(out),
            Value::Int(i) => Scalar::Int(*i).write(out),
            Value::Float(x) => {
                out.push_str("{\"float\":");
                Scalar::Float(*x).write(out);
                out.push('}');
            }
            Value::Text(s) => Scalar::Str(s).write(out),
        }
    }
}

/// The value a scalar outside any wrapper stands for, whichever source
/// it was read from.
fn bare_value(scalar: Scalar<'_>) -> Result<Value> {
    match scalar {
        Scalar::Null => Ok(Value::Null),
        Scalar::Bool(b) => Ok(Value::Bool(b)),
        Scalar::Int(i) => Ok(Value::Int(i)),
        // straight from the source's slice: one allocation per text value
        Scalar::Str(s) => Ok(Value::text(s)),
        Scalar::Float(_) => Err(Error::Serialization(
            "bare float: expected {\"float\": …} wrapper".into(),
        )),
    }
}

/// The float inside a `{"float": …}` wrapper, whichever source it was
/// read from.
fn wrapped_float(scalar: Scalar<'_>) -> Result<Value> {
    let x = match scalar {
        Scalar::Str(s) => match s {
            "NaN" => f64::NAN,
            "inf" => f64::INFINITY,
            "-inf" => f64::NEG_INFINITY,
            other => {
                return Err(Error::Serialization(format!(
                    "invalid float literal `{other}`"
                )))
            }
        },
        Scalar::Float(x) => x,
        // the bare digit strings older builds wrote for integral floats
        // from 1e15 up
        Scalar::Int(i) => i as f64,
        other => {
            return Err(Error::Serialization(format!(
                "expected number, got {}",
                other.kind()
            )))
        }
    };
    Ok(Value::Float(x))
}

json_struct!(AttributeDef { name, ty, nullable }, Error);

/// The key is stored as attribute names; decoding re-runs full schema
/// validation.
impl JsonCodec for RelationSchema {
    type Error = Error;

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name())),
            ("attributes", Json::list(self.attributes())),
            (
                "key",
                Json::Arr(self.key_names().into_iter().map(Json::str).collect()),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<Self> {
        let key: Vec<String> = json.get("key")?;
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        RelationSchema::new(json.get::<String>("name")?, json.get("attributes")?, &key)
    }
}

/// A JSON array of values. No schema validation here — snapshots
/// re-validate every tuple on restore, and replaying a [`DbOp`] through
/// [`crate::database::Database::apply`] validates against the live schema.
impl JsonCodec for Tuple {
    type Error = Error;

    fn to_json(&self) -> Json {
        Json::list(self.values())
    }

    fn from_json(json: &Json) -> Result<Self> {
        Vec::from_json(json).map(Tuple::raw)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        Vec::read_json(r).map(Tuple::raw)
    }

    fn write_json(&self, out: &mut String) {
        write_list(self.values(), out);
    }
}

impl JsonCodec for Key {
    type Error = Error;

    fn to_json(&self) -> Json {
        Json::list(self.values())
    }

    fn from_json(json: &Json) -> Result<Self> {
        Vec::from_json(json).map(Key::new)
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        Vec::read_json(r).map(Key::new)
    }
}

/// The payload format of `vo-store` WAL commit records, tagged by an
/// `"op"` discriminant.
impl JsonCodec for DbOp {
    type Error = Error;

    fn to_json(&self) -> Json {
        match self {
            DbOp::Insert { relation, tuple } => Json::obj(vec![
                ("op", Json::str("insert")),
                ("relation", relation.to_json()),
                ("tuple", tuple.to_json()),
            ]),
            DbOp::Delete { relation, key } => Json::obj(vec![
                ("op", Json::str("delete")),
                ("relation", relation.to_json()),
                ("key", key.to_json()),
            ]),
            DbOp::Replace {
                relation,
                old_key,
                tuple,
            } => Json::obj(vec![
                ("op", Json::str("replace")),
                ("relation", relation.to_json()),
                ("old_key", old_key.to_json()),
                ("tuple", tuple.to_json()),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<Self> {
        let relation = json.get("relation")?;
        match json.field("op")?.as_str()? {
            "insert" => Ok(DbOp::Insert {
                relation,
                tuple: json.get("tuple")?,
            }),
            "delete" => Ok(DbOp::Delete {
                relation,
                key: json.get("key")?,
            }),
            "replace" => Ok(DbOp::Replace {
                relation,
                old_key: json.get("old_key")?,
                tuple: json.get("tuple")?,
            }),
            other => Err(Error::Serialization(format!("unknown db op `{other}`"))),
        }
    }

    /// Streams when the discriminant comes first, as [`DbOp::to_json`]
    /// writes it — the entries an op of that kind holds are then read in
    /// place and any other passed over; an object in another order is
    /// decoded through its tree.
    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        r.begin_object()?;
        let Some(first) = r.next_key()? else {
            return Err(missing_field("relation").into());
        };
        if first != "op" {
            let mut pairs = vec![(first.into_owned(), r.value()?)];
            while let Some(key) = r.next_key()? {
                pairs.push((key.into_owned(), r.value()?));
            }
            return DbOp::from_json(&Json::Obj(pairs));
        }
        let op = r.string()?;
        let (mut relation, mut tuple, mut key, mut old_key) = (None, None, None, None);
        while let Some(entry) = r.next_key()? {
            match (&*op, &*entry) {
                (_, "relation") => relation = Some(String::read_json(r)?),
                ("insert" | "replace", "tuple") => tuple = Some(Tuple::read_json(r)?),
                ("delete", "key") => key = Some(Key::read_json(r)?),
                ("replace", "old_key") => old_key = Some(Key::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let relation = relation.ok_or_else(|| missing_field("relation"))?;
        match &*op {
            "insert" => Ok(DbOp::Insert {
                relation,
                tuple: tuple.ok_or_else(|| missing_field("tuple"))?,
            }),
            "delete" => Ok(DbOp::Delete {
                relation,
                key: key.ok_or_else(|| missing_field("key"))?,
            }),
            "replace" => Ok(DbOp::Replace {
                relation,
                old_key: old_key.ok_or_else(|| missing_field("old_key"))?,
                tuple: tuple.ok_or_else(|| missing_field("tuple"))?,
            }),
            other => Err(Error::Serialization(format!("unknown db op `{other}`"))),
        }
    }
}

impl RelationSnapshot {
    /// The document shape, with the `rows` value supplied by the caller:
    /// the encoded rows for [`JsonCodec::to_json`], a placeholder for
    /// [`DatabaseSnapshot::encode_compact`] to fill piecewise.
    pub(crate) fn doc(&self, rows: Json) -> Json {
        Json::obj(vec![
            ("schema", self.schema.to_json()),
            ("rows", rows),
            ("indexes", self.indexes.to_json()),
        ])
    }
}

impl JsonCodec for RelationSnapshot {
    type Error = Error;

    fn to_json(&self) -> Json {
        self.doc(Json::list(&self.rows))
    }

    fn from_json(json: &Json) -> Result<Self> {
        Ok(json_struct!(@from json, RelationSnapshot { schema, rows, indexes }))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        Ok(json_struct!(@read r, RelationSnapshot { schema, rows, indexes }))
    }
}

impl DatabaseSnapshot {
    /// The document shape around a caller-supplied `relations` value (see
    /// [`RelationSnapshot::doc`]). The pinned version is carried alongside
    /// the relations so MVCC stamps survive checkpoint/recovery.
    pub(crate) fn doc(&self, relations: Json) -> Json {
        Json::obj(vec![
            ("relations", relations),
            ("version", self.version.to_json()),
        ])
    }
}

/// Read from a checkpoint's text ([`JsonCodec::read_json`]), the rows of
/// each relation become tuples one at a time — the recovery decode path.
impl JsonCodec for DatabaseSnapshot {
    type Error = Error;

    fn to_json(&self) -> Json {
        self.doc(self.relations.to_json())
    }

    fn from_json(json: &Json) -> Result<Self> {
        Ok(json_struct!(@from json, DatabaseSnapshot { relations, version }))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        Ok(json_struct!(@read r, DatabaseSnapshot { relations, version }))
    }
}

json_struct!(
    RelationDelta {
        relation,
        upserts,
        deletes
    },
    Error
);

// The payload format of `vo-store` incremental checkpoint artifacts.
json_struct!(SnapshotDelta { relations, version }, Error);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::json::{assert_roundtrip, parse};

    #[test]
    fn values_roundtrip() {
        // byte-identical re-encoding means same discriminant too: NaN vs
        // text "NaN", Int(2) vs Float(2.0)
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Float(2.0),
            Value::Float(-0.125),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1e19),
            Value::Float(-1e19),
            Value::Float(f64::MAX),
            Value::Float(f64::MIN_POSITIVE),
            Value::text("NaN"),
            Value::text("line\nbreak"),
        ] {
            assert_roundtrip(&v);
        }
    }

    #[test]
    fn old_digit_string_floats_still_decode() {
        // what builds before the exponent form wrote for integral floats
        // from 1e15 up: read back as Int by the parser, widened here
        let old = parse(r#"{"float": 1000000000000000}"#).unwrap();
        assert_eq!(Value::from_json(&old).unwrap(), Value::Float(1e15));
    }

    fn grades_schema() -> RelationSchema {
        RelationSchema::new(
            "GRADES",
            vec![
                AttributeDef::required("course_id", DataType::Text),
                AttributeDef::required("ssn", DataType::Int),
                AttributeDef::nullable("grade", DataType::Text),
            ],
            &["course_id", "ssn"],
        )
        .unwrap()
    }

    #[test]
    fn schema_and_ops_roundtrip() {
        assert_roundtrip(&grades_schema());
        for op in [
            DbOp::Insert {
                relation: "T".into(),
                tuple: Tuple::raw(vec![1.into(), Value::Null, "x".into()]),
            },
            DbOp::Delete {
                relation: "T".into(),
                key: Key::new(vec![1.into(), "a".into()]),
            },
            DbOp::Replace {
                relation: "T".into(),
                old_key: Key::single(2),
                tuple: Tuple::raw(vec![3.into(), 0.5.into()]),
            },
        ] {
            assert_roundtrip(&op);
        }
    }

    #[test]
    fn tampered_schema_rejected() {
        let json = parse(
            r#"{"name": "X", "attributes": [{"name": "a", "ty": "INT", "nullable": true}], "key": ["a"]}"#,
        )
        .unwrap();
        // nullable key attribute must be rejected by re-validation
        assert!(RelationSchema::from_json(&json).is_err());
    }

    #[test]
    fn unknown_db_op_rejected() {
        let bad = parse(r#"{"op": "upsert", "relation": "T"}"#).unwrap();
        assert!(DbOp::from_json(&bad).is_err());
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::new(
                "T",
                vec![
                    AttributeDef::required("k", DataType::Int),
                    AttributeDef::nullable("v", DataType::Float),
                ],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("T", vec![1.into(), 1.5.into()]).unwrap();
        db.insert("T", vec![2.into(), Value::Null]).unwrap();
        let mut snap = DatabaseSnapshot::capture(&db);
        snap.relations[0].indexes = vec![vec!["v".into()]];
        assert_roundtrip(&snap);
        let restored = snap.restore().unwrap();
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
    }
}
