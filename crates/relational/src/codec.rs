//! JSON codecs for the persistable relational types: [`JsonCodec`] impls
//! over the shared combinators in [`crate::json`].
//!
//! Decoding re-validates everything it can locally: schemas via
//! [`RelationSchema::new`], and a snapshot's rows against the schema they
//! are stored under, each as it is read. A [`DbOp`] or a delta's rows are
//! validated against the live schema when they are applied.

use crate::database::DbOp;
use crate::error::{Error, Result};
use crate::json::{
    json_enum, json_struct, missing_field, required, write_list, write_list_with, Deferred,
    JsonCodec, Kind, ObjectWriter, Reader, Scalar,
};
use crate::schema::{AttributeDef, RelationSchema};
use crate::storage::{DatabaseSnapshot, RelationDelta, RelationSnapshot, SnapshotDelta};
use crate::table::KeyOrder;
use crate::tuple::{Key, Tuple};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::cell::RefCell;

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
            Value::Text(s) => Scalar::Str(s.as_str()).write(out),
        }
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        if r.kind()? != Kind::Obj {
            return bare_value(r.scalar()?);
        }
        // the `float` entry wherever it stands
        let mut float = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            if key == "float" {
                float = Some(wrapped_float(r.scalar()?)?);
            } else {
                r.skip_value()?;
            }
        }
        Ok(required(float, "float")?)
    }
}

/// The value a scalar outside any wrapper stands for.
fn bare_value(scalar: Scalar<'_>) -> Result<Value> {
    match scalar {
        Scalar::Null => Ok(Value::Null),
        Scalar::Bool(b) => Ok(Value::Bool(b)),
        Scalar::Int(i) => Ok(Value::Int(i)),
        // straight from the text's slice: a short text is copied in place,
        // a long one is its one allocation
        Scalar::Str(s) => Ok(Value::text(s)),
        Scalar::Float(_) => Err(Error::Serialization(
            "bare float: expected {\"float\": …} wrapper".into(),
        )),
    }
}

/// The float inside a `{"float": …}` wrapper.
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

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.str("name", self.name());
        write_list(self.attributes(), o.key("attributes"));
        write_list_with(self.key_names(), o.key("key"), |name, out| {
            Scalar::Str(name).write(out)
        });
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let (name, attributes, key): (String, _, Vec<String>) =
            json_struct!(@read r, (name, attributes, key));
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        RelationSchema::new(name, attributes, &key)
    }
}

/// A JSON array of values, read as one allocation: the values go into a
/// buffer each thread reuses, and the tuple is allocated once, at its
/// size. No schema validation here — a snapshot's rows are validated as
/// its decoder reads them, and replaying a [`DbOp`] through
/// [`crate::database::Database::apply`] validates against the live schema.
impl JsonCodec for Tuple {
    type Error = Error;

    fn write_json(&self, out: &mut String) {
        write_list(self.values(), out);
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        thread_local! {
            static VALUES: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
        }
        VALUES.with_borrow_mut(|values| {
            values.clear();
            r.begin_array()?;
            while r.next_element()? {
                values.push(Value::read_json(r)?);
            }
            Ok(Tuple::raw_from(values))
        })
    }
}

impl JsonCodec for Key {
    type Error = Error;

    fn write_json(&self, out: &mut String) {
        write_list(self.values(), out);
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        Vec::read_json(r).map(Key::new)
    }
}

/// The payload format of `vo-store` WAL commit records, tagged by an
/// `"op"` discriminant that the writer puts first.
impl JsonCodec for DbOp {
    type Error = Error;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        let op = match self {
            DbOp::Insert { .. } => "insert",
            DbOp::Delete { .. } => "delete",
            DbOp::Replace { .. } => "replace",
        };
        o.str("op", op);
        o.str("relation", self.relation());
        match self {
            DbOp::Insert { tuple, .. } => o.entry("tuple", tuple),
            DbOp::Delete { key, .. } => o.entry("key", key),
            DbOp::Replace { old_key, tuple, .. } => {
                o.entry("old_key", old_key);
                o.entry("tuple", tuple);
            }
        }
        o.finish();
    }

    /// The entries an op of its kind holds are read, any other passed
    /// over; those before `op` are read once it has been.
    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let mut op = OpEntries::default();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            op.entry(key, r)?;
        }
        let relation = required(op.relation, "relation")?;
        match op.op.as_deref() {
            Some("insert") => Ok(DbOp::Insert {
                relation,
                tuple: required(op.tuple, "tuple")?,
            }),
            Some("delete") => Ok(DbOp::Delete {
                relation,
                key: required(op.key, "key")?,
            }),
            Some("replace") => Ok(DbOp::Replace {
                relation,
                old_key: required(op.old_key, "old_key")?,
                tuple: required(op.tuple, "tuple")?,
            }),
            Some(other) => Err(Error::Serialization(format!("unknown db op `{other}`"))),
            None => Err(missing_field("op").into()),
        }
    }
}

/// The entries of a [`DbOp`] read so far.
#[derive(Default)]
struct OpEntries<'a> {
    op: Option<Cow<'a, str>>,
    early: Deferred<'a>,
    relation: Option<String>,
    tuple: Option<Tuple>,
    key: Option<Key>,
    old_key: Option<Key>,
}

impl<'a> OpEntries<'a> {
    fn entry(&mut self, entry: Cow<'a, str>, r: &mut Reader<'a>) -> Result<()> {
        let Some(op) = self.op.as_deref() else {
            if entry != "op" {
                return Ok(self.early.keep(entry, r)?);
            }
            self.op = Some(r.string()?);
            return std::mem::take(&mut self.early).replay(|entry, r| self.entry(entry, r));
        };
        match (op, &*entry) {
            (_, "relation") => self.relation = Some(String::read_json(r)?),
            ("insert" | "replace", "tuple") => self.tuple = Some(Tuple::read_json(r)?),
            ("delete", "key") => self.key = Some(Key::read_json(r)?),
            ("replace", "old_key") => self.old_key = Some(Key::read_json(r)?),
            _ => r.skip_value()?,
        }
        Ok(())
    }
}

/// The one snapshot decoder: each row is checked against the schema and
/// keyed as it is read. Rows that come before their schema are kept as
/// their checked text ([`Deferred`], as a [`DbOp`]'s early entries are) and
/// read once the schema has been.
impl JsonCodec for RelationSnapshot {
    type Error = Error;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.entry("schema", &self.schema);
        write_list(self.rows(), o.key("rows"));
        o.entry("indexes", &self.indexes);
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let (mut schema, mut rows, mut indexes) = (None, None, None);
        let mut early = Deferred::default();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match (&*key, &schema) {
                ("schema", _) => {
                    let schema = schema.insert(RelationSchema::read_json(r)?);
                    std::mem::take(&mut early).replay(|_, r| {
                        rows = Some(keyed_rows(r, schema)?);
                        Ok::<_, Error>(())
                    })?;
                }
                ("rows", Some(schema)) => rows = Some(keyed_rows(r, schema)?),
                ("rows", None) => early.keep(key, r)?,
                ("indexes", _) => indexes = Some(JsonCodec::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        Ok(RelationSnapshot {
            schema: required(schema, "schema")?,
            rows: required(rows, "rows")?,
            indexes: required(indexes, "indexes")?,
        })
    }
}

/// A relation's rows under `schema`, each validated as it is read, in
/// strict key order, compared at the key positions. The writer writes key
/// order; rows in any other are sorted, and a key held twice is refused as
/// [`crate::table::Table::insert`] refuses it.
fn keyed_rows(r: &mut Reader<'_>, schema: &RelationSchema) -> Result<Vec<Tuple>> {
    let order = KeyOrder::of(schema);
    let mut rows: Vec<Tuple> = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        let tuple = Tuple::read_json(r)?;
        tuple.validate(schema)?;
        rows.push(tuple);
    }
    if !rows.is_sorted_by(|a, b| order.rows(a, b).is_lt()) {
        rows.sort_by(|a, b| order.rows(a, b));
        if let Some(pair) = rows
            .windows(2)
            .find(|pair| order.rows(&pair[0], &pair[1]).is_eq())
        {
            return Err(Error::KeyConflict {
                relation: schema.name().to_owned(),
                key: pair[0].key(schema).to_string(),
            });
        }
    }
    Ok(rows)
}

// Read from a checkpoint's text, the rows of each relation become valid,
// keyed tuples one at a time — the recovery decode path, and all that
// `DatabaseSnapshot::restore` installs. `version` is the pinned version, so
// MVCC stamps survive checkpoint/recovery.
json_struct!(DatabaseSnapshot { relations, version }, Error);

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
    use crate::json::{assert_roundtrip, decode};

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
        let old = r#"{"float": 1000000000000000}"#;
        assert_eq!(decode::<Value>(old).unwrap(), Value::Float(1e15));
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
        let text = r#"{"name": "X", "attributes": [{"name": "a", "ty": "INT", "nullable": true}], "key": ["a"]}"#;
        // nullable key attribute must be rejected by re-validation
        assert!(decode::<RelationSchema>(text).is_err());
    }

    #[test]
    fn unknown_db_op_rejected() {
        for bad in [
            r#"{"op": "upsert", "relation": "T"}"#,
            r#"{"relation": "T", "op": "upsert"}"#,
            r#"{"relation": "T", "key": [1]}"#,
        ] {
            assert!(matches!(decode::<DbOp>(bad), Err(Error::Serialization(_))));
        }
        // entries before the discriminant are read once it is known
        let late = r#"{"key":[1],"relation":"T","tuple":"not a tuple","op":"delete"}"#;
        assert_eq!(
            decode::<DbOp>(late).unwrap(),
            DbOp::Delete {
                relation: "T".into(),
                key: Key::single(1),
            }
        );
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

    #[test]
    fn snapshot_rows_are_validated_and_keyed_as_they_are_read() {
        let schema = encode_schema();
        let doc = |rows: &str| format!(r#"{{"schema":{schema},"rows":[{rows}],"indexes":[]}}"#);
        let rows = |snap: &RelationSnapshot| snap.rows().cloned().collect::<Vec<_>>();
        let written = decode::<RelationSnapshot>(&doc(r#"[1,"a"],[2,null]"#)).unwrap();
        // rows before their schema are read once it has been
        let early = format!(r#"{{"rows":[[2,null],[1,"a"]],"indexes":[],"schema":{schema}}}"#);
        let early = decode::<RelationSnapshot>(&early).unwrap();
        assert_eq!(early, written, "and put in key order");
        assert_eq!(rows(&early)[0].get(0), &Value::Int(1));
        for bad in [r#"[1,"a"],[1,"b"]"#, r#"["a",1]"#, r#"[null,"a"]"#, "[1]"] {
            assert!(decode::<RelationSnapshot>(&doc(bad)).is_err(), "{bad}");
        }
    }

    fn encode_schema() -> String {
        crate::json::encode(
            &RelationSchema::new(
                "T",
                vec![
                    AttributeDef::required("k", DataType::Int),
                    AttributeDef::nullable("v", DataType::Text),
                ],
                &["k"],
            )
            .unwrap(),
        )
    }
}
