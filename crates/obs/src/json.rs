//! A minimal JSON document model, parser, pretty-printer, and the one
//! codec trait every persisted and wire type implements.
//!
//! The catalog layer persists whole PENGUIN systems (schema + data +
//! objects + translators) as JSON, the store frames WAL records and
//! checkpoints in it, vo-net speaks it on the wire, and the observability
//! layer exports traces, metrics, and profiles through the same document
//! model. Rather than depend on an external serialization framework, the
//! persisted type closure is small enough to hand-code against this
//! document model: [`Json`] is the tree, [`Reader`] pulls values out of
//! a text one at a time and **is** the grammar, [`parse`] builds the tree
//! over it, [`Json::pretty`] renders one with stable, human-diffable
//! formatting, [`Json::compact`] renders a single line (for JSONL
//! streams), and [`JsonCodec`] is how a type maps onto either — with the
//! impls for strings, booleans, integers, lists, options and maps living
//! here, once, and [`json_struct!`](crate::json_struct) /
//! [`json_enum!`](crate::json_enum) for plain structs and tag enums.
//!
//! A type decodes from the tree ([`JsonCodec::from_json`]) or straight
//! from the text ([`JsonCodec::read_json`], [`decode`]): the second never
//! holds more than the value it is building, which is what a store reads
//! its checkpoints and log records through.
//!
//! Integers and floats are kept as distinct variants so `i64` values
//! round-trip exactly; floats print with Rust's shortest-roundtrip
//! formatting, and every finite float prints as a token [`parse`] reads
//! back as [`Json::Float`] with the same bits.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// An error from the JSON layer (parse failure or shape mismatch).
///
/// Deliberately a plain message: callers living in richer error taxonomies
/// convert via their own `From<JsonError>` impls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for the JSON layer.
pub type Result<T> = std::result::Result<T, JsonError>;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// What sort of value a document holds at some position: what
/// [`Reader::kind`] reads off the next byte, and how shape errors name
/// what they found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// An integer or a float.
    Number,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kind::Null => "null",
            Kind::Bool => "bool",
            Kind::Number => "number",
            Kind::Str => "string",
            Kind::Arr => "array",
            Kind::Obj => "object",
        })
    }
}

/// A value that is not a container, borrowed from whichever source holds
/// it — the tree ([`Json::scalar`]) or the text ([`Reader::scalar`]) — so
/// a mapping from JSON scalars is written once and fed by either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(&'a str),
}

impl Scalar<'_> {
    /// The kind of value this is.
    pub fn kind(&self) -> Kind {
        match self {
            Scalar::Null => Kind::Null,
            Scalar::Bool(_) => Kind::Bool,
            Scalar::Int(_) | Scalar::Float(_) => Kind::Number,
            Scalar::Str(_) => Kind::Str,
        }
    }

    /// Append the token [`Json::compact`] writes for this value.
    pub fn write(&self, out: &mut String) {
        match self {
            Scalar::Null => out.push_str("null"),
            Scalar::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Scalar::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Scalar::Float(x) => write_float(out, *x),
            Scalar::Str(s) => write_escaped(out, s),
        }
    }
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a field of an object; error if missing or not an object.
    pub fn field(&self, name: &str) -> Result<&Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| missing_field(name)),
            other => Err(bad(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// The array elements; error for non-arrays.
    pub fn elements(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(expected("array", other.kind())),
        }
    }

    /// The object entries; error for non-objects.
    pub fn entries(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Ok(pairs),
            other => Err(expected("object", other.kind())),
        }
    }

    /// The string payload; error otherwise.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(expected("string", other.kind())),
        }
    }

    /// The integer payload; error otherwise.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(expected("integer", other.kind())),
        }
    }

    /// The integer payload as `u64`; negative integers are an error (the
    /// one place a non-negative integer is enforced on decode).
    pub fn as_u64(&self) -> Result<u64> {
        let i = self.as_i64()?;
        u64::try_from(i).map_err(|_| bad(format!("expected non-negative integer, got {i}")))
    }

    /// `usize` convenience over [`Json::as_u64`].
    pub fn as_usize(&self) -> Result<usize> {
        self.as_u64().and_then(fits_usize)
    }

    /// Decode the field `name` of an object as a `T`.
    pub fn get<T: JsonCodec>(&self, name: &str) -> std::result::Result<T, T::Error> {
        T::from_json(self.field(name)?)
    }

    /// Encode a sequence as a JSON array.
    pub fn list<'a, T: JsonCodec + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
        Json::Arr(items.into_iter().map(T::to_json).collect())
    }

    /// The numeric payload widened to `f64`; error otherwise.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(x) => Ok(*x),
            other => Err(expected("number", other.kind())),
        }
    }

    /// The boolean payload; error otherwise.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(expected("bool", other.kind())),
        }
    }

    /// The scalar this value is; error for arrays and objects.
    #[inline]
    pub fn scalar(&self) -> Result<Scalar<'_>> {
        match self {
            Json::Null => Ok(Scalar::Null),
            Json::Bool(b) => Ok(Scalar::Bool(*b)),
            Json::Int(i) => Ok(Scalar::Int(*i)),
            Json::Float(x) => Ok(Scalar::Float(*x)),
            Json::Str(s) => Ok(Scalar::Str(s)),
            other => Err(expected("scalar value", other.kind())),
        }
    }

    fn kind(&self) -> Kind {
        match self {
            Json::Null => Kind::Null,
            Json::Bool(_) => Kind::Bool,
            Json::Int(_) | Json::Float(_) => Kind::Number,
            Json::Str(_) => Kind::Str,
            Json::Arr(_) => Kind::Arr,
            Json::Obj(_) => Kind::Obj,
        }
    }

    /// Render with two-space indentation and `\n` line endings.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Render on a single line with no insignificant whitespace — the shape
    /// used for JSONL trace exports and per-measurement bench records.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            scalar => scalar.scalar().expect("not a container").write(out),
        }
    }

    /// Append [`Json::compact`] of an object to `out`, except that the
    /// value of field `hole` is written by `fill`. This is how a large
    /// array is rendered piecewise (or by parallel workers) into a
    /// document whose shape is still defined by a single `to_json`.
    pub fn write_compact_with(&self, out: &mut String, hole: &str, fill: impl FnOnce(&mut String)) {
        let Json::Obj(pairs) = self else {
            return self.write_compact(out);
        };
        let mut fill = Some(fill);
        out.push('{');
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, k);
            out.push(':');
            match fill.take_if(|_| k == hole) {
                Some(fill) => fill(out),
                None => v.write_compact(out),
            }
        }
        out.push('}');
    }

    pub(crate) fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.scalar().expect("not a container").write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    // JSON has no literals for non-finite numbers; encode them as tagged
    // strings and let the Value codec recognise them on the way back in.
    if x.is_nan() {
        out.push_str("\"NaN\"");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else if x != x.trunc() {
        // `Display` never uses an exponent, so a fraction prints its `.`.
        let _ = write!(out, "{x}");
    } else if x.abs() < 1e15 {
        // Keep a fraction marker so the parser reads it back as Float.
        let _ = write!(out, "{x:.1}");
    } else {
        // `Display` would print a bare digit string here, which the parser
        // reads as an integer — and rejects outright past `i64`.
        let _ = write!(out, "{x:e}");
    }
}

pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn bad(msg: impl Into<String>) -> JsonError {
    JsonError(msg.into())
}

/// The error for an object without the field `name` (public for
/// [`json_struct!`](crate::json_struct)'s expansion).
pub fn missing_field(name: &str) -> JsonError {
    bad(format!("missing field `{name}`"))
}

fn expected(what: &str, got: Kind) -> JsonError {
    bad(format!("expected {what}, got {got}"))
}

/// How a type maps onto the [`Json`] document model — the one codec
/// layer under every persisted file and wire frame. `Error` is the
/// implementing crate's own error type; shape mismatches reported by this
/// module convert into it through `From<JsonError>`.
///
/// Decoders stay as strict as the types they build: a `from_json` that
/// constructs a validated type re-runs that validation.
pub trait JsonCodec: Sized {
    /// What decoding fails with.
    type Error: From<JsonError>;

    /// Encode as a JSON document.
    fn to_json(&self) -> Json;

    /// Decode from a JSON document (inverse of [`JsonCodec::to_json`]).
    fn from_json(json: &Json) -> std::result::Result<Self, Self::Error>;

    /// Decode the value `r` stands at, leaving it just past that value.
    /// Unless overridden this builds the value's tree and decodes that; a
    /// type with many elements — rows, ops — reads them one by one
    /// instead. Either way it accepts exactly what [`JsonCodec::from_json`]
    /// accepts, to the same value.
    fn read_json(r: &mut Reader<'_>) -> std::result::Result<Self, Self::Error> {
        Self::from_json(&r.value()?)
    }

    /// Append [`Json::compact`] of [`JsonCodec::to_json`] to `out`. Unless
    /// overridden this builds the tree and renders it; a type that is many
    /// values — rows, instances — writes them one by one instead, to the
    /// same bytes.
    fn write_json(&self, out: &mut String) {
        self.to_json().write_compact(out);
    }
}

/// Decode a whole text as a `T` without building its tree: what
/// `T::from_json(&parse(text)?)` returns, through [`JsonCodec::read_json`].
pub fn decode<T: JsonCodec>(text: &str) -> std::result::Result<T, T::Error> {
    let mut r = Reader::new(text);
    let value = T::read_json(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! scalar_codec {
    ($($ty:ty, $encode:expr, $decode:expr, $read:expr;)+) => {$(
        impl JsonCodec for $ty {
            type Error = JsonError;
            fn to_json(&self) -> Json {
                $encode(self)
            }
            fn from_json(json: &Json) -> Result<Self> {
                $decode(json)
            }
            fn read_json(r: &mut Reader<'_>) -> Result<Self> {
                $read(r)
            }
        }
    )+};
}

fn fits_usize(u: u64) -> Result<usize> {
    usize::try_from(u).map_err(|_| bad(format!("integer {u} does not fit a usize")))
}

scalar_codec! {
    String, |s: &String| Json::Str(s.clone()), |j: &Json| j.as_str().map(str::to_owned),
        |r: &mut Reader<'_>| r.string().map(Cow::into_owned);
    bool, |b: &bool| Json::Bool(*b), Json::as_bool, Reader::bool;
    i64, |i: &i64| Json::Int(*i), Json::as_i64, Reader::i64;
    u64, |u: &u64| Json::Int(*u as i64), Json::as_u64, Reader::u64;
    usize, |u: &usize| Json::Int(*u as i64), Json::as_usize,
        |r: &mut Reader<'_>| r.u64().and_then(fits_usize);
}

/// A JSON array.
impl<T: JsonCodec> JsonCodec for Vec<T> {
    type Error = T::Error;
    fn to_json(&self) -> Json {
        Json::list(self)
    }
    fn from_json(json: &Json) -> std::result::Result<Self, T::Error> {
        json.elements()?.iter().map(T::from_json).collect()
    }
    fn read_json(r: &mut Reader<'_>) -> std::result::Result<Self, T::Error> {
        let mut items = Vec::new();
        r.begin_array()?;
        while r.next_element()? {
            items.push(T::read_json(r)?);
        }
        Ok(items)
    }
    fn write_json(&self, out: &mut String) {
        write_list(self, out);
    }
}

/// Append the JSON array of `items`, each by [`JsonCodec::write_json`].
pub fn write_list<T: JsonCodec>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// `null` for `None`. The field itself must still be present.
impl<T: JsonCodec> JsonCodec for Option<T> {
    type Error = T::Error;
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(json: &Json) -> std::result::Result<Self, T::Error> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> std::result::Result<Self, T::Error> {
        match r.kind()? {
            Kind::Null => Ok(r.null().map(|()| None)?),
            _ => T::read_json(r).map(Some),
        }
    }
}

/// A JSON object, entries in key order. Keys that are not strings travel
/// as their `Display` text.
impl<K, T> JsonCodec for BTreeMap<K, T>
where
    K: Ord + ToString + std::str::FromStr,
    T: JsonCodec,
{
    type Error = T::Error;
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
    fn from_json(json: &Json) -> std::result::Result<Self, T::Error> {
        // inserted one by one: collecting a map sorts through a scratch
        // vector first, an allocation per decoded instance node
        let mut map = BTreeMap::new();
        for (k, v) in json.entries()? {
            let key = k
                .parse()
                .map_err(|_| bad(format!("invalid object key `{k}`")))?;
            map.insert(key, T::from_json(v)?);
        }
        Ok(map)
    }
}

/// Implement [`JsonCodec`] for a struct whose fields all have codecs, as
/// `json_struct!(Type { field, field as "key", … }, ErrorType)`: one JSON
/// object, one entry per field in the order listed, keyed by the field's
/// name unless renamed. The document shape is stated once, so encoder and
/// both decoders cannot disagree on it: fields are looked up by name, in
/// any order, and entries the struct does not list are passed over.
///
/// A type whose encoder is written by hand — it splices one field with
/// [`Json::write_compact_with`] — takes the decoders alone, as
/// expressions: `json_struct!(@from json, Type { … })` over a tree and
/// `json_struct!(@read r, Type { … })` over a `r: &mut Reader`, each
/// inside a function returning `Result<_, E>` with `E: From<JsonError>`.
#[macro_export]
macro_rules! json_struct {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@from $json:ident, $ty:ident { $($field:ident $(as $key:literal)?),+ $(,)? }) => {
        $ty {
            $($field: $json.get($crate::json_struct!(@key $field $($key)?))?),+
        }
    };
    (@read $r:ident, $ty:ident { $($field:ident $(as $key:literal)?),+ $(,)? }) => {{
        $(let mut $field = None;)+
        $r.begin_object()?;
        while let Some(key) = $r.next_key()? {
            $(if key == $crate::json_struct!(@key $field $($key)?) {
                $field = Some($crate::json::JsonCodec::read_json($r)?);
                continue;
            })+
            $r.skip_value()?;
        }
        $ty {
            $($field: match $field {
                Some(value) => value,
                None => {
                    let name = $crate::json_struct!(@key $field $($key)?);
                    return Err($crate::json::missing_field(name).into());
                }
            }),+
        }
    }};
    ($ty:ty { $($field:ident $(as $key:literal)?),+ $(,)? }, $err:ty) => {
        impl $crate::json::JsonCodec for $ty {
            type Error = $err;
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj(vec![$((
                    $crate::json_struct!(@key $field $($key)?),
                    $crate::json::JsonCodec::to_json(&self.$field),
                )),+])
            }
            fn from_json(json: &$crate::json::Json) -> ::std::result::Result<Self, $err> {
                Ok($crate::json_struct!(@from json, Self { $($field $(as $key)?),+ }))
            }
            fn read_json(
                r: &mut $crate::json::Reader<'_>,
            ) -> ::std::result::Result<Self, $err> {
                Ok($crate::json_struct!(@read r, Self { $($field $(as $key)?),+ }))
            }
        }
    };
}

/// Implement [`JsonCodec`] for a field-less enum, as
/// `json_enum!(Type { Variant => "tag", … }, ErrorType, "what")`: a JSON
/// string, one tag per variant. An unlisted tag fails to decode with
/// ``unknown <what> `tag` ``.
#[macro_export]
macro_rules! json_enum {
    ($ty:ident { $($variant:ident => $tag:literal),+ $(,)? }, $err:ty, $what:literal) => {
        impl $crate::json::JsonCodec for $ty {
            type Error = $err;
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::str(match self {
                    $($ty::$variant => $tag),+
                })
            }
            fn from_json(json: &$crate::json::Json) -> ::std::result::Result<Self, $err> {
                match json.as_str()? {
                    $($tag => Ok($ty::$variant),)+
                    other => Err($crate::json::JsonError(format!(
                        concat!("unknown ", $what, " `{}`"),
                        other
                    ))
                    .into()),
                }
            }
        }
    };
}

pub use crate::{json_enum, json_struct};

/// Assert the round-trip law for `x` (for tests; every codec impl must
/// pass it): its compact text, rendered from the tree or written straight,
/// decodes — through the tree and straight from the text — to an equal
/// value whose re-encoding is byte-identical.
pub fn assert_roundtrip<T>(x: &T)
where
    T: JsonCodec + PartialEq + std::fmt::Debug,
    T::Error: std::fmt::Debug,
{
    let text = x.to_json().compact();
    let mut written = String::new();
    x.write_json(&mut written);
    assert_eq!(written, text, "written straight: {written}");
    let back = T::from_json(&parse(&text).expect("own encoding parses"))
        .unwrap_or_else(|e| panic!("own encoding decodes: {e:?}\n{text}"));
    assert_eq!(&back, x, "{text}");
    assert_eq!(back.to_json().compact(), text);
    let read = decode::<T>(&text).unwrap_or_else(|e| panic!("own encoding reads: {e:?}\n{text}"));
    assert_eq!(&read, x, "read from the text: {text}");
}

/// Parse a JSON document, rejecting trailing garbage: the tree builder
/// over [`Reader`].
pub fn parse(input: &str) -> Result<Json> {
    let mut r = Reader::new(input);
    let value = r.value()?;
    r.finish()?;
    Ok(value)
}

const MAX_DEPTH: usize = 128;

/// Keys of one object compared one by one up to this many; past it the
/// object keeps a set, so a hostile document cannot make duplicate
/// detection quadratic.
const KEYS_SCANNED: usize = 16;

/// What the byte after a backslash stands for; 0 where there is no such
/// escape (`\u` is read by `hex4`).
const ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'/' as usize] = b'/';
    table[b'n' as usize] = b'\n';
    table[b'r' as usize] = b'\r';
    table[b't' as usize] = b'\t';
    table[b'b' as usize] = 0x08;
    table[b'f' as usize] = 0x0C;
    table
};

/// One open array or object.
#[derive(Debug)]
struct Open<'a> {
    /// No element or entry read yet: the next one takes no comma.
    first: bool,
    /// Where this object's keys start in [`Reader::keys`].
    keys_from: usize,
    /// This object's keys once there are more than [`KEYS_SCANNED`].
    seen: Option<BTreeSet<Cow<'a, str>>>,
}

/// A pull reader over a JSON text: the caller asks for the value it
/// expects next — a scalar, the start of an array and then each element,
/// the start of an object and then each key — and gets it without a tree
/// in between; strings free of escapes are slices of the text.
///
/// The reader **is** the grammar: literals, numbers, escapes and
/// surrogate pairs, the nesting limit, duplicate keys and trailing
/// characters are accepted or refused here and nowhere else ([`parse`]
/// is [`Reader::value`] followed by [`Reader::finish`]). Well-formed
/// UTF-8 comes with the `&str`. A value passed over
/// ([`Reader::skip_value`]) is held to the same rules as one that is read.
///
/// After an error the reader's position is unspecified; stop reading.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Innermost last.
    open: Vec<Open<'a>>,
    /// The keys read so far of every open object that still scans them,
    /// innermost last.
    keys: Vec<Cow<'a, str>>,
    /// The last string [`Reader::scalar`] read that held escapes.
    unescaped: String,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            open: Vec::new(),
            keys: Vec::new(),
            unescaped: String::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The kind of the value the reader stands at, from its first byte.
    pub fn kind(&mut self) -> Result<Kind> {
        if self.open.len() > MAX_DEPTH {
            return Err(bad("document nested too deeply"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            _ => Err(bad(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn expect(&mut self, kind: Kind, what: &str) -> Result<()> {
        match self.kind()? {
            got if got == kind => Ok(()),
            got => Err(expected(what, got)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<()> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(bad(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<()> {
        self.expect(Kind::Null, "null")?;
        self.literal("null")
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool> {
        self.expect(Kind::Bool, "bool")?;
        self.truth()
    }

    /// `true` or `false`, the reader at its first byte.
    fn truth(&mut self) -> Result<bool> {
        let value = self.peek() == Some(b't');
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Read an integer; a number with a fraction or an exponent is an error.
    pub fn i64(&mut self) -> Result<i64> {
        self.expect(Kind::Number, "integer")?;
        match self.number()? {
            Scalar::Int(i) => Ok(i),
            other => Err(expected("integer", other.kind())),
        }
    }

    /// Read a non-negative integer (the streamed [`Json::as_u64`]).
    pub fn u64(&mut self) -> Result<u64> {
        let i = self.i64()?;
        u64::try_from(i).map_err(|_| bad(format!("expected non-negative integer, got {i}")))
    }

    /// Read a string: a slice of the text when it holds no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(Kind::Str, "string")?;
        self.quoted()
    }

    /// Read a value that is not a container. A string is lent: a slice of
    /// the text, or of the reader's own buffer when it held escapes.
    pub fn scalar(&mut self) -> Result<Scalar<'_>> {
        let kind = self.kind()?;
        self.scalar_of(kind)
    }

    /// [`Reader::scalar`], the value's kind already read off its first byte.
    fn scalar_of(&mut self, kind: Kind) -> Result<Scalar<'_>> {
        match kind {
            Kind::Null => self.literal("null").map(|()| Scalar::Null),
            Kind::Bool => self.truth().map(Scalar::Bool),
            Kind::Number => self.number(),
            Kind::Str => Ok(Scalar::Str(match self.quoted()? {
                Cow::Borrowed(slice) => slice,
                Cow::Owned(unescaped) => {
                    self.unescaped = unescaped;
                    &self.unescaped
                }
            })),
            container => Err(expected("scalar value", container)),
        }
    }

    /// Enter an array; [`Reader::next_element`] then steps through it.
    pub fn begin_array(&mut self) -> Result<()> {
        self.expect(Kind::Arr, "array")?;
        self.begin();
        Ok(())
    }

    /// Enter an object; [`Reader::next_key`] then steps through it.
    pub fn begin_object(&mut self) -> Result<()> {
        self.expect(Kind::Obj, "object")?;
        self.begin();
        Ok(())
    }

    fn begin(&mut self) {
        self.pos += 1;
        self.open.push(Open {
            first: true,
            keys_from: self.keys.len(),
            seen: None,
        });
    }

    /// Step past the separator to the next element or entry of the
    /// innermost open container: `false` once `close` ended it.
    fn advance(&mut self, close: u8) -> Result<bool> {
        self.skip_ws();
        let open = self.open.last_mut().expect("inside a container");
        let first = std::mem::take(&mut open.first);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                let open = self.open.pop().expect("inside a container");
                self.keys.truncate(open.keys_from);
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(bad(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// Move to the next element of the innermost open array: `true` when
    /// the reader stands at one (read or skip it before asking again),
    /// `false` when the array has ended and is closed.
    pub fn next_element(&mut self) -> Result<bool> {
        self.advance(b']')
    }

    /// Move to the next entry of the innermost open object: its key, with
    /// the reader left at its value (read or skip it before asking again),
    /// or `None` when the object has ended and is closed. A key the object
    /// already held is an error.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.quoted()?;
        let open = self.open.last_mut().expect("inside an object");
        let fresh = match &mut open.seen {
            Some(seen) => seen.insert(key.clone()),
            None if self.keys[open.keys_from..].contains(&key) => false,
            None if self.keys.len() - open.keys_from < KEYS_SCANNED => {
                self.keys.push(key.clone());
                true
            }
            None => {
                let mut seen: BTreeSet<_> = self.keys.drain(open.keys_from..).collect();
                seen.insert(key.clone());
                open.seen = Some(seen);
                true
            }
        };
        if !fresh {
            return Err(bad(format!("duplicate object key `{key}`")));
        }
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(bad(format!("expected `:` at byte {}", self.pos)));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Build the tree of the value the reader stands at — for anything
    /// small enough that its shape is easier to take apart than to stream.
    pub fn value(&mut self) -> Result<Json> {
        match self.kind()? {
            Kind::Arr => {
                let mut items = Vec::new();
                self.begin();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Kind::Obj => {
                let mut pairs = Vec::new();
                self.begin();
                while let Some(key) = self.next_key()? {
                    pairs.push((key.into_owned(), self.value()?));
                }
                Ok(Json::Obj(pairs))
            }
            Kind::Str => Ok(Json::Str(self.quoted()?.into_owned())),
            scalar => Ok(match self.scalar_of(scalar)? {
                Scalar::Null => Json::Null,
                Scalar::Bool(b) => Json::Bool(b),
                Scalar::Int(i) => Json::Int(i),
                Scalar::Float(x) => Json::Float(x),
                Scalar::Str(s) => Json::Str(s.to_owned()),
            }),
        }
    }

    /// Pass over the value the reader stands at, checking it as closely
    /// as if it were read.
    pub fn skip_value(&mut self) -> Result<()> {
        match self.kind()? {
            Kind::Arr => {
                self.begin();
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Kind::Obj => {
                self.begin();
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            scalar => {
                self.scalar_of(scalar)?;
            }
        }
        Ok(())
    }

    /// End the document: anything but whitespace left is an error.
    pub fn finish(mut self) -> Result<()> {
        debug_assert!(self.open.is_empty(), "finish inside a container");
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(bad(format!("trailing characters at byte {}", self.pos)));
        }
        Ok(())
    }

    /// A string, the reader at its opening quote. The text between two
    /// escapes is copied as a run, and a string without escapes is not
    /// copied at all.
    fn quoted(&mut self) -> Result<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return Err(bad(format!("expected `\"` at byte {}", self.pos)));
        }
        self.pos += 1;
        let mut run = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            // `"`, `\\` and control characters are ASCII, so every cut
            // below falls on a character boundary of the `&str`
            match self.peek() {
                None => return Err(bad("unterminated string")),
                Some(b'"') => {
                    let tail = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(bad("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for, the reader just past its `\\`.
    fn escape(&mut self) -> Result<char> {
        let Some(esc) = self.peek() else {
            return Err(bad("unterminated escape"));
        };
        self.pos += 1;
        if esc != b'u' {
            return match ESCAPE[esc as usize] {
                0 => Err(bad(format!("invalid escape `\\{}`", esc as char))),
                c => Ok(c as char),
            };
        }
        let cp = self.hex4()?;
        // Surrogate pairs for astral-plane characters; a lone half of
        // either kind is no character.
        let c = if (0xD800..0xDC00).contains(&cp) {
            if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                return Err(bad("invalid unicode escape"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(bad("invalid low surrogate"));
            }
            char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00))
        } else {
            char::from_u32(cp)
        };
        c.ok_or_else(|| bad("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32> {
        let Some(hex) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(bad("truncated unicode escape"));
        };
        let mut cp = 0;
        for &b in hex {
            let digit = (b as char).to_digit(16);
            cp = cp * 16 + digit.ok_or_else(|| bad("invalid unicode escape"))?;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// A number, the reader at its first byte: an integer unless it has a
    /// fraction or an exponent.
    fn number(&mut self) -> Result<Scalar<'static>> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        let mut i = start + negative as usize;
        // accumulated below zero, where `i64::MIN` fits; `None` on overflow
        let mut int = Some(0i64);
        let digits_from = i;
        while let Some(d @ b'0'..=b'9') = bytes.get(i) {
            int = int.and_then(|n| n.checked_mul(10)?.checked_sub((d - b'0') as i64));
            i += 1;
        }
        if i == digits_from {
            int = None;
        }
        let mut is_float = false;
        if bytes.get(i) == Some(&b'.') {
            is_float = true;
            i += 1;
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            is_float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        self.pos = i;
        let text = &self.text[start..i];
        let value = if is_float {
            text.parse().ok().map(Scalar::Float)
        } else if negative {
            int.map(Scalar::Int)
        } else {
            int.and_then(i64::checked_neg).map(Scalar::Int)
        };
        value.ok_or_else(|| bad(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for src in ["null", "true", "false", "0", "-17", "3.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.pretty()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn nested_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::str("GRADES")),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(1), Json::Null, Json::Float(2.5)]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn compact_is_single_line_and_roundtrips() {
        let v = Json::obj(vec![
            ("metric", Json::str("bench.instantiate")),
            ("value", Json::Float(12.5)),
            ("tags", Json::Arr(vec![Json::Int(1), Json::Null])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"metric\":\"bench.instantiate\",\"value\":12.5,\"tags\":[1,null]}"
        );
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t unicode ü 🦀";
        let v = Json::str(s);
        let parsed = parse(&v.pretty()).unwrap();
        assert_eq!(parsed.as_str().unwrap(), s);
    }

    #[test]
    fn surrogate_pair_parses() {
        assert_eq!(parse("\"\\ud83e\\udd80\"").unwrap().as_str().unwrap(), "🦀");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for src in [
            "{not json",
            "[1, 2",
            "{\"a\": }",
            "\"unterminated",
            "12trailing",
            "[1] extra",
            "{\"a\":1,\"a\":2}",
            "nul",
            "--1",
            "\"\\u+041\"",
            "\"\\ud83e\"",
            "\"\\udd80\"",
        ] {
            assert!(parse(src).is_err(), "accepted {src:?}");
            // passed over, a value is held to the same rules
            let wrapped = format!("[{src}]");
            let mut r = Reader::new(&wrapped);
            r.begin_array().unwrap();
            let skipped = (|| {
                while r.next_element()? {
                    r.skip_value()?;
                }
                r.finish()
            })();
            assert!(skipped.is_err(), "skipped over {src:?}");
        }
    }

    #[test]
    fn reader_pulls_values_without_a_tree() {
        let text = r#" {"id": 7, "rows": [["a\nb", null, -3], []],
            "skip": {"x": [1, {"y": "\ud83e\udd80"}]}, "name": "plain ü"} "#;
        let mut r = Reader::new(text);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().unwrap(), "id");
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.next_key().unwrap().unwrap(), "rows");
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.string().unwrap(), Cow::<str>::Owned("a\nb".into()));
        assert!(r.next_element().unwrap());
        assert_eq!(r.kind().unwrap(), Kind::Null);
        r.null().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.scalar().unwrap(), Scalar::Int(-3));
        assert!(!r.next_element().unwrap());
        assert!(r.next_element().unwrap());
        assert_eq!(Vec::<bool>::read_json(&mut r).unwrap(), Vec::<bool>::new());
        assert!(!r.next_element().unwrap());
        assert_eq!(r.next_key().unwrap().unwrap(), "skip");
        r.skip_value().unwrap();
        assert_eq!(r.next_key().unwrap().unwrap(), "name");
        // no escapes: a slice of the text, not a copy
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain ü")));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
        // a shape mismatch names what it found, as the tree's accessors do
        assert_eq!(
            Reader::new("[1]").u64().unwrap_err(),
            Json::Arr(vec![]).as_u64().unwrap_err()
        );
        assert_eq!(
            Reader::new("1.5").i64().unwrap_err().0,
            "expected integer, got number"
        );
        assert!(decode::<Vec<u64>>("[1,2] x").is_err());
    }

    #[test]
    fn duplicate_keys_are_found_in_small_and_large_objects() {
        let object = |keys: &[String]| {
            let entries: Vec<String> = keys.iter().map(|k| format!("\"{k}\":0")).collect();
            format!("{{{}}}", entries.join(","))
        };
        for n in [2, KEYS_SCANNED, KEYS_SCANNED + 1, 3 * KEYS_SCANNED] {
            let mut keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
            assert!(parse(&object(&keys)).is_ok(), "{n} distinct keys");
            for repeated in [0, n / 2, n - 1] {
                // spelled with an escape the second time: compared decoded
                keys.push(format!("\\u006b{repeated}"));
                let err = parse(&object(&keys)).unwrap_err();
                assert_eq!(err.0, format!("duplicate object key `k{repeated}`"), "{n}");
                keys.pop();
            }
        }
        // an inner object's keys are its own
        assert!(parse(r#"{"a":{"a":1,"b":2},"b":{"a":1}}"#).is_ok());
    }

    #[test]
    fn float_shape_preserved() {
        // Integral floats keep a fraction marker so they parse back as Float.
        assert_eq!(parse(&Json::Float(2.0).pretty()).unwrap(), Json::Float(2.0));
        assert_eq!(parse(&Json::Int(2).pretty()).unwrap(), Json::Int(2));
    }

    #[test]
    fn every_finite_float_prints_a_token_that_parses_back_bit_identical() {
        let mut cases = vec![
            0.0,
            -0.0,
            2.0,
            -0.125,
            1e-7,
            999_999_999_999_999.0,
            1e15,
            -1e15,
            1_000_000_000_000_000.5,
            9.007_199_254_740_993e15,
            1e19,
            -1e19,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        // and a spread of raw bit patterns
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2048 {
            bits = bits
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cases.push(f64::from_bits(bits));
        }
        for x in cases.into_iter().filter(|x| x.is_finite()) {
            for text in [Json::Float(x).compact(), Json::Float(x).pretty()] {
                match parse(&text) {
                    Ok(Json::Float(y)) => assert_eq!(y.to_bits(), x.to_bits(), "{text}"),
                    other => panic!("{x:e} printed as `{text}`, read back as {other:?}"),
                }
            }
        }
        // bytes below the exponent threshold are what they always were
        assert_eq!(Json::Float(2.0).compact(), "2.0");
        assert_eq!(
            Json::Float(123_456_789_012_345.0).compact(),
            "123456789012345.0"
        );
        assert_eq!(Json::Float(1e-7).compact(), "0.0000001");
        assert_eq!(Json::Float(1e19).compact(), "1e19");
    }

    #[test]
    fn blanket_codecs_roundtrip_and_reject_shape_mismatches() {
        assert_roundtrip(&"line\nbreak".to_owned());
        assert_roundtrip(&true);
        assert_roundtrip(&i64::MIN);
        assert_roundtrip(&(i64::MAX as u64));
        assert_roundtrip(&7usize);
        assert_roundtrip(&vec![Some(1u64), None]);
        assert_roundtrip(&BTreeMap::from([
            ("a".to_owned(), vec![1i64]),
            ("b".to_owned(), vec![]),
        ]));
        assert!(u64::from_json(&Json::Int(-1)).is_err());
        assert!(usize::from_json(&Json::Int(-1)).is_err());
        assert!(String::from_json(&Json::Int(1)).is_err());
        assert!(Vec::<bool>::from_json(&Json::Arr(vec![Json::Int(1)])).is_err());
        assert!(BTreeMap::<String, bool>::from_json(&Json::Arr(vec![])).is_err());
        assert_roundtrip(&BTreeMap::from([(3usize, true), (10, false)]));
        let keyed = Json::obj(vec![("x", Json::Bool(true))]);
        assert!(BTreeMap::<usize, bool>::from_json(&keyed).is_err());
        let doc = Json::obj(vec![("n", Json::Int(3))]);
        assert_eq!(doc.get::<u64>("n").unwrap(), 3);
        assert!(doc.get::<u64>("missing").is_err());
        assert!(doc.get::<Option<u64>>("missing").is_err());
    }

    #[test]
    fn write_compact_with_fills_exactly_the_named_field() {
        let doc = Json::obj(vec![
            ("a", Json::Int(1)),
            ("rows", Json::Null),
            ("z", Json::str("rows")),
        ]);
        let mut out = String::new();
        doc.write_compact_with(&mut out, "rows", |out| out.push_str("[1,2]"));
        assert_eq!(out, "{\"a\":1,\"rows\":[1,2],\"z\":\"rows\"}");
    }

    #[test]
    fn i64_extremes_roundtrip() {
        for i in [i64::MIN, i64::MAX, 0, -1] {
            assert_eq!(parse(&Json::Int(i).pretty()).unwrap(), Json::Int(i));
        }
    }

    #[test]
    fn nonfinite_floats_encode_as_strings() {
        assert_eq!(Json::Float(f64::NAN).pretty(), "\"NaN\"");
        assert_eq!(Json::Float(f64::INFINITY).pretty(), "\"inf\"");
    }

    #[test]
    fn deep_nesting_rejected() {
        let src = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&src).is_err());
    }
}
