//! A minimal JSON document model, parser, pretty-printer, and the one
//! codec trait every persisted and wire type implements.
//!
//! The catalog layer persists whole PENGUIN systems (schema + data +
//! objects + translators) as JSON, the store frames WAL records and
//! checkpoints in it, vo-net speaks it on the wire, and the observability
//! layer exports traces, metrics, and profiles through the same document
//! model. Rather than depend on an external serialization framework, the
//! persisted type closure is small enough to hand-code against this
//! document model: [`Json`] is the tree, [`parse`] reads a string,
//! [`Json::pretty`] renders one with stable, human-diffable formatting,
//! [`Json::compact`] renders a single line (for JSONL streams), and
//! [`JsonCodec`] is how a type maps onto the tree — with the impls for
//! strings, booleans, integers, lists, options and maps living here,
//! once, and [`json_struct!`](crate::json_struct) /
//! [`json_enum!`](crate::json_enum) for plain structs and tag enums.
//!
//! Integers and floats are kept as distinct variants so `i64` values
//! round-trip exactly; floats print with Rust's shortest-roundtrip
//! formatting, and every finite float prints as a token [`parse`] reads
//! back as [`Json::Float`] with the same bits.

use std::collections::BTreeMap;
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
                .ok_or_else(|| bad(format!("missing field `{name}`"))),
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
            other => Err(bad(format!("expected array, got {}", other.kind()))),
        }
    }

    /// The object entries; error for non-objects.
    pub fn entries(&self) -> Result<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Ok(pairs),
            other => Err(bad(format!("expected object, got {}", other.kind()))),
        }
    }

    /// The string payload; error otherwise.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(bad(format!("expected string, got {}", other.kind()))),
        }
    }

    /// The integer payload; error otherwise.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Json::Int(i) => Ok(*i),
            other => Err(bad(format!("expected integer, got {}", other.kind()))),
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
        let u = self.as_u64()?;
        usize::try_from(u).map_err(|_| bad(format!("integer {u} does not fit a usize")))
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
            other => Err(bad(format!("expected number, got {}", other.kind()))),
        }
    }

    /// The boolean payload; error otherwise.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(bad(format!("expected bool, got {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) | Json::Float(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
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
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_escaped(out, s),
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
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_escaped(out, s),
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
}

macro_rules! scalar_codec {
    ($($ty:ty, $encode:expr, $decode:expr;)+) => {$(
        impl JsonCodec for $ty {
            type Error = JsonError;
            fn to_json(&self) -> Json {
                $encode(self)
            }
            fn from_json(json: &Json) -> Result<Self> {
                $decode(json)
            }
        }
    )+};
}

scalar_codec! {
    String, |s: &String| Json::Str(s.clone()), |j: &Json| j.as_str().map(str::to_owned);
    bool, |b: &bool| Json::Bool(*b), Json::as_bool;
    i64, |i: &i64| Json::Int(*i), Json::as_i64;
    u64, |u: &u64| Json::Int(*u as i64), Json::as_u64;
    usize, |u: &usize| Json::Int(*u as i64), Json::as_usize;
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
/// decoder cannot disagree on it.
#[macro_export]
macro_rules! json_struct {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
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
                Ok(Self {
                    $($field: json.get($crate::json_struct!(@key $field $($key)?))?),+
                })
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
/// pass it): its compact text parses and decodes to an equal value whose
/// re-encoding is byte-identical.
pub fn assert_roundtrip<T>(x: &T)
where
    T: JsonCodec + PartialEq + std::fmt::Debug,
    T::Error: std::fmt::Debug,
{
    let text = x.to_json().compact();
    let back = T::from_json(&parse(&text).expect("own encoding parses"))
        .unwrap_or_else(|e| panic!("own encoding decodes: {e:?}\n{text}"));
    assert_eq!(&back, x, "{text}");
    assert_eq!(back.to_json().compact(), text);
}

/// Parse a JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Json> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(bad(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(bad(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(bad(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        if depth > MAX_DEPTH {
            return Err(bad("document nested too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(bad(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(bad(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut seen = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(bad(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(bad(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(bad("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(bad("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(bad("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| bad("invalid unicode escape"))?);
                        }
                        other => return Err(bad(format!("invalid escape `\\{}`", other as char))),
                    }
                }
                b if b < 0x20 => return Err(bad("control character in string")),
                // Plain ASCII (the `"` / `\` / control cases matched above).
                b if b < 0x80 => s.push(b as char),
                _ => {
                    // Multi-byte UTF-8: back up one byte and decode just
                    // the next character (at most 4 bytes) — validating
                    // the whole remaining input here would make string
                    // parsing quadratic.
                    self.pos -= 1;
                    let end = (self.pos + 4).min(self.bytes.len());
                    let rest = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(rest) {
                        Ok(text) => text.chars().next(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&rest[..e.valid_up_to()])
                                .unwrap()
                                .chars()
                                .next()
                        }
                        Err(_) => None,
                    };
                    let c = c.ok_or_else(|| bad("invalid UTF-8 in string"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(bad("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| bad("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| bad("invalid unicode escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| bad(format!("invalid number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| bad(format!("invalid number `{text}`")))
        }
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
        ] {
            assert!(parse(src).is_err(), "accepted {src:?}");
        }
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
