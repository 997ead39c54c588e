//! Property-based tests over the core invariants, driven by the built-in
//! deterministic [`SmallRng`] (seeded loops instead of an external
//! property-testing framework, so the suite runs fully offline):
//!
//! - storage: value ordering is a total order; insert/delete/replace keep
//!   tables key-consistent;
//! - optimizer: rewritten plans are semantics-preserving;
//! - structural model: planned deletions and key replacements always leave
//!   a consistent database;
//! - view objects: delete-then-reinsert is an exact database round trip,
//!   and replacement by an arbitrary edit either fails cleanly or leaves a
//!   consistent database whose instance equals the requested one;
//! - codecs: every persisted or wire document decodes back to an equal
//!   value whose re-encoding is byte-identical; the one decoder gives a
//!   text and its document's compact respelling one verdict and one value,
//!   whatever the text, and reads every document the product writes to the
//!   same value whatever the order of its entries; an instance written
//!   back unmodified through the codec changes nothing (GetPut);
//! - instances: the flat form is the tree it binds — engine, builder,
//!   codec and in-place edits against a tree assembled tuple by tuple.

use penguin_vo::obs::trace;
use penguin_vo::prelude::*;

/// The two ways a table lookup is counted: an index answered it, or it
/// fell back to a scan.
const LOOKUPS: [&str; 2] = ["relational.index_probes", "relational.fallback_scans"];

// ---------------------------------------------------------------- values --

fn arb_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range_i64(i64::MIN..i64::MAX)),
        3 => Value::Float(f64::from_bits(rng.next_u64())), // incl. NaN/inf
        4 => Value::Int(rng.gen_range_i64(-4..4)),         // likely collisions
        _ => {
            let len = rng.gen_range(0..9);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26) as u8) as char)
                .collect();
            Value::text(s)
        }
    }
}

/// The numeric values where an `i64` and an `f64` stop agreeing: around
/// 2^53, where integers stop being floats; at the ends of `i64`; the two
/// zeros, the infinities and both NaNs.
fn numeric_edges() -> Vec<Value> {
    const P53: i64 = 1 << 53;
    let mut out = Vec::new();
    for p in [P53, -P53] {
        out.extend([p - 1, p, p + 1, p + 2].map(Value::Int));
        out.extend([p - 1, p, p + 2].map(|i| Value::Float(i as f64)));
    }
    out.extend([i64::MIN, i64::MIN + 1, i64::MAX, i64::MAX - 1, -1, 0, 1].map(Value::Int));
    out.extend(
        [
            i64::MIN as f64,
            -(i64::MIN as f64),
            0.0,
            -0.0,
            0.5,
            -0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]
        .map(Value::Float),
    );
    out
}

/// `Value`'s order is a total order and agrees with its hash on every
/// triple drawn from the numeric edges plus generated values: INT and
/// FLOAT compare exactly, so two integers past 2^53 never both equal one
/// float.
#[test]
fn value_order_is_total_and_consistent() {
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    let mut values = numeric_edges();
    values.extend((0..48).map(|_| arb_value(&mut rng)));
    for a in &values {
        for b in &values {
            // antisymmetry
            assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} against {b:?}");
            // equality implies equal hashes
            if a == b {
                assert_eq!(hash(a), hash(b), "{a:?} == {b:?} but their hashes differ");
            }
            // transitivity
            if a <= b {
                for c in values.iter().filter(|c| b <= *c) {
                    assert!(a <= c, "{a:?} <= {b:?} <= {c:?} but {a:?} > {c:?}");
                }
            }
        }
    }
    // the order the engine has always kept
    assert_eq!(Value::Int(2), Value::Float(2.0));
    assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
    assert!(Value::Float(-0.0) < Value::Int(0));
    assert!(Value::Int(-1) < Value::Float(-0.0));
    assert!(Value::Float(-f64::NAN) < Value::Int(i64::MIN));
    assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
}

/// Regression: R(a INT) = {2^53, 2^53 + 1} and S(b FLOAT) = {2^53}.
/// `Distinct` sorts and compares rows, and a hash join hashes and compares
/// its keys, so an order that rounded 2^53 + 1 onto 2^53 joined both
/// integers to the one float, whichever side the hash was built on.
#[test]
fn distinct_and_hash_join_keep_integers_past_2_pow_53() {
    const P53: i64 = 1 << 53;
    let mut db = Database::new();
    for (name, attr, ty) in [("R", "a", DataType::Int), ("S", "b", DataType::Float)] {
        let schema = RelationSchema::new(name, vec![AttributeDef::required(attr, ty)], &[attr]);
        db.create_relation(schema.unwrap()).unwrap();
    }
    db.insert("R", vec![Value::Int(P53)]).unwrap();
    db.insert("R", vec![Value::Int(P53 + 1)]).unwrap();
    db.insert("S", vec![Value::Float(P53 as f64)]).unwrap();
    let rows = |plan: Plan| db.execute(&plan).unwrap().rows;
    let (int, float) = (Value::Int(P53), Value::Float(P53 as f64));
    assert_eq!(
        rows(Plan::scan("R").distinct()),
        vec![vec![int.clone()], vec![Value::Int(P53 + 1)]]
    );
    // R.a = S.b matches 2^53 alone, whichever side the hash is built on
    let r_join_s = Plan::scan("R").join(Plan::scan("S"), vec![("R.a".into(), "S.b".into())]);
    assert_eq!(rows(r_join_s), vec![vec![int.clone(), float.clone()]]);
    let s_join_r = Plan::scan("S").join(Plan::scan("R"), vec![("S.b".into(), "R.a".into())]);
    assert_eq!(rows(s_join_r), vec![vec![float, int]]);
}

/// `Value::Text` holds a short string in place and a long one as a shared
/// `Arc<str>`; nothing that could observe the `String` it stands for may
/// tell the difference: order, equality, hash, display and the codec's
/// bytes are the string's own, whichever constructor built the value.
/// Strings are drawn at byte lengths of 0 to 48 — a multibyte character
/// may end past the mark, so some straddle the inline limit of 22 bytes —
/// with NUL bytes among the characters. Half of the pairs share a prefix of
/// up to 23 bytes and end near the limit, on one side of it or both, so
/// that inline texts differing only past their first 16 bytes are
/// compared too.
#[test]
fn text_values_behave_like_the_strings_they_hold() {
    use penguin_vo::obs::json::{assert_roundtrip, decode};
    use std::borrow::Cow;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;
    fn hash_of(hashed: impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        hashed.hash(&mut h);
        h.finish()
    }
    const ALPHABET: [char; 13] = [
        'a',
        'b',
        'Z',
        '0',
        ' ',
        '\'',
        '"',
        '\\',
        '\n',
        '\0',
        'é',
        '√',
        '\u{1F427}',
    ];
    fn grow(rng: &mut SmallRng, s: &mut String, bytes: usize) {
        while s.len() < bytes {
            s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
        }
    }
    let mut rng = SmallRng::seed_from_u64(0x7E87);
    let mut lengths = [0usize; 2];
    for round in 0..2048 {
        let mut a = String::new();
        grow(&mut rng, &mut a, round % 49);
        let mut b = String::new();
        let bytes = if round % 2 == 0 {
            // a prefix of `a` cut near the limit, then a tail of its own
            // that ends near the limit too
            let mut cut = a.len().min(14 + rng.gen_range(0..10));
            while !a.is_char_boundary(cut) {
                cut -= 1;
            }
            b.push_str(&a[..cut]);
            cut + rng.gen_range(0..12)
        } else {
            rng.gen_range(0..49)
        };
        grow(&mut rng, &mut b, bytes);
        for s in [&a, &b] {
            lengths[usize::from(s.len() > Text::INLINE)] += 1;
        }
        let (va, vb) = (Value::text(a.as_str()), Value::text(b.as_str()));
        assert_eq!(va.cmp(&vb), a.cmp(&b), "{a:?} vs {b:?}");
        assert_eq!(va == vb, a == b, "{a:?} vs {b:?}");
        // the variant tag, then the string exactly as `String` hashes
        assert_eq!(hash_of(&va), hash_of((3u8, &a)));
        assert_eq!(va.to_string(), format!("'{a}'"));
        assert_eq!(format!("{va:?}"), format!("Text({a:?})"));
        assert_eq!(va.as_text(), Some(a.as_str()));
        assert_eq!(encode(&va), Json::str(a.as_str()).compact());
        assert_roundtrip(&va);
        // one value, however it was built — and a clone is the same text
        let shared: Arc<str> = a.as_str().into();
        for same in [
            Value::text(a.clone()),
            Value::text(shared),
            Value::text(Cow::Borrowed(a.as_str())),
            Value::text(Cow::<str>::Owned(a.clone())),
            Value::from(a.as_str()),
            Value::from(a.clone()),
            decode::<Value>(&encode(&va)).unwrap(),
            va.clone(),
        ] {
            let Value::Text(text) = &same else {
                panic!("{same:?} is not text");
            };
            assert_eq!(text.is_inline(), a.len() <= Text::INLINE, "{a:?}");
            assert_eq!(same, va);
            assert_eq!(same.cmp(&vb), a.cmp(&b));
            assert_eq!(hash_of(&same), hash_of(&va));
            assert_eq!(encode(&same), encode(&va));
        }
    }
    // both sides of the limit were drawn, and often
    assert!(lengths.iter().all(|&n| n > 1000), "{lengths:?}");
}

// ---------------------------------------------------------------- codecs --

/// The round-trip law ([`assert_roundtrip`]) over generated documents:
/// value → tuple → op → WAL commit record, and instances and update
/// requests instantiated from seeded university databases with a
/// generated value written into the pivot tuple.
///
/// One carve-out: non-finite floats travel as the tagged strings `"NaN"`,
/// `"inf"`, `"-inf"`, so a NaN's payload bits are not carried (and
/// `Value`'s total order tells payloads apart) — NaNs are folded to the
/// canonical one before encoding.
#[test]
fn codecs_roundtrip_generated_documents() {
    use penguin_vo::obs::json::assert_roundtrip;
    fn arb_codec_value(rng: &mut SmallRng) -> Value {
        match arb_value(rng) {
            Value::Float(x) if x.is_nan() => Value::Float(f64::NAN),
            v => v,
        }
    }
    let mut rng = SmallRng::seed_from_u64(0xC0DEC);
    for _ in 0..256 {
        let values: Vec<Value> = (0..rng.gen_range(1..6))
            .map(|_| arb_codec_value(&mut rng))
            .collect();
        for v in &values {
            assert_roundtrip(v);
        }
        let key = Key::new(values[..1].to_vec());
        let tuple = Tuple::raw(values);
        let ops = vec![
            DbOp::Insert {
                relation: "T".into(),
                tuple: tuple.clone(),
            },
            DbOp::Delete {
                relation: "T".into(),
                key: key.clone(),
            },
            DbOp::Replace {
                relation: "T".into(),
                old_key: key,
                tuple,
            },
        ];
        for op in &ops {
            assert_roundtrip(op);
        }
        assert_roundtrip(&CommitRecord {
            lsn: rng.next_u64() >> 1,
            ops,
        });
    }
    for seed in 0..8 {
        let (schema, db) = university_scaled(1, seed);
        let omega = generate_omega(&schema).unwrap();
        let mut instances = instantiate_all(&schema, &omega, &db).unwrap();
        assert!(instances.len() >= 2);
        for inst in &mut instances {
            let mut values = inst.root.tuple.values().to_vec();
            let at = rng.gen_range(0..values.len());
            values[at] = arb_codec_value(&mut rng);
            inst.root.tuple = Tuple::raw(values);
            assert_roundtrip(inst);
        }
        for pair in instances.windows(2) {
            for req in [
                UpdateRequest::CompleteInsertion(pair[0].clone()),
                UpdateRequest::CompleteDeletion(pair[0].clone()),
                UpdateRequest::Replacement {
                    old: pair[0].clone(),
                    new: pair[1].clone(),
                },
            ] {
                assert_roundtrip(&req);
            }
        }
    }
}

// ------------------------------------------- one grammar, one decoder --

use penguin_vo::net::{Request, Response};
use penguin_vo::obs::json::{decode, encode, parse, JsonError};

/// The spelling law: a text as written and the same text respelled by its
/// document — parsed, then rendered compact — get one verdict from
/// `decode::<T>` and, when accepted, one value (compared by its encoding,
/// so a NaN is held to its spelling and `T` needs no `PartialEq`).
fn spellings_agree<T>(text: &str) -> bool
where
    T: JsonCodec,
    T::Error: From<JsonError> + std::fmt::Debug,
{
    let direct = decode::<T>(text);
    let respelled = parse(text)
        .map_err(T::Error::from)
        .and_then(|json| decode::<T>(&json.compact()));
    match (direct, respelled) {
        (Ok(a), Ok(b)) => {
            assert_eq!(encode(&a), encode(&b), "{text}");
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!(
            "{text}\n  as written: {:?}\n  respelled: {:?}",
            a.map(|v| encode(&v)),
            b.map(|v| encode(&v))
        ),
    }
}

/// Where every object of `json` sits: the positions of the entries and
/// elements passed on the way down from the root. The value of an entry
/// named in `whole` is a document whose order is its content, and is not
/// looked into.
fn object_paths(json: &Json, whole: &[&str], path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    let below: Vec<Option<&Json>> = match json {
        Json::Obj(pairs) => {
            out.push(path.clone());
            (pairs.iter())
                .map(|(k, v)| (!whole.contains(&k.as_str())).then_some(v))
                .collect()
        }
        Json::Arr(items) => items.iter().map(Some).collect(),
        _ => return,
    };
    for (i, value) in below.into_iter().enumerate() {
        if let Some(value) = value {
            path.push(i);
            object_paths(value, whole, path, out);
            path.pop();
        }
    }
}

/// The entries of the object at `path`.
fn entries_at<'j>(json: &'j mut Json, path: &[usize]) -> &'j mut Vec<(String, Json)> {
    let at = path.iter().fold(json, |at, &i| match at {
        Json::Obj(pairs) => &mut pairs[i].1,
        Json::Arr(items) => &mut items[i],
        _ => unreachable!("a path runs through containers"),
    });
    match at {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("a path ends at an object"),
    }
}

/// The orders the order law puts `n` entries in: every permutation of up
/// to four entries (six in release builds); past that, every rotation and
/// every swap of two entries.
fn orders(n: usize) -> Vec<Vec<usize>> {
    let every_order_up_to = if cfg!(debug_assertions) { 4 } else { 6 };
    let identity: Vec<usize> = (0..n).collect();
    if n <= every_order_up_to {
        return permutations(&identity);
    }
    let mut out: Vec<Vec<usize>> = (0..n)
        .map(|r| identity.iter().map(|i| (i + r) % n).collect())
        .collect();
    for i in 0..n {
        for j in i + 1..n {
            let mut swapped = identity.clone();
            swapped.swap(i, j);
            out.push(swapped);
        }
    }
    out
}

/// Shuffle the entries of every object in `json` but those in `whole`.
fn shuffle_every_object(rng: &mut SmallRng, json: &mut Json, whole: &[&str]) {
    match json {
        Json::Obj(pairs) => {
            rng.shuffle(pairs);
            (pairs.iter_mut())
                .filter(|(k, _)| !whole.contains(&k.as_str()))
                .for_each(|(_, v)| shuffle_every_object(rng, v, whole));
        }
        Json::Arr(items) => (items.iter_mut()).for_each(|v| shuffle_every_object(rng, v, whole)),
        _ => {}
    }
}

/// The entries whose values the order law keeps whole: a wire frame's
/// `report` and a wire error's `data` are `Json` documents, whose order is
/// their content. (A saved system's `data` is a snapshot, which the
/// checkpoint cases reorder.)
const DOCUMENTS: [&str; 2] = ["report", "data"];

/// The order law: a text `decode::<T>` accepts decodes to the same value
/// with the entries of any one of its objects reordered ([`orders`]) and
/// with every object shuffled at once. Returns the decodes it made.
fn orders_agree<T>(text: &str, rng: &mut SmallRng) -> usize
where
    T: JsonCodec,
    T::Error: std::fmt::Debug,
{
    let want = encode(&decode::<T>(text).unwrap_or_else(|e| panic!("{e:?}\n{text}")));
    let tree = parse(text).unwrap();
    let check = |json: &Json| match decode::<T>(&json.compact()) {
        Ok(value) => assert_eq!(encode(&value), want, "reordered {}", json.compact()),
        Err(e) => panic!(
            "refused {e:?}\n  reordered {}\n  from {text}",
            json.compact()
        ),
    };
    let mut paths = Vec::new();
    object_paths(&tree, &DOCUMENTS, &mut Vec::new(), &mut paths);
    let mut decodes = 0;
    for path in &paths {
        let n = entries_at(&mut tree.clone(), path).len();
        for order in orders(n) {
            let mut json = tree.clone();
            let entries = entries_at(&mut json, path);
            let before = std::mem::take(entries);
            entries.extend(order.iter().map(|&i| before[i].clone()));
            check(&json);
            decodes += 1;
        }
    }
    for _ in 0..4 {
        let mut json = tree.clone();
        shuffle_every_object(rng, &mut json, &DOCUMENTS);
        check(&json);
        decodes += 1;
    }
    decodes
}

/// A string token: plain runs, multi-byte UTF-8, every short escape, BMP
/// escapes and surrogate pairs; with `faults`, also lone surrogates of
/// either half, escapes that do not exist, short or non-hex `\u`, a raw
/// control character and a missing closing quote.
fn arb_string_token(rng: &mut SmallRng, faults: bool) -> String {
    const PIECES: [&str; 16] = [
        "a",
        "course",
        " ",
        "ü",
        "日本",
        "🦀",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u00e9",
        "\\ud83e\\udd80",
    ];
    const FAULTS: [&str; 8] = [
        "\\ud83e",
        "\\udd80",
        "\\ud83e\\n",
        "\\x",
        "\\u12",
        "\\u+041",
        "\u{1}",
        "\\",
    ];
    let mut s = String::from("\"");
    for _ in 0..rng.gen_range(0..5) {
        s.push_str(rng.choose::<&str>(&PIECES));
    }
    if faults && rng.gen_bool(0.5) {
        s.push_str(rng.choose::<&str>(&FAULTS));
    }
    if !(faults && rng.gen_bool(0.2)) {
        s.push('"');
    }
    s
}

fn arb_scalar_token(rng: &mut SmallRng, faults: bool) -> String {
    const NUMBERS: [&str; 14] = [
        "0",
        "-0",
        "7",
        "-17",
        "007",
        "9223372036854775807",
        "-9223372036854775808",
        "1.5",
        "-0.0",
        "1e19",
        "1E-3",
        "2.",
        "0.0000001",
        "123456789012345.0",
    ];
    const FAULTS: [&str; 8] = [
        "9223372036854775808",
        "-",
        "1e",
        "--1",
        "nul",
        "tru",
        "+1",
        "NaN",
    ];
    match rng.gen_range(0..6) {
        0 => "null".into(),
        1 => (if rng.gen_bool(0.5) { "true" } else { "false" }).into(),
        2 | 3 => arb_string_token(rng, faults),
        _ if faults && rng.gen_bool(0.3) => (*rng.choose(&FAULTS[..])).into(),
        _ => (*rng.choose(&NUMBERS[..])).into(),
    }
}

/// A document as text, so that every spelling the grammar has — and, with
/// `faults`, the ones it refuses: duplicate keys, stray or missing
/// separators — is reachable, which a rendered tree would never produce.
fn arb_doc(rng: &mut SmallRng, depth: usize, faults: bool) -> String {
    let pad = |rng: &mut SmallRng| if rng.gen_bool(0.2) { " \n\t" } else { "" };
    let n = rng.gen_range(0..4);
    match rng.gen_range(0..if depth == 0 { 1 } else { 4 }) {
        0 => arb_scalar_token(rng, faults),
        1 => {
            let items: Vec<String> = (0..n).map(|_| arb_doc(rng, depth - 1, faults)).collect();
            let sep = if faults && rng.gen_bool(0.1) {
                ",,"
            } else {
                ","
            };
            format!("[{}{}{}]", pad(rng), items.join(sep), pad(rng))
        }
        _ => {
            let mut keys: Vec<String> = (0..n).map(|_| arb_string_token(rng, faults)).collect();
            if faults && n > 1 && rng.gen_bool(0.3) {
                keys[n - 1] = keys[0].clone();
            }
            let colon = if faults && rng.gen_bool(0.1) { "" } else { ":" };
            let entries: Vec<String> = keys
                .iter()
                .map(|k| format!("{k}{}{colon}{}", pad(rng), arb_doc(rng, depth - 1, faults)))
                .collect();
            format!("{{{}}}", entries.join(","))
        }
    }
}

/// Every edge of the `Value` ↔ JSON mapping as it is written, then the
/// spellings only a reader meets: the bare digit strings old builds wrote,
/// the entry out of place among others, and what must be refused.
fn value_edge_texts() -> Vec<String> {
    let mut texts: Vec<String> = [
        Value::Null,
        Value::Bool(false),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(1e19),
        Value::Float(-1e19),
        Value::Float(-0.0),
        Value::Float(0.5),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::MAX),
        Value::Float(5e-324),
        Value::text(""),
        Value::text("NaN"),
        Value::text("line\nbreak \"quoted\" \\ tab\t ü 🦀 \u{1}"),
    ]
    .iter()
    .map(encode)
    .collect();
    texts.extend(
        [
            r#"{"float":1000000000000000}"#,
            r#"{"float":-7}"#,
            r#"{"pad":[1,{"a":"b"}],"float":2.5}"#,
            r#"{"float":2.5,"pad":null}"#,
            r#"{"float":"nan"}"#,
            r#"{"float":null}"#,
            r#"{"float":true}"#,
            r#"{"float":[1.5]}"#,
            r#"{"float":{"float":1.5}}"#,
            r#"{"float":1.5,"float":1.5}"#,
            r#"{"flat":1.5}"#,
            r#"{}"#,
            r#"1.5"#,
            r#"[1]"#,
            r#"9223372036854775808"#,
        ]
        .map(String::from),
    );
    texts
}

/// What `json::tests::malformed_inputs_rejected` refuses as documents,
/// here refused in every position a streamed decoder reads or passes over.
const MALFORMED: [&str; 12] = [
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
];

#[test]
fn one_decoder_reads_every_spelling_and_order() {
    let rounds = if cfg!(debug_assertions) { 400 } else { 4000 };
    let mut rng = SmallRng::seed_from_u64(0x0DDBA11);
    let (mut accepted, mut refused) = (0, 0);
    let mut tally = |ok: bool| *(if ok { &mut accepted } else { &mut refused }) += 1;

    // -- the mapping's edges, alone and as the elements of a row
    let edges = value_edge_texts();
    for text in &edges {
        tally(spellings_agree::<Value>(text));
        tally(spellings_agree::<Option<Value>>(text));
    }
    tally(spellings_agree::<Tuple>(&format!(
        "[{}]",
        edges[..16].join(",")
    )));
    tally(spellings_agree::<Vec<Value>>(&format!(
        "[{}]",
        edges.join(",")
    )));

    // -- generated documents: where a value is read, and where one is
    // passed over (an entry no decoder asked for)
    for round in 0..rounds {
        let faults = round % 2 == 1;
        let doc = arb_doc(&mut rng, 3, faults);
        tally(spellings_agree::<Value>(&doc));
        tally(spellings_agree::<Vec<Value>>(&doc));
        tally(spellings_agree::<Key>(&format!("[{doc},7]")));
        tally(spellings_agree::<Vec<Option<String>>>(&doc));
        tally(spellings_agree::<Value>(&format!(
            r#"{{"pad":{doc},"float":"-inf"}}"#
        )));
        tally(spellings_agree::<CommitRecord>(&format!(
            r#"{{"lsn":{},"pad":{doc},"ops":[]}}"#,
            round
        )));
        let tail = [" ", "\n", "x", "]", ",", "{}", "0"][round % 7];
        tally(spellings_agree::<Vec<Value>>(&format!("{doc}{tail}")));
    }
    for src in MALFORMED {
        assert!(!spellings_agree::<Value>(src), "{src}");
        assert!(!spellings_agree::<Vec<Value>>(&format!("[{src}]")), "{src}");
        assert!(!spellings_agree::<Value>(&format!(
            r#"{{"float":1.5,"pad":{src}}}"#
        )));
        assert!(!spellings_agree::<DbOp>(&format!(
            r#"{{"op":"delete","relation":"T","key":[1],"pad":{src}}}"#
        )));
    }

    // -- nesting: a value may sit under 128 containers and no more,
    // read or passed over
    for depth in [1, 100, 126, 127, 128, 129, 130, 200] {
        let nest = "[".repeat(depth) + &"]".repeat(depth);
        let ok = spellings_agree::<Value>(&format!(r#"{{"pad":{nest},"float":1.5}}"#));
        assert_eq!(ok, depth <= 128, "{depth} arrays inside an object");
        let nest = "{\"a\":".repeat(depth) + "null" + &"}".repeat(depth);
        let ok = spellings_agree::<Vec<Option<String>>>(&format!("[null,{nest}]"));
        assert!(!ok, "an object where a string belongs");
        tally(spellings_agree::<CommitRecord>(&format!(
            r#"{{"pad":{nest},"lsn":1,"ops":[]}}"#
        )));
    }

    // -- the store's own documents, then damaged: entries reordered,
    // dropped, doubled or renamed, and single characters replaced
    let mut db = Database::new();
    db.create_relation(
        RelationSchema::new(
            "T",
            vec![
                AttributeDef::required("k", DataType::Int),
                AttributeDef::nullable("v", DataType::Float),
                AttributeDef::nullable("w", DataType::Text),
            ],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("T", &["w".to_string()]).unwrap();
    for k in 0..6i64 {
        let v = [Value::Null, Value::Float(1e19), Value::Float(f64::NAN)][k as usize % 3].clone();
        db.insert("T", vec![k.into(), v, format!("w\t{k} ü").into()])
            .unwrap();
    }
    let ops = vec![
        DbOp::Insert {
            relation: "T".into(),
            tuple: Tuple::raw(vec![9.into(), 0.5.into(), Value::Null]),
        },
        DbOp::Delete {
            relation: "T".into(),
            key: Key::single(1),
        },
        DbOp::Replace {
            relation: "T".into(),
            old_key: Key::single(2),
            tuple: Tuple::raw(vec![7.into(), Value::Null, "moved".into()]),
        },
    ];
    let base = BaseCheckpoint {
        id: 3,
        lsn: 17,
        epoch: db.structure_epoch(),
        snapshot: DatabaseSnapshot::capture_full(&db),
    };
    let mut folded = Delta::default();
    for op in &ops {
        db.apply(op).unwrap();
        folded.record(db.table("T").unwrap().schema(), op);
    }
    let delta = DeltaCheckpoint {
        id: 4,
        base_id: 3,
        parent_id: 3,
        lsn: 18,
        epoch: db.structure_epoch(),
        delta: SnapshotDelta::new(folded, db.version()),
    };
    let record = CommitRecord { lsn: 42, ops };
    penguin_vo::obs::json::assert_roundtrip(&base);
    penguin_vo::obs::json::assert_roundtrip(&delta);
    penguin_vo::obs::json::assert_roundtrip(&record);

    /// Disturb the entries of one object on a random path down from `at`.
    fn disturb(rng: &mut SmallRng, at: &mut Json) -> bool {
        match at {
            Json::Arr(items) if !items.is_empty() => {
                let i = rng.gen_range(0..items.len());
                disturb(rng, &mut items[i])
            }
            Json::Obj(pairs) => {
                if !pairs.is_empty() && rng.gen_bool(0.7) {
                    let i = rng.gen_range(0..pairs.len());
                    if disturb(rng, &mut pairs[i].1) {
                        return true;
                    }
                }
                match rng.gen_range(0..4) {
                    0 => rng.shuffle(pairs),
                    1 if !pairs.is_empty() => {
                        pairs.remove(rng.gen_range(0..pairs.len()));
                    }
                    2 if !pairs.is_empty() => {
                        // the value of one entry under the name of another:
                        // junk where an op holds nothing, a wrong type elsewhere
                        let value = pairs[rng.gen_range(0..pairs.len())].1.clone();
                        let name = *rng.choose(&["key", "tuple", "old_key", "op", "lsn"][..]);
                        pairs.retain(|(k, _)| k != name);
                        pairs.push((name.to_owned(), value));
                    }
                    _ => pairs.push(("pad".to_owned(), Json::Int(1))),
                }
                true
            }
            _ => false,
        }
    }
    fn damaged(rng: &mut SmallRng, text: &str) -> String {
        // (a text damaged before may no longer have a tree to disturb)
        if let Some(mut json) = parse(text).ok().filter(|_| rng.gen_bool(0.7)) {
            disturb(rng, &mut json);
            return json.compact();
        }
        let mut chars: Vec<char> = text.chars().collect();
        let i = rng.gen_range(0..chars.len());
        chars[i] = *rng.choose(&['"', '\\', ',', ':', '[', ']', '{', '}', '0', 'e', '.', '-'][..]);
        chars.into_iter().collect()
    }
    let texts = [encode(&base), encode(&delta), encode(&record)];
    for _ in 0..rounds {
        tally(spellings_agree::<BaseCheckpoint>(&damaged(
            &mut rng, &texts[0],
        )));
        tally(spellings_agree::<DeltaCheckpoint>(&damaged(
            &mut rng, &texts[1],
        )));
        let rec = damaged(&mut rng, &texts[2]);
        tally(spellings_agree::<CommitRecord>(&rec));
        let again = damaged(&mut rng, &rec);
        tally(spellings_agree::<CommitRecord>(&again));
    }
    // the law is not vacuous on either side
    assert!(
        accepted > rounds && refused > rounds,
        "{accepted} / {refused}"
    );

    // -- every document the product writes, in every order of its entries
    // and spelled with whitespace between them
    let mut decodes = 0;
    let mut both = |text: String, decodes_one: &dyn Fn(&str, &mut SmallRng) -> usize| {
        decodes += decodes_one(&text, &mut rng);
        let pretty = parse(&text).unwrap().pretty();
        decodes += decodes_one(&pretty, &mut rng);
    };
    for text in value_edge_texts()
        .iter()
        .filter(|t| decode::<Value>(t).is_ok())
    {
        both(text.clone(), &orders_agree::<Value>);
    }
    both(encode(&record.ops[0]), &orders_agree::<DbOp>);
    both(encode(&record.ops[1]), &orders_agree::<DbOp>);
    both(encode(&record.ops[2]), &orders_agree::<DbOp>);
    both(texts[2].clone(), &orders_agree::<CommitRecord>);
    both(texts[0].clone(), &orders_agree::<BaseCheckpoint>);
    both(texts[1].clone(), &orders_agree::<DeltaCheckpoint>);
    let row = Tuple::raw(vec![1.into(), Value::Float(0.5), Value::Null, "t".into()]);
    both(encode(&row), &orders_agree::<Tuple>);
    both(
        encode(&Key::new(row.values().to_vec())),
        &orders_agree::<Key>,
    );
    for text in wire_documents() {
        both(text, &|text, rng| {
            // a frame is read as a request or a response, whichever it is
            match decode::<Request>(text) {
                Ok(_) => orders_agree::<Request>(text, rng),
                Err(_) => orders_agree::<Response>(text, rng),
            }
        });
    }
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let instances = instantiate_all(&schema, &omega, &db).unwrap();
    for inst in &instances[..2] {
        both(encode(inst), &orders_agree::<VoInstance>);
    }
    for req in update_requests(&instances) {
        both(encode(&req), &orders_agree::<UpdateRequest>);
    }
    let saved = penguin_vo::penguin::SavedSystem::capture(&figure4_system());
    both(
        encode(&saved),
        &orders_agree::<penguin_vo::penguin::SavedSystem>,
    );
    assert!(decodes > 1000, "{decodes}");
}

/// Penguin over Figure 4's data with ω and the paper's dialog answers.
fn figure4_system() -> Penguin {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let mut responder = paper_dialog_responder();
    p.choose_translator("omega", &mut responder).unwrap();
    p
}

/// One update request of each kind over the first two of `instances`.
fn update_requests(instances: &[VoInstance]) -> Vec<UpdateRequest> {
    vec![
        UpdateRequest::CompleteInsertion(instances[0].clone()),
        UpdateRequest::CompleteDeletion(instances[1].clone()),
        UpdateRequest::Replacement {
            old: instances[0].clone(),
            new: instances[1].clone(),
        },
    ]
}

/// A frame of every request and response shape that carries entries
/// beyond its discriminant.
fn wire_documents() -> Vec<String> {
    use penguin_vo::net::{RequestBody as Q, ResponseBody as A, WireError};
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let instances = instantiate_all(&schema, &omega, &db).unwrap();
    let requests = [
        Q::Hello {
            secret: Some("s".into()),
            proto: 1,
        },
        Q::Voql {
            src: "GET omega".into(),
        },
        Q::Prepare {
            object: "omega".into(),
            requests: update_requests(&instances),
        },
        Q::Apply {
            object: "omega".into(),
            requests: update_requests(&instances)[1..2].to_vec(),
        },
        Q::Commit { handle: 7 },
        Q::Watch {
            object: "omega".into(),
        },
        Q::PollWatch { watch: 3 },
        Q::Sleep { millis: 5 },
    ];
    let replies = [
        Ok(A::Hello {
            server: "s".into(),
            proto: 1,
            version: 4,
        }),
        Ok(A::Instances(instances[..2].to_vec())),
        Ok(A::Metrics("# m".into())),
        Ok(A::Updated(2)),
        Ok(A::Pinned { version: 9 }),
        Ok(A::Prepared {
            handle: 1,
            base_version: 9,
            touched: vec!["COURSES".into()],
        }),
        Ok(A::Committed {
            requests: 1,
            total_ops: 0,
        }),
        Ok(A::Changes(vec![InstanceChange {
            pivot: Key::single("CS101"),
            kind: ChangeKind::Updated,
        }])),
        Ok(A::Stats(Json::obj(vec![
            ("a", Json::Int(1)),
            ("b", Json::Null),
        ]))),
        Err(WireError::from(&Error::Conflict {
            relation: "COURSES".into(),
            base_version: 9,
            head_version: 11,
        })),
    ];
    let requests = (requests.into_iter().enumerate()).map(|(id, body)| {
        encode(&Request {
            id: id as u64,
            body,
        })
    });
    let replies = (replies.into_iter().enumerate()).map(|(id, result)| {
        encode(&Response {
            id: id as u64,
            result,
        })
    });
    requests.chain(replies).collect()
}

/// Cut at every byte, the golden artifacts and the golden log record are a
/// typed error from either decoder and from the store's own readers —
/// never a panic, never a value.
#[test]
fn truncated_artifacts_and_records_are_typed_errors() {
    let golden = |name: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
        std::fs::read(path.join(name)).unwrap()
    };
    let dir = std::env::temp_dir().join(format!("vo_truncation_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    fn body_cuts<T>(body: &[u8])
    where
        T: JsonCodec + PartialEq + std::fmt::Debug,
        T::Error: From<JsonError> + std::fmt::Debug,
    {
        let whole = std::str::from_utf8(body).unwrap();
        assert!(spellings_agree::<T>(whole), "the golden document decodes");
        for cut in 0..body.len() {
            // a cut inside a character is refused before any decoder runs
            if let Ok(prefix) = std::str::from_utf8(&body[..cut]) {
                assert!(
                    !spellings_agree::<T>(prefix),
                    "accepted a prefix of {cut} bytes"
                );
            }
        }
    }

    let base = golden("base_checkpoint.json");
    let newline = base.iter().position(|&b| b == b'\n').unwrap();
    body_cuts::<BaseCheckpoint>(&base[newline + 1..]);
    assert!(BaseCheckpoint::load(&dir, 3).is_err(), "no file yet");
    for cut in 0..base.len() {
        std::fs::write(dir.join(BaseCheckpoint::file_name(3)), &base[..cut]).unwrap();
        let err = BaseCheckpoint::load(&dir, 3).expect_err("a truncated base loaded");
        assert!(
            matches!(err, StoreError::Corrupt(_) | StoreError::Io { .. }),
            "{err:?}"
        );
    }
    std::fs::write(dir.join(BaseCheckpoint::file_name(3)), &base).unwrap();
    assert_eq!(BaseCheckpoint::load(&dir, 3).unwrap().lsn, 17);

    let delta = golden("delta_checkpoint.json");
    let newline = delta.iter().position(|&b| b == b'\n').unwrap();
    body_cuts::<DeltaCheckpoint>(&delta[newline + 1..]);
    for cut in 0..delta.len() {
        std::fs::write(dir.join(DeltaCheckpoint::file_name(4)), &delta[..cut]).unwrap();
        let err = DeltaCheckpoint::load(&dir, 4).expect_err("a truncated delta loaded");
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
    }

    // the record, framed with a checksum that matches each cut: all of it
    // "reached the disk", so it is corruption, not a torn tail
    let record = golden("commit_record.json");
    body_cuts::<CommitRecord>(&record);
    let log = dir.join("wal-000001.log");
    for cut in 1..record.len() {
        let payload = &record[..cut];
        let mut bytes = penguin_vo::store::wal::MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&penguin_vo::store::crc32::crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&log, &bytes).unwrap();
        for covered in [0, 41, 42] {
            match Wal::read_all(&log, covered) {
                Err(StoreError::Corrupt(_)) => {}
                // only its leading `lsn` is read once that says "covered"
                Ok(replay) if covered == 42 && cut >= r#"{"lsn":42,"ops":"#.len() => {
                    assert_eq!((replay.skipped, replay.records.len()), (1, 0));
                }
                other => panic!("{cut} bytes, covered {covered}: {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- instances --

/// An instance as the tree it binds — the shape `VoInstanceNode` had
/// before instances were flat, a `children` map per tuple — assembled
/// tuple by tuple through `follow_edge`: the reference the flat form, its
/// codec and its edits are held to.
#[derive(Debug, Clone)]
struct Tree {
    node: NodeId,
    tuple: Tuple,
    children: std::collections::BTreeMap<NodeId, Vec<Tree>>,
}

fn tree_of(schema: &StructuralSchema, object: &ViewObject, db: &Database, t: Tuple) -> Tree {
    fn grow(
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
        node: NodeId,
        tuple: Tuple,
    ) -> Tree {
        let mut children = std::collections::BTreeMap::new();
        for &child in &object.node(node).children {
            let found = follow_edge(schema, object, db, node, child, &tuple).unwrap();
            if !found.is_empty() {
                let grown = found
                    .into_iter()
                    .map(|t| grow(schema, object, db, child, t));
                children.insert(child, grown.collect());
            }
        }
        Tree {
            node,
            tuple,
            children,
        }
    }
    grow(schema, object, db, 0, t)
}

/// The wire text of the instance `tree` is, rendered from the tree.
fn tree_text(object: &ViewObject, tree: &Tree) -> String {
    fn node(t: &Tree) -> Json {
        let children = (t.children.iter())
            .map(|(id, list)| (id.to_string(), Json::Arr(list.iter().map(node).collect())))
            .collect();
        Json::obj(vec![
            ("node", Json::Int(t.node as i64)),
            ("tuple", parse(&encode(&t.tuple)).unwrap()),
            ("children", Json::Obj(children)),
        ])
    }
    Json::obj(vec![
        ("object", Json::str(object.name())),
        ("root", node(tree)),
    ])
    .compact()
}

/// The flat instance of `tree` through the builder, node by node — in a
/// shuffled node order when `rng` is given.
fn flatten(object: &ViewObject, tree: &Tree, rng: Option<&mut SmallRng>) -> VoInstance {
    type Groups = std::collections::BTreeMap<NodeId, Vec<(usize, Tuple)>>;
    fn walk(t: &Tree, pos: usize, groups: &mut Groups) {
        for (&child, list) in &t.children {
            for c in list {
                let group = groups.entry(child).or_default();
                group.push((pos, c.tuple.clone()));
                let at = group.len() - 1;
                walk(c, at, groups);
            }
        }
    }
    let mut groups = Groups::new();
    walk(tree, 0, &mut groups);
    let mut order: Vec<NodeId> = groups.keys().copied().collect();
    if let Some(rng) = rng {
        rng.shuffle(&mut order);
    }
    let mut b = VoInstance::builder(object, tree.tuple.clone());
    for id in order {
        for (parent_pos, tuple) in &groups[&id] {
            b.push(*parent_pos, id, tuple.clone());
        }
    }
    b.finish()
}

/// The path (child key, index) from the root to the tuple at position
/// `pos` of node `node`, positions counted as the flat form counts them.
fn path_to(tree: &Tree, node: NodeId, pos: usize) -> Vec<(NodeId, usize)> {
    fn walk(t: &Tree, node: NodeId, left: &mut usize, path: &mut Vec<(NodeId, usize)>) -> bool {
        for (&child, list) in &t.children {
            for (i, c) in list.iter().enumerate() {
                path.push((child, i));
                if child == node {
                    if *left == 0 {
                        return true;
                    }
                    *left -= 1;
                }
                if walk(c, node, left, path) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
    let mut path = Vec::new();
    assert!(node == 0 || walk(tree, node, &mut { pos }, &mut path));
    path
}

fn at_mut<'t>(tree: &'t mut Tree, path: &[(NodeId, usize)]) -> &'t mut Tree {
    (path.iter()).fold(tree, |t, (key, i)| {
        &mut t.children.get_mut(key).unwrap()[*i]
    })
}

/// Instances of every shape the codec and the edits meet: the three
/// synthetic shapes over random rows, university ω and ω′, and ω with its
/// node ids renumbered against its child order — a child's id below its
/// parent's, siblings declared in descending id order.
fn instance_cases(rng: &mut SmallRng) -> Vec<(StructuralSchema, ViewObject, Database)> {
    use penguin_vo::penguin::{seed_ownership_chain, synthetic_schema, SchemaShape};
    let pruned = |schema: &StructuralSchema, n: usize, rng: &mut SmallRng| {
        let w = MetricWeights {
            threshold: 0.01,
            ..Default::default()
        };
        let tree = generate_tree(schema, "R0", &w).unwrap();
        let keep: Vec<String> = (1..n)
            .filter(|_| rng.gen_bool(0.8))
            .map(|i| format!("R{i}"))
            .collect();
        let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
        prune_by_relations(schema, &tree, "synthetic", &keep).unwrap()
    };
    let mut cases = Vec::new();
    for (shape, n) in [
        (SchemaShape::OwnershipChain, 4),
        (SchemaShape::OwnershipStar, 4),
        (SchemaShape::ReferenceTree, 6),
    ] {
        let schema = synthetic_schema(shape, n);
        let mut db = Database::from_schema(schema.catalog());
        match shape {
            SchemaShape::OwnershipChain => seed_ownership_chain(&mut db, n, 2).unwrap(),
            _ => {
                for i in 0..n {
                    for k in 0..rng.gen_range_i64(1..6) {
                        let link = match rng.gen_range(0..5) {
                            0 => Value::Null,
                            _ => rng.gen_range_i64(0..3).into(),
                        };
                        let row = match shape {
                            SchemaShape::OwnershipStar if i == 0 => vec![k.into(), "root".into()],
                            SchemaShape::OwnershipStar => vec![link, k.into(), "leaf".into()],
                            _ => vec![k.into(), link, format!("n{i}").into()],
                        };
                        let _ = db.insert(&format!("R{i}"), row); // NULL keys refused
                    }
                }
            }
        }
        let object = pruned(&schema, n, rng);
        cases.push((schema, object, db));
    }
    let (schema, db) = university_scaled(1, rng.next_u64() % 100);
    let omega = generate_omega(&schema).unwrap();
    let last = omega.nodes().len() - 1;
    let renumbered = |old: NodeId| if old == 0 { 0 } else { last + 1 - old };
    let nodes = (0..=last)
        .map(|id| {
            let n = omega.node(renumbered(id));
            VoNode {
                id,
                relation: n.relation.clone(),
                attrs: n.attrs.clone(),
                parent: n.parent.map(renumbered),
                edge: n.edge.clone(),
                children: n.children.iter().map(|&c| renumbered(c)).collect(),
            }
        })
        .collect();
    let reversed = ViewObject::from_nodes("omega_renumbered", nodes, &schema).unwrap();
    for object in [omega, generate_omega_prime(&schema).unwrap(), reversed] {
        cases.push((schema.clone(), object, db.clone()));
    }
    cases
}

/// One random disturbance of an instance's text: entries shuffled — a
/// node's children before its tuple — or dropped, a child key renamed,
/// a node id changed.
fn disturb_instance(rng: &mut SmallRng, at: &mut Json) {
    match at {
        Json::Arr(items) if !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            disturb_instance(rng, &mut items[i]);
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            let i = rng.gen_range(0..pairs.len());
            match rng.gen_range(0..6) {
                0 => rng.shuffle(pairs),
                1 => {
                    pairs.remove(i);
                }
                2 => pairs[i].0 = rng.gen_range(0..5).to_string(),
                3 if pairs[i].0 == "node" => pairs[i].1 = Json::Int(rng.gen_range(0..5) as i64),
                _ => disturb_instance(rng, &mut pairs[i].1),
            }
        }
        _ => {}
    }
}

/// Instances are flat, and the flat form is the tree: the engine binds
/// what the tuple-at-a-time tree binds, the builder makes the same instance
/// whatever order the nodes are filled in, the codec writes the bytes the
/// tree renders to and reads them back to an equal instance, in any
/// spelling, and each in-place edit equals the instance rebuilt from the
/// edited tree.
#[test]
fn instances_are_their_trees() {
    use penguin_vo::obs::json::assert_roundtrip;
    let rounds = if cfg!(debug_assertions) { 2 } else { 12 };
    let mut rng = SmallRng::seed_from_u64(0xF1A7);
    let (mut edits, mut bound, mut refused) = (0, 0, 0);
    for _ in 0..rounds {
        for (schema, object, db) in instance_cases(&mut rng) {
            let instances = instantiate_all(&schema, &object, &db).unwrap();
            let pivots = db.table(object.pivot()).unwrap().scan();
            for (inst, pivot) in instances.iter().zip(pivots) {
                let mut tree = tree_of(&schema, &object, &db, pivot.clone());
                bound += inst.size();
                assert_eq!(inst, &flatten(&object, &tree, None));
                assert_eq!(inst, &flatten(&object, &tree, Some(&mut rng)));
                let text = tree_text(&object, &tree);
                assert_eq!(encode(inst), text);
                assert_roundtrip(inst);
                for _ in 0..4 {
                    let mut json = parse(&text).unwrap();
                    disturb_instance(&mut rng, &mut json);
                    refused += usize::from(!spellings_agree::<VoInstance>(&json.compact()));
                }

                // one edit of each kind, on the instance and on the tree
                let mut edited = inst.clone();
                let groups: Vec<NodeId> = (1..object.nodes().len())
                    .filter(|&id| !edited.tuples_of(id).is_empty())
                    .collect();
                let stranger = Tuple::raw(vec![Value::Int(rng.gen_range_i64(0..1000))]);
                if let Some(&node) = groups.get(rng.gen_range(0..groups.len().max(1))) {
                    let pos = rng.gen_range(0..edited.tuples_of(node).len());
                    let path = path_to(&tree, node, pos);
                    edited.rewrite(node, pos, stranger.clone());
                    at_mut(&mut tree, &path).tuple = stranger.clone();
                    assert_eq!(
                        edited,
                        flatten(&object, &tree, None),
                        "rewrite {node}@{pos}"
                    );

                    let pos = rng.gen_range(0..edited.tuples_of(node).len());
                    let path = path_to(&tree, node, pos);
                    edited.remove(node, pos);
                    let ((key, i), above) = path.split_last().unwrap();
                    let parent = at_mut(&mut tree, above);
                    parent.children.get_mut(key).unwrap().remove(*i);
                    parent.children.retain(|_, list| !list.is_empty());
                    assert_eq!(edited, flatten(&object, &tree, None), "remove {node}@{pos}");
                    edits += 2;
                }
                // under the first tuple of each parent node — the tuples
                // behind it in the group move on — and under a random one
                for parent in 0..object.nodes().len() {
                    let (children, parents) = (
                        &object.node(parent).children,
                        edited.tuples_of(parent).len(),
                    );
                    if children.is_empty() || parents == 0 {
                        continue;
                    }
                    for pos in [0, rng.gen_range(0..parents)] {
                        let child = children[rng.gen_range(0..children.len())];
                        let path = path_to(&tree, parent, pos);
                        edited.attach(parent, pos, child, stranger.clone());
                        let leaf = Tree {
                            node: child,
                            tuple: stranger.clone(),
                            children: Default::default(),
                        };
                        let under = at_mut(&mut tree, &path);
                        under.children.entry(child).or_default().push(leaf);
                        assert_eq!(edited, flatten(&object, &tree, None), "attach {child}");
                        edits += 1;
                    }
                }
                assert_eq!(encode(&edited), tree_text(&object, &tree));
                assert_roundtrip(&edited);
            }
        }
    }
    // the law is not vacuous: there were trees, edits and refusals
    assert!(
        bound > 100 && edits > 20 && refused > 4,
        "{bound} / {edits} / {refused}"
    );
}

// ---------------------------------------------------------------- GetPut --

/// GetPut across the codec, the first law of *Incremental Relational
/// Lenses*: every instance of ω and ω′ over seeded university databases and
/// of the hospital objects, read back off its wire text and written back
/// unmodified as a replacement of itself, prepares no op, leaves the
/// version where it was, and re-instantiates to its own bytes.
#[test]
fn an_instance_written_back_through_the_codec_changes_nothing() {
    let seeds = if cfg!(debug_assertions) { 0..2 } else { 0..8 };
    let mut systems = Vec::new();
    for seed in seeds {
        let (schema, db) = university_scaled(1, seed);
        let mut p = Penguin::with_database(schema.clone(), db);
        for object in [
            generate_omega(&schema).unwrap(),
            generate_omega_prime(&schema).unwrap(),
        ] {
            p.register_object(object).unwrap();
        }
        systems.push(p);
    }
    let (schema, db) = hospital_database(6);
    let mut p = Penguin::with_database(schema, db);
    let chart = ["WARD", "ADMISSION", "PHYSICIAN", "ORDERS", "LABRESULT"];
    p.define_object("chart", "PATIENT", &chart).unwrap();
    let stay = ["PATIENT", "PHYSICIAN", "ORDERS", "LABRESULT"];
    p.define_object("stay", "ADMISSION", &stay).unwrap();
    systems.push(p);

    let mut checked = 0;
    for mut p in systems {
        let names: Vec<String> = p.object_names().into_iter().map(String::from).collect();
        for name in &names {
            let object = p.object(name).unwrap().object.clone();
            (p.install_translator(name, Translator::permissive(&object))).unwrap();
            let version = p.database().version();
            for x in p.instantiate_all(name).unwrap() {
                let text = encode(&x);
                let back: VoInstance = decode(&text).unwrap();
                let put = UpdateRequest::Replacement {
                    old: back.clone(),
                    new: back,
                };
                let prepared = p.session().prepare_batch(name, vec![put]).unwrap();
                assert!(
                    prepared.ops.is_empty(),
                    "{name}: {:?}\n{text}",
                    prepared.ops
                );
                p.commit_prepared(name, prepared).unwrap();
                let key = x.key(p.schema(), &object).unwrap();
                assert_eq!(encode(&p.instance_by_key(name, &key).unwrap()), text);
                checked += 1;
            }
            assert_eq!(p.database().version(), version, "{name}");
        }
    }
    assert!(checked > 20, "{checked}");
}

// ---------------------------------------------------------------- tables --

fn course_table() -> Table {
    let schema = RelationSchema::new(
        "T",
        vec![
            AttributeDef::required("k", DataType::Int),
            AttributeDef::nullable("v", DataType::Text),
        ],
        &["k"],
    )
    .unwrap();
    Table::new(schema)
}

#[derive(Debug, Clone)]
enum TableOp {
    Insert(i64, Option<String>),
    Delete(i64),
    Replace(i64, i64, Option<String>),
}

fn arb_short_text(rng: &mut SmallRng) -> Option<String> {
    if rng.gen_bool(0.3) {
        return None;
    }
    let len = rng.gen_range(0..5);
    Some(
        (0..len)
            .map(|_| (b'a' + rng.gen_range(0..3) as u8) as char)
            .collect(),
    )
}

fn arb_table_op(rng: &mut SmallRng) -> TableOp {
    match rng.gen_range(0..3) {
        0 => TableOp::Insert(rng.gen_range_i64(0..20), arb_short_text(rng)),
        1 => TableOp::Delete(rng.gen_range_i64(0..20)),
        _ => TableOp::Replace(
            rng.gen_range_i64(0..20),
            rng.gen_range_i64(0..20),
            arb_short_text(rng),
        ),
    }
}

/// After any op sequence, a table's stored keys equal its tuples' keys and
/// secondary indexes return exactly what a scan would.
#[test]
fn table_ops_keep_indexes_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x7AB1E);
    for _ in 0..128 {
        let mut t = course_table();
        t.create_index(&["v".to_string()]).unwrap();
        let n_ops = rng.gen_range(1..40);
        for _ in 0..n_ops {
            match arb_table_op(&mut rng) {
                TableOp::Insert(k, v) => {
                    let tuple = Tuple::new(
                        t.schema(),
                        vec![k.into(), v.map(Value::from).unwrap_or(Value::Null)],
                    )
                    .unwrap();
                    let _ = t.insert(tuple);
                }
                TableOp::Delete(k) => {
                    let _ = t.delete(&Key::single(k));
                }
                TableOp::Replace(a, b, v) => {
                    let tuple = Tuple::new(
                        t.schema(),
                        vec![b.into(), v.map(Value::from).unwrap_or(Value::Null)],
                    )
                    .unwrap();
                    let _ = t.replace(&Key::single(a), tuple);
                }
            }
            // invariant: key map is coherent — each row is found at its key
            for tuple in t.scan() {
                let key = tuple.key(t.schema());
                assert!(t.get(&key).is_some_and(|held| held.ptr_eq(tuple)));
            }
            // invariant: index lookups match scans
            let schema = t.schema().clone();
            for probe in ["", "a", "ab"] {
                let via_index = t
                    .find_by_attrs(&["v".to_string()], &[Value::text(probe)])
                    .unwrap()
                    .len();
                let via_scan = t
                    .scan()
                    .filter(|x| x.get_named(&schema, "v").unwrap() == &Value::text(probe))
                    .count();
                assert_eq!(via_index, via_scan);
            }
        }
    }
}

/// An index built in bulk over stored rows ([`Table::create_index`] after
/// the inserts) is the index that grew with them (before the inserts): the
/// same definitions in the same order, and the same rows in the same
/// order for any probe — on every relation of the three synthetic shapes.
#[test]
fn bulk_built_index_equals_the_incremental_one() {
    use penguin_vo::penguin::{synthetic_schema, SchemaShape};
    let mut rng = SmallRng::seed_from_u64(0x1DEC5);
    for (shape, n) in [
        (SchemaShape::OwnershipChain, 4),
        (SchemaShape::OwnershipStar, 5),
        (SchemaShape::ReferenceTree, 7),
    ] {
        let structural = synthetic_schema(shape, n);
        for rel in structural.catalog().relation_names() {
            let schema = structural.catalog().relation(rel).unwrap().clone();
            // few distinct values per attribute: long key sets, and NULLs
            let rows: Vec<Tuple> = (0..60)
                .map(|_| {
                    let values = schema.attributes().iter().map(|a| match a.ty {
                        _ if a.nullable && rng.gen_bool(0.2) => Value::Null,
                        DataType::Int => Value::Int(rng.gen_range_i64(0..5)),
                        DataType::Text => Value::text(format!("t{}", rng.gen_range(0..4))),
                        DataType::Float => Value::Float(rng.gen_range(0..3) as f64),
                        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
                    });
                    Tuple::new(&schema, values.collect()).unwrap()
                })
                .collect();
            let names: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
            let mut index_sets: Vec<Vec<String>> = names.iter().map(|n| vec![n.clone()]).collect();
            index_sets.push(names.iter().rev().take(2).cloned().collect());
            let mut incremental = Table::new(schema.clone());
            for attrs in &index_sets {
                incremental.create_index(attrs).unwrap();
            }
            let mut bulk = Table::new(schema.clone());
            for row in &rows {
                // a repeated key is refused by both alike
                assert_eq!(
                    incremental.insert(row.clone()).is_ok(),
                    bulk.insert(row.clone()).is_ok()
                );
            }
            for attrs in index_sets.iter().rev() {
                bulk.create_index(attrs).unwrap();
            }
            assert!(bulk.len() > 4, "{rel}: {} rows", bulk.len());
            assert_eq!(incremental.index_attrs(), bulk.index_attrs(), "{rel}");
            for attrs in &index_sets {
                let at = schema.indices_of(attrs).unwrap();
                let mut probes: Vec<Vec<Value>> = rows.iter().map(|r| r.project(&at)).collect();
                probes.push(vec![Value::Null; at.len()]);
                probes.push(vec![Value::text("absent"); at.len()]);
                for probe in &probes {
                    let (found, taken) = trace::capture(|| bulk.find_by_indices(&at, probe));
                    let lookups = LOOKUPS.map(|name| taken.count(name));
                    assert_eq!(lookups, [1, 0], "{rel} {attrs:?}: probed, not scanned");
                    assert_eq!(
                        found,
                        incremental.find_by_indices(&at, probe),
                        "{rel} {attrs:?}"
                    );
                    let scanned: Vec<&Tuple> =
                        bulk.scan().filter(|r| r.project(&at) == *probe).collect();
                    assert_eq!(found, scanned, "{rel} {attrs:?} {probe:?}");
                }
            }
        }
    }
}

/// Every permutation of `items`.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let head = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// A value for `attr`, from a handful per type — so runs of equal key
/// prefixes are long — with texts that are strict prefixes of one another.
fn arb_cell(rng: &mut SmallRng, attr: &AttributeDef) -> Value {
    match attr.ty {
        _ if attr.nullable && rng.gen_bool(0.2) => Value::Null,
        DataType::Int => Value::Int(rng.gen_range_i64(0..5)),
        DataType::Text => Value::text(*rng.choose(&["c", "c1", "c10", "d"])),
        DataType::Float => Value::Float(rng.gen_range(0..3) as f64),
        DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
    }
}

/// **Every access path is a scan.** Whatever [`Table::index_at`] chooses
/// for a position list — the primary index for the whole key in any
/// order, a range of it for each leading part of the key, a secondary
/// index, or nothing — its visitor, `find_by_indices` and
/// `for_each_connected` return the rows a filtered `scan()` returns, in
/// its order: on a table, and through an overlay whose delta inserts,
/// deletes, replaces in place and re-keys rows inside and outside the
/// probed range. NULL, absent values and texts that are prefixes of other
/// texts are probed too; a NULL connects nothing but equals a NULL.
#[test]
fn every_access_path_is_a_scan() {
    use penguin_vo::penguin::{synthetic_schema, SchemaShape};
    let rounds = if cfg!(debug_assertions) { 4 } else { 24 };
    let mut rng = SmallRng::seed_from_u64(0xACCE55);
    let wide = StructuralSchemaBuilder::new()
        .relation(
            "W",
            &[
                ("a", DataType::Text),
                ("x", DataType::Int),
                ("b", DataType::Int),
                ("c", DataType::Text),
                ("y", DataType::Text),
            ],
            // declared out of attribute order on purpose
            &["a", "c", "b"],
        )
        .build()
        .unwrap();
    let shapes = [
        synthetic_schema(SchemaShape::OwnershipChain, 4),
        synthetic_schema(SchemaShape::OwnershipStar, 4),
        synthetic_schema(SchemaShape::ReferenceTree, 4),
        wide,
    ];
    let (mut ranged, mut pointed, mut indexed, mut scanned, mut refused) = (0, 0, 0, 0, 0);
    for structural in &shapes {
        for rel in structural.catalog().relation_names() {
            for _ in 0..rounds {
                let schema = structural.catalog().relation(rel).unwrap().clone();
                let arb_row = |rng: &mut SmallRng| {
                    let cells = schema.attributes().iter().map(|a| arb_cell(rng, a));
                    Tuple::new(&schema, cells.collect()).unwrap()
                };
                let mut db = Database::new();
                db.create_relation(schema.clone()).unwrap();
                for _ in 0..40 {
                    let _ = db.apply(&DbOp::Insert {
                        relation: rel.to_owned(),
                        tuple: arb_row(&mut rng),
                    });
                }
                // the last attribute is indexed; a non-key attribute before
                // it, or a later part of the key, is not
                let key = schema.key_indices().to_vec();
                let last = schema.arity() - 1;
                assert!(
                    !key.contains(&last),
                    "{rel}: generated relations end off the key"
                );
                let last_name = schema.attributes()[last].name.clone();
                db.ensure_index(rel, &[last_name]).unwrap();

                // position lists: the whole key in every order, every
                // leading part of it (in key order and reversed), the
                // indexed attribute, and lists no path answers
                let mut lists: Vec<Vec<usize>> = permutations(&key);
                for n in 1..key.len() {
                    lists.push(key[..n].to_vec());
                    lists.push(key[..n].iter().rev().copied().collect());
                }
                lists.push(vec![last]);
                lists.extend(key.last().filter(|_| key.len() > 1).map(|&k| vec![k]));
                lists.extend((0..last).find(|i| !key.contains(i)).map(|i| vec![i, last]));

                // an overlay that writes inside and outside every range
                let table = db.table(rel).unwrap();
                let keys: Vec<Key> = table.scan().map(|t| t.key(table.schema())).collect();
                let mut overlay = DeltaDb::new(&db);
                for _ in 0..30 {
                    let relation = rel.to_owned();
                    let held = rng.choose(&keys).clone();
                    let _ = overlay.apply(match rng.gen_range(0..4) {
                        0 => DbOp::Insert {
                            relation,
                            tuple: arb_row(&mut rng),
                        },
                        1 => DbOp::Delete {
                            relation,
                            key: held,
                        },
                        2 => {
                            // same key, other values
                            let mut cells = arb_row(&mut rng).values().to_vec();
                            for (&at, v) in key.iter().zip(held.values()) {
                                cells[at] = v.clone();
                            }
                            DbOp::Replace {
                                relation,
                                old_key: held,
                                tuple: Tuple::new(&schema, cells).unwrap(),
                            }
                        }
                        _ => DbOp::Replace {
                            relation,
                            old_key: held,
                            tuple: arb_row(&mut rng),
                        },
                    });
                }
                assert!(overlay.delta().len() >= 3, "{rel}: the overlay wrote");

                let table = db.table(rel).unwrap();
                let view = overlay.view(rel).unwrap();
                // Key orders as its components do, and is found by them
                for pair in keys.windows(2) {
                    assert_eq!(
                        pair[0].cmp(&pair[1]),
                        pair[0].values().cmp(pair[1].values())
                    );
                }
                for list in &lists {
                    let mut probes: Vec<Vec<Value>> = (table.scan().chain(view.scan()))
                        .map(|row| row.project(list))
                        .collect();
                    probes.sort();
                    probes.dedup();
                    probes.push(vec![Value::Null; list.len()]);
                    probes.push(vec![Value::text("absent"); list.len()]);
                    probes.push(vec![Value::Int(99); list.len()]);
                    let label = table.index_at(list).map(|path| path.label());
                    match (label, schema.leads_key_at(list)) {
                        (Some("key range"), true) => ranged += 1,
                        (Some("index probe"), true) => pointed += 1,
                        (Some("index probe"), false) => indexed += 1,
                        (None, false) => scanned += 1,
                        other => panic!("{rel} {list:?}: chose {other:?}"),
                    }
                    for probe in &probes {
                        let what = format!("{rel} {list:?} = {probe:?}");
                        let equal = |row: &&Tuple| row.project(list) == *probe;
                        let nulls = probe.iter().any(Value::is_null);
                        let source = Tuple::raw(probe.clone());
                        let positions: Vec<usize> = (0..list.len()).collect();

                        // on the table
                        let want: Vec<&Tuple> = table.scan().filter(equal).collect();
                        let (found, taken) = trace::capture(|| table.find_by_indices(list, probe));
                        assert_eq!(found, want, "{what}");
                        let lookups = LOOKUPS.map(|name| taken.count(name));
                        let path = if label.is_some() { [1, 0] } else { [0, 1] };
                        assert_eq!(lookups, path, "{what}: probed or scanned");
                        let mut got = Vec::new();
                        let asked =
                            table.for_each_connected(list, &source, &positions, |t| got.push(t));
                        assert_eq!(asked, !nulls, "{what}");
                        assert_eq!(got, if nulls { vec![] } else { want.clone() }, "{what}");
                        if let Some(mut path) = table.index_at(list) {
                            let mut got = Vec::new();
                            let asked = path.visit(&source, &positions, |t| got.push(t));
                            assert_eq!(asked, !nulls, "{what}");
                            assert_eq!(got, if nulls { vec![] } else { want }, "{what}");
                        }
                        refused += usize::from(nulls);

                        // through the overlay
                        let want: Vec<&Tuple> = view.scan().filter(equal).collect();
                        assert_eq!(view.find_by_indices(list, probe), want, "overlay {what}");
                        let mut got = Vec::new();
                        let asked =
                            view.for_each_connected(list, &source, &positions, |t| got.push(t));
                        assert_eq!(asked, !nulls, "overlay {what}");
                        assert_eq!(got, if nulls { vec![] } else { want }, "overlay {what}");
                    }
                }
            }
        }
    }
    // every kind of path, and the NULL refusal, were exercised
    assert!(ranged > 0 && pointed > 0 && indexed > 0 && scanned > 0 && refused > 0);
}

// ------------------------------------------------------------- optimizer --

fn arb_course_pred(rng: &mut SmallRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..4) {
            0 => {
                let s = (b'a' + rng.gen_range(0..4) as u8) as char;
                Expr::attr("dept_name").eq(Expr::lit(format!("dept-{s}")))
            }
            1 => Expr::attr("level").eq(Expr::lit("graduate")),
            2 => Expr::attr("title").is_null(),
            _ => Expr::lit(rng.gen_range_i64(0..5)).lt(Expr::lit(3)),
        };
    }
    match rng.gen_range(0..3) {
        0 => arb_course_pred(rng, depth - 1).and(arb_course_pred(rng, depth - 1)),
        1 => arb_course_pred(rng, depth - 1).or(arb_course_pred(rng, depth - 1)),
        _ => arb_course_pred(rng, depth - 1).not(),
    }
}

/// The optimizer never changes query results — grouped or not.
#[test]
fn optimizer_preserves_semantics() {
    let (_, db) = university_scaled(2, 99);
    let mut rng = SmallRng::seed_from_u64(0x0B71);
    for _ in 0..64 {
        let pred = arb_course_pred(&mut rng, 3);
        let mut plan = Plan::scan("COURSES")
            .join(
                Plan::scan("GRADES"),
                vec![("COURSES.course_id".into(), "GRADES.course_id".into())],
            )
            .select(pred.clone());
        match rng.gen_range(0..4) {
            0 => {}
            1 => plan = plan.project(vec!["COURSES.course_id".into(), "GRADES.ssn".into()]),
            // GROUP BY with a HAVING over the aggregate's own output; in
            // the last shape the alias shadows an input column (`ssn`),
            // so a HAVING pushed below would filter enrolments, not groups
            shape => {
                let alias = if shape == 2 { "n" } else { "ssn" };
                plan = plan
                    .aggregate(
                        vec!["COURSES.course_id".into()],
                        vec![
                            AggSpec {
                                func: AggFunc::CountStar,
                                alias: alias.into(),
                            },
                            AggSpec {
                                func: AggFunc::Max("GRADES.ssn".into()),
                                alias: "top".into(),
                            },
                        ],
                    )
                    .select(Expr::attr(alias).gt(Expr::lit(rng.gen_range_i64(0..6))));
            }
        }
        let optimized = vo_relational::optimizer::optimize(plan.clone());
        let mut a = db.execute(&plan).unwrap();
        let mut b = db.execute(&optimized).unwrap();
        a.rows.sort();
        b.rows.sort();
        assert_eq!(a.rows, b.rows, "optimizer changed semantics of {plan}");
    }
}

/// A HAVING predicate is never pushed below the aggregate it filters, even
/// when it names a column that also exists underneath.
#[test]
fn having_is_not_pushed_below_the_aggregate() {
    let (_, db) = university_scaled(2, 99);
    let count_as_ssn = vec![AggSpec {
        func: AggFunc::CountStar,
        alias: "ssn".into(),
    }];
    let having = Expr::attr("ssn").le(Expr::lit(4));
    let grouped = |input: Plan| input.aggregate(vec!["course_id".into()], count_as_ssn.clone());
    let plan = grouped(Plan::scan("GRADES")).select(having.clone());
    let optimized = vo_relational::optimizer::optimize(plan.clone());
    assert_eq!(optimized, plan, "the HAVING select stays on top");
    // every course has 4 enrolments: HAVING keeps them all, whereas the
    // predicate under the grouping would count students with ssn <= 4
    let kept = db.execute(&optimized).unwrap();
    let pushed = db
        .execute(&grouped(Plan::scan("GRADES").select(having)))
        .unwrap();
    assert_eq!(kept.len(), db.table("COURSES").unwrap().len());
    assert!(kept.rows.iter().all(|row| row[1] == Value::Int(4)));
    assert!(pushed.len() < kept.len());
}

// ------------------------------------------------------ structural model --

/// Structural deletions keep the database consistent from any seed.
#[test]
fn planned_deletions_stay_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xDE1);
    for _ in 0..32 {
        let seed = rng.next_u64() % 500;
        let course = rng.gen_range_i64(0..8);
        let (schema, mut db) = university_scaled(1, seed);
        let key = Key::single(format!("C0-{course}"));
        // CURRICULUM's foreign key is part of its key, so NULLify is not
        // available; cascade over references instead.
        let policy = IntegrityPolicy::uniform(RefDeleteAction::Cascade, RefModifyAction::Propagate);
        let ops = plan_delete(&schema, &db, "COURSES", &key, &policy).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }
}

/// Structural key replacements keep the database consistent.
#[test]
fn planned_key_replacements_stay_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x4E7);
    for _ in 0..32 {
        let seed = rng.next_u64() % 500;
        let course = rng.gen_range_i64(0..8);
        let (schema, mut db) = university_scaled(1, seed);
        let key = Key::single(format!("C0-{course}"));
        let courses = db.table("COURSES").unwrap().schema().clone();
        let old = db.table("COURSES").unwrap().get(&key).unwrap().clone();
        let new = old
            .with_named(&courses, "course_id", "RENAMED".into())
            .unwrap();
        let ops = plan_key_replacement(
            &schema,
            &db,
            "COURSES",
            &key,
            new,
            &IntegrityPolicy::default(),
        )
        .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }
}

// ----------------------------------------------------------- view objects --

/// Deleting an instance and re-inserting it restores the database
/// tuple-for-tuple.
#[test]
fn delete_insert_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xD1D0);
    for _ in 0..24 {
        let seed = rng.next_u64() % 200;
        let course = rng.gen_range_i64(0..8);
        let (schema, mut db) = university_scaled(1, seed);
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let key = Key::single(format!("C0-{course}"));
        let pivot = db.table("COURSES").unwrap().get(&key).unwrap().clone();
        let inst = assemble(&schema, &omega, &db, pivot).unwrap();

        let snapshot: Vec<(String, Vec<Tuple>)> = db
            .relation_names()
            .iter()
            .map(|r| {
                (
                    (*r).to_owned(),
                    db.table(r).unwrap().scan().cloned().collect(),
                )
            })
            .collect();

        updater.delete(&schema, &mut db, inst.clone()).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        updater.insert(&schema, &mut db, inst).unwrap();

        for (rel, tuples) in snapshot {
            let now: Vec<Tuple> = db.table(&rel).unwrap().scan().cloned().collect();
            assert_eq!(now, tuples, "relation {rel} differs after round trip");
        }
    }
}

/// Any single-attribute edit to an instance either fails cleanly (no
/// change) or succeeds into a consistent database that re-assembles to the
/// requested instance.
#[test]
fn replacement_is_sound_or_rejected() {
    let mut rng = SmallRng::seed_from_u64(0x4EB1);
    for _ in 0..24 {
        let seed = rng.next_u64() % 200;
        let course = rng.gen_range_i64(0..8);
        let new_title: String = {
            let len = rng.gen_range(1..7);
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0..26) as u8) as char)
                .collect()
        };
        let change_key = rng.gen_bool(0.5);
        let new_key: String = {
            let len = rng.gen_range(1..5);
            (0..len)
                .map(|_| (b'A' + rng.gen_range(0..26) as u8) as char)
                .collect()
        };
        let (schema, mut db) = university_scaled(1, seed);
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let key = Key::single(format!("C0-{course}"));
        let pivot = db.table("COURSES").unwrap().get(&key).unwrap().clone();
        let old = assemble(&schema, &omega, &db, pivot).unwrap();
        let courses = schema.catalog().relation("COURSES").unwrap();
        let mut new = old.clone();
        new.root.tuple = new
            .root
            .tuple
            .with_named(courses, "title", new_title.clone().into())
            .unwrap();
        if change_key {
            new.root.tuple = new
                .root
                .tuple
                .with_named(courses, "course_id", new_key.clone().into())
                .unwrap();
        }
        let before = db.total_tuples();
        match updater.replace(&schema, &mut db, old, new) {
            Ok(_) => {
                assert!(check_database(&schema, &db).unwrap().is_empty());
                let expect_key = if change_key {
                    Key::single(new_key)
                } else {
                    key
                };
                let stored = db.table("COURSES").unwrap().get(&expect_key).cloned();
                assert!(stored.is_some());
                let stored = stored.unwrap();
                assert_eq!(
                    stored.get_named(courses, "title").unwrap(),
                    &Value::text(new_title)
                );
            }
            Err(_) => {
                // clean failure: nothing changed
                assert_eq!(db.total_tuples(), before);
                assert!(check_database(&schema, &db).unwrap().is_empty());
            }
        }
    }
}

/// Figure-4-style count queries agree with filtering all instances by
/// hand.
#[test]
fn count_queries_match_manual_filtering() {
    let mut rng = SmallRng::seed_from_u64(0xC0);
    for _ in 0..24 {
        let seed = rng.next_u64() % 200;
        let bound = rng.gen_range(0..8);
        let (schema, db) = university_scaled(1, seed);
        let omega = generate_omega(&schema).unwrap();
        let stu = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let via_query = VoQuery::new()
            .with_count(stu, CmpOp::Lt, bound)
            .execute(&schema, &omega, &db)
            .unwrap()
            .len();
        let via_manual = instantiate_all(&schema, &omega, &db)
            .unwrap()
            .into_iter()
            .filter(|i| i.tuples_of(stu).len() < bound)
            .count();
        assert_eq!(via_query, via_manual);
    }
}

// -------------------------------------------------------------- sql layer --

/// Inserted text values survive a SQL round trip (quoting included).
#[test]
fn sql_text_roundtrip() {
    let alphabet: Vec<char> = ('a'..='z').chain('A'..='Z').chain(['\'', ' ']).collect();
    let mut rng = SmallRng::seed_from_u64(0x541);
    for _ in 0..64 {
        let len = rng.gen_range(1..13);
        let name: String = (0..len).map(|_| *rng.choose(&alphabet)).collect();
        let schema = RelationSchema::new(
            "T",
            vec![AttributeDef::required("k", DataType::Text)],
            &["k"],
        )
        .unwrap();
        let mut db = Database::new();
        db.create_relation(schema).unwrap();
        let quoted = name.replace('\'', "''");
        db.run_sql(&format!("INSERT INTO T VALUES ('{quoted}')"))
            .unwrap();
        match db
            .run_sql(&format!("SELECT * FROM T WHERE k = '{quoted}'"))
            .unwrap()
        {
            SqlOutcome::Rows(rows) => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows.rows[0][0].clone(), Value::text(name));
            }
            _ => panic!("expected rows"),
        }
    }
}

// ---------------------------------------------------------- keller layer --

/// For any course in any seeded database, the root-relation deletion
/// candidate satisfies the validity criteria, and the chosen translator
/// emits exactly that candidate's operations.
#[test]
fn keller_deletion_candidates_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x5E11);
    for _ in 0..24 {
        let seed = rng.next_u64() % 100;
        let course = rng.gen_range_i64(0..8);
        let (_, db) = university_scaled(1, seed);
        let view = SpjView::new("cd", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department");
        let cid = format!("C0-{course}");
        let rows = view.evaluate(&db).unwrap();
        let row = rows
            .rows
            .iter()
            .find(|r| r[0] == Value::text(cid.clone()))
            .cloned()
            .unwrap();
        let cands = vo_keller::enumerate_deletions(&view, &db, &row).unwrap();
        let courses_cand = cands.iter().find(|c| c.target == "COURSES").unwrap();
        assert!(courses_cand.valid, "{:?}", courses_cand.violations);
        assert!(vo_keller::check_syntactic(&courses_cand.ops).is_empty());

        let translator = vo_keller::KellerTranslator {
            view: view.clone(),
            delete_from: Some("COURSES".into()),
            insert_into: Default::default(),
            update_allowed: Default::default(),
        };
        let ops = translator.translate_delete(&db, &row).unwrap();
        assert_eq!(&ops, &courses_cand.ops);
    }
}

/// Keller insertions either fail cleanly or leave the view containing
/// exactly the new row.
#[test]
fn keller_insertions_are_exact() {
    let mut rng = SmallRng::seed_from_u64(0x1A5);
    for _ in 0..24 {
        let seed = rng.next_u64() % 100;
        let n = rng.gen_range_i64(0..1000);
        let (_, mut db) = university_scaled(1, seed);
        let view = SpjView::new("cd", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department");
        let translator = vo_keller::KellerTranslator {
            view: view.clone(),
            delete_from: None,
            insert_into: ["COURSES".to_string(), "DEPARTMENT".to_string()]
                .into_iter()
                .collect(),
            update_allowed: Default::default(),
        };
        let row = vec![
            Value::text(format!("NEW-{n}")),
            Value::text("t"),
            Value::text(format!("dept-new-{}", n % 3)),
        ];
        if let Ok(ops) = translator.translate_insert(&db, &row) {
            db.apply_all(&ops).unwrap();
            let after = view.evaluate(&db).unwrap();
            assert!(after.rows.contains(&row));
        }
    }
}
