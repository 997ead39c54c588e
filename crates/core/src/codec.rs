//! JSON codecs for view-object definitions and translators — the types a
//! saved PENGUIN system persists — and for the instances, update requests
//! and instance changes that cross the wire. Decoding a
//! [`ViewObject`] requires the structural schema so the full Definition
//! 3.1–3.2 validation re-runs — a tampered document cannot produce an
//! object the in-memory API could not have built.

use crate::instance::{VoInstance, VoInstanceNode};
use crate::maintain::{ChangeKind, InstanceChange};
use crate::object::{NodeId, Step, ViewObject, VoEdge, VoNode};
use crate::translator::{
    OutDeleteAction, OutModifyAction, PeninsulaAction, RelationPolicy, Translator,
};
use crate::update::UpdateRequest;
use std::fmt::Write as _;
use vo_relational::json::{missing_field, Reader, Scalar};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

json_struct!(
    Step {
        connection,
        parent_is_from
    },
    Error
);
json_struct!(VoEdge { steps }, Error);
json_struct!(
    VoNode {
        id,
        relation,
        attrs,
        parent,
        edge,
        children
    },
    Error
);

impl ViewObject {
    /// Encode as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name())),
            ("nodes", Json::list(self.nodes())),
        ])
    }

    /// Decode from JSON and re-validate against `schema` (full Definition
    /// 3.1–3.2 checking via [`ViewObject::from_nodes`]) — the context is
    /// why this is not a [`JsonCodec`] impl.
    pub fn from_json(json: &Json, schema: &StructuralSchema) -> Result<Self> {
        let name: String = json.get("name")?;
        let nodes: Vec<VoNode> = json.get("nodes")?;
        for (i, n) in nodes.iter().enumerate() {
            if n.id != i {
                return Err(Error::Serialization(format!(
                    "object {name}: node at position {i} claims id {}",
                    n.id
                )));
            }
        }
        ViewObject::from_nodes(name, nodes, schema)
    }
}

json_struct!(
    RelationPolicy {
        allow_insert,
        allow_modify,
        allow_key_replacement,
        allow_db_key_replace,
        allow_delete_adopt,
    },
    Error
);

json_enum!(
    PeninsulaAction {
        NullifyForeignKey => "nullify_foreign_key",
        DeleteReferencing => "delete_referencing",
        Reject => "reject",
    },
    Error,
    "peninsula action"
);

json_enum!(
    OutDeleteAction { Restrict => "restrict", Cascade => "cascade", Nullify => "nullify" },
    Error,
    "out-of-object delete action"
);

json_enum!(
    OutModifyAction { Propagate => "propagate", Nullify => "nullify", Cascade => "cascade" },
    Error,
    "out-of-object modify action"
);

json_struct!(
    Translator {
        object,
        allow_insertion,
        allow_deletion,
        allow_replacement,
        relation_policies,
        peninsula_actions,
        allow_out_of_object_repairs,
        out_of_object_delete,
        out_of_object_modify,
    },
    Error
);

// An instance travels as the tree it binds: each tuple is
// `{"node","tuple","children":{"<id>":[…]}}`, children keyed by ascending
// node id (stringified, since JSON object keys are strings), written and
// read straight from and into the flat form. Tuples are structural only —
// validation against a relation schema happens when the instance enters
// the update pipeline, exactly as for an instance built by hand.
impl JsonCodec for VoInstance {
    type Error = Error;

    fn to_json(&self) -> Json {
        fn node(inst: &VoInstance, bound: &VoInstanceNode, at: (NodeId, usize)) -> Json {
            let children = (inst.runs_under(at.0, at.1))
                .map(|(child, run)| {
                    let group = &inst.tuples_of(child)[run.clone()];
                    let list = (group.iter().zip(run))
                        .map(|(c, pos)| node(inst, c, (child, pos)))
                        .collect();
                    (child.to_string(), Json::Arr(list))
                })
                .collect();
            Json::obj(vec![
                ("node", bound.node.to_json()),
                ("tuple", bound.tuple.to_json()),
                ("children", Json::Obj(children)),
            ])
        }
        Json::obj(vec![
            ("object", Json::str(&*self.object)),
            ("root", node(self, &self.root, (0, 0))),
        ])
    }

    fn write_json(&self, out: &mut String) {
        fn node(inst: &VoInstance, bound: &VoInstanceNode, at: (NodeId, usize), out: &mut String) {
            out.push_str("{\"node\":");
            bound.node.write_json(out);
            out.push_str(",\"tuple\":");
            bound.tuple.write_json(out);
            out.push_str(",\"children\":{");
            for (i, (child, run)) in inst.runs_under(at.0, at.1).enumerate() {
                let _ = write!(out, "{}\"{child}\":[", if i > 0 { "," } else { "" });
                for pos in run.clone() {
                    if pos > run.start {
                        out.push(',');
                    }
                    node(inst, &inst.tuples_of(child)[pos], (child, pos), out);
                }
                out.push(']');
            }
            out.push_str("}}");
        }
        out.push_str("{\"object\":");
        Scalar::Str(&self.object).write(out);
        out.push_str(",\"root\":");
        node(self, &self.root, (0, 0), out);
        out.push('}');
    }

    fn from_json(json: &Json) -> Result<Self> {
        let mut flat = Flat::default();
        node_from_json(&mut flat, json.field("root")?, None)?;
        Ok(flat.finish(json.get("object")?))
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let (mut object, mut flat, mut root) = (None, Flat::default(), false);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "object" => object = Some(String::read_json(r)?),
                "root" => {
                    read_node(r, &mut flat, None)?;
                    root = true;
                }
                _ => r.skip_value()?,
            }
        }
        let object = object.ok_or_else(|| missing_field("object"))?;
        if !root {
            return Err(missing_field("root").into());
        }
        Ok(flat.finish(object))
    }
}

/// An instance being decoded: the tuples filed so far and, per node id,
/// the parent node its tuples hang under and how many there are — the
/// positions handed out. What the flat form cannot hold is refused here.
#[derive(Default)]
struct Flat {
    root: Option<VoInstanceNode>,
    bound: Vec<VoInstanceNode>,
    groups: std::collections::BTreeMap<NodeId, (NodeId, usize)>,
}

impl Flat {
    /// File a tuple: the root when `under` is `None`, else a child listed
    /// under key `key` below the tuple at position `parent_pos` of node
    /// `parent`. Returns the address its own children hang under.
    fn file(
        &mut self,
        under: Option<((NodeId, usize), NodeId)>,
        node: NodeId,
        tuple: Tuple,
    ) -> Result<(NodeId, usize)> {
        let Some(((parent, parent_pos), key)) = under else {
            self.root = Some(VoInstanceNode {
                node,
                ..VoInstanceNode::pivot(tuple)
            });
            return Ok((0, 0));
        };
        if key != node {
            return Err(Error::Serialization(format!(
                "instance child under key {key} claims node {node}"
            )));
        }
        if node == 0 {
            return Err(Error::Serialization(
                "instance binds the pivot node 0 below its root".into(),
            ));
        }
        let (first_parent, len) = self.groups.entry(node).or_insert((parent, 0));
        if *first_parent != parent {
            return Err(Error::Serialization(format!(
                "instance binds node {node} under node {first_parent} and under node {parent}"
            )));
        }
        *len += 1;
        self.bound.push(VoInstanceNode {
            node,
            parent,
            parent_pos,
            tuple,
        });
        Ok((node, *len - 1))
    }

    fn finish(self, object: String) -> VoInstance {
        let root = self.root.expect("a decoded instance files its root first");
        VoInstance::from_parts(object.into(), root, self.bound)
    }
}

/// The node id a `children` key names.
fn child_key(key: &str) -> Result<NodeId> {
    (key.parse()).map_err(|_| Error::Serialization(format!("invalid object key `{key}`")))
}

fn node_from_json(
    flat: &mut Flat,
    json: &Json,
    under: Option<((NodeId, usize), NodeId)>,
) -> Result<()> {
    let at = flat.file(under, json.get("node")?, json.get("tuple")?)?;
    children_from_json(flat, json.field("children")?, at)
}

fn children_from_json(flat: &mut Flat, json: &Json, at: (NodeId, usize)) -> Result<()> {
    for (key, list) in json.entries()? {
        let key = child_key(key)?;
        for child in list.elements()? {
            node_from_json(flat, child, Some((at, key)))?;
        }
    }
    Ok(())
}

/// [`node_from_json`] off the text: the children stream when `node` and
/// `tuple` come before them, as the encoder writes them; otherwise they
/// are decoded through their tree once the rest of the object is read.
fn read_node(
    r: &mut Reader<'_>,
    flat: &mut Flat,
    under: Option<((NodeId, usize), NodeId)>,
) -> Result<()> {
    let (mut node, mut tuple, mut read, mut children) = (None, None, false, None);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "node" => node = Some(usize::read_json(r)?),
            "tuple" => tuple = Some(Tuple::read_json(r)?),
            "children" => match (node, tuple.take()) {
                (Some(node), Some(tuple)) => {
                    let at = flat.file(under, node, tuple)?;
                    read_children(r, flat, at)?;
                    read = true;
                }
                (_, unread) => {
                    tuple = unread;
                    children = Some(r.value()?);
                }
            },
            _ => r.skip_value()?,
        }
    }
    if read {
        return Ok(());
    }
    let node = node.ok_or_else(|| missing_field("node"))?;
    let tuple = tuple.ok_or_else(|| missing_field("tuple"))?;
    let children = children.ok_or_else(|| missing_field("children"))?;
    let at = flat.file(under, node, tuple)?;
    children_from_json(flat, &children, at)
}

/// Read a `children` object, every child filed below the tuple at `at`.
fn read_children(r: &mut Reader<'_>, flat: &mut Flat, at: (NodeId, usize)) -> Result<()> {
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let key = child_key(&key)?;
        r.begin_array()?;
        while r.next_element()? {
            read_node(r, flat, Some((at, key)))?;
        }
    }
    Ok(())
}

/// Tagged by [`UpdateRequest::kind`].
impl JsonCodec for UpdateRequest {
    type Error = Error;

    fn to_json(&self) -> Json {
        let kind = ("kind", Json::str(self.kind()));
        match self {
            UpdateRequest::CompleteInsertion(inst) | UpdateRequest::CompleteDeletion(inst) => {
                Json::obj(vec![kind, ("instance", inst.to_json())])
            }
            UpdateRequest::Replacement { old, new } => {
                Json::obj(vec![kind, ("old", old.to_json()), ("new", new.to_json())])
            }
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"kind\":");
        Scalar::Str(self.kind()).write(out);
        match self {
            UpdateRequest::CompleteInsertion(inst) | UpdateRequest::CompleteDeletion(inst) => {
                out.push_str(",\"instance\":");
                inst.write_json(out);
            }
            UpdateRequest::Replacement { old, new } => {
                out.push_str(",\"old\":");
                old.write_json(out);
                out.push_str(",\"new\":");
                new.write_json(out);
            }
        }
        out.push('}');
    }

    /// Every entry that names an instance is decoded, whatever the kind.
    fn from_json(json: &Json) -> Result<Self> {
        let kind: String = json.get("kind")?;
        let instance = |name| json.field(name).ok().map(VoInstance::from_json).transpose();
        of_kind(
            &kind,
            instance("instance")?,
            instance("old")?,
            instance("new")?,
        )
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let (mut kind, mut instance, mut old, mut new) = (None, None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "kind" => kind = Some(String::read_json(r)?),
                "instance" => instance = Some(VoInstance::read_json(r)?),
                "old" => old = Some(VoInstance::read_json(r)?),
                "new" => new = Some(VoInstance::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let kind = kind.ok_or_else(|| missing_field("kind"))?;
        of_kind(&kind, instance, old, new)
    }
}

/// The request of `kind` over the instances its entries held.
fn of_kind(
    kind: &str,
    instance: Option<VoInstance>,
    old: Option<VoInstance>,
    new: Option<VoInstance>,
) -> Result<UpdateRequest> {
    let field = |value: Option<VoInstance>, name| value.ok_or_else(|| missing_field(name));
    match kind {
        "complete-insertion" => Ok(UpdateRequest::CompleteInsertion(field(
            instance, "instance",
        )?)),
        "complete-deletion" => Ok(UpdateRequest::CompleteDeletion(field(
            instance, "instance",
        )?)),
        "replacement" => Ok(UpdateRequest::Replacement {
            old: field(old, "old")?,
            new: field(new, "new")?,
        }),
        other => Err(Error::Serialization(format!(
            "unknown update request kind `{other}`"
        ))),
    }
}

json_enum!(
    ChangeKind { Inserted => "inserted", Removed => "removed", Updated => "updated" },
    Error,
    "change kind"
);
json_struct!(InstanceChange { pivot, kind }, Error);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::generate_omega;
    use crate::university::university_schema;
    use vo_relational::json::{assert_roundtrip, decode, parse};

    #[test]
    fn view_object_roundtrip_revalidates() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let text = omega.to_json().pretty();
        let back = ViewObject::from_json(&parse(&text).unwrap(), &schema).unwrap();
        assert_eq!(omega, back);
    }

    #[test]
    fn tampered_object_rejected() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        // strip the pivot key attribute from the root projection
        let text = omega.to_json().pretty().replacen("\"course_id\",", "", 1);
        let parsed = parse(&text).unwrap();
        assert!(ViewObject::from_json(&parsed, &schema).is_err());
    }

    #[test]
    fn translator_instances_and_requests_roundtrip() {
        let (schema, db) = crate::university::university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut t = Translator::permissive(&omega);
        t.peninsula_actions
            .insert("CURRICULUM".into(), PeninsulaAction::Reject);
        t.out_of_object_modify = OutModifyAction::Cascade;
        assert_roundtrip(&t);

        let insts = crate::instance::instantiate_all(&schema, &omega, &db).unwrap();
        assert!(insts.len() >= 2);
        for inst in &insts {
            assert_roundtrip(inst);
        }
        for req in [
            UpdateRequest::CompleteInsertion(insts[0].clone()),
            UpdateRequest::CompleteDeletion(insts[0].clone()),
            UpdateRequest::Replacement {
                old: insts[0].clone(),
                new: insts[1].clone(),
            },
        ] {
            assert_roundtrip(&req);
        }
        assert_roundtrip(&InstanceChange {
            pivot: Key::single("CS101"),
            kind: ChangeKind::Removed,
        });
    }

    #[test]
    fn unknown_request_kind_and_unrepresentable_instances_rejected() {
        assert!(decode::<UpdateRequest>(r#"{"kind":"partial"}"#).is_err());
        let leaf = |n: usize| format!(r#"{{"node":{n},"tuple":[],"children":{{}}}}"#);
        let root = |children: &str| {
            format!(r#"{{"object":"o","root":{{"node":0,"tuple":[],"children":{{{children}}}}}}}"#)
        };
        // a key that is no node id, a child claiming another node than its
        // key, the pivot below the root, and node 2 below node 1 and the root
        for children in [
            format!(r#""x":[{}]"#, leaf(1)),
            format!(r#""1":[{}]"#, leaf(2)),
            format!(r#""0":[{}]"#, leaf(0)),
            format!(
                r#""1":[{{"node":1,"tuple":[],"children":{{"2":[{}]}}}}],"2":[{}]"#,
                leaf(2),
                leaf(2)
            ),
        ] {
            let text = root(&children);
            let tree = VoInstance::from_json(&parse(&text).unwrap());
            for refused in [decode::<VoInstance>(&text), tree] {
                assert!(
                    matches!(refused, Err(Error::Serialization(_))),
                    "{refused:?}"
                );
            }
        }
        // an empty list under a key is no children
        let inst = decode::<VoInstance>(&root(r#""1":[]"#)).unwrap();
        assert_eq!(inst.to_json().compact(), root(""));
    }
}
