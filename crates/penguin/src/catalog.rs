//! Saved PENGUIN systems: serialize a whole system — structural schema,
//! data snapshot, object definitions and chosen translators — to JSON and
//! restore it.
//!
//! This realizes (and extends to data) the paper's remark that a view
//! object is *uninstantiated*: "only its definition is saved while base
//! data remains stored in the relational database". Definitions and
//! translators are plain data, so they survive process restarts; the
//! dialog does not need to be re-run.

use crate::system::Penguin;
use std::collections::BTreeMap;
use std::path::Path;
use vo_core::prelude::*;
use vo_relational::json::{decode, encode, parse, required, write_list_with, ObjectWriter, Reader};

/// Serializable image of a PENGUIN system.
#[derive(Debug, Clone)]
pub struct SavedSystem {
    /// The structural schema (catalog + connections).
    pub schema: StructuralSchema,
    /// The base data.
    pub data: DatabaseSnapshot,
    /// Registered view-object definitions.
    pub objects: Vec<ViewObject>,
    /// Chosen translators, keyed by object name.
    pub translators: BTreeMap<String, Translator>,
}

impl SavedSystem {
    /// Capture a system.
    pub fn capture(penguin: &Penguin) -> Self {
        Self::capture_with(penguin, DatabaseSnapshot::capture(penguin.database()))
    }

    /// Capture only the *definition* of a system — schema, objects,
    /// translators — with an empty data snapshot. Persistent systems
    /// (`Penguin::persistent` / `Penguin::open`) store definitions this
    /// way: base data lives in the `vo-store` checkpoint + log, not in
    /// the system file, mirroring the paper's remark that a saved view
    /// object is uninstantiated.
    pub fn capture_definition(penguin: &Penguin) -> Self {
        Self::capture_with(penguin, DatabaseSnapshot::capture(&Database::new()))
    }

    /// The system's definition around the given data image.
    fn capture_with(penguin: &Penguin, data: DatabaseSnapshot) -> Self {
        let mut objects = Vec::new();
        let mut translators = BTreeMap::new();
        for name in penguin.object_names() {
            let reg = penguin.object(name).expect("listed");
            objects.push(reg.object.clone());
            if let Some(updater) = &reg.updater {
                translators.insert(name.to_owned(), updater.translator().clone());
            }
        }
        SavedSystem {
            schema: penguin.schema().clone(),
            data,
            objects,
            translators,
        }
    }

    /// Restore a working system (re-validating object definitions and
    /// translators; schemas and tuples were validated when the image was
    /// captured or decoded).
    pub fn restore(&self) -> Result<Penguin> {
        self.restore_with_database(self.data.clone().restore()?)
    }

    /// Restore a system around an externally recovered database (e.g. one
    /// rebuilt by `vo-store` from checkpoint + log), ignoring this image's
    /// own data snapshot. Objects and translators are re-validated against
    /// the recovered data exactly as in [`SavedSystem::restore`].
    pub fn restore_with_database(&self, db: Database) -> Result<Penguin> {
        // re-validate connections against the catalog
        let mut schema = StructuralSchema::new(self.schema.catalog().clone());
        for c in self.schema.connections() {
            schema.add_connection(c.clone())?;
        }
        let mut penguin = Penguin::with_database(schema, db);
        for object in &self.objects {
            penguin.register_object(object.clone())?;
        }
        for (name, translator) in &self.translators {
            penguin.install_translator(name, translator.clone())?;
        }
        Ok(penguin)
    }

    /// Serialize to a JSON string: the compact encoding, pretty-printed.
    pub fn to_json(&self) -> Result<String> {
        Ok(parse(&encode(self))?.pretty())
    }

    /// Deserialize from a JSON string. The structural schema, every
    /// relation schema, every tuple, every connection, and every object
    /// definition are re-validated while decoding.
    pub fn from_json(json: &str) -> Result<Self> {
        decode(json)
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json()?)
            .map_err(|e| Error::InvalidSchema(format!("write failed: {e}")))
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::InvalidSchema(format!("read failed: {e}")))?;
        Self::from_json(&text)
    }
}

/// `objects` is read against `schema`, so it is kept as its text until the
/// whole document has been read.
impl JsonCodec for SavedSystem {
    type Error = Error;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.entry("schema", &self.schema);
        o.entry("data", &self.data);
        write_list_with(&self.objects, o.key("objects"), ViewObject::write_json);
        o.entry("translators", &self.translators);
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> Result<Self> {
        let (mut schema, mut data, mut objects, mut translators) = (None, None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "schema" => schema = Some(StructuralSchema::read_json(r)?),
                "data" => data = Some(DatabaseSnapshot::read_json(r)?),
                "objects" => objects = Some(r.raw_value()?),
                "translators" => translators = Some(JsonCodec::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        let schema = required(schema, "schema")?;
        let mut r = Reader::new(required(objects, "objects")?);
        let mut objects = Vec::new();
        r.begin_array()?;
        while r.next_element()? {
            objects.push(ViewObject::read_json(&mut r, &schema)?);
        }
        r.finish()?;
        Ok(SavedSystem {
            data: required(data, "data")?,
            objects,
            translators: required(translators, "translators")?,
            schema,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::{seed_figure4, university_schema};

    fn system() -> Penguin {
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

    #[test]
    fn json_roundtrip_preserves_everything() {
        let p = system();
        let saved = SavedSystem::capture(&p);
        let json = saved.to_json().unwrap();
        let reloaded = SavedSystem::from_json(&json).unwrap();
        let mut p2 = reloaded.restore().unwrap();

        // same data
        assert_eq!(p.database().total_tuples(), p2.database().total_tuples());
        // same object
        assert_eq!(p2.object("omega").unwrap().object.complexity(), 5);
        // translator survives: updates work without re-running the dialog
        let inst = p2.instance_by_key("omega", &Key::single("EE282")).unwrap();
        p2.delete_instance("omega", inst).unwrap();
        assert!(p2.check_consistency().unwrap().is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let p = system();
        let saved = SavedSystem::capture(&p);
        let path = std::env::temp_dir().join("penguin_vo_saved_system_test.json");
        saved.save(&path).unwrap();
        let loaded = SavedSystem::load(&path).unwrap();
        assert_eq!(loaded.objects.len(), 1);
        assert_eq!(loaded.translators.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_json_rejected() {
        assert!(SavedSystem::from_json("{not json").is_err());
        // structurally valid JSON but missing fields
        assert!(SavedSystem::from_json("{}").is_err());
    }

    #[test]
    fn tampered_object_rejected_on_restore() {
        let p = system();
        let saved = SavedSystem::capture(&p);
        // corrupt the object: drop the pivot's key attribute
        if let Some(o) = saved.objects.first() {
            let mut nodes: Vec<VoNode> = o.nodes().to_vec();
            nodes[0].attrs.retain(|a| a != "course_id");
            // rebuild bypassing validation is impossible through the public
            // API; emulate a tampered file via JSON editing
            let json = saved.to_json().unwrap();
            let bad = json.replace("\"course_id\",", "");
            if let Ok(tampered) = SavedSystem::from_json(&bad) {
                assert!(tampered.restore().is_err());
            }
        }
    }
}
