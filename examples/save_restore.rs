//! Saving and restoring a PENGUIN system: object definitions and
//! dialog-chosen translators are plain data ("only its definition is
//! saved", §3), so a system round-trips through JSON and keeps updating
//! without re-running the DBA dialog.
//!
//! ```text
//! cargo run --example save_restore
//! ```

use penguin_vo::prelude::*;
use vo_penguin::SavedSystem;

fn main() -> Result<()> {
    // build and configure a system
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )?;
    let mut responder = paper_dialog_responder();
    let questions = penguin.choose_translator("omega", &mut responder)?.len();
    println!("configured: object `omega`, translator chosen ({questions} questions)");

    // save
    let saved = SavedSystem::capture(&penguin);
    let path = std::env::temp_dir().join("penguin_vo_demo.json");
    saved.save(&path)?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("saved to {} ({bytes} bytes of JSON)", path.display());

    // restore in a "new process" and update without any dialog
    let restored = SavedSystem::load(&path)?;
    let mut penguin2 = restored.restore()?;
    println!(
        "restored: {} objects, {} tuples",
        penguin2.object_names().len(),
        penguin2.database().total_tuples()
    );
    let inst = penguin2.instance_by_key("omega", &Key::single("EE282"))?;
    let outcome = penguin2.delete_instance("omega", inst)?;
    println!(
        "deleted EE282 through the restored translator ({} ops); consistent: {}",
        outcome.ops.len(),
        penguin2.check_consistency()?.is_empty()
    );

    // definitions survive even though the data diverged
    penguin2.sql("INSERT INTO DEPARTMENT VALUES ('Mathematics')")?;
    let saved2 = SavedSystem::capture(&penguin2);
    println!(
        "re-captured system has {} departments",
        saved2
            .data
            .relations
            .iter()
            .find(|r| r.schema().name() == "DEPARTMENT")
            .map(|r| r.rows().len())
            .unwrap_or(0)
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
