//! The golden-file mechanism shared by `wire_and_disk_golden.rs` and
//! `paper_artifacts.rs`.

use std::path::PathBuf;

/// Compare `actual` byte for byte with `tests/golden/<name>`. A missing
/// file is written from `actual` and the test fails, naming it: review
/// the new file and commit it.
pub fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    match std::fs::read_to_string(&path) {
        Ok(expected) => assert!(
            expected == actual,
            "{name}: output drifted from the golden file\n--- golden\n{expected}\n--- now\n{actual}"
        ),
        Err(_) => {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, actual).unwrap();
            panic!(
                "{name}: no golden file; wrote one from the current output — review and commit it"
            );
        }
    }
}
