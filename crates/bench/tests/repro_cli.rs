//! `repro`'s command line: a mistyped section is an error, not a silent
//! run of nothing.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_section_exits_2_and_writes_no_telemetry() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli-unknown");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "tabel2"])
        .current_dir(&dir)
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("\"tabel2\""),
        "stderr names the bad key: {err}"
    );
    assert!(
        err.contains("table2") && err.contains("members"),
        "stderr lists the sections: {err}"
    );
    assert!(out.stdout.is_empty(), "no section ran");
    assert!(!dir.join("telemetry.json").exists());
}
