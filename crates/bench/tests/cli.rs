//! Bad `repro` arguments end in a clean usage error: exit code 2, an
//! `error:` line on stderr, and no panic.

use std::path::Path;
use std::process::Command;

/// Runs `repro args` in `dir` and asserts the usage-error contract.
fn assert_usage_error(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "{args:?}: no error line: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// A scratch directory holding one regular file, `file`: paths below it
/// can never be created.
fn dir_with_file(tag: &str) -> std::path::PathBuf {
    let dir = cata_sim::scratch_dir(tag);
    std::fs::write(dir.join("file"), "").expect("create regular file");
    dir
}

#[test]
fn csv_under_a_regular_file_is_a_usage_error() {
    let dir = dir_with_file("cli-csv");
    let args = ["preset", "CATA", "--bench", "dedup", "--scale", "tiny"];
    assert_usage_error(&dir, &[&args[..], &["--csv", "file/sub"]].concat());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn perf_out_under_a_regular_file_is_a_usage_error() {
    let dir = dir_with_file("cli-perf");
    assert_usage_error(&dir, &["perf", "--smoke", "--out", "file/sub"]);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_preset_is_a_usage_error() {
    let dir = cata_sim::scratch_dir("cli-preset");
    assert_usage_error(&dir, &["preset", "NO-SUCH-PRESET", "--scale", "tiny"]);
    std::fs::remove_dir_all(dir).ok();
}
