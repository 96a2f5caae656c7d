//! Command-line contracts of the baseline binaries: a malformed command
//! line prints a usage line and exits 2 before doing any work.

use std::process::Command;

#[test]
fn bench_baseline_rejects_a_flag_without_writing_a_file() {
    let dir = std::env::temp_dir().join(format!("deca_bench_cli_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir must be creatable");
    let output = Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .arg("--help")
        .current_dir(&dir)
        .output()
        .expect("bench_baseline must spawn");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir must list")
        .map(|entry| entry.expect("entry must read").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(written.is_empty(), "wrote {written:?}");
    assert!(String::from_utf8_lossy(&output.stderr).starts_with("usage: bench_baseline"));
}

#[test]
fn bench_drift_rejects_a_single_artifact() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_drift"))
        .arg("BENCH_baseline.json")
        .output()
        .expect("bench_drift must spawn");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).starts_with("usage: bench_drift"));
}
