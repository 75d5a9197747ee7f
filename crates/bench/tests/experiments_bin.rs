//! The `experiments` bin's dispatch, through the binary itself.

use rpas_bench::experiments::EXPERIMENTS;
use std::process::Command;

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.env("RPAS_LOG", "off").env("RPAS_PROFILE", "quick");
    cmd
}

#[test]
fn unknown_name_exits_nonzero_and_lists_the_valid_names() {
    let out = experiments().args(["fig5", "fig99"]).output().expect("run experiments");
    assert_eq!(out.status.code(), Some(2), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"), "stderr does not name the unknown experiment: {stderr}");
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "stderr does not list {name}: {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "ran something before rejecting the name");
}

#[test]
fn fig5_writes_its_csv_under_the_results_dir() {
    let dir = std::env::temp_dir().join(format!("rpas-experiments-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out =
        experiments().arg("fig5").env("RPAS_RESULTS_DIR", &dir).output().expect("run experiments");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(dir.join("fig5.csv")).expect("fig5.csv written");
    assert!(csv.starts_with("checkpoint_gb,warmup_secs\n"), "{csv}");
    assert_eq!(csv.lines().count(), 9, "a header and eight sizes: {csv}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("shape: holds  fig5"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
