//! The `repro critpath <file.lcmtrace>` CLI contract: corrupt or
//! truncated inputs are usage-level failures — exit code 2 with the
//! format layer's named error on stderr, never a panic. `repro replay`
//! reports the same errors as a failed validation (exit 1).

use lcm_apps::unstructured::Unstructured;
use lcm_apps::SystemKind;
use lcm_bench::explore;
use lcm_sim::{CostModel, MachineConfig};
use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcm-critpath-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A small genuine capture to corrupt.
fn write_capture(path: &std::path::Path) {
    let file = explore::capture_workload(
        "Unstructured",
        "smoke",
        SystemKind::LcmMcc,
        MachineConfig::new(4).with_cost(CostModel::cm5()),
        &Unstructured::small(),
    )
    .expect("capture holds the whole stream");
    file.write_to(path).expect("writes");
}

#[test]
fn critpath_accepts_a_genuine_capture() {
    let dir = scratch_dir("ok");
    let path = dir.join("unstructured.lcmtrace");
    write_capture(&path);
    let out = repro().arg("critpath").arg(&path).output().expect("runs");
    assert!(
        out.status.success(),
        "genuine capture analyzes: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("makespan"), "report prints: {stdout}");
    assert!(stdout.contains("causal what-ifs"), "what-ifs print");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn critpath_exits_2_on_a_truncated_capture() {
    let dir = scratch_dir("trunc");
    let path = dir.join("unstructured.lcmtrace");
    write_capture(&path);
    let bytes = std::fs::read(&path).expect("reads back");
    let cut = dir.join("truncated.lcmtrace");
    std::fs::write(&cut, &bytes[..bytes.len() / 2]).expect("writes truncation");
    let out = repro().arg("critpath").arg(&cut).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "truncated capture exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("critpath:") && stderr.contains("truncated.lcmtrace"),
        "error names the subcommand and the path: {stderr}"
    );
    assert!(
        stderr.contains("checksum") || stderr.contains("too short") || stderr.contains("truncat"),
        "error names the format failure: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn critpath_exits_2_on_garbage() {
    let dir = scratch_dir("garbage");
    let path = dir.join("garbage.lcmtrace");
    std::fs::write(&path, b"this is not a trace").expect("writes garbage");
    let out = repro().arg("critpath").arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "garbage exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a .lcmtrace")
            || stderr.contains("magic")
            || stderr.contains("checksum"),
        "error names the format failure: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn critpath_exits_2_on_a_missing_file() {
    let out = repro()
        .arg("critpath")
        .arg("/nonexistent/never.lcmtrace")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "missing file exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("never.lcmtrace"),
        "error names the path: {stderr}"
    );
}

/// A finite-bandwidth capture declaring a fat tree of arity 1 has no
/// contention fabric to price it on: both subcommands must report the
/// decoder's named error, not panic (exit 101) building the fabric.
#[test]
fn degenerate_fat_tree_is_a_named_error_not_a_panic() {
    let dir = scratch_dir("arity");
    let path = dir.join("arity1.lcmtrace");
    let mut file = explore::capture_workload(
        "Unstructured",
        "smoke",
        SystemKind::LcmMcc,
        MachineConfig::new(4).with_cost(CostModel::cm5()),
        &Unstructured::small(),
    )
    .expect("capture holds the whole stream");
    file.topology = lcm_sim::Topology::FatTree { arity: 1 };
    file.cost.link_bandwidth_bytes_per_cycle = 16;
    file.write_to(&path).expect("writes");
    for (cmd, code) in [("replay", 1), ("critpath", 2)] {
        let out = repro().arg(cmd).arg(&path).output().expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{cmd}: {stderr}");
        assert!(stderr.contains("arity 1 is below 2"), "{cmd}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
