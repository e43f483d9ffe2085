//! End-to-end CLI tests: drive the `ftrace` binary through generate →
//! info → analyze → coarsen → compare on real files.

use std::path::PathBuf;
use std::process::Command;

fn ftrace() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftrace"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ftrace-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_analyze_roundtrip() {
    let file = tmp("roundtrip.ftrace");
    let out = ftrace()
        .args([
            "generate",
            "--benchmark",
            "raytracer",
            "--ops",
            "4000",
            "--seed",
            "3",
        ])
        .args(["-o", file.to_str().unwrap()])
        .output()
        .expect("run ftrace generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = ftrace()
        .args(["analyze", file.to_str().unwrap(), "--tool", "FASTTRACK"])
        .output()
        .expect("run ftrace analyze");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FASTTRACK"), "{stdout}");
    assert!(
        stdout.contains("1 warning(s)"),
        "raytracer has one race: {stdout}"
    );

    let out = ftrace()
        .args(["oracle", file.to_str().unwrap()])
        .output()
        .expect("run ftrace oracle");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 racy pair"), "{stdout}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn coarsen_and_info() {
    let fine = tmp("fine.ftrace");
    let coarse = tmp("coarse.ftrace");
    assert!(ftrace()
        .args(["generate", "--benchmark", "series", "--ops", "3000"])
        .args(["-o", fine.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = ftrace()
        .args([
            "coarsen",
            fine.to_str().unwrap(),
            "-o",
            coarse.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = ftrace()
        .args(["info", coarse.to_str().unwrap()])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events"), "{stdout}");
    assert!(stdout.contains("mix: reads"), "{stdout}");
    std::fs::remove_file(&fine).ok();
    std::fs::remove_file(&coarse).ok();
}

#[test]
fn pipeline_command_reports_stages() {
    let file = tmp("pipe.ftrace");
    assert!(ftrace()
        .args(["generate", "--benchmark", "hedc", "--ops", "3000"])
        .args(["-o", file.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = ftrace()
        .args([
            "pipeline",
            file.to_str().unwrap(),
            "--filter",
            "FASTTRACK",
            "--checker",
            "VELODROME",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FASTTRACK"), "{stdout}");
    assert!(stdout.contains("VELODROME"), "{stdout}");
    assert!(
        stdout.contains("3 warning(s)"),
        "hedc's three races: {stdout}"
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn errors_are_reported_cleanly() {
    let out = ftrace()
        .args(["analyze", "/nonexistent.ftrace"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = ftrace().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = ftrace()
        .args(["generate", "--benchmark", "nope", "-o", "/tmp/x.ftrace"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

/// A 44-byte `.ftb` whose one BARRIER record claims `u32::MAX` members is a
/// decode error with exit status 1, not an allocation failure that aborts.
#[test]
fn forged_barrier_count_exits_with_an_error() {
    let mut bytes = ft_trace::FtbWriter::new(Vec::new(), 1, 0, 0)
        .unwrap()
        .finish()
        .unwrap();
    bytes.extend_from_slice(&[ft_trace::batch::opcode::BARRIER, 0, 0, 0]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    let file = tmp("barrier-bomb.ftb");
    std::fs::write(&file, &bytes).unwrap();
    let out = ftrace()
        .args(["analyze", file.to_str().unwrap()])
        .output()
        .unwrap();
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("barrier truncated"));
}
