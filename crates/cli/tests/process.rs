//! Tests that drive the `pimsim` binary as a separate process: how it
//! exits when its stdout goes away, and when a configuration is invalid.

use std::process::{Command, Output, Stdio};

use pimsim_arch::ArchConfig;

fn pimsim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pimsim"));
    cmd.args(args);
    cmd
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn closed_stdout_ends_quietly() {
    for args in [
        &["bound", "--network", "tiny_cnn", "--format", "json"][..],
        &["bound", "--network", "tiny_cnn"],
        &["compile", "--network", "tiny_cnn"],
        &["config"],
        &["networks"],
    ] {
        // The read end is closed before the child starts, so its first
        // write fails with a broken pipe.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = pimsim(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let err = stderr(&out);
        assert!(out.status.success(), "{args:?}: {:?}\n{err}", out.status);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("error"), "{args:?}: {err}");
    }
}

#[test]
fn meshes_beyond_the_core_id_space_are_config_errors() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    for (rows, cols) in [(60000u16, 8u16), (8192, 8)] {
        let mut arch = ArchConfig::paper_default();
        arch.resources.core_rows = rows;
        arch.resources.core_cols = cols;
        let path = format!("{dir}/mesh-{rows}x{cols}.json");
        arch.to_file(&path).unwrap();
        for cmd in ["run", "bound"] {
            let out = pimsim(&[cmd, "--network", "tiny_mlp", "--config", &path])
                .output()
                .unwrap();
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{cmd} {rows}x{cols}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {rows}x{cols}: {err}");
            assert!(
                err.contains("invalid configuration field `resources.core_rows`")
                    && err.contains(&format!("mesh {rows}x{cols}")),
                "{cmd} {rows}x{cols}: {err}"
            );
        }
    }
}

#[test]
fn deeply_nested_json_is_a_parse_error_not_an_abort() {
    let path = format!("{}/deep.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    for cmd in ["check", "bound"] {
        let out = pimsim(&[cmd, &path]).output().unwrap();
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(
            err.contains("parse error at line 1: recursion limit exceeded"),
            "{cmd}: {err}"
        );
        assert!(
            !err.contains("overflow") && !err.contains("panicked"),
            "{cmd}: {err}"
        );
    }
}
