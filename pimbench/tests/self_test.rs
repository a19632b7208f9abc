//! Short-mode self-test of the benchmark: every workload runs twice with
//! one pass per phase. The exact counts and the simulated-output digest
//! must repeat, every check must pass, and each run must print exactly the
//! metrics `BENCHMARK.json` names, with their units.
//!
//! Run with `cargo test --release --manifest-path pimbench/Cargo.toml`.

use std::process::Command;

use serde_json::Value;

/// The metric names and units of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().expect("a string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    digest: String,
    result: Value,
}

fn run(workload: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_pimbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find(|l| l.contains(" digest "))
        .expect("a digest line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(
        result["correct"].as_bool(),
        Some(true),
        "{workload}: {last}"
    );
    assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {last}");
    assert!(
        result["attempted"].as_u64().unwrap_or(0) >= 1,
        "{workload}: {last}"
    );
    Run { digest, result }
}

/// Checks that `run` printed exactly the `declared` metrics and units.
fn assert_metrics(workload: &str, run: &Run, declared: &[(String, String)]) {
    let metrics = run.result["metrics"].as_object().expect("a metrics object");
    assert_eq!(metrics.len(), declared.len(), "{workload}: metric count");
    for (name, unit) in declared {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
        assert!(
            m["value"].as_f64().is_some(),
            "{workload}: {name} is not a number"
        );
    }
}

fn value(run: &Run, name: &str) -> f64 {
    run.result["metrics"][name]["value"]
        .as_f64()
        .expect("a number")
}

/// `layers`: the metric-name prefixes of the layers `workload` calls. Their
/// times must be positive; every other layer must read 0.
fn self_test(workload: &str, layers: &[&str]) {
    let per_layer = declared("per_layer");
    let first = run(workload, "1");
    let second = run(workload, "1");
    assert_metrics(workload, &first, &per_layer);
    assert_metrics(workload, &second, &per_layer);
    assert_eq!(first.digest, second.digest, "{workload}: digest moved");
    for (name, unit) in &per_layer {
        let (a, b) = (value(&first, name), value(&second, name));
        let called = layers.iter().any(|p| name.starts_with(p));
        if unit == "count" {
            assert_eq!(a, b, "{workload}: count {name} moved");
        } else if unit == "ms" || unit == "ns" {
            assert_eq!(a > 0.0, called, "{workload}: {name} = {a}");
        }
        if !called {
            assert_eq!(a, 0.0, "{workload}: {name} is outside its layers");
        }
    }

    let end_to_end = run(workload, "0");
    assert_metrics(workload, &end_to_end, &declared("end_to_end"));
    assert_eq!(first.digest, end_to_end.digest, "{workload}: digest moved");
    for (name, _) in declared("end_to_end") {
        assert!(
            value(&end_to_end, &name) > 0.0,
            "{workload}: {name} is not positive"
        );
    }
}

#[test]
fn dse_repeats() {
    self_test("dse", &["compiler.", "core.", "sweep.", "trace."]);
}

#[test]
fn toolchain_repeats() {
    self_test("toolchain", &["compiler.", "isa.", "analyze.", "trace."]);
}

#[test]
fn serve_repeats() {
    self_test("serve", &["serve.", "trace."]);
}
