//! Pins the exact bytes of every JSON surface the workspace prints.
//!
//! Round-trip properties (`from_json(to_json(x)) == x`) would still pass
//! if the printer changed its spacing, its float form or its field order
//! on both sides at once. Program artifacts, configuration files and
//! reports are read by other tools, so their text is part of the
//! interface. This test pins the FNV-1a hash and byte length of each
//! output against `tests/serde_pin.txt`: every zoo network's compiled
//! program under both mappings, the paper chip's configuration, a
//! network description, lenet's analysis and bounds reports, a small
//! sweep campaign and the CI serving report, in pretty and compact form.
//!
//! Each fixture line is `name bytes fnv1a64_hex`. A change that alters
//! printed JSON on purpose must regenerate the file and say why; the
//! failure message prints the fresh lines.

use pimsim::analyze::{analyze, bounds};
use pimsim::nn::zoo;
use pimsim::prelude::*;
use pimsim::serve::ServeConfig;
use pimsim::sweep::{default_resolution, results_to_json, run_grid, SweepGrid};

const FIXTURE: &str = include_str!("serde_pin.txt");
const MAPPINGS: [(MappingPolicy, &str); 2] = [
    (MappingPolicy::PerformanceFirst, "performance-first"),
    (MappingPolicy::UtilizationFirst, "utilization-first"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(name: &str, text: &str) -> String {
    format!("{name} {} {:016x}", text.len(), fnv1a(text.as_bytes()))
}

fn check(got: Vec<String>, prefix: &str) {
    let want: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(prefix)).collect();
    assert!(!want.is_empty(), "fixture has no lines for `{prefix}`");
    assert!(
        got == want,
        "printed JSON drifted for `{prefix}`; fresh lines:\n{}",
        got.join("\n")
    );
}

fn compile(network: &str, policy: MappingPolicy) -> Program {
    let net = zoo::by_name(network, default_resolution(network)).unwrap();
    let arch = ArchConfig::paper_default();
    Compiler::new(&arch)
        .mapping(policy)
        .compile(&net)
        .unwrap()
        .program
}

#[test]
fn zoo_program_artifacts_are_pinned() {
    let mut got = Vec::new();
    for network in zoo::NAMES {
        for (policy, mapping) in MAPPINGS {
            let text = compile(network, policy).to_json();
            got.push(line(&format!("program/{network}/{mapping}"), &text));
        }
    }
    let lenet = compile("lenet", MappingPolicy::PerformanceFirst);
    got.push(line(
        "program/lenet/compact",
        &serde_json::to_string(&lenet).unwrap(),
    ));
    check(got, "program/");
}

#[test]
fn config_and_network_json_are_pinned() {
    let arch = ArchConfig::paper_default();
    let net = zoo::by_name("resnet18", 64).unwrap();
    check(
        vec![
            line("config/paper_default", &arch.to_json()),
            line(
                "config/paper_default/compact",
                &serde_json::to_string(&arch).unwrap(),
            ),
        ],
        "config/",
    );
    check(vec![line("network/resnet18", &net.to_json())], "network/");
}

#[test]
fn lenet_analysis_and_bounds_are_pinned() {
    let arch = ArchConfig::paper_default();
    let program = compile("lenet", MappingPolicy::PerformanceFirst);
    check(
        vec![
            line("analysis/lenet", &analyze(&program, &arch).to_json()),
            line("analysis/lenet/bounds", &bounds(&program, &arch).to_json()),
        ],
        "analysis/",
    );
}

#[test]
fn sweep_campaign_json_is_pinned() {
    let grid = SweepGrid {
        networks: vec!["tiny_mlp".into(), "tiny_cnn".into()],
        rob_sizes: vec![1, 8],
        routings: vec!["xy".into(), "adaptive".into()],
        ..SweepGrid::default()
    };
    let serving = SweepGrid {
        networks: vec!["tiny_mlp".into()],
        arrival_rates: vec![100_000.0],
        serve_duration: Some("200us".into()),
        ..SweepGrid::default()
    };
    check(
        vec![
            line("sweep/grid", &grid.to_json()),
            line("sweep/rows", &results_to_json(&run_grid(&grid, 2).unwrap())),
            line(
                "sweep/serving_rows",
                &results_to_json(&run_grid(&serving, 2).unwrap()),
            ),
        ],
        "sweep/",
    );
}

#[test]
fn ci_serve_report_is_pinned() {
    // `pimsim serve --networks tiny_mlp,tiny_cnn --rate 200000
    //  --duration 2ms --seed 42 --out serve_report.json`
    let mut config = ServeConfig::new(vec![("tiny_mlp".into(), 64), ("tiny_cnn".into(), 64)]);
    config.rate_rps = 200_000.0;
    config.duration = SimTime::from_ms(2);
    config.seed = 42;
    let report = pimsim::serve::serve(&config, 2).unwrap();
    check(vec![line("serve/ci_report", &report.to_json())], "serve/");
}
