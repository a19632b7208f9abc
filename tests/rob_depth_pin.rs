//! Pins absolute simulated results across ROB depths.
//!
//! Every other gate compares two runs of the current code (reruns,
//! thread counts, engines) or checks a relation (bound <= simulated).
//! None would notice a rewrite of the ROB issue logic that shifted every
//! run the same way. This test pins `latency_ps`, the kernel event count
//! and the exact bits of the total energy for three zoo networks under
//! both mappings, at ROB 1, 2, 4, 8, 16 and 64, with the crossbar
//! structure hazard on and off, against `tests/rob_depth_pin.txt`.
//!
//! Each fixture line is
//! `network mapping rob hazard latency_ps events energy_bits_hex`.
//! A simulator change that moves simulated time on purpose must
//! regenerate the file and say why; the failure message prints the
//! fresh lines for the network that drifted.

use pimsim::nn::zoo;
use pimsim::prelude::*;

const FIXTURE: &str = include_str!("rob_depth_pin.txt");
const ROBS: [u32; 6] = [1, 2, 4, 8, 16, 64];
const MAPPINGS: [(MappingPolicy, &str); 2] = [
    (MappingPolicy::PerformanceFirst, "performance-first"),
    (MappingPolicy::UtilizationFirst, "utilization-first"),
];

/// The fixture lines this build produces for `network`.
fn lines_for(network: &str) -> Vec<String> {
    let net = zoo::by_name(network, pimsim::sweep::default_resolution(network)).unwrap();
    let mut out = Vec::new();
    for (policy, mapping) in MAPPINGS {
        // ROB depth and the structure hazard are run-time knobs only: one
        // compiled program serves every variant.
        let base = ArchConfig::paper_default();
        let compiled = Compiler::new(&base).mapping(policy).compile(&net).unwrap();
        for rob in ROBS {
            for hazard in [true, false] {
                let mut arch = base.clone().with_rob(rob);
                arch.sim.structure_hazard = hazard;
                let r = Simulator::new(&arch).run(&compiled.program).unwrap();
                out.push(format!(
                    "{network} {mapping} {rob} {hazard} {} {} {:016x}",
                    r.latency.as_ps(),
                    r.events,
                    r.energy.total().as_pj().to_bits()
                ));
            }
        }
    }
    out
}

fn check(network: &str) {
    let want: Vec<&str> = FIXTURE
        .lines()
        .filter(|l| l.split(' ').next() == Some(network))
        .collect();
    assert_eq!(want.len(), 24, "fixture must hold 24 lines for {network}");
    let got = lines_for(network);
    assert!(
        got == want,
        "simulated results drifted for {network}; fresh lines:\n{}",
        got.join("\n")
    );
}

#[test]
fn tiny_cnn_results_are_pinned_across_rob_depths() {
    check("tiny_cnn");
}

#[test]
fn lenet_results_are_pinned_across_rob_depths() {
    check("lenet");
}

#[test]
fn vgg8_results_are_pinned_across_rob_depths() {
    check("vgg8");
}
