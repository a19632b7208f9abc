//! `toolchain`: the static path a user runs without simulating, per
//! network: `compile --out` (compile, `to_json`), `check prog.json`
//! (`from_json`, `analyze`) and `bound`. Fixed inputs; the seed is not used.
//!
//! No pass calls `Simulator::run`: the one simulation per network that the
//! `bound ≤ simulated` check needs happens in set-up.

use std::collections::BTreeMap;

use pimsim::analyze::{analyze, bounds, dag::Dag, Cfg};
use pimsim::arch::ArchConfig;
use pimsim::compiler::{lower, mapping, Compiler, MappingPolicy};
use pimsim::isa::Program;
use pimsim::nn::{zoo, Network};
use pimsim::sim::Simulator;

use crate::trace::Tracer;
use crate::{median, median_by_key, repeat_for, Digest, Opts, Outcome, Samples};

pub const NETWORKS: [&str; 3] = ["lenet", "resnet34", "googlenet"];

/// The CLI's default input resolution for these networks.
const RESOLUTION: u32 = 64;

/// Set-up repetitions; their scaled median is `setup_s`.
const SETUP_REPS: usize = 9;

/// A network with its simulated latency, the ceiling for its bound.
struct Target {
    name: &'static str,
    net: Network,
    latency_ps: u64,
}

/// Exact work counts and the output digest of one pass.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    artifact_bytes: u64,
    rendezvous_pairs: u64,
    diagnostics: u64,
    dag_nodes: u64,
    digest: u64,
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let arch = ArchConfig::paper_default();
    let mut out = Outcome::default();

    // Set-up: build each network and simulate it once.
    let mut setup = Samples::new(1, 1);
    let mut targets: Vec<Target> = Vec::new();
    for _ in 0..SETUP_REPS {
        let built = setup.time(|| build_targets(&arch))?;
        if targets.is_empty() {
            targets = built;
        } else {
            for (t, again) in targets.iter().zip(&built) {
                out.check(t.latency_ps == again.latency_ps, || {
                    format!("toolchain: {} simulated twice gave two latencies", t.name)
                });
            }
        }
    }

    // Each network is timed on its own, so the calibration around it
    // tracks the host's speed over seconds rather than over a whole pass.
    let mut first: Option<Counts> = None;
    let mut per_network: Vec<Samples> = targets.iter().map(|_| Samples::new(1, 4)).collect();
    let mut untraced = |out: &mut Outcome, first: &mut Option<Counts>| -> Result<(), String> {
        let mut counts = Counts::default();
        let mut digest = Digest::default();
        let mut tracer = Tracer::new(false);
        for (target, samples) in targets.iter().zip(&mut per_network) {
            samples.time(|| network(target, &arch, out, &mut tracer, &mut counts, &mut digest))?;
        }
        counts.digest = digest.value();
        check_repeat(out, first, &counts);
        Ok(())
    };
    if !opts.trace {
        repeat_for(opts.seconds, || untraced(&mut out, &mut first))?;
        let networks = targets.len() as f64;
        let raw_s: f64 = per_network.iter().map(Samples::raw_s).sum();
        let scaled_s: f64 = per_network.iter().map(Samples::scaled_s).sum();
        println!(
            "pimbench: toolchain unscaled: {:.4} networks/s, set-up {:.4} s",
            networks / raw_s,
            setup.raw_s()
        );
        out.digest = first.map_or(0, |c| c.digest);
        out.metrics.insert("ops_per_s", networks / scaled_s);
        out.metrics.insert("setup_s", setup.scaled_s());
        return Ok(out);
    }

    let mut traced_s = Vec::new();
    let mut passes = Vec::new();
    let mut events = String::new();
    repeat_for(opts.seconds, || {
        untraced(&mut out, &mut first)?;
        let mut tracer = Tracer::new(true);
        let counts = traced_pass(&targets, &arch, &mut out, &mut tracer)?;
        check_repeat(&mut out, &mut first, &counts);
        let (metrics, user_s) = layer_metrics(&tracer, &counts);
        traced_s.push(user_s);
        passes.push(metrics);
        tracer.write_events(passes.len(), &mut events);
        Ok(())
    })?;
    out.digest = first.map_or(0, |c| c.digest);
    out.metrics = median_by_key(&passes);
    out.metrics.insert(
        "trace.overhead_pct",
        (median(&traced_s) / per_network.iter().map(Samples::raw_s).sum::<f64>() - 1.0) * 100.0,
    );
    out.trace_events = events;
    Ok(out)
}

/// Checks that a pass reproduced the first pass's artifacts and bounds
/// reports byte for byte (`dag_nodes` is only counted when traced).
fn check_repeat(out: &mut Outcome, first: &mut Option<Counts>, counts: &Counts) {
    let counts = Counts {
        dag_nodes: 0,
        ..*counts
    };
    match first {
        None => *first = Some(counts),
        Some(want) => out.check(counts == *want, || {
            "toolchain: a pass's artifacts or bounds reports differ from the first pass's".into()
        }),
    }
}

fn build_targets(arch: &ArchConfig) -> Result<Vec<Target>, String> {
    NETWORKS
        .iter()
        .map(|&name| {
            let net = zoo::by_name(name, RESOLUTION).ok_or(format!("unknown network {name}"))?;
            let compiled = Compiler::new(arch)
                .compile(&net)
                .map_err(|e| e.to_string())?;
            let report = Simulator::new(arch)
                .run(&compiled.program)
                .map_err(|e| format!("{name}: {e}"))?;
            Ok(Target {
                name,
                net,
                latency_ps: report.latency.as_ps(),
            })
        })
        .collect()
}

/// One traced pass over every network, checking each network's outputs.
fn traced_pass(
    targets: &[Target],
    arch: &ArchConfig,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let mut counts = Counts::default();
    let mut digest = Digest::default();
    tracer.span("toolchain.pass", |t| {
        for target in targets {
            t.span("toolchain.network", |t| {
                network(target, arch, out, t, &mut counts, &mut digest)
            })?;
        }
        Ok::<(), String>(())
    })?;
    counts.digest = digest.value();
    Ok(counts)
}

fn network(
    target: &Target,
    arch: &ArchConfig,
    out: &mut Outcome,
    t: &mut Tracer,
    counts: &mut Counts,
    digest: &mut Digest,
) -> Result<(), String> {
    let net = &target.net;
    let name = target.name;
    if t.enabled() {
        // Attribution only: `compile` reruns both internally.
        let lowered = t
            .span("compiler.lower", |_| lower(net))
            .map_err(|e| e.to_string())?;
        t.span("compiler.place", |_| {
            mapping::place(&lowered, arch, MappingPolicy::PerformanceFirst)
        })
        .map_err(|e| e.to_string())?;
    }
    let compiled = t
        .span("compiler.compile", |_| Compiler::new(arch).compile(net))
        .map_err(|e| format!("{name}: {e}"))?;
    let artifact = t.span("isa.to_json", |_| compiled.program.to_json());
    let program = t
        .span("isa.from_json", |_| Program::from_json(&artifact))
        .map_err(|e| format!("{name}: {e}"))?;
    out.check(program == compiled.program, || {
        format!("toolchain: {name}: from_json(to_json(p)) != p")
    });
    let analysis = t.span("analyze.analyze", |_| analyze(&program, arch));
    out.check(!analysis.has_errors(), || {
        format!("toolchain: {name}: analysis errors: {}", analysis.summary())
    });
    if t.enabled() {
        // Attribution only: `bounds` builds both internally.
        let cfgs: Vec<Cfg> = t.span("analyze.cfg", |_| {
            program
                .cores
                .iter()
                .map(|c| Cfg::build(&c.instrs))
                .collect()
        });
        let dag = t.span("analyze.dag", |_| {
            Dag::build(&program, &cfgs, &analysis.rendezvous)
        });
        counts.dag_nodes += dag.nodes.len() as u64;
    }
    let report = t.span("analyze.bounds", |_| bounds(&program, arch));
    out.check(
        report.complete && report.latency_lb_ps <= target.latency_ps,
        || {
            format!(
                "toolchain: {name}: bound complete={} lb={} ps against {} ps simulated",
                report.complete, report.latency_lb_ps, target.latency_ps
            )
        },
    );
    counts.artifact_bytes += artifact.len() as u64;
    counts.rendezvous_pairs += analysis.rendezvous.pairs.len() as u64;
    counts.diagnostics += analysis.diagnostics.len() as u64;
    digest.update(report.to_json().as_bytes());
    Ok(())
}

/// Per-layer metrics of one traced pass, and the pass's host time in the
/// calls the untraced pass also makes (attribution-only calls excluded).
fn layer_metrics(tracer: &Tracer, counts: &Counts) -> (BTreeMap<&'static str, f64>, f64) {
    let ms = tracer.self_ms();
    let get = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let (lower, place) = (get("compiler.lower"), get("compiler.place"));
    let (analyze, cfg, dag) = (
        get("analyze.analyze"),
        get("analyze.cfg"),
        get("analyze.dag"),
    );
    let wall_ms = tracer.spans()[0].duration_ns() as f64 / 1e6;
    let m = BTreeMap::from([
        ("compiler.lower_ms", lower),
        ("compiler.place_ms", place),
        (
            "compiler.codegen_ms",
            get("compiler.compile") - lower - place,
        ),
        ("isa.to_json_ms", get("isa.to_json")),
        ("isa.from_json_ms", get("isa.from_json")),
        ("analyze.analyze_ms", analyze),
        ("analyze.cfg_ms", cfg),
        ("analyze.dag_ms", dag),
        (
            "analyze.bounds_rest_ms",
            get("analyze.bounds") - analyze - cfg - dag,
        ),
        ("isa.artifact_bytes", counts.artifact_bytes as f64),
        ("analyze.dag_nodes", counts.dag_nodes as f64),
        ("analyze.rendezvous_pairs", counts.rendezvous_pairs as f64),
        ("analyze.diagnostics", counts.diagnostics as f64),
    ]);
    (m, (wall_ms - lower - place - cfg - dag) / 1e3)
}
