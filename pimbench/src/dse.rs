//! `dse`: the paper's design-space-exploration use case, a 32-point
//! `run_grid` campaign. Fixed inputs; the seed is not used.
//!
//! The grid crosses four zoo networks with ROB 1 against the paper's ROB 8
//! (the hazard scan), XY against adaptive routing (hop-by-hop NoC walks) and
//! both mapping policies. Nearly all host time is in `Simulator::run`.

use std::collections::BTreeMap;

use pimsim::compiler::{lower, mapping, Compiler};
use pimsim::nn::zoo;
use pimsim::sim::{SimReport, Simulator};
use pimsim::sweep::{results_to_json, run_grid, Scenario, SweepGrid, SweepRow};

use crate::trace::Tracer;
use crate::{median, median_by_key, repeat_for, threads, timed, Digest, Opts, Outcome, Samples};

pub const GRID: &str = r#"{
  "networks": ["lenet", "vgg8", "resnet34", "googlenet"],
  "rob_sizes": [1, 8],
  "mappings": ["performance-first", "utilization-first"],
  "routings": ["xy", "adaptive"]
}"#;

/// Single-thread reference campaigns run as set-up; their scaled median is
/// `setup_s`.
const SETUP_REPS: usize = 3;

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let grid = SweepGrid::from_json(GRID).map_err(|e| e.to_string())?;
    let scenarios = grid.scenarios().map_err(|e| e.to_string())?;
    let threads = threads();
    let mut out = Outcome::default();

    // Set-up: the single-thread campaign every later pass must reproduce.
    let mut setup = Samples::new(1, 1);
    let mut reference: Vec<SweepRow> = Vec::new();
    for _ in 0..SETUP_REPS {
        let rows = setup
            .time(|| run_grid(&grid, 1))
            .map_err(|e| e.to_string())?;
        if reference.is_empty() {
            reference = rows;
        } else {
            check_rows(&mut out, &reference, &rows, "1-thread rerun");
        }
    }
    out.digest = Digest::of(results_to_json(&reference).as_bytes());

    let mut grid_s = Samples::new(threads, 2);
    if !opts.trace {
        repeat_for(opts.seconds, || {
            campaign(&grid, threads, &reference, &mut out, &mut grid_s)
        })?;
        let points = scenarios.len() as f64;
        println!(
            "pimbench: dse unscaled: {:.3} points/s, set-up {:.4} s",
            points / grid_s.raw_s(),
            setup.raw_s()
        );
        out.metrics.insert("ops_per_s", points / grid_s.scaled_s());
        out.metrics.insert("setup_s", setup.scaled_s());
        return Ok(out);
    }

    // Traced run: the campaign untraced, then the same points through the
    // direct calls, untraced and traced.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut passes = Vec::new();
    let mut events = String::new();
    repeat_for(opts.seconds, || {
        campaign(&grid, threads, &reference, &mut out, &mut grid_s)?;
        let (secs, untraced) = timed(|| direct_pass(&scenarios, &mut Tracer::new(false)));
        untraced?;
        untraced_s.push(secs);
        let mut tracer = Tracer::new(true);
        let (reports, counts) = direct_pass(&scenarios, &mut tracer)?;
        for ((s, row), (latency_ps, events)) in scenarios.iter().zip(&reference).zip(reports) {
            out.check(latency_ps == row.latency_ps && events == row.events, || {
                format!(
                    "dse: direct calls of `{}` gave {latency_ps} ps / {events} events, the campaign {} ps / {} events",
                    s.display_label(),
                    row.latency_ps,
                    row.events
                )
            });
        }
        let (pass, user_s) = layer_metrics(&tracer, counts);
        traced_s.push(user_s);
        passes.push(pass);
        tracer.write_events(passes.len(), &mut events);
        Ok(())
    })?;
    out.metrics = median_by_key(&passes);
    out.metrics.insert(
        "sweep.parallel_efficiency",
        median(&traced_s) / (threads as f64 * grid_s.raw_s()),
    );
    out.metrics.insert(
        "trace.overhead_pct",
        (median(&traced_s) / median(&untraced_s) - 1.0) * 100.0,
    );
    out.trace_events = events;
    Ok(out)
}

/// One timed `run_grid` pass on `threads` workers, checked row by row.
fn campaign(
    grid: &SweepGrid,
    threads: usize,
    reference: &[SweepRow],
    out: &mut Outcome,
    grid_s: &mut Samples,
) -> Result<(), String> {
    let rows = grid_s
        .time(|| run_grid(grid, threads))
        .map_err(|e| e.to_string())?;
    check_rows(out, reference, &rows, &format!("{threads}-thread pass"));
    Ok(())
}

fn check_rows(out: &mut Outcome, reference: &[SweepRow], rows: &[SweepRow], what: &str) {
    out.check(rows.len() == reference.len(), || {
        format!(
            "dse {what}: {} rows, expected {}",
            rows.len(),
            reference.len()
        )
    });
    for (row, want) in rows.iter().zip(reference) {
        out.check(row == want, || {
            format!("dse {what}: row {} differs from the reference", row.index)
        });
    }
}

/// Simulated work summed over one direct pass, by ROB size.
#[derive(Debug, Default)]
struct Counts {
    events_rob8: u64,
    events_rob1: u64,
    instructions: u64,
}

/// Compiles and simulates every scenario through the layers' own calls.
/// Returns each report's `(latency_ps, events)` in scenario order.
fn direct_pass(
    scenarios: &[Scenario],
    tracer: &mut Tracer,
) -> Result<(Vec<(u64, u64)>, Counts), String> {
    let mut counts = Counts::default();
    let mut reports = Vec::with_capacity(scenarios.len());
    tracer.span("sweep.pass", |t| {
        for s in scenarios {
            let report = t.span("sweep.point", |t| point(s, t))?;
            match s.arch.resources.rob_size {
                8 => counts.events_rob8 += report.events,
                1 => counts.events_rob1 += report.events,
                _ => {}
            }
            counts.instructions += report.instructions;
            reports.push((report.latency.as_ps(), report.events));
        }
        Ok((reports, counts))
    })
}

fn point(s: &Scenario, t: &mut Tracer) -> Result<SimReport, String> {
    let net = t
        .span("nn.zoo", |_| zoo::by_name(&s.network, s.resolution))
        .ok_or_else(|| format!("unknown network {}", s.network))?;
    if t.enabled() {
        // Attribution only: `compile` reruns both internally.
        let lowered = t
            .span("compiler.lower", |_| lower(&net))
            .map_err(|e| e.to_string())?;
        t.span("compiler.place", |_| {
            mapping::place(&lowered, &s.arch, s.mapping)
        })
        .map_err(|e| e.to_string())?;
    }
    let compiled = t
        .span("compiler.compile", |_| {
            Compiler::new(&s.arch)
                .mapping(s.mapping)
                .batch(s.batch)
                .compile(&net)
        })
        .map_err(|e| e.to_string())?;
    let sim = format!(
        "core.sim.rob{}.{}",
        s.arch.resources.rob_size,
        s.arch.noc.routing.name()
    );
    t.span(&sim, |_| Simulator::new(&s.arch).run(&compiled.program))
        .map_err(|e| e.to_string())
}

/// Per-layer metrics of one traced pass, and the pass's host time in the
/// calls the campaign also makes (attribution-only calls excluded).
fn layer_metrics(tracer: &Tracer, counts: Counts) -> (BTreeMap<&'static str, f64>, f64) {
    let ms = tracer.self_ms();
    let get = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let sim = |prefix: &str| tracer.self_ms_prefixed(prefix);
    let (lower, place) = (get("compiler.lower"), get("compiler.place"));
    let (rob8, rob1) = (sim("core.sim.rob8."), sim("core.sim.rob1."));
    let wall_ms = tracer.spans()[0].duration_ns() as f64 / 1e6;
    let m = BTreeMap::from([
        ("compiler.lower_ms", lower),
        ("compiler.place_ms", place),
        (
            "compiler.codegen_ms",
            get("compiler.compile") - lower - place,
        ),
        ("core.sim_ms.rob8", rob8),
        ("core.sim_ms.rob1", rob1),
        (
            "core.sim_ms.xy",
            sim("core.sim.rob8.xy") + sim("core.sim.rob1.xy"),
        ),
        (
            "core.sim_ms.adaptive",
            sim("core.sim.rob8.adaptive") + sim("core.sim.rob1.adaptive"),
        ),
        (
            "core.ns_per_event.rob8",
            rob8 * 1e6 / counts.events_rob8 as f64,
        ),
        (
            "core.ns_per_event.rob1",
            rob1 * 1e6 / counts.events_rob1 as f64,
        ),
        ("core.events.rob8", counts.events_rob8 as f64),
        ("core.events.rob1", counts.events_rob1 as f64),
        ("core.instructions", counts.instructions as f64),
    ]);
    (m, (wall_ms - lower - place) / 1e3)
}
