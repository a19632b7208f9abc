//! The repository benchmark: one process that drives one workload per run
//! through the simulator's public API and prints what it measured.
//!
//! ```text
//! cargo run --release --manifest-path pimbench/Cargo.toml -- \
//!     --workload dse|toolchain|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs untraced and traced passes side by side and reports the per-layer
//! self times, exact work counts and the tracing overhead; its spans are
//! written to `$CARGO_TARGET_DIR/pimbench-trace-<workload>.json` (Chrome
//! trace-event format) at exit. The last stdout line is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod dse;
mod serve;
mod toolchain;
mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports all of them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every workload reports all of them with `--trace 1`.
/// A layer that a workload does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compiler.lower_ms", "ms"),
    ("compiler.place_ms", "ms"),
    ("compiler.codegen_ms", "ms"),
    ("core.sim_ms.rob8", "ms"),
    ("core.sim_ms.rob1", "ms"),
    ("core.sim_ms.xy", "ms"),
    ("core.sim_ms.adaptive", "ms"),
    ("core.ns_per_event.rob8", "ns"),
    ("core.ns_per_event.rob1", "ns"),
    ("sweep.parallel_efficiency", "ratio"),
    ("isa.to_json_ms", "ms"),
    ("isa.from_json_ms", "ms"),
    ("analyze.analyze_ms", "ms"),
    ("analyze.cfg_ms", "ms"),
    ("analyze.dag_ms", "ms"),
    ("analyze.bounds_rest_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.generate_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("core.events.rob8", "count"),
    ("core.events.rob1", "count"),
    ("core.instructions", "count"),
    ("isa.artifact_bytes", "count"),
    ("analyze.dag_nodes", "count"),
    ("analyze.rendezvous_pairs", "count"),
    ("analyze.diagnostics", "count"),
    ("serve.generated", "count"),
    ("serve.finished", "count"),
    ("serve.dropped", "count"),
    ("serve.batches", "count"),
    ("serve.warm_events", "count"),
];

pub const WORKLOADS: &[&str] = &["dse", "toolchain", "serve"];

/// The serve workload's default seed; see README.md for the held-out one.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// FNV-1a digest of the workload's simulated outputs.
    pub digest: u64,
    /// Chrome trace events of the traced passes (`--trace 1` only).
    pub trace_events: String,
}

impl Outcome {
    /// Counts one checked operation, and prints why when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("pimbench: check failed: {}", what());
        }
    }
}

/// The worker-thread count: every core the host offers.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-key medians of per-pass metric maps.
pub fn median_by_key(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let keys: std::collections::BTreeSet<&'static str> =
        passes.iter().flat_map(|p| p.keys().copied()).collect();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(k).copied()).collect();
            (k, median(&values))
        })
        .collect()
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Seconds the calibration loop takes on the reference host, a 2-vCPU
/// Xeon virtual machine (its median there, on one thread or on each of
/// two in parallel).
pub const CALIBRATION_REF_S: f64 = 0.03;

/// A fixed toy discrete-event simulation, independent of the simulator's
/// code, on each of `threads` threads: a binary-heap event queue, a hash
/// map of per-entity state and small per-event allocations, the same mix
/// of work the workloads do. Its time tracks how fast this shared host
/// runs right now.
pub fn calibration_s(threads: usize) -> f64 {
    use std::cmp::Reverse;
    use std::collections::{hash_map::DefaultHasher, BinaryHeap, HashMap};
    // A fixed hasher, so every run does the same work.
    type FixedState = std::hash::BuildHasherDefault<DefaultHasher>;
    let (secs, ()) = timed(|| {
        std::thread::scope(|scope| {
            for k in 0..threads as u64 {
                scope.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ k;
                    let mut queue = BinaryHeap::new();
                    let mut state: HashMap<u64, Vec<u64>, FixedState> = HashMap::default();
                    for e in 0..4096u64 {
                        queue.push(Reverse((e, e)));
                    }
                    for _ in 0..200_000 {
                        let Reverse((t, e)) = queue.pop().expect("queue never drains");
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let slot = state.entry(e % 4096).or_default();
                        slot.push(t);
                        if slot.len() > 8 {
                            *slot = vec![slot.iter().sum::<u64>()];
                        }
                        queue.push(Reverse((t + 1 + (x & 1023), x % 4096)));
                    }
                    std::hint::black_box(&state);
                });
            }
        })
    });
    secs
}

/// Host times of one operation, raw and scaled to the reference host.
#[derive(Debug)]
pub struct Samples {
    threads: usize,
    reps: usize,
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Samples {
    /// Samples of an operation that runs on `threads` threads, calibrated
    /// with `reps` calibration loops on each side (more for long operations,
    /// so the calibration covers a fair share of the time they span).
    pub fn new(threads: usize, reps: usize) -> Samples {
        Samples {
            threads,
            reps,
            raw: Vec::new(),
            scaled: Vec::new(),
        }
    }

    fn calibrate(&self) -> f64 {
        (0..self.reps).map(|_| calibration_s(self.threads)).sum()
    }

    /// Times `op` between two calibration runs and records its time both
    /// raw and scaled by `CALIBRATION_REF_S` over the mean calibration time.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> T {
        let before = self.calibrate();
        let (secs, out) = timed(op);
        let cal = (before + self.calibrate()) / (2 * self.reps) as f64;
        self.raw.push(secs);
        self.scaled.push(secs * CALIBRATION_REF_S / cal);
        out
    }

    /// Median raw host seconds.
    pub fn raw_s(&self) -> f64 {
        median(&self.raw)
    }

    /// Median host seconds scaled to the reference host.
    pub fn scaled_s(&self) -> f64 {
        median(&self.scaled)
    }
}

/// Runs `pass` until `seconds` have gone by, and at least once.
pub fn repeat_for(
    seconds: f64,
    mut pass: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        pass()?;
        if Instant::now() >= end {
            return Ok(());
        }
    }
}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::default();
        d.update(bytes);
        d.0
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    Ok(opts)
}

fn write_trace(workload: &str, events: &str) -> Result<String, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "pimbench/target".into());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/pimbench-trace-{workload}.json");
    std::fs::write(&path, format!("{{\"traceEvents\":[\n{events}\n]}}\n"))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

fn run(opts: &Opts) -> Result<String, String> {
    let mut outcome = match opts.workload.as_str() {
        "dse" => dse::run(opts)?,
        "toolchain" => toolchain::run(opts)?,
        _ => serve::run(opts)?,
    };
    let table = if opts.trace {
        let path = write_trace(&opts.workload, &outcome.trace_events)?;
        println!("pimbench: {} trace written to {path}", opts.workload);
        PER_LAYER
    } else {
        outcome.metrics.insert("peak_rss_mb", peak_rss_mb()?);
        END_TO_END
    };
    println!("pimbench: {} digest {:016x}", opts.workload, outcome.digest);
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        // Layers a workload never calls read 0; end-to-end metrics must all
        // be measured.
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => return Err(format!("{} did not measure {name}", opts.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        println!("pimbench: {} {name} = {value} {unit}", opts.workload);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opts| run(&opts));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("pimbench: {e}");
            std::process::exit(1);
        }
    }
}
