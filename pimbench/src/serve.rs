//! `serve`: bursty open-loop serving of three networks for 100 s of
//! simulated time, about 10^6 requests. The request stream comes from
//! `--seed`.
//!
//! Host time goes to the single-threaded virtual-time replay; the simulator
//! only warms the service cache. Bursts overflow the queue and off-phases
//! drain it, so the drop path and the dispatch path both run.

use std::collections::BTreeMap;

use pimsim::event::SimTime;
use pimsim::serve::{generate_requests, serve, ArrivalProcess, ServeConfig, ServiceModel};

use crate::trace::Tracer;
use crate::{median, median_by_key, repeat_for, threads, Digest, Opts, Outcome, Samples};

/// `ServiceModel::warm` repetitions; their scaled median is `setup_s`.
const SETUP_REPS: usize = 15;

pub fn config(seed: u64) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::new(vec![
        ("tiny_mlp".to_string(), 64),
        ("tiny_cnn".to_string(), 64),
        ("lenet".to_string(), 32),
    ]);
    config.instances = 4;
    config.batch = "8/20us".parse().map_err(|e| format!("{e}"))?;
    config.queue_cap = 64;
    config.arrivals = ArrivalProcess::Bursty;
    config.burst_on = SimTime::from_ms(5);
    config.burst_off = SimTime::from_ms(5);
    config.rate_rps = 10_000.0;
    config.duration = SimTime::from_ms(100_000);
    config.seed = seed;
    Ok(config)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let config = config(opts.seed)?;
    let threads = threads();
    let mut out = Outcome::default();

    // Set-up: warm the service cache, the cost every serve run pays first.
    let mut setup = Samples::new(threads, 1);
    let mut warm_events = 0;
    for _ in 0..SETUP_REPS {
        let model = setup
            .time(|| ServiceModel::warm(&config, threads))
            .map_err(|e| e.to_string())?;
        warm_events = events_of(&model, &config);
    }
    // The reference report, single-threaded; every pass must match it.
    let reference = serve(&config, 1).map_err(|e| e.to_string())?.to_json();
    out.digest = Digest::of(reference.as_bytes());

    let mut serve_s = Samples::new(1, 2);
    let mut generated = 0;
    let mut timed_serve = |out: &mut Outcome, serve_s: &mut Samples| -> Result<(), String> {
        let report = serve_s
            .time(|| serve(&config, threads))
            .map_err(|e| e.to_string())?;
        generated = report.generated;
        let accounted = report.finished + report.dropped + report.in_queue;
        out.check(report.generated == accounted, || {
            format!(
                "serve: generated {} != finished + dropped + in_queue {accounted}",
                report.generated
            )
        });
        out.check(report.to_json() == reference, || {
            format!("serve: the {threads}-thread report differs from the 1-thread report")
        });
        Ok(())
    };

    if !opts.trace {
        repeat_for(opts.seconds, || timed_serve(&mut out, &mut serve_s))?;
        let requests = generated as f64;
        println!(
            "pimbench: serve unscaled: {:.0} requests/s, set-up {:.4} s",
            requests / serve_s.raw_s(),
            setup.raw_s()
        );
        out.metrics
            .insert("ops_per_s", requests / serve_s.scaled_s());
        out.metrics.insert("setup_s", setup.scaled_s());
        return Ok(out);
    }

    let mut traced_s = Vec::new();
    let mut passes = Vec::new();
    let mut events = String::new();
    repeat_for(opts.seconds, || {
        timed_serve(&mut out, &mut serve_s)?;
        let mut tracer = Tracer::new(true);
        let (report, model, requests) = tracer.span("serve.pass", |t| {
            let report = t.span("serve.serve", |_| serve(&config, threads));
            // Attribution only: `serve` warms and generates internally.
            let model = t.span("serve.warm", |_| ServiceModel::warm(&config, threads));
            let requests = t.span("serve.generate", |_| generate_requests(&config));
            (report, model, requests)
        });
        let report = report.map_err(|e| e.to_string())?;
        let model = model.map_err(|e| e.to_string())?;
        let requests = requests.map_err(|e| e.to_string())?;
        out.check(report.to_json() == reference, || {
            "serve: the traced report differs from the 1-thread report".into()
        });
        out.check(requests.len() as u64 == report.generated, || {
            "serve: generate_requests disagrees with the report's count".into()
        });
        let ms = tracer.self_ms();
        let (serve_ms, warm, generate) =
            (ms["serve.serve"], ms["serve.warm"], ms["serve.generate"]);
        traced_s.push(serve_ms / 1e3);
        passes.push(BTreeMap::from([
            ("serve.warm_ms", warm),
            ("serve.generate_ms", generate),
            ("serve.replay_ms", serve_ms - warm - generate),
            ("serve.generated", report.generated as f64),
            ("serve.finished", report.finished as f64),
            ("serve.dropped", report.dropped as f64),
            (
                "serve.batches",
                report.per_network.iter().map(|n| n.batches).sum::<u64>() as f64,
            ),
            ("serve.warm_events", events_of(&model, &config) as f64),
        ]));
        tracer.write_events(passes.len(), &mut events);
        Ok(())
    })?;
    out.metrics = median_by_key(&passes);
    out.metrics.insert(
        "trace.overhead_pct",
        (median(&traced_s) / serve_s.raw_s() - 1.0) * 100.0,
    );
    out.check(
        out.metrics["serve.warm_events"] == warm_events as f64,
        || "serve: the traced warm-up simulated a different number of events".into(),
    );
    out.trace_events = events;
    Ok(out)
}

/// Kernel events the service cache's simulations took, summed.
fn events_of(model: &ServiceModel, config: &ServeConfig) -> u64 {
    (0..config.networks.len())
        .flat_map(|net| (1..=model.batch_max()).map(move |k| (net, k)))
        .map(|(net, k)| model.get(net, k).events)
        .sum()
}
