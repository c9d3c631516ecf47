//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <phy-link|drift-fleet|mac-slot|serve-shared|serve-unique>
//!           --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! With `--trace 0` it measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it prints the per-layer metrics of
//! a traced replay. Host facts go on the line before the result; the last
//! line of standard output is the result object. Each workload measures a
//! fixed list of inputs; `--seconds` only caps a run, at six times its
//! value (at most 140 s), and a capped run is marked failed.

mod batch;
mod host;
mod layers;
mod replay;
mod serve;
mod stats;

use arachnet_serve::server::ServeStats;

use layers::Layers;
use stats::{Metrics, Outcome};

pub const WORKLOADS: [&str; 5] = [
    "phy-link",
    "drift-fleet",
    "mac-slot",
    "serve-shared",
    "serve-unique",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced trial counts and a short request mix (the self-test scale).
    pub quick: bool,
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        threads: host::nproc(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a traced run gathered.
#[derive(Default)]
pub struct TracedRun {
    pub layers: Layers,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Traced time no named layer covers.
    pub unattributed_s: f64,
    /// The sweep engine's own record of the reference pass.
    pub sweeps: batch::SweepFigures,
    pub quarantined: u64,
    pub retried: u64,
    /// Untraced wall time of every registry id the workload ran.
    pub id_wall_s: Vec<(String, f64)>,
    pub serve: Option<ServeStats>,
    /// Share of the server's decodes that reused a cached simulator.
    pub cache_share: f64,
    /// Client-observed request latency: p50 ms, p99 ms, sample count.
    pub client: Option<(f64, f64, u64)>,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not use read 0.
fn per_layer(t: &TracedRun) -> Metrics {
    let l = &t.layers;
    let mut m = Metrics::default();
    for (name, b) in [
        ("biw-channel.noise", &l.noise),
        ("biw-channel.superpose", &l.superpose),
    ] {
        m.push(format!("{name}.samples"), b.items as f64, "count");
        m.push(format!("{name}.busy_s"), b.busy_s(), "s");
        m.push(format!("{name}.ns_per_sample"), b.ns_per_item(), "ns");
    }
    let rx = "arachnet-reader.rx";
    m.push(format!("{rx}.decode.calls"), l.decode.calls as f64, "count");
    m.push(format!("{rx}.decode.busy_s"), l.decode.busy_s(), "s");
    m.push(
        format!("{rx}.decode.ns_per_sample"),
        l.decode.ns_per_item(),
        "ns",
    );
    let ratio = if l.decode.calls == 0 {
        0.0
    } else {
        l.decoded as f64 / l.decode.calls as f64
    };
    m.push(format!("{rx}.decode.decoded_ratio"), ratio, "ratio");
    m.push(format!("{rx}.snr.calls"), l.snr.calls as f64, "count");
    m.push(format!("{rx}.snr.busy_s"), l.snr.busy_s(), "s");
    m.push(format!("{rx}.snr.ms_per_call"), l.snr.ms_per_call(), "ms");
    m.push(
        "arachnet-reader.fleet.decode.calls",
        l.fleet_decode.calls as f64,
        "count",
    );
    m.push(
        "arachnet-reader.fleet.decode.busy_s",
        l.fleet_decode.busy_s(),
        "s",
    );
    m.push(
        "arachnet-reader.fleet.decode.ns_per_sample",
        l.fleet_decode.ns_per_item(),
        "ns",
    );
    m.push(
        "arachnet-reader.fdma.decode.calls",
        l.fdma_decode.calls as f64,
        "count",
    );
    m.push(
        "arachnet-reader.fdma.decode.busy_s",
        l.fdma_decode.busy_s(),
        "s",
    );
    m.push(
        "arachnet-sim.wavesim.downlink.beacons",
        l.downlink.calls as f64,
        "count",
    );
    m.push(
        "arachnet-sim.wavesim.downlink.busy_s",
        l.downlink.busy_s(),
        "s",
    );
    let sw = "arachnet-sim.sweep";
    let sweeps = &t.sweeps;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.push(format!("{sw}.trials"), sweeps.trials as f64, "count");
    m.push(format!("{sw}.busy_s"), sweeps.trial_ns as f64 / 1e9, "s");
    m.push(
        format!("{sw}.utilization"),
        ratio(sweeps.trial_ns as f64, sweeps.capacity_ns),
        "ratio",
    );
    m.push(
        format!("{sw}.trial_mean_ms"),
        ratio(sweeps.trial_ns as f64 / 1e6, sweeps.trials as f64),
        "ms",
    );
    m.push(format!("{sw}.quarantined"), t.quarantined as f64, "count");
    m.push(format!("{sw}.retried"), t.retried as f64, "count");
    m.push(
        "arachnet-sim.slotsim.step.slots",
        l.slot_step.calls as f64,
        "count",
    );
    m.push(
        "arachnet-sim.slotsim.step.busy_s",
        l.slot_step.busy_s(),
        "s",
    );
    m.push(
        "arachnet-sim.slotsim.step.ns_per_slot",
        l.slot_step.ns_per_item(),
        "ns",
    );
    let s = t.serve.clone().unwrap_or_default();
    let batch_ratio = if s.requests == 0 {
        0.0
    } else {
        s.batched_requests as f64 / s.requests as f64
    };
    m.push("arachnet-serve.server.p50_us", s.p50_us as f64, "us");
    m.push("arachnet-serve.server.p95_us", s.p95_us as f64, "us");
    m.push("arachnet-serve.server.batch_ratio", batch_ratio, "ratio");
    m.push("arachnet-serve.server.cache_share", t.cache_share, "ratio");
    m.push("arachnet-serve.server.rejected", s.rejected as f64, "count");
    let (p50, p99, samples) = t.client.unwrap_or_default();
    m.push("arachnet-serve.client.req_p50_ms", p50, "ms");
    m.push("arachnet-serve.client.req_p99_ms", p99, "ms");
    m.push("arachnet-serve.client.req_samples", samples as f64, "count");
    for e in arachnet_experiments::registry::all().filter(|e| !batch::EXCLUDED.contains(&e.id())) {
        let w = t
            .id_wall_s
            .iter()
            .find(|(id, _)| id == e.id())
            .map_or(0.0, |(_, w)| *w);
        m.push(format!("arachnet-experiments.{}.wall_s", e.id()), w, "s");
    }
    m.push("unattributed_s", t.unattributed_s, "s");
    m.push(
        "tracing_overhead_s",
        t.traced_wall_s - t.untraced_wall_s,
        "s",
    );
    m
}

/// For a serve workload, whether its requests share one channel seed;
/// `None` for a batch workload.
fn serve_shared(workload: &str) -> Option<bool> {
    match workload {
        "serve-shared" => Some(true),
        "serve-unique" => Some(false),
        _ => None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let problems = batch::partition_problems();
    if !problems.is_empty() {
        for p in problems {
            eprintln!("perfbench: partition check: {p}");
        }
        std::process::exit(1);
    }
    let steal0 = host::steal_s();
    let mut out = Outcome::default();
    let metrics = if args.trace {
        let mut t = TracedRun::default();
        if let Some(shared) = serve_shared(&args.workload) {
            serve::run_traced(&args, shared, &mut t, &mut out);
        } else {
            batch::run_traced(&args.workload, &args, &mut t, &mut out);
        }
        per_layer(&t)
    } else {
        let mut m = Metrics::default();
        if let Some(shared) = serve_shared(&args.workload) {
            serve::run(&args, shared, &mut m, &mut out);
        } else {
            batch::run(&args.workload, &args, &mut m, &mut out);
        }
        m
    };
    let ratio = out.failed as f64 / out.attempted.max(1) as f64;
    eprint!(
        "[perfbench] {} seed {} trace {}\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        metrics.table()
    );
    eprintln!(
        "  {:<52} {:>16.6} ratio ({} of {})",
        "failed_ratio", ratio, out.failed, out.attempted
    );
    for p in &out.problems {
        eprintln!("[perfbench] FAILED: {p}");
    }
    println!(
        "{}",
        host::host_json(args.threads, host::steal_s() - steal0)
    );
    println!("{}", out.result_line(&metrics));
}
