//! The serve workloads: `repro serve`'s TCP tier started in process, one
//! worker per core, driven closed-loop by two client connections per
//! worker.
//!
//! Both use the closed-loop load mix of the repository's serve bench
//! (`crates/bench/benches/serve.rs`): one-packet decodes at 2000 bps,
//! alternating Tag 8 and Tag 3. They differ only in the channel seeds,
//! which are drawn from `--seed`:
//!
//! - `serve-shared`: every request shares one seed, as in that bench, so
//!   micro-batching and the per-worker simulator cache can fire;
//! - `serve-unique`: every request of a round has its own seed, so no
//!   request can batch with another or reuse a cached simulator.
//!
//! Every decode pays the Welch SNR once.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use arachnet_obs::{json_f64, parse_json, JsonValue};
use arachnet_serve::client::ServeClient;
use arachnet_serve::server::{start, ServeConfig, ServeStats, ServerHandle};
use arachnet_sim::sweep::trial_seed;
use arachnet_sim::wavesim::WaveSim;

use crate::layers::{Collector, Layers};
use crate::stats::{median, quantile, Metrics, Outcome};
use crate::{batch, host, replay, Args, TracedRun};

/// Requests in one round of the mix.
const ROUND: usize = 384;

/// Rounds an untraced run measures (`--quick`: 3). Fixed so every build
/// measures the same requests; sized so a run takes about 20 s on a
/// 2-vCPU host.
const ROUNDS: usize = 45;

/// One decode request of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Req {
    tag: u8,
    ul_bps: f64,
    packets: u64,
    seed: u64,
}

impl Req {
    fn line(&self) -> String {
        format!(
            "{{\"op\":\"decode\",\"tag\":{},\"ul_bps\":{},\"packets\":{},\"seed\":{}}}",
            self.tag,
            json_f64(self.ul_bps),
            self.packets,
            self.seed
        )
    }
}

/// The seeded request mix of one round: the serve bench's two requests,
/// alternating, with channel seeds drawn from `seed` — one for the whole
/// round when `shared`, one per request otherwise.
fn mix(seed: u64, shared: bool, quick: bool) -> Vec<Req> {
    const TAGS: [u8; 2] = [8, 3];
    // JSON integers travel as f64: keep seeds within 53 bits.
    let channel_seed = |i: u64| trial_seed(seed, i) >> 11;
    let n = if quick { ROUND / 4 } else { ROUND };
    (0..n as u64)
        .map(|i| Req {
            tag: TAGS[(i % 2) as usize],
            ul_bps: 2_000.0,
            packets: 1,
            seed: channel_seed(if shared { 0 } else { i }),
        })
        .collect()
}

/// Closed-loop client connections: two per server worker, so requests
/// queue behind busy workers and micro-batching can fire.
fn clients(threads: usize) -> usize {
    2 * threads
}

fn config(threads: usize) -> ServeConfig {
    ServeConfig {
        workers: threads,
        queue_depth: 64,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

fn stop(handle: ServerHandle) -> ServeStats {
    handle.shutdown();
    handle.join()
}

/// One answered request: its latency and the reply fields that must
/// repeat for the same request (everything but `batched`).
struct Answer {
    index: usize,
    latency_ms: f64,
    outcome: Result<(u64, u64, String), String>,
}

fn parse_reply(req: &Req, line: &str) -> Result<(u64, u64, String), String> {
    let v = parse_json(line.trim()).map_err(|e| format!("unparsable reply {line:?}: {e}"))?;
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("non-ok reply {line:?}"));
    }
    let count = |k: &str| v.get(k).and_then(JsonValue::as_f64).map(|x| x as u64);
    let (Some(sent), Some(lost)) = (count("sent"), count("lost")) else {
        return Err(format!("reply without sent/lost {line:?}"));
    };
    if sent != req.packets || lost > sent {
        return Err(format!(
            "reply sent/lost {sent}/{lost} for {} packets",
            req.packets
        ));
    }
    let snr = v
        .get("snr_db")
        .and_then(JsonValue::as_f64)
        .map_or("null".to_string(), json_f64);
    Ok((sent, lost, snr))
}

/// One closed-loop round: each client sends its next request only after
/// the previous reply arrived. Returns the answers and the round's wall
/// and CPU seconds.
fn round(addr: SocketAddr, reqs: &[Req], clients: usize) -> (Vec<Answer>, f64, f64) {
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(reqs.len()));
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut client = ServeClient::connect(addr, Duration::from_secs(60)).ok();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let t = Instant::now();
                    let outcome = match client.as_mut() {
                        Some(c) => c
                            .roundtrip(&req.line())
                            .map_err(|e| format!("transport error: {e}"))
                            .and_then(|line| parse_reply(req, &line)),
                        None => Err("connect failed".to_string()),
                    };
                    let answer = Answer {
                        index: i,
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        outcome,
                    };
                    answers
                        .lock()
                        .expect("no client panics holding the answer list")
                        .push(answer);
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    (
        answers
            .into_inner()
            .expect("no client panics holding the answer list"),
        wall,
        cpu,
    )
}

/// Everything a measured session of rounds produced.
struct Session {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    latencies: Vec<f64>,
    /// First reply per request index (sent, lost, SNR).
    replies: BTreeMap<usize, (u64, u64, String)>,
    stats: ServeStats,
    /// Decodes the workers ran, and how many of them reused a cached
    /// simulator (the server's `serve.decode` and `serve.channel_synth`
    /// spans).
    decodes: u64,
    cache_hits: u64,
}

/// Starts a server, runs `rounds` rounds (fewer, marked failed, if the
/// time cap is reached), checks every reply, and stops the server.
fn session(args: &Args, reqs: &[Req], rounds: usize, out: &mut Outcome) -> Session {
    arachnet_obs::take_spans();
    let handle = start(config(args.threads)).expect("bind a loopback port");
    let addr = handle.local_addr();
    let mut s = Session {
        walls: Vec::new(),
        cpus: Vec::new(),
        latencies: Vec::new(),
        replies: BTreeMap::new(),
        stats: ServeStats::default(),
        decodes: 0,
        cache_hits: 0,
    };
    let t0 = Instant::now();
    for k in 0..rounds {
        if t0.elapsed().as_secs_f64() >= batch::hard_cap_s(args) {
            out.op(Some(format!(
                "cut at the {:.0} s cap after {k} of {rounds} rounds",
                batch::hard_cap_s(args)
            )));
            break;
        }
        let (answers, wall, cpu) = round(addr, reqs, clients(args.threads));
        s.walls.push(wall);
        s.cpus.push(cpu);
        for a in answers {
            s.latencies.push(a.latency_ms);
            let problem = match a.outcome {
                Err(e) => Some(format!("request {}: {e}", a.index)),
                Ok(reply) => match s.replies.get(&a.index) {
                    Some(first) if *first != reply => Some(format!(
                        "request {}: reply {reply:?} differs from earlier {first:?}",
                        a.index
                    )),
                    Some(_) => None,
                    None => {
                        s.replies.insert(a.index, reply);
                        None
                    }
                },
            };
            out.op(problem);
        }
    }
    s.stats = stop(handle);
    let spans = arachnet_obs::take_spans();
    let calls = |name: &str| {
        spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, st)| st.calls)
    };
    s.decodes = calls("serve.decode");
    s.cache_hits = s.decodes.saturating_sub(calls("serve.channel_synth"));
    s
}

/// Server start-up time (bind, worker pool, supervisor). The servers of
/// a batch are stopped outside the timed part, in parallel: each drain
/// waits out the server's poll intervals.
fn setup_s(threads: usize) -> f64 {
    batch::setup_s(
        threads,
        64,
        || start(config(threads)).expect("bind a loopback port"),
        |handles: Vec<ServerHandle>| {
            std::thread::scope(|s| {
                for h in handles {
                    s.spawn(|| stop(h));
                }
            });
        },
    )
}

/// Client-observed latency summary: (p50, p99) in ms.
fn latency(l: &[f64]) -> (f64, f64) {
    let mut v = l.to_vec();
    (quantile(&mut v, 0.5), quantile(&mut v, 0.99))
}

fn rounds(args: &Args) -> usize {
    if args.quick {
        3
    } else {
        ROUNDS
    }
}

/// One untraced run: end-to-end metrics.
pub fn run(args: &Args, shared: bool, metrics: &mut Metrics, out: &mut Outcome) {
    let reqs = mix(args.seed, shared, args.quick);
    let mut s = session(args, &reqs, rounds(args), out);
    // Read before the set-up measurement, whose servers would count in it.
    let peak_rss_mb = host::peak_rss_mb();
    let setup = setup_s(args.threads);
    let (p50, p99) = latency(&s.latencies);
    let mut rates: Vec<f64> = s.walls.iter().map(|w| reqs.len() as f64 / w).collect();
    metrics.push("wall_s", median(&mut s.walls), "s");
    metrics.push("cpu_s", median(&mut s.cpus), "s");
    metrics.push("setup_s", setup, "s");
    metrics.push("peak_rss_mb", peak_rss_mb, "MB");
    metrics.push("ops_per_s", median(&mut rates), "1/s");
    eprintln!(
        "[perfbench] {}: req_p50_ms {p50:.3} ms, req_p99_ms {p99:.3} ms over {} requests, {} rounds; \
         {} of {} decodes reused a cached simulator, {} rode in a batch",
        args.workload,
        s.latencies.len(),
        s.walls.len(),
        s.cache_hits,
        s.decodes,
        s.stats.batched_requests
    );
}

/// One traced run: an untraced session as long as `run`'s for the server
/// and client latencies, then one round of the mix replayed through the
/// PHY layers' public calls on as many threads, every reply compared with
/// the server's.
pub fn run_traced(args: &Args, shared: bool, t: &mut TracedRun, out: &mut Outcome) {
    let reqs = mix(args.seed, shared, args.quick);
    let mut s = session(args, &reqs, rounds(args), out);
    t.untraced_wall_s = median(&mut s.walls);
    let (p50, p99) = latency(&s.latencies);
    t.client = Some((p50, p99, s.latencies.len() as u64));
    t.serve = Some(std::mem::take(&mut s.stats));
    t.cache_share = if s.decodes == 0 {
        0.0
    } else {
        s.cache_hits as f64 / s.decodes as f64
    };
    let col = Collector::default();
    let next = AtomicUsize::new(0);
    let replayed = Mutex::new(BTreeMap::new());
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for _ in 0..args.threads {
            sc.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                let mut l = Layers::default();
                let sim = WaveSim::paper(r.seed);
                let (lost, snr) =
                    replay::uplink_trial(&sim, r.seed, r.tag, r.ul_bps, r.packets, &mut l);
                col.add(&l);
                let reply = (r.packets, lost, json_f64(snr));
                replayed
                    .lock()
                    .expect("no replay panics holding the reply map")
                    .insert(i, reply);
            });
        }
    });
    t.traced_wall_s = t0.elapsed().as_secs_f64();
    t.layers = col.into_inner();
    // Layer time is summed over the replay threads; spread it over them.
    t.unattributed_s = t.traced_wall_s - t.layers.attributed_s() / args.threads as f64;
    let replayed = replayed
        .into_inner()
        .expect("no replay panics holding the reply map");
    for (i, reply) in replayed {
        let served = s.replies.get(&i);
        out.op((served != Some(&reply))
            .then(|| format!("request {i}: replay {reply:?} differs from served {served:?}")));
    }
}
