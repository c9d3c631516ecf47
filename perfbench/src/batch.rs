//! The three batch workloads: registry experiments at full size, every id
//! in exactly one workload, run with observation on so each pass also
//! yields the sim-domain METRICS the output checks read.

use std::collections::BTreeMap;
use std::time::Instant;

use arachnet_experiments::registry;
use arachnet_experiments::report::metrics_json;
use arachnet_experiments::{ExperimentCtx, Report};
use arachnet_reader::fdma::{FdmaConfig, FdmaReceiver};
use arachnet_reader::fleet::FleetPlan;
use arachnet_sim::fleet::FleetWaveSim;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
use arachnet_sim::sweep::trial_seed;
use arachnet_sim::wavesim::WaveSim;
use biw_channel::timevarying::{ChannelDrift, TimeVaryingChannel};

use crate::layers::Collector;
use crate::replay;
use crate::stats::{median, Metrics, Outcome};
use crate::{host, Args, TracedRun};

/// Waveform-PHY packet trials at every rate: noise, superposition and
/// single-reader decode dominate.
pub const PHY_LINK: &[&str] = &[
    "fig12a12b",
    "fig13a",
    "fig13b",
    "fig14a",
    "fig14b",
    "ablation-drive",
];

/// The same PHY used differently: one rate, drifting epoch channels,
/// FDMA subcarriers and multi-reader fleets, in coarse jobs.
pub const DRIFT_FLEET: &[&str] = &[
    "dyn-drift",
    "fdma",
    "mr-fdma",
    "mr-interference",
    "mr-fleet-soak",
];

/// The slot-level MAC, the scenario engine and the closed-form tables; no
/// waveform PHY.
pub const MAC_SLOT: &[&str] = &[
    "table1",
    "fig11a",
    "fig11b",
    "table2",
    "table3",
    "fig15a",
    "fig15b",
    "fig16",
    "fig17b",
    "fig19",
    "table4",
    "markov",
    "ablation",
    "ablation-latearrival",
    "ablation-stages",
    "ambient",
    "vanilla",
    "dyn-churn",
    "dyn-outage",
    "dyn-soak",
];

/// Registry ids no workload runs: the sweep quarantine self-test, whose
/// one trial panics on purpose.
pub const EXCLUDED: &[&str] = &["resilience"];

/// Ids of a batch workload, `None` for any other name.
pub fn ids(workload: &str) -> Option<&'static [&'static str]> {
    match workload {
        "phy-link" => Some(PHY_LINK),
        "drift-fleet" => Some(DRIFT_FLEET),
        "mac-slot" => Some(MAC_SLOT),
        _ => None,
    }
}

/// Every registry id must sit in exactly one batch workload (or be the
/// excluded self-test), and every listed id must be registered.
pub fn partition_problems() -> Vec<String> {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for id in [PHY_LINK, DRIFT_FLEET, MAC_SLOT, EXCLUDED].concat() {
        *seen.entry(id).or_default() += 1;
    }
    let mut problems = Vec::new();
    for e in registry::all() {
        match seen.remove(e.id()) {
            None => problems.push(format!("registry id `{}` is in no batch workload", e.id())),
            Some(n) if n > 1 => problems.push(format!(
                "registry id `{}` is in {n} batch workloads",
                e.id()
            )),
            Some(_) => {}
        }
    }
    problems.extend(
        seen.keys()
            .map(|id| format!("workload id `{id}` is not registered")),
    );
    problems
}

/// One pass over a workload's ids.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Peak resident set of the process so far, read right after the pass.
    peak_rss_mb: f64,
    /// Operations the pass completed (packets, or sweep trials).
    ops: u64,
    /// What the sweep engine recorded about its own sweeps.
    sweeps: SweepFigures,
    reports: Vec<(&'static str, Report, f64)>,
}

/// The sweep engine's own wall-domain record of a pass: its
/// `sweep.trial` and `sweep.run_trials` spans and its `sweep.trials`,
/// `sweep.workers` and `sweep.sweeps` counters, read after every id.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepFigures {
    pub trials: u64,
    /// Thread-nanoseconds inside trials.
    pub trial_ns: u64,
    /// Σ over ids of sweep wall × the id's mean worker count, in
    /// worker-nanoseconds: the capacity the trials had.
    pub capacity_ns: f64,
}

impl SweepFigures {
    /// Reads and resets the engine's spans and counters.
    fn take() -> SweepFigures {
        let spans = arachnet_obs::take_spans();
        let span_ns = |name: &str| {
            spans
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, s)| s.total_ns)
        };
        let counters = arachnet_obs::take_global_stats().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        let mean_workers = count("sweep.workers") as f64 / count("sweep.sweeps").max(1) as f64;
        SweepFigures {
            trials: count("sweep.trials"),
            trial_ns: span_ns("sweep.trial"),
            capacity_ns: span_ns("sweep.run_trials") as f64 * mean_workers,
        }
    }

    fn add(&mut self, o: SweepFigures) {
        self.trials += o.trials;
        self.trial_ns += o.trial_ns;
        self.capacity_ns += o.capacity_ns;
    }
}

/// Distinct seeds an untraced run measures, one pass each, before the
/// pass that repeats `--seed`. Fixed per workload so every build measures
/// the same inputs; sized so the passes take about 20 s on a 2-vCPU host.
/// phy-link and drift-fleet do the same work at every seed (fixed trial
/// counts); mac-slot's convergence times, and so its work, vary with it.
fn distinct_seeds(workload: &str) -> u64 {
    if workload == "mac-slot" {
        8
    } else {
        1
    }
}

/// Seed of pass `k`: pass 0 runs `--seed` itself, later passes seeds
/// drawn from it.
fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        seed
    } else {
        trial_seed(seed, k) >> 32
    }
}

fn ctx(args: &Args, seed: u64) -> ExperimentCtx {
    let b = ExperimentCtx::builder(seed)
        .threads(args.threads)
        .observe(true);
    let b = if args.quick { b.quick() } else { b.full() };
    b.build().expect("positive thread count")
}

/// Uplink packets a report sent through the waveform PHY, from its METRICS:
/// `uplink.sent` (Fig. 12), `drift.tag<t>.<epoch>.sent` (dyn-drift) and
/// the per-reader `fleet.<pass>.r<k>.sent` (mr-*).
fn uplink_packets(report: &Report) -> u64 {
    let per_reader = |k: &str| {
        k.starts_with("fleet.")
            && k.strip_suffix(".sent")
                .and_then(|p| p.rsplit('.').next())
                .and_then(|seg| seg.strip_prefix('r'))
                .is_some_and(|n| n.parse::<u32>().is_ok())
    };
    report
        .metrics
        .iter()
        .map(|(k, _)| k)
        .filter(|k| {
            *k == "uplink.sent"
                || (k.starts_with("drift.tag") && k.ends_with(".sent"))
                || per_reader(k)
        })
        .filter_map(|k| report.metrics.get_count(k))
        .sum()
}

fn run_pass(workload: &str, ids: &[&'static str], ctx: &ExperimentCtx) -> Pass {
    SweepFigures::take();
    let mut sweeps = SweepFigures::default();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let reports: Vec<(&'static str, Report, f64)> = ids
        .iter()
        .map(|&id| {
            let e = registry::find(id).expect("partition check passed");
            let t = Instant::now();
            let report = e.run(ctx);
            let wall = t.elapsed().as_secs_f64();
            sweeps.add(SweepFigures::take());
            (id, report, wall)
        })
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let ops = if workload == "mac-slot" {
        sweeps.trials
    } else {
        reports.iter().map(|(_, r, _)| uplink_packets(r)).sum()
    };
    Pass {
        wall_s,
        cpu_s,
        peak_rss_mb: host::peak_rss_mb(),
        ops,
        sweeps,
        reports,
    }
}

/// FNV-1a over the deterministic METRICS document of a report.
fn digest(id: &str, report: &Report) -> u64 {
    metrics_json(id, report)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn num(s: &str) -> Option<f64> {
    s.trim().parse().ok()
}

/// Column `c` of section `sec` as numbers, one per row.
fn column(r: &Report, sec: usize, c: usize) -> Vec<Option<f64>> {
    r.sections.get(sec).map_or(Vec::new(), |s| {
        s.rows
            .iter()
            .map(|row| row.get(c).and_then(|v| num(v)))
            .collect()
    })
}

/// Paper trends from EXPERIMENTS.md that hold at any seed, checked on the
/// report's own tables and METRICS.
fn trend_problem(id: &str, r: &Report, quick: bool) -> Option<String> {
    match id {
        "fig12a12b" => {
            // Fig. 12(a): Tag 8 > Tag 4 > Tag 11. Checked on the mean over
            // rates, plus Tag 8 > Tag 11 at every rate: a single waveform's
            // SNR leaves Tag 8 and Tag 4 within noise of each other at the
            // lowest rate.
            let rows: Vec<Vec<f64>> = r
                .sections
                .first()?
                .rows
                .iter()
                .map(|row| row.iter().skip(1).filter_map(|x| num(x)).collect())
                .collect();
            let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let ok = match rows.as_slice() {
                [t8, t4, t11] => {
                    t8.len() == t11.len()
                        && mean(t8) > mean(t4)
                        && mean(t4) > mean(t11)
                        && t8.iter().zip(t11).all(|(a, b)| a > b)
                }
                _ => false,
            };
            (!ok).then(|| format!("{id}: paper trend broken: SNR order Tag 8 > Tag 4 > Tag 11"))
        }
        "fig13b" => {
            // Fig. 13(b): every tag within 5 ms of Tag 6.
            let off = column(r, 0, 1);
            (off.is_empty() || off.iter().any(|o| o.is_none_or(|o| o.abs() > 5.0)))
                .then(|| format!("{id}: paper trend broken: sync offsets within 5 ms"))
        }
        "dyn-drift" => {
            // The weak link (Tag 11) never loses fewer packets than Tag 8.
            let epochs = ["nominal", "fade-25", "fade-50", "ring-2x", "noise-3x"];
            let lost = |t: u8, e: &str| r.metrics.get_count(&format!("drift.tag{t}.{e}.lost"));
            epochs
                .iter()
                .any(|e| {
                    lost(11, e)
                        .zip(lost(8, e))
                        .is_none_or(|(weak, strong)| weak < strong)
                })
                .then(|| {
                    format!("{id}: paper trend broken: Tag 11 loses no fewer packets than Tag 8")
                })
        }
        "fig16" => {
            // Fig. 16: the non-empty ratio cannot beat the 27/32 bound.
            let ratio = r.metrics.get_gauge("fig16.non_empty_ratio")?;
            (ratio > 0.84375)
                .then(|| format!("{id}: paper trend broken: non-empty ratio {ratio} above 0.84375"))
        }
        "fig15a" if !quick => {
            // Fig. 15(a): median convergence rises from c1 (U=0.38) to c5 (U=1.0).
            let med = column(r, 0, 5);
            match (
                med.first().copied().flatten(),
                med.last().copied().flatten(),
            ) {
                (Some(lo), Some(hi)) if lo < hi => None,
                _ => Some(format!(
                    "{id}: paper trend broken: median convergence rises with utilization"
                )),
            }
        }
        "markov" => {
            // Appendix C: every configuration's chain is absorbing (Lemma 3).
            let rows = &r.sections.first()?.rows;
            rows.iter()
                .any(|row| row.get(3).map(String::as_str) != Some("yes"))
                .then(|| format!("{id}: paper trend broken: every chain absorbing"))
        }
        _ => None,
    }
}

/// Problems of one experiment run: quarantined or errored trials, a cut
/// run, or a broken paper trend.
fn run_problem(id: &str, r: &Report, quick: bool) -> Option<String> {
    if r.sweep.quarantined > 0 {
        return Some(format!("{id}: {} quarantined trials", r.sweep.quarantined));
    }
    if r.is_partial() {
        return Some(format!("{id}: partial run"));
    }
    trend_problem(id, r, quick)
}

/// Construction the workload's experiments pay before their first trial:
/// simulators, channel caches and receivers.
fn setup_once(workload: &str, seed: u64) {
    match workload {
        "phy-link" => {
            let sim = WaveSim::paper(seed);
            for r in arachnet_core::rates::ul_rates() {
                std::hint::black_box(sim.uplink_rx(r.bps));
            }
            std::hint::black_box(&sim);
        }
        "drift-fleet" => {
            let sim = WaveSim::paper(seed);
            let drifts = [
                ChannelDrift::identity(),
                ChannelDrift::fade(0.75),
                ChannelDrift::fade(0.5),
            ];
            std::hint::black_box(TimeVaryingChannel::paper(
                sim.channel().config().clone(),
                &drifts,
            ));
            std::hint::black_box(sim.uplink_rx(375.0));
            let fleet = FleetWaveSim::paper(
                FleetPlan::fdma(4, 500_000.0).expect("paper fleet plan"),
                seed,
            );
            for r in 0..4 {
                std::hint::black_box(fleet.fleet_rx(r, 375.0));
            }
            std::hint::black_box(FdmaReceiver::new(FdmaConfig::default()));
        }
        _ => {
            for p in Pattern::fixed_tag_family() {
                std::hint::black_box(SlotSim::new(SlotSimConfig::new(p, seed)));
            }
        }
    }
}

/// Set-up time in seconds. Every worker thread makes 25 batches of
/// `inner` constructions at once, timing each construction alone; the
/// result is the lowest of the threads' median construction times. One
/// construction takes microseconds, so a median over single
/// constructions drops the ones a preemption or interrupt landed in,
/// where a timed batch would absorb them. The threads' medians differ
/// when their CPUs do (a vCPU whose sibling is busy runs half as fast),
/// and the fastest is the cost of the code itself. What a batch built is
/// handed to `teardown` outside the timed part.
pub fn setup_s<T>(
    threads: usize,
    inner: usize,
    once: impl Fn() -> T + Sync,
    teardown: impl Fn(Vec<T>) + Sync,
) -> f64 {
    let medians: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut times = Vec::with_capacity(25 * inner);
                    for _ in 0..25 {
                        let mut built = Vec::with_capacity(inner);
                        for _ in 0..inner {
                            let t = Instant::now();
                            built.push(once());
                            times.push(t.elapsed().as_secs_f64());
                        }
                        teardown(built);
                    }
                    median(&mut times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up constructions do not panic"))
            .collect()
    });
    medians.into_iter().fold(f64::INFINITY, f64::min)
}

/// Constructions per set-up batch of a batch workload: a thread's 25
/// batches take about a third of a second on a 2-vCPU host.
fn setup_inner(workload: &str) -> usize {
    match workload {
        "phy-link" => 1_600,
        "drift-fleet" => 64,
        _ => 800,
    }
}

/// Checks every pass's reports, then, when the last pass `repeated` the
/// first pass's seed, that it reproduced every METRICS digest.
fn check_passes(passes: &[Pass], repeated: bool, quick: bool, out: &mut Outcome) {
    for p in passes {
        for (id, r, _) in &p.reports {
            out.op(run_problem(id, r, quick));
        }
    }
    if let (Some(first), Some(repeat), true) = (passes.first(), passes.last(), repeated) {
        for ((id, a, _), (_, b, _)) in first.reports.iter().zip(&repeat.reports) {
            out.op((digest(id, a) != digest(id, b))
                .then(|| format!("{id}: METRICS digests differ between two runs of one seed")));
        }
    }
}

/// Measured time after which a run stops, marked failed: six times
/// `--seconds`, at most 140 s, so a run ends within the 180 s a run may
/// take even on a slow host.
pub fn hard_cap_s(args: &Args) -> f64 {
    (6.0 * args.seconds).min(140.0)
}

/// Runs one pass per distinct seed, then repeats `--seed` for the digest
/// check; says whether the run got that far. The time cap only cuts a run
/// short, marking it failed; it never changes which seeds are measured.
fn measured_passes(
    workload: &str,
    ids: &[&'static str],
    args: &Args,
    out: &mut Outcome,
) -> (Vec<Pass>, bool) {
    let n = distinct_seeds(workload);
    let seeds = (0..n).map(|k| pass_seed(args.seed, k)).chain([args.seed]);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    for seed in seeds {
        if t0.elapsed().as_secs_f64() >= hard_cap_s(args) {
            out.op(Some(format!(
                "{workload}: cut at the {:.0} s cap after {} of {} passes",
                hard_cap_s(args),
                passes.len(),
                n + 1
            )));
            break;
        }
        passes.push(run_pass(workload, ids, &ctx(args, seed)));
    }
    let complete = passes.len() as u64 == n + 1;
    (passes, complete)
}

/// One untraced run: end-to-end metrics.
pub fn run(workload: &str, args: &Args, metrics: &mut Metrics, out: &mut Outcome) {
    let ids = ids(workload).expect("batch workload");
    // Measured first, as a `repro` run pays it: before any trial.
    let setup = setup_s(
        args.threads,
        setup_inner(workload),
        || setup_once(workload, args.seed),
        drop,
    );
    let (passes, complete) = measured_passes(workload, ids, args, out);
    check_passes(&passes, complete, args.quick, out);
    let mut wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut cpu: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let mut rate: Vec<f64> = passes.iter().map(|p| p.ops as f64 / p.wall_s).collect();
    metrics.push("wall_s", median(&mut wall), "s");
    metrics.push("cpu_s", median(&mut cpu), "s");
    metrics.push("setup_s", setup, "s");
    // What one `repro` run of the workload peaks at: set-up plus the first
    // pass. Later passes only add allocator fragmentation that varies with
    // their count.
    metrics.push("peak_rss_mb", passes[0].peak_rss_mb, "MB");
    metrics.push("ops_per_s", median(&mut rate), "1/s");
    eprintln!(
        "[perfbench] {workload}: {} ops per pass; pass wall_s {:?}",
        passes.first().map_or(0, |p| p.ops),
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()
    );
}

/// Replays `id` if it has a replay and returns its mismatches with the
/// reference run; `None` when the id has no replay.
fn replay_id(id: &str, args: &Args, col: &Collector, run: &Report) -> Option<Vec<String>> {
    let (seed, t) = (args.seed, args.threads);
    let scale = |quick: u64, full: u64| if args.quick { quick } else { full };
    Some(match id {
        "fig12a12b" => replay::fig12(seed, t, scale(20, 200), col, run),
        "fig13a" => replay::fig13a(seed, t, scale(100, 1_000), col, run),
        "dyn-drift" => replay::dyn_drift(seed, t, scale(15, 150), col, run),
        "fdma" => replay::fdma(seed, t, scale(3, 10), col, run),
        "mr-fdma" => replay::mr_fdma(seed, t, scale(3, 16), col, run),
        "mr-interference" => replay::mr_interference(seed, t, scale(3, 16), col, run),
        "fig15a" => replay::fig15(
            id,
            &Pattern::fixed_tag_family(),
            seed,
            t,
            scale(3, 50),
            col,
            run,
        ),
        "fig15b" => replay::fig15(
            id,
            &Pattern::fixed_util_family(),
            seed,
            t,
            scale(3, 50),
            col,
            run,
        ),
        "dyn-churn" | "dyn-outage" => replay::scenarios(id, seed, t, scale(2, 25), col, run),
        "dyn-soak" => replay::scenarios(id, seed, t, scale(2, 10), col, run),
        _ => return None,
    })
}

/// One traced run: an untraced reference pass, then a traced pass that
/// replays every id with a replay through the layers' public calls and
/// runs the rest as whole experiments.
pub fn run_traced(workload: &str, args: &Args, layers_out: &mut TracedRun, out: &mut Outcome) {
    let ids = ids(workload).expect("batch workload");
    let reference = run_pass(workload, ids, &ctx(args, args.seed));
    check_passes(std::slice::from_ref(&reference), false, args.quick, out);
    let col = Collector::default();
    let ctx = ctx(args, args.seed);
    let t0 = Instant::now();
    let mut quarantined = 0;
    let mut retried = 0;
    for (id, run, _) in &reference.reports {
        quarantined += run.sweep.quarantined;
        retried += run.sweep.retried;
        match replay_id(id, args, &col, run) {
            Some(mismatches) => {
                let problem = (!mismatches.is_empty()).then(|| mismatches.join("; "));
                out.op(problem.map(|p| format!("{id}: replay differs from run: {p}")));
            }
            None => {
                let e = registry::find(id).expect("partition check passed");
                std::hint::black_box(e.run(&ctx));
            }
        }
    }
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let l = col.into_inner();
    // Thread-seconds inside replayed trials outside every layer call, plus
    // the wall time outside the replayed sweeps (whole experiments with no
    // replay, serial set-up).
    layers_out.unattributed_s =
        (l.trials.busy_s() - l.attributed_s()) + (traced_wall_s - l.sweep_wall_ns as f64 / 1e9);
    layers_out.traced_wall_s = traced_wall_s;
    layers_out.untraced_wall_s = reference.wall_s;
    layers_out.layers = l;
    layers_out.sweeps = reference.sweeps;
    layers_out.quarantined = quarantined;
    layers_out.retried = retried;
    layers_out.id_wall_s = reference
        .reports
        .iter()
        .map(|(id, _, w)| (id.to_string(), *w))
        .collect();
}
