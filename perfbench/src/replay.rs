//! Traced replays: a workload's trials re-run through each layer's public
//! entry point, every call timed from the benchmark's side.
//!
//! Each replay mirrors how the experiment composes its trial — the same
//! seeds, the same sweep shape, the same order of calls — so its decode
//! outcomes must equal those of the untraced run; [`Check`] compares them.
//! Work with no public entry point of its own (packet expansion into PZT
//! states, down-conversion inside `process_slot_with`, the fleet's
//! cross-cell synthesis) is timed by no layer and lands in
//! `unattributed_s`.

use std::cell::RefCell;

use arachnet_core::bits::BitBuf;
use arachnet_core::fm0::Fm0Encoder;
use arachnet_core::packet::UlPacket;
use arachnet_core::rates::{ul_rates, DL_RATES_BPS};
use arachnet_core::rng::TagRng;
use arachnet_core::slot::Period;
use arachnet_experiments::render::f;
use arachnet_experiments::Report;
use arachnet_reader::fdma::{FdmaConfig, FdmaReceiver};
use arachnet_reader::fleet::{FleetPlan, FleetRxScratch};
use arachnet_reader::rx::{RxScratch, UplinkReceiver};
use arachnet_sim::fleet::FleetWaveSim;
use arachnet_sim::metrics::five_num;
use arachnet_sim::patterns::Pattern;
use arachnet_sim::scenario::{Scenario, ScenarioBuilder};
use arachnet_sim::slotsim::{SlotSim, SlotSimConfig};
use arachnet_sim::sweep::{run_matrix, trial_seed, SweepConfig};
use arachnet_sim::wavesim::WaveSim;
use arachnet_tag::mcu::McuClock;
use arachnet_tag::subcarrier::SubcarrierChannel;
use biw_channel::channel::{BiwChannel, ChannelConfig};
use biw_channel::noise::{ChannelNoise, NoiseConfig};
use biw_channel::pzt::PztState;
use biw_channel::timevarying::{ChannelDrift, TimeVaryingChannel};

use crate::layers::{Collector, Layers};

/// Mismatches between a replay and the untraced run, one line each.
pub type Check = Vec<String>;

/// Per-thread replay buffers, reused across trials like the program's own
/// PHY scratch.
#[derive(Default)]
struct Scratch {
    states: Vec<Vec<PztState>>,
    wave: Vec<f64>,
    rx: RxScratch,
    fleet_rx: FleetRxScratch,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Packet expansion: raw FM0 bits to a padded per-sample PZT state stream
/// (no public entry point; its time is unattributed).
fn expand_states(raw: &BitBuf, spb: usize, out: &mut Vec<PztState>) {
    let pad = 6 * spb;
    out.clear();
    out.extend(std::iter::repeat_n(PztState::Absorptive, pad));
    for bit in raw.iter() {
        let s = if bit {
            PztState::Reflective
        } else {
            PztState::Absorptive
        };
        out.extend(std::iter::repeat_n(s, spb));
    }
    out.extend(std::iter::repeat_n(PztState::Absorptive, pad));
}

/// A seeded uplink packet from `tid` expanded into `out`, the way the
/// waveform simulators build it; `clock_seed` keys the tag's timer.
fn packet_states(
    fs: f64,
    clock_seed: u64,
    tid: u8,
    ul_bps: f64,
    packet_seed: u64,
    out: &mut Vec<PztState>,
) -> UlPacket {
    let mut rng = TagRng::new(packet_seed);
    let payload = (rng.next_u64() & 0xFFF) as u16;
    let pkt = UlPacket::new(tid % 16, payload).expect("12-bit payload and tag id below 16");
    let raw = Fm0Encoder::new().encode(pkt.to_bits().iter());
    let mut clock = McuClock::for_tag(clock_seed, tid);
    clock.set_supply(1.95 + 0.35 * rng.unit_f64());
    let spb = (fs * (1.0 / ul_bps) * (12_000.0 / clock.actual_hz())).round() as usize;
    expand_states(&raw, spb, out);
    pkt
}

/// Noise, then carrier and tag superposition, into `wave` — the
/// composition of `BiwChannel::uplink_waveform_seeded_into`, one timed
/// call per layer.
fn synthesize(
    channel: &BiwChannel,
    tags: &[(u8, &[PztState])],
    len: usize,
    seed: u64,
    wave: &mut Vec<f64>,
    l: &mut Layers,
) {
    let cfg = channel.config();
    wave.clear();
    wave.resize(len, 0.0);
    l.noise.time(len, || {
        ChannelNoise::new(cfg.noise, cfg.sample_rate, seed ^ 0xA5A5).fill(wave);
    });
    l.superpose.time(len, || {
        channel.uplink_add_carrier_into(wave);
        channel.uplink_add_tags_into(tags, wave);
    });
}

/// One single-reader uplink packet: synthesis, the optional Welch SNR on
/// the same waveform, then the decode. Returns (decoded exactly, SNR).
#[allow(clippy::too_many_arguments)]
fn uplink_packet(
    channel: &BiwChannel,
    sim_seed: u64,
    rx: &UplinkReceiver,
    tid: u8,
    packet_seed: u64,
    snr: bool,
    decode: bool,
    l: &mut Layers,
) -> (bool, Option<f64>) {
    with_scratch(|s| {
        let Scratch {
            states,
            wave,
            rx: rxs,
            ..
        } = s;
        states.resize_with(1, Vec::new);
        let fs = channel.config().sample_rate;
        let ul_bps = rx.config().ul_bps;
        let pkt = packet_states(fs, sim_seed, tid, ul_bps, packet_seed, &mut states[0]);
        let len = states[0].len();
        synthesize(channel, &[(tid, &states[0])], len, packet_seed, wave, l);
        let snr_db = snr.then(|| l.snr.time(len, || rx.uplink_snr_db_with(wave, rxs)));
        let ok = decode
            && l.decode
                .time(len, || rx.process_slot_with(wave, rxs))
                .packet
                == Some(pkt);
        l.decoded += u64::from(ok);
        (ok, snr_db)
    })
}

/// Packets `first..first + n` of a (tag, rate) sequence seeded from
/// `base`, SNR on the first: the loop of `WaveSim::uplink_trial` and of
/// each epoch of `uplink_trial_drifting`. Returns (lost, SNR dB).
#[allow(clippy::too_many_arguments)]
fn uplink_run(
    channel: &BiwChannel,
    sim_seed: u64,
    rx: &UplinkReceiver,
    tid: u8,
    base: u64,
    first: u64,
    n: u64,
    l: &mut Layers,
) -> (u64, f64) {
    let mut lost = 0;
    let mut snr_db = f64::NAN;
    for i in 0..n.max(1) {
        let pseed = trial_seed(base, first + i);
        let (ok, snr) = uplink_packet(channel, sim_seed, rx, tid, pseed, i == 0, i < n, l);
        snr_db = snr.unwrap_or(snr_db);
        lost += u64::from(i < n && !ok);
    }
    (lost, snr_db)
}

/// `WaveSim::uplink_trial` replayed: `n` packets, SNR on packet 0.
/// Returns (lost, SNR dB).
pub fn uplink_trial(
    sim: &WaveSim,
    sim_seed: u64,
    tid: u8,
    ul_bps: f64,
    n: u64,
    l: &mut Layers,
) -> (u64, f64) {
    let rx = sim.uplink_rx(ul_bps);
    let base = sim.uplink_base_seed(tid, ul_bps);
    uplink_run(sim.channel(), sim_seed, &rx, tid, base, 0, n, l)
}

/// Row `row`, column `col` of section `sec` of a report, if present.
fn cell(report: &Report, sec: usize, row: usize, col: usize) -> Option<&str> {
    report
        .sections
        .get(sec)?
        .rows
        .get(row)?
        .get(col)
        .map(String::as_str)
}

fn expect_eq(check: &mut Check, what: impl FnOnce() -> String, got: &str, want: Option<&str>) {
    if want != Some(got) {
        check.push(format!("{}: replay {got}, run {want:?}", what()));
    }
}

fn metric_count(report: &Report, name: &str) -> Option<u64> {
    report.metrics.get_count(name)
}

/// `fig12a12b` (Fig. 12): tags 8/4/11 × six rates × `n` packets.
pub fn fig12(seed: u64, threads: usize, n: u64, col: &Collector, run: &Report) -> Check {
    const TAGS: [u8; 3] = [8, 4, 11];
    let sim = WaveSim::paper(seed);
    let rates = ul_rates();
    let cells: Vec<(u8, UplinkReceiver)> = TAGS
        .iter()
        .flat_map(|&tid| rates.iter().map(move |r| (tid, r.bps)))
        .map(|(tid, bps)| (tid, sim.uplink_rx(bps)))
        .collect();
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, &cells, n, |(tid, rx), trial, pseed| {
            col.trial(|l| {
                let (ok, _) = uplink_packet(sim.channel(), seed, rx, *tid, pseed, false, true, l);
                // Trial 0 also measures the representative waveform's SNR.
                let snr = (trial == 0).then(|| {
                    let seed0 = trial_seed(sim.uplink_base_seed(*tid, rx.config().ul_bps), 0);
                    uplink_packet(sim.channel(), seed, rx, *tid, seed0, true, false, l).1
                });
                (ok, snr.flatten())
            })
        })
    });
    let mut check = Check::new();
    let mut lost_total = 0;
    for (ci, results) in matrix.iter().enumerate() {
        let (row, c) = (ci / rates.len(), 1 + ci % rates.len());
        let lost = results
            .iter()
            .filter(|r| !matches!(r, Ok((true, _))))
            .count() as u64;
        lost_total += lost;
        let snr = results
            .iter()
            .find_map(|r| r.as_ref().ok().and_then(|(_, s)| *s))
            .unwrap_or(f64::NAN);
        let what = || format!("fig12a12b cell {ci}");
        expect_eq(&mut check, what, &lost.to_string(), cell(run, 1, row, c));
        expect_eq(&mut check, what, &f(snr, 1), cell(run, 0, row, c));
    }
    let sent = n * cells.len() as u64;
    if metric_count(run, "uplink.sent") != Some(sent)
        || metric_count(run, "uplink.lost") != Some(lost_total)
    {
        check.push(format!(
            "fig12a12b uplink.sent/lost: replay {sent}/{lost_total}, run {:?}/{:?}",
            metric_count(run, "uplink.sent"),
            metric_count(run, "uplink.lost")
        ));
    }
    check
}

/// `fig13a` (Fig. 13a): downlink beacons, tags 8/4/11 × five DL rates.
pub fn fig13a(seed: u64, threads: usize, n: u64, col: &Collector, run: &Report) -> Check {
    let sim = WaveSim::paper(seed);
    let cells: Vec<(u8, f64)> = [8u8, 4, 11]
        .iter()
        .flat_map(|&tid| DL_RATES_BPS.iter().map(move |&bps| (tid, bps)))
        .collect();
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, &cells, n, |&(tid, bps), _, bseed| {
            col.trial(|l| l.downlink.time(1, || sim.downlink_beacon(tid, bps, bseed)))
        })
    });
    let mut check = Check::new();
    for (ci, results) in matrix.iter().enumerate() {
        let lost = results.iter().filter(|r| !matches!(r, Ok(true))).count();
        let (row, c) = (ci / DL_RATES_BPS.len(), 1 + ci % DL_RATES_BPS.len());
        expect_eq(
            &mut check,
            || format!("fig13a cell {ci}"),
            &lost.to_string(),
            cell(run, 0, row, c),
        );
    }
    check
}

/// The `dyn-drift` epoch ladder: nominal, two fades, a long-ring epoch and
/// a noisy-floor epoch.
fn drift_ladder() -> [(&'static str, ChannelDrift); 5] {
    [
        ("nominal", ChannelDrift::identity()),
        ("fade-25", ChannelDrift::fade(0.75)),
        ("fade-50", ChannelDrift::fade(0.5)),
        (
            "ring-2x",
            ChannelDrift {
                q_scale: 2.0,
                ..ChannelDrift::identity()
            },
        ),
        (
            "noise-3x",
            ChannelDrift {
                noise_scale: 3.0,
                ..ChannelDrift::identity()
            },
        ),
    ]
}

/// `dyn-drift`: tags 8/4/11 at 375 bps through five channel epochs.
pub fn dyn_drift(seed: u64, threads: usize, n: u64, col: &Collector, run: &Report) -> Check {
    const BPS: f64 = 375.0;
    let sim = WaveSim::paper(seed);
    let ladder = drift_ladder();
    let drifts: Vec<ChannelDrift> = ladder.iter().map(|&(_, d)| d).collect();
    let tvc = TimeVaryingChannel::paper(sim.channel().config().clone(), &drifts);
    let tags = [8u8, 4, 11];
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, &tags, 1, |&tid, _, _| {
            col.trial(|l| {
                let rx = sim.uplink_rx(BPS);
                let base = sim.uplink_base_seed(tid, BPS);
                (0..tvc.epoch_count())
                    .map(|epoch| {
                        let first = epoch as u64 * n;
                        uplink_run(tvc.channel_at(epoch), seed, &rx, tid, base, first, n, l).0
                    })
                    .collect::<Vec<u64>>()
            })
        })
    });
    let mut check = Check::new();
    for (&tid, results) in tags.iter().zip(&matrix) {
        let Some(Ok(lost)) = results.first() else {
            check.push(format!("dyn-drift tag {tid}: replay trial failed"));
            continue;
        };
        for ((name, _), &lost) in ladder.iter().zip(lost) {
            let key = format!("drift.tag{tid}.{name}");
            let want = (
                metric_count(run, &format!("{key}.sent")),
                metric_count(run, &format!("{key}.lost")),
            );
            if want != (Some(n), Some(lost)) {
                check.push(format!(
                    "dyn-drift {key} sent/lost: replay {n}/{lost}, run {want:?}"
                ));
            }
        }
    }
    check
}

/// `fdma`: 1-4 concurrent tags on orthogonal subcarriers in one slot.
pub fn fdma(seed: u64, threads: usize, trials: u64, col: &Collector, run: &Report) -> Check {
    let cfg = FdmaConfig::default();
    let rx = FdmaReceiver::new(cfg);
    let assignments =
        [(8u8, 6u32), (7, 9), (5, 12), (4, 16)].map(|(t, k)| (t, SubcarrierChannel::new(k)));
    let ch = BiwChannel::paper(ChannelConfig {
        noise: NoiseConfig {
            floor_sigma: 0.013,
            ..NoiseConfig::default()
        },
        seed,
        ..ChannelConfig::default()
    });
    let cells: Vec<usize> = (1..=assignments.len()).collect();
    let sweep = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&sweep, &cells, trials, |&concurrent, _, tseed| {
            col.trial(|l| {
                let mut rng = TagRng::new(tseed);
                let subset = &assignments[..concurrent];
                let mut streams = Vec::new();
                let mut packets = Vec::new();
                for &(tid, sub) in subset {
                    let pkt = UlPacket::new(tid % 16, (rng.next_u64() & 0xFFF) as u16)
                        .expect("12-bit payload and tag id below 16");
                    let chips = sub.modulate(&pkt.to_bits());
                    let spc = cfg.sample_rate / (cfg.bit_rate * f64::from(sub.chips_per_bit()));
                    streams.push((tid, chips_to_states(&chips, spc, spc as usize)));
                    packets.push(pkt);
                }
                let max_len = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
                let refs: Vec<(u8, &[PztState])> =
                    streams.iter().map(|(t, s)| (*t, s.as_slice())).collect();
                let channels: Vec<SubcarrierChannel> = subset.iter().map(|&(_, s)| s).collect();
                with_scratch(|s| {
                    synthesize(&ch, &refs, max_len + 2_000, tseed, &mut s.wave, l);
                    let decodes = l
                        .fdma_decode
                        .time(s.wave.len(), || rx.decode_all(&s.wave, &channels));
                    let ok = decodes
                        .iter()
                        .zip(&packets)
                        .filter(|(d, p)| d.packet == Some(**p))
                        .count();
                    (ok as u64, packets.len() as u64)
                })
            })
        })
    });
    let mut check = Check::new();
    for (ci, results) in matrix.iter().enumerate() {
        let (ok, total) = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .fold((0u64, 0u64), |(a, b), &(o, t)| (a + o, b + t));
        expect_eq(
            &mut check,
            || format!("fdma row {ci}"),
            &format!("{ok}/{total}"),
            cell(run, 0, ci, 1),
        );
    }
    check
}

/// Subcarrier chips to a PZT state stream after `lead` idle samples.
fn chips_to_states(chips: &[bool], spc: f64, lead: usize) -> Vec<PztState> {
    let total = lead + (chips.len() as f64 * spc).ceil() as usize;
    let mut states = vec![PztState::Absorptive; total];
    for (i, s) in states.iter_mut().enumerate().skip(lead) {
        if let Some(&c) = chips.get(((i - lead) as f64 / spc) as usize) {
            *s = if c {
                PztState::Reflective
            } else {
                PztState::Absorptive
            };
        }
    }
    states
}

/// One fleet pass: every reader decodes its own copy of `tid` while the
/// whole fleet transmits. Returns per-reader (lost, SNR dB).
fn fleet_pass(
    plan: &FleetPlan,
    seed: u64,
    threads: usize,
    tid: u8,
    n: u64,
    reject: bool,
    col: &Collector,
) -> Vec<Option<(u64, f64)>> {
    const BPS: f64 = 375.0;
    let sim = FleetWaveSim::paper(plan.clone(), seed);
    let readers: Vec<usize> = (0..plan.readers()).collect();
    let k = readers.len();
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, &readers, 1, |&r, _, _| {
            col.trial(|l| {
                let mut rx = sim.fleet_rx(r, BPS);
                rx.set_rejection(reject);
                let mut lost = 0;
                let mut snr_db = f64::NAN;
                with_scratch(|s| {
                    s.states.resize_with(k, Vec::new);
                    for i in 0..n.max(1) {
                        let mut own = None;
                        for (c, states) in s.states.iter_mut().enumerate() {
                            let pseed = trial_seed(sim.uplink_base_seed(c, tid, BPS), i);
                            let fs = sim.channel().cell(c).config().sample_rate;
                            let pkt = packet_states(
                                fs,
                                seed ^ ((c as u64) << 40),
                                tid,
                                BPS,
                                pseed,
                                states,
                            );
                            if c == r {
                                own = Some(pkt);
                            }
                        }
                        let tags: Vec<[(u8, &[PztState]); 1]> =
                            s.states.iter().map(|st| [(tid, st.as_slice())]).collect();
                        let cell_tags: Vec<&[(u8, &[PztState])]> =
                            tags.iter().map(|t| t.as_slice()).collect();
                        let len = s.states[r].len();
                        let own_seed = trial_seed(sim.uplink_base_seed(r, tid, BPS), i);
                        // Cross-cell synthesis has one public call; it stays unattributed.
                        sim.channel()
                            .rx_waveform_into(r, &cell_tags, len, own_seed, &mut s.wave);
                        let out = l
                            .fleet_decode
                            .time(len, || rx.process_slot_with(&s.wave, &mut s.fleet_rx));
                        if i == 0 {
                            snr_db = l
                                .snr
                                .time(len, || rx.uplink_snr_db_with(&s.wave, &mut s.fleet_rx));
                        }
                        if i < n {
                            lost += u64::from(out.packet.is_none() || out.packet != own);
                        }
                    }
                });
                (lost, snr_db)
            })
        })
    });
    matrix
        .into_iter()
        .map(|c| c.into_iter().next().and_then(Result::ok))
        .collect()
}

/// Compares a fleet pass with its rows in the run's report.
fn check_fleet_rows(
    check: &mut Check,
    id: &str,
    label: &str,
    pass: &[Option<(u64, f64)>],
    run: &Report,
) {
    for (r, res) in pass.iter().enumerate() {
        let row = run.sections.first().and_then(|s| {
            s.rows.iter().find(|row| {
                row.first().map(String::as_str) == Some(label)
                    && row.get(1) == Some(&format!("R{r}"))
            })
        });
        let want = row.map(|row| (row[5].clone(), row[7].clone()));
        let got = res.map(|(lost, snr)| {
            (
                lost.to_string(),
                if snr.is_finite() {
                    format!("{snr:.1}")
                } else {
                    "-".to_string()
                },
            )
        });
        if want.is_none()
            || got.as_ref().map(|g| (&g.0, &g.1)) != want.as_ref().map(|w| (&w.0, &w.1))
        {
            check.push(format!("{id} {label} R{r}: replay {got:?}, run {want:?}"));
        }
    }
}

/// `mr-fdma`: FDMA fleets of 1, 2 and 4 readers, tag 8.
pub fn mr_fdma(seed: u64, threads: usize, n: u64, col: &Collector, run: &Report) -> Check {
    let mut check = Check::new();
    for k in [1usize, 2, 4] {
        let plan = FleetPlan::fdma(k, 500_000.0).expect("paper fleet plan");
        let pass = fleet_pass(&plan, seed, threads, 8, n, true, col);
        check_fleet_rows(&mut check, "mr-fdma", &format!("k{k}"), &pass, run);
    }
    check
}

/// `mr-interference`: the 2-reader rejection A/B and the co-channel plan.
pub fn mr_interference(seed: u64, threads: usize, n: u64, col: &Collector, run: &Report) -> Check {
    let fdma = FleetPlan::fdma(2, 500_000.0).expect("paper fleet plan");
    let co = FleetPlan::co_channel(2, 90_000.0, 500_000.0).expect("paper fleet plan");
    let mut check = Check::new();
    for (plan, label, reject) in [
        (&fdma, "fdma-reject", true),
        (&fdma, "fdma-raw", false),
        (&co, "co-channel", true),
    ] {
        for tid in [8u8, 11] {
            let pass = fleet_pass(plan, seed, threads, tid, n, reject, col);
            check_fleet_rows(
                &mut check,
                "mr-interference",
                &format!("{label}.tag{tid}"),
                &pass,
                run,
            );
        }
    }
    check
}

/// The Fig. 15 protocol through `SlotSim::step`: warm 4 slots, RESET, then
/// step until 32 consecutive collision-free slots or `cap`.
fn convergence(p: &Pattern, seed: u64, cap: u64, l: &mut Layers) -> u64 {
    let mut sim = SlotSim::new(SlotSimConfig::new(p.clone(), seed));
    for _ in 0..4 {
        l.slot_step.time(1, || sim.step());
    }
    sim.reset_network();
    while sim.summary().converged_at.is_none() && sim.slots_run() < cap {
        l.slot_step.time(1, || sim.step());
    }
    sim.summary().converged_at.unwrap_or(cap)
}

/// `fig15a` / `fig15b`: first convergence time per pattern, five-number
/// summary rows compared with the run's table.
pub fn fig15(
    id: &str,
    patterns: &[Pattern],
    seed: u64,
    threads: usize,
    trials: u64,
    col: &Collector,
    run: &Report,
) -> Check {
    const CAP: u64 = 500_000;
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, patterns, trials, |p, _, tseed| {
            col.trial(|l| convergence(p, tseed, CAP, l))
        })
    });
    let mut check = Check::new();
    for (row, results) in matrix.iter().enumerate() {
        let times: Vec<f64> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|&t| t as f64)
            .collect();
        if times.is_empty() {
            check.push(format!("{id} row {row}: every replay trial failed"));
            continue;
        }
        let s = five_num(&times);
        for (c, v) in [s.min, s.q1, s.median, s.q3, s.max].into_iter().enumerate() {
            expect_eq(
                &mut check,
                || format!("{id} row {row} col {}", 3 + c),
                &f(v, 0),
                cell(run, 0, row, 3 + c),
            );
        }
    }
    check
}

/// One case of a `dyn-*` scenario study.
pub struct ScenarioCase {
    pattern: Pattern,
    scenario: Scenario,
}

fn period(v: u32) -> Period {
    Period::new(v).expect("scenario periods are powers of two")
}

/// Six tags of `pattern` leave at `leave_at` and rejoin at `rejoin_at`.
fn churn_storm(pattern: Pattern, leave_at: u64, rejoin_at: u64) -> ScenarioCase {
    let mut b = Scenario::builder();
    for &(tid, p) in pattern.tags.iter().take(6) {
        b = b.leave(leave_at, tid).join(rejoin_at, tid, p);
    }
    let scenario = b.build().expect("storm timeline is valid");
    ScenarioCase { pattern, scenario }
}

/// The cases of `dyn-churn`, `dyn-outage` or `dyn-soak`.
pub fn scenario_cases(id: &str) -> Vec<ScenarioCase> {
    let case = |pattern: Pattern, b: ScenarioBuilder| ScenarioCase {
        pattern,
        scenario: b.build().expect("scenario timeline is valid"),
    };
    match id {
        "dyn-churn" => vec![
            churn_storm(Pattern::c2(), 4_000, 4_600),
            churn_storm(Pattern::c3(), 4_000, 4_600),
        ],
        "dyn-outage" => vec![
            case(Pattern::c2(), Scenario::builder().outage(4_000, 64)),
            case(Pattern::c2(), Scenario::builder().outage(4_000, 512)),
            case(
                Pattern::c2(),
                Scenario::builder().noise_burst(4_000, 128, 0.35, 0.35),
            ),
        ],
        _ => vec![case(
            Pattern::c3(),
            Scenario::builder()
                .brownout(2_000, 5)
                .outage(3_500, 48)
                .noise_burst(5_000, 96, 0.3, 0.3)
                .leave(6_500, 7)
                .channel_epoch(7_000, 1)
                .join(8_000, 7, period(32)),
        )],
    }
}

/// A scenario trial through `SlotSim::step`: run past the horizon until
/// every disruption's re-convergence closes or `cap` slots elapse.
/// Returns one re-convergence time per disruption (`None` if unresolved).
fn scenario_trial(c: &ScenarioCase, seed: u64, cap: u64, l: &mut Layers) -> Vec<Option<u64>> {
    let mut sim = SlotSim::with_scenario(
        SlotSimConfig::new(c.pattern.clone(), seed),
        c.scenario.clone(),
    );
    let horizon = c.scenario.horizon();
    while sim.slots_run() < cap && (sim.slots_run() <= horizon || sim.open_disruption().is_some()) {
        l.slot_step.time(1, || sim.step());
    }
    let mut samples: Vec<Option<u64>> = sim
        .reconvergence_samples()
        .iter()
        .map(|s| s.slots)
        .collect();
    if sim.open_disruption().is_some() {
        samples.push(None);
    }
    samples
}

/// `dyn-churn`, `dyn-outage`, `dyn-soak`: min / median / max re-convergence
/// and the unresolved count per case, compared with the run's table.
pub fn scenarios(
    id: &str,
    seed: u64,
    threads: usize,
    trials: u64,
    col: &Collector,
    run: &Report,
) -> Check {
    const CAP: u64 = 100_000;
    let cases = scenario_cases(id);
    let cfg = SweepConfig::new(seed).with_threads(threads);
    let matrix = col.sweep(|| {
        run_matrix(&cfg, &cases, trials, |c, _, tseed| {
            col.trial(|l| scenario_trial(c, tseed, CAP, l))
        })
    });
    let mut check = Check::new();
    for (row, results) in matrix.iter().enumerate() {
        let all: Vec<Option<u64>> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .flatten()
            .copied()
            .collect();
        let finite: Vec<f64> = all.iter().flatten().map(|&d| d as f64).collect();
        let unresolved = all.iter().filter(|d| d.is_none()).count();
        let (lo, mid, hi) = if finite.is_empty() {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            let s = five_num(&finite);
            (f(s.min, 0), f(s.median, 0), f(s.max, 0))
        };
        for (c, v) in [(3, lo), (4, mid), (5, hi), (6, unresolved.to_string())] {
            expect_eq(
                &mut check,
                || format!("{id} row {row} col {c}"),
                &v,
                cell(run, 0, row, c),
            );
        }
    }
    check
}
