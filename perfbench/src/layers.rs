//! Per-layer accounting for traced runs.
//!
//! The traced run replays a workload's trials through the public entry
//! point of each layer and times every call from the benchmark's side.
//! Each trial fills a local [`Layers`] and merges it into the run total
//! once, so the accounting never contends inside a trial.

use std::sync::Mutex;
use std::time::Instant;

/// Work count and busy time of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    /// Calls into the layer.
    pub calls: u64,
    /// Input samples (or slots, beacons) the calls covered.
    pub items: u64,
    /// Thread-nanoseconds spent inside the calls.
    pub ns: u64,
}

impl Busy {
    /// Times `f` as one call covering `items` units of work.
    pub fn time<R>(&mut self, items: usize, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.items += items as u64;
        r
    }

    fn add(&mut self, o: &Busy) {
        self.calls += o.calls;
        self.items += o.items;
        self.ns += o.ns;
    }

    pub fn busy_s(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Nanoseconds per unit of work, 0 when the layer did no work.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Milliseconds per call, 0 when the layer was not called.
    pub fn ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Every layer a replay can attribute time to.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `ChannelNoise::fill`.
    pub noise: Busy,
    /// `BiwChannel::uplink_add_carrier_into` + `uplink_add_tags_into`.
    pub superpose: Busy,
    /// `UplinkReceiver::process_slot_with`.
    pub decode: Busy,
    /// Decodes that returned exactly the packet sent.
    pub decoded: u64,
    /// `UplinkReceiver::uplink_snr_db_with`.
    pub snr: Busy,
    /// `FleetReceiver::process_slot_with`.
    pub fleet_decode: Busy,
    /// `FdmaReceiver::decode_all`.
    pub fdma_decode: Busy,
    /// `WaveSim::downlink_beacon`.
    pub downlink: Busy,
    /// `SlotSim::step`.
    pub slot_step: Busy,
    /// Replayed sweep trials: count and summed duration.
    pub trials: Busy,
    /// Summed wall time of the replayed sweeps, ns.
    pub sweep_wall_ns: u64,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        self.noise.add(&o.noise);
        self.superpose.add(&o.superpose);
        self.decode.add(&o.decode);
        self.decoded += o.decoded;
        self.snr.add(&o.snr);
        self.fleet_decode.add(&o.fleet_decode);
        self.fdma_decode.add(&o.fdma_decode);
        self.downlink.add(&o.downlink);
        self.slot_step.add(&o.slot_step);
        self.trials.add(&o.trials);
        self.sweep_wall_ns += o.sweep_wall_ns;
    }

    /// Thread-seconds spent inside named layers (the sweep is a container
    /// of the others and is not counted).
    pub fn attributed_s(&self) -> f64 {
        [
            &self.noise,
            &self.superpose,
            &self.decode,
            &self.snr,
            &self.fleet_decode,
            &self.fdma_decode,
            &self.downlink,
            &self.slot_step,
        ]
        .iter()
        .map(|b| b.busy_s())
        .sum()
    }
}

/// Run-wide layer totals shared by the sweep workers of a replay.
#[derive(Default)]
pub struct Collector(Mutex<Layers>);

impl Collector {
    /// Runs one replayed trial with a fresh local [`Layers`], times it as
    /// a sweep trial and merges the local totals in.
    pub fn trial<R>(&self, f: impl FnOnce(&mut Layers) -> R) -> R {
        let mut local = Layers::default();
        let t = Instant::now();
        let r = f(&mut local);
        let ns = t.elapsed().as_nanos() as u64;
        local.trials.calls += 1;
        local.trials.ns += ns;
        self.0
            .lock()
            .expect("no replay trial panics while merging")
            .merge(&local);
        r
    }

    /// Times one replayed sweep (the `run_matrix` call) as sweep wall.
    pub fn sweep<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.0
            .lock()
            .expect("no replay trial panics while merging")
            .sweep_wall_ns += ns;
        r
    }

    /// Merges totals gathered outside a sweep (e.g. the serve replay).
    pub fn add(&self, l: &Layers) {
        self.0
            .lock()
            .expect("no replay trial panics while merging")
            .merge(l);
    }

    pub fn into_inner(self) -> Layers {
        self.0
            .into_inner()
            .expect("no replay trial panics while merging")
    }
}
