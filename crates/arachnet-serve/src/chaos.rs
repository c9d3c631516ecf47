//! Deterministic fault injection for the serve tier.
//!
//! A [`FaultPlan`] maps **request indices** (the admission-order sequence
//! number of queued work ops) and **connection indices** (accept order) to
//! faults. The plan is pure data: given the same plan and the same index
//! sequence, two runs inject *exactly* the same faults — there is no
//! wall-clock or thread-schedule dependence anywhere in the decision. That
//! is what makes `repro chaos` able to assert that two runs produce
//! identical fault schedules and identical counters.
//!
//! Two ways to target an index:
//!
//! * **Explicit entries** (`panic@req3`, `slow-read@conn1:40ms`) fire at
//!   exactly that index.
//! * **Rate entries** (`decode-delay%250:30ms`) fire at every index whose
//!   splitmix64 hash (seeded like the sweep engine's
//!   [`trial_seed`], salted per fault
//!   kind) falls below `permille/1000` — a deterministic Bernoulli draw
//!   per index, replayable bit-identically.
//!
//! The five injectable faults mirror the failure modes the serve runtime
//! claims to survive (DESIGN.md §17):
//!
//! | spec kind | where it fires | what it exercises |
//! |---|---|---|
//! | `slow-read@connN:MSms` | handler, before each data read | idle deadlines, client read loop |
//! | `torn@reqN` | handler, mid-reply write | client retry on torn replies |
//! | `panic@reqN` | worker, outside `catch_unwind` | supervision + respawn |
//! | `stall@reqN:MSms` | worker, before execution | per-request deadlines |
//! | `decode-delay@reqN:MSms` | worker, inside decode | tail-latency bounding |

use arachnet_sim::sweep::trial_seed;
use std::collections::BTreeMap;
use std::time::Duration;

/// One injectable fault. Durations are carried in milliseconds so plans
/// render and parse exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sleep this long in the connection handler before each data read.
    SlowRead {
        /// Injected delay per read, milliseconds.
        delay_ms: u64,
    },
    /// Write only a prefix of the reply line, then sever the connection.
    TornWrite,
    /// Kill the worker thread that popped this request (an unwinding
    /// panic raised *outside* the per-request `catch_unwind`).
    WorkerPanic,
    /// Hold the worker this long after popping, before executing — an
    /// induced queue stall that drives requests past their deadline.
    QueueStall {
        /// Stall length, milliseconds.
        stall_ms: u64,
    },
    /// Extra latency inside the decode path itself.
    DecodeDelay {
        /// Injected decode latency, milliseconds.
        delay_ms: u64,
    },
}

impl Fault {
    /// Stable spec-format label (also the schedule-rendering label).
    pub fn label(&self) -> &'static str {
        match self {
            Fault::SlowRead { .. } => "slow-read",
            Fault::TornWrite => "torn",
            Fault::WorkerPanic => "panic",
            Fault::QueueStall { .. } => "stall",
            Fault::DecodeDelay { .. } => "decode-delay",
        }
    }

    fn render(&self) -> String {
        match self {
            Fault::SlowRead { delay_ms } => format!("slow-read:{delay_ms}ms"),
            Fault::TornWrite => "torn".into(),
            Fault::WorkerPanic => "panic".into(),
            Fault::QueueStall { stall_ms } => format!("stall:{stall_ms}ms"),
            Fault::DecodeDelay { delay_ms } => format!("decode-delay:{delay_ms}ms"),
        }
    }
}

/// Per-kind salts so the rate draws for different fault kinds are
/// independent streams off the same plan seed.
fn kind_salt(label: &str) -> u64 {
    match label {
        "slow-read" => 0x51_0E_AD,
        "torn" => 0x70_4E,
        "panic" => 0xDE_AD,
        "stall" => 0x57_A1_1E,
        _ => 0xDE_C0_DE,
    }
}

/// A seeded rate entry: fire `fault` at every index whose per-index hash
/// lands under `permille`/1000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RateEntry {
    fault: Fault,
    permille: u32,
}

/// A deterministic, replayable fault schedule (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    by_request: BTreeMap<u64, Vec<Fault>>,
    slow_read_conns: BTreeMap<u64, u64>,
    rates: Vec<RateEntry>,
}

impl FaultPlan {
    /// An empty plan drawing its rate entries from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The seed the rate draws are keyed on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing (the compiled-in-but-disabled
    /// fast path the bench gate pins down).
    pub fn is_empty(&self) -> bool {
        self.by_request.is_empty() && self.slow_read_conns.is_empty() && self.rates.is_empty()
    }

    /// Inject a worker panic at request index `req`.
    pub fn panic_at(mut self, req: u64) -> Self {
        self.by_request.entry(req).or_default().push(Fault::WorkerPanic);
        self
    }

    /// Tear the reply write of request index `req`.
    pub fn torn_at(mut self, req: u64) -> Self {
        self.by_request.entry(req).or_default().push(Fault::TornWrite);
        self
    }

    /// Stall the worker `stall_ms` before executing request index `req`.
    pub fn stall_at(mut self, req: u64, stall_ms: u64) -> Self {
        self.by_request
            .entry(req)
            .or_default()
            .push(Fault::QueueStall { stall_ms });
        self
    }

    /// Add `delay_ms` of artificial decode latency to request index `req`.
    pub fn decode_delay_at(mut self, req: u64, delay_ms: u64) -> Self {
        self.by_request
            .entry(req)
            .or_default()
            .push(Fault::DecodeDelay { delay_ms });
        self
    }

    /// Delay every data read on connection index `conn` by `delay_ms`.
    pub fn slow_read_conn(mut self, conn: u64, delay_ms: u64) -> Self {
        self.slow_read_conns.insert(conn, delay_ms);
        self
    }

    /// Add a seeded rate entry: `fault` fires at each request index whose
    /// hash lands under `permille`/1000 (clamped to 1000).
    pub fn rate(mut self, fault: Fault, permille: u32) -> Self {
        self.rates.push(RateEntry {
            fault,
            permille: permille.min(1000),
        });
        self
    }

    /// Does the seeded rate draw for (`label`, `index`) fire?
    fn rate_hits(&self, permille: u32, label: &str, index: u64) -> bool {
        if permille == 0 {
            return false;
        }
        // Same splitmix64 finalizer as the sweep engine's per-trial seeds:
        // uniform in u64, so the top-of-range threshold test is an exact
        // permille/1000 Bernoulli draw, independent per (kind, index).
        let h = trial_seed(self.seed ^ kind_salt(label), index);
        (h % 1000) < permille as u64
    }

    /// Every fault scheduled for request index `index`, explicit entries
    /// first, then rate hits — in deterministic order.
    pub fn faults_for_request(&self, index: u64) -> Vec<Fault> {
        let mut out: Vec<Fault> = self.by_request.get(&index).cloned().unwrap_or_default();
        for r in &self.rates {
            if self.rate_hits(r.permille, r.fault.label(), index) {
                out.push(r.fault);
            }
        }
        out
    }

    /// The injected read delay for connection index `conn`, if any.
    pub fn slow_read_for_conn(&self, conn: u64) -> Option<Duration> {
        self.slow_read_conns
            .get(&conn)
            .map(|ms| Duration::from_millis(*ms))
    }

    /// Render the full fault schedule for the first `requests` request
    /// indices and `conns` connection indices — one line per scheduled
    /// fault, deterministic. `repro chaos` compares this string across
    /// runs to prove schedule replayability.
    pub fn schedule(&self, requests: u64, conns: u64) -> String {
        let mut out = String::new();
        for i in 0..requests {
            for f in self.faults_for_request(i) {
                out.push_str(&format!("req {i}: {}\n", f.render()));
            }
        }
        for c in 0..conns {
            if let Some(d) = self.slow_read_for_conn(c) {
                out.push_str(&format!("conn {c}: slow-read:{}ms\n", d.as_millis()));
            }
        }
        out
    }

    /// Parse the `--fault-plan` spec format (see the module docs):
    /// comma-separated entries, each `kind@reqN[:MSms]`, `slow-read@connN:MSms`,
    /// or `kind%PERMILLE[:MSms]`. `seed` feeds the rate entries.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some((kind, rest)) = entry.split_once('@') {
                let (site, ms) = split_site(rest)?;
                match (kind, site) {
                    ("panic", Site::Req(i)) => plan = plan.panic_at(i),
                    ("torn", Site::Req(i)) => plan = plan.torn_at(i),
                    ("stall", Site::Req(i)) => plan = plan.stall_at(i, ms.unwrap_or(250)),
                    ("decode-delay", Site::Req(i)) => {
                        plan = plan.decode_delay_at(i, ms.unwrap_or(50))
                    }
                    ("slow-read", Site::Conn(c)) => {
                        plan = plan.slow_read_conn(c, ms.unwrap_or(25))
                    }
                    ("slow-read", Site::Req(_)) => {
                        return Err(format!(
                            "`{entry}`: slow-read targets connections (`slow-read@connN:MSms`)"
                        ));
                    }
                    (k, Site::Conn(_)) => {
                        return Err(format!("`{entry}`: `{k}` targets requests, not connections"));
                    }
                    (k, _) => return Err(format!("`{entry}`: unknown fault kind `{k}`")),
                }
            } else if let Some((kind, rest)) = entry.split_once('%') {
                let (permille_str, ms) = match rest.split_once(':') {
                    Some((p, m)) => (p, Some(parse_ms(m, entry)?)),
                    None => (rest, None),
                };
                let permille: u32 = permille_str
                    .parse()
                    .map_err(|_| format!("`{entry}`: bad permille `{permille_str}`"))?;
                let fault = match kind {
                    "panic" => Fault::WorkerPanic,
                    "torn" => Fault::TornWrite,
                    "stall" => Fault::QueueStall {
                        stall_ms: ms.unwrap_or(250),
                    },
                    "decode-delay" => Fault::DecodeDelay {
                        delay_ms: ms.unwrap_or(50),
                    },
                    k => return Err(format!("`{entry}`: unknown rate fault kind `{k}`")),
                };
                plan = plan.rate(fault, permille);
            } else {
                return Err(format!(
                    "`{entry}`: expected `kind@reqN[:MSms]`, `slow-read@connN:MSms`, or `kind%PERMILLE[:MSms]`"
                ));
            }
        }
        Ok(plan)
    }
}

enum Site {
    Req(u64),
    Conn(u64),
}

fn parse_ms(s: &str, entry: &str) -> Result<u64, String> {
    s.strip_suffix("ms")
        .unwrap_or(s)
        .parse()
        .map_err(|_| format!("`{entry}`: bad duration `{s}` (want e.g. `250ms`)"))
}

fn split_site(rest: &str) -> Result<(Site, Option<u64>), String> {
    let (site_str, ms) = match rest.split_once(':') {
        Some((s, m)) => (s, Some(parse_ms(m, rest)?)),
        None => (rest, None),
    };
    if let Some(n) = site_str.strip_prefix("req") {
        let i = n
            .parse()
            .map_err(|_| format!("`{rest}`: bad request index `{n}`"))?;
        Ok((Site::Req(i), ms))
    } else if let Some(n) = site_str.strip_prefix("conn") {
        let c = n
            .parse()
            .map_err(|_| format!("`{rest}`: bad connection index `{n}`"))?;
        Ok((Site::Conn(c), ms))
    } else {
        Err(format!("`{rest}`: site must be `reqN` or `connN`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_entries_fire_at_exact_indices() {
        let plan = FaultPlan::new(7)
            .panic_at(3)
            .torn_at(5)
            .stall_at(2, 400)
            .slow_read_conn(1, 40);
        assert_eq!(plan.faults_for_request(3), vec![Fault::WorkerPanic]);
        assert_eq!(plan.faults_for_request(5), vec![Fault::TornWrite]);
        assert_eq!(plan.faults_for_request(2), vec![Fault::QueueStall { stall_ms: 400 }]);
        assert!(plan.faults_for_request(4).is_empty());
        assert_eq!(
            plan.slow_read_for_conn(1),
            Some(Duration::from_millis(40))
        );
        assert_eq!(plan.slow_read_for_conn(0), None);
    }

    #[test]
    fn rate_entries_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::new(42).rate(Fault::DecodeDelay { delay_ms: 10 }, 250);
        let hits: Vec<u64> = (0..4000)
            .filter(|i| !plan.faults_for_request(*i).is_empty())
            .collect();
        // Same plan, same seed: identical hit set.
        let plan2 = FaultPlan::new(42).rate(Fault::DecodeDelay { delay_ms: 10 }, 250);
        let hits2: Vec<u64> = (0..4000)
            .filter(|i| !plan2.faults_for_request(*i).is_empty())
            .collect();
        assert_eq!(hits, hits2);
        // ~250/1000 of 4000 = ~1000; the splitmix64 stream is uniform
        // enough that 20% slack never trips.
        assert!((800..1200).contains(&hits.len()), "{}", hits.len());
        // A different seed draws a different schedule.
        let other = FaultPlan::new(43).rate(Fault::DecodeDelay { delay_ms: 10 }, 250);
        let hits3: Vec<u64> = (0..4000)
            .filter(|i| !other.faults_for_request(*i).is_empty())
            .collect();
        assert_ne!(hits, hits3);
    }

    #[test]
    fn parse_roundtrips_the_documented_spec_format() {
        let spec = "panic@req2,stall@req4:400ms,torn@req6,decode-delay@req8:120ms,\
                    slow-read@conn1:40ms,decode-delay%250:30ms";
        let plan = FaultPlan::parse(spec, 9).unwrap();
        assert_eq!(plan.faults_for_request(2), vec![Fault::WorkerPanic]);
        assert_eq!(
            plan.faults_for_request(4)[0],
            Fault::QueueStall { stall_ms: 400 }
        );
        assert_eq!(plan.faults_for_request(6)[0], Fault::TornWrite);
        assert_eq!(
            plan.faults_for_request(8)[0],
            Fault::DecodeDelay { delay_ms: 120 }
        );
        assert_eq!(plan.slow_read_for_conn(1), Some(Duration::from_millis(40)));
        // Builder-made plan with the same entries renders the same schedule.
        let built = FaultPlan::new(9)
            .panic_at(2)
            .stall_at(4, 400)
            .torn_at(6)
            .decode_delay_at(8, 120)
            .slow_read_conn(1, 40)
            .rate(Fault::DecodeDelay { delay_ms: 30 }, 250);
        assert_eq!(plan.schedule(32, 4), built.schedule(32, 4));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(1).is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs_with_context() {
        for bad in [
            "panic@slot3",
            "panic@conn1",
            "slow-read@req1:10ms",
            "teleport@req1",
            "stall@req1:fastms",
            "panic%many",
            "justnoise",
        ] {
            let err = FaultPlan::parse(bad, 1).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
    }
}
