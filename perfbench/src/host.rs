//! Host facts recorded beside every result, process CPU and memory
//! readings, and a fixed calibration kernel timed in the same process so
//! numbers from different machines are compared as ratios, never raw.

use std::time::Instant;

/// Worker threads the benchmark uses: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on the path, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// CPU seconds the hypervisor ran other guests on this machine's CPUs
/// (`steal` of the aggregate `/proc/stat` line): a run with much steal was
/// measured on a contended host.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One pass of the calibration kernel: a fixed chain of dependent
/// floating-point and integer operations that no optimisation of the
/// repository can change.
fn calibration_pass() -> f64 {
    let mut x = 0.5f64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2_000_000 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        x = (x * 0.999_999 + u).sqrt();
    }
    x
}

/// Median wall time of the calibration kernel over seven passes, in ms.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(calibration_pass());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}

/// The host record printed with every result; `steal_s` is the steal
/// time accumulated during the run.
pub fn host_json(threads: usize, steal_s: f64) -> String {
    format!(
        "{{\"host\":{{\"nproc\":{},\"threads\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"calibration_ms\":{},\"steal_s\":{}}}}}",
        nproc(),
        threads,
        arachnet_obs::json_escape(&cpu_model()),
        arachnet_obs::json_escape(&rustc_version()),
        calibration_ms(),
        steal_s
    )
}
