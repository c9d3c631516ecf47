//! Bit-identity pin for `cluster_iq`: the collision verdict's k-means must
//! return exactly the same clusters (centre bits and populations) on a
//! seeded corpus, whatever is done to make it cheaper. The expected table
//! was recorded from the plain O(n·k²)-seeding, fixed-12-iteration k-means.
//!
//! The corpus covers 1–4 blobs, duplicated points (seeding ties), outliers
//! that starve a seed (re-seeding), fewer samples than `max_k`, zero
//! spread and NaN samples. Each case runs under the default config, the
//! receiver's config, and sweeps that accept `k = max_k` outright so every
//! k's Lloyd run reaches the output, at several iteration budgets.

use arachnet_dsp::cluster::{cluster_iq, Cluster, ClusterConfig};
use arachnet_dsp::cplx::Cplx;

/// Deterministic pseudo-noise in [-1, 1] (xorshift64).
fn noise(seed: &mut u64) -> f64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    (*seed >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn blob(center: Cplx, spread: f64, count: usize, seed: &mut u64) -> Vec<Cplx> {
    (0..count)
        .map(|_| center + Cplx::new(noise(seed) * spread, noise(seed) * spread))
        .collect()
}

fn blobs(centers: &[(f64, f64)], spread: f64, count: usize, seed: u64) -> Vec<Cplx> {
    let mut seed = seed;
    centers
        .iter()
        .flat_map(|&(re, im)| blob(Cplx::new(re, im), spread, count, &mut seed))
        .collect()
}

fn corpus() -> Vec<(&'static str, Vec<Cplx>)> {
    let mut cases = vec![
        ("one_blob", blobs(&[(0.3, -0.2)], 0.05, 600, 11)),
        ("two_blobs", blobs(&[(1.0, 0.0), (0.2, 0.1)], 0.05, 400, 12)),
        (
            "three_blobs",
            blobs(&[(0.0, 0.0), (1.0, 0.0), (0.5, 0.9)], 0.04, 300, 13),
        ),
        (
            "four_blobs",
            blobs(
                &[(0.0, 0.0), (1.0, 0.1), (0.1, 1.0), (1.1, 1.1)],
                0.04,
                250,
                14,
            ),
        ),
        (
            "overlapping_blobs",
            blobs(&[(0.0, 0.0), (0.15, 0.05), (0.6, 0.0)], 0.1, 300, 15),
        ),
    ];
    // Unbalanced two-state slot: a weak far tag's 10 % / 90 % split.
    let mut unbalanced = blobs(&[(0.0, 0.0)], 0.03, 900, 16);
    unbalanced.extend(blobs(&[(0.8, 0.0)], 0.03, 100, 17));
    cases.push(("unbalanced", unbalanced));
    // Square corners, each repeated: every seeding step sees exact ties.
    let corners = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)];
    cases.push((
        "duplicate_corners",
        (0..40)
            .flat_map(|_| corners.iter().map(|&(re, im)| Cplx::new(re, im)))
            .collect(),
    ));
    // Duplicates of the farthest point inside noisy blobs.
    let mut dup_far = blobs(&[(0.0, 0.0), (1.0, 0.0)], 0.05, 200, 18);
    dup_far.extend(std::iter::repeat_n(Cplx::new(1.5, 0.5), 5));
    dup_far.extend(std::iter::repeat_n(Cplx::new(-0.5, -0.5), 5));
    cases.push(("duplicate_far_points", dup_far));
    // Fliers that capture seeds but starve under Lloyd updates.
    let mut starved = blobs(&[(1.0, 0.0), (0.0, 0.0)], 0.05, 500, 19);
    starved.extend([
        Cplx::new(5.0, 5.0),
        Cplx::new(-4.0, 2.0),
        Cplx::new(3.0, -6.0),
    ]);
    cases.push(("starved_outliers", starved));
    cases.push(("n3_below_max_k", blobs(&[(0.0, 0.0)], 0.5, 3, 20)));
    cases.push((
        "n4_two_blobs_below_max_k",
        blobs(&[(0.0, 0.0), (2.0, 0.0)], 0.1, 2, 21),
    ));
    cases.push((
        "n4_two_exact_points",
        vec![
            Cplx::new(0.0, 1.0),
            Cplx::new(0.0, 1.0),
            Cplx::new(2.0, 1.0),
            Cplx::new(2.0, 1.0),
        ],
    ));
    cases.push(("zero_spread", vec![Cplx::new(0.7, -0.3); 100]));
    let mut two_exact = vec![Cplx::new(0.25, 0.5); 60];
    two_exact.extend(vec![Cplx::new(-0.75, 0.5); 40]);
    cases.push(("two_exact_states", two_exact));
    let mut nan = blobs(&[(1.0, 0.0), (0.0, 0.0)], 0.05, 300, 22);
    for z in nan.iter_mut().step_by(53) {
        z.re = f64::NAN;
    }
    cases.push(("nan_samples", nan));
    let mut inf = blobs(&[(1.0, 0.0), (0.0, 0.5)], 0.05, 300, 23);
    inf[77] = Cplx::new(f64::INFINITY, 0.0);
    inf[301] = Cplx::new(0.0, f64::NEG_INFINITY);
    cases.push(("inf_samples", inf));
    cases
}

fn configs() -> Vec<(String, ClusterConfig)> {
    let mut out = vec![
        ("default".to_string(), ClusterConfig::default()),
        (
            "receiver".to_string(),
            ClusterConfig {
                separation_ratio: 3.5,
                ..ClusterConfig::default()
            },
        ),
    ];
    for max_k in 2..=6 {
        for iterations in [1, 2, 3, 12] {
            out.push((
                format!("k{max_k}_it{iterations}"),
                ClusterConfig {
                    max_k,
                    separation_ratio: 0.0,
                    min_pop_frac: 0.0,
                    iterations,
                },
            ));
        }
    }
    out
}

/// FNV-1a over the clusters' centre bits and populations.
fn digest(clusters: &[Cluster]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in clusters {
        for word in [
            c.center.re.to_bits(),
            c.center.im.to_bits(),
            c.population as u64,
        ] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One line per (case, config): the full cluster list for the two
/// production configs, a digest for the sweeps.
fn render() -> String {
    let mut out = String::new();
    for (name, samples) in corpus() {
        for (cfg_name, cfg) in configs() {
            let clusters = cluster_iq(&samples, cfg);
            out.push_str(&format!("{name} {cfg_name} k={}", clusters.len()));
            if cfg_name == "default" || cfg_name == "receiver" {
                for c in &clusters {
                    out.push_str(&format!(
                        " ({:#x},{:#x},{})",
                        c.center.re.to_bits(),
                        c.center.im.to_bits(),
                        c.population
                    ));
                }
            } else {
                out.push_str(&format!(" fnv={:#018x}", digest(&clusters)));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn cluster_iq_output_is_pinned_bit_for_bit() {
    let got = render();
    let want = include_str!("cluster_pinned.txt");
    let mismatches: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got  {g}\n  want {w}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.lines().count() == want.lines().count(),
        "{} of {} pinned cluster_iq outputs moved:\n{}",
        mismatches.len(),
        want.lines().count(),
        mismatches.join("\n")
    );
}
