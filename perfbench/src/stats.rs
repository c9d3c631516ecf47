//! Order statistics and the result line.

/// Median of `v` (sorts in place): the mean of the two middle values for
/// an even count; 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Nearest-rank quantile `q` in [0, 1] of `v` (sorts in place); 0 for an
/// empty slice.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Human-readable table, one metric per line, for the log.
    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|m| format!("  {:<52} {:>16.6} {}\n", m.name, m.value, m.unit))
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    arachnet_obs::json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Outcome counters and check failures of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons, one per failed operation or check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts one operation; a `Some` problem marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    /// A run that checked nothing is not correct.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.json()
        )
    }
}
