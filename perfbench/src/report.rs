//! Run results: operation accounting, metrics, the human-readable report and
//! the final JSON line.

use std::time::{Duration, Instant};

/// The end-to-end metrics of the result line, as `BENCHMARK.json` lists
/// them. Every workload measures each of them; `README.md` gives what each
/// means on each workload.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "solve_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "acceptance_ratio",
    "peak_rss_mb",
];

/// The per-layer metrics of a traced run's result line, as
/// `BENCHMARK.json` lists them: those every workload measures. A workload's
/// other per-layer metrics (the `serve` layer's on the stream, the root LPs
/// and model sizes on `csigma_exact`) appear in the text report only.
pub const PER_LAYER: [&str; 14] = [
    "workloads.generate_ms",
    "mip.solve_ms",
    "mip.nodes",
    "mip.nodes_per_s",
    "lp.iterations",
    "lp.refactorizations",
    "lp.dual_fallbacks",
    "lp.iters_per_s",
    "lp.iters_per_refactor",
    "model.verify_ms",
    "model.violations",
    "trace.overhead_pct",
    "trace.residual_pct",
    "host.probe_ms",
];

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells or decisions).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Run-level checks outside the per-operation accounting, e.g. that the
    /// exact counts repeated across passes. Empty when all held.
    pub broken: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records a run-level check failure (also echoed into the report).
    pub fn broken(&mut self, what: impl Into<String>) {
        let what = what.into();
        self.lines.push(format!("CHECK FAILED: {what}"));
        self.broken.push(what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// Every measured metric, one text line each: end-to-end first, then
    /// per-layer.
    pub fn metric_lines(&self) -> Vec<String> {
        let tagged = self.end_to_end.iter().map(|m| ("e2e", m));
        let layered = self.per_layer.iter().map(|m| ("layer", m));
        tagged
            .chain(layered)
            .map(|(kind, m)| format!("{kind} {} = {} {}", m.name, m.value, m.unit))
            .collect()
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}` with
    /// the [`END_TO_END`] metrics (`traced == false`) or the [`PER_LAYER`]
    /// ones, in that order. Fails if the run did not measure one of them.
    pub fn json_line(&self, traced: bool) -> Result<String, String> {
        let (names, measured): (&[&str], _) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut body = Vec::with_capacity(names.len());
        for name in names {
            let m = measured
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}

/// JSON has no NaN or infinity; a non-finite measurement becomes `null`,
/// which the consumer rejects rather than silently reading a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The benchmark's own per-layer clock: total wall time of the calls it
/// makes into each layer. Switched off, it records nothing and takes no
/// timestamps.
#[derive(Debug)]
pub struct Ledger {
    on: bool,
    totals: Vec<(&'static str, Duration)>,
}

impl Ledger {
    pub fn on() -> Self {
        Self {
            on: true,
            totals: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            totals: Vec::new(),
        }
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed());
        out
    }

    /// Charges an already measured interval to `layer`.
    pub fn add(&mut self, layer: &'static str, d: Duration) {
        if !self.on {
            return;
        }
        match self.totals.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += d,
            None => self.totals.push((layer, d)),
        }
    }

    pub fn get(&self, layer: &str) -> Duration {
        self.totals
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(Duration::ZERO, |(_, d)| *d)
    }

    /// Prints the layer table against `wall` and returns the residual (wall
    /// time no layer accounts for) as a percentage of `wall`. The layers'
    /// calls never nest, so their times must not sum past `wall`.
    pub fn reconcile(&self, wall: Duration, report: &mut Report) -> f64 {
        let sum: Duration = self.totals.iter().map(|(_, d)| *d).sum();
        for (name, d) in &self.totals {
            report.line(format!(
                "  layer {name:<20} {:>10.1} ms {:>5.1}%",
                ms(*d),
                100.0 * d.as_secs_f64() / wall.as_secs_f64()
            ));
        }
        let residual = wall.as_secs_f64() - sum.as_secs_f64();
        let pct = 100.0 * residual / wall.as_secs_f64();
        report.line(format!(
            "reconcile: wall={:.1} ms layers={:.1} ms residual={:.1} ms ({pct:.2}%)",
            ms(wall),
            ms(sum),
            residual * 1e3
        ));
        if residual < 0.0 {
            report.broken("layer times sum past the wall time");
        }
        pct
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median over consecutive groups of `group` samples of each group's mean;
/// a trailing partial group is dropped unless it is the only one. Set-up
/// phases take about a millisecond, while the host's speed shifts between
/// regimes lasting seconds, so single phases are bimodal and their median
/// flips with whichever regime held most of the run. A group spans several
/// seconds of the run and averages the regimes it saw.
pub fn median_of_means(values: &[f64], group: usize) -> f64 {
    let group = group.clamp(1, values.len().max(1));
    let means: Vec<f64> = values
        .chunks_exact(group)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    median(&means)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of a non-empty sample, with the
/// number of samples strictly beyond the reported rank.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), (500.0, 500));
        assert_eq!(percentile(&v, 0.99), (990.0, 10));
        assert_eq!(
            median_of_means(&[1.0, 3.0, 10.0, 10.0, 5.0, 7.0, 99.0], 2),
            6.0
        );
        assert_eq!(median_of_means(&[1.0, 3.0], 5), 2.0);
    }

    #[test]
    fn json_line_lists_exactly_the_manifest_metrics() {
        let mut r = Report {
            attempted: 2,
            ..Report::default()
        };
        for (k, name) in END_TO_END.iter().enumerate() {
            r.e2e(name, k as f64 + 0.5, "s");
        }
        r.e2e("decisions_per_s", 9.0, "1/s");
        let line = r.json_line(false).expect("every metric measured");
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"solve_s\""
        ));
        assert!(
            !line.contains("decisions_per_s"),
            "text-only metric in {line}"
        );
        assert!(r
            .metric_lines()
            .contains(&"e2e decisions_per_s = 9 1/s".to_string()));
        r.failed = 1;
        assert!(r
            .json_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        // A traced run that misses a per-layer metric has no result line.
        r.layer("mip.nodes", 12.0, "count");
        assert!(r
            .json_line(true)
            .unwrap_err()
            .contains("workloads.generate_ms"));
    }
}
