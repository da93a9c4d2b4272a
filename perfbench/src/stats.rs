//! Sample summaries and the result line.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Kernel quantile of an ascending slice: the order statistics weighted
/// by a normal density centred on `q`, whose spread is the quantile's own
/// sampling spread, `sqrt(q(1-q)/n)`. This is a normal approximation of
/// the Harrell–Davis weights. A single order statistic for p99 out of
/// 1000 samples moved by up to a third between runs of one setting. A
/// non-finite sample enters as `cap`.
pub fn smoothed_quantile(sorted: &[f64], q: f64, cap: f64) -> f64 {
    let n = sorted.len() as f64;
    if sorted.is_empty() {
        return 0.0;
    }
    let sd = (q * (1.0 - q) / n).sqrt().max(0.5 / n);
    let (mut weight, mut sum) = (0.0, 0.0);
    for (i, &x) in sorted.iter().enumerate() {
        let z = ((i as f64 + 0.5) / n - q) / sd;
        if z.abs() <= 4.0 {
            let w = (-0.5 * z * z).exp();
            weight += w;
            sum += w * if x.is_finite() { x } else { cap };
        }
    }
    sum / weight
}

/// Median and 99th percentile of `samples`, smoothed. A failed operation
/// enters as `f64::INFINITY`, so it misses every latency limit, and
/// counts as `cap`.
pub fn p50_p99(samples: &[f64], cap: f64) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (
        smoothed_quantile(&v, 0.5, cap),
        smoothed_quantile(&v, 0.99, cap),
    )
}

/// 99th percentile as the median over `blocks` consecutive runs of
/// samples, each estimated as in [`p50_p99`]. A burst of host noise that
/// slows a few blocks moves their p99 but not the median of the blocks.
pub fn blocked_p99(samples: &[f64], blocks: usize, cap: f64) -> f64 {
    let size = samples.len().div_ceil(blocks.max(1)).max(1);
    let per_block: Vec<f64> = samples.chunks(size).map(|c| p50_p99(c, cap).1).collect();
    median(&per_block)
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// One run's outcome: the result line plus free-form detail.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued in the fixed-work phases.
    pub attempted: u64,
    /// Operations that got no valid answer (no reply, error reply).
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run).
    pub per_layer: Metrics,
    /// Reported-only figures: sample counts, host drift, CPU split.
    pub detail: Vec<(String, f64)>,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a reported-only figure.
    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        self.detail.push((key.into(), value));
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The detail object, one JSON line.
    pub fn detail_json(&self) -> String {
        let body: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", if v.is_finite() { *v } else { -1.0 }))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 1.0), 1000.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn smoothing_stays_near_the_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p50, p99) = p50_p99(&v, 0.0);
        assert!((p50 - 500.0).abs() < 1.0, "{p50}");
        assert!((p99 - 990.0).abs() < 1.0, "{p99}");
        assert_eq!(p50_p99(&[], 0.0), (0.0, 0.0));
    }

    #[test]
    fn blocked_p99_ignores_one_slow_block() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..1000] {
            *x *= 10.0;
        }
        let plain = p50_p99(&v, 0.0).1;
        let blocked = blocked_p99(&v, 3, 0.0);
        assert!(plain > 500.0, "{plain}");
        assert!((blocked - 99.0).abs() < 1.0, "{blocked}");
    }

    #[test]
    fn failures_count_as_misses() {
        let mut v = vec![1.0; 95];
        v.extend([f64::INFINITY; 5]);
        assert_eq!(p50_p99(&v, 7.0), (1.0, 7.0));
        assert!(p50_p99(&v, f64::INFINITY).1.is_infinite());
    }
}
