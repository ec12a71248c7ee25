//! Summary statistics, the result line, and process-level measurements.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Largest value; NaN when empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// What failed, one line each (printed to stderr).
    pub failures: Vec<String>,
    /// Checked winners whose reported seconds are an ulp off the model's
    /// (see `search::check_winner`).
    pub ulp_off: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Counts one checked operation; `Err` records a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Counts one checked winner (see `search::check_winner`).
    pub fn winner(&mut self, result: Result<bool, String>) {
        self.ulp_off += usize::from(result == Ok(true));
        self.check(result.map(|_| ()));
    }

    /// The result line: one JSON object. A metric that is not a finite
    /// number counts as a failure and is written as 0, and so does a run
    /// that checked nothing.
    pub fn json_line(&mut self) -> String {
        if self.attempted == 0 {
            self.check(Err("no output was checked".to_string()));
        }
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                self.failed += 1;
                self.failures.push(format!(
                    "metric {} is not finite: {}",
                    metric.name, metric.value
                ));
                0.0
            };
            // `{:?}` prints the shortest string that round-trips, so no
            // digit of the measurement is lost.
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident set size of this process (`VmHWM` of
/// `/proc/self/status`), MiB; NaN where that file is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line["VmHWM:".len()..]
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.metric("setup_s", "s", 0.25);
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.metric("bad", "s", f64::NAN);
        assert!(o.json_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_run_that_checked_nothing_fails() {
        let mut o = Outcome::default();
        assert!(o
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
