//! Result accounting: attempted and failed operations, the metrics a run
//! reports, and the one-line JSON result the last line of stdout carries.

/// One reported figure. `samples` is how many measurements the value
/// summarises; it is printed in the human-readable table.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one benchmark run produces.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// Failure messages kept for the report; the count is always exact.
const KEPT_FAILURES: usize = 16;

impl Outcome {
    /// Count one attempted operation and whether its output checked out.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why);
            }
        }
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Report every per-layer metric of `table` this workload did not
    /// measure as 0: the workload never calls that layer.
    pub fn complete_per_layer(&mut self, table: &[(&'static str, &'static str)]) {
        let mut bypassed = Vec::new();
        for &(name, unit) in table {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(name, 0.0, unit, 0);
                bypassed.push(name);
            }
        }
        if !bypassed.is_empty() {
            self.note(format!(
                "0 for the layers this workload does not call: {}",
                bypassed.join(", ")
            ));
        }
    }

    /// The reported metrics must be exactly those of `table`, each once
    /// and in its unit; anything else is a fault of the benchmark and
    /// fails the run.
    pub fn check_metrics(&mut self, table: &[(&'static str, &'static str)]) {
        let mut problems = Vec::new();
        for &(name, unit) in table {
            match self.metrics.iter().filter(|m| m.name == name).count() {
                1 => {}
                0 => problems.push(format!("metric {name} was not measured")),
                n => problems.push(format!("metric {name} was reported {n} times")),
            }
            if let Some(m) = self.metrics.iter().find(|m| m.name == name && m.unit != unit) {
                problems.push(format!("metric {name} is in {}, not {unit}", m.unit));
            }
        }
        for m in &self.metrics {
            if !table.iter().any(|&(name, _)| name == m.name) {
                problems.push(format!("metric {} is not in the manifest", m.name));
            }
        }
        for p in problems {
            self.op(Err(p));
        }
    }

    /// The share of attempted operations that failed or were refused.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every operation succeeded, something was attempted, and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the human-readable table, then the JSON result as the last
    /// line of stdout.
    pub fn print(&self) {
        for note in &self.notes {
            println!("note: {note}");
        }
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        println!(
            "ops: {} attempted, {} failed ({:.6} failed share)",
            self.attempted,
            self.failed,
            self.failed_share()
        );
        for m in &self.metrics {
            println!(
                "{:<40} {:>16.4} {:<8} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; `correct()` already
                // fails such a run, so report them as 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Run `setup` `times` times, keep the last result, and return it with
/// the median wall time of one setup in seconds.
pub fn timed_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last: Option<T> = None;
    for _ in 0..times {
        // Drop the previous fixture first so two never coexist.
        drop(last.take());
        let t = std::time::Instant::now();
        let fixture = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(fixture);
    }
    Ok((last.expect("at least one setup ran"), median(&secs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.op(Err("mismatch".to_string()));
        o.metric("latency_ms", 1.25, "ms", 2);
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn bypassed_layers_read_zero_and_stray_metrics_fail_the_run() {
        let table = [("a_ms", "ms"), ("b_ns", "ns")];
        let mut o = Outcome::default();
        o.op(Ok(()));
        o.metric("a_ms", 2.0, "ms", 1);
        o.complete_per_layer(&table);
        o.check_metrics(&table);
        assert!(o.correct());
        assert_eq!(o.metrics[1].name, "b_ns");
        assert_eq!(o.metrics[1].value, 0.0);

        let mut o = Outcome::default();
        o.metric("a_ms", 2.0, "s", 1);
        o.metric("c", 1.0, "count", 1);
        o.check_metrics(&table);
        assert_eq!(o.failed, 3);
    }
}
