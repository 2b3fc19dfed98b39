//! Order statistics and the metric sheet a run prints.

use std::time::Instant;

/// Median of `values` (mean of the two central values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The 99th percentile when at least ten samples lie beyond it
/// (n ≥ 1000); otherwise the highest of p95/p90/p75/p50 that keeps ten
/// samples beyond it, and the maximum below 20 samples. Returns the
/// value and the label of the statistic used.
pub fn tail(values: &[f64]) -> (f64, &'static str) {
    let n = values.len() as f64;
    for (q, label) in [
        (0.99, "p99"),
        (0.95, "p95"),
        (0.90, "p90"),
        (0.75, "p75"),
        (0.5, "p50"),
    ] {
        if n * (1.0 - q) >= 10.0 {
            return (quantile(values, q), label);
        }
    }
    (quantile(values, 1.0), "max")
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used, from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` at
/// nanosecond resolution. Host steal time is not charged to the
/// process, so CPU cost per operation is far steadier than wall time on
/// a shared virtual machine.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`: on Linux both
    // fields are C `long`s (`time_t` is `long` there).
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a printed metric was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed or counted directly.
    Measured,
    /// Arithmetic over measured values.
    Derived,
    /// Computed from input sizes, not observed.
    Computed,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Derived => "derived",
            Kind::Computed => "computed",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub kind: Kind,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
}

impl Sheet {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, kind: Kind, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            kind,
            samples,
        });
    }

    /// A directly measured value.
    pub fn measured(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Kind::Measured, samples);
    }

    /// A value derived from measured ones.
    pub fn derived(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.push(name, value, unit, Kind::Derived, samples);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Human-readable lines: name, value, unit, kind, sample count.
    pub fn table(&self, prefix: &str) -> String {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{prefix} {:<36} {:>16} {:<6} {:<9} n={}\n",
                    m.name,
                    json_number(m.value),
                    m.unit,
                    m.kind.label(),
                    m.samples
                )
            })
            .collect()
    }
}

/// A finite number in JSON form, with all its digits (Rust's shortest
/// round-trip representation).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite by construction");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).1, "p99");
        assert_eq!(tail(&v[..999]).1, "p95");
        assert_eq!(tail(&v[..12]).1, "max");
    }
}
