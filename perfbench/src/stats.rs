//! Summary statistics and the host record printed with every result.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`NaN` when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The arithmetic mean (`0` when empty: every per-job mean of a layer
/// that did no work).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Time to a valid answer with 99% confidence: the mean job wall times
/// the number of jobs needed, `max(1, ln 0.01 / (reads · ln(1 − p)))`,
/// for a pooled valid fraction `p`. Infinite when nothing was valid.
pub fn tts99(mean_job_s: f64, reads_per_job: f64, valid_fraction: f64) -> f64 {
    if valid_fraction <= 0.0 {
        return f64::INFINITY;
    }
    if valid_fraction >= 1.0 {
        return mean_job_s;
    }
    let jobs = 0.01f64.ln() / (reads_per_job * (1.0 - valid_fraction).ln());
    mean_job_s * jobs.max(1.0)
}

/// Peak resident set of this process in MiB, from `/proc/self/status`
/// (`NaN` where that file does not exist).
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
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Facts about the host that make wall times comparable across
/// machines. Not a gated metric.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The checked-out commit, when the working directory is a git
    /// checkout; `"unknown"` otherwise.
    pub commit: String,
    /// Median wall of a fixed integer-and-float workload, in seconds:
    /// divide a wall time by it to compare hosts.
    pub calibration_s: f64,
}

impl Host {
    /// Measures the host (about a tenth of a second).
    pub fn measure() -> Host {
        let runs: Vec<f64> = (0..5).map(|_| calibration_run()).collect();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            calibration_s: quantile(&runs, 0.5),
        }
    }
}

/// A fixed amount of dependent integer and floating-point work.
fn calibration_run() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0.0f64;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16);
    }
    black_box((x, acc));
    start.elapsed().as_secs_f64()
}

/// Reads `HEAD` from `root/.git` without running git (which would walk
/// up into any enclosing repository).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tts_clamps_to_one_job_and_grows_as_validity_falls() {
        assert_eq!(tts99(2.0, 100.0, 0.5), 2.0);
        let rare = tts99(2.0, 100.0, 0.001);
        assert!((rare - 2.0 * 0.01f64.ln() / (100.0 * 0.999f64.ln())).abs() < 1e-12);
        assert!(tts99(2.0, 100.0, 0.0).is_infinite());
    }
}
