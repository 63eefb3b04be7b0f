//! Order statistics and host facts used by every workload.

/// The 1-based nearest rank of percentile `p` (0..=100) among `n > 0`.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n > 0` samples lie above the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// First, second and third quartile by the exclusive method (the
/// default of Python's `statistics.quantiles(values, n=4)`).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    if len == 1 {
        return [d[0]; 3];
    }
    let (n, m) = (4usize, len + 1);
    let mut q = [0.0; 3];
    for (i, slot) in (1..n).zip(q.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m - j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    q
}

/// Median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let mid = d.len() / 2;
    if d.len() % 2 == 1 {
        d[mid]
    } else {
        (d[mid - 1] + d[mid]) / 2.0
    }
}

/// The process's peak resident set (VmHWM) in MiB, 0 when unreadable.
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

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles_count_their_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(v.len(), 99.0), 10);
    }
}
