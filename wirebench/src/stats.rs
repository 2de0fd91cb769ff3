//! Order statistics for the run record.

/// A sample summarised: median, quartiles, tail and size.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest ladder percentile with at least ten samples beyond
    /// it (p99 once there are 1000 samples).
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
    pub sum: f64,
}

/// Percentiles the tail may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice.
fn rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[at.clamp(1, sorted.len()) - 1]
}

/// Summarises `values` (any order).
pub fn summarize(mut values: Vec<f64>) -> Summary {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .find(|pct| n as f64 * (1.0 - pct / 100.0) >= 10.0)
        .unwrap_or(50.0);
    Summary {
        n,
        p50: rank(&values, 50.0),
        q1: rank(&values, 25.0),
        q3: rank(&values, 75.0),
        tail: rank(&values, tail_pct),
        tail_pct,
        sum: values.iter().sum(),
    }
}
