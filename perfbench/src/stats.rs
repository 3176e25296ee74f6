//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) by nearest rank over a copy of `xs`; `NaN` for
/// an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The mean, over ⌈√n⌉ consecutive chunks of `xs` (in time order), of each
/// chunk's median. Within a chunk the median shrugs off a stall. Across
/// chunks the mean moves smoothly with the share of the run the machine
/// spent slow, where one median over all samples jumps between the two
/// speeds of a machine that alternates between them.
pub fn chunked_median(xs: &[f64]) -> f64 {
    let n = xs.len();
    let k = (n as f64).sqrt().ceil() as usize;
    let medians: Vec<f64> = (0..k).map(|i| median(&xs[i * n / k..(i + 1) * n / k])).collect();
    mean(&medians)
}

/// Whether `n` samples leave at least ten beyond their 99th percentile.
pub fn p99_supported(n: usize) -> bool {
    n >= 1000
}
