//! Order statistics over timing samples.

/// Nearest-rank quantile (`q` in `0..=1`) of an unsorted sample;
/// `0.0` for an empty one.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Target length of the stretches [`sustained_rate`] splits a phase
/// into.
pub const RATE_WINDOW_S: f64 = 0.25;

/// The rate a phase sustained: its completions are split into
/// consecutive stretches of equal event count, each lasting about
/// [`RATE_WINDOW_S`], and the 10th percentile of their rates is
/// returned — the rate kept up in nine stretches out of ten.
///
/// On a shared host the machine alternates between a contended state,
/// most of the time, and uncontended bursts up to 1.5× faster. The
/// share of bursts differs from run to run, so a mean or median rate
/// moves with it; the 10th percentile stays in the contended state and
/// repeats, like the p90 latency. `done_s` holds each event's completion time in
/// seconds from the phase start (ascending); each event completes
/// `per_event` items. A phase too short for two stretches falls back
/// to its overall rate.
pub fn sustained_rate(done_s: &[f64], per_event: f64, elapsed_s: f64) -> f64 {
    let stretches = (elapsed_s / RATE_WINDOW_S) as usize;
    if stretches < 2 || done_s.len() < 2 * stretches {
        return ratio(done_s.len() as f64 * per_event, elapsed_s);
    }
    let k = done_s.len() / stretches;
    let rates: Vec<f64> = (0..stretches)
        .map(|g| {
            let begin = if g == 0 { 0.0 } else { done_s[g * k - 1] };
            ratio(k as f64 * per_event, done_s[(g + 1) * k - 1] - begin)
        })
        .collect();
    quantile(&rates, 0.1)
}
