//! Sample summaries and the op accounting every workload shares.

/// The fewest samples that must lie beyond a percentile before it is
/// reported: a tail figure resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 1`) of `samples` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median, with no tail rule: used for per-layer figures and for
/// repeated set-up times, where every sample is one whole measurement.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// What happened to one attempted op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The final frame said `ok`.
    Ok,
    /// The final frame said `ok:false`.
    Refused,
    /// The connection failed before a final frame arrived.
    Transport,
}

/// Attempted and failed op counts. A refused final frame and a transport
/// error each count once as failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ops over attempted ops (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&samples, 0.90), Some(90.0));
        // p99 of 100 samples: rank 99, 1 beyond.
        assert_eq!(percentile(&samples, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn refusals_and_transport_errors_each_count_once() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Refused,
            Outcome::Ok,
            Outcome::Transport,
        ] {
            tally.record(outcome);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(tally.fail_frac(), 0.5);
        let mut total = Tally::default();
        total.merge(tally);
        total.record(Outcome::Ok);
        assert_eq!(
            total,
            Tally {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }
}
