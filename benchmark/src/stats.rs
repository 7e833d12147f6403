//! Order statistics over a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) so a spread computed here equals the one the
//! PR driver computes over the same values.

/// Median, quartiles and sample count of one metric over its repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let (q1, median, q3) = quartiles(samples)?;
        Some(Summary {
            n: samples.len(),
            q1,
            median,
            q3,
            samples: samples.to_vec(),
        })
    }

    #[cfg(test)]
    /// Inter-quartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `(q1, median, q3)`. One sample is its own quartiles; none gives `None`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    match m {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive", n = 4.
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.1)
}

/// Nearest-rank percentile `p` in `[0, 1]` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
