//! The benchmark's statistics: percentiles that carry their sample
//! count, medians, and per-tuple latency matched by tuple id.

/// A percentile together with the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value.
    pub value: f64,
    /// How many samples the value was computed from.
    pub samples: usize,
    /// How many samples lie strictly above the percentile's rank: a
    /// percentile is trustworthy only when this is at least ten.
    pub beyond: usize,
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks, or `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
    Some(Percentile {
        value,
        samples: sorted.len(),
        beyond: sorted.len() - 1 - hi,
    })
}

/// The median of `values`, `0.0` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |p| p.value)
}

/// The median of `f` over `items`, `0.0` when there are none.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Why a set of arrivals does not match the sent tuples one to one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// An arrival carries an id that was never sent.
    UnknownId(u64),
    /// An id arrived more than once.
    Duplicate(u64),
    /// This many sent ids never arrived.
    Missing(usize),
}

/// Per-tuple latency in milliseconds, matched by id: tuple `id` was due
/// at `due_ms[id]` and its polluted copy arrived at the paired time.
/// Every sent id must arrive exactly once.
pub fn latencies_by_id(due_ms: &[f64], arrivals: &[(u64, f64)]) -> Result<Vec<f64>, MatchError> {
    let mut seen = vec![false; due_ms.len()];
    let mut out = Vec::with_capacity(arrivals.len());
    for &(id, at) in arrivals {
        let slot = usize::try_from(id)
            .ok()
            .filter(|&i| i < due_ms.len())
            .ok_or(MatchError::UnknownId(id))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(MatchError::Duplicate(id));
        }
        out.push(at - due_ms[slot]);
    }
    match seen.iter().filter(|s| !**s).count() {
        0 => Ok(out),
        missing => Err(MatchError::Missing(missing)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_counts_samples() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!(p50.value, 51.0);
        assert_eq!(p50.samples, 101);
        assert_eq!(p50.beyond, 50);
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 100.0);
        assert_eq!(p99.beyond, 1);
        // Between ranks the value interpolates linearly.
        let p = percentile(&[10.0, 0.0], 0.25).unwrap();
        assert_eq!(p.value, 2.5);
        assert_eq!(p.samples, 2);
    }

    #[test]
    fn percentile_of_empty_and_single_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).unwrap().beyond, 9);
        let v: Vec<f64> = (0..1100).map(f64::from).collect();
        assert!(percentile(&v, 0.99).unwrap().beyond >= 10);
    }

    #[test]
    fn latency_is_matched_by_id_not_by_arrival_order() {
        let due = [0.0, 10.0, 20.0];
        // Arrivals out of order: id 2 first.
        let lat = latencies_by_id(&due, &[(2, 25.0), (0, 4.0), (1, 11.0)]).unwrap();
        assert_eq!(lat, vec![5.0, 4.0, 1.0]);
    }

    #[test]
    fn latency_matching_rejects_unknown_duplicate_and_lost_ids() {
        let due = [0.0, 1.0];
        assert_eq!(
            latencies_by_id(&due, &[(0, 1.0), (5, 2.0)]),
            Err(MatchError::UnknownId(5))
        );
        assert_eq!(
            latencies_by_id(&due, &[(0, 1.0), (0, 2.0)]),
            Err(MatchError::Duplicate(0))
        );
        assert_eq!(
            latencies_by_id(&due, &[(1, 3.0)]),
            Err(MatchError::Missing(1))
        );
    }
}
