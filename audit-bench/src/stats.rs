//! Sample summaries and span self time.

use hiding_lcp_telemetry::{SpanEvent, SpanPhase};
use std::collections::HashMap;

/// The distribution of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    /// If `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            p90: nearest_rank(&sorted, 0.90),
        }
    }
}

/// The smallest sample with at least `p` of the samples at or below it.
/// With n samples, n − ⌈p·n⌉ samples lie beyond it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    // The epsilon keeps an exact product such as 0.9 · 100 from rounding up.
    let rank = ((p * sorted.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Quartile cut points of sorted samples by the "exclusive" method — the
/// one Python's `statistics.quantiles(data, n=4)` uses by default, so the
/// spreads printed here match a check done with it.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The median of `samples` (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Self time per span name, in microseconds, summed over every span of
/// that name: each span's duration minus the durations of its direct
/// children. Names come back in the order their first span closed.
/// Events on different lanes (threads) nest independently; spans left
/// open are ignored.
pub fn self_times(events: &[SpanEvent]) -> Vec<(String, u64)> {
    // Per lane: a stack of (name, enter time, time covered by children).
    let mut stacks: HashMap<u64, Vec<(&str, u64, u64)>> = HashMap::new();
    let mut totals: Vec<(String, u64)> = Vec::new();
    for event in events {
        let stack = stacks.entry(event.lane).or_default();
        match event.phase {
            SpanPhase::Enter => stack.push((&event.name, event.ts_micros, 0)),
            SpanPhase::Exit => {
                let Some((name, start, children)) = stack.pop() else {
                    continue;
                };
                let duration = event.ts_micros.saturating_sub(start);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += duration;
                }
                let own = duration.saturating_sub(children);
                match totals.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += own,
                    None => totals.push((name.to_string(), own)),
                }
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiding_lcp_telemetry::SpanTrace;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), [1.25, 3.0, 7.0]);
        // Two points: the cut points clamp to the ends and interpolate.
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn nearest_rank_p90_leaves_a_tenth_beyond() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&data, 0.90), 90.0);
        let data: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(nearest_rank(&data, 0.90), 14.0);
        assert_eq!(nearest_rank(&[3.0], 0.90), 3.0);
    }

    #[test]
    fn summary_is_order_independent() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.p90, 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = SpanTrace::new(64);
        trace.enter("workload", 0);
        trace.enter("plan.run", 10);
        trace.enter("render", 20);
        trace.exit("render", 25);
        trace.exit("plan.run", 40);
        trace.enter("plan.run", 50);
        trace.exit("plan.run", 60);
        trace.exit("workload", 100);
        let times = self_times(&trace.events());
        assert_eq!(
            times,
            [
                ("render".to_string(), 5),
                ("plan.run".to_string(), 25 + 10),
                ("workload".to_string(), 100 - 30 - 10),
            ]
        );
    }

    #[test]
    fn self_time_ignores_unmatched_events() {
        let trace = SpanTrace::new(16);
        trace.exit("stray", 3);
        trace.enter("open", 5);
        assert!(self_times(&trace.events()).is_empty());
    }
}
