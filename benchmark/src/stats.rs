//! Order statistics, hashing and span timing shared by the workloads,
//! the report and `compare`.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads printed here
/// match the ones that function gives for the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => (0.0, 0.0, 0.0),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = ld + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the conventional tail percentiles that still has at
/// least ten samples beyond it, or `None` when not even the median does.
/// A tail read off fewer samples is one outlier, not a percentile.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// One open-loop leg of the rate ladder, as the decision sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegOutcome {
    /// Offered rate (packets per second).
    pub rate: f64,
    /// Verdict-latency p99 (ms); a missing verdict makes it infinite.
    pub p99_ms: f64,
    /// How late the generator released the leg's last packet (ms).
    pub end_late_ms: f64,
}

/// The highest ladder rate whose median leg meets the latency limit on
/// both the verdict p99 and the generator's lateness at leg end (a
/// growing backlog shows as lateness). Rates are judged independently:
/// a light-load rate can fail (a batch waiting to fill) while a higher
/// one passes. `None` when no rate passes.
pub fn sustained_rate(legs: &[LegOutcome], limit_ms: f64) -> Option<f64> {
    let mut rates: Vec<f64> = legs.iter().map(|l| l.rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    rates.into_iter().rev().find(|&rate| {
        let at: Vec<&LegOutcome> = legs.iter().filter(|l| l.rate == rate).collect();
        let p99: Vec<f64> = at.iter().map(|l| l.p99_ms).collect();
        let late: Vec<f64> = at.iter().map(|l| l.end_late_ms).collect();
        median(&p99) <= limit_ms && median(&late) <= limit_ms
    })
}

/// FNV-1a 64-bit over `bytes`, continuing from `h` (start with
/// [`FNV_OFFSET`]).
pub fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `f`, adding its wall time in seconds to `acc` — one timed span
/// of a traced run.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = std::time::Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(100_000), Some(99.99));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(19), None);
    }

    fn leg(rate: f64, p99_ms: f64, end_late_ms: f64) -> LegOutcome {
        LegOutcome { rate, p99_ms, end_late_ms }
    }

    #[test]
    fn ladder_takes_the_highest_passing_rate_even_past_a_failing_light_load() {
        let legs = [
            // light load: a batch of 16 waits to fill, so p99 misses
            leg(50e3, 17.0, 0.01),
            leg(50e3, 16.5, 0.01),
            leg(50e3, 17.4, 0.02),
            leg(100e3, 9.1, 0.01),
            leg(100e3, 9.3, 0.01),
            leg(100e3, 9.0, 0.02),
            // one bad leg out of three: the median leg still passes
            leg(200e3, 4.0, 0.05),
            leg(200e3, 30.0, 0.05),
            leg(200e3, 4.2, 0.04),
            // over capacity: the backlog grows, the generator falls behind
            leg(400e3, 8.0, 120.0),
            leg(400e3, 7.5, 118.0),
            leg(400e3, 7.9, 125.0),
        ];
        assert_eq!(sustained_rate(&legs, 10.0), Some(200e3));
        assert_eq!(sustained_rate(&legs[..6], 10.0), Some(100e3));
        assert_eq!(sustained_rate(&legs[..3], 10.0), None);
        assert_eq!(sustained_rate(&legs[9..], 10.0), None);
        // a missing verdict is an infinite p99
        assert_eq!(sustained_rate(&[leg(100e3, f64::INFINITY, 0.0)], 10.0), None);
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(fnv64(FNV_OFFSET, b"fo"), b"obar"), fnv64(FNV_OFFSET, b"foobar"));
    }
}
