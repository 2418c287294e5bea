//! Order statistics over latency samples, and counters read from the
//! program's stats JSON.

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank index (0-based) of percentile `q` in `n` sorted samples,
/// or `None` when fewer than [`TAIL_BEYOND`] samples would lie above it.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
    (n - 1 - rank >= TAIL_BEYOND).then_some(rank)
}

/// The fewest samples for which [`tail_rank`] accepts percentile `q`.
pub fn min_samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| tail_rank(n, q).is_some())
        .unwrap_or(usize::MAX)
}

/// The value at percentile `q` of `values` (see [`tail_rank`]).
pub fn tail(values: &[f64], q: f64) -> Option<f64> {
    let rank = tail_rank(values.len(), q)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank])
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `"key":<integer>` field of a stats JSON object (the CLI's
/// `--stats json` line, the daemon's `stats` answer).
pub fn json_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rank_leaves_ten_samples_beyond_it() {
        for q in [0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99] {
            for n in 1..2000 {
                if let Some(rank) = tail_rank(n, q) {
                    assert!(n - 1 - rank >= TAIL_BEYOND, "q={q} n={n} rank={rank}");
                    assert!(
                        rank as f64 + 1.0 >= q * n as f64,
                        "rank below q: q={q} n={n}"
                    );
                }
            }
            let n = min_samples_for_tail(q);
            assert!(tail_rank(n, q).is_some());
            assert!(tail_rank(n - 1, q).is_none());
        }
        assert_eq!(tail_rank(99, 0.9), None);
        assert_eq!(tail_rank(100, 0.9), Some(89));
    }

    #[test]
    fn tail_picks_the_nearest_rank_sample() {
        let values: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(tail(&values, 0.75), Some(31.0));
        assert_eq!(tail(&values[..40], 0.75), Some(30.0));
        assert_eq!(tail(&values[..39], 0.75), None);
    }

    #[test]
    fn json_fields_are_read_by_key() {
        let json = r#"{"received":12,"lemmas_seeded":1469,"contraction_resumes":0}"#;
        assert_eq!(json_field(json, "lemmas_seeded"), Some(1469.0));
        assert_eq!(json_field(json, "contraction_resumes"), Some(0.0));
        assert_eq!(json_field(json, "missing"), None);
        assert_eq!(json_field(r#"{"seeded":true}"#, "seeded"), None);
    }
}
