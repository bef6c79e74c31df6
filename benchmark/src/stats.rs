//! Order statistics and `/proc` parsing shared by every phase.

/// Nearest-rank percentile of an unsorted sample (`q` in (0, 1]); 0.0
/// for an empty one. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median with the two middle values averaged on even counts — the value
/// reported for a metric measured once per round.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the spread rule the benchmark's
/// bounds are sized against. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |i: usize| {
        // position i·(n+1)/4 on a 1-based axis; j is clamped to an
        // existing pair and delta taken after, so the ends extrapolate
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The decile on the good side of the per-round values of a run: the
/// first for a cost, the ninth for a rate (linear interpolation between
/// order statistics). Interference from the other tenants of the host
/// only ever slows a round, so this is the speed of a quiet host: a
/// per-layer diagnostic (`client.sat_ops_s_quiet`), not a gated value,
/// because it is as blind to what slows nine rounds in ten as it is to
/// the host.
pub fn good_decile(values: &[f64], lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = if lower_is_better { 0.1 } else { 0.9 } * (v.len() - 1) as f64;
    let (i, frac) = (at as usize, at.fract());
    match v.get(i + 1) {
        Some(next) => v[i] * (1.0 - frac) + next * frac,
        None => v[i],
    }
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Largest |a − b| over all pairs as a share of the median.
pub fn max_pairwise_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // after the command: state is field 3, utime 14, stime 15
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status` (`VmHWM`, `VmRSS`) in megabytes.
pub fn parse_status_mb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Linux reports process times in ticks of 1/100 s on every supported
/// configuration (`USER_HZ`); the benchmark does not link libc to ask.
pub const TICKS_PER_S: f64 = 100.0;

/// Time on a CPU in nanoseconds from the text of a `schedstat` file
/// (its first field).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds (user + system, reaped children excluded) a process has
/// used so far, threads that have exited included, in the 10 ms ticks of
/// `/proc/<pid>/stat`.
pub fn cpu_seconds_coarse(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_S)
}

/// CPU seconds the *live* threads of a process have used so far: the
/// scheduler's nanosecond run times of `/proc/<pid>/task/*/schedstat`,
/// so a round of a few milliseconds still resolves. Falls back to
/// [`cpu_seconds_coarse`] where the kernel keeps no scheduler statistics.
pub fn cpu_seconds(pid: u32) -> f64 {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok();
    let ns: Option<u64> = tasks.and_then(|dir| {
        dir.flatten()
            .map(|t| {
                std::fs::read_to_string(t.path().join("schedstat"))
                    .ok()
                    .and_then(|s| parse_schedstat_ns(&s))
            })
            .sum()
    });
    match ns {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => cpu_seconds_coarse(pid),
    }
}

/// Peak resident set of a process, MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_mb(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// FNV-1a over bytes, 64-bit: the op-stream fingerprint in the header.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v.clone(), 0.5), 50.0);
        assert_eq!(percentile(&mut v.clone(), 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [7.0], 0.01), 7.0);
    }

    #[test]
    fn median_of_rounds_averages_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert!(
            (q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!(
            (q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn good_decile_takes_the_good_side() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert!((good_decile(&v, true) - 1.0).abs() < 1e-12);
        assert!((good_decile(&v, false) - 9.0).abs() < 1e-12);
        // between order statistics: 0.1 × 3 = 0.3 of the way from 1 to 2
        assert!((good_decile(&[4.0, 1.0, 2.0, 3.0], true) - 1.3).abs() < 1e-12);
        assert!((good_decile(&[4.0, 1.0, 2.0, 3.0], false) - 3.7).abs() < 1e-12);
        assert_eq!(good_decile(&[4.0], true), 4.0);
        assert_eq!(good_decile(&[], false), 0.0);
    }

    #[test]
    fn pairwise_deviation_is_range_over_median() {
        assert!((max_pairwise_share(&[10.0, 11.0, 9.0]) - 0.2).abs() < 1e-12);
        assert_eq!(max_pairwise_share(&[5.0]), 0.0);
    }

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "4242 (geo sir) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    137 21 0 0 20 0 7 0 123456 1000000 250 18446744073709551615 \
                    0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_ticks(line), Some(158));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat_ns("5574865 4156265 12\n"), Some(5_574_865));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn own_cpu_time_advances_while_this_thread_works() {
        let before = cpu_seconds(std::process::id());
        let mut x = 1u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(cpu_seconds(std::process::id()) > before, "{x}");
    }

    #[test]
    fn status_lines_in_mb() {
        let status = "Name:\tgeosir\nVmPeak:\t  90000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_mb(status, "VmHWM"), Some(20.0));
        assert_eq!(parse_status_mb(status, "VmRSS"), Some(1.0));
        assert_eq!(parse_status_mb(status, "VmSwap"), None);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
