//! Pure helpers behind the reported numbers: percentiles with failed ops
//! counted as infinitely slow, and peak-RSS parsing.

/// Linearly interpolated percentile (`q` in `0..=1`) of `samples`.
///
/// A failed op is recorded as `f64::INFINITY`, so a failure that falls at
/// or next to the requested rank makes the percentile infinite: it misses
/// every latency limit. Returns NaN when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if frac == 0.0 || lo + 1 == v.len() {
        return v[lo];
    }
    if v[lo + 1].is_infinite() {
        return f64::INFINITY;
    }
    v[lo] + frac * (v[lo + 1] - v[lo])
}

/// The 50th percentile.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `VmHWM` (peak resident set) from the text of a `/proc/<pid>/status`
/// file, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

fn proc_file(pid: Option<u32>, name: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{name}"),
        None => format!("/proc/self/{name}"),
    }
}

/// Peak RSS of process `pid` (`None`: this process), in MiB: the peak
/// since the process started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string(proc_file(pid, "status")).ok()?)
}

/// Lower the peak-RSS mark of process `pid` to its current RSS, so that
/// peaks can be read per op (or per interval) and summarized by their
/// median instead of one whole-run maximum. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    std::fs::write(proc_file(pid, "clear_refs"), "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&ten, 0.0), 1.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failures_count_as_infinitely_slow() {
        // One failure in ten: the median is untouched, p90 interpolates
        // into the failure and so misses any limit.
        let mut s: Vec<f64> = (1..=9).map(f64::from).collect();
        s.push(INF);
        assert_eq!(median(&s), 5.5);
        assert_eq!(percentile(&s, 0.9), INF);
        assert!((percentile(&s, 0.8) - 8.2).abs() < 1e-12);
        // Half failed: the median itself is infinite.
        assert_eq!(median(&[1.0, INF, 2.0, INF, INF]), INF);
        assert_eq!(median(&[INF, INF]), INF);
        assert_eq!(median(&[1.0, INF]), INF);
    }

    #[test]
    fn vm_hwm_is_parsed_in_mib() {
        let status =
            "Name:\trepro\nVmPeak:\t  999999 kB\nVmHWM:\t   204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("VmHWM: 1536 kB"), Some(1.5));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t1024 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\n"), None);
    }

    #[test]
    fn own_peak_rss_is_readable_and_resettable() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb(None).expect("VmHWM is readable");
        assert!(before >= 64.0);
        drop(big);
        if reset_peak_rss(None) {
            assert!(peak_rss_mb(None).expect("VmHWM is readable") < before);
        }
    }
}
