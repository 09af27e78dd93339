//! Percentiles, the open-loop schedule, and the process's own CPU and
//! memory counters.

use std::time::{Duration, Instant};

/// The median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p95 needs 200 samples.
pub const SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p));
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n < rank + SAMPLES_BEYOND || rank == 0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// An open-loop schedule: request `i` is due at `start + i * interval`
/// whatever happened to the requests before it.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32
    }
}

/// One open-loop request as the feeder saw it.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    /// Acknowledged − due: includes the wait a stall imposed before the
    /// request could even be sent.
    pub latency: Duration,
    /// Sent − due: how late the generator itself ran.
    pub lag: Duration,
}

impl OpenLoopSample {
    pub fn new(due: Instant, sent: Instant, acked: Instant) -> Self {
        OpenLoopSample {
            latency: acked.saturating_duration_since(due),
            lag: sent.saturating_duration_since(due),
        }
    }
}

/// User + system CPU time of this process, from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the numeric fields follow its ')'.
    let after = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields 14 and 15 of the line are utime and stime; `after` starts at
    // field 3.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // USER_HZ is 100 on every Linux ABI Rust targets.
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p95_is_refused_under_200_samples() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // The median needs 20 samples for ten beyond it.
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_that_waited_behind_it() {
        let schedule = Schedule {
            start: Instant::now(),
            interval: Duration::from_millis(100),
        };
        // The server stalls for 350 ms on request 0; requests 1..3 were due
        // meanwhile and can only be sent once it returns, 10 ms apart.
        let ms = Duration::from_millis;
        let stall_end = schedule.start + ms(350);
        let mut samples = vec![OpenLoopSample::new(
            schedule.due(0),
            schedule.due(0),
            stall_end,
        )];
        for i in 1..=3 {
            let sent = stall_end + ms(10) * (i as u32 - 1);
            samples.push(OpenLoopSample::new(schedule.due(i), sent, sent + ms(10)));
        }
        let latency: Vec<u128> = samples.iter().map(|s| s.latency.as_millis()).collect();
        let lag: Vec<u128> = samples.iter().map(|s| s.lag.as_millis()).collect();
        // Timed from send, requests 1..3 would each read 10 ms.
        assert_eq!(latency, vec![350, 260, 170, 80]);
        assert_eq!(lag, vec![0, 250, 160, 70]);
        // A request sent early is not credited with negative lag.
        let early = OpenLoopSample::new(schedule.due(5), schedule.due(4), schedule.due(5) + ms(1));
        assert_eq!(early.lag, Duration::ZERO);
    }

    #[test]
    fn process_counters_read() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() >= before);
        assert!(peak_rss_mb() > 1.0);
    }
}
