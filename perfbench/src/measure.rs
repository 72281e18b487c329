//! Sample statistics and the Linux `/proc` readers behind the CPU, memory
//! and host-noise figures.

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/*/stat`
/// (fixed at 100 on every Linux ABI this benchmark targets).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Nearest-rank quantile of an unsorted sample set; NaN when it is empty,
/// which the result line refuses, so a run that measured nothing fails.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn stat_cpu_seconds(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command name may hold spaces; the fixed fields follow its ')'.
    let rest = &text[text.rfind(')').expect("stat line has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric stat field") };
    // Fields 14 and 15 of stat(5), utime and stime, counted from `state`.
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// User + system CPU of the whole process, threads that already exited
/// included, in seconds.
pub fn process_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User + system CPU of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// `VmHWM` (peak resident set) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Host-wide CPU time split from the first line of `/proc/stat`.
#[derive(Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("aggregate cpu line");
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|v| v.parse().expect("numeric /proc/stat field"))
            .collect();
        HostCpu {
            steal: values.get(7).copied().unwrap_or(0),
            total: values.iter().sum(),
        }
    }

    /// Share of the host's CPU time the hypervisor took away between
    /// `self` and `later`.
    pub fn steal_share(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 51.0);
        assert_eq!(quantile(&samples, 0.99), 100.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let host = HostCpu::now();
        assert!((0.0..=1.0).contains(&host.steal_share(&HostCpu::now())));
    }
}
