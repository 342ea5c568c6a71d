//! Host context recorded beside every run but never gated: thread counts, the
//! hypervisor's steal share, process CPU time, peak memory and a fixed
//! memory-gather calibration kernel, so a reader can spot a set of runs that
//! shared the machine with a noisy neighbour.

use crate::clock;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 if the kernel
/// does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) this process has used, in nanoseconds, at the
/// kernel's clock-tick resolution (10 ms on Linux).
pub fn process_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are fields 14
    // and 15 of the whole line, i.e. 12 and 13 after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) * NS_PER_TICK
}

/// The pool's scheduler counters accumulated between two `rayon::pool_stats`
/// snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolDelta {
    /// Jobs executed.
    pub tasks: u64,
    /// Steal scans that ran.
    pub steals_attempted: u64,
    /// Steal scans that took a job from another worker.
    pub steals_succeeded: u64,
    /// Times a worker went to sleep.
    pub parks: u64,
}

impl PoolDelta {
    /// The counters from `before` to `after`.
    pub fn between(before: &rayon::PoolStats, after: &rayon::PoolStats) -> Self {
        Self {
            tasks: after.tasks_executed - before.tasks_executed,
            steals_attempted: after.steals_attempted - before.steals_attempted,
            steals_succeeded: after.steals_succeeded - before.steals_succeeded,
            parks: after.parks - before.parks,
        }
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tasks\": {}, \"steals_attempted\": {}, \"steals_succeeded\": {}, \"parks\": {}}}",
            self.tasks, self.steals_attempted, self.steals_succeeded, self.parks
        )
    }
}

/// The machine-wide CPU counters of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Time the hypervisor ran something else while this guest wanted the CPU.
    pub steal: u64,
    /// All accounted time (user through steal).
    pub total: u64,
}

impl CpuTicks {
    /// Reads the aggregate `cpu` line; zeros if unavailable.
    pub fn read() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of the time between `self` and `later` that the hypervisor stole.
    pub fn steal_share_until(self, later: Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Milliseconds a fixed memory-gather kernel takes: 4M pseudo-random reads from a
/// 64 MiB table, median of three. The table is built untimed; the kernel's work
/// never changes, so its time tracks the machine's memory latency and load.
pub fn calibrate_ms() -> f64 {
    const TABLE: usize = 1 << 24;
    const READS: usize = 1 << 22;
    let table: Vec<u32> = (0..TABLE as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let (sum, ns) = clock::timed(|| {
                let mut index: u64 = 0x9E37_79B9;
                let mut sum: u64 = 0;
                for _ in 0..READS {
                    index = index
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    sum = sum.wrapping_add(u64::from(table[(index >> 40) as usize % TABLE]));
                }
                sum
            });
            std::hint::black_box(sum);
            ns as f64 / 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// The commit the benchmark was built from, as passed in `PERFBENCH_GIT_REV` by
/// `run.py`, or `unknown`.
pub fn git_rev() -> String {
    std::env::var("PERFBENCH_GIT_REV")
        .ok()
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        let before = CpuTicks {
            steal: 10,
            total: 1000,
        };
        let after = CpuTicks {
            steal: 30,
            total: 1200,
        };
        assert!((before.steal_share_until(after) - 0.1).abs() < 1e-12);
        assert_eq!(before.steal_share_until(before), 0.0);
    }

    #[test]
    fn proc_readers_do_not_fail_on_linux() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(CpuTicks::read().total > 0);
    }
}
