//! CPU attribution and host-drift reference, read from `/proc` so that
//! no layer has to be instrumented from inside.

use std::time::Duration;

use mpil_harness::WallClock;

/// Kernel clock ticks per second for `/proc/*/stat` CPU fields (the
/// Linux user-space ABI value).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, all threads alive or exited), in
/// seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Nanoseconds on CPU of one task, from its `schedstat`.
fn schedstat_ns(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds on CPU of the calling thread.
pub fn own_thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU nanoseconds of the live threads, summed per group: `mpild` (the
/// daemon loop) and `mpil-node-*` (cluster nodes). The generator threads
/// read their own time before they exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCpu {
    /// The daemon thread.
    pub daemon_ns: u64,
    /// All cluster node threads.
    pub nodes_ns: u64,
}

impl ThreadCpu {
    /// Samples `/proc/self/task/*/{comm,schedstat}`.
    pub fn sample() -> Self {
        let mut out = ThreadCpu::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return out;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let ns = schedstat_ns(&dir.join("schedstat").to_string_lossy());
            match comm.trim() {
                c if c == crate::svc::DAEMON_THREAD => out.daemon_ns += ns,
                c if c.starts_with("mpil-node-") => out.nodes_ns += ns,
                _ => {}
            }
        }
        out
    }

    /// Per-group growth since `earlier`.
    pub fn since(self, earlier: ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            daemon_ns: self.daemon_ns.saturating_sub(earlier.daemon_ns),
            nodes_ns: self.nodes_ns.saturating_sub(earlier.nodes_ns),
        }
    }

    /// Adds another interval.
    pub fn add(&mut self, other: ThreadCpu) {
        self.daemon_ns += other.daemon_ns;
        self.nodes_ns += other.nodes_ns;
    }
}

/// Milliseconds a fixed integer-mixing loop takes: a host-drift
/// reference reported beside each run and never used to scale anything.
pub fn host_reference_ms() -> f64 {
    let clock = WallClock::start();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.wrapping_mul(i | 1));
    }
    std::hint::black_box(acc);
    ms(clock.elapsed())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
