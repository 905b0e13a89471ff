//! Host-noise diagnostics. They are reported next to the measurements and
//! never used to normalize them, so a slow run on a slow host can be told
//! apart from a slow commit.

use std::hint::black_box;
use std::time::Instant;

/// `/proc/stat` counts in USER_HZ, which Linux fixes at 100 per second for
/// every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// Times a fixed reference loop (integer mixing plus a strided walk over a
/// 4 MiB buffer), in milliseconds. The work never changes, so its time
/// tracks only the host's speed at that moment.
fn probe_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 19];
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for round in 0..96u64 {
        for i in (0..buf.len()).step_by(7) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buf[i] = buf[i].wrapping_add(x ^ round);
        }
    }
    black_box(&buf);
    t.elapsed().as_secs_f64() * 1e3
}

/// Cumulative steal time of all CPUs, in milliseconds; `None` where
/// `/proc/stat` is unavailable.
fn steal_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal * 1e3 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of this process, in seconds.
fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of stat(5), i.e. 11 and 12 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Probes and counters taken at the start of a run, closed by
/// [`HostWatch::finish`] at its end.
pub struct HostWatch {
    probes: Vec<f64>,
    steal0: Option<f64>,
    cpu0: Option<f64>,
    wall: Instant,
}

/// Reference-loop repetitions at each end of the run.
const PROBES: usize = 3;

impl HostWatch {
    pub fn start() -> Self {
        Self {
            probes: (0..PROBES).map(|_| probe_ms()).collect(),
            steal0: steal_ms(),
            cpu0: cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Finishes the watch: `(probe_ms, steal_ms, summary line)`. `probe_ms`
    /// is the median over both ends of the run.
    pub fn finish(mut self) -> (f64, f64, String) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = match (self.cpu0, cpu_s()) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        let steal = match (self.steal0, steal_ms()) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        let start = crate::report::median(&self.probes);
        let end_probes: Vec<f64> = (0..PROBES).map(|_| probe_ms()).collect();
        let end = crate::report::median(&end_probes);
        self.probes.extend(end_probes);
        let probe = crate::report::median(&self.probes);
        let line = format!(
            "host: nproc={} probe_ms start={start:.2} end={end:.2} steal_ms={steal:.0} \
             wall_s={wall:.2} cpu_s={cpu:.2}",
            nproc()
        );
        (probe, steal, line)
    }
}
