//! What the kernel knows about this process: CPU time and peak memory.

use std::time::Duration;

/// `VmHWM` (peak resident set) in MiB out of `/proc/<pid>/status`.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU time consumed so far by every thread this process has
/// had, joined ones included, at nanosecond resolution.  (`/proc/self/stat`
/// carries the same figure in 10 ms ticks, which is a seventh of one
/// `svc_durable` repetition; the standard library has no safe call for it.)
pub fn process_cpu() -> Duration {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer and
    // nothing else; `now` is a live, exclusively borrowed value whose layout
    // (two 64-bit fields) is the C `struct timespec` of every 64-bit Linux
    // target, the only platform this benchmark reads `/proc` on.
    let status = unsafe { clock_gettime(PROCESS_CPUTIME, &mut now) };
    assert_eq!(status, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// Restarts the peak-RSS watermark at the current resident size (Linux ≥ 4.0),
/// so that what set-up touched and released is not charged to the timed
/// repetitions.  Best effort: where the kernel refuses, the peak simply keeps
/// covering the whole process, on every run alike.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What a [`SpeedProbe`] reading takes on the box the first numbers were recorded on
/// (2 vCPUs, Xeon @ 2.1 GHz) while nothing disturbs it.
pub const PROBE_REFERENCE: Duration = Duration::from_millis(24);

/// A fixed piece of single-threaded work — pseudo-random read-modify-writes
/// over an 8 MiB table, far larger than the core's own caches — timed to tell
/// how fast the machine is *right now*.
///
/// The sandbox this benchmark runs on slows down by 1.3–2× for tens of
/// seconds at a time (noisy neighbours: CPU time equals wall time throughout,
/// so it is not steal), which moves every timing of a ten-second run together
/// and no estimator within the run can undo it.  Timings are therefore
/// divided by the probe's concurrent reading relative to
/// [`PROBE_REFERENCE`]; on an undisturbed reference box the factor is 1.
/// Of an ALU-bound, a cache-resident and this memory-bound probe, this one
/// tracked the workloads best (raw → scaled spread over ten runs: 22 → 17 %
/// `explore_sym`, 35 → 16 % `explore_deep`, 45 → 8 % `check_dense`, 7 → 5 %
/// `svc_wide`): what the neighbours take away is the shared memory system.
pub struct SpeedProbe {
    table: Vec<u64>,
}

impl SpeedProbe {
    /// The table lives as long as the probe (filled, not zeroed, so its pages
    /// exist before any clock starts): allocating it per reading would put
    /// page faults in the reading and an 8 MiB bump in the next peak RSS.
    /// As it is, every RSS figure of a probed run includes these 8 MiB.
    pub fn new() -> Self {
        SpeedProbe {
            table: vec![1u64; 1 << 20],
        }
    }

    pub fn read(&mut self) -> Duration {
        let mask = self.table.len() - 1;
        let start = std::time::Instant::now();
        let mut x = 1u64;
        for k in 0..6_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            let slot = &mut self.table[(x >> 40) as usize & mask];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        start.elapsed()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_hwm_is_reported_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(2.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        let before = process_cpu();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1).rotate_left(7));
        }
        assert!(process_cpu() > before, "busy work consumes CPU time ({x})");
    }
}
