//! Host fingerprint, CPU clocks and peak memory, read from the OS.

use std::fmt;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn cpu_seconds(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // and the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed by the whole process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// The stage-1 classify backend `Scanner::detect()` chose.
    pub backend: &'static str,
    /// The kernel release.
    pub kernel: String,
}

impl Fingerprint {
    /// Read the fingerprint of this host.
    pub fn detect() -> Fingerprint {
        Fingerprint {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: flux::xml::Scanner::detect().backend().name(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpus={} backend={} kernel={}", self.cpus, self.backend, self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_and_memory_are_readable() {
        let t = process_cpu_s();
        std::hint::black_box((0..100_000u64).sum::<u64>());
        assert!(process_cpu_s() >= t);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(Fingerprint::detect().cpus >= 1);
    }
}
