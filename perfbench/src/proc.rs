//! Process plumbing: children that are always reaped, and memory readings.

use std::process::Child;

/// Owns a child process; dropping it kills and reaps the child, so no
/// error path leaves a process behind.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `kB` field of `/proc/<pid>/status`, such as `VmHWM` or `VmRSS`.
pub fn status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// The peak resident set, in kB, of the largest child this process has
/// waited for (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_kb() -> Option<u64> {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // 64-bit layout (two `timeval`s, then fourteen `long`s), which is all
    // `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0)
        .then(|| u64::try_from(usage.maxrss).ok())
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_status() {
        let hwm = status_kb(std::process::id(), "VmHWM").expect("VmHWM");
        let rss = status_kb(std::process::id(), "VmRSS").expect("VmRSS");
        assert!(hwm >= rss && rss > 0);
        assert_eq!(status_kb(std::process::id(), "NoSuchField"), None);
    }

    #[test]
    fn child_peak_rss_is_reported_after_a_wait() {
        let status = std::process::Command::new("true")
            .status()
            .expect("spawn true");
        assert!(status.success());
        assert!(children_peak_rss_kb().expect("getrusage") > 0);
    }
}
