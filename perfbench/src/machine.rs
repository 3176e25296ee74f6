//! Machine context stamped on every record, so that run-to-run noise can be
//! attributed: revision, cores, toolchain, load and CPU steal.

use std::process::Command;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let nums: Vec<u64> = line.split_whitespace().skip(1).filter_map(|x| x.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal ...
    Some(CpuTimes { total: nums.iter().take(8).sum(), steal: *nums.get(7)? })
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(a: Option<CpuTimes>, b: Option<CpuTimes>) -> Option<f64> {
    let (a, b) = (a?, b?);
    let total = b.total.checked_sub(a.total)?;
    (total > 0).then(|| b.steal.saturating_sub(a.steal) as f64 / total as f64)
}

/// 1-minute load average.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg").ok()?.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, exited ones
/// included, in ns. Time a thread waits for a CPU is not in it, nor is time
/// the hypervisor steals from a vCPU: the guest's task clock leaves steal
/// out. That makes it the clock for figures that must not move when the
/// host is busy.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live `Timespec` laid out as
    // `struct timespec` is on 64-bit Linux (two 64-bit fields), the only
    // target this benchmark builds for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux supports CLOCK_PROCESS_CPUTIME_ID");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// The checked-out revision: read from `.git` when the checkout is a git
/// repository, `unknown` otherwise (no git process is spawned).
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.into() };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().into();
    }
    // A packed ref: "<rev> <name>" lines in .git/packed-refs.
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| head.into())
}

pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
