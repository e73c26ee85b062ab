//! Host facts and process probes read from `/proc/self`.

use std::fs;

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Process CPU time, user + system, summed over every thread that ever
/// ran in the process (s). `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 here.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Current resident set size (MiB).
pub fn rss_mib() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib / 1024.0)
}

/// Resident high-water mark of the process so far (MiB).
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}
