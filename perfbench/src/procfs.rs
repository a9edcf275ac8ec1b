//! Readings from `/proc`: CPU time and peak resident set of a process,
//! and the host's steal time.

use std::fs;

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`, fixed at
/// 100 on x86 Linux whatever the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// A process's user + system CPU seconds, all threads (including ended
/// ones), from `/proc/<pid>/stat`.
pub fn cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; the fields after it do not.
    let tail = text
        .rsplit_once(')')
        .map(|(_, t)| t)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = tail.split_whitespace().collect();
    // Fields 14 and 15 of the line (utime, stime) are 11 and 12 here.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: bad field {i}"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// A process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Host-wide steal seconds so far, summed over CPUs (`/proc/stat`).
pub fn steal_s() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let line = text.lines().next().unwrap_or("");
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<u64>().ok())
        .map(|t| t as f64 / USER_HZ)
        .ok_or_else(|| "/proc/stat: no steal column".to_string())
}
