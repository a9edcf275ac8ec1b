//! `write_scenario` writes in O(chunk) memory: a million-row store file
//! raises the process's peak resident set by a few chunk buffers, not by
//! the instance. Its own binary, so no other test shares the peak.

#![cfg(target_os = "linux")]

use llp_workloads::scenario::{registry, RunBudget};
use llp_workloads::write_scenario;
use std::path::Path;

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in kB")
}

#[test]
fn writing_a_million_rows_holds_chunks_not_the_instance() {
    let mut sc = registry(RunBudget::Full)
        .into_iter()
        .find(|s| s.name == "lp_uniform")
        .expect("lp_uniform is a registry scenario");
    sc.n = 1_000_000;
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("store_writer_memory.llps");
    let before = peak_rss_kb();
    let written = write_scenario(&sc, &path, 65_536);
    let grown_mb = (peak_rss_kb() - before) as f64 / 1024.0;
    let _ = std::fs::remove_file(&path);
    let (header, bytes) = written.expect("write the store file");
    assert_eq!(header.rows, 1_000_000);
    assert_eq!(bytes, header.file_bytes());
    // The whole instance as `Vec<Halfspace>` is ~62 MB; a 65,536-row chunk
    // and its encoded frame are 2 MiB each.
    assert!(grown_mb < 16.0, "peak RSS grew {grown_mb:.1} MB");
}
