//! Child processes: timed runs with their peak resident set size.

use std::ffi::OsStr;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set size) of process `pid`, in KiB; `None` once
/// the process has exited or when the kernel does not report it.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One finished child process.
#[derive(Debug)]
pub struct Finished {
    pub status: ExitStatus,
    pub wall: Duration,
    /// Largest `VmHWM` seen while the child ran (sampled every 10 ms).
    pub peak_rss_kib: u64,
    pub stdout: Vec<u8>,
}

/// Runs `program args…` to completion, timing it from spawn to exit and
/// sampling its peak RSS from a second thread. Standard error is
/// discarded; standard output is captured.
pub fn run<S: AsRef<OsStr>>(program: &Path, args: &[S]) -> std::io::Result<Finished> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (output, wall) = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                if let Some(kib) = peak_rss_kib(pid) {
                    peak.fetch_max(kib, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let output = child.wait_with_output();
        let wall = started.elapsed();
        done.store(true, Ordering::Relaxed);
        (output, wall)
    });
    let output = output?;
    Ok(Finished {
        status: output.status,
        wall,
        peak_rss_kib: peak.into_inner(),
        stdout: output.stdout,
    })
}

/// Like [`run`], but an unsuccessful exit is an error.
pub fn run_ok<S: AsRef<OsStr>>(program: &Path, args: &[S]) -> std::io::Result<Finished> {
    let out = run(program, args)?;
    if out.status.success() {
        Ok(out)
    } else {
        let args: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
        Err(std::io::Error::other(format!(
            "{} {} exited with {}",
            program.display(),
            args.join(" "),
            out.status
        )))
    }
}
