//! Building and running the `smc` release binary as a child process.
//!
//! Every child is reaped with `wait4`, which returns the child's peak
//! resident set (`ru_maxrss`, the kernel's `VmHWM` at exit) along with
//! its exit status. A child still running when its handle is dropped is
//! killed and reaped, so the benchmark never leaves a process behind.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Build `smc` from the repository in the current directory (release
/// profile, offline) and return the binary's path. Honors
/// `CARGO_TARGET_DIR`.
pub fn build_smc() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "smc"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building smc failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("smc");
    if !bin.is_file() {
        return Err(format!("built smc not found at {}", bin.display()));
    }
    Ok(bin)
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` if a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set in MiB.
    pub peak_rss_mb: f64,
}

impl Exit {
    /// `true` for exit code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A running `smc` child with a piped stdout.
pub struct Running {
    child: Option<Child>,
    /// The child's stdout, line-buffered.
    pub stdout: BufReader<ChildStdout>,
    /// When the child was spawned.
    pub spawned: Instant,
}

/// Spawn `smc args...` with stdout piped and stderr inherited.
pub fn spawn(smc: &Path, args: &[&str]) -> Result<Running, String> {
    let spawned = Instant::now();
    let mut child = Command::new(smc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn smc {}: {e}", args.join(" ")))?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    Ok(Running {
        child: Some(child),
        stdout,
        spawned,
    })
}

impl Running {
    /// Read one stdout line (without the newline); `None` at EOF.
    pub fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading smc output: {e}"))?;
        Ok((n > 0).then(|| line.trim_end_matches('\n').to_owned()))
    }

    /// Read stdout to EOF, then reap the child.
    // `reap` waits for the child through `wait4`, which std cannot see.
    #[allow(clippy::zombie_processes)]
    pub fn finish(mut self) -> Result<(String, Exit), String> {
        let mut out = String::new();
        self.stdout
            .read_to_string(&mut out)
            .map_err(|e| format!("reading smc output: {e}"))?;
        let child = self.child.take().expect("child not yet reaped");
        Ok((out, reap(child.id())?))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Run `smc args...` to completion; returns stdout, exit and the wall
/// time from spawn to reaping.
pub fn run(smc: &Path, args: &[&str]) -> Result<(String, Exit, Duration), String> {
    let r = spawn(smc, args)?;
    let t0 = r.spawned;
    let (out, exit) = r.finish()?;
    Ok((out, exit, t0.elapsed()))
}

/// This process's own peak resident set (`VmHWM`), MiB. `exec` folds
/// the spawning process's peak into the child's `ru_maxrss` (the child
/// starts on the parent's address space), so a child's reading below
/// this value is the driver's, not the child's.
pub fn own_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14 longs
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Block until child `pid` exits and collect its status and peak RSS.
fn reap(pid: u32) -> Result<Exit, String> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C types wait4 fills; `pid` names our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        peak_rss_mb: usage.longs[0] as f64 / 1024.0,
    })
}
