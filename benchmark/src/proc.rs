//! Spawning the program under test and measuring it from outside: wall
//! time from spawn to exit, and the kernel's own accounting of peak
//! resident memory and CPU time for exactly that child.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What one finished child process cost.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Peak resident set (`ru_maxrss`, the value `VmHWM` reports), MB.
    pub peak_rss_mb: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Whether the process exited with status 0.
    pub success: bool,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4(2)`, which — unlike `Child::wait` — returns the
/// kernel's resource accounting for that one process.
fn reap(child: &mut Child) -> std::io::Result<(bool, Rusage)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the two
    // pointers, both of which point at live, correctly sized and aligned
    // locals (`Rusage` mirrors the 144-byte x86-64/aarch64 Linux layout). The
    // pid belongs to a child this process spawned and has not yet waited for,
    // so no other wait can race for it; `child.wait()` is never called after.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0.
    Ok((status & 0x7f == 0 && (status >> 8) & 0xff == 0, usage))
}

/// Runs `cmd` to completion, capturing its output and cost.
pub fn run(cmd: &mut Command) -> std::io::Result<ProcReport> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    // Drain both pipes on threads so a chatty child can never block on a
    // full pipe while we wait for it.
    let mut out_pipe = child.stdout.take().expect("stdout was piped");
    let mut err_pipe = child.stderr.take().expect("stderr was piped");
    let (stdout, stderr, reaped) = std::thread::scope(|s| {
        let out = s.spawn(move || {
            let mut buf = String::new();
            let _ = out_pipe.read_to_string(&mut buf);
            buf
        });
        let err = s.spawn(move || {
            let mut buf = String::new();
            let _ = err_pipe.read_to_string(&mut buf);
            buf
        });
        let reaped = reap(&mut child);
        let wall = start.elapsed();
        (
            out.join().expect("stdout reader panicked"),
            err.join().expect("stderr reader panicked"),
            reaped.map(|r| (r, wall)),
        )
    });
    let ((success, usage), wall) = reaped?;
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(ProcReport {
        wall_s: wall.as_secs_f64(),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        cpu_s: secs(usage.utime) + secs(usage.stime),
        success,
        stdout,
        stderr,
    })
}

/// A long-running child (the daemon) that is killed and reaped on drop, so
/// no path through the harness — including a panic — leaves it behind.
pub struct Daemon {
    child: Child,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Daemon {
    /// Spawns `cmd` with its output discarded.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Daemon> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let spawned = Instant::now();
        Ok(Daemon {
            child: cmd.spawn()?,
            spawned,
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Current resident set (`VmRSS` of `/proc/<pid>/status`), MB.
    pub fn rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Whether the process has already exited.
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// `kill -9` and reap. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Total bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Sleeps until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Polls `ready` every `every` until it returns true or `timeout` passes.
pub fn poll_until(timeout: Duration, every: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(every);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_exit_status_output_and_cost() {
        let ok = run(Command::new("sh").args(["-c", "echo hello; echo oops >&2"])).unwrap();
        assert!(ok.success);
        assert_eq!(ok.stdout, "hello\n");
        assert_eq!(ok.stderr, "oops\n");
        assert!(
            ok.peak_rss_mb > 0.1,
            "a shell needs some memory: {}",
            ok.peak_rss_mb
        );
        assert!(ok.wall_s > 0.0);

        let bad = run(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!bad.success);
    }

    #[test]
    fn a_killed_child_counts_as_failed() {
        let killed = run(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert!(!killed.success);
    }

    #[test]
    fn daemon_is_killed_on_drop() {
        let mut d = Daemon::spawn(Command::new("sleep").arg("30")).unwrap();
        assert!(d.rss_mb().is_some());
        assert!(!d.exited());
        let pid = d.pid();
        drop(d);
        assert!(!Path::new(&format!("/proc/{pid}/status")).exists());
    }
}
