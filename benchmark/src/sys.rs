//! Host facts and scratch-space hygiene: where a run may write, how much
//! room is there, and what the process has used so far.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Least free space a run needs under the scratch root.
const MIN_FREE_BYTES: u64 = 1 << 30;

/// Default scratch root: a `scratch/` directory beside the running binary,
/// i.e. inside the cargo target directory. The driver forbids writes
/// outside its checkout, and the target directory is the one place in a
/// checkout that is both writable and ignored by git.
pub fn default_scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("binary has no parent directory")?;
    Ok(dir.join("scratch"))
}

/// A run's private directory; removed when dropped, which covers both a
/// normal return and an unwinding panic.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `<root>/run-<pid>-<nanos>`, refusing when `root` has less
    /// than 1 GiB free.
    pub fn create(root: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
        match free_bytes(root) {
            Some(free) if free < MIN_FREE_BYTES => {
                return Err(format!(
                    "scratch root {} has {} MiB free, need at least {} MiB",
                    root.display(),
                    free >> 20,
                    MIN_FREE_BYTES >> 20
                ));
            }
            Some(_) => {}
            None => eprintln!("warning: cannot tell how much space {} has", root.display()),
        }
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = root.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Free bytes on the filesystem holding `dir`, as `df -Pk` reports them.
/// `None` when `df` is missing or prints something unexpected.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()?;
    Some(kib * 1024)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`); `"unknown"` off Linux.
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(point), Some(fs)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if dir.starts_with(point) && best.is_none_or(|(len, _)| point.len() > len) {
            best = Some((point.len(), fs));
        }
    }
    best.map(|(_, fs)| fs.to_string()).unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU seconds this process has consumed, from
/// `/proc/self/stat` (all threads; 10 ms ticks, so sum over many cycles).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields are counted after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI
    Some((utime + stime) / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}
