//! The host block every result carries, so a noisy run can be
//! explained rather than rerun blind.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;

/// Steal time the kernel has accounted to this machine so far, in
/// seconds (`/proc/stat`, `cpu` line, eighth field, at the usual
/// 100 ticks per second). `None` off Linux.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// A memory field of `/proc/self/status` (`VmHWM` is the process's
/// high-water resident set, `VmRSS` its current one), in MiB; 0 off
/// Linux.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/mounts`), or `"unknown"`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails. Waits for the command to exit. Git may
/// not look above the working directory for a repository: a checkout
/// without one reports `"unknown"`, not an enclosing repository's head.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host block: CPUs, steal accrued during the run, toolchain,
/// build profile, source revision and where the persist store lives.
pub fn block(steal_at_start: Option<f64>, store_dir: &Path) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal = match (steal_at_start, steal_s()) {
        (Some(a), Some(b)) => Json::Num(b - a),
        _ => Json::Null,
    };
    let mut o = Json::obj();
    o.set("cpus", cpus)
        .set("steal_s_during_run", steal)
        .set("rustc", command_line("rustc", &["--version"]))
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set(
            "git_rev",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        )
        .set("store_dir", store_dir.display().to_string())
        .set("store_fs", fs_type(store_dir));
    o
}
