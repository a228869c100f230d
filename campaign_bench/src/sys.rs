//! Host-side measurement helpers: process CPU time and peak RSS from
//! `/proc/self`, the host tag stamped on every result, per-run scratch
//! directories, and the order statistics the metrics are reported with.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// `USER_HZ`: the fixed tick rate `/proc/<pid>/stat` reports CPU times in.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread), from
/// `/proc/self/stat` fields 14 and 15.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) is parenthesised and may contain spaces;
    // the fixed-position fields start after its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field N is at index N - 3.
    let tick = |n: usize| fields.get(n - 3).and_then(|v| v.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(utime), Some(stime)) => (utime + stime) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Wall and process-CPU seconds of one timed interval.
pub struct Interval {
    wall: Instant,
    cpu: f64,
}

impl Interval {
    /// Starts an interval now.
    pub fn start() -> Interval {
        Interval {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall_s(), cpu_seconds() - self.cpu)
    }
}

/// The host tag every result carries: core count, kernel, compiler and
/// the source revision.
pub fn host_tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let mut out = String::from("{\"nproc\":");
    out.push_str(&nproc.to_string());
    for (key, value) in [
        ("kernel", kernel.as_str()),
        ("rustc", rustc.as_str()),
        ("commit", revision().as_str()),
    ] {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        pgss_obs::json_string(&mut out, value);
    }
    out.push('}');
    out
}

/// First output line of a command, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The git commit when run from a repository clone; otherwise a digest
/// of the workspace's Rust sources and manifests (`tree-<hex>`), which
/// names the code just as well in an exported checkout.
fn revision() -> String {
    if let Some(commit) = command_line("git", &["rev-parse", "HEAD"]) {
        return commit;
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{:016x}", pgss_ckpt::fnv1a64(&bytes))
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// A scratch directory removed, with everything in it, when dropped —
/// on success, on an output-check failure and while unwinding from a
/// panic alike.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<parent>/<name>`, first removing anything stale there.
    pub fn new(parent: &Path, name: &str) -> std::io::Result<ScratchDir> {
        let path = parent.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The median of `values` (the mean of the middle pair for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples beyond it — the
/// tail a sample of this size can support. Falls back to the maximum for
/// fewer than eleven samples.
pub fn supported_tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n > 10 => v[n - 11],
        n => v[n - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten samples (91..=100) lie beyond the 90th value.
        assert_eq!(supported_tail(&v), 90.0);
        assert_eq!(supported_tail(&[1.0, 5.0]), 5.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let start = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - start < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > start);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let parent = Path::new(".bench_runs");
        let path = {
            let dir = ScratchDir::new(parent, "test-scratch").expect("create");
            std::fs::write(dir.path().join("f"), b"x").expect("write");
            assert_eq!(dir_bytes(dir.path()), 1);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
