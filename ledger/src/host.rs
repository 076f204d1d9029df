//! Host facts and process-level measurements: CPU time, peak RSS and
//! the provenance recorded with every result.

use std::process::Command;

/// `struct rusage` from `<sys/resource.h>` (Linux, 64-bit).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User + system CPU seconds consumed so far by this whole process.
pub fn cpu_seconds() -> f64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `RUsage` matches the C layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), `u` is a valid
    // exclusive pointer for the call, and RUSAGE_SELF (0) is valid.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// Reads one `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Provenance of a result, as `(key, value)` pairs.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    // The benchmark usually runs from an exported tree with no `.git`;
    // `GIT_COMMIT` lets the caller name the commit in that case. The
    // ceiling keeps git from reporting an enclosing repository.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    let commit = std::env::var("GIT_COMMIT")
        .ok()
        .or_else(|| {
            command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("run_seconds".into(), seconds.to_string()),
        ("trace".into(), u8::from(trace).to_string()),
        ("nproc".into(), nproc().to_string()),
        ("cpu_model".into(), cpu),
        (
            "rustc".into(),
            command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
        ),
        ("kernel".into(), kernel),
        ("git_commit".into(), commit),
    ]
}
