//! What the benchmark reads from outside the product: the environment
//! record stamped into every result, process/thread CPU time, peak RSS,
//! and where its own files live.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Stated in every result: nothing here crosses a real link.
pub const LOOPBACK: &str =
    "all TCP traffic crosses the host's loopback interface (127.0.0.1); no real link is measured";

/// The `benchmark/` directory: the manifest directory at build time, or
/// `./benchmark` if the build tree has since moved.
pub fn bench_dir() -> PathBuf {
    let built = Path::new(env!("CARGO_MANIFEST_DIR"));
    if built.is_dir() {
        built.to_path_buf()
    } else {
        PathBuf::from("benchmark")
    }
}

/// `benchmark/out/`, created on demand — the only place results, traces
/// and the simulator's scratch working directory are written.
pub fn out_dir() -> PathBuf {
    let dir = bench_dir().join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(short sha, dirty)` of the product tree, or `None` outside a git
/// checkout (the driver's checkout is not one).
pub fn git_state() -> Option<(String, bool)> {
    let repo = bench_dir().join("..");
    let sha = command_line("git", &["rev-parse", "--short=12", "HEAD"], &repo)?;
    let status = command_line("git", &["status", "--porcelain"], &repo)?;
    Some((sha, !status.is_empty()))
}

/// Whether files outside `benchmark/` differ from HEAD (what `--bless`
/// refuses to run on). `None` outside a git checkout.
pub fn product_tree_dirty() -> Option<bool> {
    let repo = bench_dir().join("..");
    let status = command_line(
        "git",
        &[
            "status",
            "--porcelain",
            "--",
            ".",
            ":(exclude)benchmark",
            ":(exclude)BENCHMARK.json",
            ":(exclude)CHANGES.md",
            ":(exclude)ISSUE.md",
            ":(exclude).gitignore",
        ],
        &repo,
    )?;
    Some(!status.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// 1-minute load average, or 0 where `/proc/loadavg` is absent.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The environment record. `noisy` is stamped when the box was already
/// busy at start (1-min load above half the cores).
pub fn record() -> Json {
    let (sha, dirty) = match git_state() {
        Some((sha, dirty)) => (Json::Str(sha), Json::Bool(dirty)),
        None => (Json::Str("unknown (not a git checkout)".into()), Json::Null),
    };
    let rustc = command_line("rustc", &["-V"], Path::new(".")).unwrap_or_else(|| "unknown".into());
    let load = load_avg_1m();
    Json::obj()
        .with("git_sha", sha)
        .with("git_dirty", dirty)
        .with("rustc", Json::Str(rustc))
        .with("nproc", Json::Num(nproc() as f64))
        .with("cpu_model", Json::Str(cpu_model()))
        .with("load_avg_1m_at_start", Json::Num(load))
        .with("noisy", Json::Bool(load > 0.5 * nproc() as f64))
        .with("loopback", Json::Str(LOOPBACK.into()))
}

fn schedstat_run_ns(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU time of the calling thread in nanoseconds
/// (`/proc/thread-self/schedstat`; 0 where unavailable).
pub fn thread_cpu_ns() -> u64 {
    schedstat_run_ns(Path::new("/proc/thread-self/schedstat")).unwrap_or(0)
}

/// CPU time of this process — every live thread, generator included — in
/// nanoseconds: the `CLOCK_PROCESS_CPUTIME_ID` equivalent reachable
/// without libc. Sums `/proc/self/task/*/schedstat` (ns resolution); only
/// differences between two reads with the same threads alive are
/// meaningful, which is how every caller uses it. Falls back to the 10 ms
/// ticks of `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    let mut total = 0u64;
    let mut seen = false;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Some(ns) = schedstat_run_ns(&task.path().join("schedstat")) {
                total += ns;
                seen = true;
            }
        }
    }
    if seen {
        return total;
    }
    stat_ticks().map_or(0, |t| t * 10_000_000)
}

fn stat_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = stat.rsplit(')').next()?;
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU the single-CPU workloads share: the highest-numbered one.
/// Device interrupts (on the reference box, the network card the
/// operator's own session talks through) land on CPU 0.
pub fn bench_cpu() -> usize {
    nproc().saturating_sub(1)
}

/// Pins the calling thread to one CPU; threads it spawns afterwards
/// inherit the mask. Returns whether the kernel accepted it (false on
/// platforms without the raw call below — results are then stamped
/// `pinned: false`).
///
/// Why the benchmark pins at all: on the reference box (2 virtual CPUs) a
/// wake-up that crosses CPUs costs tens of microseconds of hypervisor
/// time, against ~0.45 µs of product work per gateway decision. Left to
/// the scheduler, one run co-locates generator and server (2.1 M
/// decisions/s) and the next spreads them (0.5 M): the result would
/// measure the placement lottery, not the product.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    sched_setaffinity_self(&mask) == 0
}

/// Lets the calling thread (and threads it spawns afterwards) run on every
/// CPU again.
pub fn unpin_current_thread() -> bool {
    sched_setaffinity_self(&[u64::MAX; 16]) == 0
}

/// `sched_setaffinity(0, sizeof mask, &mask)` for the calling thread. The
/// standard library has no affinity call and the benchmark takes no
/// dependencies, so this is the one raw system call it makes.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity_self(mask: &[u64; 16]) -> isize {
    let ret: isize;
    // SAFETY: system call 203 (`sched_setaffinity`) only reads
    // `size_of_val(mask)` bytes at `mask`, which is a live, initialized
    // borrow for the duration of the call; it writes no user memory. The
    // `syscall` instruction clobbers rcx and r11, declared below, and
    // touches no stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sched_setaffinity_self(mask: &[u64; 16]) -> isize {
    let ret: isize;
    // SAFETY: as above; on aarch64 `sched_setaffinity` is call 122, the
    // number goes in x8 and `svc 0` returns in x0.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize,
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of_val(mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sched_setaffinity_self(_mask: &[u64; 16]) -> isize {
    -1
}
