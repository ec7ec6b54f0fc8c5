//! Host context and `/proc` readings.
//!
//! Two results are comparable only when these agree: the number of
//! CPUs, the measured parallelism of two busy threads, the kernel engine
//! `Auto` resolves to, and AVX2 presence.

use megasw_sw::kernel::{self, KernelDispatch};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct HostContext {
    pub nproc: usize,
    /// Work rate of two busy threads over one (2.0 = two free cores).
    pub parallelism: f64,
    pub engine: &'static str,
    pub avx2: bool,
}

impl HostContext {
    pub fn probe() -> HostContext {
        HostContext {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            parallelism: two_thread_parallelism(),
            engine: kernel::select(KernelDispatch::Auto).map_or("none", |k| k.id().name()),
            avx2: avx2(),
        }
    }

    /// SIMD lanes of the resolved engine (16 avx2, 8 sse41, 1 scalar).
    pub fn engine_lanes(&self) -> f64 {
        match self.engine {
            "avx2" => 16.0,
            "sse41" => 8.0,
            _ => 1.0,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"parallelism_2t\": {:.3}, \"engine\": \"{}\", \"avx2\": {}}}",
            self.nproc, self.parallelism, self.engine, self.avx2
        )
    }
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Time a fixed spin on one thread, then the same spin on each of two
/// threads at once: `2 · t1 / t2`, the median of three tries.
fn two_thread_parallelism() -> f64 {
    const ITERS: u64 = 20_000_000;
    let mut ratios: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(ITERS);
            let one = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::thread::scope(|s| {
                let h = s.spawn(|| spin(ITERS));
                spin(ITERS);
                h.join().expect("spin thread never panics");
            });
            2.0 * one / t.elapsed().as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[1]
}

fn proc_file(pid: u32, name: &str) -> Option<String> {
    std::fs::read_to_string(format!("/proc/{pid}/{name}")).ok()
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else on this machine's CPUs.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of `pid` so far (all threads).
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 on Linux) ticks.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_exist_for_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mb(me).unwrap() > 0.0);
        spin(50_000_000);
        assert!(cpu_s(me).unwrap() >= 0.0);
        let (steal, total) = steal_ticks().unwrap();
        assert!(steal <= total && total > 0);
    }
}
