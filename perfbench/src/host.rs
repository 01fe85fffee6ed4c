//! Host facts recorded with every result, and peak resident memory of
//! the benchmark process plus the rank workers it spawned.

pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    pub available_parallelism: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub fma: bool,
    /// Kernel pool size in effect for every rank.
    pub kernel_threads: usize,
}

impl Host {
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (avx2, avx512f, fma) = simd_flags();
        Host {
            nproc: allowed_cpus().unwrap_or(available_parallelism),
            available_parallelism,
            avx2,
            avx512f,
            fma,
            kernel_threads: actcomp_tensor::pool::configured_threads(),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} available_parallelism={} avx2={} avx512f={} fma={} kernel_threads={}",
            self.nproc,
            self.available_parallelism,
            self.avx2,
            self.avx512f,
            self.fma,
            self.kernel_threads
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_flags() -> (bool, bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_flags() -> (bool, bool, bool) {
    (false, false, false)
}

/// Counts the CPUs in `Cpus_allowed_list` (e.g. `0-1,4`), the affinity
/// mask `nproc` reports.
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        match part.split_once('-') {
            Some((a, b)) => n += b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?,
            None => {
                part.parse::<usize>().ok()?;
                n += 1;
            }
        }
    }
    (n > 0).then_some(n)
}

fn vm_hwm_kb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb)
}

/// Pids of this process's live children (the procs workers).
pub fn child_pids() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|c| c.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

/// Peak resident set (MB) of this process plus every live child process
/// (the procs workers), read from `/proc`. Call it while the workers are
/// still running.
pub fn peak_rss_mb() -> f64 {
    let own = vm_hwm_kb("self").unwrap_or(0.0);
    let children: f64 = child_pids().iter().filter_map(|p| vm_hwm_kb(p)).sum();
    (own + children) / 1024.0
}

/// (total, steal) jiffies of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((v.iter().sum(), *v.get(7)?))
}

/// Share of CPU time the hypervisor stole between two `cpu_ticks`
/// readings: a host fact that explains slow runs on shared machines.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}
