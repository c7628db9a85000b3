//! The machine block recorded with every result, and the codes-kernel
//! roofline ceiling.

use std::time::{Duration, Instant};

use femcam_core::par;

#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    /// The CPU the whole process is pinned to, if pinning succeeded.
    pub pinned_cpu: Option<usize>,
    pub max_threads: usize,
    pub avx2: bool,
    pub avx512f: bool,
    pub l2_bytes: usize,
    pub clock_ghz: f64,
    pub clock_source: &'static str,
}

/// Cells one core can score per cycle in the codes kernel: one
/// `vpermps` gathers eight 3-bit cells through the query level's LUT
/// row.
pub const CELLS_PER_CYCLE: f64 = 8.0;

impl Machine {
    /// Records the machine, then pins the process to one CPU, the last
    /// it may use; call it before any thread is spawned, so that every
    /// thread, a server's included, inherits the pin.
    ///
    /// On a 2-vCPU guest, work spread over both vCPUs raised steal time
    /// from a few percent to a third and made throughput vary by 40%
    /// between runs. On one vCPU the runs see the contention of one
    /// host core instead of two.
    pub fn detect_and_pin() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let pinned_cpu = allowed_cpus().last().copied().filter(|&c| pin_thread(c));
        let (clock_ghz, clock_source) = nominal_clock_ghz();
        Machine {
            nproc,
            pinned_cpu,
            max_threads: par::max_threads(),
            avx2: has_avx2(),
            avx512f: has_avx512f(),
            l2_bytes: l2_bytes(),
            clock_ghz,
            clock_source,
        }
    }

    /// Roofline ceiling of the codes kernel in cells per ns for
    /// `threads` cores at the nominal clock.
    pub fn codes_ceiling_cells_per_ns(&self, threads: usize) -> f64 {
        CELLS_PER_CYCLE * self.clock_ghz * threads.max(1) as f64
    }

    pub fn json(&self, seed: u64, commit: &str) -> String {
        format!(
            "{{\"nproc\": {}, \"pinned_cpu\": {}, \"par_max_threads\": {}, \"avx2\": {}, \
             \"avx512f\": {}, \"l2_bytes\": {}, \"nominal_clock_ghz\": {}, \
             \"clock_source\": \"{}\", \"seed\": {seed}, \"commit\": \"{}\"}}",
            self.nproc,
            self.pinned_cpu.map_or(-1, |c| c as i64),
            self.max_threads,
            self.avx2,
            self.avx512f,
            self.l2_bytes,
            self.clock_ghz,
            self.clock_source,
            commit.escape_default(),
        )
    }
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[cfg(target_os = "linux")]
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on, ascending; empty if unknown.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable mask of exactly the size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| (allowed.0[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// `cpu`; `false` if the call failed.
#[cfg(target_os = "linux")]
fn pin_thread(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live mask of exactly the size passed, and pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_thread(_cpu: usize) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(target_arch = "x86_64")]
fn has_avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn has_avx512f() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
fn cpuid(leaf: u32) -> [u32; 4] {
    let r = std::arch::x86_64::__cpuid(leaf);
    [r.eax, r.ebx, r.ecx, r.edx]
}

/// L2 size from CPUID leaf `0x8000_0006` (ECX bits 31..16, in KiB);
/// `0` when the leaf is missing.
#[cfg(target_arch = "x86_64")]
fn l2_bytes() -> usize {
    if cpuid(0x8000_0000)[0] < 0x8000_0006 {
        return 0;
    }
    (cpuid(0x8000_0006)[2] >> 16) as usize * 1024
}

#[cfg(not(target_arch = "x86_64"))]
fn l2_bytes() -> usize {
    0
}

/// The nominal core clock: CPUID leaf `0x16` when the CPU reports it,
/// else the `@ x.xxGHz` of the brand string, else the time-stamp
/// counter's rate measured against the monotonic clock (the TSC ticks
/// at the nominal rate on invariant-TSC parts).
#[cfg(target_arch = "x86_64")]
fn nominal_clock_ghz() -> (f64, &'static str) {
    if cpuid(0)[0] >= 0x16 {
        let mhz = cpuid(0x16)[0] & 0xFFFF;
        if mhz > 0 {
            return (f64::from(mhz) / 1e3, "cpuid.0x16");
        }
    }
    if let Some(ghz) = brand_ghz() {
        return (ghz, "brand_string");
    }
    // SAFETY: `_rdtsc` only reads the time-stamp counter, which every
    // x86_64 CPU has; it touches no memory.
    let (c0, t0) = (unsafe { std::arch::x86_64::_rdtsc() }, Instant::now());
    std::thread::sleep(Duration::from_millis(20));
    // SAFETY: as above.
    let (c1, t1) = (unsafe { std::arch::x86_64::_rdtsc() }, Instant::now());
    let ns = (t1 - t0).as_nanos() as f64;
    (c1.wrapping_sub(c0) as f64 / ns, "tsc_rate")
}

#[cfg(not(target_arch = "x86_64"))]
fn nominal_clock_ghz() -> (f64, &'static str) {
    (1.0, "unknown")
}

#[cfg(target_arch = "x86_64")]
fn brand_ghz() -> Option<f64> {
    if cpuid(0x8000_0000)[0] < 0x8000_0004 {
        return None;
    }
    let bytes: Vec<u8> = (0x8000_0002..=0x8000_0004u32)
        .flat_map(cpuid)
        .flat_map(u32::to_le_bytes)
        .collect();
    let brand = String::from_utf8_lossy(&bytes);
    let brand = brand.trim_end_matches('\0');
    let at = brand.find('@')?;
    brand[at + 1..]
        .trim()
        .strip_suffix("GHz")?
        .trim()
        .parse()
        .ok()
}
