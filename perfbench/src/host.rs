//! Host metadata and three drift probes, recorded with every run and never
//! gated. The compute loop runs in registers; the pair probe runs it on
//! two threads at once, so it slows when a second CPU is busy elsewhere;
//! the pointer chase walks a random cycle through a buffer larger than the
//! L2 cache. When the probes move between two runs the host changed.

use std::hint::black_box;
use std::time::Instant;

/// Cache levels as `(level, kind, bytes)`, from CPUID leaf 4 (Intel) or
/// 0x8000_001D (AMD); empty elsewhere.
#[cfg(target_arch = "x86_64")]
pub fn caches() -> Vec<(u32, &'static str, u64)> {
    use std::arch::x86_64::__cpuid_count;
    let vendor = __cpuid_count(0, 0);
    let leaf = if vendor.ebx == 0x6874_7541 { 0x8000_001D } else { 4 };
    let mut out = Vec::new();
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = match r.eax & 0x1f {
            0 => break,
            1 => "data",
            2 => "instruction",
            _ => "unified",
        };
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        out.push((level, kind, ways * partitions * line * sets));
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
pub fn caches() -> Vec<(u32, &'static str, u64)> {
    Vec::new()
}

/// Seconds for a fixed integer loop that touches no memory.
pub fn compute_probe() -> f64 {
    let t = Instant::now();
    compute_loop();
    t.elapsed().as_secs_f64()
}

/// Seconds for two copies of the compute loop on two threads at once.
/// Against `compute_probe` it shows whether a second CPU was free: the
/// two-thread workloads wait on it.
pub fn pair_probe() -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(compute_loop);
        compute_loop();
    });
    t.elapsed().as_secs_f64()
}

fn compute_loop() {
    let mut x: u64 = black_box(0x2545_f491_4f6c_dd1d);
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
}

/// Nanoseconds per hop of a dependent walk over one random cycle through
/// 8 MiB of `u32` slots.
pub fn chase_probe() -> f64 {
    const SLOTS: usize = 2 << 20;
    const HOPS: usize = 2_000_000;
    // Sattolo's algorithm: a single cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..HOPS {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e9 / HOPS as f64
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// User + system CPU seconds and peak RSS (KiB) of the waited-for
/// children of this process: with one child, that child's own figures.
pub fn children_usage() -> (f64, i64) {
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, which `getrusage` fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return (0.0, 0);
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (secs(ru.utime) + secs(ru.stime), ru.maxrss)
}
