//! Process-level measurements the standard library does not expose: the
//! calling thread's on-CPU time and the process's peak resident set.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`: CPU time consumed by the calling
/// thread. Unlike `/proc/thread-self/schedstat`, which only advances at
/// scheduler ticks, this clock folds in the running slice, so it resolves
/// regions far shorter than a tick.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall and on-CPU time of one measured region.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    wall: Instant,
    cpu_ns: u64,
}

impl Region {
    /// Start measuring.
    pub fn start() -> Self {
        Region {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// On-CPU nanoseconds since [`Region::start`].
    pub fn cpu_ns(&self) -> u64 {
        thread_cpu_ns().saturating_sub(self.cpu_ns)
    }

    /// Wall-clock seconds since [`Region::start`].
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Peak resident set of this process so far (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// On-CPU time of the calibration kernel on a host running at nominal
/// speed (about this benchmark's reference machine).
pub const NOMINAL_KERNEL_NS: u64 = 100_000;

/// Run the calibration kernel once and return its on-CPU time. The kernel
/// is fixed code that shares nothing with the system under test but does
/// the same kind of work (small string allocations, `BTreeMap` inserts
/// and lookups), so a host that is slow for one is slow for the other.
pub fn calibration_kernel_ns() -> u64 {
    let started = thread_cpu_ns();
    let mut map = std::collections::BTreeMap::new();
    for i in 0..300u64 {
        map.insert(format!("key-{}", i.wrapping_mul(2_654_435_761) % 1000), i);
    }
    let mut sum = 0u64;
    for i in 0..300u64 {
        sum += map
            .get(&format!("key-{}", i * 7 % 1000))
            .copied()
            .unwrap_or(0);
    }
    std::hint::black_box(sum);
    thread_cpu_ns() - started
}

/// How fast the host ran during a run, relative to nominal: the
/// calibration kernel's nominal time over its cleanest time in the run
/// (below 1 = slower than nominal). Other tenants of a shared host move
/// every timing of a run together, by up to ~25% for minutes at a time;
/// multiplying a run's times by this factor gives them at nominal speed,
/// so runs made at different times compare.
pub fn host_speed(kernel_ns: u64) -> f64 {
    NOMINAL_KERNEL_NS as f64 / kernel_ns.max(1) as f64
}
