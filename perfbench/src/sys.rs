//! Process-level measurements and set-up: CPU time, peak resident
//! memory, and the allocator settings the benchmark runs under.

/// Process CPU time (user + system) in nanoseconds, from
/// `getrusage(RUSAGE_SELF)`. It covers every thread the process ever
/// ran, including runner threads that have already exited, so a delta
/// around a runner call charges all of that call's threads.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    // `struct rusage` on 64-bit Linux: two timevals, then fourteen
    // `long` counters this benchmark does not read.
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        _counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _counters: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux (the only target this file
    // compiles for), and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
    ns(&ru.ru_utime) + ns(&ru.ru_stime)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench calls glibc and reads /proc: it supports 64-bit Linux with glibc only");

/// Peak resident set size so far (`VmHWM` from `/proc/self/status`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Keep freed heap memory in the process (glibc `mallopt`): never trim
/// an arena, and serve blocks up to 32 MiB from the arenas instead of
/// fresh `mmap`s.
///
/// Every call spawns new runner threads, and glibc hands each one
/// whichever arena is free. With the default settings an arena may or
/// may not have been trimmed since its last use, so successive calls
/// flip at random between a few hundred and over a thousand page
/// faults — about 2 ms apart on a 4 Ki-element call — and the default
/// sliding mmap threshold moves with the allocation history. Held
/// warm, every call finds its memory already mapped, so a call costs
/// the same whichever arenas it gets. Allocation and copying stay in
/// the measurement; returning memory to the OS between calls does not.
pub fn keep_heap_warm() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [(M_TRIM_THRESHOLD, i32::MAX), (M_MMAP_THRESHOLD, 32 << 20)] {
        // SAFETY: `mallopt` takes two plain integers and only adjusts
        // the allocator's own tunables; glibc serialises it internally.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "mallopt({param}, {value}) rejected");
    }
}
