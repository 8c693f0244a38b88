//! Host-time sampler: which functions `Simulation::run` — or, with
//! `--setup`, set-up — spends host time in, on the perf ledger's seven
//! workloads.
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release \
//!     --target-dir target/fp --example host_profile
//! target/fp/release/examples/host_profile [workload ...] [--setup] [--seconds S] [--seed N] [--out DIR]
//! ```
//!
//! Each workload runs the ledger's timing slices (`Simulation::new` and
//! `run` on a 1 ms warm-up + 5 ms measured horizon over one dataset,
//! as `perfbench` times them) for `--seconds` of host time (default 10)
//! under one `ITIMER_PROF` armed before the first slice. The timer is
//! checked at the kernel tick, so it fires a few hundred times a second
//! at most; re-arming it per slice would restart the count every few
//! milliseconds and sample almost nothing. Each `SIGPROF` copies the
//! interrupted RIP and the frame-pointer chain above it (bounded to
//! `[rsp, stack top)`, at most 32 return addresses) into a buffer
//! allocated before the timer is armed.
//!
//! With `--setup` the loop repeats what the ledger's `setup_s` times
//! instead of a slice: the dataset build and `Simulation::new`, dropped
//! unrun. Either way it prints the process's minor page faults
//! (`getrusage`): the first slice's or set-up's, which meets a pristine
//! heap, and the mean of the rest, which shows whether freed memory
//! goes back to the kernel and is faulted in again.
//!
//! At exit it writes `DIR/<workload>.samples` (`.setup.samples` under
//! `--setup`; default DIR `results/profile`): one sample per line, hex
//! addresses innermost first, relative to the executable's load
//! address, so `addr2line -e` reads them (addresses outside the
//! executable, in libc, read `0x0`). Beside them it writes `DIR/maps`,
//! a copy of `/proc/self/maps`. README *Engine performance* has the
//! `addr2line -a -f -i -C` recipe. Without frame pointers the chains
//! stop early; the innermost address is still right.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn main() {
    sampler::main();
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn main() {
    eprintln!("host_profile reads x86_64 Linux signal frames; nothing to do here");
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sampler {
    use std::ffi::c_void;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::Relaxed};
    use std::time::Instant;

    use adios::desim::{ProfileConfig, SpanConfig};
    use adios::prelude::*;

    /// The seven `perfbench` workloads. This mirrors
    /// `benchmark/src/workloads.rs::sim_case` (offered load and
    /// configuration; the horizon is the timing slice's) and must be
    /// kept in step with it by hand: the ledger's crate cannot be shared
    /// until it reads only the public run API (ROADMAP *Ledger v2* (a)).
    const WORKLOADS: [&str; 7] = [
        "micro_knee",
        "micro_local",
        "dilos_knee",
        "kvs_setmix",
        "scan_mix",
        "scaleout_knee",
        "obs_all",
    ];

    type Build = fn() -> Box<dyn Workload>;

    fn array() -> Box<dyn Workload> {
        Box::new(ArrayIndexWorkload::new(65_536))
    }

    fn case(name: &str, seed: u64) -> (SystemConfig, RunParams, Build) {
        let p = |rps| RunParams {
            offered_rps: rps,
            seed,
            warmup: SimDuration::from_millis(1),
            measure: SimDuration::from_millis(5),
            local_mem_fraction: 0.2,
            ..Default::default()
        };
        match name {
            "micro_knee" => (SystemConfig::adios(), p(1.3e6), array),
            "micro_local" => {
                let params = RunParams {
                    local_mem_fraction: 1.0,
                    ..p(2.0e6)
                };
                (SystemConfig::adios(), params, array)
            }
            "dilos_knee" => (SystemConfig::dilos(), p(1.3e6), array),
            "kvs_setmix" => (SystemConfig::adios(), p(0.8e6), || {
                Box::new(MemcachedWorkload::new(400_000, 128).with_sets(0.3))
            }),
            "scan_mix" => (SystemConfig::adios(), p(0.3e6), || {
                Box::new(RocksDbWorkload::new(100_000, 1024).with_mix(0.2, 100))
            }),
            "scaleout_knee" => {
                let cfg = SystemConfig {
                    dispatchers: 4,
                    dispatch_policy: DispatchPolicy::WorkStealing,
                    memnode_shards: 4,
                    memnode_replicas: 2,
                    ..SystemConfig::adios()
                };
                (cfg, p(2.4e6), array)
            }
            "obs_all" => {
                let mut params = p(1.3e6);
                params.trace_capacity = Some(1 << 16);
                params.spans = Some(SpanConfig::default());
                params.profile = Some(ProfileConfig);
                params.memory = Some(MemObsConfig);
                params.telemetry = Some(TelemetryConfig::default());
                (SystemConfig::adios(), params, array)
            }
            _ => usage(&format!("unknown workload {name}")),
        }
    }

    fn usage(err: &str) -> ! {
        eprintln!("{err}");
        eprintln!(
            "usage: host_profile [workload ...] [--setup] [--seconds S] [--seed N] [--out DIR]\n\
             workloads: {}",
            WORKLOADS.join(" ")
        );
        std::process::exit(2);
    }

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t::uc_mcontext.gregs` offset and the `REG_*` indices
    /// of glibc's x86_64 `<sys/ucontext.h>`.
    const GREGS_OFFSET: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RSP: usize = 15;
    const REG_RIP: usize = 16;
    /// Return addresses kept per sample, beyond the RIP.
    const MAX_DEPTH: usize = 32;
    /// Sample buffer: 8 MiB, ≈ 3 h of samples at 250 Hz.
    const BUF_WORDS: usize = 1 << 20;

    /// glibc's x86_64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's x86_64 `struct rusage`: two times, then 14 longs from
    /// `ru_maxrss` to `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        longs: [i64; 14],
    }

    const RUSAGE_SELF: i32 = 0;
    /// `ru_minflt`'s index in [`Rusage::longs`].
    const MINFLT: usize = 4;

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// Minor page faults this process has taken so far.
    fn minor_faults() -> i64 {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a valid, writable glibc `struct rusage`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage failed");
        ru.longs[MINFLT]
    }

    /// The buffer the handler fills: per sample its length, then the RIP
    /// and return addresses. `SIGPROF` is delivered to the one thread
    /// that runs the simulation, between two of its instructions, so
    /// program order alone orders these with the handler: `Relaxed`.
    static BUF: AtomicPtr<u64> = AtomicPtr::new(std::ptr::null_mut());
    static LEN: AtomicUsize = AtomicUsize::new(0);
    static STACK_TOP: AtomicU64 = AtomicU64::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        let (buf, at) = (BUF.load(Relaxed), LEN.load(Relaxed));
        if buf.is_null() || at + 2 + MAX_DEPTH > BUF_WORDS {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        // SAFETY: the kernel passes a valid `ucontext_t` as `ctx` to an
        // `SA_SIGINFO` handler, and `GREGS_OFFSET` / `REG_*` are its
        // x86_64 glibc layout.
        let reg = |i: usize| unsafe { *(ctx as *const u8).add(GREGS_OFFSET).cast::<u64>().add(i) };
        let (rsp, top) = (reg(REG_RSP), STACK_TOP.load(Relaxed));
        let mut rbp = reg(REG_RBP);
        let mut chain = [0u64; MAX_DEPTH + 1];
        chain[0] = reg(REG_RIP);
        let mut n = 1;
        // A frame is `[saved rbp, return address]` at `rbp`. Code built
        // without frame pointers may hold anything in rbp, so only a
        // value inside the interrupted stack is followed, and only
        // upwards.
        while n <= MAX_DEPTH && rbp >= rsp && rbp % 8 == 0 && rbp <= top.saturating_sub(16) {
            // SAFETY: `[rbp, rbp + 16)` lies inside `[rsp, top)`, the
            // live part of this thread's stack (the handler runs below
            // `rsp` on the same stack).
            let (next, ret) = unsafe { (*(rbp as *const u64), *((rbp + 8) as *const u64)) };
            chain[n] = ret;
            n += 1;
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        // SAFETY: `buf` holds `BUF_WORDS` words and `at + 1 + n` ≤
        // `BUF_WORDS` was checked above; only this handler writes it,
        // and `SIGPROF` is blocked while it runs.
        unsafe {
            *buf.add(at) = n as u64;
            std::ptr::copy_nonoverlapping(chain.as_ptr(), buf.add(at + 1), n);
        }
        LEN.store(at + 1 + n, Relaxed);
    }

    /// Arms (`interval_us > 0`) or disarms `ITIMER_PROF`.
    fn set_timer(interval_us: i64) {
        let t = || Timeval {
            sec: 0,
            usec: interval_us,
        };
        let it = Itimerval {
            interval: t(),
            value: t(),
        };
        // SAFETY: `it` is a valid `itimerval`; the old value is not read.
        let rc = unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// The executable's `(load bias, [start, end) ranges)` and the main
    /// stack's top, from `/proc/self/maps`.
    fn layout(maps: &str) -> (u64, Vec<(u64, u64)>, u64) {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe");
        let exe = exe.to_str().expect("utf-8 executable path");
        let elf = std::fs::read(exe).expect("read the executable");
        // `e_type` 3 (ET_DYN, position-independent): addresses are
        // relative to the mapping of file offset 0.
        let pie = elf.get(16) == Some(&3);
        let (mut bias, mut text, mut top) = (None, Vec::new(), 0);
        for line in maps.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let (lo, hi) = f[0].split_once('-').expect("maps range");
            let (lo, hi) = (
                u64::from_str_radix(lo, 16).expect("hex maps address"),
                u64::from_str_radix(hi, 16).expect("hex maps address"),
            );
            match f.get(5) {
                Some(&path) if path == exe => {
                    if f[2].chars().all(|c| c == '0') {
                        bias.get_or_insert(lo);
                    }
                    text.push((lo, hi));
                }
                Some(&"[stack]") => top = hi,
                _ => {}
            }
        }
        let bias = if pie {
            bias.expect("executable mapping")
        } else {
            0
        };
        (bias, text, top)
    }

    fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
        match args.iter().position(|a| a == flag) {
            None => default,
            Some(i) => args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage(&format!("{flag} needs a value"))),
        }
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let seconds: f64 = arg(&args, "--seconds", 10.0);
        let seed: u64 = arg(&args, "--seed", 1);
        let out: String = arg(&args, "--out", "results/profile".to_string());
        let setup = args.iter().any(|a| a == "--setup");
        let mut names: Vec<&str> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seconds" | "--seed" | "--out" => i += 1,
                "--setup" => {}
                a if a.starts_with('-') => usage(&format!("unknown flag {a}")),
                a => names.push(
                    WORKLOADS
                        .iter()
                        .find(|w| **w == a)
                        .unwrap_or_else(|| usage(&format!("unknown workload {a}"))),
                ),
            }
            i += 1;
        }
        if names.is_empty() {
            names = WORKLOADS.to_vec();
        }
        std::fs::create_dir_all(&out).expect("create the output directory");

        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let (bias, text, top) = layout(&maps);
        STACK_TOP.store(top, Relaxed);
        let buf = Box::leak(vec![0u64; BUF_WORDS].into_boxed_slice()).as_mut_ptr();
        BUF.store(buf, Relaxed);
        let act = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `act` is a valid glibc `struct sigaction` whose handler
        // only touches atomics and the preallocated buffer.
        assert_eq!(unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) }, 0);

        for name in names {
            let (cfg, params, build) = case(name, seed);
            // The run mode builds the dataset once, outside the count.
            let mut workload = (!setup).then(build);
            LEN.store(0, Relaxed);
            let (start, mut slices) = (Instant::now(), 0);
            let (faults, mut first) = (minor_faults(), None);
            set_timer(1_000);
            while start.elapsed().as_secs_f64() < seconds {
                match &mut workload {
                    Some(workload) => {
                        let res =
                            Simulation::new(cfg.clone(), &mut **workload, params.clone()).run();
                        assert!(res.conservation.holds(), "{name}: requests lost");
                    }
                    None => {
                        let mut workload = build();
                        let sim = Simulation::new(cfg.clone(), &mut *workload, params.clone());
                        std::hint::black_box(&sim);
                    }
                }
                slices += 1;
                first.get_or_insert_with(|| minor_faults() - faults);
            }
            set_timer(0);
            let first = first.unwrap_or(0);
            let rest = (minor_faults() - faults - first) as f64 / f64::from((slices - 1).max(1));
            let len = LEN.load(Relaxed);
            // SAFETY: `buf` holds `BUF_WORDS` ≥ `len` words, and a signal
            // still pending after the disarm writes only from `len` on.
            let buf = unsafe { std::slice::from_raw_parts(buf, len) };
            let (mut text_out, mut samples, mut at) = (String::new(), 0, 0);
            while at < len {
                let n = buf[at] as usize;
                for (k, &addr) in buf[at + 1..at + 1 + n].iter().enumerate() {
                    let inside = text.iter().any(|&(lo, hi)| (lo..hi).contains(&addr));
                    let rel = if inside { addr - bias } else { 0 };
                    let sep = if k == 0 { "" } else { " " };
                    write!(text_out, "{sep}0x{rel:x}").expect("writing to a String");
                }
                text_out.push('\n');
                samples += 1;
                at += 1 + n;
            }
            let kind = if setup { ".setup" } else { "" };
            let path = format!("{out}/{name}{kind}.samples");
            std::fs::write(&path, text_out).expect("write the samples");
            let unit = if setup { "set-up" } else { "slice" };
            println!(
                "{name:<14} {slices:>6} {unit}s  minor faults {first} first, \
                 {rest:.1}/{unit} after  \
                 {samples:>6} samples  {} dropped  -> {path}",
                DROPPED.swap(0, Relaxed)
            );
        }
        std::fs::write(format!("{out}/maps"), maps).expect("write the maps");
    }
}
