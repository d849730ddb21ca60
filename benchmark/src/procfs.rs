//! Process CPU time and peak memory from `/proc` (Linux only, like the
//! rest of the benchmark's environment).

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks.
///
/// The second field is the executable name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: utime and stime are the 14th and 15th fields of the line, i.e. the
/// 12th and 13th after the name.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// supported architecture (it is ABI, not the kernel's internal `HZ`).
const USER_HZ: u64 = 100;

/// CPU time this process has used so far, in microseconds.
pub fn cpu_time_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks * (1_000_000 / USER_HZ)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = parse_vm_hwm_kb(&status).expect("parse VmHWM");
    kb as f64 * 1024.0 / 1e6
}

// glibc and musl both export these; std already links the C library.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask: room for 1024 CPUs, the kernel's `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

/// Where [`pin_to_one_cpu`] put the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    /// The one CPU every thread now runs on.
    pub cpu: usize,
    /// How many CPUs the process was allowed on before.
    pub allowed: usize,
}

/// Confine the calling thread — and every thread it spawns from here on —
/// to the highest-numbered CPU it is currently allowed on. Called first thing in `main`, so a whole rep (clients and servers)
/// shares one core.
///
/// Why: on the reference VM a wake-up that crosses vCPUs costs ≈ 20 µs
/// against ≈ 4 µs on one CPU, and that cost drifts by ±15 % for half a
/// minute at a time with the host's load. Left to the scheduler, identical
/// `bank_cpu` runs spread 22–26 % (IQR ÷ median); on one core they spread
/// 7 % and the number is commits per second *per core*.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = highest_cpu(&allowed).ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinned {
        cpu,
        allowed: allowed.iter().map(|w| w.count_ones() as usize).sum(),
    })
}

fn highest_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_process_name() {
        let plain = "1234 (acn-benchmark) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                     731 42 0 0 20 0 7 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(773));
        let hostile = "1234 (a) b (c) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                       731 42 0 0 20 0 7 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(773));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tacn-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   48212 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(48212));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_time_us();
        let mut x = 0u64;
        while cpu_time_us() < before + 20_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time_us() >= before + 20_000);
    }

    #[test]
    fn highest_cpu_of_a_mask() {
        assert_eq!(highest_cpu(&[0, 0]), None);
        assert_eq!(highest_cpu(&[0b11, 0]), Some(1));
        assert_eq!(highest_cpu(&[1, 1 << 5]), Some(69));
    }

    #[test]
    fn pinning_leaves_exactly_one_allowed_cpu() {
        // Runs on its own test thread, so the other tests keep their mask.
        let Pinned { cpu, allowed } = pin_to_one_cpu().unwrap();
        assert!(allowed >= 1);
        let mut now = [0u64; MASK_WORDS];
        // SAFETY: as in `pin_to_one_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&now), now.as_mut_ptr()) };
        assert_eq!(rc, 0);
        assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(highest_cpu(&now), Some(cpu));
        let child = std::thread::spawn(|| {
            let mut m = [0u64; MASK_WORDS];
            // SAFETY: as in `pin_to_one_cpu`.
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&m), m.as_mut_ptr()) };
            m
        });
        assert_eq!(
            child.join().unwrap(),
            now,
            "spawned threads inherit the mask"
        );
    }
}
