//! Clocks and process gauges the benchmark reads: the process CPU clock
//! (all threads, pool workers included), peak resident set and host steal.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, matching the C layout via `repr(C)`), and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// 64-byte aligned lane of floats, so the reference work's loads sit the
/// same way in cache lines in every process.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Lane([f32; 16]);

/// Buffers of the reference work, made once per thread so that timing it
/// allocates nothing and does not depend on the state of the heap.
struct Reference {
    text: Vec<u8>,
    table: Vec<u64>,
    w: Vec<Lane>,
    /// The vector each run starts from, and the one it updates.
    x0: Vec<Lane>,
    x: Vec<Lane>,
    /// A matrix larger than a core's private caches, read once per run
    /// like a model's weights in a step.
    big: Vec<Lane>,
    keys: Vec<u64>,
}

const REF_ROWS: usize = 128;
const REF_LANES: usize = 16;
/// Rows of the large matrix: 4096 x 256 f32, 4 MiB.
const REF_BIG_ROWS: usize = 4096;

impl Reference {
    fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut text = Vec::new();
        for i in 0..2048u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let span = format!(
                r#"{{"op":"svc{}-{}","start":{},"dur":{}}},"#,
                x % 97,
                i % 13,
                x >> 20,
                x % 4099
            );
            text.extend_from_slice(span.as_bytes());
        }
        let lane = |i: usize, f: &dyn Fn(usize) -> f32| {
            let mut l = Lane([0.0; 16]);
            for (k, v) in l.0.iter_mut().enumerate() {
                *v = f(i * 16 + k);
            }
            l
        };
        Self {
            text,
            table: vec![0; 4096],
            w: (0..REF_ROWS * REF_LANES)
                .map(|i| lane(i, &|j| ((j % 61) as f32 - 30.0) / 64.0))
                .collect(),
            x0: (0..REF_LANES)
                .map(|i| lane(i, &|j| (j % 17) as f32 / 17.0))
                .collect(),
            x: vec![Lane([0.0; 16]); REF_LANES],
            big: (0..REF_BIG_ROWS * REF_LANES)
                .map(|i| lane(i, &|j| ((j % 53) as f32 - 26.0) / 32.0))
                .collect(),
            keys: vec![0; 16_384],
        }
    }

    /// Tokenises a JSON-like text (names hashed into an open-addressing
    /// table, numbers parsed), runs float matrix-vector products over a
    /// cache-resident and a larger matrix and sorts pseudo-random keys: the
    /// kinds of work a request does (decode, model step, bookkeeping), in
    /// code of the benchmark's own.
    fn run(&mut self) -> u64 {
        use std::hint::black_box;
        let mut acc = 0u64;
        for _ in 0..4 {
            self.table.fill(0);
            let (mut i, text) = (0, black_box(self.text.as_slice()));
            while i < text.len() {
                match text[i] {
                    b'"' => {
                        let mut h = 0xcbf2_9ce4_8422_2325u64;
                        i += 1;
                        while i < text.len() && text[i] != b'"' {
                            h = (h ^ u64::from(text[i])).wrapping_mul(0x0100_0000_01b3);
                            i += 1;
                        }
                        let mask = self.table.len() - 1;
                        let mut slot = h as usize & mask;
                        while self.table[slot] != 0 && self.table[slot] != h {
                            slot = (slot + 1) & mask;
                        }
                        self.table[slot] = h;
                    }
                    b'0'..=b'9' => {
                        let mut n = 0u64;
                        while i < text.len() && text[i].is_ascii_digit() {
                            n = n.wrapping_mul(10).wrapping_add(u64::from(text[i] - b'0'));
                            i += 1;
                        }
                        acc = acc.wrapping_add(n);
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        let gemv = |w: &[Lane], x: &[Lane], y: &mut [f32]| {
            for (row, out) in w.chunks_exact(REF_LANES).zip(y.iter_mut()) {
                let mut lanes = [0f32; 16];
                for (r, v) in row.iter().zip(x) {
                    for ((l, a), b) in lanes.iter_mut().zip(&r.0).zip(&v.0) {
                        *l += a * b;
                    }
                }
                *out = lanes.iter().sum::<f32>().tanh();
            }
        };
        self.x.copy_from_slice(&self.x0);
        let mut y = [0f32; REF_ROWS];
        for _ in 0..48 {
            gemv(black_box(&self.w), &self.x, &mut y);
            for (i, v) in self.x.iter_mut().flat_map(|l| l.0.iter_mut()).enumerate() {
                *v = 0.5 * *v + 0.5 * y[i % REF_ROWS];
            }
        }
        let mut big_y = [0f32; REF_BIG_ROWS];
        gemv(black_box(&self.big), &self.x, &mut big_y);
        acc = acc.wrapping_add(u64::from(big_y[REF_BIG_ROWS / 2].to_bits()));
        acc = acc.wrapping_add(
            self.x
                .iter()
                .map(|l| u64::from(l.0[0].to_bits()))
                .sum::<u64>(),
        );
        for (i, k) in self.keys.iter_mut().enumerate() {
            *k = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ acc;
        }
        black_box(&mut self.keys).sort_unstable();
        acc.wrapping_add(self.keys[self.keys.len() / 2])
    }
}

/// Nominal CPU time of the reference work, about what it takes on one
/// vCPU of an idle 2-vCPU AVX2 host. CPU times are reported at the speed
/// at which the reference work takes this long.
pub const REFERENCE_NS: u64 = 2_500_000;

/// Factor that puts CPU time measured between two timings of the
/// reference work (`before`, `after`, in ns) at reference speed.
pub fn reference_scale(before: u64, after: u64) -> f64 {
    2.0 * REFERENCE_NS as f64 / (before + after) as f64
}

/// CPU time of the reference work, in nanoseconds: the median of three
/// timings, so one interrupted timing does not set it. Its CPU time moves
/// only with the speed the host gives the process, so the benchmark times
/// it between requests to put their CPU time on a fixed scale.
pub fn reference_ns() -> u64 {
    thread_local! {
        static REFERENCE: std::cell::RefCell<Reference> = std::cell::RefCell::new(Reference::new());
    }
    REFERENCE.with(|r| {
        let mut r = r.borrow_mut();
        let mut t = [0u64; 3];
        for slot in &mut t {
            let t0 = process_cpu_ns();
            std::hint::black_box(r.run());
            *slot = process_cpu_ns() - t0;
        }
        t.sort_unstable();
        t[1]
    })
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Host-wide steal time so far, in seconds (`/proc/stat`, USER_HZ = 100).
/// Reference only: it says how much the hypervisor took during a run.
pub fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s
                .lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()?;
            Some(cpu / 100.0)
        })
        .unwrap_or(0.0)
}

/// Wall clock and steal at one point, to report both over a run.
pub struct RunClock {
    wall: Instant,
    steal: f64,
}

impl RunClock {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            steal: steal_secs(),
        }
    }

    /// `(wall seconds, steal seconds)` since [`start`](Self::start).
    pub fn elapsed(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), steal_secs() - self.steal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CPU time of the calling thread alone, in nanoseconds.
    fn thread_cpu_ns() -> u64 {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: as in `process_cpu_ns`.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    #[test]
    fn cpu_clock_counts_a_busy_child_thread() {
        let t0 = process_cpu_ns();
        // The calling thread only waits; the child burns 200 ms of its own
        // CPU time, however long the host takes to give it that.
        let child = std::thread::spawn(|| {
            let mut x = 0u64;
            while thread_cpu_ns() < 200_000_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        child.join().expect("busy child thread");
        let used = process_cpu_ns() - t0;
        assert!(
            used >= 200_000_000,
            "process CPU clock saw only {used} ns of a child's 200 ms"
        );
    }

    #[test]
    fn reference_work_is_deterministic_and_timed() {
        assert!(reference_ns() > 0);
        let mut r = Reference::new();
        let first = r.run();
        assert_eq!(r.run(), first, "every run does the same work");
        assert_eq!(reference_scale(REFERENCE_NS, REFERENCE_NS), 1.0);
        assert_eq!(reference_scale(REFERENCE_NS, 3 * REFERENCE_NS), 0.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
