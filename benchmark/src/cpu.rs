//! CPU-time clocks and the reference probe. A shared host runs the
//! benchmark at a speed that changes from minute to minute: in both wall
//! and CPU time the same work took up to 40% longer in one run than in
//! another. The gated cost metric is therefore the serving side's CPU
//! time over the CPU time of a fixed reference kernel that a probe
//! thread runs alongside, which slows down with the host.

use std::ffi::{c_int, c_long};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// `struct timespec` as Linux defines it (`time_t` is a C `long`).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS: c_int = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const THREAD: c_int = 3;

fn read(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the duration of the
    // call, and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, ended
/// threads included.
pub fn process_s() -> f64 {
    read(PROCESS)
}

/// CPU seconds used so far by the calling thread.
pub fn thread_s() -> f64 {
    read(THREAD)
}

/// Side of the reference kernel's square matrix (256 KiB of `f32`).
const REF_N: usize = 256;
/// Matrix-vector products per reference run.
const REF_REPS: usize = 2;
/// Pause between reference runs: the probe takes about a twentieth of
/// one core.
const PROBE_EVERY: Duration = Duration::from_millis(2);

/// A fixed matrix-vector kernel on data of its own. The program never
/// runs it, so its CPU time moves only with how fast the host executes
/// code at the moment, which moves the serving side's CPU time as well.
struct Reference {
    matrix: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Reference {
    fn new() -> Reference {
        let matrix = (0..REF_N * REF_N)
            .map(|i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5)
            .collect();
        Reference {
            matrix,
            x: vec![1.0 / REF_N as f32; REF_N],
            y: vec![0.0; REF_N],
        }
    }

    /// Runs the kernel once; returns the CPU seconds it took.
    fn run(&mut self) -> f64 {
        let start = thread_s();
        for _ in 0..REF_REPS {
            for (row, y) in self.matrix.chunks_exact(REF_N).zip(&mut self.y) {
                *y = row.iter().zip(&self.x).map(|(a, b)| a * b).sum();
            }
            let norm = self.y.iter().map(|v| v.abs()).sum::<f32>().max(1e-6);
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = black_box(y / norm);
            }
        }
        thread_s() - start
    }
}

/// Runs the reference kernel every [`PROBE_EVERY`] until `stop` is set,
/// keeping `spent_ns` at the CPU time the probe thread has used so far
/// (so CPU samples taken meanwhile can leave it out). Returns the mean
/// CPU seconds of one kernel run: the mean, because the serving side's
/// CPU total takes every slow stretch in, not only the typical one.
pub fn probe(stop: &AtomicBool, spent_ns: &AtomicU64) -> f64 {
    let mut reference = Reference::new();
    let (mut total, mut runs) = (0.0, 0usize);
    while !stop.load(Ordering::Acquire) {
        total += reference.run();
        runs += 1;
        spent_ns.store((thread_s() * 1e9) as u64, Ordering::Release);
        std::thread::sleep(PROBE_EVERY);
    }
    spent_ns.store((thread_s() * 1e9) as u64, Ordering::Release);
    total / runs.max(1) as f64
}

/// CPU seconds a [`probe`] has reported through `spent_ns`.
pub fn spent_s(spent_ns: &AtomicU64) -> f64 {
    spent_ns.load(Ordering::Acquire) as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_s(), thread_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        let (p1, t1) = (process_s(), thread_s());
        assert!(t1 > t0, "thread clock did not advance");
        assert!(
            p1 - p0 >= t1 - t0 - 1e-3,
            "the process clock covers the thread"
        );
    }

    #[test]
    fn probe_reports_its_kernel_and_its_own_cpu() {
        let stop = AtomicBool::new(false);
        let spent = AtomicU64::new(0);
        let mean = std::thread::scope(|s| {
            let probe = s.spawn(|| probe(&stop, &spent));
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::Release);
            probe.join().expect("probe thread")
        });
        assert!(mean > 0.0, "the kernel takes time");
        assert!(
            spent_s(&spent) >= mean,
            "the probe's CPU covers its kernel runs"
        );
    }
}
