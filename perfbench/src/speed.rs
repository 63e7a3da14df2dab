//! Host-speed calibration. The shared VM this benchmark was written on
//! runs in phases lasting seconds to minutes: in a slow phase the same
//! preview took 55–60 ms instead of 31–37 ms, and a whole 20-s run could
//! fall in one, so raw medians moved up to 35% between runs of one build.
//!
//! A fixed reference computation — the benchmark's own code, never the
//! program's — is timed between the workload's units, outside their
//! clocks. Its time follows the phases. A metric uses only the windows
//! the run spent in its fast phase (calibration within [`FAST_SLACK`] of
//! the run's fastest), and scales each of their samples by
//! [`REFERENCE_NS`] ÷ the window's calibration. The calibration slows
//! less than the workload in a slow phase (1.4× against 1.6×), so the
//! filter does most of the work and the scaling removes what is left
//! within the fast phase. Reported times are therefore "at the reference
//! speed"; the report lines also print the raw values.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Calibration time at the reference host speed: about its fast-phase
/// time on a 2-vCPU Firecracker VM (Intel Xeon, `rustc 1.95`, release
/// build), where it read 0.29–0.34 ms fast and 0.42–0.46 ms slow.
pub const REFERENCE_NS: f64 = 300_000.0;

/// A sample counts as taken in the fast phase when its calibration is
/// at most this multiple of the run's fastest calibration: the phases'
/// calibrations were about 1.4× apart.
pub const FAST_SLACK: f64 = 1.25;

/// Timed work between two calibrations inside the timed loop.
pub const EVERY: Duration = Duration::from_millis(20);

/// Keys the reference computation sorts: 128 KiB, within a core's own
/// caches, so the time follows the core's speed, not the heap's state.
const KEYS: usize = 1 << 14;

/// Time one run of the reference computation: sort a fixed array of
/// pseudo-random keys and fold them into a hash. It allocates nothing,
/// so the program's heap cannot change its time.
pub fn calibrate() -> u64 {
    static BUFS: OnceLock<Mutex<(Vec<u64>, Vec<u64>)>> = OnceLock::new();
    let bufs = BUFS.get_or_init(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Mutex::new((keys, vec![0; KEYS]))
    });
    let mut bufs = bufs.lock().expect("a calibrating thread panicked");
    let (keys, work) = &mut *bufs;
    let t = Instant::now();
    work.copy_from_slice(std::hint::black_box(keys));
    work.sort_unstable();
    let h = work.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &k| {
        (h ^ k).wrapping_mul(0x0100_0000_01B3)
    });
    std::hint::black_box(h);
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The median of `n` calibrations.
pub fn calibrate_median(n: usize) -> u64 {
    let v: Vec<u64> = (0..n).map(|_| calibrate()).collect();
    crate::percentile(&v, 50.0)
}

/// Factor that scales a time measured at calibration `calib_ns` to the
/// reference speed (divide a rate by it).
pub fn to_reference(calib_ns: u64) -> f64 {
    REFERENCE_NS / calib_ns.max(1) as f64
}

/// The samples taken in the run's fast phase: calibration within
/// [`FAST_SLACK`] of the fastest. Never empty when `samples` is not.
pub fn fast<T>(samples: &[T], calib_ns: impl Fn(&T) -> u64) -> Vec<&T> {
    let min = samples.iter().map(&calib_ns).min().unwrap_or(0) as f64;
    samples
        .iter()
        .filter(|s| calib_ns(s) as f64 <= FAST_SLACK * min)
        .collect()
}
