//! `perfbench` — closed-loop benchmark of the clio engine.
//!
//! ```text
//! perfbench --workload <refine|bulk-eval|cycle-edit> --seed <n> --seconds <s> --trace <0|1> [--units <n>]
//! ```
//!
//! Untraced (`--trace 0`): repeated set-ups, then one caller runs the
//! workload's op back to back for `--seconds` of timed work, checking
//! every op's output; prints the end-to-end metrics. Traced (`--trace
//! 1`): the same set-up, then one-second blocks of the untraced op
//! alternate with the op replayed as its public layer calls under the
//! benchmark's own spans; prints the per-layer metrics. `--units <n>`
//! runs a fixed count of timed units (ops; refine's passes) instead of a
//! time budget (the scaling check in `steady.py`). The last stdout line
//! is one JSON object. See README.md.
//!
//! The process is pinned to one CPU, and timings are taken in the host's
//! fast phase and scaled to a reference speed ([`speed`]).

mod bulk;
mod cycle;
mod layers;
mod refine;
mod speed;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use clio_obs::Counter;

use crate::trace::{Profile, Tracer};

/// Engine worker threads (`--threads 1`): one caller, one engine thread.
const ENGINE_THREADS: usize = 1;

/// Busy time of one untraced or traced block in a traced run.
const TRACE_BLOCK: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    units: Option<usize>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut units) =
            (None, None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("missing value for `{flag}`"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
                "--units" => units = Some(value.parse::<usize>().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let seconds = seconds.unwrap_or(20.0);
        if seconds.is_nan() || seconds <= 0.0 || units == Some(0) {
            return Err("--seconds and --units must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(0),
            seconds,
            trace: trace.unwrap_or(false),
            units,
        })
    }

    /// Has one mode measured enough? A traced run splits the budget
    /// between its untraced and traced halves.
    fn done(&self, s: &Samples) -> bool {
        let share = if self.trace { 0.5 } else { 1.0 };
        match self.units {
            Some(n) => s.units >= n,
            None => s.busy.as_secs_f64() >= self.seconds * share,
        }
    }
}

/// Timed work per window: a run's op metrics come from per-window
/// values, and a window is short against the host's speed phases.
const WINDOW: Duration = Duration::from_secs(1);

/// A closed window: its ops, its timed work, and the median of the
/// calibrations taken during it.
struct Window {
    ops: std::ops::Range<usize>,
    work: Duration,
    calib_ns: u64,
}

/// Latencies and outcomes of one mode's ops. `busy` is the timed
/// wall-clock: the sum of the timed ops, excluding output checks and
/// calibrations.
#[derive(Default)]
pub struct Samples {
    pub lat_ns: Vec<u64>,
    pub busy: Duration,
    pub failed: usize,
    /// Timed units run (ops; refine's passes).
    pub units: usize,
    windows: Vec<Window>,
    /// First op and `busy` at the start of the open window.
    open: (usize, Duration),
    /// Calibrations taken in the open window, and `busy` at the last one.
    calib: Vec<u64>,
    calibrated_at: Duration,
}

/// A mode's op rate and latency percentiles over the `ops` of its
/// fast-phase windows, each op scaled to the reference speed by its
/// window's calibration ([`speed`]); `raw` holds the same three over
/// every closed window, unscaled.
struct Summary {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    raw: [f64; 3],
    ops: usize,
    windows: usize,
    fast_windows: usize,
}

impl Samples {
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.lat_ns
            .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        if !ok {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.lat_ns.len()
    }

    /// Called after every unit, outside its clock: calibrate every
    /// [`speed::EVERY`] of timed work, and close the open window once it
    /// holds [`WINDOW`] of timed work.
    fn end_unit(&mut self) {
        self.units += 1;
        if self.busy - self.calibrated_at >= speed::EVERY {
            self.calib.push(speed::calibrate());
            self.calibrated_at = self.busy;
        }
        let work = self.busy - self.open.1;
        if work >= WINDOW {
            if self.calib.is_empty() {
                self.calib.push(speed::calibrate());
            }
            self.windows.push(Window {
                ops: self.open.0..self.lat_ns.len(),
                work,
                calib_ns: percentile(&self.calib, 50.0),
            });
            self.calib.clear();
            self.open = (self.lat_ns.len(), self.busy);
        }
    }

    fn summary(&self) -> Summary {
        // A run shorter than one window is one window (a trailing
        // partial window is otherwise left out).
        let whole = [Window {
            ops: 0..self.lat_ns.len(),
            work: self.busy,
            calib_ns: if self.calib.is_empty() {
                speed::calibrate()
            } else {
                percentile(&self.calib, 50.0)
            },
        }];
        let windows = if self.windows.is_empty() {
            &whole[..]
        } else {
            &self.windows[..]
        };
        let fast = speed::fast(windows, |w| w.calib_ns);
        // Every op of a fast-phase window, scaled to the reference speed.
        let (mut scaled, mut work, mut ops) = (Vec::new(), 0.0, 0);
        for w in &fast {
            let k = speed::to_reference(w.calib_ns);
            scaled.extend(
                self.lat_ns[w.ops.clone()]
                    .iter()
                    .map(|&ns| (ns as f64 * k) as u64),
            );
            work += w.work.as_secs_f64() * k;
            ops += w.ops.len();
        }
        let raw_work: Duration = windows.iter().map(|w| w.work).sum();
        let raw_ops: usize = windows.iter().map(|w| w.ops.len()).sum();
        let raw_lat = &self.lat_ns[windows[0].ops.start..windows[windows.len() - 1].ops.end];
        let ms = |v: &[u64], p| percentile(v, p) as f64 / 1e6;
        Summary {
            ops_per_s: ops as f64 / work.max(1e-9),
            p50_ms: ms(&scaled, 50.0),
            p90_ms: ms(&scaled, 90.0),
            p99_ms: ms(&scaled, 99.0),
            raw: [
                raw_ops as f64 / raw_work.as_secs_f64().max(1e-9),
                ms(raw_lat, 50.0),
                ms(raw_lat, 90.0),
            ],
            ops,
            windows: windows.len(),
            fast_windows: fast.len(),
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Where runs leave their temporary files and span logs (inside the
/// benchmark's directory, ignored by git).
pub fn runs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// One workload: a set-up state that runs timed units.
pub trait Workload {
    /// Input sizes and settings for the provenance line.
    fn describe(&self) -> String;
    /// One timed unit, untraced: one op, or for refine one connection's
    /// pass of requests (each request an op).
    fn unit(&mut self, s: &mut Samples);
    /// The same unit replayed as its public layer calls under spans;
    /// `op` numbers the ops (spans of one op share it).
    fn traced_unit(&mut self, s: &mut Samples, tr: &Tracer, op: &mut u64);
    /// After the traced loop: ratios the workload counted itself, plus
    /// control probes that time, on this workload's data, the layers its
    /// op does not call (so every per-layer metric has a measured value).
    fn layers(&mut self, tr: &Tracer, op: &mut u64) -> layers::Extra;
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the process to the highest-numbered CPU it may run on; call it
/// before any thread starts (threads inherit the mask). On a small VM a
/// request that wakes a thread on another, idle, virtual CPU waits for
/// the hypervisor to run that CPU again: refine's passes took twice
/// their CPU time unpinned, and that wait moved with the host's load.
/// Pinned, the client and server threads hand off on one CPU and the
/// timings measure clio's work. Returns the CPU, or `None` if the
/// affinity calls fail (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    // a `cpu_set_t`: 1024 bits
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `size` bytes, the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes naming one CPU
    // from the allowed set; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Reset the process's RSS high-water mark to its current RSS, so
/// `peak_rss_mb` covers the set-ups and ops, not the benchmark's own
/// input preparation. Returns whether the kernel accepted the reset.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The host as the run found it: CPUs available before pinning, and the
/// CPU the run is pinned to.
struct Host {
    parallelism: usize,
    cpu: Option<usize>,
}

fn drive<W: Workload>(args: &Args, host: &Host, setups: usize, mut setup: impl FnMut() -> W) {
    // Set-up discipline: several full set-ups, each timed next to a
    // calibration; the last one is kept for the timed loop.
    let mut setup_s: Vec<(f64, u64)> = Vec::with_capacity(setups);
    let rss_reset = reset_peak_rss();
    let mut state = None;
    for _ in 0..setups {
        drop(state.take());
        let calib = speed::calibrate_median(5);
        let t = Instant::now();
        let built = setup();
        setup_s.push((t.elapsed().as_secs_f64(), calib));
        state = Some(built);
    }
    let mut w = state.expect("at least one set-up");

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let tr = Tracer::new();
    let mut op = 0u64;
    let mut work = [0u64; 3];
    const WORK: [Counter; 3] = [
        Counter::JoinProbes,
        Counter::SubsumptionComparisons,
        Counter::TuplesScanned,
    ];
    if !args.trace {
        while !args.done(&untraced) {
            w.unit(&mut untraced);
            untraced.end_unit();
        }
    } else {
        // Alternate blocks so host phases that last seconds hit both
        // modes alike; the overhead compares their op rates.
        while !(args.done(&untraced) && args.done(&traced)) {
            let start = untraced.busy;
            while !args.done(&untraced) && untraced.busy - start < TRACE_BLOCK {
                w.unit(&mut untraced);
                untraced.end_unit();
            }
            clio_obs::set_metrics_enabled(true);
            let before = clio_obs::snapshot();
            let start = traced.busy;
            while !args.done(&traced) && traced.busy - start < TRACE_BLOCK {
                w.traced_unit(&mut traced, &tr, &mut op);
                traced.end_unit();
            }
            let delta = clio_obs::snapshot().since(&before);
            clio_obs::set_metrics_enabled(false);
            for (slot, c) in work.iter_mut().zip(WORK) {
                *slot += delta.get(c);
            }
        }
    }
    let rss = peak_rss_mb();

    println!(
        "provenance: available_parallelism={} pinned_cpu={} rustc=\"{}\" git_rev={} workload={} \
         seed={} engine_threads={ENGINE_THREADS} setups={setups} ops={} {}",
        host.parallelism,
        host.cpu.map_or("none".to_owned(), |c| c.to_string()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        args.workload,
        args.seed,
        untraced.attempted() + traced.attempted(),
        w.describe(),
    );
    let attempted = untraced.attempted() + traced.attempted();
    let failed = untraced.failed + traced.failed;
    println!(
        "op_fail_ratio: {} ({failed} of {attempted} ops failed or gave wrong output)",
        failed as f64 / attempted.max(1) as f64
    );

    if !args.trace {
        let sum = untraced.summary();
        let n = untraced.attempted();
        let raw_setup: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
        let fast_setups = speed::fast(&setup_s, |s| s.1);
        let setup = median_f64(
            &fast_setups
                .iter()
                .map(|(t, c)| t * speed::to_reference(*c))
                .collect::<Vec<_>>(),
        );
        println!(
            "setup_s: {setup:.6} s (median of {} fast-phase of {setups} set-ups at reference speed; \
             raw median {:.6})",
            fast_setups.len(),
            median_f64(&raw_setup)
        );
        let how = format!(
            "{} ops of the {} fast-phase of {} windows of {} s timed work, at reference speed",
            sum.ops,
            sum.fast_windows,
            sum.windows,
            WINDOW.as_secs()
        );
        let [raw_rate, raw_p50, raw_p90] = sum.raw;
        println!(
            "ops_per_s: {:.3} 1/s ({how}; {n} ops in {:.3} s timed; raw {raw_rate:.3})",
            sum.ops_per_s,
            untraced.busy.as_secs_f64()
        );
        println!("op_p50_ms: {:.6} ms ({how}; raw {raw_p50:.6})", sum.p50_ms);
        println!("op_p90_ms: {:.6} ms ({how}; raw {raw_p90:.6})", sum.p90_ms);
        if args.workload == "refine" {
            println!(
                "op_p99_ms: {:.6} ms ({how}; {} beyond)",
                sum.p99_ms,
                sum.ops / 100
            );
        }
        println!(
            "peak_rss_mb: {rss:.3} MB (high-water mark {} input preparation)",
            if rss_reset { "after" } else { "including" }
        );
        print_result(
            failed == 0,
            attempted,
            failed,
            &[
                ("setup_s", setup, "s"),
                ("ops_per_s", sum.ops_per_s, "1/s"),
                ("op_p50_ms", sum.p50_ms, "ms"),
                ("op_p90_ms", sum.p90_ms, "ms"),
                ("peak_rss_mb", rss, "MB"),
            ],
        );
        return;
    }

    let mut extra = w.layers(&tr, &mut op);
    let traced_ops = traced.attempted().max(1) as f64;
    for (name, count) in [
        "relational.join_probes_per_op",
        "relational.subsumption_cmps_per_op",
        "relational.tuples_scanned_per_op",
    ]
    .into_iter()
    .zip(work)
    {
        extra.set(
            name,
            count as f64 / traced_ops,
            format!("{count} over {traced_ops} traced ops"),
        );
    }
    let (u, t) = (untraced.summary().ops_per_s, traced.summary().ops_per_s);
    extra.set(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - t / u),
        format!("untraced {u:.3} vs traced {t:.3} ops/s"),
    );
    let spans = tr.spans();
    let profile = Profile::new(&spans);
    layers::print_profile(&profile);
    let metrics = layers::per_layer(&profile, &extra);
    let path = runs_dir().join(format!("{}.spans.jsonl", args.workload));
    trace::write_jsonl(&spans, &path).expect("write the span log");
    println!("spans: {} written to {}", spans.len(), path.display());
    print_result(failed == 0, attempted, failed, &metrics);
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host {
        parallelism: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu: pin_to_one_cpu(),
    };
    clio_relational::exec::set_threads(ENGINE_THREADS);
    match args.workload.as_str() {
        "refine" => {
            let prep = refine::Prep::new();
            drive(&args, &host, refine::SETUPS, || {
                refine::Refine::setup(&prep)
            });
        }
        "bulk-eval" => {
            let prep = bulk::Prep::new(args.seed);
            drive(&args, &host, bulk::SETUPS, || bulk::Bulk::setup(&prep));
        }
        "cycle-edit" => {
            let prep = cycle::Prep::new(args.seed, args.trace);
            drive(&args, &host, cycle::SETUPS, || cycle::Cycle::setup(&prep));
        }
        other => {
            eprintln!("perfbench: unknown workload `{other}` (refine, bulk-eval, cycle-edit)");
            std::process::exit(2);
        }
    }
}
