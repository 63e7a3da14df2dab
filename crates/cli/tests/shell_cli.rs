//! End-to-end tests of the `clio-shell` binary: flag handling, the
//! `--metrics`/`--trace` observability surface, and counter determinism.
//! Each test runs the real binary in a subprocess, so the global counters
//! of concurrent tests never interfere.

use std::path::PathBuf;
use std::process::{Command, Output};

fn shell() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clio-shell"))
}

fn demo_script() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scripts/demo.clio")
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clio_shell_cli_{}_{name}", std::process::id()))
}

fn run_demo_with_metrics(metrics: &PathBuf) -> Output {
    shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--metrics")
        .arg(metrics)
        .output()
        .expect("binary runs")
}

/// Zero out `cache.saved_ns` in a metrics snapshot: it sums measured
/// recompute times served from cache, so it is wall-clock-derived and
/// legitimately varies run to run even when every other counter is
/// deterministic.
fn normalize_saved_ns(json: &str) -> String {
    let key = "\"cache.saved_ns\": ";
    let Some(start) = json.find(key).map(|i| i + key.len()) else {
        return json.to_owned();
    };
    let end = start
        + json[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(0);
    format!("{}0{}", &json[..start], &json[end..])
}

/// The integer value of `"name": <n>` in a JSON snapshot.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let start = json
        .find(&key)
        .unwrap_or_else(|| panic!("`{name}` in {json}"))
        + key.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("counter value")
}

#[test]
fn scripted_run_emits_metrics_json_with_nonzero_work_counters() {
    let path = tmp_path("metrics.json");
    let out = run_demo_with_metrics(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"counters\""), "{json}");
    assert!(counter(&json, "join.probes") > 0, "{json}");
    assert!(counter(&json, "subsumption.comparisons") > 0, "{json}");
    assert!(counter(&json, "scan.tuples") > 0, "{json}");
    assert!(counter(&json, "chase.alternatives_generated") > 0, "{json}");
}

#[test]
fn counters_are_deterministic_across_identical_runs() {
    let (p1, p2) = (tmp_path("det1.json"), tmp_path("det2.json"));
    let o1 = run_demo_with_metrics(&p1);
    let o2 = run_demo_with_metrics(&p2);
    assert!(o1.status.success() && o2.status.success());
    let j1 = std::fs::read_to_string(&p1).expect("first report");
    let j2 = std::fs::read_to_string(&p2).expect("second report");
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
    // without --trace the report holds only counters, no timings, so two
    // identical seeded runs must produce byte-identical documents (modulo
    // the one wall-clock-derived counter)
    assert_eq!(normalize_saved_ns(&j1), normalize_saved_ns(&j2));
}

#[test]
fn trace_flag_prints_span_tree() {
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--trace")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace:"), "{stdout}");
    assert!(stdout.contains("- mapping.evaluate"), "{stdout}");
    // nested child spans are indented under their parent
    assert!(stdout.contains("  - fd.outer_join"), "{stdout}");
}

#[test]
fn stats_command_reports_counters_in_shell() {
    let path = tmp_path("stats.json");
    let out = run_demo_with_metrics(&path);
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("join.probes"), "{stdout}");
    assert!(stdout.contains("illustration.cover_nodes"), "{stdout}");
}

#[test]
fn help_flag_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = shell().arg(flag).output().expect("binary runs");
        assert!(out.status.success(), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{stdout}");
        assert!(stdout.contains("--metrics"), "{stdout}");
        assert!(stdout.contains("commands:"), "{stdout}");
    }
}

#[test]
fn metrics_json_is_byte_identical_across_thread_counts() {
    let (p1, p4) = (tmp_path("thr1.json"), tmp_path("thr4.json"));
    let mut runs = Vec::new();
    for (path, threads) in [(&p1, "1"), (&p4, "4")] {
        let out = shell()
            .arg("--script")
            .arg(demo_script())
            .arg("--metrics")
            .arg(path)
            .arg("--threads")
            .arg(threads)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        runs.push(std::fs::read_to_string(path).expect("metrics file written"));
        std::fs::remove_file(path).ok();
    }
    // counters are per-work-unit sums, independent of scheduling, so the
    // report must not change with the worker pool size (modulo the one
    // wall-clock-derived counter)
    assert_eq!(
        normalize_saved_ns(&runs[0]),
        normalize_saved_ns(&runs[1]),
        "counters drifted with thread count"
    );
}

#[test]
fn trace_filter_restricts_span_tree() {
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--trace-filter")
        .arg("chase")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("- op.chase"), "{stdout}");
    // unrelated top-level spans are filtered out of the tree
    assert!(!stdout.contains("- mapping.evaluate"), "{stdout}");
}

#[test]
fn bad_threads_value_exits_2() {
    for bad in ["0", "-1", "many"] {
        let out = shell()
            .arg("--threads")
            .arg(bad)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--threads {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive integer"), "{bad}: {stderr}");
    }
}

#[test]
fn missing_flag_values_exit_2() {
    for flag in [
        "--script",
        "--source",
        "--target",
        "--synthetic",
        "--metrics",
        "--trace-filter",
        "--trace-out",
        "--slow-ms",
        "--threads",
        "--sessions",
        "--cache-dir",
    ] {
        let out = shell().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("requires a value"), "{flag}: {stderr}");
    }
}

#[test]
fn bad_cache_limit_value_is_a_one_line_shell_error() {
    let script = tmp_path("bad_limit.clio");
    std::fs::write(&script, "cache limit lots\ncache limit\nquit\n").expect("script written");
    let out = shell()
        .arg("--script")
        .arg(&script)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    // shell parse errors are reported inline, not fatal
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("error: expected a byte budget, got `lots`\n"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error: usage: cache limit <bytes>\n"),
        "{stdout}"
    );
}

#[test]
fn unknown_flag_exits_2() {
    let out = shell().arg("--bogus").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn bad_sessions_value_exits_2() {
    for bad in ["0", "-1", "many"] {
        let out = shell()
            .arg("--sessions")
            .arg(bad)
            .arg(demo_script())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--sessions {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("positive integer"), "{bad}: {stderr}");
    }
}

#[test]
fn sessions_flag_misuse_exits_2() {
    // --sessions without script arguments
    let out = shell()
        .arg("--sessions")
        .arg("2")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires positional script"));
    // positional scripts conflict with --script
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg(demo_script())
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("conflicts"));
    // the first unreadable script (by input order) is the one reported
    let out = shell()
        .arg("--sessions")
        .arg("2")
        .arg("/nonexistent/first.clio")
        .arg("/nonexistent/second.clio")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("first.clio"), "{stderr}");
    assert!(!stderr.contains("second.clio"), "{stderr}");
}

/// Split batch-mode stdout into per-session chunks by the
/// `=== session <i>: <path> ===` headers, returning the chunk bodies.
fn session_chunks(stdout: &str) -> Vec<String> {
    let mut chunks: Vec<String> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("=== session ") && line.ends_with(" ===") {
            chunks.push(String::new());
        } else if let Some(last) = chunks.last_mut() {
            last.push_str(line);
            last.push('\n');
        }
    }
    chunks
}

#[test]
fn concurrent_sessions_match_serial_run_byte_for_byte() {
    let serial = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--threads")
        .arg("1")
        .output()
        .expect("binary runs");
    assert!(serial.status.success());
    let serial_stdout = String::from_utf8_lossy(&serial.stdout).into_owned();
    let batch = shell()
        .arg("--sessions")
        .arg("4")
        .args([demo_script(), demo_script(), demo_script(), demo_script()])
        .arg("--threads")
        .arg("1")
        .output()
        .expect("binary runs");
    assert!(
        batch.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&batch.stderr)
    );
    let chunks = session_chunks(&String::from_utf8_lossy(&batch.stdout));
    assert_eq!(chunks.len(), 4, "one chunk per session");
    for (i, chunk) in chunks.iter().enumerate() {
        assert_eq!(chunk, &serial_stdout, "session {i} diverged from serial");
    }
}

#[test]
fn sessions_metrics_json_reports_per_session_counters() {
    let metrics = tmp_path("sessions_metrics.json");
    let out = shell()
        .arg("--sessions")
        .arg("2")
        .args([demo_script(), demo_script()])
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    std::fs::remove_file(&metrics).ok();
    assert!(json.contains("\"sessions\""), "{json}");
    // per-session tables exist and did real work
    let s0 = json.find("\"0\": {").expect("session 0 table");
    let s1 = json.find("\"1\": {").expect("session 1 table");
    let (a, b) = (&json[s0..s1], &json[s1..]);
    assert!(counter(a, "join.probes") > 0, "{a}");
    // identical scripts over one snapshot do identical per-session work
    assert_eq!(counter(a, "join.probes"), counter(b, "join.probes"));
    assert_eq!(counter(a, "scan.tuples"), counter(b, "scan.tuples"));
    // and the global table holds the sum of both sessions
    let global = &json[..s0];
    assert_eq!(
        counter(global, "join.probes"),
        2 * counter(a, "join.probes")
    );
}

#[test]
fn no_cache_flag_leaves_stdout_byte_identical() {
    // the evaluation cache must be invisible in every rendered table:
    // the same script with and without --no-cache prints the same bytes
    // (no --metrics here, so the `stats` table is all-zero either way)
    let cached = shell()
        .arg("--script")
        .arg(demo_script())
        .output()
        .expect("binary runs");
    let uncached = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--no-cache")
        .output()
        .expect("binary runs");
    assert!(cached.status.success() && uncached.status.success());
    assert_eq!(
        String::from_utf8_lossy(&cached.stdout),
        String::from_utf8_lossy(&uncached.stdout),
        "--no-cache changed visible output"
    );
}

#[test]
fn cache_command_and_metrics_report_hits() {
    let script = tmp_path("cache_script.clio");
    std::fs::write(
        &script,
        "corr Children.ID -> ID\ncorr Children.name -> name\ntarget\ntarget\ncache\nquit\n",
    )
    .expect("script written");
    let metrics = tmp_path("cache_metrics.json");
    let out = shell()
        .arg("--script")
        .arg(&script)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: on"), "{stdout}");
    assert!(!stdout.contains("hits: 0 "), "{stdout}");
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&json, "cache.hits") > 0, "{json}");
    assert!(counter(&json, "cache.misses") > 0, "{json}");
    // same script under --no-cache: the command reports off, counters stay 0
    let out = shell()
        .arg("--script")
        .arg(&script)
        .arg("--metrics")
        .arg(&metrics)
        .arg("--no-cache")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: off"), "{stdout}");
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    std::fs::remove_file(&metrics).ok();
    assert_eq!(counter(&json, "cache.hits"), 0, "{json}");
    assert_eq!(counter(&json, "cache.misses"), 0, "{json}");
}

/// A mapping-building script with no introspection commands (`stats`,
/// `cache`), so its stdout must be byte-identical no matter how the
/// cache is served — memory, disk, or not at all.
fn write_persistence_script(name: &str) -> PathBuf {
    let script = tmp_path(name);
    std::fs::write(
        &script,
        "corr Children.ID -> ID\ncorr Children.name -> name\n\
         corr Parents.affiliation -> affiliation\nconfirm 1\n\
         target\ntarget\nillustration\nmapping\nsql\nquit\n",
    )
    .expect("script written");
    script
}

fn run_with_cache_dir(script: &PathBuf, dir: Option<&PathBuf>, metrics: &PathBuf) -> Output {
    let mut cmd = shell();
    cmd.arg("--script")
        .arg(script)
        .arg("--metrics")
        .arg(metrics);
    if let Some(dir) = dir {
        cmd.arg("--cache-dir").arg(dir);
    }
    cmd.output().expect("binary runs")
}

#[test]
fn cache_dir_restart_serves_disk_hits_with_identical_stdout() {
    let script = write_persistence_script("persist.clio");
    let dir = tmp_path("persist_cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = tmp_path("persist_metrics.json");

    // baseline: no cache dir at all
    let baseline = run_with_cache_dir(&script, None, &metrics);
    assert!(baseline.status.success());

    // cold: populates the directory, nothing to hit yet
    let cold = run_with_cache_dir(&script, Some(&dir), &metrics);
    assert!(
        cold.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_json = std::fs::read_to_string(&metrics).expect("cold metrics");
    assert!(counter(&cold_json, "cache.spills") > 0, "{cold_json}");
    assert_eq!(counter(&cold_json, "cache.disk_hits"), 0, "{cold_json}");
    assert!(counter(&cold_json, "cache.disk_bytes") > 0, "{cold_json}");

    // warm: a NEW process over the same directory is served from disk
    let warm = run_with_cache_dir(&script, Some(&dir), &metrics);
    assert!(warm.status.success());
    let warm_json = std::fs::read_to_string(&metrics).expect("warm metrics");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&warm_json, "cache.disk_hits") > 0, "{warm_json}");
    assert_eq!(counter(&warm_json, "cache.load_errors"), 0, "{warm_json}");

    // persistence must be invisible in the rendered output
    let b = String::from_utf8_lossy(&baseline.stdout);
    let c = String::from_utf8_lossy(&cold.stdout);
    let w = String::from_utf8_lossy(&warm.stdout);
    assert_eq!(b, c, "--cache-dir (cold) changed visible output");
    assert_eq!(c, w, "disk-warm restart changed visible output");

    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A script loading the MAP text `map` (written next to it), then
/// `target`: the script's path and the MAP file's.
fn write_map_script(name: &str, map: &str) -> (PathBuf, PathBuf) {
    let map_path = tmp_path(&format!("{name}.map"));
    std::fs::write(&map_path, map).expect("map written");
    let script = tmp_path(name);
    let text = format!("load {}\ntarget\nquit\n", map_path.display());
    std::fs::write(&script, text).expect("script written");
    (script, map_path)
}

#[test]
fn cyclic_restart_is_served_from_disk_tuple_id_entries() {
    // The cold run caches the cycle Children–Parents–PhoneDir: its F(J)s
    // as tuple ids, its D(G) and Q(M) as values. The warm run's graph
    // adds SBPS after those three nodes, so its D(G) and Q(M) are new and
    // every disk hit is a shared subgraph's F(J) tuple-id entry.
    let head = "MAP Kids (ID str not null, name str, affiliation str, address str, \
                contactPh str, BusSchedule str, FamilyIncome int)\n";
    let joins = "JOIN Children, Parents ON Children.mid = Parents.ID\n\
                 JOIN Parents, PhoneDir ON PhoneDir.ID = Parents.ID\n\
                 JOIN Children, PhoneDir ON Children.mid = PhoneDir.ID\n";
    let select = "SELECT Children.ID AS ID, Children.name AS name, \
                  Parents.affiliation AS affiliation, PhoneDir.number AS contactPh\n";
    let (cold_script, cold_map) = write_map_script(
        "cyclic_cold.clio",
        &format!("{head}FROM Children, Parents, PhoneDir\n{joins}{select}"),
    );
    let (warm_script, warm_map) = write_map_script(
        "cyclic_warm.clio",
        &format!(
            "{head}FROM Children, Parents, PhoneDir, SBPS\n{joins}\
             JOIN Children, SBPS ON SBPS.ID = Children.ID\n{select}"
        ),
    );
    let dir = tmp_path("cyclic_cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = tmp_path("cyclic_metrics.json");

    let cold = run_with_cache_dir(&cold_script, Some(&dir), &metrics);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_json = std::fs::read_to_string(&metrics).expect("cold metrics");
    assert!(counter(&cold_json, "cache.spills") > 0, "{cold_json}");

    let baseline = run_with_cache_dir(&warm_script, None, &metrics);
    assert!(baseline.status.success());
    let warm = run_with_cache_dir(&warm_script, Some(&dir), &metrics);
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_json = std::fs::read_to_string(&metrics).expect("warm metrics");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&warm_json, "cache.disk_hits") > 0, "{warm_json}");
    assert_eq!(counter(&warm_json, "cache.load_errors"), 0, "{warm_json}");
    assert!(String::from_utf8_lossy(&baseline.stdout).contains("555-01"));
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "a disk-warm restart changed visible output"
    );
    for path in [cold_script, cold_map, warm_script, warm_map] {
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_cache_files_degrade_to_a_cold_run() {
    let script = write_persistence_script("corrupt.clio");
    let dir = tmp_path("corrupt_cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = tmp_path("corrupt_metrics.json");

    let cold = run_with_cache_dir(&script, Some(&dir), &metrics);
    assert!(cold.status.success());

    // flip bytes in every spilled file: truncate one, scribble the rest
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "clc"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "cold run spilled nothing");
    for (i, file) in files.iter().enumerate() {
        if i == 0 {
            let bytes = std::fs::read(file).expect("read entry");
            std::fs::write(file, &bytes[..bytes.len() / 2]).expect("truncate");
        } else {
            std::fs::write(file, b"not a cache entry").expect("scribble");
        }
    }

    let warm = run_with_cache_dir(&script, Some(&dir), &metrics);
    assert!(
        warm.status.success(),
        "corrupt cache dir must not kill the run: {}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&json, "cache.load_errors") > 0, "{json}");
    assert_eq!(counter(&json, "cache.disk_hits"), 0, "{json}");
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "corruption changed visible output"
    );

    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unusable_cache_dir_degrades_to_an_inert_store() {
    let script = write_persistence_script("inert.clio");
    // point --cache-dir at a regular FILE: the store cannot create or
    // use the directory and must degrade, not fail the run
    let blocker = tmp_path("inert_not_a_dir");
    std::fs::write(&blocker, b"occupied").expect("blocker written");
    let metrics = tmp_path("inert_metrics.json");

    let out = run_with_cache_dir(&script, Some(&blocker), &metrics);
    assert!(
        out.status.success(),
        "unusable --cache-dir must not kill the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&json, "cache.load_errors") > 0, "{json}");
    assert_eq!(counter(&json, "cache.spills"), 0, "{json}");

    let baseline = run_with_cache_dir(&script, None, &metrics);
    std::fs::remove_file(&metrics).ok();
    assert_eq!(
        String::from_utf8_lossy(&baseline.stdout),
        String::from_utf8_lossy(&out.stdout),
        "degraded store changed visible output"
    );

    std::fs::remove_file(&script).ok();
    std::fs::remove_file(&blocker).ok();
}

#[test]
fn batch_sessions_share_one_cache_dir() {
    let script = write_persistence_script("batch_persist.clio");
    let dir = tmp_path("batch_cache_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = tmp_path("batch_metrics.json");

    let out = shell()
        .arg("--sessions")
        .arg("2")
        .args([&script, &script])
        .arg("--cache-dir")
        .arg(&dir)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics");
    assert!(counter(&json, "cache.spills") > 0, "{json}");

    // a second batch over the same directory is disk-warm
    let out2 = shell()
        .arg("--sessions")
        .arg("2")
        .args([&script, &script])
        .arg("--cache-dir")
        .arg(&dir)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(out2.status.success());
    let json2 = std::fs::read_to_string(&metrics).expect("metrics");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&json2, "cache.disk_hits") > 0, "{json2}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out2.stdout),
        "disk-warm batch changed visible output"
    );

    std::fs::remove_file(&script).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_shell_command_prints_live_span_tree() {
    let script = tmp_path("trace_script.clio");
    std::fs::write(
        &script,
        "corr Children.ID -> ID\ntarget\ntrace mapping.evaluate\nquit\n",
    )
    .expect("script written");
    // with --trace the in-shell `trace <name>` command shows the spans
    // collected so far, filtered like --trace-filter
    let out = shell()
        .arg("--script")
        .arg(&script)
        .arg("--trace")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("- mapping.evaluate"), "{stdout}");
    // without tracing enabled the command explains how to turn it on
    let out = shell()
        .arg("--script")
        .arg(&script)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no spans recorded"), "{stdout}");
}

/// The span count from the `trace: <n> spans on <m> threads` header.
fn span_count(stdout: &str) -> u64 {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("trace: "))
        .unwrap_or_else(|| panic!("no trace header in {stdout}"));
    line["trace: ".len()..]
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparseable trace header `{line}`"))
}

#[test]
fn trace_out_exports_one_chrome_event_per_span() {
    let trace_path = tmp_path("events.jsonl");
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--trace")
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let jsonl = std::fs::read_to_string(&trace_path).expect("trace-out written");
    std::fs::remove_file(&trace_path).ok();
    // one complete event per finished span — counts must agree exactly
    let events = jsonl.lines().count() as u64;
    assert_eq!(events, span_count(&stdout), "{stdout}");
    // every line is a self-contained Chrome trace-event object
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        for key in [
            "\"ph\": \"X\"",
            "\"name\":",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":",
        ] {
            assert!(line.contains(key), "missing {key}: {line}");
        }
    }
}

#[test]
fn trace_out_alone_collects_without_printing_the_tree() {
    let trace_path = tmp_path("quiet_events.jsonl");
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("trace:"), "{stdout}");
    let jsonl = std::fs::read_to_string(&trace_path).expect("trace-out written");
    std::fs::remove_file(&trace_path).ok();
    assert!(jsonl.lines().count() > 0, "no events exported");
}

#[test]
fn metrics_dash_prints_report_to_stdout_with_histograms() {
    let out = shell()
        .arg("--script")
        .arg(demo_script())
        .arg("--trace-out")
        .arg(tmp_path("dash_events.jsonl"))
        .arg("--metrics")
        .arg("-")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(tmp_path("dash_events.jsonl")).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    // the report follows the shell output on stdout
    let report_at = stdout
        .find("{\n  \"counters\"")
        .expect("JSON report on stdout");
    assert!(stdout[..report_at].contains("clio>"), "{stdout}");
    let report = &stdout[report_at..];
    assert!(report.contains("\"counters\""), "{report}");
    // tracing is on (--trace-out), so per-span-name histograms appear
    assert!(report.contains("\"histograms\""), "{report}");
    assert!(report.contains("\"mapping.evaluate\""), "{report}");
    assert!(report.contains("\"p99_ns\""), "{report}");
    assert!(counter(report, "join.probes") > 0, "{report}");
}

#[test]
fn trace_command_and_trace_filter_agree_on_no_match() {
    let script = tmp_path("nomatch.clio");
    std::fs::write(&script, "corr Children.ID -> ID\ntarget\ntrace zzz\nquit\n")
        .expect("script written");
    let in_shell = shell()
        .arg("--script")
        .arg(&script)
        .arg("--trace")
        .output()
        .expect("binary runs");
    let via_flag = shell()
        .arg("--script")
        .arg(&script)
        .arg("--trace-filter")
        .arg("zzz")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(in_shell.status.success() && via_flag.status.success());
    let needle = "trace: no spans matching `zzz`\n";
    let a = String::from_utf8_lossy(&in_shell.stdout);
    let b = String::from_utf8_lossy(&via_flag.stdout);
    assert!(a.contains(needle), "{a}");
    assert!(b.contains(needle), "{b}");
}

#[test]
fn slow_ms_flag_warns_about_slow_spans_on_stderr() {
    // threshold 1ms: building the value index over 80k synthetic rows
    // comfortably exceeds it (the tiny paper dataset would not)
    let script = tmp_path("slow.clio");
    std::fs::write(&script, "quit\n").expect("script written");
    let out = shell()
        .arg("--script")
        .arg(&script)
        .arg("--synthetic")
        .arg("chain,4,20000")
        .arg("--slow-ms")
        .arg("1")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("clio: slow span "), "{stderr}");
    assert!(stderr.contains("threshold 1.000ms"), "{stderr}");
    // rate limiting: at most WARN_LIMIT warning lines, then one summary
    let warnings = stderr
        .lines()
        .filter(|l| l.starts_with("clio: slow span "))
        .count();
    assert!(warnings <= 5, "{stderr}");
}

#[test]
fn slow_ms_env_fallback_enables_collection() {
    let script = tmp_path("slowenv.clio");
    std::fs::write(
        &script,
        "corr Children.ID -> ID\ntarget\ntrace mapping.evaluate\nquit\n",
    )
    .expect("script written");
    let out = shell()
        .arg("--script")
        .arg(&script)
        .env("CLIO_SLOW_MS", "60000")
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // spans were collected (threshold too high to warn), so the in-shell
    // trace command has something to show
    assert!(stdout.contains("- mapping.evaluate"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("slow span"), "{stderr}");
}

#[test]
fn profile_spans_command_ranks_spans_in_shell() {
    let script = tmp_path("profile.clio");
    std::fs::write(
        &script,
        "corr Children.ID -> ID\ntarget\nprofile spans 5\nquit\n",
    )
    .expect("script written");
    let traced = shell()
        .arg("--script")
        .arg(&script)
        .arg("--trace-out")
        .arg(tmp_path("profile_events.jsonl"))
        .output()
        .expect("binary runs");
    assert!(traced.status.success());
    std::fs::remove_file(tmp_path("profile_events.jsonl")).ok();
    let stdout = String::from_utf8_lossy(&traced.stdout);
    assert!(stdout.contains("profile: "), "{stdout}");
    assert!(stdout.contains("top 5 by self time"), "{stdout}");
    assert!(stdout.contains("p50 "), "{stdout}");
    // without any timing flag the command explains how to enable it
    let cold = shell()
        .arg("--script")
        .arg(&script)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&script).ok();
    assert!(cold.status.success());
    let stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(stdout.contains("--trace-out"), "{stdout}");
}
