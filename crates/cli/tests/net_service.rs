//! End-to-end tests of the networked session service: `clio-shell
//! serve` + `connect` over loopback. Each test runs the real binary so
//! server state, counters, and exit codes are the production paths.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use clio_net::{frame, Client};

fn shell() -> Command {
    Command::new(env!("CARGO_BIN_EXE_clio-shell"))
}

fn demo_script() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scripts/demo.clio")
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clio_net_service_{}_{name}", std::process::id()))
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

/// A running `clio-shell serve` subprocess plus its announced address.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    /// Spawn `clio-shell serve --port 0 <extra args>` and wait for its
    /// `listening on <addr>` announcement.
    fn start(extra: &[&str]) -> ServerProc {
        let mut child = shell()
            .arg("serve")
            .args(["--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("server announces its address");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .trim()
            .to_owned();
        ServerProc { child, addr }
    }

    /// Ask the server to stop (protocol-level `shutdown`) and assert a
    /// clean exit.
    fn shutdown(mut self) {
        let mut c = Client::connect(&self.addr).expect("connect for shutdown");
        let resp = c.request("shutdown").expect("shutdown request");
        assert_eq!(resp.as_deref(), Some("shutting down\n"));
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "server exit status: {status:?}");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Only reached when a test failed before calling shutdown().
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A raw loopback socket with a test-hang guard.
fn raw_socket(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

#[test]
fn concurrent_clients_match_the_serial_script_run_byte_for_byte() {
    let serial = shell()
        .arg("--script")
        .arg(demo_script())
        .output()
        .expect("serial run");
    assert!(serial.status.success());

    let server = ServerProc::start(&["--max-conns", "4", "--threads", "1"]);
    let addr = &server.addr;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(move || {
                    shell()
                        .arg("connect")
                        .arg(addr)
                        .arg("--script")
                        .arg(demo_script())
                        .output()
                        .expect("client run")
                })
            })
            .collect();
        for handle in handles {
            let out = handle.join().expect("client thread");
            assert!(
                out.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&serial.stdout),
                "networked output must be byte-identical to the local script run"
            );
        }
    });
    server.shutdown();
}

#[test]
fn sequential_clients_share_one_store_and_report_per_connection_sessions() {
    let metrics = tmp_path("share.json");
    let server = ServerProc::start(&["--max-conns", "2", "--metrics", metrics.to_str().unwrap()]);
    for _ in 0..2 {
        let out = shell()
            .arg("connect")
            .arg(&server.addr)
            .arg("--script")
            .arg(demo_script())
            .output()
            .expect("client run");
        assert!(out.status.success());
    }
    server.shutdown();
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    assert_eq!(counter(&json, "net.accepted"), 3, "{json}");
    assert_eq!(counter(&json, "net.frame_errors"), 0, "{json}");
    assert_eq!(counter(&json, "net.active"), 0, "all connections drained");
    assert!(counter(&json, "net.frames") > 0, "{json}");
    assert!(counter(&json, "cache.hits") > 0, "{json}");
    assert!(
        counter(&json, "cache.spills") > 0,
        "the first client spills into the shared store: {json}"
    );
    assert!(
        counter(&json, "cache.disk_hits") > 0,
        "the second client warms from the first client's spills: {json}"
    );
    // Per-connection counter tables are keyed by connection label.
    assert!(json.contains("\"conn.0\""), "{json}");
    assert!(json.contains("\"conn.1\""), "{json}");
}

/// The counter object that follows `"key": ` in a JSON report.
fn object<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": {{"))
        .unwrap_or_else(|| panic!("`{key}` in {json}"));
    let end = start + json[start..].find('}').expect("object closes");
    &json[start..end]
}

#[test]
fn stats_reset_zeroes_only_the_issuing_connection() {
    let metrics = tmp_path("reset.json");
    let server = ServerProc::start(&["--metrics", metrics.to_str().unwrap()]);
    let out = shell()
        .arg("connect")
        .arg(&server.addr)
        .arg("--script")
        .arg(demo_script())
        .output()
        .expect("client run");
    assert!(out.status.success());
    let mut client = Client::connect(&server.addr).expect("second client");
    let reset = client.request("stats reset").expect("stats reset");
    assert_eq!(reset.as_deref(), Some("counters reset\n"));
    drop(client);
    server.shutdown();
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    // Both connections keep their names, and the first connection's
    // work survives the second connection's reset, in its own table
    // and in the process totals.
    assert!(
        counter(object(&json, "conn.0"), "join.probes") > 0,
        "{json}"
    );
    assert_eq!(counter(object(&json, "conn.1"), "join.probes"), 0, "{json}");
    assert!(
        counter(object(&json, "counters"), "join.probes") > 0,
        "{json}"
    );
}

#[test]
fn malformed_frames_are_answered_and_the_connection_survives() {
    let metrics = tmp_path("frames.json");
    let server = ServerProc::start(&["--metrics", metrics.to_str().unwrap()]);
    let mut raw = raw_socket(&server.addr);

    // Garbage bytes: one error frame per bad version byte.
    raw.write_all(&[0xde, 0xad]).expect("garbage write");
    for byte in ["0xde", "0xad"] {
        let err = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
            .expect("error frame")
            .expect("connection stays open");
        assert_eq!(err, format!("error: unsupported protocol version {byte}\n"));
    }

    // An oversized declared frame is drained and answered.
    let oversized = frame::MAX_FRAME_BYTES + 1;
    raw.write_all(&[frame::PROTOCOL_VERSION]).unwrap();
    raw.write_all(&(oversized as u32).to_be_bytes()).unwrap();
    raw.write_all(&vec![b'x'; oversized]).unwrap();
    let err = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
        .expect("error frame")
        .expect("connection stays open");
    assert_eq!(
        err,
        format!(
            "error: frame length {oversized} exceeds the {}-byte limit\n",
            frame::MAX_FRAME_BYTES
        )
    );

    // The same connection still answers well-formed requests.
    frame::write_frame(&mut raw, "status").expect("valid frame");
    let resp = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
        .expect("response")
        .expect("connection stays open");
    assert!(resp.contains("workspaces:"), "{resp}");

    // A torn frame (EOF mid-payload) is answered best-effort and closes
    // the connection.
    let mut torn = raw_socket(&server.addr);
    torn.write_all(&[frame::PROTOCOL_VERSION]).unwrap();
    torn.write_all(&10u32.to_be_bytes()).unwrap();
    torn.write_all(b"hal").unwrap();
    torn.shutdown(std::net::Shutdown::Write).unwrap();
    let err = frame::read_frame(&mut torn, frame::MAX_FRAME_BYTES)
        .expect("error frame")
        .expect("best-effort answer");
    assert_eq!(err, "error: truncated frame payload (3 of 10 bytes)\n");
    let mut rest = Vec::new();
    torn.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "connection closed after the torn frame");

    drop(raw);
    server.shutdown();
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    assert_eq!(counter(&json, "net.frame_errors"), 4, "{json}");
    assert!(counter(&json, "net.frames") > 0, "{json}");
}

#[test]
fn idle_timeout_closes_the_connection_and_counts() {
    let metrics = tmp_path("idle.json");
    let server = ServerProc::start(&["--idle-ms", "150", "--metrics", metrics.to_str().unwrap()]);
    let mut raw = raw_socket(&server.addr);
    let notice = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
        .expect("timeout notice")
        .expect("server answers before closing");
    assert_eq!(notice, "error: idle timeout, closing connection\n");
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).expect("EOF");
    assert!(rest.is_empty(), "connection closed after the timeout");
    server.shutdown();
    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    std::fs::remove_file(&metrics).ok();
    assert!(counter(&json, "net.timeouts") >= 1, "{json}");
}

#[test]
fn net_flag_strictness_exits_2_with_one_line_errors() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["serve", "--port", "zero"],
            "--port expects a port number (0-65535), got `zero`",
        ),
        (
            &["serve", "--port", "70000"],
            "--port expects a port number (0-65535), got `70000`",
        ),
        (
            &["serve", "--max-conns", "0"],
            "--max-conns expects a positive integer, got `0`",
        ),
        (
            &["serve", "--idle-ms", "x"],
            "--idle-ms expects a positive integer (milliseconds), got `x`",
        ),
        (
            &["connect"],
            "connect requires an <addr> argument (see --help)",
        ),
        (
            &["--port", "9090"],
            "--port requires serve mode (see --help)",
        ),
        (
            &["--max-conns", "2"],
            "--max-conns requires serve mode (see --help)",
        ),
        (
            &["serve", "--script", "x.clio"],
            "--script conflicts with serve mode (see --help)",
        ),
        (
            &["serve", "a.clio"],
            "serve mode takes no positional script arguments (see --help)",
        ),
        (
            &["connect", "127.0.0.1:1", "--sessions", "2"],
            "--sessions conflicts with connect mode (see --help)",
        ),
    ];
    for (args, want) in cases {
        let out = shell().args(*args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            *want,
            "args: {args:?}"
        );
    }
}

#[test]
fn net_env_strictness_exits_2_with_one_line_errors() {
    let cases: &[(&str, &str, &str)] = &[
        (
            "CLIO_PORT",
            "nope",
            "CLIO_PORT expects a port number (0-65535), got `nope`",
        ),
        (
            "CLIO_MAX_CONNS",
            "0",
            "CLIO_MAX_CONNS expects a positive integer, got `0`",
        ),
        (
            "CLIO_IDLE_MS",
            "-1",
            "CLIO_IDLE_MS expects a positive integer (milliseconds), got `-1`",
        ),
    ];
    for (key, value, want) in cases {
        let out = shell()
            .arg("serve")
            .env(key, value)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "env: {key}={value}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim(),
            *want,
            "env: {key}={value}"
        );
    }
}
