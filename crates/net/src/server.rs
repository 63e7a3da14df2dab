//! Thread-per-connection framed TCP server.
//!
//! [`Server::run`] accepts connections on a nonblocking listener and
//! spawns one scoped thread per connection, capped at
//! [`ServerConfig::max_conns`] (excess connections wait in the OS
//! accept backlog — backpressure, not rejection). Each connection gets
//! a fresh [`Handler`] from the caller's factory, a `conn.<n>` obs
//! scope recorder so each connection's counters, spans and histograms
//! are its own, and a per-request idle deadline. Malformed frames are
//! answered with a one-line `error: ...` frame and the connection
//! continues (truncated frames close it — the stream can no longer be
//! trusted); idle timeouts close the connection after an error frame,
//! and so does a request whose handler panics (`net.handler_panics`).
//! A client sending the `shutdown` command stops the whole server: the
//! listener stops accepting, in-flight requests finish, and `run`
//! returns once every connection thread has drained.
//!
//! All error paths report through `clio_obs::warn_limited` under
//! `net.*` categories, so a flapping client cannot flood stderr.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clio_obs::metrics::{self, Counter};
use clio_obs::{hist, warn_limited, Recorder};

use crate::frame;

/// How often the accept loop polls the nonblocking listener (and the
/// shutdown flag) when nothing is happening.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Per-connection socket read timeout: the granularity at which a
/// blocked read notices the idle deadline or a server shutdown.
const READ_POLL: Duration = Duration::from_millis(25);

/// Span names for the first few connections (the same bounded-static
/// pattern as `SessionPool`'s `session.<i>` spans).
const CONN_SPAN_NAMES: [&str; 16] = [
    "conn.0", "conn.1", "conn.2", "conn.3", "conn.4", "conn.5", "conn.6", "conn.7", "conn.8",
    "conn.9", "conn.10", "conn.11", "conn.12", "conn.13", "conn.14", "conn.15",
];

fn conn_span_name(id: u64) -> &'static str {
    usize::try_from(id)
        .ok()
        .and_then(|i| CONN_SPAN_NAMES.get(i).copied())
        .unwrap_or("conn.overflow")
}

/// Knobs for [`Server::run`]. `Default` is 4 connections, a 30-second
/// idle timeout, and the protocol's 1 MiB frame limit.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection cap: at the cap the listener stops
    /// accepting until a connection closes (clamped to at least 1).
    pub max_conns: usize,
    /// Close a connection (after an error frame) when a full request
    /// frame has not arrived within this window.
    pub idle_timeout: Duration,
    /// Largest request payload accepted; longer declared frames are
    /// drained and answered with an error frame.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: 4,
            idle_timeout: Duration::from_secs(30),
            max_frame_bytes: frame::MAX_FRAME_BYTES,
        }
    }
}

/// A handler's answer to one request frame. `clio-cli` builds these
/// from `Shell::execute` outcomes.
#[derive(Debug, Clone)]
pub struct Response {
    /// Response payload, sent back as one frame.
    pub text: String,
    /// Histogram this request's latency is recorded under (the
    /// per-command-kind `net.request.*` names).
    pub hist: &'static str,
    /// Close the connection after responding (the `quit` command).
    pub quit: bool,
}

/// One connection's worth of command dispatch. Implementations are the
/// bridge between the wire and the engine; each connection owns one
/// handler, so implementations can carry per-connection session state
/// without locking.
pub trait Handler: Send {
    /// Execute one command line and produce the response frame.
    fn handle(&mut self, line: &str) -> Response;
}

/// Cloneable stop signal for a running server. Trigger it from another
/// thread (or let a client's `shutdown` command trigger it) and
/// [`Server::run`] drains and returns.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A bound listener plus its configuration. Bind with [`Server::bind`],
/// then [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    stop: ShutdownHandle,
}

impl Server {
    /// Bind a listener. Port 0 picks an ephemeral port — read it back
    /// with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permission).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            config,
            stop: ShutdownHandle::default(),
        })
    }

    /// The bound address (the real port when bound with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket-name lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop signal for this server, safe to trigger from any thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.stop.clone()
    }

    /// Accept and serve connections until shutdown, calling `factory`
    /// with the connection id to build each connection's [`Handler`].
    /// Returns only after every connection thread has drained.
    ///
    /// # Errors
    ///
    /// Only setup failures (switching the listener to nonblocking);
    /// per-connection errors degrade that connection and are reported
    /// through rate-limited warnings.
    pub fn run<F>(&self, factory: F) -> io::Result<()>
    where
        F: Fn(u64) -> Box<dyn Handler> + Sync,
    {
        self.listener.set_nonblocking(true)?;
        let active = AtomicUsize::new(0);
        let max_conns = self.config.max_conns.max(1);
        std::thread::scope(|scope| {
            let mut next_id: u64 = 0;
            while !self.stop.is_shutdown() {
                if active.load(Ordering::Relaxed) >= max_conns {
                    std::thread::sleep(ACCEPT_POLL);
                    continue;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let id = next_id;
                        next_id += 1;
                        metrics::incr(Counter::NetAccepted);
                        metrics::incr(Counter::NetActive);
                        active.fetch_add(1, Ordering::Relaxed);
                        let handler = factory(id);
                        // Opened here, in accept order: the order the
                        // report lists connections in.
                        let recorder = Recorder::scope(&format!("conn.{id}"));
                        let active = &active;
                        let config = &self.config;
                        let stop = &self.stop;
                        scope.spawn(move || {
                            let _slot = Slot(active);
                            recorder.run(|| serve_connection(&stream, id, handler, config, stop));
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(e) => {
                        warn_limited("net.accept", &format!("accept failed: {e}"));
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
        });
        Ok(())
    }
}

/// A connection's place under [`ServerConfig::max_conns`], released
/// however its thread ends.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        metrics::sub(Counter::NetActive, 1);
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One request's fate, as decoded by [`read_request`].
enum Request {
    /// A well-formed command line.
    Line(String),
    /// A malformed frame the connection survives (bad version byte,
    /// oversized declared length, non-UTF-8 payload).
    Malformed(String),
    /// A frame truncated by EOF: answer best-effort, then close — the
    /// byte stream can no longer be trusted.
    Torn(String),
    /// Nothing arrived within the idle window.
    Idle,
    /// Clean EOF between frames.
    Eof,
    /// The server is shutting down and no request is in flight.
    Shutdown,
    /// Transport failure.
    Io(io::Error),
}

/// Why a deadline-aware read stopped short.
enum Fault {
    Eof { got: usize },
    Idle,
    Shutdown,
    Io(io::Error),
}

/// Fill `buf` from a socket whose read timeout is [`READ_POLL`],
/// honoring the request's idle deadline and the server stop flag
/// between polls.
fn read_full(
    mut stream: &TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    stop: &ShutdownHandle,
) -> Result<(), Fault> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(Fault::Eof { got }),
            Ok(n) => got += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.is_shutdown() {
                    return Err(Fault::Shutdown);
                }
                if Instant::now() >= deadline {
                    return Err(Fault::Idle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Fault::Io(e)),
        }
    }
    Ok(())
}

/// Decode one request frame. The whole frame must arrive within the
/// idle window; a partial prefix when it closes is a torn frame.
fn read_request(stream: &TcpStream, config: &ServerConfig, stop: &ShutdownHandle) -> Request {
    let deadline = Instant::now() + config.idle_timeout;
    let mut version = [0u8; 1];
    match read_full(stream, &mut version, deadline, stop) {
        Ok(()) => {}
        Err(Fault::Eof { .. }) => return Request::Eof,
        Err(Fault::Idle) => return Request::Idle,
        Err(Fault::Shutdown) => return Request::Shutdown,
        Err(Fault::Io(e)) => return Request::Io(e),
    }
    if version[0] != frame::PROTOCOL_VERSION {
        // Resynchronize one byte at a time: each bad byte is answered,
        // so a client that sent garbage sees exactly what went wrong.
        return Request::Malformed(format!("unsupported protocol version 0x{:02x}", version[0]));
    }
    let mut len_bytes = [0u8; 4];
    match read_full(stream, &mut len_bytes, deadline, stop) {
        Ok(()) => {}
        Err(Fault::Eof { .. }) => return Request::Torn("truncated frame header".into()),
        Err(Fault::Idle) => return Request::Idle,
        Err(Fault::Shutdown) => return Request::Shutdown,
        Err(Fault::Io(e)) => return Request::Io(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > config.max_frame_bytes {
        // Drain the declared payload so the stream stays in sync, then
        // answer with an error frame.
        let mut remaining = len;
        let mut sink = [0u8; 4096];
        while remaining > 0 {
            let want = remaining.min(sink.len());
            match read_full(stream, &mut sink[..want], deadline, stop) {
                Ok(()) => remaining -= want,
                Err(Fault::Eof { .. }) => return Request::Torn("truncated oversized frame".into()),
                Err(Fault::Idle) => return Request::Idle,
                Err(Fault::Shutdown) => return Request::Shutdown,
                Err(Fault::Io(e)) => return Request::Io(e),
            }
        }
        return Request::Malformed(format!(
            "frame length {len} exceeds the {}-byte limit",
            config.max_frame_bytes
        ));
    }
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload, deadline, stop) {
        Ok(()) => {}
        Err(Fault::Eof { got }) => {
            return Request::Torn(format!("truncated frame payload ({got} of {len} bytes)"))
        }
        Err(Fault::Idle) => return Request::Idle,
        Err(Fault::Shutdown) => return Request::Shutdown,
        Err(Fault::Io(e)) => return Request::Io(e),
    }
    match String::from_utf8(payload) {
        Ok(line) => Request::Line(line),
        Err(_) => Request::Malformed("frame payload is not valid UTF-8".into()),
    }
}

/// Send one response frame; a failed write means the client went away,
/// which degrades this connection only.
fn send(stream: &TcpStream, id: u64, text: &str) -> bool {
    match frame::write_frame(&mut { stream }, text) {
        Ok(()) => true,
        Err(e) => {
            warn_limited("net.conn", &format!("conn.{id}: write failed: {e}"));
            false
        }
    }
}

/// Serve one connection to completion.
fn serve_connection(
    stream: &TcpStream,
    id: u64,
    mut handler: Box<dyn Handler>,
    config: &ServerConfig,
    stop: &ShutdownHandle,
) {
    if let Err(e) = stream.set_read_timeout(Some(READ_POLL)) {
        warn_limited(
            "net.conn",
            &format!("conn.{id}: cannot set read timeout: {e}"),
        );
        return;
    }
    stream.set_nodelay(true).ok();
    let _span = clio_obs::span(conn_span_name(id));
    connection_loop(stream, id, handler.as_mut(), config, stop);
}

fn connection_loop(
    stream: &TcpStream,
    id: u64,
    handler: &mut dyn Handler,
    config: &ServerConfig,
    stop: &ShutdownHandle,
) {
    loop {
        match read_request(stream, config, stop) {
            Request::Line(line) => {
                metrics::incr(Counter::NetFrames);
                if line.trim() == "shutdown" {
                    // Protocol-level: stop the whole server. Other
                    // connections drain their in-flight requests.
                    send(stream, id, "shutting down\n");
                    stop.shutdown();
                    return;
                }
                let timer = hist::start();
                // A panicking request costs its connection, not the
                // server: the handler may be mid-update, so answer and
                // close rather than serve it again.
                let Ok(response) = panic::catch_unwind(AssertUnwindSafe(|| handler.handle(&line)))
                else {
                    metrics::incr(Counter::NetHandlerPanics);
                    warn_limited("net.conn", &format!("conn.{id}: handler panicked, closing"));
                    send(stream, id, "error: internal error, closing connection\n");
                    return;
                };
                hist::finish(response.hist, timer);
                if !send(stream, id, &response.text) || response.quit {
                    return;
                }
            }
            Request::Malformed(msg) => {
                metrics::incr(Counter::NetFrameErrors);
                warn_limited("net.frame", &format!("conn.{id}: {msg}"));
                if !send(stream, id, &format!("error: {msg}\n")) {
                    return;
                }
            }
            Request::Torn(msg) => {
                metrics::incr(Counter::NetFrameErrors);
                warn_limited("net.frame", &format!("conn.{id}: {msg}, closing"));
                send(stream, id, &format!("error: {msg}\n"));
                return;
            }
            Request::Idle => {
                metrics::incr(Counter::NetTimeouts);
                warn_limited("net.conn", &format!("conn.{id}: idle timeout, closing"));
                send(stream, id, "error: idle timeout, closing connection\n");
                return;
            }
            Request::Eof | Request::Shutdown => return,
            Request::Io(e) => {
                warn_limited("net.conn", &format!("conn.{id}: read failed: {e}"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    struct Echo;
    impl Handler for Echo {
        fn handle(&mut self, line: &str) -> Response {
            Response {
                text: format!("echo: {line}\n"),
                hist: "net.request.test",
                quit: line == "quit",
            }
        }
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            max_conns: 4,
            idle_timeout: Duration::from_secs(5),
            max_frame_bytes: 64,
        }
    }

    #[test]
    fn serves_requests_and_drains_on_shutdown() {
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut c = Client::connect(addr).unwrap();
            assert_eq!(c.request("hi").unwrap().as_deref(), Some("echo: hi\n"));
            assert_eq!(
                c.request("there").unwrap().as_deref(),
                Some("echo: there\n")
            );
            // quit closes only this connection; the server keeps serving.
            assert_eq!(c.request("quit").unwrap().as_deref(), Some("echo: quit\n"));
            let mut c2 = Client::connect(addr).unwrap();
            assert_eq!(
                c2.request("again").unwrap().as_deref(),
                Some("echo: again\n")
            );
            handle.shutdown();
            run.join().unwrap().unwrap();
        });
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut c = Client::connect(addr).unwrap();
            assert_eq!(
                c.request("shutdown").unwrap().as_deref(),
                Some("shutting down\n")
            );
            run.join().unwrap().unwrap();
        });
    }

    #[test]
    fn malformed_frames_get_error_frames_and_the_connection_survives() {
        use std::io::Write;
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            // A garbage byte is answered per byte.
            raw.write_all(&[0xab]).unwrap();
            let err = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(err, "error: unsupported protocol version 0xab\n");
            // An oversized declared frame is drained and answered.
            raw.write_all(&[frame::PROTOCOL_VERSION]).unwrap();
            raw.write_all(&100u32.to_be_bytes()).unwrap();
            raw.write_all(&[b'x'; 100]).unwrap();
            let err = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(err, "error: frame length 100 exceeds the 64-byte limit\n");
            // The same connection still serves well-formed frames.
            frame::write_frame(&mut raw, "ok").unwrap();
            let resp = frame::read_frame(&mut raw, frame::MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(resp, "echo: ok\n");
            handle.shutdown();
            run.join().unwrap().unwrap();
        });
    }

    /// Panics on the line `boom`, echoes everything else.
    struct Fragile;
    impl Handler for Fragile {
        fn handle(&mut self, line: &str) -> Response {
            assert_ne!(line, "boom", "handler bug");
            Echo.handle(line)
        }
    }

    #[test]
    fn a_panicking_request_costs_only_its_connection() {
        let config = ServerConfig {
            max_conns: 1,
            ..test_config()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Fragile) as Box<dyn Handler>));
            // observe everything before shutting down, so a server that
            // leaks the slot fails the assertions instead of hanging
            let mut c = Client::connect(addr).unwrap();
            let hi = c.request("hi").unwrap();
            let boom = c.request("boom").ok().flatten();
            let after = c.read_response().ok().flatten();
            // the one slot must be free again for a second client
            let mut c2 = std::net::TcpStream::connect(addr).unwrap();
            c2.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            frame::write_frame(&mut c2, "again").unwrap();
            let again = frame::read_frame(&mut c2, frame::MAX_FRAME_BYTES)
                .ok()
                .flatten();
            handle.shutdown();
            let ran = run.join();
            assert_eq!(hi.as_deref(), Some("echo: hi\n"));
            assert_eq!(
                boom.as_deref(),
                Some("error: internal error, closing connection\n")
            );
            assert_eq!(after, None, "connection closed");
            assert_eq!(again.as_deref(), Some("echo: again\n"));
            assert!(matches!(ran, Ok(Ok(()))), "run returns Ok after a panic");
        });
    }

    #[test]
    fn idle_timeout_closes_the_connection() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..test_config()
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut c = Client::connect(addr).unwrap();
            // Send nothing: the server times the connection out.
            let msg = c.read_response().unwrap().unwrap();
            assert_eq!(msg, "error: idle timeout, closing connection\n");
            assert_eq!(c.read_response().unwrap(), None, "connection closed");
            handle.shutdown();
            run.join().unwrap().unwrap();
        });
    }
}
