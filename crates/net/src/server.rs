//! Thread-per-connection framed TCP server.
//!
//! [`Server::run`] accepts connections on a nonblocking listener and
//! spawns one scoped thread per connection, capped at
//! [`ServerConfig::max_conns`] (at the cap it waits for a connection to
//! close, and excess connections wait in the OS accept backlog —
//! backpressure, not rejection). Each connection gets a fresh
//! [`Handler`] from the caller's factory, a `conn.<n>` obs scope
//! recorder so each connection's counters, spans and histograms
//! are its own, one buffered reader over its socket, and a per-request
//! idle deadline. Requests are answered in the order they arrive, so a
//! client may pipeline them. Malformed frames are answered with a
//! one-line `error: ...` frame and the connection continues (truncated
//! frames close it — the stream can no longer be trusted); idle
//! timeouts close the connection after an error frame, and so does a
//! request whose handler panics (`net.handler_panics`). A client
//! sending the `shutdown` command stops the whole server: the listener
//! stops accepting, in-flight requests finish, and `run` returns once
//! every connection thread has drained.
//!
//! All error paths report through `clio_obs::warn_limited` under
//! `net.*` categories, so a flapping client cannot flood stderr.

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use clio_obs::metrics::{self, Counter};
use clio_obs::{hist, warn_limited, Recorder};

use crate::frame::{self, Fault};

/// How often the accept loop polls the nonblocking listener (and the
/// shutdown flag) when no connection is waiting.
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

/// Every update of the guarded connection count is one statement, so
/// a lock poisoned by a panicking thread still holds a valid count.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cloneable stop signal for a running server. Trigger it from another
/// thread (or let a client's `shutdown` command trigger it) and
/// [`Server::run`] drains and returns.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle(Arc<Gate>);

/// What the accept loop waits on: the stop flag, and the count of
/// connections being served.
#[derive(Debug, Default)]
struct Gate {
    stop: AtomicBool,
    active: Mutex<usize>,
    /// Signalled when a connection frees its slot and on shutdown.
    changed: Condvar,
}

impl ShutdownHandle {
    /// Ask the server to stop accepting and drain.
    pub fn shutdown(&self) {
        let gate = &*self.0;
        gate.stop.store(true, Ordering::Relaxed);
        // Taking the lock orders the flag before the accept loop's next
        // look at it, so a wait for a slot cannot miss the signal.
        drop(lock(&gate.active));
        gate.changed.notify_all();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.0.stop.load(Ordering::Relaxed)
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
        let gate = &*self.stop.0;
        let max_conns = self.config.max_conns.max(1);
        std::thread::scope(|scope| {
            let mut next_id: u64 = 0;
            loop {
                let mut active = lock(&gate.active);
                while *active >= max_conns && !self.stop.is_shutdown() {
                    active = gate
                        .changed
                        .wait(active)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                drop(active);
                if self.stop.is_shutdown() {
                    break;
                }
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) => {
                        if e.kind() != io::ErrorKind::WouldBlock {
                            warn_limited("net.accept", &format!("accept failed: {e}"));
                        }
                        std::thread::sleep(ACCEPT_POLL);
                        continue;
                    }
                };
                let id = next_id;
                next_id += 1;
                metrics::incr(Counter::NetAccepted);
                metrics::incr(Counter::NetActive);
                *lock(&gate.active) += 1;
                let handler = factory(id);
                // Opened here, in accept order: the order the report
                // lists connections in.
                let recorder = Recorder::scope(&format!("conn.{id}"));
                let (config, stop) = (&self.config, &self.stop);
                scope.spawn(move || {
                    let _slot = Slot(gate);
                    recorder.run(|| serve_connection(&stream, id, handler, config, stop));
                });
            }
        });
        Ok(())
    }
}

/// A connection's place under [`ServerConfig::max_conns`], released
/// however its thread ends.
struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        metrics::sub(Counter::NetActive, 1);
        *lock(&self.0.active) -= 1;
        self.0.changed.notify_all();
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

/// A connection's socket as the frame decoder reads it. The socket's
/// read timeout ([`READ_POLL`]) wakes a blocked read to look at the
/// current request's idle deadline and the server's stop flag: past
/// the deadline the read fails with `TimedOut`, after a shutdown with
/// `Other`.
struct ConnReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    stop: &'a ShutdownHandle,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.stop.is_shutdown() {
                        return Err(io::Error::other("server shutting down"));
                    }
                    if Instant::now() >= self.deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                }
                result => return result,
            }
        }
    }
}

/// A read that [`ConnReader`] gave up on, or a transport failure.
fn read_failed(e: io::Error, stop: &ShutdownHandle) -> Request {
    if e.kind() == io::ErrorKind::TimedOut {
        Request::Idle
    } else if stop.is_shutdown() {
        Request::Shutdown
    } else {
        Request::Io(e)
    }
}

/// Decode one request frame. The whole frame must arrive before the
/// reader's deadline; a partial prefix when it passes is a torn frame.
fn read_request(
    reader: &mut BufReader<ConnReader<'_>>,
    config: &ServerConfig,
    stop: &ShutdownHandle,
) -> Request {
    match frame::decode(reader, config.max_frame_bytes) {
        Ok(Some(line)) => Request::Line(line),
        Ok(None) => Request::Eof,
        Err(fault @ Fault::Oversized { len, .. }) => {
            // Drain the declared payload so the stream stays in sync,
            // then answer with an error frame.
            let len = len as u64;
            match io::copy(&mut reader.take(len), &mut io::sink()) {
                Ok(n) if n == len => Request::Malformed(fault.to_string()),
                Ok(_) => Request::Torn("truncated oversized frame".into()),
                Err(e) => read_failed(e, stop),
            }
        }
        // A bad version byte is answered per byte: decoding resumes at
        // the next one, so a client that sent garbage sees exactly what
        // went wrong.
        Err(fault @ (Fault::Version(_) | Fault::NotUtf8)) => Request::Malformed(fault.to_string()),
        Err(Fault::Torn(msg)) => Request::Torn(msg),
        Err(Fault::Io(e)) => read_failed(e, stop),
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
    let mut reader = BufReader::new(ConnReader {
        stream,
        deadline: Instant::now() + config.idle_timeout,
        stop,
    });
    connection_loop(&mut reader, stream, id, handler.as_mut(), config, stop);
}

/// Answer requests until the connection ends. Each request's idle
/// window opens when the previous response has been sent.
fn connection_loop(
    reader: &mut BufReader<ConnReader<'_>>,
    stream: &TcpStream,
    id: u64,
    handler: &mut dyn Handler,
    config: &ServerConfig,
    stop: &ShutdownHandle,
) {
    loop {
        match read_request(reader, config, stop) {
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
        reader.get_mut().deadline = Instant::now() + config.idle_timeout;
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

    #[test]
    fn a_trickled_request_is_answered_once() {
        use std::io::Write;
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            raw.set_nodelay(true).unwrap();
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, "slow").unwrap();
            for byte in &wire {
                raw.write_all(std::slice::from_ref(byte)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            // The next request's answer comes next: the trickled one was
            // answered once, not once per read.
            frame::write_frame(&mut raw, "next").unwrap();
            let mut reader = io::BufReader::new(&raw);
            let first = frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES);
            let second = frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES);
            handle.shutdown();
            run.join().unwrap().unwrap();
            assert_eq!(first.unwrap().as_deref(), Some("echo: slow\n"));
            assert_eq!(second.unwrap().as_deref(), Some("echo: next\n"));
        });
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        use std::io::Write;
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let run = s.spawn(|| server.run(|_| Box::new(Echo) as Box<dyn Handler>));
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, "one").unwrap();
            frame::write_frame(&mut wire, "two").unwrap();
            raw.write_all(&wire).unwrap();
            let mut reader = io::BufReader::new(&raw);
            let first = frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES);
            let second = frame::read_frame(&mut reader, frame::MAX_FRAME_BYTES);
            handle.shutdown();
            run.join().unwrap().unwrap();
            assert_eq!(first.unwrap().as_deref(), Some("echo: one\n"));
            assert_eq!(second.unwrap().as_deref(), Some("echo: two\n"));
        });
    }

    #[test]
    fn shutdown_stops_a_server_that_never_got_a_connection() {
        let server = Server::bind("127.0.0.1:0", test_config()).unwrap();
        let handle = server.shutdown_handle();
        let (done, ran) = std::sync::mpsc::channel();
        // Not scoped: a server that never wakes fails the test instead
        // of hanging it.
        std::thread::spawn(move || {
            let ran = server.run(|_| Box::new(Echo) as Box<dyn Handler>);
            done.send(ran.is_ok()).unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        assert_eq!(ran.recv_timeout(Duration::from_secs(5)), Ok(true));
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
