//! An in-process `clio-net` server over a `SessionPool`, driven by one
//! blocking client. Untraced connections get the program's own
//! `ShellHandler`; traced connections get [`TracedHandler`], which
//! replays `ShellHandler::handle` as its public calls (parse, then
//! `Shell::execute`) under spans.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clio_cli::engine::{Outcome, Shell};
use clio_cli::serve::{request_hist_name, ShellHandler};
use clio_core::session_pool::SessionPool;
use clio_incr::CacheStats;
use clio_net::{Client, Handler, Response, Server, ServerConfig, ShutdownHandle};

use crate::trace::Tracer;
use crate::Samples;

/// State the client thread shares with the server's connection thread.
#[derive(Default)]
struct Shared {
    /// Hand the next accepted connection a traced handler.
    traced: AtomicBool,
    /// Op id and client-side span id of the request in flight.
    op: AtomicU64,
    parent: AtomicU64,
    /// Server-side spans, merged into the run's log at the end.
    spans: Tracer,
    /// The traced connection's session cache statistics after its
    /// latest request (each connection has a fresh session).
    cache: Mutex<CacheStats>,
}

struct TracedHandler {
    shell: Shell,
    shared: Arc<Shared>,
}

/// `ShellHandler::handle`'s answer for an executed line.
fn respond(hist: &'static str, outcome: Outcome) -> Response {
    match outcome {
        Outcome::Continue(text) => Response {
            text,
            hist,
            quit: false,
        },
        Outcome::Quit => Response {
            text: String::new(),
            hist,
            quit: true,
        },
    }
}

impl Handler for TracedHandler {
    fn handle(&mut self, line: &str) -> Response {
        let sh = &self.shared;
        let (op, parent) = (
            sh.op.load(Ordering::SeqCst),
            sh.parent.load(Ordering::SeqCst),
        );
        if op == 0 {
            // the untimed connection handshake
            return respond(request_hist_name(line), self.shell.execute(line));
        }
        let response = sh.spans.span(op, parent, "net.handler", |h| {
            let hist = sh
                .spans
                .span(op, h, "cli.parse", |_| request_hist_name(line));
            let name = match hist {
                "net.request.walk" => "core.walk",
                "net.request.chase" => "core.chase",
                _ => "cli.execute",
            };
            let outcome = sh.spans.span(op, h, name, |_| self.shell.execute(line));
            respond(hist, outcome)
        });
        *sh.cache.lock().expect("cache stats lock") = self.shell.session.cache().stats();
        response
    }
}

/// A running in-process server; stopped and joined on drop.
pub struct Served {
    addr: SocketAddr,
    stop: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    shared: Arc<Shared>,
    /// The next pass's connection, opened early so the server's accept
    /// poll has picked it up by the time the pass starts; `true` when it
    /// was opened for a traced pass.
    pending: Mutex<Option<(bool, Client)>>,
}

impl Served {
    pub fn start(pool: SessionPool) -> Served {
        let config = ServerConfig {
            // the next pass's connection opens while the current one runs
            max_conns: 4,
            idle_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let server = Server::bind(("127.0.0.1", 0), config).expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address");
        let stop = server.shutdown_handle();
        // Queued before the accept loop starts, so the first pass never
        // waits out an accept-poll sleep.
        let first = Client::connect(addr).expect("connect to the in-process server");
        let shared = Arc::new(Shared::default());
        let sh = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            server.run(move |_conn| {
                let shell = Shell::new(pool.session());
                if sh.traced.load(Ordering::SeqCst) {
                    Box::new(TracedHandler {
                        shell,
                        shared: Arc::clone(&sh),
                    }) as Box<dyn Handler>
                } else {
                    Box::new(ShellHandler::new(shell))
                }
            })
        });
        Served {
            addr,
            stop,
            thread: Some(thread),
            shared,
            pending: Mutex::new(Some((false, first))),
        }
    }

    /// One pass: a fresh connection replays `script`; every request is
    /// one op. A response must equal `want` and must not be an error.
    /// Output checks run after the pass's clock stops.
    pub fn pass(&self, script: &[String], want: &[String], s: &mut Samples) {
        self.run_pass(false, script, want, s, |_, client, line| {
            client.request(line)
        });
    }

    /// [`Served::pass`] with every request under a `net.request` span;
    /// the server side opens its spans beneath it.
    pub fn traced_pass(
        &self,
        script: &[String],
        want: &[String],
        s: &mut Samples,
        tr: &Tracer,
        op: &mut u64,
    ) {
        self.run_pass(true, script, want, s, |sh, client, line| {
            *op += 1;
            tr.span(*op, 0, "net.request", |id| {
                sh.op.store(*op, Ordering::SeqCst);
                sh.parent.store(id, Ordering::SeqCst);
                client.request(line)
            })
        });
    }

    /// The connection handshake is not an op and is not timed: the
    /// server's accept loop polls every 5 ms, so a connect's wait depends
    /// on the previous pass's length modulo that period. The pass takes
    /// the connection opened during the previous pass of the same mode
    /// (or opens one), opens the next one, and completes the accept with
    /// an empty (no-op) request before its clock starts.
    fn run_pass(
        &self,
        traced: bool,
        script: &[String],
        want: &[String],
        s: &mut Samples,
        mut request: impl FnMut(&Shared, &mut Client, &str) -> std::io::Result<Option<String>>,
    ) {
        self.shared.traced.store(traced, Ordering::SeqCst);
        let connect = || Client::connect(self.addr).expect("connect to the in-process server");
        let mut pending = self.pending.lock().expect("pending connection lock");
        let mut client = match pending.take() {
            Some((mode, c)) if mode == traced => c,
            _ => connect(),
        };
        *pending = Some((traced, connect()));
        drop(pending);
        self.shared.op.store(0, Ordering::SeqCst);
        let hello = client.request("");
        assert!(
            matches!(&hello, Ok(Some(text)) if text.is_empty()),
            "no-op handshake failed: {hello:?}"
        );
        let mut got = Vec::with_capacity(script.len());
        for line in script {
            let t0 = Instant::now();
            let response = request(&self.shared, &mut client, line);
            let latency = t0.elapsed();
            s.busy += latency;
            got.push((latency, response));
        }
        drop(client);
        for ((latency, response), want) in got.into_iter().zip(want) {
            let ok =
                matches!(&response, Ok(Some(text)) if text == want && !text.starts_with("error:"));
            s.record(latency, ok);
        }
    }

    /// Cache statistics of the latest traced connection's session.
    pub fn last_cache_stats(&self) -> CacheStats {
        *self.shared.cache.lock().expect("cache stats lock")
    }

    /// Move the server-side spans into `tr`.
    pub fn drain_spans(&self, tr: &Tracer) {
        tr.absorb(&self.shared.spans);
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("perfbench: server stopped with an error: {e}"),
                Err(_) => eprintln!("perfbench: server thread panicked"),
            }
        }
    }
}

/// Control probe: `passes` traced passes of `script` against a fresh
/// server over `pool` — the wire, parse, execute, walk and chase layers timed on a workload whose own op does not use them.
pub fn probe(pool: SessionPool, script: &[String], passes: usize, tr: &Tracer, op: &mut u64) {
    let mut reference = Shell::new(pool.session());
    let served = Served::start(pool);
    let mut want = Vec::new();
    for line in script {
        match reference.execute(line) {
            Outcome::Continue(text) => {
                assert!(
                    !text.starts_with("error:"),
                    "probe line `{line}` failed: {text}"
                );
                want.push(text);
            }
            Outcome::Quit => want.push(String::new()),
        }
    }
    let mut s = Samples::default();
    for _ in 0..passes {
        served.traced_pass(script, &want, &mut s, tr, op);
    }
    assert_eq!(
        s.failed, 0,
        "control probe responses differ from the local replay"
    );
    served.drain_spans(tr);
}
