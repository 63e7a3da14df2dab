//! The `serve` and `connect` front-ends: bridging `clio-net`'s framed
//! TCP protocol onto the local [`Shell`].
//!
//! `serve` builds one [`SessionPool`] — one `Arc`-shared
//! `Database`/`ValueIndex` snapshot and one shared `CacheStore` — and
//! hands every accepted connection a private copy-on-write session
//! wrapped in a [`ShellHandler`]. `connect` replays `--script` (or
//! stdin) lines against a remote server, echoing `clio> <line>` before
//! each response so its output is byte-identical to a local `--script`
//! run of the same commands. See docs/service.md.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use clio_core::session_pool::SessionPool;
use clio_incr::{CacheStore, MemStore};
use clio_net::{Client, Handler, Response, Server, ServerConfig};
use clio_relational::database::Database;
use clio_relational::schema::RelSchema;

use crate::command::{self, Command};
use crate::config::CliConfig;
use crate::engine::{Outcome, Shell};

/// Idle timeout (milliseconds) when neither `--idle-ms` nor
/// `CLIO_IDLE_MS` is given.
pub const DEFAULT_IDLE_MS: u64 = 30_000;

/// The `net.request.*` histogram for one request line, keyed by the
/// parsed command kind (`net.request.invalid` for unparseable lines).
/// Histogram names must be `'static`, hence the explicit table.
#[must_use]
pub fn request_hist_name(line: &str) -> &'static str {
    let Ok(cmd) = command::parse(line) else {
        return "net.request.invalid";
    };
    match cmd.kind() {
        "noop" => "net.request.noop",
        "quit" => "net.request.quit",
        "help" => "net.request.help",
        "source" => "net.request.source",
        "show" => "net.request.show",
        "target" => "net.request.target",
        "corr" => "net.request.corr",
        "walk" => "net.request.walk",
        "chase" => "net.request.chase",
        "workspaces" => "net.request.workspaces",
        "activate" => "net.request.activate",
        "confirm" => "net.request.confirm",
        "delete" => "net.request.delete",
        "accept" => "net.request.accept",
        "illustration" => "net.request.illustration",
        "induced" => "net.request.induced",
        "alternatives" => "net.request.alternatives",
        "swap" => "net.request.swap",
        "examples" => "net.request.examples",
        "mapping" => "net.request.mapping",
        "sql" => "net.request.sql",
        "filter" => "net.request.filter",
        "require" => "net.request.require",
        "status" => "net.request.status",
        "stats" => "net.request.stats",
        "trace" => "net.request.trace",
        "cache" => "net.request.cache",
        "db" => "net.request.db",
        "profile" => "net.request.profile",
        "mine" => "net.request.mine",
        "verify" => "net.request.verify",
        "contributions" => "net.request.contributions",
        "save" => "net.request.save",
        "load" => "net.request.load",
        "map" => "net.request.map",
        "explain" => "net.request.explain",
        _ => "net.request.other",
    }
}

/// Adapts one connection's [`Shell`] to the wire: parse for the
/// histogram key, dispatch through the existing engine, map `quit` to a
/// connection close.
pub struct ShellHandler {
    shell: Shell,
}

impl ShellHandler {
    /// Wrap a shell (one connection's private session).
    #[must_use]
    pub fn new(shell: Shell) -> ShellHandler {
        ShellHandler { shell }
    }
}

impl Handler for ShellHandler {
    fn handle(&mut self, line: &str) -> Response {
        let hist = request_hist_name(line);
        match self.shell.execute(line) {
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
}

/// Run `clio serve`: build the shared pool, bind, announce
/// `listening on <addr>` on stdout, and serve until a client sends
/// `shutdown`. Without `--cache-dir` the connections still share one
/// in-memory [`MemStore`], so one client's spilled work warms the next.
///
/// # Errors
///
/// Bind/listen failures (the caller reports and exits 2).
pub fn run_server(
    cfg: &CliConfig,
    db: Database,
    target: RelSchema,
    store: Option<Arc<dyn CacheStore>>,
) -> std::io::Result<()> {
    let store = store.unwrap_or_else(|| Arc::new(MemStore::new()) as Arc<dyn CacheStore>);
    let mut pool = SessionPool::new(db, target).with_store(store);
    pool.set_cache_enabled(!cfg.no_cache);
    let config = ServerConfig {
        max_conns: cfg.max_conns.unwrap_or_else(clio_relational::exec::threads),
        idle_timeout: Duration::from_millis(cfg.idle_ms.unwrap_or(DEFAULT_IDLE_MS)),
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", cfg.port.unwrap_or(0)), config)?;
    println!("listening on {}", server.local_addr()?);
    std::io::stdout().flush().ok();
    server.run(|_conn| Box::new(ShellHandler::new(Shell::new(pool.session()))) as Box<dyn Handler>)
}

/// Run `clio connect <addr>`: replay `--script` (or stdin) lines
/// against a remote server. Every line is echoed as `clio> <line>`
/// before its response — including from stdin, so piped input produces
/// the same bytes as `--script`. Stops at `quit` (like the local script
/// loop, without echoing later lines) or when the server closes the
/// connection.
pub fn run_client(addr: &str, script: Option<&str>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to `{addr}`: {e}");
            std::process::exit(2);
        }
    };
    let stdin;
    let file;
    let reader: Box<dyn BufRead> = match script {
        Some(path) => {
            file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open `{path}`: {e}");
                    std::process::exit(2);
                }
            };
            Box::new(std::io::BufReader::new(file))
        }
        None => {
            stdin = std::io::stdin();
            Box::new(stdin.lock())
        }
    };
    for line in reader.lines() {
        let Ok(line) = line else { break };
        println!("clio> {line}");
        match client.request(&line) {
            Ok(Some(text)) => print!("{text}"),
            Ok(None) => break,
            Err(e) => {
                eprintln!("clio: connection to `{addr}` lost: {e}");
                std::process::exit(1);
            }
        }
        if matches!(command::parse(&line), Ok(Command::Quit)) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_names_follow_the_command_kind() {
        assert_eq!(
            request_hist_name("corr Children.ID -> ID"),
            "net.request.corr"
        );
        assert_eq!(request_hist_name("stats chase"), "net.request.stats");
        assert_eq!(request_hist_name("db save /tmp/x"), "net.request.db");
        assert_eq!(request_hist_name("map show"), "net.request.map");
        assert_eq!(request_hist_name("explain"), "net.request.explain");
        assert_eq!(request_hist_name("profile spans 3"), "net.request.profile");
        assert_eq!(request_hist_name(""), "net.request.noop");
        assert_eq!(request_hist_name("# comment"), "net.request.noop");
        assert_eq!(request_hist_name("wat"), "net.request.invalid");
        assert_eq!(request_hist_name("quit"), "net.request.quit");
    }
}
