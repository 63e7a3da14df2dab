//! `clio` — an interactive mapping-refinement shell over the Clio
//! reproduction.
//!
//! ```sh
//! cargo run -p clio-cli                       # paper dataset, interactive
//! cargo run -p clio-cli -- --script cmds.txt  # run a command script
//! cargo run -p clio-cli -- --synthetic chain,4,100
//! cargo run -p clio-cli -- --source data/ --target "T (id str not null, x str)"
//! cargo run -p clio-cli -- --script cmds.txt --metrics out.json --trace
//! cargo run -p clio-cli -- --sessions 4 a.clio b.clio c.clio d.clio
//! cargo run -p clio-cli -- --script cmds.txt --cache-dir .clio-cache
//! ```

use std::io::{BufRead, Write};
use std::sync::Arc;

use clio_cli::config::{CliConfig, Mode, DEFAULT_DB_POOL};
use clio_cli::engine::{read_target_file, Outcome, Shell, TARGET_FILE};
use clio_core::session::Session;
use clio_core::session_pool::SessionPool;
use clio_datagen::paper::{kids_target, paper_database};
use clio_datagen::synthetic::{generate, SyntheticSpec};
use clio_incr::CacheStore;
use clio_relational::database::Database;
use clio_relational::schema::RelSchema;

/// Generate a synthetic source from a validated spec, re-declaring the
/// generated edges as foreign keys so walks are possible.
fn synthetic_source(spec: SyntheticSpec) -> (Database, RelSchema) {
    let w = generate(&spec);
    let mut db = w.db;
    db.constraints = clio_relational::constraints::Constraints::none();
    for s in w.knowledge.specs() {
        db.constraints
            .foreign_keys
            .push(clio_relational::constraints::ForeignKey {
                from_relation: s.rel_a.clone(),
                from_attrs: s.attr_pairs.iter().map(|(a, _)| a.clone()).collect(),
                to_relation: s.rel_b.clone(),
                to_attrs: s.attr_pairs.iter().map(|(_, b)| b.clone()).collect(),
            });
    }
    (db, w.target)
}

/// Execute script files as concurrent sessions over one shared source
/// snapshot, printing each session's output (in input order) framed by a
/// `=== session <i>: <path> ===` header. Each session's body is
/// byte-identical to what `--script <path>` would print for the same
/// source: scripts are read upfront (first unreadable file by input
/// order exits 2), sessions run on the pool, and outputs are buffered
/// per session and merged deterministically.
fn run_batch(
    db: Database,
    target: RelSchema,
    scripts: &[String],
    width: usize,
    no_cache: bool,
    store: Option<Arc<dyn CacheStore>>,
) {
    let mut bodies: Vec<String> = Vec::new();
    for path in scripts {
        match std::fs::read_to_string(path) {
            Ok(text) => bodies.push(text),
            Err(e) => {
                eprintln!("cannot open `{path}`: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut pool = SessionPool::new(db, target).with_width(width);
    if let Some(store) = store {
        pool = pool.with_store(store);
    }
    pool.set_cache_enabled(!no_cache);
    let outputs = pool.run(bodies.len(), |i, session| {
        let mut shell = Shell::new(session);
        let mut out = String::new();
        for line in bodies[i].lines() {
            out.push_str("clio> ");
            out.push_str(line);
            out.push('\n');
            match shell.execute(line) {
                Outcome::Continue(text) => out.push_str(&text),
                Outcome::Quit => break,
            }
        }
        out
    });
    for (i, (path, text)) in scripts.iter().zip(&outputs).enumerate() {
        println!("=== session {i}: {path} ===");
        print!("{text}");
    }
}

/// Parse a `--target` value, exiting 2 on a malformed one.
fn parse_target_flag(spec: &str) -> RelSchema {
    clio_lang::parse_target_schema(spec).unwrap_or_else(|e| {
        eprintln!("bad --target: {e}");
        std::process::exit(2);
    })
}

/// Usage text printed by `--help` (flags first, then the shell commands).
fn usage() -> String {
    format!(
        "\
clio — interactive mapping-refinement shell (Clio, SIGMOD 2001)

usage: clio-shell [flags] [script.clio ...]
       clio-shell serve [flags]
       clio-shell connect <addr> [--script <file>]

Positional arguments are script files executed as independent sessions
over one shared source snapshot (batch mode); outputs are printed in
input order, each framed by a `=== session <i>: <path> ===` header.

`serve` listens for framed TCP clients on 127.0.0.1 and runs every
connection as a private session over one shared snapshot and cache
store; `connect` replays --script (or stdin) lines against a running
server, printing byte-identical output to a local --script run (see
docs/service.md). A client sending `shutdown` stops the server.

flags:
  --script <file>        run commands from a script instead of stdin
  --sessions <n>         batch mode: run the positional scripts up to
                         <n> at a time as concurrent sessions (default
                         1; requires script arguments, conflicts with
                         --script)
  --source <dir>         load a source database from CSV files (needs --target)
  --target <schema>      target schema, e.g. \"Kids (ID str not null, name str)\"
  --synthetic <spec>     generate a source: <topology>,<relations>,<rows>
                         (topology: chain | star | cycle | tree)
  --mapping <file>       load a MAP-language statement (see docs/planner.md)
                         as the initial workspace before reading commands
                         (single-session local mode only)
  --db-dir <dir>         open a paged source database written by `db save`
                         (relations stream through a buffer pool instead of
                         loading upfront; see docs/storage.md); the target
                         comes from --target or the directory's _target.txt
  --db-pool <pages>      buffer-pool page budget for --db-dir (default 64)
  --metrics <file>       collect work counters; write a JSON report on exit
                         (`-` writes the report to stdout after the shell
                         output)
  --trace                collect spans; print the span tree on exit
  --trace-filter <name>  like --trace, but only print subtrees whose span
                         name contains <name> (e.g. fd.lattice)
  --trace-out <file>     collect spans; export completed spans as Chrome
                         trace-event JSONL (load in chrome://tracing or
                         Perfetto; see docs/observability.md, Timing)
  --slow-ms <n>          collect spans; warn on stderr whenever a span
                         takes at least <n> milliseconds (environment
                         fallback: CLIO_SLOW_MS)
  --threads <n>          worker threads for parallel evaluation
                         (default: CLIO_THREADS or the hardware)
  --no-cache             disable the incremental evaluation cache; every
                         operator recomputes from scratch (see
                         docs/incremental.md)
  --cache-dir <path>     persist eligible cache entries under <path> and
                         serve misses from it across runs (see
                         docs/incremental.md, Persistence)
  --port <n>             serve: TCP port to listen on (default 0 = an
                         ephemeral port, announced as `listening on
                         <addr>`; fallback: CLIO_PORT)
  --max-conns <n>        serve: concurrent-connection cap; excess
                         connections wait in the accept backlog
                         (default: the --threads width; fallback:
                         CLIO_MAX_CONNS)
  --idle-ms <n>          serve: close a connection when no request
                         arrives within <n> milliseconds (default
                         30000; fallback: CLIO_IDLE_MS)
  --help, -h             show this help

{}",
        clio_cli::command::help_text()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = match CliConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if cfg.help {
        print!("{}", usage());
        return;
    }

    // Mode strictness: the networking knobs belong to `serve`, and the
    // local batch/script machinery has no meaning on a socket.
    if cfg.mode != Mode::Serve {
        for (given, flag) in [
            (cfg.port.is_some(), "--port"),
            (cfg.max_conns.is_some(), "--max-conns"),
            (cfg.idle_ms.is_some(), "--idle-ms"),
        ] {
            if given {
                eprintln!("{flag} requires serve mode (see --help)");
                std::process::exit(2);
            }
        }
    }
    if cfg.mode != Mode::Local {
        let mode_word = if cfg.mode == Mode::Serve {
            "serve"
        } else {
            "connect"
        };
        if cfg.mapping_file.is_some() {
            eprintln!("--mapping requires local mode (use `load` over the wire; see --help)");
            std::process::exit(2);
        }
        if !cfg.batch_scripts.is_empty() {
            eprintln!("{mode_word} mode takes no positional script arguments (see --help)");
            std::process::exit(2);
        }
        if cfg.sessions_width.is_some() {
            eprintln!("--sessions conflicts with {mode_word} mode (see --help)");
            std::process::exit(2);
        }
    }
    if cfg.mode == Mode::Serve {
        if cfg.script.is_some() {
            eprintln!("--script conflicts with serve mode (see --help)");
            std::process::exit(2);
        }
        if let Err(e) = cfg.apply_net_env(|key| std::env::var(key).ok()) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }

    if let Some(n) = cfg.threads {
        clio_relational::exec::set_threads(n);
    }
    if cfg.metrics_path.is_some() {
        clio_obs::set_metrics_enabled(true);
    }
    let slow_ms = cfg.slow_ms.or_else(|| {
        std::env::var("CLIO_SLOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|n| *n > 0)
    });
    if let Some(ms) = slow_ms {
        clio_obs::set_slow_threshold_ns(ms.saturating_mul(1_000_000));
    }
    // Timing (histograms, the event ring, slow-span checks) rides on the
    // span machinery, so any of the three timing flags enables tracing.
    if cfg.trace || cfg.trace_out.is_some() || slow_ms.is_some() {
        clio_obs::set_trace_enabled(true);
    }

    if let Mode::Connect(addr) = &cfg.mode {
        clio_cli::serve::run_client(addr, cfg.script.as_deref());
        finish_reports(&cfg);
        return;
    }

    let mut source = cfg.synthetic.map(synthetic_source);
    if let Some(dir) = &cfg.source_dir {
        let db = match clio_relational::csv::read_database(std::path::Path::new(dir)) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot load `{dir}`: {e}");
                std::process::exit(2);
            }
        };
        let target = match &cfg.target_spec {
            Some(spec) => parse_target_flag(spec),
            None => {
                eprintln!("--source requires --target \"Name (attr type, ...)\"");
                std::process::exit(2);
            }
        };
        source = Some((db, target));
    }
    if cfg.db_pool.is_some() && cfg.db_dir.is_none() {
        eprintln!("--db-pool requires --db-dir (see --help)");
        std::process::exit(2);
    }
    if let Some(dir) = &cfg.db_dir {
        if cfg.source_dir.is_some() {
            eprintln!("--db-dir conflicts with --source (see --help)");
            std::process::exit(2);
        }
        if cfg.synthetic.is_some() {
            eprintln!("--db-dir conflicts with --synthetic (see --help)");
            std::process::exit(2);
        }
        let pool = cfg.db_pool.unwrap_or(DEFAULT_DB_POOL);
        let db = match clio_relational::storage::open_paged(std::path::Path::new(dir), pool) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("cannot load `{dir}`: {e}");
                std::process::exit(2);
            }
        };
        // --target wins; otherwise the directory's own `_target.txt`
        // (written by `db save`) names the target schema.
        let target = match &cfg.target_spec {
            Some(spec) => parse_target_flag(spec),
            None => match read_target_file(std::path::Path::new(dir)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("--db-dir requires --target or a valid `{TARGET_FILE}`: {e}");
                    std::process::exit(2);
                }
            },
        };
        source = Some((db, target));
    }

    let (db, target) = source.unwrap_or_else(|| (paper_database(), kids_target()));

    // The on-disk store is namespaced by a digest of the source, so one
    // --cache-dir can serve many databases without cross-talk.
    let store: Option<Arc<dyn CacheStore>> = cfg.cache_dir.as_ref().map(|dir| {
        Arc::new(clio_incr::DiskStore::open(
            std::path::Path::new(dir),
            clio_incr::database_digest(&db),
        )) as Arc<dyn CacheStore>
    });

    if cfg.mode == Mode::Serve {
        if let Err(e) = clio_cli::serve::run_server(&cfg, db, target, store) {
            eprintln!("cannot serve: {e}");
            std::process::exit(2);
        }
        finish_reports(&cfg);
        return;
    }

    if !cfg.batch_scripts.is_empty() {
        if cfg.script.is_some() {
            eprintln!("--script conflicts with positional script arguments (see --help)");
            std::process::exit(2);
        }
        if cfg.mapping_file.is_some() {
            eprintln!("--mapping conflicts with positional script arguments (see --help)");
            std::process::exit(2);
        }
        let width = cfg.sessions_width.unwrap_or(1);
        run_batch(db, target, &cfg.batch_scripts, width, cfg.no_cache, store);
        finish_reports(&cfg);
        return;
    }
    if cfg.sessions_width.is_some() {
        eprintln!("--sessions requires positional script arguments (see --help)");
        std::process::exit(2);
    }

    let mut session = Session::new(db, target);
    if cfg.no_cache {
        session.set_cache_enabled(false);
    }
    if let Some(store) = store {
        session.attach_store(store);
    }
    if let Some(path) = &cfg.mapping_file {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                std::process::exit(2);
            }
        };
        let mapping = match clio_lang::parse_map(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bad --mapping: {e}");
                std::process::exit(2);
            }
        };
        if let Err(e) = session.adopt_mapping(mapping, &format!("loaded from {path}")) {
            eprintln!("bad --mapping: {e}");
            std::process::exit(2);
        }
    }
    let mut shell = Shell::new(session);

    let stdin;
    let file;
    let reader: Box<dyn BufRead> = match &cfg.script {
        Some(path) => {
            file = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open `{path}`: {e}");
                std::process::exit(2);
            });
            Box::new(std::io::BufReader::new(file))
        }
        None => {
            stdin = std::io::stdin();
            Box::new(stdin.lock())
        }
    };

    let interactive = cfg.script.is_none();
    if interactive {
        println!("clio mapping shell — type `help` for commands");
    }
    let mut out = std::io::stdout();
    if interactive {
        print!("clio> ");
        out.flush().ok();
    }
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if cfg.script.is_some() {
            println!("clio> {line}");
        }
        match shell.execute(&line) {
            Outcome::Continue(text) => {
                print!("{text}");
            }
            Outcome::Quit => break,
        }
        if interactive {
            print!("clio> ");
            out.flush().ok();
        }
    }

    finish_reports(&cfg);
}

/// Exit-time reporting, in a fixed order: the metrics JSON report
/// (`--metrics`, where `-` means stdout), the span tree (`--trace` /
/// `--trace-filter`), the Chrome trace-event JSONL export
/// (`--trace-out`), and finally any rate-limited-warning summary on
/// stderr. A report that cannot be written exits 2.
fn finish_reports(cfg: &CliConfig) {
    if let Some(path) = cfg.metrics_path.as_deref() {
        let report = clio_obs::report_json();
        if path == "-" {
            print!("{report}");
        } else if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write metrics to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    if cfg.trace {
        let records = clio_obs::snapshot_spans();
        if records.is_empty() {
            println!("trace: no spans recorded");
        } else {
            let filter = cfg.trace_filter.as_deref().unwrap_or("");
            print!(
                "{}",
                clio_obs::trace::render_tree_filtered(&records, filter)
            );
        }
    }
    if let Some(path) = cfg.trace_out.as_deref() {
        let (events, dropped) = clio_obs::take_events();
        let jsonl = clio_obs::chrome_trace_jsonl(&events);
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("cannot write trace events to `{path}`: {e}");
            std::process::exit(2);
        }
        if dropped > 0 {
            eprintln!("clio: trace ring overflowed; {dropped} oldest span event(s) dropped");
        }
    }
    if let Some(summary) = clio_obs::warn_summary() {
        eprint!("{summary}");
    }
}
