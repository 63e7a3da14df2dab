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
use std::path::Path;
use std::sync::Arc;

use clio_cli::config::{exit_2, usage, CliConfig, Mode, DEFAULT_DB_POOL};
use clio_cli::engine::{read_target_file, Outcome, Shell, TARGET_FILE};
use clio_cli::serve::open_script;
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
    let bodies: Vec<String> = scripts
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| exit_2(format_args!("cannot open `{path}`: {e}")))
        })
        .collect();
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
    clio_lang::parse_target_schema(spec)
        .unwrap_or_else(|e| exit_2(format_args!("bad --target: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = CliConfig::parse(&args).unwrap_or_else(|e| exit_2(e));
    if cfg.help {
        print!("{}", usage());
        return;
    }
    cfg.apply_env(|key| std::env::var(key).ok())
        .unwrap_or_else(|e| exit_2(e));

    if let Some(n) = cfg.threads {
        clio_relational::exec::set_threads(n);
    }
    if cfg.metrics_path.is_some() {
        clio_obs::set_metrics_enabled(true);
    }
    if let Some(ms) = cfg.slow_ms {
        clio_obs::set_slow_threshold_ns(ms.saturating_mul(1_000_000));
    }
    // Timing (histograms, the Chrome trace export, slow-span checks)
    // rides on the span machinery, so any of the three timing flags
    // enables tracing.
    if cfg.trace || cfg.trace_out.is_some() || cfg.slow_ms.is_some() {
        clio_obs::set_trace_enabled(true);
    }

    if let Mode::Connect(addr) = &cfg.mode {
        clio_cli::serve::run_client(addr, cfg.script.as_deref());
        finish_reports(&cfg);
        return;
    }

    let mut source = cfg.synthetic.map(synthetic_source);
    if let Some(dir) = &cfg.source_dir {
        let db = clio_relational::csv::read_database(Path::new(dir))
            .unwrap_or_else(|e| exit_2(format_args!("cannot load `{dir}`: {e}")));
        // `CliConfig::parse` refused `--source` without `--target`
        let spec = cfg.target_spec.as_deref().unwrap_or_default();
        source = Some((db, parse_target_flag(spec)));
    }
    if let Some(dir) = &cfg.db_dir {
        let pool = cfg.db_pool.unwrap_or(DEFAULT_DB_POOL);
        let db = clio_relational::storage::open_paged(Path::new(dir), pool)
            .unwrap_or_else(|e| exit_2(format_args!("cannot load `{dir}`: {e}")));
        // --target wins; otherwise the directory's own `_target.txt`
        // (written by `db save`) names the target schema.
        let target = match &cfg.target_spec {
            Some(spec) => parse_target_flag(spec),
            None => read_target_file(Path::new(dir)).unwrap_or_else(|e| {
                exit_2(format_args!(
                    "--db-dir requires --target or a valid `{TARGET_FILE}`: {e}"
                ))
            }),
        };
        source = Some((db, target));
    }

    let (db, target) = source.unwrap_or_else(|| (paper_database(), kids_target()));

    // The on-disk store is namespaced by a digest of the source, so one
    // --cache-dir can serve many databases without cross-talk.
    let store: Option<Arc<dyn CacheStore>> = cfg.cache_dir.as_ref().map(|dir| {
        Arc::new(clio_incr::DiskStore::open(
            Path::new(dir),
            clio_incr::database_digest(&db),
        )) as Arc<dyn CacheStore>
    });

    if cfg.mode == Mode::Serve {
        if let Err(e) = clio_cli::serve::run_server(&cfg, db, target, store) {
            exit_2(format_args!("cannot serve: {e}"));
        }
        finish_reports(&cfg);
        return;
    }

    if !cfg.batch_scripts.is_empty() {
        let width = cfg.sessions_width.unwrap_or(1);
        run_batch(db, target, &cfg.batch_scripts, width, cfg.no_cache, store);
        finish_reports(&cfg);
        return;
    }

    let mut session = Session::new(db, target);
    if cfg.no_cache {
        session.set_cache_enabled(false);
    }
    if let Some(store) = store {
        session.attach_store(store);
    }
    if let Some(path) = &cfg.mapping_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| exit_2(format_args!("cannot read `{path}`: {e}")));
        clio_lang::parse_map(&text)
            .and_then(|m| session.adopt_mapping(m, &format!("loaded from {path}")))
            .unwrap_or_else(|e| exit_2(format_args!("bad --mapping: {e}")));
    }
    let mut shell = Shell::new(session);
    let reader = open_script(cfg.script.as_deref());

    let interactive = cfg.script.is_none();
    let mut out = std::io::stdout();
    if interactive {
        println!("clio mapping shell — type `help` for commands");
        print!("clio> ");
        out.flush().ok();
    }
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if cfg.script.is_some() {
            println!("clio> {line}");
        }
        match shell.execute(&line) {
            Outcome::Continue(text) => print!("{text}"),
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
        } else if let Err(e) = clio_pager::write_atomic(Path::new(path), report.as_bytes()) {
            exit_2(format_args!("cannot write metrics to `{path}`: {e}"));
        }
    }
    if cfg.trace {
        let records = clio_obs::process().spans();
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
        let jsonl = clio_obs::chrome_trace_jsonl(&clio_obs::process().spans());
        if let Err(e) = clio_pager::write_atomic(Path::new(path), jsonl.as_bytes()) {
            exit_2(format_args!("cannot write trace events to `{path}`: {e}"));
        }
    }
    if let Some(summary) = clio_obs::warn_summary() {
        eprint!("{summary}");
    }
}
