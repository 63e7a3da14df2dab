//! Typed command-line configuration for the `clio-shell` binary.
//!
//! One table, `FLAGS`, defines the flag vocabulary: each row gives a
//! flag's spelling, its value placeholder, its help lines, the kind of
//! value it takes, its `CLIO_*` environment fallback and the mode it
//! needs. [`CliConfig::parse`], [`CliConfig::apply_env`], the flags
//! block of [`usage`] and the mode-strictness errors are all read off
//! that table, so a flag cannot be parsed without being documented.
//!
//! [`CliConfig::parse`] turns an argv slice into a [`CliConfig`] or a
//! [`UsageError`] whose `Display` is exactly the message the binary
//! prints to stderr before exiting 2 — so tests can assert on flag
//! handling without spawning a process, and the binary's behavior is
//! the library's behavior.

use std::fmt::Write as _;

use clio_datagen::synthetic::{SyntheticSpec, Topology};

/// Buffer-pool page budget used for paged databases when `--db-pool`
/// is not given (also the pool `db load` opens with).
pub const DEFAULT_DB_POOL: usize = 64;

/// A command-line usage error. `Display` renders the exact stderr
/// message of the `clio-shell` binary (which then exits 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// End the binary as every usage error and every unreadable input does:
/// `msg` on stderr, then exit status 2.
pub fn exit_2(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Which front-end the binary runs, selected by an optional leading
/// subcommand word (`serve` / `connect <addr>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Mode {
    /// The local shell: interactive, `--script`, or batch positional
    /// scripts.
    #[default]
    Local,
    /// `serve`: listen for framed TCP clients (see docs/service.md).
    Serve,
    /// `connect <addr>`: drive a remote server with `--script` (or
    /// stdin) lines.
    Connect(String),
}

impl Mode {
    /// The mode's name in error messages.
    fn word(&self) -> &'static str {
        match self {
            Mode::Local => "local",
            Mode::Serve => "serve",
            Mode::Connect(_) => "connect",
        }
    }
}

/// Everything the `clio-shell` binary accepts on its command line, in
/// typed form. Each field is filled by the `FLAGS` row named in its
/// doc (see `--help`); numbers are validated positive unless noted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliConfig {
    /// Local shell (default), `serve`, or `connect <addr>`.
    pub mode: Mode,
    /// `--port` (`CLIO_PORT`); any port, 0 picks an ephemeral one.
    pub port: Option<u16>,
    /// `--max-conns` (`CLIO_MAX_CONNS`).
    pub max_conns: Option<usize>,
    /// `--idle-ms` (`CLIO_IDLE_MS`), in milliseconds.
    pub idle_ms: Option<u64>,
    /// `--help` / `-h`: parsing stops at the flag, so anything after it
    /// is neither validated nor applied.
    pub help: bool,
    /// `--script`.
    pub script: Option<String>,
    /// Positional arguments: script files run as a concurrent batch.
    pub batch_scripts: Vec<String>,
    /// `--sessions`: batch width.
    pub sessions_width: Option<usize>,
    /// `--source`: CSV source database directory.
    pub source_dir: Option<String>,
    /// `--db-dir`: paged source database directory.
    pub db_dir: Option<String>,
    /// `--db-pool`: buffer-pool page budget for `--db-dir`.
    pub db_pool: Option<usize>,
    /// `--target`: target schema text.
    pub target_spec: Option<String>,
    /// `--mapping`: MAP statement file loaded as the first workspace.
    pub mapping_file: Option<String>,
    /// `--synthetic`: validated generator spec.
    pub synthetic: Option<SyntheticSpec>,
    /// `--metrics`: counter JSON report path (`-` = stdout).
    pub metrics_path: Option<String>,
    /// `--trace`, or implied by `--trace-filter`.
    pub trace: bool,
    /// `--trace-filter`.
    pub trace_filter: Option<String>,
    /// `--trace-out`: Chrome trace-event JSONL export path.
    pub trace_out: Option<String>,
    /// `--slow-ms` (`CLIO_SLOW_MS`), in milliseconds.
    pub slow_ms: Option<u64>,
    /// `--threads`: engine worker threads.
    pub threads: Option<usize>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--cache-dir`: root of the on-disk cache store.
    pub cache_dir: Option<String>,
}

/// The kind of value a flag takes, with the [`CliConfig`] field it
/// fills. Each kind has one parser, and that parser formats the same
/// message whether the value came from the flag or from its `CLIO_*`
/// variable.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag sets the field.
    Switch(fn(&mut CliConfig) -> &mut bool),
    /// Any text.
    Text(fn(&mut CliConfig) -> &mut Option<String>),
    /// A positive integer.
    Count(fn(&mut CliConfig) -> &mut Option<usize>),
    /// A positive integer of milliseconds.
    Millis(fn(&mut CliConfig) -> &mut Option<u64>),
    /// A TCP port number.
    Port(fn(&mut CliConfig) -> &mut Option<u16>),
    /// A `<topology>,<relations>,<rows>` generator spec.
    Synthetic,
}

impl Kind {
    /// Read `value` into the field; `who` (the flag or the variable)
    /// names the value in the error.
    fn store(self, cfg: &mut CliConfig, who: &str, value: &str) -> Result<(), UsageError> {
        match self {
            Kind::Switch(field) => *field(cfg) = true,
            Kind::Text(field) => *field(cfg) = Some(value.to_owned()),
            Kind::Count(field) => *field(cfg) = Some(positive(who, "", value)?),
            Kind::Millis(field) => *field(cfg) = Some(positive(who, " (milliseconds)", value)?),
            Kind::Port(field) => {
                let port = value.parse().map_err(|_| {
                    UsageError(format!(
                        "{who} expects a port number (0-65535), got `{value}`"
                    ))
                })?;
                *field(cfg) = Some(port);
            }
            Kind::Synthetic => cfg.synthetic = Some(parse_synthetic(value)?),
        }
        Ok(())
    }

    /// Whether the field holds a value (or the switch is on).
    fn is_set(self, cfg: &mut CliConfig) -> bool {
        match self {
            Kind::Switch(field) => *field(cfg),
            Kind::Text(field) => field(cfg).is_some(),
            Kind::Count(field) => field(cfg).is_some(),
            Kind::Millis(field) => field(cfg).is_some(),
            Kind::Port(field) => field(cfg).is_some(),
            Kind::Synthetic => cfg.synthetic.is_some(),
        }
    }
}

/// Parse a positive integer; `unit` (with its leading space) is named
/// in the error.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    who: &str,
    unit: &str,
    value: &str,
) -> Result<T, UsageError> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| {
            UsageError(format!(
                "{who} expects a positive integer{unit}, got `{value}`"
            ))
        })
}

/// The modes a flag may be given in. When several flags refuse the
/// mode, the error names the one whose need comes first in this order
/// (then the first in [`FLAGS`]); positional scripts given outside the
/// local shell rank between `Local` and `NotRemote`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Needs {
    /// Every mode.
    Any,
    /// `serve` only.
    Serve,
    /// The local shell only; over the wire, `load` does the job.
    Local,
    /// The local shell only: neither `serve` nor `connect`.
    NotRemote,
    /// Any mode but `serve`.
    NotServe,
}

impl Needs {
    fn admits(self, mode: &Mode) -> bool {
        match self {
            Needs::Any => true,
            Needs::Serve => *mode == Mode::Serve,
            Needs::Local | Needs::NotRemote => *mode == Mode::Local,
            Needs::NotServe => *mode != Mode::Serve,
        }
    }

    /// The error for `flag` given in a mode it does not admit.
    fn refusal(self, flag: &str, mode: &Mode) -> UsageError {
        UsageError(match self {
            Needs::Serve => format!("{flag} requires serve mode (see --help)"),
            Needs::Local => {
                format!("{flag} requires local mode (use `load` over the wire; see --help)")
            }
            _ => format!("{flag} conflicts with {} mode (see --help)", mode.word()),
        })
    }
}

/// One row of [`FLAGS`].
struct Flag {
    /// The flag as `--help` lists it: its spellings, comma-separated,
    /// then its value placeholder (`--script <file>`, `--help, -h`).
    usage: &'static str,
    /// The `--help` description lines.
    help: &'static [&'static str],
    kind: Kind,
    /// The environment variable read when the flag is not given.
    env: Option<&'static str>,
    needs: Needs,
}

impl Flag {
    /// The spellings the parser accepts, the flag's name first.
    fn spellings(&self) -> impl Iterator<Item = &'static str> {
        let usage = self.usage;
        usage
            .split_once(" <")
            .map_or(usage, |(names, _)| names)
            .split(", ")
    }
}

/// Every flag of `clio-shell`, in `--help` order.
static FLAGS: &[Flag] = &[
    Flag {
        usage: "--script <file>",
        help: &["run commands from a script instead of stdin"],
        kind: Kind::Text(|c| &mut c.script),
        env: None,
        needs: Needs::NotServe,
    },
    Flag {
        usage: "--sessions <n>",
        help: &[
            "batch mode: run the positional scripts up to",
            "<n> at a time as concurrent sessions (default",
            "1; requires script arguments, conflicts with",
            "--script)",
        ],
        kind: Kind::Count(|c| &mut c.sessions_width),
        env: None,
        needs: Needs::NotRemote,
    },
    Flag {
        usage: "--source <dir>",
        help: &["load a source database from CSV files (needs --target)"],
        kind: Kind::Text(|c| &mut c.source_dir),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--target <schema>",
        help: &["target schema, e.g. \"Kids (ID str not null, name str)\""],
        kind: Kind::Text(|c| &mut c.target_spec),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--synthetic <spec>",
        help: &[
            "generate a source: <topology>,<relations>,<rows>",
            "(topology: chain | star | cycle | tree)",
        ],
        kind: Kind::Synthetic,
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--mapping <file>",
        help: &[
            "load a MAP-language statement (see docs/planner.md)",
            "as the initial workspace before reading commands",
            "(single-session local mode only)",
        ],
        kind: Kind::Text(|c| &mut c.mapping_file),
        env: None,
        needs: Needs::Local,
    },
    Flag {
        usage: "--db-dir <dir>",
        help: &[
            "open a paged source database written by `db save`",
            "(relations stream through a buffer pool instead of",
            "loading upfront; see docs/storage.md); the target",
            "comes from --target or the directory's _target.txt",
        ],
        kind: Kind::Text(|c| &mut c.db_dir),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--db-pool <pages>",
        help: &["buffer-pool page budget for --db-dir (default 64)"],
        kind: Kind::Count(|c| &mut c.db_pool),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--metrics <file>",
        help: &[
            "collect work counters; write a JSON report on exit",
            "(`-` writes the report to stdout after the shell",
            "output)",
        ],
        kind: Kind::Text(|c| &mut c.metrics_path),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--trace",
        help: &["collect spans; print the span tree on exit"],
        kind: Kind::Switch(|c| &mut c.trace),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--trace-filter <name>",
        help: &[
            "like --trace, but only print subtrees whose span",
            "name contains <name> (e.g. fd.lattice)",
        ],
        kind: Kind::Text(|c| &mut c.trace_filter),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--trace-out <file>",
        help: &[
            "collect spans; export completed spans as Chrome",
            "trace-event JSONL (load in chrome://tracing or",
            "Perfetto; see docs/observability.md, Timing)",
        ],
        kind: Kind::Text(|c| &mut c.trace_out),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--slow-ms <n>",
        help: &[
            "collect spans; warn on stderr whenever a span",
            "takes at least <n> milliseconds (environment",
            "fallback: CLIO_SLOW_MS)",
        ],
        kind: Kind::Millis(|c| &mut c.slow_ms),
        env: Some("CLIO_SLOW_MS"),
        needs: Needs::Any,
    },
    Flag {
        usage: "--threads <n>",
        help: &[
            "worker threads for parallel evaluation",
            "(default: CLIO_THREADS or the hardware)",
        ],
        kind: Kind::Count(|c| &mut c.threads),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--no-cache",
        help: &[
            "disable the incremental evaluation cache; every",
            "operator recomputes from scratch (see",
            "docs/incremental.md)",
        ],
        kind: Kind::Switch(|c| &mut c.no_cache),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--cache-dir <path>",
        help: &[
            "persist eligible cache entries under <path> and",
            "serve misses from it across runs (see",
            "docs/incremental.md, Persistence)",
        ],
        kind: Kind::Text(|c| &mut c.cache_dir),
        env: None,
        needs: Needs::Any,
    },
    Flag {
        usage: "--port <n>",
        help: &[
            "serve: TCP port to listen on (default 0 = an",
            "ephemeral port, announced as `listening on",
            "<addr>`; fallback: CLIO_PORT)",
        ],
        kind: Kind::Port(|c| &mut c.port),
        env: Some("CLIO_PORT"),
        needs: Needs::Serve,
    },
    Flag {
        usage: "--max-conns <n>",
        help: &[
            "serve: concurrent-connection cap; excess",
            "connections wait in the accept backlog",
            "(default: the --threads width; fallback:",
            "CLIO_MAX_CONNS)",
        ],
        kind: Kind::Count(|c| &mut c.max_conns),
        env: Some("CLIO_MAX_CONNS"),
        needs: Needs::Serve,
    },
    Flag {
        usage: "--idle-ms <n>",
        help: &[
            "serve: close a connection when no request",
            "arrives within <n> milliseconds (default",
            "30000; fallback: CLIO_IDLE_MS)",
        ],
        kind: Kind::Millis(|c| &mut c.idle_ms),
        env: Some("CLIO_IDLE_MS"),
        needs: Needs::Serve,
    },
    Flag {
        usage: "--help, -h",
        help: &["show this help"],
        kind: Kind::Switch(|c| &mut c.help),
        env: None,
        needs: Needs::Any,
    },
];

/// The `--help` text: the modes, the flags block generated from
/// `FLAGS` (description column at character 25), then the shell
/// commands.
#[must_use]
pub fn usage() -> String {
    let mut out = String::from(
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
",
    );
    for flag in FLAGS {
        for (i, line) in flag.help.iter().enumerate() {
            let label = if i == 0 { flag.usage } else { "" };
            let _ = writeln!(out, "  {label:<23}{line}");
        }
    }
    out.push('\n');
    out.push_str(&crate::command::help_text());
    out
}

/// Parse a `--synthetic` spec (`<topology>,<relations>,<rows>`),
/// preserving the binary's historical error messages byte-for-byte.
fn parse_synthetic(spec_text: &str) -> Result<SyntheticSpec, UsageError> {
    let parts: Vec<&str> = spec_text.split(',').collect();
    let [topo, relations, rows] = parts.as_slice() else {
        return Err(UsageError(
            "expected --synthetic <topology>,<relations>,<rows>".into(),
        ));
    };
    let topology = match *topo {
        "chain" => Topology::Chain,
        "star" => Topology::Star,
        "cycle" => Topology::Cycle,
        "tree" => Topology::RandomTree,
        other => return Err(UsageError(format!("unknown topology `{other}`"))),
    };
    Ok(SyntheticSpec {
        topology,
        relations: relations
            .parse()
            .map_err(|e| UsageError(format!("bad relation count: {e}")))?,
        rows: rows
            .parse()
            .map_err(|e| UsageError(format!("bad row count: {e}")))?,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 42,
    })
}

impl CliConfig {
    /// Parse an argv slice (without the program name). Flags are
    /// processed left to right; the first invalid flag wins, and
    /// `--help` stops parsing. Once every flag is read, a flag given in
    /// a mode it does not admit (see `FLAGS`) is an error, and then a
    /// pair of flags that cannot go together (`check_pairs`),
    /// so each is reported before any source is read or generated.
    /// The one constraint checked while the source is read, `--db-dir`
    /// needing a target (its directory's `_target.txt` may name one),
    /// stays with the binary.
    pub fn parse(args: &[String]) -> Result<CliConfig, UsageError> {
        let mut cfg = CliConfig::default();
        let mut i = 0;
        // The mode subcommand is recognized only as the first word, so
        // a positional script can still be named anything elsewhere.
        match args.first().map(String::as_str) {
            Some("serve") => {
                cfg.mode = Mode::Serve;
                i = 1;
            }
            Some("connect") => {
                let addr = args
                    .get(1)
                    .filter(|a| !a.starts_with('-'))
                    .cloned()
                    .ok_or_else(|| {
                        UsageError("connect requires an <addr> argument (see --help)".into())
                    })?;
                cfg.mode = Mode::Connect(addr);
                i = 2;
            }
            _ => {}
        }
        while i < args.len() && !cfg.help {
            let arg = args[i].as_str();
            match FLAGS.iter().find(|f| f.spellings().any(|n| n == arg)) {
                Some(flag) => {
                    let value = if matches!(flag.kind, Kind::Switch(_)) {
                        ""
                    } else {
                        i += 1;
                        args.get(i).ok_or_else(|| {
                            UsageError(format!("{arg} requires a value (see --help)"))
                        })?
                    };
                    flag.kind.store(&mut cfg, arg, value)?;
                }
                None if arg.starts_with('-') => {
                    return Err(UsageError(format!("unknown flag `{arg}` (see --help)")));
                }
                None => cfg.batch_scripts.push(arg.to_owned()),
            }
            i += 1;
        }
        cfg.trace |= cfg.trace_filter.is_some();
        if !cfg.help {
            cfg.check_mode()?;
            cfg.check_pairs()?;
        }
        Ok(cfg)
    }

    /// The cross-flag usage errors, first one wins: `--db-pool` without
    /// `--db-dir`, `--db-dir` beside `--source` or `--synthetic` (any
    /// mode that reads a source, so not `connect`), and in the local
    /// shell `--script` or `--mapping` beside positional scripts, or
    /// `--sessions` without them; then `--source` without `--target`.
    fn check_pairs(&self) -> Result<(), UsageError> {
        let source = !matches!(self.mode, Mode::Connect(_));
        let local = self.mode == Mode::Local;
        let batch = !self.batch_scripts.is_empty();
        let pairs = [
            (
                source && self.db_pool.is_some() && self.db_dir.is_none(),
                "--db-pool requires --db-dir",
            ),
            (
                source && self.db_dir.is_some() && self.source_dir.is_some(),
                "--db-dir conflicts with --source",
            ),
            (
                source && self.db_dir.is_some() && self.synthetic.is_some(),
                "--db-dir conflicts with --synthetic",
            ),
            (
                local && batch && self.script.is_some(),
                "--script conflicts with positional script arguments",
            ),
            (
                local && batch && self.mapping_file.is_some(),
                "--mapping conflicts with positional script arguments",
            ),
            (
                local && !batch && self.sessions_width.is_some(),
                "--sessions requires positional script arguments",
            ),
            (
                source && self.source_dir.is_some() && self.target_spec.is_none(),
                "--source requires --target \"Name (attr type, ...)\"",
            ),
        ];
        match pairs.iter().find(|(refused, _)| *refused) {
            Some((_, message)) => Err(UsageError(format!("{message} (see --help)"))),
            None => Ok(()),
        }
    }

    /// The mode-strictness errors: a flag whose [`Needs`] the mode does
    /// not admit, or positional scripts outside the local shell.
    fn check_mode(&mut self) -> Result<(), UsageError> {
        let mode = self.mode.clone();
        let refused = FLAGS
            .iter()
            .filter(|f| !f.needs.admits(&mode) && f.kind.is_set(self))
            .min_by_key(|f| f.needs);
        let positional = mode != Mode::Local && !self.batch_scripts.is_empty();
        match refused {
            Some(f) if !positional || f.needs <= Needs::Local => Err(f
                .needs
                .refusal(f.spellings().next().unwrap_or(f.usage), &mode)),
            _ if positional => Err(UsageError(format!(
                "{} mode takes no positional script arguments (see --help)",
                mode.word()
            ))),
            _ => Ok(()),
        }
    }

    /// Resolve the environment fallbacks into any still-unset field:
    /// each `FLAGS` row's `CLIO_*` variable, in the modes the row
    /// admits (`CLIO_SLOW_MS` in every mode; `CLIO_PORT`,
    /// `CLIO_MAX_CONNS` and `CLIO_IDLE_MS` in serve mode). Flags win
    /// over the environment; a malformed environment value is a usage
    /// error (exit 2) exactly like its flag form. `get` is the
    /// environment lookup, injectable for tests.
    pub fn apply_env(&mut self, get: impl Fn(&str) -> Option<String>) -> Result<(), UsageError> {
        for flag in FLAGS {
            let Some(var) = flag.env else { continue };
            if flag.needs.admits(&self.mode) && !flag.kind.is_set(self) {
                if let Some(value) = get(var) {
                    flag.kind.store(self, var, &value)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    impl CliConfig {
        /// [`CliConfig::apply_env`] on a `serve` config, which reads the
        /// serve-only variables.
        fn apply_net_env(
            &mut self,
            get: impl Fn(&str) -> Option<String>,
        ) -> Result<(), UsageError> {
            assert_eq!(self.mode, Mode::Serve);
            self.apply_env(get)
        }
    }

    #[test]
    fn defaults_and_positionals() {
        let cfg = CliConfig::parse(&argv(&["a.clio", "b.clio"])).unwrap();
        assert_eq!(cfg.batch_scripts, vec!["a.clio", "b.clio"]);
        assert!(!cfg.help && !cfg.trace && !cfg.no_cache);
        assert_eq!(cfg.script, None);
        assert_eq!(cfg.cache_dir, None);
    }

    #[test]
    fn flags_with_values() {
        let cfg = CliConfig::parse(&argv(&[
            "--script",
            "s.clio",
            "--metrics",
            "m.json",
            "--cache-dir",
            "/tmp/cc",
            "--threads",
            "3",
            "--trace-filter",
            "fd.lattice",
            "--trace-out",
            "t.jsonl",
            "--slow-ms",
            "25",
            "--db-dir",
            "/tmp/paged",
            "--db-pool",
            "8",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(cfg.script.as_deref(), Some("s.clio"));
        assert_eq!(cfg.db_dir.as_deref(), Some("/tmp/paged"));
        assert_eq!(cfg.db_pool, Some(8));
        assert_eq!(cfg.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(cfg.cache_dir.as_deref(), Some("/tmp/cc"));
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.trace_filter.as_deref(), Some("fd.lattice"));
        assert!(cfg.trace, "--trace-filter implies --trace");
        assert_eq!(cfg.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(cfg.slow_ms, Some(25));
        assert!(cfg.no_cache);
        let cfg = CliConfig::parse(&argv(&["--sessions", "2", "a.clio"])).unwrap();
        assert_eq!(cfg.sessions_width, Some(2));
    }

    #[test]
    fn trace_out_collects_without_implying_the_tree() {
        let cfg = CliConfig::parse(&argv(&["--trace-out", "t.jsonl"])).unwrap();
        assert!(!cfg.trace, "--trace-out must not print the span tree");
        let cfg = CliConfig::parse(&argv(&["--metrics", "-"])).unwrap();
        assert_eq!(cfg.metrics_path.as_deref(), Some("-"), "stdout sentinel");
    }

    #[test]
    fn help_stops_parsing() {
        let cfg = CliConfig::parse(&argv(&["--help", "--threads", "zero"])).unwrap();
        assert!(cfg.help, "nothing after --help is validated");
        let cfg = CliConfig::parse(&argv(&["-h"])).unwrap();
        assert!(cfg.help);
    }

    #[test]
    fn error_messages_are_the_binary_stderr_lines() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(err(&["--script"]), "--script requires a value (see --help)");
        assert_eq!(
            err(&["--cache-dir"]),
            "--cache-dir requires a value (see --help)"
        );
        assert_eq!(
            err(&["--threads", "0"]),
            "--threads expects a positive integer, got `0`"
        );
        assert_eq!(err(&["--db-dir"]), "--db-dir requires a value (see --help)");
        assert_eq!(
            err(&["--db-pool", "0"]),
            "--db-pool expects a positive integer, got `0`"
        );
        assert_eq!(
            err(&["--db-pool", "x"]),
            "--db-pool expects a positive integer, got `x`"
        );
        assert_eq!(
            err(&["--sessions", "x"]),
            "--sessions expects a positive integer, got `x`"
        );
        assert_eq!(
            err(&["--trace-out"]),
            "--trace-out requires a value (see --help)"
        );
        assert_eq!(
            err(&["--slow-ms", "0"]),
            "--slow-ms expects a positive integer (milliseconds), got `0`"
        );
        assert_eq!(
            err(&["--mapping"]),
            "--mapping requires a value (see --help)"
        );
        assert_eq!(err(&["--wat"]), "unknown flag `--wat` (see --help)");
        assert_eq!(
            err(&["--synthetic", "chain,4"]),
            "expected --synthetic <topology>,<relations>,<rows>"
        );
        assert_eq!(
            err(&["--synthetic", "blob,4,10"]),
            "unknown topology `blob`"
        );
        assert!(err(&["--synthetic", "chain,x,10"]).starts_with("bad relation count: "));
        assert!(err(&["--synthetic", "chain,4,x"]).starts_with("bad row count: "));
    }

    #[test]
    fn mode_subcommands_parse_only_in_first_position() {
        let cfg =
            CliConfig::parse(&argv(&["serve", "--port", "9090", "--max-conns", "8"])).unwrap();
        assert_eq!(cfg.mode, Mode::Serve);
        assert_eq!(cfg.port, Some(9090));
        assert_eq!(cfg.max_conns, Some(8));
        let cfg = CliConfig::parse(&argv(&["connect", "127.0.0.1:9090"])).unwrap();
        assert_eq!(cfg.mode, Mode::Connect("127.0.0.1:9090".into()));
        // Elsewhere, `serve` is just a positional script path.
        let cfg = CliConfig::parse(&argv(&["a.clio", "serve"])).unwrap();
        assert_eq!(cfg.mode, Mode::Local);
        assert_eq!(cfg.batch_scripts, vec!["a.clio", "serve"]);
    }

    #[test]
    fn net_flag_errors_are_the_binary_stderr_lines() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(
            err(&["connect"]),
            "connect requires an <addr> argument (see --help)"
        );
        assert_eq!(
            err(&["connect", "--script"]),
            "connect requires an <addr> argument (see --help)"
        );
        assert_eq!(
            err(&["serve", "--port", "nope"]),
            "--port expects a port number (0-65535), got `nope`"
        );
        assert_eq!(
            err(&["serve", "--port", "70000"]),
            "--port expects a port number (0-65535), got `70000`"
        );
        assert_eq!(
            err(&["serve", "--port"]),
            "--port requires a value (see --help)"
        );
        assert_eq!(
            err(&["serve", "--max-conns", "0"]),
            "--max-conns expects a positive integer, got `0`"
        );
        assert_eq!(
            err(&["serve", "--idle-ms", "-5"]),
            "--idle-ms expects a positive integer (milliseconds), got `-5`"
        );
    }

    #[test]
    fn net_env_fallbacks_fill_unset_fields_and_validate() {
        let mut cfg = CliConfig::parse(&argv(&["serve", "--port", "7070"])).unwrap();
        cfg.apply_net_env(|key| match key {
            "CLIO_PORT" => Some("1234".into()),
            "CLIO_MAX_CONNS" => Some("6".into()),
            "CLIO_IDLE_MS" => Some("500".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg.port, Some(7070), "the flag wins over the environment");
        assert_eq!(cfg.max_conns, Some(6));
        assert_eq!(cfg.idle_ms, Some(500));

        let mut cfg = CliConfig::parse(&argv(&["serve"])).unwrap();
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_PORT").then(|| "abc".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_PORT expects a port number (0-65535), got `abc`"
        );
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_MAX_CONNS").then(|| "0".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_MAX_CONNS expects a positive integer, got `0`"
        );
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_IDLE_MS").then(|| "x".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_IDLE_MS expects a positive integer (milliseconds), got `x`"
        );
    }

    #[test]
    fn slow_ms_env_fallback_fills_every_mode_and_validates() {
        let env =
            |value: &'static str| move |key: &str| (key == "CLIO_SLOW_MS").then(|| value.into());
        for words in [&[][..], &["serve"][..], &["connect", "127.0.0.1:1"][..]] {
            let mut cfg = CliConfig::parse(&argv(words)).unwrap();
            cfg.apply_env(env("40")).unwrap();
            assert_eq!(cfg.slow_ms, Some(40), "{words:?}");
        }
        let mut cfg = CliConfig::parse(&argv(&["--slow-ms", "7"])).unwrap();
        cfg.apply_env(env("40")).unwrap();
        assert_eq!(cfg.slow_ms, Some(7), "the flag wins over the environment");
        for bad in ["0", "-3", "fast", ""] {
            let mut cfg = CliConfig::parse(&argv(&[])).unwrap();
            assert_eq!(
                cfg.apply_env(env(bad)).unwrap_err().to_string(),
                format!("CLIO_SLOW_MS expects a positive integer (milliseconds), got `{bad}`")
            );
        }
    }

    #[test]
    fn mapping_flag() {
        let cfg = CliConfig::parse(&argv(&["--mapping", "demo.map"])).unwrap();
        assert_eq!(cfg.mapping_file.as_deref(), Some("demo.map"));
        let cfg = CliConfig::parse(&argv(&[])).unwrap();
        assert_eq!(cfg.mapping_file, None);
    }

    #[test]
    fn removed_flags_are_usage_errors() {
        // every evaluation runs through the plan, and the cache has one
        // eviction policy, so there is nothing to choose: `--plan` and
        // `--cache-policy` are usage errors (the binary exits 2)
        for flag in ["--plan", "--cache-policy"] {
            let err = CliConfig::parse(&argv(&[flag])).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unknown flag `{flag}` (see --help)")
            );
        }
    }

    #[test]
    fn synthetic_spec_is_validated_and_typed() {
        let cfg = CliConfig::parse(&argv(&["--synthetic", "star,5,20"])).unwrap();
        let spec = cfg.synthetic.expect("spec");
        assert_eq!(spec.relations, 5);
        assert_eq!(spec.rows, 20);
    }

    /// Every row of [`FLAGS`] is accepted by the parser under each of
    /// its spellings (with a valid value, in a mode it admits, beside
    /// the flag or script it needs) and
    /// appears in `usage()`: the flags block and the parser are one
    /// table and cannot drift apart.
    #[test]
    fn flag_table_and_parser_agree() {
        let help = usage();
        for flag in FLAGS {
            let value = match flag.kind {
                Kind::Switch(_) => None,
                Kind::Text(_) => Some("x"),
                Kind::Count(_) | Kind::Millis(_) => Some("3"),
                Kind::Port(_) => Some("8080"),
                Kind::Synthetic => Some("chain,2,3"),
            };
            for name in flag.spellings() {
                let mut words = Vec::new();
                if flag.needs == Needs::Serve {
                    words.push("serve");
                }
                words.push(name);
                words.extend(value);
                match flag.usage {
                    "--sessions <n>" => words.push("a.clio"),
                    "--db-pool <pages>" => words.extend(["--db-dir", "d"]),
                    "--source <dir>" => words.extend(["--target", "T (a int)"]),
                    _ => {}
                }
                let mut cfg = CliConfig::parse(&argv(&words))
                    .unwrap_or_else(|e| panic!("`{name}` is documented but refused: {e}"));
                assert!(flag.kind.is_set(&mut cfg), "`{name}` set nothing");
                assert!(help.contains(&format!("\n  {}", flag.usage)), "`{name}`");
            }
        }
    }

    #[test]
    fn usage_is_the_pinned_help() {
        assert_eq!(usage(), include_str!("../../../scripts/golden/help.txt"));
    }

    /// The mode-strictness errors come from `parse`, after every flag
    /// value is read and never past `--help`.
    #[test]
    fn mode_strictness_errors_are_the_binary_stderr_lines() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(
            err(&["--port", "9090"]),
            "--port requires serve mode (see --help)"
        );
        assert_eq!(
            err(&["connect", "127.0.0.1:1", "--max-conns", "2"]),
            "--max-conns requires serve mode (see --help)"
        );
        assert_eq!(
            err(&["--idle-ms", "5"]),
            "--idle-ms requires serve mode (see --help)"
        );
        assert_eq!(
            err(&["serve", "--mapping", "m.map"]),
            "--mapping requires local mode (use `load` over the wire; see --help)"
        );
        assert_eq!(
            err(&["connect", "127.0.0.1:1", "a.clio"]),
            "connect mode takes no positional script arguments (see --help)"
        );
        assert_eq!(
            err(&["serve", "--sessions", "2"]),
            "--sessions conflicts with serve mode (see --help)"
        );
        assert_eq!(
            err(&["serve", "--script", "s.clio"]),
            "--script conflicts with serve mode (see --help)"
        );
        // `connect` replays --script, and the local shell takes them all
        assert!(CliConfig::parse(&argv(&["connect", "127.0.0.1:1", "--script", "s"])).is_ok());
        assert!(CliConfig::parse(&argv(&["--mapping", "m", "--script", "s"])).is_ok());
        assert!(CliConfig::parse(&argv(&["--sessions", "2", "a"])).is_ok());
        // a bad value anywhere wins over a mode error; --help skips both
        assert_eq!(
            err(&["--port", "1", "--threads", "0"]),
            "--threads expects a positive integer, got `0`"
        );
        assert!(
            CliConfig::parse(&argv(&["--port", "1", "--help"]))
                .unwrap()
                .help
        );
        // the cross-flag errors, each before any source is read
        assert_eq!(
            err(&["--db-pool", "8"]),
            "--db-pool requires --db-dir (see --help)"
        );
        assert_eq!(
            err(&["--db-dir", "d", "--source", "s"]),
            "--db-dir conflicts with --source (see --help)"
        );
        assert_eq!(
            err(&["serve", "--synthetic", "chain,2,5", "--db-dir", "d"]),
            "--db-dir conflicts with --synthetic (see --help)"
        );
        assert_eq!(
            err(&["--script", "s.clio", "a.clio"]),
            "--script conflicts with positional script arguments (see --help)"
        );
        assert_eq!(
            err(&["a.clio", "--mapping", "m.map"]),
            "--mapping conflicts with positional script arguments (see --help)"
        );
        assert_eq!(
            err(&["--synthetic", "chain,4,200000", "--sessions", "2"]),
            "--sessions requires positional script arguments (see --help)"
        );
        assert_eq!(
            err(&["--source", "s"]),
            "--source requires --target \"Name (attr type, ...)\" (see --help)"
        );
        assert_eq!(
            err(&["serve", "--source", "s"]),
            "--source requires --target \"Name (attr type, ...)\" (see --help)"
        );
        assert!(CliConfig::parse(&argv(&["--source", "s", "--target", "T (a int)"])).is_ok());
        // in their old order: the source pair first, then the batch, and
        // `--source` without `--target` after every other pair
        assert_eq!(
            err(&["--source", "s", "--script", "s.clio", "a.clio"]),
            "--script conflicts with positional script arguments (see --help)"
        );
        assert_eq!(
            err(&[
                "--sessions",
                "2",
                "--synthetic",
                "chain,2,5",
                "--db-dir",
                "d",
                "--db-pool",
                "4"
            ]),
            "--db-dir conflicts with --synthetic (see --help)"
        );
        assert_eq!(
            err(&["--db-dir", "d", "--source", "s", "--synthetic", "chain,2,5"]),
            "--db-dir conflicts with --source (see --help)"
        );
        assert_eq!(
            err(&["--mapping", "m", "--script", "s", "a"]),
            "--script conflicts with positional script arguments (see --help)"
        );
        // `connect` reads no source, so it refuses none of them
        assert!(CliConfig::parse(&argv(&["connect", "h:1", "--db-pool", "8"])).is_ok());
    }

    /// With several mode errors, the first one the binary checked before
    /// the table existed still wins: serve-only flags, then `--mapping`,
    /// then positional scripts, then `--sessions`, then `--script`.
    #[test]
    fn mode_errors_keep_their_precedence() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(
            err(&[
                "connect",
                "h:1",
                "--script",
                "s",
                "--sessions",
                "2",
                "a",
                "--mapping",
                "m",
                "--idle-ms",
                "5"
            ]),
            "--idle-ms requires serve mode (see --help)"
        );
        assert_eq!(
            err(&[
                "serve",
                "--script",
                "s",
                "--sessions",
                "2",
                "a",
                "--mapping",
                "m"
            ]),
            "--mapping requires local mode (use `load` over the wire; see --help)"
        );
        assert_eq!(
            err(&["serve", "--script", "s", "--sessions", "2", "a"]),
            "serve mode takes no positional script arguments (see --help)"
        );
        assert_eq!(
            err(&["serve", "--script", "s", "--sessions", "2"]),
            "--sessions conflicts with serve mode (see --help)"
        );
    }
}
