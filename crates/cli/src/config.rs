//! Typed command-line configuration for the `clio-shell` binary.
//!
//! [`CliConfig::parse`] turns an argv slice into a [`CliConfig`] or a
//! [`UsageError`] whose `Display` is exactly the message the binary
//! prints to stderr before exiting 2 — so tests can assert on flag
//! handling without spawning a process, and the binary's behavior is
//! the library's behavior.

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

/// Everything the `clio-shell` binary accepts on its command line, in
/// typed form. See the binary's `--help` for flag semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliConfig {
    /// Front-end mode: local shell (default), `serve`, or
    /// `connect <addr>`.
    pub mode: Mode,
    /// `--port <n>` (serve): TCP port to listen on; 0 (the default)
    /// picks an ephemeral port. Environment fallback: `CLIO_PORT`.
    pub port: Option<u16>,
    /// `--max-conns <n>` (serve): concurrent-connection cap (validated
    /// positive; default: the `--threads` width). Environment fallback:
    /// `CLIO_MAX_CONNS`.
    pub max_conns: Option<usize>,
    /// `--idle-ms <n>` (serve): per-connection idle timeout in
    /// milliseconds (validated positive; default 30000). Environment
    /// fallback: `CLIO_IDLE_MS`.
    pub idle_ms: Option<u64>,
    /// `--help` / `-h`: print usage and exit 0. Parsing stops at the
    /// flag, so anything after it is neither validated nor applied.
    pub help: bool,
    /// `--script <file>`: run commands from a script instead of stdin.
    pub script: Option<String>,
    /// Positional arguments: script files run as a concurrent batch.
    pub batch_scripts: Vec<String>,
    /// `--sessions <n>`: batch width (validated positive).
    pub sessions_width: Option<usize>,
    /// `--source <dir>`: CSV source database directory.
    pub source_dir: Option<String>,
    /// `--db-dir <dir>`: paged source database directory (heap files
    /// written by `db save`; see `docs/storage.md`).
    pub db_dir: Option<String>,
    /// `--db-pool <pages>`: buffer-pool page budget for `--db-dir`
    /// (validated positive; default 64).
    pub db_pool: Option<usize>,
    /// `--target <schema>`: target schema text.
    pub target_spec: Option<String>,
    /// `--mapping <file>`: MAP-language statement file loaded as the
    /// initial workspace (see `docs/planner.md`).
    pub mapping_file: Option<String>,
    /// `--synthetic <spec>`: validated generator spec.
    pub synthetic: Option<SyntheticSpec>,
    /// `--metrics <file>`: counter JSON report path (`-` = stdout).
    pub metrics_path: Option<String>,
    /// `--trace` (or implied by `--trace-filter`).
    pub trace: bool,
    /// `--trace-filter <name>`.
    pub trace_filter: Option<String>,
    /// `--trace-out <file>`: Chrome trace-event JSONL export path.
    /// Enables span collection without implying the `--trace` tree.
    pub trace_out: Option<String>,
    /// `--slow-ms <n>`: warn on spans at least this slow (validated
    /// positive; `CLIO_SLOW_MS` is the environment fallback).
    pub slow_ms: Option<u64>,
    /// `--threads <n>`: engine worker threads (validated positive).
    pub threads: Option<usize>,
    /// `--no-cache`: disable the incremental evaluation cache.
    pub no_cache: bool,
    /// `--cache-dir <path>`: attach an on-disk cache store rooted at
    /// this directory (see `docs/incremental.md`, Persistence).
    pub cache_dir: Option<String>,
}

/// The value of flag `flag`, or the binary's exact missing-value error.
fn require_value(args: &[String], i: usize, flag: &str) -> Result<String, UsageError> {
    args.get(i)
        .cloned()
        .ok_or_else(|| UsageError(format!("{flag} requires a value (see --help)")))
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
    /// `--help` stops parsing. Cross-flag constraints that depend on
    /// runtime state (e.g. `--source` needing `--target`, `--script`
    /// conflicting with positional scripts) are checked by the binary
    /// in its historical order, not here.
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
        while i < args.len() {
            match args[i].as_str() {
                "--help" | "-h" => {
                    cfg.help = true;
                    return Ok(cfg);
                }
                "--script" => {
                    i += 1;
                    cfg.script = Some(require_value(args, i, "--script")?);
                }
                "--source" => {
                    i += 1;
                    cfg.source_dir = Some(require_value(args, i, "--source")?);
                }
                "--target" => {
                    i += 1;
                    cfg.target_spec = Some(require_value(args, i, "--target")?);
                }
                "--db-dir" => {
                    i += 1;
                    cfg.db_dir = Some(require_value(args, i, "--db-dir")?);
                }
                "--db-pool" => {
                    i += 1;
                    let value = require_value(args, i, "--db-pool")?;
                    match value.parse::<usize>() {
                        Ok(n) if n >= 1 => cfg.db_pool = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--db-pool expects a positive integer, got `{value}`"
                            )))
                        }
                    }
                }
                "--metrics" => {
                    i += 1;
                    cfg.metrics_path = Some(require_value(args, i, "--metrics")?);
                }
                "--cache-dir" => {
                    i += 1;
                    cfg.cache_dir = Some(require_value(args, i, "--cache-dir")?);
                }
                "--mapping" => {
                    i += 1;
                    cfg.mapping_file = Some(require_value(args, i, "--mapping")?);
                }
                "--trace" => cfg.trace = true,
                "--no-cache" => cfg.no_cache = true,
                "--trace-filter" => {
                    i += 1;
                    cfg.trace_filter = Some(require_value(args, i, "--trace-filter")?);
                    cfg.trace = true;
                }
                "--trace-out" => {
                    i += 1;
                    cfg.trace_out = Some(require_value(args, i, "--trace-out")?);
                }
                "--slow-ms" => {
                    i += 1;
                    let value = require_value(args, i, "--slow-ms")?;
                    match value.parse::<u64>() {
                        Ok(n) if n >= 1 => cfg.slow_ms = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--slow-ms expects a positive integer (milliseconds), got `{value}`"
                            )))
                        }
                    }
                }
                "--threads" => {
                    i += 1;
                    let value = require_value(args, i, "--threads")?;
                    match value.parse::<usize>() {
                        Ok(n) if n >= 1 => cfg.threads = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--threads expects a positive integer, got `{value}`"
                            )))
                        }
                    }
                }
                "--port" => {
                    i += 1;
                    let value = require_value(args, i, "--port")?;
                    match value.parse::<u16>() {
                        Ok(n) => cfg.port = Some(n),
                        Err(_) => {
                            return Err(UsageError(format!(
                                "--port expects a port number (0-65535), got `{value}`"
                            )))
                        }
                    }
                }
                "--max-conns" => {
                    i += 1;
                    let value = require_value(args, i, "--max-conns")?;
                    match value.parse::<usize>() {
                        Ok(n) if n >= 1 => cfg.max_conns = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--max-conns expects a positive integer, got `{value}`"
                            )))
                        }
                    }
                }
                "--idle-ms" => {
                    i += 1;
                    let value = require_value(args, i, "--idle-ms")?;
                    match value.parse::<u64>() {
                        Ok(n) if n >= 1 => cfg.idle_ms = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--idle-ms expects a positive integer (milliseconds), got `{value}`"
                            )))
                        }
                    }
                }
                "--sessions" => {
                    i += 1;
                    let value = require_value(args, i, "--sessions")?;
                    match value.parse::<usize>() {
                        Ok(n) if n >= 1 => cfg.sessions_width = Some(n),
                        _ => {
                            return Err(UsageError(format!(
                                "--sessions expects a positive integer, got `{value}`"
                            )))
                        }
                    }
                }
                "--synthetic" => {
                    i += 1;
                    let spec = require_value(args, i, "--synthetic")?;
                    cfg.synthetic = Some(parse_synthetic(&spec)?);
                }
                other if other.starts_with('-') => {
                    return Err(UsageError(format!("unknown flag `{other}` (see --help)")));
                }
                path => cfg.batch_scripts.push(path.to_owned()),
            }
            i += 1;
        }
        Ok(cfg)
    }

    /// Resolve the serve-mode environment fallbacks (`CLIO_PORT`,
    /// `CLIO_MAX_CONNS`, `CLIO_IDLE_MS`) into any still-unset field.
    /// Flags win over the environment; a malformed environment value is
    /// a usage error (exit 2) exactly like its flag form. `get` is the
    /// environment lookup, injectable for tests.
    pub fn apply_net_env(
        &mut self,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<(), UsageError> {
        if self.port.is_none() {
            if let Some(value) = get("CLIO_PORT") {
                match value.parse::<u16>() {
                    Ok(n) => self.port = Some(n),
                    Err(_) => {
                        return Err(UsageError(format!(
                            "CLIO_PORT expects a port number (0-65535), got `{value}`"
                        )))
                    }
                }
            }
        }
        if self.max_conns.is_none() {
            if let Some(value) = get("CLIO_MAX_CONNS") {
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => self.max_conns = Some(n),
                    _ => {
                        return Err(UsageError(format!(
                            "CLIO_MAX_CONNS expects a positive integer, got `{value}`"
                        )))
                    }
                }
            }
        }
        if self.idle_ms.is_none() {
            if let Some(value) = get("CLIO_IDLE_MS") {
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => self.idle_ms = Some(n),
                    _ => {
                        return Err(UsageError(format!(
                            "CLIO_IDLE_MS expects a positive integer (milliseconds), got `{value}`"
                        )))
                    }
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
            "--sessions",
            "2",
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
        assert_eq!(cfg.sessions_width, Some(2));
        assert_eq!(cfg.trace_filter.as_deref(), Some("fd.lattice"));
        assert!(cfg.trace, "--trace-filter implies --trace");
        assert_eq!(cfg.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(cfg.slow_ms, Some(25));
        assert!(cfg.no_cache);
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
}
