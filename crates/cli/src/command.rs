//! The shell's typed command language: one [`Command`] per line.
//!
//! [`parse`] turns a raw input line into a [`Command`] (or a
//! [`ParseError`] carrying the exact message the shell prints), and the
//! [`command_specs`] table drives both the parser's vocabulary and the
//! `help` text ([`help_text`]) — a command cannot ship undocumented,
//! because the help is generated from the same table the tests check
//! the parser against. Multi-word command families (`cache …`, `db …`,
//! `map …`) are each one typed [`SubcommandSpec`] table: the same
//! entry carries the help line *and* the argument parser, and the
//! generic `parse_family` dispatcher produces uniform `unknown
//! … subcommand` errors. [`Shell`](crate::engine::Shell) dispatches
//! exhaustively on the enum, so adding a variant without wiring it up
//! is a compile error.

use std::fmt;

/// One entry of the command table: a usage line plus description lines
/// for `help`.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// Usage column, e.g. `"corr <expr> -> <attr>"`. The first word is
    /// the command keyword.
    pub usage: &'static str,
    /// Description lines (empty for self-explanatory commands).
    pub description: &'static [&'static str],
}

/// One typed subcommand of a command family (`cache …`, `db …`,
/// `map …`): the entry that appears in `help` plus the parser for the
/// subcommand's argument tail. Keeping both in one row means a family
/// subcommand cannot be parsed without being documented, or vice versa.
pub struct SubcommandSpec<A: 'static> {
    /// Usage column, e.g. `"cache limit <bytes>"`: the first word is
    /// the family keyword, the second (when not an argument
    /// placeholder) the subcommand name.
    pub usage: &'static str,
    /// Description lines for `help`.
    pub description: &'static [&'static str],
    /// Parse the (trimmed) argument tail into the family's action.
    pub parse: fn(&str) -> Result<A, ParseError>,
}

impl<A> SubcommandSpec<A> {
    /// The subcommand name: the second word of the usage line, or `""`
    /// for the family's bare form (`cache`, `db`).
    fn name(&self) -> &'static str {
        let mut words = self.usage.split(' ');
        let _family = words.next();
        match words.next() {
            Some(w) if !w.starts_with('<') && !w.starts_with('[') => w,
            _ => "",
        }
    }

    /// This row's `help` entry.
    fn spec(&self) -> CommandSpec {
        CommandSpec {
            usage: self.usage,
            description: self.description,
        }
    }
}

/// Dispatch `rest` (everything after the family keyword) against a
/// subcommand table: split off the subcommand word, find its row, and
/// run the row's argument parser. Unknown subcommands get the uniform
/// ``unknown {family} subcommand `{sub}` (try `help`)`` error; a bare
/// family word with no bare-form row gets a usage line listing the
/// subcommand names.
fn parse_family<A>(
    family: &'static str,
    table: &'static [SubcommandSpec<A>],
    rest: &str,
) -> Result<A, ParseError> {
    let (sub, arg) = rest.split_once(' ').unwrap_or((rest, ""));
    let arg = arg.trim();
    if let Some(spec) = table.iter().find(|s| s.name() == sub) {
        return (spec.parse)(arg);
    }
    if sub.is_empty() {
        let names: Vec<&str> = table
            .iter()
            .map(SubcommandSpec::name)
            .filter(|n| !n.is_empty())
            .collect();
        return err(format!("usage: {family} <{}>", names.join("|")));
    }
    err(format!("unknown {family} subcommand `{sub}` (try `help`)"))
}

/// The `cache` family: one row per subcommand, driving parser and help.
pub static CACHE_SUBCOMMANDS: &[SubcommandSpec<CacheAction>] = &[
    SubcommandSpec {
        usage: "cache",
        description: &["incremental-cache statistics (see", "docs/incremental.md)"],
        parse: |_| Ok(CacheAction::Stats),
    },
    SubcommandSpec {
        usage: "cache save [<dir>]",
        description: &[
            "spill cached tables to the attached",
            "store (--cache-dir) or to <dir>",
        ],
        parse: |arg| Ok(CacheAction::Save(opt_arg(arg))),
    },
    SubcommandSpec {
        usage: "cache load [<dir>]",
        description: &[
            "pre-warm the cache from the attached",
            "store (--cache-dir) or from <dir>",
        ],
        parse: |arg| Ok(CacheAction::Load(opt_arg(arg))),
    },
    SubcommandSpec {
        usage: "cache clear",
        description: &["drop every resident cache entry"],
        parse: |_| Ok(CacheAction::Clear),
    },
    SubcommandSpec {
        usage: "cache limit <bytes>",
        description: &["set the cache's eviction byte budget"],
        parse: |arg| {
            if arg.is_empty() {
                return err("usage: cache limit <bytes>");
            }
            Ok(CacheAction::Limit(parse_arg("a byte budget", arg)?))
        },
    },
];

/// The `db` family.
pub static DB_SUBCOMMANDS: &[SubcommandSpec<DbAction>] = &[
    SubcommandSpec {
        usage: "db",
        description: &["storage-backend statistics (see", "docs/storage.md)"],
        parse: |_| Ok(DbAction::Stats),
    },
    SubcommandSpec {
        usage: "db save <dir>",
        description: &["write the source database as a paged", "on-disk directory"],
        parse: |arg| {
            if arg.is_empty() {
                return err("usage: db save <dir>");
            }
            Ok(DbAction::Save(arg.to_owned()))
        },
    },
    SubcommandSpec {
        usage: "db load <dir>",
        description: &[
            "restart the session over a paged",
            "database (also: clio --db-dir)",
        ],
        parse: |arg| {
            if arg.is_empty() {
                return err("usage: db load <dir>");
            }
            Ok(DbAction::Load(arg.to_owned()))
        },
    },
];

/// The `map` family: the MAP statement language (docs/planner.md).
pub static MAP_SUBCOMMANDS: &[SubcommandSpec<MapAction>] = &[SubcommandSpec {
    usage: "map show",
    description: &["print the active mapping as a MAP", "statement"],
    parse: |_| Ok(MapAction::Show),
}];

fn opt_arg(arg: &str) -> Option<String> {
    if arg.is_empty() {
        None
    } else {
        Some(arg.to_owned())
    }
}

/// Standalone commands listed before the subcommand families, in
/// `help` order.
const COMMANDS_HEAD: &[CommandSpec] = &[
    CommandSpec {
        usage: "source",
        description: &["show the source schema and constraints"],
    },
    CommandSpec {
        usage: "show <relation>",
        description: &["print a source relation"],
    },
    CommandSpec {
        usage: "target",
        description: &["WYSIWYG preview of the target"],
    },
    CommandSpec {
        usage: "corr <expr> -> <attr>",
        description: &["add a value correspondence (may spawn scenarios)"],
    },
    CommandSpec {
        usage: "walk [<start>] <relation>",
        description: &["link a relation via schema knowledge"],
    },
    CommandSpec {
        usage: "chase <alias>.<attr> <val>",
        description: &["chase a value through the database"],
    },
    CommandSpec {
        usage: "workspaces",
        description: &["list mapping alternatives (* = active)"],
    },
    CommandSpec {
        usage: "activate|confirm|delete <id>",
        description: &[],
    },
    CommandSpec {
        usage: "accept",
        description: &["accept the active mapping for the target"],
    },
    CommandSpec {
        usage: "illustration",
        description: &["show the active mapping's illustration"],
    },
    CommandSpec {
        usage: "induced",
        description: &["the target tuples the illustration induces"],
    },
    CommandSpec {
        usage: "alternatives <slot>",
        description: &["other examples that could fill a slot"],
    },
    CommandSpec {
        usage: "swap <slot> <alt>",
        description: &["replace an illustration example"],
    },
    CommandSpec {
        usage: "examples",
        description: &["show ALL examples of the active mapping"],
    },
    CommandSpec {
        usage: "mapping",
        description: &["print the active mapping"],
    },
    CommandSpec {
        usage: "sql",
        description: &["generate SQL for the active mapping"],
    },
    CommandSpec {
        usage: "filter source|target <pred>",
        description: &["add a data-trimming filter"],
    },
    CommandSpec {
        usage: "require <attr>",
        description: &["make a target attribute required"],
    },
    CommandSpec {
        usage: "status",
        description: &["session summary"],
    },
    CommandSpec {
        usage: "stats [reset|<operation>]",
        description: &[
            "engine work counters, optionally filtered",
            "by name, e.g. `stats chase` (see",
            "docs/observability.md)",
        ],
    },
    CommandSpec {
        usage: "trace [<name>]",
        description: &[
            "live span tree so far, optionally filtered",
            "by span name (requires --trace or",
            "--trace-filter)",
        ],
    },
];

/// Standalone commands listed after the subcommand families, in
/// `help` order.
const COMMANDS_TAIL: &[CommandSpec] = &[
    CommandSpec {
        usage: "profile",
        description: &["per-attribute statistics of the source"],
    },
    CommandSpec {
        usage: "profile spans [<n>]",
        description: &[
            "top-n spans by self time with latency",
            "percentiles (requires --trace,",
            "--trace-out, or --slow-ms)",
        ],
    },
    CommandSpec {
        usage: "mine [containment]",
        description: &["mine join candidates from the data"],
    },
    CommandSpec {
        usage: "verify [key,attrs]",
        description: &["data-driven mapping diagnostics"],
    },
    CommandSpec {
        usage: "contributions",
        description: &["per-accepted-mapping contribution report"],
    },
    CommandSpec {
        usage: "save <file> / load <file>",
        description: &[
            "write the active mapping as a MAP statement",
            "/ load one as a new workspace",
        ],
    },
    CommandSpec {
        usage: "explain",
        description: &[
            "evaluation plan of the active mapping",
            "(see docs/planner.md)",
        ],
    },
    CommandSpec {
        usage: "quit",
        description: &[],
    },
];

/// Every shell command's `help` entry, in `help` order: the standalone
/// commands plus one entry per row of the `cache`/`db`/`map`
/// subcommand tables — the same rows the parser dispatches on, so help
/// and parser cannot drift apart.
#[must_use]
pub fn command_specs() -> Vec<CommandSpec> {
    let mut out = Vec::new();
    out.extend_from_slice(COMMANDS_HEAD);
    out.extend(CACHE_SUBCOMMANDS.iter().map(SubcommandSpec::spec));
    out.extend(DB_SUBCOMMANDS.iter().map(SubcommandSpec::spec));
    out.extend(MAP_SUBCOMMANDS.iter().map(SubcommandSpec::spec));
    out.extend_from_slice(COMMANDS_TAIL);
    out
}

/// The `help` text, generated from [`command_specs`]: usage column at
/// character 2, description column at character 30, continuation lines
/// indented to the description column.
#[must_use]
pub fn help_text() -> String {
    let mut out = String::from("commands:\n");
    for spec in command_specs() {
        out.push_str("  ");
        out.push_str(spec.usage);
        for (i, line) in spec.description.iter().enumerate() {
            if i == 0 {
                let pad = 30usize.saturating_sub(2 + spec.usage.len()).max(1);
                out.push_str(&" ".repeat(pad));
            } else {
                out.push('\n');
                out.push_str(&" ".repeat(30));
            }
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Which side a `filter` applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Trim the source data feeding the mapping.
    Source,
    /// Trim the produced target tuples.
    Target,
}

/// The `stats` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsAction {
    /// `stats reset` — zero every counter of the current scope.
    Reset,
    /// `stats [<operation>]` — render counters whose dotted name
    /// contains the filter (empty filter = all).
    Show(String),
}

/// The `cache` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheAction {
    /// `cache` — print cache (and attached-store) statistics.
    Stats,
    /// `cache save [<dir>]` — spill resident entries to the attached
    /// store, or to an ad-hoc disk store over `<dir>`.
    Save(Option<String>),
    /// `cache load [<dir>]` — pre-warm the cache from the attached
    /// store, or from an ad-hoc disk store over `<dir>`.
    Load(Option<String>),
    /// `cache clear` — drop every resident entry.
    Clear,
    /// `cache limit <bytes>` — set the eviction byte budget at runtime.
    Limit(usize),
}

/// The `db` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbAction {
    /// `db` — print storage-backend statistics.
    Stats,
    /// `db save <dir>` — write the source database as a paged on-disk
    /// directory under `<dir>`.
    Save(String),
    /// `db load <dir>` — restart the session over the paged database
    /// at `<dir>`.
    Load(String),
}

/// The `map` subcommands (the MAP statement language).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapAction {
    /// `map show` — print the active mapping as a MAP statement.
    Show,
}

/// One parsed shell command. Field-free variants read the session;
/// fields carry everything dispatch needs, already validated as far as
/// parsing alone can.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// A blank or `#`-comment line: print nothing, keep going.
    Noop,
    /// `quit` / `exit`.
    Quit,
    /// `help`.
    Help,
    /// `source`.
    Source,
    /// `show <relation>`.
    Show {
        /// Relation to print.
        relation: String,
    },
    /// `target`.
    Target,
    /// `corr <expr> -> <attr>`.
    Corr {
        /// Source-side expression.
        expr: String,
        /// Target attribute.
        attr: String,
    },
    /// `walk [<start>] <relation>`.
    Walk {
        /// Optional start relation.
        start: Option<String>,
        /// Relation to link.
        relation: String,
    },
    /// `chase <alias>.<attr> <value>`.
    Chase {
        /// Node alias to chase from.
        alias: String,
        /// Attribute at the alias.
        attr: String,
        /// Value to chase.
        value: String,
    },
    /// `workspaces`.
    Workspaces,
    /// `activate <id>`.
    Activate {
        /// Workspace id.
        id: usize,
    },
    /// `confirm <id>`.
    Confirm {
        /// Workspace id.
        id: usize,
    },
    /// `delete <id>`.
    Delete {
        /// Workspace id.
        id: usize,
    },
    /// `accept`.
    Accept,
    /// `illustration`.
    Illustration,
    /// `induced`.
    Induced,
    /// `alternatives <slot>`.
    Alternatives {
        /// Illustration slot.
        slot: usize,
    },
    /// `swap <slot> <alt>`.
    Swap {
        /// Illustration slot.
        slot: usize,
        /// Alternative index.
        alt: usize,
    },
    /// `examples`.
    Examples,
    /// `mapping`.
    Mapping,
    /// `sql`.
    Sql,
    /// `filter source|target <pred>`.
    Filter {
        /// Which side the filter trims.
        kind: FilterKind,
        /// Predicate text.
        predicate: String,
    },
    /// `require <attr>`.
    Require {
        /// Target attribute to require.
        attr: String,
    },
    /// `status`.
    Status,
    /// `stats [reset|<operation>]`.
    Stats(StatsAction),
    /// `trace [<name>]`.
    Trace {
        /// Span-name filter (empty = all).
        filter: String,
    },
    /// `cache [save|load|clear|limit ...]`.
    Cache(CacheAction),
    /// `db [save|load ...]`.
    Db(DbAction),
    /// `map show`.
    Map(MapAction),
    /// `explain`.
    Explain,
    /// `profile`.
    Profile,
    /// `profile spans [<n>]`.
    ProfileSpans {
        /// How many spans to list (dispatch default: 10).
        top: Option<usize>,
    },
    /// `mine [containment]`.
    Mine {
        /// Minimum containment fraction (default applied at dispatch).
        min_containment: Option<f64>,
    },
    /// `verify [key,attrs]`.
    Verify {
        /// Explicit key attribute sets; `None` = default keys.
        keys: Option<Vec<String>>,
    },
    /// `contributions`.
    Contributions,
    /// `save <file>`.
    SaveMapping {
        /// Output path.
        path: String,
    },
    /// `load <file>`.
    LoadMapping {
        /// Input path.
        path: String,
    },
}

impl Command {
    /// The `net.request.*` latency histogram the network front-end files
    /// this command under: one per verb (`profile spans` is `profile`),
    /// so the names must stay stable. Histogram names are `'static`,
    /// hence one literal per verb.
    #[must_use]
    pub fn hist_name(&self) -> &'static str {
        match self {
            Command::Noop => "net.request.noop",
            Command::Quit => "net.request.quit",
            Command::Help => "net.request.help",
            Command::Source => "net.request.source",
            Command::Show { .. } => "net.request.show",
            Command::Target => "net.request.target",
            Command::Corr { .. } => "net.request.corr",
            Command::Walk { .. } => "net.request.walk",
            Command::Chase { .. } => "net.request.chase",
            Command::Workspaces => "net.request.workspaces",
            Command::Activate { .. } => "net.request.activate",
            Command::Confirm { .. } => "net.request.confirm",
            Command::Delete { .. } => "net.request.delete",
            Command::Accept => "net.request.accept",
            Command::Illustration => "net.request.illustration",
            Command::Induced => "net.request.induced",
            Command::Alternatives { .. } => "net.request.alternatives",
            Command::Swap { .. } => "net.request.swap",
            Command::Examples => "net.request.examples",
            Command::Mapping => "net.request.mapping",
            Command::Sql => "net.request.sql",
            Command::Filter { .. } => "net.request.filter",
            Command::Require { .. } => "net.request.require",
            Command::Status => "net.request.status",
            Command::Stats(_) => "net.request.stats",
            Command::Trace { .. } => "net.request.trace",
            Command::Cache(_) => "net.request.cache",
            Command::Db(_) => "net.request.db",
            Command::Map(_) => "net.request.map",
            Command::Explain => "net.request.explain",
            Command::Profile | Command::ProfileSpans { .. } => "net.request.profile",
            Command::Mine { .. } => "net.request.mine",
            Command::Verify { .. } => "net.request.verify",
            Command::Contributions => "net.request.contributions",
            Command::SaveMapping { .. } => "net.request.save",
            Command::LoadMapping { .. } => "net.request.load",
        }
    }
}

/// A line the parser rejected, carrying exactly the message the shell
/// prints after `error: `.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parse `s` as a `T`, or fail with ``expected {what}, got `{s}` ``.
fn parse_arg<T: std::str::FromStr>(what: &str, s: &str) -> Result<T, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("expected {what}, got `{s}`")))
}

/// [`parse_arg`] for an optional argument: an empty one is `None`.
fn parse_opt_arg<T: std::str::FromStr>(what: &str, s: &str) -> Result<Option<T>, ParseError> {
    if s.is_empty() {
        Ok(None)
    } else {
        parse_arg(what, s).map(Some)
    }
}

fn parse_id(s: &str) -> Result<usize, ParseError> {
    s.trim()
        .parse()
        .map_err(|_| ParseError(format!("expected a workspace id, got `{s}`")))
}

/// Parse one input line into a [`Command`].
///
/// Whitespace is trimmed; blank lines and `#` comments parse to
/// [`Command::Noop`]. Errors carry the exact user-facing message.
pub fn parse(line: &str) -> Result<Command, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Command::Noop);
    }
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    let rest = rest.trim();
    match cmd {
        "quit" | "exit" if rest.is_empty() => Ok(Command::Quit),
        "help" => Ok(Command::Help),
        "source" => Ok(Command::Source),
        "show" => Ok(Command::Show {
            relation: rest.to_owned(),
        }),
        "target" => Ok(Command::Target),
        "corr" => {
            let idx = rest
                .rfind(" -> ")
                .ok_or_else(|| ParseError("usage: corr <expr> -> <attr>".into()))?;
            Ok(Command::Corr {
                expr: rest[..idx].trim().to_owned(),
                attr: rest[idx + 4..].trim().to_owned(),
            })
        }
        "walk" => {
            let mut words = rest.split_whitespace();
            let first = words
                .next()
                .ok_or_else(|| ParseError("usage: walk [<start>] <relation>".into()))?;
            Ok(match words.next() {
                Some(second) => Command::Walk {
                    start: Some(first.to_owned()),
                    relation: second.to_owned(),
                },
                None => Command::Walk {
                    start: None,
                    relation: first.to_owned(),
                },
            })
        }
        "chase" => {
            let usage = || ParseError("usage: chase <alias>.<attr> <value>".into());
            let (site, value) = rest.split_once(' ').ok_or_else(usage)?;
            let (alias, attr) = site.split_once('.').ok_or_else(usage)?;
            Ok(Command::Chase {
                alias: alias.to_owned(),
                attr: attr.to_owned(),
                value: value.trim().to_owned(),
            })
        }
        "workspaces" => Ok(Command::Workspaces),
        "activate" => Ok(Command::Activate {
            id: parse_id(rest)?,
        }),
        "confirm" => Ok(Command::Confirm {
            id: parse_id(rest)?,
        }),
        "delete" => Ok(Command::Delete {
            id: parse_id(rest)?,
        }),
        "accept" => Ok(Command::Accept),
        "illustration" => Ok(Command::Illustration),
        "induced" => Ok(Command::Induced),
        "alternatives" => Ok(Command::Alternatives {
            slot: parse_id(rest)?,
        }),
        "swap" => {
            let (slot, alt) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError("usage: swap <slot> <alternative>".into()))?;
            Ok(Command::Swap {
                slot: parse_id(slot)?,
                alt: parse_id(alt)?,
            })
        }
        "examples" => Ok(Command::Examples),
        "mapping" => Ok(Command::Mapping),
        "sql" => Ok(Command::Sql),
        "filter" => {
            let (kind, pred) = rest
                .split_once(' ')
                .ok_or_else(|| ParseError("usage: filter source|target <pred>".into()))?;
            let kind = match kind {
                "source" => FilterKind::Source,
                "target" => FilterKind::Target,
                other => return err(format!("unknown filter kind `{other}`")),
            };
            Ok(Command::Filter {
                kind,
                predicate: pred.trim().to_owned(),
            })
        }
        "require" => Ok(Command::Require {
            attr: rest.to_owned(),
        }),
        "status" => Ok(Command::Status),
        "stats" => Ok(Command::Stats(if rest == "reset" {
            StatsAction::Reset
        } else {
            StatsAction::Show(rest.to_owned())
        })),
        "trace" => Ok(Command::Trace {
            filter: rest.to_owned(),
        }),
        "cache" => Ok(Command::Cache(parse_family(
            "cache",
            CACHE_SUBCOMMANDS,
            rest,
        )?)),
        "db" => Ok(Command::Db(parse_family("db", DB_SUBCOMMANDS, rest)?)),
        "map" => Ok(Command::Map(parse_family("map", MAP_SUBCOMMANDS, rest)?)),
        "explain" => Ok(Command::Explain),
        "profile" => {
            let (sub, arg) = rest.split_once(' ').unwrap_or((rest, ""));
            let arg = arg.trim();
            match sub {
                "" => Ok(Command::Profile),
                "spans" => Ok(Command::ProfileSpans {
                    top: parse_opt_arg("a span count", arg)?,
                }),
                other => err(format!("unknown profile subcommand `{other}` (try `help`)")),
            }
        }
        "mine" => Ok(Command::Mine {
            min_containment: parse_opt_arg("a containment fraction", rest)?,
        }),
        "verify" => {
            let keys = if rest.is_empty() {
                None
            } else {
                Some(rest.split(',').map(|s| s.trim().to_owned()).collect())
            };
            Ok(Command::Verify { keys })
        }
        "contributions" => Ok(Command::Contributions),
        "save" => Ok(Command::SaveMapping {
            path: rest.to_owned(),
        }),
        "load" => Ok(Command::LoadMapping {
            path: rest.to_owned(),
        }),
        other => err(format!("unknown command `{other}` (try `help`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_comment_quit() {
        assert_eq!(parse("").unwrap(), Command::Noop);
        assert_eq!(parse("  # hi").unwrap(), Command::Noop);
        assert_eq!(parse("quit").unwrap(), Command::Quit);
        assert_eq!(parse("exit").unwrap(), Command::Quit);
        // `quit` with trailing words is not a quit
        assert!(parse("quit now").unwrap_err().0.contains("unknown command"));
    }

    #[test]
    fn structured_arguments() {
        assert_eq!(
            parse("corr Children.ID -> ID").unwrap(),
            Command::Corr {
                expr: "Children.ID".into(),
                attr: "ID".into()
            }
        );
        assert_eq!(
            parse("walk Parents SBPS").unwrap(),
            Command::Walk {
                start: Some("Parents".into()),
                relation: "SBPS".into()
            }
        );
        assert_eq!(
            parse("chase Children.ID 002").unwrap(),
            Command::Chase {
                alias: "Children".into(),
                attr: "ID".into(),
                value: "002".into()
            }
        );
        assert_eq!(
            parse("swap 1 2").unwrap(),
            Command::Swap { slot: 1, alt: 2 }
        );
        assert_eq!(
            parse("filter source C.age > 3").unwrap(),
            Command::Filter {
                kind: FilterKind::Source,
                predicate: "C.age > 3".into()
            }
        );
        assert_eq!(
            parse("verify ID, name").unwrap(),
            Command::Verify {
                keys: Some(vec!["ID".into(), "name".into()])
            }
        );
        assert_eq!(
            parse("mine").unwrap(),
            Command::Mine {
                min_containment: None
            }
        );
        assert_eq!(
            parse("mine 0.8").unwrap(),
            Command::Mine {
                min_containment: Some(0.8)
            }
        );
    }

    #[test]
    fn cache_subcommands() {
        assert_eq!(parse("cache").unwrap(), Command::Cache(CacheAction::Stats));
        assert_eq!(
            parse("cache save").unwrap(),
            Command::Cache(CacheAction::Save(None))
        );
        assert_eq!(
            parse("cache save /tmp/x").unwrap(),
            Command::Cache(CacheAction::Save(Some("/tmp/x".into())))
        );
        assert_eq!(
            parse("cache load /tmp/x").unwrap(),
            Command::Cache(CacheAction::Load(Some("/tmp/x".into())))
        );
        assert_eq!(
            parse("cache clear").unwrap(),
            Command::Cache(CacheAction::Clear)
        );
        assert_eq!(
            parse("cache limit 1048576").unwrap(),
            Command::Cache(CacheAction::Limit(1_048_576))
        );
        assert_eq!(
            parse("cache limit").unwrap_err().0,
            "usage: cache limit <bytes>"
        );
        assert_eq!(
            parse("cache limit lots").unwrap_err().0,
            "expected a byte budget, got `lots`"
        );
        assert!(parse("cache frobnicate")
            .unwrap_err()
            .0
            .contains("unknown cache subcommand"));
    }

    #[test]
    fn db_subcommands() {
        assert_eq!(parse("db").unwrap(), Command::Db(DbAction::Stats));
        assert_eq!(
            parse("db save /tmp/paged").unwrap(),
            Command::Db(DbAction::Save("/tmp/paged".into()))
        );
        assert_eq!(
            parse("db load /tmp/paged").unwrap(),
            Command::Db(DbAction::Load("/tmp/paged".into()))
        );
        assert_eq!(parse("db save").unwrap_err().0, "usage: db save <dir>");
        assert_eq!(parse("db load").unwrap_err().0, "usage: db load <dir>");
        assert!(parse("db frobnicate")
            .unwrap_err()
            .0
            .contains("unknown db subcommand"));
    }

    #[test]
    fn profile_subcommands() {
        assert_eq!(parse("profile").unwrap(), Command::Profile);
        assert_eq!(
            parse("profile spans").unwrap(),
            Command::ProfileSpans { top: None }
        );
        assert_eq!(
            parse("profile spans 5").unwrap(),
            Command::ProfileSpans { top: Some(5) }
        );
        assert_eq!(
            parse("profile spans many").unwrap_err().0,
            "expected a span count, got `many`"
        );
        assert!(parse("profile everything")
            .unwrap_err()
            .0
            .contains("unknown profile subcommand"));
    }

    #[test]
    fn error_messages_are_stable() {
        assert_eq!(
            parse("corr nonsense").unwrap_err().0,
            "usage: corr <expr> -> <attr>"
        );
        assert_eq!(
            parse("walk").unwrap_err().0,
            "usage: walk [<start>] <relation>"
        );
        assert_eq!(
            parse("chase x").unwrap_err().0,
            "usage: chase <alias>.<attr> <value>"
        );
        assert_eq!(
            parse("confirm x").unwrap_err().0,
            "expected a workspace id, got `x`"
        );
        assert_eq!(
            parse("filter").unwrap_err().0,
            "usage: filter source|target <pred>"
        );
        assert_eq!(
            parse("filter both p").unwrap_err().0,
            "unknown filter kind `both`"
        );
        assert_eq!(
            parse("mine nonsense").unwrap_err().0,
            "expected a containment fraction, got `nonsense`"
        );
        assert_eq!(
            parse("bogus").unwrap_err().0,
            "unknown command `bogus` (try `help`)"
        );
    }

    /// Every keyword in the command table parses (possibly to a usage
    /// error, but never to `unknown command`), and every keyword the
    /// parser accepts appears in the table — help and parser cannot
    /// drift apart.
    #[test]
    fn map_subcommands() {
        assert_eq!(parse("map show").unwrap(), Command::Map(MapAction::Show));
        assert_eq!(parse("map").unwrap_err().0, "usage: map <show>");
        assert!(parse("map load demo.map")
            .unwrap_err()
            .0
            .contains("unknown map subcommand `load`"));
        assert!(parse("map frobnicate")
            .unwrap_err()
            .0
            .contains("unknown map subcommand"));
        assert_eq!(parse("explain").unwrap(), Command::Explain);
        assert_eq!(parse("explain").unwrap().hist_name(), "net.request.explain");
        assert_eq!(parse("map show").unwrap().hist_name(), "net.request.map");
    }

    /// The family dispatcher's errors are byte-identical to the
    /// pre-table inline parsers' (scripts match on them).
    #[test]
    fn family_errors_are_stable() {
        assert_eq!(
            parse("cache frobnicate").unwrap_err().0,
            "unknown cache subcommand `frobnicate` (try `help`)"
        );
        assert_eq!(
            parse("db frobnicate").unwrap_err().0,
            "unknown db subcommand `frobnicate` (try `help`)"
        );
        assert_eq!(parse("db save").unwrap_err().0, "usage: db save <dir>");
        assert_eq!(parse("db load").unwrap_err().0, "usage: db load <dir>");
        assert_eq!(
            parse("cache limit").unwrap_err().0,
            "usage: cache limit <bytes>"
        );
    }

    #[test]
    fn table_and_parser_agree() {
        for spec in command_specs() {
            let keyword = spec.usage.split([' ', '|']).next().unwrap();
            if let Err(e) = parse(keyword) {
                assert!(
                    !e.0.contains("unknown command"),
                    "`{keyword}` is documented but not parsed"
                );
            }
        }
        // spot-check the reverse direction: parser keywords that must
        // be documented (the full set is pinned by help formatting
        // below plus the engine's exhaustive dispatch)
        for keyword in [
            "source",
            "show",
            "target",
            "corr",
            "walk",
            "chase",
            "workspaces",
            "activate",
            "confirm",
            "delete",
            "accept",
            "illustration",
            "induced",
            "alternatives",
            "swap",
            "examples",
            "mapping",
            "sql",
            "filter",
            "require",
            "status",
            "stats",
            "trace",
            "cache",
            "db",
            "profile",
            "mine",
            "verify",
            "contributions",
            "save",
            "load",
            "map",
            "explain",
            "quit",
        ] {
            assert!(
                command_specs()
                    .iter()
                    .any(|s| s.usage.split([' ', '|']).next() == Some(keyword)
                        || s.usage.split([' ', '|']).any(|w| w == keyword)),
                "parser keyword `{keyword}` is undocumented"
            );
        }
    }

    #[test]
    fn help_text_is_aligned() {
        let help = help_text();
        assert!(help.starts_with("commands:\n"));
        // every described entry puts its description at column 30
        assert!(help.contains("  source                      show the source schema"));
        assert!(help.contains("  cache limit <bytes>         set the cache's eviction byte budget"));
        assert!(help.contains("  db save <dir>               write the source database as a paged"));
        assert!(help
            .contains("  save <file> / load <file>   write the active mapping as a MAP statement"));
        assert!(help.contains("  map show                    print the active mapping as a MAP"));
        assert!(
            help.contains("  explain                     evaluation plan of the active mapping")
        );
        assert!(help.contains("  quit\n"));
        // continuation lines land on the same column
        assert!(help.contains("\n                              by name, e.g. `stats chase`"));
    }
}
