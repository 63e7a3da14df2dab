//! The command engine behind the `clio` shell: parses one command line
//! at a time (via [`crate::command::parse`]) and drives a [`Session`].
//! Pure (text in, text out) so it is unit-testable and scriptable.

use std::fmt::Write as _;

use clio_core::illustration::Illustration;
use clio_core::session::Session;
use clio_core::sql::{generate_sql, SqlOptions};
use clio_relational::error::{Error, Result};
use clio_relational::schema::RelSchema;
use clio_relational::value::Value;

use crate::command::{self, CacheAction, Command, DbAction, FilterKind, MapAction, StatsAction};

/// The file in a paged database directory that names the session's
/// target schema; `db save` writes it, `db load` and `--db-dir` read it.
pub const TARGET_FILE: &str = "_target.txt";

/// Read a paged database directory's [`TARGET_FILE`].
pub fn read_target_file(dir: &std::path::Path) -> Result<RelSchema> {
    let path = dir.join(TARGET_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| Error::Invalid(format!("cannot read `{}`: {e}", path.display())))?;
    clio_lang::parse_target_schema(&text)
}

/// The shell state: a session plus presentation settings.
pub struct Shell {
    /// The underlying Clio session.
    pub session: Session,
}

/// Outcome of one command.
pub enum Outcome {
    /// Keep reading commands; the string is the command's output.
    Continue(String),
    /// Exit the shell.
    Quit,
}

impl Shell {
    /// Create a shell over a session.
    #[must_use]
    pub fn new(session: Session) -> Shell {
        Shell { session }
    }

    /// Execute one command line. Parse and dispatch errors are rendered
    /// into the output rather than propagated, so a shell script keeps
    /// going.
    pub fn execute(&mut self, line: &str) -> Outcome {
        let cmd = match command::parse(line) {
            Ok(cmd) => cmd,
            Err(e) => return Outcome::Continue(format!("error: {e}\n")),
        };
        match cmd {
            Command::Noop => Outcome::Continue(String::new()),
            Command::Quit => Outcome::Quit,
            cmd => match self.dispatch(cmd) {
                Ok(out) => Outcome::Continue(out),
                Err(e) => Outcome::Continue(format!("error: {e}\n")),
            },
        }
    }

    fn dispatch(&mut self, cmd: Command) -> Result<String> {
        match cmd {
            // Noop/Quit are consumed by `execute`; they produce nothing.
            Command::Noop => Ok(String::new()),
            Command::Quit => Ok(String::new()),
            Command::Help => Ok(command::help_text()),
            Command::Source => {
                let mut out = String::new();
                for rel in self.session.database().relations() {
                    let _ = writeln!(out, "{} ({} rows)", rel.schema(), rel.len());
                }
                for fk in &self.session.database().constraints.foreign_keys {
                    let _ = writeln!(out, "{fk}");
                }
                Ok(out)
            }
            Command::Show { relation } => {
                let rel = self.session.database().relation(&relation)?;
                Ok(rel.to_string())
            }
            Command::Target => Ok(self.session.target_preview()?.to_string()),
            Command::Corr { expr, attr } => {
                let ids = self.session.add_correspondence(&expr, &attr)?;
                if ids.len() == 1 {
                    Ok(format!("ok (workspace {})\n", ids[0]))
                } else {
                    let mut out = format!(
                        "{} scenario(s) created; inspect and confirm one:\n",
                        ids.len()
                    );
                    for id in ids {
                        let w = self.workspace(id)?;
                        let _ = writeln!(out, "  workspace {id}: {}", w.description);
                    }
                    Ok(out)
                }
            }
            Command::Walk { start, relation } => {
                let ids = self.session.data_walk(start.as_deref(), &relation)?;
                let mut out = format!("{} scenario(s):\n", ids.len());
                for id in ids {
                    let w = self.workspace(id)?;
                    let _ = writeln!(out, "  workspace {id}: {}", w.description);
                }
                Ok(out)
            }
            Command::Chase { alias, attr, value } => {
                let ids = self.session.data_chase(&alias, &attr, &Value::str(value))?;
                let mut out = format!("{} scenario(s):\n", ids.len());
                for id in ids {
                    let w = self.workspace(id)?;
                    let _ = writeln!(out, "  workspace {id}: {}", w.description);
                }
                Ok(out)
            }
            Command::Workspaces => {
                let mut out = String::new();
                let active = self.session.active().map(|w| w.id);
                for w in self.session.workspaces() {
                    let marker = if Some(w.id) == active { "*" } else { " " };
                    let _ = writeln!(out, "{marker} {}: {}", w.id, w.description);
                }
                Ok(out)
            }
            Command::Activate { id } => {
                self.session.activate(id)?;
                Ok("ok\n".to_owned())
            }
            Command::Confirm { id } => {
                self.session.confirm(id)?;
                Ok("ok\n".to_owned())
            }
            Command::Delete { id } => {
                self.session.delete(id)?;
                Ok("ok\n".to_owned())
            }
            Command::Accept => {
                self.session.accept_active()?;
                Ok(format!(
                    "accepted ({} total)\n",
                    self.session.accepted().len()
                ))
            }
            Command::Illustration => {
                let db = self.session.shared_database();
                let w = self.active()?;
                let scheme = w.mapping.graph.scheme(&db)?;
                Ok(w.illustration.render(&w.mapping.graph, &scheme))
            }
            Command::Induced => {
                // target-side of the illustration: the tuples each
                // example induces (paper Def 4.1's t = Q_phi(M)(d))
                let w = self.active()?;
                let tscheme = w.mapping.target_scheme();
                let refs: Vec<&clio_core::example::Example> =
                    w.illustration.examples.iter().collect();
                Ok(clio_core::example::render_example_targets(&tscheme, &refs))
            }
            Command::Mapping => Ok(self.active()?.mapping.to_string()),
            Command::Sql => {
                let db = self.session.shared_database();
                let m = self.active()?.mapping.clone();
                generate_sql(
                    &m,
                    &db,
                    &SqlOptions {
                        root: None,
                        create_view: true,
                    },
                )
            }
            Command::Filter { kind, predicate } => {
                match kind {
                    FilterKind::Source => self.session.add_source_filter(&predicate)?,
                    FilterKind::Target => self.session.add_target_filter(&predicate)?,
                }
                Ok("ok\n".to_owned())
            }
            Command::Require { attr } => {
                self.session.require_target_attribute(&attr)?;
                Ok("ok\n".to_owned())
            }
            Command::SaveMapping { path } => {
                let text = clio_lang::print_mapping(&self.active()?.mapping);
                std::fs::write(&path, &text)
                    .map_err(|e| Error::Invalid(format!("cannot write `{path}`: {e}")))?;
                Ok(format!("saved to {path}\n"))
            }
            Command::LoadMapping { path } => {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| Error::Invalid(format!("cannot read `{path}`: {e}")))?;
                let m = clio_lang::parse_map(&text)?;
                let id = self
                    .session
                    .adopt_mapping(m, &format!("loaded from {path}"))?;
                Ok(format!("loaded as workspace {id}\n"))
            }
            Command::Status => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "source: {} relation(s), {} row(s)",
                    self.session.database().relation_count(),
                    self.session.database().total_rows()
                );
                let _ = writeln!(
                    out,
                    "knowledge: {} join spec(s)",
                    self.session.knowledge.specs().len()
                );
                let _ = writeln!(out, "workspaces: {}", self.session.workspaces().len());
                let _ = writeln!(out, "accepted mappings: {}", self.session.accepted().len());
                if let Some(w) = self.session.active() {
                    let _ = writeln!(
                        out,
                        "active: workspace {} — {} node(s), {} correspondence(s),                          {} example(s) in illustration",
                        w.id,
                        w.mapping.graph.node_count(),
                        w.mapping.correspondences.len(),
                        w.illustration.len()
                    );
                } else {
                    let _ = writeln!(out, "active: none (start with `corr`)");
                }
                Ok(out)
            }
            Command::Alternatives { slot } => {
                let alts = self.session.example_alternatives(slot)?;
                if alts.is_empty() {
                    return Ok("no alternatives for this slot
"
                    .to_owned());
                }
                let db = self.session.shared_database();
                let w = self.active()?;
                let scheme = w.mapping.graph.scheme(&db)?;
                let refs: Vec<&clio_core::example::Example> = alts.iter().collect();
                Ok(clio_core::example::render_examples(
                    &w.mapping.graph,
                    &scheme,
                    &refs,
                ))
            }
            Command::Swap { slot, alt } => {
                self.session.swap_example(slot, alt)?;
                Ok("ok
"
                .to_owned())
            }
            Command::Profile => {
                let profiles = clio_core::profile::profile_database(self.session.database());
                Ok(clio_core::profile::render_profile(&profiles))
            }
            Command::ProfileSpans { top } => {
                // top-n spans by self time with per-name latency
                // percentiles — the timing counterpart of `trace`, over
                // the current scope's spans
                let (records, hists) = clio_obs::with_current(|r| (r.spans(), r.histograms()));
                if records.is_empty() {
                    return Ok(
                        "no spans recorded (start the shell with --trace, --trace-out, or \
                         --slow-ms to collect)\n"
                            .to_owned(),
                    );
                }
                Ok(clio_obs::render_profile(
                    &records,
                    &hists,
                    top.unwrap_or(10),
                ))
            }
            Command::Mine { min_containment } => {
                // mine [containment] — enrich walk knowledge from data
                let config = clio_core::mining::MiningConfig {
                    min_containment: min_containment.unwrap_or(0.95),
                    ..clio_core::mining::MiningConfig::default()
                };
                let db = self.session.shared_database();
                let added =
                    clio_core::mining::enrich_knowledge(&mut self.session.knowledge, &db, &config);
                let mut out = format!("mined {} new join candidate(s):\n", added.len());
                for d in added {
                    let _ = writeln!(
                        out,
                        "  {}.{} -> {}.{} (containment {:.2}, {} shared values)",
                        d.from.0, d.from.1, d.to.0, d.to.1, d.containment, d.shared_values
                    );
                }
                Ok(out)
            }
            Command::Verify { keys } => {
                // verify [attr[,attr]...] — key attrs for conflict checks;
                // defaults to every NOT NULL target attribute as its own key
                let keys: Vec<Vec<String>> = match keys {
                    None => self
                        .active()?
                        .mapping
                        .target
                        .attrs()
                        .iter()
                        .filter(|a| a.not_null)
                        .map(|a| vec![a.name.clone()])
                        .collect(),
                    Some(attrs) => vec![attrs],
                };
                let findings = self.session.verify_active(&keys)?;
                if findings.is_empty() {
                    Ok("no findings\n".to_owned())
                } else {
                    let mut out = String::new();
                    for f in findings {
                        let _ = writeln!(out, "- {f}");
                    }
                    Ok(out)
                }
            }
            Command::Contributions => {
                let contribs = self.session.contributions()?;
                if contribs.is_empty() {
                    return Ok("no accepted mappings\n".to_owned());
                }
                let mut out = String::new();
                for c in contribs {
                    let _ = writeln!(
                        out,
                        "mapping {}: {} tuple(s), {} exclusive",
                        c.mapping_index, c.produced, c.exclusive
                    );
                }
                Ok(out)
            }
            Command::Stats(StatsAction::Reset) => {
                // zeroes the current scope: this batch session or
                // connection only, the process totals in a local shell
                clio_obs::with_current(clio_obs::Recorder::reset_counters);
                Ok("counters reset\n".to_owned())
            }
            Command::Stats(StatsAction::Show(filter)) => {
                // `stats <operation>` keeps only counters whose dotted
                // name contains the argument (e.g. `stats chase`). A
                // batch session or a connection runs under its own scope
                // recorder, so the table shows that scope's own work
                // rather than the process-wide totals — which also keeps
                // concurrent `stats` output deterministic.
                let mut out = clio_obs::with_current(clio_obs::Recorder::snapshot)
                    .render_table_filtered(&filter);
                if !clio_obs::metrics_enabled() {
                    out.push_str(
                        "(counting is off — run the shell with --metrics <file> to collect)\n",
                    );
                }
                Ok(out)
            }
            Command::Cache(action) => self.cache_command(action),
            Command::Db(action) => self.db_command(action),
            Command::Map(MapAction::Show) => Ok(clio_lang::print_mapping(&self.active()?.mapping)),
            Command::Explain => self.session.explain_active(),
            Command::Trace { filter } => {
                // the current scope's span tree, optionally filtered by
                // name — the in-session counterpart of --trace-filter
                let records = clio_obs::with_current(clio_obs::Recorder::spans);
                if records.is_empty() {
                    return Ok(
                        "no spans recorded (start the shell with --trace or --trace-filter \
                         to collect)\n"
                            .to_owned(),
                    );
                }
                Ok(clio_obs::render_tree_filtered(&records, &filter))
            }
            Command::Examples => {
                // full example population of the active mapping, capped
                let w = self.active()?;
                let ill = Illustration {
                    examples: self.session.examples_active()?,
                };
                let scheme = w.mapping.graph.scheme(self.session.database())?;
                Ok(ill.render(&w.mapping.graph, &scheme))
            }
        }
    }

    /// Dispatch a `cache …` subcommand. `cache` (stats) leads with its
    /// legacy three lines (on/off, entries, hit counters) so scripted
    /// greps keep working; the saved-time and warmth lines follow,
    /// and store lines are appended only when a persistent store is
    /// attached. The warmth probe uses the non-promoting
    /// [`EvalCache::peek`], so printing statistics never perturbs
    /// recency, frequency, or the hit/miss counters it reports.
    fn cache_command(&mut self, action: CacheAction) -> Result<String> {
        let cache = self.session.cache();
        match action {
            CacheAction::Stats => {
                let stats = cache.stats();
                let mut out = format!("cache: {}\n", if cache.enabled() { "on" } else { "off" });
                let _ = writeln!(
                    out,
                    "entries: {} ({} bytes of {} capacity)",
                    stats.entries,
                    stats.bytes,
                    cache.capacity()
                );
                let _ = writeln!(
                    out,
                    "hits: {}  misses: {}  invalidations: {}  evictions: {}",
                    stats.hits, stats.misses, stats.invalidations, stats.evictions
                );
                let _ = writeln!(out, "saved: {:.1} ms", stats.saved_ns as f64 / 1e6);
                if let Some(w) = self.session.active() {
                    let fp = clio_core::incremental::mapping_fingerprint(&w.mapping, cache);
                    let _ = writeln!(
                        out,
                        "active Q(M): {}",
                        if cache.peek(fp) { "warm" } else { "cold" }
                    );
                }
                if let Some(store) = cache.store() {
                    let s = store.stats();
                    let _ = writeln!(out, "store: {}", store.describe());
                    let _ = writeln!(
                        out,
                        "spills: {}  disk hits: {}  disk bytes: {}  load errors: {}",
                        s.spills, s.hits, s.bytes, s.load_errors
                    );
                }
                Ok(out)
            }
            CacheAction::Clear => {
                cache.clear();
                Ok("ok\n".to_owned())
            }
            CacheAction::Limit(bytes) => {
                cache.set_capacity(bytes);
                Ok("ok\n".to_owned())
            }
            CacheAction::Save(dir) => {
                let n = match dir {
                    Some(dir) => {
                        let store = clio_incr::DiskStore::open(
                            std::path::Path::new(&dir),
                            clio_incr::database_digest(self.session.database()),
                        );
                        cache.spill_to(&store)
                    }
                    None => match cache.store() {
                        Some(store) => cache.spill_to(store.as_ref()),
                        None => {
                            return Err(Error::Invalid(
                                "no cache store attached (start the shell with --cache-dir \
                                 or pass a directory: `cache save <dir>`)"
                                    .into(),
                            ))
                        }
                    },
                };
                Ok(format!("saved {n} entry(ies)\n"))
            }
            CacheAction::Load(dir) => {
                let n = match dir {
                    Some(dir) => {
                        let store = clio_incr::DiskStore::open(
                            std::path::Path::new(&dir),
                            clio_incr::database_digest(self.session.database()),
                        );
                        cache.preload_from(&store)
                    }
                    None => match cache.store() {
                        Some(store) => cache.preload_from(store.as_ref()),
                        None => {
                            return Err(Error::Invalid(
                                "no cache store attached (start the shell with --cache-dir \
                                 or pass a directory: `cache load <dir>`)"
                                    .into(),
                            ))
                        }
                    },
                };
                Ok(format!("loaded {n} entry(ies)\n"))
            }
        }
    }

    /// Dispatch a `db …` subcommand. `db` (stats) reports which storage
    /// backend the session's source database answers from; `db save`
    /// writes the database — and the session's target schema, as
    /// `_target.txt` — as a paged on-disk directory (see
    /// docs/storage.md); `db load` restarts the session over such a
    /// directory, reusing its persisted value index instead of
    /// rebuilding one. Loading replaces the whole session, so
    /// workspaces, accepted mappings, and the cache start fresh.
    fn db_command(&mut self, action: DbAction) -> Result<String> {
        match action {
            DbAction::Stats => {
                let db = self.session.database();
                let mut out = match db.paged_dir() {
                    Some(dir) => format!("backend: paged ({})\n", dir.display()),
                    None => "backend: memory\n".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "relations: {}  rows: {}",
                    db.relation_count(),
                    db.total_rows()
                );
                let _ = writeln!(
                    out,
                    "stored index: {}",
                    if db.stored_index().is_some() {
                        "yes"
                    } else {
                        "no (built in memory)"
                    }
                );
                Ok(out)
            }
            DbAction::Save(dir) => {
                let path = std::path::Path::new(&dir);
                clio_relational::storage::save_database(
                    self.session.database(),
                    path,
                    clio_pager::DEFAULT_PAGE_SIZE,
                )?;
                let spec = clio_lang::print_target_schema(self.session.target_schema());
                std::fs::write(path.join(TARGET_FILE), format!("{spec}\n")).map_err(|e| {
                    Error::Invalid(format!("cannot write `{dir}/{TARGET_FILE}`: {e}"))
                })?;
                Ok(format!(
                    "saved {} relation(s) to {dir}\n",
                    self.session.database().relation_count()
                ))
            }
            DbAction::Load(dir) => {
                let path = std::path::Path::new(&dir);
                let db =
                    clio_relational::storage::open_paged(path, crate::config::DEFAULT_DB_POOL)?;
                let target = read_target_file(path)?;
                self.session = Session::shared(std::sync::Arc::new(db), target);
                Ok(format!(
                    "loaded {dir} ({} relation(s), {} row(s))\n",
                    self.session.database().relation_count(),
                    self.session.database().total_rows()
                ))
            }
        }
    }

    fn active(&self) -> Result<&clio_core::session::Workspace> {
        self.session
            .active()
            .ok_or_else(|| Error::Invalid("no active workspace; start with `corr`".into()))
    }

    fn workspace(&self, id: usize) -> Result<&clio_core::session::Workspace> {
        self.session
            .workspaces()
            .iter()
            .find(|w| w.id == id)
            .ok_or_else(|| Error::Invalid(format!("no workspace {id}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clio_datagen::paper::{kids_target, paper_database};
    use clio_relational::value::DataType;

    use clio_obs::Recorder;

    fn shell() -> Shell {
        Shell::new(Session::new(paper_database(), kids_target()))
    }

    fn run(shell: &mut Shell, line: &str) -> String {
        match shell.execute(line) {
            Outcome::Continue(s) => s,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    /// `examples` and `contributions` evaluate with the session's own
    /// registry: a function registered through `funcs_mut` resolves.
    #[test]
    fn examples_and_contributions_use_the_session_functions() {
        use clio_relational::funcs::Arity;
        use clio_relational::value::Value;
        let mut session = Session::new(paper_database(), kids_target());
        session.funcs_mut().register(
            "mask_id",
            Arity::Exact(1),
            std::sync::Arc::new(|args: &[Value]| {
                Ok(match &args[0] {
                    Value::Str(v) => Value::str(format!("kid-{v}")),
                    other => other.clone(),
                })
            }),
        );
        let mut sh = Shell::new(session);
        let added = run(&mut sh, "corr mask_id(Children.ID) -> ID");
        assert!(!added.starts_with("error"), "{added}");
        let examples = run(&mut sh, "examples");
        assert!(!examples.starts_with("error"), "{examples}");
        assert!(examples.contains("002"), "{examples}");
        run(&mut sh, "accept");
        let contributions = run(&mut sh, "contributions");
        assert!(contributions.starts_with("mapping 0: "), "{contributions}");
        assert!(run(&mut sh, "target").contains("kid-002"));
    }

    #[test]
    fn help_and_source() {
        let mut sh = shell();
        assert!(run(&mut sh, "help").contains("corr <expr>"));
        let s = run(&mut sh, "source");
        assert!(s.contains("Children(ID: str not null"));
        assert!(s.contains("fk Children(mid) -> Parents(ID)"));
    }

    #[test]
    fn show_prints_relation() {
        let mut sh = shell();
        let s = run(&mut sh, "show Children");
        assert!(s.contains("Maya"));
        assert!(run(&mut sh, "show Nope").starts_with("error:"));
    }

    #[test]
    fn full_session_flow() {
        let mut sh = shell();
        assert!(run(&mut sh, "corr Children.ID -> ID").contains("ok"));
        assert!(run(&mut sh, "corr Children.name -> name").contains("ok"));
        let s = run(&mut sh, "corr Parents.affiliation -> affiliation");
        assert!(s.contains("2 scenario(s)"));
        // confirm the fid scenario
        let fid_line = s.lines().find(|l| l.contains("fid")).unwrap();
        let id: usize = fid_line
            .trim()
            .trim_start_matches("workspace ")
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(run(&mut sh, &format!("confirm {id}")), "ok\n");
        let target = run(&mut sh, "target");
        assert!(target.contains("Maya"));
        assert!(target.contains("AT&T"));
        // chase
        let s = run(&mut sh, "chase Children.ID 002");
        assert!(s.contains("SBPS"));
        let sbps_line = s.lines().find(|l| l.contains("SBPS")).unwrap();
        let id: usize = sbps_line
            .trim()
            .trim_start_matches("workspace ")
            .split(':')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        run(&mut sh, &format!("confirm {id}"));
        run(&mut sh, "corr SBPS.time -> BusSchedule");
        // refine + SQL
        assert_eq!(run(&mut sh, "require BusSchedule"), "ok\n");
        let sql = run(&mut sh, "sql");
        assert!(sql.contains("JOIN SBPS"));
        assert!(run(&mut sh, "illustration").contains('+'));
        assert!(run(&mut sh, "mapping").contains("corr Children.ID -> ID"));
        assert!(run(&mut sh, "accept").contains("accepted (1 total)"));
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        let path = std::env::temp_dir().join(format!("clio-cli-save-{}.map", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        assert!(run(&mut sh, &format!("save {path_str}")).contains("saved"));
        // `save` writes the MAP statement `map show` prints
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(saved, run(&mut sh, "map show"));
        let out = run(&mut sh, &format!("load {path_str}"));
        assert!(out.contains("loaded as workspace"), "{out}");
        std::fs::remove_file(&path).ok();
        let n = sh.session.workspaces().len();
        assert_eq!(
            sh.session.workspaces()[n - 1].mapping,
            sh.session.workspaces()[0].mapping
        );
    }

    #[test]
    fn load_show_and_explain() {
        let mut sh = shell();
        let path = std::env::temp_dir().join(format!("clio-cli-map-{}.map", std::process::id()));
        let text = "MAP Kids (ID str not null, name str, affiliation str, address str, \
                    contactPh str, BusSchedule str, FamilyIncome int)\n\
                    FROM Children\n\
                    SELECT Children.ID AS ID, Children.name AS name\n";
        std::fs::write(&path, text).unwrap();
        let path_str = path.to_str().unwrap().to_owned();
        let out = run(&mut sh, &format!("load {path_str}"));
        assert!(out.contains("loaded as workspace"), "{out}");
        std::fs::remove_file(&path).ok();
        // `map show` prints the active mapping back in canonical MAP form.
        let shown = run(&mut sh, "map show");
        assert!(shown.starts_with("MAP Kids"), "{shown}");
        assert!(shown.contains("SELECT Children.ID AS ID"), "{shown}");
        // The shown text re-loads to the same mapping.
        let reparsed = clio_lang::parse_map(&shown).unwrap();
        assert_eq!(reparsed, sh.session.workspaces()[0].mapping);
        // `explain` renders a plan tree for the active mapping.
        let plan = run(&mut sh, "explain");
        assert!(plan.contains("plan for Kids"), "{plan}");
        assert!(plan.contains("Scan Children"), "{plan}");
    }

    #[test]
    fn load_reports_parse_position() {
        let mut sh = shell();
        let path = std::env::temp_dir().join(format!("clio-cli-mapbad-{}.map", std::process::id()));
        for (text, expected) in [
            (
                "MAP Kids (ID str)\nFROM Children\nSELECT ??? AS ID\n",
                "error: parse error at line 3",
            ),
            // the retired line-oriented format gets no fallback
            (
                "target Kids (ID str)\nnode Children\n",
                "error: parse error at line 1, column 1: expected `MAP`",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let out = run(&mut sh, &format!("load {}", path.display()));
            assert!(out.starts_with(expected), "{out}");
        }
        std::fs::remove_file(&path).ok();
        let missing = run(&mut sh, "load /nonexistent/clio.map");
        assert!(missing.starts_with("error: cannot read"), "{missing}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = shell();
        assert!(run(&mut sh, "bogus").starts_with("error: unknown command"));
        assert!(run(&mut sh, "corr nonsense").starts_with("error:"));
        assert!(run(&mut sh, "walk").starts_with("error:"));
        assert!(run(&mut sh, "confirm x").starts_with("error:"));
        assert!(run(&mut sh, "sql").starts_with("error:")); // no workspace yet
                                                            // shell still alive
        assert!(run(&mut sh, "help").contains("commands"));
    }

    #[test]
    fn quit_and_comments() {
        let mut sh = shell();
        assert!(matches!(sh.execute("# comment"), Outcome::Continue(s) if s.is_empty()));
        assert!(matches!(sh.execute(""), Outcome::Continue(_)));
        assert!(matches!(sh.execute("quit"), Outcome::Quit));
        assert!(matches!(sh.execute("exit"), Outcome::Quit));
    }

    #[test]
    fn alternatives_and_swap_commands() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        // the single-node illustration has 4 single-child associations
        // but a minimal one only keeps one; its alternatives are the
        // other children
        let out = run(&mut sh, "alternatives 0");
        assert!(!out.starts_with("error:"), "{out}");
        if out.contains("Children.ID") {
            let before = run(&mut sh, "illustration");
            run(&mut sh, "swap 0 0");
            let after = run(&mut sh, "illustration");
            assert_ne!(before, after);
        }
        assert!(run(&mut sh, "swap 99 0").starts_with("error:"));
        assert!(run(&mut sh, "alternatives x").starts_with("error:"));
    }

    #[test]
    fn induced_command_shows_target_side() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        let out = run(&mut sh, "induced");
        assert!(out.contains("Kids.ID"), "{out}");
        assert!(out.contains('+'));
    }

    #[test]
    fn status_command_summarizes_session() {
        let mut sh = shell();
        let out = run(&mut sh, "status");
        assert!(out.contains("source: 5 relation(s)"));
        assert!(out.contains("active: none"));
        run(&mut sh, "corr Children.ID -> ID");
        let out = run(&mut sh, "status");
        assert!(out.contains("active: workspace 0"));
    }

    #[test]
    fn profile_command_reports_statistics() {
        let mut sh = shell();
        let out = run(&mut sh, "profile");
        assert!(out.contains("Children.ID"));
        assert!(out.contains("yes")); // key detection
    }

    #[test]
    fn mine_command_enriches_knowledge() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        // before mining, SBPS is unreachable by walk
        assert!(run(&mut sh, "walk SBPS").starts_with("error:"));
        let out = run(&mut sh, "mine 1.0");
        assert!(out.contains("SBPS.ID -> Children.ID"), "{out}");
        // after mining, the walk succeeds
        let out = run(&mut sh, "walk SBPS");
        assert!(out.contains("scenario"), "{out}");
        assert!(run(&mut sh, "mine nonsense").starts_with("error:"));
    }

    #[test]
    fn verify_and_contributions_commands() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        let v = run(&mut sh, "verify");
        // the bootstrap mapping leaves most attributes unmapped
        assert!(v.contains("unmapped"), "{v}");
        assert!(run(&mut sh, "contributions").contains("no accepted mappings"));
        run(&mut sh, "accept");
        let c = run(&mut sh, "contributions");
        assert!(c.contains("mapping 0: 4 tuple(s)"), "{c}");
        // explicit key attrs
        let v = run(&mut sh, "verify ID");
        assert!(!v.starts_with("error"), "{v}");
    }

    #[test]
    fn stats_takes_an_operation_filter() {
        let mut sh = shell();
        let all = run(&mut sh, "stats");
        assert!(all.contains("join.probes"), "{all}");
        assert!(all.contains("chase.alternatives_generated"), "{all}");
        let filtered = run(&mut sh, "stats chase");
        assert!(
            filtered.contains("chase.alternatives_generated"),
            "{filtered}"
        );
        assert!(filtered.contains("chase.alternatives_pruned"), "{filtered}");
        assert!(!filtered.contains("join.probes"), "{filtered}");
        let none = run(&mut sh, "stats bogus");
        assert!(none.contains("no counters match `bogus`"), "{none}");
    }

    #[test]
    fn workspaces_listing_marks_active() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        let s = run(&mut sh, "workspaces");
        assert!(s.starts_with("* 0:"));
    }

    #[test]
    fn cache_command_reports_hits_after_repeated_previews() {
        let mut sh = shell();
        let s = run(&mut sh, "cache");
        assert!(s.contains("cache: on"), "{s}");
        assert!(s.contains("entries: 0"), "{s}");
        run(&mut sh, "corr Children.ID -> ID");
        run(&mut sh, "target");
        run(&mut sh, "target");
        let s = run(&mut sh, "cache");
        assert!(sh.session.cache().stats().hits > 0, "{s}");
        assert!(!s.contains("hits: 0 "), "{s}");
        // toggled off, the command says so
        sh.session.set_cache_enabled(false);
        assert!(run(&mut sh, "cache").contains("cache: off"));
    }

    #[test]
    fn cache_clear_and_limit_commands() {
        let mut sh = shell();
        run(&mut sh, "corr Children.ID -> ID");
        run(&mut sh, "target");
        assert!(sh.session.cache().stats().entries > 0);
        assert_eq!(run(&mut sh, "cache clear"), "ok\n");
        assert_eq!(sh.session.cache().stats().entries, 0);
        assert_eq!(run(&mut sh, "cache limit 4096"), "ok\n");
        assert_eq!(sh.session.cache().capacity(), 4096);
        let s = run(&mut sh, "cache");
        assert!(s.contains("of 4096 capacity"), "{s}");
        // bad arguments come back as parse errors, not panics
        assert!(run(&mut sh, "cache limit lots").starts_with("error:"));
        assert!(run(&mut sh, "cache wat").starts_with("error:"));
    }

    /// The stats warmth probe is `peek`-based: printing `cache` must
    /// not create hits, promote entries, or change the active
    /// mapping's warmth.
    #[test]
    fn cache_stats_warmth_line_tracks_the_active_mapping() {
        let mut sh = shell();
        // no active workspace yet: no warmth line at all
        assert!(!run(&mut sh, "cache").contains("active Q(M):"));
        run(&mut sh, "corr Children.ID -> ID");
        let s = run(&mut sh, "cache");
        assert!(s.contains("active Q(M): cold"), "{s}");
        run(&mut sh, "target");
        let before = sh.session.cache().stats();
        let s = run(&mut sh, "cache");
        assert!(s.contains("active Q(M): warm"), "{s}");
        let after = sh.session.cache().stats();
        assert_eq!(before.hits, after.hits, "stats probe counted a hit");
        assert_eq!(before.misses, after.misses, "stats probe counted a miss");
    }

    #[test]
    fn cache_save_and_load_round_trip_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("clio-engine-save-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        // without an attached store and without a directory: an error
        assert!(run(&mut sh, "cache save").starts_with("error: no cache store attached"));
        assert!(run(&mut sh, "cache load").starts_with("error: no cache store attached"));
        run(&mut sh, "corr Children.ID -> ID");
        run(&mut sh, "target");
        let saved = run(&mut sh, format!("cache save {dir_s}").as_str());
        assert!(saved.starts_with("saved "), "{saved}");
        assert_ne!(saved, "saved 0 entry(ies)\n");

        // a fresh shell loads the spilled entries back
        let mut warm = shell();
        let loaded = run(&mut warm, format!("cache load {dir_s}").as_str());
        assert_eq!(loaded, saved.replace("saved", "loaded"));
        assert!(warm.session.cache().stats().entries > 0);
        // …and the warmed preview is byte-identical to the cold one
        let mut cold = shell();
        run(&mut cold, "corr Children.ID -> ID");
        run(&mut warm, "corr Children.ID -> ID");
        assert_eq!(run(&mut cold, "target"), run(&mut warm, "target"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_stats_show_store_lines_only_when_attached() {
        let mut sh = shell();
        let plain = run(&mut sh, "cache");
        assert!(!plain.contains("store:"), "{plain}");
        sh.session
            .attach_store(std::sync::Arc::new(clio_incr::MemStore::new()));
        let with_store = run(&mut sh, "cache");
        assert!(
            with_store.contains("store: mem (0 entries)"),
            "{with_store}"
        );
        assert!(with_store.contains("disk hits: 0"), "{with_store}");
        // with a store attached, eligible entries spill at insert time,
        // so an explicit `cache save` finds nothing left to write
        run(&mut sh, "corr Children.ID -> ID");
        run(&mut sh, "target");
        assert!(run(&mut sh, "cache").contains("spills: "), "store line");
        assert!(
            sh.session.cache().store().expect("attached").stats().spills > 0,
            "insert-time spill"
        );
        assert_eq!(run(&mut sh, "cache save"), "saved 0 entry(ies)\n");
    }

    #[test]
    fn db_save_load_round_trips_the_session_source() {
        let dir = std::env::temp_dir().join(format!("clio-engine-db-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let _ = std::fs::remove_dir_all(&dir);

        let mut sh = shell();
        assert!(run(&mut sh, "db").contains("backend: memory"));
        let saved = run(&mut sh, &format!("db save {dir_s}"));
        assert_eq!(saved, format!("saved 5 relation(s) to {dir_s}\n"));
        assert!(dir.join("_target.txt").exists());

        // capture the in-memory answers, then reload from disk
        let source_mem = run(&mut sh, "source");
        let show_mem = run(&mut sh, "show Children");
        let loaded = run(&mut sh, &format!("db load {dir_s}"));
        assert!(loaded.starts_with("loaded "), "{loaded}");
        let stats = run(&mut sh, "db");
        assert!(stats.contains("backend: paged ("), "{stats}");
        assert!(stats.contains("stored index: yes"), "{stats}");
        // paged answers are byte-identical to the in-memory ones
        assert_eq!(run(&mut sh, "source"), source_mem);
        assert_eq!(run(&mut sh, "show Children"), show_mem);
        // the reloaded session still maps end to end
        assert!(run(&mut sh, "corr Children.ID -> ID").contains("ok"));
        assert!(run(&mut sh, "corr Children.name -> name").contains("ok"));
        assert!(run(&mut sh, "target").contains("Maya"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_save_load_keeps_a_quoted_target() {
        let dir = std::env::temp_dir().join(format!("clio-engine-dbq-{}", std::process::id()));
        let dir_s = dir.display().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        // `"Tar get" ("id col" str, "and" int)`
        let target = RelSchema::new(
            "Tar get",
            vec![
                clio_relational::schema::Attribute::new("id col", DataType::Str),
                clio_relational::schema::Attribute::new("and", DataType::Int),
            ],
        )
        .unwrap();
        let mut sh = Shell::new(Session::new(paper_database(), target.clone()));
        assert!(run(&mut sh, &format!("db save {dir_s}")).starts_with("saved"));
        let loaded = run(&mut sh, &format!("db load {dir_s}"));
        assert!(loaded.starts_with("loaded "), "{loaded}");
        assert_eq!(sh.session.target_schema(), &target);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_errors_are_reported_not_fatal() {
        let mut sh = shell();
        let out = run(&mut sh, "db load /nonexistent/clio-db");
        assert!(out.starts_with("error:"), "{out}");
        // the session survives a failed load untouched
        assert!(run(&mut sh, "db").contains("backend: memory"));
        assert!(run(&mut sh, "db wat").starts_with("error: unknown db subcommand"));
        assert!(run(&mut sh, "db save").starts_with("error: usage: db save <dir>"));
    }

    #[test]
    fn trace_command_mirrors_trace_filter() {
        let mut sh = shell();
        // outside a recording scope there is nothing to show, only a hint
        let s = run(&mut sh, "trace");
        assert!(s.contains("no spans recorded"), "{s}");
        Recorder::new().run(|| {
            let s = run(&mut sh, "trace");
            assert!(s.contains("no spans recorded"), "{s}");
            run(&mut sh, "corr Children.ID -> ID");
            run(&mut sh, "target");
            let all = run(&mut sh, "trace");
            assert!(all.contains("mapping.evaluate"), "{all}");
            let filtered = run(&mut sh, "trace mapping.evaluate");
            assert!(filtered.contains("mapping.evaluate"), "{filtered}");
            assert!(!filtered.contains("mapping.examples"), "{filtered}");
            let none = run(&mut sh, "trace zzz-not-a-span");
            assert!(none.contains("no spans matching"), "{none}");
        });
    }

    /// `trace` and `profile spans` read the current scope: one shell's
    /// spans never show up in another's.
    #[test]
    fn trace_reads_only_the_current_scope() {
        let (mut a, mut b) = (shell(), shell());
        let (rec_a, rec_b) = (Recorder::new(), Recorder::new());
        rec_a.run(|| {
            run(&mut a, "corr Children.ID -> ID");
            run(&mut a, "target");
        });
        let trace_b = rec_b.run(|| run(&mut b, "trace"));
        assert!(trace_b.contains("no spans recorded"), "{trace_b}");
        let profile_b = rec_b.run(|| run(&mut b, "profile spans"));
        assert!(profile_b.contains("no spans recorded"), "{profile_b}");
        let trace_a = rec_a.run(|| run(&mut a, "trace"));
        assert!(trace_a.contains("mapping.evaluate"), "{trace_a}");
    }

    /// `stats` and `stats reset` read and zero the current scope only.
    #[test]
    fn stats_reset_zeroes_only_the_current_scope() {
        let (mut a, mut b) = (shell(), shell());
        let (rec_a, rec_b) = (Recorder::new(), Recorder::new());
        for (sh, rec) in [(&mut a, &rec_a), (&mut b, &rec_b)] {
            rec.run(|| {
                run(sh, "corr Children.ID -> ID");
                run(sh, "target");
            });
        }
        let work = |r: &Recorder| r.snapshot().get(clio_obs::Counter::PlanEvals);
        assert!(work(&rec_a) > 0 && work(&rec_b) > 0);
        assert_eq!(rec_a.run(|| run(&mut a, "stats reset")), "counters reset\n");
        assert_eq!(work(&rec_a), 0);
        assert!(work(&rec_b) > 0, "another scope's counters survive");
        let table = rec_a.run(|| run(&mut a, "stats plan.evals"));
        assert_eq!(table, "plan.evals  0\n");
        assert!(!table.contains("counting is off"), "{table}");
    }

    /// The in-shell `trace <name>` and the `--trace-filter <name>` exit
    /// tree share one renderer, so a filter matching nothing must
    /// produce the same explicit line from both entry points,
    /// byte-for-byte.
    #[test]
    fn no_match_filter_agrees_across_entry_points() {
        let mut sh = shell();
        let rec = Recorder::new();
        let shell_line = rec.run(|| {
            run(&mut sh, "corr Children.ID -> ID");
            run(&mut sh, "target");
            run(&mut sh, "trace zzz-not-a-span")
        });
        // what finish_reports prints for --trace-filter at exit
        let exit_line = clio_obs::render_tree_filtered(&rec.spans(), "zzz-not-a-span");
        assert_eq!(shell_line, exit_line);
        assert_eq!(shell_line, "trace: no spans matching `zzz-not-a-span`\n");
    }

    #[test]
    fn profile_spans_lists_top_spans_with_percentiles() {
        let mut sh = shell();
        let hint = run(&mut sh, "profile spans");
        assert!(hint.contains("no spans recorded"), "{hint}");
        assert!(hint.contains("--trace-out"), "{hint}");
        let rec = Recorder::new();
        rec.run(|| {
            run(&mut sh, "corr Children.ID -> ID");
            run(&mut sh, "target");
        });
        let (out, all) = rec.run(|| {
            (
                run(&mut sh, "profile spans 3"),
                run(&mut sh, "profile spans"),
            )
        });
        assert!(out.starts_with("profile: "), "{out}");
        assert!(out.contains("top 3 by self time"), "{out}");
        assert!(
            out.lines().count() <= 4,
            "header plus at most 3 rows: {out}"
        );
        assert!(out.contains("p50 "), "{out}");
        // the plain form defaults to the top 10
        assert!(
            all.contains("top 10 by self time") || all.contains("by self time"),
            "{all}"
        );
    }
}
