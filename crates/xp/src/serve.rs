//! The resident study service behind `study serve`.
//!
//! Requests are [`StudySpec`]s; results are the study's CSV/JSON
//! artefacts, served from a content-addressed disk cache
//! ([`crate::cache`]) whenever the engine has computed the same study
//! before. Three mechanisms keep repeat work off the pool:
//!
//! - **Exact hit** — the cache key is the SHA-256 of the request's
//!   *canonical material*: the resolved spec (every stage default written
//!   out, seed/replicates explicit, the transport-level `[serve]` and
//!   `[output]` sections erased) plus the engine version (`git
//!   describe`) and the `--quick`/`--full` schedule tier. Any encoding
//!   of the same study — JSON or TOML, keys in any order, defaults
//!   implicit or spelled out — lands on the same key and replays the
//!   same bytes; any semantic change, or a new engine version, is a
//!   different key and a cold miss.
//! - **In-flight dedup** — concurrent submissions of one key run the
//!   backend once; the followers block on the leader's completion and
//!   receive the identical artefacts.
//! - **Warm start** — when a new load-curve request's grid is a
//!   superset of a cached one, the donor's rows are replayed and only
//!   the delta cells run ([`crate::flow::run_load_curve_cells`]).
//!   Seeds derive from cell coordinates, so the spliced output is
//!   bit-identical to a from-scratch run — pinned by the serve battery.
//!
//! Served artefacts are deterministic: the CSV is the stage table
//! verbatim, and the JSON manifest is rebuilt from `(campaign, version,
//! key, canonical spec, rows)` without wall-clock or worker-count
//! fields, so a cache hit is byte-identical to the original
//! computation for any `--workers`.
//!
//! # Wire protocol
//!
//! [`serve_lines`] speaks newline-delimited JSON on any byte stream
//! (`study serve` wires it to stdin/stdout or a Unix socket). One
//! request per line: a bare spec object, or `{"id": …, "spec": {…}}`
//! to name the request. Requests are handled concurrently; every
//! response line is a whole JSON event tagged with the request id
//! (`accepted` → `file`… → `done`, or `error`), and a final `stats`
//! event follows end-of-input.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

use crate::cache::{CacheStats, CachedFile, Entry, Lookup, Provenance, ResultCache};
use crate::campaign::table_columns_rows;
use crate::cli::CampaignArgs;
use crate::flow::{
    load_curve_cells, resolved, run_load_curve_cells, run_stage, CurveCell, StageHooks,
    StageTable, StudyError,
};
use crate::hash::sha256_hex;
use crate::json::{self, Value};
use crate::spec::{ServeMode, ServeSpec, StageKind, StudySpec};
use crate::table::Table;
use crate::Campaign;

/// Server-side configuration: where the cache lives, the backend flags,
/// and the engine version folded into every cache key.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Backend campaign flags. `workers` drives the pool;
    /// `campaign_seed` and `seeds` are the defaults for specs that leave
    /// `seed`/`replicates` unset; `quick`/`full` pick the schedule tier
    /// (part of the cache key). `out`/`format` are unused — the server
    /// never writes sinks.
    pub args: CampaignArgs,
    /// Version string keyed into the cache; defaults to
    /// [`crate::campaign::git_describe`]. A new version never serves an
    /// old version's bytes.
    pub version: String,
}

impl ServeConfig {
    /// A config with the current engine version.
    #[must_use]
    pub fn new(args: CampaignArgs) -> Self {
        Self { args, version: crate::campaign::git_describe() }
    }
}

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Outcome {
    /// Replayed from a verified disk entry.
    Hit,
    /// Computed from scratch.
    Miss,
    /// Spliced from a warm-start donor plus a delta run.
    Warm,
}

impl Outcome {
    /// Wire name of the outcome.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Warm => "warm",
        }
    }
}

/// One satisfied request: the artefacts plus full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// The request's cache key.
    pub key: String,
    /// How the bytes were obtained *by this request*.
    pub outcome: Outcome,
    /// `true` when this submission blocked on an identical in-flight
    /// run instead of executing.
    pub deduped: bool,
    /// The artefacts, byte-identical to a from-scratch run.
    pub files: Vec<CachedFile>,
    /// How the underlying cache entry was produced (for a hit, this
    /// describes the original computation).
    pub provenance: Provenance,
}

/// A pending computation; followers block on `done`.
struct Flight {
    done: Mutex<Option<Result<Served, String>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { done: Mutex::new(None), ready: Condvar::new() }
    }

    fn publish(&self, result: Result<Served, String>) {
        *self.done.lock().unwrap() = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Served, String> {
        let mut done = self.done.lock().unwrap();
        while done.is_none() {
            done = self.ready.wait(done).unwrap();
        }
        done.clone().expect("published")
    }
}

/// Removes the flight from the map and publishes a failure if the
/// leader unwinds without publishing, so followers never hang.
struct FlightGuard<'s, 'h> {
    server: &'s Server<'h>,
    key: String,
    published: bool,
}

impl FlightGuard<'_, '_> {
    fn publish(&mut self, flight: &Flight, result: Result<Served, String>) {
        flight.publish(result);
        self.published = true;
        self.server.inflight.lock().unwrap().remove(&self.key);
    }
}

impl Drop for FlightGuard<'_, '_> {
    fn drop(&mut self) {
        if !self.published {
            let mut inflight = self.server.inflight.lock().unwrap();
            if let Some(flight) = inflight.remove(&self.key) {
                flight.publish(Err("backend run panicked".to_owned()));
            }
        }
    }
}

/// The resident service: cache + in-flight table + counters. All
/// methods take `&self`; one server is shared across request threads.
pub struct Server<'h> {
    config: ServeConfig,
    cache: ResultCache,
    hooks: StageHooks<'h>,
    stats: Mutex<CacheStats>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
}

impl<'h> Server<'h> {
    /// A server caching under `cache_dir`.
    #[must_use]
    pub fn new(
        cache_dir: impl Into<std::path::PathBuf>,
        config: ServeConfig,
        hooks: StageHooks<'h>,
    ) -> Self {
        Self {
            config,
            cache: ResultCache::new(cache_dir),
            hooks,
            stats: Mutex::new(CacheStats::default()),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// The session counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().unwrap()
    }

    /// The underlying cache.
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The canonical form and cache key of `spec` under this server's
    /// version and schedule tier.
    #[must_use]
    pub fn cache_key(&self, spec: &StudySpec) -> (String, StudySpec) {
        let canonical = canonical_spec(spec, &self.config);
        let mut material = Value::object();
        material.set("version", self.config.version.as_str());
        material.set("quick", self.config.args.quick);
        material.set("full", self.config.args.full);
        material.set("spec", canonical.to_value());
        (sha256_hex(material.to_json().as_bytes()), canonical)
    }

    /// Satisfies one request: exact hit, in-flight dedup, warm start,
    /// or a full backend run — in that order of preference, per the
    /// spec's `[serve]` section.
    ///
    /// # Errors
    ///
    /// [`StudyError::Spec`] for invalid or unservable specs (the
    /// `[observe]` artefacts and `workload.traces` write files outside
    /// the cache and must run through the `study` binary directly);
    /// otherwise whatever the backend stage returns.
    pub fn submit(&self, spec: &StudySpec) -> Result<Served, StudyError> {
        spec.validate().map_err(StudyError::Spec)?;
        if !spec.observe.is_off() {
            return Err(StudyError::Spec(
                "`[observe]` artefacts are not servable; run the study binary directly"
                    .to_owned(),
            ));
        }
        if spec.workload.traces {
            return Err(StudyError::Spec(
                "`workload.traces` writes files outside the cache and is not servable"
                    .to_owned(),
            ));
        }
        let mode = spec.serve.mode;
        let warm_wanted = spec.serve.warm_start && mode == ServeMode::Reuse;
        let (key, canonical) = self.cache_key(spec);
        self.stats.lock().unwrap().requests += 1;

        if mode == ServeMode::Reuse {
            match self.cache.load(&key, &self.config.version).map_err(StudyError::Io)? {
                Lookup::Hit(entry) => {
                    self.stats.lock().unwrap().hits += 1;
                    return Ok(Served {
                        key,
                        outcome: Outcome::Hit,
                        deduped: false,
                        files: entry.files,
                        provenance: entry.provenance,
                    });
                }
                Lookup::Evicted => self.stats.lock().unwrap().evictions += 1,
                Lookup::Miss => {}
            }
        }

        if mode == ServeMode::Bypass {
            // Direct execution: no cache read, write, or dedup.
            return self.compute(&key, &canonical, false);
        }

        // In-flight dedup: first submitter of a key leads, the rest
        // block on its completion.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap();
            match inflight.get(&key) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    inflight.insert(key.clone(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            self.stats.lock().unwrap().deduped += 1;
            return match flight.wait() {
                Ok(mut served) => {
                    served.deduped = true;
                    Ok(served)
                }
                Err(message) => Err(StudyError::Stage(message)),
            };
        }

        let mut guard = FlightGuard { server: self, key: key.clone(), published: false };
        let result = self.compute(&key, &canonical, warm_wanted).and_then(|served| {
            let entry = Entry {
                key: key.clone(),
                version: self.config.version.clone(),
                spec: canonical.to_value(),
                files: served.files.clone(),
                provenance: served.provenance.clone(),
            };
            self.cache.store(&entry).map_err(StudyError::Io)?;
            Ok(served)
        });
        guard.publish(&flight, result.as_ref().map(Served::clone).map_err(|e| e.to_string()));
        result
    }

    /// Computes the request: warm start when possible, else a full
    /// backend run.
    fn compute(
        &self,
        key: &str,
        canonical: &StudySpec,
        warm_wanted: bool,
    ) -> Result<Served, StudyError> {
        let warm_eligible =
            warm_wanted && canonical.stage == StageKind::LoadCurve && !canonical.axes.optimized;
        if warm_eligible {
            if let Some(served) = self.try_warm(key, canonical)? {
                return Ok(served);
            }
        }
        let campaign = Campaign::new(&canonical.name, self.backend_args(canonical));
        let output = run_stage(canonical, &campaign, &self.hooks)?;
        let backend_jobs: u64 = campaign.stage_records().iter().map(|r| r.jobs as u64).sum();
        {
            let mut stats = self.stats.lock().unwrap();
            stats.misses += 1;
            stats.backend_runs += 1;
            stats.backend_jobs += backend_jobs;
        }
        let cells_total = curve_cells_of(canonical);
        let provenance = Provenance {
            outcome: "backend".to_owned(),
            cells_total,
            cells_cached: 0,
            cells_run: cells_total,
            warm_from: None,
            backend_jobs,
        };
        let files = self.served_files(canonical, key, &output.tables);
        Ok(Served {
            key: key.to_owned(),
            outcome: Outcome::Miss,
            deduped: false,
            files,
            provenance,
        })
    }

    /// Attempts a warm start: finds the cached load-curve entry whose
    /// grid covers the most cells of the request, replays those rows,
    /// and runs only the delta. `None` when no compatible donor exists.
    fn try_warm(&self, key: &str, canonical: &StudySpec) -> Result<Option<Served>, StudyError> {
        let cells = load_curve_cells(canonical);
        let index: HashMap<Vec<u64>, usize> =
            cells.iter().enumerate().map(|(i, c)| (c.coords(), i)).collect();

        // Best donor = the compatible entry covering the most cells.
        let mut best: Option<(Entry, Vec<CurveCell>)> = None;
        for donor in self.cache.entries(&self.config.version).map_err(StudyError::Io)? {
            if donor.key == key {
                continue;
            }
            let Ok(donor_spec) = StudySpec::from_value(&donor.spec) else {
                continue;
            };
            if !warm_compatible(&donor_spec, canonical) {
                continue;
            }
            let donor_cells = load_curve_cells(&resolved(&donor_spec, &self.config.args));
            if donor_cells.is_empty()
                || !donor_cells.iter().all(|c| index.contains_key(&c.coords()))
            {
                continue;
            }
            // The donor's main CSV must map 1:1 onto its grid.
            let Some(csv) = donor.files.iter().find(|f| f.name.ends_with(".csv")) else {
                continue;
            };
            if csv.content.lines().count() != donor_cells.len() + 1 {
                continue;
            }
            if best.as_ref().is_none_or(|(_, cells)| cells.len() < donor_cells.len()) {
                best = Some((donor, donor_cells));
            }
        }
        let Some((donor, donor_cells)) = best else {
            return Ok(None);
        };

        let donor_csv =
            donor.files.iter().find(|f| f.name.ends_with(".csv")).expect("checked above");
        let cached_line: HashMap<Vec<u64>, &str> = donor_cells
            .iter()
            .zip(donor_csv.content.lines().skip(1))
            .map(|(c, line)| (c.coords(), line))
            .collect();
        let delta: Vec<CurveCell> =
            cells.iter().copied().filter(|c| !cached_line.contains_key(&c.coords())).collect();

        let campaign = Campaign::new(&canonical.name, self.backend_args(canonical));
        let fresh = run_load_curve_cells(canonical, &campaign, &delta)?;
        let backend_jobs: u64 = campaign.stage_records().iter().map(|r| r.jobs as u64).sum();
        {
            let mut stats = self.stats.lock().unwrap();
            stats.warm += 1;
            if !delta.is_empty() {
                stats.backend_runs += 1;
                stats.backend_jobs += backend_jobs;
            }
        }

        // Splice: cached rows verbatim, fresh rows in delta order, all
        // in superset grid order — identical to a from-scratch run.
        let fresh_csv = fresh.to_csv();
        let mut fresh_lines = fresh_csv.lines().skip(1);
        let mut table =
            Table::new(&fresh.header().iter().map(String::as_str).collect::<Vec<_>>());
        for cell in &cells {
            let line = match cached_line.get(&cell.coords()) {
                Some(line) => line,
                None => fresh_lines.next().expect("one fresh line per delta cell"),
            };
            let parts: Vec<&str> = line.split(',').collect();
            let refs: Vec<&dyn std::fmt::Display> =
                parts.iter().map(|p| p as &dyn std::fmt::Display).collect();
            table.row(&refs);
        }

        let provenance = Provenance {
            outcome: "warm".to_owned(),
            cells_total: cells.len() as u64,
            cells_cached: (cells.len() - delta.len()) as u64,
            cells_run: delta.len() as u64,
            warm_from: Some(donor.key.clone()),
            backend_jobs,
        };
        let tables = vec![StageTable::main(table)];
        let files = self.served_files(canonical, key, &tables);
        Ok(Some(Served {
            key: key.to_owned(),
            outcome: Outcome::Warm,
            deduped: false,
            files,
            provenance,
        }))
    }

    /// The deterministic served artefacts of a stage's tables: per
    /// table, `<stem>.csv` (the rows verbatim) and `<stem>.json` (a
    /// manifest of campaign/version/key/config/columns/rows — no
    /// wall-clock or worker-count fields, so replays are byte-exact).
    fn served_files(
        &self,
        canonical: &StudySpec,
        key: &str,
        tables: &[StageTable],
    ) -> Vec<CachedFile> {
        let config = canonical.to_value();
        let mut files = Vec::with_capacity(tables.len() * 2);
        for staged in tables {
            let stem = staged.stem.clone().unwrap_or_else(|| canonical.name.clone());
            files.push(CachedFile {
                name: format!("{stem}.csv"),
                content: staged.table.to_csv(),
            });
            let mut doc = Value::object();
            doc.set("campaign", canonical.name.as_str());
            doc.set("version", self.config.version.as_str());
            doc.set("key", key);
            doc.set("config", config.clone());
            let (columns, rows) = table_columns_rows(&staged.table);
            doc.set("columns", columns);
            doc.set("rows", rows);
            files.push(CachedFile { name: format!("{stem}.json"), content: doc.to_json() });
        }
        files
    }

    /// Backend flags for one request: the server's flags with the
    /// canonical spec's explicit seed/replicates applied.
    fn backend_args(&self, canonical: &StudySpec) -> CampaignArgs {
        let mut args = self.config.args.clone();
        args.campaign_seed = canonical.seed.expect("canonical spec has explicit seed");
        args.seeds = canonical.replicates.expect("canonical spec has explicit replicates");
        args
    }
}

/// The canonical form keyed into the cache: every stage default written
/// out, explicit seed/replicates, transport-level sections erased.
fn canonical_spec(spec: &StudySpec, config: &ServeConfig) -> StudySpec {
    let mut canonical = resolved(spec, &config.args);
    canonical.seed = Some(canonical.seed.unwrap_or(config.args.campaign_seed));
    canonical.replicates = Some(canonical.replicates.unwrap_or(config.args.seeds).max(1));
    canonical.serve = ServeSpec::default();
    canonical.output = Default::default();
    canonical
}

/// `true` when `donor` produces rows reusable by `target`: the two
/// resolved load-curve specs are identical outside their grid axes and
/// name (rows depend on neither), so every donor cell's rows — seeds
/// included — match what a from-scratch run of `target` would compute.
fn warm_compatible(donor: &StudySpec, target: &StudySpec) -> bool {
    if donor.stage != StageKind::LoadCurve || donor.axes.optimized {
        return false;
    }
    let erase = |spec: &StudySpec| {
        let mut s = spec.clone();
        s.name = String::new();
        s.axes.kinds = None;
        s.axes.ns = None;
        s.axes.rates = None;
        s.axes.patterns = None;
        s.to_value().to_json()
    };
    erase(donor) == erase(target)
}

/// Load-curve grid size of `spec` (0 for other stages, where cell
/// accounting does not apply).
fn curve_cells_of(spec: &StudySpec) -> u64 {
    if spec.stage == StageKind::LoadCurve && !spec.axes.optimized {
        load_curve_cells(spec).len() as u64
    } else {
        0
    }
}

// ── JSONL transport ─────────────────────────────────────────────────────

/// Writes one whole event line under the lock.
fn emit<W: Write>(out: &Mutex<W>, event: &Value) {
    let mut out = out.lock().unwrap();
    let _ = writeln!(out, "{}", event.to_json());
    let _ = out.flush();
}

fn event(kind: &str, id: &str) -> Value {
    let mut doc = Value::object();
    doc.set("event", kind);
    doc.set("id", id);
    doc
}

/// Handles one request line: parse → submit → stream events.
fn handle_line<W: Write>(server: &Server, line: &str, fallback_id: &str, out: &Mutex<W>) {
    let (id, spec_value) = match json::parse(line) {
        Err(message) => {
            let mut err = event("error", fallback_id);
            err.set("message", format!("bad request JSON: {message}"));
            emit(out, &err);
            return;
        }
        Ok(doc) => match doc.get("spec") {
            Some(spec) => {
                let id = match doc.get("id") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => fallback_id.to_owned(),
                };
                (id, spec.clone())
            }
            None => (fallback_id.to_owned(), doc),
        },
    };
    let spec = match StudySpec::from_value(&spec_value) {
        Ok(spec) => spec,
        Err(message) => {
            let mut err = event("error", &id);
            err.set("message", format!("bad spec: {message}"));
            emit(out, &err);
            return;
        }
    };
    let (key, _) = server.cache_key(&spec);
    let mut accepted = event("accepted", &id);
    accepted.set("key", key.as_str());
    accepted.set("name", spec.name.as_str());
    emit(out, &accepted);
    // A panicking job must cost only its own request: unwinding out of
    // this thread would end the whole server. `FlightGuard` has already
    // released any dedup followers by the time the panic lands here.
    let submitted = panic::catch_unwind(AssertUnwindSafe(|| server.submit(&spec)))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            format!("backend run panicked: {message}")
        })
        .and_then(|result| result.map_err(|error| error.to_string()));
    match submitted {
        Err(message) => {
            let mut err = event("error", &id);
            err.set("message", message);
            emit(out, &err);
        }
        Ok(served) => {
            for file in &served.files {
                let mut doc = event("file", &id);
                doc.set("name", file.name.as_str());
                doc.set("sha256", file.sha256());
                doc.set("bytes", file.content.len() as u64);
                doc.set("content", file.content.as_str());
                emit(out, &doc);
            }
            let mut done = event("done", &id);
            done.set("key", served.key.as_str());
            done.set("outcome", served.outcome.name());
            done.set("deduped", served.deduped);
            done.set("provenance", served.provenance.to_value());
            emit(out, &done);
        }
    }
}

/// Serves newline-delimited JSON requests from `input`, streaming
/// events to `output`, until end-of-input. Requests run concurrently
/// (each on its own thread — the backend pool, not the request count,
/// bounds parallelism); every response line is whole and tagged with
/// its request id, so interleaved responses never bleed. A final
/// `stats` event reports the server's cumulative counters.
///
/// # Errors
///
/// Propagates input read errors; per-request failures, a panicking
/// backend run included, are `error` events, not transport errors.
pub fn serve_lines<R, W>(server: &Server, input: R, output: W) -> io::Result<CacheStats>
where
    R: BufRead,
    W: Write + Send,
{
    let out = Mutex::new(output);
    std::thread::scope(|scope| -> io::Result<()> {
        let mut index = 0u64;
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            index += 1;
            let out = &out;
            let fallback = format!("r{index}");
            scope.spawn(move || handle_line(server, &line, &fallback, out));
        }
        Ok(())
    })?;
    let stats = server.stats();
    let mut doc = Value::object();
    doc.set("event", "stats");
    doc.set("version", server.config.version.as_str());
    doc.set("stats", stats.to_value());
    emit(&out, &doc);
    Ok(stats)
}

/// Binds a Unix socket at `path` (replacing a stale socket file) and
/// serves each connection with [`serve_lines`] on its own thread, until
/// the process exits.
///
/// # Errors
///
/// Propagates bind/accept errors.
pub fn serve_unix(server: &Server, path: &Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = stream?;
            scope.spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(e) => {
                        eprintln!("serve: connection clone failed: {e}");
                        return;
                    }
                };
                if let Err(e) = serve_lines(server, reader, stream) {
                    eprintln!("serve: connection failed: {e}");
                }
            });
        }
        Ok(())
    })
}
