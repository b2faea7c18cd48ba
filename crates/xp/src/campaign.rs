//! The campaign runner: ties a stage's cells (or a plain job list) to the
//! worker pool and the unified sinks.
//!
//! A campaign is one invocation of an experiment binary. It runs jobs on
//! the pool (large-first, deterministic output order), then writes the
//! result table through the formats selected by `--format`:
//!
//! * `<out>/<name>.csv` — exactly the CSV the binary always produced;
//! * `<out>/<name>.json` — the same rows plus a run manifest: the shared
//!   flags, binary-specific config, `git describe`, and wall time.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use obs::{ArgValue, TraceBuilder, TraceSpan};

use crate::cli::CampaignArgs;
use crate::grid::expand_replicates;
use crate::json::Value;
use crate::pool::{self, PoolOptions};
use crate::table::Table;

/// Accounting for one pool run, keyed by the stage label that was active
/// when it ran. Recorded for every study and folded into the manifest's
/// `stages` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage label ([`Campaign::set_stage`]; defaults to the campaign
    /// name).
    pub stage: String,
    /// Jobs the pool ran.
    pub jobs: usize,
    /// Wall time of the pool run, milliseconds.
    pub wall_ms: u64,
    /// High-water mark of concurrently busy workers.
    pub peak_workers: usize,
}

/// Engine-trace collection state: the span sink plus which thread tracks
/// have been named already.
#[derive(Debug, Default)]
struct TraceState {
    builder: TraceBuilder,
    named_tids: BTreeSet<u64>,
}

/// One experiment invocation: shared flags plus sink bookkeeping.
#[derive(Debug)]
pub struct Campaign {
    name: String,
    args: CampaignArgs,
    started: Instant,
    stage: Mutex<String>,
    stages: Mutex<Vec<StageRecord>>,
    trace: Mutex<Option<TraceState>>,
}

impl Campaign {
    /// Starts a campaign named `name` (the output file stem).
    #[must_use]
    pub fn new(name: &str, args: CampaignArgs) -> Self {
        Self {
            name: name.to_owned(),
            args,
            started: Instant::now(),
            stage: Mutex::new(name.to_owned()),
            stages: Mutex::new(Vec::new()),
            trace: Mutex::new(None),
        }
    }

    /// Labels subsequent pool runs in the manifest's `stages` map and the
    /// engine trace. The label defaults to the campaign name; stages with
    /// several pool phases call this between them.
    pub fn set_stage(&self, label: &str) {
        *self.stage.lock().unwrap() = label.to_owned();
    }

    /// Starts collecting engine-level spans (one per pool job) for
    /// [`Campaign::write_trace`]. Off by default: span collection is
    /// cheap, but traces only get written when a study asks for them.
    pub fn enable_trace(&self) {
        let mut trace = self.trace.lock().unwrap();
        if trace.is_none() {
            let mut state = TraceState::default();
            state.builder.name_thread(0, "coordinator");
            state.named_tids.insert(0);
            *trace = Some(state);
        }
    }

    /// The stage records accumulated so far, in execution order.
    #[must_use]
    pub fn stage_records(&self) -> Vec<StageRecord> {
        self.stages.lock().unwrap().clone()
    }

    /// Writes the collected engine trace as Chrome-trace JSON to
    /// `<out>/trace.json` and returns the path; `Ok(None)` when tracing
    /// was never enabled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self) -> io::Result<Option<PathBuf>> {
        let trace = self.trace.lock().unwrap();
        let Some(state) = trace.as_ref() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&self.args.out)?;
        let path = self.args.out.join("trace.json");
        std::fs::write(&path, state.builder.to_json())?;
        Ok(Some(path))
    }

    /// Reporting knobs for a pool run under this campaign: ticker always,
    /// per-job stderr lines under `--progress`, spans when tracing.
    fn pool_options(&self) -> PoolOptions<'_> {
        PoolOptions {
            ticker: Some(&self.name),
            per_job: self.args.progress.then_some(self.name.as_str()),
            collect_spans: self.trace.lock().unwrap().is_some(),
        }
    }

    /// Runs `jobs` on the pool with `--workers / threads_per_job` workers
    /// and books the run: appends the [`StageRecord`] and, when tracing,
    /// turns the schedule spans into trace spans named by
    /// `describe(job_index)` (a label plus the job's replicate index, if
    /// it has one).
    fn run_pool<J, R>(
        &self,
        jobs: &[J],
        threads_per_job: usize,
        weight: impl Fn(&J) -> u64,
        run: impl Fn(&J) -> R + Sync,
        describe: impl Fn(usize) -> (String, Option<u64>),
    ) -> Vec<R>
    where
        J: Sync,
        R: Send,
    {
        let workers = pool::budgeted_workers(self.args.workers, threads_per_job);
        let epoch_offset_ns = ns_u64(self.started.elapsed());
        let (results, report) =
            pool::run_jobs_reported(jobs, workers, weight, run, self.pool_options());
        let stage = self.stage.lock().unwrap().clone();
        self.stages.lock().unwrap().push(StageRecord {
            stage: stage.clone(),
            jobs: jobs.len(),
            wall_ms: report.wall_ns / 1_000_000,
            peak_workers: report.peak_workers,
        });
        let mut trace = self.trace.lock().unwrap();
        let Some(state) = trace.as_mut() else {
            return results;
        };
        let mut stage_span = TraceSpan::new(stage, "stage", 0, epoch_offset_ns, report.wall_ns);
        stage_span.args.push(("jobs", ArgValue::from(jobs.len())));
        stage_span.args.push(("peak_workers", ArgValue::from(report.peak_workers)));
        state.builder.push(stage_span);
        for span in &report.spans {
            let tid = span.worker as u64 + 1;
            if state.named_tids.insert(tid) {
                state.builder.name_thread(tid, format!("worker {}", span.worker));
            }
            let (coord, replicate) = describe(span.index);
            let mut event = TraceSpan::new(
                coord.clone(),
                "job",
                tid,
                epoch_offset_ns + span.start_ns,
                span.dur_ns,
            );
            event.args.push(("job", ArgValue::from(span.index)));
            event.args.push(("wall_ns", ArgValue::from(span.dur_ns)));
            event.args.push(("coord", ArgValue::from(coord)));
            if let Some(replicate) = replicate {
                event.args.push(("replicate", ArgValue::from(replicate)));
            }
            event.args.push(("shards", ArgValue::from(threads_per_job)));
            state.builder.push(event);
        }
        results
    }

    /// The campaign name (output file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared flags this campaign runs under.
    #[must_use]
    pub fn args(&self) -> &CampaignArgs {
        &self.args
    }

    /// The one loop behind every study stage: runs `--seeds` replicates
    /// of each cell on the pool and returns each cell's results together,
    /// in cell order (replicate order within a cell). A replicate's seed
    /// derives from the campaign seed, the cell's seed words (`coords`,
    /// see [`crate::grid`]) and its replicate index, so results are
    /// identical for any worker count and any cell order.
    ///
    /// `threads_per_job` is the internal parallelism of one job (sharded
    /// simulations): the pool gets `--workers / threads_per_job` workers
    /// so the thread total stays within the budget. `weight` orders the
    /// large-first schedule and `label` names each job in the trace.
    pub fn run_cells<C, R>(
        &self,
        cells: &[C],
        threads_per_job: usize,
        coords: impl Fn(&C) -> Vec<u64>,
        weight: impl Fn(&C) -> u64,
        label: impl Fn(&C) -> String,
        run: impl Fn(&C, u64) -> R + Sync,
    ) -> Vec<Vec<R>>
    where
        C: Clone + Sync,
        R: Send,
    {
        let k = self.args.seeds.max(1);
        let jobs = expand_replicates(cells, k, self.args.campaign_seed, coords);
        let results = self.run_pool(
            &jobs,
            threads_per_job,
            |(cell, _)| weight(cell),
            |(cell, seed)| run(cell, *seed),
            |i| (label(&jobs[i].0), Some(i as u64 % k)),
        );
        let mut results = results.into_iter();
        cells.iter().map(|_| results.by_ref().take(k as usize).collect()).collect()
    }

    /// Runs `jobs` once each — deterministic work with no replicate seeds
    /// — and returns their results in job order. The budget, `weight`,
    /// and `label` work as in [`Campaign::run_cells`].
    pub fn run_jobs<J, R>(
        &self,
        jobs: &[J],
        threads_per_job: usize,
        weight: impl Fn(&J) -> u64,
        label: impl Fn(&J) -> String,
        run: impl Fn(&J) -> R + Sync,
    ) -> Vec<R>
    where
        J: Sync,
        R: Send,
    {
        self.run_pool(jobs, threads_per_job, weight, run, |i| (label(&jobs[i]), None))
    }

    /// Writes `table` through the selected sinks and returns the paths
    /// written. `config` carries binary-specific manifest fields (fixed
    /// `n`, routing choice, …); pass [`Value::object()`] when empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(&self, table: &Table, config: Value) -> io::Result<Vec<PathBuf>> {
        let name = self.name.clone();
        self.finish_named(&name, table, config)
    }

    /// [`Campaign::finish`] under a different file stem — for binaries
    /// producing several artefacts (e.g. Fig. 7's absolute and normalised
    /// series).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish_named(
        &self,
        stem: &str,
        table: &Table,
        config: Value,
    ) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if self.args.format.wants_csv() {
            let path = self.args.out.join(format!("{stem}.csv"));
            table.write_to(&path)?;
            written.push(path);
        }
        if self.args.format.wants_json() {
            let path = self.args.out.join(format!("{stem}.json"));
            std::fs::create_dir_all(&self.args.out)?;
            std::fs::write(&path, self.manifest(table, config).to_json())?;
            written.push(path);
        }
        Ok(written)
    }

    /// The JSON campaign document: manifest + rows.
    fn manifest(&self, table: &Table, config: Value) -> Value {
        let mut doc = Value::object();
        doc.set("campaign", self.name.as_str());
        doc.set("git", git_describe());
        doc.set(
            "created_unix_s",
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        );
        doc.set("wall_s", self.started.elapsed().as_secs_f64());

        let mut shared = Value::object();
        shared.set("workers", self.args.workers);
        shared.set("seeds", self.args.seeds);
        shared.set("quick", self.args.quick);
        shared.set("full", self.args.full);
        shared.set("format", self.args.format.label());
        shared.set("campaign_seed", self.args.campaign_seed);
        doc.set("args", shared);
        doc.set("config", config);

        // The per-stage wall-time map: every pool run books a record, so
        // every study's manifest shows where its time went and how full
        // the pool actually was.
        let records = self.stages.lock().unwrap();
        if !records.is_empty() {
            let mut stages = Value::object();
            let mut order: Vec<&str> = Vec::new();
            for rec in records.iter() {
                if !order.contains(&rec.stage.as_str()) {
                    order.push(&rec.stage);
                }
            }
            for label in order {
                let (mut jobs, mut wall_ms, mut peak) = (0usize, 0u64, 0usize);
                for rec in records.iter().filter(|r| r.stage == label) {
                    jobs += rec.jobs;
                    wall_ms += rec.wall_ms;
                    peak = peak.max(rec.peak_workers);
                }
                let mut entry = Value::object();
                entry.set("jobs", jobs);
                entry.set("wall_ms", wall_ms);
                entry.set("peak_workers", peak);
                stages.set(label, entry);
            }
            doc.set("stages", stages);
            doc.set("peak_workers", records.iter().map(|r| r.peak_workers).max().unwrap_or(0));
        }

        let (columns, rows) = table_columns_rows(table);
        doc.set("columns", columns);
        doc.set("rows", rows);
        doc
    }
}

/// The manifest's typed `columns` / `rows` encoding of a table: numeric
/// cells become JSON numbers (non-finite ones `null`, keeping each column
/// single-typed), everything else stays a string. Shared by the campaign
/// manifest and the serving layer's deterministic served manifests, so
/// the two encode rows identically.
#[must_use]
pub fn table_columns_rows(table: &Table) -> (Value, Value) {
    let columns: Vec<Value> = table.header().iter().map(|c| Value::Str(c.clone())).collect();
    let rows: Vec<Value> = table
        .rows()
        .iter()
        .map(|row| {
            let mut obj = Value::object();
            for (col, cell) in table.header().iter().zip(row) {
                match cell.parse::<f64>() {
                    Ok(x) if x.is_finite() => obj.set(col, x),
                    Ok(_) => obj.set(col, Value::Null),
                    Err(_) => obj.set(col, cell.as_str()),
                };
            }
            obj
        })
        .collect();
    (Value::Arr(columns), Value::Arr(rows))
}

/// Saturating nanosecond count of a [`Duration`] (u64 overflows after
/// ~584 years of campaign wall time).
fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `git describe --always --dirty`, or `"unknown"` outside a git
/// checkout. Public because the serving layer folds it into cache keys:
/// a new engine version must never serve an old version's bytes.
#[must_use]
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::OutputFormat;

    fn test_args(out: &std::path::Path) -> CampaignArgs {
        CampaignArgs {
            workers: 4,
            seeds: 2,
            quick: true,
            full: false,
            out: out.to_path_buf(),
            format: OutputFormat::Both,
            campaign_seed: 7,
            progress: false,
        }
    }

    #[test]
    fn grid_campaign_runs_and_writes_both_sinks() {
        let dir = std::env::temp_dir().join("xp_campaign_test");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("unit", test_args(&dir));
        let ns = [2u64, 3];
        let results =
            campaign.run_cells(&ns, 1, |&n| vec![n], |&n| n, |n| n.to_string(), |n, _| n * 10);
        // 2 cells, each with its --seeds 2 replicates.
        assert_eq!(results, [[20, 20], [30, 30]]);

        let mut table = Table::new(&["n", "value"]);
        for (n, replicates) in ns.iter().zip(&results) {
            table.row(&[n, &replicates[0]]);
        }
        let written = campaign.finish(&table, Value::object()).unwrap();
        assert_eq!(written.len(), 2);
        let csv = std::fs::read_to_string(&written[0]).unwrap();
        assert!(csv.starts_with("n,value\n2,20\n"));
        let json = std::fs::read_to_string(&written[1]).unwrap();
        assert!(json.contains("\"campaign\":\"unit\""));
        assert!(json.contains("\"seeds\":2"));
        assert!(json.contains("\"rows\":[{\"n\":2,\"value\":20}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_runs_book_stage_records_into_the_manifest() {
        let dir = std::env::temp_dir().join("xp_campaign_stages");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("staged", test_args(&dir));
        campaign.set_stage("sweep");
        let _ = campaign.run_cells(&[2u64], 1, |&n| vec![n], |_| 1, |_| "n".into(), |n, _| *n);
        campaign.set_stage("refine");
        let _ = campaign.run_jobs(&[1u64, 2, 3], 1, |_| 1, |j| j.to_string(), |j| j + 1);

        let records = campaign.stage_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].stage, "sweep");
        assert_eq!(records[0].jobs, 2, "1 n x --seeds 2");
        assert_eq!(records[1].stage, "refine");
        assert_eq!(records[1].jobs, 3, "run_jobs runs each job once");
        assert!(records.iter().all(|r| (1..=4).contains(&r.peak_workers)));

        let table = Table::new(&["n"]);
        let json = campaign.manifest(&table, Value::object()).to_json();
        assert!(json.contains("\"stages\":{\"sweep\":{\"jobs\":2"), "{json}");
        assert!(json.contains("\"refine\":{\"jobs\":3"), "{json}");
        assert!(json.contains("\"peak_workers\":"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enabled_trace_collects_spans_and_writes_json() {
        let dir = std::env::temp_dir().join("xp_campaign_trace");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("traced", test_args(&dir));
        assert_eq!(campaign.write_trace().unwrap(), None, "off by default");
        campaign.enable_trace();
        let label = |n: &u64| format!("Grid n={n} rate=0.1");
        let _ = campaign.run_cells(&[2u64, 3], 1, |&n| vec![n], |&n| n, label, |n, _| *n);
        let path = campaign.write_trace().unwrap().expect("trace path");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"coordinator\""), "{json}");
        assert!(json.contains("Grid n=2 rate=0.1"), "{json}");
        assert!(json.contains("\"replicate\":"), "{json}");
        assert!(json.contains("\"shards\":1"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_results_identical_across_worker_counts() {
        let dir = std::env::temp_dir().join("xp_campaign_det");
        let cells: Vec<(u64, u64)> = (2..5).flat_map(|n| [(n, 1), (n, 2)]).collect();
        let run = |workers: usize| {
            let mut args = test_args(&dir);
            args.workers = workers;
            Campaign::new("det", args).run_cells(
                &cells,
                1,
                |&(n, r)| vec![n, r],
                |&(n, _)| n,
                |c| format!("{c:?}"),
                |&c, seed| (c, seed),
            )
        };
        let one = run(1);
        assert_eq!(one, run(8));
        assert!(one.iter().all(|reps| reps.len() == 2 && reps[0].1 != reps[1].1));
    }
}
