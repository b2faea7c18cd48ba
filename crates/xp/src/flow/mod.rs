//! The study flow: executes a [`StudySpec`] through the engine.
//!
//! [`run_study`] is the one runner behind every experiment binary: it
//! writes out every stage default the spec leaves unset ([`resolved`]),
//! and the stage lists its cells — one table row's coordinates each — in
//! row order. [`Campaign::run_cells`] runs `--seeds K` replicates of every
//! cell on the worker pool with coordinate-derived seeds and hands each
//! cell its replicates to average. Stage bodies read only the resolved
//! spec, and the result tables go through the unified sinks with that
//! spec embedded as the manifest's `config` object, so every output file
//! records the study that produced it, schedule and fault sweep included.
//!
//! The stages that replaced the hand-wired experiment binaries emit
//! **byte-identical CSV** to what those binaries wrote for the same axes
//! and seeds — pinned by the golden tests in
//! `crates/bench/tests/golden_study.rs`.
//!
//! # Hooks
//!
//! One stage cannot live here: the arrangement *search* is implemented by
//! `chiplet_arrange`, which sits **above** the engine in the dependency
//! DAG (its restart pool runs on `xp`). [`StageHooks`] is the extension
//! point: `chiplet_arrange::study::hooks()` provides the search stage and
//! the `optimized`-axis graph provider, and the `study` binary wires them
//! in. A spec that needs a missing hook fails with a clear
//! [`StudyError::Spec`] instead of running the wrong experiment.

pub mod sweep;

use std::fmt;
use std::io;

use chiplet_graph::Graph;
use chiplet_workload::trace::{self, TraceError};
use chiplet_workload::{DriverError, WorkloadDriver, WorkloadKind};
use hexamesh::arrangement::{Arrangement, ArrangementError, ArrangementKind};
use hexamesh::eval::{normalize, EvalError, EvalParams, EvalResult};
use hexamesh::link::{estimate_link, LinkParams, UCIE_POWER_FRACTION, UCIE_TOTAL_AREA_MM2};
use hexamesh::shape::{shape_for, ShapeError, ShapeParams};
use nocsim::measure as noc_measure;
use nocsim::{
    MeasureConfig, Probe, RouterModelKind, ShardedSimulator, SimConfig, SimError,
    TrafficPattern, WindowSample,
};

use crate::campaign::StageRecord;
use crate::cli::CampaignArgs;
use crate::grid::{kind_code, point_coords, OPTIMIZED_KIND_CODE};
use crate::spec::{Schedule, StageKind, StudySpec};
use crate::stats::mean_of;
use crate::table::{f3, Table};
use crate::Campaign;

/// Label of search-discovered arrangement rows in every stage that can
/// carry them.
pub const OPTIMIZED_LABEL: &str = "OPT";

/// One unified error for the study flow, wrapping the per-crate errors of
/// every stage.
#[derive(Debug)]
#[non_exhaustive]
pub enum StudyError {
    /// The spec is invalid or needs a hook that was not provided.
    Spec(String),
    /// Filesystem error while writing sinks or traces.
    Io(io::Error),
    /// Arrangement construction failed.
    Arrangement(ArrangementError),
    /// The evaluation pipeline failed.
    Eval(EvalError),
    /// The simulator rejected a configuration.
    Sim(SimError),
    /// A closed-loop workload run failed (deadlock suspicion, stall).
    Workload(DriverError),
    /// A workload trace could not be written.
    Trace(TraceError),
    /// A topology evaluation failed (kite stage).
    Topo(chiplet_topo::TopoEvalError),
    /// The thermal solver failed.
    Thermal(chiplet_thermal::ThermalError),
    /// The cost model rejected a configuration.
    Cost(chiplet_cost::CostError),
    /// Chiplet-shape solving failed.
    Shape(ShapeError),
    /// A hook-provided stage failed.
    Stage(String),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Spec(msg) => write!(f, "invalid study spec: {msg}"),
            StudyError::Io(e) => write!(f, "i/o error: {e}"),
            StudyError::Arrangement(e) => write!(f, "arrangement error: {e}"),
            StudyError::Eval(e) => write!(f, "evaluation error: {e}"),
            StudyError::Sim(e) => write!(f, "simulator error: {e}"),
            StudyError::Workload(e) => write!(f, "workload error: {e}"),
            StudyError::Trace(e) => write!(f, "trace error: {e}"),
            StudyError::Topo(e) => write!(f, "topology evaluation error: {e}"),
            StudyError::Thermal(e) => write!(f, "thermal error: {e}"),
            StudyError::Cost(e) => write!(f, "cost model error: {e}"),
            StudyError::Shape(e) => write!(f, "shape error: {e}"),
            StudyError::Stage(msg) => write!(f, "stage error: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for StudyError {
            fn from(e: $ty) -> Self {
                StudyError::$variant(e)
            }
        }
    };
}
from_error!(Io, io::Error);
from_error!(Arrangement, ArrangementError);
from_error!(Eval, EvalError);
from_error!(Sim, SimError);
from_error!(Workload, DriverError);
from_error!(Trace, TraceError);
from_error!(Topo, chiplet_topo::TopoEvalError);
from_error!(Thermal, chiplet_thermal::ThermalError);
from_error!(Cost, chiplet_cost::CostError);
from_error!(Shape, ShapeError);

/// One result table of a stage. `stem: None` writes under the campaign
/// name; stages producing companion artefacts (the saturation stage's
/// normalised series) name them explicitly.
#[derive(Debug, Clone)]
pub struct StageTable {
    /// Output file stem; `None` = the campaign name.
    pub stem: Option<String>,
    /// The rows, in final sink order.
    pub table: Table,
}

impl StageTable {
    /// A table written under the campaign name.
    #[must_use]
    pub fn main(table: Table) -> Self {
        Self { stem: None, table }
    }
}

/// What a stage produced: its tables plus human-readable summary lines
/// (printed by the binaries after the files are written).
#[derive(Debug, Clone, Default)]
pub struct StageOutput {
    /// Result tables, in write order.
    pub tables: Vec<StageTable>,
    /// Summary lines for stdout.
    pub summary: Vec<String>,
}

/// The full report of a study run.
#[derive(Debug)]
pub struct StudyReport {
    /// Paths written through the sinks, in write order.
    pub written: Vec<std::path::PathBuf>,
    /// The stage's summary lines.
    pub summary: Vec<String>,
    /// The stage's tables (for tests and programmatic callers).
    pub tables: Vec<StageTable>,
    /// Pool stage records booked during the run (job counts, wall time,
    /// peak workers) — the serving layer's evidence of how much backend
    /// work a request actually caused (a cache hit books none).
    pub stages: Vec<StageRecord>,
}

/// A search-stage implementation: runs the arrangement search for the
/// spec and returns its tables.
pub type SearchStageFn =
    dyn Fn(&StudySpec, &Campaign) -> Result<StageOutput, StudyError> + Sync;

/// An `optimized`-axis provider: the ICI graph of the best searched
/// arrangement at `n` under the spec's search parameters and the
/// campaign flags. Must be deterministic in `(spec, campaign seed)` and
/// independent of `--workers`.
pub type OptimizedGraphFn =
    dyn Fn(usize, &StudySpec, &CampaignArgs) -> Result<Graph, StudyError> + Sync;

/// Stage implementations injected from crates above the engine in the
/// dependency DAG (see the module docs). `chiplet_arrange::study::hooks()`
/// is the standard provider.
#[derive(Clone, Copy, Default)]
pub struct StageHooks<'a> {
    /// The search stage.
    pub search: Option<&'a SearchStageFn>,
    /// The `optimized` axis of the load-curve and workload stages.
    pub optimized_graph: Option<&'a OptimizedGraphFn>,
}

impl fmt::Debug for StageHooks<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageHooks")
            .field("search", &self.search.is_some())
            .field("optimized_graph", &self.optimized_graph.is_some())
            .finish()
    }
}

/// Parses the shared campaign flags and applies the spec's defaults for
/// the flags that are absent from `argv`: `seed`, `replicates`, and the
/// output directory (including the `to_repo_root` tracked-baseline
/// convention).
///
/// # Errors
///
/// Returns the first malformed flag, exactly like
/// [`CampaignArgs::try_parse`].
pub fn campaign_args_for(spec: &StudySpec, argv: &[String]) -> Result<CampaignArgs, String> {
    let mut args = CampaignArgs::try_parse(argv)?;
    let has = |flag: &str| argv.iter().any(|a| a == flag);
    if let Some(seed) = spec.seed {
        if !has("--seed") {
            args.campaign_seed = seed;
        }
    }
    if let Some(replicates) = spec.replicates {
        if !has("--seeds") {
            args.seeds = replicates.max(1);
        }
    }
    if !has("--out") {
        if spec.output.to_repo_root {
            args.out = std::path::PathBuf::from(".");
        } else if let Some(dir) = &spec.output.dir {
            args.out = std::path::PathBuf::from(dir);
        }
    }
    Ok(args)
}

/// Runs a study end to end: resolve the spec, execute its stage on the
/// campaign pool, write the sinks. Returns the paths written and the
/// stage's summary lines. Rows are byte-identical for any
/// `args.workers` value (the engine's standard contract).
///
/// # Errors
///
/// Returns a [`StudyError`] wrapping the failing layer's error; an
/// invalid spec or a missing hook fails before any job runs.
pub fn run_study(
    spec: &StudySpec,
    args: CampaignArgs,
    hooks: &StageHooks,
) -> Result<StudyReport, StudyError> {
    spec.validate().map_err(StudyError::Spec)?;
    let spec = &resolved(spec, &args);
    let campaign = Campaign::new(&spec.name, args);
    if spec.observe.trace {
        campaign.enable_trace();
    }
    let output = run_stage(spec, &campaign, hooks)?;
    let config = spec.to_value();
    let mut written = Vec::new();
    for staged in &output.tables {
        let stem = staged.stem.clone().unwrap_or_else(|| campaign.name().to_owned());
        written.extend(campaign.finish_named(&stem, &staged.table, config.clone())?);
    }
    if spec.observe.trace {
        if let Some(path) = campaign.write_trace()? {
            written.push(path);
        }
    }
    Ok(StudyReport {
        written,
        summary: output.summary,
        tables: output.tables,
        stages: campaign.stage_records(),
    })
}

/// Executes the spec's stage on an existing campaign and returns its
/// tables without touching the sinks — the serving layer's entry point
/// ([`run_study`] is this plus validation and the sink writes). The spec
/// should already be validated; it is resolved here ([`resolved`] is
/// idempotent), so every stage body and hook reads the resolved spec.
///
/// # Errors
///
/// Returns a [`StudyError`] wrapping the failing layer's error.
pub fn run_stage(
    spec: &StudySpec,
    campaign: &Campaign,
    hooks: &StageHooks,
) -> Result<StageOutput, StudyError> {
    let spec = &resolved(spec, campaign.args());
    campaign.set_stage(spec.stage.name());
    match spec.stage {
        StageKind::Proxies => proxies_stage(spec),
        StageKind::Saturation => saturation_stage(spec, campaign),
        StageKind::Traffic => traffic_stage(spec, campaign),
        StageKind::LoadCurve => load_curve_stage(spec, campaign, hooks),
        StageKind::Workload => workload_stage(spec, campaign, hooks),
        StageKind::Kite => kite_stage(spec, campaign),
        StageKind::Thermal => thermal_stage(spec, campaign),
        StageKind::Cost => cost_stage(spec),
        StageKind::Resilience => resilience_stage(spec, campaign),
        StageKind::Router => router_stage(spec, campaign),
        StageKind::Search => match hooks.search {
            Some(run) => run(spec, campaign),
            None => Err(StudyError::Spec(
                "the search stage runs through a hook (chiplet_arrange::study::hooks()); \
                 use the `study` binary or pass the hooks explicitly"
                    .to_owned(),
            )),
        },
    }
}

/// The spec with every stage default written out — the *resolved* form,
/// and the one place stage defaults live. [`run_study`] and [`run_stage`]
/// resolve before a stage runs, so a stage body reads only the resolved
/// spec, the manifest's `config` echoes what actually ran, and the
/// serving layer's cache key, hashed over the resolved form, is the same
/// for a spec that spells a default out and one that leans on it.
///
/// Filled from the stage and the `--quick`/`--full` tier of `args`:
/// - the axes the stage reads;
/// - `[schedule]` for the seven stages that simulate windows: the
///   `--quick` ([`MeasureConfig::quick`]) or `--full`
///   ([`MeasureConfig::default`]) tier's, else the stage's historical
///   windows at resolution 0.01 (the load curve searches no rate and has
///   none); a spec's own `[schedule]` that names no `rate_resolution`
///   keeps the tier's;
/// - the resilience `[faults]` sweep, its `fault_cycle` at half the
///   resolved warm-up;
/// - the workload stage's `max_cycles` and the probe period
///   `observe.sample_every` when a timeline or heatmap is on.
///
/// Three values stay as written, because unset is not a default there:
/// resilience `axes.kinds` (its structural and degradation tables default
/// to *different* kinds), router `axes.workloads` (unset means no
/// makespan columns, a different table shape), and search
/// `restarts`/`iterations` (the hook's `SearchConfig::{quick, new}`
/// tiers also set greedy iterations, which no key names).
///
/// Only settings the stage reads are filled, so a resolved spec still
/// passes [`StudySpec::validate`]. Resolving twice changes nothing.
#[must_use]
pub fn resolved(spec: &StudySpec, args: &CampaignArgs) -> StudySpec {
    let mut resolved = spec.clone();
    let axes = &mut resolved.axes;
    match spec.stage {
        StageKind::Proxies => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::EVALUATED.to_vec());
            axes.ns.get_or_insert_with(|| (1..=100).collect());
        }
        StageKind::Saturation => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::EVALUATED.to_vec());
            axes.ns.get_or_insert_with(|| (2..=100).collect());
            axes.patterns.get_or_insert_with(|| vec![TrafficPattern::UniformRandom]);
        }
        StageKind::Traffic => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::EVALUATED.to_vec());
            axes.ns.get_or_insert_with(|| vec![37]);
            axes.patterns.get_or_insert_with(|| DEFAULT_TRAFFIC_PATTERNS.to_vec());
        }
        StageKind::LoadCurve => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::EVALUATED.to_vec());
            axes.ns.get_or_insert_with(|| vec![37]);
            axes.rates.get_or_insert_with(default_curve_rates);
            axes.patterns.get_or_insert_with(|| vec![TrafficPattern::UniformRandom]);
        }
        StageKind::Workload => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::ALL.to_vec());
            axes.ns.get_or_insert_with(|| {
                if args.quick {
                    vec![7, 13, 19]
                } else {
                    vec![37, 61, 91]
                }
            });
            axes.workloads.get_or_insert_with(|| WorkloadKind::ALL.to_vec());
            resolved.workload.max_cycles.get_or_insert(MAX_CYCLES);
        }
        StageKind::Search => {
            axes.ns.get_or_insert_with(|| {
                if args.quick {
                    vec![19, 37]
                } else {
                    vec![37, 91, 169, 271]
                }
            });
        }
        StageKind::Kite => {
            axes.ns.get_or_insert_with(|| vec![16, 25, 36, 49]);
        }
        StageKind::Thermal => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::EVALUATED.to_vec());
            axes.ns.get_or_insert_with(|| vec![16, 37, 64]);
        }
        StageKind::Cost => {
            axes.ns.get_or_insert_with(|| vec![2, 4, 8, 16, 25, 36, 49, 64, 100]);
        }
        StageKind::Router => {
            axes.kinds.get_or_insert_with(|| ArrangementKind::ALL.to_vec());
            axes.ns.get_or_insert_with(|| {
                if args.quick {
                    vec![7, 13]
                } else {
                    vec![37, 91, 169]
                }
            });
            axes.routers.get_or_insert_with(|| RouterModelKind::ALL.to_vec());
        }
        StageKind::Resilience => {
            axes.ns.get_or_insert_with(|| STRUCTURAL_RESILIENCE_NS.to_vec());
        }
    }
    if let Some(tier) = default_schedule(spec.stage, args) {
        let schedule = resolved.schedule.get_or_insert_with(|| tier.clone());
        schedule.rate_resolution = schedule.rate_resolution.or(tier.rate_resolution);
        if spec.stage == StageKind::Resilience {
            let faults = &mut resolved.faults;
            let ns = if args.quick { vec![7, 13] } else { vec![37, 91, 169] };
            faults.ns.get_or_insert(ns);
            faults.link_failures.get_or_insert_with(|| vec![0, 1, 2, 4]);
            faults.fault_cycle.get_or_insert(schedule.warmup_cycles / 2);
            faults
                .retransmit_timeout
                .get_or_insert(nocsim::RetransmitConfig::default().timeout);
        }
    }
    if resolved.observe.wants_probe() {
        resolved.observe.sample_every.get_or_insert(250);
    }
    resolved
}

/// The `[schedule]` a stage runs when its spec names none, or `None` for
/// the stages that simulate no windows. The default tier keeps each
/// stage's historical windows: 3 000/6 000 cycles for the
/// saturation-searching stages, 4 000/8 000 for the load curve, and the
/// paper-scale 5 000/10 000 for the kite stage.
fn default_schedule(stage: StageKind, args: &CampaignArgs) -> Option<Schedule> {
    use StageKind::{Kite, LoadCurve, Resilience, Router, Saturation, Search, Traffic};
    let windows = match stage {
        Saturation | Traffic | Router | Resilience | Search => (3_000, 6_000),
        LoadCurve => (4_000, 8_000),
        Kite => (5_000, 10_000),
        _ => return None,
    };
    let tier = if args.quick { MeasureConfig::quick() } else { MeasureConfig::default() };
    let (warmup, measure) = if args.quick || args.full {
        (tier.warmup_cycles, tier.measure_cycles)
    } else {
        windows
    };
    let mut schedule = Schedule::new(warmup, measure);
    schedule.rate_resolution = (stage != LoadCurve).then_some(tier.rate_resolution);
    Some(schedule)
}

/// The saturation-search schedule of a resolved spec ([`resolved`]): its
/// `[schedule]` with `sim.shards` threads per simulation. The one
/// conversion the flow's searching stages and the search hook share.
///
/// # Panics
///
/// If `spec` has no `[schedule]`: resolve it first.
#[must_use]
pub fn measure_for(spec: &StudySpec) -> MeasureConfig {
    let mut measure = MeasureConfig::default();
    spec.schedule.as_ref().expect(RESOLVED).apply(&mut measure);
    measure.shards = spec.sim.shards.unwrap_or(1);
    measure
}

// ── shared resolution helpers ───────────────────────────────────────────

/// Why a stage body may take a default as present.
const RESOLVED: &str = "`resolved` fills every default the stage reads";

/// The values of a list [`resolved`] filled in.
fn axis<T>(values: &Option<Vec<T>>) -> &[T] {
    values.as_deref().expect(RESOLVED)
}

/// The resolved chiplet counts in ascending order: the row order of the
/// tables that group their rows by `n`.
fn ns_ascending(spec: &StudySpec) -> Vec<usize> {
    let mut ns = axis(&spec.axes.ns).to_vec();
    ns.sort_unstable();
    ns
}

/// Seed-word code and row label of an arrangement family; `None` is the
/// searched (`OPT`) arrangement.
fn family(kind: Option<ArrangementKind>) -> (u64, &'static str) {
    kind.map_or((OPTIMIZED_KIND_CODE, OPTIMIZED_LABEL), |k| (kind_code(k), k.label()))
}

/// Full name of an arrangement family for trace labels and messages.
fn family_name(kind: Option<ArrangementKind>) -> String {
    kind.map_or_else(|| OPTIMIZED_LABEL.to_owned(), |k| k.to_string())
}

/// The searched (`OPT`) arrangement's graph at every resolved `n`, for
/// the `optimized` axis of the load-curve and workload stages; empty
/// when the axis is off.
fn optimized_graphs(
    spec: &StudySpec,
    campaign: &Campaign,
    hooks: &StageHooks,
) -> Result<Vec<(usize, Graph)>, StudyError> {
    if !spec.axes.optimized {
        return Ok(Vec::new());
    }
    let graph_of = hooks.optimized_graph.ok_or_else(|| {
        StudyError::Spec(
            "axes.optimized needs the search-backed graph hook \
             (chiplet_arrange::study::hooks()); use the `study` binary or pass the hooks \
             explicitly"
                .to_owned(),
        )
    })?;
    // One search at a time: each runs its own restart pool on `--workers`.
    let ns = axis(&spec.axes.ns);
    let args = campaign.args();
    let graphs = campaign.run_jobs(
        ns,
        args.workers,
        |&n| n as u64,
        |n| format!("{OPTIMIZED_LABEL} n={n}"),
        |&n| graph_of(n, spec, args),
    );
    ns.iter().zip(graphs).map(|(&n, graph)| Ok((n, graph?))).collect()
}

/// Every replicate's result per cell, or the first error in cell order.
fn all_ok<T, E>(cells: Vec<Vec<Result<T, E>>>) -> Result<Vec<Vec<T>>, E> {
    cells.into_iter().map(|reps| reps.into_iter().collect()).collect()
}

/// Runs `f` on the graph of family `kind` at `n`: the fixed arrangement,
/// or for `OPT` the searched graph among `optimized`.
fn with_graph<R>(
    kind: Option<ArrangementKind>,
    n: usize,
    optimized: &[(usize, Graph)],
    f: impl FnOnce(&Graph) -> R,
) -> R {
    match kind {
        Some(kind) => f(Arrangement::build(kind, n).expect("any n builds").graph()),
        None => f(&optimized.iter().find(|(m, _)| *m == n).expect("an OPT graph per n").1),
    }
}

// ── proxies stage ───────────────────────────────────────────────────────

fn proxies_stage(spec: &StudySpec) -> Result<StageOutput, StudyError> {
    let ns = axis(&spec.axes.ns);
    let points = sweep::proxy_sweep_over(axis(&spec.axes.kinds), ns);
    let mut table = Table::new(&["kind", "regularity", "n", "diameter", "bisection"]);
    for p in &points {
        table.row(&[
            &p.kind.label(),
            &p.regularity.to_string(),
            &p.n,
            &p.diameter,
            &f3(p.bisection),
        ]);
    }
    let mut summary = Vec::new();
    let last_n = *ns.iter().max().expect("validated non-empty");
    let at = |kind: ArrangementKind| points.iter().find(|p| p.kind == kind && p.n == last_n);
    if let (Some(g), Some(hm)) = (at(ArrangementKind::Grid), at(ArrangementKind::HexaMesh)) {
        summary.push(format!(
            "proxies at N = {last_n}: diameter HM/G = {:.2}, bisection HM/G = {:.2}",
            f64::from(hm.diameter) / f64::from(g.diameter.max(1)),
            hm.bisection / g.bisection.max(f64::MIN_POSITIVE),
        ));
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

// ── saturation stage (the Fig. 7 pipeline) ──────────────────────────────

fn saturation_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    let kinds = axis(&spec.axes.kinds);
    let ns = ns_ascending(spec);
    let pattern = axis(&spec.axes.patterns)[0];
    let mut params = EvalParams::paper_defaults();
    params.sim = spec.base_sim();
    params.sim.pattern = pattern;
    params.measure = measure_for(spec);
    let args = campaign.args();

    eprintln!(
        "{}: evaluating {} chiplet counts x {} kinds x {} seeds on {} workers (quick={}, routing={})",
        campaign.name(),
        ns.len(),
        kinds.len(),
        args.seeds,
        args.workers,
        args.quick,
        params.sim.routing,
    );
    // Fig. 7 rows read by kind label, then n. `kinds` itself keeps its
    // order: the normalised series below iterates it.
    let mut by_label = kinds.to_vec();
    by_label.sort_by_key(|kind| kind.label());
    let cells: Vec<(ArrangementKind, usize)> =
        by_label.iter().flat_map(|&kind| ns.iter().map(move |&n| (kind, n))).collect();
    let replicates = campaign.run_cells(
        &cells,
        params.measure.shards,
        |&(kind, n)| point_coords(kind_code(kind), n, None, pattern, None, None),
        |&(_, n)| n as u64,
        |(kind, n)| format!("{kind} n={n}"),
        |&(kind, n), seed| {
            let arrangement = Arrangement::build(kind, n).expect("n >= 1 builds");
            let mut p = params;
            p.sim.seed = seed;
            hexamesh::eval::evaluate(&arrangement, &p)
                .unwrap_or_else(|e| panic!("evaluate {kind} n={n}: {e}"))
        },
    );
    let results: Vec<EvalResult> = replicates
        .iter()
        .map(|reps| {
            let field = |f: fn(&EvalResult) -> f64| mean_of(reps, f);
            EvalResult {
                zero_load_latency_cycles: field(|r| r.zero_load_latency_cycles),
                saturation_fraction: field(|r| r.saturation_fraction),
                saturation_throughput_tbps: field(|r| r.saturation_throughput_tbps),
                ..reps[0]
            }
        })
        .collect();

    // ── Absolute series (Fig. 7a / 7b) ──────────────────────────────────
    let mut table = Table::new(&[
        "kind",
        "regularity",
        "n",
        "zero_load_latency_cycles",
        "saturation_fraction",
        "link_bandwidth_gbps",
        "full_global_bandwidth_tbps",
        "saturation_throughput_tbps",
        "diameter",
    ]);
    for r in &results {
        table.row(&[
            &r.kind.label(),
            &r.regularity.to_string(),
            &r.n,
            &f3(r.zero_load_latency_cycles),
            &f3(r.saturation_fraction),
            &f3(r.link_bandwidth_gbps),
            &f3(r.full_global_bandwidth_tbps),
            &f3(r.saturation_throughput_tbps),
            &r.diameter,
        ]);
    }
    let mut output = StageOutput::default();
    output.tables.push(StageTable::main(table));

    // ── Normalised series (Fig. 7c / 7d) ────────────────────────────────
    if let Some(norm_stem) = &spec.saturation.normalized_stem {
        let by_kind = |kind: ArrangementKind| -> Vec<EvalResult> {
            results.iter().copied().filter(|r| r.kind == kind).collect()
        };
        let grid = by_kind(ArrangementKind::Grid);
        let mut normalized = Table::new(&["kind", "n", "latency_pct", "throughput_pct"]);
        output
            .summary
            .push("summary (averages over N >= 10, relative to the grid):".to_owned());
        output.summary.push(
            "  paper:    BW latency ~80%, throughput ~112%;  HM latency ~80%, throughput ~134%"
                .to_owned(),
        );
        for &kind in kinds.iter().filter(|&&k| k != ArrangementKind::Grid) {
            let series = normalize(&by_kind(kind), &grid);
            for p in &series {
                normalized.row(&[
                    &kind.label(),
                    &p.n,
                    &f3(p.latency_pct),
                    &f3(p.throughput_pct),
                ]);
            }
            // The paper's averages are over N >= 10, where layouts
            // stabilise.
            let lat: Vec<f64> =
                series.iter().filter(|p| p.n >= 10).map(|p| p.latency_pct).collect();
            let thr: Vec<f64> =
                series.iter().filter(|p| p.n >= 10).map(|p| p.throughput_pct).collect();
            let (lat, thr) = (
                crate::stats::mean(&lat).unwrap_or(f64::NAN),
                crate::stats::mean(&thr).unwrap_or(f64::NAN),
            );
            output.summary.push(format!(
                "  measured: {} latency {lat:.1}% (Δ {:+.1}%), throughput {thr:.1}% (Δ {:+.1}%)",
                kind.label(),
                lat - 100.0,
                thr - 100.0
            ));
        }
        output.tables.push(StageTable { stem: Some(norm_stem.clone()), table: normalized });
    }
    Ok(output)
}

// ── traffic stage (pattern-sensitivity ablation) ────────────────────────

/// The historical default sweep: benign baseline + four adversaries.
const DEFAULT_TRAFFIC_PATTERNS: [TrafficPattern; 5] = [
    TrafficPattern::UniformRandom,
    TrafficPattern::BitComplement,
    TrafficPattern::BitReverse,
    TrafficPattern::Tornado,
    TrafficPattern::Hotspot { num_hotspots: 4, fraction_permille: 500 },
];

fn traffic_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    let kinds = axis(&spec.axes.kinds);
    let schedule = measure_for(spec);
    let sim = spec.base_sim();

    // Pattern-major rows: pattern, then n, then kind.
    let mut cells = Vec::new();
    for &pattern in axis(&spec.axes.patterns) {
        for n in ns_ascending(spec) {
            cells.extend(kinds.iter().map(|&kind| (pattern, n, kind)));
        }
    }
    let replicates = campaign.run_cells(
        &cells,
        schedule.shards,
        |&(pattern, n, kind)| point_coords(kind_code(kind), n, None, pattern, None, None),
        |&(_, n, _)| n as u64,
        |(pattern, n, kind)| format!("{kind} n={n} {}", pattern.name()),
        |&(pattern, n, kind), seed| {
            let arrangement = Arrangement::build(kind, n).expect("any n builds");
            let graph = arrangement.graph();
            let config = SimConfig { pattern, seed, ..sim };
            let zero_load =
                noc_measure::zero_load_latency(graph, &config).expect("connected graph");
            let sat = noc_measure::saturation_search(graph, &config, &schedule, zero_load)
                .expect("valid configuration");
            (zero_load, sat.throughput)
        },
    );
    let points: Vec<(f64, f64)> = replicates
        .iter()
        .map(|reps| (mean_of(reps, |r| r.0), mean_of(reps, |r| r.1)))
        .collect();

    let mut table = Table::new(&[
        "n",
        "pattern",
        "kind",
        "zero_load_latency_cycles",
        "saturation_fraction",
        "saturation_vs_grid",
    ]);
    let mut summary = Vec::new();
    for (&(pattern, n, kind), &(zero_load, sat)) in cells.iter().zip(&points) {
        let pattern_name = pattern.name();
        let grid_sat = cells
            .iter()
            .position(|&cell| cell == (pattern, n, ArrangementKind::Grid))
            .map(|i| points[i].1)
            .filter(|&g| g > 0.0);
        let vs_grid = grid_sat.map_or(f64::NAN, |g| sat / g);
        summary.push(format!(
            "{pattern_name:<14} n={n:<4} {:<4} lat {zero_load:>7.1} sat {sat:.3} vs grid {vs_grid:.2}",
            kind.label(),
        ));
        table.row(&[&n, &pattern_name, &kind.label(), &f3(zero_load), &f3(sat), &f3(vs_grid)]);
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

// ── load-curve stage ────────────────────────────────────────────────────

/// The metrics of one simulated curve point.
struct CurvePoint {
    accepted: f64,
    avg: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    queue_max: u64,
    queue_mean: f64,
}

/// The historical default rate sweep: 0.04 … 0.48 in 0.04 steps.
fn default_curve_rates() -> Vec<f64> {
    (1..=12u32).map(|step| f64::from(step) * 0.04).collect()
}

/// The load-curve result table, header only.
fn curve_table() -> Table {
    Table::new(&[
        "n",
        "kind",
        "pattern",
        "offered_flits_per_cycle",
        "accepted_flits_per_cycle",
        "avg_latency_cycles",
        "p50_latency_cycles",
        "p95_latency_cycles",
        "p99_latency_cycles",
        "max_source_queue_flits",
        "mean_source_queue_flits",
    ])
}

/// One load-curve cell: a table row's coordinates. A cell aggregates its
/// replicates into exactly one row, and its seeds derive from the
/// coordinates alone, so its row is bit-identical whether it runs in the
/// full grid, in a sub-grid, or alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveCell {
    /// Arrangement family; `None` is the searched (`OPT`) arrangement.
    pub kind: Option<ArrangementKind>,
    /// Chiplet count.
    pub n: usize,
    /// Offered injection rate (flits per cycle per endpoint).
    pub rate: f64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
}

impl CurveCell {
    /// The cell's seed words, which are also its identity in the serving
    /// layer's warm-start splice.
    pub(crate) fn coords(&self) -> Vec<u64> {
        point_coords(family(self.kind).0, self.n, Some(self.rate), self.pattern, None, None)
    }
}

/// The load-curve cells of a resolved spec ([`resolved`]) in row
/// order: the fixed families (kind → n → rate → pattern), then the `OPT`
/// cells (n → rate → pattern) when the `optimized` axis is on. The
/// serving layer's warm-start splice walks the same list.
#[must_use]
pub fn load_curve_cells(spec: &StudySpec) -> Vec<CurveCell> {
    let fixed = axis(&spec.axes.kinds).iter().copied().map(Some);
    let mut cells = Vec::new();
    for kind in fixed.chain(spec.axes.optimized.then_some(None)) {
        for &n in axis(&spec.axes.ns) {
            for &rate in axis(&spec.axes.rates) {
                for &pattern in axis(&spec.axes.patterns) {
                    cells.push(CurveCell { kind, n, rate, pattern });
                }
            }
        }
    }
    cells
}

/// Runs exactly `cells` of the load-curve stage on `campaign` and
/// returns their aggregated rows in cell order — the resumable /
/// partial-grid entry point behind the serving layer's warm-start. It
/// shares the stage's runner and seed rule, so the rows splice
/// bit-identically into a from-scratch superset run (pinned by the serve
/// battery's golden tests).
///
/// The partial path covers the plain fixed-family grid; specs using the
/// `optimized` axis or `[observe]` artefacts need a full [`run_study`].
///
/// # Errors
///
/// [`StudyError::Spec`] for an invalid spec, a non-load-curve stage, or
/// an unsupported feature.
pub fn run_load_curve_cells(
    spec: &StudySpec,
    campaign: &Campaign,
    cells: &[CurveCell],
) -> Result<Table, StudyError> {
    if spec.stage != StageKind::LoadCurve {
        return Err(StudyError::Spec(format!(
            "run_load_curve_cells runs the load_curve stage, not {}",
            spec.stage
        )));
    }
    if spec.axes.optimized || !spec.observe.is_off() || cells.iter().any(|c| c.kind.is_none()) {
        return Err(StudyError::Spec(
            "the partial-grid path covers the plain fixed-family grid; `axes.optimized` \
             and `[observe]` need a full run_study"
                .to_owned(),
        ));
    }
    spec.validate().map_err(StudyError::Spec)?;
    Ok(run_curves(&resolved(spec, campaign.args()), campaign, cells, &[]).0)
}

/// The load-curve runner behind both the stage and the partial-grid
/// path: runs `cells` in one pool run and returns their rows (the
/// replicate mean, `max` for the queue high-water mark) plus what the
/// `[observe]` probes saw. `optimized` holds the `OPT` graph per `n`.
fn run_curves(
    spec: &StudySpec,
    campaign: &Campaign,
    cells: &[CurveCell],
    optimized: &[(usize, Graph)],
) -> (Table, Vec<ObservedPoint>) {
    let schedule = spec.schedule.as_ref().expect(RESOLVED);
    let windows = (schedule.warmup_cycles, schedule.measure_cycles);
    let sim = spec.base_sim();
    let shards = spec.sim.shards.unwrap_or(1);
    // `[observe]`: probes ride along with every job (recording into
    // preallocated buffers, never changing a row) and feed the timeline
    // table and the per-point heatmaps. The resolved spec names a probe
    // period exactly when a timeline or heatmap is on.
    let probe = spec
        .observe
        .sample_every
        .map(|every| Probe::new(every, Probe::capacity_for(every, windows.0 + windows.1) + 1));
    let replicates = campaign.run_cells(
        cells,
        shards,
        CurveCell::coords,
        |c| c.n as u64,
        |c| format!("{} n={} rate={}", family_name(c.kind), c.n, c.rate),
        |c, seed| {
            let config = SimConfig { injection_rate: c.rate, pattern: c.pattern, seed, ..sim };
            with_graph(c.kind, c.n, optimized, |graph| {
                curve_point(graph, config, windows, shards, probe)
            })
        },
    );
    let mut table = curve_table();
    let mut observed = Vec::new();
    for (&cell, reps) in cells.iter().zip(replicates) {
        let mut points = Vec::with_capacity(reps.len());
        for (replicate, (point, obs)) in reps.into_iter().enumerate() {
            points.push(point);
            if let Some(obs) = obs {
                observed.push(ObservedPoint { cell, replicate: replicate as u64, obs });
            }
        }
        let of = |f: fn(&CurvePoint) -> f64| f3(mean_of(&points, f));
        table.row(&[
            &cell.n,
            &family(cell.kind).1,
            &cell.pattern.name(),
            &f3(cell.rate),
            &of(|p| p.accepted),
            &of(|p| p.avg),
            &of(|p| p.p50),
            &of(|p| p.p95),
            &of(|p| p.p99),
            &points.iter().map(|p| p.queue_max).max().unwrap_or(0),
            &of(|p| p.queue_mean),
        ]);
    }
    (table, observed)
}

fn curve_point(
    graph: &Graph,
    config: SimConfig,
    windows: (u64, u64),
    shards: usize,
    probe: Option<Probe>,
) -> (CurvePoint, Option<Observation>) {
    // One histogram merge serves all three tail percentiles. The sharded
    // engine is bit-identical at any shard count, so `shards` never
    // changes a row — and the probe records on the side, so observing
    // never changes one either (the zero-perturbation contract, pinned by
    // nocsim's probe tests).
    let mut simulator =
        ShardedSimulator::new(graph, config, shards).expect("valid configuration");
    if let Some(probe) = probe {
        simulator.attach_probe(probe);
    }
    let stats = simulator.run_to_window(windows.0, windows.1);
    let tails = simulator.latency_percentiles(&[0.50, 0.95, 0.99]);
    let observed = probe.map(|_| Observation {
        windows: simulator.obs_windows(),
        channel_loads: simulator.channel_loads(),
    });
    let point = CurvePoint {
        accepted: stats.accepted_flits_per_cycle_per_endpoint,
        avg: stats.avg_packet_latency.unwrap_or(f64::NAN),
        p50: tails[0].unwrap_or(f64::NAN),
        p95: tails[1].unwrap_or(f64::NAN),
        p99: tails[2].unwrap_or(f64::NAN),
        queue_max: stats.max_source_queue_flits,
        queue_mean: stats.avg_source_queue_flits,
    };
    (point, observed)
}

// ── load-curve observability ────────────────────────────────────────────

/// What the probe saw during one load point.
struct Observation {
    /// The window series, merged across shards.
    windows: Vec<WindowSample>,
    /// Per-directed-link flit counts over the whole run, `(src, dst,
    /// flits)` — the congestion-heatmap input.
    channel_loads: Vec<(usize, usize, u64)>,
}

/// One observed load point: its cell and replicate plus what the probe
/// saw. `OPT` cells have no physical placement to draw.
struct ObservedPoint {
    cell: CurveCell,
    replicate: u64,
    obs: Observation,
}

/// The windowed time series of every observed point as one long table
/// (the `timeline` companion artefact).
fn timeline_table(points: &[ObservedPoint], endpoints_per_router: usize) -> Table {
    let mut table = Table::new(&[
        "kind",
        "n",
        "pattern",
        "offered_flits_per_cycle",
        "replicate",
        "window",
        "start_cycle",
        "end_cycle",
        "received_flits_per_cycle_per_endpoint",
        "avg_latency_cycles",
        "flits_in_network",
        "buffered_flits",
        "vc_starved",
        "credit_starved",
        "switch_lost",
        "link_flits",
        "max_link_flits",
    ]);
    for ObservedPoint { cell, replicate, obs } in points {
        let endpoints = cell.n * endpoints_per_router;
        let pattern_name = cell.pattern.name();
        for w in &obs.windows {
            table.row(&[
                &family(cell.kind).1,
                &cell.n,
                &pattern_name,
                &f3(cell.rate),
                replicate,
                &w.window,
                &w.start_cycle,
                &w.end_cycle,
                &f3(w.received_flits_per_cycle_per_endpoint(endpoints)),
                &f3(w.avg_latency().unwrap_or(f64::NAN)),
                &w.flits_in_network,
                &w.buffered_flits,
                &w.stalls.vc_starved,
                &w.stalls.credit_starved,
                &w.stalls.switch_lost,
                &w.link_flits,
                &w.max_link_flits,
            ]);
        }
    }
    table
}

/// Renders one congestion-heatmap SVG per replicate-0 observed point that
/// has a physical placement (the honeycomb and `OPT` rows are graph-only
/// and are skipped). Returns the paths written.
fn write_heatmaps(
    out: &std::path::Path,
    points: &[ObservedPoint],
) -> io::Result<Vec<std::path::PathBuf>> {
    use chiplet_layout::svg::{to_heatmap_svg, HeatOverlay, SvgStyle};

    let mut written = Vec::new();
    for ObservedPoint { cell, replicate, obs } in points {
        if *replicate != 0 {
            continue;
        }
        let Some(kind) = cell.kind else {
            continue;
        };
        let arrangement = Arrangement::build(kind, cell.n).expect("any n builds");
        let Some(placement) = arrangement.placement() else {
            continue;
        };
        // Fold the directed channel loads into undirected edge totals and
        // per-vertex sums, each normalised to its hottest element so the
        // full colour ramp is always used.
        let mut vertex = vec![0u64; cell.n];
        let mut edges: Vec<((usize, usize), u64)> = Vec::new();
        for &(src, dst, flits) in &obs.channel_loads {
            if let Some(sum) = vertex.get_mut(src) {
                *sum += flits;
            }
            if let Some(sum) = vertex.get_mut(dst) {
                *sum += flits;
            }
            let key = (src.min(dst), src.max(dst));
            match edges.iter_mut().find(|(k, _)| *k == key) {
                Some((_, sum)) => *sum += flits,
                None => edges.push((key, flits)),
            }
        }
        let vertex_max = vertex.iter().copied().max().unwrap_or(0).max(1) as f64;
        let edge_max = edges.iter().map(|&(_, sum)| sum).max().unwrap_or(0).max(1) as f64;
        let cell_load: Vec<f64> = vertex.iter().map(|&v| v as f64 / vertex_max).collect();
        let edge_load: Vec<(usize, usize, f64)> =
            edges.iter().map(|&((a, b), sum)| (a, b, sum as f64 / edge_max)).collect();

        let heat = HeatOverlay { cell_load: &cell_load, edge_load: &edge_load };
        let svg = to_heatmap_svg(placement, &SvgStyle::default(), &heat);
        let permille = (cell.rate * 1000.0).round() as u64;
        std::fs::create_dir_all(out)?;
        let path = out.join(format!(
            "heatmap_{}_n{}_r{permille:03}_{}.svg",
            kind.name(),
            cell.n,
            cell.pattern.name()
        ));
        std::fs::write(&path, svg)?;
        written.push(path);
    }
    Ok(written)
}

fn load_curve_stage(
    spec: &StudySpec,
    campaign: &Campaign,
    hooks: &StageHooks,
) -> Result<StageOutput, StudyError> {
    let optimized = optimized_graphs(spec, campaign, hooks)?;
    let (table, observed_points) =
        run_curves(spec, campaign, &load_curve_cells(spec), &optimized);
    let mut summary = vec![format!(
        "load curves over kinds={} ns={:?} rates={} patterns={} ({} rows)",
        axis(&spec.axes.kinds).len(),
        axis(&spec.axes.ns),
        axis(&spec.axes.rates).len(),
        axis(&spec.axes.patterns).len(),
        table.len()
    )];
    let mut tables = vec![StageTable::main(table)];
    if spec.observe.timeline {
        let timeline = timeline_table(&observed_points, spec.base_sim().endpoints_per_router);
        summary.push(format!("timeline: {} windowed samples", timeline.len()));
        tables.push(StageTable { stem: Some("timeline".to_owned()), table: timeline });
    }
    if spec.observe.heatmap {
        let paths = write_heatmaps(&campaign.args().out, &observed_points)?;
        summary.push(format!(
            "heatmaps: {} SVGs under {}",
            paths.len(),
            campaign.args().out.display()
        ));
    }
    Ok(StageOutput { tables, summary })
}

// ── workload stage ──────────────────────────────────────────────────────

/// Cycle budget per closed-loop run — far above any sane makespan; the
/// driver bails out on suspected deadlock long before this. The workload
/// stage's default `max_cycles`, and the fixed budget of the resilience
/// and router stages' makespan runs.
const MAX_CYCLES: u64 = 50_000_000;

fn workload_stage(
    spec: &StudySpec,
    campaign: &Campaign,
    hooks: &StageHooks,
) -> Result<StageOutput, StudyError> {
    use chiplet_workload::WorkloadStats;

    let workloads = axis(&spec.axes.workloads);
    let ns = axis(&spec.axes.ns);
    let max_cycles = spec.workload.max_cycles.expect(RESOLVED);
    let sim = spec.base_sim();
    let optimized = optimized_graphs(spec, campaign, hooks)?;

    // Rows read workload, then n, then kind; each (workload, n) group is
    // one ranking, with the searched arrangement last.
    let fixed = axis(&spec.axes.kinds).iter().copied().map(Some);
    let families: Vec<_> = fixed.chain(spec.axes.optimized.then_some(None)).collect();
    let mut cells = Vec::new();
    for &workload in workloads {
        for n in ns_ascending(spec) {
            cells.extend(families.iter().map(|&kind| (workload, n, kind)));
        }
    }
    let results = campaign.run_cells(
        &cells,
        1,
        |&(w, n, kind)| {
            point_coords(family(kind).0, n, None, TrafficPattern::UniformRandom, Some(w), None)
        },
        // Quadratic-message kernels (ring all-reduce and all-to-all move
        // Θ(E²) messages) dominate a mixed sweep.
        |&(w, n, _)| match w {
            WorkloadKind::RingAllReduce | WorkloadKind::AllToAll => (n * n) as u64,
            _ => n as u64,
        },
        |&(w, n, kind)| format!("{} n={n} {w}", family_name(kind)),
        |&(w, n, kind), seed| {
            let config = SimConfig { seed, ..sim };
            let workload = w.build(n * config.endpoints_per_router);
            let stats = with_graph(kind, n, &optimized, |graph| {
                WorkloadDriver::new(graph, config, &workload)
                    .expect("valid driver")
                    .run(max_cycles)
            });
            if stats.completed {
                Ok(stats)
            } else {
                Err(format!(
                    "{w} on {} n={n} stalled at {}/{} messages",
                    family_name(kind),
                    stats.delivered_messages,
                    workload.len()
                ))
            }
        },
    );

    if spec.workload.traces {
        let dir = campaign.args().out.join("traces");
        std::fs::create_dir_all(&dir)?;
        let mut summary_paths = Vec::new();
        for &kind in workloads {
            for &n in ns {
                let endpoints = n * sim.endpoints_per_router;
                let path = dir.join(format!("{kind}_e{endpoints}.trace.csv"));
                trace::save(&kind.build(endpoints), &path)?;
                summary_paths.push(path);
            }
        }
        for path in summary_paths {
            eprintln!("wrote {}", path.display());
        }
    }

    let stats: Vec<Vec<WorkloadStats>> = all_ok(results).map_err(StudyError::Stage)?;
    let mut table = Table::new(&[
        "workload",
        "n",
        "kind",
        "messages",
        "flits",
        "makespan_cycles",
        "critical_path_cycles",
        "overhead",
        "avg_packet_latency_cycles",
        "max_source_queue_flits",
        "mean_source_queue_flits",
        "rank",
    ]);
    let mut summary = Vec::new();
    for (group, reps) in cells.chunks(families.len()).zip(stats.chunks(families.len())) {
        // Rank the kinds of one (workload, n) point by replicate-mean
        // makespan (shared competition ranking: identical makespans —
        // routine for brickwall vs. honeycomb — share the better rank).
        let makespans: Vec<f64> =
            reps.iter().map(|r| mean_of(r, |s| s.makespan as f64)).collect();
        let rank = sweep::competition_rank(&makespans);
        for (i, (&(w, n, kind), r)) in group.iter().zip(reps).enumerate() {
            let critical = mean_of(r, |s| s.critical_path_cycles as f64);
            let latency = mean_of(r, |s| s.network.avg_packet_latency.unwrap_or(f64::NAN));
            table.row(&[
                &w.label(),
                &n,
                &family(kind).1,
                &r[0].delivered_messages,
                &r[0].delivered_flits,
                &f3(makespans[i]),
                &f3(critical),
                &f3(makespans[i] / critical.max(1.0)),
                &f3(latency),
                &r[0].network.max_source_queue_flits,
                &f3(r[0].network.avg_source_queue_flits),
                &rank[i],
            ]);
        }
        let best = rank.iter().position(|&r| r == 1).expect("non-empty group");
        let (w, n, kind) = group[best];
        summary.push(format!(
            "{} n={n}: fastest is {} ({:.0} cycles)",
            w.label(),
            family(kind).1,
            makespans[best]
        ));
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

// ── kite stage (HexaMesh vs length-aware grid topologies, §VII) ─────────

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KiteVariant {
    Mesh,
    Ftorus,
    Express,
    HexaMesh,
}

const KITE_VARIANTS: [KiteVariant; 4] =
    [KiteVariant::Mesh, KiteVariant::Ftorus, KiteVariant::Express, KiteVariant::HexaMesh];

struct KiteRow {
    name: String,
    links: usize,
    max_degree: usize,
    min_rate_gbps: f64,
    zero_load: f64,
    sat_tbps: f64,
}

fn kite_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    use chiplet_phy::Technology;
    use chiplet_topo::{evaluate, EvalOptions};

    let tech = Technology::organic_substrate();
    // Validation admits only perfect squares ≥ 4 (`StudySpec::validate`).
    let cells: Vec<(usize, KiteVariant)> =
        axis(&spec.axes.ns).iter().flat_map(|&n| KITE_VARIANTS.map(|v| (n, v))).collect();

    let schedule = measure_for(spec);
    let results = campaign.run_cells(
        &cells,
        1,
        // The kite seed words: n, then the variant's KITE_VARIANTS index.
        |&(n, variant)| vec![n as u64, variant as u64],
        |&(n, _)| n as u64,
        |(n, variant)| format!("{variant:?} n={n}"),
        |&(n, variant), seed| -> Result<KiteRow, StudyError> {
            let physical = build_kite_topology(n, variant)?;
            let mut opts = EvalOptions::paper_defaults(tech.clone());
            opts.pitch_mm = 1.0; // lengths already in mm
            opts.sim.seed = seed;
            opts.schedule = schedule;
            let result = evaluate(&physical, &opts)?;

            // §V bandwidth with the port-count tax:
            // A_B = (1 − p_p)·A_C / max_deg.
            let chiplet_area = UCIE_TOTAL_AREA_MM2 / n as f64;
            let sector_area = (1.0 - UCIE_POWER_FRACTION) * chiplet_area
                / physical.max_degree().max(1) as f64;
            let link = estimate_link(&LinkParams::ucie_c4(sector_area)).expect("valid params");
            let full_global_tbps =
                n as f64 * opts.sim.endpoints_per_router as f64 * link.bandwidth_tbps();

            Ok(KiteRow {
                name: physical.name().to_owned(),
                links: physical.edges().len(),
                max_degree: physical.max_degree(),
                min_rate_gbps: result.min_rate_gbps,
                zero_load: result.zero_load_latency,
                sat_tbps: result.saturation.throughput * full_global_tbps,
            })
        },
    );
    let results: Vec<Vec<KiteRow>> = all_ok(results)?;

    let mut table = Table::new(&[
        "n",
        "topology",
        "links",
        "max_degree",
        "min_link_rate_gbps",
        "zero_load_latency_cycles",
        "saturation_tbps",
    ]);
    let mut summary = vec![
        "HexaMesh vs. length-aware grid topologies (substrate, 16 Gb/s nominal)".to_owned(),
    ];
    for ((n, _), reps) in cells.iter().zip(&results) {
        let first = &reps[0];
        let zero_load = mean_of(reps, |r| r.zero_load);
        let sat_tbps = mean_of(reps, |r| r.sat_tbps);
        summary.push(format!(
            "N={n:>3} {:<14} sat {sat_tbps:>7.2} Tb/s, lat {zero_load:>6.1} cyc",
            first.name
        ));
        table.row(&[
            n,
            &first.name,
            &first.links,
            &first.max_degree,
            &f3(first.min_rate_gbps),
            &f3(zero_load),
            &f3(sat_tbps),
        ]);
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

/// Builds the physical (mm-lengths) topology of one kite variant at `n`.
fn build_kite_topology(
    n: usize,
    variant: KiteVariant,
) -> Result<chiplet_topo::Topology, StudyError> {
    use chiplet_topo::express::ExpressOptions;
    use chiplet_topo::{express, ftorus, mesh, Topology};

    let side = (n as f64).sqrt().round() as usize;
    let chiplet_area = UCIE_TOTAL_AREA_MM2 / n as f64;
    let shape_params = ShapeParams::new(chiplet_area, UCIE_POWER_FRACTION)?;
    let topo = match variant {
        KiteVariant::Mesh | KiteVariant::Ftorus | KiteVariant::Express => {
            let grid_shape = shape_for(ArrangementKind::Grid, &shape_params)?;
            let topo = match variant {
                KiteVariant::Mesh => mesh(side, side),
                KiteVariant::Ftorus => ftorus(side, side),
                _ => express(side, side, &ExpressOptions::default()).expect("express builds"),
            };
            with_mm_lengths(&topo, grid_shape.width, grid_shape.max_bump_distance)
        }
        KiteVariant::HexaMesh => {
            let hm = Arrangement::build(ArrangementKind::HexaMesh, n)?;
            let hm_shape = shape_for(ArrangementKind::HexaMesh, &shape_params)?;
            let hm_edges: Vec<(usize, usize, f64)> =
                hm.graph().edges().map(|(u, v)| (u, v, 1.0)).collect();
            let hm_topo = Topology::new(format!("hexamesh_{n}"), n, hm_edges)
                .expect("arrangement graphs are simple");
            with_mm_lengths(&hm_topo, hm_shape.width, hm_shape.max_bump_distance)
        }
    };
    Ok(topo)
}

/// Converts generator lengths (pitch units) to physical mm: an adjacent
/// link (1 pitch) spans bump sector to bump sector, `2·D_B`; each extra
/// pitch adds a full chiplet crossing.
fn with_mm_lengths(
    topo: &chiplet_topo::Topology,
    pitch_mm: f64,
    d_b_mm: f64,
) -> chiplet_topo::Topology {
    let edges: Vec<(usize, usize, f64)> = topo
        .edges()
        .iter()
        .map(|e| (e.u, e.v, 2.0 * d_b_mm + (e.length_pitch - 1.0) * pitch_mm))
        .collect();
    chiplet_topo::Topology::new(topo.name().to_owned(), topo.num_routers(), edges)
        .expect("lengths stay positive")
}

// ── resilience stage (structural metrics + graceful degradation) ────────

/// The legacy structural sweep: regular sizes plus irregular ones (where
/// the paper concedes weaker minimum degree).
const STRUCTURAL_RESILIENCE_NS: [usize; 8] = [16, 17, 36, 37, 41, 64, 91, 100];

/// One degradation measurement: a network that loses `failures` random
/// links at `fault_cycle`, probed open-loop (degraded saturation) and
/// closed-loop (stencil / ring-all-reduce makespans with source
/// retransmission recovering the dropped packets).
struct DegradationPoint {
    connected: bool,
    saturation: f64,
    stencil_makespan: f64,
    allreduce_makespan: f64,
}

fn degradation_point(
    graph: &Graph,
    sim: SimConfig,
    schedule: &MeasureConfig,
    failures: usize,
    fault_cycle: u64,
    retransmit: nocsim::RetransmitConfig,
    seed: u64,
) -> Result<DegradationPoint, StudyError> {
    use nocsim::{FaultPlan, FaultSchedule, FaultTarget};

    let mut config = sim;
    config.seed = seed;
    let fault_schedule = FaultSchedule::random_links(graph, failures, fault_cycle, seed);

    // Survivor connectivity decides whether the closed-loop runs can
    // complete at all (the open-loop probe tolerates a partition — cut
    // sources squelch — but a workload spanning the cut never finishes).
    let killed: std::collections::HashSet<(usize, usize)> = fault_schedule
        .events()
        .iter()
        .map(|e| match e.target {
            FaultTarget::Link { a, b } => (a.min(b), a.max(b)),
            FaultTarget::Router(_) => unreachable!("random_links kills links only"),
        })
        .collect();
    let surviving: Vec<(usize, usize)> =
        graph.edges().filter(|&(u, v)| !killed.contains(&(u.min(v), u.max(v)))).collect();
    let degraded = Graph::from_edges(graph.num_vertices(), &surviving)
        .expect("removing edges keeps the graph simple");
    let connected = chiplet_graph::metrics::is_connected(&degraded);

    // Open-loop probes compare against the healthy zero-load latency, so
    // a degraded network saturates earlier.
    let plan = FaultPlan::new(fault_schedule.clone());
    let zero_load = noc_measure::zero_load_latency(graph, &config)?;
    let sat = noc_measure::saturation_search_with(schedule.rate_resolution, |rate| {
        let at_rate = SimConfig { injection_rate: rate, ..config };
        let mut sim = ShardedSimulator::new(graph, at_rate, schedule.shards)?;
        sim.install_fault_plan(plan.clone());
        Ok::<_, SimError>(noc_measure::load_point(&mut sim, schedule, zero_load))
    })?;

    let makespan = |kind: WorkloadKind| -> Result<f64, StudyError> {
        if !connected {
            return Ok(f64::NAN);
        }
        let endpoints = graph.num_vertices() * config.endpoints_per_router;
        let workload = kind.build(endpoints);
        let mut driver = WorkloadDriver::new(graph, config, &workload)?;
        driver.install_fault_plan(
            FaultPlan::new(fault_schedule.clone()).with_retransmit(retransmit),
        );
        let stats = driver.run(MAX_CYCLES);
        Ok(if stats.completed { stats.makespan as f64 } else { f64::NAN })
    };
    Ok(DegradationPoint {
        connected,
        saturation: sat.throughput,
        stencil_makespan: makespan(WorkloadKind::Stencil)?,
        allreduce_makespan: makespan(WorkloadKind::RingAllReduce)?,
    })
}

fn resilience_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    use chiplet_graph::resilience::{articulation_points, bridges, edge_connectivity};

    // ── Structural table (byte-identical to the legacy binary) ──────────
    // Structural analyses have no randomness, so each point runs once.
    // Rows read n, then kind; the default kinds are the legacy trio.
    let kinds = spec.axes.kinds.as_deref().unwrap_or(&ArrangementKind::EVALUATED);
    let points: Vec<(usize, ArrangementKind)> = ns_ascending(spec)
        .into_iter()
        .flat_map(|n| kinds.iter().map(move |&k| (n, k)))
        .collect();
    let rows = campaign.run_jobs(
        &points,
        1,
        |&(n, _)| n as u64,
        |(n, kind)| format!("{kind} n={n}"),
        |&(n, kind)| {
            let arrangement = Arrangement::build(kind, n).expect("any n builds");
            let g = arrangement.graph();
            (
                arrangement.regularity().to_string(),
                arrangement.degree_stats().min,
                bridges(g).len(),
                articulation_points(g).len(),
                edge_connectivity(g).unwrap_or(0),
            )
        },
    );
    let mut structural = Table::new(&[
        "n",
        "kind",
        "regularity",
        "min_degree",
        "bridges",
        "articulation_points",
        "edge_connectivity",
    ]);
    for ((n, kind), (regularity, min_deg, b, cuts, k_edge)) in points.iter().zip(&rows) {
        structural.row(&[n, &kind.label(), regularity, min_deg, b, cuts, k_edge]);
    }

    // ── Degradation table (live link failures) ──────────────────────────
    // Default kinds include the honeycomb: the degradation story is about
    // all four families, while the structural table keeps the legacy
    // EVALUATED trio.
    let degrade_kinds = spec.axes.kinds.as_deref().unwrap_or(&ArrangementKind::ALL);
    let fault_ns = axis(&spec.faults.ns);
    let failure_counts = axis(&spec.faults.link_failures);
    let schedule = measure_for(spec);
    let fault_cycle = spec.faults.fault_cycle.expect(RESOLVED);
    let sim = spec.base_sim();
    let retransmit = nocsim::RetransmitConfig {
        timeout: spec.faults.retransmit_timeout.expect(RESOLVED),
        ..Default::default()
    };

    let mut cells = Vec::new();
    for &n in fault_ns {
        for &kind in degrade_kinds {
            cells.extend(failure_counts.iter().map(|&failures| (n, kind, failures)));
        }
    }
    let points = campaign.run_cells(
        &cells,
        schedule.shards,
        |&(n, kind, failures)| vec![kind_code(kind), n as u64, failures as u64],
        |&(n, _, _)| (n * n) as u64,
        |(n, kind, failures)| format!("{kind} n={n} failures={failures}"),
        |&(n, kind, failures), seed| {
            let arrangement = Arrangement::build(kind, n)?;
            degradation_point(
                arrangement.graph(),
                sim,
                &schedule,
                failures,
                fault_cycle,
                retransmit,
                seed,
            )
        },
    );
    let points: Vec<Vec<DegradationPoint>> = all_ok(points)?;

    let mut degradation = Table::new(&[
        "n",
        "kind",
        "link_failures",
        "connected",
        "saturation_fraction",
        "stencil_makespan_cycles",
        "allreduce_makespan_cycles",
    ]);
    let mut summary = Vec::new();
    for (&(n, kind, failures), reps) in cells.iter().zip(&points) {
        degradation.row(&[
            &n,
            &kind.label(),
            &failures,
            &usize::from(reps.iter().all(|p| p.connected)),
            &f3(mean_of(reps, |p| p.saturation)),
            &f3(mean_of(reps, |p| p.stencil_makespan)),
            &f3(mean_of(reps, |p| p.allreduce_makespan)),
        ]);
    }
    // Headline: how much saturation headroom each family keeps at the
    // heaviest failure count probed.
    let worst = *failure_counts.iter().max().expect("validated non-empty");
    for &n in fault_ns {
        for &kind in degrade_kinds {
            let at = |f: usize| {
                let i = cells.iter().position(|&cell| cell == (n, kind, f))?;
                Some(mean_of(&points[i], |p| p.saturation))
            };
            if let (Some(healthy), Some(degraded)) = (at(0), at(worst)) {
                if healthy > 0.0 {
                    summary.push(format!(
                        "{} n={n}: saturation {healthy:.3} -> {degraded:.3} after {worst} \
                         link failures ({:.0}% retained)",
                        kind.label(),
                        100.0 * degraded / healthy,
                    ));
                }
            }
        }
    }
    Ok(StageOutput {
        tables: vec![
            StageTable::main(structural),
            StageTable { stem: Some("BENCH_resilience".to_owned()), table: degradation },
        ],
        summary,
    })
}

// ── router stage (microarchitecture fidelity re-ranking) ────────────────

fn router_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    let kinds = axis(&spec.axes.kinds);
    let ns = axis(&spec.axes.ns);
    let routers = axis(&spec.axes.routers);
    // The makespan half is opt-in: with `axes.workloads` set, every
    // (router, n, kind) point also runs those kernels closed-loop and
    // the table gains per-kernel makespan + rank columns.
    let workloads = spec.axes.workloads.clone().unwrap_or_default();
    let schedule = measure_for(spec);
    let sim = spec.base_sim();

    eprintln!(
        "{}: {} router models x {} kinds x {} chiplet counts ({} workloads) on {} workers",
        campaign.name(),
        routers.len(),
        kinds.len(),
        ns.len(),
        workloads.len(),
        campaign.args().workers,
    );

    // Router-major rows: router, then n, then kind; each (router, n)
    // group is one ranking.
    let mut cells = Vec::new();
    for &router in routers {
        for n in ns_ascending(spec) {
            cells.extend(kinds.iter().map(|&kind| (router, n, kind)));
        }
    }
    let results = campaign.run_cells(
        &cells,
        schedule.shards,
        |&(router, n, kind)| {
            point_coords(
                kind_code(kind),
                n,
                None,
                TrafficPattern::UniformRandom,
                None,
                Some(router),
            )
        },
        |&(_, n, _)| n as u64,
        |(router, n, kind)| format!("{kind} n={n} {}", router.name()),
        |&(router, n, kind), seed| {
            let arrangement = Arrangement::build(kind, n).expect("any n builds");
            let graph = arrangement.graph();
            let config = SimConfig { router: router.model(), seed, ..sim };
            let zero_load =
                noc_measure::zero_load_latency(graph, &config).expect("connected graph");
            let sat = noc_measure::saturation_search(graph, &config, &schedule, zero_load)
                .expect("valid configuration");
            // Closed-loop kernels under the same model and seed; a stalled
            // run reads as NaN (ranked last by total_cmp), not an abort.
            let makespans: Vec<f64> = workloads
                .iter()
                .map(|&w| {
                    let workload = w.build(n * config.endpoints_per_router);
                    let mut driver =
                        WorkloadDriver::new(graph, config, &workload).expect("valid driver");
                    let stats = driver.run(MAX_CYCLES);
                    if stats.completed {
                        stats.makespan as f64
                    } else {
                        f64::NAN
                    }
                })
                .collect();
            (zero_load, sat.throughput, makespans)
        },
    );
    // Replicate means per cell: zero-load, saturation, then one makespan
    // per workload.
    let means: Vec<(f64, f64, Vec<f64>)> = results
        .iter()
        .map(|reps| {
            let makespans = (0..workloads.len()).map(|i| mean_of(reps, |r| r.2[i])).collect();
            (mean_of(reps, |r| r.0), mean_of(reps, |r| r.1), makespans)
        })
        .collect();

    let mut columns: Vec<String> = ["router", "n", "kind", "zero_load_latency_cycles"]
        .iter()
        .map(|&c| c.to_owned())
        .collect();
    columns.push("saturation_fraction".to_owned());
    columns.push("sat_rank".to_owned());
    for w in &workloads {
        columns.push(format!("{}_makespan_cycles", w.label()));
        columns.push(format!("{}_rank", w.label()));
    }
    let header: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);

    let mut summary = Vec::new();
    // Per-(router, n) saturation rank vectors, kept in `kinds` order for
    // the fidelity comparison below (rank vectors are tie-exact where a
    // sorted kind order would not be).
    let mut rank_vectors: Vec<(RouterModelKind, usize, Vec<usize>)> = Vec::new();
    for (group, rows) in cells.chunks(kinds.len()).zip(means.chunks(kinds.len())) {
        // Saturation: higher is better, so rank the negated series.
        // Makespans rank directly (lower is better).
        let sats: Vec<f64> = rows.iter().map(|r| -r.1).collect();
        let sat_rank = sweep::competition_rank(&sats);
        let makespan_ranks: Vec<Vec<usize>> = (0..workloads.len())
            .map(|i| {
                let series: Vec<f64> = rows.iter().map(|r| r.2[i]).collect();
                sweep::competition_rank(&series)
            })
            .collect();
        let (router, n, _) = group[0];
        for (i, (&(_, _, kind), (zero_load, saturation, makespans))) in
            group.iter().zip(rows).enumerate()
        {
            let mut cells: Vec<String> = vec![
                router.name().to_owned(),
                n.to_string(),
                kind.label().to_owned(),
                f3(*zero_load),
                f3(*saturation),
                sat_rank[i].to_string(),
            ];
            for (w, ranks) in makespans.iter().zip(&makespan_ranks) {
                cells.push(f3(*w));
                cells.push(ranks[i].to_string());
            }
            let rendered: Vec<&dyn fmt::Display> =
                cells.iter().map(|c| c as &dyn fmt::Display).collect();
            table.row(&rendered);
        }
        let best = sat_rank.iter().position(|&r| r == 1).expect("non-empty group");
        summary.push(format!(
            "{:<11} n={:<4} best saturation {} ({:.3})",
            router.name(),
            n,
            group[best].2.label(),
            rows[best].1,
        ));
        rank_vectors.push((router, n, sat_rank));
    }

    // The fidelity headline: does raising router fidelity re-rank the
    // arrangements, or is the comparison robust to the microarchitecture?
    if let Some(&reference) = routers.first() {
        let rank_of = |router: RouterModelKind, n: usize| {
            rank_vectors.iter().find(|&&(r, m, _)| r == router && m == n).map(|(_, _, v)| v)
        };
        let mut reordered = Vec::new();
        for &n in ns {
            let base = rank_of(reference, n);
            for &router in routers.iter().skip(1) {
                if rank_of(router, n) != base {
                    reordered.push(format!("{} at n={n}", router.name()));
                }
            }
        }
        summary.push(if reordered.is_empty() {
            format!(
                "saturation ranking matches the {} model under all {} router models",
                reference.name(),
                routers.len(),
            )
        } else {
            format!(
                "models re-ranking the {} saturation order: {}",
                reference.name(),
                reordered.join(", "),
            )
        });
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

// ── thermal stage ───────────────────────────────────────────────────────

/// Areal power density of compute silicon, W/mm² (200 W per 800 mm²).
const COMPUTE_DENSITY_W_PER_MM2: f64 = 0.25;
/// I/O chiplets dissipate a third of the compute density.
const IO_DENSITY_RATIO: f64 = 1.0 / 3.0;

fn thermal_stage(spec: &StudySpec, campaign: &Campaign) -> Result<StageOutput, StudyError> {
    use chiplet_layout::ChipletKind;
    use chiplet_thermal::{solve, HotspotReport, PowerMap, ThermalParams};

    // Deterministic: each (n, kind) point runs once, n-major.
    let kinds = axis(&spec.axes.kinds);
    let jobs: Vec<(usize, ArrangementKind)> =
        axis(&spec.axes.ns).iter().flat_map(|&n| kinds.iter().map(move |&k| (n, k))).collect();
    let results = campaign.run_jobs(
        &jobs,
        1,
        |&(n, _)| n as u64,
        |(n, kind)| format!("{kind} n={n}"),
        |&(n, kind)| -> Result<(f64, HotspotReport), StudyError> {
            let arrangement = Arrangement::build(kind, n)?;
            let placement = arrangement
                .placement()
                .ok_or_else(|| StudyError::Spec(format!("{kind} has no placement")))?;
            // Area-preserving lattice scale: one layout unit² maps to
            // chiplet_area / units_per_chiplet mm².
            let chiplet_area = UCIE_TOTAL_AREA_MM2 / n as f64;
            let first = placement.chiplets().first().expect("non-empty placement");
            let unit_area = (first.rect.width() * first.rect.height()) as f64;
            let mm_per_unit = (chiplet_area / unit_area).sqrt();

            let map = PowerMap::from_placement(placement, mm_per_unit, 0.5, 4, |c| {
                let area_mm2 =
                    (c.rect.width() * c.rect.height()) as f64 * mm_per_unit * mm_per_unit;
                let density = match c.kind {
                    ChipletKind::Compute => COMPUTE_DENSITY_W_PER_MM2,
                    ChipletKind::Io => COMPUTE_DENSITY_W_PER_MM2 * IO_DENSITY_RATIO,
                };
                area_mm2 * density
            })?;
            let total_power = map.total_w();
            let solution = solve(&map, &ThermalParams::default())?;
            Ok((total_power, HotspotReport::from_solution(&solution)))
        },
    );

    let mut table = Table::new(&[
        "n",
        "kind",
        "total_power_w",
        "peak_c",
        "avg_c",
        "gradient_c",
        "hotspot_fraction",
    ]);
    let mut summary = vec![format!(
        "steady-state thermal comparison at {COMPUTE_DENSITY_W_PER_MM2} W/mm² compute density"
    )];
    for ((n, kind), result) in jobs.iter().zip(results) {
        let (total_power, report) = result?;
        summary.push(format!(
            "N={n:>3} {:<4} peak {:.1} °C, gradient {:.2} K",
            kind.label(),
            report.peak_c,
            report.gradient_c
        ));
        table.row(&[
            n,
            &kind.label(),
            &f3(total_power),
            &f3(report.peak_c),
            &f3(report.average_c),
            &f3(report.gradient_c),
            &f3(report.hotspot_fraction),
        ]);
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

// ── cost stage ──────────────────────────────────────────────────────────

/// Total-silicon-area sweep of the cost stage, mm².
const COST_AREAS_MM2: [f64; 6] = [50.0, 100.0, 200.0, 400.0, 600.0, 800.0];

fn cost_stage(spec: &StudySpec) -> Result<StageOutput, StudyError> {
    use chiplet_cost::system::{best_chiplet_count, system_cost_comparison, CostParams};

    let ns = axis(&spec.axes.ns);
    let params = CostParams::default_5nm();
    let mut table = Table::new(&[
        "total_area_mm2",
        "num_chiplets",
        "monolithic_cost",
        "mcm_cost",
        "monolithic_over_mcm",
        "monolithic_yield",
        "chiplet_yield",
        "assembly_yield",
    ]);
    for &area in &COST_AREAS_MM2 {
        for &n in ns {
            let Ok(cmp) = system_cost_comparison(&params, area, n) else {
                continue; // tiny chiplets may round below wafer feasibility
            };
            table.row(&[
                &f3(area),
                &n,
                &f3(cmp.monolithic_total),
                &f3(cmp.mcm_total),
                &f3(cmp.monolithic_over_mcm()),
                &f3(cmp.monolithic_yield),
                &f3(cmp.chiplet_yield),
                &f3(cmp.assembly_yield),
            ]);
        }
    }
    let mut summary = Vec::new();
    // The sweet spot at the paper's 800 mm² design point.
    let counts: Vec<usize> = (1..=128).collect();
    if let Some((best_n, best_cost)) = best_chiplet_count(&params, 800.0, &counts) {
        summary.push(format!(
            "optimal chiplet count at 800 mm²: N = {best_n} (MCM cost ${best_cost:.0})"
        ));
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::OutputFormat;

    fn args(dir: &std::path::Path, workers: usize) -> CampaignArgs {
        CampaignArgs {
            workers,
            seeds: 1,
            quick: true,
            full: false,
            out: dir.to_path_buf(),
            format: OutputFormat::Csv,
            campaign_seed: 7,
            progress: false,
        }
    }

    #[test]
    fn spec_defaults_apply_only_when_flags_are_absent() {
        let mut spec = StudySpec::new("s", StageKind::Proxies);
        spec.seed = Some(99);
        spec.replicates = Some(3);
        spec.output.to_repo_root = true;
        let argv: Vec<String> = ["bin"].iter().map(|s| (*s).to_string()).collect();
        let resolved = campaign_args_for(&spec, &argv).unwrap();
        assert_eq!(resolved.campaign_seed, 99);
        assert_eq!(resolved.seeds, 3);
        assert_eq!(resolved.out, std::path::PathBuf::from("."));
        let argv: Vec<String> = ["bin", "--seed", "1", "--seeds", "2", "--out", "elsewhere"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let resolved = campaign_args_for(&spec, &argv).unwrap();
        assert_eq!(resolved.campaign_seed, 1);
        assert_eq!(resolved.seeds, 2);
        assert_eq!(resolved.out, std::path::PathBuf::from("elsewhere"));
    }

    #[test]
    fn resolved_fills_every_stage_default_once() {
        use StageKind::*;
        let dir = std::env::temp_dir();
        for (quick, full) in [(true, false), (false, false), (false, true)] {
            let tier = CampaignArgs { quick, full, ..args(&dir, 1) };
            for stage in StageKind::ALL {
                let mut spec = StudySpec::new("s", stage);
                spec.observe.timeline = stage == LoadCurve;
                let once = resolved(&spec, &tier);
                assert_eq!(resolved(&once, &tier), once, "{stage}: resolving twice");
                once.validate().unwrap_or_else(|e| panic!("{stage}: {e}"));
                let scheduled = matches!(
                    stage,
                    Saturation | Traffic | LoadCurve | Search | Kite | Resilience | Router
                );
                assert_eq!(once.schedule.is_some(), scheduled, "{stage}: [schedule]");
            }
        }
        let quick = args(&dir, 1);
        let curve = resolved(&StudySpec::new("s", LoadCurve), &quick);
        assert_eq!(curve.schedule, Some(Schedule::new(1_500, 3_000)), "windows only");
        let mut watched = StudySpec::new("s", LoadCurve);
        watched.observe.heatmap = true;
        assert_eq!(resolved(&watched, &quick).observe.sample_every, Some(250));
        let search = resolved(&StudySpec::new("s", Search), &quick);
        assert_eq!(search.axes.ns, Some(vec![19, 37]));
        let workload = resolved(&StudySpec::new("s", Workload), &quick);
        assert_eq!(workload.workload.max_cycles, Some(MAX_CYCLES));
    }

    #[test]
    fn an_own_schedule_without_resolution_keeps_the_tier_resolution() {
        let dir = std::env::temp_dir();
        for stage in [StageKind::Kite, StageKind::Saturation] {
            let mut spec = StudySpec::new("s", stage);
            spec.schedule = Some(Schedule::new(300, 600));
            let quick = resolved(&spec, &args(&dir, 1));
            let schedule = quick.schedule.expect("kept");
            assert_eq!((schedule.warmup_cycles, schedule.measure_cycles), (300, 600));
            assert_eq!(schedule.rate_resolution, Some(0.02), "{stage} under --quick");
            let default = CampaignArgs { quick: false, ..args(&dir, 1) };
            let schedule = resolved(&spec, &default).schedule.expect("kept");
            assert_eq!(schedule.rate_resolution, Some(0.01), "{stage} by default");
        }
    }

    #[test]
    fn manifests_echo_the_resolved_schedule_and_faults() {
        let dir = std::env::temp_dir().join("xp_flow_manifest_echo");
        let _ = std::fs::remove_dir_all(&dir);
        let json_args = CampaignArgs { format: OutputFormat::Json, ..args(&dir, 2) };
        let config_of = |report: &StudyReport| -> crate::json::Value {
            let manifest = std::fs::read_to_string(&report.written[0]).unwrap();
            crate::json::parse(&manifest).unwrap().get("config").unwrap().clone()
        };

        let mut saturation = StudySpec::new("echo_saturation", StageKind::Saturation);
        saturation.axes.kinds = Some(vec![ArrangementKind::Grid]);
        saturation.axes.ns = Some(vec![2]);
        let report = run_study(&saturation, json_args.clone(), &StageHooks::default()).unwrap();
        assert_eq!(
            config_of(&report).get("schedule").map(crate::json::Value::to_json).as_deref(),
            Some(r#"{"warmup_cycles":1500,"measure_cycles":3000,"rate_resolution":0.02}"#)
        );

        let mut resilience = StudySpec::new("echo_resilience", StageKind::Resilience);
        resilience.axes.kinds = Some(vec![ArrangementKind::Grid]);
        resilience.axes.ns = Some(vec![4]);
        resilience.faults.ns = Some(vec![4]);
        resilience.faults.link_failures = Some(vec![0]);
        let report = run_study(&resilience, json_args, &StageHooks::default()).unwrap();
        assert_eq!(
            config_of(&report).get("faults").map(crate::json::Value::to_json).as_deref(),
            Some(
                r#"{"ns":[4],"link_failures":[0],"fault_cycle":750,"retransmit_timeout":2048}"#
            )
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn search_stage_without_hook_is_a_spec_error() {
        let spec = StudySpec::new("s", StageKind::Search);
        let dir = std::env::temp_dir().join("xp_flow_hookless");
        let err = run_study(&spec, args(&dir, 1), &StageHooks::default()).unwrap_err();
        assert!(matches!(err, StudyError::Spec(_)), "got {err}");
    }

    #[test]
    fn optimized_axis_without_hook_is_a_spec_error() {
        let mut spec = StudySpec::new("s", StageKind::LoadCurve);
        spec.axes.optimized = true;
        spec.axes.ns = Some(vec![4]);
        let dir = std::env::temp_dir().join("xp_flow_optless");
        let err = run_study(&spec, args(&dir, 1), &StageHooks::default()).unwrap_err();
        assert!(matches!(err, StudyError::Spec(_)), "got {err}");
    }

    #[test]
    fn kite_stage_rejects_non_square_counts() {
        let dir = std::env::temp_dir().join("xp_flow_kite_ns");
        for bad in [2usize, 20] {
            let mut spec = StudySpec::new("s", StageKind::Kite);
            spec.axes.ns = Some(vec![bad]);
            let err = run_study(&spec, args(&dir, 1), &StageHooks::default()).unwrap_err();
            assert!(matches!(err, StudyError::Spec(_)), "ns={bad} must be rejected, got {err}");
        }
    }

    #[test]
    fn proxies_study_runs_end_to_end() {
        let dir = std::env::temp_dir().join("xp_flow_proxies");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = StudySpec::new("proxy_unit", StageKind::Proxies);
        spec.axes.ns = Some(vec![7, 16]);
        let report = run_study(&spec, args(&dir, 2), &StageHooks::default()).unwrap();
        assert_eq!(report.written.len(), 1);
        let csv = std::fs::read_to_string(&report.written[0]).unwrap();
        assert!(csv.starts_with("kind,regularity,n,diameter,bisection\n"));
        assert_eq!(csv.lines().count(), 1 + 2 * 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_load_curve_emits_artefacts_without_changing_rows() {
        let dir = std::env::temp_dir().join("xp_flow_observe");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = StudySpec::new("curve_unit", StageKind::LoadCurve);
        spec.axes.kinds = Some(vec![ArrangementKind::HexaMesh, ArrangementKind::Grid]);
        spec.axes.ns = Some(vec![7]);
        spec.axes.rates = Some(vec![0.1]);
        spec.schedule = Some(crate::spec::Schedule::new(300, 600));
        let plain =
            run_study(&spec, args(&dir.join("plain"), 2), &StageHooks::default()).unwrap();

        spec.observe.sample_every = Some(150);
        spec.observe.timeline = true;
        spec.observe.heatmap = true;
        spec.observe.trace = true;
        let watched_dir = dir.join("watched");
        let watched = run_study(&spec, args(&watched_dir, 2), &StageHooks::default()).unwrap();

        // Zero perturbation: observing never changes the result rows.
        assert_eq!(
            std::fs::read_to_string(&plain.written[0]).unwrap(),
            std::fs::read_to_string(&watched.written[0]).unwrap()
        );

        // Timeline: (300 + 600) / 150 = 6 windows per job, 2 jobs.
        let timeline = std::fs::read_to_string(watched_dir.join("timeline.csv")).unwrap();
        assert!(timeline.starts_with("kind,n,pattern,offered_flits_per_cycle,replicate,"));
        assert_eq!(timeline.lines().count(), 1 + 2 * 6, "{timeline}");
        assert!(timeline.contains("\nHM,7,"), "{timeline}");

        // Heatmaps: one SVG per (kind, rate) at replicate 0.
        for name in ["heatmap_hexamesh_n7_r100_uniform.svg", "heatmap_grid_n7_r100_uniform.svg"]
        {
            let svg = std::fs::read_to_string(watched_dir.join(name)).unwrap();
            assert!(svg.starts_with("<svg"), "{name}: {svg}");
            assert!(svg.contains("stroke=\"#"), "{name} draws heat edges");
        }

        // Trace: a Perfetto-loadable document with one span per job.
        let trace = std::fs::read_to_string(watched_dir.join("trace.json")).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"load_curve\""), "stage span present: {trace}");
        assert!(trace.contains("HexaMesh n=7"), "{trace}");
        assert!(watched.written.iter().any(|p| p.ends_with("trace.json")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn router_study_ranks_models_and_is_worker_count_invariant() {
        let dir = std::env::temp_dir().join("xp_flow_router");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = StudySpec::new("router_unit", StageKind::Router);
        spec.axes.kinds = Some(vec![ArrangementKind::HexaMesh, ArrangementKind::Grid]);
        spec.axes.ns = Some(vec![4]);
        spec.axes.routers = Some(vec![RouterModelKind::Baseline, RouterModelKind::Fortified]);
        spec.axes.workloads = Some(vec![WorkloadKind::Stencil]);
        spec.schedule = Some(crate::spec::Schedule::new(300, 600));
        let serial =
            run_study(&spec, args(&dir.join("w1"), 1), &StageHooks::default()).unwrap();
        let parallel =
            run_study(&spec, args(&dir.join("w8"), 8), &StageHooks::default()).unwrap();
        let csv = std::fs::read_to_string(&serial.written[0]).unwrap();
        assert_eq!(csv, std::fs::read_to_string(&parallel.written[0]).unwrap());
        assert!(
            csv.starts_with(
                "router,n,kind,zero_load_latency_cycles,saturation_fraction,sat_rank,\
                 stencil_makespan_cycles,stencil_rank\n"
            ),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 1 + 2 * 2, "{csv}");
        assert!(csv.contains("\nfortified,4,"), "{csv}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traffic_study_is_worker_count_invariant() {
        let dir = std::env::temp_dir().join("xp_flow_traffic");
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = StudySpec::new("traffic_unit", StageKind::Traffic);
        spec.axes.ns = Some(vec![4]);
        spec.axes.patterns = Some(vec![TrafficPattern::UniformRandom]);
        spec.schedule = Some(crate::spec::Schedule::new(300, 600));
        let serial =
            run_study(&spec, args(&dir.join("w1"), 1), &StageHooks::default()).unwrap();
        let parallel =
            run_study(&spec, args(&dir.join("w8"), 8), &StageHooks::default()).unwrap();
        assert_eq!(
            std::fs::read_to_string(&serial.written[0]).unwrap(),
            std::fs::read_to_string(&parallel.written[0]).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
