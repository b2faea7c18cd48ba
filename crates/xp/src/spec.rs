//! Declarative study specifications.
//!
//! A [`StudySpec`] is a *value* describing an experiment campaign: which
//! [stage](StageKind) to run, the axes to sweep, parameter overrides, and
//! output configuration. A spec executes through
//! [`crate::flow::run_study`], whose stages list their cells from the
//! resolved axes and run them with [`crate::Campaign::run_cells`] — so a
//! new study is *data* (a TOML or JSON file fed to the `study` binary, or
//! a value built in code), not a new hand-wired binary.
//!
//! The serialized form has a flat two-level shape shared by TOML
//! ([`StudySpec::from_toml`]) and JSON ([`StudySpec::from_json`]):
//! scalars `name` / `stage` / `seed` / `replicates` at the top level,
//! then one optional section per parameter group (`[axes]`, `[sim]`,
//! `[router]`, `[schedule]`, `[search]`, `[workload]`, `[saturation]`,
//! `[output]`).
//! Decoding is strict — unknown keys, malformed values, and axis names
//! that do not parse are errors, never silently ignored — and round-trips
//! through [`StudySpec::to_value`].
//!
//! Every struct here is `#[non_exhaustive]`: construct via
//! [`StudySpec::new`] / `Default` and set the public fields you need, so
//! adding a parameter group or axis later is not a breaking change.

use std::str::FromStr;

use chiplet_workload::WorkloadKind;
use hexamesh::arrangement::ArrangementKind;
use nocsim::{
    OutputArbPolicy, RouterModel, RouterModelKind, RoutingKind, SimConfig, TrafficPattern,
    VcAllocPolicy,
};

use crate::cli::MAX_REPLICATES;
use crate::json::Value;
use crate::toml;

/// The experiment stage a spec runs. Each stage has its own defaults,
/// all filled in by [`resolved`](crate::flow::resolved), and defines the
/// output schema; the schemas of the stages that replaced hand-wired binaries
/// are byte-compatible with what those binaries always wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StageKind {
    /// Analytic diameter + bisection proxies (Fig. 6 methodology).
    Proxies,
    /// Full cycle-accurate evaluation: link budget, zero-load latency,
    /// saturation throughput (the Fig. 7 pipeline), with an optional
    /// grid-normalised companion table.
    Saturation,
    /// Zero-load + saturation per traffic pattern, ranked against the
    /// grid (the traffic-sensitivity ablation).
    Traffic,
    /// Latency-vs-offered-load curves with tail percentiles.
    LoadCurve,
    /// Closed-loop application workloads ranked by makespan.
    Workload,
    /// Arrangement search: optimized placements vs the fixed families
    /// (provided through [`crate::flow::StageHooks`], because the
    /// optimizer crate sits above the engine in the dependency DAG).
    Search,
    /// HexaMesh vs length-aware grid topologies (Kite-style §VII).
    Kite,
    /// Steady-state thermal comparison of arrangements.
    Thermal,
    /// Monolithic vs 2.5D manufacturing cost model.
    Cost,
    /// Fault tolerance: structural resilience metrics (bridges,
    /// articulation points, edge connectivity) plus graceful-degradation
    /// curves — saturation throughput and closed-loop makespans under
    /// deterministic live link failures.
    Resilience,
    /// Router-microarchitecture fidelity: zero-load latency + saturation
    /// throughput per arrangement across a matrix of
    /// [`nocsim::RouterModelKind`]s, checking whether the arrangement
    /// ranking survives router-model changes.
    Router,
}

impl StageKind {
    /// Every stage, in documentation order.
    pub const ALL: [StageKind; 11] = [
        StageKind::Proxies,
        StageKind::Saturation,
        StageKind::Traffic,
        StageKind::LoadCurve,
        StageKind::Workload,
        StageKind::Search,
        StageKind::Kite,
        StageKind::Thermal,
        StageKind::Cost,
        StageKind::Resilience,
        StageKind::Router,
    ];

    /// Canonical name, as accepted by the [`FromStr`] parser and used in
    /// spec files. Round-trips through `parse`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StageKind::Proxies => "proxies",
            StageKind::Saturation => "saturation",
            StageKind::Traffic => "traffic",
            StageKind::LoadCurve => "load_curve",
            StageKind::Workload => "workload",
            StageKind::Search => "search",
            StageKind::Kite => "kite",
            StageKind::Thermal => "thermal",
            StageKind::Cost => "cost",
            StageKind::Resilience => "resilience",
            StageKind::Router => "router",
        }
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        StageKind::ALL.into_iter().find(|k| k.name() == s).ok_or_else(|| {
            let names: Vec<&str> = StageKind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown stage {s:?} (expected one of {})", names.join("|"))
        })
    }
}

/// The sweep axes. Every axis is optional; `None` resolves to the
/// running stage's default (which may depend on `--quick`), so a spec
/// names only the dimensions it constrains.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct Axes {
    /// Arrangement families to evaluate.
    pub kinds: Option<Vec<ArrangementKind>>,
    /// Chiplet counts.
    pub ns: Option<Vec<usize>>,
    /// Injection rates (flits/cycle/endpoint); load-curve stage only.
    pub rates: Option<Vec<f64>>,
    /// Spatial traffic patterns.
    pub patterns: Option<Vec<TrafficPattern>>,
    /// Closed-loop workload kernels; workload stage, plus the router
    /// stage's optional makespan columns.
    pub workloads: Option<Vec<WorkloadKind>>,
    /// Named router-microarchitecture models; router stage only.
    pub routers: Option<Vec<RouterModelKind>>,
    /// Also evaluate a search-discovered (`OPT`) arrangement next to the
    /// fixed families (load-curve and workload stages; requires the
    /// search hook — see [`crate::flow::StageHooks`]).
    pub optimized: bool,
}

/// Simulator parameter overrides, applied on top of the paper defaults.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct SimOverrides {
    /// Routing algorithm (`adaptive` | `deterministic` | `updown`).
    pub routing: Option<RoutingKind>,
    /// Virtual channels per port.
    pub vcs: Option<usize>,
    /// Buffer depth in flits per VC.
    pub buffer_depth: Option<usize>,
    /// Worker threads each simulation is sharded across
    /// ([`nocsim::ShardedSimulator`]; results stay bit-identical to the
    /// serial engine). Not supported by the workload stage, whose
    /// closed-loop driver is serial-only.
    pub shards: Option<usize>,
    /// Named router-microarchitecture model every run uses
    /// (`baseline` | `randomvc` | … — see [`RouterModelKind`]).
    /// Mutually exclusive with a non-neutral `[router]` section and with
    /// the `axes.routers` sweep.
    pub router: Option<RouterModelKind>,
}

impl SimOverrides {
    /// `true` if no override is set (the stage runs paper defaults).
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        self.routing.is_none()
            && self.vcs.is_none()
            && self.buffer_depth.is_none()
            && self.shards.is_none()
            && self.router.is_none()
    }
}

/// Field-level router-microarchitecture overrides (`[router]`): composes
/// a custom [`RouterModel`] instead of picking a named
/// [`RouterModelKind`]. Unset fields keep the paper-default policy.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct RouterSpec {
    /// VC allocation policy (`roundrobin` | `random` | `leastloaded`).
    pub vc_alloc: Option<VcAllocPolicy>,
    /// Output arbitration policy (`roundrobin` | `oldest` | `transit`).
    pub output_arb: Option<OutputArbPolicy>,
    /// Bubble flow control on the escape VC: entering VC 0 requires two
    /// free slots downstream.
    pub bubble: Option<bool>,
    /// Extra crossbar pipeline cycles between switch allocation and link
    /// traversal (0 = the paper's single-stage crossbar; at most 16).
    pub crossbar_depth: Option<u64>,
}

impl RouterSpec {
    /// `true` if no field is set (runs keep the default router model).
    #[must_use]
    pub fn is_neutral(&self) -> bool {
        *self == Self::default()
    }

    /// The [`RouterModel`] this section describes: `base` with every set
    /// field overridden.
    #[must_use]
    pub fn apply(&self, base: RouterModel) -> RouterModel {
        RouterModel {
            vc_alloc: self.vc_alloc.unwrap_or(base.vc_alloc),
            output_arb: self.output_arb.unwrap_or(base.output_arb),
            bubble_escape: self.bubble.unwrap_or(base.bubble_escape),
            crossbar_depth: self.crossbar_depth.unwrap_or(base.crossbar_depth),
        }
    }
}

/// A measurement schedule. When absent,
/// [`resolved`](crate::flow::resolved) fills in the stage's default for
/// the `--quick` / default / `--full` tier.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Schedule {
    /// Cycles simulated before the measurement window opens.
    pub warmup_cycles: u64,
    /// Cycles in the measurement window.
    pub measure_cycles: u64,
    /// Saturation-search resolution on the injection rate; `None` takes
    /// the tier's (the load curve searches no rate and keeps `None`).
    pub rate_resolution: Option<f64>,
}

impl Schedule {
    /// A schedule with the given windows that names no resolution.
    #[must_use]
    pub fn new(warmup_cycles: u64, measure_cycles: u64) -> Self {
        Self { warmup_cycles, measure_cycles, rate_resolution: None }
    }

    /// Overlays this schedule onto a
    /// [`MeasureConfig`](nocsim::MeasureConfig): the windows, and the
    /// resolution when named. [`measure_for`](crate::flow::measure_for)
    /// applies a resolved schedule, which names it for every stage that
    /// searches a rate.
    pub fn apply(&self, schedule: &mut nocsim::MeasureConfig) {
        schedule.warmup_cycles = self.warmup_cycles;
        schedule.measure_cycles = self.measure_cycles;
        if let Some(res) = self.rate_resolution {
            schedule.rate_resolution = res;
        }
    }
}

/// Arrangement-search parameters (search stage and `optimized` axis).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchOverrides {
    /// Independent annealing restarts; `None` = stage default.
    pub restarts: Option<usize>,
    /// Annealing iterations per restart; `None` = stage default.
    pub iterations: Option<usize>,
    /// Validate top candidates with cycle-accurate saturation + workload
    /// makespan (search stage; default `true`).
    pub validate: bool,
}

impl Default for SearchOverrides {
    fn default() -> Self {
        Self { restarts: None, iterations: None, validate: true }
    }
}

/// Workload-stage parameters.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct WorkloadOverrides {
    /// Cycle budget per run; `None` resolves to the historical 50 M guard.
    pub max_cycles: Option<u64>,
    /// Additionally record each swept DAG as a replayable trace under
    /// `<out>/traces/`.
    pub traces: bool,
}

/// Saturation-stage parameters.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct SaturationOverrides {
    /// File stem of the grid-normalised companion table (Fig. 7c/d);
    /// `None` skips it.
    pub normalized_stem: Option<String>,
}

/// Resilience-stage fault-injection parameters (the degradation sweep;
/// the structural table follows `axes.ns` / `axes.kinds` instead).
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct FaultsSpec {
    /// Chiplet counts of the degradation sweep; `None` resolves to
    /// `{37, 91, 169}` (`{7, 13}` under `--quick`).
    pub ns: Option<Vec<usize>>,
    /// Numbers of randomly chosen links to kill per run; `None` resolves
    /// to `{0, 1, 2, 4}`. `0` rows are the healthy baseline.
    pub link_failures: Option<Vec<usize>>,
    /// Cycle at which all of a run's failures strike; `None` resolves to
    /// half the resolved warmup window (tables rebuild before measurement
    /// opens).
    pub fault_cycle: Option<u64>,
    /// Source-retransmission timeout (cycles) for the closed-loop
    /// makespan runs; `None` resolves to the [`nocsim::RetransmitConfig`]
    /// default.
    pub retransmit_timeout: Option<u64>,
}

/// Observability settings (`[observe]`): windowed time-series probes,
/// per-load-point congestion heatmaps, and engine-level tracing.
///
/// Everything here is off by default, and turning any of it on never
/// changes the result tables: probes record into preallocated buffers on
/// the side (the zero-perturbation contract, pinned by the nocsim probe
/// equivalence tests), heatmaps/timelines are extra files, and tracing
/// only watches the worker pool.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct ObserveSpec {
    /// Probe sampling window in cycles; `None` resolves to 250 when a
    /// probe consumer (`timeline` / `heatmap`) is enabled.
    pub sample_every: Option<u64>,
    /// Render a congestion heatmap SVG per load point (replicate 0),
    /// merging per-link flit counts with the physical placement.
    pub heatmap: bool,
    /// Write the windowed time series as a `timeline` companion table.
    pub timeline: bool,
    /// Write engine-level spans as Chrome-trace `trace.json` next to the
    /// manifest (loadable by Perfetto / `chrome://tracing`).
    pub trace: bool,
}

impl ObserveSpec {
    /// `true` when nothing is enabled (the default).
    #[must_use]
    pub fn is_off(&self) -> bool {
        *self == Self::default()
    }

    /// `true` when a simulator-side probe must be attached (the timeline
    /// and heatmap both consume per-run observations).
    #[must_use]
    pub fn wants_probe(&self) -> bool {
        self.timeline || self.heatmap
    }
}

/// Output configuration beyond the shared `--out` / `--format` flags.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub struct OutputSpec {
    /// Default output directory when `--out` is absent.
    pub dir: Option<String>,
    /// When `--out` is absent, write to the repository root — the
    /// tracked-`BENCH_*` convention. Overrides `dir`.
    pub to_repo_root: bool,
}

/// How a request interacts with the serving layer's result cache
/// (`serve.mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ServeMode {
    /// Serve from the cache when possible, compute and store otherwise
    /// (the default).
    #[default]
    Reuse,
    /// Compute fresh without reading or writing the cache.
    Bypass,
    /// Compute fresh and overwrite whatever the cache held.
    Refresh,
}

impl ServeMode {
    /// Canonical name, as accepted by the [`FromStr`] parser.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ServeMode::Reuse => "reuse",
            ServeMode::Bypass => "bypass",
            ServeMode::Refresh => "refresh",
        }
    }
}

impl FromStr for ServeMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "reuse" => Ok(ServeMode::Reuse),
            "bypass" => Ok(ServeMode::Bypass),
            "refresh" => Ok(ServeMode::Refresh),
            other => {
                Err(format!("unknown serve mode {other:?} (expected reuse|bypass|refresh)"))
            }
        }
    }
}

/// Cache-control settings for the serving layer (`[serve]`).
///
/// Transport-level only: nothing here changes what a study computes, so
/// the whole section is erased from the canonical form the cache key is
/// hashed over (see `xp::serve`). Any stage may carry it.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeSpec {
    /// Cache interaction mode.
    pub mode: ServeMode,
    /// Allow serving a superset grid by reusing cached sub-grid cells
    /// and running only the delta coordinates (default `true`;
    /// load-curve stage only — other stages always run whole).
    pub warm_start: bool,
}

impl Default for ServeSpec {
    fn default() -> Self {
        Self { mode: ServeMode::Reuse, warm_start: true }
    }
}

/// A declarative study: one stage, its axes, and its parameters. See the
/// [module docs](self) for the file format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StudySpec {
    /// Campaign name — the output file stem.
    pub name: String,
    /// The stage to run.
    pub stage: StageKind,
    /// Default campaign seed when `--seed` is absent.
    pub seed: Option<u64>,
    /// Default replicate count when `--seeds` is absent.
    pub replicates: Option<u64>,
    /// Sweep axes.
    pub axes: Axes,
    /// Simulator overrides.
    pub sim: SimOverrides,
    /// Field-level router-model overrides.
    pub router: RouterSpec,
    /// Measurement-schedule override.
    pub schedule: Option<Schedule>,
    /// Search parameters.
    pub search: SearchOverrides,
    /// Workload parameters.
    pub workload: WorkloadOverrides,
    /// Saturation parameters.
    pub saturation: SaturationOverrides,
    /// Fault-injection parameters (resilience stage).
    pub faults: FaultsSpec,
    /// Observability settings.
    pub observe: ObserveSpec,
    /// Output configuration.
    pub output: OutputSpec,
    /// Serving-layer cache control.
    pub serve: ServeSpec,
}

impl StudySpec {
    /// A spec named `name` running `stage` with every axis and parameter
    /// at its stage default.
    #[must_use]
    pub fn new(name: &str, stage: StageKind) -> Self {
        Self {
            name: name.to_owned(),
            stage,
            seed: None,
            replicates: None,
            axes: Axes::default(),
            sim: SimOverrides::default(),
            router: RouterSpec::default(),
            schedule: None,
            search: SearchOverrides::default(),
            workload: WorkloadOverrides::default(),
            saturation: SaturationOverrides::default(),
            faults: FaultsSpec::default(),
            observe: ObserveSpec::default(),
            output: OutputSpec::default(),
            serve: ServeSpec::default(),
        }
    }

    /// Decodes a spec from parsed TOML source.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or schema error.
    pub fn from_toml(src: &str) -> Result<Self, String> {
        Self::from_value(&toml::parse(src)?)
    }

    /// Decodes a spec from JSON source.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or schema error.
    pub fn from_json(src: &str) -> Result<Self, String> {
        Self::from_value(&crate::json::parse(src)?)
    }

    /// Decodes a spec from the shared [`Value`] model (the common path
    /// behind [`StudySpec::from_toml`] / [`StudySpec::from_json`]).
    /// Strict: unknown keys and malformed values are errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let Value::Obj(entries) = value else {
            return Err("spec root must be a table/object".to_owned());
        };
        // The TOML reader rejects duplicate keys at parse time; JSON
        // specs reach here with duplicates intact, so enforce the same
        // assigns-once rule uniformly (a double assignment is almost
        // certainly a typo, and first-wins vs last-wins would otherwise
        // be an accident of the decode path).
        reject_duplicate_keys(entries, "spec")?;
        let name = str_field(value, "name")?
            .ok_or("spec is missing the required `name` key")?
            .to_owned();
        if name.is_empty() || name.contains(['/', '\\']) {
            return Err(format!("`name` {name:?} must be a non-empty file stem"));
        }
        let stage: StageKind = str_field(value, "stage")?
            .ok_or("spec is missing the required `stage` key")?
            .parse()?;
        let mut spec = StudySpec::new(&name, stage);
        spec.seed = u64_field(value, "seed")?;
        spec.replicates = u64_field(value, "replicates")?;
        for (key, section) in entries {
            match key.as_str() {
                "name" | "stage" | "seed" | "replicates" => {}
                "axes" => spec.axes = decode_axes(section)?,
                "sim" => spec.sim = decode_sim(section)?,
                "router" => spec.router = decode_router(section)?,
                "schedule" => spec.schedule = Some(decode_schedule(section)?),
                "search" => spec.search = decode_search(section)?,
                "workload" => spec.workload = decode_workload(section)?,
                "saturation" => spec.saturation = decode_saturation(section)?,
                "faults" => spec.faults = decode_faults(section)?,
                "observe" => spec.observe = decode_observe(section)?,
                "output" => spec.output = decode_output(section)?,
                "serve" => spec.serve = decode_serve(section)?,
                other => return Err(format!("unknown spec key {other:?}")),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Encodes the spec back into the [`Value`] model, emitting only the
    /// keys that differ from the defaults. `from_value(to_value(s)) == s`
    /// for every valid spec (pinned by tests); the flow also embeds this
    /// value as the `config` object of the campaign manifest, so every
    /// result file records the resolved study that produced it.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut root = Value::object();
        root.set("name", self.name.as_str());
        root.set("stage", self.stage.name());
        if let Some(seed) = self.seed {
            root.set("seed", seed);
        }
        if let Some(replicates) = self.replicates {
            root.set("replicates", replicates);
        }
        let mut axes = Value::object();
        if let Some(kinds) = &self.axes.kinds {
            axes.set(
                "kinds",
                Value::Arr(kinds.iter().map(|k| Value::from(k.name())).collect()),
            );
        }
        if let Some(ns) = &self.axes.ns {
            axes.set("ns", Value::Arr(ns.iter().map(|&n| Value::from(n)).collect()));
        }
        if let Some(rates) = &self.axes.rates {
            axes.set("rates", Value::Arr(rates.iter().map(|&r| Value::Num(r)).collect()));
        }
        if let Some(patterns) = &self.axes.patterns {
            axes.set(
                "patterns",
                Value::Arr(patterns.iter().map(|p| Value::from(p.name())).collect()),
            );
        }
        if let Some(workloads) = &self.axes.workloads {
            axes.set(
                "workloads",
                Value::Arr(workloads.iter().map(|w| Value::from(w.label())).collect()),
            );
        }
        if let Some(routers) = &self.axes.routers {
            axes.set(
                "routers",
                Value::Arr(routers.iter().map(|r| Value::from(r.name())).collect()),
            );
        }
        if self.axes.optimized {
            axes.set("optimized", true);
        }
        set_section(&mut root, "axes", axes);

        let mut sim = Value::object();
        if let Some(routing) = self.sim.routing {
            sim.set("routing", routing.name());
        }
        if let Some(vcs) = self.sim.vcs {
            sim.set("vcs", vcs);
        }
        if let Some(depth) = self.sim.buffer_depth {
            sim.set("buffer_depth", depth);
        }
        if let Some(shards) = self.sim.shards {
            sim.set("shards", shards);
        }
        if let Some(router) = self.sim.router {
            sim.set("router", router.name());
        }
        set_section(&mut root, "sim", sim);

        let mut router = Value::object();
        if let Some(vc_alloc) = self.router.vc_alloc {
            router.set("vc_alloc", vc_alloc.name());
        }
        if let Some(output_arb) = self.router.output_arb {
            router.set("output_arb", output_arb.name());
        }
        if let Some(bubble) = self.router.bubble {
            router.set("bubble", bubble);
        }
        if let Some(depth) = self.router.crossbar_depth {
            router.set("crossbar_depth", depth);
        }
        set_section(&mut root, "router", router);

        if let Some(schedule) = &self.schedule {
            let mut s = Value::object();
            s.set("warmup_cycles", schedule.warmup_cycles);
            s.set("measure_cycles", schedule.measure_cycles);
            if let Some(res) = schedule.rate_resolution {
                s.set("rate_resolution", res);
            }
            set_section(&mut root, "schedule", s);
        }

        let mut search = Value::object();
        if let Some(restarts) = self.search.restarts {
            search.set("restarts", restarts);
        }
        if let Some(iterations) = self.search.iterations {
            search.set("iterations", iterations);
        }
        if !self.search.validate {
            search.set("validate", false);
        }
        set_section(&mut root, "search", search);

        let mut workload = Value::object();
        if let Some(max_cycles) = self.workload.max_cycles {
            workload.set("max_cycles", max_cycles);
        }
        if self.workload.traces {
            workload.set("traces", true);
        }
        set_section(&mut root, "workload", workload);

        let mut saturation = Value::object();
        if let Some(stem) = &self.saturation.normalized_stem {
            saturation.set("normalized_stem", stem.as_str());
        }
        set_section(&mut root, "saturation", saturation);

        let mut faults = Value::object();
        if let Some(ns) = &self.faults.ns {
            faults.set("ns", Value::Arr(ns.iter().map(|&n| Value::from(n)).collect()));
        }
        if let Some(counts) = &self.faults.link_failures {
            faults.set(
                "link_failures",
                Value::Arr(counts.iter().map(|&c| Value::from(c)).collect()),
            );
        }
        if let Some(cycle) = self.faults.fault_cycle {
            faults.set("fault_cycle", cycle);
        }
        if let Some(timeout) = self.faults.retransmit_timeout {
            faults.set("retransmit_timeout", timeout);
        }
        set_section(&mut root, "faults", faults);

        let mut observe = Value::object();
        if let Some(every) = self.observe.sample_every {
            observe.set("sample_every", every);
        }
        if self.observe.heatmap {
            observe.set("heatmap", true);
        }
        if self.observe.timeline {
            observe.set("timeline", true);
        }
        if self.observe.trace {
            observe.set("trace", true);
        }
        set_section(&mut root, "observe", observe);

        let mut output = Value::object();
        if let Some(dir) = &self.output.dir {
            output.set("dir", dir.as_str());
        }
        if self.output.to_repo_root {
            output.set("to_repo_root", true);
        }
        set_section(&mut root, "output", output);

        let mut serve = Value::object();
        if self.serve.mode != ServeMode::default() {
            serve.set("mode", self.serve.mode.name());
        }
        if !self.serve.warm_start {
            serve.set("warm_start", false);
        }
        set_section(&mut root, "serve", serve);
        root
    }

    /// Checks cross-field constraints the per-key decoders cannot see.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicates.is_some_and(|k| !(1..=MAX_REPLICATES).contains(&k)) {
            return Err(format!("`replicates` must be between 1 and {MAX_REPLICATES}"));
        }
        // Each listed value names its own table rows: a repeat would run
        // every point twice and rank a row against its own duplicate.
        for (key, problem) in [
            ("axes.kinds", list_problem(&self.axes.kinds)),
            ("axes.ns", list_problem(&self.axes.ns)),
            ("axes.rates", list_problem(&self.axes.rates)),
            ("axes.patterns", list_problem(&self.axes.patterns)),
            ("axes.workloads", list_problem(&self.axes.workloads)),
            ("axes.routers", list_problem(&self.axes.routers)),
            ("faults.ns", list_problem(&self.faults.ns)),
            ("faults.link_failures", list_problem(&self.faults.link_failures)),
        ] {
            if let Some(problem) = problem {
                return Err(format!("{key} {problem}"));
            }
        }
        if let Some(ns) = &self.axes.ns {
            let floor = match self.stage {
                StageKind::Proxies | StageKind::Thermal | StageKind::Cost => 1,
                _ => 2, // simulation needs at least two endpoints
            };
            if let Some(&bad) = ns.iter().find(|&&n| n < floor) {
                return Err(format!("axes.ns value {bad} is below the stage minimum {floor}"));
            }
        }
        if let Some(rates) = &self.axes.rates {
            if let Some(&bad) = rates.iter().find(|&&r| !(r > 0.0 && r <= 1.0)) {
                return Err(format!("axes.rates value {bad} is outside (0, 1]"));
            }
        }
        if self.stage == StageKind::Saturation
            && self.axes.patterns.as_ref().is_some_and(|p| p.len() > 1)
        {
            return Err(
                "the saturation stage takes a single pattern (use the traffic stage to sweep \
                 patterns)"
                    .to_owned(),
            );
        }
        // Unset axes resolve to stage defaults that satisfy the three
        // rules below (`EVALUATED` holds the grid and not the honeycomb;
        // the kite counts are all squares), so only set axes are checked.
        let kinds = self.axes.kinds.as_deref();
        if self.saturation.normalized_stem.is_some()
            && kinds.is_some_and(|k| !k.contains(&ArrangementKind::Grid))
        {
            return Err(
                "`saturation.normalized_stem` normalises against the grid, so axes.kinds \
                 must include it"
                    .to_owned(),
            );
        }
        if self.stage == StageKind::Kite {
            // The grid-side variants are side×side meshes and the bandwidth
            // math divides the fixed silicon budget by `n`, so every row of
            // one `n` must describe the same system size: only perfect
            // squares (≥ 2×2) compare apples to apples.
            if let Some(&bad) = self.axes.ns.iter().flatten().find(|&&n| {
                let side = (n as f64).sqrt().round() as usize;
                side < 2 || side * side != n
            }) {
                return Err(format!(
                    "the kite stage compares square grids: axes.ns value {bad} is not a \
                     perfect square >= 4"
                ));
            }
        }
        if self.stage == StageKind::Thermal
            && kinds.is_some_and(|k| k.contains(&ArrangementKind::Honeycomb))
        {
            return Err("the thermal stage needs rectangular placements; the honeycomb has \
                 none (its graph twin is the brickwall)"
                .to_owned());
        }
        if self.axes.optimized
            && !matches!(self.stage, StageKind::LoadCurve | StageKind::Workload)
        {
            return Err(format!(
                "axes.optimized is only supported by the load_curve and workload stages, \
                 not {}",
                self.stage
            ));
        }
        if let Some(schedule) = &self.schedule {
            if schedule.warmup_cycles == 0 || schedule.measure_cycles == 0 {
                return Err("schedule windows must be positive".to_owned());
            }
            // The saturation search bisects (0, 1] down to this width: zero
            // or less never terminates, and 1 or more skips the search.
            if let Some(res) = schedule.rate_resolution.filter(|&r| !(r > 0.0 && r < 1.0)) {
                return Err(format!("schedule.rate_resolution {res} is outside (0, 1)"));
            }
        }
        if let Some(&bad) = self.faults.ns.iter().flatten().find(|&&n| n < 2) {
            return Err(format!("faults.ns value {bad} is below the simulation minimum 2"));
        }
        if self.faults.retransmit_timeout == Some(0) {
            return Err("`faults.retransmit_timeout` must be at least 1".to_owned());
        }
        if self.observe.sample_every == Some(0) {
            return Err("`observe.sample_every` must be at least 1".to_owned());
        }
        if self.observe.sample_every.is_some() && !self.observe.wants_probe() {
            return Err("`observe.sample_every` is set but neither `observe.timeline` nor \
                 `observe.heatmap` is enabled"
                .to_owned());
        }
        if self.observe.wants_probe() && self.stage != StageKind::LoadCurve {
            return Err(format!(
                "`observe.timeline` / `observe.heatmap` replay load points and are only \
                 supported by the load_curve stage, not {}",
                self.stage
            ));
        }
        if self.sim.shards == Some(0) {
            return Err("`sim.shards` must be at least 1".to_owned());
        }
        if self.router.crossbar_depth.is_some_and(|d| d > 16) {
            return Err("`router.crossbar_depth` must be at most 16".to_owned());
        }
        if self.sim.router.is_some() && !self.router.is_neutral() {
            return Err(
                "`sim.router` (a named model) and `[router]` (field overrides) are mutually \
                 exclusive"
                    .to_owned(),
            );
        }
        if self.axes.routers.is_some()
            && (self.sim.router.is_some() || !self.router.is_neutral())
        {
            return Err(
                "`axes.routers` sweeps router models — it cannot be combined with a fixed \
                 `sim.router` / `[router]` override"
                    .to_owned(),
            );
        }
        if self.sim.shards.is_some() && self.stage == StageKind::Workload {
            return Err(
                "`sim.shards` is not supported by the workload stage (its closed-loop \
                 driver runs serial)"
                    .to_owned(),
            );
        }
        self.reject_settings_the_stage_ignores()?;
        // Every configuration a stage will simulate must pass the engine's
        // own check here, before any job runs: a bad `[sim]` value is a
        // spec error, not a panic mid-campaign. The router stage sets the
        // model per row, and its axis defaults to every model.
        let sim = self.base_sim();
        sim.validate().map_err(|e| format!("`[sim]`: {e}"))?;
        let routers: &[RouterModelKind] = match self.stage {
            StageKind::Router => self.axes.routers.as_deref().unwrap_or(&RouterModelKind::ALL),
            _ => &[],
        };
        for &kind in routers {
            SimConfig { router: kind.model(), ..sim }
                .validate()
                .map_err(|e| format!("`[sim]` under router model {kind}: {e}"))?;
        }
        Ok(())
    }

    /// Paper-default [`SimConfig`] with the spec's `[sim]` and `[router]`
    /// overrides applied.
    pub(crate) fn base_sim(&self) -> SimConfig {
        let mut sim = SimConfig::paper_defaults();
        if let Some(routing) = self.sim.routing {
            sim.routing = routing;
        }
        if let Some(vcs) = self.sim.vcs {
            sim.vcs = vcs;
        }
        if let Some(depth) = self.sim.buffer_depth {
            sim.buffer_depth = depth;
        }
        // A named model and a non-neutral `[router]` section are mutually
        // exclusive (validated), so applying both in sequence is exact.
        if let Some(kind) = self.sim.router {
            sim.router = kind.model();
        }
        sim.router = self.router.apply(sim.router);
        sim
    }

    /// A set axis or section the running stage would not read is an
    /// error, not a no-op: silently ignoring it runs a different
    /// experiment than the spec describes, and the manifest's spec echo
    /// would then document the ignored values as applied configuration.
    fn reject_settings_the_stage_ignores(&self) -> Result<(), String> {
        use StageKind::Router as Rt;
        use StageKind::Workload as Wl;
        use StageKind::{
            Kite, LoadCurve, Proxies, Resilience, Saturation, Search, Thermal, Traffic,
        };
        let stage = self.stage;
        // `search` settings also drive the `optimized` axis.
        let searches = stage == Search || self.axes.optimized;
        let checks: [(&str, bool, bool); 12] = [
            (
                "axes.kinds",
                self.axes.kinds.is_some(),
                matches!(
                    stage,
                    Proxies | Saturation | Traffic | LoadCurve | Wl | Thermal | Resilience | Rt
                ),
            ),
            ("axes.rates", self.axes.rates.is_some(), stage == LoadCurve),
            (
                "axes.patterns",
                self.axes.patterns.is_some(),
                matches!(stage, Saturation | Traffic | LoadCurve),
            ),
            ("axes.workloads", self.axes.workloads.is_some(), matches!(stage, Wl | Rt)),
            ("axes.routers", self.axes.routers.is_some(), stage == Rt),
            (
                "[sim]",
                !self.sim.is_neutral(),
                matches!(stage, Saturation | Traffic | LoadCurve | Wl | Resilience | Rt),
            ),
            (
                "[router]",
                !self.router.is_neutral(),
                matches!(stage, Saturation | Traffic | LoadCurve | Wl | Resilience | Rt),
            ),
            (
                "[schedule]",
                self.schedule.is_some(),
                matches!(
                    stage,
                    Saturation | Traffic | LoadCurve | Search | Kite | Resilience | Rt
                ),
            ),
            // The load curve runs windows at given rates and searches none.
            (
                "schedule.rate_resolution",
                self.schedule.as_ref().is_some_and(|s| s.rate_resolution.is_some()),
                matches!(stage, Saturation | Traffic | Search | Kite | Resilience | Rt),
            ),
            ("[search]", self.search != SearchOverrides::default(), searches),
            (
                "[saturation]",
                self.saturation != SaturationOverrides::default(),
                stage == Saturation,
            ),
            ("[faults]", self.faults != FaultsSpec::default(), stage == Resilience),
        ];
        for (key, set, applicable) in checks {
            if set && !applicable {
                return Err(format!("`{key}` is set but the {stage} stage does not use it"));
            }
        }
        if self.workload != WorkloadOverrides::default() && stage != Wl {
            return Err(format!("`[workload]` is set but the {stage} stage does not use it"));
        }
        Ok(())
    }
}

/// What is wrong with a set list, if anything: it is empty, or it
/// repeats a value.
fn list_problem<T: PartialEq + std::fmt::Debug>(values: &Option<Vec<T>>) -> Option<String> {
    let values = values.as_deref()?;
    if values.is_empty() {
        return Some("must not be empty".to_owned());
    }
    let (_, repeat) = values.iter().enumerate().find(|&(i, v)| values[..i].contains(v))?;
    Some(format!("repeats the value {repeat:?}"))
}

/// Inserts `section` into `root` only when non-empty, keeping the
/// serialized form minimal.
fn set_section(root: &mut Value, key: &str, section: Value) {
    if !matches!(&section, Value::Obj(entries) if entries.is_empty()) {
        root.set(key, section);
    }
}

// ── strict field decoders ───────────────────────────────────────────────

fn str_field<'a>(obj: &'a Value, key: &str) -> Result<Option<&'a str>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(format!("`{key}` must be a string, got {other:?}")),
    }
}

fn u64_field(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Int(i)) => in_range(*i, &format!("`{key}`")).map(Some),
        Some(other) => Err(format!("`{key}` must be an integer, got {other:?}")),
    }
}

/// A decoded integer as its field type; the error says whether it was
/// negative or too large for the field.
fn in_range<T: TryFrom<i128>>(i: i128, what: &str) -> Result<T, String> {
    T::try_from(i).map_err(|_| {
        if i < 0 {
            format!("{what} must not be negative, got {i}")
        } else {
            format!("{what} {i} is out of range")
        }
    })
}

fn usize_field(obj: &Value, key: &str) -> Result<Option<usize>, String> {
    Ok(u64_field(obj, key)?.map(|v| v as usize))
}

fn bool_field(obj: &Value, key: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("`{key}` must be a boolean, got {other:?}")),
    }
}

fn f64_field(obj: &Value, key: &str) -> Result<Option<f64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Num(x)) => Ok(Some(*x)),
        Some(Value::Int(i)) => Ok(Some(*i as f64)),
        Some(other) => Err(format!("`{key}` must be a number, got {other:?}")),
    }
}

fn list_field<T, F>(obj: &Value, key: &str, decode: F) -> Result<Option<Vec<T>>, String>
where
    F: Fn(&Value) -> Result<T, String>,
{
    match obj.get(key) {
        None => Ok(None),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|item| decode(item).map_err(|e| format!("`{key}`: {e}")))
            .collect::<Result<Vec<T>, String>>()
            .map(Some),
        Some(other) => Err(format!("`{key}` must be an array, got {other:?}")),
    }
}

fn parse_name<T>(item: &Value) -> Result<T, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    match item {
        Value::Str(s) => s.parse().map_err(|e| format!("{e}")),
        other => Err(format!("expected a name string, got {other:?}")),
    }
}

fn reject_duplicate_keys(entries: &[(String, Value)], context: &str) -> Result<(), String> {
    for (i, (key, _)) in entries.iter().enumerate() {
        if entries[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?} in `{context}`"));
        }
    }
    Ok(())
}

fn reject_unknown(section: &Value, known: &[&str], context: &str) -> Result<(), String> {
    let Value::Obj(entries) = section else {
        return Err(format!("`{context}` must be a table/object"));
    };
    reject_duplicate_keys(entries, context)?;
    for (key, _) in entries {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?} in `{context}`"));
        }
    }
    Ok(())
}

fn decode_axes(section: &Value) -> Result<Axes, String> {
    reject_unknown(
        section,
        &["kinds", "ns", "rates", "patterns", "workloads", "routers", "optimized"],
        "axes",
    )?;
    Ok(Axes {
        kinds: list_field(section, "kinds", parse_name::<ArrangementKind>)?,
        ns: list_field(section, "ns", |v| match v {
            Value::Int(i) => in_range(*i, "chiplet count"),
            other => Err(format!("expected an integer, got {other:?}")),
        })?,
        rates: list_field(section, "rates", |v| match v {
            Value::Num(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(format!("expected a number, got {other:?}")),
        })?,
        patterns: list_field(section, "patterns", parse_name::<TrafficPattern>)?,
        workloads: list_field(section, "workloads", parse_name::<WorkloadKind>)?,
        routers: list_field(section, "routers", parse_name::<RouterModelKind>)?,
        optimized: bool_field(section, "optimized")?.unwrap_or(false),
    })
}

fn decode_sim(section: &Value) -> Result<SimOverrides, String> {
    reject_unknown(section, &["routing", "vcs", "buffer_depth", "shards", "router"], "sim")?;
    Ok(SimOverrides {
        routing: str_field(section, "routing")?.map(str::parse).transpose()?,
        vcs: usize_field(section, "vcs")?,
        buffer_depth: usize_field(section, "buffer_depth")?,
        shards: usize_field(section, "shards")?,
        router: str_field(section, "router")?.map(str::parse).transpose()?,
    })
}

fn decode_router(section: &Value) -> Result<RouterSpec, String> {
    reject_unknown(section, &["vc_alloc", "output_arb", "bubble", "crossbar_depth"], "router")?;
    Ok(RouterSpec {
        vc_alloc: str_field(section, "vc_alloc")?.map(str::parse).transpose()?,
        output_arb: str_field(section, "output_arb")?.map(str::parse).transpose()?,
        bubble: bool_field(section, "bubble")?,
        crossbar_depth: u64_field(section, "crossbar_depth")?,
    })
}

fn decode_schedule(section: &Value) -> Result<Schedule, String> {
    reject_unknown(
        section,
        &["warmup_cycles", "measure_cycles", "rate_resolution"],
        "schedule",
    )?;
    let warmup =
        u64_field(section, "warmup_cycles")?.ok_or("`schedule` needs `warmup_cycles`")?;
    let measure =
        u64_field(section, "measure_cycles")?.ok_or("`schedule` needs `measure_cycles`")?;
    Ok(Schedule {
        warmup_cycles: warmup,
        measure_cycles: measure,
        rate_resolution: f64_field(section, "rate_resolution")?,
    })
}

fn decode_search(section: &Value) -> Result<SearchOverrides, String> {
    reject_unknown(section, &["restarts", "iterations", "validate"], "search")?;
    Ok(SearchOverrides {
        restarts: usize_field(section, "restarts")?,
        iterations: usize_field(section, "iterations")?,
        validate: bool_field(section, "validate")?.unwrap_or(true),
    })
}

fn decode_workload(section: &Value) -> Result<WorkloadOverrides, String> {
    reject_unknown(section, &["max_cycles", "traces"], "workload")?;
    Ok(WorkloadOverrides {
        max_cycles: u64_field(section, "max_cycles")?,
        traces: bool_field(section, "traces")?.unwrap_or(false),
    })
}

fn decode_saturation(section: &Value) -> Result<SaturationOverrides, String> {
    reject_unknown(section, &["normalized_stem"], "saturation")?;
    Ok(SaturationOverrides {
        normalized_stem: str_field(section, "normalized_stem")?.map(str::to_owned),
    })
}

fn decode_faults(section: &Value) -> Result<FaultsSpec, String> {
    reject_unknown(
        section,
        &["ns", "link_failures", "fault_cycle", "retransmit_timeout"],
        "faults",
    )?;
    let counts = |key: &str| {
        list_field(section, key, |v| match v {
            Value::Int(i) => in_range(*i, "count"),
            other => Err(format!("expected an integer, got {other:?}")),
        })
    };
    Ok(FaultsSpec {
        ns: counts("ns")?,
        link_failures: counts("link_failures")?,
        fault_cycle: u64_field(section, "fault_cycle")?,
        retransmit_timeout: u64_field(section, "retransmit_timeout")?,
    })
}

fn decode_observe(section: &Value) -> Result<ObserveSpec, String> {
    reject_unknown(section, &["sample_every", "heatmap", "timeline", "trace"], "observe")?;
    Ok(ObserveSpec {
        sample_every: u64_field(section, "sample_every")?,
        heatmap: bool_field(section, "heatmap")?.unwrap_or(false),
        timeline: bool_field(section, "timeline")?.unwrap_or(false),
        trace: bool_field(section, "trace")?.unwrap_or(false),
    })
}

fn decode_output(section: &Value) -> Result<OutputSpec, String> {
    reject_unknown(section, &["dir", "to_repo_root"], "output")?;
    Ok(OutputSpec {
        dir: str_field(section, "dir")?.map(str::to_owned),
        to_repo_root: bool_field(section, "to_repo_root")?.unwrap_or(false),
    })
}

fn decode_serve(section: &Value) -> Result<ServeSpec, String> {
    reject_unknown(section, &["mode", "warm_start"], "serve")?;
    Ok(ServeSpec {
        mode: str_field(section, "mode")?.map(str::parse).transpose()?.unwrap_or_default(),
        warm_start: bool_field(section, "warm_start")?.unwrap_or(true),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for stage in StageKind::ALL {
            assert_eq!(stage.name().parse::<StageKind>().unwrap(), stage);
            assert_eq!(stage.to_string().parse::<StageKind>().unwrap(), stage);
        }
        assert!("fig7".parse::<StageKind>().is_err());
    }

    #[test]
    fn minimal_spec_decodes_with_stage_defaults() {
        let spec = StudySpec::from_toml("name = \"s\"\nstage = \"load_curve\"\n").unwrap();
        assert_eq!(spec.name, "s");
        assert_eq!(spec.stage, StageKind::LoadCurve);
        assert_eq!(spec.axes, Axes::default());
        assert!(spec.search.validate);
    }

    #[test]
    fn full_spec_round_trips_through_value() {
        let mut spec = StudySpec::new("ranked", StageKind::Workload);
        spec.seed = Some(42);
        spec.replicates = Some(3);
        spec.axes.kinds = Some(vec![ArrangementKind::HexaMesh, ArrangementKind::Grid]);
        spec.axes.ns = Some(vec![19, 37]);
        spec.axes.workloads = Some(vec![WorkloadKind::Stencil]);
        spec.axes.optimized = true;
        spec.sim.routing = Some(RoutingKind::UpDownOnly);
        spec.sim.vcs = Some(4);
        spec.search.restarts = Some(3);
        spec.workload.max_cycles = Some(1_000_000);
        spec.workload.traces = true;
        spec.output.to_repo_root = true;
        let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(round_tripped, spec);
        // And through the JSON text form too.
        let via_json = StudySpec::from_json(&spec.to_value().to_json()).unwrap();
        assert_eq!(via_json, spec);
    }

    #[test]
    fn toml_spec_with_sections_decodes() {
        let spec = StudySpec::from_toml(concat!(
            "name = \"hotspot_curves\"\n",
            "stage = \"load_curve\"\n",
            "seed = 7\n",
            "[axes]\n",
            "kinds = [\"brickwall\", \"hexamesh\"]\n",
            "ns = [19]\n",
            "patterns = [\"hotspot:4:500\"]\n",
            "[sim]\n",
            "routing = \"updown\"\n",
            "[schedule]\n",
            "warmup_cycles = 1500\n",
            "measure_cycles = 3000\n",
        ))
        .unwrap();
        assert_eq!(spec.seed, Some(7));
        assert_eq!(
            spec.axes.patterns,
            Some(vec![TrafficPattern::Hotspot { num_hotspots: 4, fraction_permille: 500 }])
        );
        assert_eq!(spec.sim.routing, Some(RoutingKind::UpDownOnly));
        assert_eq!(spec.schedule, Some(Schedule::new(1_500, 3_000)));
    }

    #[test]
    fn unknown_keys_and_bad_values_are_errors() {
        let base = "name = \"s\"\nstage = \"traffic\"\n";
        assert!(StudySpec::from_toml(&format!("{base}typo = 1\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}[axes]\ntypo = 1\n")).is_err());
        assert!(
            StudySpec::from_toml(&format!("{base}[axes]\nkinds = [\"squircle\"]\n")).is_err()
        );
        assert!(StudySpec::from_toml(&format!("{base}[axes]\nns = [1]\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}[axes]\nrates = [1.5]\n")).is_err());
        assert!(StudySpec::from_toml("stage = \"traffic\"\n").is_err(), "missing name");
        assert!(StudySpec::from_toml("name = \"s\"\n").is_err(), "missing stage");
        assert!(StudySpec::from_toml("name = \"a/b\"\nstage = \"traffic\"\n").is_err());
        assert!(StudySpec::from_toml(&format!("{base}replicates = 0\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}replicates = 1001\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}replicates = 1000\n")).is_ok());
        let huge =
            StudySpec::from_toml(&format!("{base}[axes]\nns = [99999999999999999999]\n"));
        assert!(huge.unwrap_err().contains("out of range"), "too large is not negative");
        let fanout = "name = \"s\"\nstage = \"saturation\"\n[saturation]\nfanout = 2\n";
        let err = StudySpec::from_toml(fanout).expect_err("one search per arrangement");
        assert!(err.contains("fanout"), "{err}");
        // A repeated value would run its rows twice and rank a kind
        // against its own duplicate.
        for (stage, section, repeat) in [
            ("traffic", "axes", "kinds = [\"hexamesh\", \"grid\", \"hexamesh\"]"),
            ("traffic", "axes", "ns = [7, 7]"),
            ("load_curve", "axes", "rates = [0.1, 0.2, 0.1]"),
            ("traffic", "axes", "patterns = [\"tornado\", \"tornado\"]"),
            ("workload", "axes", "workloads = [\"stencil\", \"stencil\"]"),
            ("router", "axes", "routers = [\"baseline\", \"baseline\"]"),
            ("resilience", "faults", "ns = [7, 7]"),
            ("resilience", "faults", "link_failures = [0, 1, 0]"),
        ] {
            let spec = format!("name = \"s\"\nstage = \"{stage}\"\n[{section}]\n{repeat}\n");
            let err = StudySpec::from_toml(&spec).expect_err(repeat);
            assert!(err.contains("repeats the value"), "{repeat}: {err}");
        }
        let schedule = "[schedule]\nwarmup_cycles = 10\nmeasure_cycles = 20\n";
        for res in ["0.05", "0", "-0.01", "1.0", "2.0"] {
            let spec =
                StudySpec::from_toml(&format!("{base}{schedule}rate_resolution = {res}\n"));
            assert_eq!(spec.is_ok(), res == "0.05", "rate_resolution = {res}");
        }
        let overflow = r#"{"name":"s","stage":"traffic","schedule":
            {"warmup_cycles":10,"measure_cycles":20,"rate_resolution":1e999}}"#;
        assert!(StudySpec::from_json(overflow).is_err(), "1e999 reads as infinity");
        // Stage rules are checked before any job runs; the stage defaults
        // satisfy each of them.
        for (stage, axes, extra) in [
            ("saturation", "kinds = [\"hexamesh\"]", "[saturation]\nnormalized_stem = \"n\"\n"),
            ("kite", "ns = [16, 20]", ""),
            ("thermal", "kinds = [\"grid\", \"honeycomb\"]", ""),
        ] {
            let head = format!("name = \"s\"\nstage = \"{stage}\"\n");
            let bad = StudySpec::from_toml(&format!("{head}[axes]\n{axes}\n{extra}"));
            assert!(bad.is_err(), "{stage}: {axes}");
            assert!(StudySpec::from_toml(&format!("{head}{extra}")).is_ok(), "{stage}");
        }
        // `[sim]` values go through the engine's own configuration check
        // (caps included) before any job runs, under every router model
        // the stage will use.
        for (stage, sim) in [
            ("load_curve", "vcs = 0"),
            ("load_curve", "vcs = 1"),
            ("saturation", "buffer_depth = 0"),
            ("workload", "vcs = 65"),
            ("resilience", "buffer_depth = 1000000000000"),
            ("router", "buffer_depth = 1"),
        ] {
            let spec = format!("name = \"s\"\nstage = \"{stage}\"\n[sim]\n{sim}\n");
            let err = StudySpec::from_toml(&spec).expect_err(sim);
            assert!(err.contains("invalid configuration"), "{sim}: {err}");
        }
        for ok in [
            "stage = \"load_curve\"\n[sim]\nvcs = 1\nrouting = \"deterministic\"\n",
            "stage = \"router\"\n[axes]\nrouters = [\"baseline\"]\n[sim]\nbuffer_depth = 1\n",
        ] {
            assert!(StudySpec::from_toml(&format!("name = \"s\"\n{ok}")).is_ok(), "{ok}");
        }
    }

    #[test]
    fn duplicate_json_keys_are_errors_not_first_or_last_wins() {
        let dup_scalar = r#"{"name":"s","stage":"traffic","seed":1,"seed":2}"#;
        assert!(StudySpec::from_json(dup_scalar).is_err());
        let dup_section =
            r#"{"name":"s","stage":"traffic","axes":{"ns":[4]},"axes":{"ns":[9]}}"#;
        assert!(StudySpec::from_json(dup_section).is_err());
        let dup_inner = r#"{"name":"s","stage":"traffic","axes":{"ns":[4],"ns":[9]}}"#;
        assert!(StudySpec::from_json(dup_inner).is_err());
    }

    #[test]
    fn settings_the_stage_ignores_are_rejected() {
        let mut spec = StudySpec::new("s", StageKind::Cost);
        spec.axes.rates = Some(vec![0.5]);
        assert!(spec.validate().is_err(), "cost stage reads no rates axis");
        let mut spec = StudySpec::new("s", StageKind::Cost);
        spec.sim.vcs = Some(2);
        assert!(spec.validate().is_err(), "cost stage runs no simulator");
        let mut spec = StudySpec::new("s", StageKind::Thermal);
        spec.schedule = Some(Schedule::new(100, 200));
        assert!(spec.validate().is_err(), "thermal stage has no measurement windows");
        let mut spec = StudySpec::new("s", StageKind::Traffic);
        spec.search.restarts = Some(2);
        assert!(spec.validate().is_err(), "search settings need the search stage or optimized");
        let mut spec = StudySpec::new("s", StageKind::LoadCurve);
        spec.saturation.normalized_stem = Some("n".to_owned());
        assert!(spec.validate().is_err(), "saturation settings are saturation-stage only");
        let mut spec = StudySpec::new("s", StageKind::Saturation);
        spec.workload.traces = true;
        assert!(spec.validate().is_err(), "workload settings are workload-stage only");
        // The same settings pass on the stages that read them.
        let mut spec = StudySpec::new("s", StageKind::LoadCurve);
        spec.axes.optimized = true;
        spec.search.restarts = Some(2);
        spec.sim.vcs = Some(2);
        spec.schedule = Some(Schedule::new(100, 200));
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn a_load_curve_rejects_a_rate_resolution() {
        // The load curve simulates the rates it is given and searches none,
        // so a resolution would only split its cache key.
        let mut schedule = Schedule::new(1_500, 3_000);
        schedule.rate_resolution = Some(0.05);
        let mut spec = StudySpec::new("s", StageKind::LoadCurve);
        spec.schedule = Some(schedule.clone());
        let err = spec.validate().expect_err("the load curve searches no rate");
        assert_eq!(
            err,
            "`schedule.rate_resolution` is set but the load_curve stage does not use it"
        );
        // The windows alone pass, and so does the resolution on a stage
        // that searches.
        spec.schedule.as_mut().unwrap().rate_resolution = None;
        assert!(spec.validate().is_ok());
        for stage in [StageKind::Saturation, StageKind::Kite, StageKind::Resilience] {
            let mut spec = StudySpec::new("s", stage);
            spec.schedule = Some(schedule.clone());
            assert!(spec.validate().is_ok(), "{stage}");
        }
    }

    #[test]
    fn sim_shards_round_trips_and_is_validated() {
        let mut spec = StudySpec::new("large", StageKind::Saturation);
        spec.axes.ns = Some(vec![1_027]);
        spec.sim.shards = Some(8);
        spec.validate().unwrap();
        let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(round_tripped, spec);
        let via_json = StudySpec::from_json(&spec.to_value().to_json()).unwrap();
        assert_eq!(via_json, spec);

        let toml = StudySpec::from_toml(concat!(
            "name = \"large\"\nstage = \"saturation\"\n",
            "[sim]\nshards = 8\n",
        ))
        .unwrap();
        assert_eq!(toml.sim.shards, Some(8));

        let mut zero = StudySpec::new("s", StageKind::Saturation);
        zero.sim.shards = Some(0);
        assert!(zero.validate().is_err(), "shards = 0 is meaningless");
        let mut workload = StudySpec::new("s", StageKind::Workload);
        workload.sim.shards = Some(4);
        assert!(workload.validate().is_err(), "the closed-loop driver is serial-only");
    }

    #[test]
    fn faults_section_round_trips_and_is_validated() {
        let mut spec = StudySpec::new("degrade", StageKind::Resilience);
        spec.faults.ns = Some(vec![37, 91]);
        spec.faults.link_failures = Some(vec![0, 1, 2, 4]);
        spec.faults.fault_cycle = Some(750);
        spec.faults.retransmit_timeout = Some(512);
        spec.validate().unwrap();
        let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(round_tripped, spec);
        let via_json = StudySpec::from_json(&spec.to_value().to_json()).unwrap();
        assert_eq!(via_json, spec);

        let toml = StudySpec::from_toml(concat!(
            "name = \"degrade\"\nstage = \"resilience\"\n",
            "[faults]\nlink_failures = [0, 2]\nfault_cycle = 600\n",
        ))
        .unwrap();
        assert_eq!(toml.faults.link_failures, Some(vec![0, 2]));
        assert_eq!(toml.faults.fault_cycle, Some(600));

        // Rejections: wrong stage, empty lists, degenerate values.
        let mut wrong_stage = StudySpec::new("s", StageKind::Saturation);
        wrong_stage.faults.link_failures = Some(vec![1]);
        assert!(wrong_stage.validate().is_err(), "[faults] is resilience-stage only");
        let mut empty = StudySpec::new("s", StageKind::Resilience);
        empty.faults.link_failures = Some(vec![]);
        assert!(empty.validate().is_err());
        let mut tiny = StudySpec::new("s", StageKind::Resilience);
        tiny.faults.ns = Some(vec![1]);
        assert!(tiny.validate().is_err());
        let mut zero = StudySpec::new("s", StageKind::Resilience);
        zero.faults.retransmit_timeout = Some(0);
        assert!(zero.validate().is_err());
        assert!(StudySpec::from_toml(
            "name = \"s\"\nstage = \"resilience\"\n[faults]\ntypo = 1\n"
        )
        .is_err());
    }

    #[test]
    fn observe_section_round_trips_and_is_validated() {
        let mut spec = StudySpec::new("watched", StageKind::LoadCurve);
        spec.observe.sample_every = Some(200);
        spec.observe.heatmap = true;
        spec.observe.timeline = true;
        spec.observe.trace = true;
        spec.validate().unwrap();
        let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(round_tripped, spec);
        let via_json = StudySpec::from_json(&spec.to_value().to_json()).unwrap();
        assert_eq!(via_json, spec);

        let toml = StudySpec::from_toml(concat!(
            "name = \"watched\"\nstage = \"load_curve\"\n",
            "[observe]\ntimeline = true\nsample_every = 125\n",
        ))
        .unwrap();
        assert_eq!(toml.observe.sample_every, Some(125));
        assert!(toml.observe.timeline);
        assert!(!toml.observe.heatmap);

        // Rejections: zero window, orphan sample_every, wrong stage.
        let mut zero = StudySpec::new("s", StageKind::LoadCurve);
        zero.observe.sample_every = Some(0);
        zero.observe.timeline = true;
        assert!(zero.validate().is_err());
        let mut orphan = StudySpec::new("s", StageKind::LoadCurve);
        orphan.observe.sample_every = Some(100);
        assert!(orphan.validate().is_err(), "sample_every needs a probe consumer");
        let mut wrong_stage = StudySpec::new("s", StageKind::Saturation);
        wrong_stage.observe.heatmap = true;
        assert!(wrong_stage.validate().is_err(), "heatmap replays load_curve points");
        // Pool tracing is engine-level and works for any stage.
        let mut traced = StudySpec::new("s", StageKind::Saturation);
        traced.observe.trace = true;
        traced.validate().unwrap();
        assert!(StudySpec::from_toml(
            "name = \"s\"\nstage = \"load_curve\"\n[observe]\ntypo = 1\n"
        )
        .is_err());
    }

    #[test]
    fn serve_section_round_trips_and_is_stage_agnostic() {
        // `[serve]` is transport-level cache control: any stage carries it.
        for stage in StageKind::ALL {
            let mut spec = StudySpec::new("s", stage);
            spec.serve.mode = ServeMode::Refresh;
            spec.serve.warm_start = false;
            spec.validate().unwrap();
            let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
            assert_eq!(round_tripped, spec);
        }

        let toml = StudySpec::from_toml(concat!(
            "name = \"cached\"\nstage = \"load_curve\"\n",
            "[serve]\nmode = \"bypass\"\nwarm_start = false\n",
        ))
        .unwrap();
        assert_eq!(toml.serve.mode, ServeMode::Bypass);
        assert!(!toml.serve.warm_start);

        // Defaults vanish from the serialized form: the canonical value of
        // a default `[serve]` has no serve section at all, so writing the
        // defaults out explicitly cannot change a cache key.
        let explicit = StudySpec::from_toml(concat!(
            "name = \"cached\"\nstage = \"load_curve\"\n",
            "[serve]\nmode = \"reuse\"\nwarm_start = true\n",
        ))
        .unwrap();
        let implicit =
            StudySpec::from_toml("name = \"cached\"\nstage = \"load_curve\"\n").unwrap();
        assert_eq!(explicit.to_value().to_json(), implicit.to_value().to_json());
        assert!(explicit.to_value().get("serve").is_none());

        assert!(StudySpec::from_toml(
            "name = \"s\"\nstage = \"load_curve\"\n[serve]\nmode = \"always\"\n"
        )
        .is_err());
        assert!(StudySpec::from_toml(
            "name = \"s\"\nstage = \"load_curve\"\n[serve]\ntypo = 1\n"
        )
        .is_err());
    }

    #[test]
    fn router_section_round_trips_and_is_validated() {
        let mut spec = StudySpec::new("rmodel", StageKind::Router);
        spec.axes.kinds = Some(vec![ArrangementKind::HexaMesh, ArrangementKind::Grid]);
        spec.router.vc_alloc = Some(VcAllocPolicy::LeastLoaded);
        spec.router.output_arb = Some(OutputArbPolicy::OldestFirst);
        spec.router.bubble = Some(true);
        spec.router.crossbar_depth = Some(2);
        spec.validate().unwrap();
        let round_tripped = StudySpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(round_tripped, spec);
        let via_json = StudySpec::from_json(&spec.to_value().to_json()).unwrap();
        assert_eq!(via_json, spec);

        let toml = StudySpec::from_toml(concat!(
            "name = \"rmodel\"\nstage = \"router\"\n",
            "[router]\nvc_alloc = \"random\"\nbubble = true\n",
        ))
        .unwrap();
        assert_eq!(toml.router.vc_alloc, Some(VcAllocPolicy::Random));
        assert_eq!(toml.router.bubble, Some(true));
        assert_eq!(toml.router.output_arb, None);
        assert_eq!(
            toml.router.apply(RouterModel::default()),
            RouterModel {
                vc_alloc: VcAllocPolicy::Random,
                bubble_escape: true,
                ..RouterModel::default()
            }
        );

        // Named models decode through `sim.router` and the axes sweep.
        let named = StudySpec::from_toml(concat!(
            "name = \"rmodel\"\nstage = \"router\"\n",
            "[sim]\nrouter = \"fortified\"\n",
        ))
        .unwrap();
        assert_eq!(named.sim.router, Some(RouterModelKind::Fortified));
        let swept = StudySpec::from_toml(concat!(
            "name = \"rmodel\"\nstage = \"router\"\n",
            "[axes]\nrouters = [\"baseline\", \"bubble\", \"deepxbar\"]\n",
        ))
        .unwrap();
        assert_eq!(
            swept.axes.routers,
            Some(vec![
                RouterModelKind::Baseline,
                RouterModelKind::Bubble,
                RouterModelKind::DeepCrossbar,
            ])
        );
    }

    #[test]
    fn router_settings_are_strictly_rejected() {
        // Unknown keys and unknown policy names.
        let base = "name = \"s\"\nstage = \"router\"\n";
        assert!(StudySpec::from_toml(&format!("{base}[router]\ntypo = 1\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}[router]\nvc_alloc = \"lru\"\n")).is_err());
        assert!(StudySpec::from_toml(&format!("{base}[sim]\nrouter = \"default\"\n")).is_err());
        assert!(
            StudySpec::from_toml(&format!("{base}[axes]\nrouters = [\"turbo\"]\n")).is_err()
        );
        assert!(StudySpec::from_toml(&format!("{base}[axes]\nrouters = []\n")).is_err());
        // Out-of-range pipeline depth.
        assert!(
            StudySpec::from_toml(&format!("{base}[router]\ncrossbar_depth = 17\n")).is_err()
        );
        StudySpec::from_toml(&format!("{base}[router]\ncrossbar_depth = 16\n")).unwrap();
        // Contradictory combinations.
        let mut both = StudySpec::new("s", StageKind::Router);
        both.sim.router = Some(RouterModelKind::Bubble);
        both.router.bubble = Some(true);
        assert!(both.validate().is_err(), "named model vs field overrides");
        let mut sweep_and_fix = StudySpec::new("s", StageKind::Router);
        sweep_and_fix.axes.routers = Some(vec![RouterModelKind::Baseline]);
        sweep_and_fix.sim.router = Some(RouterModelKind::Bubble);
        assert!(sweep_and_fix.validate().is_err(), "sweep vs fixed override");
        // Stage gating: the proxies stage runs no simulator, and the
        // routers axis needs a stage that sweeps it.
        let mut wrong_stage = StudySpec::new("s", StageKind::Proxies);
        wrong_stage.router.bubble = Some(true);
        assert!(wrong_stage.validate().is_err(), "[router] needs a simulating stage");
        let mut wrong_axis = StudySpec::new("s", StageKind::Saturation);
        wrong_axis.axes.routers = Some(vec![RouterModelKind::Baseline]);
        assert!(wrong_axis.validate().is_err(), "axes.routers is router-stage only");
        // But a fixed override on a simulating stage is fine.
        let mut fixed = StudySpec::new("s", StageKind::Saturation);
        fixed.sim.router = Some(RouterModelKind::Fortified);
        fixed.validate().unwrap();
    }

    #[test]
    fn cross_field_constraints_are_enforced() {
        let mut spec = StudySpec::new("s", StageKind::Saturation);
        spec.axes.patterns = Some(vec![TrafficPattern::UniformRandom, TrafficPattern::Tornado]);
        assert!(spec.validate().is_err(), "saturation takes one pattern");
        let mut spec = StudySpec::new("s", StageKind::Traffic);
        spec.axes.optimized = true;
        assert!(spec.validate().is_err(), "optimized axis is load_curve/workload only");
        let mut spec = StudySpec::new("s", StageKind::Workload);
        spec.axes.optimized = true;
        assert!(spec.validate().is_ok());
    }
}
