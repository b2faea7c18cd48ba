//! The four workloads, each split into a set-up and a run of fixed
//! simulated work. They call the public entry points of `hexamesh`,
//! `chiplet_graph`, `nocsim`, `chiplet_workload` and `chiplet_arrange`
//! the way the `xp` stages do per job, one call at a time, so that every
//! call can be wrapped in a span.

use chiplet_arrange::{
    anneal, cheap_score, full_score, AnnealStats, InitKind, ProxyScore, SearchConfig,
    SearchState,
};
use chiplet_graph::{bfs, Graph};
use chiplet_workload::{WorkloadDriver, WorkloadKind};
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::eval::{self, EvalParams};
use nocsim::measure;
use nocsim::routing::RoutingTables;
use nocsim::{MeasureConfig, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xp::seed::derive_seed;

use crate::pins::{Canon, Record};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 7 saturation search, HexaMesh and grid at n = 37.
    Fig7Search,
    /// Measurement windows of one HexaMesh simulator at n = 1027.
    LargeN,
    /// Closed-loop collective kernels on HexaMesh at n = 169.
    Collectives,
    /// The restarts of the n = 91 arrangement search.
    Anneal,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] =
        [Kind::Fig7Search, Kind::LargeN, Kind::Collectives, Kind::Anneal];

    /// Name used on the command line and in file names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Search => "fig7_search",
            Kind::LargeN => "large_n",
            Kind::Collectives => "collectives",
            Kind::Anneal => "anneal",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("every kind is in ALL")
    }
}

/// Problem sizes: the benchmark's, or the toy sizes of the self-test.
#[derive(Debug, Clone)]
pub struct Sizes {
    fig7_n: usize,
    fig7_schedule: MeasureConfig,
    large_n: usize,
    large_rate: f64,
    large_warmup: u64,
    large_window: u64,
    large_windows: usize,
    collectives_n: usize,
    anneal: SearchConfig,
    /// Set-ups per pass, per workload in [`Kind::ALL`] order.
    setups: [usize; 4],
}

/// The two collectives: a bandwidth-bound ring and a dense exchange.
const KERNELS: [WorkloadKind; 2] = [WorkloadKind::RingAllReduce, WorkloadKind::AllToAll];

/// Cycle budget of one kernel run, as in the `xp` workload stage; a
/// run that needs more counts as stopped before completing.
const MAX_KERNEL_CYCLES: u64 = 50_000_000;

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            fig7_n: 37,
            fig7_schedule: MeasureConfig::quick(),
            large_n: 1027,
            large_rate: 0.05,
            // About three zero-load latencies (514 cycles) at this size, so
            // every window sees the network at steady state.
            large_warmup: 1500,
            large_window: 400,
            large_windows: 2,
            collectives_n: 169,
            anneal: SearchConfig::new(91),
            // Set-ups of about 1 ms, 0.3 s, 0.14 s and 3 ms: each pass
            // spends 5-17% of its time setting up.
            setups: [200, 3, 4, 64],
        }
    }

    /// Sizes at which every workload runs in well under a second.
    pub fn toy() -> Self {
        let mut fig7_schedule = MeasureConfig::quick();
        fig7_schedule.warmup_cycles = 300;
        fig7_schedule.measure_cycles = 600;
        let mut anneal = SearchConfig::quick(19);
        anneal.anneal.iterations = 150;
        anneal.anneal.greedy_iterations = 50;
        Self {
            fig7_n: 7,
            fig7_schedule,
            large_n: 37,
            large_rate: 0.05,
            large_warmup: 400,
            large_window: 200,
            large_windows: 3,
            collectives_n: 7,
            anneal,
            setups: [2; 4],
        }
    }

    /// How many times a pass sets `kind` up from scratch: every set-up is
    /// timed and checked on its own, and the pass runs the last one.
    pub fn setups(&self, kind: Kind) -> usize {
        self.setups[kind.index()]
    }
}

/// The paper router with the run's traffic seed: seed 0 is the
/// repository's own default, other seeds offset it.
fn sim_config(seed: u64) -> SimConfig {
    let mut config = SimConfig::paper_defaults();
    config.seed = config.seed.wrapping_add(seed);
    config
}

/// The state a set-up builds and the run consumes.
pub enum State {
    /// Arrangements with their zero-load latency and full global
    /// bandwidth (Tb/s).
    Fig7 { arrangements: Vec<(Arrangement, f64, f64)>, config: SimConfig },
    /// A simulator ready for warm-up.
    LargeN { sim: Box<Simulator>, routers: usize },
    /// One driver per kernel, ready to run.
    Collectives { drivers: Vec<(WorkloadKind, WorkloadDriver)> },
    /// Each restart's initial state and random stream.
    Anneal { restarts: Vec<(usize, InitKind, SearchState, StdRng)> },
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds a workload's initial state. The record pins its structural
/// outputs; an `Err` names the call that failed.
pub fn setup(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    t: &mut Tracer,
) -> Result<(State, Record), String> {
    t.op("setup", |t| match kind {
        Kind::Fig7Search => fig7_setup(sizes, seed, t),
        Kind::LargeN => large_n_setup(sizes, seed, t),
        Kind::Collectives => collectives_setup(sizes, seed, t),
        Kind::Anneal => anneal_setup(sizes, seed, t),
    })
}

/// Runs a workload's fixed simulated work: one record per operation, plus
/// model-check lines for the report.
pub fn run(state: State, sizes: &Sizes, t: &mut Tracer) -> (Vec<Record>, Vec<String>) {
    match state {
        State::Fig7 { arrangements, config } => fig7_run(&arrangements, config, sizes, t),
        State::LargeN { sim, routers } => large_n_run(sim, routers, sizes, t),
        State::Collectives { drivers } => collectives_run(drivers, t),
        State::Anneal { restarts } => anneal_run(restarts, sizes, t),
    }
}

/// All-pairs hop distances and routing tables of `g`, each built once on
/// its own so their layers show in the trace; pins the hop structure.
fn structure(
    label: &str,
    g: &Graph,
    config: &SimConfig,
    c: &mut Canon,
    t: &mut Tracer,
) -> Result<(), String> {
    let dist = t.call("graph.bfs", || bfs::all_pairs_distances(g));
    let diameter = dist.iter().copied().max().unwrap_or(0);
    let total: u64 = dist.iter().map(|&d| u64::from(d)).sum();
    drop(dist);
    let tables =
        t.call("nocsim.routing", || RoutingTables::new(g, config.routing)).map_err(err)?;
    c.kv(&format!("{label}.diameter"), diameter)
        .kv(&format!("{label}.total_hops"), total)
        .kv(&format!("{label}.tables_average_distance"), tables.average_distance());
    Ok(())
}

// ── fig7_search ─────────────────────────────────────────────────────────

const FIG7_KINDS: [ArrangementKind; 2] = [ArrangementKind::HexaMesh, ArrangementKind::Grid];

fn fig7_setup(sizes: &Sizes, seed: u64, t: &mut Tracer) -> Result<(State, Record), String> {
    let config = sim_config(seed);
    let mut params = EvalParams::paper_defaults();
    params.sim = config;
    let mut c = Canon::new();
    let mut arrangements = Vec::new();
    for kind in FIG7_KINDS {
        let label = kind.name();
        let a = t
            .call("hexamesh.arrangement", || Arrangement::build(kind, sizes.fig7_n))
            .map_err(err)?;
        structure(label, a.graph(), &config, &mut c, t)?;
        let zero_load = t
            .call("nocsim.measure.zero_load", || measure::zero_load_latency(a.graph(), &config))
            .map_err(err)?;
        let budget = eval::link_budget(&a, &params).map_err(err)?;
        c.kv(&format!("{label}.zero_load_latency"), zero_load).kv(
            &format!("{label}.full_global_bandwidth_tbps"),
            budget.full_global_bandwidth_tbps,
        );
        arrangements.push((a, zero_load, budget.full_global_bandwidth_tbps));
    }
    Ok((State::Fig7 { arrangements, config }, Record::ok("setup", c)))
}

fn fig7_run(
    arrangements: &[(Arrangement, f64, f64)],
    config: SimConfig,
    sizes: &Sizes,
    t: &mut Tracer,
) -> (Vec<Record>, Vec<String>) {
    let schedule = sizes.fig7_schedule;
    let mut records = Vec::new();
    let mut searches = Vec::new();
    for (a, _, _) in arrangements {
        let kind = a.kind().name();
        let g = a.graph();
        let router_cycles = (g.num_vertices() as u64
            * (schedule.warmup_cycles + schedule.measure_cycles))
            as f64;
        let result = measure::saturation_search_batched(schedule.rate_resolution, 1, |rates| {
            rates
                .iter()
                .map(|&rate| {
                    let mut probe = config;
                    probe.injection_rate = rate;
                    let label = format!("probe {kind} {rate:?}");
                    let point = t.op("probe", |t| {
                        let point = t.call("nocsim.measure.load_point", || {
                            measure::run_load_point(g, &probe, &schedule)
                        });
                        if let Ok(p) = &point {
                            t.note("saturated", f64::from(u8::from(p.saturated)));
                            t.note("router_cycles", router_cycles);
                        }
                        point
                    });
                    records.push(match &point {
                        Ok(p) => Record::ok(label, std::mem::take(Canon::new().load_point(p))),
                        Err(e) => Record::failed(label, e.to_string()),
                    });
                    point
                })
                .collect()
        });
        let label = format!("search {kind}");
        records.push(match &result {
            Ok(s) => Record::ok(label, std::mem::take(Canon::new().saturation(s))),
            Err(e) => Record::failed(label, e.to_string()),
        });
        searches.push(result.ok());
    }
    (records, fig7_model_check(arrangements, &searches))
}

/// The paper's headline ratios next to the simulated ones.
fn fig7_model_check(
    arrangements: &[(Arrangement, f64, f64)],
    searches: &[Option<nocsim::SaturationResult>],
) -> Vec<String> {
    let (Some(hm), Some(grid)) = (searches[0], searches[1]) else {
        return vec!["model check: skipped, a saturation search failed".to_owned()];
    };
    let n = arrangements[0].0.num_chiplets();
    let latency = arrangements[0].1 / arrangements[1].1;
    let tbps = |s: nocsim::SaturationResult, a: &(Arrangement, f64, f64)| s.throughput * a.2;
    let (hm_tbps, grid_tbps) = (tbps(hm, &arrangements[0]), tbps(grid, &arrangements[1]));
    vec![
        format!(
            "model check n={n}: zero-load latency HexaMesh/grid = {latency:.3} ({:+.1}%; paper -19%)",
            100.0 * (latency - 1.0)
        ),
        format!(
            "model check n={n}: saturation throughput HexaMesh {hm_tbps:.2} Tb/s / grid {grid_tbps:.2} Tb/s = {:.3} ({:+.1}%; paper +34%)",
            hm_tbps / grid_tbps,
            100.0 * (hm_tbps / grid_tbps - 1.0)
        ),
        "model check: the repository holds no BookSim reference data, so the simulator is otherwise \
         unvalidated and no error figure is given"
            .to_owned(),
    ]
}

// ── large_n ─────────────────────────────────────────────────────────────

fn large_n_setup(sizes: &Sizes, seed: u64, t: &mut Tracer) -> Result<(State, Record), String> {
    let mut config = sim_config(seed);
    config.injection_rate = sizes.large_rate;
    let a = t
        .call("hexamesh.arrangement", || {
            Arrangement::build(ArrangementKind::HexaMesh, sizes.large_n)
        })
        .map_err(err)?;
    let mut c = Canon::new();
    structure("hexamesh", a.graph(), &config, &mut c, t)?;
    let sim = t.call("nocsim.sim.new", || Simulator::new(a.graph(), config)).map_err(err)?;
    let routers = a.graph().num_vertices();
    Ok((State::LargeN { sim: Box::new(sim), routers }, Record::ok("setup", c)))
}

fn total_flit_hops(sim: &Simulator) -> u64 {
    sim.channel_loads().iter().map(|&(_, _, flits)| flits).sum()
}

fn large_n_run(
    mut sim: Box<Simulator>,
    routers: usize,
    sizes: &Sizes,
    t: &mut Tracer,
) -> (Vec<Record>, Vec<String>) {
    let mut records = Vec::new();
    // No window is open during warm-up, so its only output is the
    // flit-hop count.
    let mut hops = t.op("warmup", |t| {
        t.call("nocsim.sim.warmup", || {
            sim.run(sizes.large_warmup);
            total_flit_hops(&sim)
        })
    });
    let mut c = Canon::new();
    c.kv("flit_hops", hops);
    records.push(Record::ok("warmup", c));

    let router_cycles = (routers as u64 * sizes.large_window) as f64;
    let mut last = None;
    for w in 0..sizes.large_windows {
        let (stats, after) = t.op("window", |t| {
            let out = t.call("nocsim.sim.window", || {
                sim.open_measurement_window();
                sim.run(sizes.large_window);
                (sim.stats(), total_flit_hops(&sim))
            });
            t.note("flit_hops", (out.1 - hops) as f64);
            t.note("router_cycles", router_cycles);
            out
        });
        let mut c = Canon::new();
        c.network("stats", &stats).kv("flit_hops", after - hops);
        records.push(Record::ok(format!("window {w}"), c));
        hops = after;
        last = Some(stats);
    }
    let model = last.map(|s| {
        format!(
            "model check n={routers} rate {}: last window accepted/offered = {:.3} (below the knee: about 1)",
            sizes.large_rate,
            s.accepted_flits_per_cycle_per_endpoint / s.offered_flits_per_cycle_per_endpoint
        )
    });
    (records, model.into_iter().collect())
}

// ── collectives ─────────────────────────────────────────────────────────

fn collectives_setup(
    sizes: &Sizes,
    seed: u64,
    t: &mut Tracer,
) -> Result<(State, Record), String> {
    let config = sim_config(seed);
    let a = t
        .call("hexamesh.arrangement", || {
            Arrangement::build(ArrangementKind::HexaMesh, sizes.collectives_n)
        })
        .map_err(err)?;
    let mut c = Canon::new();
    structure("hexamesh", a.graph(), &config, &mut c, t)?;
    let endpoints = sizes.collectives_n * config.endpoints_per_router;
    let mut drivers = Vec::new();
    for kind in KERNELS {
        let workload = t.call("workload.kernels", || kind.build(endpoints));
        c.kv(&format!("{}.messages", kind.label()), workload.len());
        let driver = t
            .call("workload.driver.new", || WorkloadDriver::new(a.graph(), config, &workload))
            .map_err(err)?;
        drivers.push((kind, driver));
    }
    Ok((State::Collectives { drivers }, Record::ok("setup", c)))
}

fn collectives_run(
    drivers: Vec<(WorkloadKind, WorkloadDriver)>,
    t: &mut Tracer,
) -> (Vec<Record>, Vec<String>) {
    let mut records = Vec::new();
    let mut model = Vec::new();
    for (kind, mut driver) in drivers {
        let stats = t.op("kernel", |t| {
            let stats = t.call("workload.driver.run", || driver.run(MAX_KERNEL_CYCLES));
            t.note("messages", stats.delivered_messages as f64);
            t.note("makespan", stats.makespan as f64);
            t.note("critical_path", stats.critical_path_cycles as f64);
            stats
        });
        let label = format!("kernel {}", kind.label());
        records.push(if stats.completed {
            Record::ok(label, std::mem::take(Canon::new().workload(&stats)))
        } else {
            Record::failed(
                label,
                format!("stopped at {} delivered messages", stats.delivered_messages),
            )
        });
        model.push(format!(
            "model check {}: makespan / zero-load critical path = {:.3}",
            kind.label(),
            stats.makespan as f64 / stats.critical_path_cycles as f64
        ));
    }
    (records, model)
}

// ── anneal ──────────────────────────────────────────────────────────────

/// The seeded search configuration: seed 0 is the repository default.
fn search_config(sizes: &Sizes, seed: u64) -> SearchConfig {
    let mut config = sizes.anneal.clone();
    config.seed = config.seed.wrapping_add(seed);
    config
}

fn anneal_setup(sizes: &Sizes, seed: u64, t: &mut Tracer) -> Result<(State, Record), String> {
    let config = search_config(sizes, seed);
    let n = config.n;
    let mut c = Canon::new();
    let mut restarts = Vec::new();
    for restart in 0..config.restarts {
        let mut rng =
            StdRng::seed_from_u64(derive_seed(config.seed, &[n as u64, restart as u64]));
        let init = InitKind::for_restart(restart);
        let state = match init {
            InitKind::HexaMesh | InitKind::Brickwall => {
                let kind = if init == InitKind::HexaMesh {
                    ArrangementKind::HexaMesh
                } else {
                    ArrangementKind::Brickwall
                };
                let a = t
                    .call("hexamesh.arrangement", || Arrangement::build(kind, n))
                    .map_err(err)?;
                let placement =
                    a.placement().ok_or_else(|| format!("{kind} has no placement at n={n}"))?;
                SearchState::from_placement(placement)
            }
            InitKind::Grid => SearchState::aligned_grid(n),
            InitKind::Random => SearchState::random_compact(n, &mut rng),
        }
        .map_err(err)?;
        let dist = t.call("graph.bfs", || bfs::all_pairs_distances(&state.graph()));
        let total: u64 = dist.iter().map(|&d| u64::from(d)).sum();
        c.kv(&format!("restart{restart}.{}.total_hops", init.label()), total);
        restarts.push((restart, init, state, rng));
    }
    Ok((State::Anneal { restarts }, Record::ok("setup", c)))
}

fn anneal_run(
    restarts: Vec<(usize, InitKind, SearchState, StdRng)>,
    sizes: &Sizes,
    t: &mut Tracer,
) -> (Vec<Record>, Vec<String>) {
    let config = &sizes.anneal;
    let mut records = Vec::new();
    for (restart, init, state, mut rng) in restarts {
        let label = format!("restart {restart} {}", init.label());
        let outcome = t.op("restart", |t| {
            let start = state.graph();
            let start_cheap = t
                .call("arrange.objective.cheap_score", || cheap_score(&start, &config.weights));
            let outcome = t
                .call("arrange.anneal", || {
                    anneal(&state, &config.anneal, &config.weights, &mut rng)
                })
                .ok_or("anneal: disconnected start")?;
            t.note("proposed", outcome.stats.proposed as f64);
            t.note("invalid", outcome.stats.invalid as f64);
            t.note("accepted", outcome.stats.accepted as f64);
            // The candidate archive of `search()`: initial, best and final
            // states in canonical form, the best full score winning.
            let mut archive: Vec<SearchState> = Vec::with_capacity(3);
            for s in
                [state.canonical(), outcome.best.canonical(), outcome.final_state.canonical()]
            {
                if !archive.contains(&s) {
                    archive.push(s);
                }
            }
            let mut best: Option<(SearchState, ProxyScore)> = None;
            for s in archive {
                let score = t
                    .call("arrange.objective.full_score", || {
                        full_score(&s.graph(), &config.weights, &config.bisection)
                    })
                    .ok_or("full_score: disconnected candidate")?;
                if best.as_ref().is_none_or(|(_, b)| score.value < b.value) {
                    best = Some((s, score));
                }
            }
            let (best_state, score) = best.expect("the archive holds the initial state");
            Ok::<_, &str>((start_cheap, outcome.best_cheap, outcome.stats, best_state, score))
        });
        records.push(match outcome {
            Ok((start_cheap, best_cheap, stats, state, score)) => {
                let mut c = Canon::new();
                c.kv("start_cheap_score", start_cheap).kv("best_cheap_score", best_cheap);
                Record::ok(label, candidate_text(c, &stats, &state, &score))
            }
            Err(e) => Record::failed(label, e),
        });
    }
    (records, Vec::new())
}

/// Appends the fields `search()` reports for a restart's candidate.
fn candidate_text(
    mut c: Canon,
    stats: &AnnealStats,
    state: &SearchState,
    score: &ProxyScore,
) -> Canon {
    c.anneal_stats(stats).state("candidate", state).proxy(score);
    c
}

/// Runs `search()` itself and renders each restart's candidate, in
/// restart order, as the tail of the benchmark's restart record: the
/// anneal workload's pins must agree with what `search()` returns.
pub fn search_candidates(sizes: &Sizes, seed: u64) -> Result<Vec<String>, String> {
    let config = search_config(sizes, seed);
    let mut outcome = chiplet_arrange::search(&config).map_err(err)?;
    outcome.candidates.sort_by_key(|c| c.restart);
    Ok(outcome
        .candidates
        .iter()
        .map(|c| candidate_text(Canon::new(), &c.stats, &c.state, &c.score).into_text())
        .collect())
}
