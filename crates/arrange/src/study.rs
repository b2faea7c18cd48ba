//! The study-flow integration: the search *stage* and the `optimized`
//! axis provider.
//!
//! `xp::flow` executes every stage it can reach from below the optimizer
//! in the dependency DAG; the arrangement search runs *on* the `xp` pool,
//! so its stage implementation lives here and plugs into the flow through
//! [`xp::flow::StageHooks`] ([`hooks`]). The stage reproduces the
//! `arrangement_search` campaign byte for byte: the optimized arrangement
//! and the four fixed families ranked by the staged proxy objective, with
//! cycle-accurate validation of the contenders.

use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::MeasureConfig;
use xp::cli::CampaignArgs;
use xp::flow::{StageHooks, StageOutput, StageTable, StudyError};
use xp::seed::derive_seed;
use xp::spec::StudySpec;
use xp::table::{f3, Table};
use xp::Campaign;

use crate::{
    full_score, search, validate_graph, ProxyScore, SearchConfig, SearchState, ValidateConfig,
    ValidationReport,
};

/// The standard hook set: the search stage plus the `optimized` axis.
/// Pass to [`xp::flow::run_study`]; the `study` binary does.
#[must_use]
pub fn hooks() -> StageHooks<'static> {
    StageHooks { search: Some(&run_search_stage), optimized_graph: Some(&optimized_graph) }
}

/// The search configuration shared by every `n` of a study: quick or
/// full base schedule, the campaign's seed and workers, and the spec's
/// restart/iteration overrides.
fn search_config(n: usize, spec: &StudySpec, args: &CampaignArgs) -> SearchConfig {
    let mut config = if args.quick { SearchConfig::quick(n) } else { SearchConfig::new(n) };
    config.seed = args.campaign_seed;
    config.workers = args.workers;
    if let Some(restarts) = spec.search.restarts {
        config.restarts = restarts;
    }
    if let Some(iterations) = spec.search.iterations {
        config.anneal.iterations = iterations;
    }
    config
}

/// The `optimized` axis: the ICI graph of the best searched arrangement
/// at `n`. Deterministic in `(spec, campaign seed)` and independent of
/// the worker count (the search's standard guarantee), so rows built on
/// it keep the engine's byte-identical-for-any-`--workers` contract.
///
/// # Errors
///
/// Wraps search failures as [`StudyError::Stage`].
pub fn optimized_graph(
    n: usize,
    spec: &StudySpec,
    args: &CampaignArgs,
) -> Result<chiplet_graph::Graph, StudyError> {
    let config = search_config(n, spec, args);
    let outcome =
        search(&config).map_err(|e| StudyError::Stage(format!("search n={n}: {e}")))?;
    Ok(outcome.best().state.graph())
}

/// One ranked row: the optimized arrangement or a fixed family.
struct Row {
    /// CSV label: "OPT" or the fixed family's label.
    label: &'static str,
    /// Where the row came from: winning init kind for OPT, regularity for
    /// fixed families.
    source: String,
    score: ProxyScore,
    /// The row's ICI graph, kept for validation.
    graph: chiplet_graph::Graph,
    validation: Option<ValidationReport>,
}

/// Scores one fixed arrangement family at `n`.
///
/// HexaMesh and brickwall placements are scored through the same
/// canonicalised [`SearchState`] path the optimizer's seeded restarts use,
/// so "optimized ≤ best fixed" holds exactly (the bisection heuristic sees
/// the same vertex labelling). The honeycomb has no rectangle placement
/// and the paper's grid uses unit tiles; both are scored on their graphs
/// directly.
fn fixed_row(kind: ArrangementKind, n: usize, config: &SearchConfig) -> Row {
    let arrangement = Arrangement::build(kind, n).expect("any n >= 1 builds");
    let graph = match kind {
        ArrangementKind::HexaMesh | ArrangementKind::Brickwall => {
            let placement = arrangement.placement().expect("rectangular family");
            SearchState::from_placement(placement)
                .expect("fixed placements are valid states")
                .canonical()
                .graph()
        }
        _ => arrangement.graph().clone(),
    };
    let score = full_score(&graph, &config.weights, &config.bisection)
        .expect("fixed arrangements are connected");
    Row {
        label: kind.label(),
        source: arrangement.regularity().to_string(),
        score,
        graph,
        validation: None,
    }
}

/// The search stage: discovers custom arrangements and ranks them against
/// the fixed families by the staged proxy objective, validating the
/// contenders with cycle-accurate saturation + workload makespan.
///
/// `spec` must be resolved ([`xp::flow::resolved`]; [`xp::flow::run_stage`]
/// does it). Each `n` is one campaign job, and the campaign pool runs
/// one at a time: every search runs its own restart pool on `--workers`.
///
/// # Errors
///
/// Wraps search and validation failures; returns [`StudyError::Stage`]
/// if the optimized arrangement scores worse than a fixed family
/// (impossible unless the search is broken, because restarts are seeded
/// from the fixed placements).
pub fn run_search_stage(
    spec: &StudySpec,
    campaign: &Campaign,
) -> Result<StageOutput, StudyError> {
    let args = campaign.args();
    let ns = spec.axes.ns.as_deref().expect("a resolved search spec names its ns");
    let measure = xp::flow::measure_for(spec);
    let ranked = campaign.run_jobs(
        ns,
        args.workers,
        |&n| n as u64,
        |n| format!("search n={n}"),
        |&n| rows_at(n, spec, args, measure),
    );

    let mut table = Table::new(&[
        "n",
        "kind",
        "source",
        "avg_distance",
        "diameter",
        "bisection_cut",
        "proxy_value",
        "rank",
        "sat_rate",
        "sat_throughput",
        "makespan_cycles",
        "critical_path_cycles",
    ]);
    let mut summary =
        vec!["arrangement search vs. fixed families (proxy objective, lower is better)"
            .to_owned()];

    let mut opt_beats_best_fixed_everywhere = true;
    for (&n, rows) in ns.iter().zip(ranked) {
        let rows = rows?;
        let values: Vec<f64> = rows.iter().map(|r| r.score.value).collect();
        let rank = xp::flow::sweep::competition_rank(&values);
        let opt_value = values[0];
        let best_fixed_value = values[1..].iter().copied().fold(f64::INFINITY, f64::min);
        if opt_value > best_fixed_value {
            opt_beats_best_fixed_everywhere = false;
        }

        for (i, row) in rows.iter().enumerate() {
            let (sat_rate, sat_tp, makespan, critical) = match &row.validation {
                Some(v) => (
                    f3(v.saturation.rate),
                    f3(v.saturation.throughput),
                    v.workload.makespan.to_string(),
                    v.workload.critical_path_cycles.to_string(),
                ),
                None => (String::new(), String::new(), String::new(), String::new()),
            };
            table.row(&[
                &n,
                &row.label,
                &row.source,
                &f3(row.score.avg_distance),
                &row.score.diameter,
                &row.score.bisection_cut,
                &f3(row.score.value),
                &rank[i],
                &sat_rate,
                &sat_tp,
                &makespan,
                &critical,
            ]);
        }
        summary.push(format!(
            "n={n}: optimized ({}) value {} vs best fixed {} — {}",
            rows[0].source,
            f3(opt_value),
            f3(best_fixed_value),
            if opt_value < best_fixed_value { "improved" } else { "matched" }
        ));
    }
    if !opt_beats_best_fixed_everywhere {
        return Err(StudyError::Stage(
            "optimized arrangement scored worse than a fixed family (fixed-seeded restarts \
             make this impossible unless the search is broken)"
                .to_owned(),
        ));
    }
    Ok(StageOutput { tables: vec![StageTable::main(table)], summary })
}

/// The rows of one `n`: the optimized arrangement first, then the fixed
/// families, with the contenders validated when the spec asks for it.
fn rows_at(
    n: usize,
    spec: &StudySpec,
    args: &CampaignArgs,
    measure: MeasureConfig,
) -> Result<Vec<Row>, StudyError> {
    let config = search_config(n, spec, args);
    let outcome =
        search(&config).map_err(|e| StudyError::Stage(format!("search n={n}: {e}")))?;
    let best = outcome.best();

    let mut rows = vec![Row {
        label: "OPT",
        source: format!("{}:r{}", best.init.label(), best.restart),
        score: best.score,
        graph: best.state.graph(),
        validation: None,
    }];
    for kind in ArrangementKind::ALL {
        rows.push(fixed_row(kind, n, &config));
    }
    if !spec.search.validate {
        return Ok(rows);
    }

    // Stage 3: validate the optimized arrangement and the best fixed
    // family with cycle-accurate saturation + workload makespan. Both
    // rows run under the *same* derived simulator seed (from `n` alone),
    // so their comparison measures the arrangements, not
    // traffic-realisation noise.
    let mut best_fixed = 1;
    for i in 2..rows.len() {
        if rows[i].score.value < rows[best_fixed].score.value {
            best_fixed = i;
        }
    }
    let mut vconfig = ValidateConfig { measure, ..ValidateConfig::default() };
    vconfig.sim.seed = derive_seed(args.campaign_seed, &[n as u64]);
    let opt_report = validate_graph(&rows[0].graph, &vconfig)
        .map_err(|e| StudyError::Stage(format!("validate n={n} OPT: {e}")))?;
    // When the search converges to the best fixed family the two graphs
    // are identical, and so (same seed) is the report — skip the second
    // cycle-accurate run, the campaign's slowest.
    rows[best_fixed].validation = if rows[best_fixed].graph == rows[0].graph {
        Some(opt_report.clone())
    } else {
        Some(validate_graph(&rows[best_fixed].graph, &vconfig).map_err(|e| {
            StudyError::Stage(format!("validate n={n} {}: {e}", rows[best_fixed].label))
        })?)
    };
    rows[0].validation = Some(opt_report);
    Ok(rows)
}
