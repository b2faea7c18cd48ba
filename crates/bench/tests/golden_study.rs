//! Golden byte-identity: the spec-driven study flow reproduces the
//! pre-redesign binaries' output exactly.
//!
//! The fixtures under `tests/golden/` were produced by the *hand-wired*
//! binaries (commit `c286593`, before the StudySpec rewrite) at fixed
//! `--seed 42 --workers 2 --quick` and small axes. Each test builds the
//! same campaign through the preset + flow path and compares:
//!
//! * **CSV**: byte-for-byte;
//! * **JSON**: the `campaign`, `args`, `columns`, and `rows` manifest
//!   fields, parsed (`git` / `created_unix_s` / `wall_s` are volatile by
//!   construction, and `config` intentionally changed from ad-hoc
//!   per-binary keys to the resolved spec echo — see DESIGN.md);
//! * **worker invariance**: reruns at other `--workers` values stay
//!   byte-identical.

use std::path::{Path, PathBuf};

use xp::cli::{CampaignArgs, OutputFormat};
use xp::flow::{run_study, StudyReport};
use xp::json::{self, Value};
use xp::spec::StudySpec;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn args(out: &Path, workers: usize) -> CampaignArgs {
    CampaignArgs {
        workers,
        seeds: 1,
        quick: true,
        full: false,
        out: out.to_path_buf(),
        format: OutputFormat::Both,
        campaign_seed: 42,
        progress: false,
    }
}

fn run(spec: &StudySpec, out: &Path, workers: usize) -> StudyReport {
    run_study(spec, args(out, workers), &chiplet_arrange::study::hooks())
        .unwrap_or_else(|e| panic!("study {} failed: {e}", spec.name))
}

/// Asserts the CSV at `<out>/<stem>.csv` equals the fixture byte for
/// byte, and the JSON manifest's stable fields match.
fn assert_matches_fixture(out: &Path, fixture_subdir: &str, stem: &str) {
    let fixture_csv = golden_dir().join(fixture_subdir).join(format!("{stem}.csv"));
    let produced_csv = out.join(format!("{stem}.csv"));
    let expected = std::fs::read_to_string(&fixture_csv)
        .unwrap_or_else(|e| panic!("fixture {}: {e}", fixture_csv.display()));
    let actual = std::fs::read_to_string(&produced_csv)
        .unwrap_or_else(|e| panic!("output {}: {e}", produced_csv.display()));
    assert_eq!(actual, expected, "{stem}.csv is not byte-identical to the pre-redesign output");

    let fixture_json =
        std::fs::read_to_string(golden_dir().join(fixture_subdir).join(format!("{stem}.json")))
            .expect("fixture json");
    let produced_json =
        std::fs::read_to_string(out.join(format!("{stem}.json"))).expect("output json");
    let fixture = json::parse(&fixture_json).expect("fixture parses");
    let produced = json::parse(&produced_json).expect("output parses");
    for key in ["campaign", "columns", "rows"] {
        assert_eq!(
            produced.get(key),
            fixture.get(key),
            "{stem}.json manifest field {key:?} drifted from the pre-redesign output"
        );
    }
    // `args` must match except `workers`, which the invariance tests
    // deliberately vary (rows may not depend on it, the manifest does).
    let sans_workers = |v: Option<&Value>| -> Vec<(String, Value)> {
        match v {
            Some(Value::Obj(entries)) => {
                entries.iter().filter(|(k, _)| k != "workers").cloned().collect()
            }
            other => panic!("args must be an object, got {other:?}"),
        }
    };
    assert_eq!(
        sans_workers(produced.get("args")),
        sans_workers(fixture.get("args")),
        "{stem}.json campaign args drifted from the pre-redesign output"
    );
}

fn temp_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("golden_study").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The preset + override combination each fixture was generated with
/// (see the flag lines in `tests/golden/`'s generation commands).
fn fixture_spec(name: &str) -> StudySpec {
    let mut spec = hexamesh_bench::presets::preset(name).expect("registered preset");
    match name {
        "fig7_simulation" => spec.axes.ns = Some(vec![2, 9]), // --step 7 --max-n 9
        "load_curves" => spec.axes.ns = Some(vec![16]),       // --n 16
        "ablation_traffic" => spec.axes.ns = Some(vec![9]),   // --n 9
        // Not a pre-redesign pin (the legacy binary swept routing x VC
        // count): this fixture freezes the router-model table the day the
        // axis landed, so later sessions cannot drift it silently.
        "ablation_router" => {
            spec.axes.ns = Some(vec![9]); // --n 9
            spec.axes.routers = Some(vec![
                nocsim::RouterModelKind::Baseline,
                nocsim::RouterModelKind::OldestFirst,
                nocsim::RouterModelKind::Fortified,
            ]);
        }
        "workload_comparison" => {
            spec.axes.ns = Some(vec![7, 13]);
            spec.axes.workloads = Some(vec![
                chiplet_workload::WorkloadKind::Stencil,
                chiplet_workload::WorkloadKind::ClientServer,
            ]);
        }
        // The kite fixture runs the reduced {16} sweep (full-NS
        // byte-identity was proven against the pre-redesign binary before
        // the fixture was shrunk for debug-profile test time).
        "kite_comparison" => spec.axes.ns = Some(vec![16]),
        "arrangement_search" => {
            spec.axes.ns = Some(vec![19]);
            spec.search.restarts = Some(3);
            spec.search.iterations = Some(120);
        }
        "thermal_comparison" => spec.axes.ns = Some(vec![16]), // --n 16
        "cost_model" => {}
        // The structural table (the byte-compared fixture) keeps its full
        // legacy axes; only the degradation sweep is shrunk for
        // debug-profile test time.
        "resilience" => {
            spec.faults.ns = Some(vec![7]);
            spec.faults.link_failures = Some(vec![0, 1]);
        }
        other => panic!("no fixture for {other}"),
    }
    if name == "ablation_traffic" {
        spec.axes.patterns =
            Some(vec![nocsim::TrafficPattern::UniformRandom, nocsim::TrafficPattern::Tornado]);
    }
    spec
}

#[test]
fn fig7_preset_reproduces_the_legacy_binary() {
    let out = temp_out("fig7");
    let spec = fixture_spec("fig7_simulation");
    run(&spec, &out, 2);
    assert_matches_fixture(&out, "fig7", "fig7_results");
    assert_matches_fixture(&out, "fig7", "fig7_normalized");
}

#[test]
fn load_curves_preset_reproduces_the_legacy_binary_at_any_worker_count() {
    let spec = fixture_spec("load_curves");
    // Fixture ran at --workers 2; byte-identity must hold at 1 and 8 too.
    for workers in [1usize, 8] {
        let out = temp_out(&format!("load_curves_w{workers}"));
        run(&spec, &out, workers);
        assert_matches_fixture(&out, "load_curves", "load_curves");
    }
}

#[test]
fn ablation_traffic_preset_reproduces_the_legacy_binary() {
    let out = temp_out("ablation_traffic");
    run(&fixture_spec("ablation_traffic"), &out, 2);
    assert_matches_fixture(&out, "ablation_traffic", "ablation_traffic");
}

#[test]
fn ablation_router_preset_matches_its_pinned_fixture_at_any_worker_count() {
    let spec = fixture_spec("ablation_router");
    for workers in [1usize, 4] {
        let out = temp_out(&format!("ablation_router_w{workers}"));
        run(&spec, &out, workers);
        assert_matches_fixture(&out, "ablation_router", "ablation_router");
    }
}

#[test]
fn workload_preset_reproduces_the_legacy_binary_at_any_worker_count() {
    let spec = fixture_spec("workload_comparison");
    for workers in [1usize, 4] {
        let out = temp_out(&format!("workload_w{workers}"));
        run(&spec, &out, workers);
        assert_matches_fixture(&out, "workload", "BENCH_workload");
    }
}

#[test]
fn kite_preset_reproduces_the_legacy_binary() {
    let out = temp_out("kite");
    run(&fixture_spec("kite_comparison"), &out, 2);
    assert_matches_fixture(&out, "kite", "kite_comparison");
}

#[test]
fn arrangement_search_preset_reproduces_the_legacy_binary() {
    let out = temp_out("arrange");
    run(&fixture_spec("arrangement_search"), &out, 2);
    assert_matches_fixture(&out, "arrange", "BENCH_arrange");
}

#[test]
fn thermal_and_cost_presets_reproduce_the_legacy_binaries() {
    // These two fixtures are the raw CSVs of the pre-rewrite binaries
    // (they wrote no JSON), so only the CSV side is compared.
    for (name, stem) in
        [("thermal_comparison", "thermal_comparison"), ("cost_model", "cost_model")]
    {
        let out = temp_out(name);
        run(&fixture_spec(name), &out, 2);
        let expected =
            std::fs::read_to_string(golden_dir().join(format!("{stem}.csv"))).expect("fixture");
        let actual =
            std::fs::read_to_string(out.join(format!("{stem}.csv"))).expect("output csv");
        assert_eq!(actual, expected, "{stem}.csv drifted from the pre-redesign output");
    }
}

#[test]
fn resilience_preset_reproduces_the_legacy_binary() {
    let out = temp_out("resilience");
    run(&fixture_spec("resilience"), &out, 2);
    assert_matches_fixture(&out, "resilience", "resilience");
    // The degradation companion exists and covers every point of the
    // shrunk sweep: 1 chiplet count x 4 kinds x 2 failure levels.
    let degradation =
        std::fs::read_to_string(out.join("BENCH_resilience.csv")).expect("degradation csv");
    assert_eq!(degradation.lines().count(), 1 + 8, "header + 8 degradation rows");
}

#[test]
fn checked_in_specs_parse_and_match_their_presets() {
    // Every CI diff pair stays honest only if the spec file encodes the
    // same study the test above runs; parse each and compare the fields
    // the fixtures pin.
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    for (file, preset) in [
        ("fig7_quick.toml", "fig7_simulation"),
        ("load_curves_quick.toml", "load_curves"),
        ("ablation_traffic_quick.toml", "ablation_traffic"),
        ("ablation_router_quick.toml", "ablation_router"),
        ("workload_quick.toml", "workload_comparison"),
        ("arrangement_search_quick.toml", "arrangement_search"),
        ("kite_quick.toml", "kite_comparison"),
        ("thermal_quick.toml", "thermal_comparison"),
        ("cost_model.toml", "cost_model"),
        ("resilience_quick.toml", "resilience"),
    ] {
        let source = std::fs::read_to_string(specs_dir.join(file)).expect("spec file");
        let from_file = StudySpec::from_toml(&source).unwrap_or_else(|e| panic!("{file}: {e}"));
        let expected = fixture_spec(preset);
        assert_eq!(from_file, expected, "{file} drifted from the {preset} fixture study");
    }
}

#[test]
fn every_checked_in_spec_parses_and_validates() {
    // Includes the annotated `study_example.toml` users copy, which no
    // other test reads: a removed key must not strand it.
    let specs_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(&specs_dir).expect("specs dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|ext| ext == "toml") {
            let source = std::fs::read_to_string(&path).expect("spec file");
            let spec = StudySpec::from_toml(&source)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            checked += 1;
        }
    }
    assert!(checked >= 13, "found only {checked} specs in {}", specs_dir.display());
}

#[test]
fn large_n_saturation_spec_parses_with_shards() {
    // The paper-scale spec is too big to *run* in a test; pin that it
    // parses, targets n >= 1000, and engages the sharded engine.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs/large_n_saturation.toml");
    let spec = StudySpec::from_toml(&std::fs::read_to_string(path).expect("spec file"))
        .expect("spec parses");
    assert_eq!(spec.stage, xp::spec::StageKind::Saturation);
    assert_eq!(spec.sim.shards, Some(8));
    assert_eq!(spec.axes.ns, Some(vec![1_027]));
}

#[test]
fn sharded_study_rows_are_byte_identical_to_serial() {
    // `sim.shards` must never change a row — only the wall clock. Run a
    // small saturation study serial and sharded and diff the CSV bytes.
    let base = "name = \"shard_diff\"\nstage = \"saturation\"\n[axes]\nns = [9]\n";
    let serial_spec = StudySpec::from_toml(base).expect("serial spec");
    let sharded_spec =
        StudySpec::from_toml(&format!("{base}[sim]\nshards = 4\n")).expect("sharded spec");
    let out_serial = temp_out("shard_diff_serial");
    let out_sharded = temp_out("shard_diff_sharded");
    run(&serial_spec, &out_serial, 2);
    run(&sharded_spec, &out_sharded, 2);
    let a = std::fs::read_to_string(out_serial.join("shard_diff.csv")).unwrap();
    let b = std::fs::read_to_string(out_sharded.join("shard_diff.csv")).unwrap();
    assert_eq!(a, b, "sharded rows drifted from serial");
}

#[test]
fn optimized_hotspot_load_curve_spec_runs_end_to_end() {
    // The acceptance spec: an axis combination no hand-wired binary
    // covers (search-optimized arrangement × hotspot traffic × load
    // curve), runnable purely as data.
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs/opt_hotspot_load_curve.toml");
    let spec = StudySpec::from_toml(&std::fs::read_to_string(path).expect("spec file"))
        .expect("spec parses");
    assert!(spec.axes.optimized);
    let out_a = temp_out("opt_hotspot_w1");
    let out_b = temp_out("opt_hotspot_w4");
    run(&spec, &out_a, 1);
    run(&spec, &out_b, 4);
    let a = std::fs::read_to_string(out_a.join("opt_hotspot_curves.csv")).unwrap();
    let b = std::fs::read_to_string(out_b.join("opt_hotspot_curves.csv")).unwrap();
    assert_eq!(a, b, "OPT rows must stay byte-identical across worker counts");
    // Both the fixed family and the searched arrangement appear.
    assert!(a.lines().any(|l| l.contains(",HM,")), "HexaMesh rows present");
    assert!(a.lines().any(|l| l.contains(",OPT,")), "searched-arrangement rows present");
}

/// Runs `spec` at `--seeds seeds` (CSV only) and compares each of `files`
/// byte for byte with its fixture under `tests/golden/cells/<case>/`.
/// These fixtures pin what the legacy ones cannot: replicate averaging
/// and the seeds of searched (OPT) rows.
fn assert_cells(case: &str, spec: &StudySpec, seeds: u64, files: &[&str]) {
    let out = temp_out(&format!("cells_{case}"));
    let mut campaign = args(&out, 2);
    campaign.seeds = seeds;
    campaign.format = OutputFormat::Csv;
    run_study(spec, campaign, &chiplet_arrange::study::hooks())
        .unwrap_or_else(|e| panic!("study {case} failed: {e}"));
    for file in files {
        let fixture = golden_dir().join("cells").join(case).join(file);
        let expected = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("fixture {}: {e}", fixture.display()));
        let actual = std::fs::read_to_string(out.join(file)).expect("output file");
        assert_eq!(actual, expected, "cells/{case}/{file} drifted");
    }
}

fn spec_file(file: &str) -> StudySpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs").join(file);
    StudySpec::from_toml(&std::fs::read_to_string(path).expect("spec file")).expect("parses")
}

#[test]
fn replicate_cells_match_their_fixtures() {
    assert_cells(
        "workload_quick",
        &spec_file("workload_quick.toml"),
        2,
        &["BENCH_workload.csv"],
    );
    assert_cells(
        "thermal_quick",
        &spec_file("thermal_quick.toml"),
        2,
        &["thermal_comparison.csv"],
    );
}

#[test]
fn optimized_cells_match_their_fixtures() {
    assert_cells(
        "opt_hotspot_load_curve",
        &spec_file("opt_hotspot_load_curve.toml"),
        2,
        &["opt_hotspot_curves.csv"],
    );
    let mut spec = hexamesh_bench::presets::preset("workload_comparison").expect("preset");
    spec.axes.kinds = Some(vec![
        hexamesh::arrangement::ArrangementKind::HexaMesh,
        hexamesh::arrangement::ArrangementKind::Grid,
    ]);
    spec.axes.ns = Some(vec![7]);
    spec.axes.workloads = Some(vec![
        chiplet_workload::WorkloadKind::Stencil,
        chiplet_workload::WorkloadKind::RingAllReduce,
    ]);
    spec.axes.optimized = true;
    spec.search.restarts = Some(2);
    spec.search.iterations = Some(60);
    assert_cells("workload_opt", &spec, 2, &["BENCH_workload.csv"]);
}

#[test]
fn netview_cells_match_their_fixtures() {
    let spec = hexamesh_bench::presets::preset("netview").expect("preset");
    assert_cells(
        "netview",
        &spec,
        1,
        &[
            "netview.csv",
            "timeline.csv",
            "heatmap_hexamesh_n19_r300_uniform.svg",
            "heatmap_grid_n19_r300_uniform.svg",
        ],
    );
}

/// The Fig. 6 proxy sweep behind the abstract's -42% diameter and +130%
/// bisection claims (HM/G = 0.61 and 2.10 at N = 100).
#[test]
fn proxies_cells_match_their_fixture() {
    let spec = hexamesh_bench::presets::preset("proxies").expect("preset");
    assert_cells("proxies", &spec, 1, &["proxies.csv"]);
}
