//! ⚙ `study` — the one data-driven experiment runner.
//!
//! Every campaign in this repository is a [`StudySpec`] value: a stage
//! (`proxies | saturation | traffic | load_curve | workload | search |
//! kite | thermal | cost | resilience | router`), sweep axes, parameter
//! overrides, and output
//! configuration. This binary loads a spec and executes it through
//! `xp::flow::run_study` — so a new study is a file, not a new binary.
//!
//! Usage:
//! ```text
//! study --spec FILE.toml|FILE.json     # run a spec file
//! study --preset NAME                  # run a registered preset
//! study --list                         # list presets and stages
//! study serve [--cache-dir DIR] [--socket PATH] [--stats-out FILE]
//!                                      # resident service: JSONL spec
//!                                      # requests on stdin (or the Unix
//!                                      # socket), served from a
//!                                      # content-addressed result cache
//! ```
//! plus the shared campaign flags (`--workers`, `--seeds`, `--quick`,
//! `--full`, `--out`, `--format`, `--seed`) and generic axis overrides
//! that win over the spec: `--kinds`, `--ns`, `--n` (single-count
//! shorthand, exclusive with `--ns`), `--rates`, `--patterns`,
//! `--workloads`, `--routers` (router-model sweep), `--router` (fixed
//! named model via `sim.router`), `--restarts`, `--iterations`,
//! `--no-validate`, `--optimized`.
//!
//! A spec's `seed` / `replicates` / `output` keys act as defaults for
//! the matching flags, so checked-in specs pin their reproduction
//! exactly; explicit flags always win. The overridden spec is validated
//! before any job runs, exactly like a `--spec` file: an invalid value
//! exits 2 and writes nothing. Presets reproduce the pre-redesign
//! binaries byte for byte — pinned by the golden tests and by
//! `scripts/ci_study_diff.sh`, which runs every checked-in spec through
//! this binary and compares it with the golden fixtures.

use chiplet_workload::WorkloadKind;
use hexamesh::arrangement::ArrangementKind;
use hexamesh_bench::presets;
use nocsim::{RouterModelKind, TrafficPattern};
use xp::cli::{self, arg_flag, try_arg_list, try_arg_value};
use xp::spec::{StageKind, StudySpec};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn strict<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| fail(&e))
}

fn load_spec(args: &[String]) -> StudySpec {
    let spec_path = strict(try_arg_value(args, "--spec"));
    let preset_name = strict(try_arg_value(args, "--preset"));
    match (spec_path, preset_name) {
        (Some(path), None) => {
            let source = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let parsed = if path.ends_with(".json") {
                StudySpec::from_json(&source)
            } else {
                StudySpec::from_toml(&source)
            };
            parsed.unwrap_or_else(|e| fail(&format!("{path}: {e}")))
        }
        (None, Some(name)) => presets::preset(name).unwrap_or_else(|| {
            fail(&format!(
                "unknown preset {name:?} (available: {})",
                presets::PRESET_NAMES.join(", ")
            ))
        }),
        (Some(_), Some(_)) => fail("--spec and --preset are mutually exclusive"),
        (None, None) => fail("pass --spec FILE, --preset NAME, or --list"),
    }
}

fn apply_overrides(spec: &mut StudySpec, args: &[String]) {
    if let Some(kinds) = strict(try_arg_list::<ArrangementKind>(args, "--kinds")) {
        spec.axes.kinds = Some(kinds);
    }
    if arg_flag(args, "--n") && arg_flag(args, "--ns") {
        fail("--n and --ns are mutually exclusive");
    }
    if let Some(ns) = strict(try_arg_list::<usize>(args, "--ns")) {
        spec.axes.ns = Some(ns);
    }
    if let Some(n) = strict(try_arg_value(args, "--n")) {
        let n: usize =
            n.parse().unwrap_or_else(|_| fail(&format!("--n expects a count, got {n:?}")));
        spec.axes.ns = Some(vec![n]);
    }
    if let Some(rates) = strict(try_arg_list::<f64>(args, "--rates")) {
        spec.axes.rates = Some(rates);
    }
    if let Some(patterns) = strict(try_arg_list::<TrafficPattern>(args, "--patterns")) {
        spec.axes.patterns = Some(patterns);
    }
    if let Some(workloads) = strict(try_arg_list::<WorkloadKind>(args, "--workloads")) {
        spec.axes.workloads = Some(workloads);
    }
    if let Some(routers) = strict(try_arg_list::<RouterModelKind>(args, "--routers")) {
        spec.axes.routers = Some(routers);
    }
    if let Some(router) = strict(try_arg_value(args, "--router")) {
        spec.sim.router =
            Some(router.parse().unwrap_or_else(|e: String| fail(&format!("--router: {e}"))));
    }
    if let Some(restarts) = strict(try_arg_value(args, "--restarts")) {
        spec.search.restarts =
            Some(restarts.parse().unwrap_or_else(|_| fail("--restarts expects a count")));
    }
    if let Some(iterations) = strict(try_arg_value(args, "--iterations")) {
        spec.search.iterations =
            Some(iterations.parse().unwrap_or_else(|_| fail("--iterations expects a count")));
    }
    if arg_flag(args, "--no-validate") {
        spec.search.validate = false;
    }
    if arg_flag(args, "--optimized") {
        spec.axes.optimized = true;
    }
}

/// `study serve`: a resident server answering JSONL spec requests from
/// the content-addressed result cache (see `xp::serve`). Without
/// `--socket`, requests stream over stdin and events over stdout; the
/// shared campaign flags set the backend worker count, schedule tier,
/// and seed/replicate defaults.
fn run_serve(args: &[String]) {
    cli::reject_unknown_flags(
        args,
        &cli::with_shared(&["--cache-dir", "--socket", "--stats-out"]),
    );
    let shared = strict(xp::cli::CampaignArgs::try_parse(args));
    let cache_dir =
        strict(try_arg_value(args, "--cache-dir")).unwrap_or("serve_cache").to_owned();
    let socket = strict(try_arg_value(args, "--socket")).map(str::to_owned);
    let stats_out = strict(try_arg_value(args, "--stats-out")).map(str::to_owned);
    let hooks = chiplet_arrange::study::hooks();
    let config = xp::serve::ServeConfig::new(shared);
    eprintln!(
        "study serve: cache {cache_dir}, version {}, {} workers",
        config.version, config.args.workers
    );
    let server = xp::Server::new(&cache_dir, config, hooks);
    if let Some(path) = socket {
        eprintln!("study serve: listening on {path}");
        if let Err(e) = xp::serve::serve_unix(&server, std::path::Path::new(&path)) {
            fail(&format!("serve: {e}"));
        }
        return;
    }
    let stats = xp::serve::serve_lines(&server, std::io::stdin().lock(), std::io::stdout())
        .unwrap_or_else(|e| fail(&format!("serve: {e}")));
    if let Some(path) = stats_out {
        std::fs::write(&path, stats.to_value().to_json())
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        eprintln!("study serve: stats written to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("serve") {
        run_serve(&args);
        return;
    }
    cli::reject_unknown_flags(
        &args,
        &cli::with_shared(&[
            "--spec",
            "--preset",
            "--list",
            "--kinds",
            "--ns",
            "--n",
            "--rates",
            "--patterns",
            "--workloads",
            "--routers",
            "--router",
            "--restarts",
            "--iterations",
            "--no-validate",
            "--optimized",
        ]),
    );
    if arg_flag(&args, "--list") {
        println!("presets:");
        for name in presets::PRESET_NAMES {
            let spec = presets::preset(name).expect("listed preset");
            println!("  {name:<22} stage {}", spec.stage);
        }
        println!("stages:");
        for stage in StageKind::ALL {
            println!("  {stage}");
        }
        return;
    }

    let mut spec = load_spec(&args);
    apply_overrides(&mut spec, &args);
    strict(spec.validate());
    let shared = strict(xp::flow::campaign_args_for(&spec, &args));

    eprintln!("study: {} (stage {})", spec.name, spec.stage);
    match xp::flow::run_study(&spec, shared, &chiplet_arrange::study::hooks()) {
        Ok(report) => {
            for line in &report.summary {
                println!("{line}");
            }
            for path in report.written {
                println!("wrote {}", path.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
