//! End-to-end and per-layer benchmark of the HexaMesh reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig7_search|large_n|collectives|anneal> --seed <n> \
//!     --seconds <s> --trace <0|1> [--toy] [--pinned <dir>] \
//!     [--record] [--dump <file>] [--trace-out <file>]
//! ```
//!
//! One process, one thread. A run repeats *passes* of the workload while
//! another pass fits in `--seconds`: each pass sets the workload up from
//! scratch a fixed number of times, timing and checking every set-up, then
//! does the fixed simulated work of the last one. Pass 0 is an untimed
//! warm-up; at least three passes are timed (four with tracing). The seed
//! selects one of [`INPUT_SETS`] input sets, every one of them pinned at
//! full size. Every operation's outputs are compared bit for bit with the
//! first pass's and with the input set's pinned digests. With `--trace 1`
//! even passes from pass 2 on record spans around every public call, and
//! odd passes stay untraced so the tracing overhead can be reported.
//! The last line of standard output is a JSON summary; the lines before
//! it are a readable report. See `README.md` for the layer map.

mod heap;
mod pins;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use pins::{Pins, Record};
use trace::{Span, Tracer};
use workloads::{Kind, Sizes, State};

const USAGE: &str = "usage: perfbench --workload <fig7_search|large_n|collectives|anneal> \
[--seed N] [--seconds S] [--trace 0|1] [--toy] [--pinned DIR] [--record] [--dump FILE] [--trace-out FILE]";

/// Input sets of a workload: `--seed n` selects set `n % INPUT_SETS`. The
/// full-size pins cover every set, so every seed's outputs are checked.
const INPUT_SETS: u64 = 21;

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    toy: bool,
    pinned: PathBuf,
    record: bool,
    dump: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Kind::Fig7Search,
        seed: 0,
        seconds: 10,
        trace: false,
        toy: false,
        pinned: Path::new(env!("CARGO_MANIFEST_DIR")).join("pinned"),
        record: false,
        dump: None,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--toy" => args.toy = true,
            "--pinned" => args.pinned = PathBuf::from(value()?),
            "--record" => args.record = true,
            "--dump" => args.dump = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.record { record(&args) } else { bench(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Size tier of a run: the benchmark's, or the self-test's toy sizes.
fn mode(args: &Args) -> (&'static str, Sizes) {
    if args.toy {
        ("toy", Sizes::toy())
    } else {
        ("full", Sizes::full())
    }
}

fn pins_path(args: &Args, mode: &str) -> PathBuf {
    args.pinned.join(mode).join(format!("{}.txt", args.workload.name()))
}

/// One pass: its set-up times, run time, peak heap, and every record.
struct Pass {
    traced: bool,
    /// Seconds of each set-up, in order.
    setups: Vec<f64>,
    run_s: f64,
    peak_bytes: usize,
    /// The last set-up's record, then one record per operation of the run.
    records: Vec<Record>,
    /// The records of the pass's other set-ups.
    repeats: Vec<Record>,
    model: Vec<String>,
}

fn setup_record(built: Result<(State, Record), String>) -> Record {
    match built {
        Ok((_, record)) => record,
        Err(e) => Record::failed("setup", e),
    }
}

fn run_pass(
    kind: Kind,
    sizes: &Sizes,
    input: u64,
    t: &mut Tracer,
    index: usize,
    traced: bool,
) -> Pass {
    t.begin_pass(index, traced);
    // Records of earlier passes stay allocated: count only this pass's.
    let baseline = heap::reset_peak();
    let (mut setups, mut repeats) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..sizes.setups(kind) {
        // One set-up's state is alive at a time, dropped outside the timing.
        if let Some(earlier) = built.take() {
            repeats.push(setup_record(earlier));
        }
        t.begin_sample();
        let start = Instant::now();
        built = Some(workloads::setup(kind, sizes, input, t));
        setups.push(start.elapsed().as_secs_f64());
    }
    t.begin_sample();
    let (records, run_s, model) = match built.expect("a pass sets up at least once") {
        Err(e) => (vec![Record::failed("setup", e)], 0.0, Vec::new()),
        Ok((state, setup)) => {
            let start = Instant::now();
            let (ops, model) = workloads::run(state, sizes, t);
            let run_s = start.elapsed().as_secs_f64();
            (std::iter::once(setup).chain(ops).collect(), run_s, model)
        }
    };
    let peak_bytes = heap::peak() - baseline;
    Pass { traced, setups, run_s, peak_bytes, records, repeats, model }
}

/// Runs two untraced passes, checks they and all their set-ups agree (and,
/// for `anneal`, that they agree with `search()`), and pins the outputs of
/// the seed's input set.
fn record(args: &Args) -> Result<(), String> {
    let (mode, sizes) = mode(args);
    let path = pins_path(args, mode);
    let mut pins = Pins::load(&path)?;
    let input = args.seed % INPUT_SETS;
    let mut t = Tracer::new(Instant::now());
    let first = run_pass(args.workload, &sizes, input, &mut t, 0, false);
    let second = run_pass(args.workload, &sizes, input, &mut t, 1, false);
    if let Some(r) = first.records.iter().find(|r| r.failed) {
        return Err(format!("{} failed: {}", r.label, r.text));
    }
    let repeats = first.repeats.iter().chain(&second.repeats);
    if first.records != second.records || repeats.clone().any(|r| *r != first.records[0]) {
        return Err("two passes or set-ups of the same input set disagree".to_owned());
    }
    if args.workload == Kind::Anneal {
        let candidates = workloads::search_candidates(&sizes, input)?;
        let restarts = &first.records[1..];
        if candidates.len() != restarts.len()
            || restarts.iter().zip(&candidates).any(|(r, c)| !r.text.ends_with(c.as_str()))
        {
            return Err("restarts disagree with the candidates search() returns".to_owned());
        }
    }
    pins.record(&path, input, &first.records)?;
    println!(
        "pinned {} records of {} input set {input} in {}",
        first.records.len(),
        args.workload.name(),
        path.display()
    );
    if let Some(dump) = &args.dump {
        std::fs::write(dump, pins::dump(&first.records))
            .map_err(|e| format!("{}: {e}", dump.display()))?;
    }
    Ok(())
}

/// One metric of the report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let (mode, sizes) = mode(args);
    let pins = Pins::load(&pins_path(args, mode))?;
    let kind = args.workload;
    let input = args.seed % INPUT_SETS;
    println!(
        "perfbench workload={} seed={} input_set={input} seconds={} trace={} sizes={mode}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (compute, memory) = reference_loops_s();
    println!(
        "host: host_cpus={} git={} reference_compute_s={compute:.6} reference_memory_s={memory:.6}",
        std::thread::available_parallelism().map_or(0, usize::from),
        git_describe(),
    );

    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    // Pass 0 warms caches and the allocator up: it is checked, not timed.
    let min_passes = if args.trace { 5 } else { 4 };
    let mut tracer = Tracer::new(epoch);
    let mut passes: Vec<Pass> = Vec::new();
    // Another pass starts only if one as long as the last still fits.
    let mut last = Duration::ZERO;
    while passes.len() < min_passes || epoch.elapsed() + last <= budget {
        let index = passes.len();
        let start = Instant::now();
        passes.push(run_pass(
            kind,
            &sizes,
            input,
            &mut tracer,
            index,
            args.trace && index.is_multiple_of(2) && index > 0,
        ));
        last = start.elapsed();
    }

    let pinned = pins.get(input);
    let (attempted, failed) = check(&passes, pinned, input);
    for line in &passes[0].model {
        println!("{line}");
    }
    let mut outputs = String::new();
    for r in &passes[0].records {
        let _ = write!(outputs, "{}\n{}", r.label, r.text);
    }
    println!("outputs sha256: {}", xp::hash::sha256_hex(outputs.as_bytes()));

    let untraced: Vec<&Pass> = passes[1..].iter().filter(|p| !p.traced).collect();
    let setup = setup_times(&untraced);
    let run: Vec<f64> = untraced.iter().map(|p| p.run_s).collect();
    let end_to_end = vec![
        Metric { name: "setup_s", unit: "s", value: median(&setup), samples: setup.len() },
        Metric { name: "run_s", unit: "s", value: median(&run), samples: run.len() },
        Metric {
            name: "peak_heap_mb",
            unit: "MB",
            value: untraced.iter().map(|p| p.peak_bytes).max().unwrap_or(0) as f64 / 1e6,
            samples: untraced.len(),
        },
    ];
    print_metrics("end-to-end (untraced passes)", &end_to_end, &setup, &run);

    let metrics = if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let cost = |ps: &[&Pass]| {
            median(&setup_times(ps)) + median(&ps.iter().map(|p| p.run_s).collect::<Vec<_>>())
        };
        let overhead = cost(&traced) - cost(&untraced);
        let mut layers = layer_metrics(tracer.spans());
        layers.push(Metric {
            name: "trace.overhead_s",
            unit: "s",
            value: overhead,
            samples: traced.len(),
        });
        print_metrics("per-layer (traced passes)", &layers, &[], &[]);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                "trace-{mode}-{}-seed{}.json",
                kind.name(),
                args.seed
            ))
        });
        write_trace(&path, tracer.spans(), kind)?;
        layers
    } else {
        end_to_end
    };

    // Outputs no pin covers are unchecked, and unchecked is not correct.
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0 && pinned.is_some()
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Every set-up time of `passes`.
fn setup_times(passes: &[&Pass]) -> Vec<f64> {
    passes.iter().flat_map(|p| p.setups.iter().copied()).collect()
}

/// Counts operations and failures: a record fails when its operation
/// failed, when it differs from the first pass's, or when it differs from
/// its pin; a repeated set-up fails when it differs from the first pass's
/// set-up. Pinned records a pass did not produce count as failed too.
fn check(passes: &[Pass], pinned: Option<&[(String, String)]>, input: u64) -> (usize, usize) {
    let reference = &passes[0].records;
    let (mut attempted, mut failed) = (0, 0);
    let mut reports = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        for (i, r) in pass.records.iter().enumerate() {
            attempted += 1;
            let why = if r.failed {
                Some(format!("failed: {}", r.text.trim()))
            } else if reference.get(i).is_none_or(|x| x.label != r.label || x.text != r.text) {
                Some("differs from pass 0".to_owned())
            } else {
                match pinned.map(|pins| pins.get(i)) {
                    Some(Some((label, digest)))
                        if *label == r.label && *digest == r.digest() =>
                    {
                        None
                    }
                    Some(_) => Some(format!("differs from its pin (digest {})", r.digest())),
                    None => None,
                }
            };
            if let Some(why) = why {
                failed += 1;
                reports.push(format!("mismatch: pass {p} record {i} `{}` {why}", r.label));
            }
        }
        for (i, r) in pass.repeats.iter().enumerate() {
            attempted += 1;
            if r.failed || reference.first() != Some(r) {
                failed += 1;
                reports.push(format!(
                    "mismatch: pass {p} set-up {i} `{}` differs from pass 0's set-up",
                    r.label
                ));
            }
        }
        if let Some(pins) = pinned {
            let missing = pins.len().saturating_sub(pass.records.len());
            attempted += missing;
            failed += missing;
            if missing > 0 {
                reports.push(format!(
                    "mismatch: pass {p} produced {} of {} pinned records",
                    pass.records.len(),
                    pins.len()
                ));
            }
        }
    }
    for line in reports.iter().take(20) {
        println!("{line}");
    }
    if reports.len() > 20 {
        println!("mismatch: … and {} more", reports.len() - 20);
    }
    let traced = passes.iter().filter(|p| p.traced).count();
    let setups: usize = passes.iter().map(|p| p.setups.len()).sum();
    println!(
        "operations: attempted={attempted} failed={failed} over {} passes ({setups} set-ups, {traced} traced passes; every pass is checked against pass 0)",
        passes.len()
    );
    match pinned {
        Some(pins) => println!("pinned outputs: checked, {} pinned records of input set {input}", pins.len()),
        None => println!("pinned outputs: unchecked, input set {input} has no pins (passes were only checked against each other, so the run is not reported correct)"),
    }
    (attempted, failed)
}

fn print_metrics(title: &str, metrics: &[Metric], setup: &[f64], run: &[f64]) {
    println!("{title}:");
    for m in metrics {
        let spread = match m.name {
            "setup_s" => Some(setup),
            "run_s" => Some(run),
            _ => None,
        }
        .filter(|v| !v.is_empty())
        .map(|v| {
            let mut sorted = v.to_vec();
            sorted.sort_by(f64::total_cmp);
            let (n, hi) = (sorted.len(), sorted[sorted.len() - 1]);
            // The highest whole percentile with at least ten samples above
            // it, by nearest rank.
            let tail = (100 * n.saturating_sub(10) / n).max(1);
            let tail = if n > 10 {
                format!(" p{tail}={:.6}", sorted[(tail * n).div_ceil(100) - 1])
            } else {
                String::new()
            };
            format!(" min={:.6}{tail} max={hi:.6}", sorted[0])
        })
        .unwrap_or_default();
        println!(
            "  metric {} = {:.6} {} samples={}{spread}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The traced spans, grouped by sample: one set-up, or one pass's run.
fn by_sample(spans: &[Span]) -> Vec<Vec<&Span>> {
    let mut samples: Vec<Vec<&Span>> = Vec::new();
    for s in spans {
        match samples.last_mut() {
            Some(last) if last[0].sample == s.sample => last.push(s),
            _ => samples.push(vec![s]),
        }
    }
    samples
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Every per-layer metric, in `BENCHMARK.json` order. A metric of a layer
/// the workload never calls reads 0 with 0 samples.
fn layer_metrics(spans: &[Span]) -> Vec<Metric> {
    let samples = by_sample(spans);
    // Median over samples of a per-sample value (`None`: nothing to measure).
    let per_sample = |f: &dyn Fn(&[&Span]) -> Option<f64>| -> (f64, usize) {
        let values: Vec<f64> = samples.iter().filter_map(|p| f(p)).collect();
        (median(&values), values.len())
    };
    let calls = |p: &[&Span], name: &str| -> Vec<f64> {
        p.iter().filter(|s| !s.is_op && s.name == name).map(|s| secs(s.dur_ns)).collect()
    };
    let layer_time = |name: &'static str| {
        per_sample(&|p| Some(calls(p, name)).filter(|c| !c.is_empty()).map(|c| c.iter().sum()))
    };
    let note = |s: &Span, key: &str| s.notes.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    let note_sum = |p: &[&Span], key: &str| -> Option<f64> {
        let v: Vec<f64> = p.iter().filter_map(|s| note(s, key)).collect();
        (!v.is_empty()).then(|| v.iter().sum())
    };
    let call_median = |name: &'static str| {
        let all: Vec<f64> = samples.iter().flat_map(|p| calls(p, name)).collect();
        (median(&all), all.len())
    };
    let heap_mb = |name: &'static str| {
        let held: Vec<f64> = spans
            .iter()
            .filter(|s| !s.is_op && s.name == name)
            .map(|s| s.heap_delta as f64 / 1e6)
            .collect();
        (held.iter().copied().fold(0.0, f64::max), held.len())
    };
    let probes = |saturated: f64| {
        let all: Vec<f64> = spans
            .iter()
            .filter(|s| s.is_op && s.name == "probe" && note(s, "saturated") == Some(saturated))
            .map(|s| secs(s.dur_ns))
            .collect();
        (median(&all), all.len())
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let sum = |v: Vec<f64>| Some(v.iter().sum::<f64>()).filter(|_| !v.is_empty());
    let ns_per_router_cycle = {
        let all: Vec<f64> = spans
            .iter()
            .filter(|s| s.is_op)
            .filter_map(|s| note(s, "router_cycles").map(|rc| s.dur_ns as f64 / rc))
            .collect();
        (median(&all), all.len())
    };

    let m = |name, unit, (value, samples): (f64, usize)| Metric { name, unit, value, samples };
    vec![
        m("hexamesh.arrangement.build_s", "s", layer_time("hexamesh.arrangement")),
        m("graph.bfs.all_pairs_s", "s", layer_time("graph.bfs")),
        m("nocsim.routing.tables_s", "s", layer_time("nocsim.routing")),
        m("nocsim.routing.tables_mb", "MB", heap_mb("nocsim.routing")),
        m("nocsim.sim.new_s", "s", layer_time("nocsim.sim.new")),
        m("nocsim.sim.mb", "MB", heap_mb("nocsim.sim.new")),
        m("nocsim.sim.warmup_s", "s", layer_time("nocsim.sim.warmup")),
        m("nocsim.sim.window_s", "s", call_median("nocsim.sim.window")),
        m("nocsim.sim.flit_hops", "count", per_sample(&|p| note_sum(p, "flit_hops"))),
        m(
            "nocsim.sim.flit_hops_per_s",
            "1/s",
            per_sample(&|p| {
                ratio(note_sum(p, "flit_hops"), sum(calls(p, "nocsim.sim.window")))
            }),
        ),
        m("nocsim.sim.ns_per_router_cycle", "ns", ns_per_router_cycle),
        m(
            "nocsim.measure.probes",
            "count",
            per_sample(&|p| {
                Some(calls(p, "nocsim.measure.load_point").len() as f64).filter(|&n| n > 0.0)
            }),
        ),
        m(
            "nocsim.measure.saturated_probes",
            "count",
            per_sample(&|p| {
                let probes = p.iter().filter(|s| s.is_op && s.name == "probe");
                let (total, saturated) = probes.fold((0, 0), |(t, n), s| {
                    (t + 1, n + usize::from(note(s, "saturated") == Some(1.0)))
                });
                (total > 0).then_some(saturated as f64)
            }),
        ),
        m("nocsim.measure.stable_probe_s", "s", probes(0.0)),
        m("nocsim.measure.saturated_probe_s", "s", probes(1.0)),
        m("nocsim.measure.zero_load_s", "s", layer_time("nocsim.measure.zero_load")),
        m("workload.kernels.build_s", "s", layer_time("workload.kernels")),
        m("workload.driver.new_s", "s", layer_time("workload.driver.new")),
        m("workload.driver.run_s", "s", layer_time("workload.driver.run")),
        m("workload.driver.messages", "count", per_sample(&|p| note_sum(p, "messages"))),
        m(
            "workload.driver.msgs_per_s",
            "1/s",
            per_sample(&|p| {
                ratio(note_sum(p, "messages"), sum(calls(p, "workload.driver.run")))
            }),
        ),
        m(
            "workload.driver.slowdown",
            "ratio",
            per_sample(&|p| ratio(note_sum(p, "makespan"), note_sum(p, "critical_path"))),
        ),
        m("arrange.anneal.run_s", "s", layer_time("arrange.anneal")),
        m("arrange.anneal.proposed", "count", per_sample(&|p| note_sum(p, "proposed"))),
        m(
            "arrange.anneal.valid_ratio",
            "ratio",
            per_sample(&|p| {
                let proposed = note_sum(p, "proposed")?;
                ratio(Some(proposed - note_sum(p, "invalid")?), Some(proposed))
            }),
        ),
        m(
            "arrange.anneal.accept_ratio",
            "ratio",
            per_sample(&|p| {
                let valid = note_sum(p, "proposed")? - note_sum(p, "invalid")?;
                ratio(note_sum(p, "accepted"), Some(valid))
            }),
        ),
        m(
            "arrange.anneal.moves_per_s",
            "1/s",
            per_sample(&|p| ratio(note_sum(p, "proposed"), sum(calls(p, "arrange.anneal")))),
        ),
        m("arrange.objective.cheap_score_s", "s", call_median("arrange.objective.cheap_score")),
        m("arrange.objective.full_score_s", "s", call_median("arrange.objective.full_score")),
    ]
}

fn write_trace(path: &Path, spans: &[Span], kind: Kind) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let json = trace::chrome_trace(spans, &format!("perfbench {}", kind.name()));
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace: {} spans in {} (Chrome-trace JSON; open it at https://ui.perfetto.dev)",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// `git describe` of the checkout the benchmark was built from, or
/// `unknown`. Discovery stops at the checkout root, so a checkout that is
/// not a git repository never reads a repository around it.
fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap_or(Path::new("."));
    let mut git = Command::new("git");
    git.current_dir(root).args(["describe", "--always", "--dirty", "--tags"]);
    if let Some(outside) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", outside);
    }
    git.output().ok().filter(|o| o.status.success()).map_or_else(
        || "unknown".to_owned(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
    )
}

/// Median of three timings of two fixed pure-Rust loops that run no
/// repository code, as yardsticks for how fast the host is right now: a
/// compute loop over a 512 KiB table that stays in cache, and a chase of
/// dependent loads through a 64 MiB cycle, which mostly misses the caches
/// as the simulator's larger runs do.
fn reference_loops_s() -> (f64, f64) {
    let time = |f: &dyn Fn() -> u64| {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let compute = time(&|| {
        let mut table = vec![0u64; 1 << 16];
        let (mut x, mut idx) = (0x9E37_79B9_7F4A_7C15u64, 0usize);
        for _ in 0..1 << 22 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            idx = (idx ^ x as usize) & (table.len() - 1);
            table[idx] = table[idx].wrapping_add(x);
        }
        table[idx]
    });
    // A full-period linear congruential step (odd increment, multiplier
    // 1 mod 4) visits all 2^24 slots in an order prefetchers cannot follow.
    let next: Vec<u32> = (0..1u32 << 24)
        .map(|i| i.wrapping_mul(0x9E37_79B1).wrapping_add(1) & 0xFF_FFFF)
        .collect();
    let memory = time(&|| {
        let mut at = 0u32;
        for _ in 0..1 << 18 {
            at = next[at as usize];
        }
        u64::from(at)
    });
    (compute, memory)
}
