//! Serving-grade battery for `study serve` (`xp::serve`).
//!
//! Locks down the behaviours a resident result server must not lose:
//!
//! * **in-flight dedup** — N concurrent submissions of one spec cause
//!   exactly one backend run, and every submitter receives byte-identical
//!   artefacts;
//! * **stream isolation** — distinct specs interleaved on one JSONL
//!   stream produce correctly-tagged, whole-line events with no
//!   cross-request bleed;
//! * **cache robustness** — truncated, corrupted, or version-mismatched
//!   entries are detected by checksum, evicted, and recomputed to the
//!   correct bytes; a cold cache is a plain miss;
//! * **warm-start equivalence** — serving a superset grid by splicing a
//!   cached sub-grid plus a delta run is byte-identical to computing the
//!   superset from scratch, at every `--workers` value.
//!
//! All runs pin a tiny explicit `[schedule]` so the battery stays fast;
//! determinism comes from coordinate-derived seeds, not the schedule.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use xp::cache::Lookup;
use xp::cli::{CampaignArgs, OutputFormat};
use xp::json::{self, Value};
use xp::serve::{serve_lines, Outcome, ServeConfig};
use xp::spec::{Schedule, StageKind, StudySpec};
use xp::{Server, StageHooks};

const VERSION: &str = "battery-v1";

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "serve_battery_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn args(workers: usize) -> CampaignArgs {
    CampaignArgs {
        workers,
        seeds: 1,
        quick: true,
        full: false,
        out: std::env::temp_dir().join("serve_battery_unused_out"),
        format: OutputFormat::Both,
        campaign_seed: 42,
        progress: false,
    }
}

fn server(dir: &Path, workers: usize) -> Server<'static> {
    let config = ServeConfig { args: args(workers), version: VERSION.to_owned() };
    Server::new(dir, config, chiplet_arrange::study::hooks())
}

/// A small load-curve spec: single kind, pinned schedule, explicit axes.
fn curve_spec(name: &str, ns: &[usize], rates: &[f64]) -> StudySpec {
    let mut spec = StudySpec::new(name, StageKind::LoadCurve);
    spec.axes.kinds = Some(vec!["hexamesh".parse().expect("kind parses")]);
    spec.axes.ns = Some(ns.to_vec());
    spec.axes.rates = Some(rates.to_vec());
    spec.schedule = Some(Schedule::new(200, 400));
    spec
}

/// The served files as a name → content map for byte comparison.
fn file_map(served: &xp::Served) -> Vec<(String, String)> {
    served.files.iter().map(|f| (f.name.clone(), f.content.clone())).collect()
}

// ---------------------------------------------------------------------
// Satellite: concurrency / in-flight dedup
// ---------------------------------------------------------------------

/// N threads submitting one spec cause exactly one backend run; every
/// thread gets byte-identical files. Late submitters that land after
/// completion are disk hits, overlapping ones are dedups — either way
/// the backend ran once.
#[test]
fn concurrent_identical_submissions_run_the_backend_once() {
    const N: usize = 6;
    let dir = temp_dir("dedup");
    let server = server(&dir, 2);
    let spec = curve_spec("dedup", &[5], &[0.08]);

    let barrier = std::sync::Barrier::new(N);
    let results: Vec<xp::Served> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    server.submit(&spec).expect("submit succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread joins")).collect()
    });

    let stats = server.stats();
    assert_eq!(stats.backend_runs, 1, "exactly one backend run for N identical requests");
    assert_eq!(stats.requests, N as u64);
    assert_eq!(
        stats.hits + stats.deduped,
        (N - 1) as u64,
        "every non-leader is a dedup or a disk hit"
    );

    let reference = file_map(&results[0]);
    assert!(!reference.is_empty(), "served files are non-empty");
    for served in &results {
        assert_eq!(served.key, results[0].key);
        assert_eq!(file_map(served), reference, "all submitters see identical bytes");
    }
}

// ---------------------------------------------------------------------
// Satellite: stream isolation on one JSONL connection
// ---------------------------------------------------------------------

/// Two distinct specs interleaved on one stream: every emitted line is
/// valid standalone JSON tagged with its request id, each request's
/// files match a clean-room run of that spec alone, and the final stats
/// line accounts for both.
#[test]
fn interleaved_requests_do_not_bleed_across_the_stream() {
    let dir = temp_dir("interleave");
    let srv = server(&dir, 2);
    let spec_a = curve_spec("stream_a", &[5], &[0.08]);
    let spec_b = curve_spec("stream_b", &[7], &[0.16]);

    let mut request = String::new();
    for (id, spec) in [("a", &spec_a), ("b", &spec_b)] {
        let mut envelope = Value::object();
        envelope.set("id", id);
        envelope.set("spec", spec.to_value());
        request.push_str(&envelope.to_json());
        request.push('\n');
    }

    let mut output = Vec::new();
    let stats = serve_lines(&srv, request.as_bytes(), &mut output).expect("stream serves");
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.backend_runs, 2, "distinct specs never dedupe");

    let text = String::from_utf8(output).expect("stream is UTF-8");
    let mut per_id: Vec<(String, Vec<Value>)> =
        vec![("a".into(), vec![]), ("b".into(), vec![])];
    let mut saw_stats = false;
    for line in text.lines() {
        let event = json::parse(line)
            .unwrap_or_else(|e| panic!("every stream line is standalone JSON: {e}\n{line}"));
        let kind = match event.get("event") {
            Some(Value::Str(kind)) => kind.clone(),
            other => panic!("event line without an event field: {other:?}"),
        };
        if kind == "stats" {
            saw_stats = true;
            continue;
        }
        let id = match event.get("id") {
            Some(Value::Str(id)) => id.clone(),
            other => panic!("{kind} event without a request id: {other:?}"),
        };
        per_id
            .iter_mut()
            .find(|(tag, _)| *tag == id)
            .unwrap_or_else(|| panic!("event for unknown request id {id:?}"))
            .1
            .push(event);
    }
    assert!(saw_stats, "stream ends with a stats line");

    // Each request's streamed files match a clean-room run of that spec
    // alone — no cross-request bleed.
    for (id, spec) in [("a", &spec_a), ("b", &spec_b)] {
        let clean = server(&temp_dir("clean"), 2).submit(spec).expect("clean-room run");
        let events = &per_id.iter().find(|(tag, _)| tag == id).expect("request seen").1;
        let mut streamed: Vec<(String, String)> = events
            .iter()
            .filter(|e| e.get("event") == Some(&Value::Str("file".into())))
            .map(|e| {
                let get = |key: &str| match e.get(key) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("file event field {key}: {other:?}"),
                };
                (get("name"), get("content"))
            })
            .collect();
        streamed.sort();
        let mut expected = file_map(&clean);
        expected.sort();
        assert_eq!(streamed, expected, "request {id}: streamed bytes match a solo run");
        let done = events
            .iter()
            .find(|e| e.get("event") == Some(&Value::Str("done".into())))
            .expect("done event per request");
        assert_eq!(done.get("key"), Some(&Value::Str(clean.key.clone())));
    }
}

// ---------------------------------------------------------------------
// Satellite: cache poisoning / robustness
// ---------------------------------------------------------------------

/// Damage of every flavour — truncation, corruption, a missing file —
/// is detected by checksum on load, evicted, recomputed, and served
/// with the correct bytes again.
#[test]
fn damaged_entries_are_evicted_and_recomputed() {
    let dir = temp_dir("poison");
    let spec = curve_spec("poison", &[5], &[0.08]);

    let srv = server(&dir, 2);
    let first = srv.submit(&spec).expect("cold run");
    assert_eq!(first.outcome, Outcome::Miss, "a cold cache is a plain miss");
    let reference = file_map(&first);
    let entry_dir = srv.cache().dir(&first.key);

    let csv_path = entry_dir.join("poison.csv");
    for label in ["truncate", "corrupt", "remove"] {
        match label {
            "truncate" => {
                let bytes = std::fs::read(&csv_path).expect("read csv");
                std::fs::write(&csv_path, &bytes[..bytes.len() / 2]).expect("truncate csv");
            }
            "corrupt" => {
                let mut bytes = std::fs::read(&csv_path).expect("read csv");
                let mid = bytes.len() / 2;
                bytes[mid] = bytes[mid].wrapping_add(1);
                std::fs::write(&csv_path, bytes).expect("corrupt csv");
            }
            _ => std::fs::remove_file(&csv_path).expect("remove csv"),
        }
        // A fresh server (no in-memory state) must detect the damage on
        // disk, evict, recompute, and serve the original bytes.
        let srv = server(&dir, 2);
        let again = srv.submit(&spec).expect("recompute after damage");
        assert_eq!(again.outcome, Outcome::Miss, "{label}: damaged entry is not a hit");
        assert_eq!(file_map(&again), reference, "{label}: recomputed bytes are correct");
        let stats = srv.stats();
        assert_eq!(stats.evictions, 1, "{label}: the damaged entry was evicted");
        assert_eq!(stats.backend_runs, 1, "{label}: the result was recomputed");
        assert!(entry_dir.join("entry.json").exists(), "{label}: entry was re-stored");
    }
}

/// A version bump is a miss, never a stale hit: the old entry is
/// evicted on sight and the new version's bytes are stored beside its
/// own key space.
#[test]
fn version_mismatch_is_a_miss_not_a_stale_hit() {
    let dir = temp_dir("version");
    let spec = curve_spec("version", &[5], &[0.08]);

    let old = server(&dir, 2);
    let first = old.submit(&spec).expect("old-version run");
    assert_eq!(first.outcome, Outcome::Miss);

    let bumped = Server::new(
        &dir,
        ServeConfig { args: args(2), version: "battery-v2".to_owned() },
        chiplet_arrange::study::hooks(),
    );
    let again = bumped.submit(&spec).expect("new-version run");
    assert_eq!(again.outcome, Outcome::Miss, "a new version never serves old bytes");
    assert_ne!(again.key, first.key, "the version is key material");

    // The result rows are version-independent: CSV bytes match exactly,
    // and the JSON manifests agree on everything but the version/key
    // stamps they embed.
    let (old_files, new_files) = (file_map(&first), file_map(&again));
    let csv_of = |files: &[(String, String)]| {
        files.iter().find(|(n, _)| n.ends_with(".csv")).expect("csv served").1.clone()
    };
    assert_eq!(csv_of(&new_files), csv_of(&old_files), "rows are version-independent");
    let manifest_of = |files: &[(String, String)]| {
        let (_, content) =
            files.iter().find(|(n, _)| n.ends_with(".json")).expect("json served");
        json::parse(content).expect("manifest parses")
    };
    let (old_manifest, new_manifest) = (manifest_of(&old_files), manifest_of(&new_files));
    for field in ["campaign", "config", "columns", "rows"] {
        assert_eq!(
            new_manifest.get(field),
            old_manifest.get(field),
            "manifest field {field:?} is version-independent"
        );
    }

    // The old entry still exists under its own key but loads as
    // `Evicted` for the new version — and is then gone.
    match bumped.cache().load(&first.key, "battery-v2").expect("load old key") {
        Lookup::Evicted => {}
        other => panic!("old-version entry must evict under the new version, got {other:?}"),
    }
    match bumped.cache().load(&first.key, "battery-v2").expect("reload old key") {
        Lookup::Miss => {}
        other => panic!("evicted entry must be a miss on reload, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Satellite: warm-start equivalence golden
// ---------------------------------------------------------------------

/// The warm-start splice is byte-identical to a from-scratch run of the
/// superset grid, at every worker count, and the provenance records the
/// reused cells.
#[test]
fn warm_start_is_byte_identical_to_from_scratch_at_every_worker_count() {
    let sub = curve_spec("warm", &[5], &[0.08, 0.16]);
    let sup = curve_spec("warm", &[5], &[0.08, 0.16, 0.24]);

    // Reference: the superset computed from scratch, single-worker.
    let reference = server(&temp_dir("warm_ref"), 1).submit(&sup).expect("reference run");
    assert_eq!(reference.outcome, Outcome::Miss);
    let reference_files = file_map(&reference);

    for workers in [1, 2, 4, 8] {
        let dir = temp_dir("warm");
        let srv = server(&dir, workers);

        let seeded = srv.submit(&sub).expect("sub-grid run");
        assert_eq!(seeded.outcome, Outcome::Miss);

        let warmed = srv.submit(&sup).expect("warm superset run");
        assert_eq!(warmed.outcome, Outcome::Warm, "workers={workers}: superset warm-starts");
        assert_eq!(
            file_map(&warmed),
            reference_files,
            "workers={workers}: warm splice is byte-identical to from-scratch"
        );

        assert_eq!(warmed.provenance.cells_total, 3, "workers={workers}");
        assert_eq!(
            warmed.provenance.cells_cached, 2,
            "workers={workers}: both cached cells were reused"
        );
        assert_eq!(
            warmed.provenance.cells_run, 1,
            "workers={workers}: only the delta cell ran"
        );
        assert_eq!(
            warmed.provenance.warm_from.as_deref(),
            Some(seeded.key.as_str()),
            "workers={workers}: provenance names the donor entry"
        );
        assert_eq!(srv.stats().warm, 1, "workers={workers}");

        // The spliced entry replays as an exact hit with the same bytes.
        let replay = srv.submit(&sup).expect("replay");
        assert_eq!(replay.outcome, Outcome::Hit);
        assert_eq!(file_map(&replay), reference_files);
    }
}

/// Explicit-default and sparse spellings of one study resolve to one
/// cache entry end to end: the second spelling is served as an exact
/// hit of the first.
#[test]
fn equivalent_spellings_share_one_cache_entry() {
    let dir = temp_dir("spelling");
    let srv = server(&dir, 2);

    let sparse = curve_spec("spelling", &[5], &[0.08]);
    let first = srv.submit(&sparse).expect("sparse run");
    assert_eq!(first.outcome, Outcome::Miss);

    // The same study with defaults written out: the resolved pattern
    // axis, the seed/replicate defaults, and an explicit [serve] block.
    let mut explicit = sparse.clone();
    explicit.axes.patterns = Some(vec!["uniform".parse().expect("pattern parses")]);
    explicit.seed = Some(42);
    explicit.replicates = Some(1);
    explicit.serve.warm_start = true;

    let again = srv.submit(&explicit).expect("explicit run");
    assert_eq!(again.key, first.key, "spellings share one key");
    assert_eq!(again.outcome, Outcome::Hit, "the explicit spelling is an exact hit");
    assert_eq!(file_map(&again), file_map(&first));
}

/// A search miss books its backend work like every other stage: one
/// campaign job per chiplet count, each running its own restart pool.
#[test]
fn a_search_miss_books_one_job_per_n() {
    let srv = server(&temp_dir("search_jobs"), 2);
    let mut spec = StudySpec::new("search_jobs", StageKind::Search);
    spec.axes.ns = Some(vec![7, 13]);
    spec.search.restarts = Some(2);
    spec.search.iterations = Some(40);
    spec.search.validate = false;
    let served = srv.submit(&spec).expect("search runs");
    assert_eq!(served.outcome, Outcome::Miss);
    assert_eq!(served.provenance.backend_jobs, 2, "one job per n");
    assert_eq!(srv.stats().backend_jobs, 2);
}

/// A saturation-search resolution outside (0, 1) never terminates the
/// bisection or panics the pool, and a spec breaking a stage rule
/// (grid-normalised series without the grid, non-square kite counts, a
/// honeycomb thermal map) cannot produce its table. A load curve given a
/// rate resolution, which it never reads, would run again under a second
/// cache key for the same rows. Each such line is
/// answered with an `error` event before any backend run, and the stream
/// keeps serving the next request.
#[test]
fn out_of_range_resolution_is_an_error_event_and_serving_continues() {
    let dir = temp_dir("resolution");
    let srv = server(&dir, 2);
    let mut bad: Vec<String> = ["0", "-0.01", "1.0", "1e999"]
        .iter()
        .map(|res| {
            format!(
                concat!(
                    r#"{{"name":"bad","stage":"saturation","axes":{{"kinds":["grid"],"#,
                    r#""ns":[4]}},"schedule":{{"warmup_cycles":200,"measure_cycles":400,"#,
                    r#""rate_resolution":{res}}}}}"#,
                ),
                res = res,
            )
        })
        .collect();
    bad.extend(
        [
            concat!(
                r#"{"name":"bad","stage":"saturation","axes":{"kinds":["hexamesh"],"ns":[4]},"#,
                r#""saturation":{"normalized_stem":"norm"}}"#,
            ),
            r#"{"name":"bad","stage":"kite","axes":{"ns":[20]}}"#,
            r#"{"name":"bad","stage":"thermal","axes":{"kinds":["honeycomb"],"ns":[16]}}"#,
            r#"{"name":"bad","stage":"load_curve","axes":{"ns":[4,4],"rates":[0.1]}}"#,
            concat!(
                r#"{"name":"x","stage":"load_curve","replicates":99999999999999,"#,
                r#""axes":{"kinds":["hexamesh"],"ns":[4],"rates":[0.1]}}"#,
            ),
            concat!(
                r#"{"name":"rr","stage":"load_curve","axes":{"kinds":["hexamesh"],"ns":[7],"#,
                r#""rates":[0.08]},"schedule":{"warmup_cycles":1500,"measure_cycles":3000,"#,
                r#""rate_resolution":0.05}}"#,
            ),
        ]
        .map(str::to_owned),
    );
    // `[sim]` values the engine would refuse mid-run.
    bad.extend(["\"vcs\":0", "\"vcs\":1", "\"buffer_depth\":0"].map(|sim| {
        format!(
            concat!(
                r#"{{"name":"bad","stage":"load_curve","axes":{{"kinds":["hexamesh"],"#,
                r#""ns":[4],"rates":[0.1]}},"sim":{{{sim}}}}}"#,
            ),
            sim = sim,
        )
    }));
    let mut request = String::new();
    for (i, spec) in bad.iter().enumerate() {
        request.push_str(&format!("{{\"id\":\"bad{i}\",\"spec\":{spec}}}\n"));
    }
    let mut good = Value::object();
    good.set("id", "good");
    good.set("spec", curve_spec("after_bad", &[5], &[0.08]).to_value());
    request.push_str(&good.to_json());
    request.push('\n');

    let mut output = Vec::new();
    let stats = serve_lines(&srv, request.as_bytes(), &mut output).expect("stream serves");
    assert_eq!(stats.backend_runs, 1, "only the valid request runs");
    let events: Vec<Value> = String::from_utf8(output)
        .expect("stream is UTF-8")
        .lines()
        .map(|line| json::parse(line).expect("every stream line is standalone JSON"))
        .collect();
    let has = |id: &str, kind: &str| {
        events.iter().any(|e| {
            e.get("id") == Some(&Value::Str(id.into()))
                && e.get("event") == Some(&Value::Str(kind.into()))
        })
    };
    for (i, spec) in bad.iter().enumerate() {
        assert!(has(&format!("bad{i}"), "error"), "{spec}: error event");
    }
    assert!(has("good", "done"), "the stream keeps serving after the bad lines");
}

fn exploding_search(
    _: &StudySpec,
    _: &xp::Campaign,
) -> Result<xp::flow::StageOutput, xp::StudyError> {
    panic!("search hook exploded")
}

/// A job that panics costs only its own request: the server answers it
/// with an `error` event naming the panic, serves the next request to
/// `done`, and `serve_lines` returns normally.
#[test]
fn a_panicking_job_is_an_error_event_and_serving_continues() {
    let dir = temp_dir("panic");
    let hooks = StageHooks { search: Some(&exploding_search), optimized_graph: None };
    let config = ServeConfig { args: args(2), version: VERSION.to_owned() };
    let srv = Server::new(&dir, config, hooks);
    let mut request = String::from(concat!(
        r#"{"id":"boom","spec":{"name":"boom","stage":"search","axes":{"ns":[7]},"#,
        r#""search":{"restarts":1,"iterations":10}}}"#,
        "\n",
    ));
    let mut good = Value::object();
    good.set("id", "good");
    good.set("spec", curve_spec("after_panic", &[5], &[0.08]).to_value());
    request.push_str(&good.to_json());
    request.push('\n');

    let mut output = Vec::new();
    let stats = serve_lines(&srv, request.as_bytes(), &mut output).expect("stream serves");
    assert_eq!(stats.requests, 2);
    let events: Vec<Value> = String::from_utf8(output)
        .expect("stream is UTF-8")
        .lines()
        .map(|line| json::parse(line).expect("every stream line is standalone JSON"))
        .collect();
    let find = |id: &str, kind: &str| {
        events.iter().find(|e| {
            e.get("id") == Some(&Value::Str(id.into()))
                && e.get("event") == Some(&Value::Str(kind.into()))
        })
    };
    let error = find("boom", "error").expect("the panicking request gets an error event");
    assert_eq!(
        error.get("message"),
        Some(&Value::Str("backend run panicked: search hook exploded".into()))
    );
    assert!(find("boom", "done").is_none());
    assert!(find("good", "done").is_some(), "the stream keeps serving after the panic");
}
