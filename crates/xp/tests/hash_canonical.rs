//! Canonical-hash property battery for the serving layer.
//!
//! The content-addressed cache key (`Server::cache_key`) must be a
//! function of the *resolved* spec, not of how the request was spelled:
//! JSON vs TOML encodings, object-key order, and explicitly-written-out
//! defaults all land on the same key, while any semantic change — one
//! axis value, one override — lands on a different one. These tests pin
//! that contract with randomised specs.

use hexamesh::arrangement::ArrangementKind;
use nocsim::TrafficPattern;
use proptest::prelude::*;
use xp::cli::CampaignArgs;
use xp::json::Value;
use xp::serve::ServeConfig;
use xp::spec::{Schedule, ServeMode, StageKind, StudySpec};
use xp::Server;

const KINDS: [&str; 4] = ["grid", "honeycomb", "brickwall", "hexamesh"];
const PATTERNS: [&str; 3] = ["uniform", "complement", "bitrev"];

fn test_args() -> CampaignArgs {
    CampaignArgs::try_parse(&["hash_canonical".to_owned()]).expect("empty argv parses")
}

fn server(dir: &std::path::Path) -> Server<'static> {
    let config = ServeConfig { args: test_args(), version: "test-version".to_owned() };
    Server::new(dir, config, xp::StageHooks::default())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xp_hash_canonical_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A load-curve spec assembled from drawn axis values.
fn curve_spec(
    kind_bits: u8,
    ns: &[usize],
    rate_steps: &[u32],
    pattern_bits: u8,
    seed: Option<u64>,
    replicates: Option<u64>,
) -> StudySpec {
    let mut spec = StudySpec::new("prop", StageKind::LoadCurve);
    let kinds: Vec<_> = KINDS
        .iter()
        .enumerate()
        .filter(|&(i, _)| kind_bits & (1 << i) != 0)
        .map(|(_, k)| k.parse().expect("kind name parses"))
        .collect();
    if !kinds.is_empty() {
        spec.axes.kinds = Some(kinds);
    }
    // Axis values must be distinct, so only each drawn value's first
    // occurrence is kept.
    let ns = first_occurrences(ns);
    if !ns.is_empty() {
        spec.axes.ns = Some(ns);
    }
    let rate_steps = first_occurrences(rate_steps);
    if !rate_steps.is_empty() {
        spec.axes.rates = Some(rate_steps.iter().map(|&k| f64::from(k) * 0.02).collect());
    }
    let patterns: Vec<_> = PATTERNS
        .iter()
        .enumerate()
        .filter(|&(i, _)| pattern_bits & (1 << i) != 0)
        .map(|(_, p)| p.parse().expect("pattern name parses"))
        .collect();
    if !patterns.is_empty() {
        spec.axes.patterns = Some(patterns);
    }
    spec.seed = seed;
    spec.replicates = replicates;
    spec
}

/// `values` with each value's first occurrence kept, in order.
fn first_occurrences<T: Copy + PartialEq>(values: &[T]) -> Vec<T> {
    let mut out = Vec::new();
    for &v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Rebuilds `value` with every object's keys in reverse order,
/// recursively — same content, maximally different spelling.
fn reverse_keys(value: &Value) -> Value {
    match value {
        Value::Obj(pairs) => {
            Value::Obj(pairs.iter().rev().map(|(k, v)| (k.clone(), reverse_keys(v))).collect())
        }
        Value::Arr(items) => Value::Arr(items.iter().map(reverse_keys).collect()),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A spec's key survives a JSON round-trip, a key-order shuffle, and
    /// writing the canonical form (explicit defaults) out in full.
    #[test]
    fn key_is_invariant_under_respelling(
        kind_bits in 0u8..16,
        ns in proptest::collection::vec(2usize..40, 0..3),
        rate_steps in proptest::collection::vec(1u32..26, 0..3),
        pattern_bits in 0u8..8,
        seed in 0u64..1_000,
        seed_set in proptest::bool::Any,
        replicates in 1u64..4,
        replicates_set in proptest::bool::Any,
    ) {
        let dir = temp_dir("respell");
        let server = server(&dir);
        let spec = curve_spec(
            kind_bits,
            &ns,
            &rate_steps,
            pattern_bits,
            seed_set.then_some(seed),
            replicates_set.then_some(replicates),
        );
        let (key, canonical) = server.cache_key(&spec);

        // JSON round-trip.
        let json = spec.to_value().to_json();
        let reparsed = StudySpec::from_json(&json).expect("spec JSON reparses");
        prop_assert_eq!(&server.cache_key(&reparsed).0, &key);

        // Object-key order is spelling, not meaning.
        let shuffled = StudySpec::from_value(&reverse_keys(&spec.to_value()))
            .expect("shuffled spec decodes");
        prop_assert_eq!(&server.cache_key(&shuffled).0, &key);

        // The fully-explicit canonical form (all defaults written out)
        // hashes identically to the sparse spelling.
        prop_assert_eq!(&server.cache_key(&canonical).0, &key);

        // Canonicalisation is idempotent.
        let (key2, canonical2) = server.cache_key(&canonical);
        prop_assert_eq!(&key2, &key);
        prop_assert_eq!(canonical2.to_value().to_json(), canonical.to_value().to_json());
    }

    /// Any semantic change — one axis value, the seed, a replicate
    /// count, an overridden simulator knob — changes the key.
    #[test]
    fn semantic_changes_change_the_key(
        kind_bits in 0u8..16,
        ns in proptest::collection::vec(2usize..40, 0..3),
        rate_steps in proptest::collection::vec(1u32..26, 0..3),
        pattern_bits in 0u8..8,
        mutation in 0usize..6,
    ) {
        let dir = temp_dir("mutate");
        let server = server(&dir);
        let spec = curve_spec(kind_bits, &ns, &rate_steps, pattern_bits, None, None);
        let (key, _) = server.cache_key(&spec);

        let mut mutated = spec.clone();
        match mutation {
            0 => {
                let mut ns = mutated.axes.ns.unwrap_or_default();
                ns.push(997);
                mutated.axes.ns = Some(ns);
            }
            1 => {
                let mut rates = mutated.axes.rates.unwrap_or_default();
                rates.push(0.979);
                mutated.axes.rates = Some(rates);
            }
            2 => mutated.seed = Some(test_args().campaign_seed + 1),
            3 => mutated.replicates = Some(test_args().seeds + 1),
            4 => mutated.axes.optimized = true,
            _ => mutated.sim.vcs = Some(7),
        }
        prop_assert_ne!(server.cache_key(&mutated).0, key);
    }
}

/// TOML and JSON encodings of the same spec hash identically, and the
/// fully-spelled-out TOML (defaults explicit, sections reordered) lands
/// on the same key as the sparse one.
#[test]
fn toml_and_json_spellings_hash_identically() {
    let dir = temp_dir("spellings");
    let server = server(&dir);

    let sparse_toml = r#"
        name = "spell"
        stage = "load_curve"

        [axes]
        kinds = ["hexamesh", "grid"]
        ns = [7, 13]
        rates = [0.1, 0.2]
    "#;
    let sparse = StudySpec::from_toml(sparse_toml).expect("sparse TOML parses");
    let (key, canonical) = server.cache_key(&sparse);

    let json = sparse.to_value().to_json();
    let from_json = StudySpec::from_json(&json).expect("JSON parses");
    assert_eq!(server.cache_key(&from_json).0, key);

    // Same spec with sections reordered and the serving defaults (which
    // never reach the key material) written out explicitly.
    let explicit_toml = r#"
        stage = "load_curve"
        name = "spell"

        [serve]
        mode = "reuse"
        warm_start = true

        [axes]
        rates = [0.1, 0.2]
        ns = [7, 13]
        patterns = ["uniform"]
        kinds = ["hexamesh", "grid"]
    "#;
    let explicit = StudySpec::from_toml(explicit_toml).expect("explicit TOML parses");
    assert_eq!(server.cache_key(&explicit).0, key);

    // And the canonical (resolved) spec round-trips through its own
    // JSON spelling onto the same key.
    let reparsed =
        StudySpec::from_json(&canonical.to_value().to_json()).expect("canonical reparses");
    assert_eq!(server.cache_key(&reparsed).0, key);
}

/// The `[serve]` and `[output]` sections steer delivery, not results:
/// they are erased before hashing, so every spelling of them shares one
/// cache entry.
#[test]
fn serve_and_output_sections_do_not_affect_the_key() {
    let dir = temp_dir("serve_section");
    let server = server(&dir);
    let base = curve_spec(0b1000, &[7], &[5], 0b001, Some(3), Some(2));
    let (key, _) = server.cache_key(&base);

    let mut refresh = base.clone();
    refresh.serve.mode = ServeMode::Refresh;
    refresh.serve.warm_start = false;
    assert_eq!(server.cache_key(&refresh).0, key);

    let mut routed = base.clone();
    routed.output.dir = Some("elsewhere".to_owned());
    assert_eq!(server.cache_key(&routed).0, key);
}

/// The engine version and schedule tier are key material: a new build
/// or a different tier never serves the old bytes.
#[test]
fn version_and_tier_are_key_material() {
    let dir = temp_dir("version");
    let base = curve_spec(0b1000, &[7], &[5], 0b001, None, None);

    let key = server(&dir).cache_key(&base).0;

    let bumped = Server::new(
        &dir,
        ServeConfig { args: test_args(), version: "test-version-2".to_owned() },
        xp::StageHooks::default(),
    );
    assert_ne!(bumped.cache_key(&base).0, key);

    let mut quick_args = test_args();
    quick_args.quick = true;
    let quick = Server::new(
        &dir,
        ServeConfig { args: quick_args, version: "test-version".to_owned() },
        xp::StageHooks::default(),
    );
    assert_ne!(quick.cache_key(&base).0, key);
}

/// A `[schedule]` with the given windows and resolution.
fn schedule(warmup: u64, measure: u64, resolution: Option<f64>) -> Option<Schedule> {
    let mut schedule = Schedule::new(warmup, measure);
    schedule.rate_resolution = resolution;
    Some(schedule)
}

/// A spec that writes out every default the stage resolves — schedule,
/// fault sweep and search n list included — lands on the sparse spec's
/// key, under the default tier and under `--quick`.
#[test]
fn spelled_out_stage_defaults_hash_like_the_sparse_spec() {
    let dir = temp_dir("stage_defaults");
    let mut quick_args = test_args();
    quick_args.quick = true;
    let quick = Server::new(
        &dir,
        ServeConfig { args: quick_args, version: "test-version".to_owned() },
        xp::StageHooks::default(),
    );
    let default = server(&dir);
    let evaluated = ArrangementKind::EVALUATED.to_vec();

    let mut spelled = Vec::new();
    let mut saturation = StudySpec::new("s", StageKind::Saturation);
    saturation.axes.kinds = Some(evaluated.clone());
    saturation.axes.ns = Some((2..=100).collect());
    saturation.axes.patterns = Some(vec![TrafficPattern::UniformRandom]);
    saturation.schedule = schedule(3_000, 6_000, Some(0.01));
    spelled.push((&default, saturation));

    let mut curve = StudySpec::new("s", StageKind::LoadCurve);
    curve.axes.kinds = Some(evaluated);
    curve.axes.ns = Some(vec![37]);
    curve.axes.rates = Some((1..=12u32).map(|step| f64::from(step) * 0.04).collect());
    curve.axes.patterns = Some(vec![TrafficPattern::UniformRandom]);
    curve.schedule = schedule(4_000, 8_000, None);
    spelled.push((&default, curve.clone()));
    curve.schedule = schedule(1_500, 3_000, None);
    spelled.push((&quick, curve));

    let mut resilience = StudySpec::new("s", StageKind::Resilience);
    resilience.axes.ns = Some(vec![16, 17, 36, 37, 41, 64, 91, 100]);
    resilience.schedule = schedule(3_000, 6_000, Some(0.01));
    resilience.faults.ns = Some(vec![37, 91, 169]);
    resilience.faults.link_failures = Some(vec![0, 1, 2, 4]);
    resilience.faults.fault_cycle = Some(1_500);
    resilience.faults.retransmit_timeout = Some(2_048);
    spelled.push((&default, resilience.clone()));
    resilience.schedule = schedule(1_500, 3_000, Some(0.02));
    resilience.faults.ns = Some(vec![7, 13]);
    resilience.faults.fault_cycle = Some(750);
    spelled.push((&quick, resilience));

    let mut search = StudySpec::new("s", StageKind::Search);
    search.axes.ns = Some(vec![37, 91, 169, 271]);
    search.schedule = schedule(3_000, 6_000, Some(0.01));
    spelled.push((&default, search.clone()));
    search.axes.ns = Some(vec![19, 37]);
    search.schedule = schedule(1_500, 3_000, Some(0.02));
    spelled.push((&quick, search));

    for (server, spec) in spelled {
        spec.validate().expect("spelled-out defaults are a valid spec");
        let sparse = StudySpec::new("s", spec.stage);
        let (key, canonical) = server.cache_key(&sparse);
        assert_eq!(
            server.cache_key(&spec).0,
            key,
            "{} spelled out: {} vs {}",
            spec.stage,
            spec.to_value().to_json(),
            canonical.to_value().to_json()
        );
    }
}
