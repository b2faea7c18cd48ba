//! Harness self-test at toy sizes: every workload runs in about a second.
//!
//! Checks that every metric `BENCHMARK.json` names is printed with its unit
//! and sample count, that a tampered pinned digest counts as a failed
//! operation, that an input set without pins is reported unchecked and not
//! correct, that traced and untraced runs give identical simulated
//! outputs, and that the readable pin dumps match the pinned digests.

use std::path::{Path, PathBuf};
use std::process::Command;

use xp::json::Value;

const WORKLOADS: [&str; 4] = ["fig7_search", "large_n", "collectives", "anneal"];

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(package_dir().join("../BENCHMARK.json")).unwrap();
    let spec = xp::json::parse(&text).unwrap();
    let Some(Value::Arr(metrics)) = spec.get(list) else { panic!("{list} is not a list") };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

struct Run {
    stdout: String,
    summary: Value,
}

impl Run {
    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line"))
    }

    fn int(&self, key: &str) -> i128 {
        match self.summary.get(key) {
            Some(Value::Int(v)) => *v,
            other => panic!("{key}: {other:?}"),
        }
    }

    fn correct(&self) -> bool {
        matches!(self.summary.get("correct"), Some(Value::Bool(true)))
    }
}

fn toy(workload: &str, trace: bool, seed: u64, extra: &[&str]) -> Run {
    let out = scratch("traces").join(format!("{workload}-{trace}-{seed}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seconds", "1", "--toy", "--seed"])
        .arg(seed.to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" })
        .arg("--trace-out")
        .arg(&out)
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "{workload} exited {}: {stdout}", output.status);
    let last = stdout.lines().last().expect("output");
    let summary = xp::json::parse(last).unwrap();
    Run { stdout, summary }
}

/// The summary names exactly `expected`, each with its unit, and the
/// report prints each with its unit and a sample count.
fn assert_metrics(run: &Run, expected: &[(String, String)]) {
    let Some(Value::Obj(metrics)) = run.summary.get("metrics") else { panic!("no metrics") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted);
    for ((name, unit), (_, value)) in expected.iter().zip(metrics) {
        assert_eq!(value.get("unit"), Some(&Value::Str(unit.clone())), "{name}");
        assert!(matches!(value.get("value"), Some(Value::Num(_) | Value::Int(_))), "{name}");
        let line = run.line(&format!("  metric {name} = "));
        assert!(line.contains(&format!(" {unit} samples=")), "{line}");
    }
}

#[test]
fn every_metric_is_printed_and_traced_outputs_match_untraced() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let plain = toy(workload, false, 0, &[]);
        let traced = toy(workload, true, 0, &[]);
        for run in [&plain, &traced] {
            assert!(run.correct(), "{workload}: {}", run.stdout);
            assert_eq!(run.int("failed"), 0);
            assert!(run.int("attempted") > 0);
            assert!(
                run.stdout.contains("pinned outputs: checked"),
                "{workload}: toy seed 0 must be pinned"
            );
        }
        assert_metrics(&plain, &end_to_end);
        assert_metrics(&traced, &per_layer);
        for line in ["  metric setup_s", "  metric run_s", "  metric peak_heap_mb"] {
            assert!(traced.stdout.contains(line), "{workload}: traced run lacks {line}");
        }
        assert_eq!(plain.line("outputs sha256:"), traced.line("outputs sha256:"), "{workload}");
    }
}

#[test]
fn a_tampered_pin_counts_as_a_failed_operation() {
    let pinned = scratch("tampered").join("toy");
    std::fs::create_dir_all(&pinned).unwrap();
    let original =
        std::fs::read_to_string(package_dir().join("pinned/toy/large_n.txt")).unwrap();
    // Flip one hex digit of the digest of seed 0's record 2.
    let tampered: Vec<String> = original
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.splitn(4, ' ').collect();
            if fields.len() == 4 && fields[0] == "0" && fields[1] == "2" {
                let digit = if fields[2].starts_with('0') { "1" } else { "0" };
                format!("0 2 {digit}{} {}", &fields[2][1..], fields[3])
            } else {
                line.to_owned()
            }
        })
        .collect();
    assert_ne!(tampered.join("\n"), original.trim_end());
    std::fs::write(pinned.join("large_n.txt"), tampered.join("\n")).unwrap();

    let run =
        toy("large_n", false, 0, &["--pinned", pinned.parent().unwrap().to_str().unwrap()]);
    assert!(!run.correct());
    // Record 2 of every pass differs from its pin; nothing else does.
    let operations = run.line("operations:");
    let passes: i128 =
        operations.split(" over ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap();
    assert!(passes >= 4, "{operations}");
    assert_eq!(run.int("failed"), passes, "{}", run.stdout);
    assert!(
        run.stdout.contains("mismatch: pass 0 record 2 `window 0` differs from its pin"),
        "{}",
        run.stdout
    );
}

#[test]
fn an_input_set_without_pins_is_unchecked_not_correct() {
    // The toy pins cover input set 0 only; seed 21 selects it again.
    let unpinned = toy("anneal", false, 1, &[]);
    assert_eq!(unpinned.int("failed"), 0, "{}", unpinned.stdout);
    assert!(!unpinned.correct(), "{}", unpinned.stdout);
    assert!(unpinned.stdout.contains("pinned outputs: unchecked"), "{}", unpinned.stdout);
    let wrapped = toy("anneal", false, 21, &[]);
    assert!(wrapped.correct(), "{}", wrapped.stdout);
    assert!(wrapped.line("perfbench ").contains(" seed=21 input_set=0 "));
}

#[test]
fn readable_dumps_match_the_pinned_digests() {
    for workload in WORKLOADS {
        let dump = std::fs::read_to_string(
            package_dir().join(format!("pinned/full/{workload}.seed0.txt")),
        )
        .unwrap();
        let pins =
            std::fs::read_to_string(package_dir().join(format!("pinned/full/{workload}.txt")))
                .unwrap();
        let pinned: Vec<&str> = pins
            .lines()
            .filter(|l| l.starts_with("0 "))
            .map(|l| l.split(' ').nth(2).unwrap())
            .collect();
        let mut blocks: Vec<(String, String)> = Vec::new();
        for line in dump.lines() {
            if let Some(header) = line.strip_prefix("## ") {
                let digest =
                    header.rsplit_once('[').unwrap().1.trim_end_matches(']').to_owned();
                blocks.push((digest, String::new()));
            } else {
                let text = &mut blocks.last_mut().expect("dump starts with a header").1;
                text.push_str(line);
                text.push('\n');
            }
        }
        assert_eq!(blocks.len(), pinned.len(), "{workload}");
        for ((digest, text), pin) in blocks.iter().zip(pinned) {
            assert_eq!(digest, pin, "{workload}");
            assert_eq!(&xp::hash::sha256_hex(text.as_bytes())[..16], pin, "{workload}");
        }
    }
}
