//! The `study` binary's flag contract: axis overrides are validated like
//! a spec file before any job runs, so an invalid override exits 2 with
//! an `error:` line and writes nothing. Only analytic or rejected runs,
//! so the suite stays fast in debug builds.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `study FLAGS --out DIR` into a fresh temp directory.
fn study(tag: &str, flags: &[&str]) -> (Output, PathBuf) {
    let out = std::env::temp_dir().join(format!("study_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_study"))
        .args(flags)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("study binary runs");
    (output, out)
}

#[test]
fn invalid_overrides_exit_2_before_any_job_runs() {
    let cases: [&[&str]; 9] = [
        &["--preset", "load_curves", "--n", "0"],
        &["--preset", "load_curves", "--rates", "1.5"],
        &["--preset", "cost_model", "--ns", "9,16", "--n", "4"],
        &["--preset", "fig7_simulation", "--kinds", "hexamesh", "--ns", "9", "--quick"],
        &["--preset", "kite_comparison", "--ns", "20"],
        &["--preset", "thermal_comparison", "--kinds", "honeycomb"],
        // A repeated axis value would rank a kind against its own duplicate.
        &["--preset", "workload_comparison", "--ns", "7,7", "--quick"],
        &["--preset", "ablation_router", "--kinds", "hexamesh,grid", "--ns", "7,7", "--quick"],
        // Every job is allocated up front: an unbounded count aborts.
        &["--preset", "load_curves", "--seeds", "99999999999999"],
    ];
    for (i, flags) in cases.iter().enumerate() {
        let (output, out) = study(&format!("bad{i}"), flags);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{flags:?}: {stderr}");
        assert!(!out.exists(), "{flags:?} wrote into --out");
    }
}

#[test]
fn bad_sim_values_in_a_spec_exit_2_before_any_job_runs() {
    let cases = [
        ("load_curve", "vcs = 0"),
        ("load_curve", "vcs = 1"),
        ("saturation", "buffer_depth = 0"),
        ("router", "buffer_depth = 1"),
    ];
    for (i, (stage, sim)) in cases.iter().enumerate() {
        let spec = std::env::temp_dir()
            .join(format!("study_cli_badsim{i}_{}.toml", std::process::id()));
        let axes = "[axes]\nkinds = [\"hexamesh\"]\nns = [4]\n";
        std::fs::write(
            &spec,
            format!("name = \"bad\"\nstage = \"{stage}\"\n{axes}[sim]\n{sim}\n"),
        )
        .expect("spec written");
        let flags = ["--spec", spec.to_str().unwrap(), "--quick"];
        let (output, out) = study(&format!("badsim{i}"), &flags);
        let _ = std::fs::remove_file(&spec);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{stage} {sim}: {stderr}");
        assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{stage} {sim}: {stderr}");
        assert!(!out.exists(), "{stage} {sim} wrote into --out");
    }
}

#[test]
fn a_valid_override_runs_only_the_requested_counts() {
    let (output, out) = study("cost", &["--preset", "cost_model", "--ns", "4"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let csv = std::fs::read_to_string(out.join("cost_model.csv")).expect("cost table");
    let rows: Vec<&str> = csv.lines().skip(1).collect();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|row| row.split(',').nth(1) == Some("4")), "{csv}");
    let _ = std::fs::remove_dir_all(&out);
}
