//! The shared command-line layer of every experiment binary.
//!
//! Flag values are parsed *strictly*: a malformed value (`--n abc`) aborts
//! with a clear message instead of silently falling back to the default
//! and running the wrong experiment. The `try_*` variants return errors
//! for testability; the plain variants abort the process.

use std::path::PathBuf;
use std::str::FromStr;

/// Which sinks a campaign writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// CSV table only (the historical output).
    Csv,
    /// JSON campaign file only.
    Json,
    /// Both sinks (the default).
    Both,
}

impl OutputFormat {
    /// `true` if a CSV table should be written.
    #[must_use]
    pub fn wants_csv(self) -> bool {
        matches!(self, OutputFormat::Csv | OutputFormat::Both)
    }

    /// `true` if a JSON campaign file should be written.
    #[must_use]
    pub fn wants_json(self) -> bool {
        matches!(self, OutputFormat::Json | OutputFormat::Both)
    }

    /// Lower-case name, as accepted by `--format`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OutputFormat::Csv => "csv",
            OutputFormat::Json => "json",
            OutputFormat::Both => "both",
        }
    }
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "csv" => Ok(OutputFormat::Csv),
            "json" => Ok(OutputFormat::Json),
            "both" => Ok(OutputFormat::Both),
            other => Err(format!("expected csv|json|both, got {other:?}")),
        }
    }
}

impl std::fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The flags [`CampaignArgs::parse`] consumes — every engine binary
/// accepts these on top of its own. [`with_shared`] builds the allow-list
/// for [`reject_unknown_flags`].
pub const SHARED_FLAGS: [&str; 8] =
    ["--workers", "--seeds", "--quick", "--full", "--out", "--format", "--seed", "--progress"];

/// The shared campaign flags plus a binary's own flags, for
/// [`reject_unknown_flags`].
#[must_use]
pub fn with_shared<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    SHARED_FLAGS.iter().copied().chain(extra.iter().copied()).collect()
}

/// The first `--flag` token in `args` that is not in `allowed`, if any.
///
/// Only `--`-prefixed tokens are inspected: flag *values* (including
/// negative numbers and comma lists) never start with `--`, and
/// [`try_arg_value`] already rejects a flag directly followed by another
/// flag.
#[must_use]
pub fn unknown_flag<'a>(args: &'a [String], allowed: &[&str]) -> Option<&'a str> {
    args.iter()
        .skip(1) // args[0] is the binary path
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !allowed.contains(a))
}

/// Aborts with a clear message if `args` carries a flag outside `allowed`
/// (the strict-CLI convention, extended to flag *names*: an unknown flag
/// is a typo or a feature this binary does not have, and silently
/// ignoring it runs the wrong experiment). Engine binaries pass
/// [`with_shared`]`(&["--their", "--flags"])`; analytic binaries that
/// take no flags pass `&[]`.
pub fn reject_unknown_flags(args: &[String], allowed: &[&str]) {
    if let Some(flag) = unknown_flag(args, allowed) {
        let mut sorted: Vec<&str> = allowed.to_vec();
        sorted.sort_unstable();
        die(&format!(
            "unknown flag {flag} (this binary accepts: {})",
            if sorted.is_empty() { "no flags".to_owned() } else { sorted.join(" ") }
        ));
    }
}

/// Prints `error: <msg>` and exits with status 2.
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The raw value following `--flag`, if the flag is present.
///
/// A flag at the end of the argument list (or followed by another flag)
/// is an error: the caller asked for a value-carrying flag.
///
/// # Errors
///
/// Returns a message naming the flag when its value is missing.
pub fn try_arg_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{flag} needs a value")),
    }
}

/// Parses the value following `--flag` as a `T`, defaulting when absent.
///
/// # Errors
///
/// Returns a message naming the flag and the offending value when the
/// value is missing or unparsable.
pub fn try_arg<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match try_arg_value(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a {}, got {v:?}", std::any::type_name::<T>())),
    }
}

/// Parses `--flag value` as a `usize`; aborts on a malformed value.
#[must_use]
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    try_arg(args, flag, default).unwrap_or_else(|e| die(&e))
}

/// Parses `--flag value` as a `u64`; aborts on a malformed value.
#[must_use]
pub fn arg_u64(args: &[String], flag: &str, default: u64) -> u64 {
    try_arg(args, flag, default).unwrap_or_else(|e| die(&e))
}

/// `true` if `--flag` is present.
#[must_use]
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--flag a,b,c` as a comma-separated list of `T`s, or `None`
/// when the flag is absent. The shared list-flag layer behind
/// `--patterns` / `--workloads`: every experiment binary sweeping a
/// name-typed axis parses it through here, so list syntax and error
/// behaviour stay uniform.
///
/// # Errors
///
/// A missing value, an empty list, or any unparsable element is an
/// error naming the flag and the offending element (strict-CLI
/// convention: never fall back to a default on malformed input).
pub fn try_arg_list<T>(args: &[String], flag: &str) -> Result<Option<Vec<T>>, String>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let Some(raw) = try_arg_value(args, flag)? else {
        return Ok(None);
    };
    let items: Vec<&str> = raw.split(',').collect();
    if items.iter().any(|s| s.is_empty()) {
        return Err(format!("{flag} has an empty element in {raw:?}"));
    }
    items
        .into_iter()
        .map(|s| s.parse().map_err(|e| format!("{flag}: {e}")))
        .collect::<Result<Vec<T>, String>>()
        .map(Some)
}

/// Parses `--flag a,b,c` as a list of `T`s, defaulting when absent;
/// aborts on malformed input (see [`try_arg_list`]).
#[must_use]
pub fn arg_list<T>(args: &[String], flag: &str, default: &[T]) -> Vec<T>
where
    T: FromStr + Clone,
    T::Err: std::fmt::Display,
{
    match try_arg_list(args, flag) {
        Ok(Some(list)) => list,
        Ok(None) => default.to_vec(),
        Err(e) => die(&e),
    }
}

/// The most replicate seeds per cell that `--seeds` and a spec's
/// `replicates` accept. Every job is allocated up front, so an unbounded
/// count would abort the process (and `study serve` with it) before a
/// single job ran.
pub const MAX_REPLICATES: u64 = 1_000;

/// The flags shared by every campaign binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArgs {
    /// Worker threads (`--workers`, default: available parallelism).
    pub workers: usize,
    /// Replicate seeds per grid point (`--seeds`, default 1).
    pub seeds: u64,
    /// Short measurement windows (`--quick`).
    pub quick: bool,
    /// Paper-scale measurement windows (`--full`); mutually exclusive
    /// with `--quick`. When neither is given, each stage keeps its own
    /// historical windows ([`crate::flow::resolved`]).
    pub full: bool,
    /// Output directory (`--out`, default `results`).
    pub out: PathBuf,
    /// Which sinks to write (`--format csv|json|both`, default both).
    pub format: OutputFormat,
    /// Campaign master seed (`--seed`, default the simulator's paper
    /// seed) from which every job seed is derived.
    pub campaign_seed: u64,
    /// Per-job completion lines on stderr (`--progress`, off by
    /// default). Never touches stdout, so golden CSV output stays
    /// byte-identical.
    pub progress: bool,
}

impl CampaignArgs {
    /// Parses the shared flags, aborting with a clear message on
    /// malformed values or conflicting flags.
    #[must_use]
    pub fn parse(args: &[String]) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| die(&e))
    }

    /// [`CampaignArgs::parse`] returning errors instead of aborting.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed or conflicting
    /// flag.
    pub fn try_parse(args: &[String]) -> Result<Self, String> {
        let default_workers =
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        let workers = try_arg(args, "--workers", default_workers)?;
        if workers == 0 {
            return Err("--workers must be at least 1".to_owned());
        }
        let seeds = try_arg(args, "--seeds", 1u64)?;
        if !(1..=MAX_REPLICATES).contains(&seeds) {
            return Err(format!("--seeds must be between 1 and {MAX_REPLICATES}"));
        }
        let quick = arg_flag(args, "--quick");
        let full = arg_flag(args, "--full");
        if quick && full {
            return Err("--quick and --full are mutually exclusive".to_owned());
        }
        let out = PathBuf::from(try_arg_value(args, "--out")?.unwrap_or("results").to_owned());
        let format = try_arg(args, "--format", OutputFormat::Both)?;
        let campaign_seed = try_arg(args, "--seed", 0xD2D_11CC)?;
        let progress = arg_flag(args, "--progress");
        Ok(Self { workers, seeds, quick, full, out, format, campaign_seed, progress })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults_when_flags_absent() {
        let a = args(&["bin"]);
        assert_eq!(arg_usize(&a, "--n", 37), 37);
        assert_eq!(try_arg(&a, "--rate", 0.1), Ok(0.1));
        assert!(!arg_flag(&a, "--quick"));
        let c = CampaignArgs::try_parse(&a).unwrap();
        assert_eq!(c.seeds, 1);
        assert!(c.workers >= 1);
        assert_eq!(c.format, OutputFormat::Both);
        assert_eq!(c.out, PathBuf::from("results"));
        assert!(!c.progress, "--progress is off by default");
        let c = CampaignArgs::try_parse(&args(&["bin", "--progress"])).unwrap();
        assert!(c.progress);
    }

    #[test]
    fn values_parse() {
        let a = args(&["--n", "64", "--rate", "0.25", "--seeds", "5"]);
        assert_eq!(arg_usize(&a, "--n", 1), 64);
        assert_eq!(try_arg(&a, "--rate", 0.0), Ok(0.25));
        assert_eq!(CampaignArgs::try_parse(&a).unwrap().seeds, 5);
    }

    #[test]
    fn malformed_values_are_errors_not_defaults() {
        let a = args(&["--n", "abc"]);
        assert!(try_arg::<usize>(&a, "--n", 7).is_err());
        let a = args(&["--workers", "0"]);
        assert!(CampaignArgs::try_parse(&a).is_err());
        let a = args(&["--seeds", "-3"]);
        assert!(CampaignArgs::try_parse(&a).is_err());
        let a = args(&["--seeds", "1001"]);
        assert!(CampaignArgs::try_parse(&a).is_err(), "above MAX_REPLICATES");
        assert!(CampaignArgs::try_parse(&args(&["--seeds", "1000"])).is_ok());
        let a = args(&["--format", "xml"]);
        assert!(CampaignArgs::try_parse(&a).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let a = args(&["--n"]);
        assert!(try_arg::<usize>(&a, "--n", 7).is_err());
        let a = args(&["--n", "--quick"]);
        assert!(try_arg::<usize>(&a, "--n", 7).is_err());
    }

    #[test]
    fn quick_full_conflict() {
        let a = args(&["--quick", "--full"]);
        assert!(CampaignArgs::try_parse(&a).is_err());
    }

    #[test]
    fn list_flags_parse_and_default() {
        let a = args(&["--ns", "37,61,91"]);
        assert_eq!(arg_list::<usize>(&a, "--ns", &[7]), vec![37, 61, 91]);
        assert_eq!(arg_list::<usize>(&a, "--other", &[7]), vec![7]);
        let single = args(&["--ns", "5"]);
        assert_eq!(arg_list::<usize>(&single, "--ns", &[7]), vec![5]);
    }

    #[test]
    fn malformed_list_elements_are_errors() {
        let a = args(&["--ns", "37,banana"]);
        assert!(try_arg_list::<usize>(&a, "--ns").is_err());
        let a = args(&["--ns", "37,,61"]);
        assert!(try_arg_list::<usize>(&a, "--ns").is_err());
        let a = args(&["--ns"]);
        assert!(try_arg_list::<usize>(&a, "--ns").is_err());
    }

    #[test]
    fn pattern_and_workload_lists_parse_through_the_shared_layer() {
        use chiplet_workload::WorkloadKind;
        use nocsim::TrafficPattern;
        let a = args(&["--patterns", "uniform,hotspot:4:500", "--workloads", "stencil"]);
        assert_eq!(
            arg_list::<TrafficPattern>(&a, "--patterns", &[]),
            vec![
                TrafficPattern::UniformRandom,
                TrafficPattern::Hotspot { num_hotspots: 4, fraction_permille: 500 }
            ]
        );
        assert_eq!(
            arg_list::<WorkloadKind>(&a, "--workloads", &[]),
            vec![WorkloadKind::Stencil]
        );
        let bad = args(&["--patterns", "uniform,random_walk"]);
        assert!(try_arg_list::<TrafficPattern>(&bad, "--patterns").is_err());
    }

    #[test]
    fn unknown_flags_are_detected() {
        let a = args(&["bin", "--n", "37", "--quick", "--typo", "x"]);
        assert_eq!(unknown_flag(&a, &with_shared(&["--n"])), Some("--typo"));
        assert_eq!(unknown_flag(&a, &with_shared(&["--n", "--typo"])), None);
        // Values (even negative or comma-listed ones) are never flags.
        let a = args(&["bin", "--shift", "-3", "--patterns", "uniform,tornado"]);
        assert_eq!(unknown_flag(&a, &["--shift", "--patterns"]), None);
        // args[0] (the binary path) is exempt.
        let a = args(&["--weird-binary-name"]);
        assert_eq!(unknown_flag(&a, &[]), None);
    }

    #[test]
    fn format_round_trips() {
        for f in [OutputFormat::Csv, OutputFormat::Json, OutputFormat::Both] {
            assert_eq!(f.label().parse::<OutputFormat>().unwrap(), f);
            assert_eq!(f.to_string().parse::<OutputFormat>().unwrap(), f);
        }
        assert!(OutputFormat::Csv.wants_csv() && !OutputFormat::Csv.wants_json());
        assert!(OutputFormat::Both.wants_csv() && OutputFormat::Both.wants_json());
    }
}
