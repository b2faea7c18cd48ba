//! Statistical pinning of the traffic-pattern destination laws.
//!
//! Workload-vs-pattern comparisons (the `workload_comparison` study
//! against `ablation_traffic`/`load_curves`) only mean something if the
//! synthetic generators draw from the distributions they claim. This
//! suite pins them:
//!
//! * **uniform** — chi-square goodness-of-fit against the uniform law
//!   over the `E − 1` non-self destinations;
//! * **hotspot** — chi-square against the exact mixture law
//!   `P(hot) = f/H + (1−f)/(E−1)`, `P(cold) = (1−f)/(E−1)`;
//! * **deterministic permutations** (complement, bitcomp, tornado,
//!   shift) — exact-count: every draw lands on the single analytic
//!   destination.
//!
//! Seeds are fixed, so the chi-square statistics are exact reproducible
//! numbers, not flaky samples; thresholds are the α = 0.001 quantiles,
//! far above any healthy generator's statistic.

use rand::rngs::StdRng;
use rand::SeedableRng;

use nocsim::TrafficPattern;

/// Draws `trials` destinations from `src` and returns per-destination
/// counts (index = endpoint id; `counts[src]` must stay 0).
fn destination_counts(
    pattern: TrafficPattern,
    src: usize,
    num_endpoints: usize,
    trials: u64,
    seed: u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0u64; num_endpoints];
    for _ in 0..trials {
        counts[pattern.destination(src, num_endpoints, &mut rng)] += 1;
    }
    counts
}

/// Pearson's chi-square statistic of `counts` against `expected`
/// (absolute counts; zero-expectation cells must have zero observations).
fn chi_square(counts: &[u64], expected: &[f64]) -> f64 {
    assert_eq!(counts.len(), expected.len());
    counts
        .iter()
        .zip(expected)
        .map(|(&obs, &exp)| {
            if exp == 0.0 {
                assert_eq!(obs, 0, "observation in a zero-probability cell");
                0.0
            } else {
                let d = obs as f64 - exp;
                d * d / exp
            }
        })
        .sum()
}

#[test]
fn uniform_destinations_are_uniform() {
    // E = 12, src = 5: 11 equiprobable destinations, 10 degrees of
    // freedom. χ²(10) at α = 0.001 is 29.59.
    let (e, src, trials) = (12usize, 5usize, 40_000u64);
    let counts = destination_counts(TrafficPattern::UniformRandom, src, e, trials, 0xC0FFEE);
    assert_eq!(counts[src], 0, "uniform drew self-traffic");
    let mut expected = vec![trials as f64 / (e - 1) as f64; e];
    expected[src] = 0.0;
    let chi2 = chi_square(&counts, &expected);
    assert!(chi2 < 29.59, "uniform destination law rejected: chi2 = {chi2:.2}");
}

#[test]
fn uniform_is_uniform_from_every_source() {
    // The off-by-one reindexing around `src` must not bias any source's
    // view. χ²(6) at α = 0.001 is 22.46.
    let (e, trials) = (8usize, 20_000u64);
    for src in 0..e {
        let counts =
            destination_counts(TrafficPattern::UniformRandom, src, e, trials, 7 + src as u64);
        let mut expected = vec![trials as f64 / (e - 1) as f64; e];
        expected[src] = 0.0;
        let chi2 = chi_square(&counts, &expected);
        assert!(chi2 < 22.46, "src {src}: chi2 = {chi2:.2}");
    }
}

#[test]
fn hotspot_matches_the_mixture_law() {
    // E = 16, H = 2, f = 0.8, src = 9 (cold): each hot endpoint gets
    // f/H + (1−f)/(E−1), each cold one (1−f)/(E−1). 14 degrees of
    // freedom; χ²(14) at α = 0.001 is 36.12.
    let (e, src, trials) = (16usize, 9usize, 60_000u64);
    let pattern = TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 800 };
    let counts = destination_counts(pattern, src, e, trials, 0xDEAD);
    assert_eq!(counts[src], 0, "hotspot drew self-traffic");
    let (f, h) = (0.8, 2.0);
    let uniform_share = (1.0 - f) / (e - 1) as f64;
    let mut expected = vec![trials as f64 * uniform_share; e];
    expected[0] = trials as f64 * (f / h + uniform_share);
    expected[1] = trials as f64 * (f / h + uniform_share);
    expected[src] = 0.0;
    let chi2 = chi_square(&counts, &expected);
    assert!(chi2 < 36.12, "hotspot mixture law rejected: chi2 = {chi2:.2}");
}

#[test]
fn hotspot_full_direction_splits_hotspots_evenly() {
    // f = 1.0 from a cold source: all mass on the hotspots, uniform
    // among them. χ²(3) at α = 0.001 is 16.27.
    let (e, src, trials) = (12usize, 11usize, 40_000u64);
    let pattern = TrafficPattern::Hotspot { num_hotspots: 4, fraction_permille: 1000 };
    let counts = destination_counts(pattern, src, e, trials, 0xF00D);
    assert_eq!(counts[4..].iter().sum::<u64>(), 0, "directed traffic leaked off-hotspot");
    let mut expected = vec![0.0; e];
    for cell in expected.iter_mut().take(4) {
        *cell = trials as f64 / 4.0;
    }
    let chi2 = chi_square(&counts[..4], &expected[..4]);
    assert!(chi2 < 16.27, "within-hotspot law rejected: chi2 = {chi2:.2}");
}

/// The analytic destination law of a deterministic pattern.
type DestLaw = fn(usize, usize) -> usize;

#[test]
fn deterministic_patterns_hit_their_analytic_destination_exactly() {
    // Exact-count: a permutation pattern puts every draw on one endpoint.
    let e = 10usize;
    let cases: [(TrafficPattern, DestLaw); 4] = [
        (TrafficPattern::Complement, |src, e| (src + e / 2) % e),
        (TrafficPattern::BitComplement, |src, e| e - 1 - src),
        (TrafficPattern::Tornado, |src, e| (src + e.div_ceil(2) - 1) % e),
        (TrafficPattern::NeighborShift { shift: 3 }, |src, _| (src + 3) % 10),
    ];
    for (pattern, law) in cases {
        for src in 0..e {
            let counts = destination_counts(pattern, src, e, 50, 1);
            let mut want = law(src, e);
            if want == src {
                want = (src + 1) % e; // the documented self-traffic fallback
            }
            assert_eq!(
                counts[want], 50,
                "{pattern:?} from {src}: expected all 50 draws on {want}, got {counts:?}"
            );
        }
    }
}
