//! Traffic patterns and the Bernoulli injection process.

use rand::rngs::StdRng;
use rand::Rng;

use crate::flit::EndpointId;

/// Spatial traffic pattern: how destinations are drawn for each packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficPattern {
    /// Uniform random over all other endpoints (the paper's evaluation
    /// traffic).
    #[default]
    UniformRandom,
    /// Fixed permutation: endpoint `i` sends to `(i + E/2) mod E`
    /// (a bisection-stressing pattern akin to bit-complement).
    Complement,
    /// Endpoint `i` sends to `(i + k) mod E` where `k` is the number of
    /// endpoints per router — nearest-neighbour style, low path diversity.
    NeighborShift {
        /// Shift distance in endpoint ids.
        shift: usize,
    },
    /// Endpoint `i` sends to `E − 1 − i` (BookSim2's `bitcomp` generalised
    /// to arbitrary endpoint counts): every packet crosses the id-space
    /// midpoint, stressing the bisection deterministically.
    BitComplement,
    /// Endpoint `i` sends to the bit-reversal of `i` within
    /// `⌈log₂ E⌉` bits, folded into range with `mod E` (BookSim2's
    /// `bitrev`). Fixed points fall back to the successor endpoint.
    BitReverse,
    /// Endpoint `i` sends to `(i + ⌈E/2⌉ − 1) mod E` (the classic tornado
    /// pattern): near-maximal distance with a consistent rotational bias
    /// that defeats symmetric load balancing.
    Tornado,
    /// A fraction of traffic converges on a few hot endpoints; the rest is
    /// uniform random. Models shared-memory controllers or I/O chiplets on
    /// the arrangement perimeter drawing disproportionate traffic.
    Hotspot {
        /// Number of hot endpoints (ids `0..num_hotspots`).
        num_hotspots: usize,
        /// Share of packets directed at a hotspot, in permille (`0..=1000`).
        fraction_permille: u32,
    },
}

impl TrafficPattern {
    /// Canonical name, as accepted by the [`std::str::FromStr`] parser: `uniform`,
    /// `complement`, `shift:K`, `bitcomp`, `bitrev`, `tornado`,
    /// `hotspot:H:PERMILLE`. Round-trips through `parse`.
    #[must_use]
    pub fn name(&self) -> String {
        match *self {
            TrafficPattern::UniformRandom => "uniform".to_owned(),
            TrafficPattern::Complement => "complement".to_owned(),
            TrafficPattern::NeighborShift { shift } => format!("shift:{shift}"),
            TrafficPattern::BitComplement => "bitcomp".to_owned(),
            TrafficPattern::BitReverse => "bitrev".to_owned(),
            TrafficPattern::Tornado => "tornado".to_owned(),
            TrafficPattern::Hotspot { num_hotspots, fraction_permille } => {
                format!("hotspot:{num_hotspots}:{fraction_permille}")
            }
        }
    }

    /// Draws a destination for a packet from `src` among `num_endpoints`
    /// endpoints. Never returns `src` (self-traffic would not exercise the
    /// interconnect).
    ///
    /// # Panics
    ///
    /// Panics if `num_endpoints < 2`.
    pub fn destination(
        &self,
        src: EndpointId,
        num_endpoints: usize,
        rng: &mut StdRng,
    ) -> EndpointId {
        assert!(num_endpoints >= 2, "traffic requires at least two endpoints");
        match *self {
            TrafficPattern::UniformRandom => {
                let d = rng.gen_range(0..num_endpoints - 1);
                if d >= src {
                    d + 1
                } else {
                    d
                }
            }
            TrafficPattern::Complement => {
                let d = (src + num_endpoints / 2) % num_endpoints;
                if d == src {
                    (src + 1) % num_endpoints
                } else {
                    d
                }
            }
            TrafficPattern::NeighborShift { shift } => {
                let s = if shift % num_endpoints == 0 { 1 } else { shift % num_endpoints };
                (src + s) % num_endpoints
            }
            TrafficPattern::BitComplement => {
                let d = num_endpoints - 1 - src;
                if d == src {
                    (src + 1) % num_endpoints
                } else {
                    d
                }
            }
            TrafficPattern::BitReverse => {
                let bits = usize::BITS - (num_endpoints - 1).leading_zeros();
                let mut reversed = 0usize;
                for b in 0..bits {
                    if src & (1 << b) != 0 {
                        reversed |= 1 << (bits - 1 - b);
                    }
                }
                let d = reversed % num_endpoints;
                if d == src {
                    (src + 1) % num_endpoints
                } else {
                    d
                }
            }
            TrafficPattern::Tornado => {
                let half = num_endpoints.div_ceil(2);
                let d = (src + half.saturating_sub(1)) % num_endpoints;
                if d == src {
                    (src + 1) % num_endpoints
                } else {
                    d
                }
            }
            TrafficPattern::Hotspot { num_hotspots, fraction_permille } => {
                let hot = num_hotspots.clamp(1, num_endpoints - 1);
                let to_hotspot = rng.gen_range(0..1000) < fraction_permille.min(1000);
                if to_hotspot {
                    let d = rng.gen_range(0..hot);
                    if d == src {
                        // A hot endpoint never targets itself; redirect to
                        // the next hotspot (or the first non-hot endpoint
                        // when it is the only one).
                        if hot > 1 {
                            (d + 1) % hot
                        } else {
                            (d + 1) % num_endpoints
                        }
                    } else {
                        d
                    }
                } else {
                    let d = rng.gen_range(0..num_endpoints - 1);
                    if d >= src {
                        d + 1
                    } else {
                        d
                    }
                }
            }
        }
    }
}

impl std::str::FromStr for TrafficPattern {
    type Err = String;

    /// Parses the names produced by [`TrafficPattern::name`]. Parameterised
    /// patterns carry `:`-separated arguments: `shift:3`,
    /// `hotspot:4:500` (4 hot endpoints drawing 500‰ of the traffic).
    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let wants = |n: usize| -> Result<(), String> {
            if args.len() == n {
                Ok(())
            } else {
                Err(format!("pattern {head:?} takes {n} parameter(s), got {}", args.len()))
            }
        };
        match head {
            "uniform" => wants(0).map(|()| TrafficPattern::UniformRandom),
            "complement" => wants(0).map(|()| TrafficPattern::Complement),
            "bitcomp" => wants(0).map(|()| TrafficPattern::BitComplement),
            "bitrev" => wants(0).map(|()| TrafficPattern::BitReverse),
            "tornado" => wants(0).map(|()| TrafficPattern::Tornado),
            "shift" => {
                wants(1)?;
                let shift = args[0]
                    .parse()
                    .map_err(|_| format!("shift distance {:?} is not a number", args[0]))?;
                Ok(TrafficPattern::NeighborShift { shift })
            }
            "hotspot" => {
                wants(2)?;
                let num_hotspots: usize = args[0]
                    .parse()
                    .map_err(|_| format!("hotspot count {:?} is not a number", args[0]))?;
                let fraction_permille: u32 = args[1]
                    .parse()
                    .map_err(|_| format!("hotspot permille {:?} is not a number", args[1]))?;
                if fraction_permille > 1000 {
                    return Err(format!("hotspot permille {fraction_permille} exceeds 1000"));
                }
                Ok(TrafficPattern::Hotspot { num_hotspots, fraction_permille })
            }
            other => Err(format!(
                "unknown traffic pattern {other:?} (expected uniform|complement|shift:K|\
                 bitcomp|bitrev|tornado|hotspot:H:PERMILLE)"
            )),
        }
    }
}

/// The Bernoulli injection process (BookSim2's default): every cycle an
/// independent trial generates a packet with probability
/// [`InjectionProcess::packet_rate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionProcess {
    /// Offered load in flits per cycle per endpoint (`0.0..=1.0`).
    pub rate: f64,
    /// Packet length in flits (≥ 1).
    pub packet_size: usize,
}

/// Samples a Geometric(p) count over `{0, 1, 2, …}`: the number of failed
/// Bernoulli(p) trials before the first success. One RNG draw replaces the
/// whole run of per-cycle coin flips (inverse-CDF skip-ahead).
///
/// `p` must be in `(0, 1)`; callers special-case `p <= 0` (never fires)
/// and `p >= 1` (fires immediately).
fn geometric_skip(p: f64, rng: &mut StdRng) -> u64 {
    debug_assert!(p > 0.0 && p < 1.0);
    // 1 - u is in (0, 1], so ln(1 - u) is finite and <= 0.
    let u: f64 = rng.gen_range(0.0..1.0);
    let skip = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if skip >= u64::MAX as f64 {
        u64::MAX / 4 // effectively "never" at simulation time scales
    } else {
        skip as u64
    }
}

impl InjectionProcess {
    /// The process offering `rate` flits per cycle in packets of
    /// `packet_size` flits (the paper's configuration).
    #[must_use]
    pub fn bernoulli(rate: f64, packet_size: usize) -> Self {
        Self { rate, packet_size }
    }

    /// The per-cycle packet-generation probability implied by the flit
    /// `rate` and `packet_size`.
    #[must_use]
    pub fn packet_rate(&self) -> f64 {
        (self.rate / self.packet_size as f64).clamp(0.0, 1.0)
    }

    /// Samples the cycle of the next packet generation at or after `from`,
    /// or `None` if the process never fires (zero rate). One call replaces
    /// the per-cycle Bernoulli trials of every cycle in `from..=arrival` —
    /// the generation sequence has exactly the law of those per-cycle
    /// trials, but the simulator only touches the endpoint at arrival
    /// cycles.
    pub fn next_arrival(&self, from: u64, rng: &mut StdRng) -> Option<u64> {
        let p = self.packet_rate();
        if p <= 0.0 {
            return None;
        }
        if p >= 1.0 {
            return Some(from);
        }
        Some(from.saturating_add(geometric_skip(p, rng)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_never_self() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = TrafficPattern::UniformRandom.destination(3, 8, &mut rng);
            assert_ne!(d, 3);
            assert!(d < 8);
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[TrafficPattern::UniformRandom.destination(0, 6, &mut rng)] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
        assert!(!seen[0]);
    }

    #[test]
    fn complement_pairs_up() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(TrafficPattern::Complement.destination(1, 8, &mut rng), 5);
        assert_eq!(TrafficPattern::Complement.destination(5, 8, &mut rng), 1);
        // Degenerate 2-endpoint case still avoids self.
        assert_eq!(TrafficPattern::Complement.destination(0, 2, &mut rng), 1);
    }

    #[test]
    fn neighbor_shift_wraps_and_avoids_self() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = TrafficPattern::NeighborShift { shift: 2 };
        assert_eq!(p.destination(7, 8, &mut rng), 1);
        let degenerate = TrafficPattern::NeighborShift { shift: 8 };
        assert_eq!(degenerate.destination(0, 8, &mut rng), 1);
    }

    #[test]
    fn bit_complement_mirrors_id_space() {
        let mut rng = StdRng::seed_from_u64(40);
        assert_eq!(TrafficPattern::BitComplement.destination(0, 8, &mut rng), 7);
        assert_eq!(TrafficPattern::BitComplement.destination(7, 8, &mut rng), 0);
        assert_eq!(TrafficPattern::BitComplement.destination(2, 8, &mut rng), 5);
        // Odd endpoint count: the middle endpoint would map to itself.
        assert_eq!(TrafficPattern::BitComplement.destination(2, 5, &mut rng), 3);
    }

    #[test]
    fn bit_reverse_is_its_own_inverse_on_powers_of_two() {
        let mut rng = StdRng::seed_from_u64(41);
        let e = 16;
        for src in 0..e {
            let d = TrafficPattern::BitReverse.destination(src, e, &mut rng);
            assert!(d < e);
            assert_ne!(d, src);
            if TrafficPattern::BitReverse.destination(d, e, &mut rng) != src {
                // Only fixed points (palindromic ids) break the involution,
                // and those were redirected to src + 1.
                let redirected = (d + 1) % e == src || (src + 1) % e == d;
                assert!(redirected, "src {src} -> {d} not an involution");
            }
        }
        // 0b0001 (1) reversed in 4 bits is 0b1000 (8).
        assert_eq!(TrafficPattern::BitReverse.destination(1, 16, &mut rng), 8);
    }

    #[test]
    fn tornado_rotates_by_half() {
        let mut rng = StdRng::seed_from_u64(42);
        assert_eq!(TrafficPattern::Tornado.destination(0, 8, &mut rng), 3);
        assert_eq!(TrafficPattern::Tornado.destination(6, 8, &mut rng), 1);
        // Two endpoints: the half-rotation is a fixed point; fall back.
        assert_eq!(TrafficPattern::Tornado.destination(0, 2, &mut rng), 1);
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let mut rng = StdRng::seed_from_u64(43);
        let p = TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 800 };
        let mut hot_hits = 0;
        let trials = 10_000;
        for _ in 0..trials {
            let d = p.destination(9, 16, &mut rng);
            assert_ne!(d, 9);
            if d < 2 {
                hot_hits += 1;
            }
        }
        // 80% directed + a sliver of the uniform remainder.
        let share = hot_hits as f64 / trials as f64;
        assert!(share > 0.75 && share < 0.90, "hotspot share {share}");
    }

    #[test]
    fn hotspot_source_never_targets_itself() {
        let mut rng = StdRng::seed_from_u64(44);
        let p = TrafficPattern::Hotspot { num_hotspots: 3, fraction_permille: 1000 };
        for _ in 0..2_000 {
            assert_ne!(p.destination(1, 8, &mut rng), 1);
        }
        // Degenerate: a single hotspot sending to itself redirects outward.
        let solo = TrafficPattern::Hotspot { num_hotspots: 1, fraction_permille: 1000 };
        for _ in 0..100 {
            assert_ne!(solo.destination(0, 4, &mut rng), 0);
        }
    }

    #[test]
    fn all_patterns_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(45);
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Complement,
            TrafficPattern::NeighborShift { shift: 3 },
            TrafficPattern::BitComplement,
            TrafficPattern::BitReverse,
            TrafficPattern::Tornado,
            TrafficPattern::Hotspot { num_hotspots: 2, fraction_permille: 500 },
        ];
        for e in [2usize, 3, 5, 8, 13, 50] {
            for p in patterns {
                for src in 0..e {
                    for _ in 0..20 {
                        let d = p.destination(src, e, &mut rng);
                        assert!(d < e, "{p:?} E={e} src={src} -> {d}");
                        assert_ne!(d, src, "{p:?} E={e} self-traffic");
                    }
                }
            }
        }
    }

    /// All arrival cycles in `0..horizon` produced by skip-ahead sampling.
    fn arrivals(proc: &InjectionProcess, horizon: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut from = 0u64;
        while let Some(t) = proc.next_arrival(from, &mut rng) {
            if t >= horizon {
                break;
            }
            out.push(t);
            from = t + 1;
        }
        out
    }

    #[test]
    fn injection_rate_statistics() {
        let proc = InjectionProcess::bernoulli(0.4, 4);
        let trials = 200_000;
        let fires = arrivals(&proc, trials, 5).len();
        let expected = trials as f64 * 0.1;
        let tolerance = expected * 0.05;
        assert!(
            (fires as f64 - expected).abs() < tolerance,
            "fires {fires} vs expected {expected}"
        );
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_skip_ahead() {
        let proc = InjectionProcess::bernoulli(0.02, 4);
        let cycles = arrivals(&proc, 100_000, 17);
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        // Mean gap at packet rate 0.005 is 200 cycles: skip-ahead must
        // produce far fewer samples than cycles.
        assert!(cycles.len() < 1_000, "{} arrivals", cycles.len());
        assert!(cycles.len() > 200, "{} arrivals", cycles.len());
    }

    #[test]
    fn full_rate_fires_every_cycle() {
        let proc = InjectionProcess::bernoulli(1.0, 1);
        assert_eq!(arrivals(&proc, 50, 9), (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut rng = StdRng::seed_from_u64(6);
        let proc = InjectionProcess::bernoulli(0.0, 4);
        assert_eq!(proc.next_arrival(0, &mut rng), None);
    }
}
