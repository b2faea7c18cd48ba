//! Eye-diagram budget: from channel loss and coupling to eye height and BER.
//!
//! The budget follows standard unequalized-receiver link analysis:
//!
//! 1. the transmit swing is attenuated by the channel's insertion loss;
//! 2. inter-symbol interference closes a fraction of the *received* eye
//!    proportional to the wire loss at Nyquist (a lossy, unequalized channel
//!    smears each bit into its successors);
//! 3. crosstalk from neighbouring wires closes an amplitude slice
//!    proportional to the *transmit* swing of the aggressors;
//! 4. what remains is compared against Gaussian noise to yield the BER.

use std::fmt;

use crate::ber;
use crate::crosstalk;
use crate::loss;
use crate::tech::Technology;

/// Line modulation of the D2D link.
///
/// USR links overwhelmingly use NRZ (UCIe, BoW); PAM4 halves the Nyquist
/// frequency for the same bit rate — attractive on lossy channels — but
/// splits the received swing across three stacked eyes (a ~9.5 dB SNR
/// penalty). Whether that trade ever pays within D2D reach is exactly the
/// kind of question this model answers (see
/// [`crate::capacity::best_modulation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modulation {
    /// Two-level signalling: Nyquist = bit rate / 2, one full-swing eye.
    #[default]
    Nrz,
    /// Four-level signalling: Nyquist = bit rate / 4, three stacked eyes
    /// each one third of the received swing.
    Pam4,
}

impl Modulation {
    /// Nyquist frequency in GHz for a per-wire bit rate in Gb/s.
    #[must_use]
    pub fn nyquist_ghz(&self, bit_rate_gbps: f64) -> f64 {
        match self {
            Modulation::Nrz => bit_rate_gbps / 2.0,
            Modulation::Pam4 => bit_rate_gbps / 4.0,
        }
    }

    /// Number of stacked eyes the received swing is divided across.
    #[must_use]
    pub fn eye_divisor(&self) -> f64 {
        match self {
            Modulation::Nrz => 1.0,
            Modulation::Pam4 => 3.0,
        }
    }
}

/// Electrical budget of the transceiver pair, independent of the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalBudget {
    /// Transmit swing in volts (peak-to-peak differential or single-ended
    /// full swing, as long as it is consistent with the noise sigma).
    pub tx_swing_v: f64,
    /// Input-referred Gaussian noise sigma at the receiver, in volts
    /// (thermal noise, supply noise, and timing jitter folded in).
    pub rx_noise_sigma_v: f64,
    /// Fraction of the received eye closed by ISI per 10 dB of *wire* loss
    /// at Nyquist (unequalized receivers; 0 disables ISI modelling).
    pub isi_fraction_per_10db: f64,
}

impl SignalBudget {
    /// UCIe-class defaults: 0.4 V swing, 8 mV noise sigma, 50% eye closure
    /// per 10 dB of unequalized wire loss.
    #[must_use]
    pub fn new() -> Self {
        Self { tx_swing_v: 0.4, rx_noise_sigma_v: 0.008, isi_fraction_per_10db: 0.5 }
    }
}

impl Default for SignalBudget {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of an eye analysis at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeAnalysis {
    /// Per-wire bit rate under analysis, in Gb/s.
    pub bit_rate_gbps: f64,
    /// Link length in mm.
    pub length_mm: f64,
    /// Total insertion loss at Nyquist, in dB.
    pub insertion_loss_db: f64,
    /// Received signal swing after channel loss, in volts.
    pub received_swing_v: f64,
    /// Eye closure due to inter-symbol interference, in volts.
    pub isi_closure_v: f64,
    /// Eye closure due to worst-case aggressor crosstalk, in volts.
    pub crosstalk_closure_v: f64,
    /// Remaining vertical eye opening, in volts (≥ 0).
    pub eye_height_v: f64,
    /// The Q-function argument `eye/2σ`.
    pub q_argument: f64,
    /// `log₁₀` of the estimated bit error rate.
    pub log10_ber: f64,
}

impl EyeAnalysis {
    /// `true` if the link meets the given BER target (e.g. `-15.0`).
    #[must_use]
    pub fn meets(&self, log10_ber_target: f64) -> bool {
        self.log10_ber <= log10_ber_target
    }
}

impl fmt::Display for EyeAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} Gb/s over {:.2} mm: IL {:.2} dB, eye {:.1} mV, log10(BER) {:.1}",
            self.bit_rate_gbps,
            self.length_mm,
            self.insertion_loss_db,
            self.eye_height_v * 1e3,
            self.log10_ber
        )
    }
}

/// Analyzes the eye of a link of `length_mm` carrying `bit_rate_gbps` per
/// wire (NRZ: Nyquist = bit rate / 2) over the given technology.
///
/// This adopts the paper's §V convention that a link "operated at `f` GHz"
/// carries `f` Gb/s per data wire, so passing the paper's 16 GHz operating
/// point means a 16 Gb/s wire evaluated at an 8 GHz Nyquist.
#[must_use]
pub fn analyze(
    tech: &Technology,
    budget: &SignalBudget,
    bit_rate_gbps: f64,
    length_mm: f64,
) -> EyeAnalysis {
    analyze_with_modulation(tech, budget, bit_rate_gbps, length_mm, Modulation::Nrz)
}

/// [`analyze`] under an explicit line modulation: PAM4 halves the Nyquist
/// frequency (less channel loss) but divides the surviving eye by three.
#[must_use]
pub fn analyze_with_modulation(
    tech: &Technology,
    budget: &SignalBudget,
    bit_rate_gbps: f64,
    length_mm: f64,
    modulation: Modulation,
) -> EyeAnalysis {
    let nyquist = modulation.nyquist_ghz(bit_rate_gbps);
    let il_db = loss::insertion_loss_db(tech, nyquist, length_mm);
    let wire_db = loss::wire_loss_db(tech, nyquist, length_mm);
    let received = budget.tx_swing_v * loss::amplitude_ratio(il_db);
    let isi = received * (budget.isi_fraction_per_10db * wire_db / 10.0).clamp(0.0, 1.0);
    let xt = budget.tx_swing_v * crosstalk::total_ratio(tech, nyquist, length_mm);
    let eye = ((received - isi - xt) / modulation.eye_divisor()).max(0.0);
    let q_arg = if budget.rx_noise_sigma_v > 0.0 {
        eye / (2.0 * budget.rx_noise_sigma_v)
    } else if eye > 0.0 {
        f64::INFINITY // noiseless with an open eye: error free
    } else {
        0.0 // closed eye: a coin flip regardless of noise
    };
    let log10_ber = if q_arg.is_finite() { ber::log10_q(q_arg) } else { f64::NEG_INFINITY };
    EyeAnalysis {
        bit_rate_gbps,
        length_mm,
        insertion_loss_db: il_db,
        received_swing_v: received,
        isi_closure_v: isi,
        crosstalk_closure_v: xt,
        eye_height_v: eye,
        q_argument: q_arg,
        log10_ber,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_links_are_clean() {
        let sub = Technology::organic_substrate();
        let b = SignalBudget::default();
        let a = analyze(&sub, &b, 16.0, 1.0);
        assert!(a.log10_ber < -15.0, "{a}");
        assert!(a.eye_height_v > 0.15);
    }

    #[test]
    fn eye_shrinks_with_length() {
        let int = Technology::silicon_interposer();
        let b = SignalBudget::default();
        let mut last_eye = f64::INFINITY;
        for l in [0.5, 1.0, 2.0, 3.0, 5.0] {
            let a = analyze(&int, &b, 16.0, l);
            assert!(a.eye_height_v < last_eye, "eye not shrinking at {l} mm");
            last_eye = a.eye_height_v;
        }
    }

    #[test]
    fn eye_shrinks_with_bit_rate() {
        let sub = Technology::organic_substrate();
        let b = SignalBudget::default();
        let slow = analyze(&sub, &b, 8.0, 3.0);
        let fast = analyze(&sub, &b, 32.0, 3.0);
        assert!(fast.eye_height_v < slow.eye_height_v);
        assert!(fast.log10_ber > slow.log10_ber);
    }

    #[test]
    fn eye_never_negative() {
        let int = Technology::silicon_interposer();
        let b = SignalBudget::default();
        let a = analyze(&int, &b, 64.0, 50.0);
        assert_eq!(a.eye_height_v, 0.0);
        // A fully closed eye is a coin flip: Q(0) = 0.5.
        assert!((a.log10_ber - 0.5_f64.log10()).abs() < 1e-9, "{}", a.log10_ber);
    }

    #[test]
    fn paper_calibration_substrate_reaches_4mm() {
        // §V: adjacent-chiplet links are "below 4 mm in general" — the
        // substrate preset must carry the paper's 16 Gb/s at 4 mm.
        let sub = Technology::organic_substrate();
        let a = analyze(&sub, &SignalBudget::default(), 16.0, 4.0);
        assert!(a.meets(-15.0), "4 mm substrate link fails: {a}");
        // ... but not at 6 mm: the reach limit is real.
        let far = analyze(&sub, &SignalBudget::default(), 16.0, 6.0);
        assert!(!far.meets(-15.0), "6 mm substrate link unrealistically clean: {far}");
    }

    #[test]
    fn paper_calibration_interposer_reaches_2mm() {
        // §II: interposer links must stay ≤ 2 mm (UCIe) at full rate.
        let int = Technology::silicon_interposer();
        let a = analyze(&int, &SignalBudget::default(), 16.0, 2.0);
        assert!(a.meets(-15.0), "2 mm interposer link fails: {a}");
        let far = analyze(&int, &SignalBudget::default(), 16.0, 3.0);
        assert!(!far.meets(-15.0), "3 mm interposer link unrealistically clean: {far}");
    }

    #[test]
    fn pam4_halves_nyquist_and_splits_the_eye() {
        let sub = Technology::organic_substrate();
        let b = SignalBudget::default();
        let nrz = analyze_with_modulation(&sub, &b, 16.0, 2.0, Modulation::Nrz);
        let pam4 = analyze_with_modulation(&sub, &b, 16.0, 2.0, Modulation::Pam4);
        // Less channel loss at the lower Nyquist...
        assert!(pam4.insertion_loss_db < nrz.insertion_loss_db);
        assert!(pam4.received_swing_v > nrz.received_swing_v);
        // ...but the 3-way eye split costs more than the loss saves at
        // D2D lengths.
        assert!(pam4.eye_height_v < nrz.eye_height_v);
        assert!(pam4.log10_ber > nrz.log10_ber);
    }

    #[test]
    fn nrz_dominates_within_usr_reach() {
        // The honest engineering conclusion (and the reason UCIe/BoW are
        // NRZ): everywhere NRZ meets the BER target, the PAM4 eye split
        // (~9.5 dB) outweighs its loss savings. (On channels dead for
        // both — far past reach — PAM4's lower loss *does* lead, which is
        // why long-haul SerDes are PAM4; the crossover lies beyond any
        // feasible USR operating point.)
        let b = SignalBudget::default();
        let mut feasible_points = 0;
        for tech in [Technology::organic_substrate(), Technology::silicon_interposer()] {
            for rate in [8.0, 16.0, 32.0] {
                for length in [0.5, 1.0, 2.0, 4.0] {
                    let nrz = analyze_with_modulation(&tech, &b, rate, length, Modulation::Nrz);
                    if !nrz.meets(-15.0) {
                        continue; // outside the feasible envelope
                    }
                    feasible_points += 1;
                    let pam4 =
                        analyze_with_modulation(&tech, &b, rate, length, Modulation::Pam4);
                    assert!(
                        nrz.log10_ber <= pam4.log10_ber + 1e-9,
                        "{} at {rate} Gb/s, {length} mm: NRZ {} vs PAM4 {}",
                        tech.name,
                        nrz.log10_ber,
                        pam4.log10_ber
                    );
                }
            }
        }
        assert!(feasible_points >= 8, "envelope too small to claim dominance");
    }

    #[test]
    fn pam4_penalty_shrinks_with_length() {
        // The loss-slope advantage grows with length: the BER *gap*
        // between modulations narrows as the channel gets longer (PAM4
        // would win where the wire loss difference exceeds ~9.5 dB, which
        // lies beyond any feasible USR reach for these technologies).
        let int = Technology::silicon_interposer();
        let b = SignalBudget::default();
        let gap = |l: f64| {
            let nrz = analyze_with_modulation(&int, &b, 16.0, l, Modulation::Nrz);
            let pam4 = analyze_with_modulation(&int, &b, 16.0, l, Modulation::Pam4);
            pam4.q_argument / nrz.q_argument.max(1e-12)
        };
        // The PAM4/NRZ eye ratio improves monotonically with length.
        assert!(gap(3.0) > gap(1.0), "gap(3mm) {} !> gap(1mm) {}", gap(3.0), gap(1.0));
    }

    #[test]
    fn budget_components_sum_consistently() {
        let sub = Technology::organic_substrate();
        let b = SignalBudget::default();
        let a = analyze(&sub, &b, 16.0, 2.5);
        let reconstructed = a.received_swing_v - a.isi_closure_v - a.crosstalk_closure_v;
        assert!((a.eye_height_v - reconstructed.max(0.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_noise_gives_error_free_open_eye() {
        let sub = Technology::organic_substrate();
        let b = SignalBudget { rx_noise_sigma_v: 0.0, ..SignalBudget::default() };
        let a = analyze(&sub, &b, 16.0, 1.0);
        assert_eq!(a.log10_ber, f64::NEG_INFINITY);
    }

    #[test]
    fn display_is_informative() {
        let a = analyze(&Technology::organic_substrate(), &SignalBudget::default(), 16.0, 2.0);
        let s = a.to_string();
        assert!(s.contains("Gb/s") && s.contains("mm") && s.contains("dB"), "{s}");
    }
}
