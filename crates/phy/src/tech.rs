//! Wiring-technology presets for D2D link channels.
//!
//! §II of the paper contrasts the two established 2.5D wiring technologies:
//! organic package substrates (C4 bumps, thicker wires, lower loss) and
//! passive silicon interposers (micro-bumps, finer wires, *higher* signal
//! loss — the reason interposer links must stay below ~2 mm while substrate
//! links are good to ~4 mm at the same data rate).

use std::fmt;

/// Errors from technology construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TechnologyError {
    /// A coefficient was negative or non-finite; the message names it.
    InvalidCoefficient(&'static str),
}

impl fmt::Display for TechnologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechnologyError::InvalidCoefficient(name) => {
                write!(f, "technology coefficient {name} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for TechnologyError {}

/// Electrical coefficients of one wiring technology.
///
/// Loss follows the standard two-term model: a conductor (skin-effect) term
/// growing with `√f` and a dielectric term growing with `f`, both linear in
/// length, plus a fixed per-link transition loss for the bump/pad
/// discontinuities at either end. Crosstalk is characterised by an
/// asymptotic coupling ratio approached exponentially with coupled length.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Conductor/skin-effect loss coefficient in dB/(mm·√GHz).
    pub conductor_loss: f64,
    /// Dielectric loss coefficient in dB/(mm·GHz).
    pub dielectric_loss: f64,
    /// Fixed transition loss per link in dB (bumps, pads, ESD).
    pub fixed_loss_db: f64,
    /// Asymptotic aggressor amplitude-coupling ratio (0..1).
    pub xtalk_coupling: f64,
    /// Coupled length (mm) over which crosstalk approaches its asymptote.
    pub xtalk_saturation_mm: f64,
    /// Frequency (GHz, Nyquist) at which crosstalk reaches full strength;
    /// below it the coupling scales linearly with frequency.
    pub xtalk_freq_ref_ghz: f64,
    /// Number of simultaneously switching aggressor wires budgeted against
    /// each victim (2 for a single-row bump map: left and right neighbour).
    pub aggressors: u32,
}

impl Technology {
    /// An organic package substrate (§II, Fig. 1b): C4 bumps at 150–200 µm
    /// pitch, comparatively thick redistribution-layer traces.
    ///
    /// Calibrated so a 16 Gb/s-per-wire link reaches ≈ 4 mm at BER 1e−15
    /// with the default [`crate::SignalBudget`] — the "below 4 mm in
    /// general" operating envelope §V quotes for adjacent chiplets.
    #[must_use]
    pub fn organic_substrate() -> Self {
        Self {
            name: "organic package substrate".to_owned(),
            conductor_loss: 0.28,
            dielectric_loss: 0.03,
            fixed_loss_db: 0.8,
            xtalk_coupling: 0.05,
            xtalk_saturation_mm: 2.0,
            xtalk_freq_ref_ghz: 8.0,
            aggressors: 2,
        }
    }

    /// A passive silicon interposer (§II, Fig. 1c): micro-bumps at 30–60 µm
    /// pitch, fine BEOL wires with high sheet resistance and denser coupling.
    ///
    /// Calibrated so a 16 Gb/s-per-wire link reaches ≈ 2 mm at BER 1e−15 —
    /// the "≤ 2 mm" interposer limit §II quotes from UCIe.
    #[must_use]
    pub fn silicon_interposer() -> Self {
        Self {
            name: "silicon interposer".to_owned(),
            conductor_loss: 0.65,
            dielectric_loss: 0.045,
            fixed_loss_db: 0.6,
            xtalk_coupling: 0.07,
            xtalk_saturation_mm: 1.5,
            xtalk_freq_ref_ghz: 8.0,
            aggressors: 2,
        }
    }

    /// Validates that every coefficient is finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`TechnologyError::InvalidCoefficient`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), TechnologyError> {
        let checks: [(&'static str, f64); 6] = [
            ("conductor_loss", self.conductor_loss),
            ("dielectric_loss", self.dielectric_loss),
            ("fixed_loss_db", self.fixed_loss_db),
            ("xtalk_coupling", self.xtalk_coupling),
            ("xtalk_saturation_mm", self.xtalk_saturation_mm),
            ("xtalk_freq_ref_ghz", self.xtalk_freq_ref_ghz),
        ];
        for (name, v) in checks {
            if !v.is_finite() || v < 0.0 {
                return Err(TechnologyError::InvalidCoefficient(name));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        Technology::organic_substrate().validate().unwrap();
        Technology::silicon_interposer().validate().unwrap();
    }

    #[test]
    fn interposer_is_lossier_per_mm() {
        let sub = Technology::organic_substrate();
        let int = Technology::silicon_interposer();
        // At the paper's Nyquist (8 GHz for 16 Gb/s NRZ per wire):
        let per_mm =
            |t: &Technology| t.conductor_loss * 8.0_f64.sqrt() + t.dielectric_loss * 8.0;
        assert!(per_mm(&int) > 1.5 * per_mm(&sub));
    }

    #[test]
    fn validation_rejects_bad_coefficients() {
        let mut t = Technology::organic_substrate();
        t.conductor_loss = f64::NAN;
        assert_eq!(t.validate(), Err(TechnologyError::InvalidCoefficient("conductor_loss")));
        let mut t = Technology::organic_substrate();
        t.xtalk_coupling = -0.1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn display_shows_name() {
        let t = Technology::silicon_interposer();
        assert_eq!(t.to_string(), "silicon interposer");
    }
}
