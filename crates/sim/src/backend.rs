//! Selection between the scalar reference engine and the packed kernel,
//! plus the option block (backend × tile width) the drivers thread
//! through the simulation entry points.

use core::fmt;

use crate::word::SimWidth;

/// Which simulation engine the high-level drivers use.
///
/// The two backends are exactly equivalent: the packed kernel implements
/// the same conservative hazard algebra, bit-for-bit (the differential
/// property tests in this crate enforce it). [`SimBackend::Scalar`] is kept
/// as the slow oracle that tests and benches select in code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimBackend {
    /// One test at a time through [`pdf_netlist::simulate_triples`].
    Scalar,
    /// 64 tests per pass through the bit-plane kernel, fanned out over
    /// worker threads.
    #[default]
    Packed,
}

impl SimBackend {
    /// Both backends, scalar first.
    pub const ALL: [SimBackend; 2] = [SimBackend::Scalar, SimBackend::Packed];

    /// A short lowercase label (`"scalar"` / `"packed"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SimBackend::Scalar => "scalar",
            SimBackend::Packed => "packed",
        }
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The simulation configuration the high-level drivers accept: which
/// engine, and how wide its tiles are.
///
/// Both knobs are throughput-only — results (coverage flags, detection
/// maps, justification witnesses) are identical across every
/// combination, which the differential tests enforce. Nothing reads them
/// from the environment: the default is the packed engine at
/// [`SimWidth::auto`], and tests and benches pick the scalar oracle or a
/// fixed width in code. Most call sites take `impl Into<SimOptions>`, so
/// a bare [`SimBackend`] converts into options with the auto-detected
/// width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimOptions {
    /// Scalar oracle or the packed bit-plane kernel.
    pub backend: SimBackend,
    /// Tile width of the packed kernel (ignored by the scalar engine).
    pub width: SimWidth,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            backend: SimBackend::default(),
            width: SimWidth::auto(),
        }
    }
}

impl From<SimBackend> for SimOptions {
    fn from(backend: SimBackend) -> SimOptions {
        SimOptions {
            backend,
            ..SimOptions::default()
        }
    }
}

impl SimOptions {
    /// Replaces the backend.
    #[must_use]
    pub fn with_backend(mut self, backend: SimBackend) -> SimOptions {
        self.backend = backend;
        self
    }

    /// Replaces the tile width.
    #[must_use]
    pub fn with_width(mut self, width: SimWidth) -> SimOptions {
        self.width = width;
        self
    }

    /// A compact human-readable label (`"packed/w512"`, `"scalar/w64"`)
    /// for report keys and log lines.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/w{}", self.backend.label(), self.width.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_packed() {
        assert_eq!(SimBackend::default(), SimBackend::Packed);
        for b in SimBackend::ALL {
            assert_eq!(b.to_string(), b.label());
        }
    }

    #[test]
    fn options_default_and_conversion() {
        let opts = SimOptions::default();
        assert_eq!(opts.backend, SimBackend::Packed);
        assert_eq!(opts.width, SimWidth::auto());

        let from_backend: SimOptions = SimBackend::Scalar.into();
        assert_eq!(from_backend.backend, SimBackend::Scalar);
        assert_eq!(from_backend.width, SimWidth::auto());

        let tuned = SimOptions::default()
            .with_backend(SimBackend::Scalar)
            .with_width(SimWidth::W512);
        assert_eq!(tuned.backend, SimBackend::Scalar);
        assert_eq!(tuned.width, SimWidth::W512);
    }

    #[test]
    fn options_label_is_compact_and_distinct() {
        let a = SimOptions::default()
            .with_backend(SimBackend::Packed)
            .with_width(SimWidth::W512);
        assert_eq!(a.label(), "packed/w512");
        let b = a.with_backend(SimBackend::Scalar).with_width(SimWidth::W64);
        assert_eq!(b.label(), "scalar/w64");
    }
}
