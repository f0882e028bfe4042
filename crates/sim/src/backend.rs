//! Selection between the scalar reference engine and the packed kernel.

use core::fmt;

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
    /// 256 tests per pass through the bit-plane kernel, fanned out over
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
}
