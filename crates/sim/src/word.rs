//! Width-generic simulation words: the lane-parallel tiles the bit-plane
//! kernel is written against.
//!
//! A [`SimWord`] is a fixed-size tile of test lanes — one bit per lane —
//! on which the kernel's rail algebra (`AND`/`OR`/`NOT` over six planes
//! per line) operates. Three widths are provided:
//!
//! * `u64` — the original 64-lane kernel word,
//! * `[u64; 4]` — a 256-lane tile (one AVX2 register per plane word),
//! * `[u64; 8]` — a 512-lane tile (one AVX-512 register per plane word).
//!
//! The array implementations use plain unrolled word loops: on a
//! `-C target-cpu=native` build LLVM lowers them to single vector
//! instructions, and on scalar-only targets they still win through
//! instruction-level parallelism and fewer propagation passes. No
//! unstable `std::simd` is involved.
//!
//! [`SimWidth`] names the three tiles. The drivers use [`SimWidth::auto`],
//! which probes the CPU once and picks the fastest tile — on AVX-512 parts
//! via a one-block micro-calibration, because the widest native tile is
//! not always the fastest one. Tests and benches pin a width in code.

use core::fmt;

/// A fixed-width tile of simulation lanes, one bit per lane.
///
/// Implementations must behave as a plain bitset of [`SimWord::LANES`]
/// bits split into [`SimWord::WORDS`] little-endian `u64` words: lane `j`
/// is bit `j % 64` of word `j / 64`. All kernel algebra reduces to the
/// bitwise ops below, so a wider tile changes throughput, never results.
pub trait SimWord: Copy + PartialEq + Eq + Send + Sync + fmt::Debug + 'static {
    /// Number of 64-bit words in the tile.
    const WORDS: usize;
    /// Number of test lanes: `WORDS * 64`.
    const LANES: usize = Self::WORDS * 64;
    /// The all-zero tile.
    const ZERO: Self;
    /// The all-ones tile.
    const ONES: Self;

    /// Lane-wise AND.
    #[must_use]
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    #[must_use]
    fn or(self, other: Self) -> Self;
    /// Lane-wise NOT.
    #[must_use]
    fn not(self) -> Self;
    /// `true` if no lane is set.
    #[must_use]
    fn is_zero(self) -> bool;
    /// The mask with the low `n` lanes set (`n <= LANES`).
    #[must_use]
    fn low_lanes(n: usize) -> Self;
    /// Whether lane `lane` is set.
    #[must_use]
    fn lane(self, lane: usize) -> bool;
    /// Sets lane `lane`.
    fn set_lane(&mut self, lane: usize);
    /// The lowest set lane, if any.
    #[must_use]
    fn first_lane(self) -> Option<usize>;
    /// The `k`-th 64-bit word of the tile.
    #[must_use]
    fn word(self, k: usize) -> u64;
    /// Overwrites the `k`-th 64-bit word of the tile.
    fn set_word(&mut self, k: usize, value: u64);
}

impl SimWord for u64 {
    const WORDS: usize = 1;
    const ZERO: u64 = 0;
    const ONES: u64 = u64::MAX;

    #[inline(always)]
    fn and(self, other: u64) -> u64 {
        self & other
    }

    #[inline(always)]
    fn or(self, other: u64) -> u64 {
        self | other
    }

    #[inline(always)]
    fn not(self) -> u64 {
        !self
    }

    #[inline(always)]
    fn is_zero(self) -> bool {
        self == 0
    }

    #[inline]
    fn low_lanes(n: usize) -> u64 {
        match n {
            64 => u64::MAX,
            _ => (1u64 << n) - 1,
        }
    }

    #[inline(always)]
    fn lane(self, lane: usize) -> bool {
        self >> lane & 1 == 1
    }

    #[inline(always)]
    fn set_lane(&mut self, lane: usize) {
        *self |= 1u64 << lane;
    }

    #[inline]
    fn first_lane(self) -> Option<usize> {
        (self != 0).then(|| self.trailing_zeros() as usize)
    }

    #[inline(always)]
    fn word(self, k: usize) -> u64 {
        debug_assert_eq!(k, 0);
        self
    }

    #[inline(always)]
    fn set_word(&mut self, k: usize, value: u64) {
        debug_assert_eq!(k, 0);
        *self = value;
    }
}

/// Implements [`SimWord`] for `[u64; N]` with explicit unrolled loops —
/// the shape LLVM auto-vectorizes into one AVX2/AVX-512 op per plane word.
macro_rules! impl_simword_array {
    ($n:literal) => {
        impl SimWord for [u64; $n] {
            const WORDS: usize = $n;
            const ZERO: [u64; $n] = [0u64; $n];
            const ONES: [u64; $n] = [u64::MAX; $n];

            #[inline(always)]
            fn and(self, other: [u64; $n]) -> [u64; $n] {
                let mut out = [0u64; $n];
                for i in 0..$n {
                    out[i] = self[i] & other[i];
                }
                out
            }

            #[inline(always)]
            fn or(self, other: [u64; $n]) -> [u64; $n] {
                let mut out = [0u64; $n];
                for i in 0..$n {
                    out[i] = self[i] | other[i];
                }
                out
            }

            #[inline(always)]
            fn not(self) -> [u64; $n] {
                let mut out = [0u64; $n];
                for i in 0..$n {
                    out[i] = !self[i];
                }
                out
            }

            #[inline(always)]
            fn is_zero(self) -> bool {
                let mut any = 0u64;
                for i in 0..$n {
                    any |= self[i];
                }
                any == 0
            }

            #[inline]
            fn low_lanes(n: usize) -> [u64; $n] {
                debug_assert!(n <= $n * 64);
                let mut out = [0u64; $n];
                for (i, w) in out.iter_mut().enumerate() {
                    let lo = i * 64;
                    *w = match n.saturating_sub(lo) {
                        0 => 0,
                        part if part >= 64 => u64::MAX,
                        part => (1u64 << part) - 1,
                    };
                }
                out
            }

            #[inline(always)]
            fn lane(self, lane: usize) -> bool {
                self[lane / 64] >> (lane % 64) & 1 == 1
            }

            #[inline(always)]
            fn set_lane(&mut self, lane: usize) {
                self[lane / 64] |= 1u64 << (lane % 64);
            }

            #[inline]
            fn first_lane(self) -> Option<usize> {
                self.iter()
                    .position(|&w| w != 0)
                    .map(|k| k * 64 + self[k].trailing_zeros() as usize)
            }

            #[inline(always)]
            fn word(self, k: usize) -> u64 {
                self[k]
            }

            #[inline(always)]
            fn set_word(&mut self, k: usize, value: u64) {
                self[k] = value;
            }
        }
    };
}

impl_simword_array!(4);
impl_simword_array!(8);

/// The tile width of the packed kernels.
///
/// Results are width-independent — the differential property tests pin
/// scalar, 64-, 256- and 512-lane runs to byte-identical waveforms,
/// coverage and justification witnesses — so the width is purely a
/// throughput choice and safe to vary per machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimWidth {
    /// 64 lanes: one `u64` per plane word.
    W64,
    /// 256 lanes: a `[u64; 4]` tile per plane word.
    W256,
    /// 512 lanes: a `[u64; 8]` tile per plane word.
    W512,
}

impl SimWidth {
    /// All concrete widths, narrowest first.
    pub const ALL: [SimWidth; 3] = [SimWidth::W64, SimWidth::W256, SimWidth::W512];

    /// The fastest tile for this CPU: 256 lanes with AVX2, 64 without
    /// (or 256 on aarch64, where two NEON ops per word still pay for the
    /// halved pass count). With AVX-512F a one-block micro-calibration
    /// decides between 256 and 512 — merely *supporting* 512-bit vectors
    /// does not make them the fastest choice (license-based frequency
    /// reduction loses to AVX2 on several parts), so the probe times the
    /// actual plane arithmetic once per process and 256 wins ties.
    #[must_use]
    pub fn auto() -> SimWidth {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                static PICK: std::sync::OnceLock<SimWidth> = std::sync::OnceLock::new();
                return *PICK.get_or_init(calibrate_wide);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimWidth::W256;
            }
            SimWidth::W64
        }
        #[cfg(target_arch = "aarch64")]
        {
            SimWidth::W256
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimWidth::W64
        }
    }

    /// The number of test lanes per packed tile.
    #[must_use]
    pub const fn lanes(self) -> usize {
        match self {
            SimWidth::W64 => 64,
            SimWidth::W256 => 256,
            SimWidth::W512 => 512,
        }
    }

    /// A short label (`"64"` / `"256"` / `"512"`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SimWidth::W64 => "64",
            SimWidth::W256 => "256",
            SimWidth::W512 => "512",
        }
    }
}

impl fmt::Display for SimWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Times one block of the kernel's plane arithmetic at 256 and 512 lanes
/// and returns the faster width, preferring 256 on a tie. The block is a
/// few hundred kilolanes of dependent AND/OR/NOT passes — microseconds of
/// work, run once per process — so a part whose AVX-512 license clock
/// makes the 8-word tile *slower* than AVX2 is caught instead of assumed
/// fastest. Width never changes results, only throughput, so a noisy
/// pick is a performance wobble, never a correctness hazard.
#[cfg(target_arch = "x86_64")]
fn calibrate_wide() -> SimWidth {
    fn block<W: SimWord>() -> std::time::Duration {
        // The same total lane count at every width: narrower tiles loop
        // more. Two planes of 2^18 lanes stay comfortably in cache.
        const TOTAL_LANES: usize = 1 << 18;
        let n = TOTAL_LANES / W::LANES;
        let mut p0 = vec![W::ONES; n];
        let mut p1 = vec![W::low_lanes(W::LANES / 2 + 1); n];
        let start = std::time::Instant::now();
        for _pass in 0..16 {
            for i in 0..n {
                let a = p0[i];
                let b = p1[i];
                let g = a.and(b).or(a.not().and(b.not()));
                p0[i] = g.or(b.not());
                p1[i] = g.and(a).not();
            }
        }
        std::hint::black_box((&p0, &p1));
        start.elapsed()
    }
    // Warm both paths (page-in, vector-unit frequency ramp), then time.
    let _ = (block::<[u64; 4]>(), block::<[u64; 8]>());
    let (t256, t512) = (block::<[u64; 4]>(), block::<[u64; 8]>());
    if t512 < t256 {
        SimWidth::W512
    } else {
        SimWidth::W256
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bitset_contract<W: SimWord>() {
        assert_eq!(W::LANES, W::WORDS * 64);
        assert!(W::ZERO.is_zero());
        assert!(!W::ONES.is_zero());
        assert_eq!(W::ZERO.not(), W::ONES);
        assert_eq!(W::low_lanes(W::LANES), W::ONES);
        assert!(W::low_lanes(0).is_zero());
        assert_eq!(W::ZERO.first_lane(), None);
        assert_eq!(W::ONES.first_lane(), Some(0));

        // Per-lane set/query round trip, plus first_lane ordering.
        for lane in [0, 1, 63, W::LANES / 2, W::LANES - 1] {
            let mut w = W::ZERO;
            w.set_lane(lane);
            assert!(w.lane(lane), "lane {lane}");
            assert_eq!(w.first_lane(), Some(lane));
            assert!(w.and(W::ONES) == w);
            assert!(w.or(W::ZERO) == w);
            assert!(w.and(w.not()).is_zero());
            // low_lanes(k) contains lane iff lane < k.
            assert!(!W::low_lanes(lane).lane(lane));
            assert!(W::low_lanes(lane + 1).lane(lane));
        }

        // Word-level access agrees with lane-level access.
        let mut w = W::ZERO;
        w.set_word(W::WORDS - 1, 0b1010);
        assert_eq!(w.word(W::WORDS - 1), 0b1010);
        assert_eq!(w.first_lane(), Some((W::WORDS - 1) * 64 + 1));
    }

    #[test]
    fn all_widths_satisfy_the_bitset_contract() {
        check_bitset_contract::<u64>();
        check_bitset_contract::<[u64; 4]>();
        check_bitset_contract::<[u64; 8]>();
    }

    #[test]
    fn lanes_match_words() {
        for w in SimWidth::ALL {
            assert_eq!(w.to_string(), w.label());
        }
        assert!(SimWidth::ALL.contains(&SimWidth::auto()));
        assert_eq!(SimWidth::W64.lanes(), 64);
        assert_eq!(SimWidth::W256.lanes(), <[u64; 4] as SimWord>::LANES);
        assert_eq!(SimWidth::W512.lanes(), <[u64; 8] as SimWord>::LANES);
    }
}
