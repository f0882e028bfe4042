//! The packed kernel's tile: 256 test lanes, one bit per lane.
//!
//! A [`Tile`] is four little-endian `u64` words on which the kernel's rail
//! algebra (`&`/`|`/`!` over six planes per line) operates. The ops are
//! written out word by word: on a `-C target-cpu=native` build LLVM
//! lowers each to one AVX2 instruction, and on scalar-only targets they
//! still win through instruction-level parallelism. No unstable
//! `std::simd` is involved.
//!
//! Results never depend on the tile width — robust detection and
//! justification witnesses are functions of the tests alone — so the
//! width is a fixed throughput choice (`DESIGN.md` §13 records why 256).

use core::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

/// A tile of [`Tile::LANES`] simulation lanes: a plain bitset split into
/// [`Tile::WORDS`] little-endian `u64` words, lane `j` being bit `j % 64`
/// of word `j / 64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile([u64; 4]);

impl Tile {
    /// Number of 64-bit words in the tile.
    pub const WORDS: usize = 4;
    /// Number of test lanes: `WORDS * 64`.
    pub const LANES: usize = Tile::WORDS * 64;
    /// The all-zero tile.
    pub const ZERO: Tile = Tile([0; 4]);
    /// The all-ones tile.
    pub const ONES: Tile = Tile([u64::MAX; 4]);

    /// `true` if no lane is set.
    #[inline(always)]
    #[must_use]
    pub fn is_zero(self) -> bool {
        let [a, b, c, d] = self.0;
        a | b | c | d == 0
    }

    /// The mask with the low `n` lanes set (`n <= LANES`).
    #[inline]
    #[must_use]
    pub fn low_lanes(n: usize) -> Tile {
        debug_assert!(n <= Tile::LANES);
        let mut out = [0u64; 4];
        for (i, w) in out.iter_mut().enumerate() {
            *w = match n.saturating_sub(i * 64) {
                0 => 0,
                part if part >= 64 => u64::MAX,
                part => (1u64 << part) - 1,
            };
        }
        Tile(out)
    }

    /// Whether lane `lane` is set.
    #[inline(always)]
    #[must_use]
    pub fn lane(self, lane: usize) -> bool {
        self.0[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Sets lane `lane`.
    #[inline(always)]
    pub fn set_lane(&mut self, lane: usize) {
        self.0[lane / 64] |= 1u64 << (lane % 64);
    }

    /// The lowest set lane, if any.
    #[inline]
    #[must_use]
    pub fn first_lane(self) -> Option<usize> {
        self.0
            .iter()
            .position(|&w| w != 0)
            .map(|k| k * 64 + self.0[k].trailing_zeros() as usize)
    }

    /// The `k`-th 64-bit word of the tile.
    #[inline(always)]
    #[must_use]
    pub fn word(self, k: usize) -> u64 {
        self.0[k]
    }

    /// Overwrites the `k`-th 64-bit word of the tile.
    #[inline(always)]
    pub fn set_word(&mut self, k: usize, value: u64) {
        self.0[k] = value;
    }
}

impl BitAnd for Tile {
    type Output = Tile;

    /// Lane-wise AND.
    #[inline(always)]
    fn bitand(self, rhs: Tile) -> Tile {
        let (a, b) = (self.0, rhs.0);
        Tile([a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]])
    }
}

impl BitOr for Tile {
    type Output = Tile;

    /// Lane-wise OR.
    #[inline(always)]
    fn bitor(self, rhs: Tile) -> Tile {
        let (a, b) = (self.0, rhs.0);
        Tile([a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]])
    }
}

impl BitAndAssign for Tile {
    #[inline(always)]
    fn bitand_assign(&mut self, rhs: Tile) {
        *self = *self & rhs;
    }
}

impl BitOrAssign for Tile {
    #[inline(always)]
    fn bitor_assign(&mut self, rhs: Tile) {
        *self = *self | rhs;
    }
}

impl Not for Tile {
    type Output = Tile;

    /// Lane-wise NOT.
    #[inline(always)]
    fn not(self) -> Tile {
        let a = self.0;
        Tile([!a[0], !a[1], !a[2], !a[3]])
    }
}

/// The packed kernels' tile width. There is one tile, so this only
/// answers "how many lanes"; `perfbench` reports it, and nothing in the
/// workspace needs it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimWidth;

impl SimWidth {
    /// The one tile width — no CPU probe behind it. Kept because
    /// `perfbench` calls it.
    #[must_use]
    pub const fn auto() -> SimWidth {
        SimWidth
    }

    /// The number of test lanes per packed tile: always [`Tile::LANES`].
    #[must_use]
    pub const fn lanes(self) -> usize {
        Tile::LANES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_satisfies_the_bitset_contract() {
        assert_eq!(Tile::LANES, 256);
        assert_eq!(SimWidth::auto().lanes(), Tile::LANES);
        assert!(Tile::ZERO.is_zero());
        assert!(!Tile::ONES.is_zero());
        assert_eq!(!Tile::ZERO, Tile::ONES);
        assert_eq!(Tile::low_lanes(Tile::LANES), Tile::ONES);
        assert!(Tile::low_lanes(0).is_zero());
        assert_eq!(Tile::ZERO.first_lane(), None);
        assert_eq!(Tile::ONES.first_lane(), Some(0));

        // Per-lane set/query round trip, plus first_lane ordering.
        for lane in [0, 1, 63, 64, Tile::LANES / 2, Tile::LANES - 1] {
            let mut w = Tile::ZERO;
            w.set_lane(lane);
            assert!(w.lane(lane), "lane {lane}");
            assert_eq!(w.first_lane(), Some(lane));
            assert_eq!(w & Tile::ONES, w);
            assert_eq!(w | Tile::ZERO, w);
            assert!((w & !w).is_zero());
            // low_lanes(k) contains lane iff lane < k.
            assert!(!Tile::low_lanes(lane).lane(lane));
            assert!(Tile::low_lanes(lane + 1).lane(lane));
        }

        // Word-level access agrees with lane-level access.
        let mut w = Tile::ZERO;
        w.set_word(Tile::WORDS - 1, 0b1010);
        assert_eq!(w.word(Tile::WORDS - 1), 0b1010);
        assert_eq!(w.first_lane(), Some((Tile::WORDS - 1) * 64 + 1));
    }
}
