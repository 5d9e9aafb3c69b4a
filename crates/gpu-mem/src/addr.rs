//! Address arithmetic and set-index hashing.
//!
//! The GPU global address space is modelled as a flat 64-bit byte address
//! space. The L1D/L2 caches of the GTX 480 configuration (Table I of the
//! paper) use 128-byte lines; a *block address* is the byte address with the
//! intra-line offset stripped, and the *block index* is the block address
//! divided by the line size.
//!
//! The paper enhances the baseline L1D and L2 with an XOR-based set-index
//! hashing function (citing the reuse-distance cache model of Nugteren et
//! al., HPCA'14) to bring the baseline closer to real hardware, which spreads
//! power-of-two strides across sets. Both the linear and the XOR index
//! functions are provided here so the baseline-vs-hashed configurations can
//! be compared.

use serde::{Deserialize, Serialize};

/// Byte address in the flat global memory space.
pub type Addr = u64;

/// Cache line (block) size in bytes used throughout the Fermi-like model.
pub const LINE_SIZE: u64 = 128;

/// Returns the block-aligned address containing `addr` for a given line size.
#[inline]
pub fn block_addr_for(addr: Addr, line_size: u64) -> Addr {
    debug_assert!(line_size.is_power_of_two());
    addr & !(line_size - 1)
}

/// Returns the 128-byte block-aligned address containing `addr`.
#[inline]
pub fn block_addr(addr: Addr) -> Addr {
    block_addr_for(addr, LINE_SIZE)
}

/// Returns the 128-byte block index (block address divided by the line size).
#[inline]
pub fn block_index(addr: Addr) -> u64 {
    addr / LINE_SIZE
}

/// Set-index mapping function used by a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SetIndexFunction {
    /// Classic modulo indexing: the set is the low bits of the block index.
    Linear,
    /// XOR-based hashing: the set bits are XOR-folded with higher-order bits
    /// of the block index, which de-correlates power-of-two strides from set
    /// conflicts (the enhancement applied to the baseline in §V-A).
    XorHash,
}

impl SetIndexFunction {
    /// Computes the set index for `addr` given the cache geometry.
    ///
    /// `num_sets` may be any positive count (the 768-set L2 of Table I is not
    /// a power of two); every set count, power of two or not, is reduced
    /// with `%`.
    #[inline]
    pub fn set_index(self, addr: Addr, num_sets: usize, line_size: u64) -> usize {
        debug_assert!(num_sets > 0);
        let block = addr / line_size;
        let n = num_sets as u64;
        match self {
            SetIndexFunction::Linear => (block % n) as usize,
            SetIndexFunction::XorHash => {
                // Fold three higher-order slices of the block index onto the
                // set bits before the final reduction. For power-of-two set
                // counts the slices are disjoint, so (tag, set) pairs stay a
                // bijection with block indices (verified by the property
                // tests). Every count then takes the folded value modulo
                // the set count.
                let set_bits = (usize::BITS - num_sets.leading_zeros() - 1).max(1);
                let b0 = block;
                let b1 = block >> set_bits;
                let b2 = block >> (2 * set_bits);
                ((b0 ^ b1 ^ b2) % n) as usize
            }
        }
    }

    /// Computes the tag stored alongside a cache line for `addr`.
    ///
    /// The tag must uniquely identify the block given the set index. For the
    /// XOR hash the full block index (above the line offset) is kept as the
    /// tag so that distinct blocks mapping to the same set can never alias.
    #[inline]
    pub fn tag(self, addr: Addr, num_sets: usize, line_size: u64) -> u64 {
        match self {
            SetIndexFunction::Linear => addr / line_size / num_sets as u64,
            SetIndexFunction::XorHash => addr / line_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_math_basics() {
        assert_eq!(block_addr(0), 0);
        assert_eq!(block_addr(127), 0);
        assert_eq!(block_addr(128), 128);
        assert_eq!(block_addr(129), 128);
        assert_eq!(block_index(0), 0);
        assert_eq!(block_index(128), 1);
        assert_eq!(block_addr_for(513, 256), 512);
    }

    #[test]
    fn linear_index_is_modulo() {
        let f = SetIndexFunction::Linear;
        for set in 0..32u64 {
            let addr = set * LINE_SIZE;
            assert_eq!(f.set_index(addr, 32, LINE_SIZE), set as usize);
        }
        // Wraps around after num_sets blocks.
        assert_eq!(f.set_index(32 * LINE_SIZE, 32, LINE_SIZE), 0);
    }

    #[test]
    fn xor_hash_spreads_power_of_two_strides() {
        // With a 32-set cache and a stride equal to num_sets * line_size,
        // linear indexing maps every access to set 0; the XOR hash must not.
        let f_lin = SetIndexFunction::Linear;
        let f_xor = SetIndexFunction::XorHash;
        let stride = 32 * LINE_SIZE;
        let lin: Vec<usize> = (0..64).map(|i| f_lin.set_index(i * stride, 32, LINE_SIZE)).collect();
        let xor: Vec<usize> = (0..64).map(|i| f_xor.set_index(i * stride, 32, LINE_SIZE)).collect();
        assert!(lin.iter().all(|&s| s == 0));
        let distinct: std::collections::HashSet<_> = xor.iter().collect();
        assert!(distinct.len() > 16, "xor hash should spread strided accesses, got {distinct:?}");
    }

    #[test]
    fn xor_hash_same_block_same_set() {
        let f = SetIndexFunction::XorHash;
        // Two addresses in the same 128-byte block must land in the same set.
        assert_eq!(
            f.set_index(0x1234_0000, 32, LINE_SIZE),
            f.set_index(0x1234_007f, 32, LINE_SIZE)
        );
    }

    proptest! {
        /// (tag, set) uniquely identifies a block for both index functions:
        /// two different blocks can never produce the same (tag, set) pair.
        #[test]
        fn tag_set_pair_is_injective(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
            for f in [SetIndexFunction::Linear, SetIndexFunction::XorHash] {
                let (na, nb) = (block_addr(a), block_addr(b));
                if na != nb {
                    let key_a = (f.tag(na, 64, LINE_SIZE), f.set_index(na, 64, LINE_SIZE));
                    let key_b = (f.tag(nb, 64, LINE_SIZE), f.set_index(nb, 64, LINE_SIZE));
                    prop_assert_ne!(key_a, key_b);
                }
            }
        }

        /// The set index is always in range.
        #[test]
        fn set_index_in_range(addr in any::<u64>(), sets_log2 in 1u32..12) {
            let num_sets = 1usize << sets_log2;
            for f in [SetIndexFunction::Linear, SetIndexFunction::XorHash] {
                prop_assert!(f.set_index(addr, num_sets, LINE_SIZE) < num_sets);
            }
        }

        /// All addresses within one block map to the same set.
        #[test]
        fn same_block_same_set(base in 0u64..1u64 << 40, off in 0u64..LINE_SIZE) {
            let base = block_addr(base);
            for f in [SetIndexFunction::Linear, SetIndexFunction::XorHash] {
                prop_assert_eq!(
                    f.set_index(base, 32, LINE_SIZE),
                    f.set_index(base + off, 32, LINE_SIZE)
                );
            }
        }
    }
}
