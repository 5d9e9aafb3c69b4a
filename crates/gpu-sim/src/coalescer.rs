//! Memory-access coalescer.
//!
//! A Fermi-class LSU merges the per-lane addresses of one warp-wide memory
//! instruction into the minimal set of 128-byte block transactions (§II-A:
//! "all 32 L1D cache banks operate in tandem for a single contiguous 128-byte
//! L1D cache request"). A perfectly coalesced access therefore produces one
//! transaction; a fully divergent one produces up to 32.

use crate::trace::MemPattern;
use gpu_mem::addr::{block_addr, Addr};
use gpu_mem::LINE_SIZE;

/// Coalesces the per-lane addresses of `pattern` into unique 128-byte block
/// addresses, preserving first-touch order (the order transactions are issued
/// to the L1D, which matters for replacement state).
pub fn coalesce(pattern: &MemPattern) -> Vec<Addr> {
    let mut blocks = Vec::new();
    coalesce_into(pattern, &mut blocks);
    blocks
}

/// [`coalesce`] into a caller-owned buffer, replacing its contents — the SM
/// reuses one buffer for every global access it issues.
///
/// A strided pattern whose stride fits in one line moves at most one block
/// per lane, so its lanes sweep a contiguous run of blocks in lane order
/// (upwards or downwards with the stride's sign, wrapping at the top of the
/// address space) and the run comes out in closed form. Any other pattern
/// is walked lane by lane; while the blocks seen so far ascend, a block
/// above the last one is new without searching the list.
pub fn coalesce_into(pattern: &MemPattern, blocks: &mut Vec<Addr>) {
    blocks.clear();
    match *pattern {
        MemPattern::Strided { base, stride, lanes } if stride.unsigned_abs() <= LINE_SIZE => {
            if lanes == 0 {
                return;
            }
            let first = block_addr(base);
            let span = (lanes as u64 - 1) * stride.unsigned_abs();
            // Lane 0's offset from the line edge behind the sweep (the low
            // edge going up, the high edge going down) plus the distance the
            // last lane travels: every whole line in it adds one block.
            let reach =
                span + if stride >= 0 { base - first } else { first + LINE_SIZE - 1 - base };
            for k in 0..=reach / LINE_SIZE {
                let step = k * LINE_SIZE;
                blocks.push(if stride >= 0 {
                    first.wrapping_add(step)
                } else {
                    first.wrapping_sub(step)
                });
            }
        }
        _ => {
            let mut ascending = true;
            for block in pattern.lanes().map(block_addr) {
                if blocks.last().is_none_or(|&last| ascending && block > last) {
                    blocks.push(block);
                } else if !blocks.contains(&block) {
                    ascending = false;
                    blocks.push(block);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_mem::LINE_SIZE;
    use proptest::prelude::*;

    #[test]
    fn perfectly_coalesced_single_block() {
        let p = MemPattern::Strided { base: 0x1000, stride: 4, lanes: 32 };
        assert_eq!(coalesce(&p), vec![0x1000]);
    }

    #[test]
    fn misaligned_coalesced_access_spans_two_blocks() {
        let p = MemPattern::Strided { base: 0x1000 + 64, stride: 4, lanes: 32 };
        assert_eq!(coalesce(&p), vec![0x1000, 0x1080]);
    }

    #[test]
    fn fully_divergent_one_block_per_lane() {
        let p = MemPattern::Strided { base: 0, stride: LINE_SIZE as i64, lanes: 32 };
        assert_eq!(coalesce(&p).len(), 32);
    }

    #[test]
    fn scatter_deduplicates_blocks() {
        let p = MemPattern::Scatter(vec![0, 4, 8, 128, 132, 4096]);
        assert_eq!(coalesce(&p), vec![0, 128, 4096]);
    }

    #[test]
    fn order_is_first_touch() {
        let p = MemPattern::Scatter(vec![4096, 0, 4097]);
        assert_eq!(coalesce(&p), vec![4096, 0]);
    }

    /// The definition `coalesce_into` must meet: the lanes' block
    /// addresses with duplicates removed, in first-touch order.
    fn reference(pattern: &MemPattern) -> Vec<Addr> {
        let mut blocks: Vec<Addr> = Vec::new();
        for a in pattern.lane_addresses() {
            if !blocks.contains(&block_addr(a)) {
                blocks.push(block_addr(a));
            }
        }
        blocks
    }

    #[test]
    fn unit_stride_runs_cover_the_wrap_at_the_top_of_the_address_space() {
        let up = MemPattern::Strided { base: Addr::MAX - 127, stride: 128, lanes: 3 };
        assert_eq!(coalesce(&up), vec![Addr::MAX - 127, 0, 128]);
        let down = MemPattern::Strided { base: 64, stride: -64, lanes: 4 };
        assert_eq!(coalesce(&down), vec![0, Addr::MAX - 127]);
        assert!(coalesce(&MemPattern::Strided { base: 64, stride: 4, lanes: 0 }).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// `coalesce_into` equals the reference on strided patterns of
        /// every stride in -4096..4096 (with 0 and ±128 drawn often), 0–32
        /// lanes and bases anywhere, including just below and above 2^63
        /// and just below 2^64, where lane addresses wrap; and on scatter
        /// patterns, with and without repeated, ascending and descending
        /// blocks. The
        /// buffer arrives holding stale blocks, which must not survive.
        #[test]
        fn coalesce_into_matches_the_reference(
            (stride_kind, raw_stride) in (0u8..4, -4096i64..4096),
            (base_kind, raw_base) in (0u8..4, any::<u64>()),
            lanes in 0u8..=32,
            (scatter, near, sorted) in (any::<bool>(), any::<bool>(), any::<bool>()),
            mut offsets in proptest::collection::vec(0u64..4096, 0..33),
            stale in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let stride = match stride_kind {
                0 => raw_stride,
                1 => 0,
                2 => LINE_SIZE as i64,
                _ => -(LINE_SIZE as i64),
            };
            let base = match base_kind {
                0 => raw_base,
                1 => (1u64 << 63).wrapping_add(raw_base % 8192).wrapping_sub(4096),
                2 => Addr::MAX - raw_base % 8192,
                _ => raw_base % 8192,
            };
            if sorted {
                offsets.sort_unstable();
            }
            let pattern = if scatter {
                let spread = if near { 1 } else { 1 << 20 };
                MemPattern::Scatter(
                    offsets.iter().map(|&o| base.wrapping_add(o.wrapping_mul(spread))).collect(),
                )
            } else {
                MemPattern::Strided { base, stride, lanes }
            };
            let mut blocks = stale.clone();
            coalesce_into(&pattern, &mut blocks);
            prop_assert_eq!(&blocks, &reference(&pattern), "{:?}", pattern);
        }
    }

    proptest! {
        /// Coalescing never produces more transactions than active lanes and
        /// every produced address is block-aligned and unique.
        #[test]
        fn coalesce_invariants(addrs in proptest::collection::vec(0u64..(1 << 30), 1..32)) {
            let p = MemPattern::Scatter(addrs.clone());
            let blocks = coalesce(&p);
            prop_assert!(blocks.len() <= addrs.len());
            let unique: std::collections::HashSet<_> = blocks.iter().collect();
            prop_assert_eq!(unique.len(), blocks.len());
            for b in &blocks {
                prop_assert_eq!(b % LINE_SIZE, 0);
            }
            // Every lane address falls in one of the produced blocks.
            for a in &addrs {
                prop_assert!(blocks.contains(&block_addr(*a)));
            }
        }
    }
}
