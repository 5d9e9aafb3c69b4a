//! Address-translation unit (§IV-B, Fig. 7c).
//!
//! The unit maps a global memory address onto the shared-memory locations of
//! the corresponding 128-byte data block and its tag, using the bit-sliced
//! layout of Fig. 7c:
//!
//! * the data-block address is decomposed (LSB → MSB) into a 3-bit byte
//!   offset **F** (8-byte bank words), a 4-bit bank index **B** (16 banks per
//!   group), a 1-bit bank group **G**, and an 8-bit row index **R**;
//! * the 128-byte block is striped across the 16 banks of one group, so the
//!   (F, B) fields address the word within the block and G+R select the
//!   block's row;
//! * the tag of the block lives in the *other* bank group (G flipped) so a
//!   tag and its data block never conflict and can be read in parallel. One
//!   physical row of a bank holds two 31-bit tags (25-bit tag + 6-bit WID),
//!   so 32 tags share one row of a 16-bank group; the 5 bits formed by (F, B)
//!   of the data block select which of the 32 tag slots is used;
//! * data-block and tag *offset registers* rebase both index spaces so the
//!   structure can live anywhere inside the scratchpad the CTAs leave unused.
//!
//! The unit is purely combinational: given the number of rows reserved for
//! data it produces deterministic locations, which the property tests below
//! verify to be collision-free.

use gpu_mem::Addr;
use serde::{Deserialize, Serialize};

/// Number of banks per bank group (32 banks split into two groups).
pub const BANKS_PER_GROUP: u32 = 16;
/// Bytes per bank word (64-bit banks).
pub const BANK_WORD_BYTES: u32 = 8;
/// Bytes of data per row of one bank group (16 banks × 8 bytes = one block).
pub const BLOCK_BYTES: u32 = BANKS_PER_GROUP * BANK_WORD_BYTES;
/// Tags per bank-group row (two 31-bit tags per 8-byte bank word × 16 banks).
pub const TAGS_PER_ROW: u32 = 32;

/// Location of a data block and its tag inside the scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShmemLocation {
    /// Cache-line index within the direct-mapped shared-memory cache.
    pub line_index: u32,
    /// Bank group holding the data block (0 or 1).
    pub data_group: u8,
    /// Row index of the data block within its bank group.
    pub data_row: u32,
    /// Bank group holding the tag (always the other group).
    pub tag_group: u8,
    /// Row index of the tag within its bank group.
    pub tag_row: u32,
    /// Tag slot within the tag row (0..31).
    pub tag_slot: u32,
}

/// The address-translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslationUnit {
    /// Number of data rows available per bank group.
    data_rows_per_group: u32,
    /// Row offset register: first row of the reserved region (data blocks).
    data_row_offset: u32,
    /// Row offset register: first row holding tags.
    tag_row_offset: u32,
}

impl TranslationUnit {
    /// Builds a translation unit for a reserved region of `capacity_bytes`.
    ///
    /// The region is split so that every data block has a tag slot: each
    /// group of 32 blocks (two groups × 16 rows... strictly, 32 tag slots per
    /// tag row) consumes one extra tag row. Returns `None` when the region is
    /// too small to hold even one block and one tag row per group.
    pub fn new(capacity_bytes: u64, data_row_offset: u32) -> Option<Self> {
        // Rows available across both groups.
        let total_rows = (capacity_bytes / (2 * BLOCK_BYTES as u64)) as u32 * 2;
        if total_rows < 4 {
            return None;
        }
        // Reserve ceil(data_rows / TAGS_PER_ROW) rows per group for tags.
        // Solve greedily: start from all rows as data and peel off tag rows.
        let mut data_rows_per_group = total_rows / 2;
        loop {
            let tag_rows = data_rows_per_group.div_ceil(TAGS_PER_ROW / 2);
            if data_rows_per_group + tag_rows <= total_rows / 2 || data_rows_per_group == 0 {
                break;
            }
            data_rows_per_group -= 1;
        }
        if data_rows_per_group == 0 {
            return None;
        }
        let tag_row_offset = data_row_offset + data_rows_per_group;
        Some(TranslationUnit { data_rows_per_group, data_row_offset, tag_row_offset })
    }

    /// Number of 128-byte blocks the structure can hold (both groups).
    pub fn num_lines(&self) -> u32 {
        self.data_rows_per_group * 2
    }

    /// Data capacity in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.num_lines() as u64 * BLOCK_BYTES as u64
    }

    /// Translates a global address into its shared-memory location.
    pub fn translate(&self, global_addr: Addr) -> ShmemLocation {
        let block_index = global_addr / BLOCK_BYTES as u64;
        let line_index = (block_index % self.num_lines() as u64) as u32;
        // G is the LSB of the line index; R the remaining bits.
        let data_group = (line_index & 1) as u8;
        let data_row = self.data_row_offset + (line_index >> 1);
        // The tag lives in the other group. The tag slot is formed from the
        // 5 bits that address the word within the data block's row region —
        // here the low 5 bits of the line index; the remaining bits select
        // the tag row.
        let tag_group = data_group ^ 1;
        let tag_slot = line_index % TAGS_PER_ROW;
        let tag_row = self.tag_row_offset + line_index / TAGS_PER_ROW;
        ShmemLocation { line_index, data_group, data_row, tag_group, tag_row, tag_slot }
    }

    /// Number of rows (per group) holding tags.
    pub fn tag_rows_per_group(&self) -> u32 {
        self.data_rows_per_group.div_ceil(TAGS_PER_ROW / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn too_small_regions_are_rejected() {
        assert!(TranslationUnit::new(0, 0).is_none());
        assert!(TranslationUnit::new(256, 0).is_none());
        assert!(TranslationUnit::new(8 * 1024, 0).is_some());
    }

    #[test]
    fn capacity_accounting() {
        // 32 KB reserved: 256 rows total, 128 per group; tags need
        // ceil(d/16) rows, so d = 120 data rows per group fit (120 + 8 = 128).
        let t = TranslationUnit::new(32 * 1024, 0).unwrap();
        assert_eq!(t.num_lines(), 240);
        assert_eq!(t.data_capacity_bytes(), 240 * 128);
        assert!(t.data_capacity_bytes() <= 32 * 1024);
        assert!(t.tag_rows_per_group() >= t.data_rows_per_group().div_ceil(16));
    }

    impl TranslationUnit {
        fn data_rows_per_group(&self) -> u32 {
            self.data_rows_per_group
        }
    }

    #[test]
    fn data_and_tag_never_share_a_bank_group() {
        let t = TranslationUnit::new(16 * 1024, 0).unwrap();
        for block in 0..t.num_lines() as u64 * 3 {
            let loc = t.translate(block * 128);
            assert_ne!(loc.data_group, loc.tag_group);
            assert!(loc.tag_slot < TAGS_PER_ROW);
        }
    }

    #[test]
    fn same_block_same_location_and_direct_mapping_wraps() {
        let t = TranslationUnit::new(16 * 1024, 0).unwrap();
        let lines = t.num_lines() as u64;
        let a = t.translate(0);
        let b = t.translate(lines * 128); // wraps onto line 0
        assert_eq!(a, b);
        assert_eq!(t.translate(5 * 128 + 7).line_index, t.translate(5 * 128).line_index);
    }

    #[test]
    fn offset_registers_rebase_rows() {
        let base0 = TranslationUnit::new(8 * 1024, 0).unwrap();
        let base64 = TranslationUnit::new(8 * 1024, 64).unwrap();
        let a = base0.translate(0x80);
        let b = base64.translate(0x80);
        assert_eq!(b.data_row, a.data_row + 64);
        assert_eq!(b.tag_row, a.tag_row + 64);
        assert_eq!(a.line_index, b.line_index);
    }

    proptest! {
        /// Distinct line indices map to distinct (group, row) data locations —
        /// i.e. no two cached blocks alias in the scratchpad.
        #[test]
        fn data_locations_are_collision_free(capacity_kb in 2u64..48) {
            let Some(t) = TranslationUnit::new(capacity_kb * 1024, 0) else { return Ok(()); };
            let mut seen = std::collections::HashSet::new();
            for line in 0..t.num_lines() as u64 {
                let loc = t.translate(line * 128);
                prop_assert!(seen.insert((loc.data_group, loc.data_row)), "data collision at line {line}");
                prop_assert!(loc.data_row < t.data_row_offset + t.data_rows_per_group());
            }
        }

        /// Tag locations never collide with each other or with data rows.
        #[test]
        fn tag_locations_are_collision_free(capacity_kb in 2u64..48) {
            let Some(t) = TranslationUnit::new(capacity_kb * 1024, 0) else { return Ok(()); };
            let mut seen = std::collections::HashSet::new();
            for line in 0..t.num_lines() as u64 {
                let loc = t.translate(line * 128);
                prop_assert!(seen.insert((loc.tag_group, loc.tag_row, loc.tag_slot)), "tag collision at line {line}");
                // Tags start after the data rows.
                prop_assert!(loc.tag_row >= t.data_row_offset + t.data_rows_per_group());
            }
        }
    }
}
