//! Shared Memory Management Table (SMMT).
//!
//! §II-A: each SM keeps an independent SMMT where each CTA reserves one entry
//! recording the base address and size of its shared-memory allocation.
//!
//! §IV-B ("Determination of unused shared memory space"): CIAO consults the
//! SMMT to find how much scratchpad the resident CTAs leave unused and
//! repurposes that space as a cache for isolated warps. This table is the
//! SM's only scratchpad ledger: [`Smmt::unused`] is that unused space, and
//! the SM hands it to its redirect cache (`ciao-core`'s `SharedMemCache`)
//! after every CTA launch and retire. CIAO's space therefore needs no entry
//! of its own here.

use crate::CtaId;
use serde::{Deserialize, Serialize};

/// One SMMT entry: the contiguous scratchpad region of one CTA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmmtEntry {
    /// The CTA owning the region.
    pub cta: CtaId,
    /// Base byte address within the scratchpad.
    pub base: u32,
    /// Size in bytes.
    pub size: u32,
}

impl SmmtEntry {
    /// Exclusive end address of the region.
    pub fn end(&self) -> u32 {
        self.base + self.size
    }
}

/// Errors returned by SMMT operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmmtError {
    /// Not enough contiguous free space for the requested allocation.
    OutOfSpace,
    /// The CTA already holds an allocation.
    AlreadyAllocated,
    /// No allocation found for the CTA.
    NotFound,
}

impl std::fmt::Display for SmmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmmtError::OutOfSpace => write!(f, "insufficient free shared memory"),
            SmmtError::AlreadyAllocated => write!(f, "CTA already has a shared-memory allocation"),
            SmmtError::NotFound => write!(f, "no matching SMMT entry"),
        }
    }
}

impl std::error::Error for SmmtError {}

/// The Shared Memory Management Table of one SM.
#[derive(Debug, Clone, Default)]
pub struct Smmt {
    total_size: u32,
    entries: Vec<SmmtEntry>,
}

impl Smmt {
    /// Creates an SMMT managing a scratchpad of `total_size` bytes.
    pub fn new(total_size: u32) -> Self {
        Smmt { total_size, entries: Vec::new() }
    }

    /// Total scratchpad capacity managed by this table.
    pub fn total_size(&self) -> u32 {
        self.total_size
    }

    /// Current entries, one per CTA holding shared memory.
    pub fn entries(&self) -> &[SmmtEntry] {
        &self.entries
    }

    /// Bytes currently allocated to CTAs (programmer-visible usage). This is
    /// the quantity behind the `Fsmem` column of Table II.
    pub fn cta_allocated(&self) -> u32 {
        self.entries.iter().map(|e| e.size).sum()
    }

    /// Bytes no CTA holds: the space CIAO repurposes as a cache (§IV-B).
    pub fn unused(&self) -> u32 {
        self.total_size - self.cta_allocated()
    }

    /// Finds the lowest free contiguous region of at least `size` bytes.
    fn find_free(&self, size: u32) -> Option<u32> {
        if size == 0 {
            return Some(0);
        }
        let mut regions: Vec<(u32, u32)> = self.entries.iter().map(|e| (e.base, e.end())).collect();
        regions.sort_unstable();
        let mut cursor = 0u32;
        for (base, end) in regions {
            if base >= cursor && base - cursor >= size {
                return Some(cursor);
            }
            cursor = cursor.max(end);
        }
        if self.total_size >= cursor && self.total_size - cursor >= size {
            Some(cursor)
        } else {
            None
        }
    }

    /// Allocates `size` bytes of shared memory for CTA `cta` (kernel launch).
    pub fn allocate_cta(&mut self, cta: CtaId, size: u32) -> Result<SmmtEntry, SmmtError> {
        if self.entries.iter().any(|e| e.cta == cta) {
            return Err(SmmtError::AlreadyAllocated);
        }
        let base = self.find_free(size).ok_or(SmmtError::OutOfSpace)?;
        let entry = SmmtEntry { cta, base, size };
        self.entries.push(entry);
        Ok(entry)
    }

    /// Releases the allocation of CTA `cta` (CTA completion).
    pub fn free_cta(&mut self, cta: CtaId) -> Result<SmmtEntry, SmmtError> {
        let idx = self.entries.iter().position(|e| e.cta == cta).ok_or(SmmtError::NotFound)?;
        Ok(self.entries.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cta_allocation_and_free() {
        let mut t = Smmt::new(48 * 1024);
        let a = t.allocate_cta(0, 8 * 1024).unwrap();
        assert_eq!(a.base, 0);
        let b = t.allocate_cta(1, 4 * 1024).unwrap();
        assert_eq!(b.base, 8 * 1024);
        assert_eq!(t.cta_allocated(), 12 * 1024);
        assert_eq!(t.unused(), 36 * 1024);
        t.free_cta(0).unwrap();
        assert_eq!(t.unused(), 44 * 1024);
        // Freed space is reused.
        let c = t.allocate_cta(2, 6 * 1024).unwrap();
        assert_eq!(c.base, 0);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut t = Smmt::new(1024);
        t.allocate_cta(3, 128).unwrap();
        assert_eq!(t.allocate_cta(3, 128), Err(SmmtError::AlreadyAllocated));
    }

    #[test]
    fn out_of_space() {
        let mut t = Smmt::new(1024);
        t.allocate_cta(0, 1000).unwrap();
        assert_eq!(t.allocate_cta(1, 100), Err(SmmtError::OutOfSpace));
    }

    #[test]
    fn free_unknown_cta_is_error() {
        let mut t = Smmt::new(1024);
        assert_eq!(t.free_cta(9), Err(SmmtError::NotFound));
    }

    proptest! {
        /// Allocations never overlap and never exceed the scratchpad size.
        #[test]
        fn no_overlap(sizes in proptest::collection::vec(1u32..8 * 1024, 1..12)) {
            let mut t = Smmt::new(48 * 1024);
            for (i, s) in sizes.iter().enumerate() {
                let _ = t.allocate_cta(i as CtaId, *s);
            }
            let entries = t.entries().to_vec();
            for (i, a) in entries.iter().enumerate() {
                prop_assert!(a.end() <= 48 * 1024);
                for b in entries.iter().skip(i + 1) {
                    let disjoint = a.end() <= b.base || b.end() <= a.base;
                    prop_assert!(disjoint, "overlapping entries {a:?} {b:?}");
                }
            }
            prop_assert!(t.cta_allocated() <= t.total_size());
        }

        /// unused() + cta_allocated() always equals the total capacity.
        #[test]
        fn space_conservation(sizes in proptest::collection::vec(1u32..4096, 1..16)) {
            let mut t = Smmt::new(48 * 1024);
            for (i, s) in sizes.iter().enumerate() {
                let _ = t.allocate_cta(i as CtaId, *s);
            }
            prop_assert_eq!(t.cta_allocated() + t.unused(), t.total_size());
        }
    }
}
