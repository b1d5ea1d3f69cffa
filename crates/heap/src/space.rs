//! The simulated virtual address space.
//!
//! Every heap region (each vproc's local heap and every global-heap chunk)
//! is assigned a disjoint range of a flat address space, in units of
//! fixed-size blocks. Given an address, [`AddressSpace::owner_of`] answers
//! "which region does this belong to?" in constant time, which is what the
//! collector's `space_of` test (local vs. global, which vproc) is built on.

use crate::addr::{Addr, WORD_BYTES};
use crate::chunk::ChunkId;

/// The owner of one block of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionOwner {
    /// Not mapped to any heap region.
    Unmapped,
    /// Part of a vproc's local heap.
    Local {
        /// The owning vproc index.
        vproc: usize,
    },
    /// Part of a global-heap chunk.
    Global {
        /// The owning chunk.
        chunk: ChunkId,
    },
}

/// A flat address space divided into fixed-size blocks.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    block_words: usize,
    regions: Vec<RegionOwner>,
}

impl AddressSpace {
    /// Creates an address space with the given block granularity in words.
    ///
    /// Block 0 is permanently unmapped so that the null address never falls
    /// inside a region.
    ///
    /// # Panics
    ///
    /// Panics if `block_words` is zero.
    pub fn new(block_words: usize) -> Self {
        assert!(block_words > 0, "address-space blocks must be non-empty");
        AddressSpace {
            block_words,
            regions: vec![RegionOwner::Unmapped],
        }
    }

    /// The block granularity in words.
    pub fn block_words(&self) -> usize {
        self.block_words
    }

    /// The block granularity in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_words * WORD_BYTES
    }

    /// Maps `blocks` consecutive blocks to `owner` and returns the base
    /// address of the new region.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or `owner` is [`RegionOwner::Unmapped`].
    pub fn map(&mut self, owner: RegionOwner, blocks: usize) -> Addr {
        assert!(blocks > 0, "cannot map an empty region");
        assert!(
            owner != RegionOwner::Unmapped,
            "cannot map a region to the unmapped owner"
        );
        let first_block = self.regions.len();
        self.regions.extend(std::iter::repeat_n(owner, blocks));
        Addr::new((first_block * self.block_bytes()) as u64)
    }

    /// The owner of the block containing `addr`.
    pub fn owner_of(&self, addr: Addr) -> RegionOwner {
        let block = (addr.raw() as usize) / self.block_bytes();
        self.regions
            .get(block)
            .copied()
            .unwrap_or(RegionOwner::Unmapped)
    }

    /// Total number of mapped blocks (excluding the reserved null block).
    pub fn mapped_blocks(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| **r != RegionOwner::Unmapped)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_block_is_never_mapped() {
        let mut space = AddressSpace::new(128);
        let base = space.map(RegionOwner::Local { vproc: 0 }, 1);
        assert_eq!(base, Addr::new(1024));
        assert_eq!(space.owner_of(Addr::NULL), RegionOwner::Unmapped);
        assert_eq!(space.owner_of(Addr::new(8)), RegionOwner::Unmapped);
    }

    #[test]
    fn regions_are_disjoint_and_resolvable() {
        let mut space = AddressSpace::new(128);
        let a = space.map(RegionOwner::Local { vproc: 0 }, 2);
        let b = space.map(RegionOwner::Global { chunk: ChunkId(3) }, 1);
        assert_eq!(space.owner_of(a), RegionOwner::Local { vproc: 0 });
        assert_eq!(
            space.owner_of(a.add_words(2 * 128 - 1)),
            RegionOwner::Local { vproc: 0 }
        );
        assert_eq!(space.owner_of(b), RegionOwner::Global { chunk: ChunkId(3) });
        assert_eq!(b.raw(), a.raw() + 2 * 128 * 8);
        assert_eq!(space.mapped_blocks(), 3);
    }

    #[test]
    fn addresses_beyond_mapping_are_unmapped() {
        let space = AddressSpace::new(64);
        assert_eq!(space.owner_of(Addr::new(1 << 30)), RegionOwner::Unmapped);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_block_size_rejected() {
        let _ = AddressSpace::new(0);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn zero_length_mapping_rejected() {
        let mut space = AddressSpace::new(64);
        let _ = space.map(RegionOwner::Local { vproc: 0 }, 0);
    }

    #[test]
    #[should_panic(expected = "unmapped owner")]
    fn mapping_to_unmapped_rejected() {
        let mut space = AddressSpace::new(64);
        let _ = space.map(RegionOwner::Unmapped, 1);
    }
}
