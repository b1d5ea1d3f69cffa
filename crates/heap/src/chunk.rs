//! Global-heap chunk identifiers (paper §3.1, §3.4).
//!
//! The global heap is organised as a collection of fixed-size chunks. Each
//! vproc owns a *current* chunk that it bump-allocates promotions and major
//! collection survivors into. The memory system tracks the NUMA node every
//! chunk was placed on and preserves that node affinity when chunks are
//! reused, which is the heart of the paper's NUMA story. The chunk itself is
//! [`SharedChunk`](crate::SharedChunk); its behaviour is pinned by the tests
//! below.

use std::fmt;

/// Identifier of a global-heap chunk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// The raw index of this chunk.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::error::HeapError;
    use crate::header::{Header, ObjectKind};
    use crate::shared::{SharedChunk, SharedChunkState};
    use mgc_numa::NodeId;

    fn chunk() -> SharedChunk {
        SharedChunk::new(ChunkId(0), Addr::new(1 << 20), NodeId::new(2), 128)
    }

    #[test]
    fn alloc_lays_out_header_then_payload() {
        let c = chunk();
        let h = Header::new(ObjectKind::Raw, 3).encode();
        let addr = c.alloc(h, &[10, 20, 30]).unwrap();
        assert_eq!(addr, Addr::new((1 << 20) + 8));
        assert_eq!(c.read(0), h);
        assert_eq!(c.read(1), 10);
        assert_eq!(c.read(3), 30);
        assert_eq!(c.used_words(), 4);
        assert_eq!(c.free_words(), 124);
    }

    #[test]
    fn alloc_rejects_overflow() {
        let c = chunk();
        let h = Header::new(ObjectKind::Raw, 200).encode();
        let payload = vec![0u64; 200];
        assert_eq!(
            c.alloc(h, &payload),
            Err(HeapError::ChunkFull {
                requested_words: 201
            })
        );
    }

    #[test]
    fn contains_and_offset() {
        let c = chunk();
        assert!(c.contains(Addr::new(1 << 20)));
        assert!(c.contains(Addr::new((1 << 20) + 8 * 127)));
        assert!(!c.contains(Addr::new((1 << 20) + 8 * 128)));
        assert_eq!(c.offset_of(Addr::new((1 << 20) + 16)), 2);
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn offset_of_outside_panics() {
        chunk().offset_of(Addr::new(8));
    }

    #[test]
    fn reset_clears_allocation_but_keeps_node() {
        let c = chunk();
        c.alloc(Header::new(ObjectKind::Raw, 1).encode(), &[7])
            .unwrap();
        c.set_state(SharedChunkState::Filled);
        c.reset();
        assert_eq!(c.used_words(), 0);
        assert_eq!(c.state(), SharedChunkState::Free);
        assert_eq!(c.node(), NodeId::new(2));
    }

    #[test]
    fn object_iteration_in_allocation_order() {
        let c = chunk();
        let a = c
            .alloc(Header::new(ObjectKind::Raw, 2).encode(), &[1, 2])
            .unwrap();
        let b = c
            .alloc(Header::new(ObjectKind::Vector, 1).encode(), &[0])
            .unwrap();
        let objs: Vec<_> = c.objects().collect();
        assert_eq!(objs, vec![a, b]);
    }

    #[test]
    fn scan_pointer_tracks_progress() {
        let c = chunk();
        c.alloc(Header::new(ObjectKind::Raw, 2).encode(), &[1, 2])
            .unwrap();
        assert!(!c.fully_scanned());
        c.set_scan(3);
        assert!(c.fully_scanned());
    }

    #[test]
    fn state_transitions() {
        let c = chunk();
        assert_eq!(c.state(), SharedChunkState::Free);
        c.set_state(SharedChunkState::Current);
        assert_eq!(c.state(), SharedChunkState::Current);
        c.set_state(SharedChunkState::FromSpace);
        assert_eq!(c.state(), SharedChunkState::FromSpace);
    }

    #[test]
    fn ids_display() {
        assert_eq!(ChunkId(7).to_string(), "chunk7");
        assert_eq!(format!("{:?}", ChunkId(7)), "chunk7");
        assert_eq!(ChunkId(7).index(), 7);
    }
}
