//! The 64-bit object header word (paper Figure 1).
//!
//! Every heap object is preceded by one header word laid out as:
//!
//! ```text
//!  63                16 15            1  0
//! +--------------------+---------------+---+
//! |  object length     |      ID       | 1 |
//! |    (48 bits)       |   (15 bits)   |   |
//! +--------------------+---------------+---+
//! ```
//!
//! The lowest bit is always `1`, which distinguishes a header from a
//! *forwarding pointer*: when the collector moves an object it overwrites the
//! header with the (word-aligned, hence even) address of the new copy.
//!
//! Two IDs are reserved for raw data and pointer vectors; all other IDs index
//! the [`crate::DescriptorTable`] of mixed-type objects, whose entries play
//! the role of the compiler-generated scanning functions described in §3.2.

use crate::addr::{Addr, Word};

/// Reserved header ID for raw-data objects (no pointer fields).
pub const RAW_ID: u16 = 1;
/// Reserved header ID for vectors of pointers (every field is a pointer).
pub const VECTOR_ID: u16 = 2;
/// First ID available for mixed-type object descriptors.
pub const FIRST_MIXED_ID: u16 = 3;
/// Largest representable ID (15 bits).
pub const MAX_ID: u16 = 0x7FFF;
/// Largest representable object length in words (48 bits).
pub const MAX_LEN_WORDS: u64 = (1 << 48) - 1;

/// The kind of a heap object, as determined by its header ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Raw data: no payload word is a pointer (e.g. strings, float arrays).
    Raw,
    /// A vector of pointers: every payload word is a pointer or null.
    Vector,
    /// A mixed-type object: the descriptor with this ID says which payload
    /// words are pointers.
    Mixed(u16),
}

impl ObjectKind {
    /// The header ID for this kind.
    #[inline]
    pub fn id(self) -> u16 {
        match self {
            ObjectKind::Raw => RAW_ID,
            ObjectKind::Vector => VECTOR_ID,
            ObjectKind::Mixed(id) => id,
        }
    }

    /// Interprets a header ID as an object kind.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero (IDs start at 1) or exceeds [`MAX_ID`].
    #[inline]
    pub fn from_id(id: u16) -> Self {
        assert!((1..=MAX_ID).contains(&id), "object ID {id} out of range");
        match id {
            RAW_ID => ObjectKind::Raw,
            VECTOR_ID => ObjectKind::Vector,
            other => ObjectKind::Mixed(other),
        }
    }
}

/// A decoded object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    /// The object kind (decoded from the 15-bit ID field).
    pub kind: ObjectKind,
    /// Payload length in words (excluding the header word itself).
    pub len_words: u64,
}

impl Header {
    /// Creates a header.
    ///
    /// # Panics
    ///
    /// Panics if `len_words` exceeds [`MAX_LEN_WORDS`].
    #[inline]
    pub fn new(kind: ObjectKind, len_words: u64) -> Self {
        assert!(
            len_words <= MAX_LEN_WORDS,
            "object length {len_words} exceeds the 48-bit header field"
        );
        Header { kind, len_words }
    }

    /// Encodes this header into its word representation (low bit set).
    #[inline]
    pub fn encode(self) -> Word {
        1 | ((self.kind.id() as Word) << 1) | (self.len_words << 16)
    }

    /// Decodes a header word.
    ///
    /// Returns `None` if the word is a forwarding pointer (low bit clear)
    /// rather than a header.
    #[inline]
    pub fn decode(word: Word) -> Option<Header> {
        if word & 1 == 0 {
            return None;
        }
        let id = ((word >> 1) & 0x7FFF) as u16;
        let len = word >> 16;
        Some(Header {
            kind: ObjectKind::from_id(id),
            len_words: len,
        })
    }

    /// Total footprint of the object in words, including the header word.
    pub fn total_words(self) -> usize {
        self.len_words as usize + 1
    }

    /// Total footprint in bytes, including the header word.
    pub fn total_bytes(self) -> usize {
        self.total_words() * crate::addr::WORD_BYTES
    }
}

/// Result of inspecting the header slot of an object: either a live header
/// or a forwarding pointer left behind by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderSlot {
    /// The object has not been moved; here is its header.
    Header(Header),
    /// The object was moved to this address.
    Forwarded(Addr),
}

impl HeaderSlot {
    /// Decodes the word found in an object's header slot.
    #[inline]
    pub fn decode(word: Word) -> HeaderSlot {
        match Header::decode(word) {
            Some(h) => HeaderSlot::Header(h),
            None => HeaderSlot::Forwarded(Addr::new(word)),
        }
    }

    /// Returns the forwarding address, if this slot is a forward.
    #[inline]
    pub fn forwarded_to(self) -> Option<Addr> {
        match self {
            HeaderSlot::Forwarded(a) => Some(a),
            HeaderSlot::Header(_) => None,
        }
    }

    /// Returns the header, panicking on a forwarding pointer.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a forwarding pointer.
    #[inline]
    pub fn expect_header(self) -> Header {
        match self {
            HeaderSlot::Header(h) => h,
            HeaderSlot::Forwarded(a) => panic!("expected a header, found forward to {a:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for (kind, len) in [
            (ObjectKind::Raw, 0u64),
            (ObjectKind::Raw, 17),
            (ObjectKind::Vector, 3),
            (ObjectKind::Mixed(7), 5),
            (ObjectKind::Mixed(MAX_ID), MAX_LEN_WORDS),
        ] {
            let h = Header::new(kind, len);
            let w = h.encode();
            assert_eq!(w & 1, 1, "header words have the low bit set");
            assert_eq!(Header::decode(w), Some(h));
        }
    }

    #[test]
    fn forward_pointers_are_not_headers() {
        // Any word-aligned address has the low bit clear.
        assert_eq!(Header::decode(0x1000), None);
        assert_eq!(
            HeaderSlot::decode(0x1000),
            HeaderSlot::Forwarded(Addr::new(0x1000))
        );
        assert_eq!(
            HeaderSlot::decode(0x1000).forwarded_to(),
            Some(Addr::new(0x1000))
        );
    }

    #[test]
    fn header_slot_decodes_headers() {
        let h = Header::new(ObjectKind::Vector, 4);
        let slot = HeaderSlot::decode(h.encode());
        assert_eq!(slot, HeaderSlot::Header(h));
        assert_eq!(slot.forwarded_to(), None);
        assert_eq!(slot.expect_header(), h);
    }

    #[test]
    #[should_panic(expected = "expected a header")]
    fn expect_header_panics_on_forward() {
        HeaderSlot::decode(0x2000).expect_header();
    }

    #[test]
    fn kind_ids_round_trip() {
        assert_eq!(ObjectKind::from_id(RAW_ID), ObjectKind::Raw);
        assert_eq!(ObjectKind::from_id(VECTOR_ID), ObjectKind::Vector);
        assert_eq!(ObjectKind::from_id(11), ObjectKind::Mixed(11));
        assert_eq!(ObjectKind::Mixed(11).id(), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_id_rejected() {
        let _ = ObjectKind::from_id(0);
    }

    #[test]
    #[should_panic(expected = "48-bit")]
    fn oversized_length_rejected() {
        let _ = Header::new(ObjectKind::Raw, MAX_LEN_WORDS + 1);
    }

    #[test]
    fn footprints() {
        let h = Header::new(ObjectKind::Raw, 4);
        assert_eq!(h.total_words(), 5);
        assert_eq!(h.total_bytes(), 40);
    }

    #[test]
    fn id_field_is_fifteen_bits() {
        let h = Header::new(ObjectKind::Mixed(MAX_ID), 1);
        let decoded = Header::decode(h.encode()).unwrap();
        assert_eq!(decoded.kind, ObjectKind::Mixed(MAX_ID));
    }
}
