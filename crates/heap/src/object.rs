//! Small helpers for encoding scalar values into heap words.
//!
//! Raw-data objects store uninterpreted 64-bit words; these helpers give the
//! workloads a consistent way to pack floats and signed integers into them.

use crate::addr::Word;

/// Encodes an `f64` into a heap word (bit pattern).
///
/// # Examples
///
/// ```
/// # use mgc_heap::{f64_to_word, word_to_f64};
/// let w = f64_to_word(3.25);
/// assert_eq!(word_to_f64(w), 3.25);
/// ```
#[inline]
pub fn f64_to_word(value: f64) -> Word {
    value.to_bits()
}

/// Decodes an `f64` from a heap word.
#[inline]
pub fn word_to_f64(word: Word) -> f64 {
    f64::from_bits(word)
}

/// Encodes an `i64` into a heap word (two's complement bit pattern).
///
/// # Examples
///
/// ```
/// # use mgc_heap::{i64_to_word, word_to_i64};
/// assert_eq!(word_to_i64(i64_to_word(-7)), -7);
/// ```
#[inline]
pub fn i64_to_word(value: i64) -> Word {
    value as Word
}

/// Decodes an `i64` from a heap word.
#[inline]
pub fn word_to_i64(word: Word) -> i64 {
    word as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            assert_eq!(word_to_f64(f64_to_word(v)), v);
        }
        assert!(word_to_f64(f64_to_word(f64::NAN)).is_nan());
    }

    #[test]
    fn i64_round_trip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
            assert_eq!(word_to_i64(i64_to_word(v)), v);
        }
    }

    #[test]
    fn negative_floats_do_not_look_like_null() {
        assert_ne!(f64_to_word(-0.0), 0); // -0.0 has the sign bit set
    }
}
