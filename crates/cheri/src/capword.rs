//! In-memory 128-bit capability representation.
//!
//! A capability occupies 16 bytes of memory (figure 2 of the paper): the low
//! 64 bits are the address, the high 64 bits pack permissions, object type
//! and the compressed bounds. The **tag bit is not stored in these 128
//! bits** — it lives in the tagged-memory subsystem's out-of-band tag
//! storage, which is what makes capabilities unforgeable: writing these 16
//! bytes as data produces an untagged word that conveys no authority.
//!
//! Bit layout of the metadata half (bits 64..128 of the word):
//!
//! ```text
//!  127        113 112        98 97     92 91      78 77      64
//! +--------------+-------------+---------+----------+----------+
//! |   perms(15)  |  otype(15)  |  E(6)   |  B(14)   |  T(14)   |
//! +--------------+-------------+---------+----------+----------+
//! ```
//!
//! One modelling note: the in-memory object type is 15 bits; the reserved
//! "unsealed" encoding is zero so that a zeroed word (what revocation
//! leaves behind) decodes to an unsealed null capability, as in real CHERI.

use core::fmt;

use crate::{CapError, Capability, CompressedBounds, OType, Perms};

const OTYPE_MEM_MASK: u16 = 0x7fff;
const OTYPE_MEM_UNSEALED: u16 = 0;

/// A raw 16-byte capability word as stored in memory (tag kept out of band).
///
/// # Examples
///
/// ```
/// use cheri::{Capability, CapWord};
///
/// # fn main() -> Result<(), cheri::CapError> {
/// let cap = Capability::root_rw(0x4000, 0x1000).set_bounds_exact(0x4010, 64)?;
/// let word = CapWord::encode(&cap);
/// let back = word.decode(true);
/// assert_eq!(back.base(), cap.base());
/// assert_eq!(back.top(), cap.top());
/// assert_eq!(back.perms(), cap.perms());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CapWord(u128);

impl CapWord {
    /// The all-zero word (what revocation leaves behind when it also zeroes,
    /// and what `NULL` encodes to).
    pub const ZERO: CapWord = CapWord(0);

    /// Encodes a capability's 128 stored bits (the tag is *not* encoded; the
    /// caller stores it out of band).
    pub fn encode(cap: &Capability) -> CapWord {
        let (e, b, t) = cap.compressed_bounds().raw();
        let ot = if cap.otype().is_unsealed() {
            OTYPE_MEM_UNSEALED
        } else {
            cap.otype().raw() & OTYPE_MEM_MASK
        };
        let meta: u64 = (u64::from(cap.perms().bits() & 0x7fff) << 49)
            | (u64::from(ot) << 34)
            | (u64::from(e & 0x3f) << 28)
            | (u64::from(b & 0x3fff) << 14)
            | u64::from(t & 0x3fff);
        CapWord(((meta as u128) << 64) | cap.address() as u128)
    }

    /// Decodes the 128 stored bits back into a register capability, attaching
    /// the out-of-band `tag`.
    ///
    /// Any bit pattern decodes to *something* (the sweep decodes raw heap
    /// words); only patterns paired with a genuine tag convey authority.
    pub fn decode(self, tag: bool) -> Capability {
        let addr = self.0 as u64;
        let meta = (self.0 >> 64) as u64;
        let t = (meta & 0x3fff) as u16;
        let b = ((meta >> 14) & 0x3fff) as u16;
        let e = ((meta >> 28) & 0x3f) as u8;
        let ot_raw = ((meta >> 34) & 0x7fff) as u16;
        let perms = Perms::from_bits(((meta >> 49) & 0x7fff) as u16);
        let otype = if ot_raw == OTYPE_MEM_UNSEALED {
            OType::UNSEALED
        } else {
            OType::from_raw(ot_raw)
        };
        Capability::from_parts(tag, addr, CompressedBounds::from_raw(e, b, t), perms, otype)
    }

    /// Fast path for the revocation sweep: decode only the **base** of the
    /// capability in this word, without materialising the full register form
    /// (paper §3.3's inner loop looks up only the base in the shadow map).
    #[inline]
    pub fn base(self) -> u64 {
        let addr = self.0 as u64;
        let meta = (self.0 >> 64) as u64;
        let t = (meta & 0x3fff) as u16;
        let b = ((meta >> 14) & 0x3fff) as u16;
        let e = ((meta >> 28) & 0x3f) as u8;
        CompressedBounds::from_raw(e, b, t).decode_base(addr)
    }

    /// [`CapWord::base`] computed directly from the two 64-bit halves of the
    /// stored word, without assembling a `u128` first, via the partial
    /// (base-only, 64-bit) bounds decode. The word-at-a-time sweep kernel
    /// reads capability words as two 8-byte loads (the shape a 64-bit
    /// machine's inner loop actually takes), so this skips both the
    /// widen/narrow round trip and the unused `top` reconstruction on its
    /// hottest path.
    #[inline]
    pub fn base_from_halves(lo: u64, hi: u64) -> u64 {
        let t = (hi & 0x3fff) as u16;
        let b = ((hi >> 14) & 0x3fff) as u16;
        let e = ((hi >> 28) & 0x3f) as u8;
        CompressedBounds::from_raw(e, b, t).decode_base_partial(lo)
    }

    /// The raw 128-bit value.
    #[inline]
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Builds a word from its raw 128-bit value.
    #[inline]
    pub const fn from_bits(bits: u128) -> CapWord {
        CapWord(bits)
    }

    /// Serialises to 16 little-endian bytes (the memory image format used by
    /// the tagged-memory subsystem and core dumps).
    #[inline]
    pub fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Reads a word from 16 little-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::Misaligned`] if `bytes` is not exactly 16 bytes
    /// long (callers slice from aligned memory, so length doubles as the
    /// alignment witness here).
    pub fn try_from_le_bytes(bytes: &[u8]) -> Result<CapWord, CapError> {
        let arr: [u8; 16] = bytes.try_into().map_err(|_| CapError::Misaligned {
            addr: bytes.len() as u64,
        })?;
        Ok(CapWord(u128::from_le_bytes(arr)))
    }
}

impl From<[u8; 16]> for CapWord {
    fn from(bytes: [u8; 16]) -> Self {
        CapWord(u128::from_le_bytes(bytes))
    }
}

impl From<CapWord> for [u8; 16] {
    fn from(w: CapWord) -> Self {
        w.to_le_bytes()
    }
}

impl fmt::Debug for CapWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CapWord({:#034x})", self.0)
    }
}

impl fmt::LowerHex for CapWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_caps() -> Vec<Capability> {
        let root = Capability::root();
        vec![
            Capability::NULL,
            root,
            root.set_bounds_exact(0x4000, 64).unwrap(),
            root.set_bounds(0xdead_0000, 1 << 21).unwrap(),
            root.with_perms(Perms::LOAD | Perms::LOAD_CAP).unwrap(),
            root.set_bounds_exact(0x4000, 64)
                .unwrap()
                .incremented(32)
                .unwrap(),
        ]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for cap in sample_caps() {
            let w = CapWord::encode(&cap);
            let back = w.decode(cap.tag());
            assert_eq!(back.tag(), cap.tag());
            assert_eq!(back.address(), cap.address());
            assert_eq!(back.base(), cap.base());
            assert_eq!(back.top(), cap.top());
            assert_eq!(back.perms(), cap.perms());
            assert_eq!(back.otype(), cap.otype());
        }
    }

    #[test]
    fn fast_base_matches_full_decode() {
        for cap in sample_caps() {
            let w = CapWord::encode(&cap);
            assert_eq!(w.base(), w.decode(true).base());
            let lo = w.bits() as u64;
            let hi = (w.bits() >> 64) as u64;
            assert_eq!(CapWord::base_from_halves(lo, hi), w.base());
        }
    }

    #[test]
    fn base_from_halves_matches_on_raw_patterns() {
        // The sweep feeds raw (possibly non-capability) memory through the
        // halves path, so it must agree with the u128 path on anything.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..10_000 {
            let (lo, hi) = (next(), next());
            let w = CapWord::from_bits((u128::from(hi) << 64) | u128::from(lo));
            assert_eq!(CapWord::base_from_halves(lo, hi), w.base());
        }
    }

    #[test]
    fn null_encodes_to_zero() {
        assert_eq!(
            CapWord::encode(&Capability::NULL).bits() & ((1 << 64) - 1),
            0
        );
        // Decoding the zero word gives a dead, empty capability.
        let z = CapWord::ZERO.decode(false);
        assert!(!z.tag());
        assert_eq!(z.address(), 0);
    }

    #[test]
    fn byte_roundtrip() {
        let cap = Capability::root()
            .set_bounds_exact(0x1234_5670, 128)
            .unwrap();
        let w = CapWord::encode(&cap);
        let bytes = w.to_le_bytes();
        assert_eq!(CapWord::try_from_le_bytes(&bytes).unwrap(), w);
        assert_eq!(CapWord::from(bytes), w);
        let back: [u8; 16] = w.into();
        assert_eq!(back, bytes);
    }

    #[test]
    fn short_byte_slices_are_rejected() {
        assert!(CapWord::try_from_le_bytes(&[0u8; 8]).is_err());
        assert!(CapWord::try_from_le_bytes(&[0u8; 17]).is_err());
    }

    #[test]
    fn data_bit_patterns_decode_without_panicking() {
        for pattern in [0u128, u128::MAX, 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10] {
            let w = CapWord::from_bits(pattern);
            let c = w.decode(false);
            let _ = c.base();
            let _ = c.top();
            assert!(!c.tag());
        }
    }

    #[test]
    fn sealed_cap_roundtrips() {
        let sealer = Capability::root()
            .set_bounds_exact(9, 1)
            .unwrap()
            .with_perms(Perms::SEAL)
            .unwrap();
        let cap = Capability::root()
            .set_bounds_exact(0x8000, 32)
            .unwrap()
            .sealed_with(&sealer)
            .unwrap();
        let back = CapWord::encode(&cap).decode(true);
        assert!(back.is_sealed());
        assert_eq!(back.otype(), cap.otype());
    }
}
