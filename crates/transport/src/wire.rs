//! Byte-level encoding helpers and the link-layer frame codec.
//!
//! Collectives and control protocols exchange typed values over a byte
//! transport; `Wire` gives the handful of primitive types we need a
//! stable little-endian encoding without pulling in a serialization
//! framework on the hot path.
//!
//! The frame codec ([`encode_frame`] / [`decode_frame`]) wraps every
//! fabric message in a checksummed, sequence-numbered envelope so the
//! transport can detect corruption, suppress duplicates, and reassemble
//! per-channel order under an adversarial [`crate::PerturbPlan`].

use crate::ids::RankId;

/// Fixed-width little-endian encoding for primitive scalars.
pub trait Wire: Copy + Send + Sync + 'static {
    /// Encoded size in bytes.
    const WIDTH: usize;
    /// Append the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);
    /// Decode from exactly [`Self::WIDTH`] bytes.
    fn read(bytes: &[u8]) -> Self;

    /// Encode a slice: the concatenation of each element's little-endian
    /// bytes, in one exact-capacity copy.
    fn encode_slice(vals: &[Self]) -> Vec<u8>;

    /// Decode a whole buffer into a vector.
    ///
    /// # Panics
    /// Panics if `bytes.len()` is not a multiple of [`Self::WIDTH`].
    fn decode_slice(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! impl_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::WIDTH].try_into().unwrap())
            }
            fn encode_slice(vals: &[Self]) -> Vec<u8> {
                // SAFETY: `$t` is a primitive number: no padding, every byte
                // initialised, and `u8` has alignment 1.
                let raw = unsafe {
                    std::slice::from_raw_parts(
                        vals.as_ptr().cast::<u8>(),
                        std::mem::size_of_val(vals),
                    )
                };
                let mut out = raw.to_vec();
                if cfg!(target_endian = "big") {
                    for elem in out.chunks_exact_mut(Self::WIDTH) {
                        elem.reverse();
                    }
                }
                out
            }
            fn decode_slice(bytes: &[u8]) -> Vec<Self> {
                assert!(
                    bytes.len().is_multiple_of(Self::WIDTH),
                    "buffer length {} is not a multiple of element width {}",
                    bytes.len(),
                    Self::WIDTH
                );
                let n = bytes.len() / Self::WIDTH;
                let mut out = Vec::<$t>::with_capacity(n);
                // SAFETY: the destination has capacity for `n` elements, i.e.
                // exactly `bytes.len()` bytes, and does not overlap `bytes`;
                // every bit pattern is a valid `$t`, so all `n` are initialised.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        out.as_mut_ptr().cast::<u8>(),
                        bytes.len(),
                    );
                    out.set_len(n);
                }
                if cfg!(target_endian = "big") {
                    for v in out.iter_mut() {
                        *v = <$t>::from_le_bytes(v.to_ne_bytes());
                    }
                }
                out
            }
        }
    )*};
}

impl_wire!(f32, f64, u8, u16, u32, u64, i32, i64);

/// Encode a slice of `f32` as little-endian bytes.
pub fn f32s_to_bytes(vals: &[f32]) -> Vec<u8> {
    f32::encode_slice(vals)
}

/// Decode little-endian bytes into `f32`s.
pub fn bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    f32::decode_slice(bytes)
}

/// Encode a slice of `u64` as little-endian bytes.
pub fn u64s_to_bytes(vals: &[u64]) -> Vec<u8> {
    u64::encode_slice(vals)
}

/// Decode little-endian bytes into `u64`s.
pub fn bytes_to_u64s(bytes: &[u8]) -> Vec<u64> {
    u64::decode_slice(bytes)
}

// ---------------------------------------------------------------------------
// Link-layer frame codec.
// ---------------------------------------------------------------------------

/// Frame layout (all little-endian):
///
/// ```text
/// offset  0  u32  magic  "ELFR"
/// offset  4  u64  src rank
/// offset 12  u64  tag
/// offset 20  u64  per-(link, tag) sequence number
/// offset 28  u32  payload length
/// offset 32  ...  payload
/// tail       u64  frame_checksum (word-wise FNV-1a, see below) over every
///                 preceding byte
/// ```
const FRAME_MAGIC: u32 = 0x454c_4652; // "ELFR"
/// Fixed bytes before the payload.
pub const FRAME_HEADER: usize = 32;
/// Checksum trailer size.
pub const FRAME_TRAILER: usize = 8;

/// A decoded, checksum-verified link frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sender of the frame.
    pub src: RankId,
    /// Application tag (the (src, tag) pair names the ordered channel).
    pub tag: u64,
    /// Sequence number within the (src, tag) channel, starting at 0.
    pub seq: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than header + trailer.
    TooShort,
    /// Magic word mismatch.
    BadMagic,
    /// Declared payload length disagrees with the buffer length.
    LengthMismatch,
    /// [`frame_checksum`] mismatch (bit corruption in transit).
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame shorter than header + trailer"),
            FrameError::BadMagic => write!(f, "frame magic mismatch"),
            FrameError::LengthMismatch => write!(f, "frame length field disagrees with buffer"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

/// FNV-1a 64-bit hash over bytes — dependency-free and sensitive to any
/// single-bit flip. Byte-serial, so frames use the word-wise
/// [`frame_checksum`] instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One word-wise FNV-1a step followed by a rotation. For a fixed `h` it is
/// a bijection of `w`, and for a fixed `w` a bijection of `h` (xor, a
/// multiply by an odd constant and a rotation are all invertible). The
/// rotation carries each product's high bits into the next step's low
/// bits: without it a difference in a word's top bit stays in the top
/// bit, and two such differences in one lane cancel.
#[inline(always)]
fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The frame checksum: FNV-1a over little-endian 64-bit words instead of
/// bytes, in four independent lanes (word `i` of each 32-byte block feeds
/// lane `i`) so the multiplies overlap, then the lanes, a zero-padded tail
/// and the length folded in order into one word.
///
/// Every step is a bijection of the running state for a fixed word and of
/// the word for a fixed state, so two inputs of equal length that differ
/// inside any one aligned 8-byte word always hash differently: every
/// single-bit flip and every one-word overwrite is caught, as with the
/// byte-wise [`fnv1a64`], at word rather than byte cost.
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = fnv_word(*lane, u64::read(&block[8 * i..]));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_OFFSET, fnv_word);
    for tail in blocks.remainder().chunks(8) {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = fnv_word(h, u64::from_le_bytes(w));
    }
    fnv_word(h, bytes.len() as u64)
}

/// Encode one link frame.
pub fn encode_frame(src: RankId, tag: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
    FRAME_MAGIC.write(&mut out);
    (src.0 as u64).write(&mut out);
    tag.write(&mut out);
    seq.write(&mut out);
    (payload.len() as u32).write(&mut out);
    out.extend_from_slice(payload);
    frame_checksum(&out).write(&mut out);
    out
}

/// Decode and verify one link frame.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < FRAME_HEADER + FRAME_TRAILER {
        return Err(FrameError::TooShort);
    }
    if u32::read(&bytes[0..4]) != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let len = u32::read(&bytes[28..32]) as usize;
    if bytes.len() != FRAME_HEADER + len + FRAME_TRAILER {
        return Err(FrameError::LengthMismatch);
    }
    let body = &bytes[..FRAME_HEADER + len];
    let want = u64::read(&bytes[FRAME_HEADER + len..]);
    if frame_checksum(body) != want {
        return Err(FrameError::BadChecksum);
    }
    Ok(Frame {
        src: RankId(u64::read(&bytes[4..12]) as usize),
        tag: u64::read(&bytes[12..20]),
        seq: u64::read(&bytes[20..28]),
        payload: bytes[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip() {
        let xs = vec![0.0f32, -1.5, 3.25e7, f32::INFINITY, f32::MIN_POSITIVE];
        assert_eq!(bytes_to_f32s(&f32s_to_bytes(&xs)), xs);
    }

    #[test]
    fn u64_roundtrip() {
        let xs = vec![0u64, 1, u64::MAX, 0xdead_beef];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&xs)), xs);
    }

    #[test]
    fn nan_payload_survives() {
        let xs = vec![f32::NAN];
        let back = bytes_to_f32s(&f32s_to_bytes(&xs));
        assert!(back[0].is_nan());
    }

    #[test]
    fn mixed_widths() {
        let mut buf = Vec::new();
        42u16.write(&mut buf);
        (-7i32).write(&mut buf);
        assert_eq!(u16::read(&buf[0..2]), 42);
        assert_eq!(i32::read(&buf[2..6]), -7);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn decode_rejects_ragged_buffer() {
        bytes_to_f32s(&[0u8; 5]);
    }

    #[test]
    fn empty_slices() {
        assert!(f32s_to_bytes(&[]).is_empty());
        assert!(bytes_to_f32s(&[]).is_empty());
    }

    #[test]
    fn frame_roundtrip() {
        let enc = encode_frame(RankId(3), 0xdead, 42, b"payload");
        let f = decode_frame(&enc).unwrap();
        assert_eq!(f.src, RankId(3));
        assert_eq!(f.tag, 0xdead);
        assert_eq!(f.seq, 42);
        assert_eq!(f.payload, b"payload");
    }

    #[test]
    fn frame_roundtrip_empty_payload() {
        let enc = encode_frame(RankId(0), 0, 0, b"");
        assert_eq!(decode_frame(&enc).unwrap().payload, b"");
    }

    #[test]
    fn frame_rejects_any_single_bit_flip() {
        let enc = encode_frame(RankId(1), 7, 9, b"abcdef");
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn frame_rejects_truncation_and_extension() {
        let enc = encode_frame(RankId(1), 7, 9, b"abcdef");
        assert!(decode_frame(&enc[..enc.len() - 1]).is_err());
        let mut long = enc.clone();
        long.push(0);
        assert!(decode_frame(&long).is_err());
        assert_eq!(decode_frame(&[]), Err(FrameError::TooShort));
    }

    #[test]
    fn frame_rejects_bad_magic() {
        let mut enc = encode_frame(RankId(1), 7, 9, b"x");
        enc[0] = 0;
        // Magic is checked before the checksum, so the error is specific.
        assert_eq!(decode_frame(&enc), Err(FrameError::BadMagic));
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a-64 vectors; the checksum is part of the wire format.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
