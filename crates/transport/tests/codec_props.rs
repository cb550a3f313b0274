//! Properties of the bulk slice codec and the word-wise frame checksum.
//!
//! The codec is checked against the per-element `to_le_bytes` oracle for
//! every `Wire` type; the checksum against every single-bit flip and every
//! one-word overwrite of random frames.

use proptest::prelude::*;
use proptest::TestCaseError;
use transport::wire::{decode_frame, encode_frame, frame_checksum, FRAME_HEADER};
use transport::{RankId, Wire};

/// Check one slice against the per-element oracle, both directions, also
/// decoding from a buffer at an odd address.
fn codec_matches_oracle<T, const W: usize>(
    xs: &[T],
    to_le: impl Fn(T) -> [u8; W],
    bits: impl Fn(T) -> u64,
) -> Result<(), TestCaseError>
where
    T: Wire,
{
    let oracle: Vec<u8> = xs.iter().flat_map(|&x| to_le(x)).collect();
    let enc = T::encode_slice(xs);
    prop_assert_eq!(&enc, &oracle);
    prop_assert_eq!(enc.capacity(), oracle.len());
    let mut shifted = vec![0u8];
    shifted.extend_from_slice(&oracle);
    for buf in [&oracle[..], &shifted[1..]] {
        let dec = T::decode_slice(buf);
        prop_assert_eq!(dec.len(), xs.len());
        for (a, b) in xs.iter().zip(&dec) {
            prop_assert_eq!(bits(*a), bits(*b));
        }
    }
    Ok(())
}

macro_rules! codec_oracle_props {
    ($($name:ident: $t:ty => $bits:expr),* $(,)?) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            $(
                #[test]
                fn $name(xs in proptest::collection::vec(any::<$t>(), 0..67)) {
                    codec_matches_oracle(&xs, <$t>::to_le_bytes, $bits)?;
                }
            )*
        }
    };
}

codec_oracle_props! {
    codec_oracle_f32: f32 => |x: f32| x.to_bits() as u64,
    codec_oracle_f64: f64 => |x: f64| x.to_bits(),
    codec_oracle_u8: u8 => |x: u8| x as u64,
    codec_oracle_u16: u16 => |x: u16| x as u64,
    codec_oracle_u32: u32 => |x: u32| x as u64,
    codec_oracle_u64: u64 => |x: u64| x,
    codec_oracle_i32: i32 => |x: i32| x as u32 as u64,
    codec_oracle_i64: i64 => |x: i64| x as u64,
}

#[test]
fn codec_keeps_nan_payloads_bit_exact() {
    // Quiet and signalling NaNs with payloads, both signs, and infinities.
    let f32s: Vec<f32> = [
        0x7fc0_0000u32,
        0x7fa0_0001,
        0xffa0_1234,
        0x7f80_0001,
        0xffc0_0001,
        0x7f80_0000,
    ]
    .into_iter()
    .map(f32::from_bits)
    .collect();
    let f64s: Vec<f64> = [
        0x7ff8_0000_0000_0000u64,
        0x7ff4_0000_0000_0001,
        0xfff4_dead_beef_0001,
        0x7ff0_0000_0000_0001,
        0x7ff0_0000_0000_0000,
    ]
    .into_iter()
    .map(f64::from_bits)
    .collect();
    codec_matches_oracle(&f32s, f32::to_le_bytes, |x| x.to_bits() as u64).unwrap();
    codec_matches_oracle(&f64s, f64::to_le_bytes, |x| x.to_bits()).unwrap();
}

/// The checksummed span of a frame split into the checksum's words (8
/// bytes from the frame start, the last one possibly short), plus the
/// trailer: every range a one-word overwrite can hit.
fn frame_words(frame_len: usize) -> Vec<std::ops::Range<usize>> {
    let body = frame_len - 8;
    let mut words: Vec<_> = (0..body).step_by(8).map(|s| s..(s + 8).min(body)).collect();
    words.push(body..frame_len);
    words
}

fn assert_every_flip_and_overwrite_rejected(
    frame: &[u8],
    mut mask: impl FnMut() -> u64,
) -> Result<(), TestCaseError> {
    for byte in 0..frame.len() {
        for bit in 0..8 {
            let mut bad = frame.to_vec();
            bad[byte] ^= 1 << bit;
            prop_assert!(decode_frame(&bad).is_err(), "flip at {byte}.{bit} accepted");
        }
    }
    for word in frame_words(frame.len()) {
        let m = mask().to_le_bytes();
        let mut bad = frame.to_vec();
        let mut changed = false;
        for (b, m) in bad[word.clone()].iter_mut().zip(m) {
            *b ^= m;
            changed |= m != 0;
        }
        if changed {
            prop_assert!(
                decode_frame(&bad).is_err(),
                "overwrite of word {word:?} accepted"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frame_checksum_catches_every_flip_and_word_overwrite(
        src in 0usize..1 << 20,
        tag in any::<u64>(),
        seq in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4097),
        masks in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let frame = encode_frame(RankId(src), tag, seq, &payload);
        prop_assert_eq!(decode_frame(&frame).unwrap().payload, payload);
        let mut next = masks.into_iter().cycle();
        assert_every_flip_and_overwrite_rejected(&frame, || next.next().unwrap())?;
    }

    #[test]
    fn frame_checksum_is_alignment_free_and_length_sensitive(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // Words are read from the buffer's start, not from its address.
        let mut shifted = vec![0u8; 3];
        shifted.extend_from_slice(&bytes);
        prop_assert_eq!(frame_checksum(&bytes), frame_checksum(&shifted[3..]));
        // Zero padding is not a fixed point: appending zero bytes changes
        // the checksum, so a tail word cannot absorb length changes.
        let mut longer = bytes.clone();
        longer.push(0);
        prop_assert!(frame_checksum(&longer) != frame_checksum(&bytes));
    }
}

#[test]
fn every_tail_length_catches_flips_and_overwrites() {
    // Payload lengths around the 8-byte word and 32-byte block boundaries,
    // so the body ends at every offset within a block.
    for len in 0..=72usize {
        let payload: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
        let frame = encode_frame(RankId(2), 0xfeed, len as u64, &payload);
        assert_eq!(frame.len(), FRAME_HEADER + len + 8);
        let mut x = len as u64 | 1;
        assert_every_flip_and_overwrite_rejected(&frame, || {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) | 1;
            x
        })
        .unwrap();
    }
}
