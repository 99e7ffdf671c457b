//! Deterministic fault injection for snapshot bytes.
//!
//! A mined store is serialized once, then replayed through every
//! mutation this module can generate; the `store_corruption` test matrix
//! asserts each mutated byte string yields a clean typed
//! [`SnapshotError`](super::SnapshotError) — never a panic, hang, or
//! silently different store. All generators are pure functions of their
//! inputs (plus an explicit seed for the sampled bit flips), so a failing
//! case reproduces from its `Fault` value alone.

use super::codec::crc32;
use super::{layout, SnapshotLayout, FOOTER_MAGIC};
use std::ops::Range;

/// One mutation of a byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Keep only the first `len` bytes.
    Truncate(usize),
    /// XOR one bit: `bytes[offset] ^= 1 << bit`.
    FlipBit {
        /// Byte offset of the flip.
        offset: usize,
        /// Bit index within the byte (0–7).
        bit: u8,
    },
    /// Invert a whole byte: `bytes[offset] ^= 0xFF`.
    FlipByte(usize),
    /// Torn write: the first `keep` bytes reached disk, the tail reads
    /// back as zeros (rename observed before the data was flushed).
    TornWrite {
        /// Prefix length that survived.
        keep: usize,
    },
    /// Swap the byte ranges of two sections (must not overlap).
    SectionSwap {
        /// First section's byte range.
        a: Range<usize>,
        /// Second section's byte range.
        b: Range<usize>,
    },
    /// Re-insert a copy of `bytes[range]` immediately after it — a
    /// replayed write. Aimed at whole WAL records it models a duplicated
    /// append (same sequence number twice).
    DuplicateRange(Range<usize>),
}

impl Fault {
    /// Apply the mutation to a copy of `bytes`.
    pub fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Fault::Truncate(len) => bytes[..(*len).min(bytes.len())].to_vec(),
            Fault::FlipBit { offset, bit } => {
                let mut out = bytes.to_vec();
                out[*offset] ^= 1 << bit;
                out
            }
            Fault::FlipByte(offset) => {
                let mut out = bytes.to_vec();
                out[*offset] ^= 0xFF;
                out
            }
            Fault::TornWrite { keep } => {
                let mut out = vec![0u8; bytes.len()];
                let keep = (*keep).min(bytes.len());
                out[..keep].copy_from_slice(&bytes[..keep]);
                out
            }
            Fault::SectionSwap { a, b } => {
                // Rebuild: prefix, b's bytes, gap, a's bytes, suffix.
                let (first, second) = if a.start <= b.start { (a, b) } else { (b, a) };
                assert!(first.end <= second.start, "sections overlap");
                let mut out = Vec::with_capacity(bytes.len());
                out.extend_from_slice(&bytes[..first.start]);
                out.extend_from_slice(&bytes[second.clone()]);
                out.extend_from_slice(&bytes[first.end..second.start]);
                out.extend_from_slice(&bytes[first.clone()]);
                out.extend_from_slice(&bytes[second.end..]);
                out
            }
            Fault::DuplicateRange(range) => {
                let mut out = Vec::with_capacity(bytes.len() + range.len());
                out.extend_from_slice(&bytes[..range.end]);
                out.extend_from_slice(&bytes[range.clone()]);
                out.extend_from_slice(&bytes[range.end..]);
                out
            }
        }
    }
}

/// Every truncation length `0..len` — exhaustive for small snapshots and
/// a superset of truncation-at-every-boundary.
pub fn exhaustive_truncations(len: usize) -> Vec<Fault> {
    (0..len).map(Fault::Truncate).collect()
}

/// Truncations exactly at the structural boundaries of a snapshot
/// (header end, each section end, footer end minus one).
pub fn boundary_truncations(layout: &SnapshotLayout) -> Vec<Fault> {
    let mut out: Vec<Fault> = layout
        .boundaries()
        .into_iter()
        .filter(|&b| b < layout.footer.end)
        .map(Fault::Truncate)
        .collect();
    // One byte short of complete: the commit marker is present but the
    // final CRC byte is missing.
    out.push(Fault::Truncate(layout.footer.end - 1));
    out
}

/// Invert every byte once — exhaustive single-byte corruption.
pub fn exhaustive_byte_flips(len: usize) -> Vec<Fault> {
    (0..len).map(Fault::FlipByte).collect()
}

/// Scramble a user seed into a non-zero xorshift64 state (splitmix64
/// finalizer, so adjacent seeds produce unrelated streams).
fn xorshift_state(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

/// `n` single-bit flips at seeded pseudo-random positions (xorshift64;
/// the same seed always yields the same faults).
pub fn seeded_bit_flips(len: usize, n: usize, seed: u64) -> Vec<Fault> {
    assert!(len > 0, "cannot flip bits in an empty file");
    let mut state = xorshift_state(seed);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            Fault::FlipBit { offset: (r >> 8) as usize % len, bit: (r & 7) as u8 }
        })
        .collect()
}

/// Torn writes at every structural boundary plus seeded interior cuts:
/// the prefix survived, the rest reads back as zeros.
pub fn torn_writes(layout: &SnapshotLayout, extra_cuts: usize, seed: u64) -> Vec<Fault> {
    let len = layout.footer.end;
    let mut out: Vec<Fault> = layout
        .boundaries()
        .into_iter()
        .filter(|&b| b < len)
        .map(|keep| Fault::TornWrite { keep })
        .collect();
    let mut state = xorshift_state(seed);
    for _ in 0..extra_cuts {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(Fault::TornWrite { keep: (state >> 8) as usize % len });
    }
    out
}

/// Every unordered pair of distinct sections, swapped.
pub fn section_swaps(layout: &SnapshotLayout) -> Vec<Fault> {
    let mut out = Vec::new();
    for i in 0..layout.sections.len() {
        for j in (i + 1)..layout.sections.len() {
            out.push(Fault::SectionSwap {
                a: layout.sections[i].1.clone(),
                b: layout.sections[j].1.clone(),
            });
        }
    }
    out
}

/// Every unordered pair of distinct spans, swapped. The WAL analogue of
/// [`section_swaps`]: aimed at record spans it models reordered appends.
pub fn span_swaps(spans: &[Range<usize>]) -> Vec<Fault> {
    let mut out = Vec::new();
    for i in 0..spans.len() {
        for j in (i + 1)..spans.len() {
            out.push(Fault::SectionSwap { a: spans[i].clone(), b: spans[j].clone() });
        }
    }
    out
}

/// One duplication per span — each record replayed once.
pub fn span_duplications(spans: &[Range<usize>]) -> Vec<Fault> {
    spans.iter().cloned().map(Fault::DuplicateRange).collect()
}

/// Re-frame a valid snapshot with section `name`'s payload passed
/// through `edit`, recomputing the section CRC, its length and the file
/// CRC: a file every checksum accepts, for reaching the payload decoders
/// behind them. An edit that changes the payload length shifts the
/// sections after it, which unaligns a v2 relation section.
pub fn rewrite_section(bytes: &[u8], name: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let lay = layout(bytes).expect("a valid snapshot");
    let i = lay.sections.iter().position(|(n, _)| *n == name).expect("section present");
    let frame = &lay.sections[i].1;
    let mut payload = bytes[lay.payload(i)].to_vec();
    edit(&mut payload);
    // Keep the tag; rewrite the length, payload and CRC.
    let mut out = bytes[..frame.start + 4].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&bytes[frame.end..lay.footer.start]);
    let file_crc = crc32(&out);
    out.extend_from_slice(FOOTER_MAGIC);
    out.extend_from_slice(&file_crc.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_pure_and_length_preserving_where_expected() {
        let bytes: Vec<u8> = (0..32u8).collect();
        assert_eq!(Fault::Truncate(10).apply(&bytes).len(), 10);
        assert_eq!(Fault::FlipBit { offset: 3, bit: 7 }.apply(&bytes).len(), 32);
        assert_eq!(Fault::FlipByte(0).apply(&bytes)[0], 0xFF);
        let torn = Fault::TornWrite { keep: 4 }.apply(&bytes);
        assert_eq!(torn.len(), 32);
        assert_eq!(&torn[..4], &bytes[..4]);
        assert!(torn[4..].iter().all(|&b| b == 0));
        let swapped = Fault::SectionSwap { a: 0..4, b: 8..12 }.apply(&bytes);
        assert_eq!(&swapped[..4], &bytes[8..12]);
        assert_eq!(&swapped[8..12], &bytes[..4]);
        assert_eq!(swapped.len(), 32);
        let duped = Fault::DuplicateRange(4..8).apply(&bytes);
        assert_eq!(duped.len(), 36);
        assert_eq!(&duped[..8], &bytes[..8]);
        assert_eq!(&duped[8..12], &bytes[4..8]);
        assert_eq!(&duped[12..], &bytes[8..]);
    }

    #[test]
    fn seeded_generators_are_deterministic() {
        let a = seeded_bit_flips(100, 16, 42);
        let b = seeded_bit_flips(100, 16, 42);
        assert_eq!(a, b);
        let c = seeded_bit_flips(100, 16, 43);
        assert_ne!(a, c, "different seeds should differ");
        for f in &a {
            match f {
                Fault::FlipBit { offset, bit } => {
                    assert!(*offset < 100);
                    assert!(*bit < 8);
                }
                other => panic!("unexpected fault {other:?}"),
            }
        }
    }
}
