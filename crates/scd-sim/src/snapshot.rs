//! Whole-machine checkpointing: serialize core *and* µarch state so a
//! run can be interrupted and resumed with bit-identical results.
//!
//! [`crate::Machine::snapshot`] captures everything timing-relevant —
//! register files, PC, cycle count, scoreboard, SCD operand registers,
//! statistics, caches, TLBs, BTB/JTE tables, RAS, both predictors and
//! all memory segments — into a [`Snapshot`]. Restoring it into a
//! machine built from the *same* config and program (checked via a
//! fingerprint) and continuing the run reproduces the uninterrupted
//! run's [`crate::SimStats`] exactly; a test asserts this.
//!
//! The byte encoding ([`Snapshot::to_bytes`]/[`Snapshot::from_bytes`])
//! is a self-contained little-endian format (magic `SCDCKPT2`) with no
//! external dependencies, used by `scd-cli run --checkpoint-every` /
//! `--resume`.
//!
//! Memory segments are stored *zero-trimmed*: each entry records the
//! segment's full size plus only the bytes up to its last non-zero one,
//! and restore zero-fills the tail. Guests map a ~200 MB mostly
//! untouched heap, and the sampled-simulation scheduler snapshots at
//! every run start — cloning all of it made a snapshot cost more than
//! the intervals it protects. Trimming is semantically invisible (the
//! machine zero-initializes segments) and shrinks both in-memory
//! snapshots and checkpoint files by orders of magnitude.

use crate::stats::SimStats;
use std::fmt;

/// Magic prefix of the checkpoint byte format. `SCDCKPT1` stored full
/// segment images; the zero-trimmed `SCDCKPT2` is not
/// backwards-compatible, and old checkpoint files are rejected with a
/// bad-magic error rather than misread.
const MAGIC: &[u8; 8] = b"SCDCKPT2";

/// Error decoding or restoring a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream is not a well-formed checkpoint.
    Format(String),
    /// The checkpoint was taken from a different config/program.
    Fingerprint {
        /// Fingerprint of the machine being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format(m) => write!(f, "malformed checkpoint: {m}"),
            SnapshotError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint is for a different config/program \
                 (machine fingerprint {expected:#018x}, snapshot {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time capture of a [`crate::Machine`]'s complete state.
///
/// Opaque by design: the only consumers are
/// [`crate::Machine::restore`] and the byte codec. The capture excludes
/// the trace sink, profiler and invariant checker (observers, not
/// state) and any installed fault plan; restoring disables invariant
/// checking on the target machine because the replay checker assumes it
/// observed the run from instruction zero.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) fingerprint: u64,
    /// All scalar core + µarch state, in the fixed order produced by
    /// `Machine::snapshot`.
    pub(crate) words: Vec<u64>,
    /// Memory segments as (name, base, full size, zero-trimmed data):
    /// `data` holds the segment's bytes up to its last non-zero one, and
    /// everything from `data.len()` to `size` is implicitly zero.
    pub(crate) segments: Vec<(String, u64, u64, Vec<u8>)>,
    /// Guest output bytes emitted so far.
    pub(crate) output: Vec<u8>,
}

impl Snapshot {
    /// The config/program fingerprint this snapshot was taken from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serializes the snapshot into the `SCDCKPT1` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        push_u64(&mut out, self.fingerprint);
        push_u64(&mut out, self.words.len() as u64);
        for &w in &self.words {
            push_u64(&mut out, w);
        }
        push_bytes(&mut out, &self.output);
        push_u64(&mut out, self.segments.len() as u64);
        for (name, base, size, data) in &self.segments {
            push_bytes(&mut out, name.as_bytes());
            push_u64(&mut out, *base);
            push_u64(&mut out, *size);
            push_bytes(&mut out, data);
        }
        out
    }

    /// Parses a snapshot back from bytes produced by [`Self::to_bytes`].
    ///
    /// # Errors
    /// Returns [`SnapshotError::Format`] on truncated or malformed
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(SnapshotError::Format("bad magic".into()));
        }
        let fingerprint = r.u64()?;
        let nwords = r.u64()? as usize;
        if nwords > bytes.len() / 8 {
            return Err(SnapshotError::Format("word count exceeds input".into()));
        }
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(r.u64()?);
        }
        let output = r.bytes_field()?.to_vec();
        let nsegs = r.u64()? as usize;
        if nsegs > bytes.len() {
            return Err(SnapshotError::Format("segment count exceeds input".into()));
        }
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let name = String::from_utf8(r.bytes_field()?.to_vec())
                .map_err(|_| SnapshotError::Format("segment name not utf-8".into()))?;
            let base = r.u64()?;
            let size = r.u64()?;
            let data = r.bytes_field()?.to_vec();
            if data.len() as u64 > size {
                return Err(SnapshotError::Format(format!(
                    "segment {name} carries {} bytes but declares size {size}",
                    data.len()
                )));
            }
            segments.push((name, base, size, data));
        }
        if r.pos != bytes.len() {
            return Err(SnapshotError::Format("trailing bytes".into()));
        }
        Ok(Snapshot {
            fingerprint,
            words,
            segments,
            output,
        })
    }
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_bytes(out: &mut Vec<u8>, b: &[u8]) {
    push_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Format("truncated".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.u64()? as usize;
        self.take(n)
    }
}

/// Read cursor over a snapshot's word stream, handed to each component's
/// `restore_words`.
///
/// Exhausting the stream or failing a geometry check returns
/// [`SnapshotError::Format`]: the fingerprint covers only the (config,
/// program) pair, so a truncated or bit-flipped checkpoint file can pass
/// it while the word stream disagrees with the machine's shape. That is
/// a bad input, not an internal bug — callers surface it as the
/// documented checkpoint error instead of panicking.
pub(crate) struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Cursor { words, pos: 0 }
    }

    pub(crate) fn next(&mut self) -> Result<u64, SnapshotError> {
        let w = *self
            .words
            .get(self.pos)
            .ok_or_else(|| SnapshotError::Format("snapshot word stream exhausted".into()))?;
        self.pos += 1;
        Ok(w)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.words.len() - self.pos
    }
}

/// Geometry / consistency check during restore; `false` means the word
/// stream disagrees with the machine's shape.
pub(crate) fn check(ok: bool, what: &str) -> Result<(), SnapshotError> {
    if ok {
        Ok(())
    } else {
        Err(SnapshotError::Format(what.into()))
    }
}

/// FNV-1a offset basis: the `init` that starts a fresh [`fnv1a`] hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step over a byte slice, chained via `init`: the
/// workspace's one non-cryptographic digest (snapshot fingerprints,
/// result-cache entry checksums). An integrity check against torn
/// writes and bit rot, not an authenticity one.
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    let mut h = init;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes every [`SimStats`] field in [`SimStats::counters`] order.
pub(crate) fn stats_to_words(s: &SimStats, out: &mut Vec<u64>) {
    out.extend_from_slice(&s.counters());
}

/// Inverse of [`stats_to_words`].
pub(crate) fn stats_from_words(c: &mut Cursor) -> Result<SimStats, SnapshotError> {
    let mut s = SimStats::default();
    for slot in s.counters_mut() {
        *slot = c.next()?;
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_standard_vector() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"fo"), b"o"),
            fnv1a(FNV_OFFSET, b"foo")
        );
    }

    #[test]
    fn byte_roundtrip() {
        let snap = Snapshot {
            fingerprint: 0xfeed_beef,
            words: vec![1, 2, 3, u64::MAX],
            segments: vec![
                ("text".into(), 0x1000, 3, vec![1, 2, 3]),
                ("heap".into(), 0x4000, 0x100, vec![]),
            ],
            output: vec![b'h', b'i'],
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.words, snap.words);
        assert_eq!(back.segments, snap.segments);
        assert_eq!(back.output, snap.output);
    }

    #[test]
    fn malformed_bytes_error() {
        assert!(Snapshot::from_bytes(b"").is_err());
        assert!(Snapshot::from_bytes(b"NOTCKPT0").is_err());
        let snap = Snapshot {
            fingerprint: 1,
            words: vec![7],
            segments: vec![],
            output: vec![],
        };
        let mut bytes = snap.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Snapshot::from_bytes(&bytes).is_err());
        // Trailing garbage is rejected too.
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn oversized_segment_data_is_rejected() {
        let snap = Snapshot {
            fingerprint: 1,
            words: vec![],
            segments: vec![("a".into(), 0, 2, vec![1, 2, 3])],
            output: vec![],
        };
        assert!(matches!(
            Snapshot::from_bytes(&snap.to_bytes()),
            Err(SnapshotError::Format(_))
        ));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn stats_words_roundtrip() {
        let mut s = SimStats::default();
        s.cycles = 123;
        s.instructions = 45;
        s.cond.executed = 6;
        s.cond.mispredicted = 2;
        s.bop_hits = 9;
        s.l2.misses = 3;
        s.btb.jte_evictions = 8;
        let mut w = Vec::new();
        stats_to_words(&s, &mut w);
        let mut c = Cursor::new(&w);
        let back = stats_from_words(&mut c).unwrap();
        assert_eq!(back, s);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn exhausted_word_stream_is_a_typed_error() {
        let w = vec![1u64, 2];
        let mut c = Cursor::new(&w);
        assert_eq!(c.next(), Ok(1));
        assert_eq!(c.next(), Ok(2));
        assert!(matches!(c.next(), Err(SnapshotError::Format(_))));
        // A truncated word stream must fail the full stats decode the
        // same way, not panic.
        let mut c = Cursor::new(&w);
        assert!(matches!(
            stats_from_words(&mut c),
            Err(SnapshotError::Format(_))
        ));
    }
}
