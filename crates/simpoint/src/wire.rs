//! The binary codec kit: the one place that knows how values are laid out
//! in bytes. The `DSMCKPT5` checkpoint codec ([`crate::codec`]) and the
//! harness's `DSMTRC4` trace-store codec both frame their payloads with
//! these primitives, so the two formats share one writer, one total reader,
//! one typed error, and one layout for every type they both carry.
//!
//! Layout rules: integers are little-endian `u64` unless a field is a tag or
//! a boolean (one byte); `f64` is its raw bit pattern; a vector is a `u64`
//! length followed by its items. Encoding is deterministic, so encoding the
//! same value twice yields identical bytes.
//!
//! Decoding is total: truncated or corrupt input of any shape produces a
//! typed [`CodecError`], never a panic or an attempted huge allocation.
//! Every length prefix is checked against the bytes actually remaining
//! before a buffer is reserved, and all tags and booleans are range-checked.

use dsm_phase::detector::IntervalRecord;
use dsm_sim::directory::DirectoryStats;
use dsm_sim::{FaultStats, ProcStats, ReconfigStats};
use dsm_workloads::{App, Scale};

/// Decode failure. Every variant is reachable from corrupt input; none of
/// them panic or allocate unboundedly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the format's magic.
    BadMagic,
    /// The right format family at a different version (e.g. a pre-fabric
    /// `DSMCKPT1` checkpoint or a `DSMTRC3` trace); re-capture with this
    /// build.
    UnsupportedVersion { version: u8 },
    /// The buffer ended before the structure it claims to hold.
    Truncated,
    /// Well-formed structure followed by unconsumed bytes.
    TrailingBytes,
    /// An enum tag out of range.
    BadTag { what: &'static str, tag: u64 },
    /// A value that parses but cannot describe a real machine
    /// (e.g. mismatched per-processor vector lengths).
    BadValue { what: &'static str },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion { version } => {
                write!(f, "unsupported format version {:?}", *version as char)
            }
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the encoded value"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            CodecError::BadValue { what } => write!(f, "inconsistent field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Decode result.
pub type D<T> = Result<T, CodecError>;

/// Append-only byte writer.
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Start a buffer with the format's `magic`.
    pub fn new(magic: &[u8]) -> Self {
        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(magic);
        Self { out }
    }
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    pub fn boolean(&mut self, v: bool) {
        self.out.push(v as u8);
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    pub fn vec_u8(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.out.extend_from_slice(v);
    }
    pub fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
}

/// Total byte reader over one encoded buffer.
pub struct Reader<'a> {
    b: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Check `bytes` against `magic` and return a reader over the payload
    /// behind it. `magic` is a family prefix of `family_len` bytes, one
    /// version byte, then any fixed suffix: input of the right family but
    /// another version is [`CodecError::UnsupportedVersion`], anything else
    /// that does not match is [`CodecError::BadMagic`].
    pub fn open(bytes: &'a [u8], magic: &[u8], family_len: usize) -> D<Self> {
        if bytes.len() < magic.len() || bytes[..family_len] != magic[..family_len] {
            return Err(CodecError::BadMagic);
        }
        let version = bytes[family_len];
        if version != magic[family_len] {
            return Err(CodecError::UnsupportedVersion { version });
        }
        if bytes[family_len + 1..magic.len()] != magic[family_len + 1..] {
            return Err(CodecError::BadMagic);
        }
        Ok(Self { b: &bytes[magic.len()..] })
    }
    /// End of the structure: every byte must have been consumed.
    pub fn finish(self) -> D<()> {
        if self.b.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
    pub fn u64(&mut self) -> D<u64> {
        let Some((head, tail)) = self.b.split_first_chunk::<8>() else {
            return Err(CodecError::Truncated);
        };
        self.b = tail;
        Ok(u64::from_le_bytes(*head))
    }
    pub fn u8(&mut self) -> D<u8> {
        let Some((&v, tail)) = self.b.split_first() else {
            return Err(CodecError::Truncated);
        };
        self.b = tail;
        Ok(v)
    }
    /// A one-byte tag, range-checked against `n` variants.
    pub fn tag(&mut self, what: &'static str, n: usize) -> D<usize> {
        let t = self.u8()?;
        if (t as usize) < n {
            Ok(t as usize)
        } else {
            Err(CodecError::BadTag { what, tag: t as u64 })
        }
    }
    pub fn boolean(&mut self, what: &'static str) -> D<bool> {
        Ok(self.tag(what, 2)? == 1)
    }
    pub fn f64(&mut self) -> D<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub fn u32_checked(&mut self, what: &'static str) -> D<u32> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| CodecError::BadValue { what })
    }
    pub fn usize_checked(&mut self, what: &'static str) -> D<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadValue { what })
    }
    /// Length prefix for items at least `min_bytes` each: reject lengths
    /// that could not possibly fit in the remaining buffer *before*
    /// reserving space for them.
    pub fn len(&mut self, min_bytes: usize) -> D<usize> {
        let n = self.u64()? as usize;
        if n > self.b.len() / min_bytes.max(1) + 1 {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    pub fn vec_u64(&mut self) -> D<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    pub fn vec_u8(&mut self) -> D<Vec<u8>> {
        let n = self.len(1)?;
        if self.b.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Ok(head.to_vec())
    }
    pub fn vec_f64(&mut self) -> D<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    pub fn opt_u64(&mut self, what: &'static str) -> D<Option<u64>> {
        Ok(match self.tag(what, 2)? {
            0 => None,
            _ => Some(self.u64()?),
        })
    }
    /// A `u64` length prefix followed by that many items decoded by `item`,
    /// each at least `min_bytes` long.
    pub fn vec<T>(&mut self, min_bytes: usize, mut item: impl FnMut(&mut Self) -> D<T>) -> D<Vec<T>> {
        let n = self.len(min_bytes)?;
        (0..n).map(|_| item(self)).collect()
    }
}

// ---------------------------------------------------------------------------
// Types both formats carry. Encoders destructure, so a new field is a
// compile error here rather than a silently dropped value.
// ---------------------------------------------------------------------------

const SCALES: [Scale; 3] = [Scale::Test, Scale::Scaled, Scale::Paper];

/// One byte: the app's position in [`App::EXTENDED`].
pub fn put_app(w: &mut Writer, app: App) {
    w.u8(App::EXTENDED.iter().position(|a| *a == app).expect("known app") as u8);
}

pub fn get_app(r: &mut Reader) -> D<App> {
    Ok(App::EXTENDED[r.tag("app", App::EXTENDED.len())?])
}

/// One byte: Test = 0, Scaled = 1, Paper = 2.
pub fn put_scale(w: &mut Writer, scale: Scale) {
    w.u8(SCALES.iter().position(|s| *s == scale).expect("known scale") as u8);
}

pub fn get_scale(r: &mut Reader) -> D<Scale> {
    Ok(SCALES[r.tag("scale", SCALES.len())?])
}

/// Smallest encoding of an [`IntervalRecord`] (all vectors empty), the
/// pre-allocation floor for record-vector length prefixes.
pub const RECORD_MIN_BYTES: usize = 80;

pub fn put_record(w: &mut Writer, rec: &IntervalRecord) {
    let IntervalRecord { proc, index, insns, cycles, bbv, fvec, cvec, dds, ws_sig, branches } = rec;
    w.u64(*proc as u64);
    w.u64(*index);
    w.u64(*insns);
    w.u64(*cycles);
    w.vec_f64(bbv);
    w.vec_u64(fvec);
    w.vec_u64(cvec);
    w.f64(*dds);
    w.vec_u64(ws_sig);
    w.u64(*branches);
}

pub fn get_record(r: &mut Reader) -> D<IntervalRecord> {
    Ok(IntervalRecord {
        proc: r.usize_checked("record proc")?,
        index: r.u64()?,
        insns: r.u64()?,
        cycles: r.u64()?,
        bbv: r.vec_f64()?,
        fvec: r.vec_u64()?,
        cvec: r.vec_u64()?,
        dds: r.f64()?,
        ws_sig: r.vec_u64()?,
        branches: r.u64()?,
    })
}

/// `put_*`/`get_*` for a struct of `u64` counters, from one field list:
/// the list fixes the byte order for both directions, and the encoder's
/// destructuring makes a field missing from it a compile error.
macro_rules! counters {
    ($put:ident, $get:ident, $ty:ident { $($f:ident),* $(,)? }) => {
        pub fn $put(w: &mut Writer, s: &$ty) {
            let $ty { $($f),* } = *s;
            $(w.u64($f);)*
        }

        pub fn $get(r: &mut Reader) -> D<$ty> {
            Ok($ty { $($f: r.u64()?),* })
        }
    };
}

counters!(put_proc_stats, get_proc_stats, ProcStats {
    cycles, insns, sync_ops, sync_wait_cycles, mem_refs, l1_misses, l2_misses,
    local_home_misses, remote_home_misses, mem_stall_cycles, contention_cycles,
    mispredicts, branches, intervals,
});

counters!(put_directory_stats, get_directory_stats, DirectoryStats {
    reads, writes, owner_forwards, invalidations, upgrades, writebacks, nacks,
});

counters!(put_fault_stats, get_fault_stats, FaultStats {
    messages, drops, retries, forced_deliveries, duplicates, spikes, spike_cycles,
    timeout_wait_cycles, slowdown_events, slowdown_cycles,
});

counters!(put_reconfig_stats, get_reconfig_stats, ReconfigStats {
    migrations, migration_stall_cycles, dvfs_epochs, dvfs_extra_cycles,
    dvfs_saved_cycles, core_switches,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_check_separates_family_version_and_suffix() {
        const M: &[u8] = b"ABC7\n";
        assert!(Reader::open(b"ABC7\n", M, 3).unwrap().finish().is_ok());
        assert_eq!(Reader::open(b"ABC7", M, 3).err(), Some(CodecError::BadMagic));
        assert_eq!(Reader::open(b"XBC7\n", M, 3).err(), Some(CodecError::BadMagic));
        assert_eq!(Reader::open(b"ABC7\r", M, 3).err(), Some(CodecError::BadMagic));
        assert_eq!(
            Reader::open(b"ABC6\nrest", M, 3).err(),
            Some(CodecError::UnsupportedVersion { version: b'6' })
        );
        assert_eq!(
            Reader::open(b"ABC7\n\x00", M, 3).unwrap().finish(),
            Err(CodecError::TrailingBytes)
        );
    }

    #[test]
    fn tags_and_lengths_are_range_checked() {
        let mut w = Writer::new(b"M1");
        w.u8(3);
        w.u8(2);
        w.u64(u64::MAX);
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, b"M1", 1).unwrap();
        assert_eq!(get_scale(&mut r), Err(CodecError::BadTag { what: "scale", tag: 3 }));
        assert_eq!(r.boolean("flag"), Err(CodecError::BadTag { what: "flag", tag: 2 }));
        assert_eq!(r.vec_u64(), Err(CodecError::Truncated));
    }
}
