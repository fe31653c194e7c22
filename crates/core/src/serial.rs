//! Hand-rolled, versioned binary serialization for the plan types.
//!
//! The offline build environment has no `serde`, so the on-disk firmware
//! store (see `amulet-fleet`) uses a small hand-written little-endian
//! format instead: this module provides the byte-level [`Writer`] /
//! [`Reader`] primitives, the shared [`DecodeError`], and [`Codec`]
//! implementations for every *policy* type a persisted firmware image
//! embeds — address ranges, permissions, isolation methods, platform
//! specs, memory maps, MPU plans and MPU register configurations.  The
//! *mechanism* types (instructions, instruction stores, firmware images)
//! implement [`Codec`] in `amulet_mcu::serial` on top of these
//! primitives.
//!
//! Design rules, enforced by the format-hardening battery in
//! `amulet-mcu`'s tests:
//!
//! * **Total decoding.**  Every decode path is bounds-checked and returns
//!   a typed [`DecodeError`] on truncated, corrupted or out-of-range
//!   input — never a panic.  Constructors that panic on invalid input
//!   (e.g. [`AddrRange::new`]) are only called after the decoded values
//!   have been validated.
//! * **Canonical encoding.**  Encoding is a pure function of the value
//!   (collections are written in their deterministic iteration order), so
//!   `encode(decode(encode(x))) == encode(x)` byte for byte — the
//!   idempotence property the round-trip tests pin.
//! * **No silent allocation bombs.**  Sequence lengths are validated
//!   against the bytes actually remaining before any allocation.

use crate::addr::{Addr, AddrRange, ADDRESS_SPACE_END};
use crate::layout::{AppPlacement, MemoryMap, PlatformSpec};
use crate::method::IsolationMethod;
use crate::mpu_plan::{
    MpuConfig, MpuContext, MpuPlan, MpuRegisterValues, MpuSegmentPlan, PmpRegisterValues,
    RegionDesc, RegionRegisterValues, SegmentRole,
};
use crate::perm::Perm;
use crate::platform::{CycleCostTable, EnergyParams, MpuModel, RegionConstraints, SizeRule};
use std::fmt;

/// FNV-1a 64-bit hash — the stable content hash the firmware store keys
/// files by and the envelope integrity check uses.  Any single-byte
/// change to the input changes the hash (each round is `h = (h ^ b) * p`
/// with an odd `p`, which is injective modulo 2⁶⁴).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a decode failed.  Every variant is a *refusal*: the bytes are
/// rejected and no partially-constructed value escapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a field could be read in full.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// An enum tag byte named no variant.
    BadTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix exceeded what the remaining input could hold.
    BadLength {
        /// The sequence being decoded.
        what: &'static str,
        /// The declared element count or byte length.
        len: u64,
    },
    /// A length-prefixed string held invalid UTF-8.
    BadUtf8,
    /// A decoded value violated its type's invariant (e.g. an inverted
    /// address range, an odd instruction address).
    BadValue {
        /// What invariant was violated.
        what: &'static str,
    },
    /// The envelope's magic bytes did not match.
    BadMagic,
    /// The envelope's format version is not one this build reads.
    UnsupportedVersion {
        /// The version the envelope declared.
        version: u16,
    },
    /// The envelope's content hash did not match the body.
    HashMismatch {
        /// Hash the envelope declared.
        expected: u64,
        /// Hash of the bytes actually present.
        actual: u64,
    },
    /// Bytes were left over after the value decoded in full.
    TrailingBytes {
        /// How many bytes were left.
        count: usize,
    },
    /// The key embedded in the envelope was not the key asked for.
    KeyMismatch {
        /// Key the caller expected.
        expected: String,
        /// Key the envelope carried.
        actual: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { what, wanted, have } => {
                write!(
                    f,
                    "unexpected end of input reading {what}: wanted {wanted} bytes, have {have}"
                )
            }
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            DecodeError::BadLength { what, len } => {
                write!(f, "{what} length {len} exceeds the remaining input")
            }
            DecodeError::BadUtf8 => write!(f, "string field holds invalid UTF-8"),
            DecodeError::BadValue { what } => write!(f, "invalid value: {what}"),
            DecodeError::BadMagic => write!(f, "bad magic bytes (not a firmware image)"),
            DecodeError::UnsupportedVersion { version } => {
                write!(f, "unsupported format version {version}")
            }
            DecodeError::HashMismatch { expected, actual } => {
                write!(f, "content hash mismatch: envelope says {expected:#018x}, body hashes to {actual:#018x}")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the value")
            }
            DecodeError::KeyMismatch { expected, actual } => {
                write!(f, "stored image is for key {actual:?}, not {expected:?}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian byte sink for encoding.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i16`.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u32` (every persisted count/index in the
    /// workspace is tiny; a value that does not fit is a programming
    /// error on the encode side, never reachable from decoded input).
    pub fn usize(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("persisted usize field exceeds u32"));
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Bounds-checked little-endian reader for decoding.  Every `take_*`
/// method returns [`DecodeError::UnexpectedEof`] instead of reading past
/// the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                what,
                wanted: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self, what: &'static str) -> Result<i16, DecodeError> {
        let b = self.take(2, what)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `usize` encoded as a `u32`.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        Ok(self.u32(what)? as usize)
    }

    /// Reads a `bool`, rejecting anything but 0 and 1.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue { what }),
        }
    }

    /// Reads a sequence length, rejecting counts the remaining input
    /// cannot possibly hold (`min_elem_bytes` is the smallest encoding of
    /// one element) — the guard that keeps corrupted length prefixes from
    /// becoming allocation bombs.
    pub fn seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let len = self.u32(what)? as u64;
        let need = len.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(what)? as u64;
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength { what, len });
        }
        let bytes = self.take(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a length-prefixed byte vector.
    pub fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32(what)? as u64;
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength { what, len });
        }
        Ok(self.take(len as usize, what)?.to_vec())
    }

    /// Succeeds only if every byte has been consumed — the trailing-bytes
    /// rejection every top-level decode ends with.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// A type with a canonical binary encoding.
///
/// `encode` is infallible (every in-memory value is encodable); `decode`
/// is **total** — it returns a [`DecodeError`] for any byte sequence that
/// is not a valid encoding, and never panics.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value from the reader's current position.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Encodes this value into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a value that must span exactly the whole input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Encodes a slice as a length-prefixed sequence.
pub fn encode_seq<T: Codec>(items: &[T], w: &mut Writer) {
    w.usize(items.len());
    for item in items {
        item.encode(w);
    }
}

/// Decodes a length-prefixed sequence; `min_elem_bytes` bounds the
/// declared count against the remaining input.
pub fn decode_seq<T: Codec>(
    r: &mut Reader<'_>,
    what: &'static str,
    min_elem_bytes: usize,
) -> Result<Vec<T>, DecodeError> {
    let len = r.seq_len(what, min_elem_bytes)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

impl Codec for AddrRange {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.start);
        w.u32(self.end);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let start = r.u32("address range start")?;
        let end = r.u32("address range end")?;
        // `AddrRange::new` panics on exactly these conditions, so they are
        // checked here first; after the check the constructor cannot fire.
        if start > end || end > ADDRESS_SPACE_END {
            return Err(DecodeError::BadValue {
                what: "address range (start > end or beyond the 64 KiB space)",
            });
        }
        Ok(AddrRange::new(start, end))
    }
}

impl Codec for Perm {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.to_bits() as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bits = r.u8("permission bits")?;
        if bits >= 8 {
            return Err(DecodeError::BadValue {
                what: "permission bits (only R/W/X defined)",
            });
        }
        Ok(Perm::from_bits(bits as u16))
    }
}

impl Codec for IsolationMethod {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            IsolationMethod::NoIsolation => 0,
            IsolationMethod::FeatureLimited => 1,
            IsolationMethod::Mpu => 2,
            IsolationMethod::SoftwareOnly => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("isolation method")? {
            0 => Ok(IsolationMethod::NoIsolation),
            1 => Ok(IsolationMethod::FeatureLimited),
            2 => Ok(IsolationMethod::Mpu),
            3 => Ok(IsolationMethod::SoftwareOnly),
            tag => Err(DecodeError::BadTag {
                what: "isolation method",
                tag,
            }),
        }
    }
}

impl Codec for SizeRule {
    fn encode(&self, w: &mut Writer) {
        match self {
            SizeRule::AnyAligned { align } => {
                w.u8(0);
                w.u32(*align);
            }
            SizeRule::NapotPow2 { min } => {
                w.u8(1);
                w.u32(*min);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("size rule")? {
            0 => Ok(SizeRule::AnyAligned {
                align: r.u32("alignment")?,
            }),
            1 => Ok(SizeRule::NapotPow2 {
                min: r.u32("minimum NAPOT size")?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "size rule",
                tag,
            }),
        }
    }
}

impl Codec for RegionConstraints {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.regions);
        self.size_rule.encode(w);
        w.bool(self.covers_peripherals);
        w.u32(self.writes_per_region);
        w.u32(self.control_writes);
        w.bool(self.privileged_bypass);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RegionConstraints {
            regions: r.usize("region count")?,
            size_rule: SizeRule::decode(r)?,
            covers_peripherals: r.bool("covers_peripherals")?,
            writes_per_region: r.u32("writes_per_region")?,
            control_writes: r.u32("control_writes")?,
            privileged_bypass: r.bool("privileged_bypass")?,
        })
    }
}

impl Codec for MpuModel {
    fn encode(&self, w: &mut Writer) {
        match self {
            MpuModel::Segmented {
                main_segments,
                boundary_granularity,
            } => {
                w.u8(0);
                w.usize(*main_segments);
                w.u32(*boundary_granularity);
            }
            MpuModel::Region(c) => {
                w.u8(1);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("MPU model")? {
            0 => Ok(MpuModel::Segmented {
                main_segments: r.usize("main segment count")?,
                boundary_granularity: r.u32("boundary granularity")?,
            }),
            1 => Ok(MpuModel::Region(RegionConstraints::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "MPU model",
                tag,
            }),
        }
    }
}

impl Codec for CycleCostTable {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.reg_write_cycles);
        w.u64(self.memory_access_baseline);
        w.u64(self.context_switch_baseline);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CycleCostTable {
            reg_write_cycles: r.u64("reg_write_cycles")?,
            memory_access_baseline: r.u64("memory_access_baseline")?,
            context_switch_baseline: r.u64("context_switch_baseline")?,
        })
    }
}

impl Codec for EnergyParams {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.frequency_hz);
        w.u32(self.active_current_ua);
        w.u32(self.lpm_current_na);
        w.u32(self.supply_millivolts);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EnergyParams {
            frequency_hz: r.u64("frequency_hz")?,
            active_current_ua: r.u32("active_current_ua")?,
            lpm_current_na: r.u32("lpm_current_na")?,
            supply_millivolts: r.u32("supply_millivolts")?,
        })
    }
}

impl Codec for PlatformSpec {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        self.peripherals.encode(w);
        self.bootstrap_loader.encode(w);
        self.info_mem.encode(w);
        self.sram.encode(w);
        self.fram.encode(w);
        self.interrupt_vectors.encode(w);
        self.mpu.encode(w);
        self.costs.encode(w);
        self.energy.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PlatformSpec {
            name: r.str("platform name")?,
            peripherals: AddrRange::decode(r)?,
            bootstrap_loader: AddrRange::decode(r)?,
            info_mem: AddrRange::decode(r)?,
            sram: AddrRange::decode(r)?,
            fram: AddrRange::decode(r)?,
            interrupt_vectors: AddrRange::decode(r)?,
            mpu: MpuModel::decode(r)?,
            costs: CycleCostTable::decode(r)?,
            energy: EnergyParams::decode(r)?,
        })
    }
}

impl Codec for AppPlacement {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        w.usize(self.index);
        self.code.encode(w);
        self.stack.encode(w);
        w.u32(self.padding_bytes);
        self.data.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AppPlacement {
            name: r.str("app name")?,
            index: r.usize("app index")?,
            code: AddrRange::decode(r)?,
            stack: AddrRange::decode(r)?,
            padding_bytes: r.u32("padding_bytes")?,
            data: AddrRange::decode(r)?,
        })
    }
}

impl Codec for MemoryMap {
    fn encode(&self, w: &mut Writer) {
        self.platform.encode(w);
        self.os_code.encode(w);
        self.os_data.encode(w);
        self.os_stack.encode(w);
        encode_seq(&self.apps, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MemoryMap {
            platform: PlatformSpec::decode(r)?,
            os_code: AddrRange::decode(r)?,
            os_data: AddrRange::decode(r)?,
            os_stack: AddrRange::decode(r)?,
            apps: decode_seq(r, "app placements", 4)?,
        })
    }
}

impl Codec for MpuRegisterValues {
    fn encode(&self, w: &mut Writer) {
        w.u16(self.mpuctl0);
        w.u16(self.mpusegb1);
        w.u16(self.mpusegb2);
        w.u16(self.mpusam);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MpuRegisterValues {
            mpuctl0: r.u16("mpuctl0")?,
            mpusegb1: r.u16("mpusegb1")?,
            mpusegb2: r.u16("mpusegb2")?,
            mpusam: r.u16("mpusam")?,
        })
    }
}

impl Codec for RegionDesc {
    fn encode(&self, w: &mut Writer) {
        self.range.encode(w);
        self.perm.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RegionDesc {
            range: AddrRange::decode(r)?,
            perm: Perm::decode(r)?,
        })
    }
}

impl Codec for RegionRegisterValues {
    fn encode(&self, w: &mut Writer) {
        encode_seq(&self.regions, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RegionRegisterValues {
            regions: decode_seq(r, "MPU regions", 9)?,
        })
    }
}

impl Codec for PmpRegisterValues {
    fn encode(&self, w: &mut Writer) {
        encode_seq(&self.entries, w);
        w.bool(self.user_mode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PmpRegisterValues {
            entries: decode_seq(r, "PMP entries", 9)?,
            user_mode: r.bool("user_mode")?,
        })
    }
}

impl Codec for MpuConfig {
    fn encode(&self, w: &mut Writer) {
        match self {
            MpuConfig::Segmented(v) => {
                w.u8(0);
                v.encode(w);
            }
            MpuConfig::Region(v) => {
                w.u8(1);
                v.encode(w);
            }
            MpuConfig::Pmp(v) => {
                w.u8(2);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("MPU config")? {
            0 => Ok(MpuConfig::Segmented(MpuRegisterValues::decode(r)?)),
            1 => Ok(MpuConfig::Region(RegionRegisterValues::decode(r)?)),
            2 => Ok(MpuConfig::Pmp(PmpRegisterValues::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "MPU config",
                tag,
            }),
        }
    }
}

impl Codec for SegmentRole {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SegmentRole::InfoMem => 0,
            SegmentRole::BelowAppData => 1,
            SegmentRole::AppDataStack => 2,
            SegmentRole::AboveApp => 3,
            SegmentRole::OsCode => 4,
            SegmentRole::OsData => 5,
            SegmentRole::AppsRegion => 6,
            SegmentRole::AppCode => 7,
            SegmentRole::BelowAppBlocked => 8,
            SegmentRole::OsSram => 9,
            SegmentRole::OsPeripherals => 10,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("segment role")? {
            0 => Ok(SegmentRole::InfoMem),
            1 => Ok(SegmentRole::BelowAppData),
            2 => Ok(SegmentRole::AppDataStack),
            3 => Ok(SegmentRole::AboveApp),
            4 => Ok(SegmentRole::OsCode),
            5 => Ok(SegmentRole::OsData),
            6 => Ok(SegmentRole::AppsRegion),
            7 => Ok(SegmentRole::AppCode),
            8 => Ok(SegmentRole::BelowAppBlocked),
            9 => Ok(SegmentRole::OsSram),
            10 => Ok(SegmentRole::OsPeripherals),
            tag => Err(DecodeError::BadTag {
                what: "segment role",
                tag,
            }),
        }
    }
}

impl Codec for MpuContext {
    fn encode(&self, w: &mut Writer) {
        match self {
            MpuContext::OsRunning => w.u8(0),
            MpuContext::AppRunning { name, index } => {
                w.u8(1);
                w.str(name);
                w.usize(*index);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("MPU context")? {
            0 => Ok(MpuContext::OsRunning),
            1 => Ok(MpuContext::AppRunning {
                name: r.str("app name")?,
                index: r.usize("app index")?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "MPU context",
                tag,
            }),
        }
    }
}

impl Codec for MpuSegmentPlan {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.index);
        self.range.encode(w);
        self.perm.encode(w);
        self.role.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MpuSegmentPlan {
            index: r.usize("segment index")?,
            range: AddrRange::decode(r)?,
            perm: Perm::decode(r)?,
            role: SegmentRole::decode(r)?,
        })
    }
}

impl Codec for MpuPlan {
    fn encode(&self, w: &mut Writer) {
        self.context.encode(w);
        encode_seq(&self.segments, w);
        w.u32(self.boundary1);
        w.u32(self.boundary2);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MpuPlan {
            context: MpuContext::decode(r)?,
            segments: decode_seq(r, "segment plans", 14)?,
            boundary1: r.u32("boundary1")?,
            boundary2: r.u32("boundary2")?,
        })
    }
}

/// `Option<u32>` — used by persisted optional size estimates.
impl Codec for Option<u32> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.u32(*v);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("optional u32")? {
            0 => Ok(None),
            1 => Ok(Some(r.u32("optional u32 value")?)),
            tag => Err(DecodeError::BadTag {
                what: "optional u32",
                tag,
            }),
        }
    }
}

/// `(String, Addr)` pairs — the encoding of symbol and handler tables.
impl Codec for (String, Addr) {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.0);
        w.u32(self.1);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((r.str("symbol name")?, r.u32("symbol address")?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};
    use crate::platform::builtin_platforms;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_bytes();
        let back = T::from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(&back, value);
        assert_eq!(back.to_bytes(), bytes, "re-encoding is byte-identical");
    }

    #[test]
    fn platform_specs_survive_encode_and_decode() {
        for p in builtin_platforms() {
            roundtrip(&p);
        }
    }

    #[test]
    fn memory_maps_and_plans_survive_encode_and_decode() {
        for p in builtin_platforms() {
            let map = MemoryMapPlanner::new(p)
                .unwrap()
                .plan(
                    &OsImageSpec::default(),
                    &[
                        AppImageSpec::new("A", 0x400, 0x100, 0x80),
                        AppImageSpec::new("B", 0x200, 0x80, 0x80),
                    ],
                )
                .unwrap();
            roundtrip(&map);
            let os_plan = MpuPlan::for_os_on(&map).unwrap();
            roundtrip(&os_plan);
            roundtrip(&os_plan.config(&map.platform.mpu));
            for i in 0..map.apps.len() {
                let plan = MpuPlan::for_app_on(&map, i).unwrap();
                roundtrip(&plan);
                roundtrip(&plan.config(&map.platform.mpu));
            }
        }
    }

    #[test]
    fn simple_values_survive_encode_and_decode() {
        roundtrip(&AddrRange::new(0x4400, 0x5000));
        roundtrip(&AddrRange::new(0, 0));
        for bits in 0u16..8 {
            roundtrip(&Perm::from_bits(bits));
        }
        for m in IsolationMethod::ALL {
            roundtrip(&m);
        }
        roundtrip(&None::<u32>);
        roundtrip(&Some(0x40u32));
        roundtrip(&("A::main".to_string(), 0x4400u32));
    }

    #[test]
    fn invalid_ranges_tags_and_bools_are_refused() {
        // Inverted range.
        let mut w = Writer::new();
        w.u32(0x5000);
        w.u32(0x4400);
        assert!(matches!(
            AddrRange::from_bytes(&w.into_bytes()),
            Err(DecodeError::BadValue { .. })
        ));
        // Range past the 64 KiB space (the AddrRange::new panic condition).
        let mut w = Writer::new();
        w.u32(0);
        w.u32(0x2_0000);
        assert!(matches!(
            AddrRange::from_bytes(&w.into_bytes()),
            Err(DecodeError::BadValue { .. })
        ));
        // Unknown enum tag.
        assert!(matches!(
            IsolationMethod::from_bytes(&[9]),
            Err(DecodeError::BadTag { .. })
        ));
        // Non-boolean bool.
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool("flag"), Err(DecodeError::BadValue { .. })));
        // Permission bits outside R/W/X.
        assert!(matches!(
            Perm::from_bytes(&[8]),
            Err(DecodeError::BadValue { .. })
        ));
    }

    #[test]
    fn length_prefixes_cannot_allocate_past_the_input() {
        // A sequence claiming 2^31 elements with 4 bytes of input.
        let mut w = Writer::new();
        w.u32(0x8000_0000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_seq::<AddrRange>(&mut r, "ranges", 8),
            Err(DecodeError::BadLength { .. })
        ));
        // A string claiming more bytes than remain.
        let mut w = Writer::new();
        w.u32(100);
        w.raw(b"short");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str("name"), Err(DecodeError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = AddrRange::new(0, 0x100).to_bytes();
        bytes.push(0);
        assert!(matches!(
            AddrRange::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
