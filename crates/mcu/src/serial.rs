//! Binary serialization for firmware images — the mechanism half of the
//! format whose policy half (plan types) lives in `amulet_core::serial`.
//!
//! The wire unit is an **envelope**:
//!
//! ```text
//! magic  b"AMFW"                       4 bytes
//! version u16 (little-endian)          currently 1
//! hash    u64 (little-endian)          FNV-1a64 of everything below
//! key     length-prefixed UTF-8        the configuration key
//! len     u32                          payload byte count
//! payload [Firmware]                   the image body
//! ```
//!
//! The content hash covers the key, the payload length *and* the payload,
//! so any single-bit flip anywhere after the hash field changes the
//! recomputed hash (each FNV-1a round is `h = (h ^ b) * p` with an odd
//! prime `p`, injective modulo 2⁶⁴) and flips in the magic, version or
//! hash field itself fail their own checks — the corruption battery
//! asserts `Err(_)` for *every* single-bit flip and every strict prefix
//! truncation of an encoded image.
//!
//! Decoding is total: out-of-range instruction addresses, misaligned
//! code, unknown opcodes and oversized counts are all refused with typed
//! [`DecodeError`]s *before* reaching any constructor that asserts (such
//! as [`InstrStore::insert`]).

use crate::code::InstrStore;
use crate::firmware::{AppBinary, DataSegment, Firmware, OsBinary, SymbolTable};
use crate::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use amulet_core::addr::Addr;
use amulet_core::layout::{AppPlacement, MemoryMap};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuConfig;
use amulet_core::serial::{decode_seq, encode_seq, fnv1a64, Codec, DecodeError, Reader, Writer};
use std::sync::Arc;

/// Envelope magic bytes: "AMFW" (amulet firmware).
pub(crate) const MAGIC: [u8; 4] = *b"AMFW";

/// Wire format version this build reads and writes.  Bump on any
/// change to the encoding of [`Firmware`] or the plan types — the
/// golden-bytes snapshot test fails when the format drifts without one.
pub(crate) const FORMAT_VERSION: u16 = 1;

impl Codec for Reg {
    fn encode(&self, w: &mut Writer) {
        w.u8(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Reg(r.u8("register")?))
    }
}

impl Codec for Width {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Width::Byte => 0,
            Width::Word => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("access width")? {
            0 => Ok(Width::Byte),
            1 => Ok(Width::Word),
            tag => Err(DecodeError::BadTag {
                what: "access width",
                tag,
            }),
        }
    }
}

impl Codec for Cond {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lo => 2,
            Cond::Hs => 3,
            Cond::Lt => 4,
            Cond::Ge => 5,
            Cond::Mi => 6,
            Cond::Pl => 7,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("condition")? {
            0 => Ok(Cond::Eq),
            1 => Ok(Cond::Ne),
            2 => Ok(Cond::Lo),
            3 => Ok(Cond::Hs),
            4 => Ok(Cond::Lt),
            5 => Ok(Cond::Ge),
            6 => Ok(Cond::Mi),
            7 => Ok(Cond::Pl),
            tag => Err(DecodeError::BadTag {
                what: "condition",
                tag,
            }),
        }
    }
}

impl Codec for AluOp {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::And => 2,
            AluOp::Or => 3,
            AluOp::Xor => 4,
            AluOp::Mul => 5,
            AluOp::Div => 6,
            AluOp::Rem => 7,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("ALU op")? {
            0 => Ok(AluOp::Add),
            1 => Ok(AluOp::Sub),
            2 => Ok(AluOp::And),
            3 => Ok(AluOp::Or),
            4 => Ok(AluOp::Xor),
            5 => Ok(AluOp::Mul),
            6 => Ok(AluOp::Div),
            7 => Ok(AluOp::Rem),
            tag => Err(DecodeError::BadTag {
                what: "ALU op",
                tag,
            }),
        }
    }
}

impl Codec for UnaryOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            UnaryOp::Neg => w.u8(0),
            UnaryOp::Not => w.u8(1),
            UnaryOp::Shl(n) => {
                w.u8(2);
                w.u8(*n);
            }
            UnaryOp::Shr(n) => {
                w.u8(3);
                w.u8(*n);
            }
            UnaryOp::Sar(n) => {
                w.u8(4);
                w.u8(*n);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8("unary op")? {
            0 => Ok(UnaryOp::Neg),
            1 => Ok(UnaryOp::Not),
            2 => Ok(UnaryOp::Shl(r.u8("shift amount")?)),
            3 => Ok(UnaryOp::Shr(r.u8("shift amount")?)),
            4 => Ok(UnaryOp::Sar(r.u8("shift amount")?)),
            tag => Err(DecodeError::BadTag {
                what: "unary op",
                tag,
            }),
        }
    }
}

impl Codec for Instr {
    fn encode(&self, w: &mut Writer) {
        match self {
            Instr::MovImm { dst, imm } => {
                w.u8(0);
                dst.encode(w);
                w.u16(*imm);
            }
            Instr::Mov { dst, src } => {
                w.u8(1);
                dst.encode(w);
                src.encode(w);
            }
            Instr::Load {
                dst,
                base,
                offset,
                width,
            } => {
                w.u8(2);
                dst.encode(w);
                base.encode(w);
                w.i16(*offset);
                width.encode(w);
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                w.u8(3);
                src.encode(w);
                base.encode(w);
                w.i16(*offset);
                width.encode(w);
            }
            Instr::LoadAbs { dst, addr, width } => {
                w.u8(4);
                dst.encode(w);
                w.u16(*addr);
                width.encode(w);
            }
            Instr::StoreAbs { src, addr, width } => {
                w.u8(5);
                src.encode(w);
                w.u16(*addr);
                width.encode(w);
            }
            Instr::Push { src } => {
                w.u8(6);
                src.encode(w);
            }
            Instr::Pop { dst } => {
                w.u8(7);
                dst.encode(w);
            }
            Instr::Alu { op, dst, src } => {
                w.u8(8);
                op.encode(w);
                dst.encode(w);
                src.encode(w);
            }
            Instr::AluImm { op, dst, imm } => {
                w.u8(9);
                op.encode(w);
                dst.encode(w);
                w.u16(*imm);
            }
            Instr::Unary { op, reg } => {
                w.u8(10);
                op.encode(w);
                reg.encode(w);
            }
            Instr::Cmp { a, b } => {
                w.u8(11);
                a.encode(w);
                b.encode(w);
            }
            Instr::CmpImm { a, imm } => {
                w.u8(12);
                a.encode(w);
                w.u16(*imm);
            }
            Instr::Jmp { target } => {
                w.u8(13);
                w.u16(*target);
            }
            Instr::Jcc { cond, target } => {
                w.u8(14);
                cond.encode(w);
                w.u16(*target);
            }
            Instr::Br { reg } => {
                w.u8(15);
                reg.encode(w);
            }
            Instr::Call { target } => {
                w.u8(16);
                w.u16(*target);
            }
            Instr::CallReg { reg } => {
                w.u8(17);
                reg.encode(w);
            }
            Instr::Ret => w.u8(18),
            Instr::Syscall { num } => {
                w.u8(19);
                w.u16(*num);
            }
            Instr::Fault { code } => {
                w.u8(20);
                w.u16(*code);
            }
            Instr::Halt => w.u8(21),
            Instr::Nop => w.u8(22),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8("instruction opcode")? {
            0 => Instr::MovImm {
                dst: Reg::decode(r)?,
                imm: r.u16("immediate")?,
            },
            1 => Instr::Mov {
                dst: Reg::decode(r)?,
                src: Reg::decode(r)?,
            },
            2 => Instr::Load {
                dst: Reg::decode(r)?,
                base: Reg::decode(r)?,
                offset: r.i16("offset")?,
                width: Width::decode(r)?,
            },
            3 => Instr::Store {
                src: Reg::decode(r)?,
                base: Reg::decode(r)?,
                offset: r.i16("offset")?,
                width: Width::decode(r)?,
            },
            4 => Instr::LoadAbs {
                dst: Reg::decode(r)?,
                addr: r.u16("absolute address")?,
                width: Width::decode(r)?,
            },
            5 => Instr::StoreAbs {
                src: Reg::decode(r)?,
                addr: r.u16("absolute address")?,
                width: Width::decode(r)?,
            },
            6 => Instr::Push {
                src: Reg::decode(r)?,
            },
            7 => Instr::Pop {
                dst: Reg::decode(r)?,
            },
            8 => Instr::Alu {
                op: AluOp::decode(r)?,
                dst: Reg::decode(r)?,
                src: Reg::decode(r)?,
            },
            9 => Instr::AluImm {
                op: AluOp::decode(r)?,
                dst: Reg::decode(r)?,
                imm: r.u16("immediate")?,
            },
            10 => Instr::Unary {
                op: UnaryOp::decode(r)?,
                reg: Reg::decode(r)?,
            },
            11 => Instr::Cmp {
                a: Reg::decode(r)?,
                b: Reg::decode(r)?,
            },
            12 => Instr::CmpImm {
                a: Reg::decode(r)?,
                imm: r.u16("immediate")?,
            },
            13 => Instr::Jmp {
                target: r.u16("jump target")?,
            },
            14 => Instr::Jcc {
                cond: Cond::decode(r)?,
                target: r.u16("jump target")?,
            },
            15 => Instr::Br {
                reg: Reg::decode(r)?,
            },
            16 => Instr::Call {
                target: r.u16("call target")?,
            },
            17 => Instr::CallReg {
                reg: Reg::decode(r)?,
            },
            18 => Instr::Ret,
            19 => Instr::Syscall {
                num: r.u16("syscall number")?,
            },
            20 => Instr::Fault {
                code: r.u16("fault code")?,
            },
            21 => Instr::Halt,
            22 => Instr::Nop,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "instruction opcode",
                    tag,
                })
            }
        })
    }
}

impl Codec for InstrStore {
    /// Encodes the store as a count followed by `(address, instruction)`
    /// pairs in ascending address order — the store's canonical iteration
    /// order, so re-encoding a decoded store is byte-identical.
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for (addr, instr) in self.iter() {
            w.u16(addr as u16);
            instr.encode(w);
        }
    }

    /// Decodes and validates: addresses must be even (the
    /// [`InstrStore::insert`] alignment assertion, checked here first so
    /// corrupt input errors instead of panicking) and strictly
    /// increasing (canonical order, no duplicates).  A `u16` address is
    /// inside the 64 KiB space by construction.  Like a built image, the
    /// decoded store gives back its growth slack and owns exactly its
    /// span.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.seq_len("instruction count", 3)?;
        if len > crate::code::SLOT_COUNT {
            return Err(DecodeError::BadLength {
                what: "instruction count",
                len: len as u64,
            });
        }
        let mut store = InstrStore::new();
        let mut prev: Option<u16> = None;
        for _ in 0..len {
            let addr = r.u16("instruction address")?;
            let instr = Instr::decode(r)?;
            if addr % 2 != 0 {
                return Err(DecodeError::BadValue {
                    what: "instruction address (misaligned)",
                });
            }
            if let Some(p) = prev {
                if addr <= p {
                    return Err(DecodeError::BadValue {
                        what: "instruction addresses (not strictly increasing)",
                    });
                }
            }
            prev = Some(addr);
            store.insert(Addr::from(addr), instr);
        }
        store.shrink_to_span();
        Ok(store)
    }
}

impl Codec for DataSegment {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.addr);
        w.bytes(&self.bytes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(DataSegment {
            addr: r.u32("data segment address")?,
            bytes: r.bytes("data segment bytes")?,
        })
    }
}

fn encode_symbol_table(table: &SymbolTable, w: &mut Writer) {
    w.usize(table.len());
    for (name, addr) in table {
        w.str(name);
        w.u32(*addr);
    }
}

fn decode_symbol_table(r: &mut Reader<'_>, what: &'static str) -> Result<SymbolTable, DecodeError> {
    let pairs: Vec<(Arc<str>, Addr)> = decode_seq(r, what, 8)?;
    Ok(pairs.into_iter().collect())
}

impl Codec for AppBinary {
    fn encode(&self, w: &mut Writer) {
        w.str(&self.name);
        w.usize(self.index);
        self.placement.encode(w);
        encode_symbol_table(&self.handlers, w);
        self.mpu_config.encode(w);
        w.u32(self.initial_sp);
        self.max_stack_estimate.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AppBinary {
            name: r.str("app name")?.into(),
            index: r.usize("app index")?,
            placement: AppPlacement::decode(r)?,
            handlers: decode_symbol_table(r, "handler table")?,
            mpu_config: MpuConfig::decode(r)?,
            initial_sp: r.u32("initial stack pointer")?,
            max_stack_estimate: Option::<u32>::decode(r)?,
        })
    }
}

impl Codec for OsBinary {
    fn encode(&self, w: &mut Writer) {
        self.mpu_config.encode(w);
        w.u32(self.initial_sp);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OsBinary {
            mpu_config: MpuConfig::decode(r)?,
            initial_sp: r.u32("initial stack pointer")?,
        })
    }
}

impl Codec for Firmware {
    fn encode(&self, w: &mut Writer) {
        self.method.encode(w);
        self.memory_map.encode(w);
        self.code.encode(w);
        encode_seq(&self.data, w);
        encode_symbol_table(&self.symbols, w);
        encode_seq(&self.apps, w);
        self.os.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Firmware {
            method: IsolationMethod::decode(r)?,
            memory_map: MemoryMap::decode(r)?,
            code: Arc::new(InstrStore::decode(r)?),
            data: decode_seq(r, "data segments", 8)?,
            symbols: decode_symbol_table(r, "symbol table")?,
            apps: decode_seq(r, "app binaries", 8)?,
            os: OsBinary::decode(r)?,
        })
    }
}

/// Encodes a firmware image into a v1 envelope under `key`.
pub fn encode_firmware(key: &str, firmware: &Firmware) -> Vec<u8> {
    let mut body = Writer::new();
    body.str(key);
    let payload = firmware.to_bytes();
    body.usize(payload.len());
    body.raw(&payload);
    let body = body.into_bytes();

    let mut w = Writer::new();
    w.raw(&MAGIC);
    w.u16(FORMAT_VERSION);
    w.u64(fnv1a64(&body));
    w.raw(&body);
    w.into_bytes()
}

/// Checks a v1 envelope (magic, version, content hash, key, payload
/// length) and returns the embedded key plus a reader positioned at the
/// firmware payload.  Shared by [`decode_firmware`] and
/// [`verify_envelope`].
fn open_envelope(bytes: &[u8]) -> Result<(String, Reader<'_>), DecodeError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u16("format version")?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion { version });
    }
    let expected = r.u64("content hash")?;
    let body = r.take(r.remaining(), "envelope body")?;
    let actual = fnv1a64(body);
    if actual != expected {
        return Err(DecodeError::HashMismatch { expected, actual });
    }

    let mut r = Reader::new(body);
    let key = r.str("configuration key")?;
    let payload_len = r.usize("payload length")?;
    if payload_len != r.remaining() {
        return Err(DecodeError::BadLength {
            what: "payload length",
            len: payload_len as u64,
        });
    }
    Ok((key, r))
}

/// Decodes a v1 envelope, returning the embedded key and the image.
///
/// Total: truncation, bit flips (anywhere — the hash covers the body and
/// the header fields check themselves), unknown versions, oversized
/// lengths and trailing bytes all return `Err`.
pub fn decode_firmware(bytes: &[u8]) -> Result<(String, Firmware), DecodeError> {
    let (key, mut r) = open_envelope(bytes)?;
    let firmware = Firmware::decode(&mut r)?;
    r.finish()?;
    Ok((key, firmware))
}

/// Verifies a v1 envelope without materialising the image: magic, format
/// version, content hash (over the whole body, so any corruption of the
/// payload is caught), embedded key and payload length are all checked and
/// the key is returned.  This is the check an OTA receiver runs on every
/// delivery attempt before it installs the image.  Same totality
/// guarantees as [`decode_firmware`].
pub fn verify_envelope(bytes: &[u8]) -> Result<String, DecodeError> {
    let (key, _payload) = open_envelope(bytes)?;
    Ok(key)
}
