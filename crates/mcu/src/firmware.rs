//! Firmware images.
//!
//! The Amulet Firmware Toolchain merges the OS with every selected
//! application and produces a single image for installation on the device.
//! [`Firmware`] is that image: the decoded instruction store, initial data,
//! a symbol table, and — crucially for this paper — per-application metadata
//! (bounds, entry points, initial stack pointer, MPU register values) that
//! the OS uses at every context switch.

use crate::code::{InstrStore, ResolvedCode};
use crate::isa::Instr;
use amulet_core::addr::{Addr, AddrRange};
use amulet_core::layout::{AppPlacement, MemoryMap};
use amulet_core::method::IsolationMethod;
use amulet_core::mpu_plan::MpuConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Names to addresses: the image's symbol table and each app's handler
/// entry points.  A name is shared, so every image linked from one
/// compiled unit refers to the unit's own copy.
pub type SymbolTable = BTreeMap<Arc<str>, Addr>;

/// The longest instruction encoding in bytes ([`Instr::size_bytes`]).
const MAX_INSTR_BYTES: u32 = 4;

/// A chunk of initialised data to be copied into memory at load time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// Destination address.
    pub addr: Addr,
    /// Bytes to copy.
    pub bytes: Vec<u8>,
}

impl DataSegment {
    /// The address range the segment occupies.
    pub(crate) fn range(&self) -> AddrRange {
        AddrRange::from_len(self.addr, self.bytes.len() as u32)
    }
}

/// Per-application metadata embedded in the firmware image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppBinary {
    /// Application name.
    pub name: Arc<str>,
    /// Index of the app in the build.
    pub index: usize,
    /// Where the app landed in FRAM (carries `C_i`, `D_i`, `T_i`).
    pub placement: AppPlacement,
    /// Event-handler entry points, by handler name.
    pub handlers: SymbolTable,
    /// MPU configuration to install while this app runs (meaningful only
    /// when the build's isolation method uses the MPU).  Carries whichever
    /// register shape the target platform's MPU expects.
    pub mpu_config: MpuConfig,
    /// Initial stack pointer for the app (top of its stack region under the
    /// per-app-stack methods; the shared OS stack otherwise).
    pub initial_sp: Addr,
    /// The AFT's maximum-stack-depth estimate in bytes, or `None` when the
    /// app is recursive and no bound could be computed.
    pub max_stack_estimate: Option<u32>,
}

/// OS-side metadata embedded in the firmware image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OsBinary {
    /// MPU configuration to install while the OS runs.
    pub mpu_config: MpuConfig,
    /// Initial (and per-switch) OS stack pointer, at the top of SRAM.
    pub initial_sp: Addr,
}

/// A complete firmware image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firmware {
    /// The isolation method the image was built for.
    pub method: IsolationMethod,
    /// The memory map the AFT's final phase produced.
    pub memory_map: MemoryMap,
    /// Decoded instruction store: a word-indexed table over the image's
    /// occupied span with O(1) fetch (see [`InstrStore`]).  Shared behind
    /// an [`Arc`] so cloning a firmware image — and loading it onto many
    /// simulated devices — never copies the slot table; the store is
    /// immutable once built.
    pub code: Arc<InstrStore>,
    /// Initialised data segments.
    pub data: Vec<DataSegment>,
    /// Global symbol table (function entry points and data objects).
    pub symbols: SymbolTable,
    /// Per-application metadata.
    pub apps: Vec<AppBinary>,
    /// OS metadata.
    pub os: OsBinary,
}

/// Problems detected by [`Firmware::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FirmwareError {
    /// Two instructions overlap (the earlier one's encoding extends over the
    /// later one's address).
    OverlappingInstructions {
        /// Address of the earlier instruction.
        first: Addr,
        /// Address of the overlapped instruction.
        second: Addr,
    },
    /// An application's code strays outside its code region.
    CodeOutOfBounds {
        /// Application name.
        app: String,
        /// Offending instruction address.
        addr: Addr,
    },
    /// A data segment overlaps an application's code region or another data
    /// segment.
    DataOverlap {
        /// Address where the overlap starts.
        addr: Addr,
    },
    /// A handler entry point does not correspond to any instruction.
    DanglingHandler {
        /// Application name.
        app: String,
        /// Handler name.
        handler: String,
        /// The bad address.
        addr: Addr,
    },
}

impl fmt::Display for FirmwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FirmwareError::OverlappingInstructions { first, second } => {
                write!(
                    f,
                    "instruction at {first:#06x} overlaps instruction at {second:#06x}"
                )
            }
            FirmwareError::CodeOutOfBounds { app, addr } => {
                write!(
                    f,
                    "app `{app}` has code at {addr:#06x} outside its code region"
                )
            }
            FirmwareError::DataOverlap { addr } => write!(f, "data overlap at {addr:#06x}"),
            FirmwareError::DanglingHandler { app, handler, addr } => {
                write!(f, "app `{app}` handler `{handler}` points at {addr:#06x}, which holds no instruction")
            }
        }
    }
}

impl std::error::Error for FirmwareError {}

impl Firmware {
    /// Number of instructions in the image.
    pub fn instruction_count(&self) -> usize {
        self.code.len()
    }

    /// Looks up an application by name.
    pub fn app(&self, name: &str) -> Option<&AppBinary> {
        self.apps.iter().find(|a| &*a.name == name)
    }

    /// Structural validation of the image: one pass over the code, then a
    /// window of at most one instruction's reach per region.
    pub fn validate(&self) -> Result<(), FirmwareError> {
        // Instructions must not overlap.
        let mut prev: Option<(Addr, u32)> = None;
        for (addr, size) in self.code.sizes(0..0x1_0000) {
            if let Some((paddr, psize)) = prev {
                if paddr + psize > addr {
                    return Err(FirmwareError::OverlappingInstructions {
                        first: paddr,
                        second: addr,
                    });
                }
            }
            prev = Some((addr, size));
        }
        // App code must stay inside each app's code region, and handlers must
        // point at real instructions.  Instructions are at most
        // `MAX_INSTR_BYTES` long, so only one starting in the region's
        // last `MAX_INSTR_BYTES - 1` bytes can reach past its end.
        for app in &self.apps {
            let code = app.placement.code;
            let tail = code.end.saturating_sub(MAX_INSTR_BYTES - 1).max(code.start);
            for (addr, size) in self.code.sizes(tail..code.end) {
                if addr + size > code.end {
                    return Err(FirmwareError::CodeOutOfBounds {
                        app: app.name.to_string(),
                        addr,
                    });
                }
            }
            for (hname, &haddr) in &app.handlers {
                if !self.code.contains(haddr) {
                    return Err(FirmwareError::DanglingHandler {
                        app: app.name.to_string(),
                        handler: hname.to_string(),
                        addr: haddr,
                    });
                }
            }
        }
        // Data segments must not overlap each other or any code.
        let mut data_ranges: Vec<AddrRange> = Vec::new();
        for seg in &self.data {
            let r = seg.range();
            for other in &data_ranges {
                if r.overlaps(other) {
                    return Err(FirmwareError::DataOverlap {
                        addr: r.start.max(other.start),
                    });
                }
            }
            // Only instructions starting in the segment or just below it
            // can reach into it.
            for (addr, size) in self
                .code
                .sizes(r.start.saturating_sub(MAX_INSTR_BYTES - 1)..r.end)
            {
                let ir = AddrRange::from_len(addr, size);
                if r.overlaps(&ir) {
                    return Err(FirmwareError::DataOverlap {
                        addr: ir.start.max(r.start),
                    });
                }
            }
            data_ranges.push(r);
        }
        Ok(())
    }
}

/// Builder used by the AFT's final phase (and by tests) to assemble firmware
/// images instruction by instruction.
#[derive(Clone, Debug)]
pub struct FirmwareBuilder {
    method: IsolationMethod,
    memory_map: MemoryMap,
    code: InstrStore,
    data: Vec<DataSegment>,
    symbols: SymbolTable,
    apps: Vec<AppBinary>,
    os: OsBinary,
}

impl FirmwareBuilder {
    /// Starts a builder for the given method and memory map.
    pub fn new(method: IsolationMethod, memory_map: MemoryMap, os: OsBinary) -> Self {
        FirmwareBuilder {
            method,
            memory_map,
            code: InstrStore::new(),
            data: Vec::new(),
            symbols: BTreeMap::new(),
            apps: Vec::new(),
            os,
        }
    }

    /// The memory map the image is built against.
    pub fn memory_map(&self) -> &MemoryMap {
        &self.memory_map
    }

    /// Reserves the instruction store for an image whose code spans
    /// `words` 2-byte words from its lowest instruction to its highest, so
    /// placing it never reallocates and [`FirmwareBuilder::build`] has no
    /// slack to give back.
    pub fn reserve_code(&mut self, words: usize) {
        self.code.reserve_span(words);
    }

    /// Emits a sequence of instructions starting at `addr`, returning the
    /// address just past the emitted sequence: the sequence is resolved,
    /// then placed.
    pub fn emit(&mut self, addr: Addr, instrs: &[Instr]) -> Addr {
        self.place(addr, &ResolvedCode::resolve(instrs.iter().copied()))
    }

    /// Places a resolved run with its first instruction at `addr`,
    /// returning the address just past it.
    pub fn place(&mut self, addr: Addr, code: &ResolvedCode) -> Addr {
        self.code.place(addr, code);
        addr + code.size_bytes()
    }

    /// Writes `instr` at `addr` over the instruction placed there,
    /// resolving it afresh: how the linker patches a relocated
    /// instruction of a placed run.
    pub fn patch(&mut self, addr: Addr, instr: Instr) {
        self.code.insert(addr, instr);
    }

    /// Adds an initialised data segment.
    pub fn add_data(&mut self, addr: Addr, bytes: Vec<u8>) {
        self.data.push(DataSegment { addr, bytes });
    }

    /// Defines a global symbol.
    pub fn define_symbol(&mut self, name: impl Into<Arc<str>>, addr: Addr) {
        self.symbols.insert(name.into(), addr);
    }

    /// Registers an application's metadata.
    pub fn add_app(&mut self, app: AppBinary) {
        self.apps.push(app);
    }

    /// Finishes the image (validating it).  The instruction store gives
    /// back any growth slack, so the image owns exactly its span.
    pub fn build(mut self) -> Result<Firmware, FirmwareError> {
        self.code.shrink_to_span();
        let fw = Firmware {
            method: self.method,
            memory_map: self.memory_map,
            code: Arc::new(self.code),
            data: self.data,
            symbols: self.symbols,
            apps: self.apps,
            os: self.os,
        };
        fw.validate()?;
        Ok(fw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
    use amulet_core::layout::{AppImageSpec, MemoryMapPlanner, OsImageSpec};
    use amulet_core::mpu_plan::MpuPlan;

    fn map() -> MemoryMap {
        MemoryMapPlanner::msp430fr5969()
            .plan(
                &OsImageSpec::default(),
                &[AppImageSpec::new("A", 0x400, 0x100, 0x80)],
            )
            .unwrap()
    }

    fn os_binary(map: &MemoryMap) -> OsBinary {
        OsBinary {
            mpu_config: MpuPlan::for_os_on(map).unwrap().config(&map.platform.mpu),
            initial_sp: map.os_initial_stack_pointer(),
        }
    }

    fn app_binary(map: &MemoryMap, handlers: SymbolTable) -> AppBinary {
        let placement = map.apps[0].clone();
        AppBinary {
            name: "A".into(),
            index: 0,
            initial_sp: placement.initial_stack_pointer(),
            mpu_config: MpuPlan::for_app_on(map, 0)
                .unwrap()
                .config(&map.platform.mpu),
            placement,
            handlers,
            max_stack_estimate: Some(0x40),
        }
    }

    #[test]
    fn builder_emits_sequential_addresses() {
        let map = map();
        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        let start = map.apps[0].code.start;
        let end = b.emit(
            start,
            &[
                Instr::MovImm {
                    dst: Reg::R4,
                    imm: 1,
                }, // 4 bytes
                Instr::Mov {
                    dst: Reg::R5,
                    src: Reg::R4,
                }, // 2 bytes
                Instr::Ret, // 2 bytes
            ],
        );
        assert_eq!(end, start + 8);
        let fw = b.build().unwrap();
        assert_eq!(fw.instruction_count(), 3);
    }

    #[test]
    fn built_and_decoded_images_own_exactly_their_span() {
        use amulet_core::serial::Codec;
        let map = map();
        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        let start = map.apps[0].code.start;
        // Emitted out of order with a hole, so the span grows both ways.
        b.emit(start + 0x40, &[Instr::Nop; 100]);
        b.emit(start, &[Instr::Ret; 3]);
        let fw = b.build().unwrap();
        let words = (0x40 + 200) / 2;
        assert_eq!(fw.code.capacity(), words);

        let decoded = Firmware::from_bytes(&fw.to_bytes()).unwrap();
        assert_eq!(decoded.code, fw.code);
        assert_eq!(decoded.code.capacity(), words);
        let store = InstrStore::from_bytes(&fw.code.to_bytes()).unwrap();
        assert_eq!(store.capacity(), words);
    }

    #[test]
    fn validate_rejects_overlapping_instructions() {
        let map = map();
        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        let start = map.apps[0].code.start;
        b.emit(
            start,
            &[Instr::MovImm {
                dst: Reg::R4,
                imm: 1,
            }],
        );
        // Manually insert an instruction in the middle of the previous one.
        b.code.insert(start + 2, Instr::Ret);
        assert!(matches!(
            b.build(),
            Err(FirmwareError::OverlappingInstructions { .. })
        ));
    }

    #[test]
    fn validate_rejects_code_outside_the_app_region() {
        let map = map();
        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        let app_end = map.apps[0].code.end;
        b.emit(app_end - 2, &[Instr::Call { target: 0x4400 }]); // 4 bytes, spills over
        b.add_app(app_binary(&map, BTreeMap::new()));
        assert!(matches!(
            b.build(),
            Err(FirmwareError::CodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_handlers_and_data_overlap() {
        let map = map();
        let start = map.apps[0].code.start;

        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        b.emit(start, &[Instr::Ret]);
        let mut handlers = BTreeMap::new();
        handlers.insert("main".into(), start + 0x100);
        b.add_app(app_binary(&map, handlers));
        assert!(matches!(
            b.build(),
            Err(FirmwareError::DanglingHandler { .. })
        ));

        let mut b = FirmwareBuilder::new(IsolationMethod::Mpu, map.clone(), os_binary(&map));
        b.emit(start, &[Instr::Ret]);
        b.add_data(start, vec![0; 4]);
        assert!(matches!(b.build(), Err(FirmwareError::DataOverlap { .. })));
    }

    #[test]
    fn symbols_and_app_lookup() {
        let map = map();
        let mut b =
            FirmwareBuilder::new(IsolationMethod::SoftwareOnly, map.clone(), os_binary(&map));
        let start = map.apps[0].code.start;
        b.emit(start, &[Instr::Ret]);
        b.define_symbol("A::main", start);
        let mut handlers = BTreeMap::new();
        handlers.insert("main".into(), start);
        b.add_app(app_binary(&map, handlers));
        let fw = b.build().unwrap();
        assert_eq!(fw.symbols["A::main"], start);
        assert_eq!(fw.app("A").unwrap().handlers["main"], start);
        assert!(fw.app("B").is_none());
    }
}
