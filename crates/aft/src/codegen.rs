//! Phase 2 of the AFT: code generation with isolation checks.
//!
//! Each application function is compiled to the simulator ISA.  Wherever the
//! selected isolation method's [`CheckPolicy`] requires it, the generator
//! injects the paper's check sequences — a compare against a (placeholder)
//! bound constant followed by a conditional branch to a `FAULT` stub.  The
//! placeholders are recorded as [`Reloc`]s and patched by the linker in
//! phase 4 once the final memory layout (and therefore every app's `C_i`,
//! `D_i` and `T_i`) is known.

use crate::api::ApiSpec;
use crate::ast::{BinOp, Block, Expr, Function, Program, Stmt, UnOp};
use crate::error::{AftResult, CompileError};
use crate::sema::Analysis;
use crate::token::Loc;
use crate::types::Type;
use amulet_core::checks::{CheckKind, CheckPolicy};
use amulet_core::fault::FaultClass;
use amulet_core::method::IsolationMethod;
use amulet_mcu::cpu::HANDLER_RETURN;
use amulet_mcu::isa::{AluOp, Cond, Instr, Reg, UnaryOp, Width};
use std::collections::{BTreeMap, HashMap};

/// What a placeholder in an emitted instruction must be patched to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelocKind {
    /// The absolute address of an application function.
    FuncAddr(String),
    /// The absolute address of an application global plus a byte offset
    /// (the offset is used for array length descriptors).
    GlobalAddr {
        /// Global variable name.
        name: String,
        /// Extra byte offset.
        add: u32,
    },
    /// A local label inside the same function (jump targets).
    Label(usize),
    /// The app's data/stack lower bound `D_i`.
    BoundDataLower,
    /// The app's upper bound `T_i`.
    BoundDataUpper,
    /// The app's code lower bound `C_i`.
    BoundCodeLower,
    /// The app's code upper bound (`D_i`).
    BoundCodeUpper,
}

/// A patch the linker must apply to one emitted instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reloc {
    /// Index of the instruction within the function's instruction list.
    pub index: usize,
    /// What to patch it with.
    pub kind: RelocKind,
}

/// One inserted check sequence, located by instruction index within its
/// function.  The linker rebases these into the absolute
/// [`amulet_core::checks::CheckSite`]s the static verifier consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalCheckSite {
    /// Which check the sequence implements.
    pub kind: CheckKind,
    /// Index of the sequence's first instruction in
    /// [`FunctionCode::instrs`].
    pub index: usize,
    /// Number of instructions in the sequence.
    pub len: u32,
}

/// The compiled form of one function, before linking.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionCode {
    /// Function name.
    pub name: String,
    /// Emitted instructions (some operands are placeholders).
    pub instrs: Vec<Instr>,
    /// Pending relocations.
    pub relocs: Vec<Reloc>,
    /// Label table: label id → instruction index.
    pub labels: Vec<Option<usize>>,
    /// Count of compiler-inserted check sequences, by description (for the
    /// build report).
    pub inserted_checks: BTreeMap<String, u32>,
    /// Every inserted check sequence, in emission order.
    pub check_sites: Vec<LocalCheckSite>,
}

impl FunctionCode {
    /// Total encoded size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.instrs.iter().map(|i| i.size_bytes()).sum()
    }
}

/// The compiled (but not yet linked) form of one application.
#[derive(Clone, Debug, PartialEq)]
pub struct AppCode {
    /// Application name.
    pub name: String,
    /// Compiled functions in source order.
    pub functions: Vec<FunctionCode>,
    /// Byte size of the app's global data area (elements plus array length
    /// descriptors), before stack is added.
    pub data_bytes: u32,
    /// Initial contents of the data area (little-endian bytes).
    pub data_image: Vec<u8>,
    /// The analysis that phase 1 produced for this app.
    pub analysis: Analysis,
}

impl AppCode {
    /// Total code size in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.functions.iter().map(|f| f.size_bytes()).sum()
    }

    /// Looks up a compiled function.
    pub fn function(&self, name: &str) -> Option<&FunctionCode> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Compiles every function of an application, inserting the run-time
/// checks `policy` requires (derive it with
/// [`CheckPolicy::for_method_on`] so it reflects both the isolation method
/// and the target platform's MPU capabilities).
pub fn generate(
    app: &str,
    program: &Program,
    analysis: &Analysis,
    api: &ApiSpec,
    method: IsolationMethod,
    policy: CheckPolicy,
) -> AftResult<AppCode> {
    let mut functions = Vec::new();
    for f in &program.functions {
        let code = FnCodegen::new(app, f, analysis, api, method, policy).generate()?;
        functions.push(code);
    }

    // Build the initial data image: globals in offset order, with array
    // length descriptors following each array's elements.
    let mut data_image = vec![0u8; analysis.globals_bytes as usize];
    for g in &program.globals {
        let (ty, offset) = &analysis.global_offsets[&g.name];
        match ty {
            Type::Array(elem, len) => {
                let esz = elem.size_bytes() as usize;
                for (i, v) in g.init.iter().enumerate().take(*len as usize) {
                    let base = *offset as usize + i * esz;
                    data_image[base] = (*v & 0xFF) as u8;
                    if esz == 2 {
                        data_image[base + 1] = ((*v >> 8) & 0xFF) as u8;
                    }
                }
                // Length descriptor word right after the elements.
                let desc = *offset as usize + ty.size_bytes() as usize;
                data_image[desc] = (*len & 0xFF) as u8;
                data_image[desc + 1] = ((*len >> 8) & 0xFF) as u8;
            }
            _ => {
                if let Some(v) = g.init.first() {
                    let base = *offset as usize;
                    data_image[base] = (*v & 0xFF) as u8;
                    data_image[base + 1] = ((*v >> 8) & 0xFF) as u8;
                }
            }
        }
    }

    Ok(AppCode {
        name: app.to_string(),
        functions,
        data_bytes: analysis.globals_bytes,
        data_image,
        analysis: analysis.clone(),
    })
}

/// A local variable or parameter slot.
#[derive(Clone, Debug)]
struct LocalVar {
    ty: Type,
    /// Byte offset relative to the frame pointer (positive for parameters,
    /// negative for locals).
    offset: i16,
    /// For local arrays: FP-relative offset of the hidden length word.
    desc_offset: Option<i16>,
}

struct FnCodegen<'a> {
    app: String,
    func: &'a Function,
    analysis: &'a Analysis,
    api: &'a ApiSpec,
    /// Kept for diagnostics and future method-specific lowering decisions.
    #[allow(dead_code)]
    method: IsolationMethod,
    policy: CheckPolicy,
    instrs: Vec<Instr>,
    relocs: Vec<Reloc>,
    labels: Vec<Option<usize>>,
    scopes: Vec<HashMap<String, LocalVar>>,
    next_local: i16,
    max_locals: i16,
    loop_stack: Vec<(usize, usize)>,
    fault_labels: HashMap<FaultClass, usize>,
    ret_label: usize,
    inserted_checks: BTreeMap<String, u32>,
    check_sites: Vec<LocalCheckSite>,
}

impl<'a> FnCodegen<'a> {
    fn new(
        app: &str,
        func: &'a Function,
        analysis: &'a Analysis,
        api: &'a ApiSpec,
        method: IsolationMethod,
        policy: CheckPolicy,
    ) -> Self {
        FnCodegen {
            app: app.to_string(),
            func,
            analysis,
            api,
            method,
            policy,
            instrs: Vec::new(),
            relocs: Vec::new(),
            labels: vec![None],
            scopes: Vec::new(),
            next_local: 0,
            max_locals: 0,
            loop_stack: Vec::new(),
            fault_labels: HashMap::new(),
            ret_label: 0,
            inserted_checks: BTreeMap::new(),
            check_sites: Vec::new(),
        }
    }

    // ---- low-level emission helpers -------------------------------------

    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind_label(&mut self, label: usize) {
        self.labels[label] = Some(self.instrs.len());
    }

    fn emit_jmp(&mut self, label: usize) {
        let idx = self.emit(Instr::Jmp { target: 0 });
        self.relocs.push(Reloc {
            index: idx,
            kind: RelocKind::Label(label),
        });
    }

    fn emit_jcc(&mut self, cond: Cond, label: usize) {
        let idx = self.emit(Instr::Jcc { cond, target: 0 });
        self.relocs.push(Reloc {
            index: idx,
            kind: RelocKind::Label(label),
        });
    }

    fn emit_reloc(&mut self, i: Instr, kind: RelocKind) -> usize {
        let idx = self.emit(i);
        self.relocs.push(Reloc { index: idx, kind });
        idx
    }

    fn note_check(&mut self, what: &str) {
        *self.inserted_checks.entry(what.to_string()).or_insert(0) += 1;
    }

    /// Records that the instructions from `start` to the current end of the
    /// stream form one `kind` check sequence.
    fn note_site(&mut self, kind: CheckKind, start: usize) {
        self.check_sites.push(LocalCheckSite {
            kind,
            index: start,
            len: (self.instrs.len() - start) as u32,
        });
    }

    fn fault_label(&mut self, class: FaultClass) -> usize {
        if let Some(&l) = self.fault_labels.get(&class) {
            return l;
        }
        let l = self.new_label();
        self.fault_labels.insert(class, l);
        l
    }

    fn internal(&self, message: impl Into<String>) -> CompileError {
        CompileError::Internal {
            message: format!("[{}::{}] {}", self.app, self.func.name, message.into()),
        }
    }

    // ---- scopes ----------------------------------------------------------

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare_local(&mut self, name: &str, ty: Type) -> LocalVar {
        let desc_offset = if matches!(ty, Type::Array(..)) {
            self.next_local -= 2;
            Some(self.next_local)
        } else {
            None
        };
        self.next_local -= ty.stack_size_bytes() as i16;
        let var = LocalVar {
            ty,
            offset: self.next_local,
            desc_offset,
        };
        self.max_locals = self.max_locals.min(self.next_local);
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), var.clone());
        var
    }

    fn lookup_local(&self, name: &str) -> Option<LocalVar> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn lookup_global(&self, name: &str) -> Option<(Type, u32)> {
        self.analysis.global_offsets.get(name).cloned()
    }

    // ---- type reconstruction (sema has already validated) ---------------

    fn type_of(&self, e: &Expr) -> Type {
        match e {
            Expr::IntLit { .. } => Type::Int,
            Expr::Ident { name, .. } => {
                if let Some(v) = self.lookup_local(name) {
                    v.ty
                } else if let Some((t, _)) = self.lookup_global(name) {
                    t
                } else {
                    Type::FnPtr
                }
            }
            Expr::Unary { .. } => Type::Int,
            Expr::Binary { op, lhs, rhs, .. } => {
                if op.is_comparison() {
                    Type::Int
                } else {
                    let lt = self.type_of(lhs);
                    let rt = self.type_of(rhs);
                    if matches!(lt, Type::Ptr(_)) {
                        lt
                    } else if matches!(rt, Type::Ptr(_)) {
                        rt
                    } else if lt.is_unsigned() || rt.is_unsigned() {
                        Type::Uint
                    } else {
                        Type::Int
                    }
                }
            }
            Expr::Assign { target, .. } => self.type_of(target),
            Expr::Index { base, .. } => self.type_of(base).pointee().cloned().unwrap_or(Type::Int),
            Expr::Call { callee, .. } => {
                if let Expr::Ident { name, .. } = callee.as_ref() {
                    if let Some(sig) = self.analysis.signatures.get(name) {
                        return sig.ret.clone();
                    }
                    if let Some(api) = self.api.by_name(name) {
                        return api.ret.clone();
                    }
                }
                Type::Int
            }
            Expr::Deref { expr, .. } => self.type_of(expr).pointee().cloned().unwrap_or(Type::Int),
            Expr::AddrOf { expr, .. } => Type::Ptr(Box::new(self.type_of(expr))),
        }
    }

    fn width_of(ty: &Type) -> Width {
        if ty.access_width_bytes() == 1 {
            Width::Byte
        } else {
            Width::Word
        }
    }

    // ---- check insertion --------------------------------------------------

    /// Emits the data-pointer checks required by the policy against the
    /// address in `R14`.
    fn emit_data_pointer_checks(&mut self) {
        if self.policy.data_pointer_lower {
            let fault = self.fault_label(FaultClass::DataPointerLowerBound);
            let start = self.instrs.len();
            self.emit_reloc(
                Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                },
                RelocKind::BoundDataLower,
            );
            self.emit_jcc(Cond::Lo, fault);
            self.note_site(CheckKind::DataPointerLower, start);
            self.note_check("data pointer lower bound");
        }
        if self.policy.data_pointer_upper {
            let fault = self.fault_label(FaultClass::DataPointerUpperBound);
            let start = self.instrs.len();
            self.emit_reloc(
                Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                },
                RelocKind::BoundDataUpper,
            );
            self.emit_jcc(Cond::Hs, fault);
            self.note_site(CheckKind::DataPointerUpper, start);
            self.note_check("data pointer upper bound");
        }
    }

    /// Emits the Feature Limited array-bounds check: the (signed) index in
    /// `R14` is checked against zero, then against the array length loaded
    /// from the array's descriptor into `R13`.
    ///
    /// The Amulet tool treats indexes as the signed C `int`s they are, so it
    /// emits both the negative-index check and the length check and reloads
    /// the length from the array descriptor on every access — which is why
    /// Table 1 reports the Feature Limited memory access as the most
    /// expensive of the four memory models.
    fn emit_array_bounds_check(&mut self, descriptor: DescriptorLoc) {
        if !self.policy.array_bounds {
            return;
        }
        let fault = self.fault_label(FaultClass::ArrayBounds);
        let start = self.instrs.len();
        self.emit(Instr::CmpImm {
            a: Reg::R14,
            imm: 0,
        });
        self.emit_jcc(Cond::Lt, fault);
        match descriptor {
            DescriptorLoc::Global { name, add } => {
                self.emit_reloc(
                    Instr::LoadAbs {
                        dst: Reg::R13,
                        addr: 0,
                        width: Width::Word,
                    },
                    RelocKind::GlobalAddr { name, add },
                );
            }
            DescriptorLoc::Local { offset } => {
                self.emit(Instr::Load {
                    dst: Reg::R13,
                    base: Reg::FP,
                    offset,
                    width: Width::Word,
                });
            }
        }
        self.emit(Instr::Cmp {
            a: Reg::R14,
            b: Reg::R13,
        });
        self.emit_jcc(Cond::Hs, fault);
        self.note_site(CheckKind::ArrayBounds, start);
        self.note_check("array bounds");
    }

    /// Emits the function-pointer checks required by the policy against the
    /// call target in `R14`.
    fn emit_function_pointer_checks(&mut self) {
        if self.policy.function_pointer_lower {
            let fault = self.fault_label(FaultClass::FunctionPointerLowerBound);
            let start = self.instrs.len();
            self.emit_reloc(
                Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                },
                RelocKind::BoundCodeLower,
            );
            self.emit_jcc(Cond::Lo, fault);
            self.note_site(CheckKind::FunctionPointerLower, start);
            self.note_check("function pointer lower bound");
        }
        if self.policy.function_pointer_upper {
            let fault = self.fault_label(FaultClass::FunctionPointerUpperBound);
            let start = self.instrs.len();
            self.emit_reloc(
                Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                },
                RelocKind::BoundCodeUpper,
            );
            self.emit_jcc(Cond::Hs, fault);
            self.note_site(CheckKind::FunctionPointerUpper, start);
            self.note_check("function pointer upper bound");
        }
    }

    /// Emits the return-address check: the return address (now at `0(SP)`,
    /// just before `ret` pops it) must point back into this app's code
    /// region, or be the OS's handler-return sentinel.
    fn emit_return_address_check(&mut self) {
        if !self.policy.return_address {
            return;
        }
        let fault = self.fault_label(FaultClass::ReturnAddress);
        let ok = self.new_label();
        let start = self.instrs.len();
        self.emit(Instr::Load {
            dst: Reg::R3,
            base: Reg::SP,
            offset: 0,
            width: Width::Word,
        });
        // The OS invokes handlers with a sentinel return address; that value
        // is always legitimate.
        self.emit(Instr::CmpImm {
            a: Reg::R3,
            imm: HANDLER_RETURN as u16,
        });
        self.emit_jcc(Cond::Eq, ok);
        self.emit_reloc(
            Instr::CmpImm { a: Reg::R3, imm: 0 },
            RelocKind::BoundCodeLower,
        );
        self.emit_jcc(Cond::Lo, fault);
        self.emit_reloc(
            Instr::CmpImm { a: Reg::R3, imm: 0 },
            RelocKind::BoundCodeUpper,
        );
        self.emit_jcc(Cond::Hs, fault);
        self.bind_label(ok);
        self.note_site(CheckKind::ReturnAddress, start);
        self.note_check("return address");
    }

    // ---- function body ----------------------------------------------------

    fn generate(mut self) -> AftResult<FunctionCode> {
        self.ret_label = self.new_label();
        self.push_scope();

        // Parameters: pushed right-to-left by the caller, so the first
        // parameter sits closest to the frame pointer.
        for (i, p) in self.func.params.iter().enumerate() {
            let var = LocalVar {
                ty: p.ty.clone(),
                offset: 4 + 2 * i as i16,
                desc_offset: None,
            };
            self.scopes.last_mut().unwrap().insert(p.name.clone(), var);
        }

        // Prologue: save the caller's frame pointer and claim the frame.  The
        // frame size is patched after the body is generated (we only then
        // know how many locals were declared).
        self.emit(Instr::Push { src: Reg::FP });
        self.emit(Instr::Mov {
            dst: Reg::FP,
            src: Reg::SP,
        });
        let frame_alloc_idx = self.emit(Instr::AluImm {
            op: AluOp::Sub,
            dst: Reg::SP,
            imm: 0,
        });

        let body = self.func.body.clone();
        self.gen_block(&body)?;

        // Implicit `return 0` / `return` when control falls off the end.
        self.emit(Instr::MovImm {
            dst: Reg::R14,
            imm: 0,
        });
        self.bind_label(self.ret_label);
        // Epilogue: tear down the frame, verify the return address, return.
        self.emit(Instr::Mov {
            dst: Reg::SP,
            src: Reg::FP,
        });
        self.emit(Instr::Pop { dst: Reg::FP });
        self.emit_return_address_check();
        self.emit(Instr::Ret);

        // Fault stubs.
        let mut fault_labels: Vec<(FaultClass, usize)> =
            self.fault_labels.iter().map(|(c, l)| (*c, *l)).collect();
        fault_labels.sort_by_key(|(c, _)| format!("{c:?}"));
        for (class, label) in fault_labels {
            self.bind_label(label);
            let code = FaultClass::ALL
                .iter()
                .position(|c| *c == class)
                .unwrap_or(0) as u16;
            self.emit(Instr::Fault { code });
        }

        // Patch the frame allocation now that the frame size is known.
        let frame_bytes = (-self.max_locals) as u16;
        if frame_bytes == 0 {
            self.instrs[frame_alloc_idx] = Instr::Nop;
        } else {
            self.instrs[frame_alloc_idx] = Instr::AluImm {
                op: AluOp::Sub,
                dst: Reg::SP,
                imm: frame_bytes,
            };
        }

        self.pop_scope();
        Ok(FunctionCode {
            name: self.func.name.clone(),
            instrs: self.instrs,
            relocs: self.relocs,
            labels: self.labels,
            inserted_checks: self.inserted_checks,
            check_sites: self.check_sites,
        })
    }

    fn gen_block(&mut self, block: &Block) -> AftResult<()> {
        self.push_scope();
        let saved_next_local = self.next_local;
        for stmt in &block.stmts {
            self.gen_stmt(stmt)?;
        }
        // Locals of the block go out of scope; their stack slots can be
        // reused by sibling blocks (the frame size keeps the maximum).
        self.next_local = saved_next_local;
        self.pop_scope();
        Ok(())
    }

    fn gen_stmt(&mut self, stmt: &Stmt) -> AftResult<()> {
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let var = self.declare_local(name, ty.clone());
                // Local arrays carry their length in a hidden descriptor slot
                // so the Feature Limited bounds check can read it.
                if let (Some(desc), Type::Array(_, len)) = (var.desc_offset, ty) {
                    self.emit(Instr::MovImm {
                        dst: Reg::R3,
                        imm: *len as u16,
                    });
                    self.emit(Instr::Store {
                        src: Reg::R3,
                        base: Reg::FP,
                        offset: desc,
                        width: Width::Word,
                    });
                }
                if let Some(init) = init {
                    self.gen_expr(init)?;
                    self.emit(Instr::Store {
                        src: Reg::R14,
                        base: Reg::FP,
                        offset: var.offset,
                        width: Self::width_of(ty),
                    });
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.gen_expr(e)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                let else_label = self.new_label();
                let end_label = self.new_label();
                self.gen_cond_jump_if_false(cond, else_label)?;
                self.gen_block(then_block)?;
                if let Some(else_block) = else_block {
                    self.emit_jmp(end_label);
                    self.bind_label(else_label);
                    self.gen_block(else_block)?;
                    self.bind_label(end_label);
                } else {
                    self.bind_label(else_label);
                    self.bind_label(end_label);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.new_label();
                let exit = self.new_label();
                self.bind_label(head);
                self.gen_cond_jump_if_false(cond, exit)?;
                self.loop_stack.push((head, exit));
                self.gen_block(body)?;
                self.loop_stack.pop();
                self.emit_jmp(head);
                self.bind_label(exit);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope();
                if let Some(init) = init {
                    self.gen_stmt(init)?;
                }
                let head = self.new_label();
                let continue_label = self.new_label();
                let exit = self.new_label();
                self.bind_label(head);
                if let Some(cond) = cond {
                    self.gen_cond_jump_if_false(cond, exit)?;
                }
                self.loop_stack.push((continue_label, exit));
                self.gen_block(body)?;
                self.loop_stack.pop();
                self.bind_label(continue_label);
                if let Some(step) = step {
                    self.gen_expr(step)?;
                }
                self.emit_jmp(head);
                self.bind_label(exit);
                self.pop_scope();
                Ok(())
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.gen_expr(v)?;
                } else {
                    self.emit(Instr::MovImm {
                        dst: Reg::R14,
                        imm: 0,
                    });
                }
                self.emit_jmp(self.ret_label);
                Ok(())
            }
            Stmt::Break(loc) => {
                let Some(&(_, exit)) = self.loop_stack.last() else {
                    return Err(self.internal(format!("break outside loop at {loc}")));
                };
                self.emit_jmp(exit);
                Ok(())
            }
            Stmt::Continue(loc) => {
                let Some(&(cont, _)) = self.loop_stack.last() else {
                    return Err(self.internal(format!("continue outside loop at {loc}")));
                };
                self.emit_jmp(cont);
                Ok(())
            }
            Stmt::Block(b) => self.gen_block(b),
            Stmt::Goto { loc, .. } | Stmt::Asm { loc, .. } => {
                Err(self.internal(format!("unsupported statement reached codegen at {loc}")))
            }
        }
    }

    /// Evaluates `cond` and jumps to `target` when it is false (zero).
    fn gen_cond_jump_if_false(&mut self, cond: &Expr, target: usize) -> AftResult<()> {
        self.gen_expr(cond)?;
        self.emit(Instr::CmpImm {
            a: Reg::R14,
            imm: 0,
        });
        self.emit_jcc(Cond::Eq, target);
        Ok(())
    }

    /// Compiles an expression, leaving its value in `R14`.
    fn gen_expr(&mut self, e: &Expr) -> AftResult<Type> {
        match e {
            Expr::IntLit { value, .. } => {
                self.emit(Instr::MovImm {
                    dst: Reg::R14,
                    imm: *value as u16,
                });
                Ok(Type::Int)
            }
            Expr::Ident { name, loc } => self.gen_ident_load(name, *loc),
            Expr::Unary { op, expr, .. } => {
                self.gen_expr(expr)?;
                match op {
                    UnOp::Neg => {
                        self.emit(Instr::Unary {
                            op: UnaryOp::Neg,
                            reg: Reg::R14,
                        });
                    }
                    UnOp::BitNot => {
                        self.emit(Instr::Unary {
                            op: UnaryOp::Not,
                            reg: Reg::R14,
                        });
                    }
                    UnOp::LogicalNot => {
                        let one = self.new_label();
                        self.emit(Instr::CmpImm {
                            a: Reg::R14,
                            imm: 0,
                        });
                        self.emit(Instr::MovImm {
                            dst: Reg::R14,
                            imm: 1,
                        });
                        self.emit_jcc(Cond::Eq, one);
                        self.emit(Instr::MovImm {
                            dst: Reg::R14,
                            imm: 0,
                        });
                        self.bind_label(one);
                    }
                }
                Ok(Type::Int)
            }
            Expr::Binary { op, lhs, rhs, .. } => self.gen_binary(*op, lhs, rhs),
            Expr::Assign {
                target, value, op, ..
            } => {
                // Compound assignment desugars to `target = target op value`.
                if let Some(op) = op {
                    let desugared = Expr::Assign {
                        target: target.clone(),
                        value: Box::new(Expr::Binary {
                            op: *op,
                            lhs: target.clone(),
                            rhs: value.clone(),
                            loc: value.loc(),
                        }),
                        op: None,
                        loc: value.loc(),
                    };
                    return self.gen_expr(&desugared);
                }
                self.gen_assign(target, value)
            }
            Expr::Index { base, index, .. } => {
                let elem_ty = self.gen_element_address(base, index, true)?;
                self.emit(Instr::Load {
                    dst: Reg::R14,
                    base: Reg::R14,
                    offset: 0,
                    width: Self::width_of(&elem_ty),
                });
                Ok(elem_ty)
            }
            Expr::Call { callee, args, loc } => self.gen_call(callee, args, *loc),
            Expr::Deref { expr, .. } => {
                let pointee = self.type_of(expr).pointee().cloned().unwrap_or(Type::Int);
                self.gen_expr(expr)?;
                self.emit_data_pointer_checks();
                self.emit(Instr::Load {
                    dst: Reg::R14,
                    base: Reg::R14,
                    offset: 0,
                    width: Self::width_of(&pointee),
                });
                Ok(pointee)
            }
            Expr::AddrOf { expr, loc } => self.gen_addr_of(expr, *loc),
        }
    }

    fn gen_ident_load(&mut self, name: &str, loc: Loc) -> AftResult<Type> {
        if let Some(var) = self.lookup_local(name) {
            match &var.ty {
                Type::Array(..) => {
                    // Arrays decay to the address of their first element.
                    self.emit(Instr::Mov {
                        dst: Reg::R14,
                        src: Reg::FP,
                    });
                    self.emit(Instr::AluImm {
                        op: AluOp::Add,
                        dst: Reg::R14,
                        imm: var.offset as u16,
                    });
                    Ok(Type::Ptr(Box::new(
                        var.ty.pointee().cloned().unwrap_or(Type::Int),
                    )))
                }
                ty => {
                    self.emit(Instr::Load {
                        dst: Reg::R14,
                        base: Reg::FP,
                        offset: var.offset,
                        width: Self::width_of(ty),
                    });
                    Ok(ty.clone())
                }
            }
        } else if let Some((ty, offset)) = self.lookup_global(name) {
            match &ty {
                Type::Array(..) => {
                    self.emit_reloc(
                        Instr::MovImm {
                            dst: Reg::R14,
                            imm: 0,
                        },
                        RelocKind::GlobalAddr {
                            name: name.to_string(),
                            add: offset,
                        },
                    );
                    Ok(Type::Ptr(Box::new(
                        ty.pointee().cloned().unwrap_or(Type::Int),
                    )))
                }
                other => {
                    self.emit_reloc(
                        Instr::LoadAbs {
                            dst: Reg::R14,
                            addr: 0,
                            width: Self::width_of(other),
                        },
                        RelocKind::GlobalAddr {
                            name: name.to_string(),
                            add: offset,
                        },
                    );
                    Ok(other.clone())
                }
            }
        } else if self.analysis.signatures.contains_key(name) {
            self.emit_reloc(
                Instr::MovImm {
                    dst: Reg::R14,
                    imm: 0,
                },
                RelocKind::FuncAddr(name.to_string()),
            );
            Ok(Type::FnPtr)
        } else {
            Err(CompileError::unknown(&self.app, name, loc))
        }
    }

    fn gen_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> AftResult<Type> {
        match op {
            BinOp::LogicalAnd => {
                let false_label = self.new_label();
                let end = self.new_label();
                self.gen_expr(lhs)?;
                self.emit(Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                });
                self.emit_jcc(Cond::Eq, false_label);
                self.gen_expr(rhs)?;
                self.emit(Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                });
                self.emit_jcc(Cond::Eq, false_label);
                self.emit(Instr::MovImm {
                    dst: Reg::R14,
                    imm: 1,
                });
                self.emit_jmp(end);
                self.bind_label(false_label);
                self.emit(Instr::MovImm {
                    dst: Reg::R14,
                    imm: 0,
                });
                self.bind_label(end);
                return Ok(Type::Int);
            }
            BinOp::LogicalOr => {
                let true_label = self.new_label();
                let end = self.new_label();
                self.gen_expr(lhs)?;
                self.emit(Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                });
                self.emit_jcc(Cond::Ne, true_label);
                self.gen_expr(rhs)?;
                self.emit(Instr::CmpImm {
                    a: Reg::R14,
                    imm: 0,
                });
                self.emit_jcc(Cond::Ne, true_label);
                self.emit(Instr::MovImm {
                    dst: Reg::R14,
                    imm: 0,
                });
                self.emit_jmp(end);
                self.bind_label(true_label);
                self.emit(Instr::MovImm {
                    dst: Reg::R14,
                    imm: 1,
                });
                self.bind_label(end);
                return Ok(Type::Int);
            }
            _ => {}
        }

        let lt = self.type_of(lhs);
        let rt = self.type_of(rhs);
        let unsigned = lt.is_unsigned() || rt.is_unsigned();

        self.gen_expr(lhs)?;
        self.emit(Instr::Push { src: Reg::R14 });
        self.gen_expr(rhs)?;
        self.emit(Instr::Pop { dst: Reg::R15 });
        // Now: left operand in R15, right operand in R14.

        if op.is_comparison() {
            let (swap, cond) = match (op, unsigned) {
                (BinOp::Eq, _) => (false, Cond::Eq),
                (BinOp::Ne, _) => (false, Cond::Ne),
                (BinOp::Lt, false) => (false, Cond::Lt),
                (BinOp::Lt, true) => (false, Cond::Lo),
                (BinOp::Ge, false) => (false, Cond::Ge),
                (BinOp::Ge, true) => (false, Cond::Hs),
                (BinOp::Gt, false) => (true, Cond::Lt),
                (BinOp::Gt, true) => (true, Cond::Lo),
                (BinOp::Le, false) => (true, Cond::Ge),
                (BinOp::Le, true) => (true, Cond::Hs),
                _ => (false, Cond::Eq),
            };
            if swap {
                // a > b  computed as  b < a.
                self.emit(Instr::Cmp {
                    a: Reg::R14,
                    b: Reg::R15,
                });
            } else {
                self.emit(Instr::Cmp {
                    a: Reg::R15,
                    b: Reg::R14,
                });
            }
            let true_label = self.new_label();
            self.emit(Instr::MovImm {
                dst: Reg::R14,
                imm: 1,
            });
            self.emit_jcc(cond, true_label);
            self.emit(Instr::MovImm {
                dst: Reg::R14,
                imm: 0,
            });
            self.bind_label(true_label);
            return Ok(Type::Int);
        }

        let alu = match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Rem => AluOp::Rem,
            BinOp::BitAnd => AluOp::And,
            BinOp::BitOr => AluOp::Or,
            BinOp::BitXor => AluOp::Xor,
            BinOp::Shl | BinOp::Shr => {
                // Shifts by a constant amount are by far the common case in
                // the benchmark code; variable shifts are compiled as a
                // (slow) multiply/divide by a power of two when they appear.
                if let Expr::IntLit { value, .. } = rhs {
                    let amount = (*value as u8).min(15);
                    self.emit(Instr::Mov {
                        dst: Reg::R14,
                        src: Reg::R15,
                    });
                    let unary = if matches!(op, BinOp::Shl) {
                        UnaryOp::Shl(amount)
                    } else if unsigned {
                        UnaryOp::Shr(amount)
                    } else {
                        UnaryOp::Sar(amount)
                    };
                    self.emit(Instr::Unary {
                        op: unary,
                        reg: Reg::R14,
                    });
                    return Ok(if unsigned { Type::Uint } else { Type::Int });
                }
                let factor = AluOp::Mul;
                let _ = factor;
                // Variable shift: fall back to repeated doubling is not worth
                // the code size; use multiply/divide semantics.
                let opk = if matches!(op, BinOp::Shl) {
                    AluOp::Mul
                } else {
                    AluOp::Div
                };
                // R14 holds the shift amount; convert to 2^amount via a tiny
                // loop-free approximation is out of scope — the dialect
                // restricts variable shifts, so reject.
                let _ = opk;
                return Err(self.internal("variable shift amounts are not supported by AmuletC"));
            }
            _ => return Err(self.internal(format!("unhandled binary operator {op:?}"))),
        };
        self.emit(Instr::Alu {
            op: alu,
            dst: Reg::R15,
            src: Reg::R14,
        });
        self.emit(Instr::Mov {
            dst: Reg::R14,
            src: Reg::R15,
        });
        Ok(if matches!(lt, Type::Ptr(_)) {
            lt
        } else if matches!(rt, Type::Ptr(_)) {
            rt
        } else if unsigned {
            Type::Uint
        } else {
            Type::Int
        })
    }

    fn gen_assign(&mut self, target: &Expr, value: &Expr) -> AftResult<Type> {
        match target {
            Expr::Ident { name, loc } => {
                let vty = self.gen_expr(value)?;
                if let Some(var) = self.lookup_local(name) {
                    self.emit(Instr::Store {
                        src: Reg::R14,
                        base: Reg::FP,
                        offset: var.offset,
                        width: Self::width_of(&var.ty),
                    });
                    Ok(var.ty)
                } else if let Some((ty, offset)) = self.lookup_global(name) {
                    self.emit_reloc(
                        Instr::StoreAbs {
                            src: Reg::R14,
                            addr: 0,
                            width: Self::width_of(&ty),
                        },
                        RelocKind::GlobalAddr {
                            name: name.clone(),
                            add: offset,
                        },
                    );
                    Ok(ty)
                } else {
                    Err(CompileError::unknown(&self.app, name.clone(), *loc))
                }
                .map(|t| if matches!(t, Type::Void) { vty } else { t })
            }
            Expr::Index { base, index, .. } => {
                self.gen_expr(value)?;
                self.emit(Instr::Push { src: Reg::R14 });
                let elem_ty = self.gen_element_address(base, index, true)?;
                self.emit(Instr::Pop { dst: Reg::R15 });
                self.emit(Instr::Store {
                    src: Reg::R15,
                    base: Reg::R14,
                    offset: 0,
                    width: Self::width_of(&elem_ty),
                });
                self.emit(Instr::Mov {
                    dst: Reg::R14,
                    src: Reg::R15,
                });
                Ok(elem_ty)
            }
            Expr::Deref { expr, .. } => {
                let pointee = self.type_of(expr).pointee().cloned().unwrap_or(Type::Int);
                self.gen_expr(value)?;
                self.emit(Instr::Push { src: Reg::R14 });
                self.gen_expr(expr)?;
                self.emit_data_pointer_checks();
                self.emit(Instr::Pop { dst: Reg::R15 });
                self.emit(Instr::Store {
                    src: Reg::R15,
                    base: Reg::R14,
                    offset: 0,
                    width: Self::width_of(&pointee),
                });
                self.emit(Instr::Mov {
                    dst: Reg::R14,
                    src: Reg::R15,
                });
                Ok(pointee)
            }
            other => Err(self.internal(format!("invalid assignment target at {}", other.loc()))),
        }
    }

    /// Computes the address of `base[index]` into `R14`, emitting whichever
    /// checks the policy requires.  `for_access` is false when the address is
    /// only being taken (`&a[i]`), in which case no access checks are
    /// emitted.
    fn gen_element_address(
        &mut self,
        base: &Expr,
        index: &Expr,
        for_access: bool,
    ) -> AftResult<Type> {
        let base_ty = self.type_of(base);
        let elem_ty = base_ty.pointee().cloned().unwrap_or(Type::Int);
        let elem_size = elem_ty.size_bytes().max(1);

        match (&base_ty, base) {
            // Indexing a named array: the Feature Limited tool checks the
            // index against the array's length descriptor.
            (Type::Array(_, _), Expr::Ident { name, .. }) => {
                self.gen_expr(index)?;
                if for_access {
                    if let Some(var) = self.lookup_local(name) {
                        self.emit_array_bounds_check(DescriptorLoc::Local {
                            offset: var.desc_offset.unwrap_or(var.offset),
                        });
                    } else if let Some((gty, offset)) = self.lookup_global(name) {
                        self.emit_array_bounds_check(DescriptorLoc::Global {
                            name: name.clone(),
                            add: offset + gty.size_bytes(),
                        });
                    }
                }
                // Scale the index.
                if elem_size == 2 {
                    self.emit(Instr::Unary {
                        op: UnaryOp::Shl(1),
                        reg: Reg::R14,
                    });
                }
                // Add the array base address.
                if let Some(var) = self.lookup_local(name) {
                    self.emit(Instr::Mov {
                        dst: Reg::R13,
                        src: Reg::FP,
                    });
                    self.emit(Instr::AluImm {
                        op: AluOp::Add,
                        dst: Reg::R13,
                        imm: var.offset as u16,
                    });
                    self.emit(Instr::Alu {
                        op: AluOp::Add,
                        dst: Reg::R14,
                        src: Reg::R13,
                    });
                } else if let Some((_, offset)) = self.lookup_global(name) {
                    self.emit_reloc(
                        Instr::AluImm {
                            op: AluOp::Add,
                            dst: Reg::R14,
                            imm: 0,
                        },
                        RelocKind::GlobalAddr {
                            name: name.clone(),
                            add: offset,
                        },
                    );
                }
                // Under the pointer-checking methods the computed address is
                // a data pointer like any other.
                if for_access {
                    self.emit_data_pointer_checks();
                }
                Ok(elem_ty)
            }
            // Indexing through a pointer (or a computed array expression):
            // plain pointer arithmetic followed by the pointer checks.
            _ => {
                self.gen_expr(base)?;
                self.emit(Instr::Push { src: Reg::R14 });
                self.gen_expr(index)?;
                if elem_size == 2 {
                    self.emit(Instr::Unary {
                        op: UnaryOp::Shl(1),
                        reg: Reg::R14,
                    });
                }
                self.emit(Instr::Pop { dst: Reg::R15 });
                self.emit(Instr::Alu {
                    op: AluOp::Add,
                    dst: Reg::R14,
                    src: Reg::R15,
                });
                if for_access {
                    self.emit_data_pointer_checks();
                }
                Ok(elem_ty)
            }
        }
    }

    fn gen_addr_of(&mut self, expr: &Expr, loc: Loc) -> AftResult<Type> {
        match expr {
            Expr::Ident { name, .. } => {
                if let Some(var) = self.lookup_local(name) {
                    self.emit(Instr::Mov {
                        dst: Reg::R14,
                        src: Reg::FP,
                    });
                    self.emit(Instr::AluImm {
                        op: AluOp::Add,
                        dst: Reg::R14,
                        imm: var.offset as u16,
                    });
                    Ok(Type::Ptr(Box::new(var.ty)))
                } else if let Some((ty, offset)) = self.lookup_global(name) {
                    self.emit_reloc(
                        Instr::MovImm {
                            dst: Reg::R14,
                            imm: 0,
                        },
                        RelocKind::GlobalAddr {
                            name: name.clone(),
                            add: offset,
                        },
                    );
                    Ok(Type::Ptr(Box::new(ty)))
                } else if self.analysis.signatures.contains_key(name) {
                    self.emit_reloc(
                        Instr::MovImm {
                            dst: Reg::R14,
                            imm: 0,
                        },
                        RelocKind::FuncAddr(name.clone()),
                    );
                    Ok(Type::FnPtr)
                } else {
                    Err(CompileError::unknown(&self.app, name.clone(), loc))
                }
            }
            Expr::Index { base, index, .. } => {
                let elem = self.gen_element_address(base, index, false)?;
                Ok(Type::Ptr(Box::new(elem)))
            }
            Expr::Deref { expr, .. } => {
                // `&*p` is just `p`.
                self.gen_expr(expr)
            }
            other => Err(self.internal(format!("cannot take the address of {other:?}"))),
        }
    }

    fn gen_call(&mut self, callee: &Expr, args: &[Expr], loc: Loc) -> AftResult<Type> {
        if let Expr::Ident { name, .. } = callee {
            // OS API call: marshal up to two arguments into registers and
            // trap.
            if let Some(api) = self.api.by_name(name).cloned() {
                match args.len() {
                    0 => {}
                    1 => {
                        self.gen_expr(&args[0])?;
                    }
                    2 => {
                        self.gen_expr(&args[0])?;
                        self.emit(Instr::Push { src: Reg::R14 });
                        self.gen_expr(&args[1])?;
                        self.emit(Instr::Mov {
                            dst: Reg::R15,
                            src: Reg::R14,
                        });
                        self.emit(Instr::Pop { dst: Reg::R14 });
                    }
                    n => {
                        return Err(self
                            .internal(format!("API `{name}` called with {n} arguments at {loc}")))
                    }
                }
                self.emit(Instr::Syscall { num: api.num });
                return Ok(api.ret.clone());
            }
            // Direct call to another function in the same app.
            if let Some(sig) = self.analysis.signatures.get(name).cloned() {
                for a in args.iter().rev() {
                    self.gen_expr(a)?;
                    self.emit(Instr::Push { src: Reg::R14 });
                }
                self.emit_reloc(Instr::Call { target: 0 }, RelocKind::FuncAddr(name.clone()));
                if !args.is_empty() {
                    self.emit(Instr::AluImm {
                        op: AluOp::Add,
                        dst: Reg::SP,
                        imm: 2 * args.len() as u16,
                    });
                }
                return Ok(sig.ret);
            }
        }

        // Indirect call through a function pointer.
        for a in args.iter().rev() {
            self.gen_expr(a)?;
            self.emit(Instr::Push { src: Reg::R14 });
        }
        self.gen_expr(callee)?;
        self.emit_function_pointer_checks();
        self.emit(Instr::CallReg { reg: Reg::R14 });
        if !args.is_empty() {
            self.emit(Instr::AluImm {
                op: AluOp::Add,
                dst: Reg::SP,
                imm: 2 * args.len() as u16,
            });
        }
        Ok(Type::Int)
    }
}

/// Where an array's length descriptor lives.
enum DescriptorLoc {
    /// A global array: descriptor at the global's address plus `add`.
    Global {
        /// Global name.
        name: String,
        /// Byte offset of the descriptor from the app's data base.
        add: u32,
    },
    /// A local array: descriptor at an FP-relative offset.
    Local {
        /// FP-relative offset.
        offset: i16,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sema::analyze;
    use amulet_core::layout::PlatformSpec;

    fn compile(src: &str, method: IsolationMethod) -> AppCode {
        let program = parse(src).unwrap();
        let api = ApiSpec::amulet();
        let analysis = analyze("Test", &program, &api, method).unwrap();
        generate(
            "Test",
            &program,
            &analysis,
            &api,
            method,
            CheckPolicy::for_method_on(method, &PlatformSpec::msp430fr5969().mpu),
        )
        .unwrap()
    }

    const DEREF_APP: &str = r#"
        int g;
        void main(void) {
            int *p;
            p = &g;
            *p = 7;
            g = *p + 1;
        }
    "#;

    fn count_bound_relocs(app: &AppCode, kind: &RelocKind) -> usize {
        app.functions
            .iter()
            .flat_map(|f| f.relocs.iter())
            .filter(|r| r.kind == *kind)
            .count()
    }

    #[test]
    fn software_only_inserts_twice_as_many_pointer_checks_as_mpu() {
        let mpu = compile(DEREF_APP, IsolationMethod::Mpu);
        let sw = compile(DEREF_APP, IsolationMethod::SoftwareOnly);
        let none = compile(DEREF_APP, IsolationMethod::NoIsolation);

        let mpu_lower = count_bound_relocs(&mpu, &RelocKind::BoundDataLower);
        let mpu_upper = count_bound_relocs(&mpu, &RelocKind::BoundDataUpper);
        let sw_lower = count_bound_relocs(&sw, &RelocKind::BoundDataLower);
        let sw_upper = count_bound_relocs(&sw, &RelocKind::BoundDataUpper);

        assert!(mpu_lower >= 2, "one per dereference");
        assert_eq!(mpu_upper, 0, "the MPU protects the upper bound in hardware");
        assert_eq!(sw_lower, mpu_lower);
        assert_eq!(sw_upper, sw_lower, "software-only checks both bounds");
        assert_eq!(count_bound_relocs(&none, &RelocKind::BoundDataLower), 0);
        assert_eq!(count_bound_relocs(&none, &RelocKind::BoundDataUpper), 0);
    }

    #[test]
    fn feature_limited_inserts_array_checks_only() {
        let src = r#"
            int data[8];
            void main(void) {
                for (int i = 0; i < 8; i++) { data[i] = i; }
            }
        "#;
        let fl = compile(src, IsolationMethod::FeatureLimited);
        let main = fl.function("main").unwrap();
        assert!(*main.inserted_checks.get("array bounds").unwrap_or(&0) >= 1);
        assert!(!main
            .inserted_checks
            .contains_key("data pointer lower bound"));
        // No-isolation build of the same program has no checks at all.
        let none = compile(src, IsolationMethod::NoIsolation);
        assert!(none.function("main").unwrap().inserted_checks.is_empty());
    }

    #[test]
    fn return_address_checks_present_for_pointer_methods() {
        let src = "int f(int x) { return x + 1; } void main(void) { f(1); }";
        for (method, expected) in [
            (IsolationMethod::Mpu, true),
            (IsolationMethod::SoftwareOnly, true),
            (IsolationMethod::FeatureLimited, false),
            (IsolationMethod::NoIsolation, false),
        ] {
            let app = compile(src, method);
            let has = app
                .functions
                .iter()
                .any(|f| f.inserted_checks.contains_key("return address"));
            assert_eq!(has, expected, "{method}");
        }
    }

    #[test]
    fn function_pointer_calls_get_code_bound_checks() {
        let src = r#"
            int twice(int x) { return x + x; }
            void main(void) {
                fnptr f;
                f = &twice;
                f(3);
            }
        "#;
        let mpu = compile(src, IsolationMethod::Mpu);
        let sw = compile(src, IsolationMethod::SoftwareOnly);
        assert!(count_bound_relocs(&mpu, &RelocKind::BoundCodeLower) > 0);
        assert!(count_bound_relocs(&sw, &RelocKind::BoundCodeUpper) >= 1);
        // The MPU method adds return-address checks which also reference the
        // code bounds, but never the *upper* function-pointer bound beyond
        // the return check count.
        let mpu_fn_upper: usize = mpu
            .functions
            .iter()
            .map(|f| {
                *f.inserted_checks
                    .get("function pointer upper bound")
                    .unwrap_or(&0) as usize
            })
            .sum();
        assert_eq!(mpu_fn_upper, 0);
    }

    #[test]
    fn api_calls_become_syscalls_with_the_right_number() {
        let src = "void main(void) { amulet_log_value(3); amulet_get_time(); }";
        let app = compile(src, IsolationMethod::Mpu);
        let main = app.function("main").unwrap();
        let syscalls: Vec<u16> = main
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Syscall { num } => Some(*num),
                _ => None,
            })
            .collect();
        assert_eq!(
            syscalls,
            vec![crate::api::sysno::LOG_VALUE, crate::api::sysno::GET_TIME]
        );
    }

    #[test]
    fn global_initialisers_and_array_descriptors_land_in_the_data_image() {
        let src = "int x = 513; int arr[3] = {1, 2, 3}; void main(void) { }";
        let app = compile(src, IsolationMethod::Mpu);
        // x at offset 0: 513 = 0x0201 little endian.
        assert_eq!(&app.data_image[0..2], &[0x01, 0x02]);
        // arr at offset 2..8, then the descriptor (length 3).
        assert_eq!(&app.data_image[2..8], &[1, 0, 2, 0, 3, 0]);
        assert_eq!(&app.data_image[8..10], &[3, 0]);
    }

    #[test]
    fn every_label_referenced_by_a_reloc_is_bound() {
        let src = r#"
            int work(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 3 == 0 && i != 6) { total += i; } else { total -= 1; }
                    while (total > 100) { total = total - 10; }
                }
                return total;
            }
            void main(void) { work(20); }
        "#;
        for method in IsolationMethod::ALL {
            let app = compile(src, method);
            for f in &app.functions {
                for r in &f.relocs {
                    if let RelocKind::Label(l) = r.kind {
                        assert!(
                            f.labels[l].is_some(),
                            "{method}: unbound label {l} in {}",
                            f.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn code_size_grows_with_check_insertion() {
        let none = compile(DEREF_APP, IsolationMethod::NoIsolation).code_bytes();
        let mpu = compile(DEREF_APP, IsolationMethod::Mpu).code_bytes();
        let sw = compile(DEREF_APP, IsolationMethod::SoftwareOnly).code_bytes();
        assert!(none < mpu, "{none} < {mpu}");
        assert!(mpu < sw, "{mpu} < {sw}");
    }
}
