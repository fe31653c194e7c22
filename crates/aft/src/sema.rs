//! Phase 1 of the AFT's code analysis: legality checking, type checking,
//! feature detection, call-graph construction, stack-depth estimation and
//! memory-access / API-call enumeration.
//!
//! The paper (§3, "AFT Implementation"): *"In the first phase, the AFT checks
//! for any still unsupported language features – such as inline assembly and
//! GOTO statements.  In addition, the AFT enumerates each memory access and
//! OS API call on an app by app basis.  Examination of the application call
//! graph and the stack frame for each function determines the maximum stack
//! size for each app.  In the event of recursion, the maximum stack size
//! cannot be determined."*

use crate::api::ApiSpec;
use crate::ast::{Block, Expr, Function, Program, Stmt};
use crate::error::{AftResult, CompileError};
use crate::types::Type;
use std::collections::{BTreeMap, BTreeSet};

use amulet_core::method::IsolationMethod;

/// Per-function results of the analysis.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FunctionAnalysis {
    /// Bytes of stack the function's frame needs (saved frame pointer,
    /// locals, and the return-address slot pushed by `call`).
    pub frame_bytes: u32,
    /// Names of functions this function calls directly (excluding API
    /// calls).
    pub callees: BTreeSet<String>,
    /// Number of pointer dereferences (reads or writes through a pointer,
    /// including pointer-style array indexing).
    pub pointer_derefs: u32,
    /// Number of accesses to declared arrays (the accesses the Feature
    /// Limited tool guards).
    pub array_accesses: u32,
    /// Number of OS API calls.
    pub api_calls: u32,
    /// Number of calls through function pointers.
    pub fnptr_calls: u32,
    /// Whether the function syntactically uses pointers anywhere.
    pub uses_pointers: bool,
}

/// A signature in the function symbol table.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionSig {
    /// Return type.
    pub ret: Type,
    /// Parameter types in order.
    pub params: Vec<Type>,
}

/// Program-wide analysis results for one application.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Global variables in declaration order with their byte offsets within
    /// the app's data area.
    pub global_offsets: BTreeMap<String, (Type, u32)>,
    /// Total bytes of global data (before the linker adds padding).
    pub globals_bytes: u32,
    /// Function signatures.
    pub signatures: BTreeMap<String, FunctionSig>,
    /// Per-function analysis.
    pub functions: BTreeMap<String, FunctionAnalysis>,
    /// Whether the app uses pointers anywhere.
    pub uses_pointers: bool,
    /// Whether the call graph contains recursion (direct or mutual).
    pub uses_recursion: bool,
    /// Maximum stack usage in bytes starting from any single entry function,
    /// or `None` when recursion makes it impossible to bound.
    pub max_stack_bytes: Option<u32>,
    /// Total counts across all functions (used by the ARP and the report).
    pub total_pointer_derefs: u32,
    /// Total array accesses.
    pub total_array_accesses: u32,
    /// Total API calls.
    pub total_api_calls: u32,
}

/// Analyzes one application's program for the given isolation method.
///
/// Returns an error if the program is ill-typed, refers to unknown names,
/// calls unapproved system functions, or uses features the method forbids.
pub fn analyze(
    app: &str,
    program: &Program,
    api: &ApiSpec,
    method: IsolationMethod,
) -> AftResult<Analysis> {
    let mut a = Analyzer::new(app, program, api, method);
    a.run()?;
    Ok(a.finish())
}

struct Analyzer<'a> {
    app: String,
    program: &'a Program,
    api: &'a ApiSpec,
    method: IsolationMethod,
    global_offsets: BTreeMap<String, (Type, u32)>,
    globals_bytes: u32,
    signatures: BTreeMap<String, FunctionSig>,
    functions: BTreeMap<String, FunctionAnalysis>,
}

/// A lexical scope of local variables.
type Scope = Vec<BTreeMap<String, Type>>;

impl<'a> Analyzer<'a> {
    fn new(app: &str, program: &'a Program, api: &'a ApiSpec, method: IsolationMethod) -> Self {
        Analyzer {
            app: app.to_string(),
            program,
            api,
            method,
            global_offsets: BTreeMap::new(),
            globals_bytes: 0,
            signatures: BTreeMap::new(),
            functions: BTreeMap::new(),
        }
    }

    fn run(&mut self) -> AftResult<()> {
        // Globals: assign data-area offsets in declaration order, word
        // aligned.
        let mut offset = 0u32;
        for g in &self.program.globals {
            if self.global_offsets.contains_key(&g.name) {
                return Err(CompileError::type_error(
                    &self.app,
                    format!("global `{}` declared twice", g.name),
                    g.loc,
                ));
            }
            if matches!(self.method, IsolationMethod::FeatureLimited) && contains_pointer(&g.ty) {
                return Err(self.feature_error("pointer-typed global variable", g.loc));
            }
            let size = g.ty.size_bytes().max(2).div_ceil(2) * 2;
            self.global_offsets
                .insert(g.name.clone(), (g.ty.clone(), offset));
            offset += size;
            // Arrays additionally carry a hidden length word used by the
            // Feature Limited bounds checks (the "array descriptor").
            if matches!(g.ty, Type::Array(..)) {
                offset += 2;
            }
        }
        self.globals_bytes = offset;

        // Function signatures first (so forward references and recursion
        // type-check).
        for f in &self.program.functions {
            if self.signatures.contains_key(&f.name) {
                return Err(CompileError::type_error(
                    &self.app,
                    format!("function `{}` defined twice", f.name),
                    f.loc,
                ));
            }
            if self.api.by_name(&f.name).is_some() {
                return Err(CompileError::type_error(
                    &self.app,
                    format!("function `{}` shadows an OS API function", f.name),
                    f.loc,
                ));
            }
            self.signatures.insert(
                f.name.clone(),
                FunctionSig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                },
            );
        }

        // Per-function analysis.
        for f in &self.program.functions {
            let analysis = self.analyze_function(f)?;
            self.functions.insert(f.name.clone(), analysis);
        }
        Ok(())
    }

    fn finish(self) -> Analysis {
        let uses_pointers = self.functions.values().any(|f| f.uses_pointers)
            || self
                .global_offsets
                .values()
                .any(|(t, _)| contains_pointer(t));
        let uses_recursion = self.detect_recursion();
        let max_stack_bytes = if uses_recursion {
            None
        } else {
            Some(self.max_stack())
        };
        let total_pointer_derefs = self.functions.values().map(|f| f.pointer_derefs).sum();
        let total_array_accesses = self.functions.values().map(|f| f.array_accesses).sum();
        let total_api_calls = self.functions.values().map(|f| f.api_calls).sum();
        Analysis {
            global_offsets: self.global_offsets,
            globals_bytes: self.globals_bytes,
            signatures: self.signatures,
            functions: self.functions,
            uses_pointers,
            uses_recursion,
            max_stack_bytes,
            total_pointer_derefs,
            total_array_accesses,
            total_api_calls,
        }
    }

    fn detect_recursion(&self) -> bool {
        // DFS with colouring over the call graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<String, Colour> = self
            .functions
            .keys()
            .map(|k| (k.clone(), Colour::White))
            .collect();

        fn visit(
            name: &str,
            functions: &BTreeMap<String, FunctionAnalysis>,
            colour: &mut BTreeMap<String, Colour>,
        ) -> bool {
            match colour.get(name).copied() {
                Some(Colour::Grey) => return true,
                Some(Colour::Black) | None => return false,
                Some(Colour::White) => {}
            }
            colour.insert(name.to_string(), Colour::Grey);
            let mut cyc = false;
            if let Some(f) = functions.get(name) {
                for callee in &f.callees {
                    if visit(callee, functions, colour) {
                        cyc = true;
                        break;
                    }
                }
            }
            colour.insert(name.to_string(), Colour::Black);
            cyc
        }

        let names: Vec<String> = self.functions.keys().cloned().collect();
        names.iter().any(|n| {
            if colour.get(n.as_str()) == Some(&Colour::White) {
                visit(n, &self.functions, &mut colour)
            } else {
                false
            }
        })
    }

    fn max_stack(&self) -> u32 {
        fn depth(
            name: &str,
            functions: &BTreeMap<String, FunctionAnalysis>,
            memo: &mut BTreeMap<String, u32>,
        ) -> u32 {
            if let Some(&d) = memo.get(name) {
                return d;
            }
            let Some(f) = functions.get(name) else {
                return 0;
            };
            let deepest_callee = f
                .callees
                .iter()
                .map(|c| depth(c, functions, memo))
                .max()
                .unwrap_or(0);
            let d = f.frame_bytes + deepest_callee;
            memo.insert(name.to_string(), d);
            d
        }
        let mut memo = BTreeMap::new();
        self.functions
            .keys()
            .map(|n| depth(n, &self.functions, &mut memo))
            .max()
            .unwrap_or(0)
    }

    fn feature_error(&self, feature: &str, loc: crate::token::Loc) -> CompileError {
        CompileError::UnsupportedFeature {
            app: self.app.clone(),
            feature: feature.to_string(),
            loc,
        }
    }

    fn analyze_function(&self, f: &Function) -> AftResult<FunctionAnalysis> {
        let mut out = FunctionAnalysis::default();
        let mut scope: Scope = vec![BTreeMap::new()];
        for p in &f.params {
            if matches!(self.method, IsolationMethod::FeatureLimited) && contains_pointer(&p.ty) {
                return Err(self.feature_error("pointer-typed parameter", f.loc));
            }
            scope
                .last_mut()
                .unwrap()
                .insert(p.name.clone(), p.ty.clone());
        }
        // Frame: saved frame pointer + return address + locals (computed as
        // we walk declarations) + parameters pushed by callers are accounted
        // to the *caller*'s frame via the call-overhead constant below.
        let mut locals_bytes = 0u32;
        self.analyze_block(f, &f.body, &mut scope, &mut out, &mut locals_bytes, 0)?;
        out.frame_bytes = 4 + locals_bytes + 2 * f.params.len() as u32;
        Ok(out)
    }

    fn analyze_block(
        &self,
        f: &Function,
        block: &Block,
        scope: &mut Scope,
        out: &mut FunctionAnalysis,
        locals_bytes: &mut u32,
        loop_depth: u32,
    ) -> AftResult<()> {
        scope.push(BTreeMap::new());
        for stmt in &block.stmts {
            self.analyze_stmt(f, stmt, scope, out, locals_bytes, loop_depth)?;
        }
        scope.pop();
        Ok(())
    }

    fn analyze_stmt(
        &self,
        f: &Function,
        stmt: &Stmt,
        scope: &mut Scope,
        out: &mut FunctionAnalysis,
        locals_bytes: &mut u32,
        loop_depth: u32,
    ) -> AftResult<()> {
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                loc,
            } => {
                if matches!(self.method, IsolationMethod::FeatureLimited) && contains_pointer(ty) {
                    return Err(self.feature_error("pointer-typed local variable", *loc));
                }
                if let Some(init) = init {
                    let ity = self.type_of(f, init, scope, out)?;
                    self.check_assignable(ty, &ity, init.loc())?;
                }
                scope.last_mut().unwrap().insert(name.clone(), ty.clone());
                *locals_bytes += ty.stack_size_bytes();
                if matches!(ty, Type::Array(..)) {
                    *locals_bytes += 2; // hidden length word
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.type_of(f, e, scope, out)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.expect_scalar(f, cond, scope, out)?;
                self.analyze_block(f, then_block, scope, out, locals_bytes, loop_depth)?;
                if let Some(e) = else_block {
                    self.analyze_block(f, e, scope, out, locals_bytes, loop_depth)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                self.expect_scalar(f, cond, scope, out)?;
                self.analyze_block(f, body, scope, out, locals_bytes, loop_depth + 1)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                scope.push(BTreeMap::new());
                if let Some(init) = init {
                    self.analyze_stmt(f, init, scope, out, locals_bytes, loop_depth)?;
                }
                if let Some(cond) = cond {
                    self.expect_scalar(f, cond, scope, out)?;
                }
                if let Some(step) = step {
                    self.type_of(f, step, scope, out)?;
                }
                self.analyze_block(f, body, scope, out, locals_bytes, loop_depth + 1)?;
                scope.pop();
                Ok(())
            }
            Stmt::Return { value, loc } => match (value, &f.ret) {
                (None, Type::Void) => Ok(()),
                (Some(_), Type::Void) => Err(CompileError::type_error(
                    &self.app,
                    format!("`{}` returns void but a value is returned", f.name),
                    *loc,
                )),
                (None, _) => Err(CompileError::type_error(
                    &self.app,
                    format!("`{}` must return a value", f.name),
                    *loc,
                )),
                (Some(v), ret) => {
                    let vt = self.type_of(f, v, scope, out)?;
                    self.check_assignable(ret, &vt, *loc)
                }
            },
            Stmt::Break(loc) | Stmt::Continue(loc) => {
                if loop_depth == 0 {
                    Err(CompileError::type_error(
                        &self.app,
                        "break/continue outside a loop",
                        *loc,
                    ))
                } else {
                    Ok(())
                }
            }
            Stmt::Block(b) => self.analyze_block(f, b, scope, out, locals_bytes, loop_depth),
            Stmt::Goto { loc, .. } => Err(self.feature_error("goto statement", *loc)),
            Stmt::Asm { loc, .. } => Err(self.feature_error("inline assembly", *loc)),
        }
    }

    fn expect_scalar(
        &self,
        f: &Function,
        e: &Expr,
        scope: &mut Scope,
        out: &mut FunctionAnalysis,
    ) -> AftResult<()> {
        let t = self.type_of(f, e, scope, out)?;
        if t.is_scalar() {
            Ok(())
        } else {
            Err(CompileError::type_error(
                &self.app,
                format!("expected a scalar condition, found `{t}`"),
                e.loc(),
            ))
        }
    }

    fn check_assignable(&self, dst: &Type, src: &Type, loc: crate::token::Loc) -> AftResult<()> {
        let ok = match (dst, src) {
            (a, b) if a == b => true,
            // Integer conversions are implicit, as in C.
            (a, b) if a.is_arithmetic() && b.is_arithmetic() => true,
            // Pointer/integer mixing is allowed with the usual C looseness;
            // the run-time checks are what actually protect memory.
            (Type::Ptr(_), b) if b.is_scalar() => true,
            (a, Type::Ptr(_)) if a.is_arithmetic() => true,
            (Type::FnPtr, b) if b.is_scalar() => true,
            (Type::Ptr(_), Type::Array(..)) => true,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(CompileError::type_error(
                &self.app,
                format!("cannot assign `{src}` to `{dst}`"),
                loc,
            ))
        }
    }

    fn lookup(&self, name: &str, scope: &Scope) -> Option<Type> {
        for frame in scope.iter().rev() {
            if let Some(t) = frame.get(name) {
                return Some(t.clone());
            }
        }
        self.global_offsets.get(name).map(|(t, _)| t.clone())
    }

    fn type_of(
        &self,
        f: &Function,
        e: &Expr,
        scope: &mut Scope,
        out: &mut FunctionAnalysis,
    ) -> AftResult<Type> {
        match e {
            Expr::IntLit { .. } => Ok(Type::Int),
            Expr::Ident { name, loc } => {
                if let Some(t) = self.lookup(name, scope) {
                    Ok(t)
                } else if self.signatures.contains_key(name) {
                    // A bare function name (for &func or direct calls).
                    Ok(Type::FnPtr)
                } else if self.api.by_name(name).is_some() {
                    Ok(Type::FnPtr)
                } else {
                    Err(CompileError::unknown(&self.app, name.clone(), *loc))
                }
            }
            Expr::Unary { expr, .. } => {
                let t = self.type_of(f, expr, scope, out)?;
                if !t.is_scalar() {
                    return Err(CompileError::type_error(
                        &self.app,
                        format!("unary operator applied to `{t}`"),
                        expr.loc(),
                    ));
                }
                Ok(Type::Int)
            }
            Expr::Binary { op, lhs, rhs, loc } => {
                let lt = self.type_of(f, lhs, scope, out)?;
                let rt = self.type_of(f, rhs, scope, out)?;
                if !lt.is_scalar() && !matches!(lt, Type::Array(..)) {
                    return Err(CompileError::type_error(
                        &self.app,
                        format!("left operand of {op:?} has type `{lt}`"),
                        *loc,
                    ));
                }
                if !rt.is_scalar() && !matches!(rt, Type::Array(..)) {
                    return Err(CompileError::type_error(
                        &self.app,
                        format!("right operand of {op:?} has type `{rt}`"),
                        *loc,
                    ));
                }
                if op.is_comparison() {
                    Ok(Type::Int)
                } else if matches!(lt, Type::Ptr(_)) {
                    // Pointer arithmetic keeps the pointer type.
                    Ok(lt)
                } else if matches!(rt, Type::Ptr(_)) {
                    Ok(rt)
                } else if lt.is_unsigned() || rt.is_unsigned() {
                    Ok(Type::Uint)
                } else {
                    Ok(Type::Int)
                }
            }
            Expr::Assign { target, value, .. } => {
                let tt = self.lvalue_type(f, target, scope, out)?;
                let vt = self.type_of(f, value, scope, out)?;
                self.check_assignable(&tt, &vt, value.loc())?;
                Ok(tt)
            }
            Expr::Index { base, index, loc } => {
                let bt = self.type_of(f, base, scope, out)?;
                let it = self.type_of(f, index, scope, out)?;
                if !it.is_arithmetic() {
                    return Err(CompileError::type_error(
                        &self.app,
                        format!("array index has type `{it}`"),
                        index.loc(),
                    ));
                }
                match bt {
                    Type::Array(elem, _) => {
                        out.array_accesses += 1;
                        Ok(*elem)
                    }
                    Type::Ptr(elem) => {
                        out.pointer_derefs += 1;
                        out.uses_pointers = true;
                        if matches!(self.method, IsolationMethod::FeatureLimited) {
                            return Err(self.feature_error("indexing through a pointer", *loc));
                        }
                        Ok(*elem)
                    }
                    other => Err(CompileError::type_error(
                        &self.app,
                        format!("cannot index a value of type `{other}`"),
                        *loc,
                    )),
                }
            }
            Expr::Call { callee, args, loc } => {
                // Direct call to a local function or an API function?
                if let Expr::Ident { name, .. } = callee.as_ref() {
                    if let Some(sig) = self.signatures.get(name) {
                        if sig.params.len() != args.len() {
                            return Err(CompileError::type_error(
                                &self.app,
                                format!(
                                    "`{name}` expects {} arguments, got {}",
                                    sig.params.len(),
                                    args.len()
                                ),
                                *loc,
                            ));
                        }
                        for (a, p) in args.iter().zip(sig.params.clone()) {
                            let at = self.type_of(f, a, scope, out)?;
                            self.check_assignable(&p, &at, a.loc())?;
                        }
                        out.callees.insert(name.clone());
                        return Ok(sig.ret.clone());
                    }
                    if let Some(api) = self.api.by_name(name) {
                        if api.params.len() != args.len() {
                            return Err(CompileError::type_error(
                                &self.app,
                                format!(
                                    "API `{name}` expects {} arguments, got {}",
                                    api.params.len(),
                                    args.len()
                                ),
                                *loc,
                            ));
                        }
                        for (a, p) in args.iter().zip(api.params.clone()) {
                            let at = self.type_of(f, a, scope, out)?;
                            self.check_assignable(&p, &at, a.loc())?;
                        }
                        out.api_calls += 1;
                        return Ok(api.ret.clone());
                    }
                    // A named call that is neither local nor API: if it looks
                    // like a system call (amulet_ prefix) report it as
                    // unapproved, otherwise as unknown.
                    if name.starts_with("amulet_") || name.starts_with("os_") {
                        return Err(CompileError::UnapprovedApiCall {
                            app: self.app.clone(),
                            name: name.clone(),
                            loc: *loc,
                        });
                    }
                    // Could still be a local fnptr variable called directly.
                    if let Some(t) = self.lookup(name, scope) {
                        if matches!(t, Type::FnPtr | Type::Ptr(_)) {
                            out.fnptr_calls += 1;
                            out.uses_pointers = true;
                            if matches!(self.method, IsolationMethod::FeatureLimited) {
                                return Err(
                                    self.feature_error("call through a function pointer", *loc)
                                );
                            }
                            for a in args {
                                self.type_of(f, a, scope, out)?;
                            }
                            return Ok(Type::Int);
                        }
                        return Err(CompileError::type_error(
                            &self.app,
                            format!("cannot call a value of type `{t}`"),
                            *loc,
                        ));
                    }
                    return Err(CompileError::unknown(&self.app, name.clone(), *loc));
                }
                // Indirect call through an arbitrary expression.
                let ct = self.type_of(f, callee, scope, out)?;
                if !matches!(ct, Type::FnPtr | Type::Ptr(_)) {
                    return Err(CompileError::type_error(
                        &self.app,
                        format!("cannot call a value of type `{ct}`"),
                        *loc,
                    ));
                }
                out.fnptr_calls += 1;
                out.uses_pointers = true;
                if matches!(self.method, IsolationMethod::FeatureLimited) {
                    return Err(self.feature_error("call through a function pointer", *loc));
                }
                for a in args {
                    self.type_of(f, a, scope, out)?;
                }
                Ok(Type::Int)
            }
            Expr::Deref { expr, loc } => {
                out.uses_pointers = true;
                if matches!(self.method, IsolationMethod::FeatureLimited) {
                    return Err(self.feature_error("pointer dereference", *loc));
                }
                let t = self.type_of(f, expr, scope, out)?;
                out.pointer_derefs += 1;
                match t.pointee() {
                    Some(inner) => Ok(inner.clone()),
                    None if t.is_arithmetic() => Ok(Type::Int),
                    None => Err(CompileError::type_error(
                        &self.app,
                        format!("cannot dereference a value of type `{t}`"),
                        *loc,
                    )),
                }
            }
            Expr::AddrOf { expr, loc } => {
                out.uses_pointers = true;
                if matches!(self.method, IsolationMethod::FeatureLimited) {
                    return Err(self.feature_error("address-of operator", *loc));
                }
                match expr.as_ref() {
                    Expr::Ident { name, loc: iloc } => {
                        if let Some(t) = self.lookup(name, scope) {
                            Ok(Type::Ptr(Box::new(t)))
                        } else if self.signatures.contains_key(name) {
                            Ok(Type::FnPtr)
                        } else {
                            Err(CompileError::unknown(&self.app, name.clone(), *iloc))
                        }
                    }
                    Expr::Index { .. } | Expr::Deref { .. } => {
                        let t = self.type_of(f, expr, scope, out)?;
                        Ok(Type::Ptr(Box::new(t)))
                    }
                    _ => Err(CompileError::type_error(
                        &self.app,
                        "can only take the address of a variable, array element or dereference",
                        *loc,
                    )),
                }
            }
        }
    }

    fn lvalue_type(
        &self,
        f: &Function,
        e: &Expr,
        scope: &mut Scope,
        out: &mut FunctionAnalysis,
    ) -> AftResult<Type> {
        match e {
            Expr::Ident { name, loc } => self
                .lookup(name, scope)
                .ok_or_else(|| CompileError::unknown(&self.app, name.clone(), *loc)),
            Expr::Index { .. } | Expr::Deref { .. } => self.type_of(f, e, scope, out),
            other => Err(CompileError::type_error(
                &self.app,
                "expression is not assignable",
                other.loc(),
            )),
        }
    }
}

fn contains_pointer(t: &Type) -> bool {
    match t {
        Type::Ptr(_) | Type::FnPtr => true,
        Type::Array(elem, _) => contains_pointer(elem),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str, method: IsolationMethod) -> AftResult<Analysis> {
        let program = parse(src).unwrap();
        analyze("TestApp", &program, &ApiSpec::amulet(), method)
    }

    const POINTER_APP: &str = r#"
        int buffer[8];
        int sum(int *p, int n) {
            int total = 0;
            for (int i = 0; i < n; i++) { total += *p; p = p + 1; }
            return total;
        }
        void main(void) {
            buffer[0] = 5;
            int x = sum(&buffer[0], 8);
            amulet_log_value(x);
        }
    "#;

    #[test]
    fn accepts_pointers_under_mpu_and_software_only() {
        for m in [
            IsolationMethod::Mpu,
            IsolationMethod::SoftwareOnly,
            IsolationMethod::NoIsolation,
        ] {
            let a = analyze_src(POINTER_APP, m).unwrap();
            assert!(a.uses_pointers);
            assert!(a.total_pointer_derefs >= 1);
            assert_eq!(a.total_api_calls, 1);
        }
    }

    #[test]
    fn feature_limited_rejects_pointers() {
        let err = analyze_src(POINTER_APP, IsolationMethod::FeatureLimited).unwrap_err();
        assert!(
            matches!(err, CompileError::UnsupportedFeature { .. }),
            "{err}"
        );
    }

    #[test]
    fn feature_limited_accepts_array_only_code_and_counts_accesses() {
        let src = r#"
            int data[16];
            void main(void) {
                for (int i = 0; i < 16; i++) { data[i] = i * 2; }
                amulet_log_value(data[3]);
            }
        "#;
        let a = analyze_src(src, IsolationMethod::FeatureLimited).unwrap();
        assert!(!a.uses_pointers);
        assert_eq!(a.total_array_accesses, 2);
        assert_eq!(a.total_api_calls, 1);
        assert!(!a.uses_recursion);
        assert!(a.max_stack_bytes.is_some());
    }

    #[test]
    fn goto_and_asm_are_rejected_for_every_method() {
        for m in IsolationMethod::ALL {
            let err = analyze_src("void main(void) { goto x; }", m).unwrap_err();
            assert!(matches!(err, CompileError::UnsupportedFeature { .. }));
            let err = analyze_src("void main(void) { asm(\"nop\"); }", m).unwrap_err();
            assert!(matches!(err, CompileError::UnsupportedFeature { .. }));
        }
    }

    #[test]
    fn recursion_is_detected_and_unbounds_the_stack() {
        let src = r#"
            int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
            void main(void) { amulet_log_value(fact(5)); }
        "#;
        let a = analyze_src(src, IsolationMethod::Mpu).unwrap();
        assert!(a.uses_recursion);
        assert_eq!(a.max_stack_bytes, None);
        // Feature Limited forbids recursion only implicitly (it cannot bound
        // the stack); the AFT reports it as an unsupported feature through
        // the builder, but the analysis itself flags it.
        let fl = analyze_src(src, IsolationMethod::FeatureLimited).unwrap();
        assert!(fl.uses_recursion);
    }

    #[test]
    fn mutual_recursion_is_detected() {
        let src = r#"
            int even(int n);
            int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
            int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
            void main(void) { amulet_log_value(is_even(4)); }
        "#;
        // Remove the stray prototype (unsupported syntax) and test mutual
        // recursion.
        let src = src.replace("int even(int n);\n", "");
        let a = analyze_src(&src, IsolationMethod::Mpu).unwrap();
        assert!(a.uses_recursion);
    }

    #[test]
    fn stack_estimate_grows_along_call_chains() {
        let shallow = analyze_src("void main(void) { int x = 1; }", IsolationMethod::Mpu).unwrap();
        let deep = analyze_src(
            r#"
            int leaf(int a) { int buf[8]; buf[0] = a; return buf[0]; }
            int mid(int a) { return leaf(a) + 1; }
            void main(void) { mid(3); }
            "#,
            IsolationMethod::Mpu,
        )
        .unwrap();
        assert!(deep.max_stack_bytes.unwrap() > shallow.max_stack_bytes.unwrap());
    }

    #[test]
    fn unknown_identifiers_and_unapproved_api_calls_are_rejected() {
        assert!(matches!(
            analyze_src("void main(void) { x = 1; }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Unknown { .. }
        ));
        assert!(matches!(
            analyze_src(
                "void main(void) { amulet_format_disk(); }",
                IsolationMethod::Mpu
            )
            .unwrap_err(),
            CompileError::UnapprovedApiCall { .. }
        ));
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(matches!(
            analyze_src("int f() { return; }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Type { .. }
        ));
        assert!(matches!(
            analyze_src("void f() { return 1; }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Type { .. }
        ));
        assert!(matches!(
            analyze_src("void f() { break; }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Type { .. }
        ));
        assert!(matches!(
            analyze_src("int g; void f() { g(); }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Type { .. }
        ));
    }

    #[test]
    fn api_arity_is_checked() {
        assert!(matches!(
            analyze_src("void f() { amulet_get_time(3); }", IsolationMethod::Mpu).unwrap_err(),
            CompileError::Type { .. }
        ));
    }

    #[test]
    fn globals_get_word_aligned_offsets_and_array_descriptors() {
        let src = "char c; int x; int arr[4]; void main(void) { }";
        let a = analyze_src(src, IsolationMethod::Mpu).unwrap();
        let (_, c_off) = &a.global_offsets["c"];
        let (_, x_off) = &a.global_offsets["x"];
        let (_, arr_off) = &a.global_offsets["arr"];
        assert_eq!(*c_off, 0);
        assert_eq!(*x_off, 2, "char is padded to a word");
        assert_eq!(*arr_off, 4);
        // 8 bytes of elements + 2 bytes of descriptor.
        assert_eq!(a.globals_bytes, 4 + 8 + 2);
    }
}
