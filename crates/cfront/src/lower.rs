//! AST → IL lowering with on-the-fly type checking.
//!
//! Scalars whose address is never taken live in virtual registers; arrays,
//! structs, and address-taken scalars live in frame slots. All arithmetic
//! is performed on 64-bit registers holding canonically extended values;
//! values are truncated (via [`impact_il::Inst::Ext`]) at casts and at
//! assignments to narrow variables, and by sized stores.

use std::collections::{HashMap, HashSet};

use impact_il::{
    BinOp, Callee, CmpOp, ExternDecl, ExternId, FuncId, FunctionBuilder, Global, GlobalId, Module,
    Reg, SlotId, Terminator, UnOp, Width,
};

use crate::ast::*;
use crate::error::{CompileError, Result};
use crate::parser::{const_eval, ParseContext};
use crate::token::Span;
use crate::types::{
    arith_op, cmp_op, conditional_type, promote, usual_arith, CType, FuncType, IntKind, TypeTable,
};

/// Lowers a fully parsed program to an IL module.
///
/// # Errors
///
/// Returns the first semantic error: unknown identifiers, type mismatches,
/// bad initializers, and so on.
pub fn lower(ctx: &ParseContext) -> Result<Module> {
    let mut lo = Lowerer::new(&ctx.types);
    lo.collect_signatures(&ctx.program)?;
    lo.lower_globals(&ctx.program)?;
    for f in &ctx.program.functions {
        lo.lower_function(f)?;
    }
    Ok(lo.module)
}

/// How a variable is stored.
#[derive(Clone, Debug)]
enum Storage {
    /// Scalar kept in a virtual register.
    Reg(Reg),
    /// Memory-resident local (frame slot).
    Slot(SlotId),
    /// Global variable.
    Global(GlobalId),
}

#[derive(Clone, Debug)]
struct VarInfo {
    storage: Storage,
    ty: CType,
}

/// The value of a lowered expression: a register plus its C type, or
/// nothing for `void`.
#[derive(Clone, Debug)]
struct RVal {
    reg: Option<Reg>,
    ty: CType,
}

impl RVal {
    fn new(reg: Reg, ty: CType) -> Self {
        RVal { reg: Some(reg), ty }
    }

    fn void() -> Self {
        RVal {
            reg: None,
            ty: CType::Void,
        }
    }
}

/// A lowered lvalue.
#[derive(Clone, Debug)]
enum Place {
    /// Register-backed scalar variable.
    Reg(Reg, CType),
    /// Memory location: address register + the type stored there.
    Mem(Reg, CType),
}

impl Place {
    fn ty(&self) -> &CType {
        match self {
            Place::Reg(_, t) | Place::Mem(_, t) => t,
        }
    }
}

struct FuncSig {
    id: FuncId,
    ty: FuncType,
}

struct ExternSig {
    id: ExternId,
    ty: FuncType,
}

struct Lowerer<'t> {
    types: &'t TypeTable,
    module: Module,
    funcs: HashMap<String, FuncSig>,
    externs: HashMap<String, ExternSig>,
    globals: HashMap<String, (GlobalId, CType)>,
    strings: HashMap<Vec<u8>, GlobalId>,
}

struct FuncCtx {
    fb: FunctionBuilder,
    scopes: Vec<HashMap<String, VarInfo>>,
    /// Jump targets for `break` (innermost last).
    break_targets: Vec<impact_il::BlockId>,
    /// Jump targets for `continue`.
    continue_targets: Vec<impact_il::BlockId>,
    ret_ty: CType,
    /// Names that have their address taken anywhere in this function.
    addr_taken: HashSet<String>,
}

impl<'t> Lowerer<'t> {
    fn new(types: &'t TypeTable) -> Self {
        Lowerer {
            types,
            module: Module::new(),
            funcs: HashMap::new(),
            externs: HashMap::new(),
            globals: HashMap::new(),
            strings: HashMap::new(),
        }
    }

    fn err<T>(&self, span: Span, msg: impl Into<String>) -> Result<T> {
        Err(CompileError::new(span, msg))
    }

    // ----- pre-pass ---------------------------------------------------------

    fn collect_signatures(&mut self, program: &Program) -> Result<()> {
        for (i, f) in program.functions.iter().enumerate() {
            let sig = FuncType {
                ret: f.ret.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
            };
            if self
                .funcs
                .insert(
                    f.name.clone(),
                    FuncSig {
                        id: FuncId::from_index(i),
                        ty: sig,
                    },
                )
                .is_some()
            {
                return self.err(f.span, format!("function `{}` redefined", f.name));
            }
        }
        for x in &program.externs {
            let ty = FuncType {
                ret: x.ret.clone(),
                params: x.params.clone(),
            };
            // An `extern` prototype of a defined function declares that
            // function. Identical re-declarations are fine (each source
            // file declares the externs it uses); conflicting ones are not.
            let known = self.funcs.get(&x.name).map(|f| &f.ty);
            let known = known.or_else(|| self.externs.get(&x.name).map(|e| &e.ty));
            if let Some(existing) = known {
                if *existing != ty {
                    return self.err(
                        x.span,
                        format!("extern `{}` redeclared with a different type", x.name),
                    );
                }
                continue;
            }
            let id = self.module.add_extern(ExternDecl {
                name: x.name.clone(),
                num_params: x.params.len() as u32,
                has_ret: x.ret != CType::Void,
            });
            self.externs.insert(x.name.clone(), ExternSig { id, ty });
        }
        Ok(())
    }

    // ----- globals ------------------------------------------------------------

    fn lower_globals(&mut self, program: &Program) -> Result<()> {
        for g in &program.globals {
            self.lower_global(g)?;
        }
        Ok(())
    }

    fn lower_global(&mut self, g: &GlobalDecl) -> Result<()> {
        if self.globals.contains_key(&g.name)
            || self.funcs.contains_key(&g.name)
            || self.externs.contains_key(&g.name)
        {
            return self.err(g.span, format!("`{}` redefined", g.name));
        }
        // Complete unsized arrays (`T x[]`) from their initializer.
        let mut ty = g.ty.clone();
        if let CType::Array(elem, 0) = &ty {
            let n = match &g.init {
                Some(Initializer::List(items)) => items.len() as u64,
                Some(Initializer::Expr(e)) => {
                    if let ExprKind::StrLit(bytes) = &e.kind {
                        bytes.len() as u64 + 1
                    } else {
                        return self.err(g.span, "cannot deduce array size from initializer");
                    }
                }
                None => return self.err(g.span, "array of unknown size needs an initializer"),
            };
            ty = CType::Array(elem.clone(), n);
        }
        let Some(size) = self.types.size_of(&ty) else {
            return self.err(g.span, format!("global `{}` has unsized type", g.name));
        };
        let align = self.types.align_of(&ty).unwrap_or(8);
        let mut global = Global::zeroed(&g.name, size, align);

        if let Some(init) = &g.init {
            self.encode_global_init(g.span, &ty, init, &mut global)?;
        }
        let id = self.module.add_global(global);
        self.globals.insert(g.name.clone(), (id, ty));
        Ok(())
    }

    /// Encodes a constant initializer into the global's bytes/relocations.
    fn encode_global_init(
        &mut self,
        span: Span,
        ty: &CType,
        init: &Initializer,
        global: &mut Global,
    ) -> Result<()> {
        let size = self.types.size_of(ty).expect("sized global") as usize;
        let mut bytes = vec![0u8; size];
        match (ty, init) {
            (CType::Int(k), Initializer::Expr(e)) => {
                let v = const_eval(e, self.types)?;
                encode_int(&mut bytes, 0, v, k.size());
            }
            (CType::Ptr(_), Initializer::Expr(e)) => match self.global_func_addr(e) {
                Some(fid) => global.func_relocs.push((0, fid)),
                None => {
                    let v = const_eval(e, self.types)?;
                    if v != 0 {
                        return self.err(
                            e.span,
                            "global pointers may only be initialized with 0 or a function",
                        );
                    }
                }
            },
            (CType::Array(elem, _n), Initializer::Expr(e)) => {
                let (CType::Int(k), ExprKind::StrLit(s)) = (elem.as_ref(), &e.kind) else {
                    return self.err(e.span, "array initializer must be a brace list");
                };
                if k.size() != 1 {
                    return self.err(e.span, "string initializer needs a char array");
                }
                if s.len() + 1 > size {
                    return self.err(e.span, "string initializer too long");
                }
                bytes[..s.len()].copy_from_slice(s);
            }
            (CType::Array(elem, n), Initializer::List(items)) => {
                if items.len() as u64 > *n {
                    return self.err(span, "too many initializers");
                }
                let esize = self.types.size_of(elem).expect("sized element");
                match elem.as_ref() {
                    CType::Int(k) => {
                        for (i, e) in items.iter().enumerate() {
                            let v = const_eval(e, self.types)?;
                            encode_int(&mut bytes, i * esize as usize, v, k.size());
                        }
                    }
                    CType::Ptr(_) => {
                        for (i, e) in items.iter().enumerate() {
                            match self.global_func_addr(e) {
                                Some(fid) => {
                                    global.func_relocs.push((i as u64 * esize, fid));
                                }
                                None => {
                                    if const_eval(e, self.types)? != 0 {
                                        return self.err(
                                            e.span,
                                            "pointer element must be 0 or a function name",
                                        );
                                    }
                                }
                            }
                        }
                    }
                    CType::Array(inner, k) => {
                        // char name[n][k] = {"a", "b", ...}
                        let (CType::Int(ik), true) = (inner.as_ref(), true) else {
                            return self.err(span, "unsupported array element initializer");
                        };
                        if ik.size() != 1 {
                            return self.err(span, "nested array initializers need char rows");
                        }
                        for (i, e) in items.iter().enumerate() {
                            let ExprKind::StrLit(sl) = &e.kind else {
                                return self.err(e.span, "row initializer must be a string");
                            };
                            if sl.len() as u64 + 1 > *k {
                                return self.err(e.span, "string initializer too long for row");
                            }
                            let off = i * esize as usize;
                            bytes[off..off + sl.len()].copy_from_slice(sl);
                        }
                    }
                    _ => return self.err(span, "unsupported array element initializer"),
                }
            }
            (CType::Struct(_), _) => {
                return self.err(
                    span,
                    "struct globals cannot have initializers (zero-filled)",
                )
            }
            _ => return self.err(span, "unsupported global initializer"),
        }
        global.init = bytes;
        Ok(())
    }

    /// Recognizes `func` / `&func` in a global initializer.
    fn global_func_addr(&self, e: &Expr) -> Option<FuncId> {
        match &e.kind {
            ExprKind::Ident(name) => self.funcs.get(name).map(|s| s.id),
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                operand,
            } => self.global_func_addr(operand),
            _ => None,
        }
    }

    /// Interns a string literal as a NUL-terminated read-only global.
    fn intern_string(&mut self, bytes: &[u8]) -> GlobalId {
        if let Some(&id) = self.strings.get(bytes) {
            return id;
        }
        let mut data = bytes.to_vec();
        data.push(0);
        let name = format!("__str{}", self.strings.len());
        let id = self.module.add_global(Global::with_bytes(name, data, 1));
        self.strings.insert(bytes.to_vec(), id);
        id
    }

    // ----- functions -----------------------------------------------------------

    fn lower_function(&mut self, f: &FunctionDef) -> Result<()> {
        let mut addr_taken = HashSet::new();
        collect_addr_taken_stmt(&f.body, &mut addr_taken);

        let mut fc = FuncCtx {
            fb: FunctionBuilder::new(&f.name, f.params.len() as u32),
            scopes: vec![HashMap::new()],
            break_targets: Vec::new(),
            continue_targets: Vec::new(),
            ret_ty: f.ret.clone(),
            addr_taken,
        };

        // Bind parameters. Address-taken parameters are copied into slots.
        for (i, p) in f.params.iter().enumerate() {
            if p.name.is_empty() {
                return self.err(f.span, "parameter in a definition needs a name");
            }
            let preg = Reg(i as u32);
            if fc.addr_taken.contains(&p.name) {
                let size = self
                    .types
                    .size_of(&p.ty)
                    .ok_or_else(|| CompileError::new(f.span, "unsized parameter".to_owned()))?;
                let align = self.types.align_of(&p.ty).unwrap_or(8);
                let slot = fc.fb.add_slot(&p.name, size, align);
                let addr = fc.fb.addr_of_slot(slot);
                let width = scalar_width(self.types, &p.ty)
                    .ok_or_else(|| CompileError::new(f.span, "bad parameter type".to_owned()))?;
                fc.fb.store(addr, preg, width);
                fc.scopes[0].insert(
                    p.name.clone(),
                    VarInfo {
                        storage: Storage::Slot(slot),
                        ty: p.ty.clone(),
                    },
                );
            } else {
                if !p.ty.is_scalar() {
                    return self.err(f.span, "parameters must be scalars or pointers");
                }
                fc.scopes[0].insert(
                    p.name.clone(),
                    VarInfo {
                        storage: Storage::Reg(preg),
                        ty: p.ty.clone(),
                    },
                );
            }
        }

        self.lower_stmt(&mut fc, &f.body)?;
        // Fall-off-the-end returns are implicit: the builder's open block
        // ends with `ret` (no value); `main` gets an implicit `return 0`
        // by convention of the VM (missing value reads as 0).
        self.module.functions.push(fc.fb.finish());
        Ok(())
    }

    // ----- statements -----------------------------------------------------------

    fn lower_stmt(&mut self, fc: &mut FuncCtx, s: &Stmt) -> Result<()> {
        match &s.kind {
            StmtKind::Block { decls, stmts } => {
                fc.scopes.push(HashMap::new());
                for d in decls {
                    self.lower_local_decl(fc, d)?;
                }
                for st in stmts {
                    self.lower_stmt(fc, st)?;
                }
                fc.scopes.pop();
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.lower_expr(fc, e)?;
                Ok(())
            }
            StmtKind::Empty => Ok(()),
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = self.lower_scalar(fc, cond)?;
                let then_b = fc.fb.new_block();
                let else_b = fc.fb.new_block();
                let join = fc.fb.new_block();
                fc.fb.terminate(Terminator::Branch {
                    cond: c,
                    then_to: then_b,
                    else_to: else_b,
                });
                fc.fb.switch_to(then_b);
                self.lower_stmt(fc, then_s)?;
                fc.fb.terminate(Terminator::Jump(join));
                fc.fb.switch_to(else_b);
                if let Some(e) = else_s {
                    self.lower_stmt(fc, e)?;
                }
                fc.fb.terminate(Terminator::Jump(join));
                fc.fb.switch_to(join);
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let head = fc.fb.new_block();
                let body_b = fc.fb.new_block();
                let exit = fc.fb.new_block();
                fc.fb.terminate(Terminator::Jump(head));
                fc.fb.switch_to(head);
                let c = self.lower_scalar(fc, cond)?;
                fc.fb.terminate(Terminator::Branch {
                    cond: c,
                    then_to: body_b,
                    else_to: exit,
                });
                fc.fb.switch_to(body_b);
                fc.break_targets.push(exit);
                fc.continue_targets.push(head);
                self.lower_stmt(fc, body)?;
                fc.break_targets.pop();
                fc.continue_targets.pop();
                fc.fb.terminate(Terminator::Jump(head));
                fc.fb.switch_to(exit);
                Ok(())
            }
            StmtKind::DoWhile { body, cond } => {
                let body_b = fc.fb.new_block();
                let check = fc.fb.new_block();
                let exit = fc.fb.new_block();
                fc.fb.terminate(Terminator::Jump(body_b));
                fc.fb.switch_to(body_b);
                fc.break_targets.push(exit);
                fc.continue_targets.push(check);
                self.lower_stmt(fc, body)?;
                fc.break_targets.pop();
                fc.continue_targets.pop();
                fc.fb.terminate(Terminator::Jump(check));
                fc.fb.switch_to(check);
                let c = self.lower_scalar(fc, cond)?;
                fc.fb.terminate(Terminator::Branch {
                    cond: c,
                    then_to: body_b,
                    else_to: exit,
                });
                fc.fb.switch_to(exit);
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(e) = init {
                    self.lower_expr(fc, e)?;
                }
                let head = fc.fb.new_block();
                let body_b = fc.fb.new_block();
                let step_b = fc.fb.new_block();
                let exit = fc.fb.new_block();
                fc.fb.terminate(Terminator::Jump(head));
                fc.fb.switch_to(head);
                match cond {
                    Some(c) => {
                        let r = self.lower_scalar(fc, c)?;
                        fc.fb.terminate(Terminator::Branch {
                            cond: r,
                            then_to: body_b,
                            else_to: exit,
                        });
                    }
                    None => fc.fb.terminate(Terminator::Jump(body_b)),
                }
                fc.fb.switch_to(body_b);
                fc.break_targets.push(exit);
                fc.continue_targets.push(step_b);
                self.lower_stmt(fc, body)?;
                fc.break_targets.pop();
                fc.continue_targets.pop();
                fc.fb.terminate(Terminator::Jump(step_b));
                fc.fb.switch_to(step_b);
                if let Some(e) = step {
                    self.lower_expr(fc, e)?;
                }
                fc.fb.terminate(Terminator::Jump(head));
                fc.fb.switch_to(exit);
                Ok(())
            }
            StmtKind::Switch { scrutinee, cases } => {
                self.lower_switch(fc, s.span, scrutinee, cases)
            }
            StmtKind::Break => match fc.break_targets.last() {
                Some(&b) => {
                    fc.fb.terminate(Terminator::Jump(b));
                    Ok(())
                }
                None => self.err(s.span, "`break` outside of a loop or switch"),
            },
            StmtKind::Continue => match fc.continue_targets.last() {
                Some(&b) => {
                    fc.fb.terminate(Terminator::Jump(b));
                    Ok(())
                }
                None => self.err(s.span, "`continue` outside of a loop"),
            },
            StmtKind::Return(value) => {
                match (value, fc.ret_ty.clone()) {
                    (None, CType::Void) => fc.fb.terminate(Terminator::Return(None)),
                    (None, _) => return self.err(s.span, "non-void function returns no value"),
                    (Some(e), CType::Void) => {
                        return self.err(e.span, "void function returns a value")
                    }
                    (Some(e), ret_ty) => {
                        let v = self.lower_expr(fc, e)?;
                        let Some(reg) = v.reg else {
                            return self.err(e.span, "void value returned");
                        };
                        // Truncate to the declared return type so callers
                        // observe canonical values.
                        let reg = self.coerce_to(fc, reg, &v.ty, &ret_ty, e.span)?;
                        fc.fb.terminate(Terminator::Return(Some(reg)));
                    }
                }
                Ok(())
            }
        }
    }

    fn lower_switch(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        scrutinee: &Expr,
        cases: &[SwitchCase],
    ) -> Result<()> {
        let scrut = self.lower_scalar(fc, scrutinee)?;
        let exit = fc.fb.new_block();
        // One body block per case group.
        let body_blocks: Vec<_> = cases.iter().map(|_| fc.fb.new_block()).collect();
        let mut default_idx = None;
        for (i, c) in cases.iter().enumerate() {
            if c.value.is_none() {
                if default_idx.is_some() {
                    return self.err(span, "duplicate `default` label");
                }
                default_idx = Some(i);
            }
        }
        {
            let mut seen = HashSet::new();
            for c in cases {
                if let Some(v) = c.value {
                    if !seen.insert(v) {
                        return self.err(span, format!("duplicate case label {v}"));
                    }
                }
            }
        }
        // Comparison chain.
        for (i, c) in cases.iter().enumerate() {
            if let Some(v) = c.value {
                let lit = fc.fb.const_(v);
                let is_eq = fc.fb.cmp(CmpOp::Eq, scrut, lit);
                let next_check = fc.fb.new_block();
                fc.fb.terminate(Terminator::Branch {
                    cond: is_eq,
                    then_to: body_blocks[i],
                    else_to: next_check,
                });
                fc.fb.switch_to(next_check);
            }
        }
        // No case matched: default or exit.
        match default_idx {
            Some(i) => fc.fb.terminate(Terminator::Jump(body_blocks[i])),
            None => fc.fb.terminate(Terminator::Jump(exit)),
        }
        // Bodies with fallthrough.
        fc.break_targets.push(exit);
        for (i, c) in cases.iter().enumerate() {
            fc.fb.switch_to(body_blocks[i]);
            for st in &c.stmts {
                self.lower_stmt(fc, st)?;
            }
            let next = body_blocks.get(i + 1).copied().unwrap_or(exit);
            fc.fb.terminate(Terminator::Jump(next));
        }
        fc.break_targets.pop();
        fc.fb.switch_to(exit);
        Ok(())
    }

    fn lower_local_decl(&mut self, fc: &mut FuncCtx, d: &LocalDecl) -> Result<()> {
        // Complete unsized arrays from brace initializers.
        let mut ty = d.ty.clone();
        if let CType::Array(elem, 0) = &ty {
            match &d.init {
                Some(Initializer::List(items)) => {
                    ty = CType::Array(elem.clone(), items.len() as u64);
                }
                _ => {
                    return self.err(
                        d.span,
                        "local array of unknown size needs a brace initializer",
                    )
                }
            }
        }
        let scalar = ty.is_scalar();
        let in_register = scalar && !fc.addr_taken.contains(&d.name);
        let storage = if in_register {
            Storage::Reg(fc.fb.new_reg())
        } else {
            let Some(size) = self.types.size_of(&ty) else {
                return self.err(d.span, format!("local `{}` has unsized type", d.name));
            };
            let align = self.types.align_of(&ty).unwrap_or(8);
            Storage::Slot(fc.fb.add_slot(&d.name, size, align))
        };
        if fc
            .scopes
            .last_mut()
            .expect("at least one scope")
            .insert(
                d.name.clone(),
                VarInfo {
                    storage: storage.clone(),
                    ty: ty.clone(),
                },
            )
            .is_some()
        {
            return self.err(d.span, format!("`{}` redeclared in the same scope", d.name));
        }

        match &d.init {
            None => Ok(()),
            Some(Initializer::Expr(e)) => {
                let place = match &storage {
                    Storage::Reg(r) => Place::Reg(*r, ty.clone()),
                    Storage::Slot(s) => {
                        let addr = fc.fb.addr_of_slot(*s);
                        Place::Mem(addr, ty.clone())
                    }
                    Storage::Global(_) => unreachable!("locals are not globals"),
                };
                let v = self.lower_expr(fc, e)?;
                self.store_place(fc, &place, v, e.span)?;
                Ok(())
            }
            Some(Initializer::List(items)) => {
                let CType::Array(elem, n) = &ty else {
                    return self.err(d.span, "brace initializer needs an array");
                };
                if items.len() as u64 > *n {
                    return self.err(d.span, "too many initializers");
                }
                let Storage::Slot(slot) = &storage else {
                    unreachable!("arrays always get slots");
                };
                let esize = self
                    .types
                    .size_of(elem)
                    .ok_or_else(|| CompileError::new(d.span, "unsized element".to_owned()))?;
                let width = scalar_width(self.types, elem).ok_or_else(|| {
                    CompileError::new(d.span, "element must be scalar".to_owned())
                })?;
                let base = fc.fb.addr_of_slot(*slot);
                for (i, item) in items.iter().enumerate() {
                    let v = self.lower_expr(fc, item)?;
                    let Some(vreg) = v.reg else {
                        return self.err(item.span, "void initializer element");
                    };
                    let off = fc.fb.const_((i as u64 * esize) as i64);
                    let addr = fc.fb.bin(BinOp::Add, base, off);
                    fc.fb.store(addr, vreg, width);
                }
                // Zero-fill the rest (C semantics for partial brace init).
                if (items.len() as u64) < *n {
                    let zero = fc.fb.const_(0);
                    for i in items.len() as u64..*n {
                        let off = fc.fb.const_((i * esize) as i64);
                        let addr = fc.fb.bin(BinOp::Add, base, off);
                        fc.fb.store(addr, zero, width);
                    }
                }
                Ok(())
            }
        }
    }

    // ----- places -----------------------------------------------------------

    fn lookup_var(&self, fc: &FuncCtx, name: &str) -> Option<VarInfo> {
        for scope in fc.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        self.globals.get(name).map(|(id, ty)| VarInfo {
            storage: Storage::Global(*id),
            ty: ty.clone(),
        })
    }

    fn lower_place(&mut self, fc: &mut FuncCtx, e: &Expr) -> Result<Place> {
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup_var(fc, name) {
                Some(v) => match v.storage {
                    Storage::Reg(r) => Ok(Place::Reg(r, v.ty)),
                    Storage::Slot(s) => {
                        let addr = fc.fb.addr_of_slot(s);
                        Ok(Place::Mem(addr, v.ty))
                    }
                    Storage::Global(g) => {
                        let addr = fc.fb.addr_of_global(g);
                        Ok(Place::Mem(addr, v.ty))
                    }
                },
                None => self.err(e.span, format!("unknown variable `{name}`")),
            },
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => {
                let v = self.lower_expr(fc, operand)?;
                let CType::Ptr(pointee) = v.ty.clone() else {
                    return self.err(operand.span, format!("cannot dereference `{}`", v.ty));
                };
                let Some(reg) = v.reg else {
                    return self.err(operand.span, "void operand");
                };
                Ok(Place::Mem(reg, (*pointee).clone()))
            }
            ExprKind::Index { base, index } => {
                let addr = self.lower_element_addr(fc, base, index, e.span)?;
                Ok(addr)
            }
            ExprKind::Member { base, field, arrow } => {
                let (base_addr, sid) = if *arrow {
                    let v = self.lower_expr(fc, base)?;
                    let CType::Ptr(inner) = v.ty.clone() else {
                        return self.err(base.span, format!("`->` on non-pointer `{}`", v.ty));
                    };
                    let CType::Struct(sid) = *inner else {
                        return self.err(base.span, "`->` on a pointer to a non-struct");
                    };
                    let Some(reg) = v.reg else {
                        return self.err(base.span, "void operand");
                    };
                    (reg, sid)
                } else {
                    let place = self.lower_place(fc, base)?;
                    let Place::Mem(addr, ty) = place else {
                        return self.err(base.span, "`.` on a non-struct value");
                    };
                    let CType::Struct(sid) = ty else {
                        return self.err(base.span, "`.` on non-struct".to_string());
                    };
                    (addr, sid)
                };
                let def = self.types.struct_def(sid);
                let Some(fld) = def.field(field) else {
                    return self.err(
                        e.span,
                        format!("struct `{}` has no member `{field}`", def.name),
                    );
                };
                let fld_ty = fld.ty.clone();
                let off = fc.fb.const_(fld.offset as i64);
                let addr = fc.fb.bin(BinOp::Add, base_addr, off);
                Ok(Place::Mem(addr, fld_ty))
            }
            _ => self.err(e.span, "expression is not assignable"),
        }
    }

    /// Computes the address of `base[index]` as a place.
    fn lower_element_addr(
        &mut self,
        fc: &mut FuncCtx,
        base: &Expr,
        index: &Expr,
        span: Span,
    ) -> Result<Place> {
        let b = self.lower_expr(fc, base)?;
        let CType::Ptr(elem) = b.ty.clone() else {
            return self.err(span, format!("cannot index `{}`", b.ty));
        };
        let Some(breg) = b.reg else {
            return self.err(base.span, "void operand");
        };
        let i = self.lower_scalar(fc, index)?;
        let Some(esize) = self.types.size_of(&elem) else {
            return self.err(span, "cannot index a pointer to an unsized type");
        };
        let addr = if esize == 1 {
            fc.fb.bin(BinOp::Add, breg, i)
        } else {
            let scale = fc.fb.const_(esize as i64);
            let scaled = fc.fb.bin(BinOp::Mul, i, scale);
            fc.fb.bin(BinOp::Add, breg, scaled)
        };
        Ok(Place::Mem(addr, (*elem).clone()))
    }

    /// Loads a place's value.
    fn load_place(&mut self, fc: &mut FuncCtx, place: &Place, span: Span) -> Result<RVal> {
        match place {
            Place::Reg(r, ty) => Ok(RVal::new(*r, ty.clone())),
            Place::Mem(addr, ty) => match ty {
                CType::Array(elem, _) => {
                    // Arrays decay to a pointer to their first element.
                    Ok(RVal::new(*addr, CType::Ptr(elem.clone())))
                }
                CType::Struct(_) => self.err(
                    span,
                    "struct values are not supported; use pointers to structs",
                ),
                CType::Func(ft) => {
                    // A function lvalue decays to a function pointer.
                    Ok(RVal::new(*addr, CType::Func(ft.clone()).decayed()))
                }
                _ => {
                    let width = scalar_width(self.types, ty).ok_or_else(|| {
                        CompileError::new(span, "cannot load this type".to_owned())
                    })?;
                    let signed = type_signed(ty);
                    let reg = fc.fb.load(*addr, width, signed);
                    Ok(RVal::new(reg, ty.clone()))
                }
            },
        }
    }

    /// Stores `value` into `place`, with C assignment conversions.
    /// Returns the (converted) stored value for use as the assignment's
    /// result.
    fn store_place(
        &mut self,
        fc: &mut FuncCtx,
        place: &Place,
        value: RVal,
        span: Span,
    ) -> Result<Reg> {
        let Some(vreg) = value.reg else {
            return self.err(span, "cannot assign a void value");
        };
        let target_ty = place.ty().clone();
        if !target_ty.is_scalar() {
            return self.err(span, format!("cannot assign to `{target_ty}`"));
        }
        let converted = self.coerce_to(fc, vreg, &value.ty, &target_ty, span)?;
        match place {
            Place::Reg(r, _) => {
                fc.fb.mov(*r, converted);
            }
            Place::Mem(addr, ty) => {
                let width = scalar_width(self.types, ty)
                    .ok_or_else(|| CompileError::new(span, "cannot store this type".to_owned()))?;
                fc.fb.store(*addr, converted, width);
            }
        }
        Ok(converted)
    }

    /// Converts a value to `target` type: an integer conversion that can
    /// change the value (narrowing, a change of signedness at one width, or
    /// a signed value widened into an unsigned kind) via `Ext`,
    /// pointer/integer reinterpretation unchecked (as C compilers of the
    /// era allowed).
    fn coerce_to(
        &mut self,
        fc: &mut FuncCtx,
        reg: Reg,
        from: &CType,
        target: &CType,
        span: Span,
    ) -> Result<Reg> {
        match target {
            CType::Int(k) => {
                if !from.is_scalar() {
                    return self.err(span, format!("cannot convert `{from}` to `{target}`"));
                }
                // Every value of `fk` is one of `k`: no conversion.
                let fits = match from {
                    CType::Int(fk) => {
                        fk == k || (fk.size() < k.size() && (k.is_signed() || !fk.is_signed()))
                    }
                    _ => false, // pointer → int
                };
                if k.size() < 8 && !fits {
                    let width = Width::from_bytes(k.size()).expect("int width");
                    Ok(fc.fb.push_ext(reg, width, k.is_signed()))
                } else {
                    Ok(reg)
                }
            }
            CType::Ptr(_) => {
                if !from.is_scalar() {
                    return self.err(span, format!("cannot convert `{from}` to `{target}`"));
                }
                Ok(reg)
            }
            _ => self.err(span, format!("cannot convert to `{target}`")),
        }
    }

    // ----- expressions -----------------------------------------------------------

    /// Lowers an expression and insists on a scalar value register.
    fn lower_scalar(&mut self, fc: &mut FuncCtx, e: &Expr) -> Result<Reg> {
        let v = self.lower_expr(fc, e)?;
        match v.reg {
            Some(r) => Ok(r),
            None => self.err(e.span, "expected a value, found void"),
        }
    }

    fn lower_expr(&mut self, fc: &mut FuncCtx, e: &Expr) -> Result<RVal> {
        match &e.kind {
            ExprKind::IntLit(v, k) => {
                let reg = fc.fb.const_(*v);
                Ok(RVal::new(reg, CType::Int(*k)))
            }
            ExprKind::StrLit(bytes) => {
                let gid = self.intern_string(bytes);
                let reg = fc.fb.addr_of_global(gid);
                Ok(RVal::new(reg, CType::char().ptr_to()))
            }
            ExprKind::Ident(name) => {
                if let Some(v) = self.lookup_var(fc, name) {
                    let place = match v.storage {
                        Storage::Reg(r) => Place::Reg(r, v.ty),
                        Storage::Slot(s) => {
                            let addr = fc.fb.addr_of_slot(s);
                            Place::Mem(addr, v.ty)
                        }
                        Storage::Global(g) => {
                            let addr = fc.fb.addr_of_global(g);
                            Place::Mem(addr, v.ty)
                        }
                    };
                    return self.load_place(fc, &place, e.span);
                }
                if let Some(sig) = self.funcs.get(name) {
                    let id = sig.id;
                    let fty = CType::Func(Box::new(sig.ty.clone())).decayed();
                    let reg = fc.fb.addr_of_func(id);
                    return Ok(RVal::new(reg, fty));
                }
                self.err(e.span, format!("unknown identifier `{name}`"))
            }
            ExprKind::Unary { op, operand } => self.lower_unary(fc, e.span, *op, operand),
            ExprKind::Binary { op, lhs, rhs } => self.lower_binary(fc, e.span, *op, lhs, rhs),
            ExprKind::IncDec { op, target } => self.lower_incdec(fc, e.span, *op, target),
            ExprKind::Assign { op, target, value } => {
                self.lower_assign(fc, e.span, *op, target, value)
            }
            ExprKind::Conditional {
                cond,
                then_e,
                else_e,
            } => self.lower_conditional(fc, cond, then_e, else_e),
            ExprKind::Call { callee, args } => self.lower_call(fc, e.span, callee, args),
            ExprKind::Index { base, index } => {
                let place = self.lower_element_addr(fc, base, index, e.span)?;
                self.load_place(fc, &place, e.span)
            }
            ExprKind::Member { .. } => {
                let place = self.lower_place(fc, e)?;
                self.load_place(fc, &place, e.span)
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.lower_expr(fc, expr)?;
                match ty {
                    CType::Void => Ok(RVal::void()),
                    CType::Int(k) => {
                        let Some(reg) = v.reg else {
                            return self.err(expr.span, "cannot cast void");
                        };
                        if !v.ty.is_scalar() {
                            return self.err(expr.span, format!("cannot cast `{}`", v.ty));
                        }
                        let out = if k.size() < 8 {
                            let width = Width::from_bytes(k.size()).expect("int width");
                            fc.fb.push_ext(reg, width, k.is_signed())
                        } else {
                            reg
                        };
                        Ok(RVal::new(out, ty.clone()))
                    }
                    CType::Ptr(_) => {
                        let Some(reg) = v.reg else {
                            return self.err(expr.span, "cannot cast void");
                        };
                        if !v.ty.is_scalar() {
                            return self.err(expr.span, format!("cannot cast `{}`", v.ty));
                        }
                        Ok(RVal::new(reg, ty.clone()))
                    }
                    _ => self.err(e.span, format!("unsupported cast to `{ty}`")),
                }
            }
            ExprKind::SizeofType(ty) => {
                let Some(size) = self.types.size_of(ty) else {
                    return self.err(e.span, "sizeof of unsized type");
                };
                let reg = fc.fb.const_(size as i64);
                Ok(RVal::new(reg, CType::Int(IntKind::U64)))
            }
            ExprKind::SizeofExpr(inner) => {
                let ty = self.infer_type(fc, inner)?;
                let Some(size) = self.types.size_of(&ty) else {
                    return self.err(e.span, "sizeof of unsized type");
                };
                let reg = fc.fb.const_(size as i64);
                Ok(RVal::new(reg, CType::Int(IntKind::U64)))
            }
        }
    }

    fn lower_unary(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        op: UnaryOp,
        operand: &Expr,
    ) -> Result<RVal> {
        match op {
            UnaryOp::Neg | UnaryOp::Plus | UnaryOp::BitNot => {
                let v = self.lower_expr(fc, operand)?;
                let CType::Int(k) = v.ty else {
                    return self.err(span, format!("arithmetic on `{}`", v.ty));
                };
                let Some(reg) = v.reg else {
                    return self.err(span, "void operand");
                };
                let rk = promote(k);
                let out = match op {
                    UnaryOp::Neg => fc.fb.un(UnOp::Neg, reg),
                    UnaryOp::BitNot => fc.fb.un(UnOp::BitNot, reg),
                    UnaryOp::Plus => reg,
                    _ => unreachable!(),
                };
                Ok(RVal::new(out, CType::Int(rk)))
            }
            UnaryOp::LogNot => {
                let v = self.lower_expr(fc, operand)?;
                let Some(reg) = v.reg else {
                    return self.err(span, "void operand");
                };
                if !v.ty.is_scalar() {
                    return self.err(span, format!("`!` on `{}`", v.ty));
                }
                let out = fc.fb.un(UnOp::LogNot, reg);
                Ok(RVal::new(out, CType::int()))
            }
            UnaryOp::Deref => {
                let v = self.lower_expr(fc, operand)?;
                let CType::Ptr(pointee) = v.ty.clone() else {
                    return self.err(span, format!("cannot dereference `{}`", v.ty));
                };
                let Some(reg) = v.reg else {
                    return self.err(span, "void operand");
                };
                // Dereferencing a function pointer yields the function
                // designator, which immediately decays back to the pointer.
                if matches!(pointee.as_ref(), CType::Func(_)) {
                    return Ok(RVal::new(reg, v.ty));
                }
                let place = Place::Mem(reg, (*pointee).clone());
                self.load_place(fc, &place, span)
            }
            UnaryOp::AddrOf => {
                // `&func` is a function pointer.
                if let ExprKind::Ident(name) = &operand.kind {
                    if self.lookup_var(fc, name).is_none() {
                        if let Some(sig) = self.funcs.get(name) {
                            let id = sig.id;
                            let fty = CType::Func(Box::new(sig.ty.clone())).decayed();
                            let reg = fc.fb.addr_of_func(id);
                            return Ok(RVal::new(reg, fty));
                        }
                    }
                }
                let place = self.lower_place(fc, operand)?;
                match place {
                    Place::Mem(addr, ty) => Ok(RVal::new(addr, ty.ptr_to())),
                    Place::Reg(..) => self.err(
                        span,
                        "internal: address-taken variable was register-allocated",
                    ),
                }
            }
        }
    }

    fn lower_binary(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<RVal> {
        match op {
            BinaryOp::Comma => {
                self.lower_expr(fc, lhs)?;
                return self.lower_expr(fc, rhs);
            }
            BinaryOp::LogAnd | BinaryOp::LogOr => {
                return self.lower_short_circuit(fc, op, lhs, rhs)
            }
            _ => {}
        }
        let l = self.lower_expr(fc, lhs)?;
        let r = self.lower_expr(fc, rhs)?;
        let (Some(lreg), Some(rreg)) = (l.reg, r.reg) else {
            return self.err(span, "void operand");
        };
        self.lower_binary_vals(fc, span, op, lreg, &l.ty, rreg, &r.ty)
    }

    /// The arithmetic/comparison core, shared by plain binary expressions
    /// and compound assignments.
    #[allow(clippy::too_many_arguments)]
    fn lower_binary_vals(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        op: BinaryOp,
        lreg: Reg,
        lty: &CType,
        rreg: Reg,
        rty: &CType,
    ) -> Result<RVal> {
        use BinaryOp as B;
        // Pointer arithmetic.
        match (op, lty.is_pointer(), rty.is_pointer()) {
            (B::Add, true, false) => {
                let out = self.pointer_offset(fc, span, lreg, lty, rreg, false)?;
                return Ok(RVal::new(out, lty.clone()));
            }
            (B::Add, false, true) => {
                let out = self.pointer_offset(fc, span, rreg, rty, lreg, false)?;
                return Ok(RVal::new(out, rty.clone()));
            }
            (B::Sub, true, false) => {
                let out = self.pointer_offset(fc, span, lreg, lty, rreg, true)?;
                return Ok(RVal::new(out, lty.clone()));
            }
            (B::Sub, true, true) => {
                if lty != rty {
                    return self.err(span, "pointer subtraction of different types");
                }
                let esize = self
                    .types
                    .size_of(lty.pointee().expect("pointer"))
                    .ok_or_else(|| CompileError::new(span, "pointer to unsized type".to_owned()))?;
                let diff = fc.fb.bin(BinOp::Sub, lreg, rreg);
                let out = if esize == 1 {
                    diff
                } else {
                    let scale = fc.fb.const_(esize as i64);
                    fc.fb.bin(BinOp::Div, diff, scale)
                };
                return Ok(RVal::new(out, CType::long()));
            }
            _ => {}
        }
        // Comparisons.
        if matches!(op, B::Lt | B::Gt | B::Le | B::Ge | B::Eq | B::Ne) {
            let unsigned = if lty.is_pointer() || rty.is_pointer() {
                true
            } else {
                match (lty, rty) {
                    (CType::Int(a), CType::Int(b)) => !usual_arith(*a, *b).is_signed(),
                    _ => return self.err(span, "cannot compare these operands"),
                }
            };
            let cmp = cmp_op(op, unsigned).expect("comparison operator");
            let out = fc.fb.cmp(cmp, lreg, rreg);
            return Ok(RVal::new(out, CType::int()));
        }
        // Integer arithmetic.
        let (CType::Int(lk), CType::Int(rk)) = (lty, rty) else {
            return self.err(span, format!("invalid operands `{lty}` and `{rty}`"));
        };
        let (il_op, res_kind) = arith_op(op, *lk, *rk).expect("remaining ops handled above");
        let out = fc.fb.bin(il_op, lreg, rreg);
        Ok(RVal::new(out, CType::Int(res_kind)))
    }

    /// `ptr ± offset`, scaled by the pointee size.
    fn pointer_offset(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        preg: Reg,
        pty: &CType,
        offset: Reg,
        subtract: bool,
    ) -> Result<Reg> {
        let esize = self
            .types
            .size_of(pty.pointee().expect("pointer type"))
            .ok_or_else(|| CompileError::new(span, "pointer to unsized type".to_owned()))?;
        let scaled = if esize == 1 {
            offset
        } else {
            let scale = fc.fb.const_(esize as i64);
            fc.fb.bin(BinOp::Mul, offset, scale)
        };
        Ok(fc
            .fb
            .bin(if subtract { BinOp::Sub } else { BinOp::Add }, preg, scaled))
    }

    fn lower_short_circuit(
        &mut self,
        fc: &mut FuncCtx,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<RVal> {
        let result = fc.fb.new_reg();
        let l = self.lower_scalar(fc, lhs)?;
        let rhs_b = fc.fb.new_block();
        let short_b = fc.fb.new_block();
        let join = fc.fb.new_block();
        match op {
            BinaryOp::LogAnd => fc.fb.terminate(Terminator::Branch {
                cond: l,
                then_to: rhs_b,
                else_to: short_b,
            }),
            BinaryOp::LogOr => fc.fb.terminate(Terminator::Branch {
                cond: l,
                then_to: short_b,
                else_to: rhs_b,
            }),
            _ => unreachable!(),
        }
        // Short-circuit side: result is 0 for `&&`, 1 for `||`.
        fc.fb.switch_to(short_b);
        let short_val = fc.fb.const_(if op == BinaryOp::LogAnd { 0 } else { 1 });
        fc.fb.mov(result, short_val);
        fc.fb.terminate(Terminator::Jump(join));
        // Evaluated side: result is rhs != 0.
        fc.fb.switch_to(rhs_b);
        let r = self.lower_scalar(fc, rhs)?;
        let zero = fc.fb.const_(0);
        let norm = fc.fb.cmp(CmpOp::Ne, r, zero);
        fc.fb.mov(result, norm);
        fc.fb.terminate(Terminator::Jump(join));
        fc.fb.switch_to(join);
        Ok(RVal::new(result, CType::int()))
    }

    fn lower_conditional(
        &mut self,
        fc: &mut FuncCtx,
        cond: &Expr,
        then_e: &Expr,
        else_e: &Expr,
    ) -> Result<RVal> {
        let result = fc.fb.new_reg();
        let c = self.lower_scalar(fc, cond)?;
        let then_b = fc.fb.new_block();
        let else_b = fc.fb.new_block();
        let join = fc.fb.new_block();
        fc.fb.terminate(Terminator::Branch {
            cond: c,
            then_to: then_b,
            else_to: else_b,
        });
        fc.fb.switch_to(then_b);
        let tv = self.lower_expr(fc, then_e)?;
        if let Some(r) = tv.reg {
            fc.fb.mov(result, r);
        }
        fc.fb.terminate(Terminator::Jump(join));
        fc.fb.switch_to(else_b);
        let ev = self.lower_expr(fc, else_e)?;
        if let Some(r) = ev.reg {
            fc.fb.mov(result, r);
        }
        fc.fb.terminate(Terminator::Jump(join));
        fc.fb.switch_to(join);
        Ok(match conditional_type(&tv.ty, &ev.ty) {
            CType::Void => RVal::void(),
            ty => RVal::new(result, ty),
        })
    }

    fn lower_incdec(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        op: IncDec,
        target: &Expr,
    ) -> Result<RVal> {
        let place = self.lower_place(fc, target)?;
        let old = self.load_place(fc, &place, span)?;
        let Some(old_reg) = old.reg else {
            return self.err(span, "void operand");
        };
        let ty = old.ty.clone();
        let one = fc.fb.const_(1);
        let new_reg = match &ty {
            CType::Ptr(_) => {
                let sub = matches!(op, IncDec::PreDec | IncDec::PostDec);
                self.pointer_offset(fc, span, old_reg, &ty, one, sub)?
            }
            CType::Int(_) => {
                let il_op = if matches!(op, IncDec::PreDec | IncDec::PostDec) {
                    BinOp::Sub
                } else {
                    BinOp::Add
                };
                fc.fb.bin(il_op, old_reg, one)
            }
            _ => return self.err(span, format!("cannot increment `{ty}`")),
        };
        // The new value is computed in the promoted kind, so storing it
        // converts it back to the variable's.
        let new_ty = match ty {
            CType::Int(k) => CType::Int(promote(k)),
            _ => ty.clone(),
        };
        // Re-load the *old* value into a fresh register before the store
        // clobbers a register-backed variable.
        let saved_old = if matches!(op, IncDec::PostInc | IncDec::PostDec) {
            let tmp = fc.fb.new_reg();
            fc.fb.mov(tmp, old_reg);
            Some(tmp)
        } else {
            None
        };
        let stored = self.store_place(fc, &place, RVal::new(new_reg, new_ty), span)?;
        let result = match saved_old {
            Some(tmp) => tmp,
            None => stored,
        };
        Ok(RVal::new(result, ty))
    }

    fn lower_assign(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        op: Option<BinaryOp>,
        target: &Expr,
        value: &Expr,
    ) -> Result<RVal> {
        let place = self.lower_place(fc, target)?;
        let result = match op {
            None => {
                let v = self.lower_expr(fc, value)?;
                self.store_place(fc, &place, v, span)?
            }
            Some(bop) => {
                let old = self.load_place(fc, &place, span)?;
                let Some(old_reg) = old.reg else {
                    return self.err(span, "void operand");
                };
                let v = self.lower_expr(fc, value)?;
                let Some(vreg) = v.reg else {
                    return self.err(value.span, "void operand");
                };
                let combined =
                    self.lower_binary_vals(fc, span, bop, old_reg, &old.ty, vreg, &v.ty)?;
                self.store_place(fc, &place, combined, span)?
            }
        };
        Ok(RVal::new(result, place.ty().decayed()))
    }

    fn lower_call(
        &mut self,
        fc: &mut FuncCtx,
        span: Span,
        callee: &Expr,
        args: &[Expr],
    ) -> Result<RVal> {
        // Identify the call target: direct user function, extern, or
        // indirect through a pointer value.
        enum Target {
            Direct(FuncId, FuncType),
            Extern(ExternId, FuncType),
            Indirect(Reg, Option<FuncType>),
        }
        let target = match &callee.kind {
            ExprKind::Ident(name) if self.lookup_var(fc, name).is_none() => {
                if let Some(sig) = self.funcs.get(name) {
                    Target::Direct(sig.id, sig.ty.clone())
                } else if let Some(sig) = self.externs.get(name) {
                    Target::Extern(sig.id, sig.ty.clone())
                } else {
                    return self.err(callee.span, format!("unknown function `{name}`"));
                }
            }
            _ => {
                let v = self.lower_expr(fc, callee)?;
                let fty = match &v.ty {
                    CType::Ptr(inner) => match inner.as_ref() {
                        CType::Func(ft) => Some((**ft).clone()),
                        _ => None,
                    },
                    _ => None,
                };
                if fty.is_none() && !v.ty.is_pointer() {
                    return self.err(callee.span, format!("cannot call `{}`", v.ty));
                }
                let Some(reg) = v.reg else {
                    return self.err(callee.span, "void callee");
                };
                Target::Indirect(reg, fty)
            }
        };
        // Check arity against the known signature.
        let known_ty = match &target {
            Target::Direct(_, t) | Target::Extern(_, t) => Some(t.clone()),
            Target::Indirect(_, t) => t.clone(),
        };
        if let Some(ft) = &known_ty {
            if ft.params.len() != args.len() {
                return self.err(
                    span,
                    format!(
                        "call passes {} arguments, function takes {}",
                        args.len(),
                        ft.params.len()
                    ),
                );
            }
        }
        // Evaluate arguments left to right, converting to parameter types.
        let mut arg_regs = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let v = self.lower_expr(fc, a)?;
            let Some(mut reg) = v.reg else {
                return self.err(a.span, "void argument");
            };
            if let Some(ft) = &known_ty {
                reg = self.coerce_to(fc, reg, &v.ty, &ft.params[i], a.span)?;
            }
            arg_regs.push(reg);
        }
        let ret_ty = known_ty
            .as_ref()
            .map(|t| t.ret.clone())
            .unwrap_or(CType::int());
        let want_ret = ret_ty != CType::Void;
        let site = self.module.fresh_call_site();
        let il_callee = match target {
            Target::Direct(id, _) => Callee::Func(id),
            Target::Extern(id, _) => Callee::Ext(id),
            Target::Indirect(reg, _) => Callee::Reg(reg),
        };
        let dst = fc.fb.call(site, il_callee, arg_regs, want_ret);
        match dst {
            Some(r) => Ok(RVal::new(r, ret_ty)),
            None => Ok(RVal::void()),
        }
    }

    /// Computes the type of an expression without emitting code (for
    /// `sizeof expr`). Supports the common forms; side-effectful operands
    /// are typed but never evaluated, per C semantics.
    fn infer_type(&mut self, fc: &FuncCtx, e: &Expr) -> Result<CType> {
        Ok(match &e.kind {
            ExprKind::IntLit(_, k) => CType::Int(*k),
            ExprKind::StrLit(bytes) => {
                CType::Array(Box::new(CType::char()), bytes.len() as u64 + 1)
            }
            ExprKind::Ident(name) => match self.lookup_var(fc, name) {
                Some(v) => v.ty,
                None => match self.funcs.get(name) {
                    Some(sig) => CType::Func(Box::new(sig.ty.clone())),
                    None => {
                        return self.err(e.span, format!("unknown identifier `{name}`"));
                    }
                },
            },
            ExprKind::Unary { op, operand } => {
                let t = self.infer_type(fc, operand)?;
                match op {
                    UnaryOp::Deref => match t.decayed() {
                        CType::Ptr(p) => (*p).clone(),
                        _ => return self.err(e.span, "cannot dereference"),
                    },
                    UnaryOp::AddrOf => t.ptr_to(),
                    UnaryOp::LogNot => CType::int(),
                    _ => match t {
                        CType::Int(k) => CType::Int(promote(k)),
                        other => other,
                    },
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.infer_type(fc, lhs)?.decayed();
                let rt = self.infer_type(fc, rhs)?.decayed();
                match op {
                    BinaryOp::Comma => rt,
                    BinaryOp::Lt
                    | BinaryOp::Gt
                    | BinaryOp::Le
                    | BinaryOp::Ge
                    | BinaryOp::Eq
                    | BinaryOp::Ne
                    | BinaryOp::LogAnd
                    | BinaryOp::LogOr => CType::int(),
                    BinaryOp::Sub if lt.is_pointer() && rt.is_pointer() => CType::long(),
                    _ if lt.is_pointer() => lt,
                    _ if rt.is_pointer() => rt,
                    _ => match (lt, rt) {
                        (CType::Int(a), CType::Int(b)) => CType::Int(usual_arith(a, b)),
                        _ => return self.err(e.span, "cannot type this operand"),
                    },
                }
            }
            ExprKind::IncDec { target, .. } => self.infer_type(fc, target)?.decayed(),
            ExprKind::Assign { target, .. } => self.infer_type(fc, target)?.decayed(),
            ExprKind::Conditional { then_e, else_e, .. } => {
                let then_t = self.infer_type(fc, then_e)?.decayed();
                let else_t = self.infer_type(fc, else_e)?.decayed();
                conditional_type(&then_t, &else_t)
            }
            ExprKind::Call { callee, .. } => {
                let t = self.infer_type(fc, callee)?.decayed();
                match t {
                    CType::Ptr(inner) => match *inner {
                        CType::Func(ft) => ft.ret,
                        _ => CType::int(),
                    },
                    _ => CType::int(),
                }
            }
            ExprKind::Index { base, .. } => {
                let t = self.infer_type(fc, base)?.decayed();
                match t {
                    CType::Ptr(p) => (*p).clone(),
                    _ => return self.err(e.span, "cannot index"),
                }
            }
            ExprKind::Member { base, field, arrow } => {
                let bt = self.infer_type(fc, base)?;
                let sid = match (arrow, bt.decayed()) {
                    (true, CType::Ptr(inner)) => match *inner {
                        CType::Struct(s) => s,
                        _ => return self.err(e.span, "`->` on non-struct pointer"),
                    },
                    (false, CType::Struct(s)) => s,
                    _ => return self.err(e.span, "member access on non-struct"),
                };
                match self.types.struct_def(sid).field(field) {
                    Some(f) => f.ty.clone(),
                    None => return self.err(e.span, format!("no member `{field}`")),
                }
            }
            ExprKind::Cast { ty, .. } => ty.clone(),
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => CType::Int(IntKind::U64),
        })
    }
}

/// The IL width for storing a scalar of type `ty`.
fn scalar_width(types: &TypeTable, ty: &CType) -> Option<Width> {
    match ty {
        CType::Int(k) => Width::from_bytes(k.size()),
        CType::Ptr(_) => Some(Width::W8),
        _ => {
            let _ = types;
            None
        }
    }
}

/// Whether loads of this type sign-extend.
fn type_signed(ty: &CType) -> bool {
    match ty {
        CType::Int(k) => k.is_signed(),
        _ => false,
    }
}

fn encode_int(bytes: &mut [u8], offset: usize, value: i64, size: u64) {
    let le = value.to_le_bytes();
    bytes[offset..offset + size as usize].copy_from_slice(&le[..size as usize]);
}

// ----- address-taken analysis ------------------------------------------------

fn collect_addr_taken_stmt(s: &Stmt, out: &mut HashSet<String>) {
    match &s.kind {
        StmtKind::Block { decls, stmts } => {
            for d in decls {
                match &d.init {
                    Some(Initializer::Expr(e)) => collect_addr_taken_expr(e, out),
                    Some(Initializer::List(items)) => {
                        for e in items {
                            collect_addr_taken_expr(e, out);
                        }
                    }
                    None => {}
                }
            }
            for st in stmts {
                collect_addr_taken_stmt(st, out);
            }
        }
        StmtKind::Expr(e) => collect_addr_taken_expr(e, out),
        StmtKind::Empty | StmtKind::Break | StmtKind::Continue => {}
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => {
            collect_addr_taken_expr(cond, out);
            collect_addr_taken_stmt(then_s, out);
            if let Some(e) = else_s {
                collect_addr_taken_stmt(e, out);
            }
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
            collect_addr_taken_expr(cond, out);
            collect_addr_taken_stmt(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            for e in [init, cond, step].into_iter().flatten() {
                collect_addr_taken_expr(e, out);
            }
            collect_addr_taken_stmt(body, out);
        }
        StmtKind::Switch { scrutinee, cases } => {
            collect_addr_taken_expr(scrutinee, out);
            for c in cases {
                for st in &c.stmts {
                    collect_addr_taken_stmt(st, out);
                }
            }
        }
        StmtKind::Return(Some(e)) => collect_addr_taken_expr(e, out),
        StmtKind::Return(None) => {}
    }
}

fn collect_addr_taken_expr(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Unary {
            op: UnaryOp::AddrOf,
            operand,
        } => {
            // `&name` marks the variable; `&arr[i]` and `&p->f` don't force
            // anything extra (arrays/structs are memory-resident anyway),
            // but their subexpressions must still be scanned.
            if let ExprKind::Ident(name) = &operand.kind {
                out.insert(name.clone());
            }
            collect_addr_taken_expr(operand, out);
        }
        ExprKind::IntLit(..)
        | ExprKind::StrLit(_)
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary { operand, .. } => collect_addr_taken_expr(operand, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_addr_taken_expr(lhs, out);
            collect_addr_taken_expr(rhs, out);
        }
        ExprKind::IncDec { target, .. } => collect_addr_taken_expr(target, out),
        ExprKind::Assign { target, value, .. } => {
            collect_addr_taken_expr(target, out);
            collect_addr_taken_expr(value, out);
        }
        ExprKind::Conditional {
            cond,
            then_e,
            else_e,
        } => {
            collect_addr_taken_expr(cond, out);
            collect_addr_taken_expr(then_e, out);
            collect_addr_taken_expr(else_e, out);
        }
        ExprKind::Call { callee, args } => {
            collect_addr_taken_expr(callee, out);
            for a in args {
                collect_addr_taken_expr(a, out);
            }
        }
        ExprKind::Index { base, index } => {
            collect_addr_taken_expr(base, out);
            collect_addr_taken_expr(index, out);
        }
        ExprKind::Member { base, .. } => collect_addr_taken_expr(base, out),
        ExprKind::Cast { expr, .. } => collect_addr_taken_expr(expr, out),
        ExprKind::SizeofExpr(_) => {
            // The operand of sizeof is not evaluated; taking an address
            // inside it has no runtime effect.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Source};
    use impact_il::{module_to_string, verify_module};

    fn compile_one(src: &str) -> Module {
        let m = compile(&[Source::new("t.c", src)]).expect("compiles");
        verify_module(&m).expect("verifies");
        m
    }

    fn compile_fail(src: &str) -> CompileError {
        compile(&[Source::new("t.c", src)]).expect_err("should fail")
    }

    fn il_text(src: &str) -> String {
        let m = compile_one(src);
        module_to_string(&m)
    }

    #[test]
    fn lowers_arithmetic_function() {
        let text = il_text("int add(int a, int b) { return a + b; }");
        assert!(text.contains("add r0, r1"), "got:\n{text}");
        assert!(text.contains("ret r"), "got:\n{text}");
    }

    #[test]
    fn register_allocates_scalar_locals() {
        let m = compile_one("int f() { int x; x = 5; return x; }");
        assert!(m.functions[0].slots.is_empty());
    }

    #[test]
    fn address_taken_local_gets_slot() {
        let m = compile_one(
            "void set(int *p) { *p = 3; }\n\
             int f() { int x; set(&x); return x; }",
        );
        let f = m.func_by_name("f").unwrap();
        assert_eq!(m.function(f).slots.len(), 1);
    }

    #[test]
    fn arrays_get_slots_with_size() {
        let m = compile_one("int f() { char buf[64]; buf[0] = 1; return buf[0]; }");
        assert_eq!(m.functions[0].slots[0].size, 64);
    }

    #[test]
    fn string_literals_are_interned_and_deduped() {
        let m = compile_one(
            "extern void __puts(char *s);\n\
             void f() { __puts(\"hi\"); __puts(\"hi\"); __puts(\"ho\"); }",
        );
        // Two distinct string globals.
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0].init, b"hi\0".to_vec());
    }

    #[test]
    fn direct_extern_and_indirect_calls() {
        let text = il_text(
            "extern int __fgetc(int fd);\n\
             int id(int x) { return x; }\n\
             int main() {\n\
               int (*f)(int);\n\
               f = id;\n\
               return f(__fgetc(0)) + id(1);\n\
             }",
        );
        assert!(text.contains(":__fgetc("), "got:\n{text}");
        assert!(text.contains(":id("), "got:\n{text}");
        assert!(text.contains(" *r"), "got:\n{text}"); // indirect
    }

    #[test]
    fn an_extern_prototype_of_a_defined_function_declares_it() {
        let m = compile_one(
            "extern int g(int);\n\
             int main() { return g(3); }\n\
             int g(int x) { return x + 39; }",
        );
        assert!(m.externs.is_empty());
        let e = compile_fail("extern long g(int); int g(int x) { return x; }");
        assert_eq!(e.message, "extern `g` redeclared with a different type");
    }

    #[test]
    fn call_sites_are_unique() {
        let m = compile_one(
            "int g(int x) { return x; }\n\
             int main() { return g(1) + g(2) + g(3); }",
        );
        let sites: Vec<_> = m.all_call_sites().iter().map(|s| s.1).collect();
        let mut dedup = sites.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(sites.len(), 3);
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let text = il_text("int get(int *p, int i) { return p[i]; }");
        // Scale by 4 = element size.
        assert!(text.contains("const 4"), "got:\n{text}");
        assert!(text.contains("mul"), "got:\n{text}");
        assert!(text.contains("load.w4s"), "got:\n{text}");
    }

    #[test]
    fn char_access_uses_w1() {
        let text = il_text("char get(char *p) { return *p; }");
        assert!(text.contains("load.w1s"), "got:\n{text}");
    }

    #[test]
    fn unsigned_char_zero_extends() {
        let text = il_text("int get(unsigned char *p) { return *p; }");
        assert!(text.contains("load.w1u"), "got:\n{text}");
    }

    #[test]
    fn unsigned_division_uses_udiv() {
        let text = il_text("unsigned f(unsigned a, unsigned b) { return a / b; }");
        assert!(text.contains("udiv"), "got:\n{text}");
    }

    #[test]
    fn signed_division_uses_div() {
        let text = il_text("int f(int a, int b) { return a / b; }");
        assert!(text.contains("= div"), "got:\n{text}");
    }

    #[test]
    fn unsigned_comparison_uses_unsigned_ops() {
        let text = il_text("int f(unsigned a, unsigned b) { return a < b; }");
        assert!(text.contains("ult"), "got:\n{text}");
    }

    #[test]
    fn pointer_comparison_is_unsigned() {
        let text = il_text("int f(char *a, char *b) { return a < b; }");
        assert!(text.contains("ult"), "got:\n{text}");
    }

    #[test]
    fn struct_member_access_uses_offsets() {
        let text = il_text(
            "struct pair { int a; int b; };\n\
             int get_b(struct pair *p) { return p->b; }",
        );
        assert!(text.contains("const 4"), "got:\n{text}"); // offset of b
    }

    #[test]
    fn nested_struct_and_dot_access() {
        let text = il_text(
            "struct inner { int x; int y; };\n\
             struct outer { int tag; struct inner in; };\n\
             struct outer g;\n\
             int f() { return g.in.y; }",
        );
        // offset of `in` = 4, offset of y within inner = 4.
        assert!(text.contains("const 4"), "got:\n{text}");
    }

    #[test]
    fn global_scalar_init_encoded() {
        let m = compile_one("int x = 0x11223344;");
        assert_eq!(m.globals[0].init, vec![0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn global_initializers_take_any_constant_expression() {
        let m = compile_one(
            "int a = 3 < 4; int b = (1 && 0) ? 10 : 20; int c = (7, 2 >= 2 || 0);\n\
             int d = sizeof(int) > -1; long e = -8 / sizeof(int);",
        );
        assert_eq!(m.globals[0].init, vec![1, 0, 0, 0]);
        assert_eq!(m.globals[1].init, vec![20, 0, 0, 0]);
        assert_eq!(m.globals[2].init, vec![1, 0, 0, 0]);
        // `sizeof` is `unsigned long`, so -1 converts to the largest
        // value and the comparison and division are unsigned.
        assert_eq!(m.globals[3].init, vec![0, 0, 0, 0]);
        let e = ((-8i64 as u64) / 4).to_le_bytes().to_vec();
        assert_eq!(m.globals[4].init, e);
        let e = compile_fail("int f = 1 / 0;");
        assert!(e.message.contains("division by zero"), "{}", e.message);
    }

    #[test]
    fn global_array_init_encoded() {
        let m = compile_one("short t[3] = {1, 2};");
        assert_eq!(m.globals[0].size, 6);
        assert_eq!(m.globals[0].init, vec![1, 0, 2, 0, 0, 0]);
    }

    #[test]
    fn global_char_array_from_string() {
        let m = compile_one("char msg[] = \"ok\";");
        assert_eq!(m.globals[0].size, 3);
        assert_eq!(m.globals[0].init, b"ok\0".to_vec());
    }

    #[test]
    fn global_function_pointer_table_relocs() {
        let m = compile_one(
            "int add(int a, int b) { return a + b; }\n\
             int sub(int a, int b) { return a - b; }\n\
             int (*ops[2])(int, int) = {add, sub};",
        );
        let g = &m.globals[0];
        assert_eq!(g.func_relocs.len(), 2);
        assert_eq!(g.func_relocs[0], (0, FuncId(0)));
        assert_eq!(g.func_relocs[1], (8, FuncId(1)));
    }

    #[test]
    fn sizeof_expr_is_constant_without_code() {
        let m = compile_one("int f() { int a[10]; return sizeof a + sizeof a[0]; }");
        // No loads emitted for the sizeof operands: result folds from consts.
        let text = module_to_string(&m);
        assert!(text.contains("const 40"), "got:\n{text}");
        assert!(text.contains("const 4"), "got:\n{text}");
    }

    #[test]
    fn short_circuit_and_does_not_eval_rhs() {
        // Structure check: `a && b()` must branch before calling b.
        let text = il_text(
            "int b() { return 1; }\n\
             int f(int a) { return a && b(); }",
        );
        let branch_pos = text.find("branch").expect("has branch");
        let call_pos = text.find("call").expect("has call");
        assert!(branch_pos < call_pos, "got:\n{text}");
    }

    #[test]
    fn conditional_expression_produces_single_result() {
        let m = compile_one("int f(int c) { return c ? 10 : 20; }");
        let text = module_to_string(&m);
        assert!(text.contains("const 10"));
        assert!(text.contains("const 20"));
    }

    #[test]
    fn switch_lowering_compares_each_case() {
        let text = il_text(
            "int f(int x) {\n\
               switch (x) { case 1: return 10; case 2: return 20; default: return 0; }\n\
             }",
        );
        assert!(text.contains("const 1"));
        assert!(text.contains("const 2"));
        assert!(text.matches("= eq").count() >= 2, "got:\n{text}");
    }

    #[test]
    fn switch_fallthrough_jumps_to_next_body() {
        // Verified behaviourally later in the VM tests; structurally the
        // first case body must end with a jump (not return).
        let m = compile_one(
            "int f(int x) {\n\
               int n; n = 0;\n\
               switch (x) { case 1: n += 1; case 2: n += 2; break; }\n\
               return n;\n\
             }",
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn post_increment_returns_old_value() {
        let text = il_text("int f(int x) { return x++; }");
        // A temp mov saves the old value.
        assert!(text.contains("= r0"), "got:\n{text}");
    }

    #[test]
    fn compound_assign_on_pointer_scales() {
        let text = il_text("char *f(int *p) { p += 2; return (char*)p; }");
        assert!(text.contains("const 4"), "got:\n{text}");
    }

    #[test]
    fn narrow_cast_emits_ext() {
        let text = il_text("int f(int x) { return (char)x; }");
        assert!(text.contains("ext.w1s"), "got:\n{text}");
    }

    #[test]
    fn unsigned_cast_emits_zero_ext() {
        let text = il_text("int f(int x) { return (unsigned char)x; }");
        assert!(text.contains("ext.w1u"), "got:\n{text}");
    }

    #[test]
    fn store_to_narrow_register_var_truncates() {
        let text = il_text("int f(int x) { char c; c = x; return c; }");
        assert!(text.contains("ext.w1s"), "got:\n{text}");
    }

    #[test]
    fn rejects_unknown_identifier() {
        let e = compile_fail("int f() { return nope; }");
        assert!(e.message.contains("unknown identifier"));
    }

    #[test]
    fn rejects_unknown_function() {
        let e = compile_fail("int f() { return nope(1); }");
        assert!(e.message.contains("unknown function"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let e = compile_fail("int g(int a) { return a; } int f() { return g(1, 2); }");
        assert!(e.message.contains("takes"), "{}", e.message);
    }

    #[test]
    fn rejects_void_misuse() {
        let e = compile_fail("void g() {} int f() { return g() + 1; }");
        assert!(e.message.contains("void"), "{}", e.message);
    }

    #[test]
    fn rejects_return_value_from_void() {
        let e = compile_fail("void f() { return 3; }");
        assert!(e.message.contains("void function returns a value"));
    }

    #[test]
    fn rejects_missing_return_value() {
        let e = compile_fail("int f() { return; }");
        assert!(e.message.contains("returns no value"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = compile_fail("int f() { break; return 0; }");
        assert!(e.message.contains("break"));
    }

    #[test]
    fn rejects_duplicate_case() {
        let e = compile_fail("int f(int x) { switch (x) { case 1: case 1: break; } return 0; }");
        assert!(e.message.contains("duplicate case"));
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        let e = compile_fail("int f(int x) { (x + 1) = 2; return x; }");
        assert!(e.message.contains("not assignable"));
    }

    #[test]
    fn rejects_struct_by_value() {
        let e = compile_fail(
            "struct s { int a; };\n\
             struct s g;\n\
             int f() { struct s local; local = g; return 0; }",
        );
        assert!(
            e.message.contains("struct") || e.message.contains("assign"),
            "{}",
            e.message
        );
    }

    #[test]
    fn rejects_redefinition() {
        let e = compile_fail("int x; int x;");
        assert!(e.message.contains("redefined"));
    }

    #[test]
    fn rejects_deref_of_non_pointer() {
        let e = compile_fail("int f(int x) { return *x; }");
        assert!(e.message.contains("dereference"));
    }

    #[test]
    fn rejects_unknown_member() {
        let e = compile_fail(
            "struct s { int a; };\n\
             int f(struct s *p) { return p->b; }",
        );
        assert!(e.message.contains("no member"));
    }

    #[test]
    fn fallthrough_function_gets_implicit_return() {
        let m = compile_one("void f(int x) { x = x + 1; }");
        let text = module_to_string(&m);
        assert!(text.contains("ret\n"), "got:\n{text}");
    }

    #[test]
    fn deref_of_function_pointer_calls_through() {
        let m = compile_one(
            "int id(int x) { return x; }\n\
             int main() { int (*f)(int); f = &id; return (*f)(7); }",
        );
        let text = module_to_string(&m);
        assert!(text.contains("call cs0 *r"), "got:\n{text}");
    }

    #[test]
    fn multi_source_compilation_shares_symbols() {
        let m = compile(&[
            Source::new("a.c", "int helper(int x) { return x * 2; }"),
            Source::new("b.c", "int helper(int); int main() { return helper(21); }"),
        ])
        .expect("compiles");
        verify_module(&m).expect("verifies");
        assert_eq!(m.functions.len(), 2);
    }

    #[test]
    fn local_array_brace_init_stores_and_zero_fills() {
        let text = il_text("int f() { int a[4] = {7, 8}; return a[3]; }");
        assert!(text.contains("const 7"));
        assert!(text.contains("const 8"));
        // Zero fill present.
        assert!(text.contains("const 0"), "got:\n{text}");
    }

    #[test]
    fn comma_expression_evaluates_both() {
        let m = compile_one("int f(int a) { int b; b = (a = 3, a + 1); return b; }");
        verify_module(&m).unwrap();
    }

    #[test]
    fn global_pointer_initialized_with_function() {
        let m = compile_one(
            "int h(int x) { return x; }\n\
             int (*fp)(int) = h;",
        );
        assert_eq!(m.globals[0].func_relocs, vec![(0, FuncId(0))]);
    }
}
