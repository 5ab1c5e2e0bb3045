//! The translation unit: functions, globals, and external declarations.

use std::collections::{HashMap, HashSet};

use crate::function::Function;
use crate::ids::{CallSiteId, ExternId, FuncId, GlobalId};
use crate::inst::{Callee, Inst};

/// A global variable with optional initial bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Global {
    /// Source-level name (unique within the module).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Alignment in bytes (power of two).
    pub align: u64,
    /// Initial contents; bytes beyond `init.len()` are zero.
    pub init: Vec<u8>,
    /// Function-pointer relocations: at byte `offset`, the loader writes
    /// the runtime address of `func` (8 bytes). This is how dispatch
    /// tables — the source of the paper's call-through-pointer arcs —
    /// are initialized.
    pub func_relocs: Vec<(u64, FuncId)>,
}

impl Global {
    /// A zero-initialized global.
    pub fn zeroed(name: impl Into<String>, size: u64, align: u64) -> Self {
        Global {
            name: name.into(),
            size,
            align,
            init: Vec::new(),
            func_relocs: Vec::new(),
        }
    }

    /// A global initialized with the given bytes.
    pub fn with_bytes(name: impl Into<String>, bytes: Vec<u8>, align: u64) -> Self {
        Global {
            name: name.into(),
            size: bytes.len() as u64,
            align,
            init: bytes,
            func_relocs: Vec::new(),
        }
    }
}

/// Declaration of an external function: a routine whose body the compiler
/// cannot see (the paper's system calls and closed libraries, §2.5).
///
/// The VM implements these as builtins; the inliner can never expand them
/// and must assume the worst about what they call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExternDecl {
    /// Name, e.g. `__fgetc`.
    pub name: String,
    /// Number of parameters.
    pub num_params: u32,
    /// Whether the function produces a return value.
    pub has_ret: bool,
}

/// A whole program in IL form.
///
/// `Module` is the unit the profiler executes and the inliner transforms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// Function bodies; indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Global variables; indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// External declarations; indexed by [`ExternId`].
    pub externs: Vec<ExternDecl>,
    next_call_site: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module::default()
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(f);
        id
    }

    /// Adds a global and returns its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId::from_index(self.globals.len());
        self.globals.push(g);
        id
    }

    /// Adds an external declaration and returns its id.
    pub fn add_extern(&mut self, e: ExternDecl) -> ExternId {
        let id = ExternId::from_index(self.externs.len());
        self.externs.push(e);
        id
    }

    /// Allocates a module-unique call-site id.
    ///
    /// Call sites are never reused, so ids stay unique even as inline
    /// expansion clones call instructions.
    pub fn fresh_call_site(&mut self) -> CallSiteId {
        let id = CallSiteId(self.next_call_site);
        self.next_call_site += 1;
        id
    }

    /// Number of call-site ids ever allocated (an upper bound for dense
    /// per-site tables).
    pub fn call_site_limit(&self) -> u32 {
        self.next_call_site
    }

    /// Shared access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks up a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// The program entry point, `main` (the paper's call-graph root).
    pub fn main_id(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Total static code size in IL instructions.
    pub fn total_size(&self) -> u64 {
        self.functions.iter().map(Function::size).sum()
    }

    /// All functions whose address is taken anywhere: by an `AddrOfFunc`
    /// instruction or a global-initializer relocation.
    ///
    /// This is the paper's "maximum set … of all functions whose addresses
    /// have been used in computation" — the conservative target set for
    /// calls through pointers (§2.5).
    pub fn address_taken_funcs(&self) -> HashSet<FuncId> {
        let mut set = HashSet::new();
        for g in &self.globals {
            for (_, f) in &g.func_relocs {
                set.insert(*f);
            }
        }
        for f in &self.functions {
            f.for_each_inst(|i| {
                if let Inst::AddrOfFunc { func, .. } = i {
                    set.insert(*func);
                }
            });
        }
        set
    }

    /// Iterates every static call site in the module as
    /// `(caller, site, callee)`.
    pub fn all_call_sites(&self) -> Vec<(FuncId, CallSiteId, Callee)> {
        let mut out = Vec::new();
        for (fi, f) in self.functions.iter().enumerate() {
            for (_, _, site, callee) in f.call_sites() {
                out.push((FuncId::from_index(fi), site, callee));
            }
        }
        out
    }

    /// A map from call-site id to its caller function.
    pub fn site_callers(&self) -> HashMap<CallSiteId, FuncId> {
        self.all_call_sites()
            .into_iter()
            .map(|(caller, site, _)| (site, caller))
            .collect()
    }

    /// Whether the module contains any call to an external function.
    ///
    /// When it does, the worst-case assumptions of §2.5 kick in: every
    /// function must be presumed reachable and callable through pointers.
    pub fn has_external_calls(&self) -> bool {
        self.functions.iter().any(|f| {
            f.call_sites()
                .any(|(_, _, _, callee)| matches!(callee, Callee::Ext(_)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;
    use crate::inst::Terminator;

    fn module_with_two_funcs() -> Module {
        let mut m = Module::new();
        m.add_function(Function::new("main", 0));
        m.add_function(Function::new("helper", 1));
        m
    }

    #[test]
    fn lookup_by_name() {
        let m = module_with_two_funcs();
        assert_eq!(m.func_by_name("helper"), Some(FuncId(1)));
        assert_eq!(m.func_by_name("missing"), None);
        assert_eq!(m.main_id(), Some(FuncId(0)));
    }

    #[test]
    fn fresh_call_sites_are_unique() {
        let mut m = Module::new();
        let a = m.fresh_call_site();
        let b = m.fresh_call_site();
        assert_ne!(a, b);
        assert_eq!(m.call_site_limit(), 2);
    }

    #[test]
    fn address_taken_via_inst_and_reloc() {
        let mut m = module_with_two_funcs();
        let entry = m.function(FuncId(0)).entry();
        let r = m.function_mut(FuncId(0)).new_reg();
        m.function_mut(FuncId(0))
            .block_mut(entry)
            .insts
            .push(Inst::AddrOfFunc {
                dst: r,
                func: FuncId(1),
            });
        let mut g = Global::zeroed("table", 8, 8);
        g.func_relocs.push((0, FuncId(0)));
        m.add_global(g);
        let taken = m.address_taken_funcs();
        assert!(taken.contains(&FuncId(0)));
        assert!(taken.contains(&FuncId(1)));
    }

    #[test]
    fn total_size_sums_functions() {
        let m = module_with_two_funcs();
        assert_eq!(m.total_size(), 2); // two bare Return terminators
    }

    #[test]
    fn has_external_calls_detects_ext_callee() {
        let mut m = module_with_two_funcs();
        assert!(!m.has_external_calls());
        let x = m.add_extern(ExternDecl {
            name: "__putc".into(),
            num_params: 1,
            has_ret: false,
        });
        let site = m.fresh_call_site();
        let f = m.function_mut(FuncId(0));
        let r = f.new_reg();
        let entry = f.entry();
        f.block_mut(entry)
            .insts
            .push(Inst::Const { dst: r, value: 65 });
        f.block_mut(entry).insts.push(Inst::Call {
            site,
            callee: Callee::Ext(x),
            args: vec![r],
            dst: None,
        });
        f.block_mut(entry).term = Terminator::Return(None);
        assert!(m.has_external_calls());
    }

    #[test]
    fn all_call_sites_lists_caller_and_callee() {
        let mut m = module_with_two_funcs();
        let site = m.fresh_call_site();
        let entry = m.function(FuncId(0)).entry();
        m.function_mut(FuncId(0))
            .block_mut(entry)
            .insts
            .push(Inst::Call {
                site,
                callee: Callee::Func(FuncId(1)),
                args: vec![Reg(0)],
                dst: None,
            });
        let sites = m.all_call_sites();
        assert_eq!(sites, vec![(FuncId(0), site, Callee::Func(FuncId(1)))]);
        assert_eq!(m.site_callers()[&site], FuncId(0));
    }
}
