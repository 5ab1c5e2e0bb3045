//! The C subset's type system: representation, sizing, and layout.

use std::fmt;

use impact_il::{BinOp, CmpOp};

use crate::ast::BinaryOp;

/// Identifies a struct definition within a [`TypeTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StructId(pub u32);

/// Integer kinds, carrying both width and signedness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntKind {
    /// `char` (signed, 1 byte).
    I8,
    /// `unsigned char`.
    U8,
    /// `short` (2 bytes).
    I16,
    /// `unsigned short`.
    U16,
    /// `int` (4 bytes).
    I32,
    /// `unsigned int`.
    U32,
    /// `long` (8 bytes).
    I64,
    /// `unsigned long`.
    U64,
}

impl IntKind {
    /// Size in bytes.
    pub fn size(self) -> u64 {
        match self {
            IntKind::I8 | IntKind::U8 => 1,
            IntKind::I16 | IntKind::U16 => 2,
            IntKind::I32 | IntKind::U32 => 4,
            IntKind::I64 | IntKind::U64 => 8,
        }
    }

    /// Whether values of this kind are signed.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            IntKind::I8 | IntKind::I16 | IntKind::I32 | IntKind::I64
        )
    }

    /// The unsigned kind of the same width.
    pub fn to_unsigned(self) -> IntKind {
        match self {
            IntKind::I8 | IntKind::U8 => IntKind::U8,
            IntKind::I16 | IntKind::U16 => IntKind::U16,
            IntKind::I32 | IntKind::U32 => IntKind::U32,
            IntKind::I64 | IntKind::U64 => IntKind::U64,
        }
    }
}

/// The type of a function, used behind function pointers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FuncType {
    /// Return type ([`CType::Void`] for none).
    pub ret: CType,
    /// Parameter types, in order.
    pub params: Vec<CType>,
}

/// A type in the C subset.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CType {
    /// `void` — only as a return type or behind a pointer.
    Void,
    /// Integer types.
    Int(IntKind),
    /// Pointer to `T`.
    Ptr(Box<CType>),
    /// Fixed-size array `T[n]`.
    Array(Box<CType>, u64),
    /// A struct by id; layout lives in the [`TypeTable`].
    Struct(StructId),
    /// A function type; appears only behind [`CType::Ptr`] or as the type
    /// of a function designator.
    Func(Box<FuncType>),
}

impl CType {
    /// `int` — the default arithmetic type.
    pub fn int() -> CType {
        CType::Int(IntKind::I32)
    }

    /// `char`.
    pub fn char() -> CType {
        CType::Int(IntKind::I8)
    }

    /// `long`.
    pub fn long() -> CType {
        CType::Int(IntKind::I64)
    }

    /// Pointer to `self`.
    pub fn ptr_to(self) -> CType {
        CType::Ptr(Box::new(self))
    }

    /// Whether this is any integer type.
    pub fn is_integer(&self) -> bool {
        matches!(self, CType::Int(_))
    }

    /// Whether this is a pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, CType::Ptr(_))
    }

    /// Whether this type can appear in a scalar context (conditions,
    /// arithmetic operands after decay): integers and pointers.
    pub fn is_scalar(&self) -> bool {
        self.is_integer() || self.is_pointer()
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self) -> Option<&CType> {
        match self {
            CType::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// Applies array-to-pointer and function-to-pointer decay, returning
    /// the adjusted type (C's usual conversions for rvalue contexts).
    pub fn decayed(&self) -> CType {
        match self {
            CType::Array(elem, _) => CType::Ptr(elem.clone()),
            CType::Func(ft) => CType::Ptr(Box::new(CType::Func(ft.clone()))),
            other => other.clone(),
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CType::Void => write!(f, "void"),
            CType::Int(IntKind::I8) => write!(f, "char"),
            CType::Int(IntKind::U8) => write!(f, "unsigned char"),
            CType::Int(IntKind::I16) => write!(f, "short"),
            CType::Int(IntKind::U16) => write!(f, "unsigned short"),
            CType::Int(IntKind::I32) => write!(f, "int"),
            CType::Int(IntKind::U32) => write!(f, "unsigned int"),
            CType::Int(IntKind::I64) => write!(f, "long"),
            CType::Int(IntKind::U64) => write!(f, "unsigned long"),
            CType::Ptr(t) => write!(f, "{t}*"),
            CType::Array(t, n) => write!(f, "{t}[{n}]"),
            CType::Struct(id) => write!(f, "struct#{}", id.0),
            CType::Func(ft) => {
                write!(f, "{}(", ft.ret)?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One struct member with its computed byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Member name.
    pub name: String,
    /// Member type.
    pub ty: CType,
    /// Byte offset from the start of the struct.
    pub offset: u64,
}

/// A struct definition, possibly still a forward declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructDef {
    /// Tag name (`struct name`).
    pub name: String,
    /// Members in declaration order (empty while forward-declared).
    pub fields: Vec<Field>,
    /// Total size in bytes, padded to alignment.
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
    /// Whether the member list has been provided. Pointers to undefined
    /// structs are usable (self-referential lists); by-value use is not.
    pub defined: bool,
}

impl StructDef {
    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Owns all struct definitions of a compilation and answers size/alignment
/// queries for every type.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    structs: Vec<StructDef>,
}

impl TypeTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TypeTable::default()
    }

    /// Forward-declares a struct tag, returning its id. The struct can be
    /// pointed to immediately; [`TypeTable::complete_struct`] supplies the
    /// member list later.
    pub fn declare_struct(&mut self, name: impl Into<String>) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(StructDef {
            name: name.into(),
            fields: Vec::new(),
            size: 0,
            align: 1,
            defined: false,
        });
        id
    }

    /// Supplies the member list for a forward-declared struct, computing
    /// byte offsets and padding.
    ///
    /// Returns `false` (leaving the struct undefined) if any member has an
    /// unsized type (`void`, a bare function type, or a still-undefined
    /// struct used by value).
    pub fn complete_struct(&mut self, id: StructId, members: Vec<(String, CType)>) -> bool {
        let mut fields = Vec::with_capacity(members.len());
        let mut offset = 0u64;
        let mut align = 1u64;
        for (fname, ty) in members {
            let (Some(fsize), Some(falign)) = (self.size_of(&ty), self.align_of(&ty)) else {
                return false;
            };
            offset = offset.next_multiple_of(falign);
            fields.push(Field {
                name: fname,
                ty,
                offset,
            });
            offset += fsize;
            align = align.max(falign);
        }
        let def = &mut self.structs[id.0 as usize];
        def.fields = fields;
        def.size = offset.next_multiple_of(align).max(1);
        def.align = align;
        def.defined = true;
        true
    }

    /// Declares and immediately completes a struct.
    ///
    /// Returns `None` if any field has an unsized type (e.g. `void`).
    pub fn define_struct(
        &mut self,
        name: impl Into<String>,
        members: Vec<(String, CType)>,
    ) -> Option<StructId> {
        let id = self.declare_struct(name);
        if self.complete_struct(id, members) {
            Some(id)
        } else {
            self.structs.pop();
            None
        }
    }

    /// Looks up a struct definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.0 as usize]
    }

    /// Finds a struct id by tag name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| StructId(i as u32))
    }

    /// Size of a type in bytes; `None` for unsized types (`void`, bare
    /// function types).
    pub fn size_of(&self, ty: &CType) -> Option<u64> {
        match ty {
            CType::Void | CType::Func(_) => None,
            CType::Int(k) => Some(k.size()),
            CType::Ptr(_) => Some(8),
            CType::Array(elem, n) => Some(self.size_of(elem)? * n),
            CType::Struct(id) => {
                let def = self.struct_def(*id);
                if def.defined {
                    Some(def.size)
                } else {
                    None
                }
            }
        }
    }

    /// Alignment of a type in bytes; `None` for unsized types.
    pub fn align_of(&self, ty: &CType) -> Option<u64> {
        match ty {
            CType::Void | CType::Func(_) => None,
            CType::Int(k) => Some(k.size()),
            CType::Ptr(_) => Some(8),
            CType::Array(elem, _) => self.align_of(elem),
            CType::Struct(id) => {
                let def = self.struct_def(*id);
                if def.defined {
                    Some(def.align)
                } else {
                    None
                }
            }
        }
    }
}

/// The usual arithmetic conversions: both operands are integer-promoted,
/// the wider kind wins, and unsignedness wins ties at the final width.
pub fn usual_arith(a: IntKind, b: IntKind) -> IntKind {
    let a = promote(a);
    let b = promote(b);
    let width = a.size().max(b.size());
    let unsigned = (!a.is_signed() && a.size() == width) || (!b.is_signed() && b.size() == width);
    match (width, unsigned) {
        (4, false) => IntKind::I32,
        (4, true) => IntKind::U32,
        (8, false) => IntKind::I64,
        (_, _) => IntKind::U64,
    }
}

/// The type of `c ? a : b` from its branches' decayed types: `void` if
/// either is, the usual arithmetic conversions for two integers, and
/// otherwise the pointer side (the `a` side if both or neither are).
pub(crate) fn conditional_type(a: &CType, b: &CType) -> CType {
    match (a, b) {
        (CType::Void, _) | (_, CType::Void) => CType::Void,
        (CType::Int(x), CType::Int(y)) => CType::Int(usual_arith(*x, *y)),
        (_, CType::Ptr(_)) if !a.is_pointer() => b.clone(),
        _ => a.clone(),
    }
}

/// Integer promotion: anything narrower than `int` becomes `int`.
pub fn promote(k: IntKind) -> IntKind {
    if k.size() < 4 {
        IntKind::I32
    } else {
        k
    }
}

/// The kind C gives an integer literal of value `v` in this data model
/// (32-bit `int`, 64-bit `long`): the first of `int`, `unsigned int`,
/// `long` and `unsigned long` that holds `v`. A `u` suffix skips the
/// signed kinds, an `l` suffix the 32-bit ones, and an unsuffixed decimal
/// literal skips `unsigned int`.
pub(crate) fn literal_kind(v: u64, decimal: bool, unsigned: bool, long: bool) -> IntKind {
    let skipped = |k: IntKind| {
        (unsigned && k.is_signed())
            || (long && k.size() == 4)
            || (decimal && !unsigned && k == IntKind::U32)
    };
    let holds = |k: IntKind| u128::from(v) >> (k.size() * 8 - u64::from(k.is_signed())) == 0;
    [IntKind::I32, IntKind::U32, IntKind::I64, IntKind::U64]
        .into_iter()
        .find(|&k| !skipped(k) && holds(k))
        .unwrap_or(IntKind::U64)
}

/// The IL comparison a C comparison lowers to, unsigned when its operands
/// compare unsigned; `None` when `op` is not a comparison.
pub(crate) fn cmp_op(op: BinaryOp, unsigned: bool) -> Option<CmpOp> {
    use BinaryOp as B;
    Some(match (op, unsigned) {
        (B::Eq, _) => CmpOp::Eq,
        (B::Ne, _) => CmpOp::Ne,
        (B::Lt, false) => CmpOp::SLt,
        (B::Lt, true) => CmpOp::ULt,
        (B::Le, false) => CmpOp::SLe,
        (B::Le, true) => CmpOp::ULe,
        (B::Gt, false) => CmpOp::SGt,
        (B::Gt, true) => CmpOp::UGt,
        (B::Ge, false) => CmpOp::SGe,
        (B::Ge, true) => CmpOp::UGe,
        _ => return None,
    })
}

/// The IL operator integer arithmetic `op` on operands of kinds `lk` and
/// `rk` lowers to, with the kind of its result: the usual arithmetic
/// conversions pick signed or unsigned division, and a shift takes the
/// promoted kind of its left operand. `None` for the comparison, logical
/// and comma operators.
pub(crate) fn arith_op(op: BinaryOp, lk: IntKind, rk: IntKind) -> Option<(BinOp, IntKind)> {
    use BinaryOp as B;
    let kind = usual_arith(lk, rk);
    let signed = kind.is_signed();
    Some(match op {
        B::Add => (BinOp::Add, kind),
        B::Sub => (BinOp::Sub, kind),
        B::Mul => (BinOp::Mul, kind),
        B::Div if signed => (BinOp::Div, kind),
        B::Div => (BinOp::UDiv, kind),
        B::Rem if signed => (BinOp::Rem, kind),
        B::Rem => (BinOp::URem, kind),
        B::BitAnd => (BinOp::And, kind),
        B::BitOr => (BinOp::Or, kind),
        B::BitXor => (BinOp::Xor, kind),
        B::Shl => (BinOp::Shl, promote(lk)),
        B::Shr if promote(lk).is_signed() => (BinOp::Shr, promote(lk)),
        B::Shr => (BinOp::UShr, promote(lk)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_kind_properties() {
        assert_eq!(IntKind::I8.size(), 1);
        assert!(IntKind::I8.is_signed());
        assert!(!IntKind::U32.is_signed());
        assert_eq!(IntKind::I32.to_unsigned(), IntKind::U32);
    }

    #[test]
    fn decay_rules() {
        let arr = CType::Array(Box::new(CType::int()), 10);
        assert_eq!(arr.decayed(), CType::int().ptr_to());
        let f = CType::Func(Box::new(FuncType {
            ret: CType::int(),
            params: vec![],
        }));
        assert!(matches!(f.decayed(), CType::Ptr(_)));
        assert_eq!(CType::long().decayed(), CType::long());
    }

    #[test]
    fn struct_layout_pads_and_aligns() {
        let mut tt = TypeTable::new();
        let id = tt
            .define_struct(
                "s",
                vec![
                    ("c".into(), CType::char()),
                    ("l".into(), CType::long()),
                    ("c2".into(), CType::char()),
                ],
            )
            .unwrap();
        let def = tt.struct_def(id);
        assert_eq!(def.fields[0].offset, 0);
        assert_eq!(def.fields[1].offset, 8);
        assert_eq!(def.fields[2].offset, 16);
        assert_eq!(def.size, 24);
        assert_eq!(def.align, 8);
    }

    #[test]
    fn nested_struct_layout() {
        let mut tt = TypeTable::new();
        let inner = tt
            .define_struct("inner", vec![("x".into(), CType::int())])
            .unwrap();
        let outer = tt
            .define_struct(
                "outer",
                vec![
                    ("c".into(), CType::char()),
                    ("i".into(), CType::Struct(inner)),
                ],
            )
            .unwrap();
        let def = tt.struct_def(outer);
        assert_eq!(def.fields[1].offset, 4);
        assert_eq!(def.size, 8);
    }

    #[test]
    fn sizes_of_arrays_and_pointers() {
        let tt = TypeTable::new();
        assert_eq!(tt.size_of(&CType::int()), Some(4));
        assert_eq!(
            tt.size_of(&CType::Array(Box::new(CType::char()), 13)),
            Some(13)
        );
        assert_eq!(tt.size_of(&CType::char().ptr_to()), Some(8));
        assert_eq!(tt.size_of(&CType::Void), None);
    }

    #[test]
    fn usual_arith_follows_c_rules() {
        assert_eq!(usual_arith(IntKind::I8, IntKind::I8), IntKind::I32);
        assert_eq!(usual_arith(IntKind::I32, IntKind::U32), IntKind::U32);
        assert_eq!(usual_arith(IntKind::U32, IntKind::I64), IntKind::I64);
        assert_eq!(usual_arith(IntKind::U64, IntKind::I32), IntKind::U64);
        // Narrow unsigned types promote to (signed) int, as in C.
        assert_eq!(usual_arith(IntKind::U8, IntKind::U8), IntKind::I32);
    }

    #[test]
    fn promotion_widens_to_int() {
        assert_eq!(promote(IntKind::I8), IntKind::I32);
        assert_eq!(promote(IntKind::U16), IntKind::I32);
        assert_eq!(promote(IntKind::U32), IntKind::U32);
        assert_eq!(promote(IntKind::I64), IntKind::I64);
    }

    #[test]
    fn forward_declared_struct_is_unsized_until_completed() {
        let mut tt = TypeTable::new();
        let id = tt.declare_struct("node");
        assert_eq!(tt.size_of(&CType::Struct(id)), None);
        // ...but a pointer to it is fine.
        assert_eq!(tt.size_of(&CType::Struct(id).ptr_to()), Some(8));
        assert!(tt.complete_struct(
            id,
            vec![
                ("v".into(), CType::int()),
                ("next".into(), CType::Struct(id).ptr_to()),
            ],
        ));
        assert_eq!(tt.size_of(&CType::Struct(id)), Some(16));
    }

    #[test]
    fn struct_with_unsized_member_fails() {
        let mut tt = TypeTable::new();
        assert!(tt
            .define_struct("bad", vec![("v".into(), CType::Void)])
            .is_none());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(CType::char().ptr_to().to_string(), "char*");
        assert_eq!(
            CType::Array(Box::new(CType::int()), 4).to_string(),
            "int[4]"
        );
    }
}
