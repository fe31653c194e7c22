//! The AmuletC type system.

use std::fmt;

/// An AmuletC type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Type {
    /// `void` (function returns only).
    Void,
    /// Signed 16-bit integer.
    Int,
    /// Unsigned 16-bit integer.
    Uint,
    /// 8-bit character.
    Char,
    /// Pointer to a value of the inner type.
    Ptr(Box<Type>),
    /// Array with a compile-time length.
    Array(Box<Type>, u32),
    /// Pointer to a function (AmuletC `fnptr`).  The signature is not
    /// tracked beyond "callable"; the security argument rests on the bounds
    /// checks, not on C's (unenforced) function-pointer typing.
    FnPtr,
}

impl Type {
    /// Size of a value of this type in bytes.
    pub(crate) fn size_bytes(&self) -> u32 {
        match self {
            Type::Void => 0,
            Type::Char => 1,
            Type::Int | Type::Uint | Type::Ptr(_) | Type::FnPtr => 2,
            Type::Array(elem, len) => elem.size_bytes() * len,
        }
    }

    /// Size of this type when it is pushed on the stack or stored in a
    /// register (sub-word types are widened to a word).
    pub(crate) fn stack_size_bytes(&self) -> u32 {
        match self {
            Type::Array(..) => self.size_bytes().max(2).div_ceil(2) * 2,
            _ => 2,
        }
    }

    /// Whether the type is an arithmetic scalar.
    pub(crate) fn is_arithmetic(&self) -> bool {
        matches!(self, Type::Int | Type::Uint | Type::Char)
    }

    /// Whether the type may appear in a condition or arithmetic context
    /// (scalars and pointers both may, as in C).
    pub(crate) fn is_scalar(&self) -> bool {
        self.is_arithmetic() || matches!(self, Type::Ptr(_) | Type::FnPtr)
    }

    /// Whether values of this type are compared / shifted as unsigned.
    pub(crate) fn is_unsigned(&self) -> bool {
        matches!(self, Type::Uint | Type::Char | Type::Ptr(_) | Type::FnPtr)
    }

    /// Element type when indexing or dereferencing, if any.
    pub(crate) fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(inner) => Some(inner),
            Type::Array(elem, _) => Some(elem),
            _ => None,
        }
    }

    /// The type of a load of one element (byte vs word).
    pub(crate) fn access_width_bytes(&self) -> u32 {
        match self {
            Type::Char => 1,
            _ => 2,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Uint => write!(f, "uint"),
            Type::Char => write!(f, "char"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
            Type::Array(elem, len) => write!(f, "{elem}[{len}]"),
            Type::FnPtr => write!(f, "fnptr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Type::Int.size_bytes(), 2);
        assert_eq!(Type::Char.size_bytes(), 1);
        assert_eq!(Type::Ptr(Box::new(Type::Char)).size_bytes(), 2);
        assert_eq!(Type::Array(Box::new(Type::Int), 10).size_bytes(), 20);
        assert_eq!(Type::Array(Box::new(Type::Char), 5).size_bytes(), 5);
        assert_eq!(Type::Array(Box::new(Type::Char), 5).stack_size_bytes(), 6);
    }

    #[test]
    fn classification() {
        assert!(Type::Int.is_arithmetic());
        assert!(!Type::Ptr(Box::new(Type::Int)).is_arithmetic());
        assert!(Type::Ptr(Box::new(Type::Int)).is_scalar());
        assert!(Type::Uint.is_unsigned());
        assert!(!Type::Int.is_unsigned());
        assert!(Type::FnPtr.is_scalar());
    }

    #[test]
    fn pointee_and_width() {
        let p = Type::Ptr(Box::new(Type::Char));
        assert_eq!(p.pointee(), Some(&Type::Char));
        assert_eq!(Type::Char.access_width_bytes(), 1);
        assert_eq!(Type::Int.access_width_bytes(), 2);
        let a = Type::Array(Box::new(Type::Int), 4);
        assert_eq!(a.pointee(), Some(&Type::Int));
        assert_eq!(Type::Int.pointee(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Type::Ptr(Box::new(Type::Int)).to_string(), "int*");
        assert_eq!(Type::Array(Box::new(Type::Uint), 8).to_string(), "uint[8]");
    }
}
