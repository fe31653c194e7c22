//! The AmuletC abstract syntax tree.

use crate::token::Loc;
use crate::types::Type;

/// A whole translation unit (one application's source).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Global variable declarations, in source order.
    pub globals: Vec<GlobalDecl>,
    /// Function definitions, in source order.
    pub functions: Vec<Function>,
}

/// A global variable declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Initialiser values (a single value for scalars, one per element for
    /// arrays; shorter initialiser lists are zero-extended as in C).
    pub init: Vec<i64>,
    /// Source location.
    pub loc: Loc,
}

/// A function parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// Source location of the definition.
    pub loc: Loc,
}

/// A brace-delimited block.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// A local variable declaration, possibly with an initialiser.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initialiser expression.
        init: Option<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// An expression evaluated for its side effects.
    Expr(Expr),
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_block: Block,
        /// Optional else-branch.
        else_block: Option<Block>,
    },
    /// `while (cond) { .. }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `for (init; cond; step) { .. }`.
    For {
        /// Optional initialiser (declaration or expression statement).
        init: Option<Box<Stmt>>,
        /// Optional condition (defaults to true).
        cond: Option<Expr>,
        /// Optional step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `return expr;` / `return;`.
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// `break;`.
    Break(Loc),
    /// `continue;`.
    Continue(Loc),
    /// A nested block.
    Block(Block),
    /// `goto label;` — parsed so the feature analysis can reject it with a
    /// useful diagnostic, never compiled.
    Goto {
        /// Target label name.
        label: String,
        /// Source location.
        loc: Loc,
    },
    /// `asm("...");` — parsed so the feature analysis can reject it, never
    /// compiled.
    Asm {
        /// The assembly text.
        text: String,
        /// Source location.
        loc: Loc,
    },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`).
    LogicalNot,
    /// Bitwise complement (`~`).
    BitNot,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (short-circuit)
    LogicalAnd,
    /// `||` (short-circuit)
    LogicalOr,
}

impl BinOp {
    /// Whether the operator produces a boolean (0/1) result.
    pub(crate) fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer (or character) literal.
    IntLit {
        /// The value.
        value: i64,
        /// Source location.
        loc: Loc,
    },
    /// A variable or function reference.
    Ident {
        /// The name.
        name: String,
        /// Source location.
        loc: Loc,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Assignment (`=`, `+=`, `-=`), and the `++`/`--` sugar.
    Assign {
        /// Assignment target (identifier, array element or dereference).
        target: Box<Expr>,
        /// Value expression.
        value: Box<Expr>,
        /// Compound operator, when the assignment is `+=`/`-=` style.
        op: Option<BinOp>,
        /// Source location.
        loc: Loc,
    },
    /// Array indexing (`base[index]`).
    Index {
        /// Array or pointer expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Function call (direct or through a function pointer).
    Call {
        /// Callee expression (an identifier for direct calls).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Pointer dereference (`*ptr`).
    Deref {
        /// Pointer expression.
        expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
    /// Address-of (`&lvalue`).
    AddrOf {
        /// Operand (identifier, array element or dereference).
        expr: Box<Expr>,
        /// Source location.
        loc: Loc,
    },
}

impl Expr {
    /// The source location of the expression.
    pub(crate) fn loc(&self) -> Loc {
        match self {
            Expr::IntLit { loc, .. }
            | Expr::Ident { loc, .. }
            | Expr::Unary { loc, .. }
            | Expr::Binary { loc, .. }
            | Expr::Assign { loc, .. }
            | Expr::Index { loc, .. }
            | Expr::Call { loc, .. }
            | Expr::Deref { loc, .. }
            | Expr::AddrOf { loc, .. } => *loc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::LogicalAnd.is_comparison());
    }
}
