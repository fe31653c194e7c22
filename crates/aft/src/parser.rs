//! Recursive-descent parser for AmuletC.

use crate::ast::{BinOp, Block, Expr, Function, GlobalDecl, Param, Program, Stmt, UnOp};
use crate::token::{lex, Kw, Loc, Tok, Token};
use crate::types::Type;
use std::fmt;

/// A parse error with location information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// Where the error occurred.
    pub loc: Loc,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.loc, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole AmuletC translation unit.
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError {
        message: e.message,
        loc: e.loc,
    })?;
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn loc(&self) -> Loc {
        self.tokens[self.pos].loc
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Tok) -> Result<(), ParseError> {
        if self.peek() == expected {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{expected:?}`, found `{:?}`",
                self.peek()
            )))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError {
            message,
            loc: self.loc(),
        }
    }

    fn at_type_keyword(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(Kw::Int)
                | Tok::Kw(Kw::Uint)
                | Tok::Kw(Kw::Char)
                | Tok::Kw(Kw::Void)
                | Tok::Kw(Kw::Fnptr)
                | Tok::Kw(Kw::Const)
                | Tok::Kw(Kw::Static)
                | Tok::Kw(Kw::Unsigned)
        )
    }

    // type := (const|static)* (unsigned)? base '*'*
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        // Qualifiers carry no semantic weight in this dialect.
        while matches!(self.peek(), Tok::Kw(Kw::Const) | Tok::Kw(Kw::Static)) {
            self.bump();
        }
        let mut unsigned = false;
        if matches!(self.peek(), Tok::Kw(Kw::Unsigned)) {
            unsigned = true;
            self.bump();
        }
        let base = match self.bump() {
            Tok::Kw(Kw::Int) => {
                if unsigned {
                    Type::Uint
                } else {
                    Type::Int
                }
            }
            Tok::Kw(Kw::Uint) => Type::Uint,
            Tok::Kw(Kw::Char) => Type::Char,
            Tok::Kw(Kw::Void) => Type::Void,
            Tok::Kw(Kw::Fnptr) => Type::FnPtr,
            other => return Err(self.error(format!("expected a type, found `{other:?}`"))),
        };
        let mut ty = base;
        while matches!(self.peek(), Tok::Star) {
            self.bump();
            ty = Type::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    fn parse_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(name) => Ok(name),
            other => Err(self.error(format!("expected an identifier, found `{other:?}`"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            let loc = self.loc();
            let ty = self.parse_type()?;
            let name = self.parse_ident()?;
            if matches!(self.peek(), Tok::LParen) {
                functions.push(self.function(ty, name, loc)?);
            } else {
                globals.push(self.global(ty, name, loc)?);
            }
        }
        Ok(Program { globals, functions })
    }

    fn global(&mut self, mut ty: Type, name: String, loc: Loc) -> Result<GlobalDecl, ParseError> {
        if matches!(self.peek(), Tok::LBracket) {
            self.bump();
            let len = self.const_int()?;
            self.eat(&Tok::RBracket)?;
            ty = Type::Array(Box::new(ty), len as u32);
        }
        let mut init = Vec::new();
        if matches!(self.peek(), Tok::Assign) {
            self.bump();
            if matches!(self.peek(), Tok::LBrace) {
                self.bump();
                loop {
                    init.push(self.const_int()?);
                    if matches!(self.peek(), Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.eat(&Tok::RBrace)?;
            } else {
                init.push(self.const_int()?);
            }
        }
        self.eat(&Tok::Semi)?;
        Ok(GlobalDecl {
            name,
            ty,
            init,
            loc,
        })
    }

    fn const_int(&mut self) -> Result<i64, ParseError> {
        let negative = if matches!(self.peek(), Tok::Minus) {
            self.bump();
            true
        } else {
            false
        };
        match self.bump() {
            Tok::Int(v) | Tok::Char(v) => Ok(if negative { -v } else { v }),
            other => Err(self.error(format!("expected a constant, found `{other:?}`"))),
        }
    }

    fn function(&mut self, ret: Type, name: String, loc: Loc) -> Result<Function, ParseError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Tok::RParen) {
            if matches!(self.peek(), Tok::Kw(Kw::Void)) && matches!(self.peek2(), Tok::RParen) {
                self.bump();
            } else {
                loop {
                    let pty = self.parse_type()?;
                    let pname = self.parse_ident()?;
                    params.push(Param {
                        name: pname,
                        ty: pty,
                    });
                    if matches!(self.peek(), Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.eat(&Tok::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            ret,
            params,
            body,
            loc,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            stmts.push(self.statement()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let loc = self.loc();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Kw(Kw::If) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expression()?;
                self.eat(&Tok::RParen)?;
                let then_block = self.block_or_single()?;
                let else_block = if matches!(self.peek(), Tok::Kw(Kw::Else)) {
                    self.bump();
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                })
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expression()?;
                self.eat(&Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let init = if matches!(self.peek(), Tok::Semi) {
                    self.bump();
                    None
                } else if self.at_type_keyword() {
                    Some(Box::new(self.declaration()?))
                } else {
                    let e = self.expression()?;
                    self.eat(&Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if matches!(self.peek(), Tok::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if matches!(self.peek(), Tok::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let value = if matches!(self.peek(), Tok::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return { value, loc })
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break(loc))
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue(loc))
            }
            Tok::Kw(Kw::Goto) => {
                self.bump();
                let label = self.parse_ident()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Goto { label, loc })
            }
            Tok::Kw(Kw::Asm) => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let text = match self.bump() {
                    Tok::Str(s) => s,
                    other => {
                        return Err(
                            self.error(format!("expected a string in asm(), found `{other:?}`"))
                        )
                    }
                };
                self.eat(&Tok::RParen)?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Asm { text, loc })
            }
            _ if self.at_type_keyword() => self.declaration(),
            _ => {
                let e = self.expression()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// A block, or a single statement promoted to a block (so `if (c) x = 1;`
    /// parses as expected).
    fn block_or_single(&mut self) -> Result<Block, ParseError> {
        if matches!(self.peek(), Tok::LBrace) {
            self.block()
        } else {
            Ok(Block {
                stmts: vec![self.statement()?],
            })
        }
    }

    fn declaration(&mut self) -> Result<Stmt, ParseError> {
        let loc = self.loc();
        let mut ty = self.parse_type()?;
        let name = self.parse_ident()?;
        if matches!(self.peek(), Tok::LBracket) {
            self.bump();
            let len = self.const_int()?;
            self.eat(&Tok::RBracket)?;
            ty = Type::Array(Box::new(ty), len as u32);
        }
        let init = if matches!(self.peek(), Tok::Assign) {
            self.bump();
            Some(self.expression()?)
        } else {
            None
        };
        self.eat(&Tok::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            loc,
        })
    }

    // Expression parsing: assignment is right-associative and lowest
    // precedence; the binary tiers use precedence climbing.
    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        let loc = self.loc();
        match self.peek() {
            Tok::Assign => {
                self.bump();
                let value = self.assignment()?;
                Ok(Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                    op: None,
                    loc,
                })
            }
            Tok::PlusAssign => {
                self.bump();
                let value = self.assignment()?;
                Ok(Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                    op: Some(BinOp::Add),
                    loc,
                })
            }
            Tok::MinusAssign => {
                self.bump();
                let value = self.assignment()?;
                Ok(Expr::Assign {
                    target: Box::new(lhs),
                    value: Box::new(value),
                    op: Some(BinOp::Sub),
                    loc,
                })
            }
            _ => Ok(lhs),
        }
    }

    fn binop_for(tok: &Tok) -> Option<(BinOp, u8)> {
        // Higher binding power binds tighter.
        Some(match tok {
            Tok::OrOr => (BinOp::LogicalOr, 1),
            Tok::AndAnd => (BinOp::LogicalAnd, 2),
            Tok::Pipe => (BinOp::BitOr, 3),
            Tok::Caret => (BinOp::BitXor, 4),
            Tok::Amp => (BinOp::BitAnd, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_bp: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, bp)) = Self::binop_for(self.peek()) {
            if bp < min_bp {
                break;
            }
            let loc = self.loc();
            self.bump();
            let rhs = self.binary(bp + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                loc,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let loc = self.loc();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(self.unary()?),
                    loc,
                })
            }
            Tok::Bang => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::LogicalNot,
                    expr: Box::new(self.unary()?),
                    loc,
                })
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(self.unary()?),
                    loc,
                })
            }
            Tok::Star => {
                self.bump();
                Ok(Expr::Deref {
                    expr: Box::new(self.unary()?),
                    loc,
                })
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::AddrOf {
                    expr: Box::new(self.unary()?),
                    loc,
                })
            }
            Tok::PlusPlus => {
                self.bump();
                let target = self.unary()?;
                Ok(Expr::Assign {
                    target: Box::new(target),
                    value: Box::new(Expr::IntLit { value: 1, loc }),
                    op: Some(BinOp::Add),
                    loc,
                })
            }
            Tok::MinusMinus => {
                self.bump();
                let target = self.unary()?;
                Ok(Expr::Assign {
                    target: Box::new(target),
                    value: Box::new(Expr::IntLit { value: 1, loc }),
                    op: Some(BinOp::Sub),
                    loc,
                })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.primary()?;
        loop {
            let loc = self.loc();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let index = self.expression()?;
                    self.eat(&Tok::RBracket)?;
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                        loc,
                    };
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Tok::RParen) {
                        loop {
                            args.push(self.expression()?);
                            if matches!(self.peek(), Tok::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        loc,
                    };
                }
                Tok::PlusPlus => {
                    // Post-increment: compiled as `target = target + 1`; the
                    // benchmark code only uses the value-discarding form.
                    self.bump();
                    expr = Expr::Assign {
                        target: Box::new(expr.clone()),
                        value: Box::new(Expr::IntLit { value: 1, loc }),
                        op: Some(BinOp::Add),
                        loc,
                    };
                }
                Tok::MinusMinus => {
                    self.bump();
                    expr = Expr::Assign {
                        target: Box::new(expr.clone()),
                        value: Box::new(Expr::IntLit { value: 1, loc }),
                        op: Some(BinOp::Sub),
                        loc,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let loc = self.loc();
        match self.bump() {
            Tok::Int(value) | Tok::Char(value) => Ok(Expr::IntLit { value, loc }),
            Tok::Ident(name) => Ok(Expr::Ident { name, loc }),
            Tok::LParen => {
                let e = self.expression()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(ParseError {
                message: format!("unexpected token `{other:?}`"),
                loc,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_globals_functions_and_arrays() {
        let src = r#"
            int counter = 0;
            uint table[4] = {1, 2, 3, 4};

            int add(int a, int b) {
                return a + b;
            }

            void main(void) {
                counter = add(counter, 1);
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[1].ty, Type::Array(Box::new(Type::Uint), 4));
        assert_eq!(p.globals[1].init, vec![1, 2, 3, 4]);
        assert_eq!(p.functions.len(), 2);
        let params = |name: &str| {
            let f = p.functions.iter().find(|f| f.name == name).unwrap();
            f.params.len()
        };
        assert_eq!(params("add"), 2);
        assert_eq!(params("main"), 0);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { op, rhs, .. }),
            ..
        } = &p.functions[0].body.stmts[0]
        else {
            panic!("expected return of a binary expression");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_pointers_and_derefs() {
        let src = r#"
            int read(int *p) { return *p; }
            void write(int *p, int v) { *p = v; }
            int takeaddr(int x) { int *q; q = &x; return *q; }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions[0].params[0].ty, Type::Ptr(Box::new(Type::Int)));
        assert!(matches!(
            p.functions[0].body.stmts[0],
            Stmt::Return {
                value: Some(Expr::Deref { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            int f(int n) {
                int total = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) total += i; else total -= 1;
                }
                while (total > 100) { total = total - 10; }
                return total;
            }
        "#;
        let p = parse(src).unwrap();
        let body = &p.functions[0].body;
        assert!(matches!(body.stmts[1], Stmt::For { .. }));
        assert!(matches!(body.stmts[2], Stmt::While { .. }));
    }

    #[test]
    fn parses_function_pointers_and_indirect_calls() {
        let src = r#"
            int twice(int x) { return x + x; }
            int apply(fnptr f, int v) { return f(v); }
            int main() { fnptr g; g = &twice; return apply(g, 21); }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions[1].params[0].ty, Type::FnPtr);
    }

    #[test]
    fn parses_goto_and_asm_for_later_rejection() {
        let p = parse("void f() { goto out; asm(\"nop\"); }").unwrap();
        assert!(matches!(p.functions[0].body.stmts[0], Stmt::Goto { .. }));
        assert!(matches!(p.functions[0].body.stmts[1], Stmt::Asm { .. }));
    }

    #[test]
    fn single_statement_bodies_are_promoted_to_blocks() {
        let p = parse("int abs(int x) { if (x < 0) return 0 - x; return x; }").unwrap();
        let Stmt::If { then_block, .. } = &p.functions[0].body.stmts[0] else {
            panic!("expected if");
        };
        assert_eq!(then_block.stmts.len(), 1);
    }

    #[test]
    fn reports_errors_with_location() {
        let err = parse("int f( { }").unwrap_err();
        assert!(err.loc.line >= 1);
        assert!(!err.message.is_empty());
        assert!(parse("int x = ;").is_err());
        assert!(parse("void f() { return 1 + ; }").is_err());
    }

    #[test]
    fn unsigned_int_is_uint() {
        let p = parse("unsigned int x; void f() { }").unwrap();
        assert_eq!(p.globals[0].ty, Type::Uint);
    }

    #[test]
    fn postfix_increment_desugars_to_assignment() {
        let p = parse("void f() { int i = 0; i++; }").unwrap();
        assert!(matches!(
            p.functions[0].body.stmts[1],
            Stmt::Expr(Expr::Assign {
                op: Some(BinOp::Add),
                ..
            })
        ));
    }
}
