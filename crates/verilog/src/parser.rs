//! Recursive-descent parser for the Verilog subset.

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};
use crate::VerilogError;

/// Parses a complete source file into a [`Design`].
///
/// # Errors
/// [`VerilogError::Lex`] / [`VerilogError::Parse`] with the offending line.
pub fn parse(source: &str) -> Result<Design, VerilogError> {
    let tokens = Lexer::tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut design = Design::default();
    while !parser.at_eof() {
        design.modules.push(parser.module()?);
    }
    Ok(design)
}

/// How deeply statements, lvalues, expressions and unary operators may
/// nest.
/// Recursive descent spends stack per level, so without a bound a
/// pathologically nested input overflows the stack and aborts the
/// process instead of returning an error.
const MAX_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    /// Runs `parse` one nesting level deeper, failing with a parse error
    /// past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Parser) -> Result<T, VerilogError>,
    ) -> Result<T, VerilogError> {
        if self.depth == MAX_DEPTH {
            return Err(VerilogError::parse(
                self.line(),
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), VerilogError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(VerilogError::parse(
                self.line(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), VerilogError> {
        match self.peek() {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(VerilogError::parse(
                self.line(),
                format!("expected `{kw}`, found {}", other.describe()),
            )),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn ident(&mut self) -> Result<String, VerilogError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(VerilogError::parse(
                self.line(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Modules
    // ------------------------------------------------------------------

    fn module(&mut self) -> Result<Module, VerilogError> {
        self.keyword("module")?;
        let name = self.ident()?;
        let mut module = Module {
            name,
            ports: Vec::new(),
            decls: Vec::new(),
            params: Vec::new(),
            assigns: Vec::new(),
            always: Vec::new(),
            instances: Vec::new(),
        };
        // Module-level parameters: module m #(parameter N = 4) (...)
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen)?;
            loop {
                self.keyword("parameter")?;
                loop {
                    let pname = self.ident()?;
                    self.expect(&TokenKind::Assign)?;
                    let value = self.expr()?;
                    module.params.push((pname, value));
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    if self.at_keyword("parameter") {
                        break;
                    }
                }
                if !self.at_keyword("parameter") {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
            loop {
                self.header_port(&mut module)?;
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect(&TokenKind::Semi)?;
        while !self.at_keyword("endmodule") {
            if self.at_eof() {
                return Err(VerilogError::parse(self.line(), "missing `endmodule`"));
            }
            self.item(&mut module)?;
        }
        self.keyword("endmodule")?;
        Ok(module)
    }

    /// One entry in the module header: either a bare name (classic style)
    /// or an ANSI declaration (`input [3:0] a`).
    fn header_port(&mut self, module: &mut Module) -> Result<(), VerilogError> {
        let kind = if self.at_keyword("input") {
            self.bump();
            Some(SignalKind::Input)
        } else if self.at_keyword("output") {
            self.bump();
            if self.at_keyword("reg") {
                self.bump();
                Some(SignalKind::OutputReg)
            } else {
                if self.at_keyword("wire") {
                    self.bump();
                }
                Some(SignalKind::Output)
            }
        } else if self.at_keyword("inout") {
            return Err(VerilogError::parse(
                self.line(),
                "inout ports are not supported",
            ));
        } else {
            None
        };
        match kind {
            Some(kind) => {
                if self.at_keyword("wire") {
                    self.bump();
                }
                let range = self.opt_range()?;
                let name = self.ident()?;
                module.ports.push(name.clone());
                module.decls.push(Decl {
                    kind,
                    range,
                    names: vec![name],
                });
            }
            None => {
                let name = self.ident()?;
                module.ports.push(name);
            }
        }
        Ok(())
    }

    fn opt_range(&mut self) -> Result<Option<(Expr, Expr)>, VerilogError> {
        if self.eat(&TokenKind::LBracket) {
            let msb = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let lsb = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            Ok(Some((msb, lsb)))
        } else {
            Ok(None)
        }
    }

    fn item(&mut self, module: &mut Module) -> Result<(), VerilogError> {
        if self.at_keyword("input")
            || self.at_keyword("output")
            || self.at_keyword("wire")
            || self.at_keyword("reg")
        {
            return self.decl(module);
        }
        if self.at_keyword("parameter") || self.at_keyword("localparam") {
            self.bump();
            loop {
                let name = self.ident()?;
                self.expect(&TokenKind::Assign)?;
                let value = self.expr()?;
                module.params.push((name, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi)?;
            return Ok(());
        }
        if self.at_keyword("assign") {
            self.bump();
            loop {
                let lhs = self.lvalue()?;
                self.expect(&TokenKind::Assign)?;
                let rhs = self.expr()?;
                module.assigns.push(AssignStmt { lhs, rhs });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Semi)?;
            return Ok(());
        }
        if self.at_keyword("always") {
            module.always.push(self.always_block()?);
            return Ok(());
        }
        if self.at_keyword("initial") {
            return Err(VerilogError::parse(
                self.line(),
                "initial blocks are not synthesizable in this subset",
            ));
        }
        // Otherwise: a module instantiation `Type [#(…)] name ( … );`
        let module_name = self.ident()?;
        let mut param_overrides = Vec::new();
        if self.eat(&TokenKind::Hash) {
            self.expect(&TokenKind::LParen)?;
            loop {
                self.expect(&TokenKind::Dot)?;
                let pname = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let value = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                param_overrides.push((pname, value));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let inst_name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let connections = if matches!(self.peek(), TokenKind::Dot) {
            let mut named = Vec::new();
            loop {
                self.expect(&TokenKind::Dot)?;
                let port = self.ident()?;
                self.expect(&TokenKind::LParen)?;
                let expr = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                named.push((port, expr));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            Connections::Named(named)
        } else {
            let mut positional = Vec::new();
            if !matches!(self.peek(), TokenKind::RParen) {
                loop {
                    positional.push(self.expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            Connections::Positional(positional)
        };
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        module.instances.push(Instance {
            module: module_name,
            name: inst_name,
            param_overrides,
            connections,
        });
        Ok(())
    }

    fn decl(&mut self, module: &mut Module) -> Result<(), VerilogError> {
        let kind = match self.bump() {
            TokenKind::Ident(s) if s == "input" => SignalKind::Input,
            TokenKind::Ident(s) if s == "output" => {
                if self.at_keyword("reg") {
                    self.bump();
                    SignalKind::OutputReg
                } else {
                    SignalKind::Output
                }
            }
            TokenKind::Ident(s) if s == "wire" => SignalKind::Wire,
            TokenKind::Ident(s) if s == "reg" => SignalKind::Reg,
            other => {
                return Err(VerilogError::parse(
                    self.line(),
                    format!("expected declaration keyword, found {}", other.describe()),
                ));
            }
        };
        if matches!(kind, SignalKind::Input | SignalKind::Output) && self.at_keyword("wire") {
            self.bump();
        }
        let range = self.opt_range()?;
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::Semi)?;
        module.decls.push(Decl { kind, range, names });
        Ok(())
    }

    fn always_block(&mut self) -> Result<AlwaysBlock, VerilogError> {
        self.keyword("always")?;
        self.expect(&TokenKind::At)?;
        let sensitivity = if self.eat(&TokenKind::Star) {
            Sensitivity::Combinational
        } else {
            self.expect(&TokenKind::LParen)?;
            let sens = if self.eat(&TokenKind::Star) {
                Sensitivity::Combinational
            } else if self.at_keyword("posedge") || self.at_keyword("negedge") {
                let posedge = self.at_keyword("posedge");
                self.bump();
                let signal = self.ident()?;
                // Extra edges (e.g. `or posedge reset`) are accepted but all
                // edges fold into the single discrete-time clock (§4.3.3).
                while self.at_keyword("or") || matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                    if self.at_keyword("posedge") || self.at_keyword("negedge") {
                        self.bump();
                    }
                    let _ = self.ident()?;
                }
                Sensitivity::Edge { posedge, signal }
            } else {
                // Plain signal list: combinational.
                loop {
                    let _ = self.ident()?;
                    if !(self.at_keyword("or") || self.eat(&TokenKind::Comma)) {
                        break;
                    }
                    if self.at_keyword("or") {
                        self.bump();
                    }
                }
                Sensitivity::Combinational
            };
            self.expect(&TokenKind::RParen)?;
            sens
        };
        let body = self.stmt()?;
        Ok(AlwaysBlock { sensitivity, body })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, VerilogError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, VerilogError> {
        if self.eat(&TokenKind::Semi) {
            return Ok(Stmt::Empty);
        }
        if self.at_keyword("begin") {
            self.bump();
            let mut stmts = Vec::new();
            while !self.at_keyword("end") {
                if self.at_eof() {
                    return Err(VerilogError::parse(self.line(), "missing `end`"));
                }
                stmts.push(self.stmt()?);
            }
            self.keyword("end")?;
            return Ok(Stmt::Block(stmts));
        }
        if self.at_keyword("if") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let then_branch = Box::new(self.stmt()?);
            let else_branch = if self.at_keyword("else") {
                self.bump();
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.at_keyword("case") {
            self.bump();
            self.expect(&TokenKind::LParen)?;
            let selector = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            let mut arms = Vec::new();
            let mut default = None;
            while !self.at_keyword("endcase") {
                if self.at_eof() {
                    return Err(VerilogError::parse(self.line(), "missing `endcase`"));
                }
                if self.at_keyword("default") {
                    self.bump();
                    self.eat(&TokenKind::Colon);
                    default = Some(Box::new(self.stmt()?));
                } else {
                    let mut labels = vec![self.expr()?];
                    while self.eat(&TokenKind::Comma) {
                        labels.push(self.expr()?);
                    }
                    self.expect(&TokenKind::Colon)?;
                    let body = self.stmt()?;
                    arms.push((labels, body));
                }
            }
            self.keyword("endcase")?;
            return Ok(Stmt::Case {
                selector,
                arms,
                default,
            });
        }
        // Assignment.
        let lhs = self.lvalue()?;
        let nonblocking = match self.bump() {
            TokenKind::Assign => false,
            TokenKind::LeOrNonblock => true,
            other => {
                return Err(VerilogError::parse(
                    self.line(),
                    format!("expected `=` or `<=`, found {}", other.describe()),
                ));
            }
        };
        let rhs = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Assign {
            lhs,
            rhs,
            nonblocking,
        })
    }

    fn lvalue(&mut self) -> Result<LValue, VerilogError> {
        self.nested(Self::lvalue_body)
    }

    fn lvalue_body(&mut self) -> Result<LValue, VerilogError> {
        if self.eat(&TokenKind::LBrace) {
            let mut parts = Vec::new();
            loop {
                parts.push(self.lvalue()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBrace)?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.ident()?;
        if self.eat(&TokenKind::LBracket) {
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let lsb = self.expr()?;
                self.expect(&TokenKind::RBracket)?;
                return Ok(LValue::Part(name, first, lsb));
            }
            self.expect(&TokenKind::RBracket)?;
            return Ok(LValue::Bit(name, first));
        }
        Ok(LValue::Ident(name))
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, VerilogError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, VerilogError> {
        let cond = self.logic_or()?;
        if self.eat(&TokenKind::Question) {
            let then = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_ = self.expr()?;
            Ok(Expr::Ternary(
                Box::new(cond),
                Box::new(then),
                Box::new(else_),
            ))
        } else {
            Ok(cond)
        }
    }

    fn logic_or(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.logic_and()?;
        while self.eat(&TokenKind::PipePipe) {
            let rhs = self.logic_and()?;
            lhs = Expr::Binary(BinaryOp::LogicOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn logic_and(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.bit_or()?;
        while self.eat(&TokenKind::AmpAmp) {
            let rhs = self.bit_or()?;
            lhs = Expr::Binary(BinaryOp::LogicAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_or(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.bit_xor()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.bit_xor()?;
            lhs = Expr::Binary(BinaryOp::BitOr, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn bit_xor(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.bit_and()?;
        loop {
            if self.eat(&TokenKind::Caret) {
                let rhs = self.bit_and()?;
                lhs = Expr::Binary(BinaryOp::BitXor, Box::new(lhs), Box::new(rhs));
            } else if self.eat(&TokenKind::TildeCaret) {
                let rhs = self.bit_and()?;
                lhs = Expr::Binary(BinaryOp::BitXnor, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn bit_and(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.equality()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.equality()?;
            lhs = Expr::Binary(BinaryOp::BitAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.relational()?;
        loop {
            let op = if self.eat(&TokenKind::EqEq) {
                BinaryOp::Eq
            } else if self.eat(&TokenKind::BangEq) {
                BinaryOp::Ne
            } else {
                return Ok(lhs);
            };
            let rhs = self.relational()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn relational(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.shift()?;
        loop {
            let op = if self.eat(&TokenKind::Lt) {
                BinaryOp::Lt
            } else if self.eat(&TokenKind::LeOrNonblock) {
                BinaryOp::Le
            } else if self.eat(&TokenKind::Gt) {
                BinaryOp::Gt
            } else if self.eat(&TokenKind::Ge) {
                BinaryOp::Ge
            } else {
                return Ok(lhs);
            };
            let rhs = self.shift()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn shift(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.additive()?;
        loop {
            let op = if self.eat(&TokenKind::Shl) {
                BinaryOp::Shl
            } else if self.eat(&TokenKind::Shr) {
                BinaryOp::Shr
            } else {
                return Ok(lhs);
            };
            let rhs = self.additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn additive(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = if self.eat(&TokenKind::Plus) {
                BinaryOp::Add
            } else if self.eat(&TokenKind::Minus) {
                BinaryOp::Sub
            } else {
                return Ok(lhs);
            };
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, VerilogError> {
        let mut lhs = self.unary()?;
        loop {
            let op = if self.eat(&TokenKind::Star) {
                BinaryOp::Mul
            } else if self.eat(&TokenKind::Slash) {
                BinaryOp::Div
            } else if self.eat(&TokenKind::Percent) {
                BinaryOp::Mod
            } else {
                return Ok(lhs);
            };
            let rhs = self.unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, VerilogError> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> Result<Expr, VerilogError> {
        let op = if self.eat(&TokenKind::Tilde) {
            Some(UnaryOp::Not)
        } else if self.eat(&TokenKind::Bang) {
            Some(UnaryOp::LogicNot)
        } else if self.eat(&TokenKind::Minus) {
            Some(UnaryOp::Neg)
        } else if self.eat(&TokenKind::Plus) {
            return self.unary();
        } else if self.eat(&TokenKind::Amp) {
            Some(UnaryOp::ReduceAnd)
        } else if self.eat(&TokenKind::Pipe) {
            Some(UnaryOp::ReduceOr)
        } else if self.eat(&TokenKind::Caret) {
            Some(UnaryOp::ReduceXor)
        } else if self.eat(&TokenKind::TildeAmp) {
            Some(UnaryOp::ReduceNand)
        } else if self.eat(&TokenKind::TildePipe) {
            Some(UnaryOp::ReduceNor)
        } else if self.eat(&TokenKind::TildeCaret) {
            Some(UnaryOp::ReduceXnor)
        } else {
            None
        };
        match op {
            Some(op) => {
                let operand = self.unary()?;
                Ok(Expr::Unary(op, Box::new(operand)))
            }
            None => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, VerilogError> {
        let mut expr = self.primary()?;
        while self.eat(&TokenKind::LBracket) {
            let first = self.expr()?;
            if self.eat(&TokenKind::Colon) {
                let lsb = self.expr()?;
                self.expect(&TokenKind::RBracket)?;
                expr = Expr::Part(Box::new(expr), Box::new(first), Box::new(lsb));
            } else {
                self.expect(&TokenKind::RBracket)?;
                expr = Expr::Bit(Box::new(expr), Box::new(first));
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, VerilogError> {
        match self.peek().clone() {
            TokenKind::Number(value) => {
                self.bump();
                Ok(Expr::Literal { value, width: None })
            }
            TokenKind::BasedNumber { width, value } => {
                self.bump();
                Ok(Expr::Literal {
                    value,
                    width: if width == 0 { None } else { Some(width) },
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(Expr::Ident(name))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::LBrace => {
                self.bump();
                let first = self.expr()?;
                // `{n{expr}}` replication?
                if self.eat(&TokenKind::LBrace) {
                    let repeated = self.expr()?;
                    self.expect(&TokenKind::RBrace)?;
                    self.expect(&TokenKind::RBrace)?;
                    return Ok(Expr::Repeat(Box::new(first), Box::new(repeated)));
                }
                let mut parts = vec![first];
                while self.eat(&TokenKind::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect(&TokenKind::RBrace)?;
                Ok(Expr::Concat(parts))
            }
            other => Err(VerilogError::parse(
                self.line(),
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure2_module() {
        let src = r#"
            module circuit (s, a, b, c);
              input s, a, b;
              output [1:0] c;
              assign c = s ? a+b : a-b;
            endmodule
        "#;
        let design = parse(src).unwrap();
        let m = design.module("circuit").unwrap();
        assert_eq!(m.ports, vec!["s", "a", "b", "c"]);
        assert_eq!(m.assigns.len(), 1);
        assert!(matches!(m.assigns[0].rhs, Expr::Ternary(..)));
    }

    #[test]
    fn parses_paper_listing3_counter() {
        let src = r#"
            module count (clk, inc, reset, out);
              input clk;
              input inc;
              input reset;
              output [5:0] out;
              reg [5:0] var;
              always @(posedge clk)
                if (reset)
                  var <= 0;
                else
                  if (inc)
                    var <= var + 1;
              assign out = var;
            endmodule
        "#;
        let design = parse(src).unwrap();
        let m = design.module("count").unwrap();
        assert_eq!(m.always.len(), 1);
        assert!(matches!(
            m.always[0].sensitivity,
            Sensitivity::Edge { posedge: true, .. }
        ));
    }

    #[test]
    fn parses_paper_listing5_circsat() {
        let src = r#"
            module circsat (a, b, c, y);
              input a, b, c;
              output y;
              wire [1:10] x;
              assign x[1] = a;
              assign x[2] = b;
              assign x[3] = c;
              assign x[4] = ~x[3];
              assign x[5] = x[1] | x[2];
              assign x[6] = ~x[4];
              assign x[7] = x[1] & x[2] & x[4];
              assign x[8] = x[5] | x[6];
              assign x[9] = x[6] | x[7];
              assign x[10] = x[8] & x[9] & x[7];
              assign y = x[10];
            endmodule
        "#;
        let design = parse(src).unwrap();
        assert_eq!(design.module("circsat").unwrap().assigns.len(), 11);
    }

    #[test]
    fn parses_paper_listing7_australia() {
        let src = r#"
            module australia (NSW, QLD, SA, VIC, WA, NT, ACT, valid);
              input [1:0] NSW, QLD, SA, VIC, WA, NT, ACT;
              output valid;
              assign valid = WA != NT && WA != SA && NT != SA && NT != QLD
                          && SA != QLD && SA != NSW && SA != VIC && QLD != NSW
                          && NSW != VIC && NSW != ACT;
            endmodule
        "#;
        let design = parse(src).unwrap();
        let m = design.module("australia").unwrap();
        // `input [1:0] NSW, QLD, …` is a classic-style decl inside the body.
        assert_eq!(m.ports.len(), 8);
        assert_eq!(m.decls.len(), 2);
    }

    #[test]
    fn ansi_ports() {
        let src = "module m (input clk, input [3:0] a, output reg [5:0] q); endmodule";
        let design = parse(src).unwrap();
        let m = design.module("m").unwrap();
        assert_eq!(m.ports, vec!["clk", "a", "q"]);
        assert_eq!(m.decls.len(), 3);
        assert_eq!(m.decls[2].kind, SignalKind::OutputReg);
    }

    #[test]
    fn case_statement() {
        let src = r#"
            module m (input [1:0] s, output reg [1:0] y);
              always @* begin
                case (s)
                  2'b00: y = 2'b11;
                  2'b01, 2'b10: y = 2'b00;
                  default: y = s;
                endcase
              end
            endmodule
        "#;
        let design = parse(src).unwrap();
        let m = design.module("m").unwrap();
        let Stmt::Block(stmts) = &m.always[0].body else {
            panic!("expected block")
        };
        let Stmt::Case { arms, default, .. } = &stmts[0] else {
            panic!("expected case")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[1].0.len(), 2);
        assert!(default.is_some());
    }

    #[test]
    fn instances_positional_and_named() {
        let src = r#"
            module top (input a, input b, output y, output z);
              sub s1 (a, b, y);
              sub #(.N(4)) s2 (.p(a), .q(b), .r(z));
            endmodule
        "#;
        let design = parse(src).unwrap();
        let m = design.module("top").unwrap();
        assert_eq!(m.instances.len(), 2);
        assert!(matches!(
            m.instances[0].connections,
            Connections::Positional(_)
        ));
        assert!(matches!(m.instances[1].connections, Connections::Named(_)));
        assert_eq!(m.instances[1].param_overrides.len(), 1);
    }

    #[test]
    fn concat_and_replication() {
        let src =
            "module m (input [3:0] a, output [7:0] y); assign y = {a, {2{a[0]}}, 2'b01}; endmodule";
        let design = parse(src).unwrap();
        let m = design.module("m").unwrap();
        let Expr::Concat(parts) = &m.assigns[0].rhs else {
            panic!("expected concat")
        };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[1], Expr::Repeat(..)));
    }

    #[test]
    fn concat_lvalue() {
        let src = "module m (input [3:0] a, b, output [3:0] s, output co); assign {co, s} = a + b; endmodule";
        let design = parse(src).unwrap();
        let m = design.module("m").unwrap();
        assert!(matches!(m.assigns[0].lhs, LValue::Concat(_)));
    }

    #[test]
    fn precedence_mul_over_add() {
        let src = "module m (input [3:0] a, b, c, output [3:0] y); assign y = a + b * c; endmodule";
        let design = parse(src).unwrap();
        let Expr::Binary(BinaryOp::Add, _, rhs) = &design.modules[0].assigns[0].rhs else {
            panic!("expected add at top");
        };
        assert!(matches!(**rhs, Expr::Binary(BinaryOp::Mul, ..)));
    }

    #[test]
    fn le_in_expression_context() {
        let src = "module m (input [3:0] a, b, output y); assign y = a <= b; endmodule";
        let design = parse(src).unwrap();
        assert!(matches!(
            design.modules[0].assigns[0].rhs,
            Expr::Binary(BinaryOp::Le, ..)
        ));
    }

    #[test]
    fn module_level_parameters() {
        let src = "module m #(parameter N = 4, W = 2) (input [N-1:0] a, output [W-1:0] y); assign y = a; endmodule";
        let design = parse(src).unwrap();
        assert_eq!(design.modules[0].params.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("module m (a);\n  wire w\nendmodule").unwrap_err();
        match err {
            VerilogError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn initial_block_rejected() {
        assert!(parse("module m; initial begin end endmodule").is_err());
    }
}
