//! SPEAR-DL recursive-descent parser.

use std::collections::BTreeMap;

use spear_core::condition::{CmpOp, Cond, Operand};
use spear_core::history::{RefAction, RefinementMode};
use spear_core::ops::{MergePolicy, PayloadSpec};
use spear_core::value::Value;

use crate::ast::{PipelineDecl, Program, RefBody, Stmt, UsingClause, ViewDecl};
use crate::error::{DlError, Result};
use crate::lexer::{lex, Pos, Tok, Token};

/// Parse a complete SPEAR-DL source file.
///
/// # Errors
///
/// Returns the first lexing or parsing error, with position.
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser { tokens, at: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at.min(self.tokens.len() - 1)]
    }

    fn pos(&self) -> Pos {
        self.peek().pos
    }

    /// The current token, mutably, so its payload can be moved out just
    /// before [`Parser::advance`] consumes it: the parser never backtracks.
    fn peek_mut(&mut self) -> &mut Tok {
        let at = self.at.min(self.tokens.len() - 1);
        &mut self.tokens[at].tok
    }

    fn advance(&mut self) {
        self.at += 1;
    }

    fn err(&self, message: impl Into<String>) -> DlError {
        DlError::parse(self.pos(), message)
    }

    /// "expected `what`, found '<current token>'".
    fn expected(&self, what: &str) -> DlError {
        self.err(format!("expected {what}, found '{}'", self.peek().tok))
    }

    /// Consume a specific punctuation token.
    fn expect(&mut self, tok: &Tok) -> Result<()> {
        if &self.peek().tok == tok {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected '{tok}', found '{}'", self.peek().tok)))
        }
    }

    /// Consume a specific keyword (uppercase identifier).
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.peek_kw(kw) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}', found '{}'", self.peek().tok)))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek_mut() {
            Tok::Ident(s) => {
                let s = std::mem::take(s);
                self.advance();
                Ok(s)
            }
            _ => Err(self.expected("identifier")),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.peek_mut() {
            Tok::Str(s) => {
                let s = std::mem::take(s);
                self.advance();
                Ok(s)
            }
            _ => Err(self.expected("string literal")),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.peek().tok {
            Tok::Num(n) => {
                self.advance();
                Ok(n)
            }
            _ => Err(self.expected("number")),
        }
    }

    fn value(&mut self) -> Result<Value> {
        match &self.peek().tok {
            Tok::Str(_) => Ok(Value::from(self.string()?)),
            Tok::Num(n) => {
                let n = *n;
                self.advance();
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    Ok(Value::Int(n as i64))
                } else {
                    Ok(Value::Float(n))
                }
            }
            Tok::Ident(s) if s == "TRUE" => {
                self.advance();
                Ok(Value::Bool(true))
            }
            Tok::Ident(s) if s == "FALSE" => {
                self.advance();
                Ok(Value::Bool(false))
            }
            Tok::Ident(s) if s == "NULL" => {
                self.advance();
                Ok(Value::Null)
            }
            _ => Err(self.expected("a value")),
        }
    }

    // -----------------------------------------------------------------
    // Program structure
    // -----------------------------------------------------------------

    fn program(&mut self) -> Result<Program> {
        let mut program = Program::default();
        loop {
            if self.peek().tok == Tok::Eof {
                return Ok(program);
            }
            if self.peek_kw("VIEW") {
                program.views.push(self.view_decl()?);
            } else if self.peek_kw("PIPELINE") {
                program.pipelines.push(self.pipeline_decl()?);
            } else {
                return Err(self.err(format!(
                    "expected 'VIEW' or 'PIPELINE' at top level, found '{}'",
                    self.peek().tok
                )));
            }
        }
    }

    fn view_decl(&mut self) -> Result<ViewDecl> {
        self.expect_kw("VIEW")?;
        let name = self.ident()?;
        let mut params = Vec::new();
        if self.peek().tok == Tok::LParen {
            self.advance();
            if self.peek().tok != Tok::RParen {
                loop {
                    let pname = self.ident()?;
                    let default = if self.peek().tok == Tok::Eq {
                        self.advance();
                        Some(self.value()?)
                    } else {
                        None
                    };
                    params.push((pname, default));
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let mut tags = Vec::new();
        if self.eat_kw("TAGS") {
            self.expect(&Tok::LBracket)?;
            if self.peek().tok != Tok::RBracket {
                loop {
                    tags.push(self.ident()?);
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBracket)?;
        }
        let description = if self.eat_kw("DESC") {
            Some(self.string()?)
        } else {
            None
        };
        self.expect(&Tok::Eq)?;
        let template = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(ViewDecl {
            name,
            params,
            tags,
            description,
            template,
        })
    }

    fn pipeline_decl(&mut self) -> Result<PipelineDecl> {
        self.expect_kw("PIPELINE")?;
        let name = self.ident()?;
        let stmts = self.block()?;
        Ok(PipelineDecl { name, stmts })
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek().tok != Tok::RBrace {
            if self.peek().tok == Tok::Eof {
                return Err(self.err("unterminated block: expected '}'"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(stmts)
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt> {
        let Tok::Ident(kw) = &self.peek().tok else {
            return Err(self.expected("statement"));
        };
        let parse: fn(&mut Self) -> Result<Stmt> = match kw.as_str() {
            "RET" => Self::stmt_ret,
            "GEN" => Self::stmt_gen,
            "REF" => Self::stmt_ref,
            "CHECK" => Self::stmt_check,
            "MERGE" => Self::stmt_merge,
            "DELEGATE" => Self::stmt_delegate,
            "EXPAND" => Self::stmt_expand,
            "RETRY" => Self::stmt_retry,
            "DIFF" => Self::stmt_diff,
            "MAP" => Self::stmt_map,
            "SWITCH" => Self::stmt_switch,
            other => return Err(self.err(format!("unknown statement '{other}'"))),
        };
        parse(self)
    }

    fn stmt_ret(&mut self) -> Result<Stmt> {
        self.expect_kw("RET")?;
        let source = self.string()?;
        let mut filters = None;
        if self.eat_kw("WHERE") {
            self.expect(&Tok::LBrace)?;
            let mut map = BTreeMap::new();
            if self.peek().tok != Tok::RBrace {
                loop {
                    let key = match &self.peek().tok {
                        Tok::Ident(_) => self.ident()?,
                        Tok::Str(_) => self.string()?,
                        _ => return Err(self.expected("filter field name")),
                    };
                    self.expect(&Tok::Colon)?;
                    map.insert(key, self.value()?);
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBrace)?;
            filters = Some(map);
        }
        let prompt = if self.eat_kw("WITH") {
            self.expect_kw("PROMPT")?;
            Some(self.string()?)
        } else {
            None
        };
        self.expect_kw("INTO")?;
        let into = self.string()?;
        let limit = if self.eat_kw("LIMIT") {
            self.number()? as usize
        } else {
            16
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Ret {
            source,
            filters,
            prompt,
            into,
            limit,
        })
    }

    fn named_args(&mut self) -> Result<BTreeMap<String, Value>> {
        let mut args = BTreeMap::new();
        self.expect(&Tok::LParen)?;
        if self.peek().tok != Tok::RParen {
            loop {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                args.insert(name, self.value()?);
                if self.peek().tok == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    /// Refiner arguments: `()` → Null, `("text")` → Str, `(k = v, ...)` →
    /// Map.
    fn refiner_args(&mut self) -> Result<Value> {
        self.expect(&Tok::LParen)?;
        if self.peek().tok == Tok::RParen {
            self.advance();
            return Ok(Value::Null);
        }
        // Lookahead: ident '=' means named args.
        if matches!(&self.peek().tok, Tok::Ident(_))
            && self.tokens.get(self.at + 1).map(|t| &t.tok) == Some(&Tok::Eq)
        {
            let mut map = BTreeMap::new();
            loop {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                map.insert(name, self.value()?);
                if self.peek().tok == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            Ok(Value::Map(map))
        } else {
            let v = self.value()?;
            self.expect(&Tok::RParen)?;
            Ok(v)
        }
    }

    fn mode(&mut self) -> Result<RefinementMode> {
        if self.eat_kw("MODE") {
            let m = self.ident()?;
            match m.as_str() {
                "MANUAL" => Ok(RefinementMode::Manual),
                "ASSISTED" => Ok(RefinementMode::Assisted),
                "AUTO" => Ok(RefinementMode::Auto),
                other => Err(self.err(format!(
                    "unknown mode '{other}' (expected MANUAL, ASSISTED, or AUTO)"
                ))),
            }
        } else {
            Ok(RefinementMode::Manual)
        }
    }

    fn stmt_gen(&mut self) -> Result<Stmt> {
        self.expect_kw("GEN")?;
        let label = self.string()?;
        self.expect_kw("USING")?;
        let using = if self.eat_kw("VIEW") {
            let name = self.ident()?;
            let args = if self.peek().tok == Tok::LParen {
                self.named_args()?
            } else {
                BTreeMap::new()
            };
            UsingClause::View { name, args }
        } else if self.eat_kw("INLINE") {
            UsingClause::Inline(self.string()?)
        } else {
            UsingClause::Key(self.string()?)
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Gen { label, using })
    }

    fn stmt_ref(&mut self) -> Result<Stmt> {
        self.expect_kw("REF")?;
        let action = match self.ident()?.as_str() {
            "CREATE" => RefAction::Create,
            "APPEND" => RefAction::Append,
            "PREPEND" => RefAction::Prepend,
            "UPDATE" => RefAction::Update,
            other => {
                return Err(self.err(format!(
                    "unknown REF action '{other}' (expected CREATE, APPEND, PREPEND, UPDATE)"
                )))
            }
        };
        let target = self.string()?;
        let body = if self.eat_kw("FROM") {
            self.expect_kw("VIEW")?;
            let view = self.ident()?;
            let args = if self.peek().tok == Tok::LParen {
                self.named_args()?
            } else {
                BTreeMap::new()
            };
            RefBody::FromView { view, args }
        } else if self.eat_kw("TEXT") {
            RefBody::Text(self.string()?)
        } else if self.eat_kw("WITH") {
            let refiner = self.ident()?;
            let args = self.refiner_args()?;
            let mode = self.mode()?;
            RefBody::With {
                refiner,
                args,
                mode,
            }
        } else {
            return Err(self.err("expected 'FROM VIEW', 'TEXT', or 'WITH' in REF"));
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Ref {
            action,
            target,
            body,
        })
    }

    fn stmt_check(&mut self) -> Result<Stmt> {
        self.expect_kw("CHECK")?;
        let cond = self.cond()?;
        let then = self.block()?;
        let els = if self.eat_kw("ELSE") {
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::Check { cond, then, els })
    }

    fn stmt_merge(&mut self) -> Result<Stmt> {
        self.expect_kw("MERGE")?;
        let left = self.string()?;
        let right = self.string()?;
        self.expect_kw("INTO")?;
        let into = self.string()?;
        let policy = if self.eat_kw("POLICY") {
            let p = self.ident()?;
            match p.as_str() {
                "PREFER_LEFT" => MergePolicy::PreferLeft,
                "PREFER_RIGHT" => MergePolicy::PreferRight,
                "CONCAT" => {
                    self.expect(&Tok::LParen)?;
                    let sep = self.string()?;
                    self.expect(&Tok::RParen)?;
                    MergePolicy::Concat { separator: sep }
                }
                "BY_SIGNAL" => {
                    self.expect(&Tok::LParen)?;
                    let l = self.string()?;
                    self.expect(&Tok::Comma)?;
                    let r = self.string()?;
                    self.expect(&Tok::RParen)?;
                    MergePolicy::BySignal {
                        left_signal: l,
                        right_signal: r,
                    }
                }
                other => return Err(self.err(format!("unknown merge policy '{other}'"))),
            }
        } else {
            MergePolicy::PreferLeft
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Merge {
            left,
            right,
            into,
            policy,
        })
    }

    fn stmt_delegate(&mut self) -> Result<Stmt> {
        self.expect_kw("DELEGATE")?;
        let agent = self.string()?;
        self.expect_kw("PAYLOAD")?;
        let payload = match &self.peek().tok {
            Tok::Ident(s) if s == "C" => {
                self.advance();
                self.expect(&Tok::LBracket)?;
                let key = self.string()?;
                self.expect(&Tok::RBracket)?;
                PayloadSpec::CtxKey(key)
            }
            Tok::Ident(s) if s == "P" => {
                self.advance();
                self.expect(&Tok::LBracket)?;
                let key = self.string()?;
                self.expect(&Tok::RBracket)?;
                PayloadSpec::PromptKey(key)
            }
            _ => PayloadSpec::Lit(self.value()?),
        };
        self.expect_kw("INTO")?;
        let into = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Delegate {
            agent,
            payload,
            into,
        })
    }

    fn stmt_expand(&mut self) -> Result<Stmt> {
        self.expect_kw("EXPAND")?;
        let target = self.string()?;
        let addition = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Expand { target, addition })
    }

    fn stmt_retry(&mut self) -> Result<Stmt> {
        self.expect_kw("RETRY")?;
        let label = self.string()?;
        self.expect_kw("USING")?;
        let prompt_key = self.string()?;
        self.expect_kw("IF")?;
        let cond = self.cond()?;
        self.expect_kw("WITH")?;
        let refiner = self.ident()?;
        let args = self.refiner_args()?;
        let mode = self.mode()?;
        let max = if self.eat_kw("MAX") {
            self.number()? as u32
        } else {
            1
        };
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Retry {
            label,
            prompt_key,
            cond,
            refiner,
            args,
            mode,
            max,
        })
    }

    fn stmt_map(&mut self) -> Result<Stmt> {
        self.expect_kw("MAP")?;
        self.expect(&Tok::LBracket)?;
        let mut keys = Vec::new();
        if self.peek().tok != Tok::RBracket {
            loop {
                keys.push(self.string()?);
                if self.peek().tok == Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RBracket)?;
        self.expect_kw("WITH")?;
        let refiner = self.ident()?;
        let args = self.refiner_args()?;
        let mode = self.mode()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Map {
            keys,
            refiner,
            args,
            mode,
        })
    }

    fn stmt_switch(&mut self) -> Result<Stmt> {
        self.expect_kw("SWITCH")?;
        self.expect(&Tok::LBrace)?;
        let mut cases = Vec::new();
        let mut default = Vec::new();
        loop {
            if self.eat_kw("CASE") {
                let cond = self.cond()?;
                let body = self.block()?;
                cases.push((cond, body));
            } else if self.eat_kw("DEFAULT") {
                default = self.block()?;
            } else if self.peek().tok == Tok::RBrace {
                self.advance();
                break;
            } else {
                return Err(self.err(format!(
                    "expected 'CASE', 'DEFAULT', or '}}' in SWITCH, found '{}'",
                    self.peek().tok
                )));
            }
        }
        if cases.is_empty() && default.is_empty() {
            return Err(self.err("SWITCH requires at least one CASE or DEFAULT"));
        }
        Ok(Stmt::Switch { cases, default })
    }

    fn stmt_diff(&mut self) -> Result<Stmt> {
        self.expect_kw("DIFF")?;
        let left = self.string()?;
        let right = self.string()?;
        self.expect_kw("INTO")?;
        let into = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(Stmt::Diff { left, right, into })
    }

    // -----------------------------------------------------------------
    // Conditions
    // -----------------------------------------------------------------

    fn cond(&mut self) -> Result<Cond> {
        self.cond_or()
    }

    fn cond_or(&mut self) -> Result<Cond> {
        let mut parts = vec![self.cond_and()?];
        while self.peek().tok == Tok::OrOr {
            self.advance();
            parts.push(self.cond_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Cond::Any(parts)
        })
    }

    fn cond_and(&mut self) -> Result<Cond> {
        let mut parts = vec![self.cond_unary()?];
        while self.peek().tok == Tok::AndAnd {
            self.advance();
            parts.push(self.cond_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("non-empty")
        } else {
            Cond::All(parts)
        })
    }

    fn cond_unary(&mut self) -> Result<Cond> {
        if self.peek().tok == Tok::Bang {
            self.advance();
            return Ok(Cond::Not(Box::new(self.cond_unary()?)));
        }
        if self.peek().tok == Tok::LParen {
            self.advance();
            let c = self.cond()?;
            self.expect(&Tok::RParen)?;
            return Ok(c);
        }
        self.cond_primary()
    }

    fn cond_primary(&mut self) -> Result<Cond> {
        if self.eat_kw("TRUE") {
            return Ok(Cond::Always);
        }
        if self.eat_kw("FALSE") {
            return Ok(Cond::Never);
        }
        // Membership: "key" [NOT] IN C|M
        if matches!(self.peek().tok, Tok::Str(_)) {
            let next = self.tokens.get(self.at + 1).map(|t| &t.tok);
            let is_membership = matches!(next, Some(Tok::Ident(s)) if s == "IN" || s == "NOT");
            if is_membership {
                let key = self.string()?;
                let negated = self.eat_kw("NOT");
                self.expect_kw("IN")?;
                let target = self.ident()?;
                return match (target.as_str(), negated) {
                    ("C", false) => Ok(Cond::InContext(key)),
                    ("C", true) => Ok(Cond::NotInContext(key)),
                    ("M", false) => Ok(Cond::HasSignal(key)),
                    ("M", true) => Ok(Cond::Not(Box::new(Cond::HasSignal(key)))),
                    (other, _) => {
                        Err(self.err(format!("expected C or M after IN, found '{other}'")))
                    }
                };
            }
        }
        // Comparison: operand op operand, or bare operand (truthiness).
        let lhs = self.operand()?;
        let op = match self.peek().tok {
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            Tok::EqEq => Some(CmpOp::Eq),
            Tok::NotEq => Some(CmpOp::Ne),
            _ => None,
        };
        match op {
            Some(op) => {
                self.advance();
                let rhs = self.operand()?;
                Ok(Cond::Cmp { lhs, op, rhs })
            }
            None => Ok(Cond::Truthy(lhs)),
        }
    }

    fn operand(&mut self) -> Result<Operand> {
        match &self.peek().tok {
            Tok::Ident(s) if s == "M" || s == "C" => {
                let signal = s == "M";
                self.advance();
                self.expect(&Tok::LBracket)?;
                let key = self.string()?;
                self.expect(&Tok::RBracket)?;
                Ok(if signal {
                    Operand::Signal(key)
                } else {
                    Operand::Ctx(key)
                })
            }
            _ => Ok(Operand::Lit(self.value()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_view_declarations() {
        let p = parse(
            r#"VIEW med_summary(drug, word_limit = 50)
                 TAGS [clinical, qa]
                 DESC "Medication summary scaffold"
               = "Summarize {{drug}} within {{word_limit}} words.";"#,
        )
        .unwrap();
        assert_eq!(p.views.len(), 1);
        let v = &p.views[0];
        assert_eq!(v.name, "med_summary");
        assert_eq!(v.params[0], ("drug".to_string(), None));
        assert_eq!(v.params[1].1, Some(Value::Int(50)));
        assert_eq!(v.tags, vec!["clinical", "qa"]);
        assert!(v.description.as_deref().unwrap().contains("scaffold"));
    }

    #[test]
    fn parses_the_paper_qa_pipeline() {
        let p = parse(
            r#"
            PIPELINE enoxaparin_qa {
              RET "initial_notes" INTO "notes" LIMIT 5;
              REF CREATE "qa_prompt" FROM VIEW med_summary(drug = "Enoxaparin");
              GEN "answer_0" USING "qa_prompt";
              CHECK M["confidence"] < 0.7 {
                REF UPDATE "qa_prompt" WITH auto_refine() MODE AUTO;
                GEN "answer_1" USING "qa_prompt";
              }
              CHECK "orders" NOT IN C {
                RET "order_lookup" INTO "orders";
              }
              DELEGATE "validation_agent" PAYLOAD C["answer_1"] INTO "evidence_score";
            }
            "#,
        )
        .unwrap();
        assert_eq!(p.pipelines.len(), 1);
        let stmts = &p.pipelines[0].stmts;
        assert_eq!(stmts.len(), 6);
        assert!(matches!(&stmts[0], Stmt::Ret { limit: 5, .. }));
        assert!(matches!(
            &stmts[1],
            Stmt::Ref {
                action: RefAction::Create,
                body: RefBody::FromView { .. },
                ..
            }
        ));
        let Stmt::Check { cond, then, els } = &stmts[3] else {
            panic!("expected CHECK");
        };
        assert_eq!(cond.to_string(), "M[\"confidence\"] < 0.7");
        assert_eq!(then.len(), 2);
        assert!(els.is_empty());
        let Stmt::Check { cond, .. } = &stmts[4] else {
            panic!("expected CHECK");
        };
        assert_eq!(cond.to_string(), "\"orders\" not in C");
    }

    #[test]
    fn parses_conditions_with_precedence() {
        let p =
            parse(r#"PIPELINE c { CHECK M["a"] < 1 && M["b"] > 2 || !("x" IN C) { } }"#).unwrap();
        let Stmt::Check { cond, .. } = &p.pipelines[0].stmts[0] else {
            panic!()
        };
        // OR of (AND, NOT).
        let Cond::Any(parts) = cond else {
            panic!("expected Any, got {cond:?}")
        };
        assert!(matches!(parts[0], Cond::All(_)));
        assert!(matches!(parts[1], Cond::Not(_)));
    }

    #[test]
    fn parses_merge_policies_and_delegate_payloads() {
        let p = parse(
            r#"PIPELINE m {
                 MERGE "a" "b" INTO "c" POLICY CONCAT("\n---\n");
                 MERGE "a" "b" INTO "d" POLICY BY_SIGNAL("confidence:a", "confidence:b");
                 MERGE "a" "b" INTO "e";
                 DELEGATE "agent" PAYLOAD P["a"] INTO "out";
                 DELEGATE "agent" PAYLOAD 42 INTO "out2";
               }"#,
        )
        .unwrap();
        let s = &p.pipelines[0].stmts;
        assert!(matches!(
            &s[0],
            Stmt::Merge {
                policy: MergePolicy::Concat { .. },
                ..
            }
        ));
        assert!(matches!(
            &s[1],
            Stmt::Merge {
                policy: MergePolicy::BySignal { .. },
                ..
            }
        ));
        assert!(matches!(
            &s[2],
            Stmt::Merge {
                policy: MergePolicy::PreferLeft,
                ..
            }
        ));
        assert!(matches!(
            &s[3],
            Stmt::Delegate {
                payload: PayloadSpec::PromptKey(_),
                ..
            }
        ));
        assert!(matches!(
            &s[4],
            Stmt::Delegate {
                payload: PayloadSpec::Lit(Value::Int(42)),
                ..
            }
        ));
    }

    #[test]
    fn parses_derived_operators() {
        let p = parse(
            r#"PIPELINE d {
                 EXPAND "qa_prompt" "Include PE risk factors.";
                 RETRY "answer" USING "qa_prompt" IF M["confidence"] < 0.7
                   WITH auto_refine() MODE AUTO MAX 2;
                 DIFF "v1" "v2" INTO "delta";
               }"#,
        )
        .unwrap();
        let s = &p.pipelines[0].stmts;
        assert!(matches!(&s[0], Stmt::Expand { .. }));
        let Stmt::Retry { max, mode, .. } = &s[1] else {
            panic!()
        };
        assert_eq!(*max, 2);
        assert_eq!(*mode, RefinementMode::Auto);
        assert!(matches!(&s[2], Stmt::Diff { .. }));
    }

    #[test]
    fn parses_gen_variants_and_ret_where() {
        let p = parse(
            r#"PIPELINE g {
                 GEN "a" USING VIEW summary(topic = "school");
                 GEN "b" USING INLINE "Classify: {{ctx:tweet}}";
                 RET "notes" WHERE { patient_id: "pt-1", max_age_hours: 72 }
                   INTO "recent" LIMIT 10;
                 RET "meds" WITH PROMPT "retrieve_meds" INTO "orders";
               }"#,
        )
        .unwrap();
        let s = &p.pipelines[0].stmts;
        assert!(matches!(
            &s[0],
            Stmt::Gen {
                using: UsingClause::View { .. },
                ..
            }
        ));
        assert!(matches!(
            &s[1],
            Stmt::Gen {
                using: UsingClause::Inline(_),
                ..
            }
        ));
        let Stmt::Ret { filters, limit, .. } = &s[2] else {
            panic!()
        };
        assert_eq!(*limit, 10);
        assert_eq!(
            filters.as_ref().unwrap().get("max_age_hours"),
            Some(&Value::Int(72))
        );
        assert!(matches!(
            &s[3],
            Stmt::Ret {
                prompt: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn refiner_arg_forms() {
        let p = parse(
            r#"PIPELINE r {
                 REF APPEND "p" WITH append("Focus on dosage.");
                 REF UPDATE "p" WITH replace(find = "old", with_ = "new");
                 REF UPDATE "p" WITH normalize();
               }"#,
        )
        .unwrap();
        let s = &p.pipelines[0].stmts;
        let args = |i: usize| match &s[i] {
            Stmt::Ref {
                body: RefBody::With { args, .. },
                ..
            } => args.clone(),
            _ => panic!(),
        };
        assert_eq!(args(0), Value::from("Focus on dosage."));
        assert!(matches!(args(1), Value::Map(_)));
        assert_eq!(args(2), Value::Null);
    }

    #[test]
    fn parses_map_and_switch() {
        let p = parse(
            r#"PIPELINE d {
                 MAP ["intro_note", "followup_note"] WITH normalize();
                 SWITCH {
                   CASE C["note_type"] == "discharge" {
                     GEN "a" USING "discharge_view";
                   }
                   CASE C["note_type"] == "radiology" {
                     GEN "a" USING "radiology_view";
                   }
                   DEFAULT {
                     GEN "a" USING "generic_view";
                   }
                 }
               }"#,
        )
        .unwrap();
        let s = &p.pipelines[0].stmts;
        let Stmt::Map { keys, refiner, .. } = &s[0] else {
            panic!("expected MAP, got {:?}", s[0]);
        };
        assert_eq!(
            keys,
            &vec!["intro_note".to_string(), "followup_note".to_string()]
        );
        assert_eq!(refiner, "normalize");
        let Stmt::Switch { cases, default } = &s[1] else {
            panic!("expected SWITCH");
        };
        assert_eq!(cases.len(), 2);
        assert_eq!(default.len(), 1);
    }

    #[test]
    fn empty_switch_is_rejected() {
        let err = parse("PIPELINE p { SWITCH { } }").unwrap_err();
        assert!(err.to_string().contains("CASE"), "{err}");
    }

    #[test]
    fn errors_carry_positions_and_expectations() {
        let err = parse("PIPELINE p { GEN \"a\" \"b\"; }").unwrap_err();
        assert!(err.to_string().contains("USING"), "{err}");

        let err = parse("VIEW v = missing_string;").unwrap_err();
        assert!(err.to_string().contains("string literal"));

        let err = parse("NOISE").unwrap_err();
        assert!(err.to_string().contains("VIEW"));

        let err = parse("PIPELINE p { CHECK M[\"a\"] < 1 { ").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn truthiness_condition() {
        let p = parse(r#"PIPELINE t { CHECK C["orders"] { } }"#).unwrap();
        let Stmt::Check { cond, .. } = &p.pipelines[0].stmts[0] else {
            panic!()
        };
        assert!(matches!(cond, Cond::Truthy(Operand::Ctx(_))));
    }
}
