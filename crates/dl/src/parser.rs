//! SPEAR-DL recursive-descent parser. It builds the core forms directly:
//! each `VIEW` becomes a [`ViewDef`], each statement the [`Op`]s it
//! denotes, and the derived statements (EXPAND, RETRY, DIFF, MAP, SWITCH)
//! lower through the [`PipelineBuilder`] methods that define them, so
//! there is no syntax tree to translate afterwards.

use std::collections::BTreeMap;

use spear_core::condition::{CmpOp, Cond, Operand};
use spear_core::history::{RefAction, RefinementMode};
use spear_core::llm::GenOptions;
use spear_core::ops::{MergePolicy, Op, PayloadSpec, PromptRef};
use spear_core::pipeline::{Pipeline, PipelineBuilder};
use spear_core::retriever::RetrievalQuery;
use spear_core::value::{map, Value};
use spear_core::view::{ParamSpec, ViewDef};

use crate::compile::Compiled;
use crate::error::{DlError, Result};
use crate::lexer::{Pos, Tok, Token};

/// How deep a program may nest: every CHECK, ELSE, CASE and DEFAULT body,
/// every `!` or parenthesised condition, and every CASE of a SWITCH after
/// its first (it lowers into the previous CASE's ELSE) is one level. The
/// parser and every pass over the lowered pipeline recurse once per
/// level, so the bound is what keeps a hostile program from overflowing
/// the stack; hand-written programs nest a few levels.
pub const MAX_DEPTH: usize = 64;

/// The largest `RETRY … MAX n`. Each retry unrolls into a CHECK holding a
/// REF and a GEN, so the bound caps what one statement can emit.
pub const MAX_RETRIES: u32 = 64;

/// Parse a lexed SPEAR-DL program into its views and pipelines.
pub(crate) fn program(tokens: Vec<Token>) -> Result<Compiled> {
    Parser {
        tokens,
        at: 0,
        depth: 0,
    }
    .program()
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
    /// Nesting levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
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

    /// A whole number from 0 to `max`: the `n` of `LIMIT n` and `MAX n`.
    fn count(&mut self, max: u32) -> Result<u32> {
        let n = match self.peek().tok {
            Tok::Num(n) => n,
            _ => return Err(self.expected("number")),
        };
        if n.fract() != 0.0 || !(0.0..=f64::from(max)).contains(&n) {
            return Err(self.err(format!(
                "expected a whole number from 0 to {max}, found {n}"
            )));
        }
        self.advance();
        Ok(n as u32)
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

    /// Run `parse` one nesting level deeper, or fail at the current token
    /// if that would exceed [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.open_level()?;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    /// Open one nesting level for the caller to close, or fail at the
    /// current token if that would exceed [`MAX_DEPTH`].
    fn open_level(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Program structure
    // -----------------------------------------------------------------

    fn program(&mut self) -> Result<Compiled> {
        let mut compiled = Compiled {
            views: Vec::new(),
            pipelines: Vec::new(),
        };
        loop {
            if self.peek().tok == Tok::Eof {
                return Ok(compiled);
            }
            if self.peek_kw("VIEW") {
                compiled.views.push(self.view()?);
            } else if self.peek_kw("PIPELINE") {
                compiled.pipelines.push(self.pipeline()?);
            } else {
                return Err(self.err(format!(
                    "expected 'VIEW' or 'PIPELINE' at top level, found '{}'",
                    self.peek().tok
                )));
            }
        }
    }

    /// `VIEW name(params) TAGS [..] DESC ".." = "template";`
    fn view(&mut self) -> Result<ViewDef> {
        self.expect_kw("VIEW")?;
        let mut view = ViewDef::new(self.ident()?, String::new());
        if self.peek().tok == Tok::LParen {
            self.advance();
            if self.peek().tok != Tok::RParen {
                loop {
                    let name = self.ident()?;
                    view.params.push(if self.peek().tok == Tok::Eq {
                        self.advance();
                        ParamSpec::optional(name, self.value()?)
                    } else {
                        ParamSpec::required(name)
                    });
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
        }
        if self.eat_kw("TAGS") {
            self.expect(&Tok::LBracket)?;
            if self.peek().tok != Tok::RBracket {
                loop {
                    view.tags.insert(self.ident()?);
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBracket)?;
        }
        if self.eat_kw("DESC") {
            view.description = self.string()?;
        }
        self.expect(&Tok::Eq)?;
        view.template = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(view)
    }

    /// `PIPELINE name { stmts }`
    fn pipeline(&mut self) -> Result<Pipeline> {
        self.expect_kw("PIPELINE")?;
        let name = self.ident()?;
        let ops = self.block()?;
        Ok(Pipeline { name, ops })
    }

    fn block(&mut self) -> Result<Vec<Op>> {
        self.expect(&Tok::LBrace)?;
        let mut ops = Pipeline::builder("");
        while self.peek().tok != Tok::RBrace {
            if self.peek().tok == Tok::Eof {
                return Err(self.err("unterminated block: expected '}'"));
            }
            ops = self.stmt(ops)?;
        }
        self.expect(&Tok::RBrace)?;
        Ok(ops.build().ops)
    }

    /// A CHECK, ELSE, CASE or DEFAULT body: a block one level deeper.
    fn body(&mut self) -> Result<Vec<Op>> {
        self.nested(Self::block)
    }

    // -----------------------------------------------------------------
    // Statements: each appends the ops it denotes to `ops`.
    // -----------------------------------------------------------------

    fn stmt(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        let Tok::Ident(kw) = &self.peek().tok else {
            return Err(self.expected("statement"));
        };
        let parse: fn(&mut Self, PipelineBuilder) -> Result<PipelineBuilder> = match kw.as_str() {
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
        parse(self, ops)
    }

    /// `RET "source" [WHERE {..}] [WITH PROMPT "key"] INTO "ctx" [LIMIT n];`
    fn stmt_ret(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("RET")?;
        let source = self.string()?;
        let mut query = RetrievalQuery::All;
        if self.eat_kw("WHERE") {
            self.expect(&Tok::LBrace)?;
            let mut filters = BTreeMap::new();
            if self.peek().tok != Tok::RBrace {
                loop {
                    let key = match &self.peek().tok {
                        Tok::Ident(_) => self.ident()?,
                        Tok::Str(_) => self.string()?,
                        _ => return Err(self.expected("filter field name")),
                    };
                    self.expect(&Tok::Colon)?;
                    filters.insert(key, self.value()?);
                    if self.peek().tok == Tok::Comma {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RBrace)?;
            query = RetrievalQuery::Structured(filters);
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
            self.count(u32::MAX)? as usize
        } else {
            16
        };
        self.expect(&Tok::Semi)?;
        Ok(ops.op(Op::Ret {
            source,
            query,
            prompt,
            into,
            limit,
        }))
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

    /// `name` or `name(k = v, ...)`, the view of `VIEW` in GEN and REF.
    fn view_call(&mut self) -> Result<(String, BTreeMap<String, Value>)> {
        let name = self.ident()?;
        let args = if self.peek().tok == Tok::LParen {
            self.named_args()?
        } else {
            BTreeMap::new()
        };
        Ok((name, args))
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

    /// `refiner(args) [MODE m]`, what follows `WITH` in REF, RETRY and MAP.
    fn refiner(&mut self) -> Result<(String, Value, RefinementMode)> {
        let refiner = self.ident()?;
        let args = self.refiner_args()?;
        let mode = if self.eat_kw("MODE") {
            match self.ident()?.as_str() {
                "MANUAL" => RefinementMode::Manual,
                "ASSISTED" => RefinementMode::Assisted,
                "AUTO" => RefinementMode::Auto,
                other => {
                    return Err(self.err(format!(
                        "unknown mode '{other}' (expected MANUAL, ASSISTED, or AUTO)"
                    )))
                }
            }
        } else {
            RefinementMode::Manual
        };
        Ok((refiner, args, mode))
    }

    /// `GEN "label" USING "key" | VIEW name(args) | INLINE "text";`
    fn stmt_gen(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("GEN")?;
        let label = self.string()?;
        self.expect_kw("USING")?;
        let prompt = if self.eat_kw("VIEW") {
            let (name, args) = self.view_call()?;
            PromptRef::View { name, args }
        } else if self.eat_kw("INLINE") {
            PromptRef::Inline(self.string()?.into())
        } else {
            PromptRef::Key(self.string()?)
        };
        self.expect(&Tok::Semi)?;
        Ok(ops.op(Op::Gen {
            label,
            prompt,
            options: GenOptions::default(),
        }))
    }

    /// `REF ACTION "target" FROM VIEW name(args) | TEXT "text" | WITH
    /// refiner(args) [MODE m];`
    fn stmt_ref(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
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
        let (refiner, args, mode) = if self.eat_kw("FROM") {
            self.expect_kw("VIEW")?;
            let (view, args) = self.view_call()?;
            (
                "from_view".to_string(),
                map([("view", Value::from(view)), ("args", Value::Map(args))]),
                RefinementMode::Manual,
            )
        } else if self.eat_kw("TEXT") {
            (
                "set_text".to_string(),
                Value::from(self.string()?),
                RefinementMode::Manual,
            )
        } else if self.eat_kw("WITH") {
            self.refiner()?
        } else {
            return Err(self.err("expected 'FROM VIEW', 'TEXT', or 'WITH' in REF"));
        };
        self.expect(&Tok::Semi)?;
        Ok(ops.op(Op::Ref {
            target,
            action,
            refiner,
            args,
            mode,
        }))
    }

    /// `CHECK cond { .. } [ELSE { .. }]`
    fn stmt_check(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("CHECK")?;
        let cond = self.cond()?;
        let then_ops = self.body()?;
        let else_ops = if self.eat_kw("ELSE") {
            self.body()?
        } else {
            Vec::new()
        };
        Ok(ops.op(Op::Check {
            cond,
            then_ops,
            else_ops,
        }))
    }

    /// `MERGE "left" "right" INTO "dst" [POLICY ..];`
    fn stmt_merge(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
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
        Ok(ops.op(Op::Merge {
            left,
            right,
            into,
            policy,
        }))
    }

    /// `DELEGATE "agent" PAYLOAD C["key"] | P["key"] | value INTO "ctx";`
    fn stmt_delegate(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
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
        Ok(ops.op(Op::Delegate {
            agent,
            payload,
            into,
        }))
    }

    /// `EXPAND "target" "addition";`
    fn stmt_expand(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("EXPAND")?;
        let target = self.string()?;
        let addition = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(ops.expand(&target, &addition))
    }

    /// `RETRY "label" USING "key" IF cond WITH refiner(args) [MODE m] [MAX n];`
    fn stmt_retry(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("RETRY")?;
        let label = self.string()?;
        self.expect_kw("USING")?;
        let prompt_key = self.string()?;
        self.expect_kw("IF")?;
        let cond = self.cond()?;
        self.expect_kw("WITH")?;
        let (refiner, args, mode) = self.refiner()?;
        let max = if self.eat_kw("MAX") {
            self.count(MAX_RETRIES)?
        } else {
            1
        };
        self.expect(&Tok::Semi)?;
        Ok(ops.retry_gen(&label, &prompt_key, cond, &refiner, args, mode, max))
    }

    /// `MAP ["k1", "k2"] WITH refiner(args) [MODE m];`
    fn stmt_map(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
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
        let (refiner, args, mode) = self.refiner()?;
        self.expect(&Tok::Semi)?;
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        Ok(ops.map_prompts(&keys, &refiner, args, mode))
    }

    /// `SWITCH { CASE cond { .. } ... [DEFAULT { .. }] }`. It lowers to
    /// one CHECK per CASE, each in the previous CASE's ELSE, and DEFAULT
    /// in the last ELSE, so it is charged the nesting it lowers to: every
    /// CASE after the first opens one more level, held to the end of the
    /// SWITCH, and DEFAULT, which lands innermost, must come last.
    fn stmt_switch(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("SWITCH")?;
        self.expect(&Tok::LBrace)?;
        let outer = self.depth;
        let out = self.switch_arms(ops);
        self.depth = outer;
        out
    }

    /// A SWITCH's CASEs and DEFAULT, through its closing `}`.
    fn switch_arms(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        let mut cases = Vec::new();
        let mut default = Vec::new();
        loop {
            if self.eat_kw("CASE") {
                if !cases.is_empty() {
                    self.open_level()?;
                }
                let cond = self.cond()?;
                let body = self.body()?;
                cases.push((cond, body));
            } else if self.eat_kw("DEFAULT") {
                default = self.body()?;
                if self.peek().tok != Tok::RBrace {
                    return Err(self.err("DEFAULT must be the last arm of a SWITCH"));
                }
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
        Ok(ops.switch(cases, default))
    }

    /// `DIFF "left" "right" INTO "ctx";`
    fn stmt_diff(&mut self, ops: PipelineBuilder) -> Result<PipelineBuilder> {
        self.expect_kw("DIFF")?;
        let left = self.string()?;
        let right = self.string()?;
        self.expect_kw("INTO")?;
        let into = self.string()?;
        self.expect(&Tok::Semi)?;
        Ok(ops.diff(&left, &right, &into))
    }

    // -----------------------------------------------------------------
    // Conditions
    // -----------------------------------------------------------------

    /// `a || b || ..`, the loosest-binding form.
    fn cond(&mut self) -> Result<Cond> {
        self.joined(&Tok::OrOr, Self::cond_and, Cond::Any)
    }

    fn cond_and(&mut self) -> Result<Cond> {
        self.joined(&Tok::AndAnd, Self::cond_unary, Cond::All)
    }

    /// One `part`, or several separated by `sep` and combined by `join`.
    fn joined(
        &mut self,
        sep: &Tok,
        part: fn(&mut Self) -> Result<Cond>,
        join: fn(Vec<Cond>) -> Cond,
    ) -> Result<Cond> {
        let first = part(self)?;
        if &self.peek().tok != sep {
            return Ok(first);
        }
        let mut parts = vec![first];
        while &self.peek().tok == sep {
            self.advance();
            parts.push(part(self)?);
        }
        Ok(join(parts))
    }

    fn cond_unary(&mut self) -> Result<Cond> {
        if self.peek().tok == Tok::Bang {
            self.advance();
            return Ok(Cond::Not(Box::new(self.nested(Self::cond_unary)?)));
        }
        if self.peek().tok == Tok::LParen {
            self.advance();
            let c = self.nested(Self::cond)?;
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
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::compile;

    fn args<const N: usize>(pairs: [(&str, Value); N]) -> BTreeMap<String, Value> {
        pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    /// The ops of the one pipeline in `src`.
    fn ops(src: &str) -> Vec<Op> {
        let mut compiled = compile(src).unwrap();
        assert_eq!(compiled.pipelines.len(), 1);
        compiled.pipelines.remove(0).ops
    }

    fn built(build: impl FnOnce(PipelineBuilder) -> PipelineBuilder) -> Vec<Op> {
        build(Pipeline::builder("")).build().ops
    }

    #[test]
    fn parses_view_declarations() {
        let c = compile(
            r#"VIEW med_summary(drug, word_limit = 50)
                 TAGS [clinical, qa]
                 DESC "Medication summary scaffold"
               = "Summarize {{drug}} within {{word_limit}} words.";"#,
        )
        .unwrap();
        assert_eq!(
            c.views,
            vec![ViewDef::new(
                "med_summary",
                "Summarize {{drug}} within {{word_limit}} words."
            )
            .with_param(ParamSpec::required("drug"))
            .with_param(ParamSpec::optional("word_limit", 50))
            .with_tag("clinical")
            .with_tag("qa")
            .with_description("Medication summary scaffold")]
        );
    }

    #[test]
    fn parses_the_paper_qa_pipeline() {
        let c = compile(
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
        let expected = Pipeline::builder("enoxaparin_qa")
            .ret("initial_notes", "notes", 5)
            .create_from_view(
                "qa_prompt",
                "med_summary",
                args([("drug", Value::from("Enoxaparin"))]),
            )
            .gen("answer_0", "qa_prompt")
            .check(Cond::low_confidence(0.7), |b| {
                b.refine(
                    "qa_prompt",
                    RefAction::Update,
                    "auto_refine",
                    Value::Null,
                    RefinementMode::Auto,
                )
                .gen("answer_1", "qa_prompt")
            })
            .check(Cond::NotInContext("orders".to_string()), |b| {
                b.ret("order_lookup", "orders", 16)
            })
            .delegate(
                "validation_agent",
                PayloadSpec::CtxKey("answer_1".to_string()),
                "evidence_score",
            )
            .build();
        assert_eq!(c.pipelines, vec![expected]);
    }

    #[test]
    fn parses_conditions_with_precedence() {
        // OR of (AND, NOT).
        let cond = Cond::Any(vec![
            Cond::All(vec![
                Cond::signal_cmp("a", CmpOp::Lt, 1),
                Cond::signal_cmp("b", CmpOp::Gt, 2),
            ]),
            Cond::Not(Box::new(Cond::InContext("x".to_string()))),
        ]);
        assert_eq!(
            ops(r#"PIPELINE c { CHECK M["a"] < 1 && M["b"] > 2 || !("x" IN C) { } }"#),
            built(|b| b.check(cond, |b| b))
        );
    }

    #[test]
    fn parses_merge_policies_and_delegate_payloads() {
        assert_eq!(
            ops(r#"PIPELINE m {
                 MERGE "a" "b" INTO "c" POLICY CONCAT("\n---\n");
                 MERGE "a" "b" INTO "d" POLICY BY_SIGNAL("confidence:a", "confidence:b");
                 MERGE "a" "b" INTO "e";
                 DELEGATE "agent" PAYLOAD P["a"] INTO "out";
                 DELEGATE "agent" PAYLOAD 42 INTO "out2";
               }"#),
            built(|b| b
                .merge(
                    "a",
                    "b",
                    "c",
                    MergePolicy::Concat {
                        separator: "\n---\n".to_string()
                    }
                )
                .merge(
                    "a",
                    "b",
                    "d",
                    MergePolicy::BySignal {
                        left_signal: "confidence:a".to_string(),
                        right_signal: "confidence:b".to_string(),
                    }
                )
                .merge("a", "b", "e", MergePolicy::PreferLeft)
                .delegate("agent", PayloadSpec::PromptKey("a".to_string()), "out")
                .delegate("agent", PayloadSpec::Lit(Value::Int(42)), "out2"))
        );
    }

    #[test]
    fn parses_derived_operators() {
        assert_eq!(
            ops(r#"PIPELINE d {
                 EXPAND "qa_prompt" "Include PE risk factors.";
                 RETRY "answer" USING "qa_prompt" IF M["confidence"] < 0.7
                   WITH auto_refine() MODE AUTO MAX 2;
                 DIFF "v1" "v2" INTO "delta";
               }"#),
            built(|b| b
                .expand("qa_prompt", "Include PE risk factors.")
                .retry_gen(
                    "answer",
                    "qa_prompt",
                    Cond::low_confidence(0.7),
                    "auto_refine",
                    Value::Null,
                    RefinementMode::Auto,
                    2,
                )
                .diff("v1", "v2", "delta"))
        );
    }

    #[test]
    fn parses_gen_variants_and_ret_where() {
        let filters = args([
            ("patient_id", Value::from("pt-1")),
            ("max_age_hours", Value::Int(72)),
        ]);
        assert_eq!(
            ops(r#"PIPELINE g {
                 GEN "a" USING VIEW summary(topic = "school");
                 GEN "b" USING INLINE "Classify: {{ctx:tweet}}";
                 RET "notes" WHERE { patient_id: "pt-1", max_age_hours: 72 }
                   INTO "recent" LIMIT 10;
                 RET "meds" WITH PROMPT "retrieve_meds" INTO "orders";
               }"#),
            built(|b| b
                .gen_with(
                    "a",
                    PromptRef::View {
                        name: "summary".to_string(),
                        args: args([("topic", Value::from("school"))]),
                    },
                    GenOptions::default(),
                )
                .gen_with(
                    "b",
                    PromptRef::Inline("Classify: {{ctx:tweet}}".into()),
                    GenOptions::default(),
                )
                .ret_structured("notes", filters, "recent", 10)
                .ret_with_prompt("meds", "retrieve_meds", "orders", 16))
        );
    }

    #[test]
    fn refiner_arg_forms() {
        let update = |b: PipelineBuilder, refiner: &str, args: Value| {
            b.refine(
                "p",
                RefAction::Update,
                refiner,
                args,
                RefinementMode::Manual,
            )
        };
        assert_eq!(
            ops(r#"PIPELINE r {
                 REF APPEND "p" WITH append("Focus on dosage.");
                 REF UPDATE "p" WITH replace(find = "old", with_ = "new");
                 REF UPDATE "p" WITH normalize();
               }"#),
            built(|b| {
                let b = b.refine(
                    "p",
                    RefAction::Append,
                    "append",
                    Value::from("Focus on dosage."),
                    RefinementMode::Manual,
                );
                let b = update(
                    b,
                    "replace",
                    map([("find", Value::from("old")), ("with_", Value::from("new"))]),
                );
                update(b, "normalize", Value::Null)
            })
        );
    }

    #[test]
    fn parses_map_and_switch() {
        let note_type = |kind: &str| Cond::Cmp {
            lhs: Operand::Ctx("note_type".to_string()),
            op: CmpOp::Eq,
            rhs: Operand::Lit(Value::from(kind)),
        };
        let gen_a = |key: &str| built(|b| b.gen("a", key));
        assert_eq!(
            ops(r#"PIPELINE d {
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
               }"#),
            built(|b| b
                .map_prompts(
                    &["intro_note", "followup_note"],
                    "normalize",
                    Value::Null,
                    RefinementMode::Manual,
                )
                .switch(
                    vec![
                        (note_type("discharge"), gen_a("discharge_view")),
                        (note_type("radiology"), gen_a("radiology_view")),
                    ],
                    gen_a("generic_view"),
                ))
        );
    }

    #[test]
    fn empty_switch_is_rejected() {
        let err = compile("PIPELINE p { SWITCH { } }").unwrap_err();
        assert!(err.to_string().contains("CASE"), "{err}");
    }

    #[test]
    fn errors_carry_positions_and_expectations() {
        let err = compile("PIPELINE p { GEN \"a\" \"b\"; }").unwrap_err();
        assert!(err.to_string().contains("USING"), "{err}");

        let err = compile("VIEW v = missing_string;").unwrap_err();
        assert!(err.to_string().contains("string literal"));

        let err = compile("NOISE").unwrap_err();
        assert!(err.to_string().contains("VIEW"));

        let err = compile("PIPELINE p { CHECK M[\"a\"] < 1 { ").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn truthiness_condition() {
        assert_eq!(
            ops(r#"PIPELINE t { CHECK C["orders"] { } }"#),
            built(|b| b.check(Cond::Truthy(Operand::Ctx("orders".to_string())), |b| b))
        );
    }

    #[test]
    fn counts_are_whole_numbers_within_their_bound() {
        let retry = |max: &str| {
            compile(&format!(
                r#"PIPELINE r {{ RETRY "a" USING "p" IF TRUE WITH normalize() MAX {max}; }}"#
            ))
        };
        let limit = |n: &str| compile(&format!(r#"PIPELINE r {{ RET "s" INTO "c" LIMIT {n}; }}"#));
        for bad in [
            retry("-1"),
            retry("2.9"),
            retry(&(MAX_RETRIES + 1).to_string()),
            retry("4000000000"),
            limit("-5"),
            limit("1.5"),
        ] {
            let err = bad.unwrap_err().to_string();
            assert!(
                err.starts_with("spear-dl parse error at 1:")
                    && err.contains("expected a whole number from 0 to"),
                "{err}"
            );
        }
        let size = |c: crate::Compiled| c.pipelines[0].size();
        assert_eq!(size(retry("0").unwrap()), 1);
        assert_eq!(
            size(retry(&MAX_RETRIES.to_string()).unwrap()),
            1 + 3 * u64::from(MAX_RETRIES)
        );
        assert_eq!(size(limit("0").unwrap()), 1);
    }

    #[test]
    fn nesting_is_bounded() {
        let bangs = format!("PIPELINE p {{ CHECK {}TRUE {{ }} }}", "!".repeat(1_000_000));
        let checks = format!("PIPELINE p {{ {}", "CHECK TRUE { ".repeat(20_000));
        for src in [bangs, checks] {
            let err = compile(&src).unwrap_err().to_string();
            assert!(err.contains("error at"), "{err}");
            assert!(
                err.contains(&format!("nesting deeper than {MAX_DEPTH} levels")),
                "{err}"
            );
        }
        // Exactly the bound still compiles, in each kind of nesting.
        let checks = |n: usize| {
            format!(
                "PIPELINE p {{ {}{} }}",
                "CHECK TRUE { ".repeat(n),
                "} ".repeat(n)
            )
        };
        let cond = |open: &str, close: &str, n: usize| {
            format!(
                "PIPELINE p {{ CHECK {}TRUE{} {{ }} }}",
                open.repeat(n),
                close.repeat(n)
            )
        };
        // A SWITCH of n CASEs lowers to n nested CHECKs.
        let switch_stmt = |n: usize| format!("SWITCH {{ {}}}", "CASE TRUE { } ".repeat(n));
        let switch = |n: usize| format!("PIPELINE p {{ {} }}", switch_stmt(n));
        for n in [MAX_DEPTH, MAX_DEPTH + 1] {
            let fits = n <= MAX_DEPTH;
            assert_eq!(compile(&checks(n)).is_ok(), fits, "{n} CHECKs");
            assert_eq!(compile(&cond("(", ")", n)).is_ok(), fits, "{n} parens");
            assert_eq!(compile(&cond("!", "", n)).is_ok(), fits, "{n} bangs");
            assert_eq!(compile(&switch(n)).is_ok(), fits, "{n} CASEs");
        }
        let deepest = |ops: &[Op]| {
            let mut depth = 0;
            let mut level = ops;
            while let Some(Op::Check { else_ops, .. }) = level.first() {
                depth += 1;
                level = else_ops;
            }
            depth
        };
        let compiled = compile(&switch(MAX_DEPTH)).unwrap();
        assert_eq!(deepest(&compiled.pipelines[0].ops), MAX_DEPTH);
        // A SWITCH nested at the bound has no level left for its CASEs,
        // nor does a CASE past the bound in a SWITCH at depth one.
        let inside = |n: usize, cases: usize| {
            format!(
                "PIPELINE p {{ {}{} {}}}",
                "CHECK TRUE { ".repeat(n),
                switch_stmt(cases),
                "} ".repeat(n)
            )
        };
        for (n, cases, fits) in [
            (MAX_DEPTH - 1, 1, true),
            (MAX_DEPTH, 1, false),
            (1, MAX_DEPTH - 1, true),
            (1, MAX_DEPTH, false),
        ] {
            assert_eq!(
                compile(&inside(n, cases)).is_ok(),
                fits,
                "{cases} CASEs inside {n} CHECKs"
            );
        }
        // A SWITCH far too long for the stack gets the positioned error,
        // and so does a CASE after DEFAULT, which would land below it.
        let err = compile(&switch(100_000)).unwrap_err().to_string();
        assert!(
            err.contains("error at 1:")
                && err.contains(&format!("nesting deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
        let err = compile("PIPELINE p { SWITCH { DEFAULT { } CASE TRUE { } } }")
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("DEFAULT must be the last arm of a SWITCH"),
            "{err}"
        );
    }
}
