//! A hand-rolled recursive-descent parser for the Rust subset the
//! workspace actually uses: items (fn / impl / mod / trait), fn bodies
//! (let / match / if / loops / closures), method chains, paths, casts
//! and macro invocations. It exists so the taint analyzer can see
//! *dataflow* — a wall-clock value laundered through three lets and two
//! helper calls — where a token-level or API-ban check sees only names.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, always terminate.** Every loop provably advances
//!    the cursor; anything unrecognized is swallowed into
//!    [`Expr::Opaque`] with its sub-expressions preserved, so taint
//!    still flows through constructs the parser does not model.
//! 2. **Over-approximate bindings.** Patterns bind every lowercase
//!    non-path identifier they contain; a `match` arm guard variable
//!    may therefore pick up the scrutinee's taint. False positives are
//!    reviewable (and suppressible with `audit:allow`), false negatives
//!    silently rot the determinism contract.
//! 3. **Dependency-free.** Like the rest of this crate: no `syn`, no
//!    vendored stand-ins; the auditor gates every other crate so it
//!    must build first.
//!
//! Known blind spots are documented in `crates/audit/ANALYSIS.md`.

use crate::lexer::{test_regions, Lexed, TokKind, Token};

/// One parsed function (free fn, inherent/trait method, or nested fn),
/// flattened out of whatever item nesting it appeared in.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`merge`).
    pub name: String,
    /// Qualified-ish name for diagnostics (`MetricsSnapshot::merge`).
    pub qual: String,
    /// Bound parameter names in order; `self` appears literally.
    pub params: Vec<String>,
    pub body: Block,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
}

/// `{ stmt* tail? }`
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub tail: Option<Expr>,
}

#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let PAT = init;` — every identifier bound by the pattern.
    Let {
        names: Vec<String>,
        init: Option<Expr>,
        line: u32,
    },
    /// `target = value;` (or compound `+=` etc.).
    Assign {
        target: Expr,
        value: Expr,
        line: u32,
    },
    Expr(Expr),
    Return(Option<Expr>, u32),
}

/// A deliberately small expression tree. Whatever taint analysis does
/// not need (operator precedence, types, lifetimes) is not represented.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `x` or `a::b::c` (single segment = local variable).
    Path {
        segs: Vec<String>,
        line: u32,
    },
    /// `a::b::c(args)`
    Call {
        path: Vec<String>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `recv.name(args)`
    Method {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `inner as Ty` — `ty` keeps only the last path segment.
    Cast {
        inner: Box<Expr>,
        ty: String,
        line: u32,
    },
    /// `&inner` / `&mut inner`
    Ref {
        inner: Box<Expr>,
    },
    /// Operator soup: all operands of a binary chain, flattened.
    Bin {
        parts: Vec<Expr>,
    },
    /// `base.field` / `base.0`
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    /// `base[idx]`
    Index {
        base: Box<Expr>,
        idx: Box<Expr>,
    },
    BlockExpr(Box<Block>),
    If {
        cond: Box<Expr>,
        then: Box<Block>,
        els: Option<Box<Expr>>,
    },
    /// `match scrut { arms }`; `if let` / `while let` lower here too.
    Match {
        scrut: Box<Expr>,
        arms: Vec<Arm>,
    },
    /// `loop` / `while` / `for`: `binds` are the `for` pattern's names,
    /// `iter` the iterated (or `while`-condition) expression.
    Loop {
        binds: Vec<String>,
        iter: Option<Box<Expr>>,
        body: Box<Block>,
    },
    /// `|params| body`
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
    },
    /// `return e` in expression position.
    Ret {
        value: Option<Box<Expr>>,
        line: u32,
    },
    /// String/char/number literal.
    Lit,
    Tuple(Vec<Expr>),
    /// `Path { field: e, .. }` — field values only.
    StructLit {
        path: Vec<String>,
        fields: Vec<Expr>,
        line: u32,
    },
    /// Anything else: children preserved so taint flows through.
    Opaque(Vec<Expr>),
}

/// One match arm: over-approximated bound names plus the body.
#[derive(Debug, Clone)]
pub struct Arm {
    pub binds: Vec<String>,
    pub body: Expr,
}

/// Parse a lexed file into its functions. Never fails: unparseable
/// regions simply contribute no functions.
pub fn parse_file(lexed: &Lexed) -> Vec<FnDef> {
    let in_test = test_regions(&lexed.tokens);
    let mut p = Parser {
        toks: &lexed.tokens,
        in_test: &in_test,
        pos: 0,
        fns: Vec::new(),
        fuel: lexed.tokens.len().saturating_mul(64) + 4096,
    };
    p.items("");
    p.fns
}

struct Parser<'a> {
    toks: &'a [Token],
    in_test: &'a [bool],
    pos: usize,
    fns: Vec<FnDef>,
    /// Hard bound on total parser work: belt-and-braces termination
    /// guarantee on top of "every loop advances".
    fuel: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> u32 {
        self.peek()
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.line)
    }

    fn out_of_fuel(&mut self) -> bool {
        if self.fuel == 0 {
            self.pos = self.toks.len();
            return true;
        }
        self.fuel -= 1;
        false
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `::` (two adjacent `:` puncts).
    fn at_path_sep(&self) -> bool {
        self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':'))
    }

    /// Skip a balanced group starting at the current open delimiter.
    fn skip_group(&mut self, open: char, close: char) {
        if !self.eat_punct(open) {
            return;
        }
        let mut depth = 1u32;
        while depth > 0 {
            if self.out_of_fuel() {
                return;
            }
            match self.bump() {
                None => return,
                Some(t) if t.is_punct(open) => depth += 1,
                Some(t) if t.is_punct(close) => depth -= 1,
                _ => {}
            }
        }
    }

    /// Skip `<...>` generics, counting `<`/`>` (a `>>` is two tokens).
    fn skip_generics(&mut self) {
        if !self.eat_punct('<') {
            return;
        }
        let mut depth = 1i32;
        while depth > 0 {
            if self.out_of_fuel() {
                return;
            }
            match self.bump() {
                None => return,
                Some(t) if t.is_punct('<') => depth += 1,
                Some(t) if t.is_punct('>') => depth -= 1,
                // `(` in a generic position: `Fn(A) -> B` bounds.
                Some(t) if t.is_punct('(') => {
                    self.pos -= 1;
                    self.skip_group('(', ')');
                }
                _ => {}
            }
        }
    }

    /// Skip attribute(s) `#[...]` / `#![...]`.
    fn skip_attrs(&mut self) {
        loop {
            if self.out_of_fuel() {
                return;
            }
            if self.at_punct('#') {
                let next = self.peek_at(1);
                let off = if next.is_some_and(|t| t.is_punct('!')) {
                    2
                } else {
                    1
                };
                if self.peek_at(off).is_some_and(|t| t.is_punct('[')) {
                    self.pos += off;
                    self.skip_group('[', ']');
                    continue;
                }
            }
            return;
        }
    }

    /// Item scanner: collects `fn`s, recurses into `impl`/`mod`/`trait`
    /// bodies, skips everything else structurally.
    fn items(&mut self, qual: &str) {
        while self.pos < self.toks.len() {
            if self.out_of_fuel() {
                return;
            }
            self.skip_attrs();
            let Some(t) = self.peek() else { return };
            match t.kind {
                TokKind::Ident => match t.text.as_str() {
                    "fn" => self.item_fn(qual),
                    "impl" | "trait" => {
                        let kw = t.text.clone();
                        self.pos += 1;
                        let name = self.impl_target_name(&kw);
                        if self.at_punct('{') {
                            let end = self.matching_brace_end();
                            let save = end;
                            self.pos += 1; // inside the `{`
                            self.items_until(save, &name);
                            self.pos = save.min(self.toks.len());
                            self.eat_punct('}');
                        }
                    }
                    "mod" => {
                        self.pos += 1;
                        self.bump(); // module name
                        if self.at_punct('{') {
                            let end = self.matching_brace_end();
                            self.pos += 1;
                            self.items_until(end, qual);
                            self.pos = end.min(self.toks.len());
                            self.eat_punct('}');
                        } else {
                            self.eat_punct(';');
                        }
                    }
                    // Modifiers in front of `fn` (or other items): just
                    // step over them and loop.
                    "pub" => {
                        self.pos += 1;
                        if self.at_punct('(') {
                            self.skip_group('(', ')');
                        }
                    }
                    "unsafe" | "const" | "async" | "extern" | "default" => {
                        self.pos += 1;
                        // `extern "C"` literal.
                        if self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                            self.pos += 1;
                        }
                        // `const NAME: ... = ...;` is an item, not a
                        // modifier; detect by the next token NOT being
                        // `fn`-introducing and skip to `;`.
                        if !self.peek().is_some_and(|t| {
                            t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("extern")
                        }) && t.is_ident("const")
                        {
                            self.skip_to_item_end();
                        }
                    }
                    "use" | "static" | "type" | "macro_rules" => {
                        self.pos += 1;
                        self.skip_to_item_end();
                    }
                    "struct" | "enum" | "union" => {
                        self.pos += 1;
                        self.skip_to_item_end();
                    }
                    _ => {
                        self.pos += 1;
                    }
                },
                TokKind::Punct('{') => self.skip_group('{', '}'),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Like [`items`] but stops at token index `end`.
    fn items_until(&mut self, end: usize, qual: &str) {
        let save = self.toks;
        let slice_end = end.min(save.len());
        // Reuse the same scanner by bounding the cursor manually.
        while self.pos < slice_end {
            if self.out_of_fuel() {
                return;
            }
            let before = self.pos;
            self.items_step(qual, slice_end);
            if self.pos <= before {
                self.pos = before + 1;
            }
        }
    }

    /// One step of the item scanner (bounded variant).
    fn items_step(&mut self, qual: &str, end: usize) {
        self.skip_attrs();
        if self.pos >= end {
            return;
        }
        let Some(t) = self.peek() else { return };
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "fn" => self.item_fn(qual),
                "impl" | "trait" => {
                    let kw = t.text.clone();
                    self.pos += 1;
                    let name = self.impl_target_name(&kw);
                    if self.at_punct('{') {
                        let inner_end = self.matching_brace_end();
                        self.pos += 1;
                        self.items_until(inner_end.min(end), &name);
                        self.pos = inner_end.min(self.toks.len());
                        self.eat_punct('}');
                    }
                }
                "mod" => {
                    self.pos += 1;
                    self.bump();
                    if self.at_punct('{') {
                        let inner_end = self.matching_brace_end();
                        self.pos += 1;
                        self.items_until(inner_end.min(end), qual);
                        self.pos = inner_end.min(self.toks.len());
                        self.eat_punct('}');
                    } else {
                        self.eat_punct(';');
                    }
                }
                "pub" => {
                    self.pos += 1;
                    if self.at_punct('(') {
                        self.skip_group('(', ')');
                    }
                }
                "unsafe" | "const" | "async" | "extern" | "default" => {
                    let is_const = t.is_ident("const");
                    self.pos += 1;
                    if self.peek().is_some_and(|t| t.kind == TokKind::Literal) {
                        self.pos += 1;
                    }
                    if is_const
                        && !self.peek().is_some_and(|t| {
                            t.is_ident("fn") || t.is_ident("unsafe") || t.is_ident("extern")
                        })
                    {
                        self.skip_to_item_end();
                    }
                }
                "use" | "static" | "type" | "macro_rules" | "struct" | "enum" | "union" => {
                    self.pos += 1;
                    self.skip_to_item_end();
                }
                _ => {
                    self.pos += 1;
                }
            },
            TokKind::Punct('{') => self.skip_group('{', '}'),
            _ => {
                self.pos += 1;
            }
        }
    }

    /// After `impl` / `trait`: find the type name this block is for and
    /// leave the cursor at the `{` (or wherever scanning stopped).
    /// `impl<T> Foo for Bar<T> where ...` names `Bar`.
    fn impl_target_name(&mut self, _kw: &str) -> String {
        let mut last_ident = String::new();
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                break;
            }
            match t.kind {
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                TokKind::Punct('<') => self.skip_generics(),
                TokKind::Punct('(') => self.skip_group('(', ')'),
                TokKind::Ident if t.text == "where" => {
                    // Skip the where clause wholesale.
                    while let Some(w) = self.peek() {
                        if w.is_punct('{') || w.is_punct(';') {
                            break;
                        }
                        if w.is_punct('<') {
                            self.skip_generics();
                        } else {
                            self.pos += 1;
                        }
                        if self.out_of_fuel() {
                            break;
                        }
                    }
                }
                TokKind::Ident if t.text != "for" && t.text != "dyn" && t.text != "mut" => {
                    last_ident = t.text.clone();
                    self.pos += 1;
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        last_ident
    }

    /// Token index of the `}` matching the `{` at the cursor.
    fn matching_brace_end(&self) -> usize {
        let mut depth = 0i32;
        let mut i = self.pos;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.toks.len()
    }

    /// Skip a non-fn item: to the `;` or past the matching `{...}`
    /// (whichever comes first at depth 0).
    fn skip_to_item_end(&mut self) {
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                return;
            }
            match t.kind {
                TokKind::Punct(';') => {
                    self.pos += 1;
                    return;
                }
                TokKind::Punct('{') => {
                    self.skip_group('{', '}');
                    return;
                }
                TokKind::Punct('<') => self.skip_generics(),
                TokKind::Punct('(') => self.skip_group('(', ')'),
                TokKind::Punct('[') => self.skip_group('[', ']'),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// `fn name<G>(params) -> Ret where ... { body }`
    fn item_fn(&mut self, qual: &str) {
        let fn_line = self.line();
        let in_test = self.in_test.get(self.pos).copied().unwrap_or(false);
        self.pos += 1; // `fn`
        let name = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => return,
        };
        if self.at_punct('<') {
            self.skip_generics();
        }
        let params = if self.at_punct('(') {
            self.fn_params()
        } else {
            Vec::new()
        };
        // Return type + where clause: skip to body `{` or decl `;`.
        loop {
            if self.out_of_fuel() {
                return;
            }
            match self.peek() {
                None => return,
                Some(t) if t.is_punct('{') => break,
                Some(t) if t.is_punct(';') => {
                    self.pos += 1;
                    return; // trait method declaration, no body
                }
                Some(t) if t.is_punct('<') => self.skip_generics(),
                Some(t) if t.is_punct('(') => self.skip_group('(', ')'),
                Some(t) if t.is_punct('[') => self.skip_group('[', ']'),
                _ => {
                    self.pos += 1;
                }
            }
        }
        let body = self.block();
        let qual_name = if qual.is_empty() {
            name.clone()
        } else {
            format!("{qual}::{name}")
        };
        self.fns.push(FnDef {
            name,
            qual: qual_name,
            params,
            body,
            line: fn_line,
            in_test,
        });
    }

    /// Parse `(a: T, mut b: U, &self, (x, y): V)` → bound names.
    fn fn_params(&mut self) -> Vec<String> {
        let mut params = Vec::new();
        self.eat_punct('(');
        let mut depth = 1i32;
        let mut current: Vec<String> = Vec::new();
        let mut seen_colon_at_top = false;
        while depth > 0 {
            if self.out_of_fuel() {
                break;
            }
            let Some(t) = self.bump() else { break };
            match t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        if let Some(n) = current.first() {
                            params.push(n.clone());
                        }
                    }
                }
                TokKind::Punct('<') => {
                    self.pos -= 1;
                    self.skip_generics();
                }
                TokKind::Punct(',') if depth == 1 => {
                    if let Some(n) = current.first() {
                        params.push(n.clone());
                    }
                    current.clear();
                    seen_colon_at_top = false;
                }
                TokKind::Punct(':') if depth == 1 => {
                    // `::` inside a type never appears before the param
                    // colon; after the first `:` everything is type.
                    seen_colon_at_top = true;
                }
                TokKind::Ident if !seen_colon_at_top && depth == 1 => {
                    let s = t.text.as_str();
                    if s == "self" {
                        current.clear();
                        current.push("self".to_string());
                    } else if s != "mut" && s != "ref" && s != "dyn" {
                        current.push(t.text.clone());
                    }
                }
                _ => {}
            }
        }
        params
    }

    /// Parse `{ ... }` into a [`Block`]. The cursor is on the `{`.
    fn block(&mut self) -> Block {
        let mut blk = Block::default();
        if !self.eat_punct('{') {
            return blk;
        }
        loop {
            if self.out_of_fuel() {
                return blk;
            }
            self.skip_attrs();
            let Some(t) = self.peek() else { return blk };
            match t.kind {
                TokKind::Punct('}') => {
                    self.pos += 1;
                    return blk;
                }
                TokKind::Punct(';') => {
                    self.pos += 1;
                }
                TokKind::Ident if t.text == "let" => {
                    let line = t.line;
                    self.pos += 1;
                    let names = self.pattern_names_until_eq_or_semi();
                    let init = if self.eat_punct('=') {
                        Some(self.expr(false))
                    } else {
                        None
                    };
                    // let-else: `let Some(x) = e else { ... };`
                    if self.at_ident("else") {
                        self.pos += 1;
                        if self.at_punct('{') {
                            let b = self.block();
                            blk.stmts.push(Stmt::Expr(Expr::BlockExpr(Box::new(b))));
                        }
                    }
                    self.eat_punct(';');
                    blk.stmts.push(Stmt::Let { names, init, line });
                }
                TokKind::Ident if t.text == "return" => {
                    let line = t.line;
                    self.pos += 1;
                    let value = if self.at_punct(';') || self.at_punct('}') {
                        None
                    } else {
                        Some(self.expr(false))
                    };
                    self.eat_punct(';');
                    blk.stmts.push(Stmt::Return(value, line));
                }
                // Items nested in a body.
                TokKind::Ident
                    if matches!(
                        t.text.as_str(),
                        "fn" | "use"
                            | "struct"
                            | "enum"
                            | "impl"
                            | "mod"
                            | "trait"
                            | "static"
                            | "type"
                            | "macro_rules"
                    ) =>
                {
                    // A nested fn still gets analyzed (flattened).
                    self.items_step("", self.matching_end_for_stmt());
                }
                _ => {
                    let line = t.line;
                    let e = self.expr(false);
                    // Assignment statement? `target = value;` or `+=`.
                    if let Some(op_len) = self.assignment_op_len() {
                        self.pos += op_len;
                        let value = self.expr(false);
                        self.eat_punct(';');
                        blk.stmts.push(Stmt::Assign {
                            target: e,
                            value,
                            line,
                        });
                    } else if self.eat_punct(';') {
                        blk.stmts.push(Stmt::Expr(e));
                    } else if self.at_punct('}') {
                        self.pos += 1;
                        blk.tail = Some(e);
                        return blk;
                    } else {
                        // Block-valued statement (`if ... {}` `match`):
                        // no `;` required; just keep going.
                        blk.stmts.push(Stmt::Expr(e));
                    }
                }
            }
        }
    }

    /// Upper bound for a statement-level nested item scan.
    fn matching_end_for_stmt(&self) -> usize {
        self.toks.len()
    }

    /// At an assignment operator? Returns its token length.
    /// `=` (not `==`), `+=`, `-=`, `*=`, `/=`, `%=`, `^=`, `&=`, `|=`,
    /// `<<=`, `>>=`.
    fn assignment_op_len(&self) -> Option<usize> {
        let t = self.peek()?;
        let TokKind::Punct(c) = t.kind else {
            return None;
        };
        let next_eq = |off: usize| self.peek_at(off).is_some_and(|t| t.is_punct('='));
        match c {
            '=' if !next_eq(1) => Some(1),
            '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|' if next_eq(1) => Some(2),
            '<' if self.peek_at(1).is_some_and(|t| t.is_punct('<')) && next_eq(2) => Some(3),
            '>' if self.peek_at(1).is_some_and(|t| t.is_punct('>')) && next_eq(2) => Some(3),
            _ => None,
        }
    }

    /// Collect pattern-bound names until `=`, `;`, or `else`/`in` at
    /// depth 0. Heuristic: lowercase-initial identifiers not adjacent
    /// to `::` and not struct-field keys followed by `:` ... are binds;
    /// this over-approximates (shorthand struct patterns bind too,
    /// which is correct).
    fn pattern_names_until_eq_or_semi(&mut self) -> Vec<String> {
        self.pattern_names(&['='], &[";"])
    }

    /// Collect pattern names until one of `stop_punct` at depth 0 or an
    /// ident in `stop_idents`. Leaves the cursor ON the stop token.
    fn pattern_names(&mut self, stop_punct: &[char], stop_idents: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                break;
            }
            match t.kind {
                TokKind::Punct(c) if depth == 0 && stop_punct.contains(&c) => break,
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                    depth += 1;
                    self.pos += 1;
                }
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                TokKind::Punct('<') => self.skip_generics(),
                TokKind::Punct(';') if depth == 0 => break,
                TokKind::Ident => {
                    if depth == 0 && stop_idents.contains(&t.text.as_str()) {
                        break;
                    }
                    let is_path = self.at_path_sep_before()
                        || (self.peek_at(1).is_some_and(|n| n.is_punct(':'))
                            && self.peek_at(2).is_some_and(|n| n.is_punct(':')));
                    let upper = t.text.chars().next().is_some_and(|c| c.is_uppercase());
                    let kw = matches!(t.text.as_str(), "mut" | "ref" | "box" | "_" | "if");
                    if !is_path && !upper && !kw {
                        names.push(t.text.clone());
                    }
                    self.pos += 1;
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    /// Was the previous token pair `::` (i.e. this ident is a path
    /// continuation like the `Relaxed` in `Ordering::Relaxed`)?
    fn at_path_sep_before(&self) -> bool {
        self.pos >= 2
            && self.toks[self.pos - 1].is_punct(':')
            && self.toks[self.pos - 2].is_punct(':')
    }

    /// Expression parser. `no_struct` forbids `Path { .. }` struct
    /// literals (scrutinee / condition position).
    fn expr(&mut self, no_struct: bool) -> Expr {
        let mut parts = vec![self.expr_one(no_struct)];
        // Binary-operator chain: flatten operands.
        loop {
            if self.out_of_fuel() {
                break;
            }
            if self.assignment_op_len().is_some() {
                break;
            }
            let Some(t) = self.peek() else { break };
            let TokKind::Punct(c) = t.kind else { break };
            let next = match self.peek_at(1).map(|n| n.kind) {
                Some(TokKind::Punct(n)) => Some(n),
                _ => None,
            };
            let two = |a: char, b: char| c == a && next == Some(b);
            let is_range = two('.', '.');
            let len = if two('=', '=')
                || two('!', '=')
                || two('<', '=')
                || two('>', '=')
                || two('&', '&')
                || two('|', '|')
                || two('<', '<')
                || two('>', '>')
                || is_range
            {
                2
            } else if matches!(c, '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|' | '<' | '>') {
                1
            } else {
                break;
            };
            self.pos += len;
            if is_range && self.eat_punct('=') {
                // `..=`
            }
            // Range with open end (`a..`): the next token may already
            // terminate the expression.
            if self.expr_terminator() {
                break;
            }
            parts.push(self.expr_one(no_struct));
        }
        if parts.len() == 1 {
            parts.pop().unwrap_or(Expr::Lit)
        } else {
            Expr::Bin { parts }
        }
    }

    fn expr_terminator(&self) -> bool {
        match self.peek() {
            None => true,
            Some(t) => matches!(
                t.kind,
                TokKind::Punct(';')
                    | TokKind::Punct(',')
                    | TokKind::Punct(')')
                    | TokKind::Punct(']')
                    | TokKind::Punct('}')
                    | TokKind::Punct('{')
            ),
        }
    }

    /// One operand: prefix* primary postfix*.
    fn expr_one(&mut self, no_struct: bool) -> Expr {
        if self.out_of_fuel() {
            return Expr::Lit;
        }
        // Prefix operators.
        if self.at_punct('&') {
            self.pos += 1;
            if self.at_ident("mut") {
                self.pos += 1;
            }
            let inner = self.expr_one(no_struct);
            // `&` binds tighter than `as`: the recursive expr_one has
            // already eaten any cast chain, so rotate it back outside
            // the borrow (`&x as *const _` is `(&x) as *const _`).
            return self.postfix(wrap_ref(inner), no_struct);
        }
        if self.at_punct('*') || self.at_punct('-') || self.at_punct('!') {
            self.pos += 1;
            let inner = self.expr_one(no_struct);
            return Expr::Opaque(vec![inner]);
        }
        if self.at_ident("move") || self.at_ident("box") {
            self.pos += 1;
            return self.expr_one(no_struct);
        }
        let primary = self.primary(no_struct);
        self.postfix(primary, no_struct)
    }

    fn primary(&mut self, no_struct: bool) -> Expr {
        let Some(t) = self.peek() else {
            return Expr::Lit;
        };
        let line = t.line;
        match t.kind {
            TokKind::Literal | TokKind::Number => {
                self.pos += 1;
                Expr::Lit
            }
            TokKind::Lifetime => {
                // Loop label `'a: loop` or `break 'a`.
                self.pos += 1;
                self.eat_punct(':');
                self.primary(no_struct)
            }
            TokKind::Punct('(') => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.at_punct(')') {
                    if self.out_of_fuel() || self.peek().is_none() {
                        break;
                    }
                    items.push(self.expr(false));
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.eat_punct(')');
                match items.len() {
                    0 => Expr::Lit,
                    1 => items.pop().unwrap_or(Expr::Lit),
                    _ => Expr::Tuple(items),
                }
            }
            TokKind::Punct('[') => {
                self.pos += 1;
                let mut items = Vec::new();
                while !self.at_punct(']') {
                    if self.out_of_fuel() || self.peek().is_none() {
                        break;
                    }
                    items.push(self.expr(false));
                    if !self.eat_punct(',') && !self.eat_punct(';') {
                        break;
                    }
                }
                self.eat_punct(']');
                Expr::Opaque(items)
            }
            TokKind::Punct('{') => Expr::BlockExpr(Box::new(self.block())),
            TokKind::Punct('|') => self.closure(),
            TokKind::Punct('.') => {
                // `..expr` range start or `..` alone.
                self.pos += 1;
                self.eat_punct('.');
                self.eat_punct('=');
                if self.expr_terminator() {
                    Expr::Lit
                } else {
                    let e = self.expr_one(no_struct);
                    Expr::Opaque(vec![e])
                }
            }
            TokKind::Ident => {
                let kw = t.text.clone();
                match kw.as_str() {
                    "if" => self.if_expr(),
                    "match" => self.match_expr(),
                    "loop" => {
                        self.pos += 1;
                        Expr::Loop {
                            binds: Vec::new(),
                            iter: None,
                            body: Box::new(self.block()),
                        }
                    }
                    "while" => {
                        self.pos += 1;
                        if self.at_ident("let") {
                            self.pos += 1;
                            let binds = self.pattern_names(&['='], &[]);
                            self.eat_punct('=');
                            let scrut = self.expr(true);
                            Expr::Loop {
                                binds,
                                iter: Some(Box::new(scrut)),
                                body: Box::new(self.block()),
                            }
                        } else {
                            let cond = self.expr(true);
                            Expr::Loop {
                                binds: Vec::new(),
                                iter: Some(Box::new(cond)),
                                body: Box::new(self.block()),
                            }
                        }
                    }
                    "for" => {
                        self.pos += 1;
                        let binds = self.pattern_names(&[], &["in"]);
                        if self.at_ident("in") {
                            self.pos += 1;
                        }
                        let iter = self.expr(true);
                        Expr::Loop {
                            binds,
                            iter: Some(Box::new(iter)),
                            body: Box::new(self.block()),
                        }
                    }
                    "unsafe" | "async" => {
                        self.pos += 1;
                        if self.at_punct('{') {
                            Expr::BlockExpr(Box::new(self.block()))
                        } else {
                            self.expr_one(no_struct)
                        }
                    }
                    "return" => {
                        self.pos += 1;
                        let value = if self.expr_terminator() {
                            None
                        } else {
                            Some(Box::new(self.expr(no_struct)))
                        };
                        Expr::Ret { value, line }
                    }
                    "break" | "continue" => {
                        self.pos += 1;
                        if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                            self.pos += 1;
                        }
                        if self.expr_terminator() {
                            Expr::Lit
                        } else {
                            let e = self.expr(no_struct);
                            Expr::Opaque(vec![e])
                        }
                    }
                    "move" => {
                        self.pos += 1;
                        self.closure()
                    }
                    _ => self.path_expr(no_struct),
                }
            }
            _ => {
                self.pos += 1;
                Expr::Lit
            }
        }
    }

    /// `|a, b| body` / `||` (the cursor is on the first `|`).
    fn closure(&mut self) -> Expr {
        let mut params = Vec::new();
        if self.at_punct('|') && self.peek_at(1).is_some_and(|t| t.is_punct('|')) {
            self.pos += 2; // `||`
        } else if self.eat_punct('|') {
            // Params until the closing `|` at depth 0.
            let mut depth = 0i32;
            let mut seen_colon = false;
            while let Some(t) = self.peek() {
                if self.out_of_fuel() {
                    break;
                }
                match t.kind {
                    TokKind::Punct('|') if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    TokKind::Punct('(') | TokKind::Punct('[') => {
                        depth += 1;
                        self.pos += 1;
                    }
                    TokKind::Punct(')') | TokKind::Punct(']') => {
                        depth -= 1;
                        self.pos += 1;
                    }
                    TokKind::Punct('<') => self.skip_generics(),
                    TokKind::Punct(',') if depth == 0 => {
                        seen_colon = false;
                        self.pos += 1;
                    }
                    TokKind::Punct(':') => {
                        seen_colon = true;
                        self.pos += 1;
                    }
                    TokKind::Ident if !seen_colon => {
                        let s = t.text.as_str();
                        if s != "mut" && s != "ref" && s != "_" {
                            params.push(t.text.clone());
                        }
                        self.pos += 1;
                    }
                    _ => {
                        self.pos += 1;
                    }
                }
            }
        }
        // `-> Ty { .. }` closures.
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            while let Some(t) = self.peek() {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct('<') {
                    self.skip_generics();
                } else {
                    self.pos += 1;
                }
                if self.out_of_fuel() {
                    break;
                }
            }
        }
        let body = self.expr(false);
        Expr::Closure {
            params,
            body: Box::new(body),
        }
    }

    fn if_expr(&mut self) -> Expr {
        self.pos += 1; // `if`
        if self.at_ident("let") {
            self.pos += 1;
            let binds = self.pattern_names(&['='], &[]);
            self.eat_punct('=');
            let scrut = self.expr(true);
            let then = self.block();
            let els = self.else_tail();
            let mut arms = vec![Arm {
                binds,
                body: Expr::BlockExpr(Box::new(then)),
            }];
            if let Some(e) = els {
                arms.push(Arm {
                    binds: Vec::new(),
                    body: e,
                });
            }
            return Expr::Match {
                scrut: Box::new(scrut),
                arms,
            };
        }
        let cond = self.expr(true);
        let then = self.block();
        let els = self.else_tail();
        Expr::If {
            cond: Box::new(cond),
            then: Box::new(then),
            els: els.map(Box::new),
        }
    }

    fn else_tail(&mut self) -> Option<Expr> {
        if !self.at_ident("else") {
            return None;
        }
        self.pos += 1;
        if self.at_ident("if") {
            Some(self.if_expr())
        } else if self.at_punct('{') {
            Some(Expr::BlockExpr(Box::new(self.block())))
        } else {
            None
        }
    }

    fn match_expr(&mut self) -> Expr {
        self.pos += 1; // `match`
        let scrut = self.expr(true);
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            loop {
                if self.out_of_fuel() {
                    break;
                }
                self.skip_attrs();
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct('}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => {}
                }
                // Pattern (incl. `|` alternations and `if` guard
                // tokens) up to `=>`.
                let binds = self.arm_pattern_names();
                // `=>`
                if self.at_punct('=') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
                    self.pos += 2;
                } else {
                    // Malformed arm; bail out of the match body.
                    self.skip_to_brace_close();
                    break;
                }
                let body = self.expr(false);
                self.eat_punct(',');
                arms.push(Arm { binds, body });
            }
        }
        Expr::Match {
            scrut: Box::new(scrut),
            arms,
        }
    }

    /// Pattern tokens of one match arm, up to (not including) `=>`.
    fn arm_pattern_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if self.out_of_fuel() {
                break;
            }
            match t.kind {
                TokKind::Punct('=')
                    if depth == 0 && self.peek_at(1).is_some_and(|n| n.is_punct('>')) =>
                {
                    break;
                }
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                    depth += 1;
                    self.pos += 1;
                }
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                TokKind::Ident => {
                    let is_path = (self.peek_at(1).is_some_and(|n| n.is_punct(':'))
                        && self.peek_at(2).is_some_and(|n| n.is_punct(':')))
                        || self.at_path_sep_before();
                    let upper = t.text.chars().next().is_some_and(|c| c.is_uppercase());
                    let kw = matches!(t.text.as_str(), "mut" | "ref" | "box" | "_" | "if");
                    if !is_path && !upper && !kw {
                        names.push(t.text.clone());
                    }
                    self.pos += 1;
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        names.sort();
        names.dedup();
        names
    }

    fn skip_to_brace_close(&mut self) {
        let mut depth = 1i32;
        while let Some(t) = self.bump() {
            if self.out_of_fuel() {
                return;
            }
            match t.kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Path-headed expression: `a::b::c`, `a::b::c(args)`,
    /// `Path { .. }`, `mac!(...)`.
    fn path_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let mut segs = Vec::new();
        loop {
            if self.out_of_fuel() {
                break;
            }
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.pos += 1;
                }
                _ => break,
            }
            if self.at_path_sep() {
                self.pos += 2;
                // Turbofish `::<...>`.
                if self.at_punct('<') {
                    self.skip_generics();
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            // Defensive: `path_expr` is only entered on an ident.
            self.pos += 1;
            return Expr::Lit;
        }
        // Macro invocation `path!(...)` / `path![...]` / `path!{...}`.
        if self.at_punct('!')
            && self
                .peek_at(1)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
        {
            self.pos += 1;
            let (open, close) = match self.peek().map(|t| t.kind) {
                Some(TokKind::Punct('(')) => ('(', ')'),
                Some(TokKind::Punct('[')) => ('[', ']'),
                _ => ('{', '}'),
            };
            let args = self.macro_args(open, close);
            return Expr::Call {
                path: segs,
                args,
                line,
            };
        }
        if self.at_punct('(') {
            self.pos += 1;
            let mut args = Vec::new();
            while !self.at_punct(')') {
                if self.out_of_fuel() || self.peek().is_none() {
                    break;
                }
                args.push(self.expr(false));
                if !self.eat_punct(',') {
                    break;
                }
            }
            self.eat_punct(')');
            return Expr::Call {
                path: segs,
                args,
                line,
            };
        }
        // Struct literal.
        if !no_struct
            && self.at_punct('{')
            && segs
                .last()
                .and_then(|s| s.chars().next())
                .is_some_and(|c| c.is_uppercase())
        {
            self.pos += 1;
            let mut fields = Vec::new();
            loop {
                if self.out_of_fuel() {
                    break;
                }
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct('}') => {
                        self.pos += 1;
                        break;
                    }
                    Some(t) if t.is_punct(',') => {
                        self.pos += 1;
                    }
                    Some(t) if t.is_punct('.') => {
                        // `..base`
                        self.pos += 1;
                        self.eat_punct('.');
                        if !self.at_punct('}') {
                            fields.push(self.expr(false));
                        }
                    }
                    Some(t) if t.kind == TokKind::Ident => {
                        let field_name = t.text.clone();
                        self.pos += 1;
                        if self.at_punct(':') && !self.at_path_sep() {
                            self.pos += 1;
                            fields.push(self.expr(false));
                        } else {
                            // Shorthand `Foo { x }` → reads local `x`.
                            fields.push(Expr::Path {
                                segs: vec![field_name],
                                line,
                            });
                        }
                    }
                    _ => {
                        self.pos += 1;
                    }
                }
            }
            return Expr::StructLit {
                path: segs,
                fields,
                line,
            };
        }
        Expr::Path { segs, line }
    }

    /// Macro arguments: comma-separated expressions, garbage tolerated.
    fn macro_args(&mut self, open: char, close: char) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_punct(open) {
            return args;
        }
        loop {
            if self.out_of_fuel() {
                return args;
            }
            match self.peek() {
                None => return args,
                Some(t) if t.is_punct(close) => {
                    self.pos += 1;
                    return args;
                }
                Some(t) if t.is_punct(',') || t.is_punct(';') => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    args.push(self.expr(false));
                    if self.pos == before {
                        self.pos += 1; // unparseable token: step over
                    }
                }
            }
        }
    }

    /// Postfix chain: `.method(...)`, `.field`, `?`, `[idx]`, `as Ty`,
    /// `(args)` on a non-path callee.
    fn postfix(&mut self, mut e: Expr, _no_struct: bool) -> Expr {
        loop {
            if self.out_of_fuel() {
                return e;
            }
            let Some(t) = self.peek() else { return e };
            match t.kind {
                TokKind::Punct('?') => {
                    self.pos += 1;
                }
                TokKind::Punct('.') => {
                    // Not a range `..`.
                    if self.peek_at(1).is_some_and(|n| n.is_punct('.')) {
                        return e;
                    }
                    let line = t.line;
                    self.pos += 1;
                    match self.peek() {
                        Some(n) if n.kind == TokKind::Ident && n.text == "await" => {
                            self.pos += 1;
                        }
                        Some(n) if n.kind == TokKind::Ident => {
                            let name = n.text.clone();
                            self.pos += 1;
                            // Turbofish `.collect::<...>`.
                            if self.at_path_sep() {
                                self.pos += 2;
                                if self.at_punct('<') {
                                    self.skip_generics();
                                }
                            }
                            if self.at_punct('(') {
                                self.pos += 1;
                                let mut args = Vec::new();
                                while !self.at_punct(')') {
                                    if self.out_of_fuel() || self.peek().is_none() {
                                        break;
                                    }
                                    args.push(self.expr(false));
                                    if !self.eat_punct(',') {
                                        break;
                                    }
                                }
                                self.eat_punct(')');
                                e = Expr::Method {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                    line,
                                };
                            } else {
                                e = Expr::Field {
                                    base: Box::new(e),
                                    name,
                                    line,
                                };
                            }
                        }
                        Some(n) if n.kind == TokKind::Number => {
                            // Tuple index `.0`.
                            self.pos += 1;
                            e = Expr::Field {
                                base: Box::new(e),
                                name: "tuple".into(),
                                line,
                            };
                        }
                        _ => return e,
                    }
                }
                TokKind::Punct('[') => {
                    self.pos += 1;
                    let idx = if self.at_punct(']') {
                        Expr::Lit
                    } else {
                        self.expr(false)
                    };
                    // Swallow anything left before the `]`.
                    while let Some(t) = self.peek() {
                        if t.is_punct(']') {
                            break;
                        }
                        self.pos += 1;
                        if self.out_of_fuel() {
                            break;
                        }
                    }
                    self.eat_punct(']');
                    e = Expr::Index {
                        base: Box::new(e),
                        idx: Box::new(idx),
                    };
                }
                TokKind::Punct('(') => {
                    // Calling a non-path value (closure, fn pointer).
                    self.pos += 1;
                    let mut args = vec![e];
                    while !self.at_punct(')') {
                        if self.out_of_fuel() || self.peek().is_none() {
                            break;
                        }
                        args.push(self.expr(false));
                        if !self.eat_punct(',') {
                            break;
                        }
                    }
                    self.eat_punct(')');
                    e = Expr::Opaque(args);
                }
                TokKind::Ident if t.text == "as" => {
                    let line = t.line;
                    self.pos += 1;
                    let ty = self.cast_type();
                    e = Expr::Cast {
                        inner: Box::new(e),
                        ty,
                        line,
                    };
                }
                _ => return e,
            }
        }
    }

    /// Parse the type after `as`; returns the last path segment
    /// (`usize` for `*const T as usize`).
    fn cast_type(&mut self) -> String {
        let mut last = String::new();
        // Pointer casts keep a `*` prefix (`*const E` → `*E`) so the
        // lowering can tell an address-producing cast from a value one.
        let mut ptr = false;
        loop {
            if self.out_of_fuel() {
                return last;
            }
            let Some(t) = self.peek() else { return last };
            match t.kind {
                TokKind::Ident => {
                    match t.text.as_str() {
                        // Pointer/ref qualifiers: keep scanning.
                        "const" | "mut" | "dyn" => {
                            self.pos += 1;
                        }
                        _ => {
                            last = t.text.clone();
                            self.pos += 1;
                            if self.at_path_sep() {
                                self.pos += 2;
                                continue;
                            }
                            if self.at_punct('<') {
                                self.skip_generics();
                            }
                            // A further `as` chain re-enters postfix.
                            if ptr {
                                last.insert(0, '*');
                            }
                            return last;
                        }
                    }
                }
                TokKind::Punct('*') => {
                    ptr = true;
                    self.pos += 1;
                }
                TokKind::Punct('&') => {
                    self.pos += 1;
                }
                _ => {
                    if ptr && !last.starts_with('*') {
                        last.insert(0, '*');
                    }
                    return last;
                }
            }
        }
    }
}

/// Push a borrow below any cast chain: `Ref{Cast{Cast{x}}}` becomes
/// `Cast{Cast{Ref{x}}}`, matching Rust's precedence where unary `&`
/// binds tighter than `as`.
fn wrap_ref(e: Expr) -> Expr {
    match e {
        Expr::Cast { inner, ty, line } => Expr::Cast {
            inner: Box::new(wrap_ref(*inner)),
            ty,
            line,
        },
        other => Expr::Ref {
            inner: Box::new(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fns(src: &str) -> Vec<FnDef> {
        parse_file(&lex(src))
    }

    #[test]
    fn free_fn_and_method_are_found_with_params() {
        let src = r#"
            fn free(a: u64, mut b: &str) -> u64 { a }
            impl Foo {
                pub fn method(&self, x: u64) -> u64 { x }
            }
        "#;
        let f = fns(src);
        assert_eq!(f.len(), 2, "{f:#?}");
        assert_eq!(f[0].name, "free");
        assert_eq!(f[0].params, vec!["a", "b"]);
        assert_eq!(f[1].qual, "Foo::method");
        assert_eq!(f[1].params, vec!["self", "x"]);
    }

    #[test]
    fn let_binds_and_call_shapes_parse() {
        let src = "fn f() { let t = clock(); let u = t.as_nanos(); g(u); }";
        let f = fns(src);
        assert_eq!(f.len(), 1);
        let b = &f[0].body;
        assert_eq!(b.stmts.len(), 3);
        match &b.stmts[0] {
            Stmt::Let { names, init, .. } => {
                assert_eq!(names, &vec!["t".to_string()]);
                assert!(matches!(init, Some(Expr::Call { .. })));
            }
            other => panic!("stmt0: {other:?}"),
        }
        match &b.stmts[1] {
            Stmt::Let { init, .. } => {
                assert!(matches!(init, Some(Expr::Method { .. })));
            }
            other => panic!("stmt1: {other:?}"),
        }
    }

    #[test]
    fn match_arms_bind_names() {
        let src = "fn f(x: Option<u64>) -> u64 { match x { Some(v) => v, None => 0 } }";
        let f = fns(src);
        let Some(Expr::Match { arms, .. }) = &f[0].body.tail else {
            panic!("no match tail: {f:#?}");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].binds, vec!["v".to_string()]);
        assert!(arms[1].binds.is_empty());
    }

    #[test]
    fn closures_and_for_loops_parse() {
        let src = "fn f(v: Vec<u64>) { for x in v.iter() { g(x); } let s = v.iter().map(|y| y + 1).sum::<u64>(); }";
        let f = fns(src);
        assert_eq!(f.len(), 1);
        let Stmt::Expr(Expr::Loop { binds, iter, .. }) = &f[0].body.stmts[0] else {
            panic!("no for loop: {:#?}", f[0].body.stmts);
        };
        assert_eq!(binds, &vec!["x".to_string()]);
        assert!(iter.is_some());
    }

    #[test]
    fn cast_keeps_target_type() {
        let src = "fn f(x: &u64) -> usize { &x as *const _ as usize }";
        let f = fns(src);
        let Some(Expr::Cast { ty, .. }) = &f[0].body.tail else {
            panic!("no cast: {f:#?}");
        };
        assert_eq!(ty, "usize");
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\nfn prod() {}";
        let f = fns(src);
        let t = f.iter().find(|f| f.name == "t").expect("t found");
        let p = f.iter().find(|f| f.name == "prod").expect("prod found");
        assert!(t.in_test);
        assert!(!p.in_test);
    }

    #[test]
    fn parser_survives_garbage_without_hanging() {
        let garbage = "fn f( { ) } match { => => let = = fn fn }} ]] || |x| as as";
        let _ = fns(garbage); // must terminate, not panic
        let weird = "impl<T: Fn(u8) -> u8> X<T> where T: Y { fn g(&self) { self.0(1); } }";
        let f = fns(weird);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].qual, "X::g");
    }
}
