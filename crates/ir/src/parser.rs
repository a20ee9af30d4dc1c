//! A parser for the textual IR format produced by the printer.
//!
//! The grammar (whitespace-insensitive, `;` starts a line comment):
//!
//! ```text
//! module    ::= function+
//! function  ::= "function" "%" NAME [paramlist] "{" block* "}"
//! NAME      ::= IDENT | STRING
//! block     ::= BLOCKREF [paramlist] ":" inst*
//! paramlist ::= "(" [VALUEREF ("," VALUEREF)*] ")"
//! inst      ::= VALUEREF "=" op | terminator
//! op        ::= "iconst" INT | UNOP VALUEREF | BINOP VALUEREF "," VALUEREF
//! terminator::= "jump" call | "brif" VALUEREF "," call "," call
//!             | "return" [VALUEREF ("," VALUEREF)*]
//! call      ::= BLOCKREF [arglist]
//! ```
//!
//! Function names that are not bare identifiers are written as quoted
//! strings (`function %"odd name!" { ... }`) with `\"`, `\\`, `\n`,
//! `\t`, `\r` and `\u{hex}` escapes — the printer quotes exactly when
//! needed, so `parse(display(f))` holds for every name.
//!
//! Source names (`v7`, `block3`) are arbitrary non-negative numbers; they
//! are mapped to freshly numbered entities in order of textual
//! definition, independently per function. Both blocks *and values* may
//! be referenced before their definition: a pre-pass registers every
//! definition site (block headers, block parameters, `vN =` results),
//! so a printed function whose layout order differs from dominance
//! order still re-parses. Using a value with no definition anywhere in
//! the function is an error.
//!
//! [`parse_function`] accepts exactly one `function` unit;
//! [`parse_module`] accepts one or more and returns a
//! [`Module`](crate::Module).
//!
//! A parse allocates little beyond the IR it builds: the source is
//! lexed once into tokens that borrow identifiers from it, and error
//! positions (1-based line, column counted in chars) are recovered from
//! a token's byte offset only when an error is reported.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::entities::{Block, Value};
use crate::function::Function;
use crate::instr::{BinaryOp, BlockCall, InstData, UnaryOp};
use crate::module::Module;

/// A parse error with 1-based line/column and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one function from `src`.
///
/// # Errors
///
/// Returns a [`ParseError`] (with position) for syntax errors, undefined
/// or redefined values, branches to undeclared blocks, or trailing input.
///
/// # Examples
///
/// ```
/// use fastlive_ir::parse_function;
///
/// let f = parse_function(
///     "function %f { block0(v0): v1 = iadd v0, v0  return v1 }",
/// )?;
/// assert_eq!(f.name, "f");
/// assert_eq!(f.num_blocks(), 1);
/// # Ok::<(), fastlive_ir::ParseError>(())
/// ```
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    Parser::new(src)?.parse()
}

/// Parses a whole [`Module`]: one or more `function` units in one
/// source. Function names must be distinct; entity numbering restarts
/// per function, so each unit is exactly what [`parse_function`] would
/// accept on its own.
///
/// # Errors
///
/// Returns a [`ParseError`] for any per-function syntax error, for an
/// empty source, and for duplicate function names.
///
/// # Examples
///
/// ```
/// use fastlive_ir::parse_module;
///
/// let m = parse_module(
///     "function %a { block0: return }
///      function %b { block0(v0): return v0 }",
/// )?;
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.func(m.by_name("b").unwrap()).params().len(), 1);
/// # Ok::<(), fastlive_ir::ParseError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut parser = Parser::new(src)?;
    let mut module = Module::new();
    if *parser.tok() == Tok::Eof {
        return Err(parser.err("empty module: expected at least one `function`"));
    }
    let mut names = HashSet::new();
    while *parser.tok() != Tok::Eof {
        let at = parser.toks[parser.pos].at;
        let func = parser.parse_unit()?;
        if !names.insert(func.name.clone()) {
            let message = format!("function %{} defined twice", func.name);
            return Err(error_at(src, at, message));
        }
        module.push(func);
    }
    Ok(module)
}

// ------------------------------------------------------------- lexer

#[derive(Debug, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str), // iadd, function, v3, block0, ... (a slice of the source)
    Str(String),    // "quoted function name", unescaped
    Int(i64),       // possibly negative
    Percent,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Colon,
    Eq,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Str(s) => write!(f, "`\"{s}\"`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token and the byte offset where it starts.
struct Token<'a> {
    tok: Tok<'a>,
    at: usize,
}

/// A [`ParseError`] at byte offset `at` of `src`: 1-based line, and
/// 1-based column counted in chars.
fn error_at(src: &str, at: usize, message: impl Into<String>) -> ParseError {
    let before = &src[..at];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    ParseError {
        line: 1 + before.bytes().filter(|&b| b == b'\n').count(),
        col: 1 + before[line_start..].chars().count(),
        message: message.into(),
    }
}

/// Lexes all of `src`; the last token is always `Eof`. Every token
/// starts with an ASCII byte, so the lexer walks bytes and decodes a
/// full char only inside quoted names and for other non-ASCII input,
/// which is whitespace (U+00A0, ...) or an error. A comment ends at
/// the next `\n` byte, which no multi-byte char contains.
fn lex(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let at = i;
        i += 1;
        let tok = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                // Indentation comes in runs.
                while bytes.get(i) == Some(&b' ') {
                    i += 1;
                }
                continue;
            }
            b';' => {
                i = bytes[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(bytes.len(), |p| i + p + 1);
                continue;
            }
            b'%' => Tok::Percent,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b',' => Tok::Comma,
            b':' => Tok::Colon,
            b'=' => Tok::Eq,
            b'"' => {
                let (name, end) = string_literal(src, at)?;
                i = end;
                Tok::Str(name)
            }
            b'-' | b'0'..=b'9' => {
                i += bytes[i..].iter().take_while(|c| c.is_ascii_digit()).count();
                let text = &src[at..i];
                match text.parse() {
                    Ok(value) => Tok::Int(value),
                    Err(_) => {
                        let message = format!("invalid integer literal `{text}`");
                        return Err(error_at(src, at, message));
                    }
                }
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' => {
                i += bytes[i..]
                    .iter()
                    .take_while(|&&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                    .count();
                Tok::Ident(&src[at..i])
            }
            _ => {
                let c = src[at..].chars().next().expect("`at` is a char boundary");
                if !c.is_whitespace() {
                    return Err(error_at(src, at, format!("unexpected character `{c}`")));
                }
                i = at + c.len_utf8();
                continue;
            }
        };
        toks.push(Token { tok, at });
    }
    toks.push(Token {
        tok: Tok::Eof,
        at: src.len(),
    });
    Ok(toks)
}

/// Lexes the quoted name whose opening `"` is at byte `at`, returning
/// its unescaped text and the offset just past the closing `"`. Total
/// over arbitrary input: an unterminated literal or a bad escape is a
/// [`ParseError`] at the opening `"`, never a panic or a hang.
fn string_literal(src: &str, at: usize) -> Result<(String, usize), ParseError> {
    let fail = |message: String| error_at(src, at, message);
    let mut chars = src[at + 1..].chars();
    let mut s = String::new();
    loop {
        match chars.next() {
            None => return Err(fail("unterminated string literal".into())),
            Some('"') => break,
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('n') => s.push('\n'),
                Some('t') => s.push('\t'),
                Some('r') => s.push('\r'),
                Some('u') => {
                    if chars.next() != Some('{') {
                        return Err(fail("expected `{` after `\\u`".into()));
                    }
                    let mut hex = String::new();
                    loop {
                        match chars.next() {
                            Some('}') => break,
                            Some(c) if c.is_ascii_hexdigit() && hex.len() < 6 => hex.push(c),
                            _ => return Err(fail("malformed `\\u{...}` escape".into())),
                        }
                    }
                    let cp = u32::from_str_radix(&hex, 16)
                        .map_err(|_| fail("empty `\\u{}` escape".into()))?;
                    s.push(
                        char::from_u32(cp)
                            .ok_or_else(|| fail(format!("`\\u{{{hex}}}` is not a character")))?,
                    );
                }
                other => {
                    let shown = other.map_or("end of input".into(), |c| format!("`\\{c}`"));
                    return Err(fail(format!("invalid escape {shown}")));
                }
            },
            Some(c) => s.push(c),
        }
    }
    Ok((s, src.len() - chars.as_str().len()))
}

/// Parses the `N` of a `v<N>` or `block<N>` identifier: one or more
/// ASCII digits after `prefix`, without overflowing `u64`.
fn entity_num(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.as_bytes();
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &d| {
        if !d.is_ascii_digit() {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
}

/// Source entity number -> entity index, for the unit being parsed.
/// Numbers below the source's token count (all a printed function
/// uses) index `dense`, whose entries carry the unit that set them, so
/// starting a unit is O(1); larger numbers go to `sparse`.
struct EntityMap {
    unit: usize,
    limit: u64,
    dense: Vec<(usize, u32)>,
    sparse: HashMap<u64, u32>,
}

impl EntityMap {
    fn new(limit: usize) -> Self {
        EntityMap {
            unit: 0,
            limit: limit as u64,
            dense: Vec::new(),
            sparse: HashMap::new(),
        }
    }

    /// Starts a unit with no mappings; called before any `get` or
    /// `insert`, so `dense`'s zeroed entries never match.
    fn start_unit(&mut self) {
        self.unit += 1;
        self.sparse.clear();
    }

    fn get(&self, n: u64) -> Option<u32> {
        if n >= self.limit {
            return self.sparse.get(&n).copied();
        }
        match self.dense.get(n as usize) {
            Some(&(unit, e)) if unit == self.unit => Some(e),
            _ => None,
        }
    }

    /// Maps `n` to `e`; returns `false`, changing nothing, if `n` is
    /// already mapped.
    fn insert(&mut self, n: u64, e: u32) -> bool {
        if self.get(n).is_some() {
            return false;
        }
        if n >= self.limit {
            self.sparse.insert(n, e);
        } else {
            let i = n as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, (0, 0));
            }
            self.dense[i] = (self.unit, e);
        }
        true
    }
}

// ------------------------------------------------------------ parser

struct Parser<'a> {
    src: &'a str,
    /// The whole source, pre-lexed (the last entry is always `Eof`).
    toks: Vec<Token<'a>>,
    /// Index of the current token within `toks`.
    pos: usize,
    /// Source block number -> entity, for the function being parsed.
    /// Headers are pre-registered in definition order so that block
    /// numbering is stable under print/parse round trips regardless of
    /// forward references.
    blocks: EntityMap,
    /// Source value number -> reserved entity slot. Definition sites
    /// are pre-registered in textual order (so numbering is stable),
    /// and each slot is bound to its block parameter or instruction
    /// result when the body parse reaches the definition.
    values: EntityMap,
    /// Parameters and instructions of each header the pre-pass found,
    /// in block order: the capacity each block is created with.
    block_sizes: Vec<(usize, usize)>,
    func: Function,
}

impl<'a> Parser<'a> {
    /// Lexes the whole source up front (a module can then be parsed as
    /// a sequence of function units without re-lexing).
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let toks = lex(src)?;
        let limit = toks.len();
        Ok(Parser {
            src,
            toks,
            pos: 0,
            blocks: EntityMap::new(limit),
            values: EntityMap::new(limit),
            block_sizes: Vec::new(),
            func: Function::new(""),
        })
    }

    /// Pre-pass: register every *definition site* of the **current
    /// function body** in textual order — block headers (an identifier
    /// `blockN` followed by `:` or by `( ... ) :`), the value
    /// parameters inside those headers, and `vN =` instruction results
    /// — so blocks and values are numbered by textual definition
    /// rather than first mention, and both kinds of forward reference
    /// resolve. Called with the cursor just past the function's `{`;
    /// scans up to the matching `}` without moving it. Duplicate value
    /// definitions are reported here, with the position of the second
    /// site.
    fn preregister_defs(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        let (mut reserved, mut results) = (0, 0);
        self.block_sizes.clear();
        for i in self.pos..self.toks.len() {
            match self.toks[i].tok {
                Tok::LBrace => depth += 1,
                Tok::RBrace if depth == 0 => break,
                Tok::RBrace => depth -= 1,
                Tok::Eof => break,
                Tok::Ident(name) => {
                    if let Some(n) = entity_num(name, "block") {
                        self.preregister_header(i, n, &mut reserved)?;
                    } else if let Some(n) = entity_num(name, "v") {
                        // `vN =` is an instruction-result definition.
                        if self.toks.get(i + 1).is_some_and(|t| t.tok == Tok::Eq) {
                            self.register_value_def(n, i, &mut reserved)?;
                            results += 1;
                            if let Some(size) = self.block_sizes.last_mut() {
                                size.1 += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Each header's block ends in a terminator.
        let headers = self.block_sizes.len();
        self.func.reserve(headers, reserved, results + headers);
        for &(params, insts) in &self.block_sizes {
            self.func.add_block_with_capacity(params, insts);
        }
        Ok(())
    }

    /// The pre-pass on an identifier `blockN` at token `i`: a block
    /// header if a `:` follows, directly or after a parenthesized list.
    /// The list's values are registered only if each entry is a value
    /// name (the body parse rejects any other list).
    fn preregister_header(
        &mut self,
        i: usize,
        n: u64,
        reserved: &mut usize,
    ) -> Result<(), ParseError> {
        let mut j = i + 1;
        let (mut params, mut count) = (i..i, 0);
        if self.toks.get(j).is_some_and(|t| t.tok == Tok::LParen) {
            j += 1;
            let start = j;
            let mut clean = true;
            while j < self.toks.len() && self.toks[j].tok != Tok::RParen {
                clean &= match self.toks[j].tok {
                    Tok::Ident(p) => {
                        count += 1;
                        entity_num(p, "v").is_some()
                    }
                    Tok::Comma => true,
                    _ => false,
                };
                j += 1;
            }
            if clean {
                params = start..j;
            } else {
                count = 0;
            }
            j += 1;
        }
        if self.toks.get(j).is_some_and(|t| t.tok == Tok::Colon) {
            // Block entities follow header order; `preregister_defs`
            // creates them once the count is known.
            if self.blocks.insert(n, self.block_sizes.len() as u32) {
                self.block_sizes.push((count, 1));
            }
            for k in params {
                if let Tok::Ident(p) = self.toks[k].tok {
                    let n = entity_num(p, "v").expect("checked above");
                    self.register_value_def(n, k, reserved)?;
                }
            }
        }
        Ok(())
    }

    /// Registers source value `n`, defined at token `tok`, as the
    /// `next`-th defined value of the unit, erroring (at the
    /// definition's position) on duplicates.
    fn register_value_def(
        &mut self,
        n: u64,
        tok: usize,
        next: &mut usize,
    ) -> Result<(), ParseError> {
        if !self.values.insert(n, *next as u32) {
            let message = format!("value `v{n}` defined twice");
            return Err(error_at(self.src, self.toks[tok].at, message));
        }
        *next += 1;
        Ok(())
    }

    fn tok(&self) -> &Tok<'a> {
        &self.toks[self.pos].tok
    }

    /// The current token's text, if it is an identifier.
    fn ident(&self) -> Option<&'a str> {
        match self.toks[self.pos].tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        error_at(self.src, self.toks[self.pos].at, message)
    }

    /// Moves to the next token, staying on the final `Eof`.
    fn advance(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Peeks one token past the current one without consuming anything.
    fn peek_next(&self) -> &Tok<'a> {
        self.toks.get(self.pos + 1).map_or(&Tok::Eof, |t| &t.tok)
    }

    fn expect(&mut self, tok: Tok<'a>) -> Result<(), ParseError> {
        if *self.tok() == tok {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.tok())))
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        let s = self
            .ident()
            .ok_or_else(|| self.err(format!("expected identifier, found {}", self.tok())))?;
        self.advance();
        Ok(s)
    }

    /// A function name: a bare identifier or a quoted string.
    fn expect_name(&mut self) -> Result<String, ParseError> {
        let name = match self.tok() {
            Tok::Ident(s) => (*s).to_owned(),
            Tok::Str(s) => s.clone(),
            other => return Err(self.err(format!("expected function name, found {other}"))),
        };
        self.advance();
        Ok(name)
    }

    fn parse(mut self) -> Result<Function, ParseError> {
        let func = self.parse_unit()?;
        if *self.tok() != Tok::Eof {
            return Err(self.err(format!("trailing input: {}", self.tok())));
        }
        Ok(func)
    }

    /// Parses one `function %name { ... }` unit, leaving the cursor on
    /// the first token after its closing `}` (the next unit's
    /// `function` keyword, or `Eof`). Per-function entity maps reset
    /// here, so source numbering restarts with every unit.
    fn parse_unit(&mut self) -> Result<Function, ParseError> {
        self.blocks.start_unit();
        self.values.start_unit();
        self.func = Function::new("");
        if self.ident() != Some("function") {
            return Err(self.err(format!("expected `function`, found {}", self.tok())));
        }
        self.advance();
        self.expect(Tok::Percent)?;
        self.func.name = self.expect_name()?;

        // Optional (and ignored) parameter list echoing block0's params.
        if *self.tok() == Tok::LParen {
            while *self.tok() != Tok::RParen {
                if *self.tok() == Tok::Eof {
                    // `advance` saturates at `Eof`; erroring here (not
                    // spinning) keeps the parser total on truncated
                    // input like `function %f (`.
                    return Err(self.err("unterminated function parameter list"));
                }
                self.advance();
            }
            self.advance();
        }
        self.expect(Tok::LBrace)?;
        self.preregister_defs()?;

        while *self.tok() != Tok::RBrace {
            self.parse_block()?;
        }
        self.expect(Tok::RBrace)?;

        // Every referenced block must have been defined with a header.
        for b in self.func.blocks() {
            if !self.func.is_terminated(b) {
                return Err(self.err(format!(
                    "{b} has no terminator (or was referenced but never defined)"
                )));
            }
        }
        Ok(std::mem::replace(&mut self.func, Function::new("")))
    }

    /// The block entity of source block `n`, created on first mention.
    fn block(&mut self, n: u64) -> Block {
        match self.blocks.get(n) {
            Some(b) => Block::from_index(b as usize),
            None => {
                let b = self.func.add_block();
                self.blocks.insert(n, b.as_u32());
                b
            }
        }
    }

    fn block_ref(&mut self, name: &str) -> Result<Block, ParseError> {
        let n = entity_num(name, "block")
            .ok_or_else(|| self.err(format!("expected block reference, found `{name}`")))?;
        Ok(self.block(n))
    }

    fn value_use(&self, name: &str) -> Result<Value, ParseError> {
        let n = entity_num(name, "v")
            .ok_or_else(|| self.err(format!("expected value reference, found `{name}`")))?;
        self.value_num(n)
    }

    fn value_num(&self, n: u64) -> Result<Value, ParseError> {
        self.values
            .get(n)
            .map(|v| Value::from_index(v as usize))
            .ok_or_else(|| self.err(format!("use of undefined value `v{n}`")))
    }

    /// The reserved slot for a definition site the pre-pass registered.
    fn value_def_slot(&self, name: &str) -> Result<Value, ParseError> {
        let n = entity_num(name, "v")
            .ok_or_else(|| self.err(format!("expected value name, found `{name}`")))?;
        self.values
            .get(n)
            .map(|v| Value::from_index(v as usize))
            .ok_or_else(|| self.err(format!("value `v{n}` has no registered definition")))
    }

    /// `true` iff the current token opens a block definition:
    /// a `blockN` identifier followed by `(` or `:`.
    fn at_block_header(&self) -> bool {
        matches!(self.peek_next(), Tok::LParen | Tok::Colon)
            && self
                .ident()
                .is_some_and(|name| entity_num(name, "block").is_some())
    }

    fn parse_block(&mut self) -> Result<(), ParseError> {
        let name = self.expect_ident()?;
        let block = self.block_ref(name)?;
        if self.func.is_terminated(block) || !self.func.block_insts(block).is_empty() {
            return Err(self.err(format!("{block} defined twice")));
        }
        if *self.tok() == Tok::LParen {
            self.advance();
            while *self.tok() != Tok::RParen {
                let pname = self.expect_ident()?;
                let v = self.value_def_slot(pname)?;
                self.func.bind_block_param(block, v);
                if *self.tok() == Tok::Comma {
                    self.advance();
                }
            }
            self.advance();
        }
        self.expect(Tok::Colon)?;

        loop {
            if *self.tok() == Tok::RBrace || self.at_block_header() {
                if !self.func.is_terminated(block) {
                    return Err(self.err(format!("{block} has no terminator")));
                }
                return Ok(());
            }
            let Some(first) = self.ident() else {
                return Err(self.err(format!("expected instruction, found {}", self.tok())));
            };
            self.advance();
            self.parse_inst(block, first)?;
        }
    }

    fn parse_call(&mut self) -> Result<BlockCall, ParseError> {
        let name = self.expect_ident()?;
        let block = self.block_ref(name)?;
        let mut args = Vec::new();
        if *self.tok() == Tok::LParen {
            self.advance();
            while *self.tok() != Tok::RParen {
                let a = self.expect_ident()?;
                args.push(self.value_use(a)?);
                if *self.tok() == Tok::Comma {
                    self.advance();
                }
            }
            self.advance();
        }
        Ok(BlockCall::with_args(block, args))
    }

    /// Parses one instruction whose first identifier is already consumed.
    fn parse_inst(&mut self, block: Block, first: &str) -> Result<(), ParseError> {
        if self.func.is_terminated(block) {
            return Err(self.err(format!("instruction after terminator of {block}")));
        }
        match first {
            "jump" => {
                let dest = self.parse_call()?;
                self.func.append_inst(block, InstData::Jump { dest });
            }
            "brif" => {
                let c = self.expect_ident()?;
                let cond = self.value_use(c)?;
                self.expect(Tok::Comma)?;
                let then_dest = self.parse_call()?;
                self.expect(Tok::Comma)?;
                let else_dest = self.parse_call()?;
                self.func.append_inst(
                    block,
                    InstData::Brif {
                        cond,
                        then_dest,
                        else_dest,
                    },
                );
            }
            "return" => {
                let mut args = Vec::new();
                while let Some(n) = self.ident().and_then(|name| entity_num(name, "v")) {
                    self.advance();
                    args.push(self.value_num(n)?);
                    if *self.tok() != Tok::Comma {
                        break;
                    }
                    self.advance();
                }
                self.func.append_inst(block, InstData::Return { args });
            }
            _ => {
                // `vN = op ...`
                self.expect(Tok::Eq)
                    .map_err(|_| self.err(format!("unknown instruction `{first}`")))?;
                let op = self.expect_ident()?;
                let data = self.parse_value_op(op)?;
                let result = self.value_def_slot(first)?;
                self.func.append_inst_bound(block, data, result);
            }
        }
        Ok(())
    }

    fn parse_value_op(&mut self, op: &str) -> Result<InstData, ParseError> {
        if op == "iconst" {
            let Tok::Int(imm) = *self.tok() else {
                return Err(self.err(format!("expected integer, found {}", self.tok())));
            };
            self.advance();
            return Ok(InstData::IntConst { imm });
        }
        if let Some(op) = UnaryOp::from_mnemonic(op) {
            let a = self.expect_ident()?;
            let arg = self.value_use(a)?;
            return Ok(InstData::Unary { op, arg });
        }
        if let Some(op) = BinaryOp::from_mnemonic(op) {
            let a0 = self.expect_ident()?;
            let x = self.value_use(a0)?;
            self.expect(Tok::Comma)?;
            let a1 = self.expect_ident()?;
            let y = self.value_use(a1)?;
            return Ok(InstData::Binary { op, args: [x, y] });
        }
        Err(self.err(format!("unknown opcode `{op}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips() {
        let src = "\
function %demo {
block0(v0):
    v2 = iconst 7
    v3 = iadd v0, v2
    brif v3, block1(v3), block2
block1(v1):
    jump block2
block2:
    return v1
}";
        let f = parse_function(src).expect("parses");
        // Entities are renumbered densely; re-print and re-parse must be a
        // fixed point.
        let printed = f.to_string();
        let f2 = parse_function(&printed).expect("reparses");
        assert_eq!(printed, f2.to_string());
        assert_eq!(f.num_blocks(), 3);
        assert_eq!(f.block_params(f.entry_block()).len(), 1);
        f.check_use_chains().expect("chains consistent");
    }

    #[test]
    fn accepts_header_params_and_comments() {
        let src = "
; leading comment
function %f(v0) { ; trailing comment
block0(v0):
    return v0 ; done
}";
        let f = parse_function(src).expect("parses");
        assert_eq!(f.name, "f");
        assert_eq!(f.params().len(), 1);
    }

    #[test]
    fn negative_constants() {
        let f = parse_function("function %f { block0: v0 = iconst -42\n return v0 }").unwrap();
        let k = f.block_insts(f.entry_block())[0];
        assert_eq!(f.inst_data(k), &InstData::IntConst { imm: -42 });
    }

    #[test]
    fn forward_block_references_work() {
        let src = "function %f { block0: jump block5 block5: return }";
        let f = parse_function(src).expect("parses");
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn return_without_values_then_next_block() {
        let src = "function %f { block0: brif v0, block1, block2 block1: return block2: return }";
        // v0 undefined -> error, but the shape we care about is tested via
        // a defined value:
        assert!(parse_function(src).is_err());
        let src = "function %f {
            block0(v9): brif v9, block1, block2
            block1: return
            block2: return v9
        }";
        let f = parse_function(src).expect("parses");
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn error_on_undefined_value() {
        let e = parse_function("function %f { block0: return v3 }").unwrap_err();
        assert!(e.message.contains("undefined value"), "{e}");
        assert!(e.line >= 1);
    }

    #[test]
    fn forward_value_references_work() {
        // block1 textually precedes block2, which dominates it through
        // the edge chain block0 -> block2 -> block1: the use of v1 in
        // block1 appears before its defining header. This is exactly
        // what printing a function whose layout order differs from
        // dominance order produces.
        let src = "function %f {
            block0(v0): jump block2(v0)
            block1: return v1
            block2(v1): jump block1
        }";
        let f = parse_function(src).expect("forward value ref parses");
        f.check_use_chains().expect("chains consistent");
        // Fixed point: printing and re-parsing is stable.
        let printed = f.to_string();
        let f2 = parse_function(&printed).expect("reparses");
        assert_eq!(printed, f2.to_string());
        // Numbering is textual definition order: v0 = entry param,
        // v1 = block2's param.
        assert_eq!(f.params().len(), 1);
        assert_eq!(
            f.block_params(f.block("block2").unwrap()),
            &[f.value("v1").unwrap()]
        );
    }

    #[test]
    fn forward_inst_result_reference_works() {
        let src = "function %f {
            block0: jump block2
            block1: return v9
            block2: v9 = iconst 3
                jump block1
        }";
        let f = parse_function(src).expect("parses");
        f.check_use_chains().expect("chains consistent");
        let printed = f.to_string();
        assert_eq!(printed, parse_function(&printed).unwrap().to_string());
    }

    #[test]
    fn truncated_function_param_list_errors_instead_of_hanging() {
        // Regression: `advance()` saturates at Eof, so this loop used
        // to spin forever.
        let e = parse_function("function %f (").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
        let e = parse_function("function %f (v0, v1").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
    }

    #[test]
    fn quoted_names_parse_and_round_trip() {
        let src = "function %\"two words\" { block0: return }";
        let f = parse_function(src).expect("parses");
        assert_eq!(f.name, "two words");
        let printed = f.to_string();
        assert!(printed.starts_with("function %\"two words\""), "{printed}");
        assert_eq!(parse_function(&printed).unwrap().name, "two words");

        // Escapes cover quotes, backslashes and control characters.
        let mut g = Function::new("a\"b\\c\nd\u{1}e");
        let b = g.add_block();
        g.ins(b).ret(vec![]);
        let printed = g.to_string();
        let g2 = parse_function(&printed).expect("escaped name reparses");
        assert_eq!(g2.name, g.name);
        assert_eq!(printed, g2.to_string());
    }

    #[test]
    fn empty_and_numeric_names_are_quoted() {
        let mut f = Function::new("");
        let b = f.add_block();
        f.ins(b).ret(vec![]);
        let printed = f.to_string();
        assert!(printed.starts_with("function %\"\""), "{printed}");
        assert_eq!(parse_function(&printed).unwrap().name, "");

        let mut f = Function::new("123");
        let b = f.add_block();
        f.ins(b).ret(vec![]);
        let printed = f.to_string();
        assert_eq!(parse_function(&printed).unwrap().name, "123");
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(parse_function("function %\"oops { block0: return }").is_err());
        assert!(parse_function("function %\"bad\\q\" { block0: return }").is_err());
        assert!(parse_function("function %\"bad\\u{}\" { block0: return }").is_err());
        assert!(parse_function("function %\"bad\\u{d800}\" { block0: return }").is_err());
        assert!(parse_function("function %\"e\\").is_err());
    }

    #[test]
    fn overflowing_integer_literal_is_an_error() {
        let e = parse_function("function %f { block0: v0 = iconst 99999999999999999999\n return }")
            .unwrap_err();
        assert!(e.message.contains("invalid integer literal"), "{e}");
        // An overflowing *entity* number is not a value reference.
        assert!(parse_function(
            "function %f { block0: v99999999999999999999999 = iconst 1\n return }"
        )
        .is_err());
    }

    #[test]
    fn error_on_double_definition() {
        let e = parse_function("function %f { block0: v1 = iconst 1 v1 = iconst 2\n return }")
            .unwrap_err();
        assert!(e.message.contains("defined twice"), "{e}");
    }

    #[test]
    fn error_on_missing_terminator() {
        let e = parse_function("function %f { block0: v1 = iconst 1 }").unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn error_on_unknown_opcode() {
        let e = parse_function("function %f { block0: v1 = frobnicate 3\n return }").unwrap_err();
        assert!(e.message.contains("unknown opcode"), "{e}");
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_function("").is_err());
        assert!(parse_function("function f {}").is_err());
        assert!(parse_function("function %f { block0: return } extra").is_err());
        assert!(parse_function("function %f { block0: @ }").is_err());
    }

    #[test]
    fn referenced_but_undefined_block_is_an_error() {
        let e = parse_function("function %f { block0: jump block9 }").unwrap_err();
        assert!(
            e.message.contains("never defined") || e.message.contains("terminator"),
            "{e}"
        );
    }

    #[test]
    fn parses_a_module_with_forward_references() {
        let m = parse_module(
            "function %first {
                block0(v0): jump block2
                block2: return v0
             }
             ; a comment between units
             function %second { block0: return }",
        )
        .expect("parses");
        assert_eq!(m.len(), 2);
        assert_eq!(m.func(0).num_blocks(), 2);
        assert_eq!(m.func(1).num_blocks(), 1);
    }

    #[test]
    fn module_block_preregistration_is_per_function() {
        // %b's headers must not leak block entities into %a: each unit
        // sees exactly its own blocks, in its own textual order.
        let m = parse_module(
            "function %a { block0: jump block1 block1: return }
             function %b { block0: jump block7 block7: return }",
        )
        .expect("parses");
        assert_eq!(m.func(0).num_blocks(), 2);
        assert_eq!(m.func(1).num_blocks(), 2);
    }

    #[test]
    fn module_errors() {
        // Empty source.
        assert!(parse_module("").is_err());
        // Duplicate names.
        let e = parse_module("function %f { block0: return } function %f { block0: return }")
            .unwrap_err();
        assert!(e.message.contains("defined twice"), "{e}");
        // A syntax error in the second unit reports its position.
        let e = parse_module("function %a { block0: return }\nfunction %b { block0: v1 = bogus }")
            .unwrap_err();
        assert_eq!(e.line, 2);
        // A single function with trailing garbage still errors through
        // parse_function but is two units for parse_module only if the
        // garbage is a function.
        assert!(parse_module("function %a { block0: return } extra").is_err());
    }

    #[test]
    fn single_function_parser_rejects_modules() {
        let e = parse_function(
            "function %a { block0: return }
             function %b { block0: return }",
        )
        .unwrap_err();
        assert!(e.message.contains("trailing input"), "{e}");
    }

    /// The outcome of parsing `src` as one function: the printed
    /// function, or the error's line, column and message.
    fn outcome(src: &str) -> Result<String, (usize, usize, String)> {
        parse_function(src)
            .map(|f| f.to_string())
            .map_err(|e| (e.line, e.col, e.message))
    }

    fn error(line: usize, col: usize, message: &str) -> Result<String, (usize, usize, String)> {
        Err((line, col, message.to_string()))
    }

    #[test]
    fn integer_literals_cover_exactly_i64() {
        let f =
            parse_function("function %f { block0: v0 = iconst -9223372036854775808\n return v0 }")
                .unwrap();
        let k = f.block_insts(f.entry_block())[0];
        assert_eq!(f.inst_data(k), &InstData::IntConst { imm: i64::MIN });
        assert_eq!(
            outcome("function %f { block0: v0 = iconst 9223372036854775808\n return v0 }"),
            error(1, 35, "invalid integer literal `9223372036854775808`")
        );
        assert_eq!(
            outcome("function %f { block0: v0 = iconst - return }"),
            error(1, 35, "invalid integer literal `-`")
        );
    }

    #[test]
    fn entity_numbers_cover_exactly_u64() {
        let max = "v18446744073709551615";
        let f = parse_function(&format!("function %f {{ block0({max}): return {max} }}")).unwrap();
        assert_eq!(f.params().len(), 1);
        assert_eq!(
            outcome("function %f { block0(v18446744073709551616): return }"),
            error(1, 43, "expected value name, found `v18446744073709551616`")
        );
        assert_eq!(
            outcome("function %f { block0(v184467440737095516150): return }"),
            error(1, 44, "expected value name, found `v184467440737095516150`")
        );
        let f = parse_function(
            "function %f { block0: jump block18446744073709551615 \
             block18446744073709551615: return }",
        )
        .unwrap();
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn unicode_whitespace_and_crlf_separate_tokens() {
        let f = parse_function(
            "function %f {\u{a0}block0(v0):\u{2003}v1 = iadd v0,\u{a0}v0\r\n  return v1\r\n}",
        )
        .unwrap();
        assert_eq!(f.num_insts(), 2);
        assert!(parse_function("function %f {\u{a0}block0:\u{2003}return\r\n}").is_ok());
        // U+001C is not whitespace.
        assert_eq!(
            outcome("function %f { block0: v0 = iconst 1\u{1c} return v0 }"),
            error(1, 36, "unexpected character `\u{1c}`")
        );
    }

    #[test]
    fn columns_count_chars_and_comments_count_lines() {
        assert_eq!(
            outcome("function %\"é名\" { block0: return v9 }"),
            error(1, 36, "use of undefined value `v9`")
        );
        assert_eq!(
            outcome("function %f {\tblock0:\t@ }"),
            error(1, 23, "unexpected character `@`")
        );
        assert_eq!(
            outcome("function %f { block0: 名 }"),
            error(1, 23, "unexpected character `名`")
        );
        assert_eq!(
            outcome("; comment é名 ünï\nfunction %f { block0: return v1 }"),
            error(2, 33, "use of undefined value `v1`")
        );
        assert_eq!(
            outcome("function %f { ; 名名名\n block0: @ }"),
            error(2, 10, "unexpected character `@`")
        );
    }

    #[test]
    fn duplicate_function_names_report_the_second_unit() {
        let e = parse_module("function %a { block0: return }\nfunction %a { block0: return }")
            .unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
        assert_eq!(e.message, "function %a defined twice");
        // Quoted and bare spellings of one name collide too.
        let e = parse_module("function %a { block0: return } function %\"a\" { block0: return }")
            .unwrap_err();
        assert_eq!(
            (e.line, e.col, e.message.as_str()),
            (1, 32, "function %a defined twice")
        );
    }

    #[test]
    fn error_positions_are_useful() {
        let e =
            parse_function("function %f {\nblock0:\n    v1 = iconst x\n return\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.col > 1);
    }
}
