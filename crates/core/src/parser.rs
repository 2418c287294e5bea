//! ABsolver's extended DIMACS input language (paper Sec. 1.1, Fig. 2).
//!
//! The format is ordinary DIMACS CNF plus *definition* comment lines:
//!
//! ```text
//! p cnf 4 3
//! 1 0
//! -2 3 0
//! 4 0
//! c def int 1 i >= 0
//! c def int 2 2*i + j < 10
//! c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
//! ```
//!
//! `c def <int|real> <v> <lhs> <op> <rhs>` binds Boolean variable `v` to
//! the arithmetic comparison; because definitions live in comment lines,
//! "our format is still understood by any Boolean solver not aware of the
//! extensions". A variable mentioned in any `int` definition is integer.
//!
//! Two reproduction extensions, both also comments:
//! `c range <name> <lo> <hi>` supplies the initial search box used by the
//! interval engine, and `c var <int|real> <name>` pre-declares a variable.
//!
//! Every parse error names the 1-based line and column of the offending
//! token ([`ParseAbError::span`]), and [`parse_spanned`] additionally
//! returns a [`SourceMap`] locating each directive and clause — the
//! static analyzer (`absolver-analyze`) anchors its diagnostics on it.

use crate::problem::{AbProblem, ArithVar, AtomDef, VarKind};
use absolver_linear::CmpOp;
use absolver_logic::dimacs;
use absolver_nonlinear::{Expr, NlConstraint, VarId};
use absolver_num::{Interval, Rational};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// A 1-based source position (line and column) in the input text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte-based; the input language is ASCII).
    pub col: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.col)
    }
}

/// Error parsing the extended DIMACS format. Carries the source position
/// of the offending token whenever one is known (which is every error
/// produced by [`parse`] itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAbError {
    message: String,
    span: Option<Span>,
}

impl ParseAbError {
    fn at(span: Span, message: impl Into<String>) -> ParseAbError {
        ParseAbError {
            message: message.into(),
            span: Some(span),
        }
    }

    /// The source position of the error, when known.
    pub fn span(&self) -> Option<Span> {
        self.span
    }

    /// The error description, without the location prefix of `Display`.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// 1-based line of the error, when known.
    pub fn line(&self) -> Option<usize> {
        self.span.map(|s| s.line)
    }

    /// 1-based column of the error, when known.
    pub fn column(&self) -> Option<usize> {
        self.span.map(|s| s.col)
    }
}

impl fmt::Display for ParseAbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "AB-problem parse error at {span}: {}", self.message),
            None => write!(f, "AB-problem parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseAbError {}

impl From<dimacs::ParseDimacsError> for ParseAbError {
    fn from(e: dimacs::ParseDimacsError) -> ParseAbError {
        ParseAbError {
            message: e.to_string(),
            span: Some(Span::new(e.line(), e.column())),
        }
    }
}

/// Byte offset of `child` within `parent`; `child` must be a subslice of
/// `parent` (as produced by `split`/`trim`/`strip_prefix`).
fn offset_in(parent: &str, child: &str) -> usize {
    child.as_ptr() as usize - parent.as_ptr() as usize
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(Rational),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
    Cmp(CmpOp),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Number(n) => write!(f, "number `{n}`"),
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Plus => f.write_str("`+`"),
            Token::Minus => f.write_str("`-`"),
            Token::Star => f.write_str("`*`"),
            Token::Slash => f.write_str("`/`"),
            Token::Caret => f.write_str("`^`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::Cmp(op) => write!(f, "`{op}`"),
        }
    }
}

/// Tokenizes a constraint body. Each token carries its byte offset within
/// `input`; errors are positioned relative to `base` (the span of the
/// body's first byte in the original file).
fn tokenize(input: &str, base: Span) -> Result<Vec<(Token, usize)>, ParseAbError> {
    let at = |off: usize| Span::new(base.line, base.col + off);
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push((Token::Plus, start));
                i += 1;
            }
            '-' => {
                out.push((Token::Minus, start));
                i += 1;
            }
            '*' => {
                out.push((Token::Star, start));
                i += 1;
            }
            '/' => {
                out.push((Token::Slash, start));
                i += 1;
            }
            '^' => {
                out.push((Token::Caret, start));
                i += 1;
            }
            '(' => {
                out.push((Token::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, start));
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Cmp(CmpOp::Le), start));
                    i += 2;
                } else {
                    out.push((Token::Cmp(CmpOp::Lt), start));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Token::Cmp(CmpOp::Ge), start));
                    i += 2;
                } else {
                    out.push((Token::Cmp(CmpOp::Gt), start));
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                } else {
                    i += 1;
                }
                out.push((Token::Cmp(CmpOp::Eq), start));
            }
            '0'..='9' | '.' => {
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                let text = &input[start..i];
                let value: Rational = text.parse().map_err(|_| {
                    ParseAbError::at(at(start), format!("bad numeric literal `{text}`"))
                })?;
                out.push((Token::Number(value), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push((Token::Ident(input[start..i].to_string()), start));
            }
            other => {
                return Err(ParseAbError::at(
                    at(start),
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Expression parser (recursive descent)
// ---------------------------------------------------------------------------

struct ExprParser<'a> {
    tokens: &'a [(Token, usize)],
    pos: usize,
    vars: &'a mut VarInterner,
    kind: VarKind,
    /// Span of the body's first byte; token offsets are added to its col.
    base: Span,
    /// Byte length of the body (end-of-input errors point here).
    end: usize,
}

/// Variable interning shared across definitions; tracks kind promotion
/// (mention in any `int` definition makes a variable integer).
#[derive(Debug, Default)]
struct VarInterner {
    names: Vec<String>,
    kinds: Vec<VarKind>,
    ranges: Vec<Interval>,
    by_name: HashMap<String, VarId>,
}

impl VarInterner {
    fn intern(&mut self, name: &str, kind: VarKind) -> VarId {
        if let Some(&id) = self.by_name.get(name) {
            if kind == VarKind::Int {
                self.kinds[id] = VarKind::Int;
            }
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_string());
        self.kinds.push(kind);
        self.ranges.push(Interval::ENTIRE);
        self.by_name.insert(name.to_string(), id);
        id
    }
}

const FUNCTIONS: &[&str] = &["sin", "cos", "exp", "ln", "sqrt", "abs"];

/// Renders `Some(token)` / `None` (end of input) for error messages.
fn describe(t: &Option<Token>) -> String {
    match t {
        Some(t) => t.to_string(),
        None => "end of input".to_string(),
    }
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// The span of the token at `pos` (or of the end of the body).
    fn span_at(&self, pos: usize) -> Span {
        let off = self.tokens.get(pos).map_or(self.end, |&(_, o)| o);
        Span::new(self.base.line, self.base.col + off)
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseAbError> {
        let here = self.pos;
        match self.next() {
            Some(ref got) if got == t => Ok(()),
            other => Err(ParseAbError::at(
                self.span_at(here),
                format!("expected {t}, found {}", describe(&other)),
            )),
        }
    }

    /// expr := term (('+'|'-') term)*
    fn expr(&mut self) -> Result<Expr, ParseAbError> {
        let mut acc = self.term()?;
        loop {
            match self.peek() {
                Some(Token::Plus) => {
                    self.pos += 1;
                    acc = acc + self.term()?;
                }
                Some(Token::Minus) => {
                    self.pos += 1;
                    acc = acc - self.term()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    /// term := factor (('*'|'/') factor)*
    fn term(&mut self) -> Result<Expr, ParseAbError> {
        let mut acc = self.factor()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.pos += 1;
                    acc = acc * self.factor()?;
                }
                Some(Token::Slash) => {
                    self.pos += 1;
                    acc = acc / self.factor()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    /// factor := '-'* power
    fn factor(&mut self) -> Result<Expr, ParseAbError> {
        if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            return Ok(-self.factor()?);
        }
        self.power()
    }

    /// power := primary ('^' integer)?
    fn power(&mut self) -> Result<Expr, ParseAbError> {
        let base = self.primary()?;
        if self.peek() == Some(&Token::Caret) {
            self.pos += 1;
            let negative = if self.peek() == Some(&Token::Minus) {
                self.pos += 1;
                true
            } else {
                false
            };
            let here = self.pos;
            match self.next() {
                Some(Token::Number(n)) if n.is_integer() => {
                    let exp = n
                        .numer()
                        .to_i64()
                        .filter(|&e| e.unsigned_abs() <= i32::MAX as u64)
                        .ok_or_else(|| {
                            ParseAbError::at(self.span_at(here), "power exponent out of range")
                        })?;
                    let exp = if negative { -exp } else { exp };
                    Ok(base.pow(exp as i32))
                }
                other => Err(ParseAbError::at(
                    self.span_at(here),
                    format!("expected integer exponent, found {}", describe(&other)),
                )),
            }
        } else {
            Ok(base)
        }
    }

    /// primary := number | func primary | ident | '(' expr ')'
    fn primary(&mut self) -> Result<Expr, ParseAbError> {
        let here = self.pos;
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::constant(n)),
            Some(Token::Ident(name)) => {
                if FUNCTIONS.contains(&name.as_str()) {
                    let arg = self.primary()?;
                    Ok(match name.as_str() {
                        "sin" => arg.sin(),
                        "cos" => arg.cos(),
                        "exp" => arg.exp(),
                        "ln" => arg.ln(),
                        "sqrt" => arg.sqrt(),
                        "abs" => arg.abs(),
                        _ => unreachable!("function list is fixed"),
                    })
                } else {
                    Ok(Expr::var(self.vars.intern(&name, self.kind)))
                }
            }
            Some(Token::LParen) => {
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            other => Err(ParseAbError::at(
                self.span_at(here),
                format!("expected expression, found {}", describe(&other)),
            )),
        }
    }

    /// comparison := expr cmp expr
    fn comparison(&mut self) -> Result<NlConstraint, ParseAbError> {
        let lhs = self.expr()?;
        let here = self.pos;
        let op = match self.next() {
            Some(Token::Cmp(op)) => op,
            other => {
                return Err(ParseAbError::at(
                    self.span_at(here),
                    format!("expected comparison operator, found {}", describe(&other)),
                ))
            }
        };
        let rhs = self.expr()?;
        if self.pos != self.tokens.len() {
            return Err(ParseAbError::at(
                self.span_at(self.pos),
                "trailing tokens after comparison",
            ));
        }
        // Normalise: keep a constant RHS when possible, else move everything
        // to the left-hand side. A written `-0` keeps its sign, as it
        // evaluates in the problem that was written out.
        let (lhs, rhs) = match rhs {
            Expr::Const(c) => (lhs, c),
            rhs => (lhs - rhs, Rational::zero()),
        };
        Ok(NlConstraint::new(
            lhs.simplify_keeping_negative_zero(),
            op,
            rhs,
        ))
    }
}

// ---------------------------------------------------------------------------
// File-level parsing
// ---------------------------------------------------------------------------

/// Levenshtein edit distance between two short ASCII words.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// If the first word of a comment is one typo away from a directive
/// keyword (`def`, `range`, `var`) — but did not parse as one — returns
/// that keyword. Exact directives are dispatched before this runs, so a
/// distance-0 match here means a keyword with no arguments.
fn near_miss_directive(comment: &str) -> Option<&'static str> {
    let first = comment.split_whitespace().next()?;
    if first.len() > 8 {
        return None;
    }
    let lower = first.to_ascii_lowercase();
    ["def", "range", "var"]
        .into_iter()
        .find(|kw| edit_distance(&lower, kw) <= 1)
}

/// Source location of one `def` directive line: which Boolean variable it
/// binds, which constraint (index into the definition's conjunction) it
/// contributed, and where it sits in the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// 0-based index of the bound Boolean variable.
    pub var: u32,
    /// Index of the contributed constraint within the definition's
    /// conjunction (`AtomDef::constraints`).
    pub constraint: usize,
    /// Position of the directive.
    pub span: Span,
}

/// Source location and raw bounds of one `range` directive line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeSite {
    /// The arithmetic variable the range applies to.
    pub var: VarId,
    /// Lower bound as written.
    pub lo: f64,
    /// Upper bound as written.
    pub hi: f64,
    /// Position of the directive.
    pub span: Span,
}

/// Source locations collected during parsing, anchoring every directive
/// and clause of the input. Produced by [`parse_spanned`]; the static
/// analyzer uses it to attach precise spans to its diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceMap {
    /// One entry per `def` directive line, in input order.
    pub def_sites: Vec<DefSite>,
    /// One entry per `range` directive line, in input order.
    pub range_sites: Vec<RangeSite>,
    /// One entry per `var` directive line, in input order.
    pub var_sites: Vec<(VarId, Span)>,
    /// One span per CNF clause (the line where the clause starts).
    pub clause_spans: Vec<Span>,
    /// The variable count declared in the `p cnf` header, if any.
    pub declared_vars: Option<usize>,
}

/// Parses the extended DIMACS format into an [`AbProblem`].
///
/// # Errors
///
/// Returns [`ParseAbError`] on malformed DIMACS structure, definition
/// syntax errors, out-of-range Boolean variables, or duplicate definitions.
/// Every error names the line and column of the offending token.
pub fn parse(text: &str) -> Result<AbProblem, ParseAbError> {
    parse_spanned(text).map(|(problem, _)| problem)
}

/// Parses one arithmetic comparison (the body of a `def` directive)
/// against an existing variable table — the workhorse of the session
/// script mode, where definitions arrive one line at a time instead of in
/// one file.
///
/// Returns the parsed constraint plus the variables it mentions that are
/// *not* in `existing`, as `(name, kind)` pairs in id order (their ids
/// continue from `existing.len()`).
///
/// # Errors
///
/// Returns [`ParseAbError`] (spans relative to `base`) on syntax errors,
/// or when an `int` definition mentions an existing `real` variable —
/// sessions cannot retroactively promote a variable's kind the way
/// whole-file parsing does.
pub fn parse_session_constraint(
    body: &str,
    kind: VarKind,
    existing: &[ArithVar],
    base: Span,
) -> Result<(NlConstraint, Vec<(String, VarKind)>), ParseAbError> {
    let mut interner = VarInterner::default();
    for v in existing {
        interner.names.push(v.name.clone());
        interner.kinds.push(v.kind);
        interner.ranges.push(v.range);
        interner
            .by_name
            .insert(v.name.clone(), interner.names.len() - 1);
    }
    let tokens = tokenize(body, base)?;
    let end = body.len();
    let mut parser = ExprParser {
        tokens: &tokens,
        pos: 0,
        vars: &mut interner,
        kind,
        base,
        end,
    };
    let constraint = parser.comparison()?;
    for (id, v) in existing.iter().enumerate() {
        if interner.kinds[id] != v.kind {
            return Err(ParseAbError::at(
                base,
                format!(
                    "variable `{}` is declared real but is mentioned in an int definition",
                    v.name
                ),
            ));
        }
    }
    let fresh = existing.len();
    let new_vars = interner
        .names
        .iter()
        .zip(&interner.kinds)
        .skip(fresh)
        .map(|(n, &k)| (n.clone(), k))
        .collect();
    Ok((constraint, new_vars))
}

/// Like [`parse`], but additionally returns the [`SourceMap`] locating
/// every directive and clause of the input.
///
/// # Errors
///
/// Same as [`parse`].
pub fn parse_spanned(text: &str) -> Result<(AbProblem, SourceMap), ParseAbError> {
    let file = dimacs::parse(text)?;
    let mut cnf = file.cnf;
    let mut interner = VarInterner::default();
    let mut defs: std::collections::BTreeMap<u32, AtomDef> = Default::default();
    let mut map = SourceMap {
        clause_spans: file.clause_lines.iter().map(|&l| Span::new(l, 1)).collect(),
        declared_vars: file.declared_vars,
        ..Default::default()
    };

    for (comment, &(line, ccol)) in file.comments.iter().zip(&file.comment_spans) {
        // Position of a subslice of `comment` in the original input.
        let at = |piece: &str| Span::new(line, ccol + offset_in(comment, piece));
        let trimmed = comment.trim();
        let line_span = at(trimmed);
        let end_span = Span::new(line, ccol + offset_in(comment, trimmed) + trimmed.len());
        if let Some(rest) = trimmed.strip_prefix("def ") {
            let mut words = rest.splitn(3, char::is_whitespace);
            let kind_word = words.next();
            let kind = match kind_word {
                Some("int") => VarKind::Int,
                Some("real") => VarKind::Real,
                other => {
                    return Err(ParseAbError::at(
                        other.map_or(end_span, at),
                        match other {
                            Some(word) => {
                                format!("expected `int` or `real` in definition, found `{word}`")
                            }
                            None => "expected `int` or `real` in definition".to_string(),
                        },
                    ))
                }
            };
            let var_word = words.next();
            let var_num: u32 = var_word
                .and_then(|w| w.parse().ok())
                .filter(|&v| v > 0)
                .ok_or_else(|| {
                    ParseAbError::at(
                        var_word.map_or(end_span, at),
                        format!("bad Boolean variable in definition `{rest}`"),
                    )
                })?;
            let body = words.next().ok_or_else(|| {
                ParseAbError::at(end_span, format!("missing constraint in `{rest}`"))
            })?;
            let base = at(body);
            let tokens = tokenize(body, base)?;
            let mut parser = ExprParser {
                tokens: &tokens,
                pos: 0,
                vars: &mut interner,
                kind,
                base,
                end: body.len(),
            };
            let constraint = parser.comparison()?;
            let var_index = var_num - 1;
            if cnf.num_vars() <= var_index as usize {
                // Definitions may mention variables beyond the clause set.
                while cnf.num_vars() <= var_index as usize {
                    cnf.fresh_var();
                }
            }
            // Repeated `def` lines on the same variable conjoin, exactly
            // like the two `def int 1 …` lines of the paper's Fig. 2.
            let def = defs.entry(var_index).or_default();
            def.constraints.push(constraint);
            map.def_sites.push(DefSite {
                var: var_index,
                constraint: def.constraints.len() - 1,
                span: line_span,
            });
        } else if let Some(rest) = trimmed.strip_prefix("range ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(ParseAbError::at(
                    line_span,
                    format!("bad range line `{rest}`"),
                ));
            }
            let id = interner.by_name.get(parts[0]).copied().ok_or_else(|| {
                ParseAbError::at(
                    at(parts[0]),
                    format!(
                        "range for unknown variable `{}` (ranges must follow definitions)",
                        parts[0]
                    ),
                )
            })?;
            let lo: f64 = parts[1].parse().map_err(|_| {
                ParseAbError::at(at(parts[1]), format!("bad range bound `{}`", parts[1]))
            })?;
            let hi: f64 = parts[2].parse().map_err(|_| {
                ParseAbError::at(at(parts[2]), format!("bad range bound `{}`", parts[2]))
            })?;
            if lo > hi || lo.is_nan() || hi.is_nan() {
                return Err(ParseAbError::at(
                    at(parts[1]),
                    format!("empty range `{rest}`"),
                ));
            }
            interner.ranges[id] = interner.ranges[id].intersect(Interval::new(lo, hi));
            map.range_sites.push(RangeSite {
                var: id,
                lo,
                hi,
                span: line_span,
            });
        } else if let Some(rest) = trimmed.strip_prefix("var ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 2 {
                return Err(ParseAbError::at(
                    line_span,
                    format!("bad var line `{rest}`"),
                ));
            }
            let kind = match parts[0] {
                "int" => VarKind::Int,
                "real" => VarKind::Real,
                other => {
                    return Err(ParseAbError::at(
                        at(parts[0]),
                        format!("expected `int` or `real` in var line, found `{other}`"),
                    ))
                }
            };
            let id = interner.intern(parts[1], kind);
            map.var_sites.push((id, line_span));
        } else if let Some(directive) = near_miss_directive(trimmed) {
            // A comment whose first word is one typo away from a directive
            // keyword is almost certainly a misspelled directive, and
            // silently ignoring it would silently drop a constraint.
            let first = trimmed.split_whitespace().next().unwrap_or(trimmed);
            return Err(ParseAbError::at(
                at(first),
                format!(
                    "comment line `{trimmed}` looks like a misspelled `{directive}` directive \
                     (write `c {directive} …`, or reword the comment)"
                ),
            ));
        }
        // Other comments are ignored, as any plain SAT solver would.
    }

    let vars: Vec<ArithVar> = interner
        .names
        .iter()
        .zip(&interner.kinds)
        .zip(&interner.ranges)
        .map(|((name, &kind), &range)| ArithVar {
            name: name.clone(),
            kind,
            range,
        })
        .collect();

    Ok((
        AbProblem {
            cnf,
            defs,
            vars,
            by_name: interner.by_name,
        },
        map,
    ))
}

impl FromStr for AbProblem {
    type Err = ParseAbError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Serialises a problem in the extended DIMACS format. The output parses
/// back to an equivalent problem (round-trip).
pub fn write(problem: &AbProblem) -> String {
    let names: Vec<String> = problem
        .arith_vars()
        .iter()
        .map(|v| v.name.clone())
        .collect();
    let mut comments = Vec::new();
    // Pre-declare variables so kinds and ranges survive even for variables
    // whose first definition would infer differently.
    for v in problem.arith_vars() {
        comments.push(format!("var {} {}", v.kind, v.name));
    }
    for (var, def) in problem.defs() {
        for constraint in &def.constraints {
            let kind = constraint
                .variables()
                .iter()
                .map(|&v| problem.arith_vars()[v].kind)
                .fold(VarKind::Int, |acc, k| {
                    if k == VarKind::Real {
                        VarKind::Real
                    } else {
                        acc
                    }
                });
            comments.push(format!(
                "def {} {} {} {} {}",
                kind,
                var.index() + 1,
                constraint.expr().with_names(&names),
                constraint.op,
                rational_to_source_rhs(&constraint.rhs),
            ));
        }
    }
    for v in problem.arith_vars() {
        if v.range != Interval::ENTIRE {
            comments.push(format!(
                "range {} {} {}",
                v.name,
                v.range.lo(),
                v.range.hi()
            ));
        }
    }
    dimacs::write(problem.cnf(), &comments)
}

fn rational_to_source_rhs(q: &Rational) -> String {
    if q.is_integer() {
        q.to_string()
    } else {
        format!("( {} / {} )", q.numer(), q.denom())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::VarKind;
    use absolver_linear::CmpOp;

    const PAPER_EXAMPLE: &str = "\
p cnf 4 3
1 0
-2 3 0
4 0
c def int 1 i >= 0
c def int 1 j >= 0
c def int 2 2*i + j < 10
c def int 3 i + j < 5
c def real 4 a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1
";

    #[test]
    fn parses_paper_example() {
        // Fig. 2 verbatim: variable 1 carries a two-constraint conjunction.
        let p: AbProblem = PAPER_EXAMPLE.parse().unwrap();
        assert_eq!(p.cnf().num_vars(), 4);
        assert_eq!(p.cnf().len(), 3);
        assert_eq!(p.num_defs(), 4);
        assert_eq!(p.num_constraints(), 5);
        assert_eq!(p.num_linear(), 4);
        assert_eq!(p.num_nonlinear(), 1);
        assert_eq!(
            p.def(absolver_logic::Var::new(0))
                .unwrap()
                .constraints
                .len(),
            2
        );
        // i, j are int; a, x, y real.
        let vars = p.arith_vars();
        let kind = |n: &str| vars[p.arith_var(n).unwrap()].kind;
        assert_eq!(kind("i"), VarKind::Int);
        assert_eq!(kind("j"), VarKind::Int);
        assert_eq!(kind("a"), VarKind::Real);
        assert_eq!(kind("x"), VarKind::Real);
        assert_eq!(kind("y"), VarKind::Real);
    }

    #[test]
    fn source_map_locates_directives_and_clauses() {
        let (p, map) = parse_spanned(PAPER_EXAMPLE).unwrap();
        assert_eq!(p.num_defs(), 4);
        assert_eq!(map.declared_vars, Some(4));
        assert_eq!(map.clause_spans.len(), 3);
        assert_eq!(map.clause_spans[0], Span::new(2, 1));
        assert_eq!(map.clause_spans[2], Span::new(4, 1));
        assert_eq!(map.def_sites.len(), 5);
        // Line 5 `c def int 1 i >= 0`: directive text starts at column 3.
        assert_eq!(map.def_sites[0].span, Span::new(5, 3));
        assert_eq!(map.def_sites[0].var, 0);
        assert_eq!(map.def_sites[0].constraint, 0);
        // The second def on variable 1 contributes constraint index 1.
        assert_eq!(map.def_sites[1].var, 0);
        assert_eq!(map.def_sites[1].constraint, 1);
        assert!(map.range_sites.is_empty());
        assert!(map.var_sites.is_empty());
    }

    #[test]
    fn source_map_records_ranges_and_vars() {
        let text = "p cnf 1 1\n1 0\nc var real x\nc range x -2 7\n";
        let (p, map) = parse_spanned(text).unwrap();
        let x = p.arith_var("x").unwrap();
        assert_eq!(map.var_sites, vec![(x, Span::new(3, 3))]);
        assert_eq!(map.range_sites.len(), 1);
        let site = &map.range_sites[0];
        assert_eq!((site.var, site.lo, site.hi), (x, -2.0, 7.0));
        assert_eq!(site.span, Span::new(4, 3));
    }

    #[test]
    fn parses_constraint_shapes() {
        let p: AbProblem = "p cnf 3 1\n1 2 3 0\nc def real 1 x^2 + y^2 <= 1\nc def real 2 sin ( x ) > 0.5\nc def real 3 x = y\n"
            .parse()
            .unwrap();
        let defs: Vec<_> = p.defs().collect();
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[0].1.constraints[0].op, CmpOp::Le);
        assert_eq!(defs[1].1.constraints[0].op, CmpOp::Gt);
        assert_eq!(defs[2].1.constraints[0].op, CmpOp::Eq);
        assert!(!defs[0].1.constraints[0].is_linear());
    }

    #[test]
    fn nonconstant_rhs_is_normalised() {
        let p: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x + 1 <= y\n".parse().unwrap();
        let (_, def) = p.defs().next().unwrap();
        let constraint = &def.constraints[0];
        // x + 1 ≤ y becomes (x + 1 − y) ≤ 0.
        assert_eq!(constraint.rhs, Rational::zero());
        assert!(constraint.is_linear());
        let (lin, c) = constraint.to_affine().unwrap();
        assert_eq!(*c, Rational::one());
        assert_eq!(lin.coeff(p.arith_var("x").unwrap()), Rational::one());
        assert_eq!(lin.coeff(p.arith_var("y").unwrap()), Rational::from_int(-1));
    }

    #[test]
    fn ranges_and_var_declarations() {
        let text = "p cnf 1 1\n1 0\nc var real speed\nc def real 1 speed ^ 2 <= 400\nc range speed -20 20\n";
        let p: AbProblem = text.parse().unwrap();
        let v = p.arith_var("speed").unwrap();
        assert_eq!(p.arith_vars()[v].range, Interval::new(-20.0, 20.0));
        assert_eq!(p.arith_vars()[v].kind, VarKind::Real);
    }

    #[test]
    fn int_promotion() {
        // x first appears in a real def, then in an int def → Int overall.
        let text = "p cnf 2 1\n1 2 0\nc def real 1 x * x >= 1\nc def int 2 x <= 3\n";
        let p: AbProblem = text.parse().unwrap();
        assert_eq!(p.arith_vars()[p.arith_var("x").unwrap()].kind, VarKind::Int);
    }

    #[test]
    fn def_can_extend_variable_count() {
        let text = "p cnf 1 1\n1 0\nc def int 9 k >= 1\n";
        let p: AbProblem = text.parse().unwrap();
        assert_eq!(p.cnf().num_vars(), 9);
        assert!(p.def(absolver_logic::Var::new(8)).is_some());
    }

    #[test]
    fn parse_errors() {
        // Bad keyword.
        assert!("p cnf 1 1\n1 0\nc def bool 1 x >= 0\n"
            .parse::<AbProblem>()
            .is_err());
        // Bad variable number.
        assert!("p cnf 1 1\n1 0\nc def int 0 x >= 0\n"
            .parse::<AbProblem>()
            .is_err());
        // Missing operator.
        assert!("p cnf 1 1\n1 0\nc def int 1 x + 1\n"
            .parse::<AbProblem>()
            .is_err());
        // Trailing garbage.
        assert!("p cnf 1 1\n1 0\nc def int 1 x >= 0 0\n"
            .parse::<AbProblem>()
            .is_err());
        // Unbalanced parenthesis.
        assert!("p cnf 1 1\n1 0\nc def int 1 ( x >= 0\n"
            .parse::<AbProblem>()
            .is_err());
        // Unknown character.
        assert!("p cnf 1 1\n1 0\nc def int 1 x ? 0\n"
            .parse::<AbProblem>()
            .is_err());
        // Range before definition of the variable.
        assert!("p cnf 1 1\n1 0\nc range x 0 1\n"
            .parse::<AbProblem>()
            .is_err());
        // Empty range.
        assert!("p cnf 1 1\n1 0\nc var real x\nc range x 2 1\n"
            .parse::<AbProblem>()
            .is_err());
    }

    /// One regression test per error variant: every parse error must name
    /// the exact line and column of the offending token.
    #[test]
    fn parse_error_spans_name_line_and_column() {
        let span_of = |text: &str| {
            let err = text.parse::<AbProblem>().unwrap_err();
            let span = err
                .span()
                .unwrap_or_else(|| panic!("error for {text:?} has no span: {err}"));
            assert!(
                err.to_string().contains("line"),
                "Display must show the span: {err}"
            );
            (span.line, span.col)
        };
        // --- DIMACS-level errors (column via ParseDimacsError) ---
        // Duplicate problem line (line 2, at the `p`).
        assert_eq!(span_of("p cnf 1 1\np cnf 1 1\n1 0\n"), (2, 1));
        // Wrong format keyword: `dnf` at column 3.
        assert_eq!(span_of("p dnf 1 1\n1 0\n"), (1, 3));
        // Bad variable count at column 7.
        assert_eq!(span_of("p cnf x 1\n1 0\n"), (1, 7));
        // Bad clause count at column 9.
        assert_eq!(span_of("p cnf 1 y\n1 0\n"), (1, 9));
        // Invalid clause literal at line 2, column 3.
        assert_eq!(span_of("p cnf 1 1\n1 a 0\n"), (2, 3));
        // --- Directive-level errors ---
        // `c def bool …`: bad kind keyword at column 7 of line 3.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def bool 1 x >= 0\n"), (3, 7));
        // `c def int 0 …`: bad Boolean variable number at column 11.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 0 x >= 0\n"), (3, 11));
        // Missing constraint body: reported at the end of the directive.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1\n"), (3, 12));
        // Bad numeric literal `1.2.3` at column 13.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 1.2.3 >= 0\n"), (3, 13));
        // Unexpected character `?` at column 15.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 x ? 0\n"), (3, 15));
        // Power exponent out of range (the oversized number, column 17).
        assert_eq!(
            span_of("p cnf 1 1\n1 0\nc def int 1 x ^ 99999999999999999999 >= 0\n"),
            (3, 17)
        );
        // Non-integer exponent (`y`, column 17).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 x ^ y >= 0\n"), (3, 17));
        // Unbalanced parenthesis: `expected )` at the `>=` (column 17).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 ( x >= 0\n"), (3, 17));
        // `expected expression` at the dangling `>=` (column 17).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 x + >= 0\n"), (3, 17));
        // Missing comparison operator: reported at end of body (column 18).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 x + 1\n"), (3, 18));
        // Trailing tokens after the comparison (second `0`, column 20).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc def int 1 x >= 0 0\n"), (3, 20));
        // --- range/var directive errors ---
        // Wrong arity: whole directive flagged (column 3).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc range x 0\n"), (3, 3));
        // Unknown range variable `x` at column 9.
        assert_eq!(span_of("p cnf 1 1\n1 0\nc range x 0 1\n"), (3, 9));
        // Bad lower bound `lo` at column 11.
        assert_eq!(
            span_of("p cnf 1 1\n1 0\nc var real x\nc range x lo 1\n"),
            (4, 11)
        );
        // Bad upper bound `hi` at column 13.
        assert_eq!(
            span_of("p cnf 1 1\n1 0\nc var real x\nc range x 0 hi\n"),
            (4, 13)
        );
        // Empty range: flagged at the lower bound (column 11).
        assert_eq!(
            span_of("p cnf 1 1\n1 0\nc var real x\nc range x 2 1\n"),
            (4, 11)
        );
        // Bad var line arity (column 3).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc var real\n"), (3, 3));
        // Bad kind in var line (`bool`, column 7).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc var bool x\n"), (3, 7));
        // Near-miss directive: first word flagged (column 3).
        assert_eq!(span_of("p cnf 1 1\n1 0\nc dff int 1 i >= 0\n"), (3, 3));
    }

    #[test]
    fn power_and_unary_minus() {
        let p: AbProblem = "p cnf 1 1\n1 0\nc def real 1 -x^2 + --y <= -1.5\n"
            .parse()
            .unwrap();
        let (_, def) = p.defs().next().unwrap();
        let constraint = &def.constraints[0];
        let x = p.arith_var("x").unwrap();
        let y = p.arith_var("y").unwrap();
        let mut point = vec![0.0; 2];
        point[x] = 2.0;
        point[y] = 1.0;
        // −(2²) + 1 = −3 ≤ −1.5 holds.
        assert!(constraint.eval(&point));
        point[y] = 3.0;
        // −4 + 3 = −1 ≤ −1.5 fails.
        assert!(!constraint.eval(&point));
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 3 2\n1 -2 0\n3 0\nc def int 1 i + 2 * j <= 7\nc def real 2 x * y > 1\nc def real 3 sin ( x ) >= 0.5\nc range x -10 10\n";
        let p1: AbProblem = text.parse().unwrap();
        let rendered = write(&p1);
        let p2: AbProblem = rendered.parse().unwrap();
        assert_eq!(p1.cnf(), p2.cnf());
        assert_eq!(p1.num_defs(), p2.num_defs());
        assert_eq!(p1.arith_vars().len(), p2.arith_vars().len());
        // Semantics preserved: same evaluation on sample points.
        let sample = vec![1.0, 2.0, 0.7];
        for ((_, d1), (_, d2)) in p1.defs().zip(p2.defs()) {
            for (c1, c2) in d1.constraints.iter().zip(&d2.constraints) {
                assert_eq!(c1.eval(&sample), c2.eval(&sample));
            }
        }
        // Ranges preserved.
        let x1 = p1.arith_var("x").unwrap();
        let x2 = p2.arith_var("x").unwrap();
        assert_eq!(p1.arith_vars()[x1].range, p2.arith_vars()[x2].range);
    }

    #[test]
    fn tokenizer_handles_dense_and_spaced_input() {
        let dense: AbProblem = "p cnf 1 1\n1 0\nc def int 1 2*i+j<10\n".parse().unwrap();
        let spaced: AbProblem = "p cnf 1 1\n1 0\nc def int 1 2 * i + j < 10\n"
            .parse()
            .unwrap();
        let (_, d1) = dense.defs().next().unwrap();
        let (_, d2) = spaced.defs().next().unwrap();
        for p in [[0.0, 0.0], [4.0, 1.0], [5.0, 0.0], [4.5, 1.0]] {
            assert_eq!(d1.constraints[0].eval(&p), d2.constraints[0].eval(&p));
        }
    }

    #[test]
    fn near_miss_directives_are_rejected() {
        // A misspelled `def` would previously vanish as a plain comment,
        // silently dropping the constraint it carries.
        for line in [
            "c dff int 1 i >= 0",
            "c def\n",
            "c Def int 1 i >= 0",
            "c rnge x -10 10",
            "c vr int i",
            "c vars int i",
        ] {
            let text = format!("p cnf 1 1\n1 0\n{line}\n");
            let err = text.parse::<AbProblem>().unwrap_err();
            assert!(
                err.to_string().contains("misspelled"),
                "`{line}` must be rejected as a near-miss directive, got: {err}"
            );
        }
    }

    #[test]
    fn misspelled_kind_inside_def_is_rejected() {
        let text = "p cnf 1 1\n1 0\nc def imt 1 i >= 0\n";
        assert!(text.parse::<AbProblem>().is_err());
    }

    #[test]
    fn ordinary_comments_still_ignored() {
        for line in [
            "c this is a free-form comment",
            "c generated by absolver",
            "c definitely not a directive",
            "c variable ordering heuristic notes",
        ] {
            let text = format!("p cnf 1 1\n1 0\n{line}\n");
            assert!(
                text.parse::<AbProblem>().is_ok(),
                "`{line}` is prose, not a near-miss directive"
            );
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("def", "def"), 0);
        assert_eq!(edit_distance("dff", "def"), 1);
        assert_eq!(edit_distance("rnge", "range"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "var"), 3);
    }
}
