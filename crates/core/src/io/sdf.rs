//! A Standard Delay Format (SDF) subset reader and writer.
//!
//! Real clock trees reach polarity-assignment flows as an SDF file
//! written by the signoff timer: per-cell `IOPATH` delays and per-net
//! `INTERCONNECT` delays, from which both the tree topology (driver →
//! load edges) and every sink's arrival time can be recovered. This
//! module parses the subset WaveMin needs and renders the minimal
//! equivalent writer used by the round-trip oracle and the fixture
//! generator.
//!
//! Supported constructs:
//!
//! * `(DELAYFILE …)` with `(SDFVERSION …)`, `(DESIGN "name")`,
//!   `(TIMESCALE …)` header entries; all delay values are taken to be
//!   picoseconds (`TIMESCALE 1ps`), matching the rest of the workspace.
//! * `(CELL (CELLTYPE "BUF_X8") (INSTANCE n3) (DELAY (ABSOLUTE …)))`
//!   declaring one placed cell instance.
//! * `(IOPATH A Z (r:r:r) (f:f:f))` — the instance's input→output delay;
//!   the first triple is the *rising-output* delay, the second (optional,
//!   defaults to the first) the falling-output delay. Port names may be
//!   wrapped in `(posedge A)` edge specifiers, which are unwrapped.
//! * `(INTERCONNECT drv/Z load/A (d:d:d))` — a net delay edge; the
//!   instance part of a port path is everything before the last `/`
//!   (or `.`) divider.
//! * Delay triples `(min:typ:max)` or a single `(typ)` value; the typical
//!   value is used.
//!
//! Unknown header sections, `(DELAY (INCREMENT …))` blocks, and
//! unrecognized entries inside `ABSOLUTE` are skipped with balanced
//! parentheses, so signoff extras (`PORT`, `TIMINGCHECK`, …) do not
//! break the import. Anything structurally malformed is a typed
//! [`SdfError`] — the parser never panics, and its memory use is bounded
//! by the input size.

use std::fmt;

/// Errors from SDF parsing and topology recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum SdfError {
    /// The tokenizer met a character outside the SDF subset.
    UnexpectedChar {
        /// 1-based line of the offending character.
        line: usize,
        /// The character.
        found: char,
    },
    /// The parser expected a different token.
    UnexpectedToken {
        /// 1-based line of the offending token.
        line: usize,
        /// What the parser needed.
        expected: &'static str,
        /// What it found.
        found: String,
    },
    /// The file ended inside an open `(` … `)` form — the trailing
    /// truncation signature. Unlike the checkpoint journal's trailing
    /// half-line (an expected kill-mid-append artifact that is ignored),
    /// a truncated SDF is an incomplete design and is always an error.
    UnexpectedEof,
    /// The top-level form is not `DELAYFILE`.
    NotADelayFile(String),
    /// A delay value did not parse as a finite number.
    BadNumber {
        /// 1-based line of the value.
        line: usize,
        /// The offending text.
        value: String,
    },
    /// Two `CELL` entries declare `IOPATH`s for the same instance.
    DuplicateInstance(String),
    /// An `INTERCONNECT` endpoint references an instance no `CELL`
    /// entry declares.
    UnknownInstance(String),
    /// A load instance has more than one `INTERCONNECT` driver, which
    /// cannot be a tree.
    MultipleDrivers(String),
    /// No instance is driver-only: the file has no clock root.
    NoRoot,
    /// Two instances have no driver; the delay network is a forest.
    MultipleRoots(String, String),
    /// An instance is unreachable from the root (a cycle or a detached
    /// island), so the delay network is not a tree.
    NotATree(String),
    /// A declared instance has an empty `CELLTYPE`.
    EmptyCellType(String),
    /// The file declares no cell instances at all.
    NoCells,
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::UnexpectedChar { line, found } => {
                write!(f, "line {line}: unexpected character '{found}'")
            }
            SdfError::UnexpectedToken {
                line,
                expected,
                found,
            } => write!(f, "line {line}: expected {expected}, found '{found}'"),
            SdfError::UnexpectedEof => {
                write!(f, "unexpected end of file inside an open '(' form")
            }
            SdfError::NotADelayFile(kw) => {
                write!(f, "top-level form must be DELAYFILE, found '{kw}'")
            }
            SdfError::BadNumber { line, value } => {
                write!(f, "line {line}: '{value}' is not a finite delay value")
            }
            SdfError::DuplicateInstance(i) => {
                write!(f, "instance '{i}' is declared by more than one CELL entry")
            }
            SdfError::UnknownInstance(i) => {
                write!(f, "INTERCONNECT references undeclared instance '{i}'")
            }
            SdfError::MultipleDrivers(i) => {
                write!(f, "instance '{i}' has more than one INTERCONNECT driver")
            }
            SdfError::NoRoot => write!(f, "no instance is driver-only: the file has no clock root"),
            SdfError::MultipleRoots(a, b) => {
                write!(
                    f,
                    "both '{a}' and '{b}' are undriven: the file has no single root"
                )
            }
            SdfError::NotATree(i) => {
                write!(f, "instance '{i}' is not reachable from the root")
            }
            SdfError::EmptyCellType(i) => {
                write!(f, "instance '{i}' has an empty CELLTYPE")
            }
            SdfError::NoCells => write!(f, "the file declares no cell instances"),
        }
    }
}

impl std::error::Error for SdfError {}

/// One `(IOPATH …)` entry: the instance's input→output delay per output
/// edge, in picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfIoPath {
    /// Input port name.
    pub from: String,
    /// Output port name.
    pub to: String,
    /// Delay when the output rises.
    pub rise: f64,
    /// Delay when the output falls.
    pub fall: f64,
}

/// One `(INTERCONNECT …)` entry: a net delay from a driver port to a
/// load port, in picoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfInterconnect {
    /// Driver port path (`instance/port`).
    pub from: String,
    /// Load port path (`instance/port`).
    pub to: String,
    /// Net delay.
    pub delay: f64,
}

/// One `(CELL …)` entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfCell {
    /// `CELLTYPE` (library cell name); may be empty for the top scope.
    pub celltype: String,
    /// `INSTANCE` path; empty for the top scope.
    pub instance: String,
    /// `IOPATH` delays declared under this cell.
    pub iopaths: Vec<SdfIoPath>,
    /// `INTERCONNECT` delays declared under this cell.
    pub interconnects: Vec<SdfInterconnect>,
}

/// A parsed `(DELAYFILE …)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SdfFile {
    /// `(DESIGN "…")` header value, if present.
    pub design: Option<String>,
    /// `(TIMESCALE …)` header text, if present.
    pub timescale: Option<String>,
    /// Cell entries, in file order.
    pub cells: Vec<SdfCell>,
}

/// Splits a port path into its instance part: everything before the last
/// `/` (or, failing that, `.`) divider. A dividerless path is returned
/// whole — an instance referenced without a port.
#[must_use]
pub fn instance_of(port_path: &str) -> &str {
    port_path
        .rsplit_once('/')
        .or_else(|| port_path.rsplit_once('.'))
        .map_or(port_path, |(inst, _)| inst)
}

/// One token, borrowing its text from the input.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    LParen,
    RParen,
    Atom(&'a str),
    Str(&'a str),
}

fn atom_byte(b: u8) -> bool {
    matches!(
        b,
        b'a'..=b'z'
            | b'A'..=b'Z'
            | b'0'..=b'9'
            | b'_'
            | b'.'
            | b'$'
            | b'/'
            | b'\\'
            | b':'
            | b'+'
            | b'-'
            | b'['
            | b']'
    )
}

/// Splits `input` into tokens, each tagged with its 1-based line (for a
/// quoted string, the line it ends on). Atoms and strings are spans of
/// `input`; nothing is copied.
fn tokenize(input: &str) -> Result<Vec<(Token<'_>, usize)>, SdfError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' => {
                // Could be a comment (`//` at statement level) or the
                // start of an atom is impossible ('/' only occurs inside
                // port paths, never first) — treat `//` as a comment and
                // a lone '/' as a divider atom (DIVIDER statements).
                if bytes.get(i + 1) == Some(&b'/') {
                    match bytes[i..].iter().position(|&c| c == b'\n') {
                        Some(nl) => {
                            line += 1;
                            i += nl + 1;
                        }
                        None => i = bytes.len(),
                    }
                } else {
                    tokens.push((Token::Atom(&input[i..=i]), line));
                    i += 1;
                }
            }
            b'(' => {
                tokens.push((Token::LParen, line));
                i += 1;
            }
            b')' => {
                tokens.push((Token::RParen, line));
                i += 1;
            }
            b'"' => {
                let body = &input[i + 1..];
                let Some(len) = body.find('"') else {
                    return Err(SdfError::UnexpectedEof);
                };
                let text = &body[..len];
                line += text.matches('\n').count();
                tokens.push((Token::Str(text), line));
                i += len + 2;
            }
            b if atom_byte(b) => {
                let len = bytes[i..].iter().take_while(|&&c| atom_byte(c)).count();
                tokens.push((Token::Atom(&input[i..i + len]), line));
                i += len;
            }
            _ => {
                // Anything else must be (possibly non-ASCII) whitespace.
                let c = input[i..].chars().next().unwrap_or_default();
                if !c.is_whitespace() {
                    return Err(SdfError::UnexpectedChar { line, found: c });
                }
                i += c.len_utf8();
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn expect_lparen(&mut self, what: &'static str) -> Result<(), SdfError> {
        let line = self.line();
        match self.next() {
            Some(Token::LParen) => Ok(()),
            Some(t) => Err(SdfError::UnexpectedToken {
                line,
                expected: what,
                found: format!("{t:?}"),
            }),
            None => Err(SdfError::UnexpectedEof),
        }
    }

    fn expect_rparen(&mut self, what: &'static str) -> Result<(), SdfError> {
        let line = self.line();
        match self.next() {
            Some(Token::RParen) => Ok(()),
            Some(t) => Err(SdfError::UnexpectedToken {
                line,
                expected: what,
                found: format!("{t:?}"),
            }),
            None => Err(SdfError::UnexpectedEof),
        }
    }

    /// An atom or quoted string.
    fn word(&mut self, what: &'static str) -> Result<&'a str, SdfError> {
        let line = self.line();
        match self.next() {
            Some(Token::Atom(s) | Token::Str(s)) => Ok(s),
            Some(t) => Err(SdfError::UnexpectedToken {
                line,
                expected: what,
                found: format!("{t:?}"),
            }),
            None => Err(SdfError::UnexpectedEof),
        }
    }

    /// Skips to the `)` matching an already-consumed `(`.
    fn skip_balanced(&mut self) -> Result<(), SdfError> {
        let mut depth = 1usize;
        loop {
            match self.next() {
                Some(Token::LParen) => depth += 1,
                Some(Token::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(_) => {}
                None => return Err(SdfError::UnexpectedEof),
            }
        }
    }

    /// A port name: a bare atom, or an `(posedge X)`-style edge
    /// specifier whose last atom is the port.
    fn port(&mut self) -> Result<&'a str, SdfError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.next();
                let mut last = None;
                loop {
                    match self.next() {
                        Some(Token::Atom(s) | Token::Str(s)) => last = Some(s),
                        Some(Token::RParen) => break,
                        Some(t) => {
                            return Err(SdfError::UnexpectedToken {
                                line: self.line(),
                                expected: "port name or ')'",
                                found: format!("{t:?}"),
                            })
                        }
                        None => return Err(SdfError::UnexpectedEof),
                    }
                }
                last.ok_or(SdfError::UnexpectedToken {
                    line: self.line(),
                    expected: "port name inside edge specifier",
                    found: "()".to_owned(),
                })
            }
            _ => self.word("port name"),
        }
    }

    /// One `( value )` delay triple: `(typ)` or `(min:typ:max)`.
    fn triple(&mut self) -> Result<f64, SdfError> {
        self.expect_lparen("'(' opening a delay value")?;
        let line = self.line();
        let text = self.word("delay value")?;
        self.expect_rparen("')' closing a delay value")?;
        parse_triple(text, line)
    }
}

fn parse_triple(text: &str, line: usize) -> Result<f64, SdfError> {
    let bad = || SdfError::BadNumber {
        line,
        value: text.to_owned(),
    };
    let mut parts = text.split(':');
    let typ = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(one), None, _, _) => one,
        (Some(_), Some(typ), Some(_), None) => typ,
        _ => return Err(bad()),
    };
    let v: f64 = typ.trim().parse().map_err(|_| bad())?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(bad())
    }
}

fn parse_iopath(p: &mut Parser) -> Result<SdfIoPath, SdfError> {
    let from = p.port()?;
    let to = p.port()?;
    let rise = p.triple()?;
    let fall = if matches!(p.peek(), Some(Token::LParen)) {
        p.triple()?
    } else {
        rise
    };
    // Tolerate the SDF-spec form with up to twelve value triples.
    while matches!(p.peek(), Some(Token::LParen)) {
        p.triple()?;
    }
    p.expect_rparen("')' closing IOPATH")?;
    Ok(SdfIoPath {
        from: from.to_owned(),
        to: to.to_owned(),
        rise,
        fall,
    })
}

fn parse_interconnect(p: &mut Parser) -> Result<SdfInterconnect, SdfError> {
    let from = p.port()?;
    let to = p.port()?;
    let delay = p.triple()?;
    while matches!(p.peek(), Some(Token::LParen)) {
        p.triple()?;
    }
    p.expect_rparen("')' closing INTERCONNECT")?;
    Ok(SdfInterconnect {
        from: from.to_owned(),
        to: to.to_owned(),
        delay,
    })
}

fn parse_absolute(p: &mut Parser, cell: &mut SdfCell) -> Result<(), SdfError> {
    loop {
        match p.peek() {
            Some(Token::RParen) => {
                p.next();
                return Ok(());
            }
            Some(Token::LParen) => {
                p.next();
                let kw = p.word("delay entry keyword")?;
                if kw.eq_ignore_ascii_case("IOPATH") {
                    cell.iopaths.push(parse_iopath(p)?);
                } else if kw.eq_ignore_ascii_case("INTERCONNECT") {
                    cell.interconnects.push(parse_interconnect(p)?);
                } else {
                    p.skip_balanced()?;
                }
            }
            Some(t) => {
                return Err(SdfError::UnexpectedToken {
                    line: p.line(),
                    expected: "'(' or ')' inside ABSOLUTE",
                    found: format!("{t:?}"),
                })
            }
            None => return Err(SdfError::UnexpectedEof),
        }
    }
}

fn parse_delay(p: &mut Parser, cell: &mut SdfCell) -> Result<(), SdfError> {
    loop {
        match p.peek() {
            Some(Token::RParen) => {
                p.next();
                return Ok(());
            }
            Some(Token::LParen) => {
                p.next();
                let kw = p.word("DELAY section keyword")?;
                if kw.eq_ignore_ascii_case("ABSOLUTE") {
                    parse_absolute(p, cell)?;
                } else {
                    p.skip_balanced()?;
                }
            }
            Some(t) => {
                return Err(SdfError::UnexpectedToken {
                    line: p.line(),
                    expected: "'(' or ')' inside DELAY",
                    found: format!("{t:?}"),
                })
            }
            None => return Err(SdfError::UnexpectedEof),
        }
    }
}

fn parse_cell(p: &mut Parser) -> Result<SdfCell, SdfError> {
    let mut cell = SdfCell::default();
    loop {
        match p.peek() {
            Some(Token::RParen) => {
                p.next();
                return Ok(cell);
            }
            Some(Token::LParen) => {
                p.next();
                let kw = p.word("CELL section keyword")?;
                if kw.eq_ignore_ascii_case("CELLTYPE") {
                    cell.celltype = p.word("cell type name")?.to_owned();
                    p.expect_rparen("')' closing CELLTYPE")?;
                } else if kw.eq_ignore_ascii_case("INSTANCE") {
                    if matches!(p.peek(), Some(Token::RParen)) {
                        p.next(); // `(INSTANCE)` — the top scope.
                    } else {
                        cell.instance = p.word("instance path")?.to_owned();
                        p.expect_rparen("')' closing INSTANCE")?;
                    }
                } else if kw.eq_ignore_ascii_case("DELAY") {
                    parse_delay(p, &mut cell)?;
                } else {
                    p.skip_balanced()?;
                }
            }
            Some(t) => {
                return Err(SdfError::UnexpectedToken {
                    line: p.line(),
                    expected: "'(' or ')' inside CELL",
                    found: format!("{t:?}"),
                })
            }
            None => return Err(SdfError::UnexpectedEof),
        }
    }
}

/// Parses an SDF document.
///
/// # Errors
///
/// A typed [`SdfError`] describing the first syntax problem; any
/// truncation of a valid file is an error, never a silently partial
/// parse.
pub fn parse(input: &str) -> Result<SdfFile, SdfError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    p.expect_lparen("'(' opening DELAYFILE")?;
    let kw = p.word("DELAYFILE keyword")?;
    if !kw.eq_ignore_ascii_case("DELAYFILE") {
        return Err(SdfError::NotADelayFile(kw.to_owned()));
    }
    let mut file = SdfFile::default();
    loop {
        match p.peek() {
            Some(Token::RParen) => {
                p.next();
                break;
            }
            Some(Token::LParen) => {
                p.next();
                let kw = p.word("header or CELL keyword")?;
                if kw.eq_ignore_ascii_case("CELL") {
                    file.cells.push(parse_cell(&mut p)?);
                } else if kw.eq_ignore_ascii_case("DESIGN") {
                    if !matches!(p.peek(), Some(Token::RParen)) {
                        file.design = Some(p.word("design name")?.to_owned());
                    }
                    p.skip_balanced()?;
                } else if kw.eq_ignore_ascii_case("TIMESCALE") {
                    let mut scale = String::new();
                    while let Some(Token::Atom(s) | Token::Str(s)) = p.peek() {
                        if !scale.is_empty() {
                            scale.push(' ');
                        }
                        scale.push_str(s);
                        p.next();
                    }
                    file.timescale = Some(scale);
                    p.expect_rparen("')' closing TIMESCALE")?;
                } else {
                    p.skip_balanced()?;
                }
            }
            Some(t) => {
                return Err(SdfError::UnexpectedToken {
                    line: p.line(),
                    expected: "'(' or ')' inside DELAYFILE",
                    found: format!("{t:?}"),
                })
            }
            None => return Err(SdfError::UnexpectedEof),
        }
    }
    if let Some(t) = p.peek() {
        return Err(SdfError::UnexpectedToken {
            line: p.line(),
            expected: "end of file after DELAYFILE",
            found: format!("{t:?}"),
        });
    }
    Ok(file)
}

/// Renders an f64 delay as a `(v:v:v)` triple. Rust's shortest-round-trip
/// `Display` guarantees re-parsing reproduces the exact bits.
fn triple_text(v: f64) -> String {
    format!("({v}:{v}:{v})")
}

impl SdfFile {
    /// Renders the file in the subset [`parse`] reads back.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("(DELAYFILE\n");
        out.push_str("  (SDFVERSION \"3.0\")\n");
        if let Some(design) = &self.design {
            out.push_str(&format!("  (DESIGN \"{design}\")\n"));
        }
        out.push_str("  (DIVIDER /)\n");
        let scale = self.timescale.as_deref().unwrap_or("1ps");
        out.push_str(&format!("  (TIMESCALE {scale})\n"));
        for cell in &self.cells {
            out.push_str(&format!("  (CELL (CELLTYPE \"{}\")", cell.celltype));
            if cell.instance.is_empty() {
                out.push_str(" (INSTANCE)\n");
            } else {
                out.push_str(&format!(" (INSTANCE {})\n", cell.instance));
            }
            if !cell.iopaths.is_empty() || !cell.interconnects.is_empty() {
                out.push_str("    (DELAY (ABSOLUTE\n");
                for io in &cell.iopaths {
                    out.push_str(&format!(
                        "      (IOPATH {} {} {} {})\n",
                        io.from,
                        io.to,
                        triple_text(io.rise),
                        triple_text(io.fall)
                    ));
                }
                for net in &cell.interconnects {
                    out.push_str(&format!(
                        "      (INTERCONNECT {} {} {})\n",
                        net.from,
                        net.to,
                        triple_text(net.delay)
                    ));
                }
                out.push_str("    ))\n");
            }
            out.push_str("  )\n");
        }
        out.push_str(")\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
(DELAYFILE
  (SDFVERSION "3.0")
  (DESIGN "demo")
  (DATE "2011-06-05")
  (DIVIDER /)
  (TIMESCALE 1ps)
  (CELL (CELLTYPE "BUF_X16") (INSTANCE root)
    (DELAY (ABSOLUTE (IOPATH A Z (21.5:22.0:22.5) (23.0:23.5:24.0))))
  )
  (CELL (CELLTYPE "INV_X8") (INSTANCE u1)
    (DELAY (ABSOLUTE (IOPATH (posedge A) Z (11.0) (12.0))))
  )
  (CELL (CELLTYPE "demo") (INSTANCE)
    (DELAY (ABSOLUTE
      (INTERCONNECT root/Z u1/A (3.25:3.5:3.75))
    ))
  )
)
"#;

    #[test]
    fn parses_the_supported_subset() {
        let f = parse(SMALL).unwrap();
        assert_eq!(f.design.as_deref(), Some("demo"));
        assert_eq!(f.timescale.as_deref(), Some("1ps"));
        assert_eq!(f.cells.len(), 3);
        let root = &f.cells[0];
        assert_eq!(root.celltype, "BUF_X16");
        assert_eq!(root.instance, "root");
        assert_eq!(root.iopaths[0].rise, 22.0, "typ of min:typ:max");
        assert_eq!(root.iopaths[0].fall, 23.5);
        let u1 = &f.cells[1];
        assert_eq!(u1.iopaths[0].from, "A", "edge specifier unwrapped");
        assert_eq!(u1.iopaths[0].fall, 12.0);
        let top = &f.cells[2];
        assert_eq!(top.instance, "");
        assert_eq!(top.interconnects[0].from, "root/Z");
        assert_eq!(top.interconnects[0].delay, 3.5);
    }

    #[test]
    fn single_triple_fills_both_edges() {
        let f = parse(
            "(DELAYFILE (CELL (CELLTYPE \"BUF_X8\") (INSTANCE a)
              (DELAY (ABSOLUTE (IOPATH A Z (7.5))))))",
        )
        .unwrap();
        assert_eq!(f.cells[0].iopaths[0].rise, 7.5);
        assert_eq!(f.cells[0].iopaths[0].fall, 7.5);
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let f = parse(
            "(DELAYFILE (VOLTAGE 1.1:1.1:1.1) (PROCESS \"typ\")
              (CELL (CELLTYPE \"BUF_X8\") (INSTANCE a)
                (DELAY (INCREMENT (IOPATH A Z (1.0)))
                       (ABSOLUTE (PORT a/A (0.1)) (IOPATH A Z (2.0))))))",
        )
        .unwrap();
        assert_eq!(f.cells[0].iopaths.len(), 1, "INCREMENT and PORT skipped");
        assert_eq!(f.cells[0].iopaths[0].rise, 2.0);
    }

    #[test]
    fn truncation_is_a_typed_eof() {
        // Every proper prefix of the document (up to the final ')') is an
        // incomplete design and must be a typed error — never a silently
        // partial parse.
        let doc = SMALL.trim_end();
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let r = parse(&doc[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes parsed as Ok");
        }
        assert_eq!(parse("(DELAYFILE"), Err(SdfError::UnexpectedEof));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert!(matches!(parse(""), Err(SdfError::UnexpectedEof)));
        assert!(matches!(parse("(SPICE)"), Err(SdfError::NotADelayFile(_))));
        assert!(matches!(
            parse(
                "(DELAYFILE (CELL (CELLTYPE \"B\") (INSTANCE a)
                    (DELAY (ABSOLUTE (IOPATH A Z (nan))))))"
            ),
            Err(SdfError::BadNumber { .. })
        ));
        assert!(matches!(
            parse("(DELAYFILE) trailing"),
            Err(SdfError::UnexpectedToken { .. })
        ));
        assert!(matches!(
            parse("(DELAYFILE @)"),
            Err(SdfError::UnexpectedChar { .. })
        ));
    }

    #[test]
    fn instance_of_splits_on_the_last_divider() {
        assert_eq!(instance_of("top/u1/Z"), "top/u1");
        assert_eq!(instance_of("u1.A"), "u1");
        assert_eq!(instance_of("u1"), "u1");
    }

    #[test]
    fn render_round_trips_through_parse() {
        let f = parse(SMALL).unwrap();
        let again = parse(&f.render()).unwrap();
        assert_eq!(again.cells.len(), f.cells.len());
        assert_eq!(again.cells[0].iopaths, f.cells[0].iopaths);
        assert_eq!(again.cells[2].interconnects, f.cells[2].interconnects);
    }
}
