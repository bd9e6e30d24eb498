//! The wire front door: a line-delimited JSON protocol over stdio or
//! TCP, hand-rolled (no serde — the container pins the dependency set)
//! on top of the [`ServiceRuntime`].
//!
//! # Protocol
//!
//! One request per line, one reply per line, in order:
//!
//! ```text
//! → {"id":1,"kind":"sim","req":{...}}
//! ← {"id":1,"ok":{"kind":"sim","resp":{...}}}
//! → {"id":2,"kind":"functional","req":{...}}
//! ← {"id":2,"err":{"code":"overloaded","reason":"mailbox-full",...}}
//! → not json at all
//! ← {"id":null,"err":{"code":"malformed","message":"..."}}
//! ```
//!
//! A malformed, truncated or over-long (> 64 KiB) request line gets a
//! *protocol-level error reply* (`code: "malformed"`, `id: null`) — the
//! connection stays up and later well-formed requests are served; nothing
//! panics and nothing is dropped. Every server-side failure travels back
//! as the typed [`ServeError`] it was, so a wire client sees exactly the
//! outcomes an in-process caller sees.
//!
//! # Codec
//!
//! No JSON tree: encoders append straight into the caller's reused
//! `String`, and decoders walk the line once with a borrowed cursor,
//! filling the typed structs field by field — linear time, and no
//! allocation for a hot sim request or reply. Fields may come in any
//! order, unknown keys are skipped and the first of a repeated key wins.
//!
//! # Bit-exactness
//!
//! Every `f64` crosses the wire as the decimal rendering of its
//! [`f64::to_bits`] pattern (and `u128` counters as plain decimal), so a
//! decoded reply is **bit-identical** to the in-process response — the
//! serving layer's determinism contract survives the transport, which
//! the wire determinism suite asserts against cold in-process runs.
//! A welcome side effect: the codec never parses or prints floating
//! point, so there is no rounding to reason about. Numbers are unsigned
//! decimal integers; fraction, exponent and sign syntax is refused.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use tailors_sim::functional::{FunctionalConfig, FunctionalResult};
use tailors_sim::{
    ActivityCounts, ArchConfig, DramBreakdown, GridMode, MemBudget, ReuseStats, RunMetrics,
    ScratchStats, TilePlan, Variant,
};
use tailors_tensor::CsrMatrix;
use tailors_workloads::{Workload, WorkloadClass};

use crate::runtime::{
    OverloadReason, Reply, RetryPolicy, RuntimeStats, ServeError, ServiceRuntime, Work,
};
use crate::service::{CacheHits, FunctionalRequest, FunctionalResponse, SimRequest, SimResponse};

/// Transport- and protocol-level failures (distinct from [`ServeError`],
/// which is a *successful* protocol exchange reporting a service
/// failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The line was not a well-formed protocol message.
    Malformed(String),
    /// The underlying transport failed.
    Io(String),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed wire message: {m}"),
            WireError::Io(m) => write!(f, "wire transport error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Writing: values render straight into the caller's line buffer.
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One JSON object being appended to a line: each method writes one
/// `"key":value` field (comma-separated after the first), so an encoder
/// lists its fields in wire order. Keys are literals with nothing to
/// escape.
struct Obj<'o> {
    out: &'o mut String,
    empty: bool,
}

impl Obj<'_> {
    /// Clears `out` and renders one object into it: a whole wire line
    /// (never a newline inside — the framing depends on it).
    fn line(out: &mut String, body: impl FnOnce(&mut Obj<'_>)) {
        out.clear();
        Obj::append(out, body);
    }

    fn append(out: &mut String, body: impl FnOnce(&mut Obj<'_>)) {
        out.push('{');
        body(&mut Obj {
            out: &mut *out,
            empty: true,
        });
        out.push('}');
    }

    /// Writes the key of the next field and hands back the buffer for
    /// its value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn with(&mut self, key: &str, value: impl FnOnce(&mut String)) -> &mut Self {
        value(self.key(key));
        self
    }

    fn num(&mut self, key: &str, v: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// An `f64` as the decimal rendering of its bit pattern.
    fn bits(&mut self, key: &str, v: f64) -> &mut Self {
        self.num(key, v.to_bits())
    }

    fn flag(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_escaped(v, self.key(key));
        self
    }

    fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        Obj::append(self.key(key), body);
        self
    }

    fn list<T: Display>(&mut self, key: &str, items: impl IntoIterator<Item = T>) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
        self
    }
}

// ---------------------------------------------------------------------------
// Reading: one borrowed pass over the line, no intermediate tree.
// ---------------------------------------------------------------------------

/// Nesting depth bound — protocol messages nest ~5 deep; anything deeper
/// is hostile or corrupt and is refused rather than recursed into.
const MAX_DEPTH: usize = 64;

/// A position in one wire line. Every read skips leading whitespace,
/// consumes exactly one value and fails with a [`WireError::Malformed`]
/// naming the byte offset; nothing here panics, for any input. `Copy`,
/// so a decoder can note where a value starts and come back to it.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn fail(&self, msg: &str) -> WireError {
        malformed(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let hit = self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes());
        if hit {
            self.pos += kw.len();
        }
        hit
    }

    /// Walks the comma-separated entries of one object or array
    /// (`open`/`close` delimit it), calling `entry` to read each one.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                entry(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.fail(&format!("expected ',' or {:?}", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Walks one object, handing each key to `field` in wire order.
    /// `field` reads the value of a key it wants and returns `true`; a
    /// key it returns `false` for has its value skipped.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<bool, WireError>,
    ) -> Result<(), WireError> {
        self.seq(b'{', b'}', |c| {
            let key = c.string()?;
            c.expect(b':')?;
            if !field(c, &key)? {
                c.skip()?;
            }
            Ok(())
        })
    }

    /// Fills `slot` by `read` unless an earlier occurrence of the same
    /// key already did (the first one wins; later ones are skipped).
    fn slot<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<bool, WireError> {
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(read(self)?);
        Ok(true)
    }

    /// Skips one value of any shape, validating it as it goes.
    fn skip(&mut self) -> Result<(), WireError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(|_, _| Ok(false)),
            Some(b'[') => self.seq(b'[', b']', Cursor::skip),
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.keyword("null") || self.keyword("true") || self.keyword("false") => Ok(()),
            None => Err(self.fail("unexpected end of input")),
            Some(_) => Err(self.fail("unexpected byte")),
        }
    }

    /// Skips any JSON number. Only unknown fields get here: typed fields
    /// read unsigned integers with [`Cursor::uint`].
    fn number(&mut self) -> Result<(), WireError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("expected digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected exponent digits")?;
        }
        Ok(())
    }

    /// Consumes a non-empty run of ASCII digits and returns it.
    fn digits(&mut self, missing: &str) -> Result<&'a str, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.fail(missing));
        }
        Ok(&self.src[start..self.pos])
    }

    /// An unsigned decimal integer, range-checked against `T` (which the
    /// decoders leave to inference from the field being filled).
    fn uint<T: std::str::FromStr>(&mut self) -> Result<T, WireError> {
        self.skip_ws();
        let tok = self.digits("expected an unsigned integer")?;
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.fail("expected an integer, not a fraction or exponent"));
        }
        tok.parse()
            .map_err(|_| self.fail(&format!("integer {tok} out of range")))
    }

    /// An `f64` carried as the decimal rendering of its bit pattern.
    fn f64_bits(&mut self) -> Result<f64, WireError> {
        self.uint().map(f64::from_bits)
    }

    fn bool_(&mut self) -> Result<bool, WireError> {
        if self.keyword("true") {
            Ok(true)
        } else if self.keyword("false") {
            Ok(false)
        } else {
            Err(self.fail("expected a bool"))
        }
    }

    /// A string, borrowed from the line unless it holds escapes. Each run
    /// between escapes is found by one scan for the next `"` or `\`; both
    /// are ASCII, so every run ends on a character boundary of the line.
    fn string(&mut self) -> Result<Cow<'a, str>, WireError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(len) = self.src.as_bytes()[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.src.len();
                return Err(self.fail("unterminated string"));
            };
            self.pos += len;
            let chunk = &self.src[run..self.pos];
            self.pos += 1;
            if self.src.as_bytes()[self.pos - 1] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            let c = self.escape()?;
            s.push(c);
        }
    }

    /// The character of one escape sequence, just past its `\`.
    fn escape(&mut self) -> Result<char, WireError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let unit = self.hex4()?;
                if !(0xD800..0xDC00).contains(&unit) {
                    return char::from_u32(unit)
                        .ok_or_else(|| self.fail("invalid escape code point"));
                }
                // A high surrogate must pair with \uDC00..
                if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(self.fail("unpaired surrogate"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.fail("invalid low surrogate"));
                }
                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"));
            }
            _ => return Err(self.fail("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let hex = self.src.get(self.pos..self.pos + 4);
        let v = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        self.pos += 4;
        v.ok_or_else(|| self.fail("invalid \\u escape"))
    }
}

/// Decodes a whole line as one value read by `read`, refusing trailing
/// bytes.
fn decode_line<'a, T>(
    line: &'a str,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut c = Cursor {
        src: line,
        pos: 0,
        depth: 0,
    };
    let v = read(&mut c)?;
    c.skip_ws();
    if c.pos != line.len() {
        return Err(c.fail("trailing bytes"));
    }
    Ok(v)
}

fn required<T>(v: Option<T>, key: &str) -> Result<T, WireError> {
    v.ok_or_else(|| malformed(format!("missing field {key:?}")))
}

/// Decodes one object into the struct `$ty`, every field required and
/// read by its `$read` (a `FnOnce(&mut Cursor) -> Result<_, WireError>`),
/// as a `Result<$ty, WireError>`.
macro_rules! decode_struct {
    ($c:ident => $ty:ident { $($field:ident: $read:expr),* $(,)? }) => {{
        $(let mut $field = None;)*
        $c.object(|c, key| match key {
            $(stringify!($field) => c.slot(&mut $field, $read),)*
            _ => Ok(false),
        })
        .and_then(|()| Ok($ty { $($field: required($field, stringify!($field))?,)* }))
    }};
}

/// Reads a payload whose shape depends on its object's `kind` (`req`,
/// `resp`). Every encoder writes `kind` first, so the payload normally
/// decodes in place (`Ok`); one that arrives before its kind is skipped
/// and handed back as a cursor (`Err`), to decode once the walk has
/// found the kind.
fn payload<'a, T>(
    c: &mut Cursor<'a>,
    kind: Option<&str>,
    decode: impl FnOnce(&mut Cursor<'a>, &str) -> Result<T, WireError>,
) -> Result<Result<T, Cursor<'a>>, WireError> {
    match kind {
        Some(kind) => decode(c, kind).map(Ok),
        None => {
            let at = *c;
            c.skip().map(|()| Err(at))
        }
    }
}

// ---------------------------------------------------------------------------
// Interning: wire messages carry owned strings, but `Workload::name`,
// `SimResponse::name`, and `RunMetrics::bound_by` are `&'static str`.
// Suite names resolve back to their existing statics; anything else is
// leaked once into a deduplicating pool (bounded by the number of
// distinct names a process ever decodes).
// ---------------------------------------------------------------------------

fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut pool = pool.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

fn intern_workload_name(s: &str) -> &'static str {
    match tailors_workloads::by_name(s) {
        Some(w) => w.name,
        None => intern(s),
    }
}

fn intern_bound_by(s: &str) -> &'static str {
    match s {
        "dram" => "dram",
        "global-buffer" => "global-buffer",
        "intersection" => "intersection",
        "compute" => "compute",
        other => intern(other),
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

fn encode_workload(o: &mut Obj<'_>, wl: &Workload) {
    let class = match wl.class {
        WorkloadClass::LinearSystem => "linear-system",
        WorkloadClass::Graph => "graph",
        WorkloadClass::RoadNetwork => "road-network",
    };
    o.str("name", wl.name)
        .num("nrows", wl.nrows)
        .num("ncols", wl.ncols)
        .num("target_nnz", wl.target_nnz)
        .str("class", class)
        .bits("paper_sparsity", wl.paper_sparsity)
        .bits("variability", wl.variability)
        .num("seed", wl.seed);
}

fn decode_workload(c: &mut Cursor<'_>) -> Result<Workload, WireError> {
    decode_struct!(c => Workload {
        name: |c| Ok(intern_workload_name(&c.string()?)),
        nrows: Cursor::uint,
        ncols: Cursor::uint,
        target_nnz: Cursor::uint,
        class: |c| match &*c.string()? {
            "linear-system" => Ok(WorkloadClass::LinearSystem),
            "graph" => Ok(WorkloadClass::Graph),
            "road-network" => Ok(WorkloadClass::RoadNetwork),
            other => Err(malformed(format!("unknown workload class {other:?}"))),
        },
        paper_sparsity: Cursor::f64_bits,
        variability: Cursor::f64_bits,
        seed: Cursor::uint,
    })
}

fn encode_variant(o: &mut Obj<'_>, v: Variant) {
    match v {
        Variant::ExTensorN => o.str("kind", "n"),
        Variant::ExTensorP => o.str("kind", "p"),
        Variant::ExTensorOB { y, k } => o.str("kind", "ob").bits("y", y).num("k", k),
        // `Variant` is non_exhaustive upstream; refuse rather than
        // silently mis-encode a future variant.
        other => unreachable!("unencodable variant {other:?}"),
    };
}

fn decode_variant(c: &mut Cursor<'_>) -> Result<Variant, WireError> {
    let (mut kind, mut y, mut k) = (None, None, None);
    c.object(|c, key| match key {
        "kind" => c.slot(&mut kind, Cursor::string),
        "y" => c.slot(&mut y, Cursor::f64_bits),
        "k" => c.slot(&mut k, Cursor::uint),
        _ => Ok(false),
    })?;
    match &*required(kind, "kind")? {
        "n" => Ok(Variant::ExTensorN),
        "p" => Ok(Variant::ExTensorP),
        "ob" => Ok(Variant::ExTensorOB {
            y: required(y, "y")?,
            k: required(k, "k")?,
        }),
        other => Err(malformed(format!("unknown variant kind {other:?}"))),
    }
}

fn encode_arch(o: &mut Obj<'_>, a: &ArchConfig) {
    o.num("gb_bytes", a.gb_bytes)
        .num("pe_buf_bytes", a.pe_buf_bytes)
        .num("pe_count", a.pe_count)
        .num("bytes_per_element", a.bytes_per_element)
        .bits("dram_bytes_per_cycle", a.dram_bytes_per_cycle)
        .bits("gb_elems_per_cycle", a.gb_elems_per_cycle)
        .bits("isect_coords_per_cycle", a.isect_coords_per_cycle)
        .bits("macs_per_pe_per_cycle", a.macs_per_pe_per_cycle)
        .bits("operand_fraction", a.operand_fraction)
        .num("dram_latency_cycles", a.dram_latency_cycles)
        .num("gb_latency_cycles", a.gb_latency_cycles);
}

fn decode_arch(c: &mut Cursor<'_>) -> Result<ArchConfig, WireError> {
    decode_struct!(c => ArchConfig {
        gb_bytes: Cursor::uint,
        pe_buf_bytes: Cursor::uint,
        pe_count: Cursor::uint,
        bytes_per_element: Cursor::uint,
        dram_bytes_per_cycle: Cursor::f64_bits,
        gb_elems_per_cycle: Cursor::f64_bits,
        isect_coords_per_cycle: Cursor::f64_bits,
        macs_per_pe_per_cycle: Cursor::f64_bits,
        operand_fraction: Cursor::f64_bits,
        dram_latency_cycles: Cursor::uint,
        gb_latency_cycles: Cursor::uint,
    })
}

fn encode_budget(b: MemBudget, out: &mut String) {
    match b.limit_bytes() {
        None => out.push_str("\"unbounded\""),
        Some(n) => {
            let _ = write!(out, "{n}");
        }
    }
}

fn decode_budget(c: &mut Cursor<'_>) -> Result<MemBudget, WireError> {
    c.skip_ws();
    if c.peek() != Some(b'"') {
        return c.uint().map(MemBudget::Bytes);
    }
    match &*c.string()? {
        "unbounded" => Ok(MemBudget::Unbounded),
        other => Err(malformed(format!("invalid budget {other:?}"))),
    }
}

fn grid_name(g: GridMode) -> &'static str {
    match g {
        GridMode::Panels => "panels",
        GridMode::Grid2D => "grid2d",
    }
}

fn decode_grid(c: &mut Cursor<'_>) -> Result<GridMode, WireError> {
    GridMode::parse(&c.string()?).map_err(malformed)
}

fn encode_work(o: &mut Obj<'_>, work: &Work) {
    let (workload, variant, arch, budget, grid, auto_plan) = match work {
        Work::Sim(r) => (
            &r.workload,
            r.variant,
            &r.arch,
            r.budget,
            r.grid,
            r.auto_plan,
        ),
        Work::Functional(r) => (
            &r.workload,
            r.variant,
            &r.arch,
            r.budget,
            r.grid,
            r.auto_plan,
        ),
    };
    o.obj("workload", |o| encode_workload(o, workload))
        .obj("variant", |o| encode_variant(o, variant))
        .obj("arch", |o| encode_arch(o, arch))
        .with("budget", |out| encode_budget(budget, out))
        .str("grid", grid_name(grid))
        .flag("auto_plan", auto_plan);
    if let Work::Functional(r) = work {
        o.num("threads", r.threads);
    }
}

fn decode_work(c: &mut Cursor<'_>, kind: &str) -> Result<Work, WireError> {
    match kind {
        "sim" => decode_struct!(c => SimRequest {
            workload: decode_workload,
            variant: decode_variant,
            arch: decode_arch,
            budget: decode_budget,
            grid: decode_grid,
            auto_plan: Cursor::bool_,
        })
        .map(Work::Sim),
        "functional" => decode_struct!(c => FunctionalRequest {
            workload: decode_workload,
            variant: decode_variant,
            arch: decode_arch,
            budget: decode_budget,
            grid: decode_grid,
            auto_plan: Cursor::bool_,
            threads: Cursor::uint,
        })
        .map(|r| Work::Functional(Box::new(r))),
        other => Err(malformed(format!("unknown request kind {other:?}"))),
    }
}

fn encode_metrics(o: &mut Obj<'_>, m: &RunMetrics) {
    o.bits("cycles", m.cycles)
        .bits("energy_pj", m.energy_pj)
        .obj("activity", |o| {
            o.num("dram_elems", m.activity.dram_elems)
                .num("gb_accesses", m.activity.gb_accesses)
                .num("pe_buf_accesses", m.activity.pe_buf_accesses)
                .num("macs", m.activity.macs)
                .num("isect_coords", m.activity.isect_coords);
        })
        .obj("dram", |o| {
            o.num("total", m.dram.total)
                .num("baseline", m.dram.baseline)
                .num("overbook_extra", m.dram.overbook_extra);
        })
        .obj("reuse", |o| {
            o.bits("bumped_fraction", m.reuse.bumped_fraction)
                .bits("reused_fraction", m.reuse.reused_fraction)
                .num("overbooked_a_tiles", m.reuse.overbooked_a_tiles)
                .num("total_a_tiles", m.reuse.total_a_tiles)
                .num("overbooked_b_tiles", m.reuse.overbooked_b_tiles)
                .num("total_b_tiles", m.reuse.total_b_tiles);
        })
        .obj("plan", |o| {
            o.num("gb_rows_a", m.plan.gb_rows_a)
                .num("gb_cols_b", m.plan.gb_cols_b)
                .num("pe_rows_a", m.plan.pe_rows_a)
                .num("pe_cols_b", m.plan.pe_cols_b)
                .flag("full_k", m.plan.full_k)
                .flag("overbooking", m.plan.overbooking);
        })
        .obj("scratch", |o| {
            o.num("col_blocks", m.scratch.col_blocks)
                .num("block_cols", m.scratch.block_cols)
                .num("bytes_per_thread", m.scratch.bytes_per_thread)
                .flag("fits_budget", m.scratch.fits_budget)
                .str("grid", grid_name(m.scratch.grid))
                .num("parallel_units", m.scratch.parallel_units);
        })
        .str("bound_by", m.bound_by);
}

fn decode_metrics(c: &mut Cursor<'_>) -> Result<RunMetrics, WireError> {
    decode_struct!(c => RunMetrics {
        cycles: Cursor::f64_bits,
        energy_pj: Cursor::f64_bits,
        activity: |c| decode_struct!(c => ActivityCounts {
            dram_elems: Cursor::uint,
            gb_accesses: Cursor::uint,
            pe_buf_accesses: Cursor::uint,
            macs: Cursor::uint,
            isect_coords: Cursor::uint,
        }),
        dram: |c| decode_struct!(c => DramBreakdown {
            total: Cursor::uint,
            baseline: Cursor::uint,
            overbook_extra: Cursor::uint,
        }),
        reuse: |c| decode_struct!(c => ReuseStats {
            bumped_fraction: Cursor::f64_bits,
            reused_fraction: Cursor::f64_bits,
            overbooked_a_tiles: Cursor::uint,
            total_a_tiles: Cursor::uint,
            overbooked_b_tiles: Cursor::uint,
            total_b_tiles: Cursor::uint,
        }),
        plan: |c| decode_struct!(c => TilePlan {
            gb_rows_a: Cursor::uint,
            gb_cols_b: Cursor::uint,
            pe_rows_a: Cursor::uint,
            pe_cols_b: Cursor::uint,
            full_k: Cursor::bool_,
            overbooking: Cursor::bool_,
        }),
        scratch: |c| decode_struct!(c => ScratchStats {
            col_blocks: Cursor::uint,
            block_cols: Cursor::uint,
            bytes_per_thread: Cursor::uint,
            fits_budget: Cursor::bool_,
            grid: decode_grid,
            parallel_units: Cursor::uint,
        }),
        bound_by: |c| Ok(intern_bound_by(&c.string()?)),
    })
}

fn encode_hits(o: &mut Obj<'_>, h: &CacheHits) {
    o.flag("tensor", h.tensor)
        .flag("profile", h.profile)
        .flag("plan", h.plan);
}

fn decode_hits(c: &mut Cursor<'_>) -> Result<CacheHits, WireError> {
    decode_struct!(c => CacheHits {
        tensor: Cursor::bool_,
        profile: Cursor::bool_,
        plan: Cursor::bool_,
    })
}

fn encode_csr(o: &mut Obj<'_>, m: &CsrMatrix) {
    o.num("nrows", m.nrows())
        .num("ncols", m.ncols())
        .list("row_ptr", m.row_ptr())
        .list("cols", m.col_indices())
        .list("vals", m.values().iter().map(|x| x.to_bits()));
}

/// Reads an array straight into a `Vec`, one element per `read`.
fn decode_vec<'a, T>(
    c: &mut Cursor<'a>,
    mut read: impl FnMut(&mut Cursor<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut v = Vec::new();
    c.seq(b'[', b']', |c| {
        v.push(read(c)?);
        Ok(())
    })?;
    Ok(v)
}

fn decode_csr(c: &mut Cursor<'_>) -> Result<CsrMatrix, WireError> {
    let (mut nrows, mut ncols) = (None, None);
    let (mut row_ptr, mut cols, mut vals) = (None, None, None);
    c.object(|c, key| match key {
        "nrows" => c.slot(&mut nrows, Cursor::uint),
        "ncols" => c.slot(&mut ncols, Cursor::uint),
        "row_ptr" => c.slot(&mut row_ptr, |c| decode_vec(c, Cursor::uint)),
        "cols" => c.slot(&mut cols, |c| decode_vec(c, Cursor::uint::<u32>)),
        "vals" => c.slot(&mut vals, |c| decode_vec(c, Cursor::f64_bits)),
        _ => Ok(false),
    })?;
    CsrMatrix::from_parts(
        required(nrows, "nrows")?,
        required(ncols, "ncols")?,
        required(row_ptr, "row_ptr")?,
        required(cols, "cols")?,
        required(vals, "vals")?,
    )
    .map_err(|e| malformed(format!("invalid CSR payload: {e:?}")))
}

fn encode_functional_config(o: &mut Obj<'_>, c: &FunctionalConfig) {
    o.num("capacity", c.capacity)
        .num("fifo_region", c.fifo_region)
        .num("rows_a", c.rows_a)
        .num("cols_b", c.cols_b)
        .flag("overbooking", c.overbooking)
        .with("mem_budget", |out| encode_budget(c.mem_budget, out))
        .str("grid", grid_name(c.grid))
        .flag("auto_plan", c.auto_plan);
}

fn decode_functional_config(c: &mut Cursor<'_>) -> Result<FunctionalConfig, WireError> {
    decode_struct!(c => FunctionalConfig {
        capacity: Cursor::uint,
        fifo_region: Cursor::uint,
        rows_a: Cursor::uint,
        cols_b: Cursor::uint,
        overbooking: Cursor::bool_,
        mem_budget: decode_budget,
        grid: decode_grid,
        auto_plan: Cursor::bool_,
    })
}

fn encode_functional_response(o: &mut Obj<'_>, r: &FunctionalResponse) {
    o.obj("config", |o| encode_functional_config(o, &r.config))
        .obj("result", |o| {
            o.obj("z", |o| encode_csr(o, &r.result.z))
                .num("dram_a_fetches", r.result.dram_a_fetches)
                .num("dram_b_fetches", r.result.dram_b_fetches)
                .num("overbooked_a_tiles", r.result.overbooked_a_tiles);
        })
        .obj("hits", |o| encode_hits(o, &r.hits));
}

fn decode_reply_body(c: &mut Cursor<'_>, kind: &str) -> Result<Reply, WireError> {
    match kind {
        "sim" => decode_struct!(c => SimResponse {
            name: |c| Ok(intern_workload_name(&c.string()?)),
            metrics: decode_metrics,
            hits: decode_hits,
        })
        .map(Reply::Sim),
        "functional" => decode_struct!(c => FunctionalResponse {
            config: decode_functional_config,
            result: |c| decode_struct!(c => FunctionalResult {
                z: decode_csr,
                dram_a_fetches: Cursor::uint,
                dram_b_fetches: Cursor::uint,
                overbooked_a_tiles: Cursor::uint,
            }),
            hits: decode_hits,
        })
        .map(|r| Reply::Functional(Box::new(r))),
        other => Err(malformed(format!("unknown reply kind {other:?}"))),
    }
}

fn encode_serve_error(o: &mut Obj<'_>, e: &ServeError) {
    match e {
        ServeError::Overloaded(OverloadReason::MailboxFull { capacity }) => o
            .str("code", "overloaded")
            .str("reason", "mailbox-full")
            .num("capacity", capacity),
        ServeError::Overloaded(OverloadReason::TensorBytes { estimated, limit }) => o
            .str("code", "overloaded")
            .str("reason", "tensor-bytes")
            .num("estimated", estimated)
            .num("limit", limit),
        ServeError::Timeout { deadline } => o
            .str("code", "timeout")
            .num("deadline_secs", deadline.as_secs())
            .num("deadline_nanos", deadline.subsec_nanos()),
        ServeError::Faulted { panic, message } => o
            .str("code", "faulted")
            .flag("panic", *panic)
            .str("message", message),
        ServeError::BadRequest(m) => o.str("code", "bad-request").str("message", m),
        ServeError::Shutdown => o.str("code", "shutdown"),
    };
}

/// Every key an error object may carry is read whatever its `code`; the
/// code then picks the ones it needs.
fn decode_serve_error(c: &mut Cursor<'_>) -> Result<ServeError, WireError> {
    let (mut code, mut reason, mut message, mut panic) = (None, None, None, None);
    let (mut capacity, mut estimated, mut limit, mut secs, mut nanos) =
        (None, None, None, None, None);
    c.object(|c, key| match key {
        "code" => c.slot(&mut code, Cursor::string),
        "reason" => c.slot(&mut reason, Cursor::string),
        "message" => c.slot(&mut message, Cursor::string),
        "panic" => c.slot(&mut panic, Cursor::bool_),
        "capacity" => c.slot(&mut capacity, Cursor::uint),
        "estimated" => c.slot(&mut estimated, Cursor::uint),
        "limit" => c.slot(&mut limit, Cursor::uint),
        "deadline_secs" => c.slot(&mut secs, Cursor::uint),
        "deadline_nanos" => c.slot(&mut nanos, Cursor::uint),
        _ => Ok(false),
    })?;
    match &*required(code, "code")? {
        "overloaded" => Ok(ServeError::Overloaded(
            match &*required(reason, "reason")? {
                "mailbox-full" => OverloadReason::MailboxFull {
                    capacity: required(capacity, "capacity")?,
                },
                "tensor-bytes" => OverloadReason::TensorBytes {
                    estimated: required(estimated, "estimated")?,
                    limit: required(limit, "limit")?,
                },
                other => return Err(malformed(format!("unknown overload reason {other:?}"))),
            },
        )),
        "timeout" => {
            let nanos: u32 = required(nanos, "deadline_nanos")?;
            if nanos >= 1_000_000_000 {
                return Err(malformed("timeout nanos out of range"));
            }
            Ok(ServeError::Timeout {
                deadline: Duration::new(required(secs, "deadline_secs")?, nanos),
            })
        }
        "faulted" => Ok(ServeError::Faulted {
            panic: required(panic, "panic")?,
            message: required(message, "message")?.into_owned(),
        }),
        "bad-request" => Ok(ServeError::BadRequest(
            required(message, "message")?.into_owned(),
        )),
        "shutdown" => Ok(ServeError::Shutdown),
        // A protocol-level error reply from the server: surface it as the
        // bad request it (from the server's view) was.
        "malformed" => Ok(ServeError::BadRequest(format!(
            "protocol error: {}",
            required(message, "message")?
        ))),
        other => Err(malformed(format!("unknown error code {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// Encodes one request line (no trailing newline) into a reusable
/// buffer (cleared first): a client that keeps one buffer per session
/// renders steady-state requests without allocating the line itself.
pub fn encode_request_into(id: u64, work: &Work, out: &mut String) {
    encode_request_flagged_into(id, work, false, out);
}

/// [`encode_request_into`] with the warm-up flag: `warm == true` adds
/// `"warm":true` to the envelope, asking the server to queue the request
/// on its low-priority lane (cache-warming replay must never delay live
/// traffic).
pub fn encode_request_flagged_into(id: u64, work: &Work, warm: bool, out: &mut String) {
    let kind = match work {
        Work::Sim(_) => "sim",
        Work::Functional(_) => "functional",
    };
    Obj::line(out, |o| {
        o.num("id", id)
            .str("kind", kind)
            .obj("req", |o| encode_work(o, work));
        if warm {
            o.flag("warm", true);
        }
    });
}

/// Encodes a ping request line: `{"id":N,"kind":"ping"}` — no payload.
/// The server answers from its session loop without queueing anything,
/// so a ping is safe against a wedged worker pool and never enters the
/// outcome ledger.
pub fn encode_ping_into(id: u64, out: &mut String) {
    Obj::line(out, |o| {
        o.num("id", id).str("kind", "ping");
    });
}

/// Encodes the pong reply to a ping: the envelope carries a snapshot of
/// the shard runtime's outcome counters, so one probe both proves
/// liveness and fetches shard stats.
pub fn encode_pong_into(id: u64, stats: &RuntimeStats, out: &mut String) {
    Obj::line(out, |o| {
        o.num("id", id).obj("ok", |o| {
            o.str("kind", "pong").obj("stats", |o| {
                o.num("submitted", stats.submitted)
                    .num("completed", stats.completed)
                    .num("rejected", stats.rejected)
                    .num("timed_out", stats.timed_out)
                    .num("faulted", stats.faulted)
                    .num("panics_isolated", stats.panics_isolated)
                    .num("retries", stats.retries)
                    .num("injected_panics", stats.injected_panics)
                    .num("injected_latency", stats.injected_latency)
                    .num("injected_rejects", stats.injected_rejects)
                    .num("injected_drops", stats.injected_drops);
            });
        });
    });
}

/// Decodes a pong line into `(id, stats)`.
fn decode_pong(line: &str) -> Result<(u64, RuntimeStats), WireError> {
    decode_line(line, |c| {
        let (mut id, mut stats) = (None, None);
        c.object(|c, key| match key {
            "id" => c.slot(&mut id, Cursor::uint),
            "ok" => c.slot(&mut stats, |c| {
                let (mut kind, mut stats) = (None, None);
                c.object(|c, key| match key {
                    "kind" => c.slot(&mut kind, Cursor::string),
                    "stats" => c.slot(&mut stats, decode_runtime_stats),
                    _ => Ok(false),
                })?;
                if required(kind, "kind")? != "pong" {
                    return Err(malformed("ping answered by a non-pong reply"));
                }
                required(stats, "stats")
            }),
            _ => Ok(false),
        })?;
        Ok((required(id, "id")?, required(stats, "ok")?))
    })
}

fn decode_runtime_stats(c: &mut Cursor<'_>) -> Result<RuntimeStats, WireError> {
    decode_struct!(c => RuntimeStats {
        submitted: Cursor::uint,
        completed: Cursor::uint,
        rejected: Cursor::uint,
        timed_out: Cursor::uint,
        faulted: Cursor::uint,
        panics_isolated: Cursor::uint,
        retries: Cursor::uint,
        injected_panics: Cursor::uint,
        injected_latency: Cursor::uint,
        injected_rejects: Cursor::uint,
        injected_drops: Cursor::uint,
    })
}

/// A decoded request envelope: real work (possibly flagged for the
/// warm-up lane) or a session-level ping.
///
/// The size disparity between the variants is deliberate: one value
/// exists per decoded line and is destructured immediately, so boxing
/// the work payload would buy nothing except a per-request heap
/// allocation — the exact cost the zero-alloc regression suite polices.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum WireRequest {
    /// A sim/functional request to submit to the runtime.
    Work {
        /// The decoded work.
        work: Work,
        /// Whether the client asked for the low-priority warm-up lane.
        warm: bool,
    },
    /// A liveness probe, answered in the session loop with a stats pong.
    Ping,
}

/// Decodes one request line into a [`WireRequest`].
///
/// # Errors
///
/// [`WireError::Malformed`] for anything that is not a well-formed
/// request; never panics.
pub fn decode_request_line(line: &str) -> Result<(u64, WireRequest), WireError> {
    decode_line(line, |c| {
        let (mut id, mut kind, mut warm, mut req) = (None, None, None, None);
        c.object(|c, key| match key {
            "id" => c.slot(&mut id, Cursor::uint),
            "kind" => c.slot(&mut kind, Cursor::string),
            "warm" => c.slot(&mut warm, Cursor::bool_),
            // A ping carries no payload; any `req` it has is skipped.
            "req" if kind.as_deref() != Some("ping") => {
                c.slot(&mut req, |c| payload(c, kind.as_deref(), decode_work))
            }
            _ => Ok(false),
        })?;
        let id = required(id, "id")?;
        let kind = required(kind, "kind")?;
        if kind == "ping" {
            return Ok((id, WireRequest::Ping));
        }
        let work = match required(req, "req")? {
            Ok(work) => work,
            Err(mut at) => decode_work(&mut at, &kind)?,
        };
        let warm = warm.unwrap_or(false);
        Ok((id, WireRequest::Work { work, warm }))
    })
}

/// Encodes one reply line (no trailing newline) into a reusable buffer
/// (cleared first): the server session loops keep one buffer per
/// connection so steady-state replies reuse its capacity instead of
/// allocating a fresh line each time. `id` is `None` only for
/// protocol-level (`malformed`) error replies, which answer lines whose
/// id could not be read.
pub fn encode_reply_into(id: Option<u64>, outcome: &Result<Reply, ServeError>, out: &mut String) {
    Obj::line(out, |o| {
        match id {
            Some(id) => o.num("id", id),
            None => o.with("id", |out| out.push_str("null")),
        };
        match outcome {
            Ok(Reply::Sim(r)) => o.obj("ok", |o| {
                o.str("kind", "sim").obj("resp", |o| {
                    o.str("name", r.name)
                        .obj("metrics", |o| encode_metrics(o, &r.metrics))
                        .obj("hits", |o| encode_hits(o, &r.hits));
                });
            }),
            Ok(Reply::Functional(r)) => o.obj("ok", |o| {
                o.str("kind", "functional")
                    .obj("resp", |o| encode_functional_response(o, r));
            }),
            Err(e) => o.obj("err", |o| encode_serve_error(o, e)),
        };
    });
}

/// Encodes the protocol-level error reply for an undecodable line into a
/// reusable buffer (cleared first).
pub fn encode_malformed_reply_into(err: &WireError, out: &mut String) {
    Obj::line(out, |o| {
        o.with("id", |out| out.push_str("null")).obj("err", |o| {
            o.str("code", "malformed").str("message", &err.to_string());
        });
    });
}

/// Decodes one reply line into `(id, outcome)`; `id` is `None` for
/// protocol-level error replies.
///
/// # Errors
///
/// [`WireError::Malformed`] for anything that is not a well-formed reply.
pub fn decode_reply(line: &str) -> Result<(Option<u64>, Result<Reply, ServeError>), WireError> {
    decode_line(line, |c| {
        let (mut id, mut ok, mut err) = (None, None, None);
        c.object(|c, key| match key {
            "id" => c.slot(&mut id, |c| {
                if c.keyword("null") {
                    Ok(None)
                } else {
                    c.uint().map(Some)
                }
            }),
            "ok" => c.slot(&mut ok, |c| {
                let (mut kind, mut resp) = (None, None);
                c.object(|c, key| match key {
                    "kind" => c.slot(&mut kind, Cursor::string),
                    "resp" => c.slot(&mut resp, |c| {
                        payload(c, kind.as_deref(), decode_reply_body)
                    }),
                    _ => Ok(false),
                })?;
                let kind = required(kind, "kind")?;
                match required(resp, "resp")? {
                    Ok(reply) => Ok(reply),
                    Err(mut at) => decode_reply_body(&mut at, &kind),
                }
            }),
            "err" => c.slot(&mut err, decode_serve_error),
            _ => Ok(false),
        })?;
        let id = required(id, "id")?;
        match (ok, err) {
            (Some(reply), _) => Ok((id, Ok(reply))),
            (None, Some(e)) => Ok((id, Err(e))),
            (None, None) => Err(malformed("reply has neither \"ok\" nor \"err\"")),
        }
    })
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The longest request line a server session buffers, newline excluded.
/// Requests carry workload specs, not tensors (the largest is well under
/// 1 KiB), so anything this long is hostile or corrupt: it is drained to
/// its newline unbuffered and answered with a `malformed` reply.
/// Reply lines are not capped — a functional reply can be tens of MB.
const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// What one wire session (connection or stdio stream) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServeReport {
    /// Well-formed requests submitted to the runtime.
    pub served: u64,
    /// Undecodable lines answered with protocol-level error replies.
    pub protocol_errors: u64,
    /// Liveness probes answered from the session loop (never submitted,
    /// never in the runtime ledger).
    pub pings: u64,
}

/// One request line as a session reads it: the bytes kept (at most
/// [`MAX_REQUEST_LINE_BYTES`], newline excluded) and whether the line ran
/// past the cap. Both buffers are reused across a session's requests.
#[derive(Default)]
struct RequestLine {
    bytes: Vec<u8>,
    too_long: bool,
}

impl RequestLine {
    fn clear(&mut self) {
        self.bytes.clear();
        self.too_long = false;
    }

    fn is_blank(&self) -> bool {
        !self.too_long && self.bytes.trim_ascii().is_empty()
    }

    /// Reads on to the end of the line, appending to what an earlier,
    /// interrupted call kept. Returns `Ok(true)` at the newline and
    /// `Ok(false)` at end of stream. An error — a read timeout included —
    /// leaves the bytes read so far in place, so the caller can resume.
    fn read_from(&mut self, reader: &mut impl BufRead) -> std::io::Result<bool> {
        loop {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(false);
            }
            let newline = buf.iter().position(|&b| b == b'\n');
            let chunk = &buf[..newline.unwrap_or(buf.len())];
            let room = MAX_REQUEST_LINE_BYTES - self.bytes.len();
            self.too_long |= chunk.len() > room;
            self.bytes
                .extend_from_slice(&chunk[..chunk.len().min(room)]);
            let used = newline.map_or(buf.len(), |i| i + 1);
            reader.consume(used);
            if newline.is_some() {
                return Ok(true);
            }
        }
    }
}

/// Serves line-delimited requests from `reader`, writing one reply per
/// line to `writer`, until the reader reaches end of stream. Malformed
/// lines are answered (never dropped, never fatal); requests are
/// submitted to `runtime` in arrival order.
///
/// # Errors
///
/// Only transport I/O errors; protocol problems are replies.
pub fn serve_lines<R: BufRead, W: Write>(
    runtime: &ServiceRuntime,
    reader: R,
    writer: W,
) -> std::io::Result<WireServeReport> {
    serve_session(runtime, reader, writer, None)
}

/// How often an idle TCP session wakes from its blocking read to check
/// the server's stop flag.
const SESSION_READ_TICK: Duration = Duration::from_millis(25);
/// Timed reads a stopping session grants a half-received request line
/// before dropping the connection.
const STOP_GRACE_READS: u32 = 40;

/// The one session loop behind [`serve_lines`] and the TCP sessions of
/// [`WireTcpServer`]. `stop` is the TCP server's stop flag: a TCP session
/// reads with a timeout and wakes between requests to honor it — an
/// idle client holding its connection open must not be able to hold
/// [`WireTcpServer::stop`] hostage. The in-flight request (if any)
/// always completes and its reply is written before the session exits;
/// only *waiting for the next request* is interruptible. TCP sessions
/// alone also honor the runtime's `drop_conn` fault.
fn serve_session<R: BufRead, W: Write>(
    runtime: &ServiceRuntime,
    mut reader: R,
    mut writer: W,
    stop: Option<&AtomicBool>,
) -> std::io::Result<WireServeReport> {
    let mut report = WireServeReport::default();
    // One request-line and one reply buffer per session, reused across
    // every request: in the steady state both have ratcheted up to the
    // largest message seen and the codec stops touching the allocator.
    let mut line = RequestLine::default();
    let mut reply = String::new();
    let mut stop_grace = 0u32;
    loop {
        line.clear();
        // Accumulate one line across read timeouts: each read appends
        // whatever arrived before the timeout, so a request split across
        // TCP segments survives any number of stop-flag checks.
        let complete = loop {
            match (line.read_from(&mut reader), stop) {
                (Ok(complete), _) => break complete,
                (Err(e), Some(stop))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) {
                        // Idle: leave at once. Mid-request: a bounded
                        // grace for the rest of the line, then give up —
                        // a half-sent request must not stall shutdown
                        // indefinitely either.
                        if line.is_blank() || stop_grace >= STOP_GRACE_READS {
                            return Ok(report);
                        }
                        stop_grace += 1;
                    }
                }
                (Err(e), _) => return Err(e),
            }
        };
        if !line.is_blank() {
            let decoded = if line.too_long {
                Err(malformed(format!(
                    "request line exceeds the {MAX_REQUEST_LINE_BYTES}-byte limit"
                )))
            } else {
                std::str::from_utf8(&line.bytes)
                    .map_err(|e| malformed(format!("request line is not UTF-8: {e}")))
                    .and_then(|text| decode_request_line(text.trim_end_matches('\r')))
            };
            match decoded {
                Ok((id, WireRequest::Ping)) => {
                    report.pings += 1;
                    encode_pong_into(id, &runtime.stats(), &mut reply);
                }
                Ok((id, WireRequest::Work { work, warm })) => {
                    // The `drop_conn` fault severs the session *here* —
                    // after the work decoded, before anything reaches the
                    // runtime — so the client sees EOF on an in-flight
                    // request and must reconnect + resend; nothing enters
                    // the ledger. Pings are exempt: a probe must stay
                    // answerable under the same fault plan the failover
                    // paths are being exercised with.
                    if stop.is_some() && runtime.fire_conn_drop() {
                        return Ok(report);
                    }
                    report.served += 1;
                    let outcome = if warm {
                        runtime.submit_warm(work)
                    } else {
                        runtime.submit(work)
                    };
                    encode_reply_into(Some(id), &outcome, &mut reply);
                }
                Err(e) => {
                    report.protocol_errors += 1;
                    encode_malformed_reply_into(&e, &mut reply);
                }
            }
            // One write per reply — a separate tiny "\n" write would
            // incur the Nagle/delayed-ACK stall `set_nodelay` exists to
            // avoid.
            reply.push('\n');
            writer.write_all(reply.as_bytes())?;
            writer.flush()?;
        }
        if !complete {
            return Ok(report);
        }
    }
}

/// A TCP front door: an accept loop on its own thread, one serving
/// thread per connection, all funnelling into one shared
/// [`ServiceRuntime`] (whose mailbox and admission control provide the
/// backpressure).
#[derive(Debug)]
pub struct WireTcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireTcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    ///
    /// # Errors
    ///
    /// Bind/listen failures.
    pub fn spawn(runtime: Arc<ServiceRuntime>, addr: &str) -> std::io::Result<WireTcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("tailors-wire-accept".into())
            .spawn(move || {
                let mut sessions = Vec::new();
                for stream in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The timed read is what lets sessions notice the
                    // stop flag between requests; a socket we cannot
                    // configure or clone is dropped (the client sees
                    // EOF) — it must not take the server down.
                    if stream.set_read_timeout(Some(SESSION_READ_TICK)).is_err()
                        || stream.set_nodelay(true).is_err()
                    {
                        continue;
                    }
                    let runtime = Arc::clone(&runtime);
                    let stop3 = Arc::clone(&stop2);
                    let session = std::thread::Builder::new()
                        .name("tailors-wire-conn".into())
                        .spawn(move || {
                            if let Ok(read_half) = stream.try_clone() {
                                let _ = serve_session(
                                    &runtime,
                                    BufReader::new(read_half),
                                    stream,
                                    Some(&stop3),
                                );
                            }
                        });
                    if let Ok(handle) = session {
                        sessions.push(handle);
                    }
                }
                for s in sessions {
                    let _ = s.join();
                }
            })?;
        Ok(WireTcpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight *requests* to finish, and
    /// joins the accept loop. Idempotent. Sessions notice the stop
    /// between requests (their socket reads are timed), so an idle
    /// client holding its connection open cannot stall this — it simply
    /// observes EOF on its next call.
    ///
    /// The accept loop blocks in `incoming()`, so stopping pokes it awake
    /// with a throwaway connection — to the **loopback** interface at the
    /// bound port: a server bound to a wildcard address (`0.0.0.0` /
    /// `[::]`) is not connectable *at* that address, and dialing it would
    /// leave the accept loop asleep until the next real client arrived.
    /// A failed wake is reported (and logged) instead of hanging: the
    /// accept thread is left to notice the flag on its next connection
    /// rather than joined.
    pub fn stop(&mut self) -> WireStopReport {
        if self.stop.swap(true, Ordering::SeqCst) {
            return WireStopReport {
                woke: self.accept_thread.is_none(),
            };
        }
        let woke = TcpStream::connect_timeout(&self.wake_addr(), STOP_WAKE_TIMEOUT).is_ok();
        if woke {
            if let Some(h) = self.accept_thread.take() {
                let _ = h.join();
            }
        } else {
            // Surface the failure instead of blocking in `join` until the
            // next client happens to connect; the detached accept thread
            // exits on the stop flag the moment one does.
            eprintln!(
                "wire: stop() could not wake the accept loop at {} — \
                 it will exit on the next incoming connection",
                self.wake_addr()
            );
        }
        WireStopReport { woke }
    }

    /// The address the stop wake dials: the bound port on the concrete
    /// bound interface, or the same-family loopback when the server is
    /// bound to a wildcard address.
    fn wake_addr(&self) -> SocketAddr {
        use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
        let ip = match self.addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            concrete => concrete,
        };
        SocketAddr::new(ip, self.addr.port())
    }
}

/// How long [`WireTcpServer::stop`] gives its wake connection before
/// reporting the accept loop unwakeable.
const STOP_WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What [`WireTcpServer::stop`] observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStopReport {
    /// Whether the accept loop was woken (and joined). `false` means the
    /// wake connection failed; the accept thread was left running and
    /// exits on the next incoming connection.
    pub woke: bool,
}

impl Drop for WireTcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A blocking wire client: sends one request per line and reads the
/// matching reply. The double-layered result separates transport
/// problems ([`WireError`]) from the server's typed request outcomes
/// ([`ServeError`]).
///
/// The client remembers the address it connected to, so a broken
/// transport is recoverable: [`WireClient::reconnect`] re-establishes the
/// stream in place, and [`WireClient::call_with_retry`] does so
/// automatically before retrying after an I/O failure (a server restart
/// between calls is survivable without rebuilding the client).
#[derive(Debug)]
pub struct WireClient {
    /// The peer address the stream was established to — the reconnect
    /// target after a transport failure.
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    reconnects: u64,
    // Per-session codec buffers, reused across calls so steady-state
    // requests and replies run on retained capacity.
    line: String,
    reply_line: String,
}

impl WireClient {
    /// Connects to a [`WireTcpServer`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let (writer, addr) = Self::open(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(WireClient {
            addr,
            reader,
            writer,
            next_id: 1,
            reconnects: 0,
            line: String::new(),
            reply_line: String::new(),
        })
    }

    fn open<A: ToSocketAddrs>(addr: A) -> std::io::Result<(TcpStream, SocketAddr)> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply over one socket is the worst case for Nagle +
        // delayed-ACK (~40 ms stalls per exchange); every message is a
        // complete line, so there is nothing to coalesce anyway.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok((stream, peer))
    }

    /// The peer address this client talks (and reconnects) to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reconnections performed so far (manual or via
    /// [`WireClient::call_with_retry`]).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drops the current stream and establishes a fresh one to the same
    /// address. Any half-exchanged request on the old stream is abandoned
    /// — the protocol is strictly one reply per request, so a fresh
    /// stream starts from a clean slate (ids need not restart; the server
    /// echoes whatever id it reads).
    ///
    /// # Errors
    ///
    /// Connection failures; the client keeps the (broken) old stream in
    /// that case so a later attempt can try again.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let (writer, addr) = Self::open(self.addr)?;
        self.reader = BufReader::new(writer.try_clone()?);
        self.writer = writer;
        self.addr = addr;
        self.reconnects += 1;
        Ok(())
    }

    /// Sends `work` and blocks for its outcome.
    ///
    /// # Errors
    ///
    /// Outer: transport/protocol failure. Inner: the server's typed
    /// [`ServeError`] for this request.
    pub fn call(&mut self, work: &Work) -> Result<Result<Reply, ServeError>, WireError> {
        self.call_flagged(work, false)
    }

    /// [`WireClient::call`] on the warm-up lane: the request carries
    /// `"warm":true`, so the server queues it at low priority. Used by
    /// the router's warm-up replay after a shard joins or recovers.
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`].
    pub fn call_warm(&mut self, work: &Work) -> Result<Result<Reply, ServeError>, WireError> {
        self.call_flagged(work, true)
    }

    /// Sends a ping and blocks for the pong, returning the shard
    /// runtime's stats snapshot. Answered in the server's session loop
    /// (never queued), so a pong proves the session is alive even when
    /// the worker pool is saturated.
    ///
    /// # Errors
    ///
    /// Transport failure, or a malformed/mismatched pong.
    pub fn ping(&mut self) -> Result<RuntimeStats, WireError> {
        let id = self.next_id;
        encode_ping_into(id, &mut self.line);
        let (rid, stats) = decode_pong(self.exchange()?)?;
        if rid != id {
            return Err(malformed(format!(
                "pong id {rid} does not match ping id {id}"
            )));
        }
        Ok(stats)
    }

    fn call_flagged(
        &mut self,
        work: &Work,
        warm: bool,
    ) -> Result<Result<Reply, ServeError>, WireError> {
        let id = self.next_id;
        encode_request_flagged_into(id, work, warm, &mut self.line);
        let (reply_id, outcome) = decode_reply(self.exchange()?)?;
        match reply_id {
            // A protocol-level (id-less) error reply still answers *this*
            // request: the protocol is strictly one reply per line, in
            // order.
            None => Ok(outcome),
            Some(rid) if rid == id => Ok(outcome),
            Some(rid) => Err(malformed(format!(
                "reply id {rid} does not match request id {id}"
            ))),
        }
    }

    /// Sends the encoded `self.line` under the next id and returns the
    /// reply line (newline trimmed).
    fn exchange(&mut self) -> Result<&str, WireError> {
        self.next_id += 1;
        // One syscall per message: a trailing small write of just "\n"
        // would re-trigger the Nagle stall `set_nodelay` avoids.
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| WireError::Io(e.to_string()))?;
        self.reply_line.clear();
        let n = self
            .reader
            .read_line(&mut self.reply_line)
            .map_err(|e| WireError::Io(e.to_string()))?;
        if n == 0 {
            return Err(WireError::Io("server closed the connection".into()));
        }
        Ok(self.reply_line.trim_end())
    }

    /// [`WireClient::call`] with client-side capped-exponential-backoff
    /// retries on transient ([`ServeError::retryable`]) rejections — the
    /// wire mirror of
    /// [`ServiceRuntime::submit_with_retry`](crate::runtime::ServiceRuntime::submit_with_retry)
    /// — and on transport I/O failures, which **reconnect first**: a
    /// retry on the same dead `TcpStream` can only fail again, so each
    /// I/O failure tears the stream down and dials `self.addr` afresh
    /// before the next attempt (a server restart between calls is
    /// absorbed here). Requests are pure and idempotent, so resending
    /// after an ambiguous failure (request written, connection lost
    /// before the reply) is safe. Protocol-level `Malformed` replies are
    /// never retried — a deterministic codec disagreement would just
    /// repeat.
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; the outer/inner error is the final
    /// attempt's.
    pub fn call_with_retry(
        &mut self,
        work: &Work,
        policy: &RetryPolicy,
    ) -> Result<Result<Reply, ServeError>, WireError> {
        let mut retry = 0u32;
        // Jitter seed: the request id this exchange will use. Distinct
        // clients (and successive requests of one client) back off on
        // de-synchronized schedules, so N callers retrying a recovering
        // shard don't stampede it in lockstep — while any given request
        // id always sleeps the same amounts, keeping tests reproducible.
        let seed = self.next_id;
        loop {
            let attempts_left = retry + 1 < policy.max_attempts.max(1);
            match self.call(work) {
                Err(WireError::Io(e)) if attempts_left => {
                    std::thread::sleep(policy.backoff_jittered(retry, seed));
                    retry += 1;
                    // Reconnect failure is not final either — the server
                    // may still be coming back up; later attempts redial.
                    if let Err(re) = self.reconnect() {
                        if retry + 1 >= policy.max_attempts.max(1) {
                            return Err(WireError::Io(format!("{e}; reconnect failed: {re}")));
                        }
                    }
                }
                Err(e) => return Err(e),
                Ok(outcome) => match &outcome {
                    Err(e) if e.retryable() && attempts_left => {
                        std::thread::sleep(policy.backoff_jittered(retry, seed));
                        retry += 1;
                    }
                    _ => return Ok(outcome),
                },
            }
        }
    }

    /// Typed convenience for [`Work::Sim`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; a functional reply to a sim request is a
    /// protocol error.
    pub fn sim(&mut self, req: &SimRequest) -> Result<Result<SimResponse, ServeError>, WireError> {
        match self.call(&Work::Sim(req.clone()))? {
            Ok(Reply::Sim(r)) => Ok(Ok(r)),
            Ok(Reply::Functional(_)) => Err(malformed("functional reply to a sim request")),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Typed convenience for [`Work::Functional`].
    ///
    /// # Errors
    ///
    /// As [`WireClient::call`]; a sim reply to a functional request is a
    /// protocol error.
    pub fn functional(
        &mut self,
        req: &FunctionalRequest,
    ) -> Result<Result<FunctionalResponse, ServeError>, WireError> {
        match self.call(&Work::Functional(Box::new(req.clone())))? {
            Ok(Reply::Functional(r)) => Ok(Ok(*r)),
            Ok(Reply::Sim(_)) => Err(malformed("sim reply to a functional request")),
            Err(e) => Ok(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `line` as one value of any shape, the way unknown fields
    /// are skipped.
    fn skim(line: &str) -> Result<(), WireError> {
        decode_line(line, Cursor::skip)
    }

    #[test]
    fn json_round_trips_strings_and_structure() {
        let text = "x\"\\\n\r\t\u{1}/é✓𝄞";
        let mut line = String::new();
        write_escaped(text, &mut line);
        assert!(!line.contains('\n'), "framing requires single-line output");
        assert_eq!(decode_line(&line, Cursor::string).unwrap(), text);
        // Escape-free strings are borrowed from the line, not copied.
        let plain = decode_line("\"plain\"", Cursor::string).unwrap();
        assert!(matches!(plain, Cow::Borrowed("plain")));
        // Surrogate pairs and every short escape decode.
        let escaped = decode_line(r#""\ud834\udd1e\b\f\/""#, Cursor::string).unwrap();
        assert_eq!(escaped, "𝄞\u{8}\u{c}/");
    }

    #[test]
    fn parser_rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "nul",
            "01x",
            "{\"a\":1}trailing",
            "\"\\u12\"",
            "\"\\ud800\"",
            "--3",
            "{\"a\" 1}",
            "[,]",
            "\u{0}",
        ] {
            assert!(skim(bad).is_err(), "accepted {bad:?}");
        }
        // Deep nesting is refused, not recursed into.
        let deep = "[".repeat(100_000);
        assert!(skim(&deep).is_err());
        // Typed fields take unsigned integers only, range-checked.
        for bad in ["-1", "1.5", "2e3", "18446744073709551616", "\"7\"", "true"] {
            assert!(
                decode_line(bad, Cursor::uint::<u64>).is_err(),
                "accepted {bad:?}"
            );
        }
        assert_eq!(
            decode_line(" 18446744073709551615 ", Cursor::uint),
            Ok(u64::MAX)
        );
    }

    #[test]
    fn request_lines_round_trip_bitwise() {
        let req = SimRequest::suite("email-Enron", 1.0 / 256.0, Variant::default_ob()).unwrap();
        let mut line = String::new();
        encode_request_into(42, &Work::Sim(req.clone()), &mut line);
        let (id, parsed) = decode_request_line(&line).unwrap();
        assert_eq!(id, 42);
        let WireRequest::Work {
            work: Work::Sim(decoded),
            warm: false,
        } = parsed
        else {
            panic!("wrong kind")
        };
        assert_eq!(decoded.workload, req.workload);
        assert_eq!(decoded.arch, req.arch);
        assert_eq!(decoded.budget, req.budget);
        assert_eq!(decoded.grid, req.grid);
        assert_eq!(decoded.variant.cache_key(), req.variant.cache_key());
        // Interning preserved pointer-stable suite names.
        assert_eq!(decoded.workload.name, "email-Enron");
    }

    #[test]
    fn error_replies_round_trip() {
        for err in [
            ServeError::Overloaded(OverloadReason::MailboxFull { capacity: 64 }),
            ServeError::Overloaded(OverloadReason::TensorBytes {
                estimated: 10,
                limit: 5,
            }),
            ServeError::Timeout {
                deadline: Duration::from_millis(1500),
            },
            ServeError::Faulted {
                panic: true,
                message: "injected fault: worker panic".into(),
            },
            ServeError::BadRequest("no".into()),
            ServeError::Shutdown,
        ] {
            let mut line = String::new();
            encode_reply_into(Some(7), &Err(err.clone()), &mut line);
            let (id, outcome) = decode_reply(&line).unwrap();
            assert_eq!(id, Some(7));
            assert_eq!(outcome.unwrap_err(), err);
        }
    }

    #[test]
    fn ping_and_warm_envelopes_round_trip() {
        // Warm flag survives the codec; its absence decodes as false.
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let mut line = String::new();
        encode_request_flagged_into(9, &Work::Sim(req.clone()), true, &mut line);
        let (id, parsed) = decode_request_line(&line).unwrap();
        assert_eq!(id, 9);
        assert!(matches!(parsed, WireRequest::Work { warm: true, .. }));
        let mut plain = String::new();
        encode_request_into(10, &Work::Sim(req), &mut plain);
        assert!(matches!(
            decode_request_line(&plain).unwrap().1,
            WireRequest::Work { warm: false, .. }
        ));
        // Ping decodes as Ping.
        encode_ping_into(11, &mut line);
        assert!(matches!(
            decode_request_line(&line).unwrap(),
            (11, WireRequest::Ping)
        ));
        // Pong carries the stats snapshot losslessly.
        let stats = RuntimeStats {
            submitted: 7,
            completed: 5,
            rejected: 1,
            timed_out: 1,
            faulted: 0,
            panics_isolated: 0,
            retries: 3,
            injected_panics: 0,
            injected_latency: 2,
            injected_rejects: 0,
            injected_drops: 4,
        };
        line.clear();
        encode_pong_into(11, &stats, &mut line);
        assert_eq!(decode_pong(&line).unwrap(), (11, stats));
        // Any other reply is not a pong.
        encode_reply_into(Some(11), &Err(ServeError::Shutdown), &mut line);
        assert!(decode_pong(&line).is_err());
    }

    #[test]
    fn serve_lines_answers_pings_outside_the_ledger() {
        let runtime = ServiceRuntime::new(crate::runtime::RuntimeConfig::default());
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let mut ping = String::new();
        encode_ping_into(1, &mut ping);
        let mut warm = String::new();
        encode_request_flagged_into(2, &Work::Sim(req), true, &mut warm);
        let input = format!("{ping}\n{warm}\n");
        let mut out = Vec::new();
        let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
        assert_eq!(report.pings, 1);
        assert_eq!(report.served, 1);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        // The pong's stats snapshot predates the warm request.
        let (_, pong_stats) = decode_pong(lines[0]).unwrap();
        assert_eq!(pong_stats.submitted, 0);
        // The warm request completed and is in the shard-local ledger.
        let (id, outcome) = decode_reply(lines[1]).unwrap();
        assert_eq!(id, Some(2));
        assert!(outcome.is_ok());
        let stats = runtime.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn malformed_lines_get_protocol_replies_and_the_session_survives() {
        let runtime = ServiceRuntime::new(crate::runtime::RuntimeConfig::default());
        let req = SimRequest::suite("email-Enron", 1.0 / 512.0, Variant::ExTensorP).unwrap();
        let mut good = String::new();
        encode_request_into(1, &Work::Sim(req), &mut good);
        let input = format!("not json\n\n{good}\n{{\"id\":2,\"kind\":\"nope\",\"req\":{{}}}}\n");
        let mut out = Vec::new();
        let report = serve_lines(&runtime, input.as_bytes(), &mut out).unwrap();
        assert_eq!(report.served, 1);
        assert_eq!(report.protocol_errors, 2);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        let (id0, out0) = decode_reply(lines[0]).unwrap();
        assert_eq!(id0, None);
        assert!(matches!(out0, Err(ServeError::BadRequest(_))));
        let (id1, out1) = decode_reply(lines[1]).unwrap();
        assert_eq!(id1, Some(1));
        assert!(out1.is_ok());
        let (id2, _) = decode_reply(lines[2]).unwrap();
        assert_eq!(id2, None);
    }
}
