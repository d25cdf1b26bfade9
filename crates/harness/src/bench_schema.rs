//! The versioned `BENCH_<rev>.json` perf-trajectory schema.
//!
//! The harness's bench emitter (E16's YCSB grid, which also carries the
//! server and mesh sweeps) serializes through [`BenchFile`], so any two
//! runs can be compared cell-by-cell by `bench-diff`
//! ([`crate::bench_diff`]). Design rules:
//!
//! - **versioned** — `schema_version` is checked before any comparison;
//! - **deterministic** — emission is a pure function of the data: fixed
//!   field order, cells sorted by id, counters sorted by name, no
//!   timestamps, floats quantized at construction so that
//!   parse ∘ emit is the identity on emitted files;
//! - **self-describing** — the host fingerprint (os/arch/cores and
//!   debug-vs-release) travels with the numbers, so a diff across
//!   different machines can widen its noise threshold instead of
//!   treating cross-host drift as a regression;
//! - **std-only** — the parser below is a minimal recursive-descent
//!   JSON reader (the workspace builds offline without serde, the same
//!   reason the proptest shim exists).
//!
//! Files from before this schema were migrated onto it once; the
//! pre-schema originals are kept under `bench/archive/`.

use std::collections::BTreeMap;
use std::fmt;

/// Current schema version; bump on any incompatible shape change.
pub const SCHEMA_VERSION: u64 = 1;

/// Host fingerprint recorded with every bench file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// `std::env::consts::OS` at emission time.
    pub os: String,
    /// `std::env::consts::ARCH` at emission time.
    pub arch: String,
    /// Logical cores visible to the process.
    pub cores: u64,
    /// `"debug"` or `"release"`.
    pub mode: String,
}

impl Host {
    /// The fingerprint of the machine this process runs on.
    #[must_use]
    pub fn current() -> Self {
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            mode: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        }
    }

    /// Whether two fingerprints are close enough for tight noise
    /// thresholds: same arch, same build mode, same core count.
    #[must_use]
    pub fn comparable(&self, other: &Host) -> bool {
        self.arch == other.arch && self.mode == other.mode && self.cores == other.cores
    }
}

/// One grid cell: a unique id plus its measured numbers.
///
/// `rps` is the throughput the regression gate compares (best of the
/// run's repeats — the min-of-k time estimator); `p50_ns`/`p99_ns` are
/// per-operation latency percentiles from the same best repeat (absent
/// for emitters that never measured them); `ok` records the cell's
/// exactness gate so a bench file is also a correctness artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Unique id, e.g. `"e16/store/paper/A/zipf"`. The experiment
    /// prefix keeps ids from different emitters disjoint.
    pub id: String,
    /// Whether the cell's exactness gate passed.
    pub ok: bool,
    /// Requests (operations) per second, best-of-repeats.
    pub rps: f64,
    /// Per-op p50 latency in nanoseconds, if measured.
    pub p50_ns: Option<f64>,
    /// Per-op p99 latency in nanoseconds, if measured.
    pub p99_ns: Option<f64>,
    /// Named auxiliary counters (waves, batch sizes, ...), sorted on emit.
    pub counters: BTreeMap<String, f64>,
    /// Optional histogram buckets (semantics described in the file's
    /// `notes`).
    pub hist: Vec<u64>,
}

impl Cell {
    /// A cell with quantized measurements and no counters yet.
    #[must_use]
    pub fn new(id: impl Into<String>, ok: bool, rps: f64) -> Self {
        Self {
            id: id.into(),
            ok,
            rps: q1(rps),
            p50_ns: None,
            p99_ns: None,
            counters: BTreeMap::new(),
            hist: Vec::new(),
        }
    }

    /// Sets the latency percentiles (quantized to 0.1 ns).
    #[must_use]
    pub fn latency(mut self, p50_ns: f64, p99_ns: f64) -> Self {
        self.p50_ns = Some(q1(p50_ns));
        self.p99_ns = Some(q1(p99_ns));
        self
    }

    /// Adds one named counter (quantized to 0.01).
    #[must_use]
    pub fn counter(mut self, name: &str, value: f64) -> Self {
        self.counters.insert(name.to_string(), q2(value));
        self
    }

    /// Attaches histogram buckets.
    #[must_use]
    pub fn with_hist(mut self, hist: Vec<u64>) -> Self {
        self.hist = hist;
        self
    }
}

/// A full perf-trajectory point: one run of one bench emitter.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchFile {
    /// Always [`SCHEMA_VERSION`] for files this code writes.
    pub schema_version: u64,
    /// The emitting experiment (`"e16-ycsb"`).
    pub experiment: String,
    /// Revision label (env `MWLLSC_BENCH_REV`, else short git hash).
    pub rev: String,
    /// Whether the run used the shrunk `--quick` grid.
    pub quick: bool,
    /// Repeats per cell feeding the min-of-k estimator.
    pub repeats: u64,
    /// Host fingerprint.
    pub host: Host,
    /// Free-text semantics notes (histogram bucket meaning etc.).
    pub notes: String,
    /// The cells; sorted by id on emission.
    pub cells: Vec<Cell>,
}

impl BenchFile {
    /// An empty file for the current host and schema version.
    #[must_use]
    pub fn new(experiment: &str, rev: &str, quick: bool, repeats: u64, notes: &str) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            experiment: experiment.to_string(),
            rev: rev.to_string(),
            quick,
            repeats,
            host: Host::current(),
            notes: notes.to_string(),
            cells: Vec::new(),
        }
    }

    /// Appends one cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Looks a cell up by id.
    #[must_use]
    pub fn cell(&self, id: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.id == id)
    }

    /// Serializes to the canonical JSON form: deterministic, sorted,
    /// timestamp-free — byte-identical for equal data across runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut cells: Vec<&Cell> = self.cells.iter().collect();
        cells.sort_by(|a, b| a.id.cmp(&b.id));
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        s.push_str(&format!("  \"experiment\": {},\n", json_str(&self.experiment)));
        s.push_str(&format!("  \"rev\": {},\n", json_str(&self.rev)));
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!(
            "  \"host\": {{\"os\": {}, \"arch\": {}, \"cores\": {}, \"mode\": {}}},\n",
            json_str(&self.host.os),
            json_str(&self.host.arch),
            self.host.cores,
            json_str(&self.host.mode)
        ));
        s.push_str(&format!("  \"notes\": {},\n", json_str(&self.notes)));
        s.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"id\": {}, ", json_str(&c.id)));
            s.push_str(&format!("\"ok\": {}, ", c.ok));
            s.push_str(&format!("\"rps\": {}, ", json_num(c.rps)));
            s.push_str(&format!("\"p50_ns\": {}, ", json_opt(c.p50_ns)));
            s.push_str(&format!("\"p99_ns\": {}, ", json_opt(c.p99_ns)));
            s.push_str("\"counters\": {");
            let mut first = true;
            for (k, v) in &c.counters {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                s.push_str(&format!("{}: {}", json_str(k), json_num(*v)));
            }
            s.push_str("}, \"hist\": [");
            for (j, h) in c.hist.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&h.to_string());
            }
            s.push_str("]}");
            if i + 1 < cells.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a file emitted by [`Self::to_json`].
    pub fn from_json(src: &str) -> Result<Self, SchemaError> {
        let v = parse_json(src)?;
        let obj = v.as_obj("top level")?;
        let version = obj.field("schema_version")?.as_u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(SchemaError::Version { found: version });
        }
        let host_obj = obj.field("host")?.as_obj("host")?;
        let host = Host {
            os: host_obj.field("os")?.as_str("host.os")?,
            arch: host_obj.field("arch")?.as_str("host.arch")?,
            cores: host_obj.field("cores")?.as_u64("host.cores")?,
            mode: host_obj.field("mode")?.as_str("host.mode")?,
        };
        let mut cells = Vec::new();
        for (i, cv) in obj.field("cells")?.as_arr("cells")?.iter().enumerate() {
            let c = cv.as_obj("cell")?;
            let ctx = format!("cells[{i}]");
            let mut counters = BTreeMap::new();
            for (k, v) in &c.field("counters")?.as_obj(&ctx)?.0 {
                counters.insert(k.clone(), v.as_f64(&ctx)?);
            }
            let mut hist = Vec::new();
            for h in c.field("hist")?.as_arr(&ctx)? {
                hist.push(h.as_u64(&ctx)?);
            }
            cells.push(Cell {
                id: c.field("id")?.as_str(&ctx)?,
                ok: c.field("ok")?.as_bool(&ctx)?,
                rps: c.field("rps")?.as_f64(&ctx)?,
                p50_ns: c.field("p50_ns")?.as_opt_f64(&ctx)?,
                p99_ns: c.field("p99_ns")?.as_opt_f64(&ctx)?,
                counters,
                hist,
            });
        }
        Ok(Self {
            schema_version: version,
            experiment: obj.field("experiment")?.as_str("experiment")?,
            rev: obj.field("rev")?.as_str("rev")?,
            quick: obj.field("quick")?.as_bool("quick")?,
            repeats: obj.field("repeats")?.as_u64("repeats")?,
            host,
            notes: obj.field("notes")?.as_str("notes")?,
            cells,
        })
    }
}

/// Quantize to 0.1 via the decimal string, so stored value == parsed
/// emitted value exactly (parse ∘ emit is then the identity).
fn q1(x: f64) -> f64 {
    format!("{x:.1}").parse().unwrap_or(0.0)
}

/// Quantize to 0.01 (counters).
fn q2(x: f64) -> f64 {
    format!("{x:.2}").parse().unwrap_or(0.0)
}

/// Canonical number form: integral values without a decimal point,
/// everything else trimmed of trailing zeros (q1/q2 quantization keeps
/// this stable under reparsing).
fn json_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        let s = format!("{x:.2}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), json_num)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Errors from parsing or validating a bench file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// The text is not well-formed JSON.
    Json {
        /// Byte offset of the failure.
        at: usize,
        /// What the parser expected.
        what: String,
    },
    /// A required field is missing.
    Missing(String),
    /// A field has the wrong type.
    BadType(String),
    /// The file's `schema_version` is not the one this code speaks.
    Version {
        /// The version found in the file.
        found: u64,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Json { at, what } => write!(f, "invalid JSON at byte {at}: {what}"),
            SchemaError::Missing(what) => write!(f, "missing field `{what}`"),
            SchemaError::BadType(what) => write!(f, "wrong type for `{what}`"),
            SchemaError::Version { found } => {
                write!(f, "schema_version {found} is not the supported version {SCHEMA_VERSION}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

// ------------------------------------------------------------------
// Minimal JSON reader (std-only; the schema needs objects, arrays,
// strings, numbers, bools and null — nothing more).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 carries every value this schema emits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(JsonObj),
}

/// Object fields in source order (order never matters for lookups).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsonObj(pub Vec<(String, Json)>);

impl JsonObj {
    /// Looks up a required field.
    pub fn field(&self, name: &str) -> Result<&Json, SchemaError> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| SchemaError::Missing(name.to_string()))
    }

    /// Looks up an optional field.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Json {
    fn as_obj(&self, ctx: &str) -> Result<&JsonObj, SchemaError> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_arr(&self, ctx: &str) -> Result<&[Json], SchemaError> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_str(&self, ctx: &str) -> Result<String, SchemaError> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_bool(&self, ctx: &str) -> Result<bool, SchemaError> {
        match self {
            Json::Bool(b) => Ok(*b),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_f64(&self, ctx: &str) -> Result<f64, SchemaError> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_u64(&self, ctx: &str) -> Result<u64, SchemaError> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
    fn as_opt_f64(&self, ctx: &str) -> Result<Option<f64>, SchemaError> {
        match self {
            Json::Null => Ok(None),
            Json::Num(n) => Ok(Some(*n)),
            _ => Err(SchemaError::BadType(ctx.to_string())),
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(src: &str) -> Result<Json, SchemaError> {
    let mut p = Parser { s: src.as_bytes(), i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> SchemaError {
        SchemaError::Json { at: self.i, what: what.to_string() }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("`{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, SchemaError> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(word))
        }
    }

    fn value(&mut self) -> Result<Json, SchemaError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, SchemaError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(JsonObj(fields)));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(JsonObj(fields)));
                }
                _ => return Err(self.err("`,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, SchemaError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("`,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing `\"`")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            if self.i + 5 > self.s.len() {
                                return Err(self.err("4 hex digits"));
                            }
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5])
                                .map_err(|_| self.err("4 hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("4 hex digits"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = std::str::from_utf8(&self.s[self.i..])
                        .map_err(|_| self.err("valid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("a character"))?;
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SchemaError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| {
            c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
        }) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("a number"))
    }
}

// ------------------------------------------------------------------
// Environment plumbing shared by every bench emitter.

/// The revision label stamped into bench files and filenames:
/// `MWLLSC_BENCH_REV` if set and nonempty, else the short git hash,
/// else `"local"`.
#[must_use]
pub fn bench_rev() -> String {
    std::env::var("MWLLSC_BENCH_REV")
        .ok()
        .or_else(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string())
}

/// Per-cell repeat count for the min-of-k estimator:
/// `MWLLSC_BENCH_REPEATS` if set to a positive integer (the CI
/// `workflow_dispatch` dial), else `default`.
#[must_use]
pub fn bench_repeats(default: u64) -> u64 {
    std::env::var("MWLLSC_BENCH_REPEATS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchFile {
        let mut f = BenchFile::new("e16-ycsb", "test", true, 2, "unit sample");
        f.push(
            Cell::new("e16/store/paper/A/zipf", true, 123456.78)
                .latency(310.25, 1002.0)
                .counter("waves", 42.0)
                .with_hist(vec![1, 2, 3]),
        );
        f.push(Cell::new("e16/store/lock/C/zipf", true, 999.9));
        f
    }

    #[test]
    fn roundtrip_is_identity_on_canonical_form() {
        let f = sample();
        let json = f.to_json();
        let parsed = BenchFile::from_json(&json).expect("parse own output");
        // Canonical-form identity: re-emitting the parsed file is
        // byte-identical (cells come back in sorted order, so struct
        // equality is checked cell-by-cell via lookup instead).
        assert_eq!(parsed.to_json(), json);
        assert_eq!(parsed.cells.len(), f.cells.len());
        for c in &f.cells {
            assert_eq!(parsed.cell(&c.id).expect("cell survives roundtrip"), c);
        }
        assert_eq!((parsed.rev, parsed.quick, parsed.repeats), (f.rev, f.quick, f.repeats));
    }

    #[test]
    fn emission_is_deterministic_and_sorted() {
        let f = sample();
        assert_eq!(f.to_json(), f.to_json());
        // Cells appear sorted by id regardless of push order.
        let json = f.to_json();
        let lock = json.find("e16/store/lock").expect("lock cell present");
        let paper = json.find("e16/store/paper").expect("paper cell present");
        assert!(lock < paper, "cells must be emitted in id order");
    }

    #[test]
    fn version_gate_rejects_future_files() {
        let mut f = sample();
        f.schema_version = SCHEMA_VERSION + 1;
        // Emit manually (to_json writes our version field verbatim).
        let json = f.to_json();
        match BenchFile::from_json(&json) {
            Err(SchemaError::Version { found }) => assert_eq!(found, SCHEMA_VERSION + 1),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage_and_truncation() {
        assert!(BenchFile::from_json("").is_err());
        assert!(BenchFile::from_json("{").is_err());
        assert!(BenchFile::from_json("not json").is_err());
        let json = sample().to_json();
        assert!(BenchFile::from_json(&json[..json.len() / 2]).is_err());
        // Trailing garbage is rejected too.
        assert!(BenchFile::from_json(&format!("{json}x")).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut f = sample();
        f.notes = "line\none \"quoted\" \\ tab\there".to_string();
        let parsed = BenchFile::from_json(&f.to_json()).expect("parse");
        assert_eq!(parsed.notes, f.notes);
    }

    #[test]
    fn env_repeats_dial() {
        // Only the default path is testable without mutating the global
        // environment (tests run concurrently).
        assert_eq!(bench_repeats(5), 5);
    }
}
