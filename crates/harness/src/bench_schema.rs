//! The versioned `BENCH_<rev>.json` cell schema, emit-only.
//!
//! The harness's bench emitter (E16's YCSB grid, which also carries the
//! server and mesh sweeps) serializes its cells through [`BenchFile`].
//! Nothing in the workspace reads these files back: perf gating is the
//! same-runner perfbench A/B job (`.github/perf_ab.py`), and the cells
//! are kept as the exactness grid's record. Design rules:
//!
//! - **versioned** — `schema_version` names the shape of the file;
//! - **deterministic** — emission is a pure function of the data: fixed
//!   field order, cells sorted by id, counters sorted by name, no
//!   timestamps, floats quantized at construction;
//! - **self-describing** — the host fingerprint (os/arch/cores and
//!   debug-vs-release) travels with the numbers;
//! - **std-only** — the emitter writes JSON text by hand (the workspace
//!   builds offline without serde, the same reason the proptest shim
//!   exists).
//!
//! Files from before this schema were migrated onto it once; the
//! pre-schema originals are kept under `bench/archive/`.

use std::collections::BTreeMap;

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
}

/// One grid cell: a unique id plus its measured numbers.
///
/// `rps` is the cell's throughput (best of the run's repeats — the
/// min-of-k time estimator); `p50_ns`/`p99_ns` are
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

/// One run of one bench emitter.
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
}

/// Quantize to 0.1 via the decimal string, so the stored value is
/// exactly the value the file prints.
fn q1(x: f64) -> f64 {
    format!("{x:.1}").parse().unwrap_or(0.0)
}

/// Quantize to 0.01 (counters).
fn q2(x: f64) -> f64 {
    format!("{x:.2}").parse().unwrap_or(0.0)
}

/// Canonical number form: integral values without a decimal point,
/// everything else at two decimals with trailing zeros trimmed (q1/q2
/// quantize every stored value to at most two).
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
    fn string_escapes_roundtrip() {
        let mut f = sample();
        f.notes = "line\none \"quoted\" \\ tab\there".to_string();
        let json = f.to_json();
        assert!(
            json.contains(r#"  "notes": "line\none \"quoted\" \\ tab\there","#),
            "notes must be emitted with \\n, \\\", \\\\ and \\t escaped: {json}"
        );
    }
}
