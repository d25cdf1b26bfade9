//! Fixture suite for the bench schema + `bench-diff` gate: the
//! end-to-end properties CI relies on — deterministic canonical JSON,
//! version gating, and the verdict taxonomy
//! (improvement / regression / within-noise / missing-cell /
//! schema-mismatch) exercised through real serialized files rather
//! than in-memory structs.

use mwllsc_harness::bench_diff::{diff, DiffConfig, Verdict};
use mwllsc_harness::bench_schema::{BenchFile, Cell, SchemaError, SCHEMA_VERSION};

/// A baseline-shaped file with the given `(id, rps)` cells.
fn bench(cells: &[(&str, f64)]) -> BenchFile {
    let mut f = BenchFile::new("e16-ycsb", "fixture", true, 2, "fixture suite");
    for &(id, rps) in cells {
        f.push(Cell::new(id, true, rps).latency(100.0, 900.0).counter("waves", 7.0));
    }
    f
}

/// Serializes, reparses and re-serializes — the canonical form must be
/// a fixed point, byte for byte.
#[test]
fn serialized_roundtrip_is_byte_identical() {
    let f = bench(&[("e16/store/jp-waitfree/A/zipf", 123456.75), ("e16/mesh/A/zipf", 999.9)]);
    let first = f.to_json();
    let reparsed = BenchFile::from_json(&first).expect("parse own emission");
    assert_eq!(reparsed.to_json(), first, "parse ∘ emit must be the identity");
    // And emission itself is deterministic across calls.
    assert_eq!(f.to_json(), first);
}

/// The full verdict taxonomy through serialized files: one fixture pair
/// holding an improvement, a regression, a within-noise cell, a
/// missing cell and a new cell at once.
#[test]
fn verdict_taxonomy_on_serialized_fixtures() {
    let old = bench(&[
        ("cell/improved", 1_000.0),
        ("cell/regressed", 1_000.0),
        ("cell/steady", 1_000.0),
        ("cell/missing", 1_000.0),
    ]);
    let new = bench(&[
        ("cell/improved", 2_000.0),
        ("cell/regressed", 400.0),
        ("cell/steady", 1_050.0),
        ("cell/brand-new", 5_000.0),
    ]);
    // Round-trip both sides through JSON so the comparison sees exactly
    // what CI sees on disk.
    let old = BenchFile::from_json(&old.to_json()).expect("old");
    let new = BenchFile::from_json(&new.to_json()).expect("new");
    let cfg = DiffConfig::default();
    let report = diff(&old, &new, &cfg).expect("diff");

    let verdict = |id: &str| {
        report.cells.iter().find(|c| c.id == id).map(|c| c.verdict).expect("cell in report")
    };
    assert_eq!(verdict("cell/improved"), Verdict::Improved);
    assert_eq!(verdict("cell/regressed"), Verdict::Regressed);
    assert_eq!(verdict("cell/steady"), Verdict::WithinNoise);
    assert_eq!(verdict("cell/missing"), Verdict::MissingInNew);
    assert_eq!(verdict("cell/brand-new"), Verdict::NewCell);
    assert!(report.failed(&cfg), "a regression must fail the gate");
    assert_eq!(
        (report.regressed, report.improved, report.within, report.missing, report.added),
        (1, 1, 1, 1, 1)
    );
}

/// The acceptance drill: a uniform injected 2x slowdown trips the gate;
/// the unmodified pair stays green.
#[test]
fn injected_2x_slowdown_trips_the_gate() {
    let old = bench(&[("a", 10_000.0), ("b", 20_000.0), ("c", 30_000.0)]);
    let cfg = DiffConfig::default();
    let same = diff(&old, &old.clone(), &cfg).expect("self diff");
    assert!(!same.failed(&cfg), "identical runs must pass");

    let mut slow = old.clone();
    for c in &mut slow.cells {
        c.rps /= 2.0;
    }
    let slow = BenchFile::from_json(&slow.to_json()).expect("slow");
    let report = diff(&old, &slow, &cfg).expect("diff");
    assert_eq!(report.regressed, 3);
    assert!(report.failed(&cfg));
}

/// Missing cells warn by default (the quick grid is a subset of the
/// full grid) and only fail under `--require-all`.
#[test]
fn quick_subset_passes_unless_require_all() {
    let full = bench(&[("a", 1_000.0), ("b", 1_000.0), ("c", 1_000.0)]);
    let quick = bench(&[("a", 1_000.0), ("b", 1_000.0)]);
    let cfg = DiffConfig::default();
    let report = diff(&full, &quick, &cfg).expect("diff");
    assert_eq!(report.missing, 1);
    assert!(!report.failed(&cfg));
    let strict = DiffConfig { require_all: true, ..cfg };
    assert!(diff(&full, &quick, &strict).expect("diff").failed(&strict));
}

/// Schema-mismatch: a future `schema_version` is rejected at parse
/// time with a typed error, never silently compared.
#[test]
fn schema_mismatch_is_rejected() {
    let mut f = bench(&[("a", 1.0)]);
    f.schema_version = SCHEMA_VERSION + 3;
    match BenchFile::from_json(&f.to_json()) {
        Err(SchemaError::Version { found }) => assert_eq!(found, SCHEMA_VERSION + 3),
        other => panic!("expected a version error, got {other:?}"),
    }
}

/// A failed exactness gate in the new file fails the diff even at
/// identical throughput.
#[test]
fn exactness_gate_failure_fails_even_at_parity() {
    let old = bench(&[("a", 1_000.0)]);
    let mut new = bench(&[("a", 1_000.0)]);
    new.cells[0].ok = false;
    let new = BenchFile::from_json(&new.to_json()).expect("new");
    let cfg = DiffConfig::default();
    let report = diff(&old, &new, &cfg).expect("diff");
    assert_eq!(report.gate_failures, vec!["a".to_string()]);
    assert!(report.failed(&cfg));
}

/// Mispaired files (disjoint grids) are a hard error — the gate must
/// never "pass" because someone diffed a mesh file against a server
/// file.
#[test]
fn disjoint_grids_are_a_pairing_error() {
    let a = bench(&[("e13/conns=8/depth=32/coalesced", 1.0)]);
    let b = bench(&[("e15/callers=4/depth=32/mesh", 1.0)]);
    assert!(diff(&a, &b, &DiffConfig::default()).is_err());
}
