//! Library surface of `mwllsc-harness`: the pieces of the experiment
//! driver that are data, not measurement — seeded YCSB-style workload
//! generation and the emit-only `BENCH_<rev>.json` schema.
//!
//! The binary (`src/main.rs`) layers the experiment grid and CLI on
//! top; keeping these modules in a library lets perfbench and the
//! tests in `tests/` use the workload generators without spawning the
//! CLI, and keeps determinism properties (canonical JSON, seeded key
//! streams) unit-testable.

#![warn(missing_docs, missing_debug_implementations)]

pub mod bench_schema;
pub mod workload;
