//! `mwllsc-harness` — regenerates every table of `EXPERIMENTS.md`.
//!
//! ```text
//! mwllsc-harness <experiment> [--quick]
//!
//! experiments:
//!   e1-space             exact space usage vs N, W (ours vs baselines)
//!   e2-time-w            LL/SC latency vs W (linear, Theorem 1)
//!   e3-time-n            LL/SC latency vs N (flat, Theorem 1)
//!   e4-vl                VL latency grid (O(1), Theorem 1)
//!   e5-waitfree          simulator step bounds under adversarial schedules
//!   e6-linearizability   exhaustive + sampled linearizability checking
//!   e7-helping           helping-path statistics under real-thread storms
//!   e8-compare           throughput + space, all implementations
//!   e9-reclamation       substrate SC cost (tagged vs epoch) and the
//!                        epoch substrate's node high-water
//!   e10-store            sharded store: throughput vs shards, key scaling
//!   e11-backends         multi-backend store matrix + batched update_many
//!   e12-model            model checking of the shipping code (needs
//!                        `RUSTFLAGS='--cfg mwllsc_model'`)
//!   e14-lint             static policy sweep (mwllsc-lint) over the
//!                        workspace: facade, orderings, SAFETY, no-alloc
//!   e16-ycsb             YCSB-style workload grid: backends x mixes x
//!                        distributions over store/server/mesh, plus the
//!                        server conns x depth and store-vs-mesh callers x
//!                        depth sweeps; every cell an exactness gate
//!                        (exit 2 on any divergence), cells written to
//!                        BENCH_<rev>.json
//!   all                  everything above, in order
//! ```
//!
//! `--quick` shrinks iteration counts ~10x for smoke runs (used by CI and
//! the integration tests). E16 takes the best of 7 repeats per cell in
//! quick mode and of 5 in full mode. Perf gating is not done here: CI
//! runs perfbench at the parent and at the change in interleaved pairs
//! (`.github/perf_ab.py`).

mod experiments;
mod table;
mod timing;

fn usage() -> ! {
    eprintln!(
        "usage: mwllsc-harness <e1-space|e2-time-w|e3-time-n|e4-vl|e5-waitfree|\
         e6-linearizability|e7-helping|e8-compare|e9-reclamation|e10-store|\
         e11-backends|e12-model|e14-lint|e16-ycsb|all> [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let cmd = args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| usage());

    println!("# mwllsc experiment harness — {cmd}{}\n", if quick { " (quick)" } else { "" });
    println!(
        "host: {} {} · {} logical cores · built in {} mode\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    match cmd.as_str() {
        "e1-space" => experiments::e1_space(quick),
        "e2-time-w" => experiments::e2_time_w(quick),
        "e3-time-n" => experiments::e3_time_n(quick),
        "e4-vl" => experiments::e4_vl(quick),
        "e5-waitfree" => experiments::e5_waitfree(quick),
        "e6-linearizability" => experiments::e6_linearizability(quick),
        "e7-helping" => experiments::e7_helping(quick),
        "e8-compare" => experiments::e8_compare(quick),
        "e9-reclamation" => experiments::e9_reclamation(quick),
        "e10-store" => experiments::e10_store(quick),
        "e11-backends" => experiments::e11_backends(quick),
        "e12-model" => experiments::e12_model(quick),
        "e14-lint" => experiments::e14_lint(quick),
        "e16-ycsb" => experiments::e16_ycsb(quick),
        "all" => experiments::all(quick),
        _ => usage(),
    }
}
