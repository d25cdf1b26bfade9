//! The repository's benchmark: four closed-loop workloads over the
//! store, mesh and server built on the wait-free `MwLlSc`.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload end to end and prints its end-to-end
//! metrics. `--trace 1` runs it again untraced and traced, replays its op
//! streams through every other layer with spans around each call, and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object, and the exit code is nonzero when any
//! exactness check failed. See `README.md` for the workloads and the
//! layer → metric → workload map.

mod check;
mod gen;
mod hist;
mod rungs;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwllsc::MwLlSc;
use mwllsc_mesh::{Mesh, MeshConfig, MeshHandle, MeshStats};
use mwllsc_server::{Client, Server, ServerConfig, ServerStats};
use mwllsc_store::{Store, StoreConfig, StoreStats};

use gen::{initial, word, Rung, Spec, Stream, Workload};
use rungs::{Phase, RungOut};
use trace::{ratio, SelfTime};

const USAGE: &str = "usage: perfbench --workload <store-uniform-rw|store-zipf-batch-w4|server-pipelined|mesh-read-heavy|all> --seed <n> --seconds <n> --trace <0|1>";

/// Windows an end-to-end run is cut into; its figures are medians over
/// them.
const WINDOWS: u32 = 25;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

#[derive(Clone, Debug)]
struct Args {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(|| format!("missing {f}"));
    let workload = match get("--workload")? {
        "all" => None,
        name => Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?),
    };
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&argv);
    };
    let placement = if workload.spec().one_cpu {
        sys::pin_to_one_cpu()
            .map_or("one CPU requested, host refused: unpinned".to_owned(), |cpu| {
                format!("every thread on CPU {cpu}")
            })
    } else {
        "unpinned".to_owned()
    };
    let result = if args.trace {
        traced(workload, &args, &placement)
    } else {
        plain(workload, &args, &placement)
    };
    match result {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.json());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: exactness checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process of its own so that each
/// reports its own peak RSS.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args = argv.to_vec();
        let at = args.iter().position(|a| a == "--workload").expect("parsed above") + 1;
        args[at] = w.spec().name.to_owned();
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.spec().name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finished run: its exactness tallies, its metrics and its report.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: String,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The system under test: a preloaded store, plus the mesh or server in
/// front of it and one handle or connection per lane.
struct System {
    store: Arc<Store>,
    mesh: Option<Arc<Mesh>>,
    mesh_handles: Vec<MeshHandle>,
    server: Option<Server>,
    clients: Vec<Client>,
}

/// What one set-up cost.
struct Setup {
    secs: f64,
    preload_secs: f64,
    store_rss: u64,
}

fn build(spec: &Spec) -> Result<(System, Setup), String> {
    let rss0 = sys::rss_bytes();
    let t0 = Instant::now();
    let cfg = StoreConfig::new(spec.shards, spec.shard_capacity, spec.width, spec.keys);
    let store = Store::try_new(cfg).map_err(|e| e.to_string())?;
    let tp = Instant::now();
    {
        let mut h = store.attach();
        let mut keys = Vec::with_capacity(1024);
        for first in (0..spec.keys).step_by(1024) {
            keys.clear();
            keys.extend(first..(first + 1024).min(spec.keys));
            h.update_many_with(&keys, |i, buf| {
                for (j, x) in buf.iter_mut().enumerate() {
                    *x = word(keys[i] + 1, j);
                }
            })
            .map_err(|e| format!("preload: {e}"))?;
        }
    }
    let preload_secs = tp.elapsed().as_secs_f64();
    let store_rss = sys::rss_bytes().saturating_sub(rss0);
    let mut system =
        System { store, mesh: None, mesh_handles: Vec::new(), server: None, clients: Vec::new() };
    match spec.top {
        Rung::Mesh => system.start_mesh(spec.lanes)?,
        Rung::Server => system.start_server(spec.lanes)?,
        _ => {}
    }
    Ok((system, Setup { secs: t0.elapsed().as_secs_f64(), preload_secs, store_rss }))
}

impl System {
    fn start_mesh(&mut self, lanes: usize) -> Result<(), String> {
        let mesh = Mesh::try_new(Arc::clone(&self.store), MeshConfig::default())
            .map_err(|e| format!("mesh: {e:?}"))?;
        self.mesh_handles = (0..lanes).map(|_| mesh.attach()).collect();
        self.mesh = Some(mesh);
        Ok(())
    }

    fn start_server(&mut self, lanes: usize) -> Result<(), String> {
        let server = Server::start(&self.store, ServerConfig::default())
            .map_err(|e| format!("server: {e}"))?;
        self.clients = (0..lanes)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        self.server = Some(server);
        Ok(())
    }

    /// Stops the mesh and the server, if running.
    fn close_frontends(&mut self) {
        self.mesh_handles.clear();
        if let Some(mesh) = self.mesh.take() {
            mesh.shutdown();
        }
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    fn frontend_stats(&self) -> (Option<MeshStats>, Option<ServerStats>) {
        (self.mesh.as_ref().map(|m| m.stats()), self.server.as_ref().map(Server::stats))
    }

    /// Drives `rung` through this system.
    fn run(&mut self, rung: Rung, streams: &[Stream], phase: Phase) -> RungOut {
        let attach = |n: usize| -> Vec<_> { (0..n).map(|_| self.store.attach()).collect() };
        match rung {
            Rung::StoreOp => rungs::store_op(streams, &mut attach(streams.len()), phase),
            Rung::StoreBatch => rungs::store_batch(streams, &mut attach(streams.len()), phase),
            Rung::Mesh => rungs::mesh(streams, &mut self.mesh_handles, phase),
            Rung::Server => {
                let width = self.store.width();
                let reqs: Vec<_> = streams.iter().map(|s| rungs::requests(s, width)).collect();
                rungs::server(streams, &mut self.clients, &reqs, phase)
            }
            Rung::Core => unreachable!("the core rung runs without the store"),
        }
    }
}

/// Per-key increments the store-level runners acknowledged.
fn acked(spec: &Spec, streams: &[Stream], outs: &[&RungOut]) -> Vec<u64> {
    let mut acked = vec![0u64; spec.keys as usize];
    for out in outs {
        for (lane, stream) in out.lanes.iter().zip(streams) {
            check::tally(stream, lane.done, &lane.failed, &mut acked);
        }
    }
    acked
}

fn probe_store(store: &Arc<Store>, acked: &[u64]) -> check::Probe {
    let mut h = store.attach();
    check::probe(store.width(), acked, |k, out| h.read(k, out).map_err(|e| e.to_string()))
}

/// The header every report starts with: inputs and host.
fn header(spec: &Spec, args: &Args, placement: &str) -> String {
    let (threads, conns) = if spec.top == Rung::Server { (1, spec.lanes) } else { (spec.lanes, 0) };
    let l3 = sys::l3_bytes().map_or_else(|| "unknown".to_owned(), |b| format!("{} KiB", b / 1024));
    format!(
        "== {} (trace {}) ==\nwhy: {}\nplacement: {placement}\nseed {}  seconds {}  generator threads {threads}  connections {conns}  nproc {}  L3 {l3}\nkeys {}  W {}  shards {}  shard capacity {}  keys per round {}  read rounds {}/{}\n",
        spec.name,
        u8::from(args.trace),
        spec.why,
        args.seed,
        args.seconds,
        sys::nproc(),
        spec.keys,
        spec.width,
        spec.shards,
        spec.shard_capacity,
        spec.round,
        spec.reads_in,
        spec.of,
    )
}

/// The input and system properties later claims cite.
fn properties(
    spec: &Spec,
    streams: &[Stream],
    setup: &Setup,
    mesh: Option<&MeshStats>,
    server: Option<&ServerDelta>,
) -> String {
    let batch = spec.round.max(rungs::MIN_BATCH);
    let mut s = format!(
        "property: equal-key share of update entries in batches of {batch}: {:.4}\n",
        gen::equal_key_share(streams, batch)
    );
    let l3 = sys::l3_bytes();
    s += &format!(
        "property: working set {} KiB (store RSS after preload) vs L3 {}: {}\n",
        setup.store_rss / 1024,
        l3.map_or_else(|| "unknown".to_owned(), |b| format!("{} KiB", b / 1024)),
        l3.map_or_else(|| "-".to_owned(), |b| format!("{:.2}x", setup.store_rss as f64 / b as f64)),
    );
    if let Some(m) = mesh {
        s += &format!(
            "property: entries per mesh message: {:.3}\n",
            ratio(m.entries as f64, m.msgs as f64)
        );
    }
    if let Some(v) = server {
        s += &format!(
            "property: requests per server wave: {:.3}  mean write batch: {:.3}\n",
            ratio(v.requests as f64, v.waves as f64),
            ratio(v.write_entries as f64, v.write_batches as f64)
        );
    }
    s
}

fn line(name: &str, v: f64, unit: &str) -> String {
    format!("  {name:<34} {v:>14.4} {unit}\n")
}

/// The end-to-end run: set up several times, run the workload's own
/// runner untraced for the whole slice, probe every key.
fn plain(workload: Workload, args: &Args, placement: &str) -> Result<Outcome, String> {
    let spec = workload.spec();
    let streams = gen::streams(&spec, args.seed);
    let mut setups = Vec::new();
    let mut system: Option<System> = None;
    for _ in 0..spec.setup_reps {
        if let Some(mut s) = system.take() {
            s.close_frontends();
        }
        let (s, setup) = build(&spec)?;
        setups.push(setup);
        system = Some(s);
    }
    let mut system = system.expect("at least one set-up");
    let slice = Duration::from_secs(args.seconds);
    let phase = Phase { origin: Instant::now(), slice, windows: WINDOWS, trace: false };
    let out = system.run(spec.top, &streams, phase);
    let (mesh, server) = system.frontend_stats();
    let server = server.map(|s| server_delta(&ServerStats::default(), &s));
    system.close_frontends();
    let probe = probe_store(&system.store, &acked(&spec, &streams, &[&out]));
    let space = system.store.space();

    // Each figure is the median over the run's windows, so a stall that
    // another tenant of the host causes in one window does not move it.
    let mut windows = out.windows(phase);
    if windows.is_empty() {
        return Err(format!("{}: no window of {slice:?} / {WINDOWS} completed", spec.name));
    }
    let mut per_window = |q: f64| {
        let us = windows.iter_mut().map(|w| w.1.quantile(q).unwrap_or(0.0) / 1e3);
        sys::median(&us.collect::<Vec<_>>())
    };
    let (p50, p99) = (per_window(0.50), per_window(0.99));
    let throughput = sys::median(&windows.iter().map(|w| w.0).collect::<Vec<_>>());
    let samples: Vec<u64> = windows.iter().map(|w| w.1.len()).collect();
    let setup_s = sys::median(&setups.iter().map(|s| s.secs).collect::<Vec<_>>());
    let failed = out.failed() + probe.mismatches;
    let attempted = out.done();
    let metrics = vec![
        ("throughput_ops_s", throughput, "ops/s"),
        ("latency_p50_us", p50, "us"),
        ("latency_p99_us", p99, "us"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", sys::peak_rss_bytes() as f64 / (1u64 << 20) as f64, "MiB"),
        (
            "space_words_per_key",
            ratio(space.shared_words as f64, space.touched_keys as f64),
            "words",
        ),
    ];

    let mut report = header(&spec, args, placement);
    report += &properties(&spec, &streams, &setups[0], mesh.as_ref(), server.as_ref());
    report += &format!(
        "set-up x{}: {:?} s\nwindows of {:?}: ops/s {:?}\nlatency samples per window (one per request): {samples:?}\nwhole run: {} ops, {:.0} ops/s\nprobe: {} keys, {} mismatches\n",
        setups.len(),
        setups.iter().map(|s| (s.secs * 1e4).round() / 1e4).collect::<Vec<_>>(),
        slice / WINDOWS,
        windows.iter().map(|w| w.0.round()).collect::<Vec<_>>(),
        out.done(),
        out.throughput(),
        probe.keys,
        probe.mismatches,
    );
    for e in out.first_error().into_iter().chain(probe.first.as_deref()) {
        report += &format!("FAILED: {e}\n");
    }
    report += "end-to-end:\n";
    for (name, v, unit) in &metrics {
        report += &line(name, *v, unit);
    }
    report += &line("failed_frac", ratio(failed as f64, attempted as f64), "ratio");
    Ok(Outcome { attempted, failed, metrics, report })
}

fn mesh_delta(a: &MeshStats, b: &MeshStats) -> MeshStats {
    let mut d = MeshStats {
        entries: b.entries - a.entries,
        msgs: b.msgs - a.msgs,
        waves: b.waves - a.waves,
        ..MeshStats::default()
    };
    for (i, x) in d.occ_hist.iter_mut().enumerate() {
        *x = b.occ_hist[i] - a.occ_hist[i];
    }
    d
}

/// The median sampled ring occupancy: the lower edge of the log₂ bucket
/// holding the middle sample (bucket `b ≥ 1` covers `2^(b-1) .. 2^b`).
fn occupancy_p50(m: &MeshStats) -> f64 {
    let total: u64 = m.occ_hist.iter().sum();
    let mut seen = 0;
    for (b, &n) in m.occ_hist.iter().enumerate() {
        seen += n;
        if n > 0 && 2 * seen >= total {
            return (1u64 << b.saturating_sub(1)) as f64;
        }
    }
    0.0
}

/// Server counters that moved between two snapshots.
struct ServerDelta {
    requests: u64,
    waves: u64,
    write_batches: u64,
    write_entries: u64,
    read_batches: u64,
    read_keys: u64,
    backpressure_skips: u64,
}

fn server_delta(a: &ServerStats, b: &ServerStats) -> ServerDelta {
    ServerDelta {
        requests: b.requests - a.requests,
        waves: b.waves - a.waves,
        write_batches: b.write_batches - a.write_batches,
        write_entries: b.write_entries - a.write_entries,
        read_batches: b.read_batches - a.read_batches,
        read_keys: b.read_keys - a.read_keys,
        backpressure_skips: b.backpressure_skips - a.backpressure_skips,
    }
}

/// The traced run: the workload's own runner untraced then traced (a
/// quarter of the slice each), then its op streams replayed with spans
/// through every other layer, the store-level ones first, then the
/// codec, then one bare `MwLlSc` per key once the store is gone.
fn traced(workload: Workload, args: &Args, placement: &str) -> Result<Outcome, String> {
    let spec = workload.spec();
    let streams = gen::streams(&spec, args.seed);
    let origin = Instant::now();
    let total = Duration::from_secs(args.seconds);
    let replays = [Rung::StoreOp, Rung::StoreBatch, Rung::Mesh, Rung::Server]
        .into_iter()
        .filter(|&r| r != spec.top)
        .collect::<Vec<_>>();
    let slice = (total / 2) / (replays.len() as u32 + 2);
    let phase = |slice, trace| Phase { origin, slice, windows: 1, trace };

    let (mut system, setup) = build(&spec)?;
    let untraced = system.run(spec.top, &streams, phase(total / 4, false));
    let (st0, (m0, s0)) = (system.store.stats(), system.frontend_stats());
    let top = system.run(spec.top, &streams, phase(total / 4, true));
    let (st1, (m1, s1)) = (system.store.stats(), system.frontend_stats());
    system.close_frontends();
    let mut mesh = m0.zip(m1).map(|(a, b)| mesh_delta(&a, &b));
    let mut server = s0.zip(s1).map(|(a, b)| server_delta(&a, &b));

    let mut outs = vec![untraced, top];
    for rung in replays {
        match rung {
            Rung::Mesh => system.start_mesh(spec.lanes)?,
            Rung::Server => system.start_server(spec.lanes)?,
            _ => {}
        }
        outs.push(system.run(rung, &streams, phase(slice, true)));
        let (m, s) = system.frontend_stats();
        mesh = mesh.or(m);
        server = server.or(s.map(|s| server_delta(&ServerStats::default(), &s)));
        system.close_frontends();
    }
    let reqs = rungs::requests(&streams[0], spec.width);
    let codec = rungs::codec(&streams[0], &reqs, spec.width, phase(slice, true));
    let store_probe =
        probe_store(&system.store, &acked(&spec, &streams, &outs.iter().collect::<Vec<_>>()));
    drop(system);

    // The bare objects: one per key, built for as many processes as a
    // store shard, each lane holding its claimed handle to every key.
    let objects: Vec<Arc<MwLlSc>> = (0..spec.keys)
        .map(|k| MwLlSc::try_new(spec.shard_capacity, spec.width, &initial(k, spec.width)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("core objects: {e}"))?;
    let claim = |p: usize| -> Result<Vec<_>, String> {
        objects.iter().map(|o| o.claim(p).map_err(|e| format!("claim: {e}"))).collect()
    };
    let mut handles = (0..spec.lanes).map(claim).collect::<Result<Vec<_>, _>>()?;
    let core = rungs::core(&streams, &mut handles, spec.width, phase(slice, true));
    drop(handles);
    let core_acked = acked(&spec, &streams, &[&core]);
    let mut prober = claim(spec.lanes)?;
    let core_probe = check::probe(spec.width, &core_acked, |k, out| {
        prober[k as usize].read(out);
        Ok(())
    });
    drop((prober, objects));

    let mut spans: Vec<trace::Span> =
        outs.iter().chain([&core]).flat_map(RungOut::spans).copied().collect();
    spans.extend_from_slice(&codec.spans);
    let st = trace::self_times(&spans);
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let d = |count: fn(&StoreStats) -> u64| (count(&st1) - count(&st0)) as f64;
    let mesh = mesh.unwrap_or_default();
    let server = server.expect("the server rung always runs");
    let keys = spec.keys as f64;
    let metrics = vec![
        ("core.update_ns", get("core.update").mean_ns(), "ns"),
        ("core.read_ns", get("core.read").mean_ns(), "ns"),
        ("core.sc_success_ratio", ratio(d(|s| s.sc_successes), d(|s| s.sc_attempts)), "ratio"),
        ("core.help_ratio", ratio(d(|s| s.lls_helped), d(|s| s.ll_ops)), "ratio"),
        ("store.update_ns", get("store.update").mean_ns(), "ns"),
        ("store.read_ns", get("store.read").mean_ns(), "ns"),
        (
            "store.update_tax",
            ratio(get("store.update").mean_ns(), get("core.update").mean_ns()),
            "ratio",
        ),
        ("store.batch_update_ns_per_key", get("store.update_many").ns_per_entry(), "ns"),
        ("store.batch_read_ns_per_key", get("store.read_many").ns_per_entry(), "ns"),
        (
            "store.read_many_vs_loop",
            ratio(get("store.read_many").ns_per_entry(), get("store.read_loop").ns_per_entry()),
            "ratio",
        ),
        ("store.retries_per_update", ratio(d(|s| s.update_retries), d(|s| s.updates)), "ratio"),
        ("store.preload_ns_per_key", setup.preload_secs * 1e9 / keys, "ns"),
        ("store.rss_bytes_per_key", setup.store_rss as f64 / keys, "bytes"),
        ("mesh.update_batch_ns_per_key", get("mesh.update_batch").ns_per_entry(), "ns"),
        ("mesh.read_many_ns_per_key", get("mesh.read_many").ns_per_entry(), "ns"),
        ("mesh.msgs_per_wave", ratio(mesh.msgs as f64, mesh.waves as f64), "count"),
        ("mesh.entries_per_msg", ratio(mesh.entries as f64, mesh.msgs as f64), "count"),
        ("mesh.ring_occupancy_p50", occupancy_p50(&mesh), "count"),
        ("server.send_ns", get("server.send").mean_ns(), "ns"),
        ("server.flush_ns", get("server.flush").mean_ns(), "ns"),
        ("server.recv_ns", get("server.recv").mean_ns(), "ns"),
        ("server.codec_ns_per_req", get("server.codec").mean_ns(), "ns"),
        ("server.reqs_per_wave", ratio(server.requests as f64, server.waves as f64), "count"),
        (
            "server.mean_write_batch",
            ratio(server.write_entries as f64, server.write_batches as f64),
            "count",
        ),
        (
            "server.mean_read_batch",
            ratio(server.read_keys as f64, server.read_batches as f64),
            "count",
        ),
        ("server.backpressure_skips", server.backpressure_skips as f64, "count"),
        ("trace.traced_vs_untraced", ratio(outs[1].throughput(), outs[0].throughput()), "ratio"),
    ];

    let path = std::path::Path::new(TRACE_DIR).join(format!("{}.tsv", spec.name));
    trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut report = header(&spec, args, placement);
    report += &properties(&spec, &streams, &setup, Some(&mesh), Some(&server));
    report += &format!(
        "tracing overhead on {}: untraced {:.0} ops/s, traced {:.0} ops/s\n",
        spec.top.name(),
        outs[0].throughput(),
        outs[1].throughput()
    );
    report += "runners (ops, wall s, ops/s, traced):\n";
    for o in outs.iter().chain([&core]) {
        report += &format!(
            "  {:<12} {:>10} {:>8.3} {:>12.0} {}\n",
            o.rung.name(),
            o.done(),
            o.wall().as_secs_f64(),
            o.throughput(),
            !o.lanes[0].spans.is_empty()
        );
    }
    report += &format!(
        "spans: {} written to {}\nself time per span (count, entries, total ms, mean ns):\n",
        spans.len(),
        path.display()
    );
    let mut layer = "";
    for (name, t) in &st {
        let this = name.split('.').next().unwrap_or(name);
        if this != layer {
            report += &format!(" layer {this}\n");
            layer = this;
        }
        let SelfTime { count, work, self_ns } = *t;
        report += &format!(
            "  {name:<22} {count:>9} {work:>10} {:>10.2} {:>10.1}\n",
            self_ns as f64 / 1e6,
            t.mean_ns()
        );
    }
    report += "per-layer:\n";
    for (name, v, unit) in &metrics {
        report += &line(name, *v, unit);
    }
    let failed = outs.iter().chain([&core]).map(RungOut::failed).sum::<u64>()
        + codec.failed.len() as u64
        + store_probe.mismatches
        + core_probe.mismatches;
    let attempted = outs.iter().chain([&core]).map(RungOut::done).sum::<u64>() + codec.done;
    report += &format!(
        "probe: store {} mismatches, core {} mismatches\n",
        store_probe.mismatches, core_probe.mismatches
    );
    let errors = outs.iter().chain([&core]).filter_map(RungOut::first_error);
    for e in errors
        .chain(codec.first_error.as_deref())
        .chain(store_probe.first.as_deref())
        .chain(core_probe.first.as_deref())
    {
        report += &format!("FAILED: {e}\n");
    }
    Ok(Outcome { attempted, failed, metrics, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a =
            parse_args(&argv("--workload mesh-read-heavy --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::MeshReadHeavy));
        assert!(a.trace && a.seed == 3 && a.seconds == 2);
        assert!(parse_args(&argv("--workload all --seed 3 --seconds 2 --trace 0"))
            .unwrap()
            .workload
            .is_none());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed 3 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seed 3 --seconds 2")).is_err());
    }

    #[test]
    fn json_is_one_line_with_the_contract_keys() {
        let o = Outcome {
            attempted: 5,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s")],
            report: String::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn short_traced_runs_are_exact() {
        // Two traced runs drive every layer; the store sizes are the real ones.
        for w in [Workload::StoreZipfBatchW4, Workload::MeshReadHeavy] {
            let args = Args { workload: Some(w), seed: 5, seconds: 1, trace: true };
            let out = traced(w, &args, "unpinned").unwrap();
            assert!(out.correct(), "{}", out.report);
        }
    }
}
