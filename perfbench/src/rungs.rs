//! One closed-loop runner per layer. Each pushes the lanes' op streams
//! through that layer's public API only, times every request, checks
//! every value it gets back, and (in a traced phase) records a span
//! around every call it makes into the layer.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use mwllsc::Handle;
use mwllsc_mesh::{InlineVal, MeshHandle, UpdateKind};
use mwllsc_server::proto::{decode_request, decode_response, encode_request, encode_response};
use mwllsc_server::{Client, Request, Response, UpdateOp};
use mwllsc_store::StoreHandle;

use crate::check::value_ok;
use crate::gen::{delta, initial, Rung, Stream, MULT};
use crate::hist::Hist;
use crate::trace::{Span, Tracer};

/// Most spans one lane keeps in one traced phase; a full lane ends the
/// phase early, which bounds the memory and the span file.
pub const SPAN_CAP: usize = 50_000;
/// Requests in flight on each server connection.
pub const DEPTH: usize = 16;
/// Entries per batch call when a stream's rounds are single ops.
pub const MIN_BATCH: usize = 32;
/// Widest value any workload uses.
const MAX_W: usize = MULT.len();

/// How long a runner runs, in how many equal windows, and whether it
/// traces.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub origin: Instant,
    pub slice: Duration,
    pub windows: u32,
    pub trace: bool,
}

/// What one lane did.
#[derive(Debug)]
pub struct LaneOut {
    pub start: Instant,
    pub end: Instant,
    /// Stream ops completed, counted from the stream's start.
    pub done: u64,
    /// Indices of completed ops that failed.
    pub failed: Vec<u64>,
    pub first_error: Option<String>,
    /// One latency (ns) per request, a call or a frame, in one
    /// histogram per window.
    pub lat: Vec<Hist>,
    /// `done` as each window of the phase closed.
    pub marks: Vec<u64>,
    pub spans: Vec<Span>,
}

impl LaneOut {
    fn fail(&mut self, ops: impl IntoIterator<Item = u64>, why: impl FnOnce() -> String) {
        self.failed.extend(ops);
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }
}

/// What one runner did across its lanes.
#[derive(Debug)]
pub struct RungOut {
    pub rung: Rung,
    pub lanes: Vec<LaneOut>,
}

impl RungOut {
    /// From the first lane's start to the last lane's end.
    pub fn wall(&self) -> Duration {
        let start = self.lanes.iter().map(|l| l.start).min().expect("a runner has lanes");
        let end = self.lanes.iter().map(|l| l.end).max().expect("a runner has lanes");
        end - start
    }

    pub fn done(&self) -> u64 {
        self.lanes.iter().map(|l| l.done).sum()
    }

    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed.len() as u64).sum()
    }

    /// Ops completed per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.done() as f64 / self.wall().as_secs_f64()
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.lanes.iter().flat_map(|l| l.spans.iter())
    }

    pub fn first_error(&self) -> Option<&str> {
        self.lanes.iter().find_map(|l| l.first_error.as_deref())
    }

    /// Every window all lanes completed: its throughput in ops/s and
    /// its latencies.
    pub fn windows(&self, phase: Phase) -> Vec<(f64, Hist)> {
        let secs = (phase.slice / phase.windows).as_secs_f64();
        let n = self.lanes.iter().map(|l| l.marks.len()).min().unwrap_or(0);
        (0..n)
            .map(|k| {
                let mut ops = 0;
                let mut lat = Hist::default();
                for l in &self.lanes {
                    ops += l.marks[k] - if k == 0 { 0 } else { l.marks[k - 1] };
                    lat.merge(&l.lat[k]);
                }
                (ops as f64 / secs, lat)
            })
            .collect()
    }
}

/// A lane's clock and span buffer while it runs.
struct Lane {
    id: u64,
    tr: Tracer,
    /// When the lane's previous request returned.
    prev: Instant,
    window: Duration,
    next_mark: Instant,
    out: LaneOut,
}

impl Lane {
    fn new(phase: Phase, id: usize) -> Self {
        let now = Instant::now();
        Self {
            id: id as u64,
            tr: Tracer::new(phase.origin, phase.trace, SPAN_CAP),
            prev: now,
            window: phase.slice / phase.windows,
            next_mark: now + phase.slice / phase.windows,
            out: LaneOut {
                start: now,
                end: now,
                done: 0,
                failed: Vec::new(),
                first_error: None,
                lat: vec![Hist::default()],
                marks: Vec::new(),
                spans: Vec::new(),
            },
        }
    }

    /// The request id of op `op`: unique across lanes.
    fn req(&self, op: u64) -> u64 {
        self.id << 40 | op
    }

    /// When the call about to be made starts. Untraced, a closed loop
    /// makes each call as the previous one returns, so the previous
    /// return stands in for it and each request costs one clock read.
    fn begin(&self) -> Instant {
        if self.tr.on() {
            Instant::now()
        } else {
            self.prev
        }
    }

    /// Records a call into the layer that started at `t0` and carried
    /// `work` entries, the first of them op `op`.
    fn end(&mut self, name: &'static str, op: u64, work: usize, t0: Instant) {
        let t1 = Instant::now();
        self.record(t1 - self.prev);
        self.tr.span(name, None, self.req(op), work, t0, t1);
        self.prev = t1;
    }

    /// The stream round that the lane's next op starts.
    fn round(&self, stream: &Stream) -> usize {
        ((self.out.done / stream.round as u64) % stream.rounds() as u64) as usize
    }

    fn record(&mut self, latency: Duration) {
        let ns = u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX);
        self.out.lat.last_mut().expect("a lane always has an open window").add(ns);
    }

    /// Closes every window that ended by the lane's last return.
    fn mark(&mut self) {
        while self.prev >= self.next_mark {
            self.out.marks.push(self.out.done);
            self.out.lat.push(Hist::default());
            self.next_mark += self.window;
        }
    }

    fn finish(mut self) -> LaneOut {
        self.out.end = self.prev;
        self.out.spans = self.tr.spans;
        self.out
    }
}

/// Adds the update operand to `v` in place.
pub fn add_delta(v: &mut [u64]) {
    for (x, m) in v.iter_mut().zip(MULT) {
        *x = x.wrapping_add(m);
    }
}

/// Runs one thread per lane, each calling `step` with its own handle
/// until its slice is spent or its span buffer is full.
fn drive<H: Send>(
    rung: Rung,
    streams: &[Stream],
    handles: &mut [H],
    phase: Phase,
    step: impl Fn(&mut H, &Stream, &mut Lane) + Sync,
) -> RungOut {
    assert_eq!(handles.len(), streams.len(), "one handle per lane");
    let barrier = Barrier::new(streams.len());
    let lanes = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(id, (h, stream))| {
                let (barrier, step) = (&barrier, &step);
                s.spawn(move || {
                    barrier.wait();
                    let mut lane = Lane::new(phase, id);
                    let deadline = lane.out.start + phase.slice;
                    while lane.prev < deadline && !lane.tr.full() {
                        step(h, stream, &mut lane);
                        lane.mark();
                    }
                    lane.finish()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("a runner thread panicked")).collect()
    });
    RungOut { rung, lanes }
}

/// One stream round as single-key calls: `call(key, reads, buf)` reads
/// or updates `key`, leaving the value it read or installed in `buf`.
fn per_op_round(
    stream: &Stream,
    lane: &mut Lane,
    width: usize,
    names: [&'static str; 2],
    mut call: impl FnMut(u64, bool, &mut [u64]) -> Result<(), String>,
) {
    let r = lane.round(stream);
    let reads = stream.reads[r];
    let mut buf = [0u64; MAX_W];
    let buf = &mut buf[..width];
    for (i, &key) in stream.round_keys(r).iter().enumerate() {
        let op = lane.out.done + i as u64;
        let t0 = lane.begin();
        let res = call(key, reads, buf);
        lane.end(names[usize::from(reads)], op, 1, t0);
        match res {
            Ok(()) if value_ok(key, buf, u64::from(!reads)) => {}
            Ok(()) => {
                lane.out.fail([op], || format!("key {key}: {buf:?} is below its floor or torn"))
            }
            Err(e) => lane.out.fail([op], || format!("key {key}: {e}")),
        }
    }
    lane.out.done += stream.round as u64;
}

/// Per-lane scratch of the batch runners: the keys and op indices of the
/// chunk's updates (`[0]`) and reads (`[1]`), and the value buffer.
#[derive(Debug, Default)]
pub struct Chunk {
    keys: [Vec<u64>; 2],
    ops: [Vec<u64>; 2],
    vals: Vec<u64>,
}

impl Chunk {
    /// Gathers the whole rounds, at least [`MIN_BATCH`] ops, that start
    /// at op `done`, and returns how many ops they hold.
    fn fill(&mut self, stream: &Stream, done: u64) -> u64 {
        let rounds = (MIN_BATCH / stream.round).max(1);
        let r0 = ((done / stream.round as u64) % stream.rounds() as u64) as usize;
        for v in self.keys.iter_mut().chain(self.ops.iter_mut()) {
            v.clear();
        }
        for r in r0..r0 + rounds {
            let side = usize::from(stream.reads[r]);
            let first = done + ((r - r0) * stream.round) as u64;
            self.keys[side].extend_from_slice(stream.round_keys(r));
            self.ops[side].extend((0..stream.round as u64).map(|i| first + i));
        }
        (rounds * stream.round) as u64
    }
}

/// A filled chunk as at most two batch calls: `call(reads, keys, vals)`
/// updates or reads `keys`. Read values, and installed values when
/// `snaps` is set, are checked.
fn send_chunk(
    lane: &mut Lane,
    c: &mut Chunk,
    width: usize,
    snaps: bool,
    names: [&'static str; 2],
    mut call: impl FnMut(bool, &[u64], &mut [u64]) -> Result<(), String>,
) {
    for (side, name) in names.into_iter().enumerate() {
        let (keys, ops) = (&c.keys[side], &c.ops[side]);
        if keys.is_empty() {
            continue;
        }
        c.vals.resize(keys.len() * width, 0);
        let t0 = lane.begin();
        let res = call(side == 1, keys, &mut c.vals);
        lane.end(name, ops[0], keys.len(), t0);
        if let Err(e) = res {
            lane.out.fail(ops.iter().copied(), || format!("batch of {}: {e}", keys.len()));
            continue;
        }
        if side == 1 || snaps {
            let floor = u64::from(side == 0);
            for (i, (&key, &op)) in keys.iter().zip(ops).enumerate() {
                let v = &c.vals[i * width..(i + 1) * width];
                if !value_ok(key, v, floor) {
                    lane.out.fail([op], || format!("key {key}: {v:?} is below its floor or torn"));
                }
            }
        }
    }
}

/// One `MwLlSc` per key, each claimed by every lane up front: no router,
/// table or claim on the timed path.
pub fn core(
    streams: &[Stream],
    handles: &mut [Vec<Handle>],
    width: usize,
    phase: Phase,
) -> RungOut {
    drive(Rung::Core, streams, handles, phase, |hs, stream, lane| {
        per_op_round(stream, lane, width, ["core.update", "core.read"], |key, reads, buf| {
            let h = &mut hs[key as usize];
            if reads {
                h.read(buf);
            } else {
                loop {
                    h.ll(buf);
                    add_delta(buf);
                    if h.sc(buf) {
                        break;
                    }
                }
            }
            Ok(())
        });
    })
}

/// Per-op `StoreHandle::read` / `update_with`.
pub fn store_op(streams: &[Stream], handles: &mut [StoreHandle], phase: Phase) -> RungOut {
    drive(Rung::StoreOp, streams, handles, phase, |h, stream, lane| {
        let width = h.store().width();
        per_op_round(stream, lane, width, ["store.update", "store.read"], |key, reads, buf| {
            if reads { h.read(key, buf) } else { h.update_with(key, buf, add_delta) }
                .map_err(|e| e.to_string())
        });
    })
}

/// `StoreHandle::update_many_with` / `read_many_into`. Traced, every
/// batched read is followed by a `read` loop over the same keys, so the
/// two can be compared.
pub fn store_batch(streams: &[Stream], handles: &mut [StoreHandle], phase: Phase) -> RungOut {
    let mut handles: Vec<_> = handles.iter_mut().map(|h| (h, Chunk::default())).collect();
    drive(Rung::StoreBatch, streams, &mut handles, phase, |(h, c), stream, lane| {
        let width = h.store().width();
        let n = c.fill(stream, lane.out.done);
        // Whichever of the two reads a chunk's keys first pays their cache
        // misses, so the loop goes first on every other chunk.
        let loop_first = (lane.out.done / n) % 2 == 1;
        if loop_first {
            read_loop(h, lane, c, width);
        }
        let names = ["store.update_many", "store.read_many"];
        send_chunk(lane, c, width, false, names, |reads, keys, vals| {
            if reads {
                h.read_many_into(keys, vals)
            } else {
                h.update_many_with(keys, |_, buf| add_delta(buf))
            }
            .map_err(|e| e.to_string())
        });
        if !loop_first {
            read_loop(h, lane, c, width);
        }
        lane.out.done += n;
    })
}

/// Traced only: a `read` loop over the chunk's read keys, for comparison
/// with `read_many_into` over the same keys. It is no request: it adds
/// no latency sample and no op.
fn read_loop(h: &mut StoreHandle, lane: &mut Lane, c: &Chunk, width: usize) {
    if !lane.tr.on() || c.keys[1].is_empty() {
        return;
    }
    let mut buf = [0u64; MAX_W];
    let buf = &mut buf[..width];
    let t0 = Instant::now();
    let ok = c.keys[1].iter().all(|&k| h.read(k, buf).is_ok() && value_ok(k, buf, 0));
    let t1 = Instant::now();
    lane.tr.span("store.read_loop", None, lane.req(c.ops[1][0]), c.keys[1].len(), t0, t1);
    lane.prev = t1;
    if !ok {
        lane.out.fail(c.ops[1].iter().copied(), || "a read loop read failed".to_owned());
    }
}

/// `MeshHandle::update_batch` (Add, installed values returned) /
/// `read_many_into`.
pub fn mesh(streams: &[Stream], handles: &mut [MeshHandle], phase: Phase) -> RungOut {
    let mut handles: Vec<_> = handles.iter_mut().map(|h| (h, Chunk::default())).collect();
    drive(Rung::Mesh, streams, &mut handles, phase, |(h, c), stream, lane| {
        let width = h.width();
        let operand = InlineVal::from_slice(&delta(width)).expect("workload widths fit inline");
        let n = c.fill(stream, lane.out.done);
        let names = ["mesh.update_batch", "mesh.read_many"];
        send_chunk(lane, c, width, true, names, |reads, keys, vals| {
            if reads {
                h.read_many_into(keys, vals)
            } else {
                h.update_batch(keys, &mut |_| (UpdateKind::Add, operand), Some(vals))
            }
            .map_err(|e| e.to_string())
        });
        lane.out.done += n;
    })
}

/// The request frame of every op of `stream`.
pub fn requests(stream: &Stream, width: usize) -> Vec<Request> {
    (0..stream.len() as u64)
        .map(|i| {
            let key = stream.op_key(i);
            if stream.op_reads(i) {
                Request::Get { key }
            } else {
                Request::Update { key, op: UpdateOp::Add(delta(width)) }
            }
        })
        .collect()
}

/// Checks the reply to op `op` of `stream`.
fn reply_ok(stream: &Stream, op: u64, resp: &Response) -> Result<(), String> {
    let key = stream.op_key(op);
    let floor = u64::from(!stream.op_reads(op));
    match resp {
        Response::Value(v) if value_ok(key, v, floor) => Ok(()),
        other => Err(format!("key {key}: reply {other:?}")),
    }
}

/// Marks the spans of a frame's own calls as parts of its request.
const REQUEST: Option<&str> = Some("server.request");

/// One connection of the server runner and the frames in flight on it.
struct Conn<'a> {
    client: &'a mut Client,
    reqs: &'a [Request],
    sent: u64,
    sent_at: [Instant; DEPTH],
    dead: bool,
}

impl Conn<'_> {
    /// Buffers the lane's next frame.
    fn send(&mut self, lane: &mut Lane) {
        let op = self.sent;
        let t0 = Instant::now();
        self.client.send(&self.reqs[(op % self.reqs.len() as u64) as usize]);
        self.sent_at[op as usize % DEPTH] = t0;
        if lane.tr.on() {
            lane.tr.span("server.send", REQUEST, lane.req(op), 1, t0, Instant::now());
        }
        self.sent += 1;
    }

    /// Writes the buffered frames out.
    fn flush(&mut self, lane: &mut Lane) {
        let t0 = Instant::now();
        let res = self.client.flush();
        if lane.tr.on() {
            lane.tr.span("server.flush", REQUEST, lane.req(self.sent - 1), 1, t0, Instant::now());
        }
        if let Err(e) = res {
            self.retire(lane, format!("flush: {e}"));
        }
    }

    /// Fails every frame still in flight and stops using the connection.
    fn retire(&mut self, lane: &mut Lane, why: String) {
        lane.out.fail(lane.out.done..self.sent, || why);
        lane.out.done = self.sent;
        self.dead = true;
    }
}

/// One generator thread keeping [`DEPTH`] frames in flight on each of
/// its connections (one per lane): it takes one reply, checks it, sends
/// the lane's next frame and flushes. A request's latency runs from its
/// send to its reply. At the deadline it stops sending and drains.
pub fn server(
    streams: &[Stream],
    clients: &mut [Client],
    reqs: &[Vec<Request>],
    phase: Phase,
) -> RungOut {
    let mut lanes: Vec<Lane> = (0..streams.len()).map(|id| Lane::new(phase, id)).collect();
    let start = lanes[0].out.start;
    let mut conns: Vec<Conn> = clients
        .iter_mut()
        .zip(reqs)
        .map(|(client, reqs)| Conn { client, reqs, sent: 0, sent_at: [start; DEPTH], dead: false })
        .collect();
    for (c, lane) in conns.iter_mut().zip(&mut lanes) {
        for _ in 0..DEPTH {
            c.send(lane);
        }
        c.flush(lane);
    }
    let mut stopping = false;
    loop {
        let mut pending = false;
        for ((c, lane), stream) in conns.iter_mut().zip(&mut lanes).zip(streams) {
            let op = lane.out.done;
            if c.dead || op == c.sent {
                continue;
            }
            pending = true;
            let t0 = lane.begin();
            let resp = c.client.recv();
            let t1 = Instant::now();
            lane.prev = t1;
            let sent_t = c.sent_at[op as usize % DEPTH];
            lane.record(t1 - sent_t);
            if lane.tr.on() {
                lane.tr.span("server.recv", REQUEST, lane.req(op), 1, t0, t1);
                lane.tr.span("server.request", None, lane.req(op), 1, sent_t, t1);
            }
            match resp {
                Ok(resp) => {
                    if let Err(e) = reply_ok(stream, op, &resp) {
                        lane.out.fail([op], || e);
                    }
                    lane.out.done += 1;
                }
                Err(e) => {
                    c.retire(lane, format!("recv: {e}"));
                    continue;
                }
            }
            lane.mark();
            if !stopping {
                c.send(lane);
                c.flush(lane);
            }
        }
        if !pending {
            break;
        }
        let deadline = start + phase.slice;
        stopping = stopping || lanes.iter().any(|l| l.prev >= deadline || l.tr.full());
    }
    RungOut { rung: Rung::Server, lanes: lanes.into_iter().map(Lane::finish).collect() }
}

/// Ops the codec replay cycles through.
const CODEC_OPS: usize = 1 << 14;

/// The run's frames replayed through the protocol codec alone: per
/// request, `encode_request`, `decode_request`, `encode_response` and
/// `decode_response` of its reply. Each round trip is checked.
pub fn codec(stream: &Stream, reqs: &[Request], width: usize, phase: Phase) -> LaneOut {
    let n = CODEC_OPS.min(reqs.len());
    let resps: Vec<Response> = (0..n as u64)
        .map(|i| Response::Value(initial(stream.op_key(i) + u64::from(!stream.op_reads(i)), width)))
        .collect();
    let (mut qbuf, mut rbuf) = (Vec::new(), Vec::new());
    let mut lane = Lane::new(phase, 0);
    let deadline = lane.out.start + phase.slice;
    while lane.prev < deadline && !lane.tr.full() {
        let op = lane.out.done;
        let i = (op % n as u64) as usize;
        let t0 = lane.begin();
        qbuf.clear();
        encode_request(&reqs[i], &mut qbuf);
        let req = decode_request(&qbuf);
        rbuf.clear();
        encode_response(&resps[i], &mut rbuf);
        let resp = decode_response(&rbuf);
        lane.end("server.codec", op, 1, t0);
        let req_ok = matches!(&req, Ok(mwllsc_server::proto::Decoded::Frame(q, len)) if *q == reqs[i] && *len == qbuf.len());
        let resp_ok = matches!(&resp, Ok(mwllsc_server::proto::Decoded::Frame(r, len)) if *r == resps[i] && *len == rbuf.len());
        if !(req_ok && resp_ok) {
            lane.out.fail([op], || {
                format!("codec round trip of {:?} gave {req:?} / {resp:?}", reqs[i])
            });
        }
        lane.out.done += 1;
    }
    lane.finish()
}
