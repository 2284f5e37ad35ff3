//! Run-to-completion reactor: the one worker-side executor for every
//! Fixed32 engine runner.
//!
//! The paper's worker pins one slot range + one contiguous chunk range
//! to each DPDK core (§3.5). Here those per-core engines are plain
//! state owned by a small, fixed pool of **reactor threads**; each
//! thread run-to-completion polls its engines' ports non-blockingly
//! (`recv_batch` with `Duration::ZERO` — see [`crate::port::Port`])
//! and drives retransmissions from a per-thread hashed
//! [`TimerWheel`](crate::wheel::TimerWheel) instead of per-engine
//! blocking timeouts. Worker count is therefore decoupled from thread
//! count: hundreds of engines on a handful of threads, or — with
//! `n_threads = n_workers × n_cores` — one thread per engine, the
//! paper's one-core-per-engine layout. Either way the wire traffic is
//! the same and the result is bit-identical to the sequential
//! reference (integer aggregation is order-independent, quantization
//! deterministic).
//!
//! The same `EngineCtx` serves the flat star
//! ([`run_allreduce_reactor`]: each engine speaks to its switch shard,
//! `shard::shard_switch_loop`) and the two-level tree
//! ([`crate::hier::run_allreduce_hier`]: each virtual worker speaks to
//! its rack's leaf and carries a handle on the rack's epoch and
//! snapshot rendezvous).
//!
//! ## Ownership model (why no locks)
//!
//! Engine contexts are partitioned round-robin across reactor threads
//! at spawn and never migrate: thread `t` exclusively owns engines
//! `t, t + T, t + 2T, …` — their `SlotEngine` state, their ports,
//! their scratch buffers, their slice of the result tensor, and their
//! timers (each thread's wheel only holds its own engines). Nothing
//! on the data path is shared mutably, so there is not a single lock
//! or atomic on the per-packet path; the only cross-thread state is
//! the stop flag, the final result hand-off at join, and — on a tree —
//! the rack epoch, read once per burst.

use crate::hier::RackLink;
use crate::port::{BurstBuf, IdleBackoff, Port, PortStats, TxBatch};
use crate::runner::{resolve_run_proto, RunConfig, RunReport, SCRATCH_CAPACITY};
use crate::shard::{shard_endpoint, shard_switch_loop, sharded_fabric_size};
use crate::wheel::TimerWheel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchml_core::config::{NumericMode, Protocol, TimeNs};
use switchml_core::error::{Error, Result};
use switchml_core::packet::{encode_update_into, PacketKind, PacketView, WireElems, WorkerId};
use switchml_core::quant::fixed::{dequantize_chunk, quantize_chunk};
use switchml_core::switch::SwitchStats;
use switchml_core::worker::engine::{
    EngineConfig, EngineStats, ResultOutcome, SendDescriptor, SlotEngine,
};

/// Timer-wheel granularity. Coarse relative to packet service time,
/// fine relative to any sane RTO (the runners clamp RTOs to ≥ 100 µs
/// on real transports anyway), so wheel rounding adds at most one
/// tick of retransmission latency.
pub(crate) const WHEEL_TICK_NS: TimeNs = 50_000;

/// Buckets per wheel: one revolution spans 256 × 50 µs = 12.8 ms,
/// comfortably above the RTO range, so cascades only occur under
/// heavy exponential backoff.
pub(crate) const WHEEL_BUCKETS: usize = 256;

/// Event-loop health counters, aggregated over all reactor threads of
/// a run and surfaced through [`RunReport::reactor`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReactorStats {
    /// Reactor threads the run used.
    pub threads: u64,
    /// Worker engines driven (n_workers × n_cores).
    pub engines: u64,
    /// Non-blocking receive polls issued.
    pub polls: u64,
    /// Polls that returned at least one frame.
    pub rx_batches: u64,
    /// Timer-wheel expirations delivered to engines.
    pub timer_fires: u64,
    /// Timer-wheel entries re-circulated because their deadline lay a
    /// full revolution ahead (high = wheel mis-sized for the RTOs).
    pub cascades: u64,
    /// Times an idle thread napped instead of spinning.
    pub idle_sleeps: u64,
}

impl ReactorStats {
    /// Fold another thread's counters into this one.
    pub fn merge(&mut self, other: ReactorStats) {
        self.threads += other.threads;
        self.engines += other.engines;
        self.polls += other.polls;
        self.rx_batches += other.rx_batches;
        self.timer_fires += other.timer_fires;
        self.cascades += other.cascades;
        self.idle_sleeps += other.idle_sleeps;
    }

    /// Receive polls per second of wall time.
    pub fn polls_per_sec(&self, wall: Duration) -> f64 {
        self.polls as f64 / wall.as_secs_f64().max(1e-9)
    }

    /// Average engines multiplexed per reactor thread.
    pub fn engines_per_thread(&self) -> f64 {
        self.engines as f64 / (self.threads as f64).max(1.0)
    }
}

/// The input prologue every engine runner shares: Fixed32 only, one
/// update set per worker, identical tensor shapes across workers; each
/// worker's tensors flattened into one stream that its engines read.
pub(crate) struct FlatInputs {
    shapes: Vec<usize>,
    /// Per-worker flattened tensors, shared read-only by its engines.
    flat: Vec<Arc<Vec<f32>>>,
    /// Elements per flattened stream.
    pub(crate) total: usize,
}

impl FlatInputs {
    pub(crate) fn new(
        runner: &str,
        proto: &Protocol,
        updates: Vec<Vec<Vec<f32>>>,
    ) -> Result<FlatInputs> {
        if proto.mode != NumericMode::Fixed32 {
            return Err(Error::InvalidConfig(format!(
                "{runner} runner supports Fixed32 only"
            )));
        }
        if updates.len() != proto.n_workers {
            return Err(Error::InvalidConfig(format!(
                "need {} update sets, got {}",
                proto.n_workers,
                updates.len()
            )));
        }
        let shapes: Vec<usize> = updates[0].iter().map(|t| t.len()).collect();
        for (w, tensors) in updates.iter().enumerate() {
            if !tensors.iter().map(|t| t.len()).eq(shapes.iter().copied()) {
                return Err(Error::InvalidConfig(format!(
                    "worker {w}'s tensor shapes disagree with worker 0's"
                )));
            }
        }
        // One tensor is already flat: move it instead of copying.
        let flat = updates
            .into_iter()
            .map(|mut tensors| match tensors.len() {
                1 => Arc::new(tensors.pop().expect("one tensor")),
                _ => Arc::new(tensors.into_iter().flatten().collect::<Vec<f32>>()),
            })
            .collect();
        let total = shapes.iter().sum();
        Ok(FlatInputs {
            shapes,
            flat,
            total,
        })
    }

    /// Split a flattened result back into the caller's tensor shapes;
    /// a single tensor is the flat result itself.
    pub(crate) fn split(&self, flat_result: Vec<f32>) -> Vec<Vec<f32>> {
        if self.shapes.len() == 1 {
            return vec![flat_result];
        }
        let mut off = 0usize;
        self.shapes
            .iter()
            .map(|&len| {
                off += len;
                flat_result[off - len..off].to_vec()
            })
            .collect()
    }
}

/// Quantize + encode one update into a staged batch frame, entirely
/// within reused scratch buffers, stamped with job generation `epoch`.
#[allow(clippy::too_many_arguments)]
fn stage_update(
    txb: &mut TxBatch,
    dest: usize,
    wid: WorkerId,
    k: usize,
    data: &[f32],
    f: f64,
    qbuf: &mut [i32],
    d: SendDescriptor,
    epoch: u8,
) {
    let off = d.off as usize;
    let n = k.min(data.len() - off);
    quantize_chunk(&data[off..off + n], f, &mut qbuf[..n]);
    // The wire format always carries exactly k elements; a ragged
    // final chunk is zero-padded (additive identity).
    qbuf[n..k].fill(0);
    encode_update_into(
        wid,
        d.ver,
        d.slot,
        d.off,
        epoch,
        d.retransmission,
        &qbuf[..k],
        txb.push(dest),
    );
}

/// Everything one worker engine needs, owned exclusively by its
/// reactor thread.
pub(crate) struct EngineCtx<P: Port> {
    port: P,
    engine: SlotEngine,
    /// Where updates go: a switch shard, or the rack's leaf.
    dest: usize,
    /// Wire worker id: the global index on a flat fabric, the
    /// rack-local index on a tree.
    wid: WorkerId,
    /// Global worker index (for result placement at join).
    w: usize,
    data: Arc<Vec<f32>>,
    elem_lo: usize,
    /// This engine's slice of the aggregated tensor.
    local: Vec<f32>,
    qbuf: Vec<i32>,
    rxb: BurstBuf,
    txb: TxBatch,
    done: bool,
    /// Set by the wheel sweep, consumed right after it: this engine
    /// retransmitted and its timer must be re-armed.
    pending_rearm: bool,
    /// The rack's epoch and snapshot rendezvous (tree runs only);
    /// without one the job generation is a constant 0.
    rack: Option<RackLink>,
}

impl<P: Port> EngineCtx<P> {
    /// An engine over `ecfg`'s slot/chunk partition of worker `w`'s
    /// flattened tensor, sending its updates to endpoint `dest`.
    pub(crate) fn new(
        port: P,
        ecfg: EngineConfig,
        dest: usize,
        w: usize,
        inputs: &FlatInputs,
        burst: usize,
        rack: Option<RackLink>,
    ) -> Result<Self> {
        let k = ecfg.k;
        let elem_lo = (ecfg.chunk_base as usize * k).min(inputs.total);
        let elem_hi = ((ecfg.chunk_base + ecfg.n_chunks) as usize * k).min(inputs.total);
        Ok(EngineCtx {
            port,
            wid: ecfg.wid,
            engine: SlotEngine::new(ecfg)?,
            dest,
            w,
            data: Arc::clone(&inputs.flat[w]),
            elem_lo,
            local: vec![0.0f32; elem_hi - elem_lo],
            qbuf: vec![0i32; k],
            rxb: BurstBuf::new(burst, SCRATCH_CAPACITY),
            txb: TxBatch::new(SCRATCH_CAPACITY),
            done: false,
            pending_rearm: false,
            rack,
        })
    }

    fn epoch(&self) -> u8 {
        self.rack.as_ref().map_or(0, RackLink::epoch)
    }

    /// Stage and flush the engine's sends, stamped with the current
    /// epoch.
    fn emit(&mut self, sends: Vec<SendDescriptor>, k: usize, f: f64) {
        let epoch = self.epoch();
        for d in sends {
            stage_update(
                &mut self.txb,
                self.dest,
                self.wid,
                k,
                &self.data,
                f,
                &mut self.qbuf,
                d,
                epoch,
            );
        }
        self.txb.flush(&mut self.port);
    }

    /// Mark the engine done. Terminal snapshot publish: this thread
    /// may exit before the leaf ever asks.
    fn finish(&mut self) {
        self.done = true;
        if let Some(rack) = &self.rack {
            rack.publish(&self.engine);
        }
    }

    /// Drain one received burst into the engine: accept results,
    /// dequantize into the local slice, stage follow-up updates.
    fn process_rx(&mut self, k: usize, f: f64, now: TimeNs) -> Result<()> {
        let epoch = self.epoch();
        let EngineCtx {
            port,
            engine,
            dest,
            wid,
            data,
            elem_lo,
            local,
            qbuf,
            rxb,
            txb,
            ..
        } = self;
        for (_from, frame) in rxb.iter() {
            let Ok(view) = PacketView::parse(frame) else {
                continue; // corrupted / foreign datagram
            };
            // Defensive filters: only full-k results for slots this
            // engine owns. The epoch filter is the worker half of
            // rack-scoped fencing: results multicast by a dead leaf
            // generation must not advance this engine past the
            // snapshot it will publish for the replacement.
            if view.kind() != PacketKind::Result
                || !engine.owns_slot(view.idx())
                || view.k() != k
                || view.epoch() != epoch
            {
                continue;
            }
            match engine.on_result(view.idx(), view.ver(), view.off(), now)? {
                ResultOutcome::Accepted { off, next } => {
                    // A ragged final chunk only carries n live
                    // elements; the rest is padding.
                    let off = off as usize;
                    let n = k.min(data.len() - off);
                    view.overwrite_into(&mut qbuf[..k]);
                    dequantize_chunk(
                        &qbuf[..n],
                        f,
                        &mut local[off - *elem_lo..off - *elem_lo + n],
                    );
                    if let Some(d) = next {
                        stage_update(txb, *dest, *wid, k, data, f, qbuf, d, epoch);
                    }
                }
                ResultOutcome::Stale => {}
            }
        }
        txb.flush(port);
        Ok(())
    }
}

/// What one reactor thread hands back: each engine's
/// `(worker, elem_lo, result slice, stats)`, the summed port stats,
/// and the thread's loop counters.
type ThreadOutcome = (
    Vec<(usize, usize, Vec<f32>, EngineStats)>,
    PortStats,
    ReactorStats,
);

/// One reactor thread: run-to-completion over its owned engines.
fn reactor_thread_loop<P: Port>(
    mut ctxs: Vec<EngineCtx<P>>,
    k: usize,
    f: f64,
    epoch0: Instant,
    deadline: Instant,
) -> Result<ThreadOutcome> {
    let now_ns = || epoch0.elapsed().as_nanos() as u64;
    let mut wheel = TimerWheel::new(ctxs.len(), WHEEL_TICK_NS, WHEEL_BUCKETS);
    let mut stats = ReactorStats {
        threads: 1,
        engines: ctxs.len() as u64,
        ..ReactorStats::default()
    };
    let mut pending = 0usize;

    // Launch phase: emit every engine's initial window and arm its
    // timer from its own deadline.
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        let sends = ctx.engine.start(now_ns());
        ctx.emit(sends, k, f);
        if ctx.engine.is_done() {
            ctx.finish(); // zero-chunk engine
        } else {
            pending += 1;
            if let Some(dl) = ctx.engine.next_deadline() {
                wheel.schedule(i, dl);
            }
        }
    }

    // A quiet loop yields, a persistently quiet loop naps until the
    // next deadline (capped) — this is what lets dozens of engines
    // share one hardware thread with the switch threads.
    let mut idle = IdleBackoff::new();
    while pending > 0 {
        if Instant::now() > deadline {
            let stuck: Vec<String> = ctxs
                .iter()
                .filter(|c| !c.done)
                .map(|c| {
                    format!(
                        "w{}@ep{} {}/{}",
                        c.w,
                        c.dest,
                        c.engine.completed_chunks(),
                        c.engine.config().n_chunks
                    )
                })
                .collect();
            return Err(Error::ProtocolViolation(format!(
                "reactor thread exceeded the wall-clock budget; unfinished engines: {}",
                stuck.join(", ")
            )));
        }
        let mut progress = false;

        // Poll phase: one non-blocking burst receive per live engine.
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            // Snapshot requests are checked *before* any packet work:
            // once published, the engine can only advance on results
            // stamped with the new epoch.
            if let Some(rack) = &mut ctx.rack {
                rack.poll_snapshot(&ctx.engine);
            }
            if ctx.done {
                continue;
            }
            stats.polls += 1;
            if ctx.port.recv_batch(&mut ctx.rxb, Duration::ZERO) > 0 {
                stats.rx_batches += 1;
                progress = true;
                ctx.process_rx(k, f, now_ns())?;
                if ctx.engine.is_done() {
                    ctx.finish();
                    pending -= 1;
                    wheel.cancel(i);
                } else if let Some(dl) = ctx.engine.next_deadline() {
                    // Progress re-arms the engine's deadline; mirror it
                    // on the wheel (supersedes the old entry).
                    wheel.schedule(i, dl);
                }
            }
        }

        // Timer phase: sweep the wheel; fired engines retransmit and
        // re-arm (Algorithm 4's timeout handler, Jacobson/Karn state
        // all inside the engine).
        let t = now_ns();
        let fired = wheel.advance(t, |i| {
            let ctx = &mut ctxs[i];
            if ctx.done {
                return;
            }
            let sends = ctx.engine.expired(t);
            ctx.emit(sends, k, f);
            ctx.pending_rearm = true;
        });
        // Re-arm outside the sweep (the wheel is borrowed during it).
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            if ctx.pending_rearm {
                ctx.pending_rearm = false;
                if let Some(dl) = ctx.engine.next_deadline() {
                    wheel.schedule(i, dl);
                }
            }
        }
        if fired > 0 {
            stats.timer_fires += fired as u64;
            progress = true;
        }

        if progress {
            idle.progress();
        } else {
            idle.idle(wheel.next_deadline().map(|d| d.saturating_sub(now_ns())));
        }
    }
    stats.cascades = wheel.cascades();
    stats.idle_sleeps = idle.naps();

    let mut port_stats = PortStats::default();
    let mut out = Vec::with_capacity(ctxs.len());
    for ctx in ctxs {
        port_stats.merge(ctx.port.stats());
        out.push((ctx.w, ctx.elem_lo, ctx.local, ctx.engine.stats()));
    }
    Ok((out, port_stats, stats))
}

/// What a run's engines hand back at join, stitched per worker.
pub(crate) struct EnginesOutcome {
    /// Per-worker flattened result tensors.
    pub(crate) results: Vec<Vec<f32>>,
    pub(crate) worker_stats: Vec<EngineStats>,
    pub(crate) port_stats: PortStats,
    pub(crate) reactor: ReactorStats,
}

/// Drive `batches` — one per reactor thread — to completion, then
/// stitch each engine's slice into its worker's flattened result.
pub(crate) fn run_engines<P: Port>(
    batches: Vec<Vec<EngineCtx<P>>>,
    inputs: &FlatInputs,
    proto: &Protocol,
    epoch0: Instant,
    deadline: Instant,
) -> Result<EnginesOutcome> {
    let (k, f) = (proto.k, proto.scaling_factor);
    std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|ctxs| scope.spawn(move || reactor_thread_loop(ctxs, k, f, epoch0, deadline)))
            .collect();
        let mut out = EnginesOutcome {
            results: vec![Vec::new(); proto.n_workers],
            worker_stats: vec![EngineStats::default(); proto.n_workers],
            port_stats: PortStats::default(),
            reactor: ReactorStats::default(),
        };
        let mut first_err = None;
        for h in handles {
            match h.join().expect("reactor thread panicked") {
                Ok((engines, ps, rs)) => {
                    out.port_stats.merge(ps);
                    out.reactor.merge(rs);
                    for (w, lo, local, st) in engines {
                        let dst = &mut out.results[w];
                        if local.len() == inputs.total {
                            *dst = local; // the whole tensor: move, don't copy
                        } else {
                            dst.resize(inputs.total, 0.0);
                            dst[lo..lo + local.len()].copy_from_slice(&local);
                        }
                        out.worker_stats[w].merge(st);
                    }
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(out), Err)
    })
}

/// Run one all-reduce with `cfg.n_cores` switch shards and **all**
/// `n_workers × n_cores` worker engines multiplexed onto at most
/// `n_threads` reactor threads; `n_threads = n_workers × n_cores`
/// gives every engine its own thread. Bit-identical to the sequential
/// reference on the same inputs.
///
/// `ports` holds [`sharded_fabric_size`] endpoints: shard `j` is
/// endpoint `j`, worker `w`'s core `j` is
/// [`crate::shard::worker_core_endpoint`]. Only
/// [`NumericMode::Fixed32`] is supported: engines quantize directly
/// from the flattened tensor.
pub fn run_allreduce_reactor<P: Port + 'static>(
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    cfg: &RunConfig,
    n_threads: usize,
) -> Result<RunReport> {
    let proto = &resolve_run_proto(proto, &ports)?;
    let n = proto.n_workers;
    let c = cfg.n_cores;
    let inputs = FlatInputs::new("reactor", proto, updates)?;
    if c == 0 {
        return Err(Error::InvalidConfig("n_cores must be > 0".into()));
    }
    if n_threads == 0 {
        return Err(Error::InvalidConfig("n_threads must be > 0".into()));
    }
    if c > proto.pool_size {
        return Err(Error::InvalidConfig(format!(
            "{c} cores need at least {c} pool slots"
        )));
    }
    if ports.len() != sharded_fabric_size(n, c) {
        return Err(Error::InvalidConfig(format!(
            "need {} ports ({c} shards + {n}×{c} worker cores), got {}",
            sharded_fabric_size(n, c),
            ports.len()
        )));
    }
    // More threads than engines is pointless; shrink silently.
    let n_threads = n_threads.min(n * c);
    let total_chunks = (inputs.total as u64).div_ceil(proto.k as u64);
    let s = proto.pool_size;

    let t0 = Instant::now();
    let deadline = t0 + cfg.max_wall;
    let stop = AtomicBool::new(false);

    // Build every (worker, core) engine context, then deal them
    // round-robin into per-thread batches: engine e = w·c + j (the
    // fabric order past the shards) goes to thread e mod n_threads.
    // Round-robin (rather than contiguous blocks) spreads each
    // worker's cores across threads, so one slow thread delays every
    // worker a little instead of one worker a lot.
    let mut ports = ports.into_iter();
    let shard_ports: Vec<P> = ports.by_ref().take(c).collect();
    let mut batches: Vec<Vec<EngineCtx<P>>> = (0..n_threads).map(|_| Vec::new()).collect();
    for (e, port) in ports.enumerate() {
        let (w, j) = (e / c, e % c);
        // The partition Worker::sharded applies: slots and chunks
        // both split j·x/c contiguously, so core j's slots all live
        // on shard j.
        let chunk_lo = (j as u64) * total_chunks / c as u64;
        let chunk_hi = (j as u64 + 1) * total_chunks / c as u64;
        let ecfg = EngineConfig {
            wid: w as WorkerId,
            k: proto.k,
            slot_base: (j * s / c) as u32,
            n_slots: (j + 1) * s / c - j * s / c,
            chunk_base: chunk_lo,
            n_chunks: chunk_hi - chunk_lo,
            rto: Some(proto.rto_ns),
            rto_policy: proto.rto_policy,
        };
        let ctx = EngineCtx::new(port, ecfg, shard_endpoint(j), w, &inputs, cfg.burst, None)?;
        batches[e % n_threads].push(ctx);
    }

    std::thread::scope(|scope| {
        let stop = &stop;
        let shard_handles: Vec<_> = shard_ports
            .into_iter()
            .enumerate()
            .map(|(j, port)| {
                scope.spawn(move || shard_switch_loop(port, j, c, cfg.burst, proto, stop, deadline))
            })
            .collect();
        let engines = run_engines(batches, &inputs, proto, t0, deadline);
        stop.store(true, Ordering::Release);
        let mut switch_stats = SwitchStats::default();
        let mut transport_stats = PortStats::default();
        for h in shard_handles {
            let (st, ps) = h.join().expect("switch shard thread panicked")?;
            switch_stats.merge(st);
            transport_stats.merge(ps);
        }
        let engines = engines?;
        transport_stats.merge(engines.port_stats);
        Ok(RunReport {
            results: engines
                .results
                .into_iter()
                .map(|r| inputs.split(r))
                .collect(),
            worker_stats: engines.worker_stats,
            switch_stats,
            transport_stats,
            reactor: Some(engines.reactor),
            hier: None,
            wall: t0.elapsed(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ScriptedPort;
    use crate::faulty::{faulty_fabric, FaultyConfig};
    use crate::shard::{sharded_channel_fabric, worker_core_endpoint};
    use crate::udp::udp_fabric;
    use switchml_core::agg::allreduce;
    use switchml_core::config::RtoPolicy;
    use switchml_core::packet::PoolVersion;

    fn proto(n: usize) -> Protocol {
        Protocol {
            n_workers: n,
            k: 8,
            pool_size: 16,
            rto_ns: 2_000_000, // 2 ms real time
            scaling_factor: 10_000.0,
            ..Protocol::default()
        }
    }

    fn updates(n: usize, elems: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![(0..elems)
                    .map(|i| (w + 1) as f32 + (i % 5) as f32 * 0.1)
                    .collect()]
            })
            .collect()
    }

    /// Two tensors of different sizes per worker: the flatten/split
    /// must be invisible to the caller.
    fn multi_tensor_updates(n: usize) -> Vec<Vec<Vec<f32>>> {
        (0..n)
            .map(|w| {
                vec![
                    vec![(w + 1) as f32; 37],
                    (0..100).map(|i| (w as f32) + i as f32 * 0.01).collect(),
                ]
            })
            .collect()
    }

    /// Three-way differential: the reactor multiplexing engines onto
    /// two threads == the reactor with one thread per engine == the
    /// sequential in-process reference, bit for bit — on a ragged
    /// single tensor and on a multi-tensor input.
    #[test]
    fn reactor_matches_threaded_and_reference() {
        let n = 3;
        let c = 2;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        // 333 elements leave a ragged final chunk.
        for input in [updates(n, 333), multi_tensor_updates(n)] {
            let reactor =
                run_allreduce_reactor(sharded_channel_fabric(n, c), input.clone(), &p, &cfg, 2)
                    .unwrap();
            let threaded =
                run_allreduce_reactor(sharded_channel_fabric(n, c), input.clone(), &p, &cfg, n * c)
                    .unwrap();
            let reference = allreduce(&input, &p).unwrap();
            for w in 0..n {
                assert_eq!(reactor.results[w], threaded.results[w], "worker {w}");
                assert_eq!(reactor.results[w], reference, "worker {w} vs reference");
            }
            let total: usize = input[0].iter().map(|t| t.len()).sum();
            // Every chunk completes exactly once, summed across shards.
            assert_eq!(reactor.switch_stats.completions, total.div_ceil(8) as u64);
            let rs = reactor.reactor.expect("reactor stats present");
            assert_eq!(rs.threads, 2);
            assert_eq!(rs.engines, (n * c) as u64);
            assert!(rs.polls > 0);
            assert!(rs.rx_batches > 0);
            assert_eq!(threaded.reactor.unwrap().threads, (n * c) as u64);
        }
    }

    /// The headline scaling case: 64 virtual workers on 4 reactor
    /// threads (+1 shard thread) — a topology thread-per-worker cannot
    /// even spawn within budget on a small host — completing
    /// bit-identical to the sequential reference.
    #[test]
    fn sixty_four_workers_on_four_threads() {
        let n = 64;
        let c = 1;
        let elems = 96;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report =
            run_allreduce_reactor(sharded_channel_fabric(n, c), updates(n, elems), &p, &cfg, 4)
                .unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        let rs = report.reactor.unwrap();
        assert_eq!(rs.threads, 4);
        assert_eq!(rs.engines, 64);
        assert!(rs.engines_per_thread() >= 16.0);
    }

    /// Loss + adaptive RTO on the wheel, at 2 and 4 cores per worker:
    /// retransmissions recover the run, Jacobson's estimator takes
    /// clean samples, and the answer is still exact.
    #[test]
    fn reactor_loss_with_adaptive_rto_recovers() {
        let n = 2;
        let elems = 400;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        for c in [2, 4] {
            let (ports, loss_stats) = faulty_fabric(
                sharded_channel_fabric(n, c),
                FaultyConfig::loss_only(0.05),
                77,
            );
            let cfg = RunConfig {
                n_cores: c,
                ..RunConfig::default()
            };
            let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
            let reference = allreduce(&updates(n, elems), &p).unwrap();
            for w in 0..n {
                assert_eq!(report.results[w], reference, "cores {c} worker {w}");
            }
            assert!(loss_stats.dropped() > 0, "5% loss should drop something");
            let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
            assert!(retx > 0, "losses must trigger wheel-driven retransmissions");
            let samples: u64 = report.worker_stats.iter().map(|s| s.rtt_samples).sum();
            assert!(samples > 0, "adaptive estimator must take clean samples");
            assert!(report.reactor.unwrap().timer_fires > 0);
        }
    }

    /// A straggling engine (its port stalls every receive) delays but
    /// does not corrupt: the wheel keeps its retransmissions flowing
    /// and the final tensor is still bit-identical.
    #[test]
    fn reactor_straggler_is_bit_identical() {
        let n = 2;
        let c = 1;
        let elems = 200;
        let p = proto(n);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let raw = sharded_channel_fabric(n, c);
        let ports: Vec<_> = raw
            .into_iter()
            .enumerate()
            .map(|(ep, port)| {
                // Worker 1's (only) core endpoint straggles.
                let stall = if ep == worker_core_endpoint(1, 0, c) {
                    Duration::from_micros(300)
                } else {
                    Duration::ZERO
                };
                ScriptedPort::new(port, stall, None)
            })
            .collect();
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
    }

    /// A stray update from a worker id outside the job (wid 7 of 2) is
    /// counted and dropped by the switch shard, which keeps serving:
    /// the run still completes bit-identical.
    #[test]
    fn reactor_stray_update_is_counted_and_dropped() {
        let n = 2;
        let elems = 200;
        let p = proto(n);
        let mut ports = sharded_channel_fabric(n, 1);
        let mut stray = Vec::new();
        encode_update_into(7, PoolVersion::V0, 0, 0, 0, false, &[1; 8], &mut stray);
        ports[worker_core_endpoint(0, 0, 1)].send(shard_endpoint(0), &stray);
        let report =
            run_allreduce_reactor(ports, updates(n, elems), &p, &RunConfig::default(), 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert_eq!(report.switch_stats.rejected, 1);
    }

    /// Real kernel datagrams through the zero-timeout poll path.
    #[test]
    fn reactor_udp_smoke() {
        let n = 2;
        let c = 2;
        let elems = 256;
        let p = proto(n);
        let ports = udp_fabric(sharded_fabric_size(n, c)).unwrap();
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
    }

    /// Reactor × UDP GRO × 5% loss — the combination the channel-only
    /// loss test above cannot cover. `batch_loss_only` keeps faulty
    /// burst I/O on `UdpPort`'s own batch path: outgoing bursts still
    /// coalesce into GSO super-datagrams (minus the dropped frames)
    /// and receives delegate to the GRO path, which engages because
    /// the reactor's `RunConfig::burst` (8) meets `UDP_GRO`'s minimum
    /// burst. Loss must be recovered by wheel-driven retransmissions
    /// and the result must still be bit-identical to the sequential
    /// reference.
    #[test]
    fn reactor_udp_gro_loss_is_bit_identical() {
        let n = 2;
        let c = 2;
        let elems = 400;
        let p = Protocol {
            rto_policy: RtoPolicy::Adaptive {
                min_ns: 200_000,
                max_ns: 50_000_000,
            },
            ..proto(n)
        };
        let base = udp_fabric(sharded_fabric_size(n, c)).unwrap();
        let (ports, loss_stats) = faulty_fabric(base, FaultyConfig::batch_loss_only(0.05), 77);
        let cfg = RunConfig {
            n_cores: c,
            ..RunConfig::default()
        };
        assert!(cfg.burst >= 8, "burst below UDP_GRO's minimum: GRO off");
        let report = run_allreduce_reactor(ports, updates(n, elems), &p, &cfg, 2).unwrap();
        let reference = allreduce(&updates(n, elems), &p).unwrap();
        for w in 0..n {
            assert_eq!(report.results[w], reference, "worker {w}");
        }
        assert!(loss_stats.dropped() > 0, "5% loss should drop something");
        assert_eq!(
            report.transport_stats.injected_send_drops,
            loss_stats.dropped(),
            "per-port injected counters must survive the batch path"
        );
        let retx: u64 = report.worker_stats.iter().map(|s| s.retx).sum();
        assert!(retx > 0, "losses must trigger wheel-driven retransmissions");
        assert!(report.reactor.unwrap().timer_fires > 0);
    }

    #[test]
    fn reactor_misconfiguration_rejected() {
        let n = 2;
        let cfg = RunConfig {
            n_cores: 1,
            ..RunConfig::default()
        };
        let run = |ports, updates, p: &Protocol, cfg: &RunConfig, threads| {
            run_allreduce_reactor(ports, updates, p, cfg, threads).is_err()
        };
        // Zero reactor threads.
        assert!(run(
            sharded_channel_fabric(n, 1),
            updates(n, 16),
            &proto(n),
            &cfg,
            0
        ));
        // Wrong port count.
        assert!(run(
            sharded_channel_fabric(n, 2),
            updates(n, 16),
            &proto(n),
            &cfg,
            1
        ));
        // Non-Fixed32 mode.
        let p16 = Protocol {
            mode: NumericMode::Float16,
            ..proto(n)
        };
        assert!(run(
            sharded_channel_fabric(n, 1),
            updates(n, 16),
            &p16,
            &cfg,
            1
        ));
        // More cores than pool slots.
        let big = RunConfig {
            n_cores: 32,
            ..RunConfig::default()
        };
        assert!(run(
            sharded_channel_fabric(n, 32),
            updates(n, 16),
            &proto(n),
            &big,
            1
        ));
        // Tensor shapes that disagree between workers.
        let bad = vec![vec![vec![1.0f32; 8]], vec![vec![1.0f32; 9]]];
        assert!(run(sharded_channel_fabric(n, 1), bad, &proto(n), &cfg, 1));
    }
}
