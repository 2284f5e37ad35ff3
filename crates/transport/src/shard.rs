//! The flat switch side of the data plane: one thread per switch
//! shard, with no locks anywhere on the aggregation path.
//!
//! The paper's design (§3.5) shards "slots and chunks of tensors across
//! cores without any shared state": the Tofino pipeline is naturally
//! parallel per packet, and the DPDK workers pin one slot range + one
//! contiguous chunk range to each core, with NIC Flow Director steering
//! each result packet back to the core that owns its slot. The switch
//! becomes `n_cores` **shards**, each its own thread with its own
//! [`ReliableSwitch`] and its own fabric endpoint. Shard `j` owns pool
//! slots `[j·s/c, (j+1)·s/c)` — the identical partition the worker
//! engines apply ([`crate::reactor`]), so a shard only ever receives
//! updates for slots it owns and the shards never share a byte of
//! state. The per-core endpoint plays the role of a
//! Flow-Director-steered NIC queue: shard `j` multicasts results only
//! to the `n` core-`j` endpoints.
//!
//! `shard_switch_loop` is the one flat switch loop: the plain
//! runner's switch is shard 0 of 1 (`worker_core_endpoint(w, 0, 1) ==
//! worker_endpoint(w)`), and so is the spine of a two-level tree.
//! Shards aggregate borrowed [`PacketView`]s into slot registers and
//! encode responses from them
//! ([`switchml_core::switch::reliable::ReliableSwitch::on_view`]), so
//! the per-packet path is allocation-free in steady state.
//!
//! ## Endpoint layout
//!
//! With `c = n_cores` and `n` workers, the fabric has `c·(n+1)`
//! endpoints: shard `j` is endpoint `j`, and worker `w`'s core `j` is
//! endpoint `c + w·c + j` (see [`shard_endpoint`] /
//! [`worker_core_endpoint`]).

use crate::port::{BurstBuf, IdleBackoff, Port, PortStats, TxBatch};
use crate::runner::SCRATCH_CAPACITY;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use switchml_core::config::Protocol;
use switchml_core::error::{Error, Result};
use switchml_core::packet::PacketView;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::{SwitchStats, WireAction};

/// Fabric endpoint of switch shard `j`.
pub fn shard_endpoint(shard: usize) -> usize {
    shard
}

/// Fabric endpoint of worker `wid`'s core `core` (out of `n_cores`).
pub fn worker_core_endpoint(wid: usize, core: usize, n_cores: usize) -> usize {
    n_cores + wid * n_cores + core
}

/// Number of fabric endpoints a sharded run needs.
pub fn sharded_fabric_size(n_workers: usize, n_cores: usize) -> usize {
    n_cores * (n_workers + 1)
}

/// One switch shard: a full reliable switch whose traffic is restricted
/// (by the endpoint layout) to its slot range. Results go back to the
/// `n` core-`shard` worker endpoints — the multicast group of this
/// "queue".
pub(crate) fn shard_switch_loop<P: Port>(
    mut port: P,
    shard: usize,
    n_cores: usize,
    burst: usize,
    proto: &Protocol,
    stop: &AtomicBool,
    deadline: Instant,
) -> Result<(SwitchStats, PortStats)> {
    let n = proto.n_workers;
    let mut switch = ReliableSwitch::new(proto)?;
    // Debug builds audit every shard against the Algorithm 3
    // reference model (see `switchml_core::oracle`).
    #[cfg(debug_assertions)]
    let mut oracle = switchml_core::oracle::ReliableOracle::for_switch(&switch);
    // Burst-drained, allocation-free steady state: received frames
    // stay in `rxb`'s preallocated slots, responses are encoded into
    // `tx` and staged in `txb`, and the whole burst's responses go out
    // in one batched send.
    let mut rxb = BurstBuf::new(burst, SCRATCH_CAPACITY);
    let mut txb = TxBatch::new(SCRATCH_CAPACITY);
    let mut tx = Vec::with_capacity(SCRATCH_CAPACITY);
    // Reactor-style non-blocking poll (the `Duration::ZERO` contract):
    // the shard never parks inside the transport, so the same loop
    // shape serves blocking-averse hosts and lets the hierarchy's
    // leaf/spine loops share the pattern. A miss yields, a persistent
    // miss naps (bounded), so idle shards don't starve worker threads.
    let mut idle = IdleBackoff::new();
    while !stop.load(Ordering::Acquire) {
        if Instant::now() > deadline {
            return Err(Error::ProtocolViolation(format!(
                "switch shard {shard} exceeded the wall-clock budget"
            )));
        }
        if port.recv_batch(&mut rxb, Duration::ZERO) == 0 {
            idle.idle(None);
            continue;
        }
        idle.progress();
        txb.clear();
        for (_from, frame) in rxb.iter() {
            let Ok(view) = PacketView::parse(frame) else {
                continue; // corrupted / foreign datagram
            };
            // A malformed update (bad slot, wid, k or phase offset) is
            // counted in the switch's `rejected` stat and dropped; the
            // shard keeps serving everyone else.
            let Ok(action) = switch.on_view(&view, &mut tx) else {
                continue;
            };
            #[cfg(debug_assertions)]
            if view.kind() == switchml_core::packet::PacketKind::Update {
                if let Err(v) = oracle.observe_update(
                    view.wid(),
                    view.ver(),
                    view.idx(),
                    view.off(),
                    &view,
                    switchml_core::oracle::ObservedAction::of_wire(&action),
                    &switch,
                ) {
                    panic!("switch shard {shard} violated a protocol invariant: {v}");
                }
            }
            match action {
                WireAction::Multicast => {
                    for w in 0..n {
                        txb.push(worker_core_endpoint(w, shard, n_cores))
                            .extend_from_slice(&tx);
                    }
                }
                WireAction::Unicast(wid) => {
                    txb.push(worker_core_endpoint(wid as usize, shard, n_cores))
                        .extend_from_slice(&tx);
                }
                WireAction::Drop => {}
            }
        }
        txb.flush(&mut port);
    }
    Ok((switch.stats(), port.stats()))
}

/// Convenience: an in-memory fabric sized for a sharded run.
pub fn sharded_channel_fabric(
    n_workers: usize,
    n_cores: usize,
) -> Vec<crate::channel::ChannelPort> {
    crate::channel::channel_fabric(sharded_fabric_size(n_workers, n_cores))
}
