//! UDP loopback transport: the protocol over real sockets.
//!
//! Each endpoint binds an ephemeral 127.0.0.1 socket; the fabric
//! builder exchanges addresses up front (the static rack wiring of the
//! paper's deployment). UDP gives exactly the delivery model SwitchML
//! assumes — unordered, unreliable datagrams — so the worker-driven
//! retransmission path is exercised for real whenever the kernel
//! drops under load.
//!
//! ## The burst fast path
//!
//! The paper's end host reaches line rate only by amortizing
//! per-packet I/O cost: DPDK workers pull *bursts* of packets per core
//! (§5.2). The kernel-socket analogue has two layers, both used by
//! [`UdpPort::send_batch`]/[`UdpPort::recv_batch`] on 64-bit Linux
//! (declared directly against the C ABI below; other targets fall back
//! to the [`Port`] trait's per-datagram loop):
//!
//! * **`sendmmsg`/`recvmmsg`** — one syscall moves a whole burst,
//!   amortizing syscall entry and the per-call `recvmmsg` setup;
//! * **UDP GSO/GRO** — on virtualized hosts syscall entry is cheap and
//!   the dominant cost is the per-datagram traversal of the network
//!   stack itself. `send_batch` groups a whole batch by destination,
//!   so each destination's equal-size frames (a multicast `w0,w1,…`
//!   repeated included) become *one* `UDP_SEGMENT` super-datagram (one
//!   skb through the stack, split at delivery), and a receiver whose
//!   burst capacity is at least [`GRO_MIN_BURST`] opts into `UDP_GRO`,
//!   so a whole train arrives in one `recvmsg` and is split in
//!   userspace. Either side degrades independently: a GSO train sent
//!   to a non-GRO socket is segmented by the kernel at delivery, and a
//!   GRO socket receives plain datagrams as trains of one.
//!
//! Three further per-packet costs are engineered away:
//!
//! * the kernel read timeout is **cached** and only re-armed when the
//!   requested timeout actually changes (the old code issued a
//!   `setsockopt` before *every* receive);
//! * sender lookup is a prebuilt `HashMap<SocketAddr, usize>` instead
//!   of a linear scan of the peer table, with a last-sender raw-bytes
//!   cache in front of it on the batch path;
//! * receives run **spin-then-block**: while traffic is flowing
//!   ("hot"), the port polls non-blocking (`MSG_DONTWAIT`) for a short
//!   spin budget before falling back to a blocking wait — so a loaded
//!   switch loop never touches the timeout machinery at all, and an
//!   idle one parks in the kernel instead of burning the CPU.

use crate::port::{BurstBuf, Port, PortStats};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;
use switchml_core::packet::{HEADER_LEN, MAX_K};

/// Largest datagram we expect (max-`k` packet + headroom).
const MAX_DATAGRAM: usize = HEADER_LEN + 4 * MAX_K + 36;

/// Most messages one `sendmmsg`/`recvmmsg` call moves; larger bursts
/// are split. Bounds the per-call stack arrays.
pub const MAX_WIRE_BURST: usize = 64;

/// Most frames (GSO segments) one `sendmmsg` call carries.
const MAX_WIRE_IOVS: usize = 8 * MAX_WIRE_BURST;

/// Non-blocking polls attempted while "hot" before arming the blocking
/// timeout. Loopback delivery is synchronous, so a small budget is
/// enough to catch a peer that is actively transmitting.
const SPIN_POLLS: u32 = 32;

/// Read-timeout values are rounded *up* to this granularity before
/// arming, so retransmission-clock timeouts that differ by microseconds
/// hit the armed-value cache instead of issuing a `setsockopt`. The
/// worker re-checks its deadlines after every wake, so waking late by
/// less than one granule only delays a retransmission, never loses one.
const TIMEOUT_GRANULE: Duration = Duration::from_micros(100);

/// A `recv_batch` whose burst capacity reaches this threshold opts the
/// socket into `UDP_GRO`: below it, train delivery would mostly spill
/// into the leftover stage instead of amortizing anything.
pub const GRO_MIN_BURST: usize = 8;

/// Same-destination, equal-size runs of at least this length are sent
/// as one `UDP_SEGMENT` super-datagram.
const GSO_MIN_RUN: usize = 2;

/// Segments per GSO super-datagram, capped below the kernel's
/// `UDP_MAX_SEGMENTS`.
const MAX_GSO_SEGS: usize = 64;

/// A UDP payload (and therefore a GSO train) cannot exceed this.
const MAX_UDP_PAYLOAD: usize = 65_507;

/// One UDP endpoint of a loopback fabric.
pub struct UdpPort {
    index: usize,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    /// O(1) sender lookup, built once by [`udp_fabric`].
    peer_index: HashMap<SocketAddr, usize>,
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    peer_sa: Vec<mmsg::sockaddr_in>,
    /// Last sender resolved on the batch receive path, as raw
    /// `(sin_addr, sin_port)` → endpoint index. Datagrams arrive in
    /// runs from one peer (workers only hear their shard; shard bursts
    /// come from one worker's `TxBatch` flush), so an 8-byte compare
    /// resolves almost every frame without touching the `SocketAddr`
    /// hash map.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    last_sender: Option<((u32, u16), usize)>,
    /// `UDP_SEGMENT` sends are attempted until the kernel rejects one.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gso_ok: bool,
    /// Send-path scratch, reused by every batch.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    tx_plan: TxPlan,
    /// Staging for `UDP_GRO` trains; allocated on first opt-in.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gro: Option<Box<GroStage>>,
    /// The `UDP_GRO` setsockopt is attempted at most once.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    gro_tried: bool,
    buf: Box<[u8; MAX_DATAGRAM]>,
    /// The read timeout currently armed in the kernel, if any.
    armed_timeout: Option<Duration>,
    /// `setsockopt(SO_RCVTIMEO)` calls actually issued.
    rearms: u64,
    send_errors: u64,
    /// Adaptive receive mode: the last receive returned data, so the
    /// next one spins before blocking.
    hot: bool,
}

/// One received `UDP_GRO` train (or plain datagram), handed out
/// segment by segment. `seg` is the kernel-reported `gso_size`; the
/// last segment may be shorter.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
struct GroStage {
    buf: [u8; MAX_UDP_PAYLOAD + 29],
    len: usize,
    off: usize,
    seg: usize,
    /// Resolved sender of the whole train (one train = one datagram on
    /// the wire = one source); `None` means the train was filtered.
    from: Option<usize>,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl GroStage {
    fn new() -> Box<Self> {
        Box::new(GroStage {
            buf: [0; MAX_UDP_PAYLOAD + 29],
            len: 0,
            off: 0,
            seg: 1,
            from: None,
        })
    }
}

/// Build a fabric of `n` UDP endpoints on loopback.
pub fn udp_fabric(n: usize) -> io::Result<Vec<UdpPort>> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
        .collect::<io::Result<_>>()?;
    let peers: Vec<SocketAddr> = sockets
        .iter()
        .map(|s| s.local_addr())
        .collect::<io::Result<_>>()?;
    let peer_index: HashMap<SocketAddr, usize> = peers
        .iter()
        .enumerate()
        .map(|(i, &addr)| (addr, i))
        .collect();
    sockets
        .into_iter()
        .enumerate()
        .map(|(index, socket)| {
            Ok(UdpPort {
                index,
                socket,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                peer_sa: peers.iter().map(mmsg::sockaddr_of).collect(),
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                last_sender: None,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gso_ok: true,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                tx_plan: TxPlan::default(),
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gro: None,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                gro_tried: false,
                peers: peers.clone(),
                peer_index: peer_index.clone(),
                buf: Box::new([0u8; MAX_DATAGRAM]),
                armed_timeout: None,
                rearms: 0,
                send_errors: 0,
                hot: false,
            })
        })
        .collect()
}

impl UdpPort {
    /// Arm the kernel read timeout, skipping the `setsockopt` when the
    /// (granule-rounded) value is already armed.
    fn arm_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        // A zero timeout would mean "block forever" to the kernel;
        // rounding up to the granule also maximizes cache hits.
        let granule = TIMEOUT_GRANULE.as_nanos();
        let t =
            Duration::from_nanos(((timeout.as_nanos().max(1)).div_ceil(granule) * granule) as u64);
        if self.armed_timeout != Some(t) {
            self.socket.set_read_timeout(Some(t))?;
            self.armed_timeout = Some(t);
            self.rearms += 1;
        }
        Ok(())
    }

    /// `setsockopt(SO_RCVTIMEO)` calls issued so far — the cached-
    /// timeout invariant: steady-state loops with a fixed timeout must
    /// keep this at 1.
    pub fn timeout_rearms(&self) -> u64 {
        self.rearms
    }

    fn lookup(&self, addr: &SocketAddr) -> Option<usize> {
        self.peer_index.get(addr).copied()
    }

    fn recv_one(&mut self, timeout: Duration) -> Option<(usize, usize)> {
        // A port that has opted into GRO must keep receiving through
        // the train stage even on the scalar path, or a multi-segment
        // train would be truncated to one datagram.
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if self.gro.is_some() {
            return self.recv_one_gro(timeout);
        }
        // A zero timeout is a pure poll: `arm_timeout` would round it
        // up to a blocking granule-long wait.
        let (len, addr) = if timeout.is_zero() {
            self.recv_from_nonblocking()?
        } else {
            self.arm_timeout(timeout).ok()?;
            self.socket.recv_from(self.buf.as_mut_slice()).ok()?
        };
        let from = self.lookup(&addr)?;
        Some((from, len))
    }

    /// One datagram into `self.buf` if one is already queued, without
    /// touching the armed read timeout.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn recv_from_nonblocking(&mut self) -> Option<(usize, SocketAddr)> {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        let mut sa = sockaddr_in::default();
        let mut iov = iovec {
            iov_base: self.buf.as_mut_ptr() as *mut core::ffi::c_void,
            iov_len: self.buf.len(),
        };
        let mut msg: msghdr = unsafe { std::mem::zeroed() };
        msg.msg_name = &mut sa as *mut sockaddr_in as *mut core::ffi::c_void;
        msg.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
        msg.msg_iov = &mut iov;
        msg.msg_iovlen = 1;
        // SAFETY: every msg pointer targets live storage of the stated
        // length; the kernel writes within those bounds.
        let r = unsafe { recvmsg(self.socket.as_raw_fd(), &mut msg, MSG_DONTWAIT) };
        if r < 0 {
            return None;
        }
        Some(((r as usize).min(MAX_DATAGRAM), addr_of(&sa)?))
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    fn recv_from_nonblocking(&mut self) -> Option<(usize, SocketAddr)> {
        self.socket.set_nonblocking(true).ok()?;
        let got = self.socket.recv_from(self.buf.as_mut_slice());
        self.socket.set_nonblocking(false).ok()?;
        got.ok()
    }
}

impl Port for UdpPort {
    fn n_endpoints(&self) -> usize {
        self.peers.len()
    }

    fn index(&self) -> usize {
        self.index
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        // UDP send failures (ENOBUFS under load, EMSGSIZE for an
        // oversized datagram) are equivalent to loss; the protocol's
        // retransmission handles them. Count them so callers can tell
        // kernel drops from in-fabric loss.
        if self.socket.send_to(data, self.peers[to]).is_err() {
            self.send_errors += 1;
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let (from, len) = self.recv_one(timeout)?;
        Some((from, self.buf[..len].to_vec()))
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
        // Straight from the socket's internal buffer into the caller's
        // scratch: no per-datagram allocation.
        let (from, len) = self.recv_one(timeout)?;
        buf.clear();
        buf.extend_from_slice(&self.buf[..len]);
        Some(from)
    }

    /// The whole batch is grouped by destination into `UDP_SEGMENT`
    /// trains (`TxPlan::plan`), up to [`MAX_WIRE_BURST`] per
    /// `sendmmsg`. Grouping reorders frames *across* destinations,
    /// which UDP permits and the protocol tolerates.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        debug_assert_eq!(dests.len(), frames.len());
        let mut plan = std::mem::take(&mut self.tx_plan);
        plan.plan(dests, |i| frames[i].len(), self.gso_ok);
        let (trains, frame) = (&plan.trains, |at: usize| plan.order[at] as u32 as usize);
        let (fd, mut t) = (self.socket.as_raw_fd(), 0);
        while t < trains.len() {
            // SAFETY: all-zero bytes (null pointers, zero lengths) are a
            // valid value of each of these plain C structs.
            let mut iovs: [iovec; MAX_WIRE_IOVS] = unsafe { std::mem::zeroed() };
            let mut hdrs: [mmsghdr; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
            let mut ctls: [cmsg_seg; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
            let (mut m, mut iov_at) = (0, 0);
            while let Some(&(dest, first, count)) = trains.get(t + m) {
                if m == MAX_WIRE_BURST || iov_at + count > MAX_WIRE_IOVS {
                    break;
                }
                for j in 0..count {
                    // Element borrows keep the stored `msg_iov` pointers valid.
                    let (f, iov) = (&frames[frame(first + j)], &mut iovs[iov_at + j]);
                    (iov.iov_base, iov.iov_len) = (f.as_ptr() as *mut core::ffi::c_void, f.len());
                }
                let h = &mut hdrs[m].msg_hdr;
                h.msg_name = &self.peer_sa[dest] as *const sockaddr_in as *mut core::ffi::c_void;
                h.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
                h.msg_iov = &mut iovs[iov_at];
                h.msg_iovlen = count;
                if count >= GSO_MIN_RUN {
                    ctls[m] = cmsg_seg::new(frames[frame(first)].len() as u16);
                    h.msg_control = &mut ctls[m] as *mut cmsg_seg as *mut core::ffi::c_void;
                    h.msg_controllen = std::mem::size_of::<cmsg_seg>();
                }
                iov_at += count;
                m += 1;
            }
            let mut sent = 0;
            while sent < m {
                // SAFETY: hdrs/iovs/ctls outlive the call; every pointer
                // targets live storage of at least the stated length.
                let r = unsafe { sendmmsg(fd, hdrs[sent..].as_mut_ptr(), (m - sent) as u32, 0) };
                if r > 0 {
                    sent += r as usize;
                    continue;
                }
                let (_, first, count) = trains[t + sent]; // failed outright
                if count >= GSO_MIN_RUN {
                    // A kernel or path without UDP_SEGMENT rejected the
                    // train: disable GSO for the life of the port and
                    // resend its frames one by one; nothing is lost.
                    self.gso_ok = false;
                    for f in (first..first + count).map(frame) {
                        self.send(dests[f], &frames[f]);
                    }
                } else {
                    // A plain datagram failed (EMSGSIZE, ENOBUFS): count
                    // it as lost and move past it.
                    self.send_errors += 1;
                }
                sent += 1;
            }
            t += m;
        }
        self.tx_plan = plan;
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        bufs.clear();
        // A burst-capable caller opts the socket into GRO train
        // delivery (once); tiny bursts stay on the classic path, where
        // per-datagram delivery cannot overflow their frames.
        if !self.gro_tried && bufs.capacity() >= GRO_MIN_BURST {
            self.gro_tried = true;
            if mmsg::enable_gro(&self.socket) {
                self.gro = Some(GroStage::new());
            }
        }
        if self.gro.is_some() {
            return self.recv_batch_gro(bufs, timeout);
        }
        // Pure non-blocking poll (reactor loops): drain what the
        // kernel has queued and return. `arm_timeout` cannot express
        // this — it rounds zero up to the timeout granule (zero means
        // block-forever to the kernel) — so it is bypassed entirely.
        if timeout.is_zero() {
            let n = self.recvmmsg_into(bufs, mmsg::MSG_DONTWAIT);
            self.hot = n > 0;
            return n;
        }
        // Spin phase: while traffic is flowing, poll non-blocking for
        // a short budget — no timeout syscalls, no kernel sleep.
        if self.hot {
            for _ in 0..SPIN_POLLS {
                if self.recvmmsg_into(bufs, mmsg::MSG_DONTWAIT) > 0 {
                    return bufs.len();
                }
                std::hint::spin_loop();
            }
        }
        // Block phase: arm the (cached) timeout and wait for the first
        // datagram; MSG_WAITFORONE then drains whatever else is already
        // queued without waiting for a full burst.
        if self.arm_timeout(timeout).is_err() {
            self.hot = false;
            return 0;
        }
        let n = self.recvmmsg_into(bufs, mmsg::MSG_WAITFORONE);
        self.hot = n > 0;
        n
    }

    fn stats(&self) -> PortStats {
        PortStats {
            send_errors: self.send_errors,
            ..PortStats::default()
        }
    }

    fn timeout_granule(&self) -> Option<Duration> {
        Some(TIMEOUT_GRANULE)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl UdpPort {
    /// One `recvmmsg` filling up to `bufs.capacity()` frames (clamped
    /// to [`MAX_WIRE_BURST`]); frames from addresses outside the
    /// fabric are dropped. Returns committed frames.
    fn recvmmsg_into(&mut self, bufs: &mut BurstBuf, flags: i32) -> usize {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        let want = bufs.capacity().min(MAX_WIRE_BURST);
        let mut addrs = [sockaddr_in::default(); MAX_WIRE_BURST];
        let mut iovs: [iovec; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        let mut hdrs: [mmsghdr; MAX_WIRE_BURST] = unsafe { std::mem::zeroed() };
        {
            let frames = bufs.storage_mut();
            for i in 0..want {
                let f = &mut frames[i];
                iovs[i] = iovec {
                    iov_base: f.as_mut_ptr() as *mut core::ffi::c_void,
                    iov_len: f.capacity(),
                };
                hdrs[i].msg_hdr.msg_name =
                    &mut addrs[i] as *mut sockaddr_in as *mut core::ffi::c_void;
                hdrs[i].msg_hdr.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
                hdrs[i].msg_hdr.msg_iov = &mut iovs[i];
                hdrs[i].msg_hdr.msg_iovlen = 1;
            }
        }
        // SAFETY: every msg_hdr points at live, exclusively-borrowed
        // storage (frame capacity as iov_len, so the kernel cannot
        // overrun); timeout is unused (SO_RCVTIMEO governs blocking).
        let r = unsafe {
            recvmmsg(
                self.socket.as_raw_fd(),
                hdrs.as_mut_ptr(),
                want as u32,
                flags,
                std::ptr::null_mut(),
            )
        };
        if r <= 0 {
            return 0;
        }
        for i in 0..r as usize {
            let len = (hdrs[i].msg_len as usize).min(MAX_DATAGRAM);
            // SAFETY: the kernel wrote msg_len bytes into frame i's
            // storage, and iov_len bounded it by the capacity.
            unsafe { bufs.set_frame_len(i, len) };
            if let Some(from) = self.resolve_sender(&addrs[i]) {
                bufs.commit_at(i, from);
            }
        }
        bufs.len()
    }

    /// Raw sockaddr → endpoint index: an 8-byte compare against the
    /// cached last sender on the hot path, falling back to the
    /// `SocketAddr` map (and refreshing the cache) on a run boundary.
    fn resolve_sender(&mut self, sa: &mmsg::sockaddr_in) -> Option<usize> {
        if sa.sin_family != mmsg::AF_INET {
            return None;
        }
        let key = (sa.sin_addr, sa.sin_port);
        if let Some((cached, from)) = self.last_sender {
            if cached == key {
                return Some(from);
            }
        }
        let from = mmsg::addr_of(sa).and_then(|a| self.lookup(&a))?;
        self.last_sender = Some((key, from));
        Some(from)
    }

    /// One `recvmsg` into the GRO stage. Returns true when a message
    /// (a coalesced train or a single datagram) arrived; the train may
    /// still be filtered if its sender is outside the fabric.
    fn fill_stage(&mut self, flags: i32) -> bool {
        use mmsg::*;
        use std::os::fd::AsRawFd;
        let mut sa = sockaddr_in::default();
        let mut ctl: cmsg_space = unsafe { std::mem::zeroed() };
        let (r, seg) = {
            let g = self.gro.as_mut().expect("gro stage exists once enabled");
            let mut iov = iovec {
                iov_base: g.buf.as_mut_ptr() as *mut core::ffi::c_void,
                iov_len: g.buf.len(),
            };
            let mut msg: msghdr = unsafe { std::mem::zeroed() };
            msg.msg_name = &mut sa as *mut sockaddr_in as *mut core::ffi::c_void;
            msg.msg_namelen = std::mem::size_of::<sockaddr_in>() as u32;
            msg.msg_iov = &mut iov;
            msg.msg_iovlen = 1;
            msg.msg_control = &mut ctl as *mut cmsg_space as *mut core::ffi::c_void;
            msg.msg_controllen = std::mem::size_of::<cmsg_space>();
            // SAFETY: every msg pointer targets live local storage of
            // the stated length; the kernel writes within those bounds.
            let r = unsafe { recvmsg(self.socket.as_raw_fd(), &mut msg, flags) };
            (r, gro_seg_size(&msg, &ctl))
        };
        if r <= 0 {
            return false;
        }
        let from = self.resolve_sender(&sa);
        let g = self.gro.as_mut().expect("gro stage exists once enabled");
        g.len = r as usize;
        g.off = 0;
        // No UDP_GRO cmsg means an uncoalesced message: one segment.
        g.seg = seg.unwrap_or(r as usize).max(1);
        g.from = from;
        true
    }

    /// Move staged segments into `bufs` until either side runs out.
    /// A filtered train (unknown sender) is discarded whole — one
    /// train is one wire datagram, so it has exactly one source.
    fn drain_stage(&mut self, bufs: &mut BurstBuf) {
        let Some(g) = self.gro.as_mut() else { return };
        let Some(from) = g.from else {
            g.off = g.len;
            return;
        };
        while g.off < g.len && !bufs.is_full() {
            let take = g.seg.min(g.len - g.off);
            let slot = bufs.next_slot();
            slot.extend_from_slice(&g.buf[g.off..g.off + take]);
            bufs.commit_next(from);
            g.off += take;
        }
    }

    /// Burst receive over the GRO stage: leftovers first, then
    /// opportunistic non-blocking fills, then spin-then-block exactly
    /// like the classic path.
    fn recv_batch_gro(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        // A train larger than the previous burst left segments behind.
        self.drain_stage(bufs);
        // Top off from whatever the kernel has queued, without waiting.
        while !bufs.is_full() {
            if !self.fill_stage(mmsg::MSG_DONTWAIT) {
                break;
            }
            self.drain_stage(bufs);
        }
        if !bufs.is_empty() {
            self.hot = true;
            return bufs.len();
        }
        // Pure non-blocking poll: the stage and the kernel queue are
        // both dry, and a zero timeout must never sleep.
        if timeout.is_zero() {
            self.hot = false;
            return 0;
        }
        // Nothing queued: spin while hot, then arm the cached timeout
        // and block for the first message.
        if self.hot {
            for _ in 0..SPIN_POLLS {
                if self.fill_stage(mmsg::MSG_DONTWAIT) {
                    self.drain_stage(bufs);
                    if !bufs.is_empty() {
                        return bufs.len();
                    }
                    // Filtered train: keep spinning.
                }
                std::hint::spin_loop();
            }
        }
        if self.arm_timeout(timeout).is_err() {
            self.hot = false;
            return 0;
        }
        while bufs.is_empty() {
            if !self.fill_stage(0) {
                self.hot = false;
                return 0;
            }
            self.drain_stage(bufs);
        }
        self.hot = true;
        bufs.len()
    }

    /// Scalar receive for a port that has opted into GRO: hand out the
    /// staged train one segment at a time, refilling (with the cached
    /// timeout armed) when the stage runs dry.
    fn recv_one_gro(&mut self, timeout: Duration) -> Option<(usize, usize)> {
        loop {
            {
                let g = self.gro.as_mut().expect("gro stage exists once enabled");
                if g.off < g.len {
                    if let Some(from) = g.from {
                        let take = g.seg.min(g.len - g.off);
                        // Match the classic path's truncation of
                        // oversized datagrams into `self.buf`.
                        let copy = take.min(MAX_DATAGRAM);
                        self.buf[..copy].copy_from_slice(&g.buf[g.off..g.off + copy]);
                        g.off += take;
                        return Some((from, copy));
                    }
                    g.off = g.len; // filtered train
                }
            }
            // A zero timeout polls; anything else blocks on the
            // cached armed timeout.
            let flags = if timeout.is_zero() {
                mmsg::MSG_DONTWAIT
            } else {
                self.arm_timeout(timeout).ok()?;
                0
            };
            if !self.fill_stage(flags) {
                return None;
            }
        }
    }
}

/// A send batch's message plan: `order` holds one `(dest << 32) | i`
/// key per frame, sorted, and each train is `(dest, first, count)`:
/// the frames `order[first..first + count]` as one message to `dest`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[derive(Default)]
struct TxPlan {
    order: Vec<u64>,
    trains: Vec<(usize, usize, usize)>,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl TxPlan {
    /// Group a whole batch by destination. Keys are unique, so each
    /// destination keeps its frames in batch order however they
    /// interleave. One linear pass cuts a train on a destination
    /// change, a frame longer than the train's first or empty,
    /// [`MAX_GSO_SEGS`] or [`MAX_UDP_PAYLOAD`]; a shorter frame joins
    /// as the tail and closes its train. Without GSO frames stand alone.
    fn plan(&mut self, dests: &[usize], len_of: impl Fn(usize) -> usize, gso_ok: bool) {
        let (order, trains) = (&mut self.order, &mut self.trains);
        order.clear();
        order.extend((0u64..).zip(dests).map(|(i, &d)| (d as u64) << 32 | i));
        order.sort_unstable();
        trains.clear();
        // The open train's segment size and bytes, and whether it can grow.
        let (mut seg, mut bytes, mut open) = (0, 0, false);
        for (at, &key) in order.iter().enumerate() {
            let (dest, l) = ((key >> 32) as usize, len_of(key as u32 as usize));
            let fits = open && (1..=seg).contains(&l) && bytes + l <= MAX_UDP_PAYLOAD;
            match trains.last_mut() {
                Some((d, _, count)) if fits && *d == dest && *count < MAX_GSO_SEGS => {
                    *count += 1;
                    bytes += l;
                }
                _ => {
                    trains.push((dest, at, 1));
                    (seg, bytes) = (l, l);
                }
            }
            open = gso_ok && l == seg;
        }
    }
}

/// Minimal C-ABI declarations for `sendmmsg`/`recvmmsg` on 64-bit
/// Linux (glibc/musl layout). The build environment vendors no `libc`
/// crate, so the handful of types the batched socket calls need are
/// declared here directly.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod mmsg {
    #![allow(non_camel_case_types)]
    use core::ffi::{c_int, c_uint, c_void};
    use std::net::{Ipv4Addr, SocketAddr};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct iovec {
        pub iov_base: *mut c_void,
        pub iov_len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct msghdr {
        pub msg_name: *mut c_void,
        pub msg_namelen: c_uint,
        pub msg_iov: *mut iovec,
        pub msg_iovlen: usize,
        pub msg_control: *mut c_void,
        pub msg_controllen: usize,
        pub msg_flags: c_int,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct mmsghdr {
        pub msg_hdr: msghdr,
        pub msg_len: c_uint,
    }

    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        /// Network byte order.
        pub sin_port: u16,
        /// Network byte order.
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    pub const AF_INET: u16 = 2;
    pub const MSG_DONTWAIT: c_int = 0x40;
    /// Return after at least one message instead of waiting for vlen.
    pub const MSG_WAITFORONE: c_int = 0x10000;
    pub const SOL_UDP: c_int = 17;
    /// setsockopt/cmsg: outgoing payload is split into datagrams of
    /// the given size (UDP GSO).
    pub const UDP_SEGMENT: c_int = 103;
    /// setsockopt: deliver coalesced trains with a gso_size cmsg
    /// (UDP GRO).
    pub const UDP_GRO: c_int = 104;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct cmsghdr {
        pub cmsg_len: usize,
        pub cmsg_level: c_int,
        pub cmsg_type: c_int,
    }

    /// Outgoing control message carrying the `UDP_SEGMENT` size —
    /// `CMSG_SPACE(sizeof(u16))`, 24 bytes on 64-bit.
    #[repr(C, align(8))]
    #[derive(Clone, Copy)]
    pub struct cmsg_seg {
        pub hdr: cmsghdr,
        pub gso_size: u16,
        _pad: [u8; 6],
    }

    impl cmsg_seg {
        pub fn new(gso_size: u16) -> Self {
            cmsg_seg {
                hdr: cmsghdr {
                    // CMSG_LEN(sizeof(u16))
                    cmsg_len: std::mem::size_of::<cmsghdr>() + 2,
                    cmsg_level: SOL_UDP,
                    cmsg_type: UDP_SEGMENT,
                },
                gso_size,
                _pad: [0; 6],
            }
        }
    }

    /// Incoming control buffer: room for the `UDP_GRO` gso_size cmsg
    /// (an `int`) with headroom.
    #[repr(C, align(8))]
    pub struct cmsg_space {
        pub hdr: cmsghdr,
        pub data: [u8; 40],
    }

    /// The kernel attaches a `UDP_GRO` cmsg (payload: `int` gso_size)
    /// to coalesced messages only.
    pub fn gro_seg_size(msg: &msghdr, ctl: &cmsg_space) -> Option<usize> {
        if msg.msg_controllen < std::mem::size_of::<cmsghdr>()
            || ctl.hdr.cmsg_level != SOL_UDP
            || ctl.hdr.cmsg_type != UDP_GRO
        {
            return None;
        }
        let seg = i32::from_ne_bytes(ctl.data[..4].try_into().unwrap());
        (seg > 0).then_some(seg as usize)
    }

    /// Opt a socket into GRO train delivery; false if the kernel
    /// refuses (pre-5.0).
    pub fn enable_gro(socket: &std::net::UdpSocket) -> bool {
        use std::os::fd::AsRawFd;
        let on: c_int = 1;
        // SAFETY: optval points at a live int of the stated length.
        let r = unsafe {
            setsockopt(
                socket.as_raw_fd(),
                SOL_UDP,
                UDP_GRO,
                &on as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        r == 0
    }

    extern "C" {
        pub fn sendmmsg(sockfd: c_int, msgvec: *mut mmsghdr, vlen: c_uint, flags: c_int) -> c_int;
        pub fn recvmmsg(
            sockfd: c_int,
            msgvec: *mut mmsghdr,
            vlen: c_uint,
            flags: c_int,
            timeout: *mut c_void,
        ) -> c_int;
        pub fn recvmsg(sockfd: c_int, msg: *mut msghdr, flags: c_int) -> isize;
        fn setsockopt(
            sockfd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: c_uint,
        ) -> c_int;
    }

    /// The fabric binds IPv4 loopback only, so V4 always matches.
    pub fn sockaddr_of(addr: &SocketAddr) -> sockaddr_in {
        match addr {
            SocketAddr::V4(v4) => sockaddr_in {
                sin_family: AF_INET,
                sin_port: v4.port().to_be(),
                // Octets are already network order; keep them in place.
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            },
            SocketAddr::V6(_) => unreachable!("udp_fabric binds IPv4 loopback only"),
        }
    }

    pub fn addr_of(sa: &sockaddr_in) -> Option<SocketAddr> {
        if sa.sin_family != AF_INET {
            return None;
        }
        Some(SocketAddr::from((
            Ipv4Addr::from(sa.sin_addr.to_ne_bytes()),
            u16::from_be(sa.sin_port),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::{faulty_fabric, FaultyConfig};

    #[test]
    fn loopback_roundtrip() {
        let mut ports = udp_fabric(2).unwrap();
        let mut b = ports.pop().unwrap();
        let mut a = ports.pop().unwrap();
        a.send(1, b"ping");
        let (from, data) = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, 0);
        assert_eq!(data, b"ping");
        b.send(0, b"pong");
        let (from, data) = a.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, 1);
        assert_eq!(data, b"pong");
    }

    #[test]
    fn timeout_elapses() {
        let mut ports = udp_fabric(1).unwrap();
        assert!(ports[0].recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn unknown_sender_is_filtered() {
        let mut ports = udp_fabric(1).unwrap();
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let dest = ports[0].socket.local_addr().unwrap();
        stranger.send_to(b"spoof", dest).unwrap();
        // Message from an address outside the fabric is dropped.
        assert!(ports[0].recv_timeout(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn unknown_sender_is_filtered_from_bursts() {
        let mut ports = udp_fabric(2).unwrap();
        let rx_addr = ports[0].socket.local_addr().unwrap();
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let mut tx = ports.pop().unwrap();
        let mut rx = ports.pop().unwrap();
        tx.send(0, b"one");
        stranger.send_to(b"spoof", rx_addr).unwrap();
        tx.send(0, b"two");
        let mut bufs = BurstBuf::new(8, 64);
        let mut seen = Vec::new();
        while seen.len() < 2 {
            rx.recv_batch(&mut bufs, Duration::from_millis(500));
            for (from, frame) in bufs.iter() {
                assert_eq!(from, 1);
                seen.push(frame.to_vec());
            }
            assert!(!bufs.is_empty(), "expected both fabric datagrams");
        }
        assert_eq!(seen, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    /// Issue 1 000 zero-timeout receives on an empty socket; each must
    /// return at once instead of sleeping for the timeout granule.
    fn poll_empty<P: Port>(port: &mut P) {
        const CALLS: u32 = 1_000;
        let mut buf = Vec::new();
        let t0 = std::time::Instant::now();
        for _ in 0..CALLS {
            assert!(port.recv_into(&mut buf, Duration::ZERO).is_none());
        }
        // Rounding each poll up to the granule would take CALLS × 100 µs.
        let wall = t0.elapsed();
        assert!(
            wall < TIMEOUT_GRANULE * CALLS / 4,
            "{CALLS} polls took {wall:?}"
        );
    }

    /// A zero-timeout receive is a pure poll on every path — the
    /// classic socket, the GRO stage, and the loss-only fault wrapper
    /// (whose burst receive is the trait default over `recv_into`) —
    /// and never arms the kernel read timeout.
    #[test]
    fn udp_zero_timeout_recv_never_blocks() {
        let mut plain = udp_fabric(1).unwrap().pop().unwrap();
        poll_empty(&mut plain);
        assert_eq!(plain.timeout_rearms(), 0);

        let mut gro = udp_fabric(1).unwrap().pop().unwrap();
        let mut bufs = BurstBuf::new(GRO_MIN_BURST, 64);
        assert_eq!(gro.recv_batch(&mut bufs, Duration::ZERO), 0);
        poll_empty(&mut gro);
        assert_eq!(gro.timeout_rearms(), 0);

        let fabric = udp_fabric(1).unwrap();
        let (mut ports, _) = faulty_fabric(fabric, FaultyConfig::loss_only(0.01), 1);
        let mut faulty = ports.pop().unwrap();
        poll_empty(&mut faulty);
        assert_eq!(faulty.inner().timeout_rearms(), 0);
    }

    #[test]
    fn cached_timeout_arms_once() {
        let mut ports = udp_fabric(2).unwrap();
        let mut tx = ports.pop().unwrap();
        let mut rx = ports.pop().unwrap();
        assert_eq!(rx.timeout_rearms(), 0);
        for _ in 0..10 {
            tx.send(0, b"x");
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_some());
        }
        // Ten receives with the same timeout: exactly one setsockopt.
        assert_eq!(rx.timeout_rearms(), 1);
        // Same granule bucket: still no re-arm.
        tx.send(0, b"x");
        assert!(rx
            .recv_into(&mut Vec::new(), Duration::from_millis(100))
            .is_some());
        assert_eq!(rx.timeout_rearms(), 1);
        // A genuinely different timeout re-arms once.
        assert!(rx.recv_timeout(Duration::from_millis(5)).is_none());
        assert_eq!(rx.timeout_rearms(), 2);
    }

    #[test]
    fn send_errors_are_counted() {
        let mut ports = udp_fabric(2).unwrap();
        let mut a = ports.swap_remove(0);
        assert_eq!(a.stats().send_errors, 0);
        // 70 KB exceeds the UDP datagram limit: EMSGSIZE, counted as a
        // kernel-side drop.
        let oversized = vec![0u8; 70_000];
        a.send(1, &oversized);
        assert_eq!(a.stats().send_errors, 1);
        a.send_batch(&[1, 1], &[oversized.clone(), b"ok".to_vec()]);
        let stats = a.stats();
        assert_eq!(stats.send_errors, 2, "oversized frame in a batch counted");
    }

    #[test]
    fn batched_send_and_recv_roundtrip() {
        let mut ports = udp_fabric(3).unwrap();
        let mut rx = ports.remove(0);
        let mut tx1 = ports.remove(0);
        let mut tx2 = ports.remove(0);
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 3]).collect();
        tx1.send_batch(&vec![0; 40], &frames);
        tx2.send_batch(&vec![0; 40], &frames);
        let mut bufs = BurstBuf::new(32, 64);
        let mut got = vec![0usize; 3];
        let mut total = 0;
        while total < 80 {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams on loopback ({total}/80)");
            for (from, frame) in bufs.iter() {
                assert_eq!(frame.len(), 3);
                assert_eq!(frame[0], frame[2]);
                got[from] += 1;
            }
            total += n;
        }
        assert_eq!(got, vec![0, 40, 40]);
        assert_eq!(rx.stats().send_errors, 0);
    }

    #[test]
    fn gso_train_reaches_classic_receiver_as_datagrams() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Equal-size same-destination run: one UDP_SEGMENT
        // super-datagram on the wire. The receiver never opts into
        // GRO (scalar path), so the kernel must segment at delivery.
        let frames: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i, i, i, i]).collect();
        tx.send_batch(&[0; 10], &frames);
        for i in 0..10u8 {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![i, i, i, i]);
        }
    }

    #[test]
    fn gro_trains_roundtrip_bit_exact() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        let frames: Vec<Vec<u8>> = (0..48u8).map(|i| vec![i; 16]).collect();
        tx.send_batch(&vec![0; 48], &frames);
        // Burst capacity 16 (>= GRO_MIN_BURST) opts into train
        // delivery; a 48-segment train must survive being handed out
        // across several bursts.
        let mut bufs = BurstBuf::new(16, 64);
        let mut seen = Vec::new();
        while seen.len() < 48 {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams ({}/48)", seen.len());
            for (from, frame) in bufs.iter() {
                assert_eq!(from, 1);
                seen.push(frame.to_vec());
            }
        }
        assert_eq!(seen, frames, "segments must arrive intact and in order");
    }

    #[test]
    fn mixed_size_runs_are_split_correctly() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Runs: [8,8,8,4] (shorter tail closes the train), then [9,9].
        let sizes = [8usize, 8, 8, 4, 9, 9];
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| vec![i as u8; s])
            .collect();
        tx.send_batch(&vec![0; sizes.len()], &frames);
        for (i, &s) in sizes.iter().enumerate() {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![i as u8; s], "frame {i} must keep its size {s}");
        }
    }

    #[test]
    fn scalar_recv_still_works_after_gro_opt_in() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        // Opt in via a burst-capable receive...
        tx.send_batch(&[0; 12], &(0..12u8).map(|i| vec![i; 8]).collect::<Vec<_>>());
        let mut bufs = BurstBuf::new(8, 64);
        let mut got = rx.recv_batch(&mut bufs, Duration::from_millis(500));
        assert!(got > 0);
        // ...then drain the rest through the scalar path: the staged
        // train must come out one datagram at a time.
        while got < 12 {
            let (from, data) = rx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert_eq!(from, 1);
            assert_eq!(data, vec![got as u8; 8]);
            got += 1;
        }
    }

    #[test]
    fn interleaved_multicast_burst_is_grouped_per_destination() {
        // The switch's multicast flush cycles through its workers
        // (w1,…,w8,w1,…,w8,…), here 256 frames: more than
        // MAX_WIRE_BURST. send_batch groups the whole batch into one train per
        // destination; each receiver must still see its own frames
        // bit-exact and in per-destination order.
        const WORKERS: u8 = 8;
        const PER_WORKER: u8 = 32;
        let mut ports = udp_fabric(1 + WORKERS as usize).unwrap();
        let mut tx = ports.remove(0);
        let (mut dests, mut frames) = (Vec::new(), Vec::new());
        for i in 0..PER_WORKER {
            for w in 1..=WORKERS {
                dests.push(w as usize);
                frames.push(vec![w, i, w ^ i, 0xEE]);
            }
        }
        assert!(frames.len() > MAX_WIRE_BURST);
        tx.send_batch(&dests, &frames);
        for (w, rx) in ports.iter_mut().enumerate() {
            let w = (w + 1) as u8;
            let mut bufs = BurstBuf::new(16, 64);
            let mut seen = Vec::new();
            while seen.len() < PER_WORKER as usize {
                let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
                assert!(
                    n > 0,
                    "worker {w} lost datagrams ({}/{PER_WORKER})",
                    seen.len()
                );
                for (from, frame) in bufs.iter() {
                    assert_eq!(from, 0);
                    seen.push(frame.to_vec());
                }
            }
            let want: Vec<Vec<u8>> = (0..PER_WORKER).map(|i| vec![w, i, w ^ i, 0xEE]).collect();
            assert_eq!(seen, want, "worker {w} stream must be intact and ordered");
        }
        assert_eq!(tx.stats().send_errors, 0);
    }

    /// Plan a batch; each train as (dest, the frame indices it carries).
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn trains_of(dests: &[usize], lens: &[usize], gso_ok: bool) -> Vec<(usize, Vec<usize>)> {
        let mut plan = TxPlan::default();
        plan.plan(dests, |i| lens[i], gso_ok);
        plan.trains
            .iter()
            .map(|&(dest, first, count)| {
                let keys = &plan.order[first..first + count];
                (dest, keys.iter().map(|&k| k as u32 as usize).collect())
            })
            .collect()
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn plan_groups_a_whole_interleaved_batch_into_one_train_per_destination() {
        // 8 destinations × 32 frames, interleaved: 256 frames, four
        // times MAX_WIRE_BURST, must still leave as 8 trains of 32.
        let dests: Vec<usize> = (0..256).map(|i| 1 + i % 8).collect();
        let trains = trains_of(&dests, &[40; 256], true);
        assert_eq!(trains.len(), 8);
        for (d, (dest, frames)) in trains.iter().enumerate() {
            assert_eq!(*dest, 1 + d);
            let want: Vec<usize> = (0..256).filter(|i| i % 8 == d).collect();
            assert_eq!(frames, &want, "destination {dest}: all 32, in batch order");
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn plan_keeps_per_destination_order_under_irregular_interleaving() {
        let dests: Vec<usize> = (0..300usize).map(|i| (i * 7 + i / 13) % 5).collect();
        let trains = trains_of(&dests, &[16; 300], true);
        assert_eq!(trains.len(), 5, "one train per destination");
        let mut covered = 0;
        for (dest, frames) in &trains {
            let want: Vec<usize> = (0..300).filter(|&i| dests[i] == *dest).collect();
            assert_eq!(frames, &want);
            covered += frames.len();
        }
        assert_eq!(covered, 300, "every frame planned exactly once");
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn plan_cuts_trains_on_size_changes() {
        // A shorter tail joins and closes its train; a longer frame
        // starts a new one; empty frames never join.
        let lens = [8, 8, 8, 4, 8, 8, 9, 9, 0, 0];
        let trains = trains_of(&[3; 10], &lens, true);
        let spans: Vec<Vec<usize>> = trains.into_iter().map(|(_, f)| f).collect();
        let want: Vec<Vec<usize>> =
            vec![vec![0, 1, 2, 3], vec![4, 5], vec![6, 7], vec![8], vec![9]];
        assert_eq!(spans, want);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn plan_enforces_segment_and_payload_caps() {
        let counts = |lens: &[usize]| -> Vec<usize> {
            let dests = vec![1; lens.len()];
            trains_of(&dests, lens, true)
                .iter()
                .map(|t| t.1.len())
                .collect()
        };
        assert_eq!(counts(&[32; 150]), vec![MAX_GSO_SEGS, MAX_GSO_SEGS, 22]);
        // 43 × 1500 B fit one 65 507 B payload, 44 do not.
        assert_eq!(MAX_UDP_PAYLOAD / 1500, 43);
        assert_eq!(counts(&[1500; 100]), vec![43, 43, 14]);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn plan_without_gso_sends_singletons() {
        let dests = [2, 1, 2, 1, 2, 1];
        let trains = trains_of(&dests, &[8; 6], false);
        let want: Vec<(usize, Vec<usize>)> = vec![
            (1, vec![1]),
            (1, vec![3]),
            (1, vec![5]),
            (2, vec![0]),
            (2, vec![2]),
            (2, vec![4]),
        ];
        assert_eq!(trains, want);
    }

    #[test]
    fn burst_larger_than_wire_cap_is_split() {
        let mut ports = udp_fabric(2).unwrap();
        let mut rx = ports.remove(0);
        let mut tx = ports.remove(0);
        let count = MAX_WIRE_BURST * 2 + 7;
        let frames: Vec<Vec<u8>> = (0..count).map(|i| vec![(i % 251) as u8]).collect();
        tx.send_batch(&vec![0; count], &frames);
        let mut bufs = BurstBuf::new(16, 64);
        let mut total = 0;
        while total < count {
            let n = rx.recv_batch(&mut bufs, Duration::from_millis(500));
            assert!(n > 0, "lost datagrams on loopback ({total}/{count})");
            total += n;
        }
        assert_eq!(total, count);
    }
}
