//! Outside-in tracing: [`TimedPort`] wraps any [`Port`] and records one
//! span per call into the port, without changing the program.
//!
//! Every method is forwarded to the inner port — never to the trait
//! defaults — so the wrapper keeps the inner transport's batch and
//! non-blocking paths. (The trait-default `recv_batch` loops over
//! `recv_into`, which on UDP turns a `Duration::ZERO` poll into a
//! blocking wait; a wrapper that fell back to it would change the
//! behaviour it measures.)

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use switchml_transport::{BurstBuf, Port, PortStats};

/// What an endpoint is in the fabric's layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The flat star's switch, or the tree's spine.
    Switch,
    /// A rack's leaf switch.
    Leaf,
    /// A worker engine's endpoint.
    Worker,
}

pub const ROLES: [Role; 3] = [Role::Switch, Role::Leaf, Role::Worker];

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Switch => "switch",
            Role::Leaf => "leaf",
            Role::Worker => "worker",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One call into a port.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, nanoseconds after the sink's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Frames sent or received by the call.
    pub frames: u32,
    /// A receive (else a send).
    pub rx: bool,
    pub endpoint: u32,
    /// The OS thread that made the call (process-unique index).
    pub thread: u32,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    // A statistic-only id: no other data is published through it.
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Where one traced call's ports deliver their spans. Each port keeps
/// its spans locally and hands them over once, when it is dropped at
/// the end of the runner call.
pub struct SpanSink {
    epoch: Instant,
    roles: Vec<Role>,
    collected: Mutex<Collected>,
}

#[derive(Default)]
struct Collected {
    spans: Vec<Span>,
    send_errors: [u64; 3],
}

impl SpanSink {
    /// A sink for a fabric whose endpoint `i` has role `roles[i]`.
    pub fn new(roles: Vec<Role>) -> Arc<SpanSink> {
        Arc::new(SpanSink {
            epoch: Instant::now(),
            roles,
            collected: Mutex::new(Collected::default()),
        })
    }

    /// Wrap every port of a fabric.
    pub fn wrap<P: Port>(self: &Arc<Self>, ports: Vec<P>) -> Vec<TimedPort<P>> {
        ports
            .into_iter()
            .map(|inner| TimedPort {
                role: self.roles[inner.index()],
                inner,
                sink: Arc::clone(self),
                spans: Vec::with_capacity(1024),
            })
            .collect()
    }

    /// Nanoseconds from the sink's epoch to `t`.
    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn role(&self, endpoint: u32) -> Role {
        self.roles[endpoint as usize]
    }

    /// Everything delivered so far: the spans, and each role's
    /// transport send errors.
    pub fn take(&self) -> (Vec<Span>, [u64; 3]) {
        let mut c = self
            .collected
            .lock()
            .expect("a port panicked while delivering spans");
        (
            std::mem::take(&mut c.spans),
            std::mem::take(&mut c.send_errors),
        )
    }
}

/// A [`Port`] that times every call into the port it wraps.
pub struct TimedPort<P: Port> {
    inner: P,
    role: Role,
    sink: Arc<SpanSink>,
    spans: Vec<Span>,
}

impl<P: Port> TimedPort<P> {
    fn record(&mut self, start: Instant, rx: bool, frames: usize) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            start_ns: self.sink.offset_ns(start),
            dur_ns,
            frames: frames as u32,
            rx,
            endpoint: self.inner.index() as u32,
            thread: THREAD.with(|t| *t),
        });
    }
}

impl<P: Port> Drop for TimedPort<P> {
    fn drop(&mut self) {
        let send_errors = self.inner.stats().send_errors;
        // Never panic in drop: a poisoned sink still takes the spans.
        let mut c = self
            .sink
            .collected
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        c.spans.append(&mut self.spans);
        c.send_errors[self.role.index()] += send_errors;
    }
}

impl<P: Port> Port for TimedPort<P> {
    fn n_endpoints(&self) -> usize {
        self.inner.n_endpoints()
    }

    fn index(&self) -> usize {
        self.inner.index()
    }

    fn send(&mut self, to: usize, data: &[u8]) {
        let t = Instant::now();
        self.inner.send(to, data);
        self.record(t, false, 1);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let t = Instant::now();
        let got = self.inner.recv_timeout(timeout);
        self.record(t, true, got.is_some() as usize);
        got
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>, timeout: Duration) -> Option<usize> {
        let t = Instant::now();
        let got = self.inner.recv_into(buf, timeout);
        self.record(t, true, got.is_some() as usize);
        got
    }

    fn send_batch(&mut self, dests: &[usize], frames: &[Vec<u8>]) {
        let t = Instant::now();
        self.inner.send_batch(dests, frames);
        self.record(t, false, dests.len());
    }

    fn recv_batch(&mut self, bufs: &mut BurstBuf, timeout: Duration) -> usize {
        let t = Instant::now();
        let n = self.inner.recv_batch(bufs, timeout);
        self.record(t, true, n);
        n
    }

    fn stats(&self) -> PortStats {
        self.inner.stats()
    }

    fn timeout_granule(&self) -> Option<Duration> {
        self.inner.timeout_granule()
    }
}

/// Per-role totals of one or more traced calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoleTotals {
    pub tx_frames: u64,
    pub tx_ns: u64,
    pub rx_calls: u64,
    pub rx_empty: u64,
    pub rx_frames: u64,
    /// Time in receives that returned frames.
    pub rx_ns: u64,
    /// Time in receives that returned nothing.
    pub rx_empty_ns: u64,
    pub send_errors: u64,
    /// Time a thread of this role spent between port calls after a
    /// send or a non-empty receive: it had work in hand.
    pub busy_ns: u64,
    /// Time between port calls after an empty poll: the thread had
    /// nothing to do (yield, nap, timer sweep).
    pub idle_ns: u64,
}

/// What the spans of one traced call say.
#[derive(Debug, Default, Clone)]
pub struct CallTrace {
    pub roles: [RoleTotals; 3],
    /// Call start → first worker send.
    pub startup_ns: u64,
    /// Last non-empty worker receive → call return.
    pub teardown_ns: u64,
    /// Frames received by the busiest endpoint.
    pub hot_socket_rx_frames: u64,
}

impl CallTrace {
    /// Reduce the spans a sink collected over one call that ran from
    /// `start` for `wall`.
    pub fn reduce(sink: &SpanSink, start: Instant, wall: Duration) -> CallTrace {
        let (mut spans, send_errors) = sink.take();
        let call_start = sink.offset_ns(start);
        let call_end = call_start + wall.as_nanos() as u64;
        let mut t = CallTrace::default();
        for (r, e) in t.roles.iter_mut().zip(send_errors) {
            r.send_errors = e;
        }
        let mut rx_per_endpoint = vec![0u64; sink.roles.len()];
        let mut first_worker_tx = u64::MAX;
        let mut last_worker_rx = call_start;
        for s in &spans {
            let role = sink.role(s.endpoint);
            let r = &mut t.roles[role.index()];
            if s.rx {
                r.rx_calls += 1;
                if s.frames == 0 {
                    r.rx_empty += 1;
                    r.rx_empty_ns += s.dur_ns;
                } else {
                    r.rx_frames += s.frames as u64;
                    r.rx_ns += s.dur_ns;
                    rx_per_endpoint[s.endpoint as usize] += s.frames as u64;
                    if role == Role::Worker {
                        last_worker_rx = last_worker_rx.max(s.end_ns());
                    }
                }
            } else {
                r.tx_frames += s.frames as u64;
                r.tx_ns += s.dur_ns;
                if role == Role::Worker {
                    first_worker_tx = first_worker_tx.min(s.start_ns);
                }
            }
        }
        t.startup_ns = first_worker_tx.min(call_end).saturating_sub(call_start);
        t.teardown_ns = call_end.saturating_sub(last_worker_rx);
        t.hot_socket_rx_frames = rx_per_endpoint.iter().copied().max().unwrap_or(0);

        // Gaps between consecutive port calls of one thread. Every
        // runner thread serves endpoints of a single role.
        spans.sort_unstable_by_key(|s| (s.thread, s.start_ns));
        for pair in spans.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.thread != b.thread {
                continue;
            }
            let gap = b.start_ns.saturating_sub(a.end_ns());
            let r = &mut t.roles[sink.role(a.endpoint).index()];
            if a.rx && a.frames == 0 {
                r.idle_ns += gap;
            } else {
                r.busy_ns += gap;
            }
        }
        t
    }

    /// Fold another call's trace into this running total.
    pub fn merge(&mut self, o: &CallTrace) {
        for (a, b) in self.roles.iter_mut().zip(&o.roles) {
            a.tx_frames += b.tx_frames;
            a.tx_ns += b.tx_ns;
            a.rx_calls += b.rx_calls;
            a.rx_empty += b.rx_empty;
            a.rx_frames += b.rx_frames;
            a.rx_ns += b.rx_ns;
            a.rx_empty_ns += b.rx_empty_ns;
            a.send_errors += b.send_errors;
            a.busy_ns += b.busy_ns;
            a.idle_ns += b.idle_ns;
        }
        self.startup_ns += o.startup_ns;
        self.teardown_ns += o.teardown_ns;
        self.hot_socket_rx_frames += o.hot_socket_rx_frames;
    }

    /// Total time inside port calls, all roles.
    pub fn port_ns(&self) -> u64 {
        self.roles
            .iter()
            .map(|r| r.tx_ns + r.rx_ns + r.rx_empty_ns)
            .sum()
    }

    pub fn role(&self, role: Role) -> &RoleTotals {
        &self.roles[role.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Reference;
    use crate::workload::{call, find, Inputs, Topology, K};
    use switchml_transport::udp::udp_fabric;

    fn roles_for(n: usize) -> Vec<Role> {
        (0..n)
            .map(|i| if i == 0 { Role::Switch } else { Role::Worker })
            .collect()
    }

    #[test]
    fn zero_timeout_batch_poll_on_an_empty_udp_socket_does_not_block() {
        let sink = SpanSink::new(roles_for(2));
        let mut ports = sink.wrap(udp_fabric(2).unwrap());
        let mut bufs = BurstBuf::new(32, 2048);
        // Warm the path (GRO opt-in happens on the first burst poll).
        assert_eq!(ports[1].recv_batch(&mut bufs, Duration::ZERO), 0);
        let polls = 200;
        let t = Instant::now();
        for _ in 0..polls {
            assert_eq!(ports[1].recv_batch(&mut bufs, Duration::ZERO), 0);
        }
        // A poll that rounded zero up to the 100 µs receive-timeout
        // granule would take ≥ 20 ms here.
        let per_poll = t.elapsed() / polls;
        assert!(
            per_poll < Duration::from_micros(50),
            "zero-timeout poll took {per_poll:?}"
        );
        drop(ports);
        let (spans, _) = sink.take();
        assert_eq!(spans.len(), polls as usize + 1, "one span per call");
        assert!(spans
            .iter()
            .all(|s| s.rx && s.frames == 0 && s.endpoint == 1));
    }

    #[test]
    fn every_port_method_reaches_the_inner_port() {
        let sink = SpanSink::new(roles_for(2));
        let mut ports = sink.wrap(udp_fabric(2).unwrap());
        assert_eq!(ports[1].n_endpoints(), 2);
        assert_eq!(ports[1].index(), 1);
        assert_eq!(
            ports[1].timeout_granule(),
            udp_fabric(1).unwrap()[0].timeout_granule()
        );
        let long = Duration::from_secs(1);
        ports[0].send(1, b"a");
        assert_eq!(ports[1].recv_timeout(long), Some((0, b"a".to_vec())));
        ports[0].send(1, b"b");
        let mut buf = Vec::new();
        assert_eq!(ports[1].recv_into(&mut buf, long), Some(0));
        assert_eq!(buf, b"b");
        ports[0].send_batch(&[1, 1], &[b"c".to_vec(), b"d".to_vec()]);
        let mut bufs = BurstBuf::new(32, 2048);
        let mut got = 0;
        while got < 2 {
            got += ports[1].recv_batch(&mut bufs, long);
        }
        assert_eq!(ports[0].stats(), PortStats::default());
        drop(ports);
        let (spans, errors) = sink.take();
        assert_eq!(errors, [0; 3]);
        let tx: u32 = spans.iter().filter(|s| !s.rx).map(|s| s.frames).sum();
        let rx: u32 = spans.iter().filter(|s| s.rx).map(|s| s.frames).sum();
        assert_eq!((tx, rx), (4, 4));
    }

    /// Tracing must not change what it measures: a traced `bulk-8w`
    /// call keeps the untraced retransmission level (a wrapper that
    /// made zero-timeout polls block would multiply it).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "times full 256 Ki-element UDP all-reduces; run with --release"
    )]
    fn traced_bulk_call_keeps_the_untraced_retransmit_level() {
        let w = find("bulk-8w").unwrap();
        let inputs = Inputs::generate(w, 3);
        let reference = Reference::build(&inputs.grads, inputs.f, K).unwrap();
        let proto = w.protocol(inputs.f);
        let Topology::Flat { workers } = w.topo else {
            unreachable!("bulk-8w is a flat star")
        };
        let retx_per_send = |sink: Option<&Arc<SpanSink>>| -> f64 {
            let mut rates: Vec<f64> = (0..3)
                .map(|i| {
                    let c = call(w, &inputs, &proto, i, sink);
                    let report = c.result.expect("bulk-8w call succeeds");
                    assert!(reference.matches(&report));
                    let (sent, retx) = report
                        .worker_stats
                        .iter()
                        .fold((0, 0), |(s, r), st| (s + st.sent, r + st.retx));
                    retx as f64 / sent as f64
                })
                .collect();
            rates.sort_by(f64::total_cmp);
            rates[1]
        };
        let untraced = retx_per_send(None);
        let sink = SpanSink::new(roles_for(workers + 1));
        let traced = retx_per_send(Some(&sink));
        assert!(
            traced <= 2.0 * untraced + 0.02,
            "traced retx/send {traced} vs untraced {untraced}"
        );
        let (spans, _) = sink.take();
        assert!(!spans.is_empty());
    }
}
