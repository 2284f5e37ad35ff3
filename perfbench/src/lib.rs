//! The switchml repository benchmark.
//!
//! A closed loop: one process issues one all-reduce call at a time
//! through the public runner entry points (`run_allreduce_reactor`,
//! `run_allreduce_hier`) over real UDP loopback sockets, and checks each
//! call's tensors bit for bit against a sequential reference.
//!
//! `--trace 0` reports the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced calls: the traced ones
//! wrap every port in a [`timed_port::TimedPort`], and replayed
//! per-unit layer costs ([`replay`]) are set against the run's counts
//! to attribute each call's time to the layers.

pub mod oracle;
pub mod replay;
pub mod sys;
pub mod timed_port;
pub mod workload;

use oracle::{Reference, Tally};
use std::time::{Duration, Instant};
use switchml_transport::RunReport;
use timed_port::{CallTrace, Role, SpanSink, ROLES};
use workload::{call, derive_seed, Inputs, Topology, Workload, K};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Untimed calls at the end of each set-up.
pub const WARMUP_CALLS: u64 = 1;
/// A run makes at least this many timed calls, however short.
const MIN_CALLS: usize = 4;
/// The tail percentile must leave at least this many calls beyond it.
const TAIL_BEYOND: usize = 10;
/// Percentile reported as `tat_ms_tail`. A 25 s run makes 180–400
/// calls on the bulk, loss and tree workloads, so p90 leaves 18–40
/// beyond it (p95 would leave 9–20). On `small-8w` (~13 000 calls)
/// p95 and p99 moved 10–30% between quiet runs on a 2-vCPU host, so
/// one percentile serves every workload and never switches between
/// runs.
const TAIL_PCT: f64 = 90.0;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one benchmark run produced.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Facts about the run worth recording next to the metrics.
    pub notes: Vec<(&'static str, String)>,
}

/// Median of a slice (NaN when empty, e.g. when every traced call failed).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a non-empty slice, and how many samples
/// lie beyond it.
fn percentile(xs: &[f64], pct: f64) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// [`TAIL_PCT`], or the next lower percentile with at least
/// [`TAIL_BEYOND`] samples beyond it when a run made too few calls.
fn tail(xs: &[f64]) -> (f64, f64, usize) {
    for pct in [TAIL_PCT, 80.0, 75.0] {
        let (v, beyond) = percentile(xs, pct);
        if beyond >= TAIL_BEYOND {
            return (pct, v, beyond);
        }
    }
    let (v, beyond) = percentile(xs, 50.0);
    (50.0, v, beyond)
}

/// Endpoint roles in the workload's fabric layout.
fn roles(w: &Workload) -> Vec<Role> {
    let leaves = match w.topo {
        Topology::Flat { .. } => 0,
        Topology::Tree { racks, .. } => racks,
    };
    (0..w.fabric_size())
        .map(|i| match i {
            0 => Role::Switch,
            i if i <= leaves => Role::Leaf,
            _ => Role::Worker,
        })
        .collect()
}

/// Program counters summed over traced calls.
#[derive(Default)]
struct Counters {
    calls: u64,
    wall_ns: f64,
    updates: u64,
    duplicates: u64,
    result_retx: u64,
    worker_sent: u64,
    worker_retx: u64,
    worker_results: u64,
    karn_discards: u64,
    srtt_ns: f64,
    polls: u64,
    rx_batches: u64,
    idle_sleeps: u64,
    timer_fires: u64,
    cascades: u64,
    leaf_duplicates: u64,
    up_sent: u64,
    up_retx: u64,
    spine_updates: u64,
    fault_sent: u64,
    fault_dropped: u64,
}

impl Counters {
    fn add(&mut self, r: &RunReport, wall: Duration) {
        self.calls += 1;
        self.wall_ns += wall.as_nanos() as f64;
        let mut sw = r.switch_stats;
        if let Some(h) = &r.hier {
            self.spine_updates += r.switch_stats.updates;
            for (leaf, up) in h.leaf_switch_stats.iter().zip(&h.leaf_up_stats) {
                sw.merge(*leaf);
                self.leaf_duplicates += leaf.duplicates;
                self.up_sent += up.sent;
                self.up_retx += up.retx;
            }
        }
        self.updates += sw.updates;
        self.duplicates += sw.duplicates;
        self.result_retx += sw.result_retx;
        for st in &r.worker_stats {
            self.worker_sent += st.sent;
            self.worker_retx += st.retx;
            self.worker_results += st.results;
            self.karn_discards += st.karn_discards;
        }
        self.srtt_ns += r.worker_stats.iter().map(|s| s.srtt_ns).max().unwrap_or(0) as f64;
        if let Some(rs) = r.reactor {
            self.polls += rs.polls;
            self.rx_batches += rs.rx_batches;
            self.idle_sleeps += rs.idle_sleeps;
            self.timer_fires += rs.timer_fires;
            self.cascades += rs.cascades;
        }
    }

    fn per_call(&self, v: u64) -> f64 {
        v as f64 / self.calls.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run one workload: set up [`SETUP_REPS`] times, then issue calls for
/// `seconds`. With `trace`, every other call is traced and the
/// per-layer metrics are reported instead of the end-to-end ones.
pub fn run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    sys::keep_heap_warm();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take()); // free the previous set-up before building the next
        let t = Instant::now();
        let inputs = Inputs::generate(w, seed);
        let reference =
            Reference::build(&inputs.grads, inputs.f, K).expect("reference for valid inputs");
        let proto = w.protocol(inputs.f);
        for i in 0..WARMUP_CALLS {
            let _ = call(w, &inputs, &proto, derive_seed(seed, u64::MAX - i), None);
        }
        setups.push(t.elapsed().as_secs_f64());
        state = Some((inputs, reference, proto));
    }
    let (inputs, reference, proto) = state.expect("at least one set-up");
    let roles = roles(w);

    let mut tally = Tally::default();
    let mut plain_walls = Vec::new();
    let mut plain_cpu_ns = 0u64;
    let mut plain_ok = 0u64;
    let mut traced_walls = Vec::new();
    let mut counters = Counters::default();
    let mut trace_sum = CallTrace::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut i = 0u64;
    while Instant::now() < deadline || (i as usize) < MIN_CALLS {
        let traced = trace && i % 2 == 1;
        let sink = traced.then(|| SpanSink::new(roles.clone()));
        let c = call(w, &inputs, &proto, derive_seed(seed, i), sink.as_ref());
        let ok = tally.record(&c.result, &reference);
        match (&sink, &c.result) {
            (Some(sink), Ok(report)) => {
                traced_walls.push(c.wall.as_secs_f64() * 1e3);
                counters.add(report, c.wall);
                counters.fault_sent += c.fault_sent;
                counters.fault_dropped += c.fault_dropped;
                trace_sum.merge(&CallTrace::reduce(sink, c.started, c.wall));
            }
            (Some(_), Err(_)) => {}
            (None, _) => {
                plain_walls.push(c.wall.as_secs_f64() * 1e3);
                plain_cpu_ns += c.cpu_ns;
                plain_ok += ok as u64;
            }
        }
        i += 1;
    }

    let mut notes = vec![
        ("calls_untraced", plain_walls.len().to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("scaling_factor", inputs.f.to_string()),
    ];
    let metrics = if trace {
        notes.push(("calls_traced", traced_walls.len().to_string()));
        let costs = replay::measure(&inputs.grads, &reference.int_sum, &proto, w.switch_fan_in());
        layer_metrics(
            w,
            &counters,
            &trace_sum,
            &costs,
            &traced_walls,
            &plain_walls,
        )
    } else {
        let (pct, tail_ms, beyond) = tail(&plain_walls);
        notes.push(("tat_ms_tail_percentile", pct.to_string()));
        notes.push(("tat_ms_tail_calls_beyond", beyond.to_string()));
        let elems = w.elems as f64;
        let wall_s: f64 = plain_walls.iter().sum::<f64>() / 1e3;
        let calls = plain_walls.len() as f64;
        vec![
            metric("ate_per_s", plain_ok as f64 * elems / wall_s, "elem/s"),
            metric("tat_ms_p50", median(&plain_walls), "ms"),
            metric("tat_ms_tail", tail_ms, "ms"),
            metric(
                "cpu_ns_per_elem",
                plain_cpu_ns as f64 / (calls * elems),
                "ns/elem",
            ),
            metric("calls_ok_frac", tally.ok_frac(), "ratio"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
        ]
    };
    Outcome {
        tally,
        metrics,
        notes,
    }
}

fn layer_metrics(
    w: &Workload,
    c: &Counters,
    t: &CallTrace,
    costs: &replay::LayerCosts,
    traced_walls: &[f64],
    plain_walls: &[f64],
) -> Vec<Metric> {
    let k = K as f64;
    let calls = c.calls.max(1) as f64;
    let mut m = vec![
        metric(
            "quant.quantize_ns_per_elem",
            costs.quantize_ns_per_elem,
            "ns/elem",
        ),
        metric(
            "quant.dequantize_ns_per_elem",
            costs.dequantize_ns_per_elem,
            "ns/elem",
        ),
        metric("packet.encode_ns", costs.encode_ns, "ns"),
        metric("packet.parse_ns", costs.parse_ns, "ns"),
        metric("switch.ns_per_update", costs.switch_ns_per_update, "ns"),
        metric("switch.updates", c.per_call(c.updates), "count"),
        metric("switch.duplicates", c.per_call(c.duplicates), "count"),
        metric("switch.result_retx", c.per_call(c.result_retx), "count"),
        metric(
            "switch.useful_frac",
            ratio((c.updates - c.duplicates) as f64, c.updates as f64),
            "ratio",
        ),
        metric(
            "engine.retx_per_send",
            ratio(c.worker_retx as f64, c.worker_sent as f64),
            "ratio",
        ),
        metric("engine.srtt_us", c.srtt_ns / calls / 1e3, "us"),
        metric("engine.karn_discards", c.per_call(c.karn_discards), "count"),
    ];
    for role in ROLES {
        let r = t.role(role);
        let p = |s: &str| format!("port.{}.{s}", role.name());
        m.push(metric(
            p("tx_ns_per_frame"),
            ratio(r.tx_ns as f64, r.tx_frames as f64),
            "ns",
        ));
        m.push(metric(
            p("rx_ns_per_frame"),
            ratio(r.rx_ns as f64, r.rx_frames as f64),
            "ns",
        ));
        m.push(metric(
            p("rx_frames_per_call"),
            r.rx_frames as f64 / calls,
            "count",
        ));
        m.push(metric(
            p("empty_poll_frac"),
            ratio(r.rx_empty as f64, r.rx_calls as f64),
            "ratio",
        ));
        m.push(metric(
            p("send_errors"),
            r.send_errors as f64 / calls,
            "count",
        ));
    }
    m.extend([
        metric("reactor.polls", c.per_call(c.polls), "count"),
        metric(
            "reactor.rx_batch_frac",
            ratio(c.rx_batches as f64, c.polls as f64),
            "ratio",
        ),
        metric("reactor.idle_sleeps", c.per_call(c.idle_sleeps), "count"),
        metric("reactor.timer_fires", c.per_call(c.timer_fires), "count"),
        metric("reactor.cascades", c.per_call(c.cascades), "count"),
        metric(
            "reactor.startup_us",
            t.startup_ns as f64 / calls / 1e3,
            "us",
        ),
        metric(
            "reactor.teardown_us",
            t.teardown_ns as f64 / calls / 1e3,
            "us",
        ),
    ]);
    for role in ROLES {
        let r = t.role(role);
        let p = |s: &str| format!("thread.{}.{s}", role.name());
        m.push(metric(p("busy_ms"), r.busy_ns as f64 / calls / 1e6, "ms"));
        m.push(metric(p("idle_ms"), r.idle_ns as f64 / calls / 1e6, "ms"));
    }

    // Σ(per-unit layer cost × the run's counts), against the runner
    // threads' wall time. Quantize runs once per update sent
    // (retransmits re-quantize), dequantize once per accepted result,
    // parse once per received frame; the switch replay includes result
    // encoding; port time is measured directly.
    let frames_rx: u64 = ROLES.iter().map(|&r| t.role(r).rx_frames).sum();
    let worker_updates = (c.worker_sent + c.worker_retx) as f64;
    let explained_ns = costs.quantize_ns_per_elem * k * worker_updates
        + costs.dequantize_ns_per_elem * k * c.worker_results as f64
        + costs.encode_ns * (worker_updates + (c.up_sent + c.up_retx) as f64)
        + costs.parse_ns * frames_rx as f64
        + costs.switch_ns_per_update * c.updates as f64
        + t.port_ns() as f64;
    let thread_ns = c.wall_ns * w.runner_threads() as f64;
    let idle_ns: u64 = ROLES.iter().map(|&r| t.role(r).idle_ns).sum();
    m.extend([
        metric(
            "hier.leaf_duplicates",
            c.per_call(c.leaf_duplicates),
            "count",
        ),
        metric(
            "hier.up_retx_per_send",
            ratio(c.up_retx as f64, c.up_sent as f64),
            "ratio",
        ),
        metric("hier.spine_updates", c.per_call(c.spine_updates), "count"),
        metric(
            "hier.hot_socket_rx_frames",
            t.hot_socket_rx_frames as f64 / calls,
            "count",
        ),
        metric(
            "fault.injected_drop_frac",
            ratio(c.fault_dropped as f64, c.fault_sent as f64),
            "ratio",
        ),
        metric(
            "ledger.explained_frac",
            ratio(explained_ns, thread_ns),
            "ratio",
        ),
        metric(
            "ledger.idle_frac",
            ratio(idle_ns as f64, thread_ns),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            median(traced_walls) / median(plain_walls) - 1.0,
            "ratio",
        ),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (100.0, 100));
        assert_eq!(percentile(&xs, 95.0), (190.0, 10));
        assert_eq!(tail(&xs), (90.0, 180.0, 20));
        assert_eq!(tail(&xs[..50]), (80.0, 40.0, 10));
        assert_eq!(tail(&xs[..10]), (50.0, 5.0, 5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn roles_follow_the_fabric_layouts() {
        use Role::*;
        let flat = roles(workload::find("small-8w").unwrap());
        assert_eq!(flat.len(), 9);
        assert_eq!((flat[0], flat[1], flat[8]), (Switch, Worker, Worker));
        let tree = roles(workload::find("tree-2x16").unwrap());
        assert_eq!(tree.len(), 35);
        assert_eq!(&tree[..4], &[Switch, Leaf, Leaf, Worker]);
    }
}
