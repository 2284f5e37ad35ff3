//! The benchmark's workloads, their seeded inputs, and one timed
//! all-reduce call over a fresh UDP loopback fabric.

use crate::sys::cpu_ns;
use crate::timed_port::SpanSink;
use std::sync::Arc;
use std::time::{Duration, Instant};
use switchml_core::config::{NumericMode, Protocol, RtoPolicy};
use switchml_core::error::Result;
use switchml_transport::faulty::{faulty_fabric, FaultyConfig};
use switchml_transport::udp::udp_fabric;
use switchml_transport::{
    hier_fabric_size, run_allreduce_hier, run_allreduce_reactor, shard::sharded_fabric_size,
    HierConfig, Port, RunConfig, RunReport,
};

/// Elements per packet (the paper's deployment value).
pub const K: usize = 32;
/// Aggregator slots per pool version.
pub const POOL: usize = 128;
/// Frames per burst on the batched I/O path.
pub const BURST: usize = 32;
/// Fixed retransmission timeout. Every retransmit on a lossless
/// workload is therefore spurious, and shows as a cost.
pub const RTO_NS: u64 = 5_000_000;
/// Reactor threads multiplexing the worker engines.
pub const REACTOR_THREADS: usize = 1;
/// A call that has not finished by then returns `Err` and counts as
/// failed; it keeps one wedged call from outliving the run's budget.
pub const MAX_WALL: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One switch shard, `workers` worker engines.
    Flat { workers: usize },
    /// §6 two-level tree: a spine, `racks` leaves, `per_rack` workers each.
    Tree { racks: usize, per_rack: usize },
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in BENCHMARK.json).
    pub why: &'static str,
    pub topo: Topology,
    /// Elements in each worker's gradient tensor.
    pub elems: usize,
    /// Send-side loss on every port (0 = lossless fabric).
    pub loss: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk-8w",
        why: "Flat star, 8 workers x 256 Ki elements, lossless: the per-element layers (quantize, codec, UDP batch I/O, one switch thread) do most of the work.",
        topo: Topology::Flat { workers: 8 },
        elems: 256 * 1024,
        loss: 0.0,
    },
    Workload {
        name: "small-8w",
        why: "Flat star, 8 workers x 4 Ki elements (one pool of chunks): per-call fixed costs (thread spin-up, engine set-up, first-RTT fill, idle naps) dominate.",
        topo: Topology::Flat { workers: 8 },
        elems: 4 * 1024,
        loss: 0.0,
    },
    Workload {
        name: "loss1-8w",
        why: "bulk-8w with 1% seeded send-side loss on every port: the retransmission path (wheel expiries, duplicates, shadow-copy result retx) does the work.",
        topo: Topology::Flat { workers: 8 },
        elems: 256 * 1024,
        loss: 0.01,
    },
    Workload {
        name: "tree-2x16",
        why: "2 racks x 16 workers x 64 Ki elements through the hierarchical runner: the only workload with leaf switches, the up-hop RTO domain and incast relief.",
        topo: Topology::Tree {
            racks: 2,
            per_rack: 16,
        },
        elems: 64 * 1024,
        loss: 0.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn n_workers(&self) -> usize {
        match self.topo {
            Topology::Flat { workers } => workers,
            Topology::Tree { racks, per_rack } => racks * per_rack,
        }
    }

    /// OS threads the runner spawns per call: one switch shard plus the
    /// reactor for a flat star; the spine, one thread per leaf, and the
    /// reactor for a tree.
    pub fn runner_threads(&self) -> usize {
        match self.topo {
            Topology::Flat { .. } => 1 + REACTOR_THREADS,
            Topology::Tree { racks, .. } => 1 + racks + REACTOR_THREADS,
        }
    }

    pub fn fabric_size(&self) -> usize {
        match self.topo {
            Topology::Flat { workers } => sharded_fabric_size(workers, 1),
            Topology::Tree { racks, per_rack } => hier_fabric_size(racks, per_rack),
        }
    }

    /// Workers feeding one first-level switch: the star's switch, or
    /// one rack's leaf.
    pub fn switch_fan_in(&self) -> usize {
        match self.topo {
            Topology::Flat { workers } => workers,
            Topology::Tree { per_rack, .. } => per_rack,
        }
    }

    pub fn protocol(&self, scaling_factor: f64) -> Protocol {
        Protocol {
            n_workers: self.n_workers(),
            k: K,
            pool_size: POOL,
            rto_ns: RTO_NS,
            rto_policy: RtoPolicy::Fixed,
            mode: NumericMode::Fixed32,
            wrapping_add: false,
            scaling_factor,
        }
    }
}

pub fn run_config() -> RunConfig {
    RunConfig {
        max_wall: MAX_WALL,
        n_cores: 1,
        burst: BURST,
    }
}

/// SplitMix64: a tiny seeded generator, so inputs are a pure function
/// of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1), with 24 random bits.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    }
}

/// Mix a seed with a stream index into an independent seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next()
}

/// A workload's generated gradients and the scaling factor they use.
pub struct Inputs {
    /// One tensor per worker.
    pub grads: Vec<Vec<f32>>,
    /// Fixed32 scaling factor, at Appendix C's no-overflow bound.
    pub f: f64,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let n = w.n_workers();
        let grads: Vec<Vec<f32>> = (0..n)
            .map(|rank| {
                let mut rng = SplitMix64(derive_seed(seed, rank as u64));
                (0..w.elems).map(|_| rng.unit()).collect()
            })
            .collect();
        let b = grads
            .iter()
            .flatten()
            .fold(0f32, |m, g| m.max(g.abs()))
            .max(f32::MIN_POSITIVE) as f64;
        // Appendix C: f ≤ (2³¹ − n)/(n·B) keeps every n-way integer sum
        // inside i32, so saturating and exact addition agree.
        let f = ((2f64.powi(31) - n as f64) / (n as f64 * b)).floor();
        Inputs { grads, f }
    }

    /// The runner's input layout: one single-tensor list per worker.
    pub fn updates(&self) -> Vec<Vec<Vec<f32>>> {
        self.grads.iter().map(|g| vec![g.clone()]).collect()
    }
}

/// One timed runner call.
pub struct Call {
    pub result: Result<RunReport>,
    /// When the runner call started.
    pub started: Instant,
    /// Wall time around the runner call alone.
    pub wall: Duration,
    /// Process CPU time over the same interval.
    pub cpu_ns: u64,
    /// Frames offered to / dropped by the fault injector (0 when lossless).
    pub fault_sent: u64,
    pub fault_dropped: u64,
}

/// Run one all-reduce over a freshly bound loopback fabric. Fabric
/// set-up and the input copy happen before the clock starts. With a
/// `sink`, every port is wrapped in a [`crate::timed_port::TimedPort`]
/// recording into it. `call_seed` seeds the loss pattern.
pub fn call(
    w: &Workload,
    inputs: &Inputs,
    proto: &Protocol,
    call_seed: u64,
    sink: Option<&Arc<SpanSink>>,
) -> Call {
    let ports = udp_fabric(w.fabric_size()).expect("bind a UDP loopback fabric");
    let updates = inputs.updates();
    if w.loss > 0.0 {
        let (ports, stats) = faulty_fabric(ports, FaultyConfig::batch_loss_only(w.loss), call_seed);
        let mut c = traced(w, ports, updates, proto, sink);
        c.fault_sent = stats.sent();
        c.fault_dropped = stats.dropped();
        c
    } else {
        traced(w, ports, updates, proto, sink)
    }
}

fn traced<P: Port + 'static>(
    w: &Workload,
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
    sink: Option<&Arc<SpanSink>>,
) -> Call {
    match sink {
        Some(sink) => timed(w, sink.wrap(ports), updates, proto),
        None => timed(w, ports, updates, proto),
    }
}

fn timed<P: Port + 'static>(
    w: &Workload,
    ports: Vec<P>,
    updates: Vec<Vec<Vec<f32>>>,
    proto: &Protocol,
) -> Call {
    let cfg = run_config();
    let cpu0 = cpu_ns();
    let t0 = Instant::now();
    let result = match w.topo {
        Topology::Flat { .. } => {
            run_allreduce_reactor(ports, updates, proto, &cfg, REACTOR_THREADS)
        }
        Topology::Tree { racks, per_rack } => {
            let hier = HierConfig {
                n_threads: REACTOR_THREADS,
                ..HierConfig::new(racks, per_rack)
            };
            run_allreduce_hier(ports, updates, proto, &cfg, &hier)
        }
    };
    let wall = t0.elapsed();
    let cpu_ns = cpu_ns() - cpu0;
    Call {
        result,
        started: t0,
        wall,
        cpu_ns,
        fault_sent: 0,
        fault_dropped: 0,
    }
}
