//! # switchml-transport
//!
//! Real (threaded) transports for the SwitchML protocol — the same
//! sans-IO state machines `switchml-netsim` simulates, driven by OS
//! threads with wall-clock retransmission timers:
//!
//! * [`channel`] — in-memory crossbeam-channel fabric (fast, hermetic);
//! * [`udp`] — UDP sockets on loopback (real datagrams, real kernel),
//!   with a batched `sendmmsg`/`recvmmsg` fast path on Linux;
//! * [`faulty`] — deterministic fault injection (loss, duplication,
//!   bounded reordering, recv-side drop) for either;
//! * [`runner`] — one switch thread + n worker threads running a full
//!   synchronous all-reduce over burst I/O ([`port::BurstBuf`] /
//!   [`port::TxBatch`], `RunConfig::burst`); the Float16 and
//!   multi-round-session path;
//! * [`reactor`] — the one worker-side executor for Fixed32 runs: a
//!   fixed pool of OS threads each owning many worker engines, polling
//!   non-blocking bursts and a hashed [`wheel::TimerWheel`] for RTOs,
//!   so worker count is decoupled from thread count (one thread per
//!   engine is just a configuration);
//! * [`shard`] — the flat switch loop, one thread per switch shard;
//! * [`hier`] — the §6 two-level tree: leaf switches between the
//!   reactor's engines and a spine shard.
//!
//! ```no_run
//! use switchml_transport::{channel::channel_fabric, runner::{run_allreduce, RunConfig}};
//! use switchml_core::config::Protocol;
//!
//! let proto = Protocol { n_workers: 2, ..Protocol::default() };
//! let ports = channel_fabric(3); // switch + 2 workers
//! let updates = vec![vec![vec![1.0_f32; 64]], vec![vec![2.0_f32; 64]]];
//! let report = run_allreduce(ports, updates, &proto, &RunConfig::default()).unwrap();
//! assert!((report.results[0][0][0] - 3.0).abs() < 1e-3);
//! ```

pub mod channel;
pub mod chaos;
pub mod faulty;
pub mod hier;
pub mod port;
pub mod reactor;
pub mod runner;
pub mod shard;
pub mod udp;
pub mod wheel;

pub use hier::{
    hier_fabric_size, hier_worker_endpoint, leaf_endpoint, run_allreduce_hier, HierConfig,
    HierReport, SPINE_ENDPOINT,
};
pub use port::{worker_endpoint, BurstBuf, Port, PortStats, TxBatch, SWITCH_ENDPOINT};
pub use reactor::{run_allreduce_reactor, ReactorStats};
pub use runner::{
    resolve_run_proto, run_allreduce, run_allreduce_session, RunConfig, RunReport, SessionReport,
};
pub use shard::{sharded_channel_fabric, sharded_fabric_size};
pub use wheel::TimerWheel;
