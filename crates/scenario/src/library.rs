//! The standing scenario library: every named, curated experiment the
//! regression suite replays. Each scenario states its expectation
//! oracles explicitly; the suite (`tests/scenarios.rs` at the
//! workspace root, plus the `scenario suite` gate in `ci.sh`) runs
//! each one against every transport it supports.
//!
//! Conventions:
//! - Seeds are fixed so failures replay exactly.
//! - Kill/stall instants are microseconds; scenarios whose instants
//!   are only meaningful on one clock (simulated vs wall) narrow
//!   themselves with `only(...)`.
//! - Sizes are chosen so a fault scheduled mid-run actually lands
//!   mid-run on the slowest supported transport.

use crate::spec::{Expect, JobClass, RunnerKind, Scenario, Transport};

/// Every library scenario, in catalog order.
pub fn all() -> Vec<Scenario> {
    let build = |sc: Result<Scenario, String>| sc.expect("library scenario must validate");
    vec![
        // ------------------------------------------------ clean paths
        build(
            Scenario::build("smoke-2w")
                .descr("2 workers, clean fabric: the minimal end-to-end aggregation")
                .workers(2)
                .job_with(|j| j.elems = 1024)
                .expect(Expect::Completes)
                .expect(Expect::BitIdentical)
                .finish(),
        ),
        build(
            Scenario::build("hierarchy-2rack")
                .descr("2 racks x 2 workers through rack switches and a root (§6 hierarchy)")
                .racks(2)
                .workers(2)
                .job_with(|j| j.elems = 2048)
                .expect(Expect::Completes)
                .expect(Expect::BitIdentical)
                .finish(),
        ),
        // ------------------------------------- hierarchy on real sockets
        build(
            Scenario::build("hier-reactor-2x4")
                .descr("2 racks x 4 workers over real sockets: leaf re-aggregation, spine reduce")
                .runner(RunnerKind::Reactor { threads: 2 })
                .racks(2)
                .workers(4)
                .job_with(|j| j.elems = 2048)
                .expect(Expect::Completes)
                .expect(Expect::BitIdentical)
                .finish(),
        ),
        build(
            Scenario::build("hier-loss-both-hops")
                .descr("5% loss around spine and leaves: per-hop RTO domains recover both hops")
                .runner(RunnerKind::Reactor { threads: 2 })
                .racks(2)
                .workers(4)
                .job_with(|j| j.elems = 4096)
                .loss(0.05)
                .seed(77)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .expect(Expect::Retransmissions)
                .finish(),
        ),
        build(
            Scenario::build("hier-rack-kill-refence")
                .descr(
                    "leaf 1 dies at 1ms; the replacement fences its rack epoch, quiet rack idles",
                )
                .runner(RunnerKind::Reactor { threads: 2 })
                .racks(2)
                .workers(4)
                .topology_with(|t| t.k = 32)
                .job_with(|j| j.elems = 16384)
                .kill_rack_at_us(1, 1_000)
                .expect(Expect::BitIdentical)
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Channel])
                .finish(),
        ),
        // ------------------------------------------------ loss storms
        build(
            Scenario::build("loss-storm-5pct")
                .descr("5% loss on every data-plane link; recovery by retransmission")
                .workers(3)
                .job_with(|j| j.elems = 4096)
                .loss(0.05)
                .seed(7)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .expect(Expect::Retransmissions)
                .finish(),
        ),
        build(
            Scenario::build("dup-reorder-blitz")
                .descr("loss + duplication + §3.5-bounded reordering, all at once")
                .workers(3)
                .job_with(|j| j.elems = 4096)
                .loss(0.02)
                .dup(0.04)
                .reorder(0.08)
                .seed(11)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .finish(),
        ),
        build(
            Scenario::build("sharded-4core-loss")
                .descr("4 switch shards + per-core engines under 3% loss")
                .runner(RunnerKind::Reactor { threads: 8 })
                .workers(2)
                .cores(4)
                .job_with(|j| j.elems = 4096)
                .loss(0.03)
                .seed(5)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .finish(),
        ),
        // ------------------------------------------------- stragglers
        build(
            Scenario::build("straggler-one-slow")
                .descr("one worker stalls 200us per send; completion is gated, not corrupted")
                .workers(3)
                .job_with(|j| j.elems = 2048)
                .straggler(1, 200)
                .expect(Expect::BitIdentical)
                .finish(),
        ),
        // ----------------------------------- crashes, no control plane
        build(
            Scenario::build("kill-no-ctrl-clean-degradation")
                .descr("worker crashes mid-run with no controller: error, never wrong numbers")
                .workers(3)
                .job_with(|j| j.elems = 32768)
                .kill_at_us(1, 500)
                .max_wall_ms(2_000)
                .expect(Expect::CleanDegradation)
                .only(&[Transport::Channel, Transport::Udp])
                .finish(),
        ),
        build(
            Scenario::build("kill-at-chunk-40")
                .descr("worker dies after exactly 40 data-plane sends (machine-speed independent)")
                .workers(3)
                .job_with(|j| j.elems = 4096)
                .kill_after_sends(1, 40)
                .max_wall_ms(2_000)
                .expect(Expect::CleanDegradation)
                .only(&[Transport::Channel, Transport::Udp])
                .finish(),
        ),
        // -------------------------------------------- controller runs
        build(
            Scenario::build("ctrl-shrink-on-kill")
                .descr("controller detects a crash by heartbeat silence, shrinks, survivors finish")
                .runner(RunnerKind::Ctrl)
                .workers(3)
                .job_with(|j| j.elems = 16384)
                .kill_at_us(1, 4_000)
                .loss(0.01)
                .seed(3)
                .expect(Expect::SurvivorsBitIdentical)
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Channel, Transport::Udp])
                .finish(),
        ),
        build(
            Scenario::build("ctrl-switch-restart-mid-churn")
                .descr("switch process reboots at 4ms (§5.4): in-place failover re-drives the rest")
                .runner(RunnerKind::Ctrl)
                .workers(2)
                .job_with(|j| j.elems = 16384)
                .switch_restart_ms(4)
                .loss(0.01)
                .seed(13)
                .expect(Expect::SurvivorsBitIdentical)
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Channel, Transport::Udp])
                .finish(),
        ),
        build(
            Scenario::build("cascading-failures")
                .descr("a worker crash then a switch restart, back to back, fenced by epoch bumps")
                .runner(RunnerKind::Ctrl)
                .workers(3)
                .job_with(|j| j.elems = 32768)
                .kill_at_us(1, 3_000)
                .switch_restart_ms(8)
                .loss(0.01)
                .seed(17)
                .expect(Expect::SurvivorsBitIdentical)
                // Kill-recovery and restart-recovery can coalesce into
                // one reconfiguration when the failure_timeout windows
                // overlap, so only one epoch bump is guaranteed.
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Channel, Transport::Udp])
                .finish(),
        ),
        // ------------------------------------------------ netsim ctrl
        build(
            Scenario::build("netsim-kill-shrink")
                .descr("8 simulated workers; one dies at t=25us; survivors agree bit-for-bit")
                .runner(RunnerKind::Ctrl)
                .workers(8)
                .job_with(|j| j.elems = 256)
                .kill_at_us(1, 25)
                .rto_us(300)
                .max_wall_ms(500)
                .expect(Expect::SurvivorsBitIdentical)
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Netsim])
                .finish(),
        ),
        build(
            Scenario::build("netsim-failover")
                .descr("standby switch takes over at t=100us; job completes under a bumped epoch")
                .runner(RunnerKind::Ctrl)
                .workers(4)
                // 512 elems keeps the stream in flight past the 100us
                // drain instant (the ctrl netsim suite's proven pair).
                .job_with(|j| j.elems = 512)
                .failover_us(100)
                .rto_us(300)
                .max_wall_ms(500)
                .expect(Expect::Completes)
                .expect(Expect::SurvivorsBitIdentical)
                .expect(Expect::EpochAtLeast(1))
                .only(&[Transport::Netsim])
                .finish(),
        ),
        // ---------------------------------------------------- reactor
        build(
            Scenario::build("reactor-64-virtual-workers")
                .descr("64 virtual workers multiplexed onto 4 reactor threads")
                .runner(RunnerKind::Reactor { threads: 4 })
                .workers(64)
                .job_with(|j| j.elems = 96)
                .expect(Expect::Completes)
                .expect(Expect::BitIdentical)
                .only(&[Transport::Channel])
                .finish(),
        ),
        build(
            Scenario::build("reactor-loss-adaptive-rto")
                .descr("reactor threads + Jacobson RTO under 5% loss")
                .runner(RunnerKind::Reactor { threads: 2 })
                .workers(3)
                .cores(2)
                .job_with(|j| j.elems = 4096)
                .loss(0.05)
                .seed(77)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .expect(Expect::Retransmissions)
                .finish(),
        ),
        build(
            Scenario::build("udp-gro-burst-loss")
                .descr("batch-preserving loss so UDP GSO/GRO stays engaged under 5% drops")
                .runner(RunnerKind::Reactor { threads: 2 })
                .workers(2)
                .cores(2)
                .job_with(|j| j.elems = 4096)
                .loss(0.05)
                .batch_loss()
                .seed(21)
                .expect(Expect::BitIdentical)
                .expect(Expect::FaultsInjected)
                .expect(Expect::Retransmissions)
                .only(&[Transport::Udp])
                .finish(),
        ),
        // ------------------------------------------------------ sched
        build(
            Scenario::build("sched-mixed-model-zoo")
                .descr("4 jobs of mixed size and priority arriving staggered at one switch")
                .runner(RunnerKind::Sched)
                .workers(2)
                .capacity(32)
                .job_with(|j| j.elems = 2048)
                .job_with(|j| {
                    j.elems = 8192;
                    j.arrival_ms = 3;
                    j.class = JobClass::High;
                    j.weight = 2;
                })
                .job_with(|j| {
                    j.elems = 16384;
                    j.arrival_ms = 6;
                })
                .job_with(|j| {
                    j.elems = 4096;
                    j.arrival_ms = 9;
                    j.class = JobClass::High;
                })
                .max_wall_ms(30_000)
                .expect(Expect::AllJobsComplete)
                .finish(),
        ),
        build(
            Scenario::build("sched-bursty-arrivals")
                .descr("6 jobs land at once on a tight pool; departures trigger repartitions")
                .runner(RunnerKind::Sched)
                .workers(2)
                .capacity(24)
                .job_with(|j| j.elems = 1024)
                .job_with(|j| j.elems = 2048)
                .job_with(|j| {
                    j.elems = 8192;
                    j.class = JobClass::High;
                })
                .job_with(|j| j.elems = 4096)
                .job_with(|j| j.elems = 2048)
                .job_with(|j| {
                    j.elems = 8192;
                    j.class = JobClass::High;
                })
                .max_wall_ms(30_000)
                .expect(Expect::AllJobsComplete)
                .expect(Expect::Resizes)
                .finish(),
        ),
        build(
            Scenario::build("sched-loss-under-preemption")
                .descr("10% loss storm on one tenant while a high-priority job preempts: isolation")
                .runner(RunnerKind::Sched)
                .workers(2)
                .capacity(32)
                .job_with(|j| {
                    j.elems = 16384;
                    j.quota = 16; // the noisy tenant cannot also hog the pool
                })
                .job_with(|j| {
                    j.elems = 8192;
                    j.arrival_ms = 4;
                })
                .job_with(|j| {
                    j.elems = 8192;
                    j.arrival_ms = 8;
                    j.class = JobClass::High;
                    j.weight = 2;
                })
                .loss(0.1)
                .target_job(0)
                .seed(9)
                .max_wall_ms(30_000)
                .expect(Expect::AllJobsComplete)
                .expect(Expect::FaultsInjected)
                .expect(Expect::ZeroQuietTenantFaults)
                .finish(),
        ),
    ]
}

/// Look a library scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    all().into_iter().find(|sc| sc.name == name)
}

/// The UDP-tagged subset: the scenarios CI replays over real loopback
/// sockets under a hard time budget — the ones that exercise something
/// the channel transport cannot (GSO/GRO batching, kernel socket
/// timers) plus a loss storm and a membership shrink as smoke.
pub fn udp_subset() -> &'static [&'static str] {
    &[
        "loss-storm-5pct",
        "reactor-loss-adaptive-rto",
        "udp-gro-burst-loss",
        "ctrl-shrink-on-kill",
        "hier-reactor-2x4",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Transport;

    #[test]
    fn library_has_at_least_15_scenarios() {
        assert!(all().len() >= 15, "library shrank to {}", all().len());
    }

    #[test]
    fn names_are_unique_and_described() {
        let lib = all();
        let mut names: Vec<&str> = lib.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lib.len(), "duplicate scenario names");
        for sc in &lib {
            assert!(!sc.descr.is_empty(), "{} has no description", sc.name);
            assert!(!sc.expect.is_empty(), "{} states no oracle", sc.name);
        }
    }

    #[test]
    fn every_scenario_validates_and_runs_somewhere() {
        for sc in all() {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert!(
                !sc.supported_transports().is_empty(),
                "{} supports no transport",
                sc.name
            );
        }
    }

    #[test]
    fn every_scenario_roundtrips_through_json() {
        for sc in all() {
            let text = sc.to_json_string();
            let back = Scenario::from_json_str(&text)
                .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", sc.name));
            assert_eq!(sc, back, "{} changed across serialization", sc.name);
        }
    }

    #[test]
    fn udp_subset_names_exist_and_support_udp() {
        for name in udp_subset() {
            let sc = find(name).unwrap_or_else(|| panic!("udp subset names unknown '{name}'"));
            assert!(sc.supports(Transport::Udp), "{name} cannot run on udp");
        }
    }

    #[test]
    fn netsim_and_channel_coverage_exists() {
        let lib = all();
        let on = |t: Transport| lib.iter().filter(|s| s.supports(t)).count();
        assert!(on(Transport::Netsim) >= 5, "thin netsim coverage");
        assert!(on(Transport::Channel) >= 10, "thin channel coverage");
        assert!(on(Transport::Udp) >= 8, "thin udp coverage");
    }

    #[test]
    fn find_locates_by_name() {
        assert!(find("loss-storm-5pct").is_some());
        assert!(find("no-such-scenario").is_none());
    }
}
