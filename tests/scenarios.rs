//! Standing regression suite: the curated scenario library replayed
//! against every transport each scenario supports.
//!
//! This is the chaos lab's front door. Each scenario in
//! `switchml_scenario::library` is a declarative value — topology,
//! workload, fault plan, expectation oracle — and this suite runs the
//! whole catalog, split by transport/runner so `cargo test` can
//! parallelize the heavy channel and UDP runs.
//!
//! The UDP subset lives in a test whose name contains `udp` so the CI
//! gate (`cargo test --workspace -q udp`) picks it up alongside the
//! transport crate's loopback tests.

use switchml_scenario::{library, run_scenario, RunnerKind, Scenario, Transport};

/// Run every library scenario that supports `t` and satisfies `pred`;
/// fail with a digest of every violated scenario rather than stopping
/// at the first.
fn run_subset<F>(t: Transport, pred: F)
where
    F: Fn(&Scenario) -> bool,
{
    let mut ran = 0usize;
    let mut failures = Vec::new();
    for sc in library::all() {
        if !sc.supports(t) || !pred(&sc) {
            continue;
        }
        ran += 1;
        match run_scenario(&sc, t) {
            Ok(rep) if rep.passed() => {}
            Ok(rep) => failures.push(rep.summary()),
            Err(e) => failures.push(format!(
                "{} [{}]: not attemptable: {}",
                sc.name,
                t.name(),
                e
            )),
        }
    }
    assert!(ran > 0, "subset selected no scenarios on {}", t.name());
    assert!(
        failures.is_empty(),
        "{} scenario(s) failed on {}:\n  {}",
        failures.len(),
        t.name(),
        failures.join("\n  ")
    );
}

fn is_control_plane(sc: &Scenario) -> bool {
    matches!(sc.runner, RunnerKind::Ctrl | RunnerKind::Sched)
}

/// Every netsim-supported scenario: deterministic, simulated time.
#[test]
fn scenario_suite_netsim() {
    run_subset(Transport::Netsim, |_| true);
}

/// Channel-transport data-plane scenarios (plain/reactor).
#[test]
fn scenario_suite_channel_data_plane() {
    run_subset(Transport::Channel, |sc| !is_control_plane(sc));
}

/// Channel-transport control-plane scenarios (ctrl + sched runners):
/// kills, switch restarts, multi-tenant churn.
#[test]
fn scenario_suite_channel_control_plane() {
    run_subset(Transport::Channel, is_control_plane);
}

/// UDP loopback subset — the scenarios that exercise something the
/// channel transport cannot (GSO/GRO batching, kernel socket RTO
/// behavior) plus a loss storm and a membership-shrink as smoke.
#[test]
fn scenario_suite_udp_subset() {
    run_subset(Transport::Udp, |sc| {
        library::udp_subset().contains(&sc.name.as_str())
    });
}
