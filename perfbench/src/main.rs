//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON line of run facts, then, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`.

use std::process::ExitCode;
use switchml_core::simd;
use switchml_perfbench::{run, workload, WARMUP_CALLS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A JSON string literal (the values here are plain ASCII text).
fn js(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&args.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (have {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = run(w, args.seed, args.seconds, args.trace);

    let mut facts = vec![
        ("workload", js(w.name)),
        ("why", js(w.why)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("simd_backend", js(simd::active_backend().name())),
        (
            "build_profile",
            js(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        ("runner_threads", w.runner_threads().to_string()),
        ("reactor_threads", workload::REACTOR_THREADS.to_string()),
        ("workers", w.n_workers().to_string()),
        ("elems", w.elems.to_string()),
        ("k", workload::K.to_string()),
        ("pool", workload::POOL.to_string()),
        ("burst", workload::BURST.to_string()),
        ("rto_ns", workload::RTO_NS.to_string()),
        ("loss", w.loss.to_string()),
        ("warmup_calls_per_setup", WARMUP_CALLS.to_string()),
        (
            "network",
            js("UDP over the host loopback interface (127.0.0.1): traffic crossed the host loopback, not a real link"),
        ),
    ];
    facts.extend(out.notes.iter().map(|(k, v)| (*k, v.clone())));
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", js(k)))
        .collect();
    println!("{{\"run\": {{{}}}}}", facts.join(", "));

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                js(&m.name),
                js(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
