//! Per-unit layer costs, replayed from a workload's own inputs: the
//! same `n`, `k`, `f` and pool the timed calls use, driven through the
//! layers' public functions outside any runner.

use std::hint::black_box;
use std::time::Instant;
use switchml_core::config::Protocol;
use switchml_core::packet::{encode_update_into, PacketView, PoolVersion, WorkerId};
use switchml_core::simd;
use switchml_core::switch::reliable::ReliableSwitch;
use switchml_core::switch::WireAction;

/// Nanoseconds per unit of each replayed layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `simd::quantize`, per element, one `k`-chunk at a time.
    pub quantize_ns_per_elem: f64,
    /// `simd::dequantize`, per element, one `k`-chunk at a time.
    pub dequantize_ns_per_elem: f64,
    /// `encode_update_into`, per packet.
    pub encode_ns: f64,
    /// `PacketView::parse`, per packet.
    pub parse_ns: f64,
    /// `ReliableSwitch::on_view`, per update.
    pub switch_ns_per_update: f64,
}

/// Samples per layer; the median is reported.
const SAMPLES: usize = 5;
/// Each sample repeats its pass until it has run at least this long,
/// so tiny workloads still time well above the clock's resolution.
const MIN_SAMPLE_NS: u64 = 5_000_000;

/// Median over [`SAMPLES`] of ns per unit, where one `pass()` does
/// `units` units of work.
fn ns_per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches and lazy set-up
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut reps = 0u64;
            while reps == 0 || (t.elapsed().as_nanos() as u64) < MIN_SAMPLE_NS {
                pass();
                reps += 1;
            }
            t.elapsed().as_nanos() as f64 / (reps as f64 * units as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

/// Replay the layers over `grads` (the first `fan_in` of which feed one
/// switch) and the reference's integer sums `int_sum`.
pub fn measure(grads: &[Vec<f32>], int_sum: &[i32], proto: &Protocol, fan_in: usize) -> LayerCosts {
    let k = proto.k;
    let f = proto.scaling_factor;
    let elems = grads[0].len();
    let chunks = elems.div_ceil(k);
    let mut q = vec![0i32; k];
    let mut deq = vec![0f32; k];

    let quantize_ns_per_elem = ns_per_unit(grads.len() * elems, || {
        for g in grads {
            for c in g.chunks(k) {
                simd::quantize(black_box(c), f, &mut q[..c.len()]);
                black_box(&q);
            }
        }
    });
    let dequantize_ns_per_elem = ns_per_unit(int_sum.len(), || {
        for c in int_sum.chunks(k) {
            simd::dequantize(black_box(c), f, &mut deq[..c.len()]);
            black_box(&deq);
        }
    });

    // The update stream one first-level switch receives: for each chunk,
    // every worker's update, in the slot/version order a worker engine
    // assigns (chunk c → slot c mod s, pool version ⌊c / s⌋ mod 2).
    let s = proto.pool_size;
    let header = |c: usize| {
        let ver = PoolVersion::from_bit((c / s) % 2 == 1);
        (ver, (c % s) as u32, (c * k) as u64)
    };
    let quantized: Vec<Vec<i32>> = grads[..fan_in]
        .iter()
        .map(|g| {
            let mut v = vec![0i32; chunks * k];
            for (src, dst) in g.chunks(k).zip(v.chunks_mut(k)) {
                simd::quantize(src, f, &mut dst[..src.len()]);
            }
            v
        })
        .collect();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(chunks * fan_in);
    for c in 0..chunks {
        let (ver, idx, off) = header(c);
        for (w, v) in quantized.iter().enumerate() {
            let mut buf = Vec::new();
            encode_update_into(
                w as WorkerId,
                ver,
                idx,
                off,
                0,
                false,
                &v[c * k..(c + 1) * k],
                &mut buf,
            );
            frames.push(buf);
        }
    }
    let mut scratch = Vec::with_capacity(frames[0].len());
    let encode_ns = ns_per_unit(frames.len(), || {
        for c in 0..chunks {
            let (ver, idx, off) = header(c);
            for (w, v) in quantized.iter().enumerate() {
                let values = black_box(&v[c * k..(c + 1) * k]);
                encode_update_into(w as WorkerId, ver, idx, off, 0, false, values, &mut scratch);
                black_box(&scratch);
            }
        }
    });
    let parse_ns = ns_per_unit(frames.len(), || {
        for fr in &frames {
            black_box(PacketView::parse(black_box(fr)).expect("replayed frame parses"));
        }
    });

    let views: Vec<PacketView> = frames
        .iter()
        .map(|fr| PacketView::parse(fr).expect("replayed frame parses"))
        .collect();
    let switch_proto = Protocol {
        n_workers: fan_in,
        ..proto.clone()
    };
    let switch_ns_per_update = ns_per_unit(views.len(), || {
        let mut sw = ReliableSwitch::new(&switch_proto).expect("valid switch protocol");
        let mut completions = 0usize;
        for v in &views {
            if sw
                .on_view(v, &mut scratch)
                .expect("replayed update is accepted")
                == WireAction::Multicast
            {
                completions += 1;
            }
        }
        assert_eq!(completions, chunks, "every replayed chunk completes once");
    });

    LayerCosts {
        quantize_ns_per_elem,
        dequantize_ns_per_elem,
        encode_ns,
        parse_ns,
        switch_ns_per_update,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Reference;
    use crate::workload::{find, Inputs, K};

    #[test]
    fn replay_costs_are_positive_and_finite() {
        let w = find("small-8w").unwrap();
        let inputs = Inputs::generate(w, 5);
        let reference = Reference::build(&inputs.grads, inputs.f, K).unwrap();
        let costs = measure(
            &inputs.grads,
            &reference.int_sum,
            &w.protocol(inputs.f),
            w.switch_fan_in(),
        );
        for v in [
            costs.quantize_ns_per_elem,
            costs.dequantize_ns_per_elem,
            costs.encode_ns,
            costs.parse_ns,
            costs.switch_ns_per_update,
        ] {
            assert!(v.is_finite() && v > 0.0, "{costs:?}");
        }
    }
}
