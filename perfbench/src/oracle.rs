//! The per-call correctness oracle: a sequential reference built once
//! per workload through the public `TensorStream` path, and a tally
//! that compares every call's tensors to it bit for bit.

use switchml_core::config::NumericMode;
use switchml_core::error::Result;
use switchml_core::packet::Payload;
use switchml_core::worker::stream::TensorStream;
use switchml_transport::RunReport;

/// The expected all-reduce result.
pub struct Reference {
    /// The dequantized sum every worker must receive.
    pub result: Vec<f32>,
    /// The integer sums, chunk-padded to a multiple of `k`.
    pub int_sum: Vec<i32>,
}

impl Reference {
    /// Quantize each worker's tensor chunk by chunk, add the integers
    /// sequentially with the switch's saturating addition, and
    /// dequantize through a result stream — the same reference the
    /// repository's differential tests use.
    pub fn build(grads: &[Vec<f32>], f: f64, k: usize) -> Result<Reference> {
        let elems = grads[0].len();
        let mut int_sum = vec![0i32; elems.div_ceil(k) * k];
        for g in grads {
            let stream =
                TensorStream::from_f32(std::slice::from_ref(g), NumericMode::Fixed32, f, k)?;
            for chunk in 0..stream.total_chunks() {
                let off = chunk as usize * k;
                let Payload::I32(v) = stream.payload_chunk(off as u64)? else {
                    unreachable!("a Fixed32 stream carries i32 payloads");
                };
                for (acc, x) in int_sum[off..].iter_mut().zip(&v) {
                    *acc = acc.saturating_add(*x);
                }
            }
        }
        let mut out = TensorStream::from_f32(&[vec![0.0; elems]], NumericMode::Fixed32, f, k)?;
        for chunk in 0..out.total_chunks() {
            let off = chunk as usize * k;
            out.write_result(off as u64, &Payload::I32(int_sum[off..off + k].to_vec()))?;
        }
        let result = out.result_tensors_f32(1)?.remove(0);
        Ok(Reference { result, int_sum })
    }

    /// Does every worker hold exactly the reference tensor, bit for bit?
    pub fn matches(&self, report: &RunReport) -> bool {
        !report.results.is_empty()
            && report.results.iter().all(|tensors| {
                tensors.len() == 1
                    && tensors[0].len() == self.result.len()
                    && tensors[0]
                        .iter()
                        .zip(&self.result)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }
}

/// Calls attempted and failed. A failure is an `Err` or a result that
/// is not bit-identical to the reference; it is counted, never fatal.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one call; returns whether it succeeded.
    pub fn record(&mut self, result: &Result<RunReport>, reference: &Reference) -> bool {
        self.attempted += 1;
        let ok = matches!(result, Ok(report) if reference.matches(report));
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{call, find, Inputs, K};
    use switchml_core::error::Error;

    #[test]
    fn corrupted_or_failed_calls_are_counted_as_failed() {
        let w = find("small-8w").unwrap();
        let inputs = Inputs::generate(w, 7);
        let reference = Reference::build(&inputs.grads, inputs.f, K).unwrap();
        let proto = w.protocol(inputs.f);
        let good = call(w, &inputs, &proto, 7, None).result;
        let mut tally = Tally::default();
        assert!(tally.record(&good, &reference), "an honest call matches");

        // One flipped mantissa bit in one worker's tensor.
        let mut bad = good.unwrap();
        bad.results[3][0][17] = f32::from_bits(bad.results[3][0][17].to_bits() ^ 1);
        assert!(!tally.record(&Ok(bad), &reference));

        let err = Err(Error::ProtocolViolation("wall budget exceeded".into()));
        assert!(!tally.record(&err, &reference));

        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.ok_frac() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reference_is_the_rounded_sum() {
        let w = find("small-8w").unwrap();
        let inputs = Inputs::generate(w, 1);
        let reference = Reference::build(&inputs.grads, inputs.f, K).unwrap();
        for i in [0, 1, 4095] {
            let exact: f64 = inputs.grads.iter().map(|g| g[i] as f64).sum();
            let tol = inputs.grads.len() as f64 / inputs.f;
            assert!((reference.result[i] as f64 - exact).abs() <= tol + 1e-6);
        }
    }
}
