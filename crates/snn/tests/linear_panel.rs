//! The fully connected synapse's stored weight panel, and what a batch row's
//! position may change.
//!
//! `SynapticOp::linear` lays `Wᵀ` out once, with its 16-column tiles
//! packed for the dense kernel; `apply` must then produce the bits the
//! per-call `matmul_nt` (dense, packing each tile per call) or transpose +
//! zero-skip (sparse) path produced, at every SIMD level. The second half pins the batch-row
//! contract the engines' lane compaction and admission lean on: at the
//! unfused levels a sample's current does not depend on where it sits in
//! the batch; at every level that holds for binary spike inputs, whose
//! products `1·w` are exact.

use tcl_snn::{CurrentPath, SynapticOp};
use tcl_tensor::{ops, simd, SeededRng, Tensor};

const IN_F: usize = 256;
const OUT_F: usize = 128;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The pre-panel `linear_current` + bias: transpose `weight` on the call,
/// then the dense blocked kernel or the zero-skip kernel by the same
/// 1-in-8 density gate.
fn per_call_current(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let (rows, in_f) = input.shape().as_matrix().unwrap();
    let out_f = weight.dims()[0];
    let nonzero = input.data().iter().filter(|&&v| v != 0.0).count();
    let mut out = if nonzero * 8 >= rows * in_f {
        ops::matmul_nt(input, weight).unwrap()
    } else {
        let mut weight_t = vec![0.0f32; in_f * out_f];
        ops::transpose_into(weight.data(), &mut weight_t, out_f, in_f);
        let mut out = Tensor::zeros([rows, out_f]);
        ops::matmul_into_sparse(input.data(), &weight_t, out.data_mut(), rows, in_f, out_f);
        out
    };
    for row in out.data_mut().chunks_exact_mut(out_f) {
        for (v, &b) in row.iter_mut().zip(bias.data()) {
            *v += b;
        }
    }
    out
}

/// `rows × IN_F` inputs: each entry nonzero with probability `density`,
/// drawn from `values`.
fn raster(rng: &mut SeededRng, rows: usize, density: f32, values: &[f32]) -> Tensor {
    let data = (0..rows * IN_F)
        .map(|_| {
            if rng.uniform(0.0, 1.0) < density {
                values[rng.below(values.len())]
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec([rows, IN_F], data).unwrap()
}

/// Average-pooled spikes (a 2×2 pool of 0/1 spikes), the input of the
/// first linear layer after a pooling node.
const POOLED: [f32; 4] = [0.25, 0.5, 0.75, 1.0];

/// Rows `rows` of `batch`, in order, as a new batch.
fn take_rows(batch: &Tensor, rows: &[usize]) -> Tensor {
    let data = rows
        .iter()
        .flat_map(|&r| batch.data()[r * IN_F..(r + 1) * IN_F].iter().copied())
        .collect();
    Tensor::from_vec([rows.len(), IN_F], data).unwrap()
}

fn layer(rng: &mut SeededRng) -> (SynapticOp, Tensor, Tensor) {
    let weight = rng.uniform_tensor([OUT_F, IN_F], -0.2, 0.2);
    let bias = rng.uniform_tensor([OUT_F], -0.1, 0.1);
    let op = SynapticOp::linear(weight.clone(), Some(bias.clone())).unwrap();
    (op, weight, bias)
}

#[test]
fn stored_panel_matches_per_call_transpose_on_both_density_branches() {
    let mut rng = SeededRng::new(15);
    let (op, weight, bias) = layer(&mut rng);
    // Dense analog input, dense spikes, and two sparse rasters (binary and
    // pooled), at the batch sizes the engines step.
    let cases = [
        (1.0, &[0.3f32, -0.7, 0.9][..]),
        (0.4, &[1.0][..]),
        (0.05, &[1.0][..]),
        (0.05, &POOLED[..]),
    ];
    for level in simd::Level::available() {
        simd::with_level(level, || {
            for (density, values) in cases {
                for rows in [1usize, 4, 5, 32] {
                    let x = raster(&mut rng, rows, density, values);
                    assert_eq!(
                        bits(&op.apply(&x).unwrap()),
                        bits(&per_call_current(&x, &weight, &bias)),
                        "{} density {density} rows {rows}",
                        level.name()
                    );
                }
            }
        });
    }
}

/// The dense branch reads the panel's packed tiles; the per-call product
/// packs each tile afresh. Both must give the same bits at every level, for
/// every batch of 1 to 12 rows (full 4-row bands, ragged rows and both),
/// with an output width of whole 16-column tiles and one with 5 edge
/// columns, and the sparse branch must keep reading the row-major panel.
#[test]
fn packed_panel_matches_per_call_packing_for_every_row_count() {
    let mut rng = SeededRng::new(18);
    for out_f in [OUT_F, OUT_F + 5] {
        let weight = rng.uniform_tensor([out_f, IN_F], -0.2, 0.2);
        let bias = rng.uniform_tensor([out_f], -0.1, 0.1);
        let op = SynapticOp::linear(weight.clone(), Some(bias.clone())).unwrap();
        for level in simd::Level::available() {
            simd::with_level(level, || {
                for rows in 1..=12 {
                    for (density, path) in
                        [(0.5, CurrentPath::Dense), (0.05, CurrentPath::SparseRows)]
                    {
                        let x = raster(&mut rng, rows, density, &POOLED);
                        assert_eq!(op.path(&x), path, "density {density} rows {rows}");
                        assert_eq!(
                            bits(&op.apply(&x).unwrap()),
                            bits(&per_call_current(&x, &weight, &bias)),
                            "{} out_f {out_f} density {density} rows {rows}",
                            level.name()
                        );
                    }
                }
            });
        }
    }
}

/// One sample's current as row 4 of a 5-row batch, as row 0 of the 4-row
/// batch left after the first four retire, and alone.
fn row_positions(op: &SynapticOp, batch5: &Tensor) -> [Vec<u32>; 3] {
    let out5 = op.apply(batch5).unwrap();
    let out4 = op.apply(&take_rows(batch5, &[4, 0, 1, 2])).unwrap();
    let out1 = op.apply(&take_rows(batch5, &[4])).unwrap();
    let row = |t: &Tensor, r: usize| bits(t)[r * OUT_F..(r + 1) * OUT_F].to_vec();
    [row(&out5, 4), row(&out4, 0), row(&out1, 0)]
}

#[test]
fn batch_row_position_is_invariant_at_unfused_levels() {
    let mut rng = SeededRng::new(16);
    let (op, _, _) = layer(&mut rng);
    let batch5 = raster(&mut rng, 5, 0.5, &POOLED);
    for level in [simd::Level::Scalar, simd::Level::Wide] {
        let [last_of_five, first_of_four, alone] =
            simd::with_level(level, || row_positions(&op, &batch5));
        assert_eq!(last_of_five, first_of_four, "{}", level.name());
        assert_eq!(last_of_five, alone, "{}", level.name());
    }
}

#[test]
fn binary_spike_rows_are_position_invariant_at_every_level() {
    let mut rng = SeededRng::new(17);
    let (op, _, _) = layer(&mut rng);
    // Above and below the density gate, so both kernels are covered.
    for density in [0.5, 0.08] {
        let batch5 = raster(&mut rng, 5, density, &[1.0]);
        for level in simd::Level::available() {
            let [last_of_five, first_of_four, alone] =
                simd::with_level(level, || row_positions(&op, &batch5));
            assert_eq!(
                last_of_five,
                first_of_four,
                "{} density {density}",
                level.name()
            );
            assert_eq!(last_of_five, alone, "{} density {density}", level.name());
        }
    }
}
