#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Mirrors dls-svm's solver conventions (paper-shaped conditions, parallel
// array loops).
#![allow(clippy::nonminimal_bool, clippy::needless_range_loop)]

//! # dls-baseline
//!
//! A LIBSVM-style reference SMO implementation: the "parallel LIBSVM
//! (state-of-the-art SVM software on CPUs using CSR format)" baseline of
//! the paper's Figure 7.
//!
//! Deliberately faithful to how LIBSVM evaluates kernels rather than to how
//! an HPC-tuned code would:
//!
//! * the data layout is **fixed CSR** regardless of the dataset — the exact
//!   non-adaptivity the paper argues against;
//! * kernel values are computed one element at a time with a sorted
//!   **merge-join** of two sparse rows (LIBSVM's `Kernel::dot`), instead of
//!   the scatter-gather SMSV of `dls-sparse`;
//! * each kernel row allocates fresh storage — no workspace reuse and no
//!   kernel-row cache.
//!
//! The arithmetic is identical to `dls_svm::train`, so accuracy matches;
//! only the constant factors differ. That makes speedups of the adaptive
//! system over this baseline attributable purely to layout and kernel
//! engineering, as in the paper.

use dls_sparse::{CsrMatrix, MatrixFormat, Scalar, SparseVec, TripletMatrix};
use dls_svm::{KernelKind, SvmError, SvmModel};

/// Hyperparameters of the reference solver (mirrors `SmoParams` minus the
/// engineering knobs the reference deliberately lacks).
#[derive(Debug, Clone, Copy)]
pub struct LibsvmLikeParams {
    /// Regularization constant `C`.
    pub c: Scalar,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Convergence tolerance τ.
    pub tolerance: Scalar,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for LibsvmLikeParams {
    fn default() -> Self {
        Self { c: 1.0, kernel: KernelKind::default(), tolerance: 1e-3, max_iterations: 100_000 }
    }
}

/// Convergence info from a reference run.
#[derive(Debug, Clone, Copy)]
pub struct LibsvmLikeStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the duality gap closed.
    pub converged: bool,
}

/// Trains with the reference solver. The input is triplets because the
/// baseline *always* re-encodes to CSR — its defining limitation.
pub fn train_libsvm_like(
    t: &TripletMatrix,
    y: &[Scalar],
    params: &LibsvmLikeParams,
) -> Result<(SvmModel, LibsvmLikeStats), SvmError> {
    let x = CsrMatrix::from_triplets(t);
    let n = x.rows();
    if y.len() != n {
        return Err(SvmError::LabelLengthMismatch { rows: n, labels: y.len() });
    }
    for (i, &yi) in y.iter().enumerate() {
        if yi != 1.0 && yi != -1.0 {
            return Err(SvmError::NonBinaryLabel { index: i, value: yi });
        }
    }
    if !y.contains(&1.0) || !y.contains(&-1.0) {
        return Err(SvmError::SingleClass);
    }

    let c = params.c;
    let eps = 1e-12;
    // LIBSVM recomputes x·x lazily; we keep its one concession to caching.
    let norms: Vec<Scalar> = (0..n).map(|i| x.row_sparse(i).norm_sq()).collect();

    let mut alpha = vec![0.0; n];
    let mut f: Vec<Scalar> = y.iter().map(|&yi| -yi).collect();

    // One kernel row, LIBSVM-style: extract both rows and merge-join per
    // element. Fresh allocations every call.
    let kernel_row = |i: usize| -> Vec<Scalar> {
        let xi = x.row_sparse(i);
        (0..n)
            .map(|j| {
                let dot = x.row_sparse(j).dot(&xi);
                params.kernel.apply(dot, norms[j], norms[i])
            })
            .collect()
    };

    let mut iterations = 0;
    let mut converged = false;
    loop {
        let (mut high, mut low) = (usize::MAX, usize::MAX);
        let (mut b_high, mut b_low) = (Scalar::INFINITY, Scalar::NEG_INFINITY);
        for i in 0..n {
            let ai = alpha[i];
            let free = ai > eps && ai < c - eps;
            let at_zero = ai <= eps;
            let in_high = free || (y[i] > 0.0 && at_zero) || (y[i] < 0.0 && !at_zero && !free);
            let in_low = free || (y[i] > 0.0 && !at_zero && !free) || (y[i] < 0.0 && at_zero);
            if in_high && f[i] < b_high {
                b_high = f[i];
                high = i;
            }
            if in_low && f[i] > b_low {
                b_low = f[i];
                low = i;
            }
        }
        if high == usize::MAX || low == usize::MAX || b_low - b_high <= 2.0 * params.tolerance {
            converged = true;
            break;
        }
        if iterations >= params.max_iterations {
            break;
        }
        iterations += 1;

        let k_high = kernel_row(high);
        let k_low = kernel_row(low);
        let (yh, yl) = (y[high], y[low]);
        let s = yh * yl;
        let eta = (k_high[high] + k_low[low] - 2.0 * k_high[low]).max(1e-12);
        let (l_bound, h_bound) = if s < 0.0 {
            ((alpha[low] - alpha[high]).max(0.0), (c + alpha[low] - alpha[high]).min(c))
        } else {
            ((alpha[low] + alpha[high] - c).max(0.0), (alpha[low] + alpha[high]).min(c))
        };
        let alpha_low_new = (alpha[low] + yl * (f[high] - f[low]) / eta).clamp(l_bound, h_bound);
        let delta_low = alpha_low_new - alpha[low];
        if delta_low.abs() < 1e-14 {
            break;
        }
        let delta_high = -s * delta_low;
        alpha[low] = alpha_low_new;
        alpha[high] = (alpha[high] + delta_high).clamp(0.0, c);
        for i in 0..n {
            f[i] += delta_high * yh * k_high[i] + delta_low * yl * k_low[i];
        }
    }

    let (mut b_high, mut b_low) = (Scalar::INFINITY, Scalar::NEG_INFINITY);
    for i in 0..n {
        let ai = alpha[i];
        let free = ai > eps && ai < c - eps;
        let at_zero = ai <= eps;
        let in_high = free || (y[i] > 0.0 && at_zero) || (y[i] < 0.0 && !at_zero && !free);
        let in_low = free || (y[i] > 0.0 && !at_zero && !free) || (y[i] < 0.0 && at_zero);
        if in_high {
            b_high = b_high.min(f[i]);
        }
        if in_low {
            b_low = b_low.max(f[i]);
        }
    }
    let bias = -(b_high + b_low) / 2.0;

    let mut svs: Vec<SparseVec> = Vec::new();
    let mut coefs = Vec::new();
    for i in 0..n {
        if alpha[i] > eps {
            svs.push(x.row_sparse(i));
            coefs.push(alpha[i] * y[i]);
        }
    }
    Ok((SvmModel::new(params.kernel, svs, coefs, bias), LibsvmLikeStats { iterations, converged }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::labels::linear_teacher_labels;
    use dls_data::{generate, DatasetSpec};
    use dls_sparse::CsrMatrix;
    use dls_svm::{train_with_stats, SmoParams};

    fn small_problem() -> (TripletMatrix, Vec<Scalar>) {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(30);
        let t = generate(&spec, 9);
        let y = linear_teacher_labels(&t, 0.0, 9);
        (t, y)
    }

    #[test]
    fn baseline_and_tuned_solver_agree() {
        let (t, y) = small_problem();
        let base_params = LibsvmLikeParams { kernel: KernelKind::Linear, ..Default::default() };
        let (base_model, base_stats) = train_libsvm_like(&t, &y, &base_params).unwrap();
        assert!(base_stats.converged);

        let x = CsrMatrix::from_triplets(&t);
        let tuned_params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let (tuned_model, tuned_stats) = train_with_stats(&x, &y, &tuned_params).unwrap();
        assert!(tuned_stats.converged);

        // Same algorithm → identical iteration counts and bias.
        assert_eq!(base_stats.iterations, tuned_stats.iterations);
        assert!((base_model.bias() - tuned_model.bias()).abs() < 1e-9);

        // Identical predictions on all training rows.
        for i in 0..t.rows() {
            let r = t.row_sparse(i);
            assert_eq!(base_model.predict_label(&r), tuned_model.predict_label(&r));
        }
    }

    #[test]
    fn baseline_classifies_teacher_labels() {
        let (t, y) = small_problem();
        let params = LibsvmLikeParams { kernel: KernelKind::Linear, ..Default::default() };
        let (model, _) = train_libsvm_like(&t, &y, &params).unwrap();
        let preds: Vec<Scalar> =
            (0..t.rows()).map(|i| model.predict_label(&t.row_sparse(i))).collect();
        let acc = dls_svm::accuracy(&preds, &y);
        assert!(acc > 0.8, "baseline accuracy {acc}");
    }

    #[test]
    fn baseline_validates_inputs() {
        let (t, _) = small_problem();
        let params = LibsvmLikeParams::default();
        assert!(matches!(
            train_libsvm_like(&t, &[1.0], &params),
            Err(SvmError::LabelLengthMismatch { .. })
        ));
        let bad = vec![2.0; t.rows()];
        assert!(matches!(
            train_libsvm_like(&t, &bad, &params),
            Err(SvmError::NonBinaryLabel { .. })
        ));
        let ones = vec![1.0; t.rows()];
        assert!(matches!(train_libsvm_like(&t, &ones, &params), Err(SvmError::SingleClass)));
    }
}
