//! Predicted solve times, validated against the circuit simulation.
//!
//! The hwmodel's analytical settle-time formula
//! (`aa_hwmodel::analog_solve_time_s`) predicts Figure 8/9 timings for
//! problems far larger than the circuit simulator can run; this module
//! provides the general-matrix version and the glue to check the analytic
//! model against measured engine runs for small problems.

use aa_hwmodel::design::AcceleratorDesign;
use aa_linalg::eigen;
use aa_linalg::CsrMatrix;

use crate::SolverError;

/// Predicted analog settle time for solving `A·u = b` on `design`, seconds.
///
/// `t = ln(2^bits) / (ω_u · λ̃_min)` where `λ̃_min` is the smallest
/// eigenvalue of the value-scaled matrix `A / max|a_ij|` (estimated
/// numerically by shifted power iteration).
///
/// # Errors
///
/// Returns [`SolverError::InvalidProblem`] if the eigenvalue estimate is
/// non-positive (matrix not positive definite).
pub fn predicted_solve_time_s(
    a: &CsrMatrix,
    design: &AcceleratorDesign,
) -> Result<f64, SolverError> {
    let scale = a.max_abs();
    if scale == 0.0 {
        return Err(SolverError::invalid("matrix has no non-zero coefficient"));
    }
    let est = eigen::smallest_eigenvalue(a, 200_000, 1e-10)?;
    if est.value <= 0.0 {
        return Err(SolverError::invalid(
            "matrix must be positive definite for the gradient flow to settle",
        ));
    }
    let lambda_scaled = est.value / scale;
    let precision = f64::from(2u32).powi(design.adc_bits as i32);
    Ok(precision.ln() / (design.omega() * lambda_scaled))
}

/// Amortizes a sequential settle-time estimate over a `columns`-wide
/// coalesced sweep: `estimate / max(columns, 1)`.
///
/// Batched columns advance in lockstep and complete together: one K-lane
/// sweep settles in the same wall time as a single solve (the settle rate
/// is a property of the matrix, not of the lane count), so a request
/// served inside a K-wide sweep is billed `1/K` of the sweep. Judging a
/// deadline against the sequential [`predicted_solve_time_s`] would
/// over-price a coalescing fleet by up to the batch width. `columns` is
/// floored at 1, which reproduces the sequential estimate exactly.
///
/// This is the **single** batch-amortization rule — admission control and
/// drain hints both route through it, so the fleet's deadline arithmetic
/// can never drift from the estimator's.
pub fn amortized_solve_time_s(estimate_s: f64, columns: usize) -> f64 {
    estimate_s / columns.max(1) as f64
}

/// Predicted analog time for a Krylov-preconditioned request: one
/// supervised analog solve per preconditioner application, `applications`
/// applications per FCG solve, never coalesced (each application's
/// right-hand side depends on the previous iteration's residual, so
/// Krylov requests cannot share a multi-RHS sweep).
///
/// This is the deadline profile the fleet prices `SolveMode::KrylovPrecond`
/// requests against (aa-sched) — deliberately the same code path as the
/// direct estimate, scaled instead of amortized.
pub fn krylov_solve_time_s(estimate_s: f64, applications: usize) -> f64 {
    estimate_s * applications.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{AnalogSystemSolver, SolverConfig};
    use aa_hwmodel::timing::{analog_solve_time_s, PoissonProblem};
    use aa_linalg::stencil::PoissonStencil;

    #[test]
    fn general_estimate_matches_poisson_closed_form() {
        let l = 8;
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_2d(l).unwrap());
        let design = AcceleratorDesign::prototype_20khz();
        let general = predicted_solve_time_s(&a, &design).unwrap();
        let closed = analog_solve_time_s(&design, &PoissonProblem::new_2d(l));
        assert!(
            (general - closed).abs() / closed < 0.02,
            "{general} vs {closed}"
        );
    }

    #[test]
    fn analytic_model_matches_circuit_simulation() {
        // The load-bearing validation: the hwmodel timing formula (used for
        // Figures 8/9 at large N) agrees with the behavioural circuit
        // simulation at small N, up to the steady-detection threshold's
        // logarithmic factor.
        let l = 4;
        let a = CsrMatrix::from_row_access(&PoissonStencil::new_1d(l).unwrap());
        let cfg = SolverConfig::ideal().adc_bits(12);
        let mut solver = AnalogSystemSolver::new(&a, &cfg).unwrap();
        let b = vec![0.02; l];
        let measured = solver.solve(&b).unwrap().analog_time_s;

        let design = AcceleratorDesign::new("test", cfg.bandwidth_hz, cfg.adc_bits);
        let predicted = predicted_solve_time_s(&a, &design).unwrap();
        // The engine stops on |du/dt|, the model on solution precision —
        // both are exponential settles with the same rate constant, so they
        // agree within a factor of ~3.
        let ratio = measured / predicted;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "measured {measured:.3e} vs predicted {predicted:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn batched_estimate_amortizes_the_shared_sweep() {
        let a = CsrMatrix::tridiagonal(6, -1.0, 2.0, -1.0).unwrap();
        let design = AcceleratorDesign::prototype_20khz();
        let single = predicted_solve_time_s(&a, &design).unwrap();
        for k in [1usize, 4, 16] {
            let batched = amortized_solve_time_s(predicted_solve_time_s(&a, &design).unwrap(), k);
            assert_eq!(batched, single / k as f64);
        }
        // Degenerate width is floored at the sequential estimate.
        assert_eq!(
            amortized_solve_time_s(predicted_solve_time_s(&a, &design).unwrap(), 0),
            single
        );
    }

    #[test]
    fn amortization_and_krylov_profiles_share_the_estimate() {
        // One sequential estimate; both deadline profiles are pure scalings
        // of it (floored widths/counts reproduce it exactly).
        assert_eq!(amortized_solve_time_s(8.0, 4), 2.0);
        assert_eq!(amortized_solve_time_s(8.0, 0), 8.0);
        assert_eq!(krylov_solve_time_s(8.0, 6), 48.0);
        assert_eq!(krylov_solve_time_s(8.0, 0), 8.0);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = CsrMatrix::from_triplets(
            2,
            &[
                aa_linalg::Triplet::new(0, 0, 1.0),
                aa_linalg::Triplet::new(1, 1, -1.0),
            ],
        )
        .unwrap();
        assert!(predicted_solve_time_s(&a, &AcceleratorDesign::prototype_20khz()).is_err());
    }

    #[test]
    fn zero_matrix_rejected() {
        let a = CsrMatrix::from_triplets(1, &[aa_linalg::Triplet::new(0, 0, 0.0)]).unwrap();
        assert!(predicted_solve_time_s(&a, &AcceleratorDesign::prototype_20khz()).is_err());
    }
}
