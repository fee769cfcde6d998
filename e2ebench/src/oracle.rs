//! The independent correctness oracle and the answer tally.
//!
//! Every served answer is re-checked against the benchmark's own copy of
//! `A` and `b` ([`Problem::rel_residual`]); the program's reported residual
//! is never trusted. Each answer must meet the contract of the path that
//! produced it. A violation fails the run and counts against the answered
//! share. A refusal is backpressure, not a violation: it lowers the
//! answered share and leaves the run correct.

use crate::gen::Problem;

/// Relative slack on a contract tolerance, covering only the rounding
/// difference between the program's residual arithmetic and the oracle's.
const ROUNDING_SLACK: f64 = 1e-9;

/// Violations kept verbatim for the report (all are counted).
const KEPT_VIOLATIONS: usize = 8;

/// Running totals over the answers of one run (or one window of it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Requests submitted or library calls made.
    pub attempted: u64,
    /// Submissions the program refused.
    pub refused: u64,
    /// Calls that returned an error, or tickets that never completed.
    pub errored: u64,
    /// Answers that broke their path's contract.
    pub wrong: u64,
    /// Answers that met their contract.
    pub correct: u64,
    /// Correct answers produced by the analog array.
    pub analog: u64,
    /// Σ modelled chip seconds, rejected attempts and preconditioner
    /// applications included.
    pub chip_s: f64,
    /// Σ modelled chip energy, joules.
    pub energy_j: f64,
    /// Largest oracle residual among correct answers.
    pub residual_max: f64,
    /// The first few violations, described; empty exactly when no answer
    /// was wrong and nothing errored or went missing.
    pub violations: Vec<String>,
}

/// One answer as the caller sees it.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// The solution vector.
    pub solution: &'a [f64],
    /// The path's residual contract, `‖b − A·u‖/‖b‖ ≤ tolerance`.
    pub tolerance: f64,
    /// Whether the analog array produced it.
    pub analog: bool,
    /// Modelled chip seconds it consumed.
    pub chip_s: f64,
    /// Modelled chip energy it consumed, joules.
    pub energy_j: f64,
    /// A short description for violation messages.
    pub what: &'a str,
}

impl Tally {
    /// Checks one answer against `A·u = b` and its contract; returns whether
    /// it passed.
    pub fn answer(&mut self, problem: &Problem, b: &[f64], answer: Answer<'_>) -> bool {
        let residual = problem.rel_residual(answer.solution, b);
        self.chip_s += answer.chip_s;
        self.energy_j += answer.energy_j;
        if residual <= answer.tolerance * (1.0 + ROUNDING_SLACK) {
            self.correct += 1;
            self.analog += u64::from(answer.analog);
            self.residual_max = self.residual_max.max(residual);
            true
        } else {
            self.wrong += 1;
            self.violate(format!(
                "{}: residual {residual:e} breaks its contract {:e}",
                answer.what, answer.tolerance
            ));
            false
        }
    }

    /// Records a submission the program refused.
    pub fn refuse(&mut self) {
        self.refused += 1;
    }

    /// Records an error or a lost ticket: a violation.
    pub fn error(&mut self, what: String) {
        self.errored += 1;
        self.violate(what);
    }

    /// Counts another tally's failures and keeps its violations (answers
    /// checked outside the reported phase: warm-ups, untraced replicas).
    pub fn absorb_failures(&mut self, other: Tally) {
        self.refused += other.refused;
        self.errored += other.errored;
        self.wrong += other.wrong;
        for v in other.violations {
            self.violate(v);
        }
    }

    fn violate(&mut self, what: String) {
        if self.violations.len() < KEPT_VIOLATIONS {
            self.violations.push(what);
        }
    }

    /// Refused + errored + wrong.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.wrong
    }

    /// Answers counted (correct or wrong) — the denominator of every
    /// per-answer figure.
    pub fn answers(&self) -> u64 {
        self.correct + self.wrong
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(solution: &[f64], tolerance: f64) -> Answer<'_> {
        Answer {
            solution,
            tolerance,
            analog: true,
            chip_s: 1e-3,
            energy_j: 2e-6,
            what: "test",
        }
    }

    #[test]
    fn answers_are_judged_by_the_oracle_not_the_caller() {
        let p = Problem::tridiagonal(3, 2.0);
        let b = [1.0, 0.0, 1.0];
        let exact = [1.0, 1.0, 1.0];
        let mut t = Tally::default();
        assert!(t.answer(&p, &b, ok(&exact, 1e-12)));
        assert!(!t.answer(&p, &b, ok(&[1.0, 1.1, 1.0], 1e-2)));
        assert!(!t.answer(&p, &b, ok(&[1.0, f64::NAN, 1.0], 1e-2)));
        assert!(!t.answer(&p, &b, ok(&[1.0, 1.0], 1e-2)));
        assert_eq!((t.correct, t.wrong, t.analog), (1, 3, 1));
        assert_eq!(t.residual_max, 0.0);
        assert_eq!(t.answers(), 4);
        t.refuse();
        t.error("lost".into());
        assert_eq!(t.failed(), 5);
        assert_eq!(t.violations.len(), 4, "a refusal is not a violation");
        assert!((t.chip_s - 4e-3).abs() < 1e-15);
    }
}
