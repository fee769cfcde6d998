//! Seeded input generation: structures, right-hand sides and request decks.
//!
//! The benchmark owns its inputs. Every matrix is built here as plain row
//! lists and only converted to the program's `CsrMatrix` at the boundary,
//! so the correctness oracle ([`Problem::rel_residual`]) never relies on the
//! program's own arithmetic. Any seed yields symmetric, irreducibly
//! diagonally dominant matrices with a positive diagonal (hence SPD) and
//! right-hand sides inside `[RHS_MIN, RHS_MAX]`.

use aa_linalg::rng::Rng64;
use aa_linalg::{CsrMatrix, Triplet};

/// Smallest right-hand-side entry the generator emits.
pub const RHS_MIN: f64 = 0.1;
/// Largest right-hand-side entry the generator emits.
pub const RHS_MAX: f64 = 1.0;

/// An independent generator for `seed` and a stream label, so each part
/// of the input (structures, decks, right-hand sides) draws its own
/// stream and changing one leaves the others as they were.
pub fn stream(seed: u64, label: u64) -> Rng64 {
    Rng64::seed_from_u64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A right-hand side of length `n` with entries in `[RHS_MIN, RHS_MAX]`.
pub fn rhs(rng: &mut Rng64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.range(RHS_MIN, RHS_MAX)).collect()
}

/// A square sparse matrix held as the benchmark's own row lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Rows of `(column, value)` pairs.
    pub rows: Vec<Vec<(usize, f64)>>,
}

impl Problem {
    /// The 2D negative Laplacian on an `l × l` interior grid of the unit
    /// square, `(1/h²)·K` with `h = 1/(l+1)`: the same operator as the
    /// program's `PoissonStencil::new_2d(l)`.
    pub fn poisson_2d(l: usize) -> Self {
        // The stencil's own arithmetic, so every coefficient is bit-equal.
        let h = 1.0 / (l as f64 + 1.0);
        let pre = 1.0 / (h * h);
        let rows = (0..l * l)
            .map(|i| {
                let (x, y) = (i % l, i / l);
                let mut row = vec![(i, 4.0 * pre)];
                if x > 0 {
                    row.push((i - 1, -pre));
                }
                if x + 1 < l {
                    row.push((i + 1, -pre));
                }
                if y > 0 {
                    row.push((i - l, -pre));
                }
                if y + 1 < l {
                    row.push((i + l, -pre));
                }
                row
            })
            .collect();
        Problem { rows }
    }

    /// The tridiagonal `[-1, diag, -1]` of size `n`; SPD for `diag ≥ 2`.
    pub fn tridiagonal(n: usize, diag: f64) -> Self {
        let rows = (0..n)
            .map(|i| {
                let mut row = vec![(i, diag)];
                if i > 0 {
                    row.push((i - 1, -1.0));
                }
                if i + 1 < n {
                    row.push((i + 1, -1.0));
                }
                row
            })
            .collect();
        Problem { rows }
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.rows.len()
    }

    /// The program-side copy handed to the stack under test.
    pub fn to_csr(&self) -> CsrMatrix {
        let triplets: Vec<Triplet> = self
            .rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |&(j, v)| Triplet::new(i, j, v)))
            .collect();
        CsrMatrix::from_triplets(self.dim(), &triplets).expect("generated indices are in range")
    }

    /// `‖b − A·u‖₂ / ‖b‖₂`, computed from the benchmark's own copy of `A`.
    /// Non-finite when `u` is the wrong length or holds a non-finite entry.
    pub fn rel_residual(&self, u: &[f64], b: &[f64]) -> f64 {
        if u.len() != self.dim() || b.len() != self.dim() {
            return f64::INFINITY;
        }
        let mut r2 = 0.0;
        let mut b2 = 0.0;
        for (row, &bi) in self.rows.iter().zip(b) {
            let au: f64 = row.iter().map(|&(j, v)| v * u[j]).sum();
            r2 += (bi - au) * (bi - au);
            b2 += bi * bi;
        }
        (r2 / b2).sqrt()
    }
}

/// A shuffled deck: every card is dealt once per pass, in a seeded order,
/// so a skewed popularity holds exactly over each pass instead of only on
/// average — which keeps the request mix, and with it every per-answer
/// figure, steady from one seed to the next.
#[derive(Debug, Clone)]
pub struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
    rng: Rng64,
}

impl<T: Copy> Deck<T> {
    /// A deck holding `count` copies of each value.
    pub fn new(weights: &[(T, usize)], rng: Rng64) -> Self {
        let cards: Vec<T> = weights
            .iter()
            .flat_map(|&(value, count)| std::iter::repeat_n(value, count))
            .collect();
        assert!(!cards.is_empty(), "a deck needs at least one card");
        let next = cards.len();
        Deck { cards, next, rng }
    }

    /// Deals the next card, reshuffling (Fisher–Yates) after each pass.
    pub fn deal(&mut self) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = self.rng.below(i + 1);
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_linalg::stencil::PoissonStencil;
    use aa_linalg::LinearOperator;

    /// Dense Cholesky: succeeds exactly when the matrix is SPD.
    fn cholesky_ok(p: &Problem) -> bool {
        let n = p.dim();
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in p.rows.iter().enumerate() {
            for &(j, v) in row {
                a[i][j] += v;
            }
        }
        if !(0..n).all(|i| (0..n).all(|j| a[i][j] == a[j][i])) {
            return false;
        }
        for j in 0..n {
            let d = a[j][j] - (0..j).map(|k| a[j][k] * a[j][k]).sum::<f64>();
            if d <= 0.0 {
                return false;
            }
            a[j][j] = d.sqrt();
            for i in j + 1..n {
                a[i][j] = (a[i][j] - (0..j).map(|k| a[i][k] * a[j][k]).sum::<f64>()) / a[j][j];
            }
        }
        true
    }

    #[test]
    fn poisson_matches_the_program_stencil() {
        for l in [4, 5, 6, 8, 10, 12] {
            let ours = Problem::poisson_2d(l).to_csr();
            let theirs = CsrMatrix::from_row_access(&PoissonStencil::new_2d(l).unwrap());
            assert_eq!(ours.dim(), theirs.dim());
            for i in 0..ours.dim() {
                for j in 0..ours.dim() {
                    assert_eq!(ours.get(i, j), theirs.get(i, j), "l={l} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn every_generated_structure_is_spd_and_rhs_in_range() {
        for seed in [0, 1, 7, 42, u64::MAX, 0xDEAD_BEEF] {
            for l in [4, 5, 6, 8, 10, 12] {
                assert!(cholesky_ok(&Problem::poisson_2d(l)), "poisson l={l}");
            }
            for p in crate::serve::small_structures(seed) {
                assert!(cholesky_ok(&p), "seed {seed}: tridiagonal not SPD");
                assert!((4..=8).contains(&p.dim()));
            }
            let mut rng = stream(seed, 0);
            for n in [4, 16, 144] {
                let b = rhs(&mut rng, n);
                assert!(b.iter().all(|v| (RHS_MIN..=RHS_MAX).contains(v)));
            }
        }
    }

    #[test]
    fn oracle_residual_agrees_with_the_program() {
        let p = Problem::poisson_2d(6);
        let a = p.to_csr();
        let mut rng = stream(3, 0);
        let b = rhs(&mut rng, p.dim());
        let u = rhs(&mut rng, p.dim());
        let theirs = a.residual_norm(&u, &b) / b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let ours = p.rel_residual(&u, &b);
        assert!(
            (ours - theirs).abs() <= 1e-12 * theirs,
            "{ours} vs {theirs}"
        );
        assert_eq!(p.rel_residual(&u[1..], &b), f64::INFINITY);
        assert!(p.rel_residual(&vec![f64::NAN; p.dim()], &b).is_nan());
    }

    #[test]
    fn deck_deals_each_card_once_per_pass() {
        let mut deck = Deck::new(&[('a', 3), ('b', 1)], stream(9, 0));
        for _ in 0..5 {
            let mut pass: Vec<char> = (0..4).map(|_| deck.deal()).collect();
            pass.sort_unstable();
            assert_eq!(pass, vec!['a', 'a', 'a', 'b']);
        }
    }

    #[test]
    fn streams_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| stream(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(stream(5, 1).next_u64(), stream(5, 2).next_u64());
        assert_ne!(stream(5, 1).next_u64(), stream(6, 1).next_u64());
    }
}
