//! Deterministic expressions over network variables.
//!
//! The knowledge-enhanced CPD of the paper's Eq. 4 replaces the heavyweight
//! learned table `P(D | X₁…X_n)` with a *deterministic function* `f(𝕏)`
//! derived from the workflow (Cardoso et al.): sequential composition maps
//! to `+`, parallel invocation to `max`, probabilistic choice to a mixture,
//! and loops to scaling. [`Expr`] is that function, with variables referring
//! to network node indices.
//!
//! The eDiaMoND example from the paper is
//! `D = X₁ + X₂ + max(X₃ + X₅, X₄ + X₆)`.

use serde::{Deserialize, Serialize};

use crate::{BayesError, Result};

/// A deterministic expression over node values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A constant value.
    Const(f64),
    /// The value of node `i` (index into the network's node list).
    Var(usize),
    /// Sum of sub-expressions (sequential workflow composition).
    Add(Vec<Expr>),
    /// Maximum of sub-expressions (parallel workflow composition).
    Max(Vec<Expr>),
    /// Weighted mixture `Σ wᵢ·eᵢ` — the *expected-value* reduction of a
    /// probabilistic choice (weights are branch probabilities) and of
    /// loops (weight = expected iteration count).
    Weighted(Vec<(f64, Expr)>),
}

impl Expr {
    /// Convenience: sum of plain variables.
    pub fn sum_of_vars(vars: &[usize]) -> Expr {
        Expr::Add(vars.iter().map(|&v| Expr::Var(v)).collect())
    }

    /// Evaluate against a full assignment of node values (`values[i]` is the
    /// value of node `i`).
    pub fn eval(&self, values: &[f64]) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => values[*i],
            Expr::Add(parts) => parts.iter().map(|p| p.eval(values)).sum(),
            Expr::Max(parts) => parts
                .iter()
                .map(|p| p.eval(values))
                .fold(f64::NEG_INFINITY, f64::max),
            Expr::Weighted(parts) => parts.iter().map(|(w, p)| w * p.eval(values)).sum(),
        }
    }

    /// The set of variable indices the expression reads, sorted ascending.
    pub fn variables(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(i) => out.push(*i),
            Expr::Add(parts) | Expr::Max(parts) => {
                for p in parts {
                    p.collect_vars(out);
                }
            }
            Expr::Weighted(parts) => {
                for (_, p) in parts {
                    p.collect_vars(out);
                }
            }
        }
    }

    /// True if the expression is linear in its variables (no `Max`).
    ///
    /// Linear expressions admit exact joint-Gaussian treatment; `max`
    /// requires Monte-Carlo inference (the capability Matlab BNT lacked,
    /// per §5 of the paper).
    pub fn is_linear(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) => true,
            Expr::Add(parts) => parts.iter().all(Expr::is_linear),
            Expr::Max(parts) => parts.len() <= 1 && parts.iter().all(Expr::is_linear),
            Expr::Weighted(parts) => parts.iter().all(|(_, p)| p.is_linear()),
        }
    }

    /// Linear-form extraction: returns `(intercept, coefficients)` with
    /// `coefficients[i]` multiplying node `i`, for linear expressions.
    ///
    /// `n` is the total number of nodes. Fails on `Max` with ≥ 2 branches.
    pub fn linear_coefficients(&self, n: usize) -> Result<(f64, Vec<f64>)> {
        let mut intercept = 0.0;
        let mut coeffs = vec![0.0; n];
        self.accumulate_linear(1.0, &mut intercept, &mut coeffs)?;
        Ok((intercept, coeffs))
    }

    fn accumulate_linear(&self, scale: f64, intercept: &mut f64, coeffs: &mut [f64]) -> Result<()> {
        match self {
            Expr::Const(c) => {
                *intercept += scale * c;
                Ok(())
            }
            Expr::Var(i) => {
                if *i >= coeffs.len() {
                    return Err(BayesError::InvalidNode(*i));
                }
                coeffs[*i] += scale;
                Ok(())
            }
            Expr::Add(parts) => {
                for p in parts {
                    p.accumulate_linear(scale, intercept, coeffs)?;
                }
                Ok(())
            }
            Expr::Max(parts) => {
                if parts.len() == 1 {
                    parts[0].accumulate_linear(scale, intercept, coeffs)
                } else {
                    Err(BayesError::InvalidCpd(
                        "max over multiple branches is not linear".into(),
                    ))
                }
            }
            Expr::Weighted(parts) => {
                for (w, p) in parts {
                    p.accumulate_linear(scale * w, intercept, coeffs)?;
                }
                Ok(())
            }
        }
    }

    /// Re-index variables through a map (`old index → new index`), e.g. when
    /// restricting an expression over network nodes to a CPD's parent list.
    pub fn remap(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Var(i) => Expr::Var(map(*i)),
            Expr::Add(parts) => Expr::Add(parts.iter().map(|p| p.remap(map)).collect()),
            Expr::Max(parts) => Expr::Max(parts.iter().map(|p| p.remap(map)).collect()),
            Expr::Weighted(parts) => {
                Expr::Weighted(parts.iter().map(|(w, p)| (*w, p.remap(map))).collect())
            }
        }
    }

    /// Pretty-print with a node-name resolver.
    pub fn display_with(&self, name: &dyn Fn(usize) -> String) -> String {
        match self {
            Expr::Const(c) => format!("{c}"),
            Expr::Var(i) => name(*i),
            Expr::Add(parts) => {
                let items: Vec<String> = parts.iter().map(|p| p.display_with(name)).collect();
                format!("({})", items.join(" + "))
            }
            Expr::Max(parts) => {
                let items: Vec<String> = parts.iter().map(|p| p.display_with(name)).collect();
                format!("max({})", items.join(", "))
            }
            Expr::Weighted(parts) => {
                let items: Vec<String> = parts
                    .iter()
                    .map(|(w, p)| format!("{w}*{}", p.display_with(name)))
                    .collect();
                format!("({})", items.join(" + "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: `D = X₁ + X₂ + max(X₃+X₅, X₄+X₆)` where node
    /// indices 0..=5 map to X₁..X₆.
    fn ediamond_expr() -> Expr {
        Expr::Add(vec![
            Expr::Var(0),
            Expr::Var(1),
            Expr::Max(vec![
                Expr::Add(vec![Expr::Var(2), Expr::Var(4)]),
                Expr::Add(vec![Expr::Var(3), Expr::Var(5)]),
            ]),
        ])
    }

    #[test]
    fn ediamond_evaluates_like_the_paper() {
        let f = ediamond_expr();
        // X = (1, 2, 3, 4, 5, 6): D = 1 + 2 + max(3+5, 4+6) = 13
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(f.eval(&v), 13.0);
        // Local branch wins when remote is fast.
        let v2 = [1.0, 2.0, 9.0, 0.0, 9.0, 0.0];
        assert_eq!(f.eval(&v2), 21.0);
    }

    #[test]
    fn variables_are_collected_sorted_dedup() {
        let f = ediamond_expr();
        assert_eq!(f.variables(), vec![0, 1, 2, 3, 4, 5]);
        let g = Expr::Add(vec![Expr::Var(3), Expr::Var(3), Expr::Var(1)]);
        assert_eq!(g.variables(), vec![1, 3]);
    }

    #[test]
    fn linearity_detection() {
        assert!(!ediamond_expr().is_linear());
        let lin = Expr::Add(vec![Expr::Var(0), Expr::Const(2.0)]);
        assert!(lin.is_linear());
        // Single-branch max is trivially linear.
        assert!(Expr::Max(vec![Expr::Var(1)]).is_linear());
    }

    #[test]
    fn linear_coefficients_extraction() {
        // 2 + x0 + 0.5*(x1 + x1) = 2 + x0 + x1
        let e = Expr::Add(vec![
            Expr::Const(2.0),
            Expr::Var(0),
            Expr::Weighted(vec![(0.5, Expr::Add(vec![Expr::Var(1), Expr::Var(1)]))]),
        ]);
        let (b0, c) = e.linear_coefficients(3).unwrap();
        assert_eq!(b0, 2.0);
        assert_eq!(c, vec![1.0, 1.0, 0.0]);
        assert!(ediamond_expr().linear_coefficients(6).is_err());
    }

    #[test]
    fn weighted_mixture_evaluates_expectation() {
        // Choice: 0.3·fast + 0.7·slow
        let e = Expr::Weighted(vec![(0.3, Expr::Var(0)), (0.7, Expr::Var(1))]);
        assert!((e.eval(&[10.0, 20.0]) - 17.0).abs() < 1e-12);
    }

    #[test]
    fn remap_shifts_indices() {
        let f = Expr::Add(vec![Expr::Var(0), Expr::Var(2)]);
        let g = f.remap(&|i| i + 10);
        assert_eq!(g.variables(), vec![10, 12]);
        assert_eq!(
            g.eval(&{
                let mut v = vec![0.0; 13];
                v[10] = 1.0;
                v[12] = 5.0;
                v
            }),
            6.0
        );
    }

    #[test]
    fn display_is_readable() {
        let f = ediamond_expr();
        let s = f.display_with(&|i| format!("X{}", i + 1));
        assert_eq!(s, "(X1 + X2 + max((X3 + X5), (X4 + X6)))");
    }

    #[test]
    fn out_of_range_var_in_linear_extraction() {
        let e = Expr::Var(9);
        assert!(matches!(
            e.linear_coefficients(3),
            Err(BayesError::InvalidNode(9))
        ));
    }
}
