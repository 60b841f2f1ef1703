//! The analytic node-skip model of Equation 1 (§3).

/// Equation 1's parameters and predictions.
///
/// With `p`/`v` the predicted/verified ray fractions, `n` the mean nodes of
/// a full traversal, `k` predictions per entry and `m` nodes per prediction
/// evaluation, the mean nodes per ray under the predictor is
/// `N = n + p·k·m − v·n`, so the expected saving is `n − N = v·n − p·k·m`.
/// Table 5 compares this estimate against the measured reduction.
///
/// # Examples
///
/// ```
/// use rip_core::Eq1Model;
///
/// // Table 5's measured averages.
/// let m = Eq1Model { p: 0.955, v: 0.246, n: 28.382, k: 1.0, m: 2.810 };
/// assert!((m.estimated_nodes_skipped() - 4.298).abs() < 0.01);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Eq1Model {
    /// Fraction of rays predicted.
    pub p: f64,
    /// Fraction of rays verified.
    pub v: f64,
    /// Mean node fetches of a full traversal.
    pub n: f64,
    /// Mean predictions evaluated per predicted ray.
    pub k: f64,
    /// Mean node fetches per prediction evaluation.
    pub m: f64,
}

impl Eq1Model {
    /// `n − N = v·n − p·k·m`: expected node fetches saved per ray.
    pub fn estimated_nodes_skipped(&self) -> f64 {
        self.v * self.n - self.p * self.k * self.m
    }

    /// `N = n + p·k·m − v·n`: expected node fetches per ray with the
    /// predictor.
    pub fn estimated_nodes_per_ray(&self) -> f64 {
        self.n + self.p * self.k * self.m - self.v * self.n
    }

    /// Whether the configuration is profitable at all (positive skip).
    pub fn is_profitable(&self) -> bool {
        self.estimated_nodes_skipped() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipped_plus_per_ray_equals_n() {
        let m = Eq1Model {
            p: 0.9,
            v: 0.3,
            n: 30.0,
            k: 1.0,
            m: 3.0,
        };
        assert!((m.estimated_nodes_skipped() + m.estimated_nodes_per_ray() - m.n).abs() < 1e-12);
    }

    #[test]
    fn overprediction_hurts() {
        let base = Eq1Model {
            p: 0.5,
            v: 0.3,
            n: 30.0,
            k: 1.0,
            m: 3.0,
        };
        let over = Eq1Model { p: 0.9, ..base };
        assert!(over.estimated_nodes_skipped() < base.estimated_nodes_skipped());
    }

    #[test]
    fn higher_verification_helps() {
        let base = Eq1Model {
            p: 0.9,
            v: 0.2,
            n: 30.0,
            k: 1.0,
            m: 3.0,
        };
        let better = Eq1Model { v: 0.4, ..base };
        assert!(better.estimated_nodes_skipped() > base.estimated_nodes_skipped());
    }

    #[test]
    fn table5_numbers_reproduce() {
        let m = Eq1Model {
            p: 0.955,
            v: 0.246,
            n: 28.382,
            k: 1.0,
            m: 2.810,
        };
        assert!((m.estimated_nodes_skipped() - 4.298).abs() < 0.01);
        assert!(m.is_profitable());
    }

    #[test]
    fn unprofitable_when_mispredictions_dominate() {
        let m = Eq1Model {
            p: 1.0,
            v: 0.01,
            n: 10.0,
            k: 4.0,
            m: 5.0,
        };
        assert!(!m.is_profitable());
    }
}
