//! Variable metadata: every Bayesian-network node is either a discrete
//! variable with a finite state count or a continuous (real-valued) one.

use serde::{Deserialize, Serialize};

/// Kind of a random variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VariableKind {
    /// Finitely many states `0..cardinality`.
    Discrete {
        /// Number of states (≥ 2 for a useful variable; 1 is allowed and
        /// denotes a constant).
        cardinality: usize,
    },
    /// Real-valued.
    Continuous,
}

/// A named random variable in a network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Variable {
    /// Human-readable name (service name, `"D"` for end-to-end response
    /// time, resource names, …). Unique within a network.
    pub name: String,
    /// Discrete or continuous.
    pub kind: VariableKind,
}

impl Variable {
    /// A discrete variable with the given number of states.
    pub fn discrete(name: impl Into<String>, cardinality: usize) -> Self {
        Variable {
            name: name.into(),
            kind: VariableKind::Discrete { cardinality },
        }
    }

    /// A continuous variable.
    pub fn continuous(name: impl Into<String>) -> Self {
        Variable {
            name: name.into(),
            kind: VariableKind::Continuous,
        }
    }

    /// Cardinality if discrete, `None` if continuous.
    pub fn cardinality(&self) -> Option<usize> {
        match self.kind {
            VariableKind::Discrete { cardinality } => Some(cardinality),
            VariableKind::Continuous => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let d = Variable::discrete("X1", 5);
        assert_eq!(d.name, "X1");
        assert_eq!(d.cardinality(), Some(5));
        assert_eq!(d.kind, VariableKind::Discrete { cardinality: 5 });

        let c = Variable::continuous("D");
        assert_eq!(c.cardinality(), None);
        assert_eq!(c.kind, VariableKind::Continuous);
    }

    #[test]
    fn serde_roundtrip() {
        let v = Variable::discrete("svc", 3);
        let json = serde_json::to_string(&v).unwrap();
        let back: Variable = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }
}
