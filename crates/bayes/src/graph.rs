//! Directed acyclic graphs over node indices `0..n`.
//!
//! The DAG is the "structure" half of a Bayesian network. Structure learning
//! (K2) adds edges incrementally, so cycle checking must be cheap; we keep
//! both parent and child adjacency lists and check reachability on edge
//! insertion with an iterative DFS over the child lists.

use serde::{Deserialize, Serialize};

use crate::{BayesError, Result};

/// A DAG on nodes `0..n`, stored as sorted parent and child lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag {
    parents: Vec<Vec<usize>>,
    children: Vec<Vec<usize>>,
}

impl Dag {
    /// An edgeless DAG on `n` nodes.
    pub fn new(n: usize) -> Self {
        Dag {
            parents: vec![Vec::new(); n],
            children: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Sorted parents of `node`.
    pub fn parents(&self, node: usize) -> &[usize] {
        &self.parents[node]
    }

    /// True if the edge `from → to` is present.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.parents
            .get(to)
            .is_some_and(|ps| ps.binary_search(&from).is_ok())
    }

    /// Add edge `from → to`, rejecting out-of-range nodes, self-loops,
    /// duplicates (silently ignored), and cycles.
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<()> {
        let n = self.len();
        if from >= n {
            return Err(BayesError::InvalidNode(from));
        }
        if to >= n {
            return Err(BayesError::InvalidNode(to));
        }
        if from == to {
            return Err(BayesError::CycleDetected { from, to });
        }
        if self.has_edge(from, to) {
            return Ok(());
        }
        // A new edge from→to creates a cycle iff `from` is reachable from `to`.
        if self.reachable(to, from) {
            return Err(BayesError::CycleDetected { from, to });
        }
        insert_sorted(&mut self.parents[to], from);
        insert_sorted(&mut self.children[from], to);
        Ok(())
    }

    /// True if `dst` is reachable from `src` following directed edges.
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        if src == dst {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![src];
        seen[src] = true;
        while let Some(u) = stack.pop() {
            for &v in &self.children[u] {
                if v == dst {
                    return true;
                }
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// A topological order (parents before children). Kahn's algorithm;
    /// the structure is acyclic by construction so this cannot fail.
    pub fn topological_order(&self) -> Vec<usize> {
        let n = self.len();
        let mut in_deg: Vec<usize> = (0..n).map(|i| self.parents[i].len()).collect();
        // Seed with all roots, lowest index first for determinism.
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| in_deg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &self.children[u] {
                in_deg[v] -= 1;
                if in_deg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "DAG invariant violated");
        order
    }

    /// Nodes with no parents, ascending.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.parents[i].is_empty())
            .collect()
    }

    /// Iterate over all edges as `(from, to)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.parents
            .iter()
            .enumerate()
            .flat_map(|(to, ps)| ps.iter().map(move |&from| (from, to)))
    }
}

fn insert_sorted(v: &mut Vec<usize>, x: usize) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 → 1, 0 → 2, 1 → 3, 2 → 3
        let mut g = Dag::new(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 3).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    #[test]
    fn edges_and_adjacency() {
        let g = diamond();
        assert_eq!(g.edges().count(), 4);
        assert_eq!(g.parents(3), &[1, 2]);
        assert_eq!(g.children[0], vec![1, 2]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut g = diamond();
        assert!(matches!(
            g.add_edge(3, 0),
            Err(BayesError::CycleDetected { from: 3, to: 0 })
        ));
        assert!(matches!(
            g.add_edge(1, 1),
            Err(BayesError::CycleDetected { .. })
        ));
        // The failed insert must not corrupt the graph.
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = diamond();
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.edges().count(), 4);
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let mut g = Dag::new(2);
        assert!(matches!(g.add_edge(0, 5), Err(BayesError::InvalidNode(5))));
        assert!(matches!(g.add_edge(7, 0), Err(BayesError::InvalidNode(7))));
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &n) in order.iter().enumerate() {
                p[n] = i;
            }
            p
        };
        for (from, to) in g.edges() {
            assert!(pos[from] < pos[to], "{from} must precede {to}");
        }
    }

    #[test]
    fn roots_listed() {
        let g = diamond();
        assert_eq!(g.roots(), vec![0]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        assert!(g.reachable(0, 3));
        assert!(!g.reachable(3, 0));
        assert!(g.reachable(2, 2));
    }
}
