//! Graphviz DOT export.
//!
//! Interpretability — "the causal relationships among service elapsed time
//! and response time … a fundamental strength of BN models" (§4.2) — is
//! only real if humans can look at the model. This module renders a
//! network as DOT for `dot -Tsvg`-style tooling.

use crate::network::BayesianNetwork;
use crate::variable::VariableKind;

/// Render a full network: variable names as labels, discrete nodes as
/// boxes with their cardinality, continuous nodes as ellipses.
pub fn network_to_dot(network: &BayesianNetwork, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph {} {{\n", sanitize_id(name)));
    out.push_str("  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n");
    for (i, var) in network.variables().iter().enumerate() {
        match var.kind {
            VariableKind::Discrete { cardinality } => out.push_str(&format!(
                "  n{i} [shape=box, label=\"{}\\n({cardinality} states)\"];\n",
                escape(&var.name)
            )),
            VariableKind::Continuous => out.push_str(&format!(
                "  n{i} [shape=ellipse, label=\"{}\"];\n",
                escape(&var.name)
            )),
        }
    }
    for (from, to) in network.dag().edges() {
        out.push_str(&format!("  n{from} -> n{to};\n"));
    }
    out.push_str("}\n");
    out
}

/// DOT identifiers: alphanumerics and underscores only.
fn sanitize_id(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("g_{cleaned}")
    } else {
        cleaned
    }
}

/// Escape label text for a double-quoted DOT string.
fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{Cpd, LinearGaussianCpd, TabularCpd};
    use crate::graph::Dag;
    use crate::variable::Variable;

    #[test]
    fn network_export_shows_names_and_kinds() {
        let vars = vec![Variable::continuous("work_list"), Variable::continuous("D")];
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let cpds = vec![
            Cpd::LinearGaussian(LinearGaussianCpd::root(0, 0.0, 1.0)),
            Cpd::LinearGaussian(LinearGaussianCpd::new(1, vec![0], 0.0, vec![1.0], 1.0).unwrap()),
        ];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let dot = network_to_dot(&bn, "ediamond-2007");
        assert!(dot.contains("digraph ediamond_2007 {"));
        assert!(dot.contains("label=\"work_list\""));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("n0 -> n1;"));
    }

    #[test]
    fn discrete_nodes_render_as_boxes_with_cardinality() {
        let vars = vec![Variable::discrete("a", 3)];
        let dag = Dag::new(1);
        let cpds = vec![Cpd::Tabular(TabularCpd::uniform(0, vec![], 3, vec![]))];
        let bn = BayesianNetwork::new(vars, dag, cpds).unwrap();
        let dot = network_to_dot(&bn, "one");
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("(3 states)"));
    }

    #[test]
    fn identifiers_and_labels_are_sanitized() {
        assert_eq!(sanitize_id("9lives"), "g_9lives");
        assert_eq!(sanitize_id(""), "g_");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
