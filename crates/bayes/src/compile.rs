//! Compile-once junction-tree inference for discrete networks.
//!
//! Variable elimination pays its full cost on every query; the autonomic
//! loop (dComp over every unobservable service, pAccel candidate sets,
//! threshold sweeps) asks *many* marginals of *one* fixed KERT-BN. This
//! module compiles the network once — moralize, triangulate with the same
//! min-fill heuristic VE uses ([`crate::infer::ve`]), build a clique tree
//! satisfying the running-intersection property — and then answers every
//! node marginal by Shafer-Shenoy message passing at O(clique) cost.
//!
//! Two properties make the compiled engine fast in steady state:
//!
//! * **Incremental evidence.** [`JunctionTree::set_evidence`] replaces a
//!   state's whole evidence set in one call, zeroing the inconsistent
//!   entries of each changed home-clique potential once. Only messages
//!   directed *away* from a changed clique are invalidated, and messages
//!   are recomputed lazily, farthest-first, toward the queried clique —
//!   so stepping through pAccel candidates, one pin each, re-propagates
//!   only along the affected subtree.
//! * **Zero-alloc queries.** All factor scratch flows through the
//!   [`QueryWorkspace`] held by [`JtState`]; once the pools are warm, a
//!   calibrated marginal read-off allocates nothing.
//!
//! The tree and the mutable propagation state are split ([`JunctionTree`]
//! vs [`JtState`]) so one compilation can serve several query streams, and
//! so the immutable tree can be shared across threads.

use std::collections::BTreeSet;

use crate::infer::factor::{strides, Factor, QueryWorkspace};
use crate::infer::ve::{elimination_ordering, EliminationHeuristic};
use crate::network::BayesianNetwork;
use crate::{BayesError, Result};

// Junction-tree telemetry. The compile/calibrate/incremental message split
// is the number the paper's steady-state argument rests on: once the tree
// is calibrated, an evidence churn should recompute only the affected
// subtree, and `jt.messages.incremental` vs `jt.messages.calibrate` makes
// that visible without instrumenting callers.
static OBS_JT_COMPILES: kert_obs::Counter = kert_obs::Counter::new("bayes.jt.compiles");
static OBS_JT_MARGINALS: kert_obs::Counter = kert_obs::Counter::new("bayes.jt.marginals");
static OBS_JT_EVIDENCE_SET: kert_obs::Counter = kert_obs::Counter::new("bayes.jt.evidence_set");
static OBS_JT_EVIDENCE_RETRACT: kert_obs::Counter =
    kert_obs::Counter::new("bayes.jt.evidence_retract");
static OBS_JT_MSGS_INVALIDATED: kert_obs::Counter =
    kert_obs::Counter::new("bayes.jt.messages.invalidated");
static OBS_JT_MSGS_CALIBRATE: kert_obs::Counter =
    kert_obs::Counter::new("bayes.jt.messages.calibrate");
static OBS_JT_MSGS_INCREMENTAL: kert_obs::Counter =
    kert_obs::Counter::new("bayes.jt.messages.incremental");

/// An undirected edge of the clique tree with its separator scope.
#[derive(Debug, Clone)]
struct TreeEdge {
    a: usize,
    b: usize,
    /// `cliques[a] ∩ cliques[b]`, ascending.
    separator: Vec<usize>,
}

/// A neighbour entry in a clique's adjacency list.
#[derive(Debug, Clone, Copy)]
struct Neighbor {
    clique: usize,
    edge: usize,
}

/// A compiled clique tree (junction forest for disconnected networks).
///
/// Immutable after [`JunctionTree::compile`]; all evidence and message
/// state lives in a [`JtState`] obtained from [`JunctionTree::new_state`].
#[derive(Debug)]
pub struct JunctionTree {
    /// Cardinality per network node.
    cards: Vec<usize>,
    /// Maximal cliques of the triangulated moral graph (scopes ascending).
    cliques: Vec<Vec<usize>>,
    /// Row-major strides per clique, aligned with the clique scope.
    clique_strides: Vec<Vec<usize>>,
    /// Max-weight spanning forest over separator sizes.
    edges: Vec<TreeEdge>,
    /// Adjacency list per clique.
    neighbors: Vec<Vec<Neighbor>>,
    /// Evidence-free clique potentials over the *full* clique scope (a
    /// ones table multiplied by every CPD factor assigned to the clique),
    /// so evidence zeroing always finds its variable in scope.
    base: Vec<Factor>,
    /// Per node: the smallest-table clique containing it (queries and
    /// evidence for the node route through this clique).
    node_home: Vec<usize>,
}

/// Mutable propagation state over one [`JunctionTree`]: current evidence,
/// evidence-adjusted clique potentials, the directed-message cache, and
/// the factor workspace every kernel call draws from.
#[derive(Debug)]
pub struct JtState {
    /// Observed state per network node.
    evidence: Vec<Option<usize>>,
    /// Evidence-adjusted potential per clique; `None` = use the base.
    potentials: Vec<Option<Factor>>,
    /// Directed messages: slots `2e` (a→b) and `2e + 1` (b→a) for edge `e`.
    /// `None` marks an invalidated (or never computed) message.
    messages: Vec<Option<Factor>>,
    /// Pooled scratch for every factor kernel call.
    ws: QueryWorkspace,
    /// Guard against mixing states across trees.
    n_cliques: usize,
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    // Both ascending.
    let mut bi = 0;
    'outer: for &s in small {
        while bi < big.len() {
            match big[bi].cmp(&s) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

fn intersect(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl JunctionTree {
    /// Compile `network` into a calibrated-query-ready clique tree.
    ///
    /// Moralization falls out of the CPD family scopes; triangulation uses
    /// the min-fill elimination order shared with VE (same tie-breaking,
    /// so compilation is deterministic); the tree is the max-weight
    /// spanning forest over separator sizes, which satisfies the running
    /// intersection property on a triangulated graph.
    pub fn compile(network: &BayesianNetwork) -> Result<Self> {
        OBS_JT_COMPILES.incr();
        let _span = kert_obs::span("jt.compile");
        let n = network.len();
        let cards: Vec<usize> = network
            .variables()
            .iter()
            .map(|v| v.cardinality().unwrap_or(0))
            .collect();
        if cards.contains(&0) {
            return Err(BayesError::InvalidData(
                "junction-tree compilation requires an all-discrete network".into(),
            ));
        }
        let factors: Vec<Factor> = network
            .cpds()
            .iter()
            .map(|c| Factor::from_cpd(c, &cards))
            .collect::<Result<_>>()?;

        // Triangulate: eliminate every node in min-fill order on the moral
        // graph, recording {v} ∪ live-neighbours(v) as a candidate clique
        // and adding the induced fill edges.
        let all: Vec<usize> = (0..n).collect();
        let order = elimination_ordering(&factors, &all, EliminationHeuristic::MinFill);
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for f in &factors {
            for &a in f.vars() {
                adj[a].extend(f.vars().iter().copied().filter(|&b| b != a));
            }
        }
        let mut eliminated = vec![false; n];
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(n);
        for &v in &order {
            let neigh: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            let mut clique = neigh.clone();
            clique.push(v);
            clique.sort_unstable();
            for (i, &u) in neigh.iter().enumerate() {
                for &w in &neigh[i + 1..] {
                    adj[u].insert(w);
                    adj[w].insert(u);
                }
            }
            eliminated[v] = true;
            candidates.push(clique);
        }
        // Keep only maximal candidates (the cliques of the triangulation).
        let mut cliques: Vec<Vec<usize>> = Vec::new();
        for c in candidates {
            if cliques.iter().any(|k| is_subset(&c, k)) {
                continue;
            }
            cliques.retain(|k| !is_subset(k, &c));
            cliques.push(c);
        }
        let m = cliques.len();

        // Max-weight spanning forest over separator sizes (Kruskal with
        // deterministic (-weight, i, j) ordering). On a triangulated graph
        // this forest satisfies the running intersection property.
        let mut cand_edges: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..m {
            for j in (i + 1)..m {
                let w = intersect(&cliques[i], &cliques[j]).len();
                if w > 0 {
                    cand_edges.push((w, i, j));
                }
            }
        }
        cand_edges.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut parent: Vec<usize> = (0..m).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut edges: Vec<TreeEdge> = Vec::with_capacity(m.saturating_sub(1));
        let mut neighbors: Vec<Vec<Neighbor>> = vec![Vec::new(); m];
        for (_, i, j) in cand_edges {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri == rj {
                continue;
            }
            parent[ri] = rj;
            let e = edges.len();
            neighbors[i].push(Neighbor { clique: j, edge: e });
            neighbors[j].push(Neighbor { clique: i, edge: e });
            edges.push(TreeEdge {
                a: i,
                b: j,
                separator: intersect(&cliques[i], &cliques[j]),
            });
        }

        // Base potentials: a ones table over the full clique scope times
        // every CPD factor assigned to (the first clique covering) it. The
        // home clique covers its factor's scope, so the factor multiplies
        // in place: the same products as a fresh table per factor, without
        // allocating one (in `D`'s clique each is a `bins^(n+1)` table).
        let mut base: Vec<Factor> = cliques
            .iter()
            .map(|scope| {
                let scope_cards: Vec<usize> = scope.iter().map(|&v| cards[v]).collect();
                let total: usize = scope_cards.iter().product();
                Factor::new(scope.clone(), scope_cards, vec![1.0; total])
            })
            .collect::<Result<_>>()?;
        let mut ws = QueryWorkspace::new();
        for f in &factors {
            let home = (0..m)
                .find(|&i| is_subset(f.vars(), &cliques[i]))
                .ok_or_else(|| {
                    BayesError::Numerical(format!("junction tree lost factor scope {:?}", f.vars()))
                })?;
            let absorbed = base[home].mul_assign_ws(f, &mut ws);
            debug_assert!(absorbed, "the home clique covers its factor's scope");
        }

        let clique_strides: Vec<Vec<usize>> = base.iter().map(|f| strides(f.cards())).collect();
        let node_home: Vec<usize> = (0..n)
            .map(|v| {
                (0..m)
                    .filter(|&i| cliques[i].binary_search(&v).is_ok())
                    .min_by_key(|&i| (base[i].values().len(), i))
                    .expect("every node appears in its own elimination clique")
            })
            .collect();

        Ok(JunctionTree {
            cards,
            cliques,
            clique_strides,
            edges,
            neighbors,
            base,
            node_home,
        })
    }

    /// Number of cliques.
    pub fn n_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// Scope of clique `i` (ascending node indices).
    pub fn clique_scope(&self, i: usize) -> &[usize] {
        &self.cliques[i]
    }

    /// Number of tree edges (cliques − connected components).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints and separator of tree edge `e`.
    pub fn edge(&self, e: usize) -> (usize, usize, &[usize]) {
        let te = &self.edges[e];
        (te.a, te.b, &te.separator)
    }

    /// Induced width: largest clique size minus one.
    pub fn width(&self) -> usize {
        self.cliques.iter().map(Vec::len).max().unwrap_or(1) - 1
    }

    /// Fresh propagation state: no evidence, no cached messages.
    pub fn new_state(&self) -> JtState {
        JtState {
            evidence: vec![None; self.cards.len()],
            potentials: vec![None; self.cliques.len()],
            messages: vec![None; 2 * self.edges.len()],
            ws: QueryWorkspace::new(),
            n_cliques: self.cliques.len(),
        }
    }

    fn check_state(&self, state: &JtState) -> Result<()> {
        if state.n_cliques != self.cliques.len() {
            return Err(BayesError::InvalidData(
                "JtState was built for a different junction tree".into(),
            ));
        }
        Ok(())
    }

    /// Directed message slot for `from` sending across edge `e`.
    fn msg_id(&self, e: usize, from: usize) -> usize {
        2 * e + usize::from(self.edges[e].a != from)
    }

    /// Replace the whole evidence set on `st` with `pins` (`(node, state)`
    /// pairs, in any order). Every pin is checked first — node and state
    /// in range, no node listed twice — so a refused call leaves `st`
    /// untouched. Each home clique whose pins changed is then rebuilt
    /// once, invalidating only the messages directed away from it.
    pub fn set_evidence(&self, st: &mut JtState, pins: &[(usize, usize)]) -> Result<()> {
        self.check_state(st)?;
        let mut wanted: Vec<Option<usize>> = vec![None; self.cards.len()];
        for &(node, state) in pins {
            if node >= self.cards.len() {
                return Err(BayesError::InvalidNode(node));
            }
            if state >= self.cards[node] {
                return Err(BayesError::InvalidData(format!(
                    "evidence state {state} out of range for node {node}"
                )));
            }
            if wanted[node].replace(state).is_some() {
                return Err(BayesError::InvalidData(format!(
                    "evidence lists node {node} more than once"
                )));
            }
        }
        let mut homes: Vec<usize> = Vec::new();
        for (node, (old, new)) in st.evidence.iter_mut().zip(wanted).enumerate() {
            if *old == new {
                continue;
            }
            if new.is_some() {
                OBS_JT_EVIDENCE_SET.incr();
            } else {
                OBS_JT_EVIDENCE_RETRACT.incr();
            }
            *old = new;
            homes.push(self.node_home[node]);
        }
        homes.sort_unstable();
        homes.dedup();
        for c in homes {
            self.refresh_clique(st, c);
        }
        Ok(())
    }

    /// Rebuild clique `c`'s evidence-adjusted potential and invalidate the
    /// outgoing message subtree. Evidence is applied by zeroing every base
    /// table entry whose coordinate for an observed home node disagrees
    /// with the observed state; the adds downstream then simply skip the
    /// zeroed mass, bit-for-bit equivalent to reducing then re-expanding.
    fn refresh_clique(&self, st: &mut JtState, c: usize) {
        if let Some(old) = st.potentials[c].take() {
            st.ws.recycle(old);
        }
        let scope = &self.cliques[c];
        let pinned: Vec<(usize, usize)> = scope
            .iter()
            .enumerate()
            .filter(|&(_, &v)| self.node_home[v] == c)
            .filter_map(|(pos, &v)| st.evidence[v].map(|s| (pos, s)))
            .collect();
        if !pinned.is_empty() {
            let mut pot = self.base[c].clone_using(&mut st.ws);
            let values = pot.values_mut();
            for (pos, s) in pinned {
                let stride = self.clique_strides[c][pos];
                let card = self.base[c].cards()[pos];
                let super_block = stride * card;
                for start in (0..values.len()).step_by(super_block) {
                    for k in 0..card {
                        if k == s {
                            continue;
                        }
                        let off = start + k * stride;
                        values[off..off + stride].fill(0.0);
                    }
                }
            }
            st.potentials[c] = Some(pot);
        }
        self.invalidate_from(st, c);
    }

    /// Invalidate every cached message directed away from clique `c`,
    /// pruning where a message is already invalid: validation only ever
    /// computes a message after all the messages it depends on, so an
    /// invalid message implies everything downstream of it is invalid too.
    fn invalidate_from(&self, st: &mut JtState, c: usize) {
        let mut invalidated = 0u64;
        let mut stack: Vec<(usize, usize)> = vec![(c, usize::MAX)];
        while let Some((i, from_edge)) = stack.pop() {
            for &Neighbor { clique: j, edge: e } in &self.neighbors[i] {
                if e == from_edge {
                    continue;
                }
                let mid = self.msg_id(e, i);
                if let Some(msg) = st.messages[mid].take() {
                    st.ws.recycle(msg);
                    invalidated += 1;
                    stack.push((j, e));
                }
            }
        }
        OBS_JT_MSGS_INVALIDATED.add(invalidated);
    }

    /// Ensure every message flowing toward clique `root` is valid,
    /// computing missing ones farthest-first (Shafer-Shenoy collect pass).
    /// Each message's value depends only on its own dependency cone, so
    /// the result is a deterministic function of (tree, evidence) whatever
    /// was cached before.
    fn ensure_messages_into(&self, st: &mut JtState, root: usize) {
        // (from, edge-toward-root) in breadth-first order from the root.
        let mut order: Vec<(usize, usize)> = self.neighbors[root]
            .iter()
            .map(|&Neighbor { clique, edge }| (clique, edge))
            .collect();
        let mut qi = 0;
        while qi < order.len() {
            let (i, from_edge) = order[qi];
            qi += 1;
            for &Neighbor { clique, edge } in &self.neighbors[i] {
                if edge != from_edge {
                    order.push((clique, edge));
                }
            }
        }
        let JtState {
            potentials,
            messages,
            ws,
            ..
        } = st;
        let mut computed = 0u64;
        for &(from, e) in order.iter().rev() {
            let mid = self.msg_id(e, from);
            if messages[mid].is_none() {
                messages[mid] = Some(self.compute_message(potentials, messages, ws, from, e));
                computed += 1;
            }
        }
        // A full collect pass (every toward-root message recomputed) is a
        // calibration; anything less is incremental re-propagation after an
        // evidence change.
        if computed > 0 {
            if computed as usize == order.len() {
                OBS_JT_MSGS_CALIBRATE.add(computed);
            } else {
                OBS_JT_MSGS_INCREMENTAL.add(computed);
            }
        }
    }

    /// m_{from→to} = Σ_{C_from ∖ S} ψ_from · Π_{k ≠ to} m_{k→from}.
    /// Message scopes are separators ⊆ the sending clique's scope, so
    /// absorption runs through the in-place subset product — no
    /// intermediate tables.
    fn compute_message(
        &self,
        potentials: &[Option<Factor>],
        messages: &[Option<Factor>],
        ws: &mut QueryWorkspace,
        from: usize,
        edge: usize,
    ) -> Factor {
        let base = potentials[from].as_ref().unwrap_or(&self.base[from]);
        let mut prod = base.clone_using(ws);
        for &Neighbor {
            clique: _,
            edge: e2,
        } in &self.neighbors[from]
        {
            if e2 == edge {
                continue;
            }
            let inbound = self.msg_id(e2, self.other_end(e2, from));
            let m = messages[inbound]
                .as_ref()
                .expect("message dependencies are computed farthest-first");
            if !prod.mul_assign_ws(m, ws) {
                let next = prod.product_ws(m, ws);
                ws.recycle(prod);
                prod = next;
            }
        }
        let sep = &self.edges[edge].separator;
        for &v in &self.cliques[from] {
            if sep.binary_search(&v).is_err() {
                prod = prod.sum_out_owned_ws(v, ws);
            }
        }
        prod
    }

    fn other_end(&self, e: usize, this: usize) -> usize {
        let te = &self.edges[e];
        if te.a == this {
            te.b
        } else {
            te.a
        }
    }

    /// Posterior marginal `P(target | evidence)` read off the target's home
    /// clique after a lazy collect pass. Observed targets return the point
    /// mass on their observed state (matching VE's convention).
    pub fn marginal(&self, st: &mut JtState, target: usize) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.marginal_into(st, target, &mut out)?;
        Ok(out)
    }

    /// [`JunctionTree::marginal`] writing into a caller buffer.
    pub fn marginal_into(&self, st: &mut JtState, target: usize, out: &mut Vec<f64>) -> Result<()> {
        OBS_JT_MARGINALS.incr();
        let _span = kert_obs::span("jt.marginal");
        self.check_state(st)?;
        if target >= self.cards.len() {
            return Err(BayesError::InvalidNode(target));
        }
        if let Some(s) = st.evidence[target] {
            out.clear();
            out.resize(self.cards[target], 0.0);
            out[s] = 1.0;
            return Ok(());
        }
        let home = self.node_home[target];
        {
            // The lazy collect pass is where propagation cost actually
            // lands (repeat reads hit validated messages and skip it);
            // a dedicated span makes that split attributable in traces.
            let _collect = kert_obs::span("jt.collect");
            self.ensure_messages_into(st, home);
        }

        let mut belief = {
            let JtState { potentials, ws, .. } = &mut *st;
            potentials[home]
                .as_ref()
                .unwrap_or(&self.base[home])
                .clone_using(ws)
        };
        for &Neighbor { clique: _, edge: e } in &self.neighbors[home] {
            let inbound = self.msg_id(e, self.other_end(e, home));
            // Split-borrow: the message is read-only, the workspace mutable.
            let JtState { messages, ws, .. } = &mut *st;
            let m = messages[inbound]
                .as_ref()
                .expect("collect pass just validated every inbound message");
            // Separator scopes are subsets of the home clique: absorb in
            // place (bitwise equal to the product, without the new table).
            if !belief.mul_assign_ws(m, ws) {
                let next = belief.product_ws(m, ws);
                ws.recycle(belief);
                belief = next;
            }
        }
        for &v in &self.cliques[home] {
            if v != target {
                belief = belief.sum_out_owned_ws(v, &mut st.ws);
            }
        }
        let z = belief.normalize();
        if z <= 0.0 {
            st.ws.recycle(belief);
            return Err(BayesError::Numerical(
                "evidence has zero probability under the model".into(),
            ));
        }
        if belief.vars() != [target] {
            return Err(BayesError::Numerical(format!(
                "junction-tree read-off left scope {:?}, expected [{target}]",
                belief.vars()
            )));
        }
        out.clear();
        out.extend_from_slice(belief.values());
        st.ws.recycle(belief);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{Cpd, TabularCpd};
    use crate::graph::Dag;
    use crate::infer::ve::{posterior_marginal, Evidence};
    use crate::variable::Variable;

    fn sprinkler() -> BayesianNetwork {
        let vars = vec![
            Variable::discrete("cloudy", 2),
            Variable::discrete("sprinkler", 2),
            Variable::discrete("rain", 2),
            Variable::discrete("wet", 2),
        ];
        let mut dag = Dag::new(4);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 3).unwrap();
        dag.add_edge(2, 3).unwrap();
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 2, vec![], vec![0.5, 0.5]).unwrap()),
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 2, vec![2], vec![0.5, 0.5, 0.9, 0.1]).unwrap(),
            ),
            Cpd::Tabular(
                TabularCpd::new(2, vec![0], 2, vec![2], vec![0.8, 0.2, 0.2, 0.8]).unwrap(),
            ),
            Cpd::Tabular(
                TabularCpd::new(
                    3,
                    vec![1, 2],
                    2,
                    vec![2, 2],
                    vec![1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99],
                )
                .unwrap(),
            ),
        ];
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    #[test]
    fn structure_satisfies_family_coverage_and_running_intersection() {
        let bn = sprinkler();
        let jt = JunctionTree::compile(&bn).unwrap();
        // Every CPD family is covered by some clique.
        for cpd in bn.cpds() {
            let mut family = cpd.parents().to_vec();
            family.push(cpd.child());
            family.sort_unstable();
            assert!(
                (0..jt.n_cliques()).any(|i| is_subset(&family, jt.clique_scope(i))),
                "family {family:?} not covered"
            );
        }
        // Separators are exact intersections.
        for e in 0..jt.n_edges() {
            let (a, b, sep) = jt.edge(e);
            assert_eq!(sep, intersect(jt.clique_scope(a), jt.clique_scope(b)));
        }
        // Running intersection: the cliques containing each node form a
        // connected subtree (count via edges whose separator holds it).
        for v in 0..bn.len() {
            let holding = (0..jt.n_cliques())
                .filter(|&i| jt.clique_scope(i).contains(&v))
                .count();
            let connecting = (0..jt.n_edges())
                .filter(|&e| jt.edge(e).2.contains(&v))
                .count();
            assert_eq!(
                connecting,
                holding - 1,
                "node {v} induces a disconnected clique subtree"
            );
        }
    }

    #[test]
    fn marginals_match_variable_elimination() {
        let bn = sprinkler();
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        // Priors.
        for t in 0..4 {
            let got = jt.marginal(&mut st, t).unwrap();
            let want = posterior_marginal(&bn, t, &Evidence::new()).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "prior target {t}: {got:?} vs {want:?}"
                );
            }
        }
        // Posterior given wet grass (classic exact values).
        jt.set_evidence(&mut st, &[(3, 1)]).unwrap();
        let ps = jt.marginal(&mut st, 1).unwrap();
        assert!((ps[1] - 0.4298).abs() < 1e-3, "{ps:?}");
        let pr = jt.marginal(&mut st, 2).unwrap();
        assert!((pr[1] - 0.7079).abs() < 1e-3, "{pr:?}");
        let mut ev = Evidence::new();
        ev.insert(3, 1);
        for t in 0..3 {
            let got = jt.marginal(&mut st, t).unwrap();
            let want = posterior_marginal(&bn, t, &ev).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "target {t}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn replacing_evidence_matches_a_fresh_state() {
        let bn = sprinkler();
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        // Warm the caches with a different query first, then replace its
        // pin (retracting node 2, entering node 3) in one call.
        jt.set_evidence(&mut st, &[(2, 1)]).unwrap();
        let _ = jt.marginal(&mut st, 0).unwrap();
        jt.set_evidence(&mut st, &[(3, 1)]).unwrap();
        let incremental = jt.marginal(&mut st, 1).unwrap();

        let mut fresh = jt.new_state();
        jt.set_evidence(&mut fresh, &[(3, 1)]).unwrap();
        let direct = jt.marginal(&mut fresh, 1).unwrap();
        assert_eq!(incremental, direct, "stale message survived retraction");

        // Re-entering the same evidence is a no-op for the caches, and
        // pin order does not matter.
        jt.set_evidence(&mut st, &[(3, 1)]).unwrap();
        assert_eq!(jt.marginal(&mut st, 1).unwrap(), direct);
        jt.set_evidence(&mut st, &[(3, 1), (0, 1)]).unwrap();
        let a = jt.marginal(&mut st, 1).unwrap();
        jt.set_evidence(&mut fresh, &[(0, 1), (3, 1)]).unwrap();
        assert_eq!(a, jt.marginal(&mut fresh, 1).unwrap());
        jt.set_evidence(&mut st, &[]).unwrap();
        let prior = jt.marginal(&mut st, 1).unwrap();
        let want = posterior_marginal(&bn, 1, &Evidence::new()).unwrap();
        for (a, b) in prior.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn observed_target_is_a_point_mass() {
        let bn = sprinkler();
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        jt.set_evidence(&mut st, &[(2, 1)]).unwrap();
        assert_eq!(jt.marginal(&mut st, 2).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn compilation_is_deterministic() {
        let bn = sprinkler();
        let a = JunctionTree::compile(&bn).unwrap();
        let b = JunctionTree::compile(&bn).unwrap();
        assert_eq!(a.cliques, b.cliques);
        for (fa, fb) in a.base.iter().zip(&b.base) {
            assert_eq!(fa.values(), fb.values());
        }
        let mut sa = a.new_state();
        let mut sb = b.new_state();
        a.set_evidence(&mut sa, &[(3, 1)]).unwrap();
        b.set_evidence(&mut sb, &[(3, 1)]).unwrap();
        assert_eq!(
            a.marginal(&mut sa, 1).unwrap(),
            b.marginal(&mut sb, 1).unwrap()
        );
    }

    /// A star of chains: hub X0 with `arms` chains of length `depth`
    /// hanging off it. The junction tree has one branch per arm, so a
    /// collect pass visits many cliques.
    fn star_of_chains(arms: usize, depth: usize) -> BayesianNetwork {
        let n = 1 + arms * depth;
        let vars: Vec<Variable> = (0..n)
            .map(|i| Variable::discrete(format!("x{i}"), 3))
            .collect();
        let mut dag = Dag::new(n);
        let mut cpds = vec![Cpd::Tabular(
            TabularCpd::new(0, vec![], 3, vec![], vec![0.5, 0.3, 0.2]).unwrap(),
        )];
        for a in 0..arms {
            for d in 0..depth {
                let node = 1 + a * depth + d;
                let parent = if d == 0 { 0 } else { node - 1 };
                // Deterministic but node-dependent rows, rows sum to 1.
                let mut table = Vec::with_capacity(9);
                for r in 0..3 {
                    let x = 0.2 + 0.1 * ((node + r) % 4) as f64;
                    let y = 0.25 + 0.05 * ((node * 7 + r) % 5) as f64;
                    table.extend_from_slice(&[x, y, 1.0 - x - y]);
                }
                dag.add_edge(parent, node).unwrap();
                cpds.push(Cpd::Tabular(
                    TabularCpd::new(node, vec![parent], 3, vec![3], table).unwrap(),
                ));
            }
        }
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    #[test]
    fn multi_clique_collect_matches_ve_on_the_star() {
        let bn = star_of_chains(4, 3);
        let tree = JunctionTree::compile(&bn).unwrap();
        let mut st = tree.new_state();
        let mut ev = Evidence::new();
        ev.insert(2, 1);
        ev.insert(7, 0);
        tree.set_evidence(&mut st, &[(2, 1), (7, 0)]).unwrap();
        for target in (0..bn.len()).filter(|t| !ev.contains_key(t)) {
            let got = tree.marginal(&mut st, target).unwrap();
            let want = posterior_marginal(&bn, target, &ev).unwrap();
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "target {target}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn invalid_inputs_are_reported() {
        let bn = sprinkler();
        let jt = JunctionTree::compile(&bn).unwrap();
        let mut st = jt.new_state();
        jt.set_evidence(&mut st, &[(3, 1)]).unwrap();
        let before = jt.marginal(&mut st, 1).unwrap();
        // A refused call leaves the entered evidence as it was.
        for bad in [&[(99, 0)][..], &[(0, 1), (2, 9)], &[(0, 1), (0, 0)]] {
            assert!(jt.set_evidence(&mut st, bad).is_err(), "{bad:?}");
            assert_eq!(jt.marginal(&mut st, 1).unwrap(), before, "{bad:?}");
        }
        assert!(jt.marginal(&mut st, 99).is_err());

        // Non-discrete networks don't compile.
        let vars = vec![Variable::continuous("x")];
        let dag = Dag::new(1);
        let cpds = vec![Cpd::LinearGaussian(
            crate::cpd::LinearGaussianCpd::new(0, vec![], 0.0, vec![], 1.0).unwrap(),
        )];
        let cont = BayesianNetwork::new(vars, dag, cpds).unwrap();
        assert!(JunctionTree::compile(&cont).is_err());
    }
}
