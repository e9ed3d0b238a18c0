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
//! Four properties make the compiled engine fast in steady state:
//!
//! * **Eq. 4 stays a lookup.** A discrete deterministic-with-leak CPD
//!   whose child is a sink (each KERT-BN's `D`) is never tabulated: its
//!   parents triangulate together, its child is in no clique, and the
//!   first clique covering the parents keeps the CPD's predicted-state
//!   index plus its two leak masses (a `Functional`). On a KERT-BN of `n`
//!   services in `b` bins the tree is then one `bⁿ`-entry clique instead
//!   of `bⁿ⁺¹`; evidence on `D` and a read of `D` go through the index.
//! * **Incremental evidence as slices.** [`JunctionTree::set_evidence`]
//!   replaces a state's whole evidence set in one call and rebuilds each
//!   clique holding a changed pin once, as its evidence-free base
//!   restricted to the pinned states: a clique of `k` variables with `e`
//!   of them pinned holds `bins^(k−e)` entries, so evidence entry, message
//!   passing and every read scale with the slice, not the joint. Only
//!   messages directed *away* from a changed clique are invalidated, and
//!   messages are recomputed lazily, farthest-first, toward the queried
//!   clique — so stepping through pAccel candidates, one pin each,
//!   re-propagates only along the affected subtree.
//! * **Priors once per tree.** A state with no evidence reads every
//!   marginal from the tree's own cache, filled on the first such read by
//!   one pass over each home clique: the home belief is read in place
//!   when no message enters it, each Eq. 4 lookup there is one bucket
//!   sum, and the tabulated nodes share their leading sum-outs. Those are
//!   the additions, in the same order, of a one-node read, so every prior
//!   keeps its bits. The pass runs on a scratch state of its own and never
//!   through the cached read, which it would otherwise wait on.
//! * **Zero-alloc queries.** All factor scratch flows through the
//!   [`QueryWorkspace`] held by [`JtState`]; once the pools are warm, a
//!   calibrated marginal read-off allocates nothing.
//!
//! The tree and the mutable propagation state are split ([`JunctionTree`]
//! vs [`JtState`]) so one compilation can serve several query streams, and
//! so the immutable tree can be shared across threads.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use crate::cpd::Cpd;
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
// One per compiled tree that is ever read without evidence: more than one
// per model version means priors are recomputed somewhere.
static OBS_JT_PRIOR_PASSES: kert_obs::Counter = kert_obs::Counter::new("bayes.jt.prior_passes");

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

/// Eq. 4 kept as a lookup instead of a dense table: a discrete
/// deterministic-with-leak CPD whose child `node` is a sink. `node` is in
/// no clique; its parents all lie in `home`, the first clique covering
/// them, and the three operations that touch `node` go through the index:
///
/// * evidence `node = d` multiplies the home's (sliced) potential by `hit`
///   where the predicted state is `d` and by `miss` elsewhere;
/// * a read of `node` bucket-sums the calibrated home belief `B` by
///   predicted state: `P(d) ∝ miss·Z + (hit − miss)·B[d]`;
/// * with `node` unobserved nothing is multiplied: every Eq. 4 row sums to
///   the same `hit + (card − 1)·miss`, which normalization cancels. (A
///   tabular sink's rows sum to 1 only within 1e-6, so it stays in its
///   clique.)
struct Functional {
    node: usize,
    /// Ascending; every one is in `home`'s scope.
    parents: Vec<usize>,
    /// Row-major strides of `predicted` over `parents`.
    strides: Vec<usize>,
    /// The CPD's own predicted-state index, shared rather than copied.
    predicted: Arc<[u32]>,
    hit: f64,
    miss: f64,
    home: usize,
}

impl Functional {
    /// The lookup position the pinned parents fix. Every clique holding a
    /// pinned variable is sliced, so the parents left in a home potential's
    /// scope are exactly the unpinned ones.
    fn offset(&self, evidence: &[Option<usize>]) -> usize {
        self.parents
            .iter()
            .zip(&self.strides)
            .filter_map(|(&p, &stride)| evidence[p].map(|s| s * stride))
            .sum()
    }

    /// Enter `node = state` into the home potential `pot`.
    fn enter(
        &self,
        pot: &mut Factor,
        state: usize,
        evidence: &[Option<usize>],
        ws: &mut QueryWorkspace,
    ) {
        let offset = self.offset(evidence);
        pot.runs_along_mut_ws(
            &self.parents,
            &self.strides,
            offset,
            ws,
            |run, start, step| {
                for (k, v) in run.iter_mut().enumerate() {
                    *v *= if self.predicted[start + k * step] as usize == state {
                        self.hit
                    } else {
                        self.miss
                    };
                }
            },
        );
    }

    /// `P(node)` up to a constant, from the calibrated home `belief`, into
    /// `out` (one zeroed slot per state of `node`). Entries add into their
    /// predicted state's bucket in table order; while the predicted state
    /// repeats, the bucket's running sum stays in a local, which is the
    /// same additions in the same order as `out[s] += v` per entry.
    fn read(
        &self,
        belief: &Factor,
        evidence: &[Option<usize>],
        ws: &mut QueryWorkspace,
        out: &mut [f64],
    ) {
        let offset = self.offset(evidence);
        belief.runs_along_ws(
            &self.parents,
            &self.strides,
            offset,
            ws,
            |run, start, step| {
                let mut bucket = self.predicted[start] as usize;
                let mut sum = out[bucket];
                for (k, &v) in run.iter().enumerate() {
                    let s = self.predicted[start + k * step] as usize;
                    if s != bucket {
                        out[bucket] = sum;
                        bucket = s;
                        sum = out[s];
                    }
                    sum += v;
                }
                out[bucket] = sum;
            },
        );
        let z: f64 = out.iter().sum();
        for b in out.iter_mut() {
            *b = self.miss * z + (self.hit - self.miss) * *b;
        }
    }
}

/// A compiled clique tree (junction forest for disconnected networks).
///
/// Immutable after [`JunctionTree::compile`]; all evidence and message
/// state lives in a [`JtState`] obtained from [`JunctionTree::new_state`].
pub struct JunctionTree {
    /// Cardinality per network node.
    cards: Vec<usize>,
    /// Maximal cliques of the triangulated moral graph (scopes ascending).
    cliques: Vec<Vec<usize>>,
    /// Max-weight spanning forest over separator sizes.
    edges: Vec<TreeEdge>,
    /// Adjacency list per clique.
    neighbors: Vec<Vec<Neighbor>>,
    /// Evidence-free clique potentials over the *full* clique scope: the
    /// product of every CPD factor assigned to the clique (the first one
    /// broadcast over the scope; all ones if none is). The tree keeps
    /// these products only, not the CPD factors.
    base: Vec<Factor>,
    /// Eq. 4 on a sink, kept as a lookup on its home clique.
    functional: Vec<Functional>,
    /// Per node: the smallest-table clique containing it (marginal reads
    /// for the node route through this clique); a functional node's home.
    node_home: Vec<usize>,
    /// Per node: every clique whose scope holds it, ascending (a pin on
    /// the node slices each of them); a functional node's home alone (a
    /// pin multiplies it by the node's Eq. 4 row).
    node_cliques: Vec<Vec<usize>>,
    /// Per node: its evidence-free marginal, filled by one
    /// [`JunctionTree::prior_pass`] on the first evidence-free read.
    priors: OnceLock<Vec<Vec<f64>>>,
}

/// The structure only: a clique potential can hold 5⁶ entries, which do not
/// belong in a failure message.
impl std::fmt::Debug for JunctionTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JunctionTree")
            .field("cliques", &self.cliques)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

/// Mutable propagation state over one [`JunctionTree`]: current evidence,
/// evidence-adjusted clique potentials, the directed-message cache, and
/// the factor workspace every kernel call draws from.
#[derive(Debug)]
pub struct JtState {
    /// Observed state per network node.
    evidence: Vec<Option<usize>>,
    /// Per clique: the base restricted to every pinned variable in its
    /// scope; `None` = no pin in scope, use the base.
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

/// Entries of a dense `f64` table over `scope`, or
/// [`BayesError::TableTooLarge`] when its bytes would pass `isize::MAX`,
/// the most one allocation can hold. The product is checked: a wrapped one
/// would fail at allocation or size the table too small.
fn table_len(scope: &[usize], cards: &[usize]) -> Result<usize> {
    scope
        .iter()
        .try_fold(1usize, |len, &v| len.checked_mul(cards[v]))
        .filter(|len| {
            len.checked_mul(std::mem::size_of::<f64>())
                .is_some_and(|bytes| bytes <= isize::MAX as usize)
        })
        .ok_or_else(|| BayesError::TableTooLarge {
            vars: scope.len(),
            entries: scope.iter().map(|&v| cards[v] as f64).product(),
        })
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
    /// intersection property on a triangulated graph. A discrete
    /// deterministic-with-leak CPD whose child has no children (and at
    /// least one parent) enters triangulation as its parents alone and is
    /// kept as a lookup (see the module docs); every other CPD is a factor
    /// in its family's clique.
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
        // Eq. 4 on a sink stays a lookup: its masses are decided here, its
        // index is read only once every clique is sized.
        let mut has_child = vec![false; n];
        for cpd in network.cpds() {
            for &p in cpd.parents() {
                has_child[p] = true;
            }
        }
        let masses: Vec<Option<(f64, f64)>> = network
            .cpds()
            .iter()
            .map(|cpd| match cpd {
                Cpd::Deterministic(d) if !has_child[d.child()] && !d.parents().is_empty() => {
                    d.indexed_masses(&cards)
                }
                _ => None,
            })
            .collect();
        // Triangulate on the family scopes alone (a lookup's without its
        // child): every table is sized before any is built, so a network
        // too large to tabulate is refused instead of overflowing an
        // allocation.
        let families: Vec<Vec<usize>> = network
            .cpds()
            .iter()
            .zip(&masses)
            .map(|(c, mass)| {
                let mut scope = c.parents().to_vec();
                if mass.is_none() {
                    scope.push(c.child());
                    scope.sort_unstable();
                }
                scope
            })
            .collect();

        // Triangulate: eliminate every node but the lookups' children in
        // min-fill order on the moral graph, recording {v} ∪
        // live-neighbours(v) as a candidate clique and adding the induced
        // fill edges.
        let tabulated: Vec<usize> = (0..n).filter(|&v| masses[v].is_none()).collect();
        let order = elimination_ordering(
            families.iter().map(Vec::as_slice),
            &tabulated,
            EliminationHeuristic::MinFill,
        );
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for scope in &families {
            for &a in scope {
                adj[a].extend(scope.iter().copied().filter(|&b| b != a));
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
        // Every family lies inside a clique, its home, so sizing the
        // cliques sizes every family table and every lookup index too.
        let clique_lens: Vec<usize> = cliques
            .iter()
            .map(|scope| table_len(scope, &cards))
            .collect::<Result<_>>()?;
        let m = cliques.len();
        let mut assigned: Vec<Vec<Factor>> = vec![Vec::new(); m];
        let mut functional: Vec<Functional> = Vec::new();
        for ((cpd, family), mass) in network.cpds().iter().zip(&families).zip(&masses) {
            let home = (0..m)
                .find(|&i| is_subset(family, &cliques[i]))
                .ok_or_else(|| {
                    BayesError::Numerical(format!("junction tree lost family scope {family:?}"))
                })?;
            match (cpd, *mass) {
                (Cpd::Deterministic(d), Some((hit, miss))) => {
                    let parent_cards: Vec<usize> = family.iter().map(|&p| cards[p]).collect();
                    functional.push(Functional {
                        node: d.child(),
                        parents: family.clone(),
                        strides: strides(&parent_cards),
                        predicted: Arc::clone(
                            d.predicted_states()
                                .expect("discrete noise predicts states"),
                        ),
                        hit,
                        miss,
                        home,
                    });
                }
                _ => assigned[home].push(Factor::from_cpd(cpd, &cards)?),
            }
        }

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

        // Base potentials: each clique's first factor (in CPD order)
        // broadcast over its scope, times the rest in place. That is
        // bitwise the product of a ones table with every factor (`1.0 · x =
        // x`), one full pass shorter; a clique with no factor stays ones.
        let mut ws = QueryWorkspace::new();
        let base: Vec<Factor> = cliques
            .iter()
            .zip(&clique_lens)
            .zip(assigned)
            .map(|((scope, &len), factors)| {
                let scope_cards: Vec<usize> = scope.iter().map(|&v| cards[v]).collect();
                let mut factors = factors.into_iter();
                let Some(first) = factors.next() else {
                    return Factor::new(scope.clone(), scope_cards, vec![1.0; len]);
                };
                let mut potential = first.broadcast(scope.clone(), scope_cards);
                for f in factors {
                    let absorbed = potential.mul_assign_ws(&f, &mut ws);
                    debug_assert!(absorbed, "the home clique covers its factor's scope");
                }
                Ok(potential)
            })
            .collect::<Result<_>>()?;

        let mut node_cliques: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                (0..m)
                    .filter(|&i| cliques[i].binary_search(&v).is_ok())
                    .collect()
            })
            .collect();
        for f in &functional {
            node_cliques[f.node] = vec![f.home];
        }
        let node_home: Vec<usize> = node_cliques
            .iter()
            .map(|holding| {
                *holding
                    .iter()
                    .min_by_key(|&&i| (base[i].values().len(), i))
                    .expect("every node appears in its own elimination clique or is a lookup")
            })
            .collect();

        Ok(JunctionTree {
            cards,
            cliques,
            edges,
            neighbors,
            base,
            functional,
            node_home,
            node_cliques,
            priors: OnceLock::new(),
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
    /// untouched. Every clique holding a node whose pin changed is then
    /// rebuilt once, invalidating only the messages directed away from it.
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
        let mut changed: Vec<usize> = Vec::new();
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
            changed.extend_from_slice(&self.node_cliques[node]);
        }
        changed.sort_unstable();
        changed.dedup();
        for c in changed {
            self.refresh_clique(st, c);
        }
        Ok(())
    }

    /// Rebuild clique `c`'s potential as its base restricted to every
    /// pinned variable in its scope (one contiguous-run copy per pin, each
    /// on the previous slice), times the Eq. 4 row of each pinned lookup
    /// homed here, and invalidate the outgoing message subtree.
    /// Every clique holding a pinned variable is sliced, so messages carry
    /// the separator minus the evidence and always meet a potential over
    /// the same reduced scope. The answers are bit-for-bit those of
    /// zeroing the disagreeing entries of the full table: the slice keeps
    /// exactly the entries zeroing would leave, and zeroing would only add
    /// exact zeros to them (`PROB_FLOOR` keeps every potential positive).
    fn refresh_clique(&self, st: &mut JtState, c: usize) {
        if let Some(old) = st.potentials[c].take() {
            st.ws.recycle(old);
        }
        let mut slice: Option<Factor> = None;
        for &v in &self.cliques[c] {
            if let Some(s) = st.evidence[v] {
                let next = slice
                    .as_ref()
                    .unwrap_or(&self.base[c])
                    .reduce_ws(v, s, &mut st.ws);
                if let Some(old) = slice.replace(next) {
                    st.ws.recycle(old);
                }
            }
        }
        for f in self.functional.iter().filter(|f| f.home == c) {
            if let Some(state) = st.evidence[f.node] {
                let pot = slice.get_or_insert_with(|| self.base[c].clone_using(&mut st.ws));
                f.enter(pot, state, &st.evidence, &mut st.ws);
            }
        }
        st.potentials[c] = slice;
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
    /// Message scopes are separators minus the evidence, a subset of the
    /// sending clique's sliced scope (summing out a pinned variable, no
    /// longer in scope, is a no-op), so absorption runs through the
    /// in-place subset product — no intermediate tables.
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

    /// [`JunctionTree::marginal`] writing into a caller buffer. A state
    /// with no evidence reads the tree's cached priors; the first such
    /// read on a tree computes every node's prior in one pass.
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
        if st.evidence.iter().all(Option::is_none) {
            let priors = self.priors.get_or_init(|| self.prior_pass());
            out.clear();
            out.extend_from_slice(&priors[target]);
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
        self.read_off(st, home, &[target], std::slice::from_mut(out));
        if normalize(out) {
            Ok(())
        } else {
            Err(BayesError::Numerical(
                "evidence has zero probability under the model".into(),
            ))
        }
    }

    /// Every node's evidence-free marginal: one collect toward, and one
    /// [`JunctionTree::read_off`] of, each clique that is some node's
    /// home, all on a scratch state of the pass's own (a multi-clique tree
    /// calibrates once on it). It must never read through
    /// [`JunctionTree::marginal_into`], whose evidence-free branch waits
    /// on this very pass. Each prior is bitwise the one-target read the
    /// tree would otherwise make, so filling the cache changes no answer.
    ///
    /// The pass opens no span: which request pays for it depends on what
    /// ran on the tree before and on worker scheduling, and a request's
    /// span tree must depend on neither. Its counter says whether it ran.
    fn prior_pass(&self) -> Vec<Vec<f64>> {
        OBS_JT_PRIOR_PASSES.incr();
        let mut homed: Vec<Vec<usize>> = vec![Vec::new(); self.cliques.len()];
        for (v, &home) in self.node_home.iter().enumerate() {
            homed[home].push(v);
        }
        let mut st = self.new_state();
        let mut priors = vec![Vec::new(); self.cards.len()];
        for (home, targets) in homed.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            self.ensure_messages_into(&mut st, home);
            let mut outs = vec![Vec::new(); targets.len()];
            self.read_off(&mut st, home, targets, &mut outs);
            for (&v, mut prior) in targets.iter().zip(outs) {
                // `PROB_FLOOR` keeps every evidence-free potential
                // positive, so no prior has zero mass.
                let positive = normalize(&mut prior);
                debug_assert!(positive, "node {v}: zero evidence-free mass");
                priors[v] = prior;
            }
        }
        priors
    }

    /// Read each of `targets` (ascending, unobserved, all homed at
    /// `home`) off `home`'s calibrated belief on `st`, unnormalized, into
    /// the matching slot of `outs`. The belief is the home potential read
    /// in place when no message enters the home, else the potential times
    /// every inbound message, built once. Each Eq. 4 lookup is one bucket
    /// sum over it. The tabulated targets share their leading sum-outs:
    /// with `v₀, v₁, …` the belief's scope, `P₀` is the belief and `P_{i+1}
    /// = P_i` with `v_i` summed out (always position 0), and a target at
    /// position `j` sums the trailing variables out of `P_j`. Those are the
    /// additions, in the same order, that a target read alone makes (fold
    /// `v₀…v_{j−1}` into a copy of the belief, then sum out the rest), so
    /// a one-target call is that read, bit for bit, and so is each target
    /// of a many-target call.
    fn read_off(&self, st: &mut JtState, home: usize, targets: &[usize], outs: &mut [Vec<f64>]) {
        let JtState {
            evidence,
            potentials,
            messages,
            ws,
            ..
        } = st;
        let potential = potentials[home].as_ref().unwrap_or(&self.base[home]);
        let product = (!self.neighbors[home].is_empty()).then(|| {
            let mut belief = potential.clone_using(ws);
            for &Neighbor { clique: _, edge: e } in &self.neighbors[home] {
                let m = messages[self.msg_id(e, self.other_end(e, home))]
                    .as_ref()
                    .expect("the collect pass validated every inbound message");
                // Separator scopes are subsets of the home clique: absorb
                // in place (bitwise equal to the product, without the new
                // table).
                if !belief.mul_assign_ws(m, ws) {
                    let next = belief.product_ws(m, ws);
                    ws.recycle(belief);
                    belief = next;
                }
            }
            belief
        });
        let belief = product.as_ref().unwrap_or(potential);
        // Pinned variables are sliced out of the belief's scope.
        let scope = belief.vars();
        let mut lead: Option<Factor> = None; // P_i for i ≥ 1
        let mut summed = 0; // i
        for (&target, out) in targets.iter().zip(outs) {
            out.clear();
            if let Some(f) = self.functional.iter().find(|f| f.node == target) {
                out.resize(self.cards[target], 0.0);
                f.read(belief, evidence, ws, out);
                continue;
            }
            let at = scope
                .binary_search(&target)
                .expect("an unobserved node stays in its home's scope");
            while summed < at {
                let next = lead
                    .as_ref()
                    .unwrap_or(belief)
                    .sum_out_ws(scope[summed], ws);
                if let Some(old) = lead.replace(next) {
                    ws.recycle(old);
                }
                summed += 1;
            }
            let leading = lead.as_ref().unwrap_or(belief);
            let mut rest: Option<Factor> = None;
            for &v in &scope[at + 1..] {
                let next = rest.as_ref().unwrap_or(leading).sum_out_ws(v, ws);
                if let Some(old) = rest.replace(next) {
                    ws.recycle(old);
                }
            }
            let read = rest.as_ref().unwrap_or(leading);
            debug_assert_eq!(read.vars(), [target]);
            out.extend_from_slice(read.values());
            if let Some(r) = rest {
                ws.recycle(r);
            }
        }
        for f in lead.into_iter().chain(product) {
            ws.recycle(f);
        }
    }
}

/// Normalize as `Factor::normalize` does: a sequential sum, then one
/// multiply by its reciprocal per state. `false`, with `out` unscaled, when
/// the mass is zero.
fn normalize(out: &mut [f64]) -> bool {
    let z: f64 = out.iter().sum();
    if z <= 0.0 {
        return false;
    }
    let inv = 1.0 / z;
    out.iter_mut().for_each(|p| *p *= inv);
    true
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
        for edge in &jt.edges {
            let want = intersect(jt.clique_scope(edge.a), jt.clique_scope(edge.b));
            assert_eq!(edge.separator, want);
        }
        // Running intersection: the cliques containing each node form a
        // connected subtree (count via edges whose separator holds it).
        for v in 0..bn.len() {
            let holding = (0..jt.n_cliques())
                .filter(|&i| jt.clique_scope(i).contains(&v))
                .count();
            let connecting = jt.edges.iter().filter(|e| e.separator.contains(&v)).count();
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

    /// Both inputs run through one reused state; the second pins the hub
    /// X0, which lies in every separator, so every clique is sliced and
    /// every message loses the hub from its scope. Each read must match
    /// VE and, bit for bit, a fresh state.
    #[test]
    fn multi_clique_collect_matches_ve_on_the_star() {
        let bn = star_of_chains(4, 3);
        let tree = JunctionTree::compile(&bn).unwrap();
        assert!(tree.n_cliques() > 1);
        let mut st = tree.new_state();
        for pins in [&[(2, 1), (7, 0)][..], &[(0, 2), (2, 1), (7, 0)]] {
            let ev: Evidence = pins.iter().copied().collect();
            tree.set_evidence(&mut st, pins).unwrap();
            let mut fresh = tree.new_state();
            tree.set_evidence(&mut fresh, pins).unwrap();
            for target in (0..bn.len()).filter(|t| !ev.contains_key(t)) {
                let got = tree.marginal(&mut st, target).unwrap();
                let want = posterior_marginal(&bn, target, &ev).unwrap();
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9, "target {target}: {got:?} vs {want:?}");
                }
                assert_eq!(
                    got,
                    tree.marginal(&mut fresh, target).unwrap(),
                    "pins {pins:?}, target {target}: reused state diverged"
                );
            }
        }
    }

    /// A, B, C and an Eq. 4 sink D over (A, B): one clique {A, B, C}
    /// homes D, and its innermost variable C is not one of D's parents,
    /// so D's read walks runs of step 0.
    fn with_eq4_sink() -> BayesianNetwork {
        use crate::cpd::{DetNoise, DeterministicCpd};
        use crate::Expr;
        let cards = [3, 2, 3, 4];
        let vars: Vec<Variable> = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| Variable::discrete(format!("x{i}"), c))
            .collect();
        let mut dag = Dag::new(4);
        for (parent, child) in [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)] {
            dag.add_edge(parent, child).unwrap();
        }
        let noise = DetNoise::Discrete {
            leak: 0.05,
            card: 4,
            child_edges: vec![1.0, 2.0, 3.0],
            parent_mids: vec![vec![0.5, 1.5, 2.5], vec![0.5, 1.5]],
        };
        let cpds = vec![
            Cpd::Tabular(TabularCpd::new(0, vec![], 3, vec![], vec![0.5, 0.3, 0.2]).unwrap()),
            Cpd::Tabular(
                TabularCpd::new(1, vec![0], 2, vec![3], vec![0.6, 0.4, 0.3, 0.7, 0.9, 0.1])
                    .unwrap(),
            ),
            Cpd::Tabular(
                TabularCpd::new(
                    2,
                    vec![0, 1],
                    3,
                    vec![3, 2],
                    (0..6)
                        .flat_map(|r| {
                            let x = 0.1 + 0.1 * r as f64;
                            [x, 0.3, 0.7 - x]
                        })
                        .collect(),
                )
                .unwrap(),
            ),
            Cpd::Deterministic(
                DeterministicCpd::from_network_expr(3, &Expr::sum_of_vars(&[0, 1]), noise).unwrap(),
            ),
        ];
        BayesianNetwork::new(vars, dag, cpds).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// `target`'s evidence-free marginal as the tree read it before priors
    /// were cached, written out: a copy of its home belief with every
    /// other variable folded out in scope order, or for an Eq. 4 lookup
    /// each entry added into its predicted state's bucket in table order.
    fn read_alone(tree: &JunctionTree, target: usize) -> Vec<f64> {
        let home = tree.node_home[target];
        let mut st = tree.new_state();
        tree.ensure_messages_into(&mut st, home);
        let mut belief = tree.base[home].clone();
        for &Neighbor { clique: _, edge: e } in &tree.neighbors[home] {
            let inbound = tree.msg_id(e, tree.other_end(e, home));
            belief = belief.product(st.messages[inbound].as_ref().unwrap());
        }
        let mut out = match tree.functional.iter().find(|f| f.node == target) {
            Some(f) => {
                let mut buckets = vec![0.0; tree.cards[target]];
                let mut states = vec![0; belief.vars().len()];
                for (entry, &v) in belief.values().iter().enumerate() {
                    crate::cpd::decode_config(entry, belief.cards(), &mut states);
                    let at: usize = f
                        .parents
                        .iter()
                        .zip(&f.strides)
                        .map(|(p, stride)| states[belief.vars().binary_search(p).unwrap()] * stride)
                        .sum();
                    buckets[f.predicted[at] as usize] += v;
                }
                let z: f64 = buckets.iter().sum();
                buckets
                    .iter()
                    .map(|&b| f.miss * z + (f.hit - f.miss) * b)
                    .collect()
            }
            None => {
                for &v in &tree.cliques[home] {
                    if v != target {
                        belief = belief.sum_out_owned(v);
                    }
                }
                belief.values().to_vec()
            }
        };
        assert!(normalize(&mut out));
        out
    }

    /// The prior pass reads each home once for all the nodes it homes; each
    /// cached prior is bitwise both the routine's one-node read of the
    /// same belief and the read the tree made before priors were cached.
    /// The star's homes hold nodes at several positions, and the Eq. 4
    /// network reads its sink through step-0 runs.
    #[test]
    fn each_cached_prior_is_the_one_node_read_bit_for_bit() {
        for bn in [sprinkler(), star_of_chains(4, 3), with_eq4_sink()] {
            let tree = JunctionTree::compile(&bn).unwrap();
            let mut st = tree.new_state();
            let cached: Vec<Vec<f64>> = (0..bn.len())
                .map(|t| tree.marginal(&mut st, t).unwrap())
                .collect();
            assert!(
                tree.priors.get().is_some(),
                "evidence-free reads fill the cache"
            );
            for (t, prior) in cached.iter().enumerate() {
                let home = tree.node_home[t];
                let mut scratch = tree.new_state();
                tree.ensure_messages_into(&mut scratch, home);
                let mut one = Vec::new();
                tree.read_off(&mut scratch, home, &[t], std::slice::from_mut(&mut one));
                assert!(normalize(&mut one));
                assert_eq!(
                    bits(prior),
                    bits(&one),
                    "node {t}: pass vs one-node read-off"
                );
                assert_eq!(bits(prior), bits(&read_alone(&tree, t)), "node {t}");
                let want = posterior_marginal(&bn, t, &Evidence::new()).unwrap();
                for (a, b) in prior.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9, "node {t}: {prior:?} vs {want:?}");
                }
            }
        }
    }

    /// Eight threads race the first evidence-free read of one shared tree;
    /// one fills the cache while the rest wait on it, and every thread
    /// reads the same bits.
    #[test]
    fn racing_first_prior_reads_agree_bitwise() {
        let bn = star_of_chains(4, 3);
        let n = bn.len();
        let tree = JunctionTree::compile(&bn).unwrap();
        let start = std::sync::Barrier::new(8);
        let reads: Vec<Vec<Vec<u64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|k| {
                    let (tree, start) = (&tree, &start);
                    s.spawn(move || {
                        let mut st = tree.new_state();
                        start.wait();
                        (0..n)
                            .map(|i| bits(&tree.marginal(&mut st, (i + k) % n).unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, read) in reads.iter().enumerate() {
            for i in 0..n {
                assert_eq!(read[i], reads[0][(i + k) % n], "thread {k}, read {i}");
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
