//! Discrete factors: the working objects of variable elimination.
//!
//! A factor is a non-negative table over a sorted scope of discrete
//! variables. CPDs are converted to factors (including the implicit
//! deterministic CPD, enumerated over its parent configurations — feasible
//! for test-bed-sized nets, which is precisely where the paper uses the
//! discrete model), then multiplied and summed out.
//!
//! The combination kernels (`product`, `sum_out`, `reduce`) are organized
//! around the *contiguous inner stride* of the row-major tables: every
//! kernel first detects the longest trailing run of scope positions over
//! which both operands are laid out contiguously (or absent, i.e.
//! broadcast), then walks only the remaining outer positions with an
//! odometer. The inner run is processed as whole `f64` slices through the
//! chunked-lane primitives in [`lanes`], which the compiler autovectorizes
//! (4/8-wide SIMD on any target with vector units — stable Rust, no
//! intrinsics). `sum_out` and `reduce` collapse to pure slice adds/copies
//! with no per-entry index arithmetic at all.
//!
//! Determinism contract: the lane kernels never reassociate additions —
//! `sum_out` accumulates the eliminated states in ascending order exactly
//! like the per-entry reference, and products are elementwise — so every
//! kernel is *bitwise* equal to the [`naive`] oracles (property-tested in
//! `tests/prop.rs`).
//!
//! The original index-arithmetic implementations are kept in [`naive`] as
//! differential oracles for the property tests and benchmarks.

use crate::cpd::{config_count, Cpd, PROB_FLOOR};
use crate::{BayesError, Result};

// Kernel-level telemetry (`kert-obs`): per-query factor work and workspace
// pool effectiveness. Each increment costs one relaxed load when telemetry
// is disabled, so the counters can sit directly in the hot kernels.
static OBS_PRODUCTS: kert_obs::Counter = kert_obs::Counter::new("bayes.factor.products");
static OBS_SUM_OUTS: kert_obs::Counter = kert_obs::Counter::new("bayes.factor.sum_outs");
static OBS_REDUCES: kert_obs::Counter = kert_obs::Counter::new("bayes.factor.reduces");
static OBS_WS_HITS: kert_obs::Counter = kert_obs::Counter::new("bayes.ws.pool_hits");
static OBS_WS_MISSES: kert_obs::Counter = kert_obs::Counter::new("bayes.ws.pool_misses");

/// Chunked-lane slice primitives for the factor kernels.
///
/// Each loop is written as explicit `WIDTH`-wide chunks over
/// `chunks_exact`, which LLVM reliably turns into packed vector
/// instructions on stable Rust; the scalar remainder handles tables whose
/// inner run is not a multiple of the lane width. None of the kernels
/// reassociate floating-point additions, so their results are bitwise
/// identical to a scalar loop.
pub mod lanes {
    /// Lane width the chunked loops are written against. Eight `f64`s is
    /// one AVX-512 register or two AVX2 / four NEON registers — small
    /// enough that the remainder loop stays negligible for cardinality-5
    /// tables, large enough to saturate wider units.
    pub const WIDTH: usize = 8;

    /// `dst[i] += src[i]`.
    #[inline]
    pub fn add_assign(dst: &mut [f64], src: &[f64]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len() - dst.len() % WIDTH;
        let (dc, dr) = dst.split_at_mut(n);
        let (sc, sr) = src.split_at(n);
        for (d, s) in dc.chunks_exact_mut(WIDTH).zip(sc.chunks_exact(WIDTH)) {
            for k in 0..WIDTH {
                d[k] += s[k];
            }
        }
        for (d, s) in dr.iter_mut().zip(sr) {
            *d += *s;
        }
    }

    /// `dst[i] = a[i] * b[i]`.
    #[inline]
    pub fn mul_into(dst: &mut [f64], a: &[f64], b: &[f64]) {
        debug_assert_eq!(dst.len(), a.len());
        debug_assert_eq!(dst.len(), b.len());
        let n = dst.len() - dst.len() % WIDTH;
        let (dc, dr) = dst.split_at_mut(n);
        for ((d, x), y) in dc
            .chunks_exact_mut(WIDTH)
            .zip(a[..n].chunks_exact(WIDTH))
            .zip(b[..n].chunks_exact(WIDTH))
        {
            for k in 0..WIDTH {
                d[k] = x[k] * y[k];
            }
        }
        for ((d, x), y) in dr.iter_mut().zip(&a[n..]).zip(&b[n..]) {
            *d = *x * *y;
        }
    }

    /// `dst[i] = a[i] * s` (broadcast multiply).
    #[inline]
    pub fn mul_scalar_into(dst: &mut [f64], a: &[f64], s: f64) {
        debug_assert_eq!(dst.len(), a.len());
        let n = dst.len() - dst.len() % WIDTH;
        let (dc, dr) = dst.split_at_mut(n);
        for (d, x) in dc.chunks_exact_mut(WIDTH).zip(a[..n].chunks_exact(WIDTH)) {
            for k in 0..WIDTH {
                d[k] = x[k] * s;
            }
        }
        for (d, x) in dr.iter_mut().zip(&a[n..]) {
            *d = *x * s;
        }
    }

    /// `dst[i] *= src[i]` (in-place elementwise product).
    #[inline]
    pub fn mul_assign(dst: &mut [f64], src: &[f64]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len() - dst.len() % WIDTH;
        let (dc, dr) = dst.split_at_mut(n);
        let (sc, sr) = src.split_at(n);
        for (d, s) in dc.chunks_exact_mut(WIDTH).zip(sc.chunks_exact(WIDTH)) {
            for k in 0..WIDTH {
                d[k] *= s[k];
            }
        }
        for (d, s) in dr.iter_mut().zip(sr) {
            *d *= *s;
        }
    }

    /// `dst[i] *= s` (in-place broadcast multiply).
    #[inline]
    pub fn scale(dst: &mut [f64], s: f64) {
        let n = dst.len() - dst.len() % WIDTH;
        let (dc, dr) = dst.split_at_mut(n);
        for d in dc.chunks_exact_mut(WIDTH) {
            for dk in d.iter_mut() {
                *dk *= s;
            }
        }
        for d in dr {
            *d *= s;
        }
    }
}

/// Row-major strides for a cardinality vector, written into a reusable
/// buffer: `out[p]` is how far the linear index moves when position `p`
/// increments (last position fastest).
fn strides_into(cards: &[usize], out: &mut Vec<usize>) {
    out.clear();
    out.resize(cards.len(), 1);
    for p in (0..cards.len().saturating_sub(1)).rev() {
        out[p] = out[p + 1] * cards[p + 1];
    }
}

/// Row-major strides for a cardinality vector (allocating convenience).
pub(crate) fn strides(cards: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    strides_into(cards, &mut out);
    out
}

/// Merge two ascending scopes into their sorted union, appending the union
/// and its cardinalities to `vars`/`cards`. Shared by the production
/// product kernels and the [`naive`] reference implementation so scope
/// layout can never diverge between them.
pub(crate) fn merge_scopes(
    a_vars: &[usize],
    a_cards: &[usize],
    b_vars: &[usize],
    b_cards: &[usize],
    vars: &mut Vec<usize>,
    cards: &mut Vec<usize>,
) {
    let (mut i, mut j) = (0, 0);
    while i < a_vars.len() || j < b_vars.len() {
        let take_left = match (a_vars.get(i), b_vars.get(j)) {
            (Some(&a), Some(&b)) => {
                if a == b {
                    vars.push(a);
                    cards.push(a_cards[i]);
                    i += 1;
                    j += 1;
                    continue;
                }
                a < b
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_left {
            vars.push(a_vars[i]);
            cards.push(a_cards[i]);
            i += 1;
        } else {
            vars.push(b_vars[j]);
            cards.push(b_cards[j]);
            j += 1;
        }
    }
}

/// How the contiguous trailing run of a merged scope maps onto the two
/// operands of a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunMode {
    /// Both operands are contiguous over the run: elementwise multiply.
    Both,
    /// Only the left operand spans the run; the right is broadcast.
    Left,
    /// Only the right operand spans the run; the left is broadcast.
    Right,
}

/// Longest trailing run of merged-scope positions over which each operand
/// is either contiguous (stride equal to the run length accumulated so
/// far) or entirely absent (stride 0, broadcast). Returns
/// `(split, run_len, mode)`: positions `split..` form the run of
/// `run_len` table entries, positions `..split` are walked by the outer
/// odometer. The innermost merged variable always belongs to at least one
/// operand and, being that operand's own innermost variable, has stride 1
/// there — so a run of at least one position always exists.
fn inner_run(cards: &[usize], sa: &[usize], sb: &[usize]) -> (usize, usize, RunMode) {
    let n = cards.len();
    if n == 0 {
        return (0, 1, RunMode::Both);
    }
    let last = n - 1;
    let mode = match (sa[last], sb[last]) {
        (1, 1) => RunMode::Both,
        (1, 0) => RunMode::Left,
        (0, 1) => RunMode::Right,
        (a, b) => unreachable!("innermost merged position has strides ({a}, {b})"),
    };
    let mut run = cards[last];
    let mut split = last;
    while split > 0 {
        let p = split - 1;
        let extends = match mode {
            RunMode::Both => sa[p] == run && sb[p] == run,
            RunMode::Left => sa[p] == run && sb[p] == 0,
            RunMode::Right => sa[p] == 0 && sb[p] == run,
        };
        if !extends {
            break;
        }
        run *= cards[p];
        split = p;
    }
    (split, run, mode)
}

/// Reusable scratch for the factor kernels: pools of value and index
/// buffers that the workspace-threaded kernels (`product_ws`, `sum_out_ws`,
/// `reduce_ws`) draw their stride tables, odometer counters, and output
/// tables from. A factor whose buffers came from a workspace can be handed
/// back with [`QueryWorkspace::recycle`], so a steady-state query loop —
/// one VE run or junction-tree propagation after another against the same
/// network — reaches a fixed point where no kernel call allocates.
#[derive(Debug, Default)]
pub struct QueryWorkspace {
    f64_pool: Vec<Vec<f64>>,
    usize_pool: Vec<Vec<usize>>,
}

impl QueryWorkspace {
    /// An empty workspace; buffers accumulate as factors are recycled.
    pub fn new() -> Self {
        Self::default()
    }

    fn take_f64(&mut self) -> Vec<f64> {
        match self.f64_pool.pop() {
            Some(mut b) => {
                OBS_WS_HITS.incr();
                b.clear();
                b
            }
            None => {
                OBS_WS_MISSES.incr();
                Vec::new()
            }
        }
    }

    fn take_usize(&mut self) -> Vec<usize> {
        match self.usize_pool.pop() {
            Some(mut b) => {
                OBS_WS_HITS.incr();
                b.clear();
                b
            }
            None => {
                OBS_WS_MISSES.incr();
                Vec::new()
            }
        }
    }

    fn put_f64(&mut self, b: Vec<f64>) {
        if b.capacity() > 0 {
            self.f64_pool.push(b);
        }
    }

    fn put_usize(&mut self, b: Vec<usize>) {
        if b.capacity() > 0 {
            self.usize_pool.push(b);
        }
    }

    /// Reclaim a no-longer-needed factor's buffers for future kernel calls.
    pub fn recycle(&mut self, f: Factor) {
        self.put_usize(f.vars);
        self.put_usize(f.cards);
        self.put_f64(f.values);
    }
}

/// Odometer over `cards` tracking one or more linear indices via per-slot
/// stride tables. `advance` steps to the next configuration in natural
/// (last-fastest) order, updating every tracked index incrementally. The
/// counter slots are borrowed so workspace-threaded kernels can pool them.
/// The combination kernels only ever run it over the *outer* scope
/// positions — everything inside the contiguous run is pure slice work.
struct Odometer<'a> {
    cards: &'a [usize],
    counters: &'a mut [usize],
}

impl<'a> Odometer<'a> {
    fn new(cards: &'a [usize], counters: &'a mut [usize]) -> Self {
        debug_assert_eq!(cards.len(), counters.len());
        counters.fill(0);
        Odometer { cards, counters }
    }

    /// Advance to the next configuration; `indices[k]` moves by
    /// `stride_tables[k][p]` whenever position `p` increments (and unwinds
    /// on wrap). Stride tables use 0 for positions a given index ignores.
    #[inline]
    fn advance(&mut self, stride_tables: &[&[usize]], indices: &mut [usize]) {
        for p in (0..self.cards.len()).rev() {
            self.counters[p] += 1;
            for (k, table) in stride_tables.iter().enumerate() {
                indices[k] += table[p];
            }
            if self.counters[p] < self.cards[p] {
                return;
            }
            self.counters[p] = 0;
            for (k, table) in stride_tables.iter().enumerate() {
                indices[k] -= table[p] * self.cards[p];
            }
        }
    }
}

/// The walker behind [`Factor::runs_along_ws`] over a table's scope `vars`
/// (cardinalities `cards`): `visit(entries, start, step)` per run. A run
/// spans every trailing position whose lookup stride continues the
/// innermost one's progression (`run · step`); the odometer walks the
/// rest. A slice pinned on the lookup's innermost variable is thus a few
/// runs of stride `card` instead of one single-entry run per entry.
fn lookup_runs(
    vars: &[usize],
    cards: &[usize],
    index_vars: &[usize],
    index_strides: &[usize],
    offset: usize,
    ws: &mut QueryWorkspace,
    mut visit: impl FnMut(std::ops::Range<usize>, usize, usize),
) {
    let mut stride = ws.take_usize();
    stride.extend(
        vars.iter()
            .map(|v| index_vars.binary_search(v).map_or(0, |k| index_strides[k])),
    );
    let step = stride.last().copied().unwrap_or(0);
    let (mut split, mut run) = (vars.len(), 1);
    while split > 0 && stride[split - 1] == run * step {
        split -= 1;
        run *= cards[split];
    }
    let mut counters = ws.take_usize();
    counters.resize(split, 0);
    {
        let mut odo = Odometer::new(&cards[..split], &mut counters);
        let mut idx = [offset];
        for first in (0..config_count(cards)).step_by(run) {
            visit(first..first + run, idx[0], step);
            odo.advance(&[&stride[..split]], &mut idx);
        }
    }
    ws.put_usize(stride);
    ws.put_usize(counters);
}

/// A factor over a sorted list of discrete variables.
#[derive(Debug, Clone)]
pub struct Factor {
    /// Variable (node) indices in ascending order.
    vars: Vec<usize>,
    /// Cardinalities aligned with `vars`.
    cards: Vec<usize>,
    /// Values indexed by [`crate::cpd::config_index`] over `vars`.
    values: Vec<f64>,
}

impl Factor {
    /// Build a factor; `values.len()` must equal the product of `cards` and
    /// `vars` must be strictly ascending.
    pub fn new(vars: Vec<usize>, cards: Vec<usize>, values: Vec<f64>) -> Result<Self> {
        if vars.len() != cards.len() {
            return Err(BayesError::InvalidData(format!(
                "factor: {} vars vs {} cards",
                vars.len(),
                cards.len()
            )));
        }
        if vars.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BayesError::InvalidData(
                "factor scope must be strictly ascending".into(),
            ));
        }
        if values.len() != config_count(&cards) {
            return Err(BayesError::InvalidData(format!(
                "factor: {} values for {} configurations",
                values.len(),
                config_count(&cards)
            )));
        }
        Ok(Factor {
            vars,
            cards,
            values,
        })
    }

    /// The trivial factor (empty scope, single value 1).
    pub fn unit() -> Self {
        Factor {
            vars: Vec::new(),
            cards: Vec::new(),
            values: vec![1.0],
        }
    }

    /// Scope (ascending node indices).
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Cardinalities aligned with the scope.
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Convert a CPD into a factor over `{parents ∪ child}`.
    ///
    /// `cards[i]` must give the cardinality of node `i`. For tabular CPDs
    /// this is a direct stride re-indexing of the stored table (no `ln`/
    /// `exp` roundtrip); for discrete deterministic CPDs the child row of
    /// each *parent* configuration is filled from the leak model around
    /// the CPD's predicted state ([`DeterministicCpd::predicted_states`],
    /// which evaluates the workflow expression on the first build only).
    /// That dense Eq. 4 table has `binsⁿ⁺¹` entries for `n` parents, so
    /// only variable elimination — the oracle — builds it: the junction
    /// tree keeps a deterministic sink as the index plus its two leak
    /// masses ([`crate::compile`]). Any other CPD family falls back to the
    /// generic per-entry [`naive::from_cpd`].
    ///
    /// [`DeterministicCpd::predicted_states`]: crate::cpd::DeterministicCpd::predicted_states
    pub fn from_cpd(cpd: &Cpd, cards: &[usize]) -> Result<Self> {
        let child = cpd.child();
        let parents = cpd.parents();
        // Scope = sorted(parents + child). Parents are already sorted.
        let mut vars: Vec<usize> = parents.to_vec();
        let child_pos = vars.binary_search(&child).unwrap_err();
        vars.insert(child_pos, child);
        let scope_cards: Vec<usize> = vars
            .iter()
            .map(|&v| {
                cards
                    .get(v)
                    .copied()
                    .filter(|&c| c > 0)
                    .ok_or(BayesError::InvalidNode(v))
            })
            .collect::<Result<_>>()?;
        let total = config_count(&scope_cards);
        // Dropping the child position from the scope leaves the parents in
        // their own (sorted) order — used by both fast paths below.
        let scope_strides = strides(&scope_cards);

        match cpd {
            Cpd::Tabular(t)
                if scope_cards[child_pos] == t.cardinality()
                    && scope_cards
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| p != child_pos)
                        .map(|(_, &c)| c)
                        .eq(t.parent_cards().iter().copied()) =>
            {
                // Entry at scope config = table[parent_config * card + k]:
                // walk the scope in natural order tracking the table index
                // with one stride table (child moves it by 1, parent `pi`
                // by its parent-config stride times the child cardinality).
                let parent_strides = strides(t.parent_cards());
                let mut tstride = Vec::with_capacity(vars.len());
                let mut pi = 0usize;
                for pos in 0..vars.len() {
                    if pos == child_pos {
                        tstride.push(1);
                    } else {
                        tstride.push(parent_strides[pi] * t.cardinality());
                        pi += 1;
                    }
                }
                let table = t.table();
                let mut values = Vec::with_capacity(total);
                let mut counters = vec![0usize; scope_cards.len()];
                let mut odo = Odometer::new(&scope_cards, &mut counters);
                let mut idx = [0usize];
                for _ in 0..total {
                    values.push(table[idx[0]].max(PROB_FLOOR));
                    odo.advance(&[&tstride], &mut idx);
                }
                Factor::new(vars, scope_cards, values)
            }
            Cpd::Deterministic(d) => match d.indexed_masses(cards) {
                Some((hit, miss)) => {
                    // One predicted state per parent configuration, from
                    // the CPD's index (`f` is evaluated on the first build
                    // only, and each parent's states are its midpoints):
                    // walk parent configs with an odometer tracking the
                    // base scope index, then fill the child's `card` slots
                    // from the leak model.
                    let pcards: Vec<usize> = (0..vars.len())
                        .filter(|&p| p != child_pos)
                        .map(|p| scope_cards[p])
                        .collect();
                    let pstrides: Vec<usize> = (0..vars.len())
                        .filter(|&p| p != child_pos)
                        .map(|p| scope_strides[p])
                        .collect();
                    let predicted = d
                        .predicted_states()
                        .expect("discrete noise predicts states");
                    let child_stride = scope_strides[child_pos];
                    let card = scope_cards[child_pos];
                    let mut values = vec![0.0; total];
                    let mut counters = vec![0usize; pcards.len()];
                    let mut odo = Odometer::new(&pcards, &mut counters);
                    let mut idx = [0usize];
                    for &state in predicted.iter() {
                        let base = idx[0];
                        for k in 0..card {
                            values[base + k * child_stride] =
                                if k == state as usize { hit } else { miss };
                        }
                        odo.advance(&[&pstrides], &mut idx);
                    }
                    Factor::new(vars, scope_cards, values)
                }
                None => naive::from_cpd(cpd, cards),
            },
            _ => naive::from_cpd(cpd, cards),
        }
    }

    /// Clone this factor using buffers drawn from `ws`.
    pub fn clone_using(&self, ws: &mut QueryWorkspace) -> Factor {
        let mut vars = ws.take_usize();
        vars.extend_from_slice(&self.vars);
        let mut cards = ws.take_usize();
        cards.extend_from_slice(&self.cards);
        let mut values = ws.take_f64();
        values.extend_from_slice(&self.values);
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// Product of two factors over the union of their scopes.
    pub fn product(&self, other: &Factor) -> Factor {
        self.product_ws(other, &mut QueryWorkspace::new())
    }

    /// [`Factor::product`] with every scratch buffer (merged scope, stride
    /// tables, odometer counters, output table) drawn from `ws` — identical
    /// arithmetic, zero allocation once the pool is warm.
    ///
    /// The merged table is written one contiguous inner run at a time
    /// through the [`lanes`] kernels; only the outer scope positions pay
    /// odometer bookkeeping.
    pub fn product_ws(&self, other: &Factor, ws: &mut QueryWorkspace) -> Factor {
        OBS_PRODUCTS.incr();
        let mut vars = ws.take_usize();
        let mut cards = ws.take_usize();
        merge_scopes(
            &self.vars,
            &self.cards,
            &other.vars,
            &other.cards,
            &mut vars,
            &mut cards,
        );
        // Stride each merged position induces in either operand (0 for
        // positions absent from that operand).
        let mut strides_a = ws.take_usize();
        strides_into(&self.cards, &mut strides_a);
        let mut strides_b = ws.take_usize();
        strides_into(&other.cards, &mut strides_b);
        let mut stride_a = ws.take_usize();
        let mut stride_b = ws.take_usize();
        for v in &vars {
            stride_a.push(
                self.vars
                    .binary_search(v)
                    .map(|p| strides_a[p])
                    .unwrap_or(0),
            );
            stride_b.push(
                other
                    .vars
                    .binary_search(v)
                    .map(|p| strides_b[p])
                    .unwrap_or(0),
            );
        }

        let total = config_count(&cards);
        let mut values = ws.take_f64();
        values.resize(total, 0.0);
        let (split, inner, mode) = inner_run(&cards, &stride_a, &stride_b);
        let mut counters = ws.take_usize();
        counters.resize(split, 0);
        {
            let mut odo = Odometer::new(&cards[..split], &mut counters);
            let mut idx = [0usize; 2];
            for chunk in values.chunks_exact_mut(inner) {
                let (ia, ib) = (idx[0], idx[1]);
                match mode {
                    RunMode::Both => lanes::mul_into(
                        chunk,
                        &self.values[ia..ia + inner],
                        &other.values[ib..ib + inner],
                    ),
                    RunMode::Left => lanes::mul_scalar_into(
                        chunk,
                        &self.values[ia..ia + inner],
                        other.values[ib],
                    ),
                    RunMode::Right => lanes::mul_scalar_into(
                        chunk,
                        &other.values[ib..ib + inner],
                        self.values[ia],
                    ),
                }
                odo.advance(&[&stride_a[..split], &stride_b[..split]], &mut idx);
            }
        }
        ws.put_usize(strides_a);
        ws.put_usize(strides_b);
        ws.put_usize(stride_a);
        ws.put_usize(stride_b);
        ws.put_usize(counters);
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// In-place product with a factor whose scope is a subset of this one:
    /// `self[x] *= other[project(x)]`, no output table. Returns `false`
    /// (leaving `self` untouched) when `other`'s scope is not a subset.
    /// Bitwise identical to `product_ws` followed by a move — the same
    /// multiplications in the same order — but allocation- and copy-free,
    /// which is what makes junction-tree message absorption cheap.
    pub fn mul_assign_ws(&mut self, other: &Factor, ws: &mut QueryWorkspace) -> bool {
        if other
            .vars
            .iter()
            .any(|v| self.vars.binary_search(v).is_err())
        {
            return false;
        }
        OBS_PRODUCTS.incr();
        let mut strides_b = ws.take_usize();
        strides_into(&other.cards, &mut strides_b);
        let mut stride_self = ws.take_usize();
        strides_into(&self.cards, &mut stride_self);
        let mut stride_b = ws.take_usize();
        for v in &self.vars {
            stride_b.push(
                other
                    .vars
                    .binary_search(v)
                    .map(|p| strides_b[p])
                    .unwrap_or(0),
            );
        }
        let (split, inner, mode) = inner_run(&self.cards, &stride_self, &stride_b);
        let mut counters = ws.take_usize();
        counters.resize(split, 0);
        {
            let mut odo = Odometer::new(&self.cards[..split], &mut counters);
            let mut idx = [0usize];
            for chunk in self.values.chunks_exact_mut(inner) {
                match mode {
                    // `self` is trivially contiguous over its own trailing
                    // scope, so the run mode only distinguishes whether
                    // `other` spans the run or broadcasts across it.
                    RunMode::Both => {
                        lanes::mul_assign(chunk, &other.values[idx[0]..idx[0] + inner])
                    }
                    RunMode::Left => lanes::scale(chunk, other.values[idx[0]]),
                    RunMode::Right => unreachable!("self spans its own trailing scope"),
                }
                odo.advance(&[&stride_b[..split]], &mut idx);
            }
        }
        ws.put_usize(strides_b);
        ws.put_usize(stride_self);
        ws.put_usize(stride_b);
        ws.put_usize(counters);
        true
    }

    /// Sum out (marginalize away) a variable. No-op if it is not in scope.
    pub fn sum_out(&self, var: usize) -> Factor {
        self.sum_out_ws(var, &mut QueryWorkspace::new())
    }

    /// [`Factor::sum_out`] with all scratch drawn from `ws`.
    ///
    /// The table decomposes as `outer × card × inner` around the summed
    /// position: each output block of `inner` entries is the first input
    /// block copied, then `card − 1` slice additions — no per-entry index
    /// tracking at all. States accumulate in ascending order, so the
    /// result is bitwise identical to the per-entry reference.
    pub fn sum_out_ws(&self, var: usize, ws: &mut QueryWorkspace) -> Factor {
        let Some(pos) = self.vars.binary_search(&var).ok() else {
            return self.clone_using(ws);
        };
        OBS_SUM_OUTS.incr();
        let mut vars = ws.take_usize();
        vars.extend_from_slice(&self.vars);
        vars.remove(pos);
        let mut cards = ws.take_usize();
        cards.extend_from_slice(&self.cards);
        cards.remove(pos);

        let card = self.cards[pos];
        let inner: usize = self.cards[pos + 1..].iter().product();
        let out_total = config_count(&cards);
        let mut values = ws.take_f64();
        if inner == 1 {
            // The summed variable is the innermost position: each output
            // entry is the sequential sum of `card` adjacent inputs.
            values.reserve(out_total);
            for block in self.values.chunks_exact(card) {
                let mut acc = block[0];
                for &v in &block[1..] {
                    acc += v;
                }
                values.push(acc);
            }
        } else {
            values.resize(out_total, 0.0);
            let super_block = card * inner;
            for (o, dst) in values.chunks_exact_mut(inner).enumerate() {
                let base = o * super_block;
                dst.copy_from_slice(&self.values[base..base + inner]);
                for s in 1..card {
                    let src = &self.values[base + s * inner..base + (s + 1) * inner];
                    lanes::add_assign(dst, src);
                }
            }
        }
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// Sum out a variable, consuming the factor. When the eliminated
    /// variable is the slowest-varying position the table is folded block
    /// by block into its own front and truncated — no new allocation at
    /// all. Other positions fall back to [`Factor::sum_out`].
    pub fn sum_out_owned(self, var: usize) -> Factor {
        self.sum_out_owned_ws(var, &mut QueryWorkspace::new())
    }

    /// [`Factor::sum_out_owned`] with the non-leading-position fallback
    /// drawing its scratch from `ws` (and recycling the consumed factor).
    pub fn sum_out_owned_ws(mut self, var: usize, ws: &mut QueryWorkspace) -> Factor {
        match self.vars.binary_search(&var) {
            Ok(0) => {
                OBS_SUM_OUTS.incr();
                self.vars.remove(0);
                let removed_card = self.cards.remove(0);
                let block = config_count(&self.cards);
                for s in 1..removed_card {
                    let (head, tail) = self.values.split_at_mut(s * block);
                    lanes::add_assign(&mut head[..block], &tail[..block]);
                }
                self.values.truncate(block);
                self
            }
            Ok(_) => {
                let out = self.sum_out_ws(var, ws);
                ws.recycle(self);
                out
            }
            Err(_) => self,
        }
    }

    /// Restrict (reduce) the factor to `var = state`, removing it from scope.
    /// No-op if the variable is not in scope.
    pub fn reduce(&self, var: usize, state: usize) -> Factor {
        self.reduce_ws(var, state, &mut QueryWorkspace::new())
    }

    /// [`Factor::reduce`] with all scratch drawn from `ws`.
    ///
    /// Around the fixed position the table is `outer × card × inner`;
    /// restriction is one contiguous `inner`-length copy per outer block.
    pub fn reduce_ws(&self, var: usize, state: usize, ws: &mut QueryWorkspace) -> Factor {
        let Some(pos) = self.vars.binary_search(&var).ok() else {
            return self.clone_using(ws);
        };
        OBS_REDUCES.incr();
        let mut vars = ws.take_usize();
        vars.extend_from_slice(&self.vars);
        vars.remove(pos);
        let mut cards = ws.take_usize();
        cards.extend_from_slice(&self.cards);
        cards.remove(pos);

        let card = self.cards[pos];
        let inner: usize = self.cards[pos + 1..].iter().product();
        let mut values = ws.take_f64();
        values.reserve(config_count(&cards));
        let offset = state * inner;
        for block in self.values.chunks_exact(card * inner) {
            values.extend_from_slice(&block[offset..offset + inner]);
        }
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// This factor broadcast over the ascending `vars` (cardinalities
    /// `cards`), a superset of its scope: each entry is the entry of its
    /// projection, one slice copy or fill per contiguous run. Nothing is
    /// multiplied, so the result is bitwise the product of a ones table
    /// with this factor (`1.0 · x = x`) — how the junction tree seeds a
    /// clique's base with its first factor instead of filling ones.
    pub(crate) fn broadcast(&self, vars: Vec<usize>, cards: Vec<usize>) -> Factor {
        debug_assert!(self.vars.iter().all(|v| vars.binary_search(v).is_ok()));
        let own = strides(&self.cards);
        let stride_self: Vec<usize> = vars
            .iter()
            .map(|v| self.vars.binary_search(v).map_or(0, |p| own[p]))
            .collect();
        // The output is the left operand, contiguous over its own scope.
        let (split, inner, mode) = inner_run(&cards, &strides(&cards), &stride_self);
        let total = config_count(&cards);
        let mut values = Vec::with_capacity(total);
        let mut counters = vec![0usize; split];
        let mut odo = Odometer::new(&cards[..split], &mut counters);
        let mut idx = [0usize];
        for _ in 0..total / inner {
            let at = idx[0];
            match mode {
                RunMode::Both => values.extend_from_slice(&self.values[at..at + inner]),
                RunMode::Left => values.resize(values.len() + inner, self.values[at]),
                RunMode::Right => unreachable!("the output spans its own trailing scope"),
            }
            odo.advance(&[&stride_self[..split]], &mut idx);
        }
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// Walk the table alongside a row-major lookup table over the ascending
    /// `index_vars` (its strides `index_strides`), whose variables outside
    /// this scope are fixed at the lookup position `offset`: `visit(run,
    /// start, step)` gets each stretch of entries, in table order, over
    /// which the lookup position advances by the constant `step` (the
    /// lookup stride of the table's innermost variable, 0 when the lookup
    /// ignores it), and the position of its first entry. This is how the
    /// junction tree reads Eq. 4's predicted-state index against a clique
    /// belief without tabulating it.
    pub(crate) fn runs_along_ws(
        &self,
        index_vars: &[usize],
        index_strides: &[usize],
        offset: usize,
        ws: &mut QueryWorkspace,
        mut visit: impl FnMut(&[f64], usize, usize),
    ) {
        lookup_runs(
            &self.vars,
            &self.cards,
            index_vars,
            index_strides,
            offset,
            ws,
            |entries, start, step| visit(&self.values[entries], start, step),
        );
    }

    /// [`Factor::runs_along_ws`] with each run writable: how the junction
    /// tree applies Eq. 4's row for an observed child to a clique
    /// potential.
    pub(crate) fn runs_along_mut_ws(
        &mut self,
        index_vars: &[usize],
        index_strides: &[usize],
        offset: usize,
        ws: &mut QueryWorkspace,
        mut visit: impl FnMut(&mut [f64], usize, usize),
    ) {
        let values = &mut self.values;
        lookup_runs(
            &self.vars,
            &self.cards,
            index_vars,
            index_strides,
            offset,
            ws,
            |entries, start, step| visit(&mut values[entries], start, step),
        );
    }

    /// Normalize to sum 1 (returns the normalization constant; a zero sum
    /// leaves the factor unchanged and returns 0). The sum is sequential
    /// on purpose: normalization constants feed conformance gates that
    /// expect bitwise-stable results.
    pub fn normalize(&mut self) -> f64 {
        let z: f64 = self.values.iter().sum();
        if z > 0.0 {
            let inv = 1.0 / z;
            lanes::scale(&mut self.values, inv);
        }
        z
    }
}

/// Reference implementations of the factor kernels: every table entry
/// decodes its linear index into a configuration and re-encodes into the
/// operands. All three kernels route through one shared per-entry
/// tabulator ([`tabulate`]'s decode loop), so there is exactly one naive
/// odometer in the crate. They serve as differential oracles for the
/// property tests and as the "before" side of the kernel benchmarks —
/// never as the production path.
pub mod naive {
    use super::{merge_scopes, Factor};
    use crate::cpd::{config_count, config_index, decode_config, Cpd};
    use crate::{BayesError, Result};

    /// The one shared reference loop: build a factor over `(vars, cards)`
    /// by decoding every linear index into a configuration and asking
    /// `entry` for its value.
    fn tabulate(
        vars: Vec<usize>,
        cards: Vec<usize>,
        mut entry: impl FnMut(&[usize]) -> f64,
    ) -> Factor {
        let total = config_count(&cards);
        let mut values = vec![0.0; total];
        let mut states = vec![0usize; cards.len()];
        for (idx, value) in values.iter_mut().enumerate() {
            decode_config(idx, &cards, &mut states);
            *value = entry(&states);
        }
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// Per-entry `decode_config` + `log_prob().exp()` CPD conversion
    /// (original implementation); also the generic fallback for CPD
    /// families without a fast path.
    pub fn from_cpd(cpd: &Cpd, cards: &[usize]) -> Result<Factor> {
        let child = cpd.child();
        let parents = cpd.parents();
        let mut vars: Vec<usize> = parents.to_vec();
        let child_pos = vars.binary_search(&child).unwrap_err();
        vars.insert(child_pos, child);
        let scope_cards: Vec<usize> = vars
            .iter()
            .map(|&v| {
                cards
                    .get(v)
                    .copied()
                    .filter(|&c| c > 0)
                    .ok_or(BayesError::InvalidNode(v))
            })
            .collect::<Result<_>>()?;

        let scope = vars.clone();
        let mut parent_vals = vec![0.0; parents.len()];
        Ok(tabulate(vars, scope_cards, |states| {
            let mut pi = 0;
            let mut child_state = 0usize;
            for (pos, &v) in scope.iter().enumerate() {
                if v == child {
                    child_state = states[pos];
                } else {
                    parent_vals[pi] = states[pos] as f64;
                    pi += 1;
                }
            }
            cpd.log_prob(child_state as f64, &parent_vals).exp()
        }))
    }

    /// Per-entry decode/encode product (original implementation).
    pub fn product(a: &Factor, b: &Factor) -> Factor {
        let mut vars: Vec<usize> = Vec::with_capacity(a.vars.len() + b.vars.len());
        let mut cards: Vec<usize> = Vec::new();
        merge_scopes(&a.vars, &a.cards, &b.vars, &b.cards, &mut vars, &mut cards);
        let map_a: Vec<Option<usize>> = vars.iter().map(|v| a.vars.binary_search(v).ok()).collect();
        let map_b: Vec<Option<usize>> = vars.iter().map(|v| b.vars.binary_search(v).ok()).collect();

        let mut sa = vec![0usize; a.vars.len()];
        let mut sb = vec![0usize; b.vars.len()];
        tabulate(vars, cards, |states| {
            for (pos, &m) in map_a.iter().enumerate() {
                if let Some(p) = m {
                    sa[p] = states[pos];
                }
            }
            for (pos, &m) in map_b.iter().enumerate() {
                if let Some(p) = m {
                    sb[p] = states[pos];
                }
            }
            a.values[config_index(&sa, &a.cards)] * b.values[config_index(&sb, &b.cards)]
        })
    }

    /// Per-entry decode with an inner state sweep (original implementation).
    pub fn sum_out(f: &Factor, var: usize) -> Factor {
        let Some(pos) = f.vars.binary_search(&var).ok() else {
            return f.clone();
        };
        let mut vars = f.vars.clone();
        let mut cards = f.cards.clone();
        vars.remove(pos);
        let removed_card = cards.remove(pos);

        let mut full = vec![0usize; f.vars.len()];
        tabulate(vars, cards, |states| {
            let mut acc = 0.0;
            for s in 0..removed_card {
                for (fpos, fv) in full.iter_mut().enumerate() {
                    *fv = match fpos.cmp(&pos) {
                        std::cmp::Ordering::Less => states[fpos],
                        std::cmp::Ordering::Equal => s,
                        std::cmp::Ordering::Greater => states[fpos - 1],
                    };
                }
                acc += f.values[config_index(&full, &f.cards)];
            }
            acc
        })
    }

    /// Per-entry decode/encode restriction (original implementation).
    pub fn reduce(f: &Factor, var: usize, state: usize) -> Factor {
        let Some(pos) = f.vars.binary_search(&var).ok() else {
            return f.clone();
        };
        let mut vars = f.vars.clone();
        let mut cards = f.cards.clone();
        vars.remove(pos);
        cards.remove(pos);

        let mut full = vec![0usize; f.vars.len()];
        tabulate(vars, cards, |states| {
            for (fpos, fv) in full.iter_mut().enumerate() {
                *fv = match fpos.cmp(&pos) {
                    std::cmp::Ordering::Less => states[fpos],
                    std::cmp::Ordering::Equal => state,
                    std::cmp::Ordering::Greater => states[fpos - 1],
                };
            }
            f.values[config_index(&full, &f.cards)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpd::{DetNoise, TabularCpd};

    fn f_ab() -> Factor {
        // φ(A, B) over binary A=0, B=1.
        Factor::new(vec![0, 1], vec![2, 2], vec![0.1, 0.2, 0.3, 0.4]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Factor::new(vec![1, 0], vec![2, 2], vec![0.0; 4]).is_err());
        assert!(Factor::new(vec![0], vec![2], vec![0.0; 3]).is_err());
        assert!(Factor::new(vec![0], vec![2, 2], vec![0.0; 4]).is_err());
    }

    #[test]
    fn product_with_unit_is_identity() {
        let f = f_ab();
        let g = f.product(&Factor::unit());
        assert_eq!(g.vars(), f.vars());
        assert_eq!(g.values(), f.values());
        let h = Factor::unit().product(&f);
        assert_eq!(h.vars(), f.vars());
        assert_eq!(h.values(), f.values());
    }

    #[test]
    fn product_over_disjoint_scopes_is_outer_product() {
        let fa = Factor::new(vec![0], vec![2], vec![0.6, 0.4]).unwrap();
        let fb = Factor::new(vec![1], vec![2], vec![0.9, 0.1]).unwrap();
        let p = fa.product(&fb);
        assert_eq!(p.vars(), &[0, 1]);
        assert!((p.values()[0] - 0.54).abs() < 1e-12); // A=0,B=0
        assert!((p.values()[1] - 0.06).abs() < 1e-12); // A=0,B=1
        assert!((p.values()[2] - 0.36).abs() < 1e-12);
        assert!((p.values()[3] - 0.04).abs() < 1e-12);
    }

    #[test]
    fn product_over_shared_scope_multiplies_pointwise() {
        let f = f_ab();
        let g = Factor::new(vec![1], vec![2], vec![2.0, 10.0]).unwrap();
        let p = f.product(&g);
        assert_eq!(p.vars(), &[0, 1]);
        // (A=0,B=0): 0.1*2; (A=0,B=1): 0.2*10; …
        assert_eq!(p.values(), &[0.2, 2.0, 0.6, 4.0]);
    }

    #[test]
    fn mul_assign_matches_product_on_subset_scopes() {
        let mut ws = QueryWorkspace::new();
        let values: Vec<f64> = (0..24).map(|i| 0.25 + i as f64 * 0.125).collect();
        let f = Factor::new(vec![1, 4, 7], vec![2, 3, 4], values).unwrap();
        // Subsets with the shared variable at every position, plus the
        // empty scope and the full scope.
        let subs = vec![
            Factor::unit(),
            Factor::new(vec![1], vec![2], vec![2.0, 3.0]).unwrap(),
            Factor::new(vec![4], vec![3], vec![2.0, 3.0, 5.0]).unwrap(),
            Factor::new(vec![7], vec![4], vec![2.0, 3.0, 5.0, 7.0]).unwrap(),
            Factor::new(vec![1, 7], vec![2, 4], (1..=8).map(f64::from).collect()).unwrap(),
            f.clone(),
        ];
        for g in subs {
            let want = f.product(&g);
            let mut got = f.clone();
            assert!(got.mul_assign_ws(&g, &mut ws), "scope {:?}", g.vars());
            assert_eq!(got.vars(), want.vars());
            assert_eq!(got.values(), want.values());
        }
        // Non-subset scope: untouched, returns false.
        let other = Factor::new(vec![2], vec![2], vec![1.0, 2.0]).unwrap();
        let mut got = f.clone();
        assert!(!got.mul_assign_ws(&other, &mut ws));
        assert_eq!(got.values(), f.values());
    }

    /// Broadcasting is the product with a ones table, bit for bit, for a
    /// sub-scope at every position (including none and all of it).
    #[test]
    fn broadcast_is_the_product_with_ones() {
        let (vars, cards) = (vec![1, 4, 7], vec![2, 3, 4]);
        let ones = Factor::new(vars.clone(), cards.clone(), vec![1.0; 24]).unwrap();
        let subs = vec![
            Factor::new(vec![], vec![], vec![0.3]).unwrap(),
            Factor::new(vec![1], vec![2], vec![0.1, 0.7]).unwrap(),
            Factor::new(vec![4], vec![3], vec![0.2, 0.3, 0.5]).unwrap(),
            Factor::new(vec![7], vec![4], vec![0.2, 0.3, 0.5, 0.7]).unwrap(),
            Factor::new(
                vec![1, 7],
                vec![2, 4],
                (1..=8).map(|i| i as f64 / 9.0).collect(),
            )
            .unwrap(),
            Factor::new(
                vars.clone(),
                cards.clone(),
                (0..24).map(|i| i as f64 / 7.0).collect(),
            )
            .unwrap(),
        ];
        for g in subs {
            let want = ones.product(&g);
            let got = g.broadcast(vars.clone(), cards.clone());
            assert_eq!(got.vars(), want.vars());
            assert_eq!(got.cards(), want.cards());
            let bits = |f: &Factor| f.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "scope {:?}", g.vars());
        }
    }

    /// Every entry meets the lookup position of its configuration, through
    /// both walks. The lookup is over (1, 5, 7). The first table, over (1,
    /// 4, 7), fixes 5 through the offset; its innermost variable steps the
    /// lookup by 1. The second, over (1, 4, 5), fixes 7; its innermost
    /// variable steps the lookup by 4, and 4 breaks the progression, so
    /// each run spans exactly the innermost dimension.
    #[test]
    fn runs_along_visit_each_entry_at_its_lookup_position() {
        let (lvars, lcards) = ([1usize, 5, 7], [2usize, 3, 4]);
        let lstrides = strides(&lcards);
        let mut ws = QueryWorkspace::new();
        // (table scope, its cards, the lookup variable it fixes, the
        // number of runs per walk)
        let cases = [
            (vec![1, 4, 7], vec![2, 3, 4], 1, 6),
            (vec![1, 4, 5], vec![2, 3, 3], 2, 18 / 3),
        ];
        for (vars, cards, fixed_at, want_runs) in cases {
            let total: usize = cards.iter().product();
            let mut f = Factor::new(vars.clone(), cards.clone(), vec![0.0; total]).unwrap();
            for fixed in 0..lcards[fixed_at] {
                let offset = fixed * lstrides[fixed_at];
                let mut seen = Vec::new();
                let mut runs = 0;
                f.runs_along_ws(&lvars, &lstrides, offset, &mut ws, |run, start, step| {
                    runs += 1;
                    seen.extend((0..run.len()).map(|j| start + j * step));
                });
                let mut written = Vec::new();
                f.runs_along_mut_ws(&lvars, &lstrides, offset, &mut ws, |run, start, step| {
                    written.extend((0..run.len()).map(|j| start + j * step));
                });
                assert_eq!(written, seen, "{vars:?}: both walks agree");
                assert_eq!(runs, want_runs, "{vars:?}");
                assert_eq!(seen.len(), total);
                let mut states = vec![0usize; 3];
                for (entry, &at) in seen.iter().enumerate() {
                    crate::cpd::decode_config(entry, &cards, &mut states);
                    let mut config = [0usize; 3];
                    for (&v, &s) in vars.iter().zip(&states) {
                        if let Some(k) = lvars.iter().position(|&l| l == v) {
                            config[k] = s;
                        }
                    }
                    config[fixed_at] = fixed;
                    let want = crate::cpd::config_index(&config, &lcards);
                    assert_eq!(at, want, "{vars:?} entry {entry}");
                }
            }
        }
        // A lookup over the table's trailing scope is one run per outer
        // state, and one whose stride progression spans the whole table
        // is a single run of step 4.
        let f = Factor::new(vec![1, 4, 7], vec![2, 3, 4], vec![0.0; 24]).unwrap();
        let mut runs = 0;
        f.runs_along_ws(&[4, 7], &strides(&[3, 4]), 0, &mut ws, |run, _, step| {
            runs += 1;
            assert_eq!((run.len(), step), (12, 1));
        });
        assert_eq!(runs, 2);
        let g = Factor::new(vec![1, 5], vec![2, 3], vec![0.0; 6]).unwrap();
        let mut runs = Vec::new();
        g.runs_along_ws(&lvars, &lstrides, 0, &mut ws, |run, start, step| {
            runs.push((run.len(), start, step));
        });
        assert_eq!(runs, [(6, 0, 4)]);
    }

    #[test]
    fn sum_out_marginalizes() {
        let f = f_ab();
        let m = f.sum_out(0);
        assert_eq!(m.vars(), &[1]);
        assert!((m.values()[0] - 0.4).abs() < 1e-12); // B=0: 0.1+0.3
        assert!((m.values()[1] - 0.6).abs() < 1e-12); // B=1: 0.2+0.4
                                                      // Summing out an absent variable is a no-op.
        let same = f.sum_out(7);
        assert_eq!(same.values(), f.values());
    }

    #[test]
    fn sum_out_owned_matches_sum_out_on_every_position() {
        // 3-variable factor with distinct cards so position mixups surface.
        let values: Vec<f64> = (0..24).map(|i| i as f64 * 0.5 + 1.0).collect();
        let f = Factor::new(vec![2, 5, 9], vec![2, 3, 4], values).unwrap();
        for &var in &[2, 5, 9] {
            let by_ref = f.sum_out(var);
            let owned = f.clone().sum_out_owned(var);
            assert_eq!(owned.vars(), by_ref.vars());
            assert_eq!(owned.cards(), by_ref.cards());
            assert_eq!(owned.values(), by_ref.values());
        }
        // Absent variable: no-op.
        let same = f.clone().sum_out_owned(3);
        assert_eq!(same.values(), f.values());
    }

    #[test]
    fn stride_kernels_match_naive_oracles() {
        let values: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0) * 0.125).collect();
        let f = Factor::new(vec![0, 2, 4], vec![2, 2, 3], values).unwrap();
        let g = Factor::new(vec![1, 2], vec![3, 2], (1..=6).map(f64::from).collect()).unwrap();

        let p = f.product(&g);
        let p_ref = naive::product(&f, &g);
        assert_eq!(p.vars(), p_ref.vars());
        assert_eq!(p.values(), p_ref.values());

        for &var in p.vars() {
            assert_eq!(p.sum_out(var).values(), naive::sum_out(&p, var).values());
            assert_eq!(
                p.reduce(var, 1).values(),
                naive::reduce(&p, var, 1).values()
            );
        }
    }

    #[test]
    fn lane_kernels_handle_non_multiple_of_width_lengths() {
        // Lengths straddling the 8-wide chunk boundary, including shorter
        // than one lane.
        for len in [1usize, 3, 7, 8, 9, 15, 16, 17, 31] {
            let a: Vec<f64> = (0..len).map(|i| 0.5 + i as f64).collect();
            let b: Vec<f64> = (0..len).map(|i| 1.5 - i as f64 * 0.25).collect();
            let mut dst = vec![0.0; len];
            lanes::mul_into(&mut dst, &a, &b);
            for i in 0..len {
                assert_eq!(dst[i], a[i] * b[i]);
            }
            let mut acc = a.clone();
            lanes::add_assign(&mut acc, &b);
            for i in 0..len {
                assert_eq!(acc[i], a[i] + b[i]);
            }
        }
    }

    #[test]
    fn workspace_kernels_match_plain_kernels_bitwise() {
        let values: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0) * 0.125).collect();
        let f = Factor::new(vec![0, 2, 4], vec![2, 2, 3], values).unwrap();
        let g = Factor::new(vec![1, 2], vec![3, 2], (1..=6).map(f64::from).collect()).unwrap();
        let mut ws = QueryWorkspace::new();
        // Two passes: the second runs entirely on warm (recycled) buffers.
        for _ in 0..2 {
            let p = f.product(&g);
            let p_ws = f.product_ws(&g, &mut ws);
            assert_eq!(p_ws.vars(), p.vars());
            assert_eq!(p_ws.cards(), p.cards());
            assert_eq!(p_ws.values(), p.values());
            for &var in p.vars() {
                let s_ws = p_ws.sum_out_ws(var, &mut ws);
                assert_eq!(s_ws.values(), p.sum_out(var).values());
                ws.recycle(s_ws);
                let o_ws = p_ws.clone_using(&mut ws).sum_out_owned_ws(var, &mut ws);
                assert_eq!(o_ws.values(), p.clone().sum_out_owned(var).values());
                ws.recycle(o_ws);
                let r_ws = p_ws.reduce_ws(var, 1, &mut ws);
                assert_eq!(r_ws.values(), p.reduce(var, 1).values());
                ws.recycle(r_ws);
            }
            // Absent-variable paths go through clone_using.
            let same = p_ws.sum_out_ws(99, &mut ws);
            assert_eq!(same.values(), p.values());
            ws.recycle(same);
            ws.recycle(p_ws);
        }
    }

    #[test]
    fn reduce_fixes_evidence() {
        let f = f_ab();
        let r = f.reduce(1, 1);
        assert_eq!(r.vars(), &[0]);
        assert_eq!(r.values(), &[0.2, 0.4]);
    }

    #[test]
    fn normalize_returns_partition_function() {
        let mut f = f_ab();
        let z = f.normalize();
        assert!((z - 1.0).abs() < 1e-12);
        let s: f64 = f.values().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_from_cpd_matches_naive_on_tabular_and_deterministic_cpds() {
        // Tabular with the child *between* its parents (0 < 1 < 2) and
        // mixed cardinalities — exercises the stride re-indexing.
        let configs = 3 * 2; // parents 0 (card 3) and 2 (card 2)
        let mut table = Vec::new();
        for j in 0..configs {
            let a = 0.1 + 0.13 * j as f64;
            table.extend_from_slice(&[a, (1.0 - a) * 0.6, (1.0 - a) * 0.4]);
        }
        let tab = Cpd::Tabular(TabularCpd::new(1, vec![0, 2], 3, vec![3, 2], table).unwrap());
        let cards = [3usize, 3, 2];
        let fast = Factor::from_cpd(&tab, &cards).unwrap();
        let slow = naive::from_cpd(&tab, &cards).unwrap();
        assert_eq!(fast.vars(), slow.vars());
        assert_eq!(fast.cards(), slow.cards());
        for (a, b) in fast.values().iter().zip(slow.values()) {
            assert!((a - b).abs() < 1e-12, "tabular fast path diverged");
        }

        // Deterministic discrete: child 3 = sum of nodes 0 and 2, leak 0.1.
        let det = Cpd::Deterministic(
            crate::cpd::DeterministicCpd::from_network_expr(
                3,
                &crate::expr::Expr::sum_of_vars(&[0, 2]),
                DetNoise::Discrete {
                    leak: 0.1,
                    card: 4,
                    child_edges: vec![1.0, 2.0, 3.0],
                    parent_mids: vec![vec![0.25, 1.25, 2.25], vec![0.5, 1.5]],
                },
            )
            .unwrap(),
        );
        let cards = [3usize, 3, 2, 4];
        let fast = Factor::from_cpd(&det, &cards).unwrap();
        let slow = naive::from_cpd(&det, &cards).unwrap();
        assert_eq!(fast.vars(), slow.vars());
        for (a, b) in fast.values().iter().zip(slow.values()) {
            assert!((a - b).abs() < 1e-12, "deterministic fast path diverged");
        }
    }

    #[test]
    fn from_cpd_reproduces_the_table() {
        let cpd = Cpd::Tabular(
            TabularCpd::new(1, vec![0], 2, vec![2], vec![0.9, 0.1, 0.2, 0.8]).unwrap(),
        );
        let f = Factor::from_cpd(&cpd, &[2, 2]).unwrap();
        assert_eq!(f.vars(), &[0, 1]);
        // (A=0,B=0) = P(B=0|A=0) = 0.9, etc.
        assert!((f.values()[0] - 0.9).abs() < 1e-9);
        assert!((f.values()[1] - 0.1).abs() < 1e-9);
        assert!((f.values()[2] - 0.2).abs() < 1e-9);
        assert!((f.values()[3] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn from_cpd_handles_child_index_below_parents() {
        // Child 0 with parent 1: scope must still be ascending (0, 1).
        let cpd = Cpd::Tabular(
            TabularCpd::new(0, vec![1], 2, vec![2], vec![0.7, 0.3, 0.4, 0.6]).unwrap(),
        );
        let f = Factor::from_cpd(&cpd, &[2, 2]).unwrap();
        assert_eq!(f.vars(), &[0, 1]);
        // Entry (child=0, parent=0) = 0.7; (child=0, parent=1) = 0.4.
        assert!((f.values()[0] - 0.7).abs() < 1e-9);
        assert!((f.values()[1] - 0.4).abs() < 1e-9);
    }
}
