//! Models and seeded input streams.
//!
//! Every model is built from a fixed simulation seed, so `--seed` never
//! changes a model: it only changes the held-out rows that feed request
//! evidence and the control loop's window, and the arrival schedules.

use kert_bayes::Dataset;
use kert_bench::scenario::{Environment, ScenarioOptions};
use kert_core::{DiscreteKertOptions, KertBn};
use kertd::protocol::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation seed of every model's training rows (never the workload seed).
const MODEL_SEED: u64 = 0x6b65_7274;
/// Rows the models are built from (and the control loop's window size).
pub const TRAIN_ROWS: usize = 1000;
/// Services of the `serve-distinct` random workflow.
const DISTINCT_SERVICES: usize = 6;
/// Workflow seed of the `serve-distinct` model.
const DISTINCT_WORKFLOW_SEED: u64 = 7;

/// Violation thresholds (seconds of end-to-end response time) asked by
/// every violation request and every control-loop tick.
pub const THRESHOLDS: [f64; 3] = [0.4, 0.6, 0.9];
/// pAccel candidates `(service, predicted elapsed seconds)` of the
/// `serve-hot` hot set and the control loop: halve the two remote legs.
pub const PACCEL_CANDIDATES: [(usize, f64); 2] = [(3, 0.15), (5, 0.06)];
/// Bursts that share one period's evidence in `serve-hot`.
pub const BURSTS_PER_PERIOD: usize = 8;
/// Request mix of `serve-distinct`, in percent: posterior, dComp, violation.
pub const DISTINCT_MIX: [u32; 3] = [50, 25, 25];
/// Distinct requests `serve-distinct` cycles through; each has its own row.
pub const DISTINCT_POOL: usize = 3000;

/// Which model a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// eDiaMoND: 6 services, width 6.
    Ediamond,
    /// A 6-service sequence/parallel random workflow, width 6.
    Random6,
}

fn environment(kind: ModelKind) -> Environment {
    match kind {
        ModelKind::Ediamond => Environment::ediamond(ScenarioOptions::default()),
        ModelKind::Random6 => Environment::random(
            DISTINCT_SERVICES,
            ScenarioOptions::default(),
            DISTINCT_WORKFLOW_SEED,
        ),
    }
}

/// The fixed training rows and the knowledge needed to build a model.
pub struct ModelInputs {
    pub env: Environment,
    pub train: Dataset,
}

/// Training rows for `kind`, from the fixed model seed.
pub fn model_inputs(kind: ModelKind) -> ModelInputs {
    let mut env = environment(kind);
    let (train, _) = env.datasets(TRAIN_ROWS, 0, MODEL_SEED);
    ModelInputs { env, train }
}

/// Build the discrete model the way `kertctl build --mode discrete` does.
pub fn build_model(inputs: &ModelInputs) -> KertBn {
    KertBn::build_discrete(
        &inputs.env.knowledge,
        &inputs.train,
        DiscreteKertOptions::default(),
    )
    .expect("the benchmark models build")
}

/// `rows` held-out rows simulated from the workload seed, in the
/// training layout `X1…Xn, D`.
pub fn row_stream(kind: ModelKind, rows: usize, seed: u64) -> Dataset {
    let mut env = environment(kind);
    let (rows, _) = env.datasets(rows, 0, seed ^ 0x726f_7773);
    rows
}

/// Evidence of a row: the first two services, plus `D` when `with_d`.
pub fn row_evidence(row: &[f64], with_d: bool) -> Vec<(usize, f64)> {
    let mut evidence = vec![(0, row[0]), (1, row[1])];
    if with_d {
        let d = row.len() - 1;
        evidence.push((d, row[d]));
    }
    evidence
}

/// Services that are neither observed nor `D`.
pub fn hidden_services(n_services: usize) -> Vec<usize> {
    (2..n_services).collect()
}

/// The `serve-hot` request table: per period, the hot set in a fixed
/// order (dComp, violation, posterior of D, pAccel), all on the period's
/// latest row. Burst `b` sends entry [`hot_request_index`]`(b)`.
pub fn hot_requests(rows: &Dataset, n_services: usize) -> Vec<Request> {
    let d = n_services;
    let hidden = hidden_services(n_services);
    let mut table = Vec::with_capacity(rows.rows() * 4);
    for r in 0..rows.rows() {
        let row = rows.row(r);
        let evidence = row_evidence(row, false);
        table.push(Request::Dcomp {
            observed: row_evidence(row, true),
            targets: hidden.clone(),
        });
        table.push(Request::Violation {
            evidence: evidence.clone(),
            thresholds: THRESHOLDS.to_vec(),
        });
        table.push(Request::Posterior {
            evidence,
            target: d,
        });
        table.push(Request::Paccel {
            candidates: PACCEL_CANDIDATES.to_vec(),
        });
    }
    table
}

/// Index into [`hot_requests`] of burst `b`'s request; periods wrap
/// around the table.
pub fn hot_request_index(b: usize, table_len: usize) -> usize {
    let period = b / BURSTS_PER_PERIOD;
    (period * 4 + b % 4) % table_len
}

/// The `serve-distinct` request pool: one request per row, verb drawn
/// from [`DISTINCT_MIX`], targets drawn among the hidden services and D.
pub fn distinct_requests(rows: &Dataset, n_services: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_6978);
    let d = n_services;
    let hidden = hidden_services(n_services);
    (0..rows.rows())
        .map(|r| {
            let row = rows.row(r);
            let pick = rng.gen_range(0..100u32);
            if pick < DISTINCT_MIX[0] {
                let choice = rng.gen_range(0..=hidden.len());
                let target = hidden.get(choice).copied().unwrap_or(d);
                Request::Posterior {
                    evidence: row_evidence(row, false),
                    target,
                }
            } else if pick < DISTINCT_MIX[0] + DISTINCT_MIX[1] {
                let a = rng.gen_range(0..hidden.len());
                let b = (a + rng.gen_range(1..hidden.len())) % hidden.len();
                Request::Dcomp {
                    observed: row_evidence(row, true),
                    targets: vec![hidden[a], hidden[b]],
                }
            } else {
                Request::Violation {
                    evidence: row_evidence(row, false),
                    thresholds: THRESHOLDS.to_vec(),
                }
            }
        })
        .collect()
}

/// Poisson arrival offsets (ns from the phase start) at `rate` per second
/// over `seconds`.
pub fn poisson_schedule(rate: f64, seconds: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kertd::protocol::encode;

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let rows = row_stream(ModelKind::Ediamond, 40, seed);
        let mut bytes = Vec::new();
        for r in 0..rows.rows() {
            for v in rows.row(r) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        for req in hot_requests(&rows, 6)
            .iter()
            .chain(&distinct_requests(&rows, 6, seed))
        {
            bytes.extend(encode(req).unwrap());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for t in poisson_schedule(500.0, 0.5, &mut rng) {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn same_seed_gives_identical_streams_and_another_seed_does_not() {
        let a = stream_bytes(11);
        assert_eq!(a, stream_bytes(11));
        assert_ne!(a, stream_bytes(12));
    }

    #[test]
    fn the_seed_never_changes_the_model() {
        let a = model_inputs(ModelKind::Ediamond).train;
        let b = model_inputs(ModelKind::Ediamond).train;
        assert_eq!(a.row(0), b.row(0));
        assert_eq!(a.row(TRAIN_ROWS - 1), b.row(TRAIN_ROWS - 1));
    }

    #[test]
    fn hot_bursts_cycle_the_hot_set_within_a_period() {
        assert_eq!(hot_request_index(0, 400), 0);
        assert_eq!(hot_request_index(5, 400), 1);
        assert_eq!(hot_request_index(BURSTS_PER_PERIOD, 400), 4);
        assert_eq!(hot_request_index(100 * BURSTS_PER_PERIOD, 400), 0);
    }
}
