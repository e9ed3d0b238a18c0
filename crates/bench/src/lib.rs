//! # kert-bench — the experiment harness
//!
//! One module per evaluation artifact of the paper (Figures 3–8), each
//! exposing a pure function that runs the experiment and returns its data
//! series, plus a `fig*` binary that prints the series as a table and dumps
//! JSON under `results/`. Kernel micro-benchmarks (hand-rolled harness in
//! [`timing`]; the offline build has no criterion) live in `benches/` and
//! merge their medians into the committed `BENCH_perf.json`.
//!
//! The paper reports wall-clock seconds on 2007 hardware; absolute numbers
//! here differ, but every *shape* claim is asserted by the integration
//! tests in `tests/`:
//! * Fig 3 — construction time linear in training size for both models,
//!   KERT-BN cheaper, with better and faster-converging accuracy;
//! * Fig 4 — NRT-BN construction superlinear in environment size, KERT-BN
//!   flat; KERT-BN at least as accurate at 36 points;
//! * Fig 5 — decentralized parameter-learning latency (max over nodes)
//!   below centralized (sum over nodes), gap widening with size;
//! * Fig 6 — dComp posterior closer to actual and narrower than the prior;
//! * Fig 7 — pAccel projection tracking the actually-accelerated system;
//! * Fig 8 — KERT-BN's relative threshold-violation error below NRT-BN's.
//!
//! Beyond the paper's figures, [`fault_sweep`] measures degraded-mode
//! accuracy vs monitoring fault rate: resilient rebuilds always succeed,
//! and dComp compensation recovers the crashed node's estimate relative to
//! the stale-fallback-only model.

pub mod ablations;
pub mod fault_sweep;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod scenario;
pub mod shape;
pub mod table;
pub mod timing;

pub use scenario::{Environment, ScenarioOptions};

/// Write a serializable results object to `results/<name>.json` (best
/// effort — printing the table is the primary output).
pub fn dump_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(results saved to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Read an override from the environment, for quick low-budget runs
/// (e.g. `KERT_REPS=2 cargo run --bin fig3`).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
