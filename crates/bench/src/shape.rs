//! Machine-checked *shape* claims over the committed `results/*.json`.
//!
//! Every figure verdict quoted in `EXPERIMENTS.md` corresponds to one gate
//! function here: it reloads the committed artifact and re-asserts the
//! qualitative claim (direction of a win, growth order, posterior shift…)
//! as data, so a regenerated results file that silently flips a conclusion
//! fails a test instead of only changing a plot. The gates return
//! `Result<(), String>` so the conformance crate can surface every failing
//! claim with context; the `#[test]` wrappers live in
//! `crates/conformance/tests/figures.rs` (this crate cannot dev-depend on
//! the conformance crate without a cycle).
//!
//! Thresholds are deliberately looser than the committed values — they gate
//! the *claim*, not the exact noise realization of one benchmark run.

use serde::Deserialize;

use crate::ablations::{NaiveAblation, PruningAblation, UpdateAblation};
use crate::fault_sweep::FaultSweepResult;
use crate::fig3::Fig3Point;
use crate::fig4::Fig4Point;
use crate::fig5::Fig5Point;
use crate::fig6::Fig6Result;
use crate::fig7::Fig7Result;
use crate::fig8::Fig8Point;

/// Load a committed artifact from `results/<name>.json` at the repo root.
pub fn load_committed<T: Deserialize>(name: &str) -> Result<T, String> {
    let path = format!("{}/../../results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn check(ok: bool, claim: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(claim())
    }
}

/// Figure 3's claims: KERT-BN beats NRT-BN on accuracy at *every* training
/// size, and its construction-time advantage is at least an order of
/// magnitude throughout (committed run: 30–56×).
pub fn fig3_gate() -> Result<(), String> {
    let points: Vec<Fig3Point> = load_committed("fig3")?;
    check(points.len() >= 5, || {
        format!("fig3: expected a full size sweep, found {}", points.len())
    })?;
    for p in &points {
        check(p.kert_accuracy > p.nrt_accuracy, || {
            format!(
                "fig3 @ {} rows: KERT accuracy {} must beat NRT {}",
                p.train_size, p.kert_accuracy, p.nrt_accuracy
            )
        })?;
        let ratio = p.nrt_time / p.kert_time.max(1e-12);
        check(ratio > 10.0, || {
            format!(
                "fig3 @ {} rows: NRT/KERT time ratio {ratio:.1} below 10×",
                p.train_size
            )
        })?;
    }
    Ok(())
}

/// Figure 4's claim: NRT-BN construction time grows superlinearly with the
/// node count while KERT-BN's stays near-linear — NRT's end-to-end growth
/// over the 10→100 sweep must dwarf KERT's (committed run: 131× vs 11.7×),
/// and KERT must win accuracy at every size in the tiny-training regime.
pub fn fig4_gate() -> Result<(), String> {
    let points: Vec<Fig4Point> = load_committed("fig4")?;
    check(points.len() >= 4, || {
        format!("fig4: expected a full size sweep, found {}", points.len())
    })?;
    let first = points.first().expect("nonempty");
    let last = points.last().expect("nonempty");
    let size_growth = last.n_services as f64 / first.n_services as f64;
    let nrt_growth = last.nrt_time / first.nrt_time.max(1e-12);
    let kert_growth = last.kert_time / first.kert_time.max(1e-12);
    check(nrt_growth > size_growth, || {
        format!(
            "fig4: NRT time growth {nrt_growth:.1}× must be superlinear \
             over the {size_growth:.0}× size sweep"
        )
    })?;
    check(nrt_growth > 3.0 * kert_growth, || {
        format!("fig4: NRT growth {nrt_growth:.1}× must dwarf KERT's {kert_growth:.1}×")
    })?;
    for p in &points {
        check(p.kert_accuracy > p.nrt_accuracy, || {
            format!(
                "fig4 @ {} services: KERT accuracy {} must beat NRT {}",
                p.n_services, p.kert_accuracy, p.nrt_accuracy
            )
        })?;
    }
    Ok(())
}

/// Figure 5's claim: decentralized learning (max over per-agent times) is
/// faster than centralized (sum) at every environment size.
pub fn fig5_gate() -> Result<(), String> {
    let points: Vec<Fig5Point> = load_committed("fig5")?;
    check(points.len() >= 4, || {
        format!("fig5: expected a full size sweep, found {}", points.len())
    })?;
    for p in &points {
        check(p.decentralized_time < p.centralized_time, || {
            format!(
                "fig5 @ {} services: decentralized {} must beat centralized {}",
                p.n_services, p.decentralized_time, p.centralized_time
            )
        })?;
    }
    Ok(())
}

/// Figure 6's claims: dComp's posterior of the hidden service (a) shifts
/// toward the actual current mean, (b) narrows sharply, and (c) is a
/// proper, strongly-peaked distribution (committed run: 0.965 mass in the
/// bin holding the actual mean).
pub fn fig6_gate() -> Result<(), String> {
    let r: Fig6Result = load_committed("fig6")?;
    check(
        (r.posterior_mean - r.actual_mean).abs() < (r.prior_mean - r.actual_mean).abs(),
        || {
            format!(
                "fig6: posterior mean {} must be closer to actual {} than prior {}",
                r.posterior_mean, r.actual_mean, r.prior_mean
            )
        },
    )?;
    check(r.posterior_sd < 0.5 * r.prior_sd, || {
        format!(
            "fig6: posterior sd {} must narrow well below prior sd {}",
            r.posterior_sd, r.prior_sd
        )
    })?;
    for (label, dist) in [("prior", &r.prior), ("posterior", &r.posterior)] {
        let total: f64 = dist.iter().sum();
        check((total - 1.0).abs() < 1e-9, || {
            format!("fig6: {label} sums to {total}, not 1")
        })?;
    }
    let peak = r.posterior.iter().cloned().fold(0.0, f64::max);
    check(peak > 0.5, || {
        format!("fig6: posterior should concentrate (peak {peak} ≤ 0.5)")
    })
}

/// Figure 7's claims: the pAccel projection predicts an improvement and
/// tracks the observed post-acceleration mean better than the prior does.
pub fn fig7_gate() -> Result<(), String> {
    let r: Fig7Result = load_committed("fig7")?;
    check(r.projected_mean < r.prior_mean, || {
        format!(
            "fig7: projection {} must predict an improvement over prior {}",
            r.projected_mean, r.prior_mean
        )
    })?;
    check(
        (r.projected_mean - r.observed_mean).abs() < (r.prior_mean - r.observed_mean).abs(),
        || {
            format!(
                "fig7: projection {} must track observed {} better than prior {}",
                r.projected_mean, r.observed_mean, r.prior_mean
            )
        },
    )?;
    for (label, d) in [
        ("prior", &r.prior_density),
        ("projected", &r.projected_density),
        ("observed", &r.observed_density),
    ] {
        let total: f64 = d.iter().sum();
        check((total - 1.0).abs() < 1e-9, || {
            format!("fig7: {label} density sums to {total}, not 1")
        })?;
    }
    Ok(())
}

/// Figure 8's claim: the knowledge-generated KERT-BN matches the
/// exhaustively-searched NRT-BN on mean relative violation error
/// (committed run: 0.494 vs 0.554). Gated on the *mean* across thresholds
/// — individual thresholds trade places run to run.
pub fn fig8_gate() -> Result<(), String> {
    let points: Vec<Fig8Point> = load_committed("fig8")?;
    check(points.len() == crate::fig8::N_THRESHOLDS, || {
        format!(
            "fig8: expected {} thresholds, found {}",
            crate::fig8::N_THRESHOLDS,
            points.len()
        )
    })?;
    let (kert_err, nrt_err) = crate::fig8::mean_errors(&points);
    check(kert_err <= nrt_err * 1.05, || {
        format!("fig8: KERT mean ε {kert_err:.3} must match or beat NRT's {nrt_err:.3}")
    })?;
    for p in &points {
        check(
            p.p_real > 0.0 && p.kert_error.is_finite() && p.nrt_error.is_finite(),
            || format!("fig8 @ h={}: degenerate errors", p.threshold),
        )?;
    }
    Ok(())
}

/// Fault-sweep claims: the self-healing pipeline never falls all the way
/// to a prior-only CPD at any injected fault rate, and dComp compensation
/// for the crashed agent beats the stale-cache fallback by orders of
/// magnitude at the clean end of the sweep (committed run: 1.2e-4 vs
/// 0.41).
pub fn fault_sweep_gate() -> Result<(), String> {
    let r: FaultSweepResult = load_committed("fault_sweep")?;
    check(r.points.len() >= 4, || {
        format!(
            "fault_sweep: expected a rate sweep, found {}",
            r.points.len()
        )
    })?;
    for p in &r.points {
        check(p.prior_nodes == 0, || {
            format!(
                "fault_sweep @ rate {}: {} nodes fell to the prior",
                p.fault_rate, p.prior_nodes
            )
        })?;
        check(p.x4_dcomp_error < p.x4_fallback_error, || {
            format!(
                "fault_sweep @ rate {}: dComp error {} must beat fallback {}",
                p.fault_rate, p.x4_dcomp_error, p.x4_fallback_error
            )
        })?;
    }
    let clean = &r.points[0];
    check(
        clean.x4_dcomp_error < 0.01 * clean.x4_fallback_error,
        || {
            format!(
                "fault_sweep @ rate 0: dComp error {} should be ≫ 100× below fallback {}",
                clean.x4_dcomp_error, clean.x4_fallback_error
            )
        },
    )
}

/// Naive-ablation claims (§4.2's dismissal): the learning-free structure
/// keeps zero service-to-service edges while K2 recovers some, and the
/// learned NRT-BN is at least as accurate as the naive one.
pub fn ablation_naive_gate() -> Result<(), String> {
    let r: NaiveAblation = load_committed("ablation_naive")?;
    check(r.naive_service_edges == 0, || {
        format!(
            "ablation_naive: naive model has {} service edges, expected 0",
            r.naive_service_edges
        )
    })?;
    check(r.nrt_service_edges > 0, || {
        "ablation_naive: K2 recovered no service edges".to_string()
    })?;
    check(
        r.nrt_accuracy >= r.naive_accuracy - 0.02 * r.naive_accuracy.abs(),
        || {
            format!(
                "ablation_naive: learned NRT {} must not trail naive {}",
                r.nrt_accuracy, r.naive_accuracy
            )
        },
    )?;
    check(r.kert_accuracy.is_finite(), || {
        "ablation_naive: KERT accuracy not finite".to_string()
    })
}

/// Update-ablation claims (§2): windowed reconstruction tracks the regime
/// change better than the cumulative updater, which drags extra rows.
pub fn ablation_update_gate() -> Result<(), String> {
    let r: UpdateAblation = load_committed("ablation_update")?;
    check(r.windowed_error < r.cumulative_error, || {
        format!(
            "ablation_update: windowed error {} must beat cumulative {}",
            r.windowed_error, r.cumulative_error
        )
    })?;
    check(r.cumulative_rows > r.windowed_rows, || {
        format!(
            "ablation_update: cumulative rows {} should exceed window {}",
            r.cumulative_rows, r.windowed_rows
        )
    })
}

/// Pruning-ablation claims (§7): barren-node pruning is exact (identical
/// posteriors to machine precision) and not slower.
pub fn ablation_pruning_gate() -> Result<(), String> {
    let r: PruningAblation = load_committed("ablation_pruning")?;
    check(r.max_abs_diff < 1e-9, || {
        format!(
            "ablation_pruning: pruning must be exact, max |Δ| = {}",
            r.max_abs_diff
        )
    })?;
    check(r.pruned_secs <= r.full_secs, || {
        format!(
            "ablation_pruning: pruned {}s must not exceed full {}s",
            r.pruned_secs, r.full_secs
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed artifacts themselves must satisfy every gate — this is
    /// the in-crate smoke test; the conformance crate re-runs the gates as
    /// individually named figure tests.
    #[test]
    fn all_committed_artifacts_pass_their_gates() {
        for (name, gate) in [
            ("fig3", fig3_gate as fn() -> Result<(), String>),
            ("fig4", fig4_gate),
            ("fig5", fig5_gate),
            ("fig6", fig6_gate),
            ("fig7", fig7_gate),
            ("fig8", fig8_gate),
            ("fault_sweep", fault_sweep_gate),
            ("ablation_naive", ablation_naive_gate),
            ("ablation_update", ablation_update_gate),
            ("ablation_pruning", ablation_pruning_gate),
        ] {
            if let Err(e) = gate() {
                panic!("{name} gate failed: {e}");
            }
        }
    }

    #[test]
    fn missing_artifacts_error_cleanly() {
        let r: Result<Vec<Fig3Point>, String> = load_committed("no_such_figure");
        assert!(r.is_err());
    }
}
