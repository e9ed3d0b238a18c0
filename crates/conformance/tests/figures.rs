//! Golden-figure regression: every figure verdict quoted in
//! `EXPERIMENTS.md` is asserted here as a named `#[test]` over the
//! committed `results/*.json` artifacts (the gates live in
//! `kert_bench::shape`), plus one scaled live re-run tying the committed
//! shape to the current code. Regenerating a results file that flips a
//! paper conclusion — or a code change that would — fails this suite, not
//! just a plot.

use kert_bench::{fig3, shape};

fn gate(name: &str, result: Result<(), String>) {
    if let Err(e) = result {
        panic!("{name}: {e}");
    }
}

/// Figure 3: KERT-BN beats NRT-BN on accuracy at every training size and
/// constructs at least 10× faster throughout.
#[test]
fn fig3_accuracy_and_construction_time_gate() {
    gate("fig3", shape::fig3_gate());
}

/// Figure 4: NRT-BN construction time grows superlinearly with the node
/// count while KERT-BN's stays near-flat; KERT wins accuracy at every
/// size in the tiny-training regime.
#[test]
fn fig4_scalability_gate() {
    gate("fig4", shape::fig4_gate());
}

/// Figure 5: decentralized learning beats centralized at every size.
#[test]
fn fig5_decentralized_learning_gate() {
    gate("fig5", shape::fig5_gate());
}

/// Figure 6: the dComp posterior of the hidden service shifts toward the
/// actual mean, narrows sharply, and concentrates its mass.
#[test]
fn fig6_dcomp_gate() {
    gate("fig6", shape::fig6_gate());
}

/// Figure 7: the pAccel projection predicts an improvement and tracks the
/// observed post-acceleration mean better than the prior.
#[test]
fn fig7_paccel_gate() {
    gate("fig7", shape::fig7_gate());
}

/// Figure 8: KERT-BN matches the exhaustively-searched NRT-BN on mean
/// relative violation error.
#[test]
fn fig8_violation_error_gate() {
    gate("fig8", shape::fig8_gate());
}

/// Fault sweep: no node ever falls to a prior-only CPD, and dComp
/// compensation beats the stale-cache fallback at every fault rate.
#[test]
fn fault_sweep_self_healing_gate() {
    gate("fault_sweep", shape::fault_sweep_gate());
}

/// Naive ablation (§4.2): the learning-free structure loses every
/// service-to-service edge; K2 recovers them without losing accuracy.
#[test]
fn ablation_naive_baseline_gate() {
    gate("ablation_naive", shape::ablation_naive_gate());
}

/// Update ablation (§2): windowed reconstruction tracks a regime change
/// better than the never-forgetting cumulative updater.
#[test]
fn ablation_update_vs_reconstruct_gate() {
    gate("ablation_update", shape::ablation_update_gate());
}

/// Pruning ablation (§7): barren-node pruning is exact and not slower.
#[test]
fn ablation_pruning_gate() {
    gate("ablation_pruning", shape::ablation_pruning_gate());
}

/// Live re-run: a scaled-down Figure 3 (8 services, two training sizes,
/// two reps) must reproduce the committed shape — KERT more accurate and
/// faster to construct — with today's code, proving the committed gates
/// describe the living system and not a fossil.
#[test]
fn fig3_scaled_rerun_preserves_the_verdict() {
    let points = fig3::run_sized(8, &[40, 160], 2, 0x7e57_f163);
    assert_eq!(points.len(), 2);
    for p in &points {
        assert!(
            p.kert_accuracy > p.nrt_accuracy,
            "@{} rows: KERT accuracy {} vs NRT {}",
            p.train_size,
            p.kert_accuracy,
            p.nrt_accuracy
        );
        assert!(
            p.kert_time < p.nrt_time,
            "@{} rows: KERT time {} vs NRT {}",
            p.train_size,
            p.kert_time,
            p.nrt_time
        );
    }
}
