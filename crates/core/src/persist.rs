//! Model persistence.
//!
//! The paper's third contribution bullet: "an implementation … delivered
//! to operate under a flexible model (re)construction scheme and can be
//! integrated into autonomic solutions with minimal effort". Integration
//! needs hand-off: the management server builds a model, serializes it,
//! and autonomic components (provisioners, problem localizers) load and
//! query it without access to the training data. This module is that
//! hand-off: a versioned JSON envelope for either model family.

use kert_bayes::discretize::Discretizer;
use kert_bayes::BayesianNetwork;
use serde::{Deserialize, Serialize};

use crate::kert::KertBn;
use crate::nrt::NrtBn;
use crate::{CoreError, Result};

/// Current on-disk format version; bumped on breaking changes.
pub const FORMAT_VERSION: u32 = 1;

/// Which builder produced the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Knowledge-enhanced (structure + response CPD from the workflow).
    Kert,
    /// Learned from scratch (K2 + full parameter learning).
    Nrt,
}

/// The serialized envelope.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Envelope format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Model family.
    pub kind: ModelKind,
    /// Number of service nodes.
    pub n_services: usize,
    /// Index of the end-to-end metric node.
    pub d_node: usize,
    /// The network itself (structure + CPDs).
    pub network: BayesianNetwork,
    /// Present for discrete models.
    pub discretizer: Option<Discretizer>,
}

impl SavedModel {
    /// Serialize to a JSON string.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| CoreError::BadRequest(format!("serialize: {e}")))
    }

    /// Deserialize from a JSON string, checking the format version and
    /// re-running every check the builders' constructors run (the derived
    /// deserializer bypasses them). A malformed model is refused here with
    /// `BadRequest` instead of panicking later at compile or query time;
    /// a well-formed one loads with every value unchanged.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut saved: SavedModel = serde_json::from_str(json)
            .map_err(|e| CoreError::BadRequest(format!("deserialize: {e}")))?;
        if saved.format_version != FORMAT_VERSION {
            return Err(CoreError::BadRequest(format!(
                "saved model has format version {}, this build reads {FORMAT_VERSION}",
                saved.format_version
            )));
        }
        if saved.d_node >= saved.network.len() {
            return Err(CoreError::BadRequest(format!(
                "saved model d_node {} out of range for {} nodes",
                saved.d_node,
                saved.network.len()
            )));
        }
        saved.network = saved
            .network
            .validated()
            .map_err(|e| CoreError::BadRequest(format!("saved network: {e}")))?;
        if let Some(disc) = &saved.discretizer {
            check_discretizer(disc, &saved.network)?;
        }
        Ok(saved)
    }
}

/// A discretizer must bin every node into exactly its states: one column
/// per node, each with one edge fewer than the node's cardinality and one
/// midpoint per state. (A short one would panic when evidence is binned.)
fn check_discretizer(disc: &Discretizer, network: &BayesianNetwork) -> Result<()> {
    if disc.columns() != network.len() {
        return Err(CoreError::BadRequest(format!(
            "saved discretizer has {} columns for {} nodes",
            disc.columns(),
            network.len()
        )));
    }
    for (node, var) in network.variables().iter().enumerate() {
        let column = disc.column(node);
        let states = Some(column.bins());
        if var.cardinality() != states || column.midpoints.len() != column.bins() {
            return Err(CoreError::BadRequest(format!(
                "saved discretizer bins node {node} into {} states with {} midpoints; \
                 the node has {:?}",
                column.bins(),
                column.midpoints.len(),
                var.cardinality()
            )));
        }
    }
    Ok(())
}

impl KertBn {
    /// Snapshot this model into the persistence envelope. The build report
    /// (timings) is deliberately not persisted — it describes the build
    /// machine, not the model.
    pub fn to_saved(&self) -> SavedModel {
        SavedModel {
            format_version: FORMAT_VERSION,
            kind: ModelKind::Kert,
            n_services: self.n_services(),
            d_node: self.d_node(),
            network: self.network().clone(),
            discretizer: self.discretizer().cloned(),
        }
    }

    /// Rehydrate from an envelope (kind must be [`ModelKind::Kert`]).
    pub fn from_saved(saved: SavedModel) -> Result<Self> {
        if saved.kind != ModelKind::Kert {
            return Err(CoreError::BadRequest(
                "envelope holds an NRT-BN; use NrtBn::from_saved".into(),
            ));
        }
        Ok(KertBn::from_parts(
            saved.network,
            saved.n_services,
            saved.d_node,
            saved.discretizer,
        ))
    }
}

impl NrtBn {
    /// Snapshot this model into the persistence envelope.
    pub fn to_saved(&self) -> SavedModel {
        SavedModel {
            format_version: FORMAT_VERSION,
            kind: ModelKind::Nrt,
            n_services: self.network().len().saturating_sub(1),
            d_node: self.d_node(),
            network: self.network().clone(),
            discretizer: self.discretizer().cloned(),
        }
    }

    /// Rehydrate from an envelope (kind must be [`ModelKind::Nrt`]).
    pub fn from_saved(saved: SavedModel) -> Result<Self> {
        if saved.kind != ModelKind::Nrt {
            return Err(CoreError::BadRequest(
                "envelope holds a KERT-BN; use KertBn::from_saved".into(),
            ));
        }
        Ok(NrtBn::from_parts(
            saved.network,
            saved.d_node,
            saved.discretizer,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kert::DiscreteKertOptions;
    use crate::nrt::NrtOptions;
    use crate::posterior::{query_posterior, McOptions};
    use kert_sim::{Dist, ServiceConfig, SimOptions, SimSystem};
    use kert_workflow::{derive_structure, ediamond_workflow, ResourceMap};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde_json::Value;

    fn build_models() -> (KertBn, NrtBn, kert_bayes::Dataset) {
        let wf = ediamond_workflow();
        let knowledge = derive_structure(&wf, 6, &ResourceMap::new()).unwrap();
        let stations = (0..6)
            .map(|_| ServiceConfig::single(Dist::Erlang { k: 4, mean: 0.05 }))
            .collect();
        let mut sys = SimSystem::new(
            &wf,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.4 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(60);
        let data = sys.run(500, &mut rng).to_dataset(None);
        let kert =
            KertBn::build_discrete(&knowledge, &data, DiscreteKertOptions::default()).unwrap();
        let mut nrt_rng = StdRng::seed_from_u64(61);
        let nrt = NrtBn::build_continuous(&data, NrtOptions::default(), &mut nrt_rng).unwrap();
        (kert, nrt, data)
    }

    #[test]
    fn kert_roundtrip_preserves_queries() {
        let (kert, _, _) = build_models();
        let json = kert.to_saved().to_json().unwrap();
        let loaded = KertBn::from_saved(SavedModel::from_json(&json).unwrap()).unwrap();
        assert_eq!(loaded.d_node(), kert.d_node());
        assert_eq!(loaded.n_services(), kert.n_services());

        // Same posterior before and after the round trip.
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let a = query_posterior(
            &kert,
            &[(3, 0.2)],
            kert.d_node(),
            McOptions::default(),
            &mut rng1,
        )
        .unwrap();
        let b = query_posterior(
            &loaded,
            &[(3, 0.2)],
            loaded.d_node(),
            McOptions::default(),
            &mut rng2,
        )
        .unwrap();
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.variance() - b.variance()).abs() < 1e-12);
    }

    #[test]
    fn nrt_roundtrip_preserves_accuracy() {
        let (_, nrt, data) = build_models();
        let json = nrt.to_saved().to_json().unwrap();
        let loaded = NrtBn::from_saved(SavedModel::from_json(&json).unwrap()).unwrap();
        let a = nrt.accuracy(&data).unwrap();
        let b = loaded.accuracy(&data).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let (kert, nrt, _) = build_models();
        let kert_env = kert.to_saved();
        let nrt_env = nrt.to_saved();
        assert!(NrtBn::from_saved(kert_env).is_err());
        assert!(KertBn::from_saved(nrt_env).is_err());
    }

    #[test]
    fn version_and_shape_are_validated() {
        let (kert, _, _) = build_models();
        let mut saved = kert.to_saved();
        saved.format_version = 99;
        let json = serde_json::to_string(&saved).unwrap();
        assert!(SavedModel::from_json(&json).is_err());

        let mut bad_d = kert.to_saved();
        bad_d.d_node = 99;
        let json = serde_json::to_string(&bad_d).unwrap();
        assert!(SavedModel::from_json(&json).is_err());

        assert!(SavedModel::from_json("not json").is_err());
    }

    /// The object field `key` of `v`.
    fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Map(entries) => {
                &mut entries
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no field {key}"))
                    .1
            }
            other => panic!("{key}: not an object: {other:?}"),
        }
    }

    /// The array `v`'s items.
    fn items(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Seq(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    /// Edit `saved`'s JSON tree and load the result.
    fn load_edited(saved: &SavedModel, edit: impl FnOnce(&mut Value)) -> Result<SavedModel> {
        let mut tree = serde_json::value_from_str(&saved.to_json().unwrap()).unwrap();
        edit(&mut tree);
        SavedModel::from_json(&serde_json::to_string(&tree).unwrap())
    }

    /// The `i`-th CPD's payload (`{"Tabular": {..}}` → `{..}`).
    fn cpd(tree: &mut Value, i: usize) -> &mut Value {
        match &mut items(field(field(tree, "network"), "cpds"))[i] {
            Value::Map(entries) => &mut entries[0].1,
            other => panic!("not a CPD: {other:?}"),
        }
    }

    /// An edit of a saved model's JSON tree, given `D`'s node index.
    type Edit = fn(&mut Value, usize);

    /// Malformed models used to load and then panic when compiled or
    /// queried (the derived deserializer bypasses every constructor
    /// check); each is refused at load with `BadRequest` now.
    #[test]
    fn malformed_saved_models_are_refused_at_load() {
        let (kert, _, _) = build_models();
        let saved = kert.to_saved();
        let d = kert.d_node();
        let cases: [(&str, Edit); 5] = [
            ("a CPT lost an entry", |t, _| {
                items(field(cpd(t, 1), "table")).pop();
            }),
            ("a CPT row does not sum to 1", |t, _| {
                let first = &mut items(field(cpd(t, 1), "table"))[0];
                *first = Value::Num(first.as_f64().unwrap() + 0.1);
            }),
            ("one of D's midpoint lists is empty", |t, d| {
                let noise = field(field(cpd(t, d), "noise"), "Discrete");
                items(field(noise, "parent_mids"))[0] = Value::Seq(Vec::new());
            }),
            ("the DAG has a cycle", |t, d| {
                let parents = field(field(field(t, "network"), "dag"), "parents");
                items(&mut items(parents)[0]).push(Value::Num(d as f64));
            }),
            ("the discretizer lost a column", |t, _| {
                items(field(field(t, "discretizer"), "columns")).pop();
            }),
        ];
        for (what, edit) in cases {
            assert!(
                matches!(
                    load_edited(&saved, |t| edit(t, d)),
                    Err(CoreError::BadRequest(_))
                ),
                "{what}: not refused"
            );
        }
    }
}
