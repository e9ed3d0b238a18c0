//! Shared-resource modeling: hosts and their utilization.
//!
//! §3.2's second knowledge source: "the two services are sharing a common
//! resource (e.g. CPU, memory, network); status of the common resource can
//! be tied to the performance of both services". Here a *host* is a named
//! resource shared by a set of services; the simulator observes, for every
//! request, the mean utilization each host exhibited while serving that
//! request's tasks. Those observations become the resource columns of the
//! monitoring dataset, and in the KERT-BN the resource node's parents are
//! the sharing services — exactly as the paper prescribes.

use kert_workflow::ServiceId;
use serde::{Deserialize, Serialize};

use crate::{Result, SimError};

/// A named shared resource and the services hosted on it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    /// Resource name (becomes the dataset column name).
    pub name: String,
    /// Services sharing this resource, ascending and unique.
    pub services: Vec<ServiceId>,
}

/// The machine layout of an environment: which services share which host.
///
/// Services not listed on any host are un-instrumented for resources (no
/// column is produced for them); a service may appear on at most one host.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostLayout {
    hosts: Vec<Host>,
}

impl HostLayout {
    /// An empty layout (no resource monitoring).
    pub fn none() -> Self {
        HostLayout::default()
    }

    /// Build a layout, validating ids, uniqueness, and single-homing.
    pub fn new(hosts: Vec<(String, Vec<ServiceId>)>, n_services: usize) -> Result<Self> {
        let mut seen = vec![false; n_services];
        let mut out = Vec::with_capacity(hosts.len());
        for (name, mut services) in hosts {
            if name.is_empty() {
                return Err(SimError::BadConfig("empty host name".into()));
            }
            services.sort_unstable();
            services.dedup();
            if services.is_empty() {
                return Err(SimError::BadConfig(format!("host {name} hosts nothing")));
            }
            for &s in &services {
                if s >= n_services {
                    return Err(SimError::BadConfig(format!(
                        "host {name}: unknown service {s}"
                    )));
                }
                if seen[s] {
                    return Err(SimError::BadConfig(format!(
                        "service {s} is on more than one host"
                    )));
                }
                seen[s] = true;
            }
            out.push(Host { name, services });
        }
        Ok(HostLayout { hosts: out })
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True if no hosts are declared.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Host names in order (dataset column names for the resource nodes).
    pub fn names(&self) -> Vec<String> {
        self.hosts.iter().map(|h| h.name.clone()).collect()
    }

    /// Map each service to its host index (`None` for unhosted services).
    pub fn host_of(&self, n_services: usize) -> Vec<Option<usize>> {
        let mut map = vec![None; n_services];
        for (h, host) in self.hosts.iter().enumerate() {
            for &s in &host.services {
                map[s] = Some(h);
            }
        }
        map
    }

    /// Services per host (for utilization normalization).
    pub fn sizes(&self) -> Vec<usize> {
        self.hosts.iter().map(|h| h.services.len()).collect()
    }

    /// The resource map consumed by `kert_workflow::derive_structure`.
    pub fn to_resource_map(&self) -> kert_workflow::ResourceMap {
        self.hosts
            .iter()
            .map(|h| (h.name.clone(), h.services.clone()))
            .collect()
    }
}

/// Per-request utilization accumulator: mean of the utilization snapshots
/// taken each time one of the request's tasks starts on the host.
#[derive(Debug, Clone, Default)]
pub struct UtilizationAccumulator {
    sums: Vec<f64>,
    counts: Vec<u32>,
}

impl UtilizationAccumulator {
    /// Accumulator over `n_hosts` hosts.
    pub fn new(n_hosts: usize) -> Self {
        UtilizationAccumulator {
            sums: vec![0.0; n_hosts],
            counts: vec![0; n_hosts],
        }
    }

    /// Record a utilization snapshot for `host`.
    pub fn observe(&mut self, host: usize, utilization: f64) {
        self.sums[host] += utilization;
        self.counts[host] += 1;
    }

    /// Mean utilization per host (0 for hosts this request never touched).
    pub fn means(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(self.counts.iter())
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_validates_and_normalizes() {
        let layout = HostLayout::new(
            vec![
                ("db_host".into(), vec![5, 4, 5]),
                ("web_host".into(), vec![0, 1]),
            ],
            6,
        )
        .unwrap();
        assert_eq!(layout.len(), 2);
        assert_eq!(layout.hosts[0].services, vec![4, 5]);
        assert_eq!(layout.names(), vec!["db_host", "web_host"]);
        assert_eq!(layout.sizes(), vec![2, 2]);
        let map = layout.host_of(6);
        assert_eq!(map[4], Some(0));
        assert_eq!(map[0], Some(1));
        assert_eq!(map[2], None);
    }

    #[test]
    fn layout_rejects_bad_configs() {
        assert!(HostLayout::new(vec![("h".into(), vec![9])], 6).is_err());
        assert!(HostLayout::new(vec![("h".into(), vec![])], 6).is_err());
        assert!(HostLayout::new(vec![("".into(), vec![0])], 6).is_err());
        assert!(HostLayout::new(vec![("a".into(), vec![0]), ("b".into(), vec![0])], 6).is_err());
    }

    #[test]
    fn accumulator_averages_per_host() {
        let mut acc = UtilizationAccumulator::new(2);
        acc.observe(0, 0.5);
        acc.observe(0, 1.0);
        acc.observe(1, 0.25);
        let means = acc.means();
        assert!((means[0] - 0.75).abs() < 1e-12);
        assert!((means[1] - 0.25).abs() < 1e-12);
        // Untouched hosts default to zero.
        let empty = UtilizationAccumulator::new(1);
        assert_eq!(empty.means(), vec![0.0]);
    }

    #[test]
    fn resource_map_conversion() {
        let layout = HostLayout::new(vec![("db".into(), vec![4, 5])], 6).unwrap();
        let map = layout.to_resource_map();
        assert_eq!(map.get("db"), Some(&vec![4, 5]));
    }
}
