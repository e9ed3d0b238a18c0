//! Service stations: multi-server FIFO queues.
//!
//! A station models the middleware component hosting one service: `servers`
//! parallel executors drawing processing times from a distribution, with an
//! unbounded FIFO queue in front. Elapsed time measured at the monitoring
//! point is *wait + service* — so when an upstream service floods a
//! station, its measured elapsed time rises even though its service-time
//! distribution is unchanged. That load coupling is what the KERT-BN
//! immediate-upstream edges model.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::dist::Dist;
use crate::engine::SimTime;
use crate::{Result, SimError};

/// Static configuration of one service station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Number of parallel servers (≥ 1).
    pub servers: usize,
    /// Processing-time distribution.
    pub service_time: Dist,
}

impl ServiceConfig {
    /// A single-server station with the given service-time distribution.
    pub fn single(service_time: Dist) -> Self {
        ServiceConfig {
            servers: 1,
            service_time,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.servers == 0 {
            return Err(SimError::BadConfig("station with zero servers".into()));
        }
        self.service_time.validate()
    }
}

/// A job waiting at or executing on a station, identified by an opaque
/// token the system layer uses to resume the request's workflow.
pub type JobToken = u64;

/// Runtime state of one station.
#[derive(Debug)]
pub struct Station {
    config: ServiceConfig,
    busy: usize,
    queue: VecDeque<(JobToken, SimTime)>,
}

impl Station {
    /// Create an idle station.
    pub fn new(config: ServiceConfig) -> Self {
        Station {
            config,
            busy: 0,
            queue: VecDeque::new(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Replace the service-time distribution (resource reallocation /
    /// pAccel-style interventions between reconstruction windows).
    pub fn set_service_time(&mut self, dist: Dist) {
        self.config.service_time = dist;
    }

    /// A job arrives at time `now`. Returns `Some(job)` if a server is free
    /// and the job starts immediately (the caller schedules its completion);
    /// `None` if it queued.
    pub fn arrive(&mut self, job: JobToken, now: SimTime) -> Option<JobToken> {
        if self.busy < self.config.servers {
            self.busy += 1;
            Some(job)
        } else {
            self.queue.push_back((job, now));
            None
        }
    }

    /// A job finishes at time `now`. Returns the next queued job to start,
    /// if any, with its accumulated wait time.
    pub fn complete(&mut self, now: SimTime) -> Option<(JobToken, SimTime)> {
        if let Some((job, queued_at)) = self.queue.pop_front() {
            // The freed server is immediately taken; `busy` is unchanged.
            Some((job, now - queued_at))
        } else {
            self.busy = self.busy.saturating_sub(1);
            None
        }
    }

    /// Drop all in-flight runtime state (busy servers, queued jobs).
    /// Called at the start of every
    /// simulation run: each run begins from an idle system, and jobs from
    /// a previous run's event queue no longer exist.
    pub fn reset_runtime(&mut self) {
        self.busy = 0;
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            servers: 2,
            service_time: Dist::Deterministic { value: 1.0 },
        }
    }

    #[test]
    fn jobs_start_until_servers_are_full() {
        let mut st = Station::new(cfg());
        assert_eq!(st.arrive(1, 0.0), Some(1));
        assert_eq!(st.arrive(2, 0.0), Some(2));
        assert_eq!(st.arrive(3, 0.0), None); // queued
        assert_eq!(st.busy, 2);
        assert_eq!(st.queue.len(), 1);
    }

    #[test]
    fn completion_promotes_queued_jobs_fifo() {
        let mut st = Station::new(cfg());
        st.arrive(1, 0.0);
        st.arrive(2, 0.0);
        st.arrive(3, 0.5);
        st.arrive(4, 0.7);
        // Job 1 finishes at t=1: job 3 (queued first) starts, wait 0.5.
        let next = st.complete(1.0);
        assert_eq!(next, Some((3, 0.5)));
        assert_eq!(st.busy, 2);
        let (job, wait) = st.complete(1.0).unwrap();
        assert_eq!(job, 4);
        assert!((wait - 0.3).abs() < 1e-12);
    }

    #[test]
    fn busy_count_drops_when_queue_is_empty() {
        let mut st = Station::new(cfg());
        st.arrive(1, 0.0);
        assert_eq!(st.complete(1.0), None);
        assert_eq!(st.busy, 0);
    }

    #[test]
    fn config_validation() {
        assert!(ServiceConfig {
            servers: 0,
            service_time: Dist::Deterministic { value: 1.0 }
        }
        .validate()
        .is_err());
        assert!(ServiceConfig::single(Dist::Exponential { mean: 0.2 })
            .validate()
            .is_ok());
    }
}
