//! The simulated service-oriented environment.
//!
//! Ties together the event queue, the stations, and the per-request
//! workflow executor: requests arrive under an open workload, traverse the
//! workflow acquiring queueing + processing delays at each station, and on
//! completion deposit a monitoring record — per-service elapsed times and
//! the end-to-end response time — into the [`Trace`].

use std::collections::HashMap;

use rand::Rng;

use kert_workflow::Workflow;

use crate::dist::Dist;
use crate::engine::{EventQueue, SimTime};
use crate::request::{RequestExec, WorkflowPlan};
use crate::resources::{HostLayout, UtilizationAccumulator};
use crate::service::{ServiceConfig, Station};
use crate::trace::{Trace, TraceRow};
use crate::{Result, SimError};

/// Options governing a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Inter-arrival distribution of the open workload (e.g. exponential
    /// mean `1/λ` for Poisson arrivals).
    pub inter_arrival: Dist,
    /// Completed requests to discard before recording (queue warm-up).
    pub warmup: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            inter_arrival: Dist::Exponential { mean: 1.0 },
            warmup: 100,
        }
    }
}

/// Event payloads of the service-system simulation.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// A new user request enters the system.
    Arrival,
    /// A task execution finishes at its station.
    TaskDone {
        req: u64,
        node: usize,
        /// When the job arrived at the station (queue entry).
        station_arrived: SimTime,
    },
}

/// In-flight bookkeeping for one request.
#[derive(Debug)]
struct InFlight {
    exec: RequestExec,
    arrived: SimTime,
    /// Accumulated elapsed time per service (loops accumulate; untouched
    /// services stay at zero — the convention the choice-reduction relies
    /// on).
    elapsed: Vec<f64>,
    /// Host-utilization snapshots taken when this request's tasks start.
    util: UtilizationAccumulator,
}

/// A runnable simulated environment.
#[derive(Debug)]
pub struct SimSystem {
    plan: WorkflowPlan,
    n_services: usize,
    stations: Vec<Station>,
    options: SimOptions,
    /// Shared-resource layout (may be empty).
    layout: HostLayout,
    /// Service → host index, derived from the layout.
    host_of: Vec<Option<usize>>,
    /// Services per host, for utilization normalization.
    host_sizes: Vec<usize>,
    /// Currently executing tasks per host.
    host_busy: Vec<usize>,
}

impl SimSystem {
    /// Build a system: one station per service, in service-id order.
    pub fn new(
        workflow: &Workflow,
        stations: Vec<ServiceConfig>,
        options: SimOptions,
    ) -> Result<Self> {
        Self::with_hosts(workflow, stations, HostLayout::none(), options)
    }

    /// Build a system with a shared-resource layout: hosts' utilizations
    /// are observed per request and become extra trace columns (§3.2's
    /// resource-sharing knowledge source).
    pub fn with_hosts(
        workflow: &Workflow,
        stations: Vec<ServiceConfig>,
        layout: HostLayout,
        options: SimOptions,
    ) -> Result<Self> {
        let n_services = stations.len();
        workflow
            .validate(n_services)
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        options
            .inter_arrival
            .validate()
            .map_err(|e| SimError::BadConfig(e.to_string()))?;
        for cfg in &stations {
            cfg.validate()?;
        }
        let host_of = layout.host_of(n_services);
        let host_sizes = layout.sizes();
        let host_busy = vec![0; layout.len()];
        Ok(SimSystem {
            plan: WorkflowPlan::compile(workflow),
            n_services,
            stations: stations.into_iter().map(Station::new).collect(),
            options,
            layout,
            host_of,
            host_sizes,
            host_busy,
        })
    }

    /// Replace a service's processing-time distribution (models a resource
    /// action, e.g. pAccel's "reduce X₄ to 90%").
    pub fn set_service_time(&mut self, service: usize, dist: Dist) -> Result<()> {
        dist.validate()?;
        self.stations
            .get_mut(service)
            .ok_or_else(|| SimError::BadConfig(format!("no service {service}")))?
            .set_service_time(dist);
        Ok(())
    }

    /// Run until `n_requests` requests have *completed after warm-up*,
    /// returning their monitoring trace.
    pub fn run<R: Rng + ?Sized>(&mut self, n_requests: usize, rng: &mut R) -> Trace {
        // Every run starts from an idle system: jobs left over from a
        // previous run's event queue no longer exist, so their station
        // state must not linger (it would deadlock the new run behind
        // phantom busy servers).
        for st in &mut self.stations {
            st.reset_runtime();
        }
        self.host_busy.iter_mut().for_each(|b| *b = 0);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut inflight: HashMap<u64, InFlight> = HashMap::new();
        let mut trace = Trace::with_resources(self.n_services, self.layout.names());
        let mut next_req: u64 = 0;
        let mut completed_after_warmup = 0usize;
        let mut completed_total = 0usize;

        queue.schedule(self.options.inter_arrival.sample(rng), Event::Arrival);

        while completed_after_warmup < n_requests {
            let (now, event) = queue
                .pop()
                .expect("arrival self-scheduling keeps the queue non-empty");
            match event {
                Event::Arrival => {
                    // Admit the request and schedule the next arrival.
                    let req = next_req;
                    next_req += 1;
                    let mut state = InFlight {
                        exec: RequestExec::new(&self.plan),
                        arrived: now,
                        elapsed: vec![0.0; self.n_services],
                        util: UtilizationAccumulator::new(self.layout.len()),
                    };
                    let step = state.exec.start(&self.plan, rng);
                    debug_assert!(!step.finished, "workflows have at least one task");
                    inflight.insert(req, state);
                    for (node, _svc) in step.activations {
                        self.dispatch(req, node, now, &mut queue, &mut inflight, rng);
                    }
                    queue.schedule_in(self.options.inter_arrival.sample(rng), Event::Arrival);
                }
                Event::TaskDone {
                    req,
                    node,
                    station_arrived,
                } => {
                    let svc = self.plan.service_of(node);
                    // The finishing task releases its host slot.
                    if let Some(h) = self.host_of[svc] {
                        self.host_busy[h] -= 1;
                    }
                    // Free the server; maybe promote a queued job.
                    if let Some((token, q_wait)) = self.stations[svc].complete(now) {
                        let (q_req, q_node) = decode(token);
                        // The promoted job starts executing right now.
                        self.observe_task_start(q_req, svc, &mut inflight);
                        let st = self.stations[svc].config().service_time.sample(rng);
                        queue.schedule_in(
                            st,
                            Event::TaskDone {
                                req: q_req,
                                node: q_node,
                                station_arrived: now - q_wait,
                            },
                        );
                    }
                    let state = inflight
                        .get_mut(&req)
                        .expect("completions only fire for in-flight requests");
                    state.elapsed[svc] += now - station_arrived;
                    let step = state.exec.complete_task(&self.plan, node, rng);
                    for (next_node, _svc) in step.activations {
                        self.dispatch(req, next_node, now, &mut queue, &mut inflight, rng);
                    }
                    if step.finished {
                        let state = inflight.remove(&req).expect("still present");
                        completed_total += 1;
                        if completed_total > self.options.warmup {
                            completed_after_warmup += 1;
                            trace.push(TraceRow {
                                completed_at: now,
                                response_time: now - state.arrived,
                                elapsed: state.elapsed,
                                resources: state.util.means(),
                            });
                        }
                    }
                }
            }
        }
        trace
    }

    /// Send a task to its station; schedule completion if it starts now.
    fn dispatch<R: Rng + ?Sized>(
        &mut self,
        req: u64,
        node: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
        inflight: &mut HashMap<u64, InFlight>,
        rng: &mut R,
    ) {
        let svc = self.plan.service_of(node);
        let token = encode(req, node);
        if self.stations[svc].arrive(token, now).is_some() {
            self.observe_task_start(req, svc, inflight);
            let st = self.stations[svc].config().service_time.sample(rng);
            queue.schedule_in(
                st,
                Event::TaskDone {
                    req,
                    node,
                    station_arrived: now,
                },
            );
        }
        // Otherwise the job sits in the FIFO; the station completion path
        // schedules it when a server frees up.
    }

    /// A task of `req` starts executing on `svc`'s station: occupy the host
    /// slot and snapshot the host's utilization into the request's record.
    fn observe_task_start(&mut self, req: u64, svc: usize, inflight: &mut HashMap<u64, InFlight>) {
        let Some(h) = self.host_of[svc] else {
            return;
        };
        self.host_busy[h] += 1;
        let utilization = self.host_busy[h] as f64 / self.host_sizes[h] as f64;
        if let Some(state) = inflight.get_mut(&req) {
            state.util.observe(h, utilization);
        }
    }
}

#[inline]
fn encode(req: u64, node: usize) -> u64 {
    debug_assert!(node < (1 << 20), "plan too large for token encoding");
    (req << 20) | node as u64
}

#[inline]
fn decode(token: u64) -> (u64, usize) {
    (token >> 20, (token & ((1 << 20) - 1)) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kert_workflow::ediamond_workflow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn light_stations(n: usize, mean: f64) -> Vec<ServiceConfig> {
        (0..n)
            .map(|_| ServiceConfig::single(Dist::Exponential { mean }))
            .collect()
    }

    fn ediamond_system(arrival_mean: f64) -> SimSystem {
        SimSystem::new(
            &ediamond_workflow(),
            light_stations(6, 0.05),
            SimOptions {
                inter_arrival: Dist::Exponential { mean: arrival_mean },
                warmup: 50,
            },
        )
        .unwrap()
    }

    #[test]
    fn response_time_equals_workflow_function_of_elapsed() {
        // With measured elapsed times (wait + service), the realized D must
        // satisfy D = X1 + X2 + max(X3+X5, X4+X6) exactly, queueing or not.
        let mut sys = ediamond_system(0.5);
        let mut rng = StdRng::seed_from_u64(42);
        let trace = sys.run(500, &mut rng);
        let f = kert_workflow::response_time_expr(&ediamond_workflow());
        for row in trace.rows() {
            let predicted = f.eval(&row.elapsed);
            assert!(
                (predicted - row.response_time).abs() < 1e-9,
                "D {} vs f(X) {predicted}",
                row.response_time
            );
        }
    }

    #[test]
    fn all_services_record_positive_elapsed() {
        let mut sys = ediamond_system(0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = sys.run(200, &mut rng);
        for row in trace.rows() {
            assert!(row.elapsed.iter().all(|&x| x > 0.0), "{:?}", row.elapsed);
        }
    }

    #[test]
    fn heavier_load_increases_elapsed_times() {
        // Shrinking the inter-arrival mean (more load) must raise queueing
        // delay — the load coupling the BN structure models.
        let mut light = ediamond_system(1.0);
        let mut heavy = ediamond_system(0.07);
        let mut rng1 = StdRng::seed_from_u64(3);
        let mut rng2 = StdRng::seed_from_u64(3);
        let t_light = light.run(1_000, &mut rng1);
        let t_heavy = heavy.run(1_000, &mut rng2);
        let mean_d_light = kert_linalg::stats::mean(&t_light.response_times());
        let mean_d_heavy = kert_linalg::stats::mean(&t_heavy.response_times());
        assert!(
            mean_d_heavy > mean_d_light * 1.2,
            "heavy {mean_d_heavy} vs light {mean_d_light}"
        );
    }

    #[test]
    fn accelerating_a_service_reduces_response_time() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sys = ediamond_system(0.3);
        let before = sys.run(1_000, &mut rng);
        // Make the remote DB 10x faster.
        sys.set_service_time(5, Dist::Exponential { mean: 0.005 })
            .unwrap();
        let after = sys.run(1_000, &mut rng);
        let d_before = kert_linalg::stats::mean(&before.response_times());
        let d_after = kert_linalg::stats::mean(&after.response_times());
        assert!(d_after < d_before, "{d_after} !< {d_before}");
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let mut a = ediamond_system(0.4);
        let mut b = ediamond_system(0.4);
        let ta = a.run(100, &mut StdRng::seed_from_u64(9));
        let tb = b.run(100, &mut StdRng::seed_from_u64(9));
        assert_eq!(ta.rows().len(), tb.rows().len());
        for (ra, rb) in ta.rows().iter().zip(tb.rows().iter()) {
            assert_eq!(ra.response_time, rb.response_time);
            assert_eq!(ra.elapsed, rb.elapsed);
        }
    }

    #[test]
    fn choice_workflow_leaves_untaken_branch_at_zero() {
        let wf = Workflow::Seq(vec![
            Workflow::Task(0),
            Workflow::Choice(vec![(0.5, Workflow::Task(1)), (0.5, Workflow::Task(2))]),
        ]);
        let mut sys = SimSystem::new(
            &wf,
            light_stations(3, 0.05),
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.5 },
                warmup: 10,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let trace = sys.run(300, &mut rng);
        let mut took_1 = 0;
        let mut took_2 = 0;
        for row in trace.rows() {
            let b1 = row.elapsed[1] > 0.0;
            let b2 = row.elapsed[2] > 0.0;
            assert!(b1 ^ b2, "exactly one branch should run: {:?}", row.elapsed);
            if b1 {
                took_1 += 1;
            } else {
                took_2 += 1;
            }
        }
        assert!(took_1 > 50 && took_2 > 50, "{took_1} vs {took_2}");
    }

    #[test]
    fn host_utilization_is_recorded_and_bounded() {
        use crate::resources::HostLayout;
        let wf = ediamond_workflow();
        let layout = HostLayout::new(
            vec![
                ("local_host".into(), vec![2, 4]),
                ("remote_host".into(), vec![3, 5]),
            ],
            6,
        )
        .unwrap();
        let mut sys = SimSystem::with_hosts(
            &wf,
            light_stations(6, 0.05),
            layout,
            SimOptions {
                inter_arrival: Dist::Exponential { mean: 0.2 },
                warmup: 50,
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let trace = sys.run(400, &mut rng);
        let names = trace.to_dataset(None).names().to_vec();
        assert_eq!(
            &names[names.len() - 3..],
            &["local_host", "remote_host", "D"]
        );
        for row in trace.rows() {
            assert_eq!(row.resources.len(), 2);
            for &u in &row.resources {
                assert!((0.0..=1.0).contains(&u), "utilization {u}");
            }
            // Every eDiaMoND request visits both hosts.
            assert!(row.resources.iter().all(|&u| u > 0.0));
        }
        // Dataset layout: X1..X6, two resource columns, D.
        let ds = trace.to_dataset(None);
        assert_eq!(ds.columns(), 9);
        assert_eq!(ds.names()[6], "local_host");
        assert_eq!(ds.names()[8], "D");
    }

    #[test]
    fn heavier_load_raises_host_utilization() {
        use crate::resources::HostLayout;
        let wf = ediamond_workflow();
        let layout = HostLayout::new(vec![("host".into(), vec![2, 3, 4, 5])], 6).unwrap();
        let run_mean = |arrival: f64, seed: u64| {
            let mut sys = SimSystem::with_hosts(
                &wf,
                light_stations(6, 0.05),
                HostLayout::new(vec![("host".into(), vec![2, 3, 4, 5])], 6).unwrap(),
                SimOptions {
                    inter_arrival: Dist::Exponential { mean: arrival },
                    warmup: 50,
                },
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let t = sys.run(400, &mut rng);
            let col: Vec<f64> = t.rows().iter().map(|r| r.resources[0]).collect();
            kert_linalg::stats::mean(&col)
        };
        let _ = layout;
        let light = run_mean(0.6, 5);
        let heavy = run_mean(0.08, 5);
        assert!(heavy > light, "heavy {heavy} !> light {light}");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let wf = ediamond_workflow();
        // Too few stations for the workflow.
        assert!(SimSystem::new(&wf, light_stations(3, 0.1), SimOptions::default()).is_err());
        // Bad arrival distribution.
        assert!(SimSystem::new(
            &wf,
            light_stations(6, 0.1),
            SimOptions {
                inter_arrival: Dist::Exponential { mean: -1.0 },
                warmup: 0,
            }
        )
        .is_err());
        let mut ok = SimSystem::new(&wf, light_stations(6, 0.1), SimOptions::default()).unwrap();
        assert!(ok
            .set_service_time(99, Dist::Exponential { mean: 1.0 })
            .is_err());
    }
}
