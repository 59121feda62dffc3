//! `fleet_sessions`: a `Router` over 64 replicas replays diurnal
//! multi-turn chat sessions with sticky load balancing, half-budget
//! session retention, an autoscaler and a seeded failure plan. The
//! router's own step loop, dispatch, retention and fleet dynamics do
//! the work; the engine's loop is unused.

use std::time::Instant;

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_obs::{EventKind, MemorySink};
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, AutoscalerCfg, FailurePlan, LoadBalancePolicy, RetentionCfg,
    Router, RouterConfig, RouterReport, ServeConfig, ServeEngine, Trace,
};
use alisa_workloads::SessionModel;

use crate::checks::{self, EventChecker, Roofline, TraceFacts};
use crate::engine_open::fingerprint;
use crate::harness::{Bench, Ledger, Round, RoundKind};
use crate::spans::Recorder;

/// Conversations in the trace (about 3.4 turns each).
pub const SESSIONS: usize = 8_000;
/// Mean session start rate (1/s) of the diurnal wave: the rate at which
/// the autoscaler brings up most of the fleet at the wave's peak (61 of
/// 64 replicas at seed 1) while holding its 90% SLO-attainment target
/// without a rejection. See the README's rate sweep.
pub const RATE: f64 = 8.0;
pub const SWING: f64 = 0.8;
pub const PERIOD_S: f64 = 600.0;
pub const REPLICAS: usize = 64;
/// Replicas that always admit; the autoscaler adds the rest on demand.
pub const FLOOR: usize = 8;
/// Replicas killed mid-run by the seeded failure plan.
pub const KILLS: usize = 4;
/// Conversations the warm-up operation replays.
const WARMUP: usize = 400;

pub struct FleetSessions {
    trace: Trace,
    facts: TraceFacts,
    router: Router,
    budget: u64,
    roof: Roofline,
    ledger: Ledger,
    trace_gen_s: f64,
}

fn router(
    model: &ModelConfig,
    hw: &HardwareSpec,
    seed: u64,
    horizon_s: f64,
    step_threads: usize,
) -> Router {
    let replica = ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa())
        .with_session_reuse(RetentionCfg::half());
    Router::new(
        RouterConfig::homogeneous(replica, REPLICAS)
            .with_lb(LoadBalancePolicy::sticky())
            .with_autoscaler(AutoscalerCfg::new(FLOOR))
            .with_failures(FailurePlan::seeded(seed, KILLS, REPLICAS, horizon_s))
            .with_step_threads(step_threads),
    )
}

fn sessions(n: usize, seed: u64) -> Trace {
    Trace::generate_sessions(
        &ArrivalProcess::Diurnal {
            rate: RATE,
            swing: SWING,
            period_s: PERIOD_S,
        },
        &SessionModel::chat(),
        n,
        seed,
    )
}

fn fleet_fingerprint(r: &RouterReport) -> Vec<u64> {
    let mut f = fingerprint(&r.fleet);
    let d = r.dynamics.unwrap_or_default();
    f.extend([
        r.requeued as u64,
        d.scale_ups as u64,
        d.drains as u64,
        d.failures as u64,
        d.recovered as u64,
        d.relocated as u64,
        d.replica_seconds.to_bits(),
    ]);
    if let Some(reuse) = &r.fleet.reuse {
        f.extend([
            reuse.hits as u64,
            reuse.misses as u64,
            reuse.evictions as u64,
            reuse.reused_tokens,
        ]);
    }
    f
}

impl FleetSessions {
    pub fn setup(seed: u64, step_threads: usize, rec: &mut Recorder) -> Self {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let t = Instant::now();
        let trace = rec.span("Trace::generate_sessions", |_| sessions(SESSIONS, seed));
        let trace_gen_s = t.elapsed().as_secs_f64();
        let warm = sessions(WARMUP, seed);
        rec.span("warm-up Router::run", |_| {
            std::hint::black_box(
                router(&model, &hw, seed, warm.duration(), step_threads).run(&warm),
            );
        });
        let replica = ServeEngine::new(ServeConfig::new(
            model.clone(),
            hw.clone(),
            AdmissionPolicy::alisa(),
        ));
        FleetSessions {
            facts: TraceFacts::new(&trace),
            router: router(&model, &hw, seed, trace.duration(), step_threads),
            trace,
            budget: replica.kv_budget(),
            roof: Roofline::new(&model, &hw),
            ledger: Ledger::default(),
            trace_gen_s,
        }
    }

    fn check(&self, rep: &RouterReport) -> Vec<String> {
        let mut fails = checks::serve_report(&rep.fleet, &self.facts);
        for (i, replica) in rep.replicas.iter().enumerate() {
            if let Some(e) = checks::memory(replica, self.budget, &self.roof) {
                fails.push(format!("replica {i} {e}"));
            }
        }
        let failures = rep.dynamics.map_or(0, |d| d.failures);
        if failures != KILLS {
            fails.push(format!(
                "failures: {failures} replica failures for {KILLS} planned kills"
            ));
        }
        fails
    }
}

impl Bench for FleetSessions {
    fn trace_kinds(&self) -> &'static [RoundKind] {
        &[RoundKind::Plain, RoundKind::Profiled, RoundKind::Events]
    }

    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        vec![("workloads.trace_gen_s", self.trace_gen_s)]
    }

    fn round(&self, kind: RoundKind, rec: &mut Recorder) -> Round {
        let mut r = Round::default();
        let name = "router/sticky+retention+autoscaler+failures";
        let (out, idx, event_fails) = match kind {
            RoundKind::Events => {
                let mut sink = MemorySink::new();
                let (out, _, idx) = r.op(rec, name, |_| {
                    self.router.run_traced(&self.trace, &mut sink)
                });
                let count = |f: fn(&EventKind) -> bool| {
                    sink.events().iter().filter(|e| f(&e.kind)).count() as f64
                };
                r.layer(
                    "serve.steps",
                    count(|k| matches!(k, EventKind::Step { .. })),
                );
                r.layer(
                    "router.dispatches",
                    count(|k| matches!(k, EventKind::Dispatch { .. })),
                );
                r.layer("obs.events", sink.events().len() as f64);
                let peak_up = sink
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::ReplicaUp { replicas_up, .. } => Some(replicas_up),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(FLOOR);
                r.layer("sim.peak_replicas_up", peak_up as f64);
                (out, idx, Vec::new())
            }
            RoundKind::Checked => {
                let mut sink = EventChecker::new(self.roof, &self.facts, REPLICAS);
                let (out, _, idx) = r.op(rec, name, |_| {
                    self.router.run_traced(&self.trace, &mut sink)
                });
                let finished = sink.finished;
                let mut fails = sink.finish();
                if let Some(rep) = &out {
                    if finished != rep.fleet.completed {
                        fails.push(format!(
                            "completion: {finished} finished events, {} completed",
                            rep.fleet.completed
                        ));
                    }
                }
                (out, idx, fails)
            }
            _ => {
                let (out, _, idx) = r.op(rec, name, |_| self.router.run(&self.trace));
                (out, idx, Vec::new())
            }
        };
        r.fail_all(idx, event_fails);
        if kind == RoundKind::Plain {
            r.layer("router.run_s", r.host_s);
        }
        let Some(rep) = out else { return r };
        r.fail_all(idx, self.check(&rep));
        if let Err(e) = self.ledger.check(name, fleet_fingerprint(&rep)) {
            r.fail(idx, e);
        }
        r.requests = rep.fleet.completed as u64;
        let d = rep.dynamics.unwrap_or_default();
        r.layer("router.requeues", rep.requeued as f64);
        r.layer("router.scale_ups", d.scale_ups as f64);
        r.layer("router.drains", d.drains as f64);
        r.layer("router.failures", d.failures as f64);
        r.layer("router.recovered", d.recovered as f64);
        if let Some(reuse) = &rep.fleet.reuse {
            r.layer("kvcache.retention_hits", reuse.hits as f64);
            r.layer("kvcache.retention_evictions", reuse.evictions as f64);
            r.layer("kvcache.reused_tokens", reuse.reused_tokens as f64);
            let looked_up = reuse.hits + reuse.misses;
            if looked_up > 0 {
                r.layer(
                    "kvcache.retention_hit_rate",
                    reuse.hits as f64 / looked_up as f64,
                );
            }
        }
        r.layer(
            "serve.preemptions",
            rep.fleet.discipline.as_ref().map_or(0, |d| d.preemptions) as f64,
        );
        r.layer("serve.mean_batch", rep.fleet.mean_batch);
        r.layer("serve.peak_queue_depth", rep.fleet.peak_queue_depth as f64);
        r.layer("sim.goodput_rps", rep.fleet.goodput_rps);
        r.layer("sim.ttft_p99_s", rep.fleet.ttft.p99);
        r.layer("sim.tbt_p99_s", rep.fleet.tbt.p99);
        r.layer(
            "sim.goodput_per_replica_hour",
            rep.goodput_per_replica_hour(),
        );
        if rep.fleet.makespan_s > 0.0 {
            r.layer(
                "sim.mean_replicas_up",
                d.replica_seconds / rep.fleet.makespan_s,
            );
        }
        r
    }
}
