//! `engine_open`: one `ServeEngine` replays an open-loop Poisson trace
//! of heavy-tailed single-shot requests (OPT-6.7B on V100-16GB) near
//! ALISA's saturation knee, under ALISA/FCFS, ALISA/preemptive-SJF and
//! vLLM/FCFS. The engine's own step loop does nearly all the work.

use std::time::Instant;

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_obs::{EventKind, MemorySink};
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, QueueDiscipline, ServeConfig, ServeEngine, ServeReport, Trace,
};
use alisa_workloads::LengthModel;

use crate::checks::{self, EventChecker, Roofline, TraceFacts};
use crate::harness::{Bench, Ledger, Round, RoundKind};
use crate::spans::Recorder;

/// Requests in the trace.
pub const REQUESTS: usize = 40_000;
/// Arrival rate (req/s): ALISA/FCFS goodput stops following the offered
/// rate between 2 and 2.5 req/s on this mix.
pub const RATE: f64 = 2.0;
/// Requests the warm-up operation replays.
const WARMUP: usize = 2_000;

pub struct EngineOpen {
    trace: Trace,
    facts: TraceFacts,
    engines: Vec<(&'static str, ServeEngine)>,
    roof: Roofline,
    ledger: Ledger,
    trace_gen_s: f64,
}

/// The three configurations, with fig17's hardware-derived queue
/// timeout, SJF aging and preemption patience.
pub fn engines(model: &ModelConfig, hw: &HardwareSpec) -> Vec<(&'static str, ServeEngine)> {
    let base = |policy| ServeConfig::new(model.clone(), hw.clone(), policy);
    let slo = base(AdmissionPolicy::alisa()).slo;
    let timeout = 5.0 * slo.ttft_s;
    let preemptive = QueueDiscipline::preemptive_sjf()
        .with_aging(timeout)
        .with_patience(slo.ttft_s);
    [
        (
            "alisa/fcfs",
            AdmissionPolicy::alisa(),
            QueueDiscipline::fcfs(),
        ),
        ("alisa/preemptive-sjf", AdmissionPolicy::alisa(), preemptive),
        (
            "vllm/fcfs",
            AdmissionPolicy::vllm(),
            QueueDiscipline::fcfs(),
        ),
    ]
    .into_iter()
    .map(|(name, policy, discipline)| {
        let cfg = base(policy)
            .with_queue_timeout(timeout)
            .with_discipline(discipline);
        (name, ServeEngine::new(cfg))
    })
    .collect()
}

/// The simulated outcome of one serving run, bit for bit.
pub fn fingerprint(r: &ServeReport) -> Vec<u64> {
    vec![
        r.admitted as u64,
        r.rejected as u64,
        r.completed as u64,
        r.slo_met as u64,
        r.makespan_s.to_bits(),
        r.goodput_rps.to_bits(),
        r.ttft.p99.to_bits(),
        r.tbt.p99.to_bits(),
        r.e2e.p99.to_bits(),
        r.throughput_tps.to_bits(),
        r.mean_batch.to_bits(),
        r.peak_queue_depth as u64,
        r.peak_kv_bytes,
        r.discipline.as_ref().map_or(0, |d| d.preemptions),
    ]
}

impl EngineOpen {
    pub fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let t = Instant::now();
        let trace = rec.span("Trace::generate", |_| {
            Trace::generate(
                &ArrivalProcess::Poisson { rate: RATE },
                &LengthModel::heavy_tailed(),
                REQUESTS,
                seed,
            )
        });
        let trace_gen_s = t.elapsed().as_secs_f64();
        let engines = engines(&model, &hw);
        let warm =
            Trace::new(trace.entries()[..WARMUP].to_vec()).expect("a prefix of a valid trace");
        rec.span("warm-up ServeEngine::run", |_| {
            std::hint::black_box(engines[0].1.run(&warm));
        });
        EngineOpen {
            facts: TraceFacts::new(&trace),
            trace,
            engines,
            roof: Roofline::new(&model, &hw),
            ledger: Ledger::default(),
            trace_gen_s,
        }
    }
}

impl Bench for EngineOpen {
    fn trace_kinds(&self) -> &'static [RoundKind] {
        &[RoundKind::Plain, RoundKind::Profiled, RoundKind::Events]
    }

    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        vec![("workloads.trace_gen_s", self.trace_gen_s)]
    }

    fn round(&self, kind: RoundKind, rec: &mut Recorder) -> Round {
        let mut r = Round::default();
        let (mut steps, mut events) = (0u64, 0u64);
        let (mut preemptions, mut batch, mut peak_queue) = (0u64, Vec::new(), 0usize);
        for (i, (name, engine)) in self.engines.iter().enumerate() {
            let budget = engine.kv_budget();
            let (out, idx, event_fails) = match kind {
                RoundKind::Events => {
                    let mut sink = MemorySink::new();
                    let (out, _, idx) =
                        r.op(rec, name, |_| engine.run_traced(&self.trace, &mut sink));
                    events += sink.events().len() as u64;
                    steps += sink
                        .events()
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::Step { .. }))
                        .count() as u64;
                    (out, idx, Vec::new())
                }
                RoundKind::Checked => {
                    let mut sink = EventChecker::new(self.roof, &self.facts, 1);
                    let (out, _, idx) =
                        r.op(rec, name, |_| engine.run_traced(&self.trace, &mut sink));
                    let finished = sink.finished;
                    let mut fails = sink.finish();
                    if let Some(rep) = &out {
                        if finished != rep.completed {
                            fails.push(format!(
                                "completion: {finished} finished events, {} completed",
                                rep.completed
                            ));
                        }
                    }
                    (out, idx, fails)
                }
                _ => {
                    let (out, _, idx) = r.op(rec, name, |_| engine.run(&self.trace));
                    (out, idx, Vec::new())
                }
            };
            r.fail_all(idx, event_fails);
            let Some(rep) = out else { continue };
            r.fail_all(idx, checks::serve_report(&rep, &self.facts));
            if let Some(e) = checks::memory(&rep, budget, &self.roof) {
                r.fail(idx, e);
            }
            if let Err(e) = self.ledger.check(name, fingerprint(&rep)) {
                r.fail(idx, e);
            }
            r.requests += rep.completed as u64;
            preemptions += rep.discipline.as_ref().map_or(0, |d| d.preemptions);
            batch.push(rep.mean_batch);
            peak_queue = peak_queue.max(rep.peak_queue_depth);
            if i == 0 {
                r.layer("sim.goodput_rps", rep.goodput_rps);
                r.layer("sim.ttft_p99_s", rep.ttft.p99);
                r.layer("sim.tbt_p99_s", rep.tbt.p99);
            }
        }
        if kind == RoundKind::Plain {
            r.layer("serve.engine_run_s", r.host_s);
        }
        if kind == RoundKind::Events {
            r.layer("serve.steps", steps as f64);
            r.layer("obs.events", events as f64);
        }
        r.layer("serve.preemptions", preemptions as f64);
        if !batch.is_empty() {
            r.layer(
                "serve.mean_batch",
                batch.iter().sum::<f64>() / batch.len() as f64,
            );
        }
        r.layer("serve.peak_queue_depth", peak_queue as f64);
        r
    }
}
