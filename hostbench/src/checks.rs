//! Output checks. Each bound is computed here from the model and
//! hardware descriptions (`ModelConfig::params`/`weight_bytes`,
//! `HardwareSpec` bandwidth and peak FLOPs) or is a conservation law the
//! simulators must obey; none is a stored copy of an earlier output.

use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_obs::{Event, EventKind, TraceSink};
use alisa_sched::RunReport;
use alisa_serve::{ServeReport, Trace};

/// Relative slack on every lower bound: the bounds are exact
/// arithmetic, the simulators sum floating-point step costs.
const SLACK: f64 = 1e-9;

/// Physical floors of one model on one GPU.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Seconds to read every FP16 weight once from HBM: no decode step
    /// can be shorter.
    pub weight_read_s: f64,
    /// Matmul parameters (all weights but the embedding table, which a
    /// prefill looks up rather than multiplies).
    pub gemm_params: f64,
    pub peak_flops: f64,
    /// GPU memory left once the weights are resident: the most any
    /// admission budget may hand out.
    pub kv_cap: u64,
}

impl Roofline {
    pub fn new(model: &ModelConfig, hw: &HardwareSpec) -> Self {
        let weight_bytes = model.weight_bytes(2);
        Roofline {
            weight_read_s: weight_bytes as f64 / hw.gpu.memory_bandwidth,
            gemm_params: (model.params() - (model.vocab_size * model.hidden_dim) as u64) as f64,
            peak_flops: hw.gpu.peak_flops,
            kv_cap: hw.gpu.memory_bytes.saturating_sub(weight_bytes),
        }
    }

    /// Seconds a prefill of `tokens` prompt tokens takes at peak FLOPs.
    pub fn prefill_floor(&self, tokens: usize) -> f64 {
        2.0 * self.gemm_params * tokens as f64 / self.peak_flops
    }
}

fn below(value: f64, floor: f64) -> bool {
    value < floor * (1.0 - SLACK)
}

/// Checks one Figure 9 report. OOM reports are modelled outcomes and
/// pass; a completed report must satisfy the throughput identity, the
/// whole-run floor, and the weight-read floor on every decode step.
pub fn offline_report(report: &RunReport, roof: &Roofline) -> Vec<String> {
    let mut fails = Vec::new();
    if !report.outcome.is_completed() {
        return fails;
    }
    let wl = &report.workload;
    fails.extend(throughput_identity(
        report.throughput(),
        report.total_time(),
        wl.batch_size * wl.output_len,
    ));
    // Offline timelines do not mark which records are prefills (vLLM
    // prefills wave by wave), so the prefill floor is applied to the
    // whole run: every prompt is prefilled, then at least `output_len
    // - 1` decode steps each read the weights.
    let floor = roof.prefill_floor(wl.batch_size * wl.input_len)
        + wl.output_len.saturating_sub(1) as f64 * roof.weight_read_s;
    if below(report.total_time(), floor) {
        fails.push(format!(
            "e2e-roofline: run {:.6}s < prefill + decode floor {floor:.6}s",
            report.total_time()
        ));
    }
    let records = report.timeline.records();
    let fastest = records
        .iter()
        .filter(|r| r.step > 0)
        .map(|r| r.total_time())
        .fold(f64::INFINITY, f64::min);
    if below(fastest, roof.weight_read_s) {
        fails.push(format!(
            "decode-roofline: fastest decode step {:.6}s < weight read {:.6}s",
            fastest, roof.weight_read_s
        ));
    }
    fails
}

/// Figure 9's throughput must account for exactly the batch's output
/// tokens over the run's total time.
pub fn throughput_identity(tok_per_s: f64, total_s: f64, tokens: usize) -> Option<String> {
    let tokens = tokens as f64;
    let product = tok_per_s * total_s;
    ((product - tokens).abs() > 1e-6 * tokens).then(|| {
        format!(
            "throughput-identity: throughput x time = {product:.3} != batch x output = {tokens}"
        )
    })
}

/// Per-trace facts the serving checks need.
#[derive(Debug, Clone)]
pub struct TraceFacts {
    pub prompt: Vec<usize>,
    pub output: Vec<usize>,
    /// Sum of `Trace::prefix_lens`: the most prefix KV any run can
    /// reuse.
    pub reusable_tokens: u64,
}

impl TraceFacts {
    pub fn new(trace: &Trace) -> Self {
        TraceFacts {
            prompt: trace.entries().iter().map(|e| e.prompt_len).collect(),
            output: trace.entries().iter().map(|e| e.output_len).collect(),
            reusable_tokens: trace.prefix_lens().iter().map(|&p| p as u64).sum(),
        }
    }

    pub fn len(&self) -> usize {
        self.prompt.len()
    }
}

/// Conservation and retention checks on one serving report.
pub fn serve_report(r: &ServeReport, facts: &TraceFacts) -> Vec<String> {
    let mut fails = Vec::new();
    let n = facts.len();
    if r.arrived != n || r.admitted + r.rejected != n {
        fails.push(format!(
            "conservation: arrived {} admitted {} rejected {} for {n} requests",
            r.arrived, r.admitted, r.rejected
        ));
    }
    if r.completed != r.admitted {
        fails.push(format!(
            "completion: completed {} != admitted {}",
            r.completed, r.admitted
        ));
    }
    if let Some(reuse) = &r.reuse {
        if reuse.reused_tokens > facts.reusable_tokens {
            fails.push(format!(
                "retention: reused {} tokens > reusable prefixes {}",
                reuse.reused_tokens, facts.reusable_tokens
            ));
        }
    }
    fails
}

/// The memory check on one replica's report: its peak reservation fits
/// its budget, and the budget fits beside the weights.
pub fn memory(r: &ServeReport, budget: u64, roof: &Roofline) -> Option<String> {
    (r.peak_kv_bytes > budget || budget > roof.kv_cap).then(|| {
        format!(
            "memory: peak reserved {} B, budget {budget} B, GPU minus weights {} B",
            r.peak_kv_bytes, roof.kv_cap
        )
    })
}

/// A `TraceSink` that checks the event stream as it is emitted, so a
/// 40k-request run is checked without holding its events.
#[derive(Debug)]
pub struct EventChecker<'a> {
    roof: Roofline,
    facts: &'a TraceFacts,
    /// Most prefix tokens any admission of each request reused.
    max_reused: Vec<usize>,
    /// Prefill floor of the admissions since each replica's last step.
    pending_prefill_s: Vec<f64>,
    pub finished: usize,
    errors: Vec<String>,
    error_count: usize,
}

impl<'a> EventChecker<'a> {
    pub fn new(roof: Roofline, facts: &'a TraceFacts, replicas: usize) -> Self {
        EventChecker {
            roof,
            facts,
            max_reused: vec![0; facts.len()],
            pending_prefill_s: vec![0.0; replicas.max(1)],
            finished: 0,
            errors: Vec::new(),
            error_count: 0,
        }
    }

    fn error(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() < 3 {
            self.errors.push(msg);
        }
    }

    fn new_tokens(&self, req: usize) -> usize {
        self.facts.prompt[req]
            .saturating_sub(self.max_reused[req])
            .max(1)
    }

    /// The failed checks, the first few of each stream quoted.
    pub fn finish(self) -> Vec<String> {
        let mut out = self.errors;
        if self.error_count > out.len() {
            out.push(format!(
                "events: {} more violations",
                self.error_count - out.len()
            ));
        }
        out
    }
}

impl TraceSink for EventChecker<'_> {
    fn emit(&mut self, e: &Event) {
        let lane = e.replica.unwrap_or(0);
        match &e.kind {
            EventKind::Admitted {
                reserved_after,
                budget,
                reused_prefix,
                ..
            } => {
                if *reserved_after > *budget || *budget > self.roof.kv_cap {
                    self.error(format!(
                        "memory: admission reserved {reserved_after} B of budget {budget} B \
                         (GPU minus weights {} B)",
                        self.roof.kv_cap
                    ));
                }
                let Some(req) = e.request.filter(|&r| r < self.facts.len()) else {
                    self.error("events: admission of an unknown request".to_string());
                    return;
                };
                self.max_reused[req] = self.max_reused[req].max(*reused_prefix);
                let floor = self.roof.prefill_floor(self.new_tokens(req));
                self.pending_prefill_s[lane] += floor;
            }
            EventKind::Step {
                dur_s,
                prefills,
                decodes,
                ..
            } => {
                if prefills + decodes > 0 && below(*dur_s, self.roof.weight_read_s) {
                    self.error(format!(
                        "decode-roofline: step {dur_s:.6}s < weight read {:.6}s",
                        self.roof.weight_read_s
                    ));
                }
                if *prefills > 0 && below(*dur_s, self.pending_prefill_s[lane]) {
                    self.error(format!(
                        "prefill-roofline: step {dur_s:.6}s < prompt FLOPs at peak {:.6}s",
                        self.pending_prefill_s[lane]
                    ));
                }
                self.pending_prefill_s[lane] = 0.0;
            }
            EventKind::Finished { generated, e2e_s } => {
                self.finished += 1;
                let Some(req) = e.request.filter(|&r| r < self.facts.len()) else {
                    self.error("events: completion of an unknown request".to_string());
                    return;
                };
                let out = self.facts.output[req];
                if *generated != out {
                    self.error(format!(
                        "completion: request {req} generated {generated} of {out} tokens"
                    ));
                }
                let floor = self.roof.prefill_floor(self.new_tokens(req))
                    + out.saturating_sub(1) as f64 * self.roof.weight_read_s;
                if below(*e2e_s, floor) {
                    self.error(format!(
                        "e2e-roofline: request {req} e2e {e2e_s:.6}s < prefill + decode floor {floor:.6}s"
                    ));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each check must reject a deliberately corrupted output.
    use super::*;
    use alisa_sched::{InferenceSystem, VllmScheduler, Workload};
    use alisa_serve::{AdmissionPolicy, ArrivalProcess, ServeConfig, ServeEngine};
    use alisa_workloads::LengthModel;

    fn opt() -> (ModelConfig, HardwareSpec, Roofline) {
        let model = ModelConfig::opt_6_7b();
        let hw = HardwareSpec::v100_16gb();
        let roof = Roofline::new(&model, &hw);
        (model, hw, roof)
    }

    fn offline() -> (RunReport, Roofline) {
        let (model, hw, roof) = opt();
        let r = VllmScheduler::new().run(&model, &hw, &Workload::new(4, 128, 32));
        assert!(r.outcome.is_completed());
        (r, roof)
    }

    #[test]
    fn offline_report_passes_untouched() {
        let (r, roof) = offline();
        assert_eq!(offline_report(&r, &roof), Vec::<String>::new());
    }

    fn has(fails: &[String], check: &str) -> bool {
        fails.iter().any(|f| f.starts_with(check))
    }

    #[test]
    fn offline_checks_reject_corruption() {
        let (r, roof) = offline();
        let mut fast_decode = r.clone();
        let mut records = fast_decode.timeline.records().to_vec();
        records[3].mha_time = 0.0;
        records[3].ffn_time = 1e-6;
        fast_decode.timeline = alisa_memsim::Timeline::new();
        for rec in records.iter() {
            fast_decode.timeline.push(*rec);
        }
        let fails = offline_report(&fast_decode, &roof);
        assert!(has(&fails, "decode-roofline"), "{fails:?}");
        let (tps, secs, tokens) = (r.throughput(), r.total_time(), 4 * 32);
        assert!(throughput_identity(tps, secs, tokens).is_none());
        assert!(throughput_identity(tps * 1.01, secs, tokens).is_some());
        assert!(throughput_identity(tps, secs, tokens + 1).is_some());
        let mut fast_run = r.clone();
        let mut records = fast_run.timeline.records().to_vec();
        records.truncate(2);
        fast_run.timeline = alisa_memsim::Timeline::new();
        for rec in records.iter() {
            fast_run.timeline.push(*rec);
        }
        assert!(has(&offline_report(&fast_run, &roof), "e2e-roofline"));
    }

    fn served() -> (Trace, ServeEngine, ServeReport) {
        let (model, hw, _) = opt();
        let trace = Trace::generate(
            &ArrivalProcess::Poisson { rate: 2.0 },
            &LengthModel::alpaca().with_max_output(32),
            40,
            7,
        );
        let engine = ServeEngine::new(ServeConfig::new(model, hw, AdmissionPolicy::alisa()));
        let report = engine.run(&trace);
        (trace, engine, report)
    }

    #[test]
    fn serve_report_checks_reject_corruption() {
        let (trace, engine, r) = served();
        let facts = TraceFacts::new(&trace);
        let (_, _, roof) = opt();
        let budget = engine.kv_budget();
        assert!(serve_report(&r, &facts).is_empty());
        assert!(memory(&r, budget, &roof).is_none());
        let mut lost = r.clone();
        lost.completed -= 1;
        assert!(has(&serve_report(&lost, &facts), "completion"));
        let mut dropped = r.clone();
        dropped.admitted -= 1;
        dropped.completed -= 1;
        assert!(has(&serve_report(&dropped, &facts), "conservation"));
        let mut over = r.clone();
        over.peak_kv_bytes = budget + 1;
        assert!(memory(&over, budget, &roof).is_some());
        let mut reused = r.clone();
        reused.reuse = Some(alisa_serve::ReuseStats {
            reused_tokens: facts.reusable_tokens + 1,
            ..Default::default()
        });
        assert!(has(&serve_report(&reused, &facts), "retention"));
    }

    /// Replays a real event stream through the checker after `corrupt`
    /// edits it.
    fn replay(corrupt: impl Fn(&mut Event)) -> Vec<String> {
        let (trace, engine, _) = served();
        let facts = TraceFacts::new(&trace);
        let (_, _, roof) = opt();
        let mut sink = alisa_obs::MemorySink::new();
        let _ = engine.run_traced(&trace, &mut sink);
        let mut checker = EventChecker::new(roof, &facts, 1);
        for e in sink.events() {
            let mut e = e.clone();
            corrupt(&mut e);
            checker.emit(&e);
        }
        checker.finish()
    }

    #[test]
    fn event_checks_reject_corruption() {
        assert_eq!(replay(|_| {}), Vec::<String>::new());
        let fast_steps = replay(|e| {
            if let EventKind::Step { dur_s, .. } = &mut e.kind {
                *dur_s *= 0.5;
            }
        });
        assert!(has(&fast_steps, "decode-roofline"), "{fast_steps:?}");
        let fast_prefill = replay(|e| {
            if let EventKind::Step {
                dur_s, prefills, ..
            } = &mut e.kind
            {
                if *prefills > 0 {
                    *dur_s = 1e-9;
                }
            }
        });
        assert!(has(&fast_prefill, "prefill-roofline"), "{fast_prefill:?}");
        let fast_e2e = replay(|e| {
            if let EventKind::Finished { e2e_s, .. } = &mut e.kind {
                *e2e_s *= 0.1;
            }
        });
        assert!(has(&fast_e2e, "e2e-roofline"), "{fast_e2e:?}");
        let short = replay(|e| {
            if let EventKind::Finished { generated, .. } = &mut e.kind {
                *generated -= 1;
            }
        });
        assert!(has(&short, "completion"), "{short:?}");
        let overbooked = replay(|e| {
            if let EventKind::Admitted {
                reserved_after,
                budget,
                ..
            } = &mut e.kind
            {
                *reserved_after = *budget + 1;
            }
        });
        assert!(has(&overbooked, "memory"), "{overbooked:?}");
    }
}
