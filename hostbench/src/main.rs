//! Host wall time per simulated request, end to end and per layer.
//!
//! ```sh
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload engine_open --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One process sets a workload up from `--seed`, then runs whole rounds
//! of the workload's operations, one after another on one thread, until
//! `--seconds` have passed. It then repeats the set-up cold, each time on
//! a fresh thread; the median set-up is `setup_s`. Every operation's output is checked; a check pass after the
//! clock stops streams the serving runs' events through the
//! benchmark's own checking sink. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, every
//! per-layer metric with `--trace 1`. See `hostbench/README.md`.

mod accuracy_swa;
mod checks;
mod engine_open;
mod fleet_sessions;
mod harness;
mod offline_paper;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use alisa_obs::profile::{self, Phase};
use harness::{median, Bench, Round, RoundKind};
use spans::Recorder;

/// Cold set-ups per process; `setup_s` is their median.
const SETUPS: usize = 5;

/// Every per-layer metric a traced run prints, with its unit. A
/// workload that does not exercise a layer prints 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.trace_gen_s", "s"),
    ("serve.engine_run_s", "s"),
    ("serve.step_pricing_s", "s"),
    ("serve.token_accounting_s", "s"),
    ("serve.discipline_s", "s"),
    ("serve.event_scan_s", "s"),
    ("serve.report_s", "s"),
    ("serve.ns_per_step", "ns"),
    ("serve.steps", "count"),
    ("serve.preemptions", "count"),
    ("serve.mean_batch", "count"),
    ("serve.peak_queue_depth", "count"),
    ("router.run_s", "s"),
    ("router.dispatch_s", "s"),
    ("router.dispatches", "count"),
    ("router.requeues", "count"),
    ("router.scale_ups", "count"),
    ("router.drains", "count"),
    ("router.failures", "count"),
    ("router.recovered", "count"),
    ("kvcache.retention_hits", "count"),
    ("kvcache.retention_evictions", "count"),
    ("kvcache.reused_tokens", "count"),
    ("kvcache.retention_hit_rate", "ratio"),
    ("core.plan_search_s", "s"),
    ("sched.alisa_sim_s", "s"),
    ("sched.baseline_sim_s", "s"),
    ("sched.topk_s", "s"),
    ("sched.us_per_sim_run", "us"),
    ("sched.sim_runs", "count"),
    ("sched.topk_calls", "count"),
    ("model.teacher_gen_s", "s"),
    ("model.score_dense_s", "s"),
    ("model.score_swa_s", "s"),
    ("model.score_swa_int8_s", "s"),
    ("model.score_local_s", "s"),
    ("model.us_per_token", "us"),
    ("model.tokens", "count"),
    ("attention.swa_vs_dense", "ratio"),
    ("attention.kv_sparsity", "ratio"),
    ("tensor.int8_vs_fp", "ratio"),
    ("obs.profile_overhead", "ratio"),
    ("obs.profile_coverage", "ratio"),
    ("obs.event_trace_overhead", "ratio"),
    ("obs.events", "count"),
    ("sim.goodput_rps", "1/s"),
    ("sim.ttft_p99_s", "s"),
    ("sim.tbt_p99_s", "s"),
    ("sim.goodput_per_replica_hour", "1/h"),
    ("sim.mean_replicas_up", "count"),
    ("sim.peak_replicas_up", "count"),
    ("sim.alisa_tok_per_s", "tok/s"),
    ("sim.alisa_vs_vllm_b64", "ratio"),
    ("sim.ppl_swa_int8_vs_dense", "ratio"),
    ("sim.ppl_local_vs_dense", "ratio"),
];

/// Profiler phases reported per layer, from the profiled rounds.
const PHASE_METRICS: &[(&str, Phase)] = &[
    ("serve.step_pricing_s", Phase::Pricing),
    ("serve.token_accounting_s", Phase::Accounting),
    ("serve.discipline_s", Phase::Discipline),
    ("serve.event_scan_s", Phase::EventScan),
    ("serve.report_s", Phase::Report),
    ("router.dispatch_s", Phase::Dispatch),
    ("sched.topk_s", Phase::TopK),
];

const WORKLOADS: &[&str] = &[
    "engine_open",
    "fleet_sessions",
    "offline_paper",
    "accuracy_swa",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `fleet_sessions` only: the router's step threads. The benchmark
    /// runs at 1; other values reproduce the README's threading figure.
    step_threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut step_threads = 1;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--step-threads" => {
                step_threads = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=8).contains(n))
                    .ok_or("--step-threads must be in 1..=8")?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        step_threads,
    })
}

fn setup(args: &Args, rec: &mut Recorder) -> Box<dyn Bench> {
    let seed = args.seed;
    match args.workload.as_str() {
        "engine_open" => Box::new(engine_open::EngineOpen::setup(seed, rec)),
        "fleet_sessions" => Box::new(fleet_sessions::FleetSessions::setup(
            seed,
            args.step_threads,
            rec,
        )),
        "offline_paper" => Box::new(offline_paper::OfflinePaper::setup(seed, rec)),
        "accuracy_swa" => Box::new(accuracy_swa::AccuracySwa::setup(seed, rec)),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The process's peak resident set so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median over the rounds that measured `name`.
fn layer_median(rounds: &[Round], name: &str) -> Option<f64> {
    let values: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.layer.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v))
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

fn host_median(rounds: &[Round], kind: RoundKind, all: &[RoundKind]) -> Option<f64> {
    let v: Vec<f64> = rounds
        .iter()
        .zip(all)
        .filter(|(_, k)| **k == kind)
        .map(|(r, _)| r.host_s)
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

fn per_layer(
    setup_layers: &[Vec<(&'static str, f64)>],
    rounds: &[Round],
    kinds: &[RoundKind],
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        if let Some(v) = layer_median(rounds, name) {
            m.insert(name, v);
        }
    }
    // Set-up values: the median over the cold set-ups.
    let mut from_setup: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, v) in setup_layers.iter().flatten() {
        from_setup.entry(name).or_default().push(*v);
    }
    for (name, v) in from_setup {
        m.insert(name, median(&v));
    }
    let profiled: Vec<&Round> = rounds
        .iter()
        .zip(kinds)
        .filter(|(_, k)| **k == RoundKind::Profiled)
        .map(|(r, _)| r)
        .collect();
    if !profiled.is_empty() {
        for &(name, phase) in PHASE_METRICS {
            let v: Vec<f64> = profiled.iter().map(|r| r.phase_s(phase)).collect();
            m.insert(name, median(&v));
        }
        let calls: Vec<f64> = profiled
            .iter()
            .map(|r| r.phase_calls(Phase::TopK) as f64)
            .collect();
        m.insert("sched.topk_calls", median(&calls));
        let coverage: Vec<f64> = profiled
            .iter()
            .map(|r| r.phase_ns.iter().sum::<u64>() as f64 * 1e-9 / r.host_s)
            .collect();
        m.insert("obs.profile_coverage", median(&coverage));
    }
    let plain = host_median(rounds, RoundKind::Plain, kinds);
    let ratio = |kind| match (host_median(rounds, kind, kinds), plain) {
        (Some(k), Some(p)) if p > 0.0 => Some(k / p),
        _ => None,
    };
    if let Some(r) = ratio(RoundKind::Profiled) {
        m.insert("obs.profile_overhead", r);
    }
    if let Some(r) = ratio(RoundKind::Events) {
        m.insert("obs.event_trace_overhead", r);
    }
    // Derived unit costs, from untraced host time over counted work.
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let steps = get(&m, "serve.steps");
    let run_s = get(&m, "serve.engine_run_s") + get(&m, "router.run_s");
    if steps > 0.0 {
        m.insert("serve.ns_per_step", run_s / steps * 1e9);
    }
    let sim_runs = get(&m, "sched.sim_runs");
    if sim_runs > 0.0 {
        // The plan search's own candidate runs are not visible from
        // outside, so it is left out: `core.plan_search_s` covers it.
        let s = get(&m, "sched.alisa_sim_s") + get(&m, "sched.baseline_sim_s");
        m.insert("sched.us_per_sim_run", s / sim_runs * 1e6);
    }
    let tokens = get(&m, "model.tokens");
    if let (true, Some(p)) = (tokens > 0.0, plain) {
        m.insert("model.us_per_token", p / tokens * 1e6);
    }
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("hostbench: non-finite metric replaced by 0");
        "0".to_string()
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut rec = Recorder::new(args.trace, process_start);

    // ---- Set-up: inputs from the seed plus a warm-up operation, on the
    // main thread, kept for the timed phase.
    let t = Instant::now();
    let span = rec.open("setup 0 (main thread)", false);
    let bench = setup(&args, &mut rec);
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    rec.close(span);
    let mut setup_layers: Vec<Vec<(&'static str, f64)>> = vec![bench.setup_layer()];

    // ---- Timed phase: whole rounds (whole cycles of round kinds when
    // traced) until the run length has passed.
    let kinds: &[RoundKind] = if args.trace {
        bench.trace_kinds()
    } else {
        &[RoundKind::Plain]
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut round_kinds: Vec<RoundKind> = Vec::new();
    let timed = Instant::now();
    loop {
        for &kind in kinds {
            profile::reset();
            profile::set_enabled(kind == RoundKind::Profiled);
            let span = rec.open(&format!("round {} ({})", rounds.len(), kind.name()), false);
            let round = bench.round(kind, &mut rec);
            rec.close(span);
            profile::set_enabled(false);
            rounds.push(round);
            round_kinds.push(kind);
        }
        if timed.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rss = peak_rss_mib();

    // ---- Repeat set-ups, after the peak resident set is read so that
    // it stays that of one set-up plus the timed phase. Each starts
    // cold, as the first did: it runs on a fresh thread (whose
    // thread-local caches, such as the corpus Zipf tables, and whose
    // allocator arena start empty) and is dropped there.
    for i in 1..SETUPS {
        let (secs, layer) = std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(format!("setup-{i}"))
                .stack_size(8 << 20)
                .spawn_scoped(s, || {
                    let t = Instant::now();
                    let span = rec.open(&format!("setup {i} (fresh thread)"), false);
                    let bench = setup(&args, &mut rec);
                    let secs = t.elapsed().as_secs_f64();
                    rec.close(span);
                    (secs, bench.setup_layer())
                })
                .expect("spawn a set-up thread")
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e))
        });
        setup_times.push(secs);
        setup_layers.push(layer);
    }
    let setup_s = median(&setup_times);

    // ---- Check pass, after the clock stops.
    let span = rec.open("check pass", false);
    let checked = bench.round(RoundKind::Checked, &mut rec);
    rec.close(span);

    // ---- Accounting.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut unexpected = 0u64;
    let mut failures: BTreeMap<(String, String), u64> = BTreeMap::new();
    for round in rounds.iter().chain(std::iter::once(&checked)) {
        for op in &round.ops {
            attempted += 1;
            if op.failures.is_empty() {
                continue;
            }
            failed += 1;
            if !bench.is_known_fault(op) {
                unexpected += 1;
            }
            for f in &op.failures {
                *failures.entry((op.name.clone(), f.clone())).or_default() += 1;
            }
        }
    }
    let plain_rounds: Vec<&Round> = rounds
        .iter()
        .zip(&round_kinds)
        .filter(|(_, k)| **k == RoundKind::Plain)
        .map(|(r, _)| r)
        .collect();
    let plain: Vec<f64> = plain_rounds
        .iter()
        .map(|r| r.requests as f64 / r.host_s)
        .collect();
    let req_per_host_s = plain_rounds.iter().map(|r| r.requests).sum::<u64>() as f64
        / plain_rounds.iter().map(|r| r.host_s).sum::<f64>();

    eprintln!(
        "hostbench {}: seed {} | {} rounds in {:.2}s | set-ups {:?} s | {attempted} operations attempted, {failed} failed ({unexpected} unexpected)",
        args.workload,
        args.seed,
        rounds.len(),
        timed.elapsed().as_secs_f64(),
        setup_times
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "  round throughput (req/s, plain rounds in order): {}",
        plain
            .iter()
            .map(|v| format!("{v:.4e}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    for ((op, check), count) in &failures {
        eprintln!("  FAILED {op} x{count}: {check}");
    }

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let m = per_layer(&setup_layers, &rounds, &round_kinds);
        for &(name, unit) in PER_LAYER {
            let v = m.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<30} {v:>16.6} {unit}");
            metrics.push((name, unit, v));
        }
        std::fs::create_dir_all(".bench_out").ok();
        let path = format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed);
        match std::fs::write(&path, rec.chrome_trace()) {
            Ok(()) => eprintln!("  spans: {} written to {path}", rec.spans().len()),
            Err(e) => eprintln!("  spans: could not write {path}: {e}"),
        }
    } else {
        metrics.push(("req_per_host_s", "1/s", req_per_host_s));
        metrics.push(("setup_s", "s", setup_s));
        metrics.push(("peak_rss_mib", "MiB", rss));
        for (name, unit, v) in &metrics {
            eprintln!("  {name:<16} {v:>14.6} {unit}");
        }
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        unexpected == 0
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    out.push_str("}}");
    println!("{out}");
    if unexpected > 0 {
        std::process::exit(1);
    }
}
