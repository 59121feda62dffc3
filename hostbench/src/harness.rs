//! What every workload shares: round kinds, the per-operation wrapper
//! (timing, span, panic capture, profiler nesting check) and the
//! determinism ledger.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use alisa_obs::profile::{self, ProfileReport};

use crate::spans::Recorder;

/// How one round runs its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundKind {
    /// Untraced public calls: the end-to-end measurement.
    Plain,
    /// `alisa_obs::profile` enabled around the same calls.
    Profiled,
    /// The same calls with a `MemorySink` collecting every event.
    Events,
    /// `accuracy_swa` only: `evaluate_lm` replayed as its two public
    /// halves (`generate` for the teacher text, `score_sequence` per
    /// method) so each half is timed on its own.
    Split,
    /// The check pass after the clock stops: serving runs stream their
    /// events into the benchmark's checking sink.
    Checked,
}

impl RoundKind {
    pub fn name(self) -> &'static str {
        match self {
            RoundKind::Plain => "plain",
            RoundKind::Profiled => "profiled",
            RoundKind::Events => "events",
            RoundKind::Split => "split",
            RoundKind::Checked => "checked",
        }
    }
}

/// One operation's outcome: its name and every check it failed.
#[derive(Debug, Clone)]
pub struct OpResult {
    pub name: String,
    pub failures: Vec<String>,
}

/// One round: a fixed list of operations, the simulated requests they
/// completed, the host seconds they took, and the per-layer values the
/// round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub ops: Vec<OpResult>,
    pub requests: u64,
    pub host_s: f64,
    /// Per-layer values measured by this round (kind-dependent).
    pub layer: Vec<(&'static str, f64)>,
    /// Sum over operations of the profiler's phase totals, nanoseconds
    /// per phase (only filled while the profiler is on).
    pub phase_ns: [u64; 8],
    pub phase_calls: [u64; 8],
}

/// Index of a profiler phase in `alisa_obs::profile::PHASES` order.
pub fn phase_index(p: profile::Phase) -> usize {
    profile::PHASES
        .iter()
        .position(|&q| q == p)
        .expect("every phase is listed in PHASES")
}

impl Round {
    pub fn phase_s(&self, p: profile::Phase) -> f64 {
        self.phase_ns[phase_index(p)] as f64 * 1e-9
    }

    pub fn phase_calls(&self, p: profile::Phase) -> u64 {
        self.phase_calls[phase_index(p)]
    }

    /// Runs one operation: times it, records its span, captures a
    /// panic as a failure, and, while the profiler is on, checks that
    /// the phases it recorded fit inside the operation's own span.
    /// Returns the output (if it did not panic), its host seconds, and
    /// the index of its [`OpResult`] for later checks.
    pub fn op<T>(
        &mut self,
        rec: &mut Recorder,
        name: &str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (Option<T>, f64, usize) {
        let profiled = profile::is_enabled();
        let before = profiled.then(|| ProfileReport::capture(0));
        let span = rec.open(name, true);
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| f(rec)));
        let secs = t.elapsed().as_secs_f64();
        rec.close(span);
        self.host_s += secs;
        let mut failures = Vec::new();
        if let Some(before) = before {
            let after = ProfileReport::capture(0);
            let mut sum = 0u64;
            for (i, ((_, b_ns, b_calls), (_, a_ns, a_calls))) in
                before.phases.iter().zip(after.phases.iter()).enumerate()
            {
                self.phase_ns[i] += a_ns - b_ns;
                self.phase_calls[i] += a_calls - b_calls;
                sum += a_ns - b_ns;
            }
            if sum as f64 * 1e-9 > secs {
                failures.push(format!(
                    "profile-nesting: phases sum {:.6}s > span {secs:.6}s",
                    sum as f64 * 1e-9
                ));
            }
        }
        if out.is_err() {
            failures.push("panic".to_string());
        }
        self.ops.push(OpResult {
            name: name.to_string(),
            failures,
        });
        (out.ok(), secs, self.ops.len() - 1)
    }

    /// Records a failed check against operation `idx`.
    pub fn fail(&mut self, idx: usize, check: String) {
        self.ops[idx].failures.push(check);
    }

    /// Records every failed check in `checks` against operation `idx`.
    pub fn fail_all(&mut self, idx: usize, checks: Vec<String>) {
        self.ops[idx].failures.extend(checks);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// The first simulated outcome seen for each operation name. Every
/// later run of the same operation, traced or not, must reproduce it
/// bit for bit: a simulator is a pure function of its inputs.
#[derive(Debug, Default)]
pub struct Ledger {
    seen: RefCell<HashMap<String, Vec<u64>>>,
}

impl Ledger {
    /// `Err` names the first differing position when `fingerprint`
    /// disagrees with the one recorded for `op`.
    pub fn check(&self, op: &str, fingerprint: Vec<u64>) -> Result<(), String> {
        let mut seen = self.seen.borrow_mut();
        match seen.get(op) {
            None => {
                seen.insert(op.to_string(), fingerprint);
                Ok(())
            }
            Some(first) if *first == fingerprint => Ok(()),
            Some(first) => {
                let at = first
                    .iter()
                    .zip(&fingerprint)
                    .position(|(a, b)| a != b)
                    .unwrap_or(first.len().min(fingerprint.len()));
                Err(format!(
                    "determinism: outcome field {at} differs from the first run"
                ))
            }
        }
    }
}

/// A workload: set up once per process, then run in rounds.
pub trait Bench {
    /// The round kinds a traced run cycles through (always starting
    /// with [`RoundKind::Plain`]).
    fn trace_kinds(&self) -> &'static [RoundKind];
    /// Runs one round of this workload's operations.
    fn round(&self, kind: RoundKind, rec: &mut Recorder) -> Round;
    /// Whether a failure is the known fault this benchmark keeps in.
    fn is_known_fault(&self, _op: &OpResult) -> bool {
        false
    }
    /// The per-layer values measured during set-up.
    fn setup_layer(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
