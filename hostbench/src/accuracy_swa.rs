//! `accuracy_swa`: `evaluate_lm` on `tiny_4l` (OPT-6.7B attention
//! concentration) at 80% KV sparsity under dense, SWA, SWA+INT8 (ALISA)
//! and local attention, plus SWA at 0% sparsity. The only workload where
//! the tensor, attention and model crates do real arithmetic.

use alisa::Alisa;
use alisa_attention::policy::PolicyKind;
use alisa_model::engine::{generate, score_sequence, GenerationConfig};
use alisa_model::{ModelConfig, TinyTransformer};
use alisa_sched::common::mix64;
use alisa_tensor::quant::QuantBits;
use alisa_workloads::{evaluate_lm, CorpusSpec, Dataset, LmResult};

use crate::harness::{Bench, Ledger, Round, RoundKind};
use crate::spans::Recorder;

/// Sequences per `evaluate_lm` call.
pub const SEQS: usize = 2;
pub const PROMPT_LEN: usize = 16;
pub const SEQ_LEN: usize = 256;
pub const SPARSITY: f32 = 0.8;
/// The most SWA+INT8 perplexity may exceed SWA's, as a share of SWA's
/// (INT8 KV storage is accuracy-neutral in the paper).
pub const INT8_MARGIN: f64 = 0.02;

/// The methods, in the order each round runs them.
const METHODS: [(&str, PolicyKind, f32, bool); 5] = [
    ("dense", PolicyKind::Dense, 0.0, false),
    ("swa", PolicyKind::Swa, SPARSITY, false),
    ("swa+int8", PolicyKind::Swa, SPARSITY, true),
    ("local", PolicyKind::Local, SPARSITY, false),
    ("swa@0", PolicyKind::Swa, 0.0, false),
];

/// Per-layer time metric of each method's scoring half, when timed.
const SCORE_METRIC: [Option<&str>; 5] = [
    Some("model.score_dense_s"),
    Some("model.score_swa_s"),
    Some("model.score_swa_int8_s"),
    Some("model.score_local_s"),
    None,
];

pub struct AccuracySwa {
    model: TinyTransformer,
    corpus: CorpusSpec,
    ledger: Ledger,
}

fn config(kind: PolicyKind, sparsity: f32, int8: bool) -> GenerationConfig {
    GenerationConfig {
        kv_quant: int8.then_some(QuantBits::Int8),
        ..GenerationConfig::default().with_policy(kind, sparsity)
    }
}

impl AccuracySwa {
    pub fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let model = rec.span("Alisa::functional_model", |_| {
            Alisa::builder()
                .build()
                .functional_model(&ModelConfig::opt_6_7b())
        });
        let cfg = model.config();
        let mut corpus = Dataset::WikiText2.spec(
            cfg.vocab_size,
            model.init_spec().anchor_count(cfg.vocab_size),
        );
        corpus.seed = mix64(corpus.seed ^ seed);
        let bench = AccuracySwa {
            model,
            corpus,
            ledger: Ledger::default(),
        };
        rec.span("warm-up evaluate_lm", |_| {
            std::hint::black_box(evaluate_lm(
                &bench.model,
                &bench.corpus,
                &config(PolicyKind::Swa, SPARSITY, true),
                SEQS,
                PROMPT_LEN,
                SEQ_LEN,
            ))
        });
        bench
    }

    /// `evaluate_lm` as its two public halves, timed apart: the dense
    /// teacher text (`generate`, exactly as `evaluate_lm` seeds it), then
    /// `score_sequence` under the method. Returns the result, the
    /// seconds of each half, and the tokens that passed through the
    /// model (prompt plus generated tokens, then the scored text).
    fn split(&self, cfg: &GenerationConfig, rec: &mut Recorder) -> (LmResult, f64, f64, usize) {
        let teacher_cfg = GenerationConfig {
            max_new_tokens: SEQ_LEN - PROMPT_LEN,
            greedy: false,
            temperature: 0.9,
            ..GenerationConfig::default()
        };
        let (mut teacher_s, mut score_s) = (0.0, 0.0);
        let mut total_nll = 0.0f64;
        let mut total_tokens = 0usize;
        let mut through_model = 0usize;
        for i in 0..SEQS {
            let prompt = self.corpus.sequence(i, PROMPT_LEN);
            let t = std::time::Instant::now();
            let teacher = rec.span("generate", |_| {
                generate(
                    &self.model,
                    &prompt,
                    &GenerationConfig {
                        seed: i as u64,
                        ..teacher_cfg
                    },
                )
            });
            teacher_s += t.elapsed().as_secs_f64();
            through_model += prompt.len() + teacher.tokens.len();
            let mut text = prompt;
            text.extend(&teacher.tokens);
            let t = std::time::Instant::now();
            let score = rec.span("score_sequence", |_| {
                score_sequence(&self.model, &text, PROMPT_LEN, cfg)
            });
            score_s += t.elapsed().as_secs_f64();
            through_model += text.len();
            total_nll += score.nll.iter().map(|&x| x as f64).sum::<f64>();
            total_tokens += score.nll.len();
        }
        let mean = (total_nll / total_tokens as f64) as f32;
        let result = LmResult {
            perplexity: mean.exp(),
            mean_nll: mean,
            sequences: SEQS,
        };
        (result, teacher_s, score_s, through_model)
    }
}

impl Bench for AccuracySwa {
    fn trace_kinds(&self) -> &'static [RoundKind] {
        &[RoundKind::Plain, RoundKind::Profiled, RoundKind::Split]
    }

    fn round(&self, kind: RoundKind, rec: &mut Recorder) -> Round {
        let mut r = Round::default();
        let mut ppl: [Option<f64>; 5] = [None; 5];
        let mut idx = [0usize; 5];
        let mut teacher_s = 0.0;
        let mut score_s = [0.0f64; 5];
        let mut tokens = 0usize;
        for (m, &(name, kind_m, sparsity, int8)) in METHODS.iter().enumerate() {
            let cfg = config(kind_m, sparsity, int8);
            let (out, _, i) = if kind == RoundKind::Split {
                let (out, secs, i) = r.op(rec, name, |rec| self.split(&cfg, rec));
                let out = out.map(|(res, t, s, n)| {
                    teacher_s += t;
                    score_s[m] = s;
                    tokens += n;
                    res
                });
                (out, secs, i)
            } else {
                r.op(rec, name, |_| {
                    evaluate_lm(&self.model, &self.corpus, &cfg, SEQS, PROMPT_LEN, SEQ_LEN)
                })
            };
            idx[m] = i;
            let Some(res) = out else { continue };
            let p = res.perplexity as f64;
            if !(p.is_finite() && p >= 1.0) || res.sequences != SEQS {
                r.fail(
                    i,
                    format!("perplexity: {p} over {} sequences", res.sequences),
                );
            }
            // The split replay shares the op name, so this also pins it
            // bit for bit to `evaluate_lm`.
            if let Err(e) = self.ledger.check(
                name,
                vec![
                    res.perplexity.to_bits() as u64,
                    res.mean_nll.to_bits() as u64,
                ],
            ) {
                r.fail(i, e);
            }
            r.requests += res.sequences as u64;
            ppl[m] = Some(p);
        }
        let [dense, swa, int8, local, swa0] = ppl;
        if let (Some(swa), Some(local)) = (swa, local) {
            if swa >= local {
                r.fail(idx[1], format!("ordering: SWA {swa} >= local {local}"));
            }
        }
        if let (Some(swa), Some(int8)) = (swa, int8) {
            if int8 > swa * (1.0 + INT8_MARGIN) {
                r.fail(
                    idx[2],
                    format!("int8-margin: SWA+INT8 {int8} > SWA {swa} + {INT8_MARGIN}"),
                );
            }
        }
        if let (Some(dense), Some(swa0)) = (dense, swa0) {
            if dense.to_bits() != swa0.to_bits() {
                r.fail(
                    idx[4],
                    format!("dense-identity: SWA at 0% {swa0} != dense {dense}"),
                );
            }
        }
        if let (Some(dense), Some(int8), Some(local)) = (dense, int8, local) {
            r.layer("sim.ppl_swa_int8_vs_dense", int8 / dense);
            r.layer("sim.ppl_local_vs_dense", local / dense);
        }
        if kind == RoundKind::Split {
            r.layer("model.teacher_gen_s", teacher_s);
            for (metric, s) in SCORE_METRIC.iter().zip(score_s) {
                if let Some(metric) = metric {
                    r.layer(metric, s);
                }
            }
            // Counted from the split replay's outputs, which the ledger
            // pins to `evaluate_lm`'s.
            r.layer("model.tokens", tokens as f64);
            if score_s[0] > 0.0 && score_s[1] > 0.0 {
                r.layer("attention.swa_vs_dense", score_s[1] / score_s[0]);
                r.layer("tensor.int8_vs_fp", score_s[2] / score_s[1]);
            }
        }
        let swa_cfg = config(PolicyKind::Swa, SPARSITY, false);
        let kept: f64 = (PROMPT_LEN + 1..=SEQ_LEN)
            .map(|len| 1.0 - swa_cfg.step_policy(len).budget as f64 / len as f64)
            .sum();
        r.layer(
            "attention.kv_sparsity",
            kept / (SEQ_LEN - PROMPT_LEN) as f64,
        );
        r
    }
}
