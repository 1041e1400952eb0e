//! The untraced pass: a fresh `Lake` deployed through builder setters,
//! driven through the public `LakeMl` API from one client thread in a
//! closed loop, every answer checked against the oracle.

use std::collections::HashMap;
use std::time::Instant;

use lake_core::{Lake, LakeBuilder, LakeError, LakeMl, LinkMode, ModelId, WaitStrategy};
use lake_ml::MODEL_PAGE_SIZE;

use crate::gen::{Family, Op, Plan, LSTM_INPUT, LSTM_STEPS, MLP_SHAPE};
use crate::oracle::Answers;
use crate::stats;

/// The configuration a deployment actually ran with, read back from it.
#[derive(Debug, Clone, Default)]
pub struct Effective {
    pub cores: usize,
    pub simd: &'static str,
    pub link: String,
    pub wait: &'static str,
    pub depth: usize,
    pub workers: usize,
    pub budget: Option<usize>,
    pub pool_threads: usize,
}

impl Effective {
    /// The wait strategy is not reported by the deployment; it is the
    /// builder default every workload asks for.
    pub fn read(lake: &Lake) -> Effective {
        let perf = lake.perf_report();
        Effective {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: perf.gemm.simd,
            link: format!("{:?}", lake.link_mode()),
            wait: WaitStrategy::default().name(),
            depth: lake.queue_depth(),
            workers: lake.daemon_workers(),
            budget: (perf.store.budget_bytes != usize::MAX).then_some(perf.store.budget_bytes),
            pool_threads: perf.effective_pool_threads,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "host_cores={} simd={} link={} wait={} depth={} workers={} budget={} pool_threads={}",
            self.cores,
            self.simd,
            self.link,
            self.wait,
            self.depth,
            self.workers,
            self.budget.map_or_else(|| "unbounded".to_owned(), |b| format!("{b}B")),
            self.pool_threads
        )
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rows: usize,
    /// Per-op wall latency in µs while the pass runs; summarized into
    /// the fields below and dropped, so memory does not grow with the
    /// number of passes.
    lat_us: Vec<f64>,
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub attempted: usize,
    pub answered: usize,
    pub failed: usize,
    /// Warm-up inferences whose answer was wrong or missing.
    pub warmup_failed: usize,
    pub effective: Effective,
}

impl Pass {
    fn summarize(&mut self) {
        self.samples = self.lat_us.len();
        self.p50_us = stats::percentile(&self.lat_us, 50.0);
        self.p99_us = stats::percentile(&self.lat_us, 99.0);
        self.lat_us = Vec::new();
    }

    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall_s
    }
    pub fn cpu_us_per_row(&self) -> f64 {
        self.cpu_s * 1.0e6 / self.rows as f64
    }
}

/// The builder every deployment of `plan` starts from: ring link,
/// default wait strategy, auto-detected SIMD kernel, and the workload's
/// depth, worker count and store budget.
pub fn builder(plan: &Plan, link: LinkMode) -> LakeBuilder {
    let d = plan.workload.deployment();
    let mut b = Lake::builder()
        .link_mode(link)
        .wait_strategy(WaitStrategy::default())
        .queue_depth(d.depth)
        .daemon_workers(d.workers);
    if let Some(n) = d.budget_models {
        let page_rounded = plan.blobs[0].len().div_ceil(MODEL_PAGE_SIZE) * MODEL_PAGE_SIZE;
        b = b.model_budget_bytes(n * page_rounded);
    }
    b
}

/// Family, remoted shape `(rows, cols, steps)`, and features of an
/// inference op.
pub fn shape(plan: &Plan, slot: usize, rows: &[u32]) -> (Family, usize, usize, Vec<f32>) {
    let family = plan.slots[slot];
    let cols = match family {
        Family::Mlp => MLP_SHAPE[0],
        Family::Lstm => LSTM_STEPS * LSTM_INPUT,
    };
    (family, rows.len(), cols, plan.features(family, rows))
}

fn infer(
    ml: &LakeMl,
    id: ModelId,
    family: Family,
    rows: usize,
    cols: usize,
    feats: &[f32],
) -> Result<Vec<u32>, LakeError> {
    match family {
        Family::Mlp => ml.infer_mlp(id, rows, cols, feats),
        Family::Lstm => ml.infer_lstm(id, rows, LSTM_STEPS, LSTM_INPUT, feats),
    }
}

/// Runs one pass of `plan` on a fresh ring deployment.
pub fn run_pass(plan: &Plan, answers: &Answers) -> Pass {
    let mut pass = Pass::default();
    let t_setup = Instant::now();
    let lake = builder(plan, LinkMode::Ring).build();
    let ml = lake.ml();
    let ids: Vec<ModelId> = (0..plan.slots.len())
        .map(|s| ml.load_model(&plan.blobs[s]).expect("load generated model"))
        .collect();
    for (op, want) in plan.warmup.iter().zip(&answers.warmup) {
        let Op::Infer { slot, rows } = op else { unreachable!("warm-up ops infer") };
        let (family, n, cols, feats) = shape(plan, *slot, rows);
        if infer(&ml, ids[*slot], family, n, cols, &feats).as_ref() != Ok(want) {
            pass.warmup_failed += 1;
        }
    }
    pass.setup_s = t_setup.elapsed().as_secs_f64();
    pass.effective = Effective::read(&lake);

    let cpu0 = stats::process_cpu_s();
    let t0 = Instant::now();
    if plan.round == 1 {
        run_sync(plan, answers, &ml, &ids, &mut pass);
    } else {
        run_rounds(plan, answers, &ml, &ids, &mut pass);
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = stats::process_cpu_s() - cpu0;
    pass.summarize();
    pass
}

fn run_sync(plan: &Plan, answers: &Answers, ml: &LakeMl, ids: &[ModelId], pass: &mut Pass) {
    for (op, want) in plan.ops.iter().zip(&answers.ops) {
        pass.attempted += 1;
        let ok = match op {
            Op::Infer { slot, rows } => {
                let (family, n, cols, feats) = shape(plan, *slot, rows);
                let t = Instant::now();
                let got = infer(ml, ids[*slot], family, n, cols, &feats);
                let dt = t.elapsed();
                pass.lat_us.push(dt.as_secs_f64() * 1.0e6);
                pass.rows += n;
                got.as_ref().ok() == want.as_ref()
            }
            Op::Swap { slot, blob } => {
                let t = Instant::now();
                let got = ml.swap_model(ids[*slot], &plan.blobs[*blob]);
                pass.lat_us.push(t.elapsed().as_secs_f64() * 1.0e6);
                got.is_ok()
            }
        };
        if ok {
            pass.answered += 1;
        } else {
            pass.failed += 1;
        }
    }
}

/// Closed-loop rounds of queued submissions: each group of same-model
/// ops is flushed as its own frame, then the whole round is harvested.
fn run_rounds(plan: &Plan, answers: &Answers, ml: &LakeMl, ids: &[ModelId], pass: &mut Pass) {
    for (r, round) in plan.ops.chunks(plan.round).enumerate() {
        let base = r * plan.round;
        let staged: Vec<_> = round
            .iter()
            .map(|op| {
                let Op::Infer { slot, rows } = op else { unreachable!("queued ops infer") };
                (*slot, shape(plan, *slot, rows))
            })
            .collect();
        let mut tickets = HashMap::with_capacity(round.len());
        for (g, group) in staged.chunks(plan.group).enumerate() {
            for (k, (slot, (family, n, cols, feats))) in group.iter().enumerate() {
                let i = base + g * plan.group + k;
                pass.attempted += 1;
                let t = Instant::now();
                let submitted = match family {
                    Family::Mlp => ml.submit_mlp(ids[*slot], *n, *cols, feats),
                    Family::Lstm => ml.submit_lstm(ids[*slot], *n, LSTM_STEPS, LSTM_INPUT, feats),
                };
                match submitted {
                    Ok(id) => {
                        tickets.insert(id, (i, t, *n));
                    }
                    Err(_) => pass.failed += 1,
                }
            }
            ml.flush();
        }
        let done = ml.drain_completions();
        let harvested = Instant::now();
        for (id, got) in done {
            let (i, t, n) = tickets.remove(&id).expect("completion for a submitted ticket");
            pass.lat_us.push((harvested - t).as_secs_f64() * 1.0e6);
            pass.rows += n;
            if got.ok().as_ref() == answers.ops[i].as_ref() {
                pass.answered += 1;
            } else {
                pass.failed += 1;
            }
        }
        pass.failed += tickets.len();
    }
}
