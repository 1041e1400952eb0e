//! Seeded workload generation.
//!
//! Every workload is a fixed list of operations derived from `--seed`
//! alone: the model blobs it loads and swaps in, the feature rows it
//! classifies, and the order of the calls. The same seed gives a
//! byte-identical [`Plan::encode`]; the program under test receives only
//! the generated inputs.

use lake_ml::{serialize, Activation, LstmClassifier, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LinnOS-shaped MLP: 31 latency features → 256 hidden → {fast, slow}.
pub const MLP_SHAPE: [usize; 3] = [31, 256, 2];
/// Kleio-shaped LSTM: one access count per epoch, 2 layers of 64.
pub const LSTM_INPUT: usize = 1;
pub const LSTM_HIDDEN: usize = 64;
pub const LSTM_LAYERS: usize = 2;
pub const LSTM_STEPS: usize = 16;
pub const CLASSES: usize = 2;

/// The four workloads, each stressing a different set of layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LinnosSync,
    KleioBatch,
    MixedQueue,
    StoreChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LinnosSync, Workload::KleioBatch, Workload::MixedQueue, Workload::StoreChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LinnosSync => "linnos_sync",
            Workload::KleioBatch => "kleio_batch",
            Workload::MixedQueue => "mixed_queue",
            Workload::StoreChurn => "store_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Queue depth, daemon workers, and model-store budget (in models;
    /// `None` = unbounded) of the deployment this workload drives.
    pub fn deployment(self) -> Deployment {
        match self {
            Workload::LinnosSync | Workload::KleioBatch => {
                Deployment { depth: 1, workers: 1, budget_models: None }
            }
            Workload::MixedQueue => Deployment { depth: 64, workers: 2, budget_models: None },
            Workload::StoreChurn => Deployment { depth: 1, workers: 1, budget_models: Some(3) },
        }
    }
}

/// The builder settings a workload deploys with (beyond the shared
/// ring link, default wait strategy and auto-detected SIMD kernel).
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    pub depth: usize,
    pub workers: usize,
    /// Model-store budget as a count of page-rounded model blobs.
    pub budget_models: Option<usize>,
}

/// The family of a loaded model slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Mlp,
    Lstm,
}

/// One operation of the fixed sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Classify the listed rows of the plan's row pool with model `slot`.
    Infer { slot: usize, rows: Vec<u32> },
    /// Hot-swap model `slot` to `blobs[blob]`.
    Swap { slot: usize, blob: usize },
}

impl Op {
    /// Rows the op classifies (0 for a swap).
    #[cfg(test)]
    pub fn rows(&self) -> usize {
        match self {
            Op::Infer { rows, .. } => rows.len(),
            Op::Swap { .. } => 0,
        }
    }
}

/// Everything one workload run feeds the system.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Serialized models: `blobs[slot]` is slot's first load; swap blobs
    /// follow.
    pub blobs: Vec<Vec<u8>>,
    /// Family of each model slot.
    pub slots: Vec<Family>,
    /// MLP feature rows, `MLP_SHAPE[0]` floats each.
    pub mlp_rows: Vec<f32>,
    /// LSTM page histories, `LSTM_STEPS` floats each.
    pub pages: Vec<f32>,
    /// One inference per slot, run during set-up to pack weights and
    /// take first faults.
    pub warmup: Vec<Op>,
    /// The measured operations, in issue order.
    pub ops: Vec<Op>,
    /// Ops per closed-loop round (1 = each op waits for its answer).
    pub round: usize,
    /// Consecutive ops flushed together as one frame within a round.
    pub group: usize,
}

/// Ops in one pass of each workload, fixed so that every pass does the
/// same work (the store's NVMe model slows with history, so a time
/// budget would measure a different workload on a faster build).
const LINNOS_OPS: usize = 8000;
const KLEIO_OPS: usize = 1000;
const MIXED_ROUNDS: usize = 32;
const CHURN_OPS: usize = 4096;
const KLEIO_ROWS: usize = 64;
const QUEUED_ROWS: usize = 8;
const MIXED_PER_MODEL: usize = 8;
const CHURN_MODELS: usize = 8;
const SWAP_EVERY: usize = 16;
/// Zipf exponent of `store_churn`'s model popularity.
const ZIPF_S: f64 = 1.0;

fn mlp_blob(rng: &mut StdRng) -> Vec<u8> {
    serialize::encode_mlp(&Mlp::new(&MLP_SHAPE, Activation::Relu, rng))
}

fn lstm_blob(rng: &mut StdRng) -> Vec<u8> {
    serialize::encode_lstm(&LstmClassifier::new(LSTM_INPUT, LSTM_HIDDEN, LSTM_LAYERS, CLASSES, rng))
}

fn uniform_rows(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn pick_rows(rng: &mut StdRng, n: usize, pool: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..pool as u32)).collect()
}

/// Inverse-CDF sampler over `n` items with weight `1 / (k + 1)^s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn zipf_pick(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

impl Plan {
    /// Generates `workload`'s plan from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a4e_be7c_0000_0000);
        let (slots, mlp_pool, page_pool): (Vec<Family>, usize, usize) = match workload {
            Workload::LinnosSync => (vec![Family::Mlp], 1024, 0),
            Workload::KleioBatch => (vec![Family::Lstm], 0, 256),
            Workload::MixedQueue => {
                let mut s = vec![Family::Mlp; 4];
                s.extend([Family::Lstm; 4]);
                (s, 512, 128)
            }
            Workload::StoreChurn => (vec![Family::Mlp; CHURN_MODELS], 1024, 0),
        };
        let mut blobs: Vec<Vec<u8>> = slots
            .iter()
            .map(|f| match f {
                Family::Mlp => mlp_blob(&mut rng),
                Family::Lstm => lstm_blob(&mut rng),
            })
            .collect();
        let mlp_rows = uniform_rows(&mut rng, mlp_pool * MLP_SHAPE[0]);
        let pages = uniform_rows(&mut rng, page_pool * LSTM_STEPS);
        let pool_of = |f: Family| if f == Family::Mlp { mlp_pool } else { page_pool };
        let batch = match workload {
            Workload::LinnosSync => 1,
            Workload::KleioBatch => KLEIO_ROWS,
            Workload::MixedQueue | Workload::StoreChurn => QUEUED_ROWS,
        };
        let warmup = slots
            .iter()
            .enumerate()
            .map(|(slot, &f)| Op::Infer { slot, rows: pick_rows(&mut rng, batch, pool_of(f)) })
            .collect();

        let mut ops = Vec::new();
        let (round, group) = match workload {
            Workload::LinnosSync | Workload::KleioBatch => {
                let n = if workload == Workload::LinnosSync { LINNOS_OPS } else { KLEIO_OPS };
                for _ in 0..n {
                    ops.push(Op::Infer {
                        slot: 0,
                        rows: pick_rows(&mut rng, batch, pool_of(slots[0])),
                    });
                }
                (1, 1)
            }
            Workload::MixedQueue => {
                for _ in 0..MIXED_ROUNDS {
                    for (slot, &f) in slots.iter().enumerate() {
                        for _ in 0..MIXED_PER_MODEL {
                            ops.push(Op::Infer {
                                slot,
                                rows: pick_rows(&mut rng, batch, pool_of(f)),
                            });
                        }
                    }
                }
                (slots.len() * MIXED_PER_MODEL, MIXED_PER_MODEL)
            }
            Workload::StoreChurn => {
                let cdf = zipf_cdf(CHURN_MODELS, ZIPF_S);
                for i in 0..CHURN_OPS {
                    let slot = zipf_pick(&mut rng, &cdf);
                    if (i + 1) % SWAP_EVERY == 0 {
                        blobs.push(mlp_blob(&mut rng));
                        ops.push(Op::Swap { slot, blob: blobs.len() - 1 });
                    } else {
                        ops.push(Op::Infer { slot, rows: pick_rows(&mut rng, batch, mlp_pool) });
                    }
                }
                (1, 1)
            }
        };
        Plan { workload, seed, blobs, slots, mlp_rows, pages, warmup, ops, round, group }
    }

    /// Flattened features of `rows` for a model of `family`, in the
    /// layout the remoted API takes.
    pub fn features(&self, family: Family, rows: &[u32]) -> Vec<f32> {
        let (pool, width) = match family {
            Family::Mlp => (&self.mlp_rows, MLP_SHAPE[0]),
            Family::Lstm => (&self.pages, LSTM_STEPS),
        };
        let mut out = Vec::with_capacity(rows.len() * width);
        for &r in rows {
            let at = r as usize * width;
            out.extend_from_slice(&pool[at..at + width]);
        }
        out
    }

    /// A canonical byte encoding of everything the plan feeds the
    /// system, for the same-seed-same-bytes check.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut put = |x: u64| out.extend_from_slice(&x.to_le_bytes());
        put(self.seed);
        put(self.round as u64);
        put(self.group as u64);
        for f in &self.slots {
            put(*f as u64);
        }
        for x in self.mlp_rows.iter().chain(&self.pages) {
            put(u64::from(x.to_bits()));
        }
        for op in self.warmup.iter().chain(&self.ops) {
            match op {
                Op::Infer { slot, rows } => {
                    put(0);
                    put(*slot as u64);
                    put(rows.len() as u64);
                    rows.iter().for_each(|&r| put(u64::from(r)));
                }
                Op::Swap { slot, blob } => {
                    put(1);
                    put(*slot as u64);
                    put(*blob as u64);
                }
            }
        }
        for blob in &self.blobs {
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(blob);
        }
        out
    }

    /// FNV-1a digest of [`Plan::encode`], printed with every run so two
    /// runs can be shown to have fed the system the same inputs.
    pub fn digest(&self) -> u64 {
        self.encode().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_plans() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7).encode();
            let b = Plan::generate(w, 7).encode();
            assert_eq!(a, b, "{} plan must repeat exactly", w.name());
            let c = Plan::generate(w, 8).encode();
            assert_ne!(a, c, "{} plan must depend on the seed", w.name());
        }
    }

    #[test]
    fn plans_have_the_documented_shape() {
        let linnos = Plan::generate(Workload::LinnosSync, 1);
        assert!(linnos.ops.len() >= 1000 && linnos.ops.iter().all(|op| op.rows() == 1));
        let kleio = Plan::generate(Workload::KleioBatch, 1);
        assert!(kleio.ops.len() >= 1000 && kleio.ops.iter().all(|op| op.rows() == KLEIO_ROWS));
        let mixed = Plan::generate(Workload::MixedQueue, 1);
        assert_eq!(mixed.round, 64);
        for round in mixed.ops.chunks(mixed.round) {
            for (slot, group) in round.chunks(mixed.group).enumerate() {
                assert!(group
                    .iter()
                    .all(|op| matches!(op, Op::Infer { slot: s, .. } if *s == slot)));
            }
        }
        let churn = Plan::generate(Workload::StoreChurn, 1);
        for (i, op) in churn.ops.iter().enumerate() {
            assert_eq!(matches!(op, Op::Swap { .. }), (i + 1) % SWAP_EVERY == 0);
        }
    }
}
