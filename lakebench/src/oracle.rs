//! Expected answers, from the scalar `lake_ml` models decoded from the
//! very blobs the benchmark loads and swaps in.
//!
//! The oracle walks the op list in issue order, so `store_churn` checks
//! each inference against the version the latest swap of its slot
//! installed. Answers are computed before any timing starts.

use std::collections::HashMap;

use lake_ml::{serialize, LstmClassifier, Matrix, Mlp};

use crate::gen::{Family, Op, Plan, LSTM_INPUT, LSTM_STEPS, MLP_SHAPE};

enum Model {
    Mlp(Mlp),
    Lstm(LstmClassifier),
}

/// Expected classes per op (`None` for swaps), for the warm-up and the
/// measured ops.
pub struct Answers {
    pub warmup: Vec<Vec<u32>>,
    pub ops: Vec<Option<Vec<u32>>>,
}

struct Oracle<'a> {
    plan: &'a Plan,
    models: HashMap<usize, Model>,
    /// Rows recur across ops; each (blob, row) is classified once.
    memo: HashMap<(usize, u32), u32>,
}

impl Oracle<'_> {
    fn model(&mut self, blob: usize) -> &Model {
        let plan = self.plan;
        self.models.entry(blob).or_insert_with(|| {
            let bytes = &plan.blobs[blob];
            match serialize::ModelKind::detect(bytes).expect("generated blob") {
                serialize::ModelKind::Mlp => {
                    Model::Mlp(serialize::decode_mlp(bytes).expect("generated MLP blob"))
                }
                serialize::ModelKind::Lstm => {
                    Model::Lstm(serialize::decode_lstm(bytes).expect("generated LSTM blob"))
                }
                other => panic!("unexpected model kind {other:?}"),
            }
        })
    }

    fn classify(&mut self, blob: usize, family: Family, rows: &[u32]) -> Vec<u32> {
        rows.iter().map(|&r| self.classify_row(blob, family, r)).collect()
    }

    fn classify_row(&mut self, blob: usize, family: Family, row: u32) -> u32 {
        if let Some(&c) = self.memo.get(&(blob, row)) {
            return c;
        }
        let feats = self.plan.features(family, &[row]);
        let c = match (family, self.model(blob)) {
            (Family::Mlp, Model::Mlp(m)) => {
                m.classify(&Matrix::from_vec(1, MLP_SHAPE[0], feats))[0]
            }
            (Family::Lstm, Model::Lstm(m)) => {
                let seq: Vec<Vec<f32>> =
                    feats.chunks_exact(LSTM_INPUT).map(<[f32]>::to_vec).collect();
                debug_assert_eq!(seq.len(), LSTM_STEPS);
                m.classify(&seq)
            }
            _ => panic!("slot family does not match its blob"),
        } as u32;
        self.memo.insert((blob, row), c);
        c
    }
}

/// Computes every expected answer of `plan`.
pub fn answers(plan: &Plan) -> Answers {
    let mut oracle = Oracle { plan, models: HashMap::new(), memo: HashMap::new() };
    // Slot `s` starts on blob `s`.
    let mut current: Vec<usize> = (0..plan.slots.len()).collect();
    let run = |oracle: &mut Oracle<'_>, current: &mut Vec<usize>, op: &Op| match op {
        Op::Infer { slot, rows } => Some(oracle.classify(current[*slot], plan.slots[*slot], rows)),
        Op::Swap { slot, blob } => {
            current[*slot] = *blob;
            None
        }
    };
    let warmup = plan
        .warmup
        .iter()
        .map(|op| run(&mut oracle, &mut current, op).expect("warm-up ops infer"))
        .collect();
    let ops = plan.ops.iter().map(|op| run(&mut oracle, &mut current, op)).collect();
    Answers { warmup, ops }
}
