//! Property: the merged campaign state is a pure function of the
//! campaign spec — the order in which shards were claimed, completed
//! and published is invisible in the merged bytes, the state hash and
//! the merged metrics snapshot.

use noiselab_campaignd::{
    merge_queue, merged_metrics, state_hash, CampaignSpec, CellSpec, ShardResult, WorkQueue,
};
use noiselab_campaignd::{worker_main, WorkerConfig};
use noiselab_core::{ExecConfig, Mitigation, Model, RetryPolicy};
use proptest::prelude::*;
use std::path::PathBuf;

fn spec() -> CampaignSpec {
    let cells = [Model::Omp, Model::Sycl]
        .iter()
        .flat_map(|&m| {
            [Mitigation::Rm, Mitigation::Tp, Mitigation::RmHK]
                .iter()
                .map(move |&mit| ExecConfig::new(m, mit))
        })
        .map(|cfg| CellSpec {
            label: cfg.label(),
            config: cfg,
        })
        .collect();
    CampaignSpec {
        platform: "intel".into(),
        workload: "nbody-tiny".into(),
        cells,
        runs_per_cell: 2,
        seed_base: 7,
        faults: None,
        retry: RetryPolicy::none(),
    }
}

/// Execute every shard exactly once (in-process worker) and capture the
/// canonical merge artifacts. Shared across proptest cases — the cells
/// are pure functions of the spec, so executing them once is enough.
struct Reference {
    ledgers: Vec<ShardResult>,
    merged_json: String,
    hash: u64,
    metrics: String,
}

#[expect(
    clippy::disallowed_types,
    reason = "a memo of a pure function of the spec, shared by the proptest cases; no run reads it"
)]
fn reference() -> &'static Reference {
    static REF: std::sync::OnceLock<Reference> = std::sync::OnceLock::new();
    REF.get_or_init(|| {
        let root = std::env::temp_dir().join("noiselab-merge-prop-ref");
        let _ = std::fs::remove_dir_all(&root);
        let (queue, manifest) = WorkQueue::init(&root, &spec(), 1).unwrap();
        worker_main(&WorkerConfig {
            queue: root.clone(),
            worker_id: "prop-ref".into(),
        })
        .unwrap();
        let ledgers: Vec<ShardResult> = manifest
            .shards
            .iter()
            .map(|s| queue.load_done(s.id).unwrap().unwrap())
            .collect();
        let state = merge_queue(&root).unwrap();
        let out = Reference {
            ledgers,
            merged_json: serde_json::to_string_pretty(&state).unwrap(),
            hash: state_hash(&state),
            metrics: merged_metrics(&state).render(),
        };
        let _ = std::fs::remove_dir_all(&root);
        out
    })
}

/// Deterministic Fisher-Yates from a seed (the proptest input).
fn permuted(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn merge_is_independent_of_completion_order(seed in any::<u64>()) {
        let reference = reference();
        let root: PathBuf = std::env::temp_dir()
            .join(format!("noiselab-merge-prop-{seed:016x}"));
        let _ = std::fs::remove_dir_all(&root);
        let (queue, manifest) = WorkQueue::init(&root, &spec(), 1).unwrap();
        prop_assert_eq!(manifest.shards.len(), reference.ledgers.len());

        // Publish the shard ledgers in an arbitrary completion order,
        // as if claimed by racing workers in any interleaving.
        for &k in &permuted(reference.ledgers.len(), seed) {
            queue.complete(&reference.ledgers[k]).unwrap();
        }

        let state = merge_queue(&root).unwrap();
        prop_assert_eq!(
            serde_json::to_string_pretty(&state).unwrap(),
            reference.merged_json.clone()
        );
        prop_assert_eq!(state_hash(&state), reference.hash);
        prop_assert_eq!(merged_metrics(&state).render(), reference.metrics.clone());
        let _ = std::fs::remove_dir_all(&root);
    }
}
