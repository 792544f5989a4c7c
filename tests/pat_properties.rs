//! Property-based integration tests: random prefix-tree workloads through
//! the full PAT pipeline (pack → tiles → split → streams → numeric execution
//! and simulation).

use pat::prelude::*;
use proptest::prelude::*;

/// Strategy: a random multi-level batch description. Produces
/// `(levels, per-level lengths)` with node counts that divide.
fn random_spec() -> impl Strategy<Value = BatchSpec> {
    (
        1usize..=3,
        prop::collection::vec(1usize..=4, 0..3),
        prop::collection::vec(16usize..768, 1..4),
        1usize..=8,
    )
        .prop_map(|(first, growths, mut lens, leaf_mult)| {
            let mut b = vec![first];
            for g in growths {
                b.push(b.last().unwrap() * g);
            }
            b.push(b.last().unwrap() * leaf_mult);
            lens.resize(b.len(), 64);
            BatchSpec::new(b, lens)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PAT plans are structurally valid and numerically exact on random trees.
    #[test]
    fn pat_is_exact_on_random_trees(spec in random_spec(), seed in 0u64..1000) {
        let head = HeadConfig::new(4, 2, 8);
        let batch = spec.build(head);
        let gpu = GpuSpec::a100_sxm4_80gb();
        let plan = PatBackend::new().plan(&batch, &gpu);
        plan.validate(&batch).unwrap();
        let acts = QueryActivations::synthetic(head, batch.num_queries(), seed);
        let store = KvStore::synthetic_for(&batch, seed ^ 0xABCD);
        let got = execute_numeric(&batch, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch, &acts, &store);
        prop_assert!(got.max_abs_diff(&want) < 1e-4);
    }

    /// The timing simulation conserves work: the makespan is at least the
    /// DRAM bytes divided by achievable bandwidth, and utilization is
    /// consistent with the reported traffic.
    #[test]
    fn simulation_conserves_bandwidth(spec in random_spec()) {
        let head = HeadConfig::new(32, 8, 128);
        let batch = spec.build(head);
        let gpu = GpuSpec::a100_sxm4_80gb();
        let plan = PatBackend::new().plan(&batch, &gpu);
        let report = simulate_plan(&batch, &plan, &gpu).unwrap();
        let floor_ns = report.traffic.kv_dram_bytes
            / (gpu.global_bandwidth * gpu.dram_efficiency);
        prop_assert!(
            report.forward_ns >= floor_ns * 0.999,
            "forward {} ns below bandwidth floor {} ns",
            report.forward_ns,
            floor_ns
        );
        prop_assert!(report.bandwidth_utilization <= gpu.dram_efficiency + 1e-6);
    }

    /// Lazy update across simulated decode growth: plans reused across an
    /// empty delta (new token counts, same blocks) stay valid and exact.
    #[test]
    fn lazy_plans_stay_exact_as_decoding_progresses(spec in random_spec(), seed in 0u64..1000) {
        let head = HeadConfig::new(4, 2, 8);
        let batch0 = spec.build(head);
        let ids: Vec<u64> = (0..batch0.num_queries() as u64).collect();
        let batch0 = batch0.with_query_ids(ids.clone());
        let gpu = GpuSpec::a100_sxm4_80gb();
        let mut lazy = LazyPat::new();
        let _ = lazy.plan(&batch0, &gpu);
        // One decode step: every request gains a token (appending into a
        // fresh private block to keep the structure simple but changed
        // token counts where the last block was partial).
        let tables: Vec<BlockTable> = batch0
            .tables()
            .iter()
            .map(|t| {
                let mut t = t.clone();
                if t.num_tokens() < t.blocks().len() * t.block_size() {
                    t.extend_last_block(1);
                }
                t
            })
            .collect();
        let batch1 = DecodeBatch::new(head, tables, 2).with_query_ids(ids);
        let plan = lazy.plan(&batch1, &gpu);
        prop_assert_eq!(lazy.last_plan_reuse(), Some(pat_core::PlanReuse::Frozen));
        plan.validate(&batch1).unwrap();
        let acts = QueryActivations::synthetic(head, batch1.num_queries(), seed);
        let store = KvStore::synthetic_for(&batch1, seed ^ 0xBEEF);
        let got = execute_numeric(&batch1, &acts, &store, &plan).unwrap();
        let want = reference_output(&batch1, &acts, &store);
        prop_assert!(got.max_abs_diff(&want) < 1e-4);
    }

    /// Shared-prefix traffic dominance: PAT's KV loads never exceed the
    /// one-query-per-CTA paradigm's on any random tree.
    #[test]
    fn pat_traffic_is_dominated_by_query_centric(spec in random_spec()) {
        let head = HeadConfig::new(32, 8, 128);
        let batch = spec.build(head);
        let gpu = GpuSpec::a100_sxm4_80gb();
        let pat = simulate_plan(&batch, &PatBackend::new().plan(&batch, &gpu), &gpu).unwrap();
        let fa = simulate_plan(&batch, &FlashAttention::new().plan(&batch, &gpu), &gpu).unwrap();
        prop_assert!(pat.traffic.kv_loaded_bytes() <= fa.traffic.kv_loaded_bytes() * 1.001);
    }
}
