//! Criterion micro-benchmarks of the host-side hot paths: the pack
//! scheduler (must hide inside the pre-attention window, §8.7), the
//! online-softmax merge, tiled attention math, and the execution engine.

use attn_kernel::{simulate_plan, AttentionBackend, DecodeBatch};
use attn_math::{attend_segment, merge_partials, HeadConfig, Matrix, PartialAttn};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pat_core::{pack_batch, LazyPat, PatBackend};
use sim_gpu::GpuSpec;
use std::hint::black_box;
use workloads::BatchSpec;

fn bench_pack_scheduler(c: &mut Criterion) {
    let head = HeadConfig::new(32, 8, 128);
    let mut group = c.benchmark_group("pack_scheduler");
    for batch_size in [16usize, 64, 256] {
        let spec = BatchSpec::new(vec![1, 4, batch_size], vec![2048, 512, 1024]);
        let batch = spec.build(head);
        group.bench_function(format!("tree_heuristic/batch{batch_size}"), |b| {
            b.iter(|| black_box(pack_batch(black_box(&batch))))
        });
    }
    group.finish();
}

fn bench_lazy_update(c: &mut Criterion) {
    let head = HeadConfig::new(32, 8, 128);
    let gpu = GpuSpec::a100_sxm4_80gb();
    let batch = BatchSpec::new(vec![1, 4, 64], vec![2048, 512, 1024]).build(head);
    // Stable query ids let a repeated step reuse the plan state (an empty
    // delta); without them every plan is cold.
    let ids = (0..batch.num_queries() as u64).collect();
    let batch = batch.with_query_ids(ids);
    let mut group = c.benchmark_group("lazy_update");
    group.bench_function("cold_plan", |b| {
        b.iter_batched(
            LazyPat::new,
            |mut lazy| black_box(lazy.plan(&batch, &gpu)),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("cached_plan", |b| {
        let mut lazy = LazyPat::new();
        let _ = lazy.plan(&batch, &gpu);
        b.iter(|| black_box(lazy.plan(&batch, &gpu)))
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let d = 128;
    let mut partials = Vec::new();
    for i in 0..8 {
        let mut p = PartialAttn::empty(d);
        for j in 0..16 {
            let v: Vec<f32> = (0..d)
                .map(|k| ((i * 31 + j * 7 + k) % 13) as f32 * 0.1)
                .collect();
            p.accumulate((i + j) as f32 * 0.3, &v);
        }
        partials.push(p);
    }
    c.bench_function("merge_8_partials_d128", |b| {
        b.iter(|| black_box(merge_partials(d, partials.iter())))
    });
}

fn bench_attention_math(c: &mut Criterion) {
    let d = 128;
    let len = 1024;
    let fill = |seed: usize| -> Vec<f32> {
        (0..len * d)
            .map(|i| (((i * 2654435761) ^ seed) % 1000) as f32 / 500.0 - 1.0)
            .collect()
    };
    let keys = Matrix::from_rows(len, d, fill(1));
    let values = Matrix::from_rows(len, d, fill(2));
    let q: Vec<f32> = (0..d).map(|i| (i % 7) as f32 * 0.1).collect();
    c.bench_function("attend_segment_kv1024_d128", |b| {
        b.iter(|| black_box(attend_segment(&q, &keys, &values, 0.088, 64)))
    });
}

fn bench_engine(c: &mut Criterion) {
    let head = HeadConfig::new(32, 8, 128);
    let gpu = GpuSpec::a100_sxm4_80gb();
    let batch: DecodeBatch = BatchSpec::new(vec![1, 4, 64], vec![2048, 512, 1024]).build(head);
    let backend = PatBackend::new();
    let plan = backend.plan(&batch, &gpu);
    c.bench_function("simulate_plan_batch64", |b| {
        b.iter(|| black_box(simulate_plan(&batch, &plan, &gpu).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_pack_scheduler,
    bench_lazy_update,
    bench_merge,
    bench_attention_math,
    bench_engine
);
criterion_main!(benches);
