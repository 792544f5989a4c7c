//! Integration: KV migration is semantically invisible.
//!
//! The kv-transfer plane moves prefix blocks instead of recomputing them,
//! so a replica that *received* a prefix over the wire must behave exactly
//! like a replica that computed the same prefix itself. These tests pin
//! that equivalence at the engine level (ingest == warm cache, bit for
//! bit) and the link-model level (an instant link is a free warm cache).

use kv_transfer::LinkSpec;
use pat_core::LazyPat;
use serving::{ModelSpec, RequestMetrics, ServingConfig, ServingEngine, StepOutcome};
use sim_core::{SimDuration, SimTime};
use workloads::{PromptSpec, Request};

const BLOCK: usize = 16;

fn engine() -> ServingEngine {
    ServingEngine::new(ServingConfig::single_gpu(ModelSpec::llama3_8b()))
}

fn quiesce(engine: &mut ServingEngine, pat: &mut LazyPat) {
    while engine.step(pat) == StepOutcome::Progress {}
}

/// Runs `victim` on `engine` to completion and returns its record.
fn serve_victim(mut engine: ServingEngine, mut pat: LazyPat, victim: Request) -> RequestMetrics {
    let id = victim.id;
    engine.submit(victim);
    quiesce(&mut engine, &mut pat);
    let res = engine.into_result();
    res.per_request
        .iter()
        .copied()
        .find(|m| m.request_id == id)
        .expect("victim completed")
}

/// The core claim, engine level: a replica whose prefix KV arrived via
/// `ingest_prefix` (what a finished migration does) serves the dependent
/// request bit-identically to a replica that computed that prefix itself —
/// the "never crashed" replica, modulo the transfer delay the controller
/// accounts separately.
fn assert_migrated_stream_matches_warm(prefix_len: usize, suffix_len: usize, decode: usize) {
    let prefix_spec = PromptSpec::from_parts([(90_001, prefix_len)]);
    let victim_prompt = PromptSpec::from_parts([(90_001, prefix_len), (90_002, suffix_len)]);
    let victim = |id: u64| Request {
        id,
        arrival_s: 5.0,
        prompt: victim_prompt.clone(),
        decode_tokens: decode,
    };

    // Never-crashed replica: computes the prefix by serving it.
    let mut warm = engine();
    let mut warm_pat = LazyPat::new();
    warm.submit(Request {
        id: 1,
        arrival_s: 0.0,
        prompt: prefix_spec.clone(),
        decode_tokens: 1,
    });
    quiesce(&mut warm, &mut warm_pat);

    // Migration target: the same full blocks arrive over the wire; nothing
    // is computed.
    let mut migrated = engine();
    let tokens = prefix_spec.to_tokens();
    let aligned = tokens.len() / BLOCK * BLOCK;
    let report = migrated.ingest_prefix(&tokens[..aligned]);
    assert_eq!(report.covered_tokens, aligned);
    assert_eq!(report.imported_tokens, aligned);

    // Both caches hold exactly the prefix's full blocks; the dependent
    // request must therefore be served identically, down to the bit.
    assert_eq!(
        warm.cache().prefix_overlap_tokens(&tokens),
        migrated.cache().prefix_overlap_tokens(&tokens),
    );
    let on_warm = serve_victim(warm, warm_pat, victim(2));
    let on_migrated = serve_victim(migrated, LazyPat::new(), victim(2));
    assert_eq!(
        on_warm, on_migrated,
        "migrated-prefix stream diverged from the never-crashed replica \
         (prefix {prefix_len}, suffix {suffix_len}, decode {decode})"
    );
}

#[test]
fn migrated_prefix_stream_matches_never_crashed_replica() {
    assert_migrated_stream_matches_warm(256, 64, 32);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
    #[test]
    fn migrated_prefix_stream_matches_warm_for_any_shape(
        prefix_blocks in 1usize..12,
        prefix_tail in 0usize..16,
        suffix_len in 0usize..600,
        decode in 2usize..48,
    ) {
        assert_migrated_stream_matches_warm(
            prefix_blocks * BLOCK + prefix_tail,
            suffix_len,
            decode,
        );
    }
}

/// A zero-latency, infinite-bandwidth link moves any payload in zero time:
/// migration over it degenerates to exactly the free warm cache the tests
/// above model with a bare `ingest_prefix`.
#[test]
fn instant_link_transfers_any_payload_in_zero_time() {
    let link = LinkSpec::instant();
    for bytes in [0u64, 1, 1 << 20, u64::MAX] {
        assert_eq!(link.transfer_time(bytes), SimDuration::ZERO);
    }
    let mut plane = kv_transfer::TransferPlane::new(link);
    let now = SimTime::from_secs_f64(3.5);
    // Back-to-back giant transfers through one NIC pair: no latency, no
    // serialization delay, no NIC wait.
    for _ in 0..4 {
        let t = plane.begin(
            now,
            0,
            1,
            1 << 40,
            1 << 20,
            kv_transfer::TransferKind::PrefixMigration,
        );
        assert_eq!(t.finish, now);
        assert_eq!(t.nic_wait(), SimDuration::ZERO);
        plane.complete(t.id);
    }
    assert_eq!(plane.stats().nic_wait_ns, 0);
    assert_eq!(plane.stats().wire_ns, 0);
}

/// Ingest is idempotent against a warm cache: re-delivering blocks a
/// replica already holds imports nothing, so double migration can never
/// double-count migrated tokens.
#[test]
fn redundant_migration_imports_nothing() {
    let mut engine = engine();
    let spec = PromptSpec::from_parts([(90_010, 320)]);
    let tokens = spec.to_tokens();
    let first = engine.ingest_prefix(&tokens);
    assert_eq!(first.imported_tokens, 320);
    let second = engine.ingest_prefix(&tokens);
    assert_eq!(second.imported_tokens, 0, "re-ingest must be free");
    assert_eq!(second.covered_tokens, 320);
}
