//! CI smoke for the many-client stress bench: the scaled-down
//! configuration (16 producers × 4 consumer groups × 2 members, real
//! threads) must run clean — every group sees every event exactly once,
//! in per-producer partition order. This is the
//! `cargo test` face of `repro stress-bench`; the full 264-client run and
//! its >20% regression gate (`repro stress-check`) live in the CI stress
//! job.

use dtf_bench::{stress_bench, StressConfig};

#[test]
fn smoke_configuration_runs_clean() {
    let cfg = StressConfig::smoke();
    assert_eq!(cfg.producers, 16);
    assert_eq!(cfg.groups, 4);
    assert!(cfg.verify, "smoke must verify exactly-once delivery");
    let out = stress_bench(&cfg);
    assert!(out.violations.is_empty(), "delivery violations: {:#?}", out.violations);
    let expected = cfg.producers as u64 * cfg.events_per_producer;
    assert_eq!(out.bench.events_produced, expected);
    assert_eq!(
        out.bench.events_consumed,
        expected * cfg.groups as u64,
        "every group drains the full stream"
    );
    assert!(out.bench.aggregate_events_per_s > 0.0);
}
