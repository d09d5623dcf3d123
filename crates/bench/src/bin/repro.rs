//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--seed N] [--runs N]
//!
//! experiments:
//!   table1   fig3   fig4   fig5   fig6   fig7   fig8
//!   ablation-stealing   ablation-dxt-buffer   ablation-dxt-threads
//!   ablation-schedule-order   ablation-mofka-batch
//!   chaos           (--seed N --schedules K: seeded fault-schedule campaign;
//!                    exits nonzero on any oracle/determinism failure)
//!   chaos-replay    (--seed N --index I: replay one schedule, print its
//!                    JSON and outcome)
//!   bench           (--runs N --jobs J: timed perf sweep — scheduler
//!                    throughput, frame kernels, provenance pipeline,
//!                    sequential-vs-parallel campaigns — written to
//!                    BENCH_repro.json)
//!   provenance-bench  (measure the provenance pipeline alone and print
//!                      events/s)
//!   provenance-check  (measure and gate against the committed
//!                      BENCH_repro.json: exits nonzero if events/s
//!                      regressed by more than 20%)
//!   store-bench     (measure dtf-store append throughput per flush policy,
//!                    the recovery-scan rate, the binary-codec rows, and
//!                    indexed point/range reads against a full scan;
//!                    prints the `storage` section and refreshes it inside
//!                    BENCH_repro.json when present)
//!   store-check     (measure and gate against the committed
//!                    BENCH_repro.json `storage` section: exits nonzero on
//!                    a >20% drop in group-commit append, recovery rate, or
//!                    codec throughput, a >20% rise in replay time, or an
//!                    indexed point/range speedup below 10x; exit 2 on a
//!                    pre-schema-6 baseline)
//!   stress-bench    (many-client stress of the sharded real-time data
//!                    plane: 256 concurrent producers + 8 consumer groups
//!                    on one service; prints the `stress` section and
//!                    refreshes it inside BENCH_repro.json when present)
//!   stress-check    (re-measure a scaled stress run and gate against the
//!                    committed BENCH_repro.json `stress` section: exits
//!                    nonzero on a >20% drop in aggregate events/s)
//!   view-bench      (incremental live-view maintenance vs full recompute
//!                    over a 100k-event stream: Δ-refresh wall, re-drain +
//!                    kernel recompute wall, and the live/post-hoc
//!                    equivalence verdict; prints the `views` section and
//!                    refreshes it inside BENCH_repro.json when present,
//!                    bumping the document to schema 7)
//!   view-check      (re-measure and gate: exits nonzero if the live
//!                    snapshot is not value-identical to the post-hoc
//!                    kernels, if a Δ-refresh is less than 10x faster than
//!                    a full recompute, or if Δ-refresh wall regressed >20%
//!                    against the committed BENCH_repro.json `views`
//!                    section; exit 2 on a pre-schema-7 baseline)
//!   proxy-bench     (out-of-band proxy-plane ablation on a data-heavy
//!                    workflow: same seed with the plane off and on, gated
//!                    event-for-event identical; reports the scheduler-
//!                    mediated byte reduction and the resolver fast-path
//!                    latency; prints the `proxy` section and refreshes it
//!                    inside BENCH_repro.json when present, bumping the
//!                    document to schema 8)
//!   proxy-check     (re-measure and gate: exits nonzero if the plane
//!                    perturbed the schedule, if the scheduler-byte
//!                    reduction is below 5x or regressed >20% against the
//!                    committed `proxy` section, or if resolve latency
//!                    regressed >20%; exit 2 on a pre-schema-8 baseline)
//!   recovery-smoke  (--seed N: run a persistent seeded campaign with the
//!                    proxy plane and online Darshan on, verify a
//!                    fresh-process archive reopen reproduces the export
//!                    bundle byte-for-byte, then damage store copies under
//!                    seeded crash faults — torn/zeroed/bit-flipped tails,
//!                    forged frame lengths, corrupted index sidecars — and
//!                    check the recovery oracle;
//!                    exits nonzero — keeping the store dir as an artifact —
//!                    on any violation)
//!   all      (everything above, in order)
//! ```
//!
//! `--runs` caps campaign sizes (default: the paper's 10/10/50).

use dtf_bench::{ablations, experiments};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut seed = 42u64;
    let mut runs: Option<u32> = None;
    let mut schedules = 50u64;
    let mut index = 0u64;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--runs" => {
                i += 1;
                runs = Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--schedules" => {
                i += 1;
                schedules = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--index" => {
                i += 1;
                index = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            c if cmd.is_none() => cmd = Some(c.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    let Some(cmd) = cmd else { usage() };
    match cmd.as_str() {
        "chaos" => std::process::exit(chaos_campaign(seed, schedules)),
        "chaos-replay" => std::process::exit(chaos_replay(seed, index)),
        "bench" => std::process::exit(perf_bench(seed, runs.unwrap_or(3), jobs)),
        "provenance-bench" => std::process::exit(provenance_bench()),
        "provenance-check" => std::process::exit(provenance_check()),
        "store-bench" => std::process::exit(store_bench()),
        "store-check" => std::process::exit(store_check()),
        "stress-bench" => std::process::exit(stress_bench()),
        "stress-check" => std::process::exit(stress_check()),
        "view-bench" => std::process::exit(view_bench()),
        "view-check" => std::process::exit(view_check()),
        "proxy-bench" => std::process::exit(proxy_bench()),
        "proxy-check" => std::process::exit(proxy_check()),
        "recovery-smoke" => std::process::exit(recovery_smoke(seed)),
        _ => {}
    }
    let ablation_runs = runs.unwrap_or(6);
    let run_one = |name: &str| match name {
        "table1" => experiments::table1(seed, runs),
        "fig3" => experiments::fig3(seed, runs),
        "fig4" => experiments::fig4(seed),
        "fig5" => experiments::fig5(seed),
        "fig6" => experiments::fig6(seed),
        "fig7" => experiments::fig7(seed),
        "fig8" => experiments::fig8(seed),
        "ablation-stealing" => ablations::stealing(seed, ablation_runs),
        "ablation-dxt-buffer" => ablations::dxt_buffer(seed),
        "ablation-dxt-threads" => ablations::dxt_thread_ids(seed),
        "ablation-schedule-order" => ablations::schedule_order_similarity(seed, ablation_runs),
        "ablation-mofka-batch" => ablations::mofka_batch(seed),
        "overhead" => ablations::instrumentation_overhead(ablation_runs.min(10)),
        "category-variability" => {
            ablations::category_variability(seed, ablation_runs, dtf_workflows::Workload::Xgboost)
        }
        "timeline" => {
            ablations::utilization_timeline(seed, dtf_workflows::Workload::ImageProcessing)
        }
        "export-run" => {
            use dtf_core::ids::RunId;
            use dtf_core::rngx::RunRng;
            use dtf_wms::sim::{SimCluster, SimConfig};
            let workload = dtf_workflows::Workload::ImageProcessing;
            let mut cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
            workload.adjust(&mut cfg);
            let rr = RunRng::new(seed, RunId(0));
            let data =
                SimCluster::new(cfg).expect("cluster").run(workload.generate(&rr)).expect("run");
            let dir = std::path::PathBuf::from("dtf-run-export");
            let n = dtf_perfrecup::export::export_run(&data, &dir).expect("export");
            format!("exported {n} files to {}\n", dir.display())
        }
        _ => usage(),
    };
    if cmd == "all" {
        for name in [
            "table1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "ablation-stealing",
            "ablation-dxt-buffer",
            "ablation-dxt-threads",
            "ablation-schedule-order",
            "ablation-mofka-batch",
            "overhead",
            "category-variability",
            "timeline",
        ] {
            println!("{}", run_one(name));
        }
    } else {
        println!("{}", run_one(&cmd));
    }
}

/// Run a chaos campaign: K seeded fault schedules, each run twice under
/// virtual time with live invariant checks, gated on byte-identical
/// transition logs, judged by the post-run oracles. Returns the exit code.
fn chaos_campaign(seed: u64, schedules: u64) -> i32 {
    use dtf_chaos::{run_schedule, ChaosConfig};
    let chaos = ChaosConfig::default();
    println!("chaos campaign: seed {seed}, {schedules} schedules");
    let mut passed = 0u64;
    let mut failed = 0u64;
    for i in 0..schedules {
        let outcome = run_schedule(seed, i, &chaos);
        if outcome.passed() {
            passed += 1;
        } else {
            failed += 1;
            println!("{}", outcome.describe());
            println!("  replay: repro chaos-replay --seed {seed} --index {i}");
            println!("  schedule: {}", outcome.schedule.to_json());
        }
    }
    println!("chaos campaign: {passed}/{schedules} passed, {failed} failed");
    if failed > 0 {
        1
    } else {
        0
    }
}

/// Replay one schedule of a campaign and print everything a bug report
/// needs: the schedule JSON and the full outcome. Returns the exit code.
fn chaos_replay(seed: u64, index: u64) -> i32 {
    use dtf_chaos::{run_schedule, schedule_seed, ChaosConfig};
    let outcome = run_schedule(seed, index, &ChaosConfig::default());
    println!(
        "campaign seed {seed}, index {index} -> schedule seed {:016x}",
        schedule_seed(seed, index)
    );
    println!("schedule: {}", outcome.schedule.to_json());
    println!("{}", outcome.describe());
    for v in &outcome.violations {
        println!("  violation: {v}");
    }
    if outcome.passed() {
        0
    } else {
        1
    }
}

/// Timed perf sweep. Writes `BENCH_repro.json` to the working directory
/// and prints a short summary; exits nonzero if the artifact could not be
/// written (the parallel-vs-sequential identity check asserts internally).
fn perf_bench(seed: u64, runs: u32, jobs: Option<usize>) -> i32 {
    let (json, text) = dtf_bench::perf::bench_artifact(seed, runs, jobs);
    print!("{text}");
    match std::fs::write("BENCH_repro.json", json) {
        Ok(()) => {
            println!("wrote BENCH_repro.json");
            0
        }
        Err(e) => {
            eprintln!("failed to write BENCH_repro.json: {e}");
            1
        }
    }
}

/// Measure the provenance pipeline alone (the fast path for iterating on
/// it) and print the section that `bench` embeds in `BENCH_repro.json`.
fn provenance_bench() -> i32 {
    let p = dtf_bench::provenance::provenance_pipeline(2_000, 3);
    println!(
        "provenance pipeline: {:.0} events/s ({} events in {:.2}s)",
        p.events_per_s, p.events, p.wall_s
    );
    println!("{}", serde_json::to_string_pretty(&p).expect("section serializes"));
    0
}

/// CI regression gate: re-measure the provenance pipeline and compare to
/// the committed `BENCH_repro.json`. Fails (exit 1) on a >20% drop in
/// events/s; fails (exit 2) if the baseline artifact is missing the field,
/// so the gate can never silently pass.
fn provenance_check() -> i32 {
    const ALLOWED_REGRESSION: f64 = 0.20;
    let baseline = match std::fs::read_to_string("BENCH_repro.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("provenance-check: cannot read BENCH_repro.json: {e}");
            return 2;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("provenance-check: BENCH_repro.json is not valid JSON: {e}");
            return 2;
        }
    };
    let Some(expected) = doc["provenance_pipeline"]["events_per_s"].as_f64() else {
        eprintln!("provenance-check: BENCH_repro.json has no provenance_pipeline.events_per_s");
        return 2;
    };
    let p = dtf_bench::provenance::provenance_pipeline(2_000, 3);
    let floor = expected * (1.0 - ALLOWED_REGRESSION);
    println!(
        "provenance pipeline: measured {:.0} events/s, baseline {:.0} (floor {:.0})",
        p.events_per_s, expected, floor
    );
    if p.events_per_s < floor {
        eprintln!(
            "provenance-check: FAIL — events/s regressed more than {:.0}%",
            ALLOWED_REGRESSION * 100.0
        );
        1
    } else {
        println!("provenance-check: OK");
        0
    }
}

/// Measure the storage layer alone and print the section that `bench`
/// embeds in `BENCH_repro.json`.
fn store_bench() -> i32 {
    let b = dtf_bench::storage::storage_bench();
    for a in &b.append {
        println!(
            "store append [{}]: {:.0} records/s ({} x {}B in {:.3}s)",
            a.policy, a.records_per_s, a.records, b.record_bytes, a.wall_s
        );
    }
    println!(
        "store recovery: {:.0} records/s ({} records, {} segments in {:.3}s)",
        b.recovery.records_per_s, b.recovery.records, b.recovery.segments, b.recovery.wall_s
    );
    println!(
        "store codec encode: {:.0} MiB/s, decode: {:.0} MiB/s ({} records, {}B binary vs {}B json)",
        b.codec.encode_mib_s,
        b.codec.decode_mib_s,
        b.codec.records,
        b.codec.binary_bytes,
        b.codec.json_bytes
    );
    println!("store replay: {:.1} ms ({} events)", b.codec.replay_binary_ms, b.codec.replay_events);
    println!(
        "store indexed: point {:.1} us ({:.0}x vs {:.1} ms scan), range {:.2} ms ({:.0}x), \
         reader open {:.1} ms",
        b.scale.indexed.point_avg_us,
        b.scale.indexed.point_speedup,
        b.scale.indexed.full_scan_ms,
        b.scale.indexed.range_ms,
        b.scale.indexed.range_speedup,
        b.scale.indexed.reader_open_ms
    );
    let section = serde_json::to_value(&b).expect("section serializes");
    println!("{}", serde_json::to_string_pretty(&section).expect("section serializes"));
    // refresh the committed artifact's storage section in place, leaving
    // every other section at its committed baseline
    if let Ok(s) = std::fs::read_to_string("BENCH_repro.json") {
        match serde_json::from_str::<serde_json::Value>(&s) {
            Ok(serde_json::Value::Object(mut doc)) => {
                doc.insert("storage".to_string(), section);
                let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
                    .expect("doc serializes");
                match std::fs::write("BENCH_repro.json", pretty) {
                    Ok(()) => println!("refreshed storage section of BENCH_repro.json"),
                    Err(e) => {
                        eprintln!("store-bench: cannot rewrite BENCH_repro.json: {e}");
                        return 1;
                    }
                }
            }
            Ok(_) => {
                eprintln!("store-bench: BENCH_repro.json is not a JSON object, leaving it");
                return 1;
            }
            Err(e) => {
                eprintln!("store-bench: BENCH_repro.json is not valid JSON, leaving it: {e}");
                return 1;
            }
        }
    }
    0
}

/// CI regression gate for the storage layer: re-measure and compare to the
/// committed `BENCH_repro.json`. Fails (exit 1) on a >20% drop in
/// group-commit append rate or recovery-scan rate; fails (exit 2) if the
/// baseline artifact lacks the fields, so the gate can never silently pass.
fn store_check() -> i32 {
    const ALLOWED_REGRESSION: f64 = 0.20;
    let baseline = match std::fs::read_to_string("BENCH_repro.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("store-check: cannot read BENCH_repro.json: {e}");
            return 2;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("store-check: BENCH_repro.json is not valid JSON: {e}");
            return 2;
        }
    };
    let baseline_append = doc["storage"]["append"]
        .as_array()
        .and_then(|arr| arr.iter().find(|a| a["policy"] == "group_commit_256"))
        .and_then(|a| a["records_per_s"].as_f64());
    let Some(expected_append) = baseline_append else {
        eprintln!("store-check: BENCH_repro.json has no storage.append[group_commit_256]");
        return 2;
    };
    let Some(expected_recovery) = doc["storage"]["recovery"]["records_per_s"].as_f64() else {
        eprintln!("store-check: BENCH_repro.json has no storage.recovery.records_per_s");
        return 2;
    };
    // schema-4 codec rows: their absence means a stale baseline, exit 2
    let Some(expected_encode) = doc["storage"]["codec"]["encode_mib_s"].as_f64() else {
        eprintln!("store-check: BENCH_repro.json has no storage.codec.encode_mib_s (schema < 4?)");
        return 2;
    };
    let Some(expected_decode) = doc["storage"]["codec"]["decode_mib_s"].as_f64() else {
        eprintln!("store-check: BENCH_repro.json has no storage.codec.decode_mib_s");
        return 2;
    };
    let Some(expected_replay) = doc["storage"]["codec"]["replay_binary_ms"].as_f64() else {
        eprintln!("store-check: BENCH_repro.json has no storage.codec.replay_binary_ms");
        return 2;
    };
    // schema-6 indexed rows: their absence means a pre-index baseline, exit 2
    if doc["storage"]["scale"]["indexed"]["point_speedup"].as_f64().is_none() {
        eprintln!(
            "store-check: BENCH_repro.json has no storage.scale.indexed.point_speedup (schema < 6?)"
        );
        return 2;
    }
    let b = dtf_bench::storage::storage_bench();
    let measured_append = b
        .append
        .iter()
        .find(|a| a.policy == "group_commit_256")
        .map(|a| a.records_per_s)
        .unwrap_or(0.0);
    let mut failed = false;
    for (what, unit, measured, expected) in [
        ("group-commit append", "records/s", measured_append, expected_append),
        ("recovery scan", "records/s", b.recovery.records_per_s, expected_recovery),
        ("codec encode", "MiB/s", b.codec.encode_mib_s, expected_encode),
        ("codec decode", "MiB/s", b.codec.decode_mib_s, expected_decode),
    ] {
        let floor = expected * (1.0 - ALLOWED_REGRESSION);
        println!(
            "store {what}: measured {measured:.0} {unit}, baseline {expected:.0} (floor {floor:.0})"
        );
        if measured < floor {
            eprintln!(
                "store-check: FAIL — {what} regressed more than {:.0}%",
                ALLOWED_REGRESSION * 100.0
            );
            failed = true;
        }
    }
    // replay is a wall time: lower is better, so the gate is a ceiling
    let ceiling = expected_replay * (1.0 + ALLOWED_REGRESSION);
    println!(
        "store binary replay: measured {:.1} ms, baseline {:.1} (ceiling {:.1})",
        b.codec.replay_binary_ms, expected_replay, ceiling
    );
    if b.codec.replay_binary_ms > ceiling {
        eprintln!(
            "store-check: FAIL — binary replay slowed more than {:.0}%",
            ALLOWED_REGRESSION * 100.0
        );
        failed = true;
    }
    // schema-6 absolute gate, measured fresh: the sparse index must beat
    // a full scan by an order of magnitude per query.
    const SPEEDUP_FLOOR: f64 = 10.0;
    for (what, speedup) in [
        ("indexed point read", b.scale.indexed.point_speedup),
        ("indexed range read", b.scale.indexed.range_speedup),
    ] {
        println!("store {what}: measured {speedup:.0}x vs full scan (floor {SPEEDUP_FLOOR})");
        if speedup < SPEEDUP_FLOOR {
            eprintln!("store-check: FAIL — {what} is only {speedup:.1}x a full scan");
            failed = true;
        }
    }
    if failed {
        1
    } else {
        println!("store-check: OK");
        0
    }
}

/// Run the full many-client stress bench, print the `stress` section of
/// `BENCH_repro.json`, and — when a committed artifact is present —
/// refresh that section in place so CI can upload the measured document.
fn stress_bench() -> i32 {
    let out = dtf_bench::stress::stress_bench(&dtf_bench::StressConfig::full());
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("stress-bench: delivery violation: {v}");
        }
        return 1;
    }
    let b = &out.bench;
    println!(
        "stress plane: {:.2}M events/s aggregate ({:.2}M produced/s + {:.2}M consumed/s)",
        b.aggregate_events_per_s / 1e6,
        b.produced_per_s / 1e6,
        b.consumed_per_s / 1e6
    );
    println!(
        "  {} producers x {} events -> {} partitions / {} shards, {} groups x {} members, \
         {:.2}s wall",
        b.producers,
        b.events_per_producer,
        b.partitions,
        b.shards,
        b.consumer_groups,
        b.members_per_group,
        b.wall_s
    );
    let section = serde_json::to_value(b).expect("section serializes");
    println!("{}", serde_json::to_string_pretty(&section).expect("section serializes"));
    // refresh the committed artifact's stress section in place, leaving
    // every other section at its committed baseline
    if let Ok(s) = std::fs::read_to_string("BENCH_repro.json") {
        match serde_json::from_str::<serde_json::Value>(&s) {
            Ok(serde_json::Value::Object(mut doc)) => {
                doc.insert("stress".to_string(), section);
                let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
                    .expect("doc serializes");
                match std::fs::write("BENCH_repro.json", pretty) {
                    Ok(()) => println!("refreshed stress section of BENCH_repro.json"),
                    Err(e) => {
                        eprintln!("stress-bench: cannot rewrite BENCH_repro.json: {e}");
                        return 1;
                    }
                }
            }
            Ok(_) => {
                eprintln!("stress-bench: BENCH_repro.json is not a JSON object, leaving it");
                return 1;
            }
            Err(e) => {
                eprintln!("stress-bench: BENCH_repro.json is not valid JSON, leaving it: {e}");
                return 1;
            }
        }
    }
    0
}

/// CI regression gate for the concurrent data plane: re-run the full
/// stress configuration and compare aggregate events/s to the committed
/// `BENCH_repro.json`. Fails (exit 1) on a >20% drop; fails (exit 2) if
/// the baseline lacks the schema-5 field, so the gate can never silently
/// pass.
fn stress_check() -> i32 {
    const ALLOWED_REGRESSION: f64 = 0.20;
    let baseline = match std::fs::read_to_string("BENCH_repro.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stress-check: cannot read BENCH_repro.json: {e}");
            return 2;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("stress-check: BENCH_repro.json is not valid JSON: {e}");
            return 2;
        }
    };
    let Some(expected) = doc["stress"]["aggregate_events_per_s"].as_f64() else {
        eprintln!(
            "stress-check: BENCH_repro.json has no stress.aggregate_events_per_s (schema < 5?)"
        );
        return 2;
    };
    let out = dtf_bench::stress::stress_bench(&dtf_bench::StressConfig::full());
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("stress-check: delivery violation: {v}");
        }
        return 1;
    }
    let measured = out.bench.aggregate_events_per_s;
    let floor = expected * (1.0 - ALLOWED_REGRESSION);
    println!(
        "stress plane: measured {:.2}M events/s aggregate, baseline {:.2}M (floor {:.2}M)",
        measured / 1e6,
        expected / 1e6,
        floor / 1e6
    );
    if measured < floor {
        eprintln!(
            "stress-check: FAIL — aggregate events/s regressed more than {:.0}%",
            ALLOWED_REGRESSION * 100.0
        );
        1
    } else {
        println!("stress-check: OK");
        0
    }
}

/// Measure live-view maintenance alone, print the `views` section, and —
/// when a committed artifact is present — refresh that section in place,
/// bumping the document to schema 7 so `view-check` can gate against it.
fn view_bench() -> i32 {
    let b = dtf_bench::liveviews::view_bench();
    println!(
        "live views: Δ-refresh {:.2} ms (best of tail), ingest {:.1} ms over {} refreshes",
        b.delta_refresh_ms, b.ingest_ms, b.refreshes
    );
    println!(
        "  recompute: drain {:.1} ms + kernels {:.1} ms = {:.1} ms -> speedup {:.0}x",
        b.drain_ms, b.kernels_ms, b.recompute_ms, b.speedup
    );
    println!(
        "  {} events in Δ={} batches, {} categories x {} workers, {} subscribers, \
         equivalent: {}",
        b.events, b.batch, b.categories, b.workers, b.subscribers, b.equivalent
    );
    if !b.equivalent {
        eprintln!("view-bench: FAIL — live snapshot diverged from the post-hoc kernels");
        return 1;
    }
    let section = serde_json::to_value(&b).expect("section serializes");
    println!("{}", serde_json::to_string_pretty(&section).expect("section serializes"));
    // refresh the committed artifact's views section in place, leaving
    // every other section at its committed baseline
    if let Ok(s) = std::fs::read_to_string("BENCH_repro.json") {
        match serde_json::from_str::<serde_json::Value>(&s) {
            Ok(serde_json::Value::Object(mut doc)) => {
                doc.insert("views".to_string(), section);
                // the views section is what schema 7 adds, so refreshing it
                // into an older artifact upgrades the document
                let schema = doc.get("schema").and_then(|v| v.as_u64()).unwrap_or(0);
                doc.insert("schema".to_string(), serde_json::json!(schema.max(7)));
                let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
                    .expect("doc serializes");
                match std::fs::write("BENCH_repro.json", pretty) {
                    Ok(()) => println!("refreshed views section of BENCH_repro.json"),
                    Err(e) => {
                        eprintln!("view-bench: cannot rewrite BENCH_repro.json: {e}");
                        return 1;
                    }
                }
            }
            Ok(_) => {
                eprintln!("view-bench: BENCH_repro.json is not a JSON object, leaving it");
                return 1;
            }
            Err(e) => {
                eprintln!("view-bench: BENCH_repro.json is not valid JSON, leaving it: {e}");
                return 1;
            }
        }
    }
    0
}

/// CI gate for live-view maintenance: re-measure and require (a) the live
/// snapshot to be value-identical to the post-hoc kernels, (b) a Δ-refresh
/// at least 10x faster than a full recompute, and (c) no >20% regression
/// of the Δ-refresh wall against the committed `BENCH_repro.json`. Exit 2
/// if the baseline lacks the schema-7 fields, so the gate can never
/// silently pass.
fn view_check() -> i32 {
    const ALLOWED_REGRESSION: f64 = 0.20;
    const SPEEDUP_FLOOR: f64 = 10.0;
    let baseline = match std::fs::read_to_string("BENCH_repro.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("view-check: cannot read BENCH_repro.json: {e}");
            return 2;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("view-check: BENCH_repro.json is not valid JSON: {e}");
            return 2;
        }
    };
    let Some(expected_delta) = doc["views"]["delta_refresh_ms"].as_f64() else {
        eprintln!("view-check: BENCH_repro.json has no views.delta_refresh_ms (schema < 7?)");
        return 2;
    };
    if doc["views"]["speedup"].as_f64().is_none() {
        eprintln!("view-check: BENCH_repro.json has no views.speedup");
        return 2;
    }
    if doc["views"]["equivalent"].as_bool() != Some(true) {
        eprintln!("view-check: committed views baseline was not equivalent");
        return 2;
    }
    let b = dtf_bench::liveviews::view_bench();
    let mut failed = false;
    if !b.equivalent {
        eprintln!("view-check: FAIL — live snapshot diverged from the post-hoc kernels");
        failed = true;
    }
    println!(
        "live views speedup: measured {:.0}x (Δ-refresh {:.2} ms vs recompute {:.1} ms, \
         floor {SPEEDUP_FLOOR}x)",
        b.speedup, b.delta_refresh_ms, b.recompute_ms
    );
    if b.speedup < SPEEDUP_FLOOR {
        eprintln!(
            "view-check: FAIL — a Δ-refresh is only {:.1}x faster than a full recompute",
            b.speedup
        );
        failed = true;
    }
    // Δ-refresh is a wall time: lower is better, so the gate is a ceiling
    let ceiling = expected_delta * (1.0 + ALLOWED_REGRESSION);
    println!(
        "live views Δ-refresh: measured {:.2} ms, baseline {:.2} (ceiling {:.2})",
        b.delta_refresh_ms, expected_delta, ceiling
    );
    if b.delta_refresh_ms > ceiling {
        eprintln!(
            "view-check: FAIL — Δ-refresh slowed more than {:.0}%",
            ALLOWED_REGRESSION * 100.0
        );
        failed = true;
    }
    if failed {
        1
    } else {
        println!("view-check: OK");
        0
    }
}

/// Measure the proxy-plane ablation alone, print the `proxy` section, and
/// — when a committed artifact is present — refresh that section in
/// place, bumping the document to schema 8 so `proxy-check` can gate
/// against it.
fn proxy_bench() -> i32 {
    let b = dtf_bench::proxy::proxy_bench();
    println!(
        "proxy plane: in-band {:.1} MiB -> {:.3} MiB over {} transfers ({:.0}x reduction)",
        b.in_band_bytes_off as f64 / (1024.0 * 1024.0),
        b.in_band_bytes_on as f64 / (1024.0 * 1024.0),
        b.transfers,
        b.scheduler_bytes_reduction
    );
    println!(
        "  {} tasks, {} published / {} resolved, {:.1} MiB payloads over a {:.1} MiB threshold",
        b.tasks,
        b.published,
        b.resolved,
        b.payload_bytes as f64 / (1024.0 * 1024.0),
        b.threshold_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  resolver fast path: {:.0} ns/resolve over {} fresh resolves, sim wall {:.1}s, \
         identical: {}",
        b.resolve_ns, b.resolves, b.sim_wall_s, b.identical
    );
    if !b.identical {
        eprintln!("proxy-bench: FAIL — the plane perturbed the schedule");
        return 1;
    }
    let section = serde_json::to_value(&b).expect("section serializes");
    println!("{}", serde_json::to_string_pretty(&section).expect("section serializes"));
    // refresh the committed artifact's proxy section in place, leaving
    // every other section at its committed baseline
    if let Ok(s) = std::fs::read_to_string("BENCH_repro.json") {
        match serde_json::from_str::<serde_json::Value>(&s) {
            Ok(serde_json::Value::Object(mut doc)) => {
                doc.insert("proxy".to_string(), section);
                // the proxy section is what schema 8 adds, so refreshing it
                // into an older artifact upgrades the document
                let schema = doc.get("schema").and_then(|v| v.as_u64()).unwrap_or(0);
                doc.insert("schema".to_string(), serde_json::json!(schema.max(8)));
                let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(doc))
                    .expect("doc serializes");
                match std::fs::write("BENCH_repro.json", pretty) {
                    Ok(()) => println!("refreshed proxy section of BENCH_repro.json"),
                    Err(e) => {
                        eprintln!("proxy-bench: cannot rewrite BENCH_repro.json: {e}");
                        return 1;
                    }
                }
            }
            Ok(_) => {
                eprintln!("proxy-bench: BENCH_repro.json is not a JSON object, leaving it");
                return 1;
            }
            Err(e) => {
                eprintln!("proxy-bench: BENCH_repro.json is not valid JSON, leaving it: {e}");
                return 1;
            }
        }
    }
    0
}

/// CI gate for the proxy plane: re-measure and require (a) the plane-on
/// run to be event-for-event identical to plane-off, (b) a scheduler-byte
/// reduction of at least 5x that also hasn't dropped >20% against the
/// committed `BENCH_repro.json`, and (c) no >20% regression of the
/// resolver fast-path latency. Exit 2 if the baseline lacks the schema-8
/// fields, so the gate can never silently pass.
fn proxy_check() -> i32 {
    const ALLOWED_REGRESSION: f64 = 0.20;
    const REDUCTION_FLOOR: f64 = 5.0;
    let baseline = match std::fs::read_to_string("BENCH_repro.json") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("proxy-check: cannot read BENCH_repro.json: {e}");
            return 2;
        }
    };
    let doc: serde_json::Value = match serde_json::from_str(&baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("proxy-check: BENCH_repro.json is not valid JSON: {e}");
            return 2;
        }
    };
    let Some(expected_reduction) = doc["proxy"]["scheduler_bytes_reduction"].as_f64() else {
        eprintln!(
            "proxy-check: BENCH_repro.json has no proxy.scheduler_bytes_reduction (schema < 8?)"
        );
        return 2;
    };
    let Some(expected_resolve) = doc["proxy"]["resolve_ns"].as_f64() else {
        eprintln!("proxy-check: BENCH_repro.json has no proxy.resolve_ns");
        return 2;
    };
    if doc["proxy"]["identical"].as_bool() != Some(true) {
        eprintln!("proxy-check: committed proxy baseline was not schedule-identical");
        return 2;
    }
    let b = dtf_bench::proxy::proxy_bench();
    let mut failed = false;
    if !b.identical {
        eprintln!("proxy-check: FAIL — the plane perturbed the schedule");
        failed = true;
    }
    // the reduction is a ratio: higher is better, so the gate is a floor —
    // the absolute 5x acceptance bar and the 20%-of-baseline band
    let floor = REDUCTION_FLOOR.max(expected_reduction * (1.0 - ALLOWED_REGRESSION));
    println!(
        "proxy scheduler-byte reduction: measured {:.1}x, baseline {:.1}x (floor {:.1}x)",
        b.scheduler_bytes_reduction, expected_reduction, floor
    );
    if b.scheduler_bytes_reduction < floor {
        eprintln!(
            "proxy-check: FAIL — scheduler-byte reduction fell below the {:.1}x floor",
            floor
        );
        failed = true;
    }
    // resolve latency is a wall time: lower is better, so a ceiling
    let ceiling = expected_resolve * (1.0 + ALLOWED_REGRESSION);
    println!(
        "proxy resolve latency: measured {:.0} ns, baseline {:.0} (ceiling {:.0})",
        b.resolve_ns, expected_resolve, ceiling
    );
    if b.resolve_ns > ceiling {
        eprintln!(
            "proxy-check: FAIL — resolve latency regressed more than {:.0}%",
            ALLOWED_REGRESSION * 100.0
        );
        failed = true;
    }
    if failed {
        1
    } else {
        println!("proxy-check: OK");
        0
    }
}

/// End-to-end recovery smoke: a persistent seeded campaign, a
/// fresh-process archive reopen gated byte-for-byte against the live
/// export bundle, then seeded crash faults on store copies judged by the
/// recovery oracle. On failure the store directory is left in place so CI
/// can upload it as an artifact.
fn recovery_smoke(seed: u64) -> i32 {
    use dtf_chaos::{copy_store, recovery_oracle, CrashFault};
    use dtf_core::ids::RunId;
    use dtf_core::rngx::RunRng;
    use dtf_mofka::MofkaService;
    use dtf_perfrecup::export::export_run;
    use dtf_wms::sim::{SimCluster, SimConfig};
    use dtf_wms::RunData;

    const FAULTS: u64 = 9;
    let base = std::env::temp_dir().join(format!("dtf-recovery-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store = base.join("store");
    println!("recovery-smoke: seed {seed}, store {}", store.display());

    // persisted the way the benchmark's `campaign_durable` persists a run:
    // proxy plane and online Darshan on, so the archived-export diff below
    // covers every topic and the whole `run-meta` document
    let workload = dtf_workflows::Workload::ImageProcessing;
    let mut cfg = SimConfig {
        campaign_seed: seed,
        run: RunId(0),
        persist_dir: Some(store.to_string_lossy().into_owned()),
        online_darshan: true,
        ..Default::default()
    };
    cfg.proxy.enabled = true;
    workload.adjust(&mut cfg);
    let rr = RunRng::new(seed, RunId(0));
    let cluster = match SimCluster::new(cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("recovery-smoke: cluster bootstrap failed: {e}");
            return 1;
        }
    };
    let live = match cluster.run(workload.generate(&rr)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("recovery-smoke: persistent run failed: {e}");
            return 1;
        }
    };
    let mut failures = 0u32;

    // Gate 1: a fresh-process archive reopen must reproduce the live run's
    // export bundle byte for byte.
    match RunData::open_archive(&store) {
        Ok((archived, recovery)) => {
            println!(
                "recovery-smoke: archive reopened ({} events restored, torn: {})",
                recovery.restored_events,
                recovery.yokan.torn || recovery.warabi.torn || recovery.topics.torn
            );
            let live_dir = base.join("export-live");
            let arch_dir = base.join("export-archived");
            let exported = export_run(&live, &live_dir)
                .and_then(|_| export_run(&archived, &arch_dir))
                .map(|_| diff_export_dirs(&live_dir, &arch_dir));
            match exported {
                Ok(diffs) if diffs.is_empty() => {
                    println!("recovery-smoke: archived export is byte-identical to live");
                }
                Ok(diffs) => {
                    for d in &diffs {
                        eprintln!("recovery-smoke: export diff: {d}");
                    }
                    failures += 1;
                }
                Err(e) => {
                    eprintln!("recovery-smoke: export failed: {e}");
                    failures += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("recovery-smoke: archive reopen failed: {e}");
            failures += 1;
        }
    }

    // Gate 2: crash faults at random committed offsets, recovery oracle.
    let original = match MofkaService::reopen(&store) {
        Ok((svc, _)) => svc,
        Err(e) => {
            eprintln!("recovery-smoke: pristine reopen failed: {e}");
            eprintln!("recovery-smoke: FAIL — store kept at {}", base.display());
            return 1;
        }
    };
    for i in 0..FAULTS {
        // the fault space also damages cache artifacts (sparse indexes)
        let fault = CrashFault::generate(seed.wrapping_mul(FAULTS).wrapping_add(i));
        let victim = base.join(format!("victim-{i}"));
        let outcome = copy_store(&store, &victim).and_then(|()| fault.apply(&victim)).and_then(
            |(file, at)| {
                let (recovered, _) = MofkaService::reopen(&victim)?;
                Ok((file, at, recovery_oracle(&original, &recovered)))
            },
        );
        match outcome {
            Ok((file, at, violations)) if violations.is_empty() => {
                println!(
                    "recovery-smoke: fault {i} {:?}/{:?} at {} byte {at}: recovered clean",
                    fault.kind,
                    fault.target,
                    file.file_name().unwrap_or_default().to_string_lossy()
                );
                let _ = std::fs::remove_dir_all(&victim);
            }
            Ok((_, at, violations)) => {
                eprintln!("recovery-smoke: fault {i} {fault:?} at byte {at} VIOLATED recovery:");
                for v in &violations {
                    eprintln!("  {v}");
                }
                failures += 1;
            }
            // Metadata-only campaigns leave the blob log empty, so a
            // warabi-targeted fault has no committed tail to damage —
            // that precondition failure is a skip, not a violation
            // (warabi crash coverage lives in dtf-chaos's own tests).
            Err(dtf_core::error::DtfError::IllegalState(msg)) => {
                println!("recovery-smoke: fault {i} {fault:?} skipped: {msg}");
                let _ = std::fs::remove_dir_all(&victim);
            }
            Err(e) => {
                eprintln!("recovery-smoke: fault {i} {fault:?} could not be exercised: {e}");
                failures += 1;
            }
        }
    }

    if failures == 0 {
        let _ = std::fs::remove_dir_all(&base);
        println!("recovery-smoke: OK");
        0
    } else {
        eprintln!(
            "recovery-smoke: FAIL ({failures} gate(s)) — artifacts kept at {}",
            base.display()
        );
        1
    }
}

/// Byte-compare two export directories; returns human-readable mismatches.
fn diff_export_dirs(a: &std::path::Path, b: &std::path::Path) -> Vec<String> {
    let list = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    };
    let (an, bn) = (list(a), list(b));
    let mut diffs = Vec::new();
    if an != bn {
        diffs.push(format!("file sets differ: {} vs {} files", an.len(), bn.len()));
        return diffs;
    }
    for name in &an {
        let av = std::fs::read(a.join(name)).unwrap_or_default();
        let bv = std::fs::read(b.join(name)).unwrap_or_default();
        if av != bv {
            diffs.push(format!("{name}: {} vs {} bytes, contents differ", av.len(), bv.len()));
        }
    }
    diffs
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig3|fig4|fig5|fig6|fig7|fig8|\\
ablation-stealing|ablation-dxt-buffer|ablation-dxt-threads|\\
ablation-schedule-order|ablation-mofka-batch|overhead|\\
chaos|chaos-replay|bench|provenance-bench|provenance-check|\\
store-bench|store-check|stress-bench|stress-check|\\
view-bench|view-check|proxy-bench|proxy-check|recovery-smoke|all> \\
[--seed N] [--runs N] [--schedules K] [--index I] [--jobs J]"
    );
    std::process::exit(2)
}
