//! Proxy-plane ablation: the `proxy` section of `BENCH_repro.json`
//! (schema 8).
//!
//! One data-heavy layered workflow (large task outputs, heavy cross-layer
//! fan-in) is simulated twice from the same seed — out-of-band plane off
//! and on. The plane is a pure accounting overlay over an unchanged
//! schedule, so the two runs must agree event-for-event (`identical`);
//! the payoff is attribution: with the plane on, every transfer of a
//! published output carries only the [`dtf_proxystore::ProxyRef`]
//! in-band while the payload moves peer-to-peer. The reported
//! `scheduler_bytes_reduction` (all-in-band bytes over in-band bytes with
//! the plane on, via [`dtf_perfrecup::data_movement`]) is what
//! `repro check proxy` gates (≥5x, and at most 0.10 below the baseline),
//! beside `identical`; `resolve_ns` — a timed micro-benchmark of the
//! resolver fast path (manifest read + checksum verify + cache admission)
//! — is recorded, not gated (DESIGN §11).

use std::collections::HashSet;
use std::time::Instant;

use serde::Serialize;

use dtf_core::ids::{GraphId, NodeId, RunId, TaskKey, WorkerId};
use dtf_core::time::{Dur, Time};
use dtf_perfrecup::data_movement;
use dtf_proxystore::{ProxyConfig, ProxyPlane};
use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf_wms::{GraphBuilder, SimAction};

/// The `proxy` section of the artifact.
#[derive(Debug, Serialize)]
pub struct ProxyBench {
    /// Tasks in the data-heavy workflow.
    pub tasks: u64,
    /// Inter-worker transfers the schedule produced.
    pub transfers: u64,
    /// Publish threshold the ablation ran with.
    pub threshold_bytes: u64,
    /// Per-output payload size of the data-heavy layers.
    pub payload_bytes: u64,
    /// Plane-off and plane-on runs agree event-for-event: same wall time,
    /// same start order, same transfers, same transitions.
    pub identical: bool,
    /// Simulated wall time (identical under both configurations).
    pub sim_wall_s: f64,
    /// Total payload bytes moved between workers.
    pub total_bytes: u64,
    /// Scheduler-mediated bytes with the plane off (everything in-band).
    pub in_band_bytes_off: u64,
    /// Scheduler-mediated bytes with the plane on (refs for proxied
    /// transfers, payloads for the rest).
    pub in_band_bytes_on: u64,
    /// Payload bytes that moved peer-to-peer through the blob plane.
    pub out_of_band_bytes: u64,
    /// `in_band_bytes_off / in_band_bytes_on` — gated ≥ 5 by `repro check proxy`.
    pub scheduler_bytes_reduction: f64,
    /// Manifests published during the plane-on run.
    pub published: u64,
    /// First-use resolves during the plane-on run.
    pub resolved: u64,
    /// Fresh resolves timed by the micro-benchmark.
    pub resolves: u64,
    /// Best mean nanoseconds per fresh resolve.
    pub resolve_ns: f64,
}

/// Layered data-heavy workflow: `width` loaders emit `payload`-sized
/// outputs, then `layers` transform layers with two-parent fan-in keep the
/// large intermediates flowing across workers, and one small reduce drains
/// the last layer. Every large output crosses the publish threshold.
fn data_heavy_workflow(layers: u32, width: u32, payload: u64) -> SimWorkflow {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = (0..width)
        .map(|i| {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction::compute_only(Dur::from_secs_f64(1.0), payload),
            )
        })
        .collect();
    for layer in 1..=layers {
        prev = (0..width)
            .map(|i| {
                let deps = vec![prev[i as usize], prev[((i + 1) % width) as usize]];
                b.add_sim(
                    "transform",
                    tok + layer,
                    i,
                    deps,
                    SimAction::compute_only(Dur::from_secs_f64(0.5), payload),
                )
            })
            .collect();
    }
    b.add_sim(
        "reduce",
        tok + layers + 1,
        0,
        prev,
        SimAction::compute_only(Dur::from_secs_f64(0.5), 1 << 10),
    );
    SimWorkflow {
        name: "proxy-ablation".into(),
        graphs: vec![b.build(&HashSet::new()).expect("valid graph")],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

/// Resolver fast-path micro-benchmark: publish `keys` manifests, then time
/// `keys x workers` fresh resolves (distinct `(key, worker)` pairs so the
/// dedup shortcut never fires). Best-of-`trials` mean ns per resolve.
fn resolve_latency(keys: u32, workers: u32, trials: u32) -> (u64, f64) {
    let resolves = (keys as u64) * (workers as u64);
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let mut plane = ProxyPlane::new(ProxyConfig {
            enabled: true,
            threshold: 1,
            resolver_cache_bytes: u64::MAX,
        });
        let owner = WorkerId::new(NodeId(0), 0);
        let keys: Vec<TaskKey> = (0..keys)
            .map(|i| {
                let key = TaskKey::new("rb", 0, i);
                plane.publish(&key, GraphId(0), owner, 1 << 20, Time(i as u64));
                key
            })
            .collect();
        let t0 = Instant::now();
        for w in 0..workers {
            let to = WorkerId::new(NodeId(w / 4 + 1), w % 4);
            for key in &keys {
                let (_, events) = plane.resolve(key, to, Time(1_000_000)).expect("fresh resolve");
                std::hint::black_box(events.len());
            }
        }
        best = best.min(t0.elapsed().as_secs_f64() / resolves as f64);
    }
    (resolves, best * 1e9)
}

/// Run the ablation at the reference size: 6 transform layers, width 12,
/// 64 MiB payloads, 1 MiB threshold.
pub fn proxy_bench() -> ProxyBench {
    proxy_bench_sized(6, 12, 64 << 20)
}

/// Run the ablation over a `layers`-deep, `width`-wide workflow with
/// `payload`-byte large outputs.
pub fn proxy_bench_sized(layers: u32, width: u32, payload: u64) -> ProxyBench {
    const SEED: u64 = 0x9d0f;
    let threshold = 1u64 << 20;
    let off_cfg = SimConfig { campaign_seed: SEED, run: RunId(0), ..Default::default() };
    let mut on_cfg = off_cfg.clone();
    on_cfg.proxy =
        ProxyConfig { enabled: true, threshold, resolver_cache_bytes: 4 * payload.max(1) };

    let wf = data_heavy_workflow(layers, width, payload);
    let tasks = wf.graphs.iter().map(|g| g.len() as u64).sum();
    let off = SimCluster::new(off_cfg).expect("cluster").run(wf.clone()).expect("plane-off run");
    let on = SimCluster::new(on_cfg).expect("cluster").run(wf).expect("plane-on run");

    let identical = off.wall_time == on.wall_time
        && off.start_order == on.start_order
        && serde_json::to_string(&off.comms).unwrap() == serde_json::to_string(&on.comms).unwrap()
        && serde_json::to_string(&off.transitions).unwrap()
            == serde_json::to_string(&on.transitions).unwrap();

    let s_off = data_movement::summary(&off);
    let s_on = data_movement::summary(&on);
    debug_assert_eq!(s_off.in_band_bytes, s_off.total_bytes, "plane off: everything in-band");

    use dtf_core::events::ProxyAction;
    let published = on.proxies.iter().filter(|p| p.action == ProxyAction::Published).count() as u64;
    let resolved = on.proxies.iter().filter(|p| p.action == ProxyAction::Resolved).count() as u64;

    let (resolves, resolve_ns) = resolve_latency(256, 8, 3);

    ProxyBench {
        tasks,
        transfers: on.comms.len() as u64,
        threshold_bytes: threshold,
        payload_bytes: payload,
        identical,
        sim_wall_s: on.wall_time.as_secs_f64(),
        total_bytes: s_on.total_bytes,
        in_band_bytes_off: s_off.in_band_bytes,
        in_band_bytes_on: s_on.in_band_bytes,
        out_of_band_bytes: s_on.out_of_band_bytes,
        scheduler_bytes_reduction: s_off.in_band_bytes as f64 / s_on.in_band_bytes.max(1) as f64,
        published,
        resolved,
        resolves,
        resolve_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_bench_shows_reduction_at_small_scale() {
        // small shape keeps the unit test fast; the reference artifact is
        // taken by `repro bench proxy` at 6x12 with 64 MiB payloads
        let b = proxy_bench_sized(3, 6, 16 << 20);
        assert!(b.identical, "plane on/off must agree event-for-event");
        assert!(b.published > 0, "large outputs must publish");
        assert!(b.resolved > 0, "cross-worker dependents must resolve");
        assert!(b.out_of_band_bytes > 0);
        assert_eq!(b.in_band_bytes_off, b.total_bytes);
        assert!(
            b.scheduler_bytes_reduction >= 5.0,
            "data-heavy run must relieve the scheduler channel ≥5x, got {:.2}",
            b.scheduler_bytes_reduction
        );
        assert!(b.resolve_ns > 0.0);
        assert_eq!(b.resolves, 256 * 8);
    }
}
