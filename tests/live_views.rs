//! Equivalence properties of the online incremental view engine
//! (`dtf::perfrecup::live`): however a run's event stream is chunked into
//! the engine — and whatever faults perturbed the run — the finalized live
//! snapshot must be *value-identical* to the post-hoc kernels over the
//! same drained record, and subscribers who joined mid-run must converge
//! to that same snapshot.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;

use dtf::chaos::run_schedule;
use dtf::core::ids::{FileId, GraphId, RunId, TaskKey};
use dtf::core::time::Dur;
use dtf::mofka::bedrock::BedrockConfig;
use dtf::mofka::ProducerConfig;
use dtf::perfrecup::category::per_category;
use dtf::perfrecup::live::{
    phase_sample, query_rundata, republish, LiveConfig, LiveViews, RunFinal, ViewQuery,
};
use dtf::perfrecup::utilization::per_worker;
use dtf::wms::rundata::RunData;
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::{GraphBuilder, IoCall, SimAction};

/// A seed-derived layered workflow run to completion under virtual time.
fn sim_run(seed: u64, layers: usize, width: usize) -> RunData {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    for layer in 0..layers {
        let mut cur = Vec::new();
        for i in 0..width {
            let mut action = SimAction::compute_only(
                Dur::from_millis_f64(8.0 + ((seed >> (i % 8)) % 40) as f64),
                1 << 14,
            );
            let deps = if prev.is_empty() {
                action.io.push(IoCall::read(FileId(0), i as u64 * 8192, 8192));
                Vec::new()
            } else {
                vec![prev[i % prev.len()]]
            };
            cur.push(b.add_sim(&format!("layer{layer}"), tok, i as u32, deps, action));
        }
        prev = cur;
    }
    let wf = SimWorkflow {
        name: format!("live-prop-{seed}"),
        graphs: vec![b.build(&HashSet::new()).expect("layered DAG is valid")],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(0.5),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("/props.dat".into(), 1 << 20, 1)],
    };
    SimCluster::new(SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() })
        .expect("cluster")
        .run(wf)
        .expect("run")
}

/// Drain `svc` exactly as the post-hoc analysis would (fresh group),
/// reusing the non-Mofka half of `orig`.
fn drain_again(svc: &dtf::mofka::MofkaService, orig: &RunData) -> RunData {
    RunData::drain_from_mofka(
        svc,
        RunId(7777),
        orig.workflow.clone(),
        orig.chart.clone(),
        orig.darshan.clone(),
        orig.wall_time,
        orig.start_order.clone(),
        orig.steals,
    )
    .expect("post-hoc drain")
}

/// The oracle: republish `data` into a fresh service, pump a live engine
/// through it in the given chunk pattern (subscribing mid-run), finalize,
/// and require value-identity with the post-hoc kernels over a drain of
/// the same service.
fn check_live_equivalence(data: &RunData, chunks: &[usize], bins: usize) {
    let svc = BedrockConfig::wms_default().bootstrap().expect("service");
    republish(data, &svc, ProducerConfig::default()).expect("republish");
    let cfg = LiveConfig { group: "live-prop".into(), bins, threads_per_worker: 1 };
    let mut live = LiveViews::attach(&svc, cfg).expect("attach");
    let mut chunk_iter = chunks.iter().cycle();
    let mut mid_sub = None;
    loop {
        let chunk = (*chunk_iter.next().unwrap()).max(1);
        if live.pump(chunk).expect("pump") == 0 {
            break;
        }
        live.publish();
        // the first publish is where a dashboard would join mid-run
        if mid_sub.is_none() {
            let sub = live.subscribe();
            let seen = sub.latest().version;
            assert!(seen >= 1, "subscriber joined after a publish");
            mid_sub = Some((sub, seen));
        }
    }
    let snap = live
        .finalize(RunFinal { darshan: data.darshan.clone(), wall_time: data.wall_time })
        .expect("finalize");

    let oracle = drain_again(&svc, data);
    assert_eq!(snap.categories, per_category(&oracle), "categories value-identical");
    assert_eq!(snap.utilization, per_worker(&oracle, bins, 1), "utilization value-identical");
    assert_eq!(snap.phases, phase_sample(&oracle), "phases value-identical");
    assert_eq!(snap.progress.task_done, oracle.task_done.len() as u64);

    // hot/cold unification: the same queries answer identically from the
    // finalized live state and from the drained record
    for q in [
        ViewQuery::Categories,
        ViewQuery::Utilization { bins, threads_per_worker: 1 },
        ViewQuery::Phases,
    ] {
        assert_eq!(live.query(&q), query_rundata(&oracle, &q), "{q:?}");
    }

    // the mid-run subscriber converges to the finalized snapshot
    let (sub, seen) = mid_sub.expect("at least one batch was published");
    let last = sub.wait_newer(seen, Duration::from_secs(10));
    assert_eq!(last.version, snap.version, "subscriber saw the finalize publish");
    assert!(last.finalized);
    assert_eq!(last.categories, snap.categories);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary layered workflows, pumped in arbitrary chunkings: the
    /// finalized live views equal the post-hoc kernels bit for bit.
    #[test]
    fn live_views_match_post_hoc_for_arbitrary_interleavings(
        seed in 0u64..10_000,
        layers in 1usize..4,
        width in 1usize..5,
        chunks in proptest::collection::vec(1usize..257, 1..8),
        bins in 4usize..24,
    ) {
        let data = sim_run(seed, layers, width);
        check_live_equivalence(&data, &chunks, bins);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded chaos fault schedules: runs perturbed by every fault family
    /// (worker deaths, fetch faults, Mofka stalls, PFS bursts, stragglers,
    /// hot spots, proxy faults) still replay through the live engine
    /// value-identical to the post-hoc kernels.
    #[test]
    fn live_views_match_post_hoc_under_chaos_schedules(
        campaign_seed in 0u64..1_000,
        index in 0u64..8,
        chunk in 1usize..129,
    ) {
        let (outcome, data) = run_schedule(campaign_seed, index);
        let data = data.unwrap_or_else(|| panic!("{}", outcome.describe()));
        check_live_equivalence(&data, &[chunk], 16);
    }
}
