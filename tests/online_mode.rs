//! The paper's §VI future-work direction of fully-online Darshan→Mofka
//! streaming, implemented and verified.

use dtf::core::events::IoOp;
use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::darshan::DxtConfig;
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::workflows::Workload;

fn resnet_run(dxt: DxtConfig, online: bool) -> dtf::wms::RunData {
    let seed = 17;
    let rr = RunRng::new(seed, RunId(0));
    let workflow = Workload::ResNet152.generate(&rr);
    let cfg = SimConfig {
        campaign_seed: seed,
        run: RunId(0),
        dxt,
        online_darshan: online,
        ..Default::default()
    };
    SimCluster::new(cfg).unwrap().run(workflow).unwrap()
}

#[test]
fn online_streaming_bypasses_dxt_truncation() {
    // the exact footnote-9 configuration, but with records also streamed
    // to Mofka at capture time
    let data = resnet_run(dtf::workflows::resnet::dxt_config(), true);
    assert!(data.darshan.any_truncated(), "DXT logs are still truncated");
    let online_data_ops =
        data.online_io.iter().filter(|r| matches!(r.op, IoOp::Read | IoOp::Write)).count() as u64;
    // the online stream saw *every* operation the counters saw
    assert_eq!(online_data_ops, data.io_ops_complete());
    assert!(online_data_ops > data.io_ops(), "more than the truncated trace");
    // and the records carry the join identifiers
    assert!(data.online_io.iter().all(|r| r.thread.0 != 0));
}

#[test]
fn online_mode_off_keeps_topic_empty() {
    let data = resnet_run(dtf::workflows::resnet::dxt_config(), false);
    assert!(data.online_io.is_empty());
}
