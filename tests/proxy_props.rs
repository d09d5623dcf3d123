//! Property-based neutrality and lineage-pairing gates for the
//! out-of-band proxy plane.
//!
//! The plane is a pure accounting/provenance overlay over an unchanged
//! schedule, so for *any* layered workflow the analysis export bundle —
//! the same files `tests/golden/export_fnv64.txt` pins for the fixed-seed
//! run — must be byte-identical with the plane off and on. And the proxy
//! lifecycle stream the plane adds must be internally coherent: every
//! `Resolved` manifest was `Published` first, and every published manifest
//! names a task in the drained lineage.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use dtf::core::events::ProxyAction;
use dtf::core::fnv64;
use dtf::core::ids::{GraphId, RunId, TaskKey};
use dtf::core::time::Dur;
use dtf::perfrecup::export::export_run;
use dtf::proxystore::ProxyConfig;
use dtf::wms::graph::{GraphBuilder, SimAction, TaskGraph};
use dtf::wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
use dtf::wms::RunData;

/// Random layered DAG with mixed output sizes: roughly half the tasks
/// emit 4 MiB outputs (above the 256 KiB test threshold, so they publish)
/// and the rest emit 64 KiB (below it, so they stay in-band).
fn random_layered(layers: usize, width: usize, bytes: Vec<u8>) -> TaskGraph {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let mut prev: Vec<TaskKey> = Vec::new();
    let mut byte_iter = bytes.into_iter().cycle();
    for layer in 0..layers {
        let mut current = Vec::new();
        for i in 0..width {
            let deps: Vec<TaskKey> = prev
                .iter()
                .filter(|_| byte_iter.next().unwrap_or(0).is_multiple_of(3))
                .cloned()
                .collect();
            let ms = 40.0 + 4.0 * (byte_iter.next().unwrap_or(0) % 100) as f64;
            let nbytes =
                if byte_iter.next().unwrap_or(0).is_multiple_of(2) { 4 << 20 } else { 64 << 10 };
            current.push(b.add_sim(
                "node",
                tok,
                (layer * width + i) as u32,
                deps,
                SimAction::compute_only(Dur::from_millis_f64(ms), nbytes),
            ));
        }
        prev = current;
    }
    b.build(&HashSet::new()).expect("layered DAG is acyclic")
}

fn workflow_of(graph: TaskGraph) -> SimWorkflow {
    SimWorkflow {
        name: "prop".into(),
        graphs: vec![graph],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.0),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![],
    }
}

fn proxy_on() -> ProxyConfig {
    ProxyConfig { enabled: true, threshold: 256 << 10, resolver_cache_bytes: 64 << 20 }
}

/// Export the run and fingerprint the bundle file-by-file — the same
/// `name hash len` lines the committed golden pins.
fn export_fingerprint(data: &RunData) -> String {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dtf-proxy-props-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    export_run(data, &dir).expect("export");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read export dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let mut fingerprint = String::new();
    for name in &names {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        fingerprint.push_str(&format!("{name} {:016x} {}\n", fnv64(&bytes), bytes.len()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    fingerprint
}

/// Lineage-pairing checks over the drained proxy stream.
fn assert_publish_resolve_pairing(data: &RunData) {
    let done: HashSet<&TaskKey> = data.task_done.iter().map(|d| &d.key).collect();
    for p in &data.proxies {
        assert!(
            done.contains(&p.key),
            "proxy event for {} names a task outside the drained lineage",
            p.key
        );
        if p.action == ProxyAction::Resolved {
            assert!(
                data.proxies.iter().any(|q| {
                    q.key == p.key && q.time <= p.time && q.action == ProxyAction::Published
                }),
                "resolve of {} has no earlier publish",
                p.key
            );
        }
    }
}

proptest! {
    // each case simulates twice and exports twice, so keep the count modest
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary layered workflows, proxy-on and proxy-off runs export
    /// byte-identical analysis bundles, and the plane-on lifecycle stream
    /// pairs every resolve with a publish inside the drained lineage.
    #[test]
    fn proxy_plane_never_perturbs_the_export_bundle(
        layers in 2usize..4,
        width in 2usize..6,
        bytes in proptest::collection::vec(any::<u8>(), 4..48),
        seed in 0u64..500,
    ) {
        let graph = random_layered(layers, width, bytes);
        let wf = workflow_of(graph);
        let off_cfg = SimConfig { campaign_seed: seed, run: RunId(0), ..Default::default() };
        let mut on_cfg = off_cfg.clone();
        on_cfg.proxy = proxy_on();
        let off = SimCluster::new(off_cfg).unwrap().run(wf.clone()).unwrap();
        let on = SimCluster::new(on_cfg).unwrap().run(wf).unwrap();

        prop_assert_eq!(
            export_fingerprint(&off),
            export_fingerprint(&on),
            "proxy plane must not move a byte of the analysis export"
        );
        prop_assert!(off.proxies.is_empty(), "disabled plane must stay silent");
        assert_publish_resolve_pairing(&on);
        let violations = dtf::chaos::check_run(&on);
        prop_assert!(violations.is_empty(), "oracle violations: {violations:?}");
    }
}

/// Companion keeping the property non-vacuous: a wide fan-in workflow with
/// every output above the threshold actually publishes and resolves.
#[test]
fn proxy_plane_engages_on_data_heavy_load() {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    let roots: Vec<TaskKey> = (0..8)
        .map(|i| {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction::compute_only(Dur::from_secs_f64(0.5), 8 << 20),
            )
        })
        .collect();
    for i in 0..8u32 {
        b.add_sim(
            "join",
            tok + 1,
            i,
            roots.clone(),
            SimAction::compute_only(Dur::from_secs_f64(0.5), 1 << 10),
        );
    }
    let graph = b.build(&HashSet::new()).unwrap();
    let mut cfg = SimConfig { campaign_seed: 3, run: RunId(0), ..Default::default() };
    cfg.proxy = proxy_on();
    let data = SimCluster::new(cfg).unwrap().run(workflow_of(graph)).unwrap();
    let published = data.proxies.iter().filter(|p| p.action == ProxyAction::Published).count();
    let resolved = data.proxies.iter().filter(|p| p.action == ProxyAction::Resolved).count();
    assert_eq!(published, 8, "every 8 MiB load output publishes");
    assert!(resolved > 0, "fan-in dependents must resolve across workers");
    assert!(dtf::chaos::check_proxy_plane(&data).is_empty());
}
