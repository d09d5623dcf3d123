//! Reproducibility of the framework itself: identical `(seed, run)` pairs
//! produce bit-identical characterization data; different runs vary.

use dtf::core::ids::RunId;
use dtf::core::rngx::RunRng;
use dtf::wms::sim::{SimCluster, SimConfig};
use dtf::wms::RunData;
use dtf::workflows::Workload;

mod common;
use common::tagged;

fn run(workload: Workload, seed: u64, run: u32) -> RunData {
    let rr = RunRng::new(seed, RunId(run));
    let workflow = workload.generate(&rr);
    let mut cfg = SimConfig { campaign_seed: seed, run: RunId(run), ..Default::default() };
    workload.adjust(&mut cfg);
    SimCluster::new(cfg).unwrap().run(workflow).unwrap()
}

#[test]
fn identical_seed_and_run_reproduce_exactly() {
    let a = run(Workload::ImageProcessing, 13, 2);
    let b = run(Workload::ImageProcessing, 13, 2);
    assert_eq!(a.wall_time, b.wall_time);
    assert_eq!(a.task_done, b.task_done);
    assert_eq!(a.comms, b.comms);
    assert_eq!(a.warnings, b.warnings);
    assert_eq!(a.start_order, b.start_order);
    assert_eq!(a.io_ops(), b.io_ops());
    assert_eq!(a.steals, b.steals);
}

#[test]
fn different_runs_of_same_campaign_vary() {
    let a = run(Workload::ImageProcessing, 13, 0);
    let b = run(Workload::ImageProcessing, 13, 1);
    assert_ne!(a.wall_time, b.wall_time);
    // structural counts stay fixed; timings move
    assert_eq!(a.distinct_tasks(), b.distinct_tasks());
    assert_eq!(a.task_graphs(), b.task_graphs());
}

#[test]
fn different_campaign_seeds_vary() {
    let a = run(Workload::ImageProcessing, 1, 0);
    let b = run(Workload::ImageProcessing, 2, 0);
    assert_ne!(a.wall_time, b.wall_time);
}

/// The campaign pool's determinism gate: `Campaign::execute` spreads its
/// runs over one pool thread per core, and its output must be
/// byte-identical to a plain loop that simulates each run by itself — the
/// same summaries (start orders included) in run-index order, and a kept
/// first run that replays to the same canonical transition log. Three runs
/// occupy more than one pool thread on any host with two cores or more.
#[test]
fn parallel_campaign_output_is_byte_identical_to_sequential() {
    use dtf::chaos::transition_log;
    use dtf::workflows::{Campaign, RunSummary};

    let campaign =
        Campaign { runs: 3, keep_order: true, ..Campaign::paper(Workload::ImageProcessing, 1) };
    let pooled = campaign.execute().unwrap();

    let mut reference = Vec::new();
    let mut first_log = None;
    for r in 0..campaign.runs {
        let data = run(campaign.workload, campaign.campaign_seed, r);
        reference.push(RunSummary::of(&data, campaign.keep_order));
        first_log.get_or_insert_with(|| transition_log(&data));
    }

    // summaries byte-identical, in run-index order
    assert_eq!(
        serde_json::to_string(&pooled.summaries).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "summaries must not depend on the pool"
    );
    for (i, s) in pooled.summaries.iter().enumerate() {
        assert_eq!(s.run, RunId(i as u32), "run-index order");
    }

    // the kept first run replays to the same canonical transition log
    // (the chaos harness's double-run determinism gate, reused)
    assert_eq!(
        transition_log(&pooled.first.expect("run 0 is kept")),
        first_log.unwrap(),
        "canonical transition logs must be byte-identical"
    );
}

#[test]
fn campaign_summaries_are_reproducible() {
    use dtf::workflows::Campaign;
    let mut c1 = Campaign::paper(Workload::ImageProcessing, 21);
    c1.runs = 2;
    let mut c2 = Campaign::paper(Workload::ImageProcessing, 21);
    c2.runs = 2;
    let r1 = c1.execute().unwrap();
    let r2 = c2.execute().unwrap();
    for (a, b) in r1.summaries.iter().zip(&r2.summaries) {
        assert_eq!(a.wall_s, b.wall_s);
        assert_eq!(a.io_ops, b.io_ops);
        assert_eq!(a.comms, b.comms);
        assert_eq!(a.warnings, b.warnings);
    }
}

/// With a second in-memory service busy on producer threads in this very
/// process, a simulated (virtual-time) run still exports byte-for-byte
/// what the golden fingerprint pins: the run's service shares no state
/// with other services, so wall-clock nondeterminism cannot leak into
/// characterization data.
#[test]
fn virtual_time_export_is_byte_identical_with_concurrent_plane_running() {
    use dtf::core::fnv64;
    use dtf::mofka::{MofkaService, ProducerConfig, TopicConfig};
    use dtf::perfrecup::export::export_run;

    // a service churning on two producer threads for the whole test
    let noisy = MofkaService::new();
    noisy.create_topic("noise", TopicConfig { partitions: 2 }).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let fingerprint = std::thread::scope(|scope| {
        for p in 0..2 {
            let (noisy, stop) = (&noisy, &stop);
            scope.spawn(move || {
                let mut producer = noisy
                    .producer("noise", ProducerConfig { batch_size: 32, ..Default::default() })
                    .unwrap();
                let mut s = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    producer.push(tagged(p, s)).unwrap();
                    s += 1;
                }
            });
        }

        // the same fixed-seed virtual-time run `wire_format.rs` pins
        let workload = Workload::ImageProcessing;
        let mut cfg = SimConfig {
            campaign_seed: 13,
            run: RunId(0),
            online_darshan: true,
            ..Default::default()
        };
        workload.adjust(&mut cfg);
        let rr = RunRng::new(13, RunId(0));
        let data = SimCluster::new(cfg).unwrap().run(workload.generate(&rr)).unwrap();

        let dir =
            std::env::temp_dir().join(format!("dtf-determinism-concurrent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_run(&data, &dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut fingerprint = String::new();
        for name in &names {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            fingerprint.push_str(&format!("{name} {:016x} {}\n", fnv64(&bytes), bytes.len()));
        }
        std::fs::remove_dir_all(&dir).unwrap();
        stop.store(true, std::sync::atomic::Ordering::Release);
        fingerprint
    });

    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/export_fnv64.txt");
    let expected = std::fs::read_to_string(&golden).unwrap();
    assert_eq!(fingerprint, expected, "virtual-time export drifted while another service was busy");
}
