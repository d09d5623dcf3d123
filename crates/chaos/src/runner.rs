//! Campaign driver: generate → run twice → diff → judge.
//!
//! A *campaign* is K schedules derived from one campaign seed. Each
//! schedule is applied to a seed-derived random layered workflow and run
//! **twice**; the canonical transition logs of the two runs are compared
//! byte-for-byte (the determinism gate — if they differ, replay-from-seed
//! is broken and every other result is suspect), then the oracles of
//! [`crate::oracle`] judge the first run. [`run_faults`] is the only place
//! a chaos run is configured: the scheduler's live structural invariants
//! are on (`SimConfig::invariant_checks`), so a violation mid-run surfaces
//! as a run error carrying the virtual time it happened at, and the proxy
//! plane is on, so the proxy fault families have a surface to land on.

use rand::Rng;

use dtf_core::error::{DtfError, Result};
use dtf_core::fault::FaultSchedule;
use dtf_core::ids::{FileId, GraphId, RunId};
use dtf_core::rngx::RunRng;
use dtf_core::time::Dur;
use dtf_proxystore::ProxyConfig;
use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy, WORKER_NODES};
use dtf_wms::{GraphBuilder, IoCall, RunData, SimAction};

use crate::oracle;
use crate::schedule::generate;

/// The proxy plane every chaos run has on: a 1 MiB threshold so the
/// mid-size chaos-workflow outputs ride out-of-band, and a small
/// resolver-cache budget so evictions actually happen. The plane is
/// schedule-neutral (DESIGN §18), so it costs the other fault families no
/// coverage.
const PROXY: ProxyConfig =
    ProxyConfig { enabled: true, threshold: 1 << 20, resolver_cache_bytes: 32 << 20 };

/// The simulator configuration of a chaos run: `faults` applied to run
/// `index` of `seed`, with live invariant checks and the proxy plane on.
pub fn sim_config(seed: u64, index: u64, faults: FaultSchedule) -> SimConfig {
    SimConfig {
        campaign_seed: seed,
        run: RunId(index as u32),
        faults,
        invariant_checks: true,
        proxy: PROXY,
        ..Default::default()
    }
}

/// Workers in a chaos run: the ordinals fault schedules address.
pub(crate) fn workers() -> u32 {
    WORKER_NODES * sim_config(0, 0, FaultSchedule::default()).wms.workers_per_node
}

/// Derive the fault-schedule seed for schedule `index` of a campaign
/// (splitmix64 finalizer — consecutive indices give unrelated seeds).
pub fn schedule_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Canonical, byte-comparable rendering of everything the provenance
/// stream says happened: scheduler transitions, worker transitions, and
/// task completions, in their drained (stably time-sorted) order. Two runs
/// of the same schedule must render identically.
pub fn transition_log(data: &RunData) -> String {
    let mut out = String::new();
    for t in &data.transitions {
        out.push_str(&format!(
            "T {} {} {}->{} {} {:?}\n",
            t.time.0,
            t.key,
            t.from.as_str(),
            t.to.as_str(),
            t.stimulus.as_str(),
            t.location
        ));
    }
    for w in &data.worker_transitions {
        out.push_str(&format!(
            "W {} {} {} {}->{}\n",
            w.time.0,
            w.key,
            w.worker,
            w.from.as_str(),
            w.to.as_str()
        ));
    }
    for d in &data.task_done {
        out.push_str(&format!(
            "D {}..{} {} {} {} {}\n",
            d.start.0, d.stop.0, d.key, d.worker, d.thread, d.nbytes
        ));
    }
    out
}

/// The seed-derived random workflow schedules are applied to: a layered
/// DAG (each layer depends on the previous one) whose roots read slices of
/// a shared dataset file — enough structure to exercise dispatch, transfer,
/// stealing, recompute, and the PFS under every fault kind. Every
/// dependency names a task of the layer before, so the build does not
/// fail; if it did, the error is the graph builder's.
pub fn chaos_workflow(seed: u64) -> Result<SimWorkflow> {
    let rr = RunRng::new(seed, RunId(0));
    let mut rng = rr.stream("chaos-workflow");
    let layers = rng.gen_range(3..=5usize);
    let mut b = GraphBuilder::new(GraphId(0));
    let mut prev: Vec<dtf_core::ids::TaskKey> = Vec::new();
    for layer in 0..layers {
        let width = rng.gen_range(2..=5usize);
        let tok = b.new_token();
        let mut cur = Vec::with_capacity(width);
        for i in 0..width {
            let compute = Dur::from_secs_f64(0.2 + rng.gen::<f64>());
            let output_nbytes = 1u64 << rng.gen_range(16..24u32); // 64 KiB – 8 MiB
            let mut action = SimAction::compute_only(compute, output_nbytes);
            let deps = if prev.is_empty() {
                // roots read a slice of the shared dataset
                let size = 1u64 << rng.gen_range(20..23u32);
                let offset = (i as u64) * size;
                action.io.push(IoCall::read(FileId(0), offset, size));
                Vec::new()
            } else {
                let n = rng.gen_range(1..=prev.len().min(3));
                let mut deps = Vec::with_capacity(n);
                for _ in 0..n {
                    let d = prev[rng.gen_range(0..prev.len())];
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
                deps
            };
            cur.push(b.add_sim(&format!("layer{layer}"), tok, i as u32, deps, action));
        }
        prev = cur;
    }
    Ok(SimWorkflow {
        name: format!("chaos-{seed:016x}"),
        graphs: vec![b.build(&Default::default())?],
        submit: SubmitPolicy::AllAtOnce,
        startup: Dur::from_secs_f64(1.5),
        inter_graph: Dur::ZERO,
        shutdown: Dur::ZERO,
        dataset: vec![("chaos-input.dat".into(), 1 << 30, 4)],
    })
}

/// What happened to one schedule of a campaign.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Index within the campaign.
    pub index: u64,
    /// Fault-schedule seed (replay key: `repro chaos-replay --seed <this>`).
    pub seed: u64,
    /// The schedule itself, for archival alongside a failure.
    pub schedule: FaultSchedule,
    /// Run error, if either run failed (includes live invariant
    /// violations, which abort the run at their virtual time).
    pub error: Option<DtfError>,
    /// Post-run oracle violations on the first run.
    pub violations: Vec<String>,
    /// Whether both runs produced byte-identical transition logs.
    pub determinism_ok: bool,
    /// Distinct tasks that completed (sanity: the run did real work).
    pub tasks_completed: usize,
}

impl ScheduleOutcome {
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.violations.is_empty() && self.determinism_ok
    }

    /// One-line summary for campaign output.
    pub fn describe(&self) -> String {
        if self.passed() {
            format!(
                "schedule {:>4} seed {:016x}: ok ({} faults, {} tasks)",
                self.index,
                self.seed,
                self.schedule.len(),
                self.tasks_completed
            )
        } else if let Some(e) = &self.error {
            format!("schedule {:>4} seed {:016x}: RUN ERROR: {e}", self.index, self.seed)
        } else if !self.determinism_ok {
            format!(
                "schedule {:>4} seed {:016x}: NONDETERMINISTIC (transition logs differ)",
                self.index, self.seed
            )
        } else {
            format!(
                "schedule {:>4} seed {:016x}: {} ORACLE VIOLATION(S): {}",
                self.index,
                self.seed,
                self.violations.len(),
                self.violations.join("; ")
            )
        }
    }
}

/// Aggregate result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub campaign_seed: u64,
    pub schedules: u64,
    pub passed: u64,
    /// Every non-passing outcome, in index order.
    pub failures: Vec<ScheduleOutcome>,
}

impl CampaignReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `faults` once: the workflow [`chaos_workflow`]`(seed)` as run
/// `index` of campaign seed `seed`, under the chaos configuration (live
/// invariant checks and the proxy plane on).
pub fn run_faults(seed: u64, index: u64, faults: &FaultSchedule) -> Result<RunData> {
    SimCluster::new(sim_config(seed, index, faults.clone()))?.run(chaos_workflow(seed)?)
}

/// Run one schedule of a campaign: generate its fault schedule, run the
/// seed-derived workflow under it twice, gate on determinism, judge with
/// the oracles. The first run's record comes back with the outcome when
/// both runs completed, for callers that feed chaos runs into further
/// analysis (e.g. the live-view equivalence oracle).
pub fn run_schedule(campaign_seed: u64, index: u64) -> (ScheduleOutcome, Option<RunData>) {
    let seed = schedule_seed(campaign_seed, index);
    let schedule = generate(seed);
    let runs = (run_faults(seed, index, &schedule), run_faults(seed, index, &schedule));
    let mut outcome = ScheduleOutcome {
        index,
        seed,
        schedule,
        error: None,
        violations: Vec::new(),
        determinism_ok: false,
        tasks_completed: 0,
    };
    match runs {
        (Ok(first), Ok(second)) => {
            outcome.determinism_ok = transition_log(&first) == transition_log(&second);
            outcome.violations = oracle::check_run(&first);
            outcome.tasks_completed = first.distinct_tasks();
            (outcome, Some(first))
        }
        (Err(e), _) | (_, Err(e)) => {
            outcome.error = Some(e);
            (outcome, None)
        }
    }
}

/// Run a whole campaign of `schedules` schedules.
pub fn run_campaign(campaign_seed: u64, schedules: u64) -> CampaignReport {
    let mut report = CampaignReport { campaign_seed, schedules, passed: 0, failures: Vec::new() };
    for index in 0..schedules {
        let (outcome, _) = run_schedule(campaign_seed, index);
        if outcome.passed() {
            report.passed += 1;
        } else {
            report.failures.push(outcome);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_seeds_spread() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(|i| schedule_seed(42, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(schedule_seed(1, 0), schedule_seed(2, 0));
    }

    #[test]
    fn workflow_generator_is_deterministic() {
        let a = chaos_workflow(7).unwrap();
        let b = chaos_workflow(7).unwrap();
        let keys = |w: &SimWorkflow| {
            w.graphs[0]
                .tasks
                .iter()
                .map(|t| format!("{} <- {:?}", t.key, t.deps))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
        assert!(a.graphs[0].len() >= 6, "at least 3 layers × 2 tasks");
        let c = chaos_workflow(8).unwrap();
        assert!(keys(&a) != keys(&c) || a.graphs[0].len() != c.graphs[0].len());
    }

    #[test]
    fn unperturbed_schedule_passes_all_oracles() {
        // the empty schedule: the oracles and the determinism gate must
        // hold on a fault-free run
        let quiet = FaultSchedule::default();
        let first = run_faults(0xD7F, 0, &quiet).unwrap();
        let second = run_faults(0xD7F, 0, &quiet).unwrap();
        assert_eq!(transition_log(&first), transition_log(&second));
        assert!(oracle::check_run(&first).is_empty(), "{:?}", oracle::check_run(&first));
        assert!(first.distinct_tasks() >= 6);
    }

    #[test]
    fn chaos_runs_actually_emit_proxy_lifecycle() {
        let (outcome, data) = run_schedule(0xFEED, 0);
        let data = data.unwrap_or_else(|| panic!("{}", outcome.describe()));
        use dtf_core::events::ProxyAction;
        let n_pub = data.proxies.iter().filter(|p| p.action == ProxyAction::Published).count();
        let n_res = data.proxies.iter().filter(|p| p.action == ProxyAction::Resolved).count();
        assert!(n_pub > 0, "chaos workflow outputs above 1 MiB must publish");
        assert!(n_res > 0, "remote dependents must resolve");
        assert!(oracle::check_proxy_plane(&data).is_empty());
    }

    #[test]
    fn straggler_and_hotspot_fixed_seed_regression() {
        use dtf_core::fault::{HotspotFault, StragglerFault};
        use dtf_core::time::Time;
        // hand-written skew: worker 1 is both a placement hot spot (looks
        // 20x cheaper) and an 8x straggler for the whole run
        let faults = FaultSchedule {
            stragglers: vec![StragglerFault {
                worker: 1,
                factor: 8.0,
                start: Time::ZERO,
                stop: Time::from_secs_f64(1e6),
            }],
            hotspot: Some(HotspotFault { worker: 1, weight: 0.05 }),
            ..Default::default()
        };
        let a = run_faults(0xBEEF, 0, &faults).unwrap();
        let b = run_faults(0xBEEF, 0, &faults).unwrap();
        assert_eq!(transition_log(&a), transition_log(&b), "skewed runs must replay");
        assert!(oracle::check_run(&a).is_empty(), "{:?}", oracle::check_run(&a));
        // against the unperturbed baseline of the same seed, the skew must
        // actually bite: load concentrates and the critical path stretches
        let base = run_faults(0xBEEF, 0, &FaultSchedule::default()).unwrap();
        let max_share = |d: &RunData| {
            let mut per: std::collections::HashMap<_, usize> = Default::default();
            for t in &d.task_done {
                *per.entry(t.worker).or_default() += 1;
            }
            per.values().copied().max().unwrap_or(0)
        };
        assert!(
            max_share(&a) > max_share(&base),
            "hot spot must concentrate load: skewed {} vs baseline {}",
            max_share(&a),
            max_share(&base)
        );
        assert!(
            a.wall_time > base.wall_time,
            "an 8x straggler on the hot worker must stretch the run: {} vs {}",
            a.wall_time,
            base.wall_time
        );
    }

    #[test]
    fn perturbed_campaign_is_clean() {
        let report = run_campaign(0xC0FFEE, 6);
        assert!(
            report.ok(),
            "{}",
            report.failures.iter().map(|f| f.describe()).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(report.passed, 6);
    }
}
