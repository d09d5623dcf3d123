//! The gate table behind `repro bench <section|all>` and `repro check
//! [section]` (DESIGN.md §11 "Measurement").
//!
//! `BENCH_repro.json` is one object: `schema`, `cores`, and one entry per
//! [`SECTIONS`] name. [`ROWS`] says which numbers in those sections are
//! gated and how. `bench` re-measures sections and records them; `check`
//! re-measures and judges each row against the committed document: exit 1
//! when a row fails, exit 2 when a row's path is missing from the baseline,
//! so a stale or renamed baseline can never pass silently.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use serde_json::Value;

use dtf_core::ids::{GraphId, NodeId, ThreadId, WorkerId};
use dtf_core::time::{Dur, Time};
use dtf_wms::graph::{GraphBuilder, SimAction};
use dtf_wms::plugins::PluginSet;
use dtf_wms::scheduler::{Action, Scheduler, SchedulerConfig};

/// The committed baseline, relative to the working directory.
pub const BASELINE: &str = "BENCH_repro.json";
/// `BENCH_repro.json` schema: 11 is the table-driven document.
pub const SCHEMA: u64 = 11;

/// `BENCH_repro.json` and a measured document share this shape.
pub type Doc = BTreeMap<String, Value>;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a measured metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// At most this fraction worse than the baseline, set from measured
    /// run-to-run spread (see [`ROWS`]; CHANGES.md, PR 26 lists the runs).
    Relative(f64),
    /// A floor (`Higher`) or ceiling (`Lower`) whatever the baseline says:
    /// a property the subsystem exists to deliver.
    Absolute(f64),
    /// Must be `true`: a correctness verdict the section computes.
    True,
}

/// One gated metric: `path` is dot-separated inside `section`.
#[derive(Debug)]
pub struct Row {
    pub section: &'static str,
    pub path: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn row(section: &'static str, path: &'static str, better: Better, bound: Bound) -> Row {
    Row { section, path, better, bound }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Relative};

/// Every gated metric. A relative bound is the widest gap seen between two
/// of 22 `repro bench` runs on the 2-vCPU reference host, as a fraction of
/// the better run, plus 0.10. A metric whose bound would exceed 0.50
/// (group-commit append, recovery scan, codec encode, binary replay,
/// Δ-refresh wall, resolve latency) is recorded in its section but has no
/// row here.
pub const ROWS: &[Row] = &[
    row("scheduler", "tasks_per_s", Higher, Relative(0.39)),
    row("storage", "codec.decode_mib_s", Higher, Relative(0.48)),
    row("storage", "scale.indexed.point_speedup", Higher, Absolute(10.0)),
    row("storage", "scale.indexed.range_speedup", Higher, Absolute(10.0)),
    row("stress", "aggregate_events_per_s", Higher, Relative(0.46)),
    row("stress", "clean", Higher, Bound::True),
    row("views", "equivalent", Higher, Bound::True),
    row("views", "speedup", Higher, Absolute(10.0)),
    row("proxy", "identical", Higher, Bound::True),
    row("proxy", "scheduler_bytes_reduction", Higher, Absolute(5.0)),
    // byte counts, identical in every run: the bound is the headroom alone
    row("proxy", "scheduler_bytes_reduction", Higher, Relative(0.10)),
];

impl Row {
    fn value<'a>(&self, doc: &'a Doc) -> Option<&'a Value> {
        self.path.split('.').try_fold(doc.get(self.section)?, |v, key| v.get(key))
    }

    /// Whether `measured` passes against `baseline`, with a one-line
    /// account; `Err` when the baseline has no value of the row's kind.
    fn judge(&self, measured: &Doc, baseline: &Doc) -> Result<(bool, String), &'static str> {
        const MISSING: &str = "missing from the baseline";
        let base = self.value(baseline).ok_or(MISSING)?;
        let got = self.value(measured);
        if self.bound == Bound::True {
            base.as_bool().ok_or(MISSING)?;
            let got = got.and_then(Value::as_bool);
            return Ok((got == Some(true), format!("measured {got:?}, must be true")));
        }
        let base = base.as_f64().ok_or(MISSING)?;
        let limit = match (self.bound, self.better) {
            (Relative(b), Higher) => base * (1.0 - b),
            (Relative(b), Lower) => base * (1.0 + b),
            (Absolute(x), _) => x,
            (Bound::True, _) => unreachable!("judged above"),
        };
        // a metric the section did not produce reads NaN, which fails both ways
        let got = got.and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (pass, kind) = match self.better {
            Higher => (got >= limit, "floor"),
            Lower => (got <= limit, "ceiling"),
        };
        Ok((pass, format!("measured {got:.3}, baseline {base:.3}, {kind} {limit:.3}")))
    }
}

/// Judge every row of every section `measured` holds against `baseline`,
/// printing one line per row: 0 when all pass, 1 when any fails, 2 when
/// any row's path is missing from the baseline.
pub fn judge(measured: &Doc, baseline: &Doc) -> i32 {
    let mut code = 0;
    for row in ROWS.iter().filter(|r| measured.contains_key(r.section)) {
        let name = format!("{}.{}", row.section, row.path);
        match row.judge(measured, baseline) {
            Ok((true, text)) => eprintln!("ok    {name}: {text}"),
            Ok((false, text)) => {
                eprintln!("FAIL  {name}: {text}");
                code = code.max(1);
            }
            Err(why) => {
                eprintln!("STALE {name}: {why}");
                code = 2;
            }
        }
    }
    code
}

/// A section of `BENCH_repro.json`: its key and its measurement at the
/// reference size.
pub struct Section {
    pub name: &'static str,
    pub measure: fn() -> Result<Value, String>,
}

fn to_json(section: impl Serialize) -> Result<Value, String> {
    serde_json::to_value(section).map_err(|e| e.to_string())
}

pub static SECTIONS: [Section; 5] = [
    Section { name: "scheduler", measure: || to_json(scheduler_bench(100_000)) },
    Section { name: "storage", measure: || to_json(crate::storage::storage_bench()) },
    Section {
        name: "stress",
        measure: || {
            let out = crate::stress::stress_bench(&crate::stress::StressConfig::full());
            for v in &out.violations {
                eprintln!("stress: delivery violation: {v}");
            }
            to_json(out.bench)
        },
    },
    Section { name: "views", measure: || to_json(crate::liveviews::view_bench()) },
    Section { name: "proxy", measure: || to_json(crate::proxy::proxy_bench()) },
];

/// The sections `name` selects: one by its key, or `all`.
pub fn select(name: &str) -> Option<Vec<&'static Section>> {
    let picked: Vec<_> = SECTIONS.iter().filter(|s| name == "all" || s.name == name).collect();
    (!picked.is_empty()).then_some(picked)
}

/// Measure `sections` and print them on stdout as one document.
fn measure(sections: &[&Section]) -> Result<Doc, String> {
    let mut doc = Doc::new();
    for s in sections {
        eprintln!("measuring {}", s.name);
        doc.insert(s.name.to_string(), (s.measure)().map_err(|e| format!("{}: {e}", s.name))?);
    }
    println!("{}", pretty(&doc));
    Ok(doc)
}

fn pretty(doc: &Doc) -> String {
    serde_json::to_string_pretty(doc).expect("a JSON tree always prints")
}

/// The committed document, or `None` when there is none yet.
fn read_baseline() -> Result<Option<Doc>, String> {
    match std::fs::read_to_string(BASELINE) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {BASELINE}: {e}")),
        Ok(s) => serde_json::from_str(&s)
            .map(Some)
            .map_err(|e| format!("{BASELINE} is not a JSON object: {e}")),
    }
}

/// `repro bench`: measure `sections`, print them, and record them in
/// [`BASELINE`]. A section that fails an absolute or must-be-true row is
/// not recorded (its relative rows trivially pass against itself).
pub fn bench(sections: &[&Section]) -> i32 {
    let measured = match measure(sections) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench: {e}");
            return 1;
        }
    };
    let code = judge(&measured, &measured);
    if code != 0 {
        eprintln!("bench: {BASELINE} left as it was");
        return code;
    }
    let mut doc = match read_baseline() {
        Ok(doc) => doc.unwrap_or_default(),
        Err(e) => {
            eprintln!("bench: {e}; left as it was");
            return 1;
        }
    };
    doc.retain(|k, _| SECTIONS.iter().any(|s| s.name == k));
    doc.extend(measured);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.insert("cores".into(), serde_json::json!(cores));
    doc.insert("schema".into(), serde_json::json!(SCHEMA));
    match std::fs::write(BASELINE, pretty(&doc)) {
        Ok(()) => {
            eprintln!("bench: recorded in {BASELINE}");
            0
        }
        Err(e) => {
            eprintln!("bench: cannot write {BASELINE}: {e}");
            1
        }
    }
}

/// `repro check`: re-measure `sections`, print them, and judge them
/// against [`BASELINE`] (see [`judge`]; an unreadable baseline exits 2).
pub fn check(sections: &[&Section]) -> i32 {
    let baseline = match read_baseline().and_then(|doc| doc.ok_or(format!("no {BASELINE} here"))) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("check: {e}");
            return 2;
        }
    };
    let measured = match measure(sections) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("check: {e}");
            return 1;
        }
    };
    let code = judge(&measured, &baseline);
    eprintln!("check: {}", ["OK", "FAIL", "stale baseline"][code as usize]);
    code
}

/// The `scheduler` section.
#[derive(Debug, Serialize)]
pub struct SchedulerBench {
    pub tasks: u64,
    pub wall_s: f64,
    pub tasks_per_s: f64,
}

/// Drive a `tasks`-wide graph to completion against the bare scheduler
/// (no simulator, no plugins) on 32 workers × 4 threads, one wall clock.
pub fn scheduler_bench(tasks: u32) -> SchedulerBench {
    let mut b = GraphBuilder::new(GraphId(0));
    let tok = b.new_token();
    for i in 0..tasks {
        b.add_sim("w", tok, i, vec![], SimAction::compute_only(Dur(1_000), 64));
    }
    let graph = b.build(&Default::default()).expect("a dependency-free graph is valid");
    let t0 = Instant::now();
    let mut s = Scheduler::new(SchedulerConfig::default(), PluginSet::new());
    for w in 0..32 {
        s.add_worker(WorkerId::new(NodeId(w / 4), w % 4), 4);
    }
    let mut actions = s.submit_graph(graph, Time::ZERO).expect("fresh graph submits");
    let mut t = 0u64;
    loop {
        let mut progressed = false;
        while let Some(Action::Fetch { dep, to, .. }) = actions.pop() {
            progressed = true;
            s.fetch_done(&dep, to, Time(t));
        }
        for w in s.worker_ids() {
            while let Some(key) = s.try_start(w, Time(t)) {
                progressed = true;
                t += 1;
                actions.extend(s.task_finished(&key, w, ThreadId(1), Time(t - 1), Time(t), 64));
            }
        }
        actions.extend(s.rebalance(Time(t)));
        if !progressed && actions.is_empty() {
            break;
        }
    }
    assert_eq!(s.unfinished(), 0, "benchmark graph must drain completely");
    let wall_s = t0.elapsed().as_secs_f64();
    SchedulerBench { tasks: tasks as u64, wall_s, tasks_per_s: tasks as f64 / wall_s.max(1e-12) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(doc: &mut Doc, row: &Row, v: Value) {
        let mut at = doc.entry(row.section.to_string()).or_insert(Value::Object(Doc::new()));
        for key in row.path.split('.') {
            let parent = at;
            let Value::Object(m) = parent else { panic!("{} crosses a leaf", row.path) };
            at = m.entry(key.to_string()).or_insert(Value::Object(Doc::new()));
        }
        *at = v;
    }

    /// A document every row passes against itself: 100 for relative rows,
    /// twice past the limit for absolute rows, `true` for verdicts.
    fn passing_doc() -> Doc {
        let mut doc = Doc::new();
        for row in ROWS {
            let v = match (row.bound, row.better) {
                (Bound::True, _) => serde_json::json!(true),
                (Relative(_), _) => serde_json::json!(100.0),
                (Absolute(x), Higher) => serde_json::json!(2.0 * x),
                (Absolute(x), Lower) => serde_json::json!(x / 2.0),
            };
            set(&mut doc, row, v);
        }
        doc
    }

    #[test]
    fn every_row_resolves_in_freshly_measured_sections() {
        let mut doc = Doc::new();
        doc.insert("scheduler".into(), to_json(scheduler_bench(2_000)).unwrap());
        doc.insert("storage".into(), to_json(crate::storage::storage_bench_sized(1024)).unwrap());
        let stress = crate::stress::stress_bench(&crate::stress::StressConfig::smoke());
        doc.insert("stress".into(), to_json(stress.bench).unwrap());
        doc.insert(
            "views".into(),
            to_json(crate::liveviews::view_bench_sized(4_000, 200)).unwrap(),
        );
        doc.insert(
            "proxy".into(),
            to_json(crate::proxy::proxy_bench_sized(3, 6, 16 << 20)).unwrap(),
        );
        for row in ROWS {
            let v = row
                .value(&doc)
                .unwrap_or_else(|| panic!("{}.{} unresolved", row.section, row.path));
            match row.bound {
                Bound::True => assert_eq!(v.as_bool(), Some(true), "{}", row.path),
                _ => assert!(v.as_f64().is_some(), "{} is not a number", row.path),
            }
            assert!(select(row.section).is_some(), "{} has no section", row.section);
        }
    }

    #[test]
    fn doctored_baselines_fail_and_missing_paths_are_stale() {
        let measured = passing_doc();
        assert_eq!(judge(&measured, &measured), 0);
        // a higher-better metric below its floor: the baseline claims 10x more
        let higher = ROWS.iter().find(|r| matches!(r.bound, Relative(_))).unwrap();
        assert_eq!(higher.better, Higher);
        let mut baseline = measured.clone();
        set(&mut baseline, higher, serde_json::json!(1000.0));
        assert_eq!(judge(&measured, &baseline), 1);
        // a lower-better metric above its ceiling; every lower-better metric
        // spreads too wide to gate on the reference host, so the row is ours
        let lower = row("storage", "codec.replay_binary_ms", Lower, Relative(0.5));
        let doc = |ms: f64| {
            let mut doc = Doc::new();
            set(&mut doc, &lower, serde_json::json!(ms));
            doc
        };
        assert!(matches!(lower.judge(&doc(1.4), &doc(1.0)), Ok((true, _))));
        assert!(matches!(lower.judge(&doc(1.6), &doc(1.0)), Ok((false, _))));
        // an absolute floor holds whatever the baseline says
        let floor = ROWS.iter().find(|r| matches!(r.bound, Absolute(_))).unwrap();
        let mut low = measured.clone();
        set(&mut low, floor, serde_json::json!(1.0));
        assert_eq!(judge(&low, &measured), 1);
        // a verdict that turned false fails
        let verdict = ROWS.iter().find(|r| r.bound == Bound::True).unwrap();
        let mut broken = measured.clone();
        set(&mut broken, verdict, serde_json::json!(false));
        assert_eq!(judge(&broken, &measured), 1);
        // a path the baseline lacks (a renamed field, a pre-schema-11 file)
        let mut baseline = measured.clone();
        set(&mut baseline, higher, Value::Null);
        assert_eq!(judge(&measured, &baseline), 2);
        let mut baseline = measured.clone();
        baseline.remove("views");
        assert_eq!(judge(&measured, &baseline), 2);
    }
}
