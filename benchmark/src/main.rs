//! `dtf-benchmark`: four pipeline workloads over the public API of the dtf
//! crates, with end-to-end metrics (`--trace 0`) and an outside-in layer
//! trace (`--trace 1`). See `benchmark/README.md`.
//!
//! ```text
//! dtf-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                   [--scratch DIR] [--out trace.json]
//! dtf-benchmark all [--seed N] [--seconds S] [--scratch DIR]
//! dtf-benchmark selfcheck [--seed N] [--seconds S] [--scratch DIR]
//! ```

mod layers;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use dtf::core::stats::percentile;
use serde_json::{json, Value};

use trace::Tracer;
use workloads::Pipeline;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The contract this binary reports against; also what `selfcheck` takes
/// its bounds from.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Runs of every workload in each of `selfcheck`'s two sets.
const RUNS_PER_SET: usize = 3;
/// Fewest timed cycles in a run, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Share of `--seconds` a traced run spends on cycles; the layer replays
/// that follow take a fixed amount of work, not of time.
const TRACED_CYCLE_SHARE: f64 = 0.4;

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// What a run reports for the walls of its cycles, which all do the same
/// work: their lower quartile, not their median. Interference on a
/// shared host is one-sided — a neighbour slows some repeats by 30–40 % and
/// speeds none up — so the share of slow repeats moves the median with the
/// neighbour's load while the lower quartile stays with the code (README,
/// "Repeatability").
fn typical_wall(walls: &[f64]) -> f64 {
    percentile(walls, 0.25)
}

/// The highest of the usual percentiles that still has ten samples
/// beyond it, with its value; `None` below 20 samples.
fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    [99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .map(|p| (p, percentile(values, p / 100.0)))
}

/// One declared metric of `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

fn spec() -> Value {
    serde_json::from_str(SPEC).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<Declared> {
    let spec = spec();
    let text =
        |m: &Value, key: &str| m[key].as_str().expect("metric field is a string").to_string();
    spec[section]
        .as_array()
        .expect("metric section is a list")
        .iter()
        .map(|m| Declared {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Value::as_f64),
        })
        .collect()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// Flags of `run`; `all` and `selfcheck` take the [`SET_FLAGS`] and pass
/// them on to the runs they start.
const RUN_FLAGS: [&str; 6] = ["--workload", "--seed", "--seconds", "--trace", "--scratch", "--out"];
const SET_FLAGS: [&str; 3] = ["--seed", "--seconds", "--scratch"];

fn parse_args(cmd: &str, args: &[String]) -> Result<Args, String> {
    let allowed: &[&str] = match cmd {
        "run" => &RUN_FLAGS,
        "all" | "selfcheck" => &SET_FLAGS,
        _ => return Err(format!("unknown subcommand {cmd}; expected run, all or selfcheck")),
    };
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: spec()["run_seconds"].as_f64().expect("run_seconds is a number"),
        trace: false,
        scratch: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("{cmd} takes no flag {flag}; it takes {allowed:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scratch" => parsed.scratch = Some(PathBuf::from(value)),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => unreachable!("{flag} is in a flag list and has no arm"),
        }
    }
    if parsed.out.is_some() && !parsed.trace {
        return Err("--out names where the trace goes; it needs --trace 1".into());
    }
    Ok(parsed)
}

/// What one run reports, before it is matched against the contract.
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    /// Human-readable lines printed above the result.
    notes: Vec<String>,
}

/// One cycle on the clock: its wall and the events it carried.
fn timed_cycle(pipeline: &mut dyn Pipeline, t: &mut Tracer) -> (f64, u64) {
    let started = Instant::now();
    let events = t.cycle(|t| pipeline.cycle(t));
    (started.elapsed().as_secs_f64(), events)
}

/// One cycle, then its check off the clock: the cycle's wall, and its
/// events and output hash or what failed.
fn one_cycle(pipeline: &mut dyn Pipeline, t: &mut Tracer) -> (f64, Result<(u64, u64), String>) {
    let (wall, events) = timed_cycle(pipeline, t);
    (wall, pipeline.check().map(|hash| (events, hash)))
}

/// End-to-end run: set-up (inputs, state, one warm-up cycle whose outputs
/// become the reference), then identical timed cycles for `seconds`.
/// `process_start` is when `main` began; `setup_s` runs from there to the
/// first timed cycle.
fn run_timed(
    name: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    process_start: Instant,
) -> Result<Report, String> {
    let mut t = Tracer::new(false);
    let mut pipeline = workloads::setup(name, seed, &dir.join("setup"), &mut t)?;
    let (_, warm) = one_cycle(pipeline.as_mut(), &mut t);
    let (events, hash) = warm.map_err(|e| format!("warm-up cycle: {e}"))?;
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut walls = Vec::new();
    let mut failures = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_CYCLES || started.elapsed().as_secs_f64() < seconds {
        let (wall, outcome) = one_cycle(pipeline.as_mut(), &mut t);
        walls.push(wall);
        match outcome {
            Ok(same) if same == (events, hash) => {}
            Ok((e, h)) => failures.push(format!(
                "cycle {}: {e} events, outputs {h:016x}; warm-up had {events}, {hash:016x}",
                walls.len()
            )),
            Err(e) => failures.push(format!("cycle {}: {e}", walls.len())),
        }
    }
    drop(pipeline);

    let cycle_s = typical_wall(&walls);
    let mut notes = vec![format!("{name}/cycles {} count", walls.len())];
    notes.push(format!("{name}/cycle_median_s {:.6} s", median(&walls)));
    notes.push(match tail_percentile(&walls) {
        Some((p, v)) => format!("{name}/cycle_p{p}_s {v:.6} s"),
        None => format!("{name}/cycle_tail none (fewer than 20 cycles)"),
    });
    notes.push(format!("{name}/cycle_min_s {:.6} s", percentile(&walls, 0.0)));
    notes.push(format!("{name}/cycle_max_s {:.6} s", percentile(&walls, 1.0)));
    notes.push(format!("{name}/events_per_cycle {events} count"));
    notes.extend(failures.iter().map(|f| format!("{name}/FAILED {f}")));
    let metrics = BTreeMap::from([
        ("setup_s", setup_s),
        ("cycle_s", cycle_s),
        ("events_per_s", events as f64 / cycle_s),
        ("peak_rss_mb", sys::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")?),
    ]);
    Ok(Report { metrics, attempted: walls.len(), failed: failures.len(), notes })
}

/// Traced run: one set-up, untraced and traced cycles alternating for a
/// share of `seconds`, then every layer replayed alone.
fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out: Option<&Path>,
) -> Result<Report, String> {
    let mut t = Tracer::new(false);
    let mut pipeline = workloads::setup(name, seed, &dir.join("setup"), &mut t)?;
    let (_, warm) = one_cycle(pipeline.as_mut(), &mut t);
    let (events, hash) = warm.map_err(|e| format!("warm-up cycle: {e}"))?;

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut allocs, mut alloc_bytes) = (Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut cpu = 0.0;
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < seconds * TRACED_CYCLE_SHARE {
        for on in [false, true] {
            t.set_enabled(on);
            // CPU and allocations of the cycle alone; its check is not the
            // program's work
            let cpu_before = sys::cpu_seconds().unwrap_or(0.0);
            let ((wall, carried), n, bytes) = if on {
                trace::count_allocs(|| timed_cycle(pipeline.as_mut(), &mut t))
            } else {
                (timed_cycle(pipeline.as_mut(), &mut t), 0, 0)
            };
            cpu += sys::cpu_seconds().unwrap_or(0.0) - cpu_before;
            let outcome = pipeline.check().map(|hash| (carried, hash));
            if on {
                traced.push(wall);
                allocs.push(n as f64);
                alloc_bytes.push(bytes as f64);
            } else {
                plain.push(wall);
            }
            match outcome {
                Ok(same) if same == (events, hash) => {}
                Ok(_) => failures.push("cycle outputs differ from the warm-up's".to_string()),
                Err(e) => failures.push(e),
            }
        }
    }
    let subjects = pipeline.subjects();
    let durable = pipeline.durable();
    drop(pipeline);
    t.set_enabled(true);
    let mut metrics = layers::replay(&mut t, &subjects, durable, seed, &dir.join("replay"));

    let cycles = plain.len() + traced.len();
    let walls = t.cycle_walls();
    let traced_wall: f64 = walls.iter().map(|w| w.0).sum();
    let unattributed: f64 = walls.iter().map(|w| w.1).sum();
    metrics.insert("proc.cpu_s", cpu / cycles as f64);
    metrics.insert("proc.alloc_mb", median(&alloc_bytes) / (1 << 20) as f64);
    metrics.insert("proc.allocs_per_event", median(&allocs) / events as f64);
    metrics.insert(
        "proc.trace_overhead_pct",
        (typical_wall(&traced) / typical_wall(&plain) - 1.0) * 100.0,
    );
    metrics.insert("proc.unattributed_pct", unattributed / traced_wall * 100.0);

    // where a traced cycle's wall goes: the share a faster layer could save
    let mut notes = vec![format!("{name}/traced_cycles {} count", traced.len())];
    for (span, (calls, total, own)) in t.cycle_calls() {
        notes.push(format!(
            "{name}/share {span} {:.2} % of cycle (self {:.2} %, {} calls/cycle)",
            total / traced_wall * 100.0,
            own / traced_wall * 100.0,
            calls / traced.len() as u64,
        ));
    }
    notes.extend(failures.iter().map(|f| format!("{name}/FAILED {f}")));
    if let Some(path) = out {
        let header = json!({
            "workload": name,
            "seed": seed,
            "traced_cycles": traced.len(),
            "nproc": sys::nproc(),
        });
        let doc = serde_json::to_string(&t.to_json(header)).expect("trace serializes");
        std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(Report { metrics, attempted: cycles, failed: failures.len(), notes })
}

/// `run`: print every metric by name and unit, then the result line. A
/// run that got as far as a result exits 0; its `failed` count says
/// whether the outputs were right.
fn cmd_run(args: &Args, process_start: Instant) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let root = match &args.scratch {
        Some(dir) => dir.clone(),
        None => sys::default_scratch_root()?,
    };
    let scratch = sys::Scratch::create(&root)?;
    println!(
        "{name}/seed {} | nproc {} | scratch_fs {}",
        args.seed,
        sys::nproc(),
        sys::fs_type(&root)
    );
    let report = if args.trace {
        run_traced(name, args.seed, args.seconds, scratch.path(), args.out.as_deref())?
    } else {
        run_timed(name, args.seed, args.seconds, scratch.path(), process_start)?
    };
    drop(scratch);

    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let mut metrics = BTreeMap::new();
    let mut measured = report.metrics;
    for d in declared(section) {
        let value = measured.remove(d.name.as_str()).ok_or_else(|| {
            format!("BENCHMARK.json declares {} but the run did not measure it", d.name)
        })?;
        println!("{name}/{} {value} {}", d.name, d.unit);
        metrics.insert(d.name, json!({ "value": value, "unit": d.unit }));
    }
    if let Some(extra) = measured.keys().next() {
        return Err(format!("the run measured {extra}, which BENCHMARK.json does not declare"));
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{name}/ops {} count", report.attempted);
    println!("{name}/failed_ops {} count", report.failed);
    let result = json!({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    Ok(true)
}

/// Run one workload in a fresh child process and parse its result line.
fn child_run(args: &Args, name: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--trace", "0"]).args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    if let Some(dir) = &args.scratch {
        cmd.arg("--scratch").arg(dir);
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{name} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or_else(|| format!("{name} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("{name} result line: {e}"))
}

/// `all`: the four workloads one after another, one table, one JSON line.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut all = BTreeMap::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let result = child_run(args, name)?;
        for d in declared("end_to_end") {
            let value = result["metrics"][d.name.as_str()]["value"].as_f64();
            println!("{name}/{} {} {}", d.name, value.ok_or("metric missing")?, d.unit);
        }
        println!("{name}/ops {} count", result["attempted"]);
        println!("{name}/failed_ops {} count", result["failed"]);
        ok &= result["failed"].as_u64() == Some(0);
        all.insert(name, result);
    }
    println!("{}", serde_json::to_string(&all).expect("results serialize"));
    Ok(ok)
}

/// `selfcheck`: two interleaved sets of runs of this same binary; every
/// end-to-end metric's medians must agree within its declared bound.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let metrics = declared("end_to_end");
    println!(
        "selfcheck: sets A and B interleaved, {RUNS_PER_SET} runs each, {} s per run, seed {}, nproc {}",
        args.seconds,
        args.seed,
        sys::nproc()
    );
    println!(
        "{:<34} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload/metric", "median A", "median B", "worse", "bound"
    );
    let mut ok = true;
    for name in workloads::NAMES {
        // sets[set][metric] -> values
        let mut sets = [BTreeMap::<&str, Vec<f64>>::new(), BTreeMap::new()];
        for _ in 0..RUNS_PER_SET {
            for set in &mut sets {
                let result = child_run(args, name)?;
                if result["failed"].as_u64() != Some(0) {
                    return Err(format!("{name}: a run failed its output checks"));
                }
                for d in &metrics {
                    let value = result["metrics"][d.name.as_str()]["value"].as_f64();
                    set.entry(d.name.as_str()).or_default().push(value.ok_or("metric missing")?);
                }
            }
        }
        for d in &metrics {
            let (a, b) = (median(&sets[0][d.name.as_str()]), median(&sets[1][d.name.as_str()]));
            // how much worse the worse set reads, as a share of the other
            let worse = if d.better == "lower" {
                a.max(b) / a.min(b) - 1.0
            } else {
                1.0 - a.min(b) / a.max(b)
            };
            let bound = d.bound.ok_or("end-to-end metric without a bound")?;
            let inside = worse <= bound;
            ok &= inside;
            println!(
                "{:<34} {a:>14.6} {b:>14.6} {:>7.2}% {:>5.0}%  {}",
                format!("{name}/{}", d.name),
                worse * 100.0,
                bound * 100.0,
                if inside { "inside" } else { "OUTSIDE" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "every pair inside its bound" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) => parse_args(cmd, rest).and_then(|args| match cmd.as_str() {
            "run" => cmd_run(&args, process_start),
            "all" => cmd_all(&args),
            // `parse_args` has refused every other subcommand
            _ => cmd_selfcheck(&args),
        }),
        None => {
            Err("usage: dtf-benchmark <run|all|selfcheck> [flags]; see benchmark/README.md".into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dtf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
