//! FAIR archival export (paper §V: "we have stored the data and metadata
//! in a unique tabular format, with at least one common identifier between
//! every two different data sources").
//!
//! Writes one run's complete characterization data to a directory:
//! every view as CSV (the common tabular format), the provenance chart and
//! run manifest as JSON, and the Darshan logs in their binary format.
//!
//! The CSVs are streamed: each event's cells go from [`Tabular::cells`]
//! straight into one reused [`CsvWriter`] buffer, with no DataFrame, row
//! vector or per-cell `String` in between, and the buffer goes to the
//! open file every 64 KiB, at a row boundary. The bundle's bytes are the
//! contract (`tests/golden/export_fnv64.txt` pins them), not the path that
//! produces them.

use std::io::Write as _;
use std::path::Path;

use dtf_core::error::{DtfError, Result};
use dtf_core::table::Tabular;
use dtf_wms::RunData;

use crate::frame::CsvWriter;
use crate::state::ExecIndex;
use crate::views::task_io_rows;

/// Files written by [`export_run`].
pub const CSV_VIEWS: [&str; 7] = [
    "tasks.csv",
    "task_meta.csv",
    "transitions.csv",
    "worker_transitions.csv",
    "comms.csv",
    "io.csv",
    "warnings.csv",
];

/// Bytes a CSV's render buffer holds before it is written out: each file
/// streams in chunks of about this size, cut at a row boundary, so the
/// largest view never sits in memory whole.
const CSV_CHUNK: usize = 64 * 1024;

fn io_error(what: &str, path: &Path, e: std::io::Error) -> DtfError {
    DtfError::Io(e.kind(), format!("{what} {}: {e}", path.display()))
}

fn write(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut f = std::fs::File::create(path).map_err(|e| io_error("create", path, e))?;
    f.write_all(bytes).map_err(|e| io_error("write", path, e))
}

/// Stream `rows` under their schema's header into the file at `path`,
/// rendering through `csv` and writing it out every [`CSV_CHUNK`] bytes.
fn write_csv<T: Tabular>(
    csv: &mut CsvWriter,
    path: &Path,
    rows: impl IntoIterator<Item = T>,
) -> Result<()> {
    let mut file = std::fs::File::create(path).map_err(|e| io_error("create", path, e))?;
    let mut flush = |csv: &mut CsvWriter| {
        let written = file.write_all(csv.as_str().as_bytes());
        csv.clear();
        written.map_err(|e| io_error("write", path, e))
    };
    csv.clear();
    csv.header(&T::schema());
    for r in rows {
        csv.row(&r);
        if csv.as_str().len() >= CSV_CHUNK {
            flush(csv)?;
        }
    }
    flush(csv)
}

/// Export everything collected from `data` into `dir` (created if absent).
/// Returns the number of files written.
pub fn export_run(data: &RunData, dir: &Path) -> Result<usize> {
    std::fs::create_dir_all(dir).map_err(|e| io_error("mkdir", dir, e))?;
    let csv = &mut CsvWriter::default();
    write_csv(csv, &dir.join("tasks.csv"), &data.task_done)?;
    write_csv(csv, &dir.join("task_meta.csv"), &data.meta)?;
    write_csv(csv, &dir.join("transitions.csv"), &data.transitions)?;
    write_csv(csv, &dir.join("worker_transitions.csv"), &data.worker_transitions)?;
    write_csv(csv, &dir.join("comms.csv"), &data.comms)?;
    write_csv(csv, &dir.join("io.csv"), data.darshan.all_records())?;
    write_csv(csv, &dir.join("warnings.csv"), &data.warnings)?;
    // the fused task<->I/O view, the paper's headline join
    let execs = ExecIndex::of(&data.task_done);
    write_csv(csv, &dir.join("task_io.csv"), task_io_rows(data, &execs))?;
    let mut written = CSV_VIEWS.len() + 1;

    // provenance chart (layers 1-2) and run manifest
    write(
        &dir.join("provenance_chart.json"),
        serde_json::to_string_pretty(&data.chart)?.as_bytes(),
    )?;
    written += 1;
    let manifest = serde_json::json!({
        "run": data.run.to_string(),
        "workflow": data.workflow,
        "wall_time_s": data.wall_time.as_secs_f64(),
        "distinct_tasks": data.distinct_tasks(),
        "task_graphs": data.task_graphs(),
        "distinct_files": data.distinct_files(),
        "io_ops_traced": data.io_ops(),
        "io_ops_complete": data.io_ops_complete(),
        "communications": data.comm_count(),
        "warnings": data.warnings.len(),
        "steals": data.steals,
        "dxt_truncated": data.darshan.any_truncated(),
        "identifiers": {
            "tasks": ["key", "worker", "thread", "start_s", "stop_s"],
            "io": ["host", "thread", "start_s", "stop_s"],
            "comms": ["key", "from", "to"],
            "workers": ["address", "host"],
        },
    });
    write(&dir.join("manifest.json"), serde_json::to_string_pretty(&manifest)?.as_bytes())?;
    written += 1;

    // per-process Darshan logs in their binary format
    for log in &data.darshan.logs {
        let name = format!("darshan_{}.dtflog", log.header.worker.address().replace(':', "_"));
        write(&dir.join(name), &log.to_bytes())?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::{GraphId, RunId};
    use dtf_core::time::Dur;
    use dtf_wms::sim::{SimCluster, SimConfig, SimWorkflow, SubmitPolicy};
    use dtf_wms::{GraphBuilder, IoCall, SimAction};

    fn run() -> RunData {
        let mut b = GraphBuilder::new(GraphId(0));
        let tok = b.new_token();
        for i in 0..5u32 {
            b.add_sim(
                "load",
                tok,
                i,
                vec![],
                SimAction {
                    compute: Dur::from_millis_f64(20.0),
                    io: vec![IoCall::read(dtf_core::ids::FileId(0), 0, 4096)],
                    output_nbytes: 1024,
                    stall_rate: 0.0,
                },
            );
        }
        let wf = SimWorkflow {
            name: "export-test".into(),
            graphs: vec![b.build(&Default::default()).unwrap()],
            submit: SubmitPolicy::AllAtOnce,
            startup: Dur::from_secs_f64(0.5),
            inter_graph: Dur::ZERO,
            shutdown: Dur::ZERO,
            dataset: vec![("/f".into(), 1 << 20, 1)],
        };
        SimCluster::new(SimConfig { campaign_seed: 9, run: RunId(0), ..Default::default() })
            .unwrap()
            .run(wf)
            .unwrap()
    }

    #[test]
    fn export_writes_complete_bundle() {
        let data = run();
        let dir = std::env::temp_dir().join(format!("dtf-export-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let n = export_run(&data, &dir).unwrap();
        // 7 views + task_io + chart + manifest + 8 worker logs
        assert_eq!(n, 18);
        for f in CSV_VIEWS {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() >= 1, "{f} has a header");
        }
        // tasks.csv has 5 rows + header
        let tasks = std::fs::read_to_string(dir.join("tasks.csv")).unwrap();
        assert_eq!(tasks.lines().count(), 6);
        // manifest fields
        let manifest: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("manifest.json")).unwrap())
                .unwrap();
        assert_eq!(manifest["distinct_tasks"], 5);
        assert_eq!(manifest["workflow"], "export-test");
        // each worker's binary darshan log is written as its own file
        for log in &data.darshan.logs {
            let name = format!("darshan_{}.dtflog", log.header.worker.address().replace(':', "_"));
            assert_eq!(std::fs::read(dir.join(name)).unwrap(), log.to_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A file the export cannot write is an `Io` error that names it, not
    /// a panic: whether it fails at create or, streamed, in mid-file.
    #[test]
    fn unwritable_csv_is_an_io_error_naming_the_file() {
        let data = run();
        let dir = std::env::temp_dir().join(format!("dtf-export-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("tasks.csv")).unwrap();
        match export_run(&data, &dir) {
            Err(DtfError::Io(_, msg)) => {
                assert!(msg.contains("create") && msg.contains("tasks.csv"), "{msg}")
            }
            other => panic!("expected an Io error, got {other:?}"),
        }
        // a device that takes the open and refuses every write
        #[cfg(target_os = "linux")]
        if Path::new("/dev/full").exists() {
            std::fs::remove_dir(dir.join("tasks.csv")).unwrap();
            std::os::unix::fs::symlink("/dev/full", dir.join("tasks.csv")).unwrap();
            match export_run(&data, &dir) {
                Err(DtfError::Io(_, msg)) => {
                    assert!(msg.contains("write") && msg.contains("tasks.csv"), "{msg}")
                }
                other => panic!("expected an Io error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_task_io_is_the_task_io_frame() {
        // scrub every other record's thread id, as vanilla DXT would, so
        // the join leaves some I/O unattributed
        let mut data = run();
        let records = data.darshan.logs.iter_mut().flat_map(|l| l.dxt.iter_mut());
        for rec in records.step_by(2) {
            rec.thread = dtf_core::ids::ThreadId(0);
        }
        let frame = crate::RunViews::new(&data).task_io();
        let keys = frame.col("key").unwrap();
        assert!(keys.iter().any(|k| k.as_str().is_some()), "some I/O is attributed");
        assert!(keys.contains(&dtf_core::table::Value::Null), "some I/O is not");

        let dir = std::env::temp_dir().join(format!("dtf-export-taskio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        export_run(&data, &dir).unwrap();
        let framed = crate::frame::tests::csv(&frame);
        assert_eq!(std::fs::read_to_string(dir.join("task_io.csv")).unwrap(), framed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
