//! Running a persisted simulated run again from its archive alone.
//!
//! A run's `run-meta` document holds the configuration it ran on and its
//! provenance chart, whose `client_code_hash` fingerprints the workflow
//! that was submitted. A paper workload is regenerated from the run's own
//! seed, so the archive names everything the run read.

use std::path::Path;

use dtf_core::error::{DtfError, Result};
use dtf_core::rngx::RunRng;
use dtf_wms::rundata::ArchiveMeta;
use dtf_wms::sim::SimCluster;
use dtf_wms::RunData;

use crate::Workload;

/// Re-run the simulated run archived at `archive`, in memory, from what
/// the archive holds: reopen it read-only, decode its `run-meta`, map the
/// workflow name to its [`Workload`], regenerate the workflow from the
/// run's `(campaign_seed, run)` stream and simulate it on the archived
/// configuration (which names no store: `persist_dir` is not archived).
/// Refused before anything is simulated: a workflow that is not one of
/// the three paper workloads, and a regenerated workflow whose fingerprint
/// is not the chart's (the generator drifted since the run).
pub fn replay(archive: &Path) -> Result<RunData> {
    let meta = ArchiveMeta::open(archive)?;
    let workload =
        Workload::ALL.into_iter().find(|w| w.name() == meta.workflow).ok_or_else(|| {
            let (dir, name) = (archive.display(), &meta.workflow);
            DtfError::Config(format!("archive {dir}: workflow {name:?} is not a paper workload"))
        })?;
    let config = meta.config;
    let workflow = workload.generate(&RunRng::new(config.campaign_seed, config.run));
    let hash = workflow.code_hash();
    let submitted = meta.chart.client_code_hash;
    if hash != submitted {
        let (dir, name) = (archive.display(), &meta.workflow);
        return Err(DtfError::Config(format!(
            "archive {dir}: generator drifted: {name} regenerates as {hash:016x}, the run \
             submitted {submitted:016x}"
        )));
    }
    SimCluster::new(config)?.run(workflow)
}
