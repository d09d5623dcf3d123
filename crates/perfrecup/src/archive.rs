//! Post-hoc analysis from a persisted store directory.
//!
//! The paper's pipeline keeps provenance queryable after the run because
//! Mofka's topics persist through Yokan/Warabi; PERFRECUP then consumes
//! them like any other source. This module is that entry point for the
//! analog: point [`ArchivedRun::open`] at the `persist_dir` of a finished (or
//! crashed) run and get back the same [`RunData`] the in-situ drain
//! produced — recovery trims to the committed prefix first — ready for
//! every analysis view in this crate.

use std::path::Path;

use dtf_mofka::ServiceRecovery;
use dtf_wms::rundata::RunData;

use crate::live::{query_rundata, ViewQuery, ViewResult};

/// An archived run bundled with its reconstructed record, so views can
/// borrow from data owned alongside them.
#[derive(Debug)]
pub struct ArchivedRun {
    pub data: RunData,
    pub recovery: ServiceRecovery,
}

impl ArchivedRun {
    /// Reconstruct a run record from a store directory (read-only; see
    /// `RunData::open_archive`), keeping what recovery found.
    pub fn open(dir: &Path) -> dtf_core::Result<Self> {
        let (data, recovery) = RunData::open_archive(dir)?;
        Ok(Self { data, recovery })
    }

    /// Answer a [`ViewQuery`] from the archive — the cold half of the
    /// hot/cold split: the same query against [`crate::live::LiveViews`]
    /// serves the active run, this serves history, and finalized live
    /// answers are value-identical to the archived ones.
    pub fn query(&self, q: &ViewQuery) -> ViewResult {
        query_rundata(&self.data, q)
    }

    /// Whether recovery had to repair anything on the way in (torn tails
    /// or dropped segments in any of the three logs).
    pub fn was_repaired(&self) -> bool {
        let r = &self.recovery;
        [r.yokan, r.warabi, r.topics].iter().any(|log| log.torn || log.dropped_segments > 0)
    }
}
