//! Scheduler-traffic attribution: in-band vs. out-of-band data movement.
//!
//! With the proxy plane off every dependency payload travels in-band —
//! scheduler-mediated, through the same channel as control traffic. With
//! the plane on, transfers whose source task published a [`ProxyRef`]
//! carry only the small typed reference in-band while the payload moves
//! peer-to-peer out-of-band. This view attributes each [`CommEvent`](dtf_core::events::CommEvent)'s
//! bytes to the two planes and quantifies the scheduler-traffic reduction
//! the ablation in `dtf-bench` gates on.
//!
//! The attribution is computed from the drained run data alone (comms
//! joined against proxy lifecycle events on the task key), so archived
//! pre-proxy runs analyze cleanly as 100% in-band. The view is *not* part
//! of [`crate::export::export_run`]'s archival set: exports stay
//! byte-identical whether or not the plane ran.

use std::collections::BTreeMap;

use serde::Serialize;

use dtf_core::events::ProxyAction;
use dtf_core::ids::TaskKey;
use dtf_proxystore::ProxyRef;
use dtf_wms::RunData;

use crate::frame::DataFrame;

/// Per-transfer attribution row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MovementRow {
    pub key: TaskKey,
    /// Payload size of the transfer.
    pub nbytes: u64,
    /// Bytes that crossed the scheduler-mediated channel.
    pub in_band: u64,
    /// Bytes that moved peer-to-peer through the blob plane.
    pub out_of_band: u64,
    pub proxied: bool,
    pub start_s: f64,
}

/// Aggregate attribution over a whole run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MovementSummary {
    /// Total payload bytes moved between workers.
    pub total_bytes: u64,
    /// Bytes that travelled through the scheduler-mediated channel
    /// (full payloads for unproxied transfers, wire-size of the
    /// [`ProxyRef`] for proxied ones).
    pub in_band_bytes: u64,
    /// Payload bytes that moved out-of-band through the blob plane.
    pub out_of_band_bytes: u64,
    pub proxied_transfers: usize,
    pub unproxied_transfers: usize,
    /// `total_bytes / in_band_bytes` — how much lighter the scheduler
    /// channel is than an all-in-band baseline. 1.0 when nothing is
    /// proxied (or the run moved no data at all).
    pub reduction: f64,
}

/// Latest published/republished/re-sourced manifest per task key — the
/// reference a dependent would actually deserialize at resolve time.
fn manifests(data: &RunData) -> BTreeMap<&TaskKey, ProxyRef> {
    let mut out = BTreeMap::new();
    for ev in &data.proxies {
        match ev.action {
            ProxyAction::Published | ProxyAction::Republished | ProxyAction::Resourced => {
                // Events are sorted by (time, key, generation); later
                // manifests overwrite earlier ones.
                out.insert(
                    &ev.key,
                    ProxyRef {
                        key: ev.key,
                        graph: ev.graph,
                        size: ev.size,
                        owner: ev.owner,
                        checksum: ev.checksum,
                        generation: ev.generation,
                    },
                );
            }
            ProxyAction::Orphaned => {
                // No manifest survives; dependents fall back to the
                // recompute path and any later transfer is in-band again
                // until a republish.
                out.remove(&ev.key);
            }
            _ => {}
        }
    }
    out
}

/// Attribute every communication event to the two planes.
pub fn rows(data: &RunData) -> Vec<MovementRow> {
    let refs = manifests(data);
    data.comms
        .iter()
        .map(|c| {
            let proxied = refs.get(&c.key);
            let (in_band, out_of_band) = match proxied {
                Some(r) => (r.wire_size(), c.nbytes),
                None => (c.nbytes, 0),
            };
            MovementRow {
                key: c.key,
                nbytes: c.nbytes,
                in_band,
                out_of_band,
                proxied: proxied.is_some(),
                start_s: c.start.as_secs_f64(),
            }
        })
        .collect()
}

/// The view as a typed frame: columns `nbytes, in_band, out_of_band,
/// proxied, start_s`.
pub fn frame(data: &RunData) -> DataFrame {
    let names = ["nbytes", "in_band", "out_of_band", "proxied", "start_s"];
    let mut df = DataFrame::new(names.iter().map(|s| s.to_string()).collect());
    for r in rows(data) {
        df.push_row(vec![
            r.nbytes.into(),
            r.in_band.into(),
            r.out_of_band.into(),
            r.proxied.into(),
            r.start_s.into(),
        ])
        .expect("fixed-arity row");
    }
    df
}

/// Aggregate the attribution for the whole run.
pub fn summary(data: &RunData) -> MovementSummary {
    let rows = rows(data);
    let total_bytes: u64 = rows.iter().map(|r| r.nbytes).sum();
    let in_band_bytes: u64 = rows.iter().map(|r| r.in_band).sum();
    let out_of_band_bytes: u64 = rows.iter().map(|r| r.out_of_band).sum();
    let proxied_transfers = rows.iter().filter(|r| r.proxied).count();
    MovementSummary {
        total_bytes,
        in_band_bytes,
        out_of_band_bytes,
        proxied_transfers,
        unproxied_transfers: rows.len() - proxied_transfers,
        reduction: if in_band_bytes == 0 { 1.0 } else { total_bytes as f64 / in_band_bytes as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::events::{CommEvent, ProxyEvent};
    use dtf_core::ids::{GraphId, NodeId, WorkerId};
    use dtf_core::time::Time;

    fn comm(key: TaskKey, nbytes: u64, start: f64) -> CommEvent {
        CommEvent {
            key,
            from: WorkerId::new(NodeId(0), 0),
            to: WorkerId::new(NodeId(1), 1),
            nbytes,
            start: Time::from_secs_f64(start),
            stop: Time::from_secs_f64(start + 0.1),
        }
    }

    fn published(key: TaskKey, size: u64, generation: u32, time: f64) -> ProxyEvent {
        ProxyEvent {
            action: if generation == 0 { ProxyAction::Published } else { ProxyAction::Republished },
            key,
            graph: GraphId(1),
            size,
            owner: WorkerId::new(NodeId(0), 0),
            checksum: 7,
            generation,
            worker: None,
            time: Time::from_secs_f64(time),
        }
    }

    #[test]
    fn unproxied_run_is_all_in_band() {
        let mut data = crate::io_timeline::tests_support::empty_run();
        let k = TaskKey::new("t", 0, 0);
        data.comms = vec![comm(k, 4096, 1.0), comm(k, 8192, 2.0)];
        let s = summary(&data);
        assert_eq!(s.total_bytes, 12_288);
        assert_eq!(s.in_band_bytes, 12_288);
        assert_eq!(s.out_of_band_bytes, 0);
        assert_eq!(s.proxied_transfers, 0);
        assert_eq!(s.unproxied_transfers, 2);
        assert_eq!(s.reduction, 1.0);
    }

    #[test]
    fn proxied_transfers_charge_only_the_wire_size_in_band() {
        let mut data = crate::io_timeline::tests_support::empty_run();
        let big = TaskKey::new("t", 0, 0);
        let small = TaskKey::new("t", 0, 1);
        data.comms = vec![comm(big, 64 << 20, 1.0), comm(small, 1024, 2.0)];
        data.proxies = vec![published(big, 64 << 20, 0, 0.5)];
        let rows = rows(&data);
        assert!(rows[0].proxied);
        assert_eq!(rows[0].out_of_band, 64 << 20);
        assert!(rows[0].in_band < 512, "a ProxyRef is a couple hundred bytes");
        assert!(!rows[1].proxied);
        assert_eq!(rows[1].in_band, 1024);

        let s = summary(&data);
        assert_eq!(s.total_bytes, (64 << 20) + 1024);
        assert_eq!(s.out_of_band_bytes, 64 << 20);
        assert!(s.reduction > 5.0, "data-heavy run shows >5x scheduler relief");
    }

    #[test]
    fn orphaned_manifest_reverts_to_in_band() {
        let mut data = crate::io_timeline::tests_support::empty_run();
        let k = TaskKey::new("t", 0, 0);
        data.comms = vec![comm(k, 1 << 20, 5.0)];
        let mut orphan = published(k, 1 << 20, 0, 0.5);
        data.proxies = vec![published(k, 1 << 20, 0, 0.1), {
            orphan.action = ProxyAction::Orphaned;
            orphan.time = Time::from_secs_f64(1.0);
            orphan
        }];
        let s = summary(&data);
        assert_eq!(s.proxied_transfers, 0);
        assert_eq!(s.in_band_bytes, 1 << 20);
    }

    #[test]
    fn frame_has_expected_columns() {
        let mut data = crate::io_timeline::tests_support::empty_run();
        let k = TaskKey::new("t", 0, 0);
        data.comms = vec![comm(k, 2048, 1.0)];
        data.proxies = vec![published(k, 2048, 0, 0.5)];
        let df = frame(&data);
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.names(), &["nbytes", "in_band", "out_of_band", "proxied", "start_s"]);
        assert_eq!(df.col("proxied").unwrap()[0].as_bool(), Some(true));
    }
}
