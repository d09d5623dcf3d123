//! Lustre-like parallel filesystem model.
//!
//! Files are striped across object storage targets (OSTs). The cost of an
//! I/O operation is:
//!
//! ```text
//!   t = metadata_latency (open/close)
//!     | op_latency * jitter + bytes / (stripe_bw * min(stripes, osts)) * interference(t) * jitter
//! ```
//!
//! Interference comes from a [`LoadProcess`] shared by all clients — the
//! bursty slowdowns that make I/O "a prominent source of performance
//! variability at scale" (paper §III-C). The namespace is a flat
//! path → file map with sizes, so workloads can create datasets, read them
//! back in chunks, and write outputs, and the Darshan-analog layer can
//! attribute every operation to a real file.

use rand::Rng;
use serde::Serialize;
use std::collections::HashMap;

use dtf_core::dist::Jitter;
use dtf_core::error::{DtfError, Result};
use dtf_core::ids::FileId;
use dtf_core::time::{Dur, Time};

use crate::interference::LoadProcess;

/// Tunable constants of the PFS model.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsConfig {
    /// Metadata operation latency (open/stat/close), seconds.
    pub metadata_latency: f64,
    /// Fixed per-operation latency for reads/writes, seconds.
    pub op_latency: f64,
    /// Per-OST streaming bandwidth available to one client, bytes/second.
    pub ost_bandwidth: f64,
    /// Number of OSTs in the filesystem.
    pub ost_count: u32,
    /// Write bandwidth penalty (writes are slower than reads).
    pub write_penalty: f64,
    /// Log-scale sigma of multiplicative jitter on every operation.
    pub jitter_sigma: f64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        Self {
            metadata_latency: 1.0e-3,
            op_latency: 0.4e-3,
            ost_bandwidth: 1.2e9,
            ost_count: 64,
            write_penalty: 1.6,
            jitter_sigma: 0.30,
        }
    }
}

/// Metadata of one file.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PfsFile {
    pub id: FileId,
    pub path: String,
    pub size: u64,
    pub stripe_count: u32,
}

/// The filesystem: namespace + cost model.
#[derive(Debug)]
pub struct Pfs {
    cfg: PfsConfig,
    interference: LoadProcess,
    jitter: Jitter,
    by_path: HashMap<String, FileId>,
    files: Vec<PfsFile>,
}

impl Pfs {
    pub fn new(cfg: PfsConfig, interference: LoadProcess) -> Self {
        let jitter = if cfg.jitter_sigma > 0.0 {
            Jitter::new(cfg.jitter_sigma, 5.0)
        } else {
            Jitter::none()
        };
        Self { cfg, interference, jitter, by_path: HashMap::new(), files: Vec::new() }
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Create a file (or truncate an existing one to `size`). Returns its id.
    pub fn create(&mut self, path: impl Into<String>, size: u64, stripe_count: u32) -> FileId {
        let path = path.into();
        assert!(stripe_count >= 1, "stripe_count must be >= 1");
        if let Some(&id) = self.by_path.get(&path) {
            let f = &mut self.files[id.0 as usize];
            f.size = size;
            f.stripe_count = stripe_count;
            return id;
        }
        let id = FileId(self.files.len() as u64);
        self.files.push(PfsFile { id, path: path.clone(), size, stripe_count });
        self.by_path.insert(path, id);
        id
    }

    pub fn meta(&self, id: FileId) -> Result<&PfsFile> {
        self.files.get(id.0 as usize).ok_or_else(|| DtfError::NotFound(format!("file {id}")))
    }

    /// Cost of an `open` (metadata RPC to the MDS).
    pub fn open<R: Rng + ?Sized>(&mut self, id: FileId, rng: &mut R) -> Result<Dur> {
        self.meta(id)?;
        Ok(Dur::from_secs_f64(self.jitter.apply(self.cfg.metadata_latency, rng)))
    }

    /// Cost of a `close`.
    pub fn close<R: Rng + ?Sized>(&mut self, id: FileId, rng: &mut R) -> Result<Dur> {
        self.meta(id)?;
        Ok(Dur::from_secs_f64(self.jitter.apply(self.cfg.metadata_latency * 0.5, rng)))
    }

    fn effective_bandwidth(&self, stripe_count: u32) -> f64 {
        self.cfg.ost_bandwidth * stripe_count.min(self.cfg.ost_count) as f64
    }

    /// Cost of reading `len` bytes at `offset`. Fails if the range exceeds
    /// the file size.
    pub fn read<R: Rng + ?Sized>(
        &mut self,
        id: FileId,
        offset: u64,
        len: u64,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let f = self.meta(id)?;
        if offset.saturating_add(len) > f.size {
            return Err(DtfError::Io(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read past EOF: {}..{} of {} ({})",
                    offset,
                    offset.saturating_add(len),
                    f.size,
                    f.path
                ),
            ));
        }
        let bw = self.effective_bandwidth(f.stripe_count);
        let base = self.cfg.op_latency + len as f64 / bw * self.interference.factor(now);
        Ok(Dur::from_secs_f64(self.jitter.apply(base, rng)))
    }

    /// Cost of writing `len` bytes at `offset`; extends the file if needed.
    pub fn write<R: Rng + ?Sized>(
        &mut self,
        id: FileId,
        offset: u64,
        len: u64,
        now: Time,
        rng: &mut R,
    ) -> Result<Dur> {
        let stripe_count = self.meta(id)?.stripe_count;
        let bw = self.effective_bandwidth(stripe_count) / self.cfg.write_penalty;
        let base = self.cfg.op_latency + len as f64 / bw * self.interference.factor(now);
        let f = &mut self.files[id.0 as usize];
        f.size = f.size.max(offset.saturating_add(len));
        Ok(Dur::from_secs_f64(self.jitter.apply(base, rng)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quiet_pfs() -> Pfs {
        let cfg = PfsConfig { jitter_sigma: 0.0, ..Default::default() };
        Pfs::new(cfg, LoadProcess::none(1))
    }

    #[test]
    fn create_and_meta() {
        let mut pfs = quiet_pfs();
        let id = pfs.create("/data/img_000.tif", 80 << 20, 4);
        let m = pfs.meta(id).unwrap();
        assert_eq!(m.size, 80 << 20);
        assert_eq!(m.stripe_count, 4);
        assert_eq!(pfs.file_count(), 1);
    }

    #[test]
    fn create_same_path_truncates_not_duplicates() {
        let mut pfs = quiet_pfs();
        let a = pfs.create("/f", 100, 1);
        let b = pfs.create("/f", 50, 2);
        assert_eq!(a, b);
        assert_eq!(pfs.file_count(), 1);
        assert_eq!(pfs.meta(a).unwrap().size, 50);
    }

    #[test]
    fn read_past_eof_is_error() {
        let mut pfs = quiet_pfs();
        let id = pfs.create("/f", 100, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(pfs.read(id, 0, 100, Time::ZERO, &mut rng).is_ok());
        assert!(pfs.read(id, 50, 51, Time::ZERO, &mut rng).is_err());
        assert!(pfs.read(id, u64::MAX, 1, Time::ZERO, &mut rng).is_err());
    }

    #[test]
    fn write_extends_file() {
        let mut pfs = quiet_pfs();
        let id = pfs.create("/f", 0, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        pfs.write(id, 0, 1000, Time::ZERO, &mut rng).unwrap();
        assert_eq!(pfs.meta(id).unwrap().size, 1000);
        pfs.write(id, 500, 100, Time::ZERO, &mut rng).unwrap();
        assert_eq!(pfs.meta(id).unwrap().size, 1000, "interior write must not shrink");
    }

    #[test]
    fn larger_reads_cost_more_and_striping_helps() {
        let mut pfs = quiet_pfs();
        let one = pfs.create("/one", 1 << 30, 1);
        let eight = pfs.create("/eight", 1 << 30, 8);
        let mut rng = SmallRng::seed_from_u64(1);
        let small = pfs.read(one, 0, 4096, Time::ZERO, &mut rng).unwrap();
        let big = pfs.read(one, 0, 256 << 20, Time::ZERO, &mut rng).unwrap();
        assert!(big > small);
        let striped = pfs.read(eight, 0, 256 << 20, Time::ZERO, &mut rng).unwrap();
        assert!(striped < big, "8-way stripe {striped} should beat 1-way {big}");
    }

    #[test]
    fn writes_slower_than_reads() {
        let mut pfs = quiet_pfs();
        let id = pfs.create("/f", 1 << 30, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let r = pfs.read(id, 0, 128 << 20, Time::ZERO, &mut rng).unwrap();
        let w = pfs.write(id, 0, 128 << 20, Time::ZERO, &mut rng).unwrap();
        assert!(w > r, "write {w} should exceed read {r}");
    }

    #[test]
    fn interference_bursts_slow_reads() {
        let cfg = PfsConfig { jitter_sigma: 0.0, ..Default::default() };
        let mut quiet = Pfs::new(cfg.clone(), LoadProcess::none(1));
        let mut noisy = Pfs::new(cfg, LoadProcess::pfs_default(1));
        let qid = quiet.create("/f", 1 << 30, 1);
        let nid = noisy.create("/f", 1 << 30, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let mean = |pfs: &mut Pfs, id, rng: &mut SmallRng| {
            (0..400)
                .map(|i| {
                    pfs.read(id, 0, 64 << 20, Time::from_secs_f64(i as f64 * 5.0), rng)
                        .unwrap()
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 400.0
        };
        let q = mean(&mut quiet, qid, &mut rng);
        let n = mean(&mut noisy, nid, &mut rng);
        assert!(n > q, "interference mean {n} should exceed quiet {q}");
    }

    #[test]
    fn unknown_file_is_not_found() {
        let mut pfs = quiet_pfs();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(pfs.open(FileId(99), &mut rng), Err(DtfError::NotFound(_))));
    }
}
