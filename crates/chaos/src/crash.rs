//! Crash-injection faults for persisted stores, and the recovery oracle.
//!
//! A "crash" here is damage to the tail of a store's log files — what a
//! process kill or power cut at an arbitrary byte leaves behind: a torn
//! (truncated) tail, a tail written as zeros, or flipped bits. Faults are
//! plain data generated from a seed, in the same tradition as the fault
//! schedules: [`CrashFault::generate`] is deterministic, so a failing
//! fault replays from its seed. Damage is confined to the **last segment
//! past its header** — the committed-tail region a real crash races with;
//! wholesale header destruction is exercised separately by dtf-store's
//! own tests, and so are failing writes.
//!
//! The oracle, [`recovery_oracle`], asserts the two recovery invariants
//! end to end at the Mofka level: per topic and partition, the recovered
//! event stream is a **prefix** of the original's — nothing committed
//! before the damage point is lost out of order (no resurrection, no
//! reordering) and nothing that was not committed surfaces.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

use rand::Rng;
use serde::Serialize;

use dtf_core::error::{DtfError, Result};
use dtf_core::ids::RunId;
use dtf_core::rngx::RunRng;
use dtf_mofka::MofkaService;
use dtf_store::log::{segment_paths, HEADER_LEN};

/// Which of a persisted service's three logs the fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CrashTarget {
    /// The key-value metadata WAL (`yokan/`): topic configs, group cursors.
    YokanWal,
    /// The blob payload log (`warabi/`).
    WarabiLog,
    /// The log behind every topic partition (`topics/`).
    TopicLog,
}

impl CrashTarget {
    pub const ALL: [CrashTarget; 3] =
        [CrashTarget::YokanWal, CrashTarget::WarabiLog, CrashTarget::TopicLog];

    fn subdir(self) -> &'static str {
        match self {
            CrashTarget::YokanWal => "yokan",
            CrashTarget::WarabiLog => "warabi",
            CrashTarget::TopicLog => "topics",
        }
    }
}

/// The shape of the damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CrashKind {
    /// Cut the file at a byte offset (a torn write).
    TruncateTail,
    /// Keep the length but overwrite the tail with zeros (a crash during
    /// an overwrite-in-place, or preallocated-but-unwritten blocks).
    ZeroTail,
    /// Flip `1 + seed % 3` random bits in the tail region (media damage).
    BitFlip,
    /// Overwrite four tail bytes with `0xFF` — when they land on a frame's
    /// length field this forges a multi-GB record length, the exact shape
    /// the recovery scan must bounds-check before slicing; anywhere else
    /// it is payload damage the CRC catches.
    MaxLenFrame,
}

impl CrashKind {
    pub const ALL: [CrashKind; 4] =
        [CrashKind::TruncateTail, CrashKind::ZeroTail, CrashKind::BitFlip, CrashKind::MaxLenFrame];
}

/// One seeded crash fault: plain, serializable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CrashFault {
    pub target: CrashTarget,
    pub kind: CrashKind,
    pub seed: u64,
}

impl CrashFault {
    /// Deterministically derive a fault from a seed (same seed, same
    /// fault — the replay contract), drawing uniformly over every target
    /// and every kind.
    pub fn generate(seed: u64) -> Self {
        let mut rng = RunRng::new(seed, RunId(0)).stream("crash-fault");
        let target = CrashTarget::ALL[rng.gen_range(0..CrashTarget::ALL.len())];
        let kind = CrashKind::ALL[rng.gen_range(0..CrashKind::ALL.len())];
        Self { target, kind, seed }
    }

    /// Apply the fault to a persisted service directory (normally a copy
    /// — see [`copy_store`]). Returns the damaged file and the byte
    /// offset the damage starts at.
    pub fn apply(&self, store_dir: &Path) -> Result<(PathBuf, u64)> {
        let dir = store_dir.join(self.target.subdir());
        let seg = segment_paths(&dir)?
            .pop()
            .ok_or_else(|| DtfError::NotFound(format!("no segments under {}", dir.display())))?;
        let len = fs::metadata(&seg)?.len();
        let tail_base = HEADER_LEN as u64;
        if len <= tail_base + 1 {
            return Err(DtfError::IllegalState(format!(
                "{} holds no committed tail to damage",
                seg.display()
            )));
        }
        let mut rng = RunRng::new(self.seed, RunId(0)).stream("crash-apply");
        // damage starts at a random committed offset past the header
        let at = rng.gen_range(tail_base + 1..len);
        match self.kind {
            CrashKind::TruncateTail => {
                OpenOptions::new().write(true).open(&seg)?.set_len(at)?;
            }
            CrashKind::ZeroTail => {
                let mut data = fs::read(&seg)?;
                for b in &mut data[at as usize..] {
                    *b = 0;
                }
                fs::write(&seg, &data)?;
            }
            CrashKind::BitFlip => {
                let mut data = fs::read(&seg)?;
                let flips = 1 + (self.seed % 3) as usize;
                for _ in 0..flips {
                    let off = rng.gen_range(at..len) as usize;
                    let bit = rng.gen_range(0..8u32);
                    data[off] ^= 1 << bit;
                }
                fs::write(&seg, &data)?;
            }
            CrashKind::MaxLenFrame => {
                let mut data = fs::read(&seg)?;
                let end = (at as usize + 4).min(data.len());
                for b in &mut data[at as usize..end] {
                    *b = 0xff;
                }
                fs::write(&seg, &data)?;
            }
        }
        Ok((seg, at))
    }
}

/// Recursively copy a persisted store directory, so faults can be applied
/// to a scratch copy while the pristine original stays comparable.
pub fn copy_store(src: &Path, dst: &Path) -> Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_store(&entry.path(), &to)?;
        } else {
            fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// The crash-recovery invariant, checked at the Mofka level: for every
/// topic and partition of `original`, the stream `recovered` exposes is a
/// prefix of the original stream (equal events, in order, no surplus).
/// A topic absent from `recovered` is the empty prefix. Returns the
/// violations found (empty = invariant holds).
pub fn recovery_oracle(original: &MofkaService, recovered: &MofkaService) -> Vec<String> {
    let mut violations = Vec::new();
    let orig_topics = original.topic_names();
    for name in recovered.topic_names() {
        if !orig_topics.contains(&name) {
            violations.push(format!("topic {name} surfaced that never existed"));
        }
    }
    for name in &orig_topics {
        let Ok(orig) = original.topic(name) else {
            violations.push(format!("topic {name} is listed but not readable"));
            continue;
        };
        let Ok(rec) = recovered.topic(name) else { continue }; // empty prefix
        if rec.num_partitions() != orig.num_partitions() {
            violations.push(format!(
                "topic {name}: partition count changed {} -> {}",
                orig.num_partitions(),
                rec.num_partitions()
            ));
            continue;
        }
        for p in 0..orig.num_partitions() {
            let orig_events = match orig.read(p, 0, usize::MAX >> 1) {
                Ok(e) => e,
                Err(e) => {
                    violations.push(format!("topic {name}/{p}: original unreadable: {e}"));
                    continue;
                }
            };
            let rec_events = match rec.read(p, 0, usize::MAX >> 1) {
                Ok(e) => e,
                Err(e) => {
                    violations.push(format!("topic {name}/{p}: recovered unreadable: {e}"));
                    continue;
                }
            };
            if rec_events.len() > orig_events.len() {
                violations.push(format!(
                    "topic {name}/{p}: {} uncommitted events surfaced",
                    rec_events.len() - orig_events.len()
                ));
                continue;
            }
            // id, seq and event: a recovered event keeps its place in the
            // topic's emission order too
            for (i, (r, o)) in rec_events.iter().zip(&orig_events).enumerate() {
                if r != o {
                    violations.push(format!(
                        "topic {name}/{p}: event {i} diverges from the committed stream"
                    ));
                    break;
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_mofka::producer::ProducerConfig;
    use dtf_mofka::{Event, TopicConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtf-crash-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Event `i` of a test store: a log line stamped `i`, plus `data`.
    fn event(i: u64, data: Vec<u8>) -> Event {
        use dtf_core::events::{LogEntry, LogLevel, LogSource};
        let line = LogEntry {
            time: dtf_core::time::Time(i),
            level: LogLevel::Info,
            source: LogSource::Scheduler,
            message: String::new(),
        };
        Event::new(line, bytes::Bytes::from(data))
    }

    fn seeded_store(dir: &Path, events: usize) {
        let svc = MofkaService::durable(dir).unwrap();
        svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
        let mut p = svc.producer("t", ProducerConfig::default()).unwrap();
        for i in 0..events {
            p.push(event(i as u64, vec![i as u8; 16])).unwrap();
        }
        p.flush().unwrap();
        svc.sync().unwrap();
    }

    #[test]
    fn faults_are_deterministic_and_reach_every_target_and_kind() {
        for seed in [1u64, 42, 999] {
            assert_eq!(CrashFault::generate(seed), CrashFault::generate(seed));
        }
        let faults: Vec<CrashFault> = (0..128u64).map(CrashFault::generate).collect();
        for target in CrashTarget::ALL {
            assert!(faults.iter().any(|f| f.target == target), "{target:?} never generated");
        }
        for kind in CrashKind::ALL {
            assert!(faults.iter().any(|f| f.kind == kind), "{kind:?} never generated");
        }
    }

    #[test]
    fn every_kind_on_every_target_recovers_a_prefix() {
        let golden = tmp("golden");
        seeded_store(&golden, 200);
        let (original, _) = MofkaService::reopen(&golden).unwrap();
        let mut case = 0u64;
        for kind in CrashKind::ALL {
            for target in CrashTarget::ALL {
                case += 1;
                let fault = CrashFault { target, kind, seed: case };
                let victim = tmp(&format!("victim-{case}"));
                copy_store(&golden, &victim).unwrap();
                fault.apply(&victim).unwrap();
                let (recovered, _) = MofkaService::reopen(&victim).unwrap();
                let violations = recovery_oracle(&original, &recovered);
                assert!(violations.is_empty(), "{fault:?} violated recovery: {violations:?}");
                fs::remove_dir_all(&victim).unwrap();
            }
        }
        fs::remove_dir_all(&golden).unwrap();
    }

    #[test]
    fn oracle_rejects_surplus_and_divergence() {
        let a_dir = tmp("oracle-a");
        seeded_store(&a_dir, 20);
        let b_dir = tmp("oracle-b");
        seeded_store(&b_dir, 20);
        let (a, _) = MofkaService::reopen(&a_dir).unwrap();
        let (b, _) = MofkaService::reopen(&b_dir).unwrap();
        assert!(recovery_oracle(&a, &b).is_empty(), "identical stores agree");
        // surplus: recovered has more events than the original
        let longer = tmp("oracle-long");
        seeded_store(&longer, 30);
        let (long_svc, _) = MofkaService::reopen(&longer).unwrap();
        let v = recovery_oracle(&a, &long_svc);
        assert!(v.iter().any(|m| m.contains("uncommitted")), "surplus detected: {v:?}");
        // divergence: same length, different content
        let diff = tmp("oracle-diff");
        {
            let svc = MofkaService::durable(&diff).unwrap();
            svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
            let mut p = svc.producer("t", ProducerConfig::default()).unwrap();
            for i in 0..20 {
                p.push(event(i + 1000, vec![0u8; 4])).unwrap();
            }
            p.flush().unwrap();
            svc.sync().unwrap();
        }
        let (diff_svc, _) = MofkaService::reopen(&diff).unwrap();
        let v = recovery_oracle(&a, &diff_svc);
        assert!(v.iter().any(|m| m.contains("diverges")), "divergence detected: {v:?}");
        // the same events at the same ids, emitted in another order: the
        // odd ones (partition 1 under round robin) first
        let reordered = tmp("oracle-seq");
        {
            let svc = MofkaService::durable(&reordered).unwrap();
            svc.create_topic("t", TopicConfig { partitions: 2 }).unwrap();
            let topic = svc.topic("t").unwrap();
            for p in [1, 0] {
                let events = (p..20).step_by(2).map(|i| event(i, vec![i as u8; 16]));
                topic.append_batch(p as u32, events).unwrap();
            }
            svc.sync().unwrap();
        }
        let (seq_svc, _) = MofkaService::reopen(&reordered).unwrap();
        let v = recovery_oracle(&a, &seq_svc);
        assert!(v.iter().any(|m| m.contains("diverges")), "a moved seq is detected: {v:?}");
        for d in [a_dir, b_dir, longer, diff, reordered] {
            fs::remove_dir_all(&d).unwrap();
        }
    }
}
