//! ProxyStore-analog out-of-band data plane for large task outputs.
//!
//! Task outputs whose size crosses [`ProxyConfig::threshold`] are *published*
//! to the plane: a small typed [`ProxyRef`] — key, size, owner, checksum,
//! generation — travels through the scheduler, the Mofka provenance stream,
//! and dependent tasks instead of the payload. Dependents *resolve* the
//! proxy lazily on first use through a per-worker resolver cache with a
//! byte budget; resolution is exactly-once per `(key, worker)` pair no
//! matter how many duplicated or delayed fetch completions race in.
//!
//! The plane is an accounting / provenance overlay: it never changes what
//! the scheduler decides, so a simulated run with the plane disabled is
//! byte-identical to the same run with it enabled. What changes is
//! *attribution* — with the plane on, only `ProxyRef::wire_size()` bytes
//! per proxied dependency are scheduler-mediated (in-band); the payload
//! moves peer-to-peer out-of-band. Every ref field is also in the
//! `proxy-events` stream, so the plane's directory lives in memory only.
//!
//! Failure handling (see DESIGN.md §18 for the full state machine):
//! - a *dangling* payload (lost to fault injection) is repaired by
//!   republishing from the live owner with a generation bump;
//! - if the owner is dead but a resolved replica survives, ownership
//!   *re-sources* to the smallest surviving replica (repairing the payload
//!   too when it dangles);
//! - if the owner is dead and no replica survives a dangling payload, the
//!   proxy is *orphaned*: it keeps its directory entry and generation, and
//!   resolution surfaces [`DtfError::IllegalState`] naming the proxy key —
//!   dependents fall back to the scheduler's recompute path, whose
//!   re-publication mints the next generation (`republished`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dtf_core::binfmt::Wire;
use dtf_core::error::{DtfError, Result};
use dtf_core::events::{ProxyAction, ProxyEvent};
use dtf_core::ids::{GraphId, TaskKey, WorkerId};
use dtf_core::table::Spell;
use dtf_core::time::Time;
use dtf_core::{fnv64_extend, FNV64_BASIS};

dtf_core::wire_struct! {
    /// Data-plane configuration, embedded in the simulator config and
    /// archived with it in a run's `run-meta` document.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ProxyConfig {
        /// Master switch. Off (the default) short-circuits every hook.
        pub enabled: bool,
        /// Outputs of at least this many bytes are proxied.
        pub threshold: u64,
        /// Per-worker resolver-cache byte budget (LRU eviction beyond it).
        pub resolver_cache_bytes: u64,
    }
}

impl Default for ProxyConfig {
    fn default() -> Self {
        Self { enabled: false, threshold: 4 << 20, resolver_cache_bytes: 256 << 20 }
    }
}

/// The typed reference that travels in place of the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyRef {
    pub key: TaskKey,
    pub graph: GraphId,
    /// Payload size in bytes (stays out-of-band).
    pub size: u64,
    /// Worker whose memory holds the authoritative payload copy.
    pub owner: WorkerId,
    /// FNV-1a content fingerprint, verified on resolve.
    pub checksum: u64,
    /// Manifest generation; bumped by every republish / re-source.
    pub generation: u32,
}

impl ProxyRef {
    /// The ref's wire form: binfmt fields in [`ProxyEvent`]'s order for
    /// the fields the two share — key, graph, size, owner, checksum,
    /// generation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        self.key.put(&mut out);
        self.graph.put(&mut out);
        self.size.put(&mut out);
        self.owner.put(&mut out);
        self.checksum.put(&mut out);
        self.generation.put(&mut out);
        out
    }

    /// Bytes this reference occupies on the wire — the length of
    /// [`Self::to_bytes`], and so the scheduler-mediated (in-band) cost of
    /// a proxied dependency. The payload's `size` bytes move out-of-band.
    pub fn wire_size(&self) -> u64 {
        self.to_bytes().len() as u64
    }
}

/// Deterministic FNV-1a fingerprint of a proxied payload's identity: the
/// key's spelling (its `Display` text), then the size's little-endian bytes.
pub fn payload_checksum(key: &TaskKey, size: u64) -> u64 {
    /// Folds whatever is written into it into the hash, so the key's text
    /// is never materialized as a `String`.
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv64_extend(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(FNV64_BASIS);
    // `Fnv::write_str` never fails, so neither does the spelling
    let _ = key.spell(&mut h);
    fnv64_extend(h.0, &size.to_le_bytes())
}

/// What a [`ProxyPlane::resolve`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveOutcome {
    /// First resolution for this `(key, worker)` pair: the payload
    /// materialized into the worker's resolver cache.
    Fresh,
    /// The pair had already resolved — duplicated fetch completions and
    /// replayed lifecycles dedup here (exactly-once).
    Deduped,
}

#[derive(Debug)]
struct DirEntry {
    r: ProxyRef,
    /// The payload is gone (fault injection or real loss).
    dangling: bool,
    /// Workers holding a resolved (cached) copy of the payload.
    replicas: BTreeSet<WorkerId>,
}

#[derive(Debug, Default)]
struct WorkerCache {
    /// key → (payload size, LRU clock at last touch).
    entries: BTreeMap<TaskKey, (u64, u64)>,
    bytes: u64,
}

/// The out-of-band data plane: the ref directory plus per-worker resolver
/// caches. Deterministic — all iteration is over ordered maps and every
/// decision is a pure function of the call sequence.
pub struct ProxyPlane {
    cfg: ProxyConfig,
    dir: BTreeMap<TaskKey, DirEntry>,
    /// Exactly-once ledger: pairs that have resolved.
    resolved: BTreeSet<(TaskKey, WorkerId)>,
    caches: BTreeMap<WorkerId, WorkerCache>,
    dead: BTreeSet<WorkerId>,
    publish_seq: u64,
    lru_clock: u64,
}

impl ProxyPlane {
    pub fn new(cfg: ProxyConfig) -> Self {
        Self {
            cfg,
            dir: BTreeMap::new(),
            resolved: BTreeSet::new(),
            caches: BTreeMap::new(),
            dead: BTreeSet::new(),
            publish_seq: 0,
            lru_clock: 0,
        }
    }

    /// Whether an output of `nbytes` takes the out-of-band path.
    pub fn should_proxy(&self, nbytes: u64) -> bool {
        self.cfg.enabled && nbytes >= self.cfg.threshold
    }

    /// Published manifests so far — the index the `DanglingProxy` fault
    /// schedule keys on (next publish gets this index).
    pub fn publish_count(&self) -> u64 {
        self.publish_seq
    }

    pub fn proxy_ref(&self, key: &TaskKey) -> Option<&ProxyRef> {
        self.dir.get(key).map(|e| &e.r)
    }

    fn event(
        r: &ProxyRef,
        action: ProxyAction,
        worker: Option<WorkerId>,
        time: Time,
    ) -> ProxyEvent {
        ProxyEvent {
            action,
            key: r.key,
            graph: r.graph,
            size: r.size,
            owner: r.owner,
            checksum: r.checksum,
            generation: r.generation,
            worker,
            time,
        }
    }

    /// Publish a finished task's output. A re-publication of a known key
    /// (the task recomputed after its output was lost, orphaned keys
    /// included) bumps the generation and moves ownership to the new
    /// completing worker.
    pub fn publish(
        &mut self,
        key: &TaskKey,
        graph: GraphId,
        owner: WorkerId,
        size: u64,
        now: Time,
    ) -> (ProxyRef, ProxyEvent) {
        self.publish_seq += 1;
        if let Some(entry) = self.dir.get_mut(key) {
            entry.r.generation += 1;
            entry.r.owner = owner;
            entry.r.size = size;
            entry.r.checksum = payload_checksum(key, size);
            entry.dangling = false;
            let ev = Self::event(&entry.r, ProxyAction::Republished, None, now);
            return (entry.r.clone(), ev);
        }
        let r = ProxyRef {
            key: *key,
            graph,
            size,
            owner,
            checksum: payload_checksum(key, size),
            generation: 0,
        };
        let ev = Self::event(&r, ProxyAction::Published, None, now);
        self.dir
            .insert(*key, DirEntry { r: r.clone(), dangling: false, replicas: BTreeSet::new() });
        (r, ev)
    }

    /// Fault injection: make the payload behind `key` dangle, as if the
    /// plane lost it. Returns false for unknown keys.
    pub fn damage(&mut self, key: &TaskKey) -> bool {
        match self.dir.get_mut(key) {
            Some(e) => {
                e.dangling = true;
                true
            }
            None => false,
        }
    }

    /// Resolve `key` for dependent worker `to`. Exactly-once per
    /// `(key, to)`: duplicated completions return [`ResolveOutcome::Deduped`]
    /// with no events. A dangling payload is repaired from the live owner
    /// (generation bump); with the owner dead the error names the proxy key.
    pub fn resolve(
        &mut self,
        key: &TaskKey,
        to: WorkerId,
        now: Time,
    ) -> Result<(ResolveOutcome, Vec<ProxyEvent>)> {
        if self.resolved.contains(&(*key, to)) {
            return Ok((ResolveOutcome::Deduped, Vec::new()));
        }
        let entry = self
            .dir
            .get_mut(key)
            .ok_or_else(|| DtfError::IllegalState(format!("resolve of unpublished proxy {key}")))?;
        let mut events = Vec::new();
        if entry.dangling {
            if self.dead.contains(&entry.r.owner) {
                return Err(DtfError::IllegalState(format!(
                    "dangling proxy {key}: payload missing and owner {} dead",
                    entry.r.owner.address(),
                )));
            }
            // repair: the owner still holds the payload; republish
            entry.r.generation += 1;
            entry.r.checksum = payload_checksum(key, entry.r.size);
            entry.dangling = false;
            events.push(Self::event(&entry.r, ProxyAction::Republished, None, now));
        }
        let expect = payload_checksum(key, entry.r.size);
        if entry.r.checksum != expect {
            return Err(DtfError::IllegalState(format!(
                "proxy {key} checksum mismatch: manifest {:#x}, payload {expect:#x}",
                entry.r.checksum
            )));
        }
        entry.replicas.insert(to);
        let r = entry.r.clone();
        self.resolved.insert((*key, to));
        events.push(Self::event(&r, ProxyAction::Resolved, Some(to), now));
        // admit into the resolver cache, evicting LRU entries beyond budget
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let cache = self.caches.entry(to).or_default();
        cache.entries.insert(*key, (r.size, clock));
        cache.bytes += r.size;
        while cache.bytes > self.cfg.resolver_cache_bytes {
            // least-recently-used victim, excluding the entry just admitted
            let Some(victim) = cache
                .entries
                .iter()
                .filter(|(k, _)| *k != key)
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, (sz, _))| (*k, *sz))
            else {
                break;
            };
            cache.entries.remove(&victim.0);
            cache.bytes -= victim.1;
            if let Some(e) = self.dir.get_mut(&victim.0) {
                e.replicas.remove(&to);
                events.push(Self::event(&e.r, ProxyAction::Evicted, Some(to), now));
            }
        }
        Ok((ResolveOutcome::Fresh, events))
    }

    /// The owner-death half of the re-source protocol. Entries owned by the
    /// dead worker re-source to their smallest surviving replica; a dangling
    /// payload with no surviving replica orphans the proxy (dependents fall
    /// back to the scheduler's recompute path). An orphaned entry keeps its
    /// generation, so the recompute's publish mints the next one.
    pub fn worker_died(&mut self, worker: WorkerId, now: Time) -> Vec<ProxyEvent> {
        self.dead.insert(worker);
        let mut events = Vec::new();
        // the dead worker's resolver cache (and replica claims) vanish
        self.caches.remove(&worker);
        for (key, entry) in &mut self.dir {
            entry.replicas.remove(&worker);
            if entry.r.owner != worker {
                continue;
            }
            match entry.replicas.first().copied() {
                Some(new_owner) => {
                    entry.r.owner = new_owner;
                    entry.r.generation += 1;
                    entry.r.checksum = payload_checksum(key, entry.r.size);
                    // the heir's cached copy also repairs a dangling payload
                    entry.dangling = false;
                    events.push(Self::event(&entry.r, ProxyAction::Resourced, Some(worker), now));
                }
                None if entry.dangling => {
                    events.push(Self::event(&entry.r, ProxyAction::Orphaned, None, now));
                }
                // intact payload: the plane itself still serves resolves
                None => {}
            }
        }
        events
    }

    /// Bytes a dependency transfer puts on the scheduler-mediated path:
    /// the `ProxyRef` wire size when `key` is proxied, else the payload.
    pub fn in_band_bytes(&self, key: &TaskKey, nbytes: u64) -> u64 {
        match self.dir.get(key) {
            Some(e) => e.r.wire_size(),
            None => nbytes,
        }
    }

    /// Number of published keys (orphaned ones included).
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtf_core::ids::NodeId;

    fn key(i: u32) -> TaskKey {
        TaskKey::new("blob-task", 7, i)
    }

    fn wid(n: u32) -> WorkerId {
        WorkerId::new(NodeId(n), 0)
    }

    fn plane(threshold: u64, cache: u64) -> ProxyPlane {
        ProxyPlane::new(ProxyConfig { enabled: true, threshold, resolver_cache_bytes: cache })
    }

    #[test]
    fn publish_then_resolve_round_trip() {
        let mut p = plane(1 << 20, u64::MAX);
        assert!(p.should_proxy(1 << 20));
        assert!(!p.should_proxy((1 << 20) - 1));
        let (r, ev) = p.publish(&key(0), GraphId(3), wid(1), 8 << 20, Time::from_secs_f64(1.0));
        assert_eq!(ev.action, ProxyAction::Published);
        assert_eq!(r.generation, 0);
        assert_eq!(r.checksum, payload_checksum(&key(0), 8 << 20));
        assert!(r.wire_size() < 256, "refs must be small: {}", r.wire_size());
        let (out, evs) = p.resolve(&key(0), wid(2), Time::from_secs_f64(2.0)).unwrap();
        assert_eq!(out, ResolveOutcome::Fresh);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].action, ProxyAction::Resolved);
        assert_eq!(evs[0].worker, Some(wid(2)));
        assert_eq!(evs[0].size, 8 << 20, "the payload moves out-of-band");
        assert_eq!(p.in_band_bytes(&key(0), 8 << 20), r.wire_size());
    }

    #[test]
    fn resolution_is_exactly_once_per_worker() {
        let mut p = plane(0, u64::MAX);
        p.publish(&key(0), GraphId(0), wid(1), 1000, Time::ZERO);
        let t = Time::from_secs_f64(1.0);
        assert_eq!(p.resolve(&key(0), wid(2), t).unwrap().0, ResolveOutcome::Fresh);
        // duplicated fetch completion replays the resolve: deduped, no events
        let (out, evs) = p.resolve(&key(0), wid(2), t).unwrap();
        assert_eq!(out, ResolveOutcome::Deduped);
        assert!(evs.is_empty());
        // a different dependent still resolves fresh
        assert_eq!(p.resolve(&key(0), wid(3), t).unwrap().0, ResolveOutcome::Fresh);
    }

    #[test]
    fn dangling_blob_repairs_from_live_owner() {
        let mut p = plane(0, u64::MAX);
        p.publish(&key(0), GraphId(0), wid(1), 4096, Time::ZERO);
        assert!(p.damage(&key(0)));
        let (out, evs) = p.resolve(&key(0), wid(2), Time::from_secs_f64(1.0)).unwrap();
        assert_eq!(out, ResolveOutcome::Fresh);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].action, ProxyAction::Republished);
        assert_eq!(evs[0].generation, 1);
        assert_eq!(evs[1].action, ProxyAction::Resolved);
        assert_eq!(evs[1].generation, 1);
        // repaired: the next dependent resolves without another republish
        let (_, evs) = p.resolve(&key(0), wid(3), Time::from_secs_f64(2.0)).unwrap();
        assert_eq!(evs.len(), 1);
    }

    #[test]
    fn dangling_blob_with_dead_owner_is_illegal_state_naming_the_key() {
        let mut p = plane(0, u64::MAX);
        p.publish(&key(9), GraphId(0), wid(1), 4096, Time::ZERO);
        p.damage(&key(9));
        let evs = p.worker_died(wid(1), Time::from_secs_f64(0.5));
        // no replica survived the dangling blob: orphaned
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].action, ProxyAction::Orphaned);
        let err = p.resolve(&key(9), wid(2), Time::from_secs_f64(1.0)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&key(9).to_string()), "error must name the proxy key: {msg}");
        assert!(msg.to_lowercase().contains("proxy"), "error should say what dangled: {msg}");
    }

    /// An orphaned key's recompute publishes again: that mints the next
    /// generation as a `republished` record (one `published` per key), and
    /// the re-published ref resolves.
    #[test]
    fn orphaned_key_republishes_at_the_next_generation() {
        let mut p = plane(0, u64::MAX);
        p.publish(&key(5), GraphId(0), wid(1), 4096, Time::ZERO);
        p.damage(&key(5));
        let evs = p.worker_died(wid(1), Time::from_secs_f64(1.0));
        assert_eq!(evs[0].action, ProxyAction::Orphaned);
        assert_eq!(evs[0].generation, 0);
        let err = p.resolve(&key(5), wid(3), Time::from_secs_f64(1.5)).unwrap_err();
        assert!(err.to_string().contains(&key(5).to_string()), "{err}");
        let (r, ev) = p.publish(&key(5), GraphId(0), wid(2), 4096, Time::from_secs_f64(2.0));
        assert_eq!(ev.action, ProxyAction::Republished);
        assert_eq!((r.generation, r.owner), (1, wid(2)));
        let (_, evs) = p.resolve(&key(5), wid(3), Time::from_secs_f64(3.0)).unwrap();
        assert_eq!((evs[0].action, evs[0].generation), (ProxyAction::Resolved, 1));
    }

    #[test]
    fn owner_death_resources_to_surviving_replica() {
        let mut p = plane(0, u64::MAX);
        p.publish(&key(0), GraphId(0), wid(1), 4096, Time::ZERO);
        p.resolve(&key(0), wid(2), Time::from_secs_f64(1.0)).unwrap();
        p.resolve(&key(0), wid(3), Time::from_secs_f64(1.5)).unwrap();
        let evs = p.worker_died(wid(1), Time::from_secs_f64(2.0));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].action, ProxyAction::Resourced);
        // deterministic heir: smallest surviving replica id
        assert_eq!(evs[0].owner, wid(2));
        assert_eq!(evs[0].worker, Some(wid(1)));
        assert_eq!(evs[0].generation, 1);
        assert_eq!(p.proxy_ref(&key(0)).unwrap().owner, wid(2));
        // even with the blob damaged, the heir's copy repairs it
        p.damage(&key(0));
        let evs = p.worker_died(wid(2), Time::from_secs_f64(3.0));
        assert_eq!(evs[0].action, ProxyAction::Resourced);
        assert_eq!(evs[0].owner, wid(3));
        let (out, _) = p.resolve(&key(0), wid(4), Time::from_secs_f64(4.0)).unwrap();
        assert_eq!(out, ResolveOutcome::Fresh);
    }

    #[test]
    fn resolver_cache_evicts_least_recently_used() {
        // budget fits two 1000-byte payloads
        let mut p = plane(0, 2000);
        for i in 0..3 {
            p.publish(&key(i), GraphId(0), wid(1), 1000, Time::ZERO);
        }
        let t = Time::from_secs_f64(1.0);
        p.resolve(&key(0), wid(2), t).unwrap();
        p.resolve(&key(1), wid(2), t).unwrap();
        // third admission evicts key(0), the least recently used
        let (_, evs) = p.resolve(&key(2), wid(2), t).unwrap();
        let evicted: Vec<_> = evs.iter().filter(|e| e.action == ProxyAction::Evicted).collect();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].key, key(0));
        // key(0) is no longer a replica on wid(2): owner death has no heir
        p.damage(&key(0));
        let evs = p.worker_died(wid(1), Time::from_secs_f64(2.0));
        assert!(evs.iter().any(|e| e.action == ProxyAction::Orphaned && e.key == key(0)));
        // keys 1 and 2 re-source to the surviving cached replica wid(2)
        assert_eq!(evs.iter().filter(|e| e.action == ProxyAction::Resourced).count(), 2);
    }

    #[test]
    fn republish_after_recompute_bumps_generation() {
        let mut p = plane(0, u64::MAX);
        let (r0, _) = p.publish(&key(0), GraphId(0), wid(1), 1000, Time::ZERO);
        // worker died, task recomputed elsewhere, output published again
        let (r1, ev) = p.publish(&key(0), GraphId(0), wid(2), 1000, Time::from_secs_f64(5.0));
        assert_eq!(ev.action, ProxyAction::Republished);
        assert_eq!(r1.generation, r0.generation + 1);
        assert_eq!(r1.owner, wid(2));
        assert_eq!(p.publish_count(), 2);
    }

    #[test]
    fn in_band_attribution_uses_ref_size_only_for_proxied_keys() {
        let mut p = plane(1 << 20, u64::MAX);
        p.publish(&key(0), GraphId(0), wid(1), 16 << 20, Time::ZERO);
        let wire = p.proxy_ref(&key(0)).unwrap().wire_size();
        assert_eq!(p.in_band_bytes(&key(0), 16 << 20), wire);
        // unproxied keys pay their full payload in-band
        assert_eq!(p.in_band_bytes(&key(1), 12345), 12345);
    }

    /// The checksum is in the event stream (`ProxyEvent.checksum`), so
    /// hashing the key's text as it is written must give exactly what
    /// hashing `key.to_string()` gave.
    #[test]
    fn payload_checksum_matches_the_string_formula() {
        fn reference(key: &TaskKey, size: u64) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in key.to_string().bytes().chain(size.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let prefixes = ["blob-task", "", "π-étape", "画像-処理", "quote'd \"x\"\\", "🦀"];
        let numbers = [0, 1, 127, 128, 99_999, u32::MAX - 1, u32::MAX];
        for prefix in prefixes {
            for &token in &numbers {
                for &index in &numbers {
                    let key = TaskKey::new(prefix, token, index);
                    for size in [0, 4096, 64 << 20, u64::MAX] {
                        assert_eq!(payload_checksum(&key, size), reference(&key, size), "{key}");
                    }
                }
            }
        }
    }

    /// The ref's wire form is binfmt, fields in `ProxyEvent`'s order, and
    /// `wire_size` is its length.
    #[test]
    fn the_manifest_is_the_binfmt_ref_and_wire_size_its_length() {
        use dtf_core::binfmt::Reader;
        let refs = [
            ProxyRef {
                key: key(3),
                graph: GraphId(0),
                size: 0,
                owner: wid(0),
                checksum: 0,
                generation: 0,
            },
            ProxyRef {
                key: TaskKey::new("画像-処理", u32::MAX, 128),
                graph: GraphId(u32::MAX),
                size: 64 << 20,
                owner: WorkerId::new(NodeId(300), 7),
                checksum: u64::MAX,
                generation: 16_384,
            },
        ];
        for r in refs {
            let bytes = r.to_bytes();
            assert_eq!(r.wire_size(), bytes.len() as u64, "{r:?}");
            let mut rd = Reader::new(&bytes);
            assert_eq!(TaskKey::get(&mut rd).unwrap(), r.key);
            assert_eq!(GraphId::get(&mut rd).unwrap(), r.graph);
            assert_eq!(u64::get(&mut rd).unwrap(), r.size);
            assert_eq!(WorkerId::get(&mut rd).unwrap(), r.owner);
            assert_eq!(u64::get(&mut rd).unwrap(), r.checksum);
            assert_eq!(u32::get(&mut rd).unwrap(), r.generation);
            rd.finish().unwrap();
        }
    }

    #[test]
    fn config_defaults() {
        let d = ProxyConfig::default();
        assert!(!d.enabled);
        assert_eq!(d.threshold, 4 << 20);
    }
}
