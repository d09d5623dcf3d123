//! Identifiers shared across every layer of the framework.
//!
//! The paper's interoperability lesson (§V) is that each pair of data sources
//! must share at least one identifier: tasks are identified by Dask-generated
//! keys, timestamps, the worker address, and POSIX thread ids; workers by
//! IP/port and hostname; I/O operations by hostname, thread id, and
//! timestamps. The types below are those identifiers.
//!
//! The task key is the hot one: the scheduler, every plugin, the producer
//! and the drain copy, compare and hash a [`TaskKey`] per event. Its prefix
//! is interned to a `&'static str` ([`TaskPrefix`]), which makes the key a
//! 24-byte `Copy` value whose equality and hash read an address instead of
//! a string; [`KeyMap`] / [`KeySet`] are the hash containers to key on it.

use serde::Serialize;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::table::{Digits, Spell};

/// Identifier of one end-to-end execution of a workflow (one "run" of a
/// campaign). Runs of the same workflow differ only by seed / placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct RunId(pub u32);

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run-{:04}", self.0)
    }
}

/// Identifier of a task graph submitted by the client. A workflow may submit
/// several graphs (ImageProcessing submits one per pipeline step, XGBoost
/// submits 74, see Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct GraphId(pub u32);

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph-{}", self.0)
    }
}

/// An interned task prefix: a `Copy` handle on the one immortal copy of
/// its spelling.
///
/// A workflow has tens of distinct prefixes but tens of thousands of tasks,
/// and every layer copies, compares and hashes [`TaskKey`]s per event.
/// [`TaskPrefix::intern`] maps each spelling to one leaked allocation, so
/// two prefixes are equal exactly when they point at the same bytes:
/// equality and `Hash` use the address alone, and a copy is a pointer
/// copy. `Ord` is still the order of the strings, which is what every
/// sorted container and sorted output built on keys relies on — addresses
/// differ from one process to the next, spellings do not.
#[derive(Debug, Clone, Copy)]
pub struct TaskPrefix(&'static str);

/// The global prefix table: append-only and never dropped, which is what
/// makes handing out `&'static str` sound. A handful of entries per
/// workload, each leaked once.
fn interner() -> &'static Mutex<HashSet<&'static str>> {
    static INTERNER: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Slots of the per-thread cache in front of the table.
const RECENT: usize = 64;

thread_local! {
    /// Prefixes this thread interned recently, direct-mapped by
    /// [`recent_slot`]. A hit costs one byte comparison and takes no lock;
    /// the size is fixed, so it cannot grow with the run.
    static RECENT_HITS: RefCell<[Option<TaskPrefix>; RECENT]> =
        const { RefCell::new([None; RECENT]) };
}

/// Cache slot of a spelling: its length and three of its bytes, which the
/// prefixes of one workflow rarely all share. A collision only costs a
/// trip to the table.
fn recent_slot(s: &str) -> usize {
    let b = s.as_bytes();
    let Some((&first, &last)) = b.first().zip(b.last()) else { return 0 };
    let mid = b[b.len() / 2];
    (b.len() ^ (first as usize) << 1 ^ (mid as usize) << 3 ^ (last as usize) << 5) % RECENT
}

impl TaskPrefix {
    /// Intern `s`: return the canonical handle for this spelling.
    pub fn intern(s: &str) -> Self {
        let slot = recent_slot(s);
        if let Some(hit) = RECENT_HITS.with(|r| r.borrow()[slot]).filter(|p| p.0 == s) {
            return hit;
        }
        let prefix = {
            // the set only grows, so a panic in another holder cannot leave
            // it half-updated: a poisoned lock is as good as a clean one
            let mut table = interner().lock().unwrap_or_else(PoisonError::into_inner);
            match table.get(s) {
                Some(existing) => Self(existing),
                None => {
                    let leaked: &'static str = Box::leak(Box::from(s));
                    table.insert(leaked);
                    Self(leaked)
                }
            }
        };
        RECENT_HITS.with(|r| r.borrow_mut()[slot] = Some(prefix));
        prefix
    }

    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl Deref for TaskPrefix {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for TaskPrefix {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl PartialEq for TaskPrefix {
    fn eq(&self, other: &Self) -> bool {
        // one allocation per spelling: same address <=> same string
        std::ptr::eq(self.0.as_ptr(), other.0.as_ptr())
    }
}
impl Eq for TaskPrefix {}

impl PartialEq<str> for TaskPrefix {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for TaskPrefix {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for TaskPrefix {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl std::hash::Hash for TaskPrefix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // agrees with `eq`, not with `str`'s hash: a prefix cannot stand
        // in for a borrowed string as a map key
        state.write_usize(self.0.as_ptr() as usize)
    }
}

impl PartialOrd for TaskPrefix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TaskPrefix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // string order; `Equal` only for the same spelling, i.e. the same
        // address, so it agrees with `eq`
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(other.0)
    }
}

impl fmt::Display for TaskPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for TaskPrefix {
    fn from(s: &str) -> Self {
        Self::intern(s)
    }
}

impl From<String> for TaskPrefix {
    fn from(s: String) -> Self {
        Self::intern(&s)
    }
}

impl From<&TaskPrefix> for String {
    fn from(p: &TaskPrefix) -> String {
        p.as_str().to_string()
    }
}

impl Serialize for TaskPrefix {
    fn to_content(&self) -> serde::json_impl::Value {
        serde::json_impl::Value::String(self.as_str().to_string())
    }
}

crate::wire_struct! {
    /// A task key, mirroring Dask's `(prefix-token, index)` convention, e.g.
    /// `('getitem__get_categories-24266c..', 63)`.
    ///
    /// * `prefix` — the human-readable operation category (Dask calls the
    ///   deduplicated form "task prefix"; groups of tasks sharing a token form a
    ///   "task group"). Interned, so the whole key is a 24-byte `Copy` value.
    /// * `token` — a hash-like token distinguishing groups with the same prefix.
    /// * `index` — position within the group (chunk / partition number).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
    pub struct TaskKey {
        pub prefix: TaskPrefix,
        pub token: u32,
        pub index: u32,
    }
}

/// Hasher for maps keyed on [`TaskKey`]: one rotate, xor and multiply per
/// word. A key is three words the program made itself (an address and two
/// counters), so SipHash's protection against crafted collisions buys
/// nothing here and costs most of a probe. Iteration order of such a map
/// follows addresses, so — as with the default hasher — never let it reach
/// output. Fed only a key's two counters, it is the same in every process:
/// `dtf-mofka`'s `HashKey` route relies on that, so a change to this
/// function moves partition assignments and the export goldens.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // the multiply mixes upward; bring the well-mixed high bits down
        // to where the table takes its bucket index from
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed on task keys under [`KeyHasher`].
pub type KeyMap<V> = HashMap<TaskKey, V, BuildHasherDefault<KeyHasher>>;
/// A `HashSet` of task keys under [`KeyHasher`].
pub type KeySet = HashSet<TaskKey, BuildHasherDefault<KeyHasher>>;

impl TaskKey {
    pub fn new(prefix: impl Into<TaskPrefix>, token: u32, index: u32) -> Self {
        Self { prefix: prefix.into(), token, index }
    }

    /// The task *group* name: prefix plus token, shared by all chunks of one
    /// collection operation.
    pub fn group(&self) -> String {
        self.group_name().to_string()
    }

    /// The group as a value that spells itself ([`Spell`], `Display`), for
    /// sinks that print it without wanting the `String`.
    pub fn group_name(&self) -> GroupName {
        GroupName { prefix: self.prefix, token: self.token }
    }
}

/// `('prefix-token', index)`: the group's spelling, quoted, and the index.
impl Spell for TaskKey {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("('")?;
        self.group_name().spell(out)?;
        Digits::new().text(")").dec(self.index as u64, 1).text("', ").write(out)
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spell(f)
    }
}

/// A task group by its spelling, `prefix-token` (see [`TaskKey::group`]).
#[derive(Debug, Clone, Copy)]
pub struct GroupName {
    prefix: TaskPrefix,
    token: u32,
}

/// `prefix-token`, the token as at least six lowercase hex digits.
impl Spell for GroupName {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str(self.prefix.as_str())?;
        Digits::new().hex(self.token as u64, 6).text("-").write(out)
    }
}

impl fmt::Display for GroupName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spell(f)
    }
}

/// Identifier of a compute node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Hostname as recorded in logs (e.g. `nid0003`, Polaris-style).
    pub fn hostname(&self) -> String {
        self.to_string()
    }
}

/// `nid` and the node number, at least four digits.
impl Spell for NodeId {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        Digits::new().dec(self.0 as u64, 4).text("nid").write(out)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spell(f)
    }
}

crate::wire_struct! {
    /// Identifier of a worker process. Workers are identified in logs by their
    /// IP:port address; we derive a deterministic synthetic address from the node
    /// and a per-node ordinal.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
    pub struct WorkerId {
        pub node: NodeId,
        /// Ordinal of the worker on its node (0-based).
        pub slot: u32,
    }
}

impl WorkerId {
    pub fn new(node: NodeId, slot: u32) -> Self {
        Self { node, slot }
    }

    /// Synthetic `ip:port` address, the identifier Dask uses in its logs.
    pub fn address(&self) -> String {
        self.to_string()
    }
}

/// `10.0.{node / 256}.{node % 256}:{40000 + slot}`. The port is computed
/// in `u64`, so every slot a decoded archive can carry spells its own
/// address.
impl Spell for WorkerId {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        let (node, port) = (self.node.0 as u64, 40000 + self.slot as u64);
        let mut digits = Digits::new();
        digits.dec(port, 1).text(":").dec(node % 256, 1).text(".").dec(node / 256, 1);
        digits.text("10.0.").write(out)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spell(f)
    }
}

/// A POSIX thread id (pthread id). This is the join key the authors added to
/// both Darshan DXT records and Dask task records; it is what makes the two
/// data sources correlatable (§III-E3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ThreadId(pub u64);

impl ThreadId {
    /// Deterministic synthetic pthread id for worker `w`, thread ordinal `t`.
    /// Values are large and sparse like real pthread ids but reproducible.
    pub fn synth(w: WorkerId, t: u32) -> Self {
        let base = 0x7f00_0000_0000u64;
        ThreadId(base + (w.node.0 as u64) * 0x10_0000 + (w.slot as u64) * 0x1000 + t as u64)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Identifier of a client process (the task-graph submitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct ClientId(pub u32);

/// `client-` and the client number.
impl Spell for ClientId {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        Digits::new().dec(self.0 as u64, 1).text("client-").write(out)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.spell(f)
    }
}

/// Identifier of a file on the (simulated) parallel filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{CommEvent, ProvRecord};
    use crate::time::Time;
    use proptest::prelude::*;

    #[test]
    fn task_key_display_matches_dask_convention() {
        let k = TaskKey::new("getitem__get_categories", 0x24266c, 63);
        assert_eq!(k.to_string(), "('getitem__get_categories-24266c', 63)");
        assert_eq!(k.group(), "getitem__get_categories-24266c");
    }

    #[test]
    fn prefixes_are_interned_and_compare_like_strings() {
        let a = TaskKey::new("getitem", 1, 0);
        let b = TaskKey::new("getitem", 2, 5);
        // one shared allocation per spelling
        assert!(std::ptr::eq(a.prefix.as_str(), b.prefix.as_str()));
        assert_eq!(a.prefix, "getitem");
        assert_eq!(a.prefix.as_str(), "getitem");
        assert!(a.prefix == b.prefix);
        assert!(TaskPrefix::intern("a") < TaskPrefix::intern("b"));
        // usable as a map key under either hasher
        let mut m = std::collections::HashMap::new();
        m.insert(a.prefix, 1u32);
        assert_eq!(m.get(&TaskPrefix::intern("getitem")), Some(&1));
        let mut m = KeyMap::default();
        m.insert(a, 1u32);
        assert_eq!(m.get(&TaskKey::new("getitem", 1, 0)), Some(&1));
        assert_eq!(m.get(&b), None);
    }

    #[test]
    fn worker_address_is_deterministic_and_unique_per_slot() {
        let n = NodeId(3);
        let w0 = WorkerId::new(n, 0);
        let w1 = WorkerId::new(n, 1);
        assert_ne!(w0.address(), w1.address());
        assert_eq!(w0.address(), WorkerId::new(n, 0).address());
    }

    #[test]
    fn worker_port_is_computed_wide() {
        // 40000 + u32::MAX overflows u32: the port must neither panic nor
        // wrap
        let last = WorkerId::new(NodeId(0), u32::MAX);
        assert_eq!(last.to_string(), "10.0.0.0:4295007295");
    }

    /// The spelling through both of its sinks: `Display` and a `String`.
    fn spelled<T: Spell + fmt::Display>(v: &T) -> (String, String) {
        let mut direct = String::new();
        v.spell(&mut direct).unwrap();
        (v.to_string(), direct)
    }

    proptest! {
        /// Every identifier spells exactly what its `write!` format printed,
        /// through `Display` and through a `String` sink alike: hex wider
        /// than six digits, host numbers wider than four, ports past
        /// `u32::MAX`, prefixes with quotable and non-ASCII text.
        #[test]
        fn identifier_spellings_are_the_format_strings(
            prefix in "[ab,\"\n\ré→_ -]{0,6}",
            token in prop_oneof![any::<u32>(), 0xff_fff0u32..0x100_0010, Just(u32::MAX)],
            index in prop_oneof![any::<u32>(), Just(u32::MAX), Just(0u32)],
            node in prop_oneof![0u32..10_000, 9_990u32..70_000, Just(65_536u32), any::<u32>()],
            slot in prop_oneof![0u32..8, Just(u32::MAX), any::<u32>()],
        ) {
            let key = TaskKey::new(prefix.as_str(), token, index);
            let group = format!("{prefix}-{token:06x}");
            prop_assert_eq!(spelled(&key.group_name()), (group.clone(), group.clone()));
            let tuple = format!("('{group}', {index})");
            prop_assert_eq!(spelled(&key), (tuple.clone(), tuple));
            let host = format!("nid{node:04}");
            prop_assert_eq!(spelled(&NodeId(node)), (host.clone(), host));
            let address = format!("10.0.{}.{}:{}", node / 256, node % 256, 40000 + slot as u64);
            prop_assert_eq!(spelled(&WorkerId::new(NodeId(node), slot)), (address.clone(), address));
            let client = format!("client-{slot}");
            prop_assert_eq!(spelled(&ClientId(slot)), (client.clone(), client));
        }
    }

    #[test]
    fn thread_ids_unique_across_workers_and_threads() {
        let mut seen = std::collections::HashSet::new();
        for node in 0..4 {
            for slot in 0..4 {
                for t in 0..8 {
                    let tid = ThreadId::synth(WorkerId::new(NodeId(node), slot), t);
                    assert!(seen.insert(tid), "duplicate tid {tid}");
                }
            }
        }
    }

    #[test]
    fn hostname_format() {
        assert_eq!(NodeId(7).hostname(), "nid0007");
        assert_eq!(NodeId(1234).hostname(), "nid1234");
    }

    #[test]
    fn ids_serde_roundtrip() {
        let k = TaskKey::new("sum", 12, 3);
        let s = serde_json::to_string(&k).unwrap();
        assert_eq!(serde_json::from_str(&s).unwrap(), serde_json::to_value(k).unwrap());

        let w = WorkerId::new(NodeId(2), 1);
        let s = serde_json::to_string(&w).unwrap();
        assert_eq!(serde_json::from_str(&s).unwrap(), serde_json::to_value(w).unwrap());
    }

    #[test]
    fn task_key_is_three_words() {
        assert_eq!(std::mem::size_of::<TaskKey>(), 24);
    }

    fn hash_with<H: Hasher + Default>(key: &TaskKey) -> u64 {
        use std::hash::Hash;
        let mut h = H::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Short spellings over a small alphabet, so equal pairs turn up often,
    /// with everything JSON and UTF-8 can make awkward in it.
    const SPELLING: &str = "[ab\"\\\n\u{1}é→ ]{0,3}";

    proptest! {
        /// One address per spelling, and nothing else decides equality,
        /// hashing or (through the string) order.
        #[test]
        fn interning_is_the_identity_on_spellings(
            a in SPELLING, b in SPELLING, token in any::<u32>(), index in any::<u32>(),
        ) {
            let (pa, pb) = (TaskPrefix::intern(&a), TaskPrefix::intern(&b));
            prop_assert_eq!(pa.as_str(), a.as_str());
            prop_assert_eq!(pa == pb, a == b);
            prop_assert_eq!(std::ptr::eq(pa.as_str(), pb.as_str()), a == b);
            prop_assert_eq!(pa.cmp(&pb), a.as_str().cmp(b.as_str()));
            let (ka, kb) = (TaskKey::new(pa, token, index), TaskKey::new(pb, token, index));
            if a == b {
                prop_assert_eq!(hash_with::<KeyHasher>(&ka), hash_with::<KeyHasher>(&kb));
                prop_assert_eq!(
                    hash_with::<std::collections::hash_map::DefaultHasher>(&ka),
                    hash_with::<std::collections::hash_map::DefaultHasher>(&kb)
                );
            }
            prop_assert_eq!(ka.cmp(&kb), a.as_str().cmp(b.as_str()));

            // decoding re-interns: a decoded key comes back to the same address
            let record = ProvRecord::Comm(CommEvent {
                key: ka,
                from: WorkerId::new(NodeId(0), 0),
                to: WorkerId::new(NodeId(1), 0),
                nbytes: 1,
                start: Time(0),
                stop: Time(1),
            });
            let mut bytes = Vec::new();
            record.encode_binary(&mut bytes);
            let decoded = ProvRecord::decode_binary(&bytes).unwrap();
            let from_binary = decoded.task_key().unwrap();
            prop_assert_eq!(from_binary, &ka);
            prop_assert!(std::ptr::eq(from_binary.prefix.as_str(), pa.as_str()));
        }
    }

    #[test]
    fn concurrent_interning_of_new_spellings_agrees_on_one_address() {
        const THREADS: usize = 8;
        let spellings: Vec<String> = (0..64).map(|i| format!("raced-spelling-{i}")).collect();
        let start = std::sync::Barrier::new(THREADS);
        let per_thread: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (spellings, start) = (&spellings, &start);
                    scope.spawn(move || {
                        start.wait();
                        // each thread walks the spellings from its own offset,
                        // so first insertions race across the whole set
                        let mut seen = vec![0usize; spellings.len()];
                        for i in 0..spellings.len() {
                            let at = (i + t * 8) % spellings.len();
                            let p = TaskPrefix::intern(&spellings[at]);
                            assert_eq!(p.as_str(), spellings[at]);
                            seen[at] = p.as_str().as_ptr() as usize;
                        }
                        seen
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interning thread")).collect()
        });
        for other in &per_thread[1..] {
            assert_eq!(other, &per_thread[0], "every thread got the same address per spelling");
        }
        let distinct: std::collections::HashSet<usize> = per_thread[0].iter().copied().collect();
        assert_eq!(distinct.len(), spellings.len());
    }
}
