//! SSG-analog group membership and fault detection.
//!
//! Mofka uses Mochi's SSG for group membership. The analog tracks members,
//! their heartbeats, and a monotonically increasing *view number* that bumps
//! on every membership change — enough for the WMS to detect dead workers
//! and for tests to inject failures.

use parking_lot::RwLock;
use serde::Serialize;
use std::collections::HashMap;

use dtf_core::time::{Dur, Time};

/// Per-member state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemberState {
    pub joined: Time,
    pub last_heartbeat: Time,
}

/// Membership group with heartbeat-based fault detection.
#[derive(Debug)]
pub struct SsgGroup {
    name: String,
    timeout: Dur,
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    members: HashMap<String, MemberState>,
    view: u64,
}

impl SsgGroup {
    pub fn new(name: impl Into<String>, timeout: Dur) -> Self {
        assert!(timeout > Dur::ZERO);
        Self { name: name.into(), timeout, inner: RwLock::new(Inner::default()) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a member. Re-joining refreshes the heartbeat and bumps the view.
    pub fn join(&self, member: impl Into<String>, now: Time) {
        let mut inner = self.inner.write();
        inner.members.insert(member.into(), MemberState { joined: now, last_heartbeat: now });
        inner.view += 1;
    }

    /// Record a heartbeat. Unknown members are ignored (stale heartbeat
    /// after eviction).
    pub fn heartbeat(&self, member: &str, now: Time) {
        if let Some(m) = self.inner.write().members.get_mut(member) {
            m.last_heartbeat = m.last_heartbeat.max(now);
        }
    }

    /// Members whose last heartbeat is older than the timeout at `now`.
    pub fn suspects(&self, now: Time) -> Vec<String> {
        let inner = self.inner.read();
        let mut out: Vec<String> = inner
            .members
            .iter()
            .filter(|(_, m)| now.since(m.last_heartbeat) > self.timeout)
            .map(|(k, _)| k.clone())
            .collect();
        out.sort();
        out
    }

    /// Evict all suspects at `now`; returns the evicted member names.
    pub fn evict_suspects(&self, now: Time) -> Vec<String> {
        let suspects = self.suspects(now);
        if !suspects.is_empty() {
            let mut inner = self.inner.write();
            for s in &suspects {
                inner.members.remove(s);
            }
            inner.view += 1;
        }
        suspects
    }

    pub fn members(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().members.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn contains(&self, member: &str) -> bool {
        self.inner.read().members.contains_key(member)
    }

    /// Monotone view number; changes exactly when membership changes.
    pub fn view(&self) -> u64 {
        self.inner.read().view
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grp() -> SsgGroup {
        SsgGroup::new("workers", Dur::from_secs_f64(1.0))
    }

    #[test]
    fn join_membership() {
        let g = grp();
        g.join("w0", Time::ZERO);
        g.join("w1", Time::ZERO);
        assert_eq!(g.members(), vec!["w0", "w1"]);
        assert!(g.contains("w0"));
        assert!(!g.contains("w2"));
    }

    #[test]
    fn view_bumps_on_changes_only() {
        let g = grp();
        let v0 = g.view();
        g.join("w0", Time::ZERO);
        let v1 = g.view();
        assert!(v1 > v0);
        g.heartbeat("w0", Time::from_secs_f64(0.5));
        assert_eq!(g.view(), v1, "heartbeat is not a membership change");
        g.evict_suspects(Time::from_secs_f64(2.0));
        assert!(g.view() > v1);
    }

    #[test]
    fn fault_detection_flags_stale_members() {
        let g = grp();
        g.join("w0", Time::ZERO);
        g.join("w1", Time::ZERO);
        g.heartbeat("w0", Time::from_secs_f64(2.0));
        // at t=2.5: w1 last beat at 0 (stale beyond 1s), w0 at 2.0 (fresh)
        assert_eq!(g.suspects(Time::from_secs_f64(2.5)), vec!["w1"]);
        let evicted = g.evict_suspects(Time::from_secs_f64(2.5));
        assert_eq!(evicted, vec!["w1"]);
        assert_eq!(g.members(), vec!["w0"]);
    }

    #[test]
    fn heartbeat_never_moves_backwards() {
        let g = grp();
        g.join("w0", Time::from_secs_f64(5.0));
        g.heartbeat("w0", Time::from_secs_f64(1.0)); // stale heartbeat arrives late
        assert!(g.suspects(Time::from_secs_f64(5.5)).is_empty());
    }

    #[test]
    fn heartbeat_for_unknown_member_is_ignored() {
        let g = grp();
        g.heartbeat("ghost", Time::ZERO);
        assert!(g.members().is_empty());
    }

    #[test]
    fn evict_with_no_suspects_keeps_view() {
        let g = grp();
        g.join("w0", Time::ZERO);
        let v = g.view();
        assert!(g.evict_suspects(Time::from_secs_f64(0.5)).is_empty());
        assert_eq!(g.view(), v);
    }
}
