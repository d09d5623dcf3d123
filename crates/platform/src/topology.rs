//! Cluster topology: nodes grouped under switches, with per-node
//! performance profiles.
//!
//! The paper (§III-E1, §V) names two placement-related variability sources:
//! the allocated nodes may sit under different switches (extra hops between
//! scheduler and workers), and nominally identical nodes differ slightly in
//! effective performance. Both are first-class here.

use rand::Rng;
use serde::Serialize;

use dtf_core::dist::{Normal, Sample};
use dtf_core::ids::NodeId;

/// Network distance classes between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Distance {
    /// Same node: loopback / shared memory.
    SameNode,
    /// Different nodes under the same switch.
    SameSwitch,
    /// Different switch groups: one or more extra hops.
    CrossSwitch { hops: u32 },
}

/// Per-node effective performance profile, drawn once per run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeProfile {
    /// Multiplier on compute durations (1.0 = nominal; >1 = slower node).
    pub compute_factor: f64,
    /// Multiplier on this node's NIC effective latency.
    pub nic_factor: f64,
}

impl Default for NodeProfile {
    fn default() -> Self {
        Self { compute_factor: 1.0, nic_factor: 1.0 }
    }
}

/// A cluster of `node_count` nodes, `nodes_per_switch` under each switch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterTopology {
    pub node_count: u32,
    pub nodes_per_switch: u32,
    profiles: Vec<NodeProfile>,
}

impl ClusterTopology {
    /// Build a topology with nominal (factor = 1) node profiles.
    pub fn uniform(node_count: u32, nodes_per_switch: u32) -> Self {
        assert!(node_count > 0 && nodes_per_switch > 0);
        Self {
            node_count,
            nodes_per_switch,
            profiles: vec![NodeProfile::default(); node_count as usize],
        }
    }

    /// Build a topology with heterogeneous node profiles: compute and NIC
    /// factors drawn from `N(1, sigma)` clamped to `[0.9, 1.25]`.
    pub fn heterogeneous<R: Rng + ?Sized>(
        node_count: u32,
        nodes_per_switch: u32,
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        let dist = Normal::new(1.0, sigma);
        let profiles = (0..node_count)
            .map(|_| NodeProfile {
                compute_factor: dist.sample(rng).clamp(0.9, 1.25),
                nic_factor: dist.sample(rng).clamp(0.9, 1.25),
            })
            .collect();
        Self { node_count, nodes_per_switch, profiles }
    }

    /// Polaris-like topology (§IV-A): 560 nodes; Slingshot dragonfly groups
    /// approximated as switches of 16 nodes.
    pub fn polaris_like<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::heterogeneous(560, 16, 0.02, rng)
    }

    pub fn switch_of(&self, n: NodeId) -> u32 {
        assert!(n.0 < self.node_count, "node {n} outside cluster");
        n.0 / self.nodes_per_switch
    }

    /// Distance class between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Distance {
        if a == b {
            return Distance::SameNode;
        }
        let (sa, sb) = (self.switch_of(a), self.switch_of(b));
        if sa == sb {
            Distance::SameSwitch
        } else {
            // Dragonfly-ish: group distance grows slowly; model 1 extra hop
            // per 8 switch groups of separation, at least 1.
            let hops = 1 + sa.abs_diff(sb) / 8;
            Distance::CrossSwitch { hops }
        }
    }

    pub fn profile(&self, n: NodeId) -> NodeProfile {
        self.profiles[n.0 as usize]
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn distance_classes() {
        let t = ClusterTopology::uniform(64, 16);
        assert_eq!(t.distance(NodeId(3), NodeId(3)), Distance::SameNode);
        assert_eq!(t.distance(NodeId(0), NodeId(15)), Distance::SameSwitch);
        assert!(matches!(t.distance(NodeId(0), NodeId(16)), Distance::CrossSwitch { hops: 1 }));
    }

    #[test]
    fn distance_is_symmetric() {
        let t = ClusterTopology::uniform(128, 16);
        for a in [0u32, 5, 17, 100] {
            for b in [0u32, 5, 17, 100] {
                assert_eq!(t.distance(NodeId(a), NodeId(b)), t.distance(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn cross_switch_hops_grow_with_separation() {
        let t = ClusterTopology::uniform(560, 16);
        let near = t.distance(NodeId(0), NodeId(16));
        let far = t.distance(NodeId(0), NodeId(559));
        let (Distance::CrossSwitch { hops: hn }, Distance::CrossSwitch { hops: hf }) = (near, far)
        else {
            panic!("expected cross-switch distances");
        };
        assert!(hf > hn, "far hops {hf} should exceed near hops {hn}");
    }

    #[test]
    fn heterogeneous_profiles_vary_but_stay_bounded() {
        let mut rng = SmallRng::seed_from_u64(1);
        let t = ClusterTopology::heterogeneous(100, 16, 0.05, &mut rng);
        let factors: Vec<f64> = t.nodes().map(|n| t.profile(n).compute_factor).collect();
        assert!(factors.iter().any(|&f| (f - 1.0).abs() > 1e-6), "profiles should vary");
        assert!(factors.iter().all(|&f| (0.9..=1.25).contains(&f)));
    }

    #[test]
    fn uniform_profiles_are_nominal() {
        let t = ClusterTopology::uniform(4, 2);
        for n in t.nodes() {
            assert_eq!(t.profile(n).compute_factor, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn switch_of_out_of_range_panics() {
        let t = ClusterTopology::uniform(4, 2);
        t.switch_of(NodeId(4));
    }
}
