//! Property-based tests of the platform cost models.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use dtf_core::ids::NodeId;
use dtf_core::time::Time;
use dtf_platform::job::{JobRequest, JobScheduler};
use dtf_platform::{ClusterTopology, LoadProcess, NetworkConfig, NetworkModel, Pfs, PfsConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interference factors are deterministic, >= 1, and bounded by the
    /// configured burst maximum for any seed and any query time.
    #[test]
    fn load_process_bounded_and_deterministic(seed in any::<u64>(), times in proptest::collection::vec(0.0f64..10_000.0, 1..50)) {
        let p = LoadProcess::pfs_default(seed);
        for &t in &times {
            let a = p.factor(Time::from_secs_f64(t));
            let b = p.factor(Time::from_secs_f64(t));
            prop_assert_eq!(a, b);
            prop_assert!((1.0..=8.0 + 1e-9).contains(&a));
        }
    }

    /// PFS read cost grows monotonically (on average) with size, and every
    /// cost is positive and finite.
    #[test]
    fn pfs_costs_positive_and_size_sensitive(seed in any::<u64>(), small in 1u64..65536, factor in 64u64..1024) {
        let cfg = PfsConfig { jitter_sigma: 0.0, ..Default::default() };
        let mut pfs = Pfs::new(cfg, LoadProcess::none(seed));
        let id = pfs.create("/f", u64::MAX / 2, 4);
        let mut rng = SmallRng::seed_from_u64(seed);
        let large = small.saturating_mul(factor);
        let c_small = pfs.read(id, 0, small, Time::ZERO, &mut rng).unwrap();
        let c_large = pfs.read(id, 0, large, Time::ZERO, &mut rng).unwrap();
        prop_assert!(c_small.0 > 0);
        prop_assert!(c_large >= c_small, "cost must not shrink with size");
    }

    /// Network transfer time is positive, and after warm-up the same
    /// transfer has deterministic cost when jitter is disabled.
    #[test]
    fn network_costs_stable_without_jitter(seed in any::<u64>(), bytes in 1u64..(1 << 30)) {
        let topo = ClusterTopology::uniform(32, 16);
        let cfg = NetworkConfig { jitter_sigma: 0.0, ..Default::default() };
        let mut net = NetworkModel::new(cfg, LoadProcess::none(seed));
        let mut rng = SmallRng::seed_from_u64(seed);
        // warm up the pair
        net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 1, Time::ZERO, &mut rng);
        let (a, first_a) = net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), bytes, Time::ZERO, &mut rng);
        let (b, first_b) = net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), bytes, Time::ZERO, &mut rng);
        prop_assert!(!first_a && !first_b);
        prop_assert_eq!(a, b);
        prop_assert!(a.0 > 0);
    }

    /// Job allocations always return the requested number of distinct,
    /// in-range nodes, for any cluster shape that can satisfy them.
    #[test]
    fn allocations_always_valid(
        nodes_pow in 3u32..9,
        per_switch in 1u32..32,
        request in 1u32..8,
        seed in any::<u64>(),
    ) {
        let node_count = 1u32 << nodes_pow; // 8..256
        prop_assume!(request <= node_count);
        let topo = ClusterTopology::uniform(node_count, per_switch.min(node_count));
        let mut js = JobScheduler::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        let req = JobRequest { nodes: request, walltime_limit_s: 60, queue: "q".into() };
        let job = js.allocate(&topo, &req, Time::ZERO, &mut rng).unwrap();
        prop_assert_eq!(job.allocated_nodes.len(), request as usize);
        let mut uniq = job.allocated_nodes.clone();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), request as usize);
        prop_assert!(job.allocated_nodes.iter().all(|n| n.0 < node_count));
    }

    /// Topology distances are symmetric and same-node iff equal ids.
    #[test]
    fn distances_symmetric(a in 0u32..64, b in 0u32..64) {
        let topo = ClusterTopology::uniform(64, 8);
        let d_ab = topo.distance(NodeId(a), NodeId(b));
        let d_ba = topo.distance(NodeId(b), NodeId(a));
        prop_assert_eq!(d_ab, d_ba);
        prop_assert_eq!(a == b, d_ab == dtf_platform::Distance::SameNode);
    }
}
