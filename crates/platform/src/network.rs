//! Network cost model.
//!
//! Transfer time between two workers is:
//!
//! ```text
//!   t = connect (first contact between the pair only)
//!     + latency(distance) * nic_factors * jitter
//!     + bytes / bandwidth(distance) * congestion(t) * jitter
//! ```
//!
//! The one-time connection-establishment cost is what reproduces the
//! paper's Fig. 5 observation that several *small* communications near the
//! beginning of the workflow take disproportionately long, both inter- and
//! intra-node: Dask opens TCP connections lazily on first use.

use rand::Rng;
use std::collections::HashSet;

use dtf_core::dist::Jitter;
use dtf_core::ids::NodeId;
use dtf_core::time::{Dur, Time};

use crate::interference::LoadProcess;
use crate::topology::{ClusterTopology, Distance};

/// Tunable constants of the network model.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// One-way software latency for intra-node (loopback) messages, seconds.
    pub latency_same_node: f64,
    /// One-way latency under one switch, seconds (TCP/Dask software stack
    /// dominates the wire time).
    pub latency_same_switch: f64,
    /// Additional latency per extra hop, seconds.
    pub latency_per_hop: f64,
    /// Effective bandwidth for intra-node transfers, bytes/second.
    pub bw_same_node: f64,
    /// Effective bandwidth for inter-node transfers, bytes/second.
    pub bw_inter_node: f64,
    /// Mean TCP connection-establishment cost on first contact, seconds.
    pub connect_cost: f64,
    /// Log-scale sigma of the multiplicative jitter on every transfer.
    pub jitter_sigma: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            latency_same_node: 30e-6,
            latency_same_switch: 120e-6,
            latency_per_hop: 40e-6,
            bw_same_node: 4.0e9,
            bw_inter_node: 1.5e9,
            connect_cost: 0.050,
            jitter_sigma: 0.25,
        }
    }
}

/// Stateful network model: tracks which endpoint pairs have already
/// connected and the background congestion process.
#[derive(Debug)]
pub struct NetworkModel {
    cfg: NetworkConfig,
    congestion: LoadProcess,
    jitter: Jitter,
    /// Pairs (ordered canonical) that have established a connection.
    connected: HashSet<(u64, u64)>,
}

impl NetworkModel {
    pub fn new(cfg: NetworkConfig, congestion: LoadProcess) -> Self {
        let jitter = if cfg.jitter_sigma > 0.0 {
            Jitter::new(cfg.jitter_sigma, 4.0)
        } else {
            Jitter::none()
        };
        Self { cfg, congestion, jitter, connected: HashSet::new() }
    }

    /// Cost of transferring `bytes` between endpoints `a` and `b` (opaque
    /// endpoint ids — worker address hashes) living on nodes `na`/`nb`,
    /// starting at time `now`. Also returns whether this call paid the
    /// connection-establishment cost.
    #[allow(clippy::too_many_arguments)] // mirrors the (src, dst, payload, time) shape of a transfer
    pub fn transfer_time<R: Rng + ?Sized>(
        &mut self,
        topo: &ClusterTopology,
        a: u64,
        na: NodeId,
        b: u64,
        nb: NodeId,
        bytes: u64,
        now: Time,
        rng: &mut R,
    ) -> (Dur, bool) {
        let dist = topo.distance(na, nb);
        let nic = topo.profile(na).nic_factor * topo.profile(nb).nic_factor;
        let latency = match dist {
            Distance::SameNode => self.cfg.latency_same_node,
            Distance::SameSwitch => self.cfg.latency_same_switch,
            Distance::CrossSwitch { hops } => {
                self.cfg.latency_same_switch + self.cfg.latency_per_hop * hops as f64
            }
        };
        let bw = match dist {
            Distance::SameNode => self.cfg.bw_same_node,
            _ => self.cfg.bw_inter_node,
        };
        let congestion = match dist {
            Distance::SameNode => 1.0,
            _ => self.congestion.factor(now),
        };
        let pair = if a <= b { (a, b) } else { (b, a) };
        let first_contact = self.connected.insert(pair);
        let connect = if first_contact {
            // connection setup is itself noisy (DNS, handshake, listener
            // backlog); jitter it independently
            self.jitter.apply(self.cfg.connect_cost, rng)
        } else {
            0.0
        };
        let base = latency * nic + bytes as f64 / bw * congestion;
        let secs = connect + self.jitter.apply(base, rng);
        (Dur::from_secs_f64(secs), first_contact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (ClusterTopology, NetworkModel, SmallRng) {
        let topo = ClusterTopology::uniform(32, 16);
        let net = NetworkModel::new(NetworkConfig::default(), LoadProcess::none(1));
        (topo, net, SmallRng::seed_from_u64(3))
    }

    #[test]
    fn first_contact_pays_connect_cost() {
        let (topo, mut net, mut rng) = setup();
        let (d1, first1) =
            net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 1024, Time::ZERO, &mut rng);
        let (d2, first2) =
            net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 1024, Time::ZERO, &mut rng);
        assert!(first1);
        assert!(!first2);
        assert!(d1 > d2, "first contact {d1} should exceed subsequent {d2}");
        // connect cost dominates small messages: at least 10x
        assert!(d1.as_secs_f64() > 10.0 * d2.as_secs_f64());
    }

    #[test]
    fn connection_pairs_are_symmetric() {
        let (topo, mut net, mut rng) = setup();
        let (_, first1) =
            net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 10, Time::ZERO, &mut rng);
        let (_, first2) =
            net.transfer_time(&topo, 2, NodeId(1), 1, NodeId(0), 10, Time::ZERO, &mut rng);
        assert!(first1);
        assert!(!first2, "reverse direction should reuse the connection");
    }

    #[test]
    fn same_node_is_faster_than_inter_node() {
        let (topo, mut net, mut rng) = setup();
        // warm up connections
        net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(0), 1, Time::ZERO, &mut rng);
        net.transfer_time(&topo, 3, NodeId(0), 4, NodeId(1), 1, Time::ZERO, &mut rng);
        let mb = 64 * 1024 * 1024;
        let mut intra = 0.0;
        let mut inter = 0.0;
        for _ in 0..50 {
            intra += net
                .transfer_time(&topo, 1, NodeId(0), 2, NodeId(0), mb, Time::ZERO, &mut rng)
                .0
                .as_secs_f64();
            inter += net
                .transfer_time(&topo, 3, NodeId(0), 4, NodeId(1), mb, Time::ZERO, &mut rng)
                .0
                .as_secs_f64();
        }
        assert!(intra < inter, "intra {intra} should beat inter {inter}");
    }

    #[test]
    fn larger_transfers_take_longer_on_average() {
        let (topo, mut net, mut rng) = setup();
        net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 1, Time::ZERO, &mut rng);
        let avg = |net: &mut NetworkModel, rng: &mut SmallRng, bytes| {
            (0..100)
                .map(|_| {
                    net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), bytes, Time::ZERO, rng)
                        .0
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 100.0
        };
        let small = avg(&mut net, &mut rng, 1024);
        let large = avg(&mut net, &mut rng, 256 * 1024 * 1024);
        assert!(large > 5.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn congestion_slows_inter_node_transfers() {
        let topo = ClusterTopology::uniform(32, 16);
        let mk = |process: LoadProcess| {
            // isolate the congestion effect
            let cfg = NetworkConfig { jitter_sigma: 0.0, ..Default::default() };
            let mut net = NetworkModel::new(cfg, process);
            let mut rng = SmallRng::seed_from_u64(5);
            // warm-up
            net.transfer_time(&topo, 1, NodeId(0), 2, NodeId(1), 1, Time::ZERO, &mut rng);
            let bytes = 512 * 1024 * 1024;
            // sample many windows and take the mean
            (0..200)
                .map(|i| {
                    net.transfer_time(
                        &topo,
                        1,
                        NodeId(0),
                        2,
                        NodeId(1),
                        bytes,
                        Time::from_secs_f64(i as f64 * 2.0),
                        &mut rng,
                    )
                    .0
                    .as_secs_f64()
                })
                .sum::<f64>()
                / 200.0
        };
        let quiet = mk(LoadProcess::none(1));
        let congested = mk(LoadProcess::network_default(1));
        assert!(congested > quiet, "congested mean {congested} vs quiet {quiet}");
    }
}
