//! Seeded-schedule interleaving harness for the shard handoff state
//! machine (`--features interleave`).
//!
//! Each seed drives one deterministic schedule against a *manual* plane:
//! producer pushes, partial flushes, single shard steps, consumer pulls,
//! and barriers interleave in a seeded random order, exploring handoff
//! states (queued / partially applied / drained) that the spawned plane
//! reaches only under rare thread timings. Invariants checked throughout:
//!
//! - delivery is exactly-once per group, with nothing lost by the final
//!   barrier + drain;
//! - per (producer, partition) sequence numbers are strictly increasing
//!   in delivery order — handoff never reorders a producer's batches;
//! - a barrier always leaves every shard queue empty;
//! - consumers never observe an event that was not yet applied by a step
//!   (the log is append-only, so this falls out of offset contiguity).
//!
//! A failing seed reproduces exactly: schedules derive only from the
//! seed, never from wall time. `DTF_INTERLEAVE_SEEDS` overrides the
//! number of seeds (default 64).

#![cfg(feature = "interleave")]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use dtf_mofka::{ConsumerConfig, MofkaService, ProducerConfig, TopicConfig};

mod common;
use common::{tag, tagged as ev};

struct Harness {
    svc: MofkaService,
    producers: Vec<dtf_mofka::Producer>,
    next_seq: Vec<u64>,
    consumer: dtf_mofka::Consumer,
    // exactly-once ledger: (producer, seq) -> delivered?
    seen: std::collections::HashSet<(u32, u64)>,
    // per (producer, partition): last seq delivered, for order checks
    last_seq: std::collections::HashMap<(u32, u32), u64>,
    pushed: u64,
    delivered: u64,
}

impl Harness {
    fn new(rng: &mut SmallRng) -> Self {
        let shards = rng.gen_range(1..5);
        let partitions = rng.gen_range(1..5) as u32;
        let svc = MofkaService::manual(shards);
        svc.create_topic("t", TopicConfig { partitions }).unwrap();
        let n_producers = rng.gen_range(1..4);
        let producers = (0..n_producers)
            .map(|_| {
                let batch = rng.gen_range(1..33);
                svc.producer("t", ProducerConfig { batch_size: batch, ..Default::default() })
                    .unwrap()
            })
            .collect();
        let prefetch = rng.gen_range(1..65);
        let consumer = svc.consumer("t", ConsumerConfig { group: "g".into(), prefetch }).unwrap();
        Self {
            svc,
            producers,
            next_seq: vec![0; n_producers],
            consumer,
            seen: Default::default(),
            last_seq: Default::default(),
            pushed: 0,
            delivered: 0,
        }
    }

    fn deliver(&mut self, batch: Vec<dtf_mofka::StoredEvent>) {
        for se in batch {
            let (p, s) = tag(&se.event);
            assert!(self.seen.insert((p, s)), "duplicate delivery of (p{p}, s{s})");
            if let Some(prev) = self.last_seq.insert((p, se.id.partition), s) {
                assert!(
                    s > prev,
                    "producer {p} seq {s} delivered after {prev} in partition {}",
                    se.id.partition
                );
            }
            self.delivered += 1;
        }
    }

    fn run(mut self, rng: &mut SmallRng) {
        let plane = self.svc.plane().unwrap().clone();
        let steps = rng.gen_range(64..512);
        for _ in 0..steps {
            match rng.gen_range(0..100) {
                // push: the most common op, so queues actually fill
                0..=54 => {
                    let i = rng.gen_range(0..self.producers.len());
                    let s = self.next_seq[i];
                    self.next_seq[i] += 1;
                    self.producers[i].push(ev(i as u32, s)).unwrap();
                    self.pushed += 1;
                }
                // explicit flush: hand partial batches to the shards
                55..=69 => {
                    let i = rng.gen_range(0..self.producers.len());
                    self.producers[i].flush().unwrap();
                }
                // step one shard once: apply a single queued job
                70..=84 => {
                    let i = rng.gen_range(0..plane.num_shards());
                    plane.step_shard(i);
                }
                // pull: may race arbitrary handoff states
                85..=94 => {
                    let n = rng.gen_range(1..64);
                    let batch = self.consumer.pull(n).unwrap();
                    self.deliver(batch);
                }
                // barrier: drains every queue inline on a manual plane
                _ => {
                    plane.barrier().unwrap();
                    for i in 0..plane.num_shards() {
                        assert_eq!(plane.queued_jobs(i), 0, "barrier left shard {i} non-empty");
                    }
                }
            }
        }
        // quiesce: flush every producer, drain the plane, drain the group
        for p in &mut self.producers {
            p.sync().unwrap();
        }
        let rest = self.consumer.drain_all().unwrap();
        self.deliver(rest);
        assert_eq!(
            self.delivered, self.pushed,
            "{} events pushed but {} delivered",
            self.pushed, self.delivered
        );
    }
}

#[test]
fn seeded_schedules_preserve_handoff_invariants() {
    let seeds: u64 =
        std::env::var("DTF_INTERLEAVE_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(64);
    for seed in 0..seeds {
        let mut rng = SmallRng::seed_from_u64(0xd7f_1e4a ^ seed);
        let harness = Harness::new(&mut rng);
        harness.run(&mut rng);
    }
}
