//! Multi-topic consumer-group feeds — the subscription plumbing the live
//! analysis engine sits on.
//!
//! A [`GroupFeed`] bundles one consumer per topic under a single consumer
//! group and exposes one nonblocking [`GroupFeed::visit`] across all of
//! them, so a subscriber ingests "whatever arrived since last time" in one
//! call — in place: the callback sees each event where the partition log
//! holds it ([`crate::topic::Topic::visit`] states what it may do there),
//! and the feed copies nothing.
//!
//! On a real-time service the feed also holds the shard plane's
//! [`Activity`] signal: [`GroupFeed::wait_activity`] sleeps until a shard
//! worker applies a new append batch (or a timeout elapses) instead of
//! spinning on empty claims — many concurrent feeds can park on the same
//! condvar without ever touching the ingest path. Virtual-time services
//! have no plane (and no concurrent appends); there `wait_activity`
//! returns immediately and callers drive the feed synchronously, which is
//! what keeps simulated runs deterministic.

use std::sync::Arc;

use bytes::Bytes;
use dtf_core::error::Result;
use dtf_core::events::ProvRecord;

use crate::consumer::{Consumer, ConsumerConfig};
use crate::event::EventId;
use crate::service::MofkaService;
use crate::shard::Activity;

/// A consumer group spanning several topics, polled as one stream.
#[derive(Debug)]
pub struct GroupFeed {
    topics: Vec<String>,
    consumers: Vec<Consumer>,
    /// Shard-plane append signal (real-time services only).
    activity: Option<Arc<Activity>>,
    /// Last activity sequence this feed acted on.
    seen: u64,
}

impl GroupFeed {
    pub(crate) fn new(svc: &MofkaService, topics: &[&str], cfg: ConsumerConfig) -> Result<Self> {
        let consumers =
            topics.iter().map(|t| svc.consumer(t, cfg.clone())).collect::<Result<Vec<_>>>()?;
        let activity = svc.plane().map(|p| p.activity());
        let seen = activity.as_ref().map_or(0, |a| a.seq());
        Ok(Self {
            topics: topics.iter().map(|t| t.to_string()).collect(),
            consumers,
            activity,
            seen,
        })
    }

    /// Topic names, in the index order [`Self::visit`] reports.
    pub fn topics(&self) -> &[String] {
        &self.topics
    }

    /// Visit up to `max_per_topic` events of every topic, topic by topic:
    /// `f` gets the topic's index in the list the feed was built with,
    /// then what [`Consumer::visit`] hands over. Nonblocking; returns the
    /// events visited, and zero means the whole feed is (currently)
    /// drained.
    pub fn visit(
        &mut self,
        max_per_topic: usize,
        mut f: impl FnMut(usize, EventId, &ProvRecord, Bytes) -> Result<()>,
    ) -> Result<u64> {
        if let Some(a) = &self.activity {
            // remember where the plane was *before* reading, so appends
            // racing this visit re-trigger the next wait instead of being
            // slept past
            self.seen = a.seq();
        }
        let mut visited = 0;
        for (topic, c) in self.consumers.iter_mut().enumerate() {
            visited +=
                c.visit(max_per_topic, |id, record, data| f(topic, id, record, data))? as u64;
        }
        Ok(visited)
    }

    /// Sleep until the shard plane applies an append the feed has not yet
    /// visited past, or `timeout` elapses. Returns whether new activity was
    /// observed. Without a plane (virtual-time service) this returns
    /// `false` immediately — visit synchronously instead.
    pub fn wait_activity(&mut self, timeout: std::time::Duration) -> bool {
        let Some(a) = &self.activity else {
            return false;
        };
        a.wait_past(self.seen, timeout) > self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bedrock::BedrockConfig;
    use crate::event::testing::tagged;
    use crate::event::Event;
    use crate::producer::ProducerConfig;

    fn ev(i: u64) -> Event {
        tagged(0, i)
    }

    #[test]
    fn feed_visits_across_topics_under_one_group() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let mut p1 = svc.producer("task-done", ProducerConfig::default()).unwrap();
        let mut p2 = svc.producer("comm-events", ProducerConfig::default()).unwrap();
        for i in 0..10 {
            p1.push(ev(i)).unwrap();
        }
        for i in 0..5 {
            p2.push(ev(i)).unwrap();
        }
        drop((p1, p2));
        let cfg = ConsumerConfig { group: "feed-test".into(), prefetch: 64 };
        let mut feed = GroupFeed::new(&svc, &["task-done", "comm-events"], cfg).unwrap();
        let mut got = [0usize; 2];
        let mut count = |topic: usize, _, _: &ProvRecord, _| {
            got[topic] += 1;
            Ok(())
        };
        while feed.visit(3, &mut count).unwrap() > 0 {}
        assert_eq!(got, [10, 5]);
        assert_eq!(feed.topics(), &["task-done".to_string(), "comm-events".to_string()]);
        // a second feed under another group sees everything again
        let cfg2 = ConsumerConfig { group: "feed-test-2".into(), prefetch: 64 };
        let mut feed2 = GroupFeed::new(&svc, &["task-done"], cfg2).unwrap();
        let mut total = 0;
        loop {
            let n = feed2.visit(64, |_, _, _, _| Ok(())).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 10);
    }

    #[test]
    fn wait_activity_is_immediate_without_a_plane() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let cfg = ConsumerConfig { group: "vt".into(), prefetch: 16 };
        let mut feed = GroupFeed::new(&svc, &["logs"], cfg).unwrap();
        let t0 = std::time::Instant::now();
        assert!(!feed.wait_activity(std::time::Duration::from_secs(5)));
        assert!(t0.elapsed() < std::time::Duration::from_secs(1), "no plane: no blocking");
    }

    #[test]
    fn wait_activity_wakes_on_plane_append() {
        let svc_cfg = crate::ServiceConfig {
            mode: crate::ServiceMode::RealTime { shards: 2 },
            ..Default::default()
        };
        let svc = BedrockConfig::wms_default().bootstrap_with(&svc_cfg).unwrap();
        let cfg = ConsumerConfig { group: "rt".into(), prefetch: 16 };
        let mut feed = GroupFeed::new(&svc, &["task-done"], cfg).unwrap();
        assert!(!feed.wait_activity(std::time::Duration::from_millis(50)), "idle plane");
        let mut p = svc.producer("task-done", ProducerConfig::default()).unwrap();
        p.push(ev(1)).unwrap();
        p.sync().unwrap();
        assert!(feed.wait_activity(std::time::Duration::from_secs(10)), "append wakes the feed");
        assert_eq!(feed.visit(16, |_, _, _, _| Ok(())).unwrap(), 1);
        // visiting advances the seen watermark: quiet plane, no new wake
        assert!(!feed.wait_activity(std::time::Duration::from_millis(50)));
        svc.shutdown().unwrap();
    }
}
