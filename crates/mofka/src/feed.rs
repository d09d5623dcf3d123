//! Multi-topic consumer-group feeds — the subscription plumbing the live
//! analysis engine sits on.
//!
//! A [`GroupFeed`] bundles one consumer per topic under a single consumer
//! group and exposes one nonblocking [`GroupFeed::visit`] across all of
//! them, so a subscriber ingests "whatever arrived since last time" in one
//! call — in place: the callback sees each event where the partition log
//! holds it ([`crate::topic::Topic::visit`] states what it may do there),
//! and the feed copies nothing.

use bytes::Bytes;
use dtf_core::error::Result;
use dtf_core::events::ProvRecord;

use crate::consumer::{Consumer, ConsumerConfig};
use crate::event::EventId;
use crate::service::MofkaService;

/// A consumer group spanning several topics, polled as one stream.
#[derive(Debug)]
pub struct GroupFeed {
    topics: Vec<String>,
    consumers: Vec<Consumer>,
}

impl GroupFeed {
    pub(crate) fn new(svc: &MofkaService, topics: &[&str], cfg: ConsumerConfig) -> Result<Self> {
        let consumers =
            topics.iter().map(|t| svc.consumer(t, cfg.clone())).collect::<Result<Vec<_>>>()?;
        Ok(Self { topics: topics.iter().map(|t| t.to_string()).collect(), consumers })
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
        mut f: impl FnMut(usize, EventId, u64, &ProvRecord, Bytes) -> Result<()>,
    ) -> Result<u64> {
        let mut visited = 0;
        for (topic, c) in self.consumers.iter_mut().enumerate() {
            visited += c
                .visit(max_per_topic, |id, seq, record, data| f(topic, id, seq, record, data))?
                as u64;
        }
        Ok(visited)
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
        let mut count = |topic: usize, _, _, _: &ProvRecord, _| {
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
            let n = feed2.visit(64, |_, _, _, _, _| Ok(())).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 10);
    }
}
