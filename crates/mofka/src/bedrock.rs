//! Bedrock-analog bootstrapping: assemble a Mofka service from a
//! deployment description, the way Mochi's Bedrock spins up a composed
//! service from a configuration file.
//!
//! [`WMS_TOPICS`] is the one table of the WMS deployment: which record
//! family streams to which topic, with how many partitions and what
//! routing. [`BedrockConfig::wms_default`] creates it, the WMS plugin
//! produces to it, and the drain and the live views read it back, each
//! through [`topic_of`] or [`WmsFamily::TOPIC`].

use std::path::Path;

use dtf_core::error::{DtfError, Result};
use dtf_core::events::{
    CommEvent, IoRecord, LogEntry, ProvRecord, ProxyEvent, TaskDoneEvent, TaskMetaEvent,
    TransitionEvent, WarningEvent, WorkerTransitionEvent,
};

use crate::service::MofkaService;
use crate::topic::TopicConfig;

/// One topic in the deployment description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicSpec {
    pub name: String,
    pub partitions: u32,
}

/// One provenance topic of the WMS deployment: a row of [`WMS_TOPICS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WmsTopic {
    pub name: &'static str,
    pub partitions: u32,
    /// Task-scoped: producers hash the record's task key, so one task's
    /// events stay in one partition, in their relative order.
    pub keyed: bool,
}

/// A provenance record family, and the row of [`WMS_TOPICS`] it streams to.
pub trait WmsFamily {
    const TOPIC: usize;
}

macro_rules! wms_topics {
    ($($variant:ident($ty:ty) => $name:literal, $partitions:literal, $keyed:literal;)*) => {
        /// One topic per provenance record family (§III-E2), in creation
        /// order. The order fixes the topic ids of a durable topic log and
        /// the order the WMS plugin flushes in, so it is part of the
        /// at-rest format.
        pub const WMS_TOPICS: [WmsTopic; 9] =
            [$(WmsTopic { name: $name, partitions: $partitions, keyed: $keyed }),*];

        #[repr(usize)]
        enum Row {
            $($variant),*
        }

        /// The row of [`WMS_TOPICS`] `record`'s family streams to.
        pub fn topic_of(record: &ProvRecord) -> usize {
            match record {
                $(ProvRecord::$variant(_) => Row::$variant as usize),*
            }
        }

        $(impl WmsFamily for $ty {
            const TOPIC: usize = Row::$variant as usize;
        })*
    };
}

wms_topics! {
    TaskMeta(TaskMetaEvent) => "task-meta", 4, true;
    Transition(TransitionEvent) => "task-transitions", 4, true;
    WorkerTransition(WorkerTransitionEvent) => "worker-transitions", 4, true;
    TaskDone(TaskDoneEvent) => "task-done", 4, true;
    Comm(CommEvent) => "comm-events", 4, true;
    Io(IoRecord) => "io-records", 4, false;
    Proxy(ProxyEvent) => "proxy-events", 4, true;
    Warning(WarningEvent) => "warnings", 1, false;
    Log(LogEntry) => "logs", 1, false;
}

/// Deployment description for one Mofka instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BedrockConfig {
    pub topics: Vec<TopicSpec>,
}

impl BedrockConfig {
    /// The deployment the WMS plugins expect: the rows of [`WMS_TOPICS`].
    pub fn wms_default() -> Self {
        let topics = WMS_TOPICS
            .iter()
            .map(|t| TopicSpec { name: t.name.into(), partitions: t.partitions })
            .collect();
        Self { topics }
    }

    pub fn validate(&self) -> Result<()> {
        if self.topics.is_empty() {
            return Err(DtfError::Config("bedrock config has no topics".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for t in &self.topics {
            if t.partitions == 0 {
                return Err(DtfError::Config(format!("topic {} has zero partitions", t.name)));
            }
            if !seen.insert(&t.name) {
                return Err(DtfError::Config(format!("duplicate topic {}", t.name)));
            }
        }
        Ok(())
    }

    /// Spin up an in-memory service per this description.
    pub fn bootstrap(&self) -> Result<MofkaService> {
        self.bootstrap_with(None)
    }

    /// Spin up a service per this description, durable in `persist` when
    /// it names a directory. Topics already restored from that directory
    /// are kept, not re-created.
    pub fn bootstrap_with(&self, persist: Option<&Path>) -> Result<MofkaService> {
        self.validate()?;
        let svc = match persist {
            None => MofkaService::new(),
            Some(dir) => MofkaService::durable(dir)?,
        };
        for t in &self.topics {
            if svc.topic(&t.name).is_err() {
                svc.create_topic(&t.name, TopicConfig { partitions: t.partitions })?;
            }
        }
        Ok(svc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_deployment_bootstraps_all_topics() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let names = svc.topic_names();
        for topic in WMS_TOPICS {
            assert!(names.contains(&topic.name.to_string()), "missing {}", topic.name);
        }
    }

    fn topics(specs: &[(&str, u32)]) -> BedrockConfig {
        let topics = specs
            .iter()
            .map(|&(name, partitions)| TopicSpec { name: name.into(), partitions })
            .collect();
        BedrockConfig { topics }
    }

    #[test]
    fn bootstrap_creates_the_described_partitions() {
        let svc = topics(&[("a", 4), ("b", 2)]).bootstrap().unwrap();
        assert_eq!(svc.topic("a").unwrap().num_partitions(), 4);
        assert_eq!(svc.topic("b").unwrap().num_partitions(), 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(topics(&[]).bootstrap().is_err());
        assert!(topics(&[("a", 0)]).bootstrap().is_err());
        assert!(topics(&[("a", 4), ("a", 4)]).bootstrap().is_err());
    }
}
