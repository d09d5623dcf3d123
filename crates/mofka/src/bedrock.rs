//! Bedrock-analog bootstrapping: assemble a Mofka service from a
//! deployment description, the way Mochi's Bedrock spins up a composed
//! service from a configuration file.

use serde::{Deserialize, Serialize};

use dtf_core::error::{DtfError, Result};

use crate::service::{MofkaService, ServiceConfig};
use crate::topic::TopicConfig;

/// One topic in the deployment description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicSpec {
    pub name: String,
    pub partitions: u32,
}

/// Deployment description for one Mofka instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BedrockConfig {
    pub topics: Vec<TopicSpec>,
}

impl BedrockConfig {
    /// The deployment the WMS plugins expect: one topic per provenance
    /// record family (§III-E2).
    pub fn wms_default() -> Self {
        Self {
            topics: vec![
                TopicSpec { name: "task-meta".into(), partitions: 4 },
                TopicSpec { name: "task-transitions".into(), partitions: 4 },
                TopicSpec { name: "worker-transitions".into(), partitions: 4 },
                TopicSpec { name: "task-done".into(), partitions: 4 },
                TopicSpec { name: "comm-events".into(), partitions: 4 },
                TopicSpec { name: "io-records".into(), partitions: 4 },
                TopicSpec { name: "proxy-events".into(), partitions: 4 },
                TopicSpec { name: "warnings".into(), partitions: 1 },
                TopicSpec { name: "logs".into(), partitions: 1 },
            ],
        }
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
        self.bootstrap_with(&ServiceConfig::default())
    }

    /// Spin up a service per this description and `svc_cfg` (which may
    /// request persistence). Topics already restored from a persisted
    /// directory are kept, not re-created.
    pub fn bootstrap_with(&self, svc_cfg: &ServiceConfig) -> Result<MofkaService> {
        self.validate()?;
        let svc = MofkaService::with_config(svc_cfg)?;
        for t in &self.topics {
            if svc.topic(&t.name).is_err() {
                svc.create_topic(&t.name, TopicConfig { partitions: t.partitions })?;
            }
        }
        // record the deployment description itself (provenance of the
        // provenance system)
        svc.yokan().put("bedrock/config", serde_json::to_vec(self).expect("config serializes"));
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
        for expect in [
            "task-meta",
            "task-transitions",
            "worker-transitions",
            "task-done",
            "comm-events",
            "io-records",
            "warnings",
            "logs",
        ] {
            assert!(names.contains(&expect.to_string()), "missing {expect}");
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

    #[test]
    fn bootstrap_records_config_in_yokan() {
        let svc = BedrockConfig::wms_default().bootstrap().unwrap();
        let raw = svc.yokan().get("bedrock/config").unwrap();
        let cfg: BedrockConfig = serde_json::from_slice(&raw).unwrap();
        assert_eq!(cfg, BedrockConfig::wms_default());
    }
}
