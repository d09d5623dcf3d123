//! Framework-wide error type.

use std::fmt;

/// Errors surfaced by the dtf framework.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtfError {
    /// A task graph is malformed (cycle, dangling dependency, duplicate key).
    InvalidGraph(String),
    /// An identifier was not found where it was required.
    NotFound(String),
    /// An operation was attempted in an illegal state (e.g. illegal task
    /// state transition, producing to a closed topic).
    IllegalState(String),
    /// I/O layer error (simulated PFS or log serialization): the failure's
    /// `io::ErrorKind` — `InvalidData` for bytes that fail to decode — so
    /// a caller can tell a full disk from a failing one, beside its message.
    Io(std::io::ErrorKind, String),
    /// A configuration value is out of range or inconsistent.
    Config(String),
    /// Serialization / deserialization failure.
    Serde(String),
}

impl fmt::Display for DtfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtfError::InvalidGraph(m) => write!(f, "invalid task graph: {m}"),
            DtfError::NotFound(m) => write!(f, "not found: {m}"),
            DtfError::IllegalState(m) => write!(f, "illegal state: {m}"),
            DtfError::Io(_, m) => write!(f, "i/o error: {m}"),
            DtfError::Config(m) => write!(f, "configuration error: {m}"),
            DtfError::Serde(m) => write!(f, "serialization error: {m}"),
        }
    }
}

impl std::error::Error for DtfError {}

impl From<serde_json::Error> for DtfError {
    fn from(e: serde_json::Error) -> Self {
        DtfError::Serde(e.to_string())
    }
}

impl From<std::io::Error> for DtfError {
    fn from(e: std::io::Error) -> Self {
        DtfError::Io(e.kind(), e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, DtfError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed() {
        assert!(DtfError::InvalidGraph("cycle".into()).to_string().contains("invalid task graph"));
        assert!(DtfError::NotFound("x".into()).to_string().contains("not found"));
    }

    #[test]
    fn serde_error_converts() {
        let bad = serde_json::from_str("not json");
        let err: DtfError = bad.unwrap_err().into();
        assert!(matches!(err, DtfError::Serde(_)));
    }
}
