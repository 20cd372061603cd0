//! Typed configuration errors shared across the experiment drivers.
//!
//! Every configuration type of the workspace — [`crate::config::LiveUpdateConfig`],
//! [`crate::experiment::ExperimentConfig`], the runtime's `RuntimeConfig`, and the
//! scenario layer's `Scenario` — reports invalid parameters through this one enum instead
//! of ad-hoc `String`s or bare `bool`s, so callers can match on the *kind* of violation
//! and error text stays uniform.

use std::error::Error;
use std::fmt;

/// A violated configuration constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A numeric field that must be strictly positive was zero or negative.
    NonPositive {
        /// The offending field, as `section.field`.
        field: &'static str,
    },
    /// A field violated a range or relational requirement.
    Constraint {
        /// The offending field, as `section.field`.
        field: &'static str,
        /// The requirement that failed, human-readable.
        requirement: &'static str,
    },
    /// Two fields that must agree do not.
    Mismatch {
        /// First field of the disagreeing pair.
        left: &'static str,
        /// Second field of the disagreeing pair.
        right: &'static str,
        /// What agreement was expected.
        requirement: &'static str,
    },
}

impl ConfigError {
    /// The primary field the error is about.
    #[must_use]
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::NonPositive { field } | ConfigError::Constraint { field, .. } => field,
            ConfigError::Mismatch { left, .. } => left,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field } => {
                write!(f, "{field} must be positive")
            }
            ConfigError::Constraint { field, requirement } => {
                write!(f, "{field}: {requirement}")
            }
            ConfigError::Mismatch {
                left,
                right,
                requirement,
            } => {
                write!(f, "{left} and {right} disagree: {requirement}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = ConfigError::NonPositive {
            field: "experiment.duration_minutes",
        };
        assert_eq!(
            e.to_string(),
            "experiment.duration_minutes must be positive"
        );
        assert_eq!(e.field(), "experiment.duration_minutes");

        let e = ConfigError::Constraint {
            field: "liveupdate.variance_threshold",
            requirement: "must be in (0, 1]",
        };
        assert!(e.to_string().contains("variance_threshold"));
        assert!(e.to_string().contains("(0, 1]"));

        let e = ConfigError::Mismatch {
            left: "workload.num_tables",
            right: "dlrm.table_sizes",
            requirement: "one workload table per embedding table",
        };
        assert_eq!(e.field(), "workload.num_tables");
        assert!(e.to_string().contains("disagree"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error<E: Error>(_e: E) {}
        takes_error(ConfigError::NonPositive { field: "x" });
    }
}
