//! Error types for graph construction and IO.

use crate::ioutil::FormatError;
use std::fmt;
use std::io;

/// Errors produced while building, querying, or (de)serializing temporal
/// graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node id that exceeds the configured capacity.
    NodeOutOfRange {
        /// Offending node id.
        node: u32,
        /// Declared number of nodes.
        num_nodes: usize,
    },
    /// A self-loop was supplied but self-loops are disallowed.
    SelfLoop {
        /// The node that pointed at itself.
        node: u32,
    },
    /// A non-finite or negative edge weight was supplied.
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// The graph has no edges, which downstream algorithms cannot handle.
    Empty,
    /// A parse error while reading an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of what failed to parse.
        msg: String,
    },
    /// A binary snapshot (EHNA, EHNQ) that does not parse.
    Format(FormatError),
    /// An underlying IO failure.
    Io(io::Error),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node id {node} out of range for graph with {num_nodes} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node} is not allowed"),
            GraphError::InvalidWeight { weight } => {
                write!(f, "edge weight {weight} must be finite and positive")
            }
            GraphError::Empty => write!(f, "temporal graph has no edges"),
            GraphError::Parse { line, msg } => {
                write!(f, "edge list parse error at line {line}: {msg}")
            }
            GraphError::Format(e) => write!(f, "binary format error: {e}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            GraphError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

impl From<FormatError> for GraphError {
    fn from(e: FormatError) -> Self {
        GraphError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::NodeOutOfRange { node: 9, num_nodes: 5 };
        assert!(e.to_string().contains("out of range"));
        let e = GraphError::SelfLoop { node: 3 };
        assert!(e.to_string().contains("self-loop"));
        let e = GraphError::InvalidWeight { weight: f64::NAN };
        assert!(e.to_string().contains("finite"));
        let e = GraphError::Parse { line: 7, msg: "bad".into() };
        assert!(e.to_string().contains("line 7"));
        assert!(GraphError::Empty.to_string().contains("no edges"));
    }

    #[test]
    fn io_error_source_preserved() {
        let inner = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(inner);
        assert!(std::error::Error::source(&e).is_some());
    }
}
