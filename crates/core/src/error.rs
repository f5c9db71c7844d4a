//! Error type for the conversion pipeline.

use std::error::Error;
use std::fmt;
use tcl_nn::NnError;
use tcl_tensor::TensorError;

/// Error raised by ANN-to-SNN conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvertError {
    /// An underlying tensor kernel failed.
    Tensor(TensorError),
    /// The ANN framework reported a graph/training failure.
    Nn(NnError),
    /// The network contains a construct with no spiking equivalent (e.g.
    /// max pooling — Section 3.1 of the paper).
    Unsupported {
        /// Description of the offending construct.
        detail: String,
    },
    /// The [`crate::NormStrategy::TrainedClip`] strategy was requested but a
    /// ReLU site has no trainable clipping layer.
    MissingClip {
        /// Which site lacks a clip.
        detail: String,
    },
    /// Calibration data is missing, empty, or inconsistent with the network.
    Calibration {
        /// Description of the problem.
        detail: String,
    },
    /// A model file could not be read, written or accepted.
    Model {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::Tensor(e) => write!(f, "tensor error: {e}"),
            ConvertError::Nn(e) => write!(f, "network error: {e}"),
            ConvertError::Unsupported { detail } => {
                write!(f, "unsupported construct for conversion: {detail}")
            }
            ConvertError::MissingClip { detail } => {
                write!(f, "trained-clip strategy needs a clipping layer: {detail}")
            }
            ConvertError::Calibration { detail } => write!(f, "calibration error: {detail}"),
            ConvertError::Model { detail } => write!(f, "model file: {detail}"),
        }
    }
}

impl Error for ConvertError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConvertError::Tensor(e) => Some(e),
            ConvertError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ConvertError {
    fn from(e: TensorError) -> Self {
        ConvertError::Tensor(e)
    }
}

impl From<NnError> for ConvertError {
    fn from(e: NnError) -> Self {
        ConvertError::Nn(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ConvertError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_from_substrate_errors() {
        let te = TensorError::RankMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(matches!(ConvertError::from(te), ConvertError::Tensor(_)));
        let ne = NnError::Graph { detail: "x".into() };
        assert!(matches!(ConvertError::from(ne), ConvertError::Nn(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = ConvertError::Unsupported {
            detail: "max pooling".into(),
        };
        assert!(e.to_string().contains("max pooling"));
    }

    #[test]
    fn source_chains() {
        let e = ConvertError::Tensor(TensorError::InvalidArgument { detail: "d".into() });
        assert!(e.source().is_some());
        let e = ConvertError::Calibration { detail: "d".into() };
        assert!(e.source().is_none());
    }
}
