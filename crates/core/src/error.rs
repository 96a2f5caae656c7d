//! Error type for the DECA model.

use deca_compress::CompressError;

/// Errors raised by the DECA accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub enum DecaError {
    /// The PE was asked to process a tile whose format it is not currently
    /// configured for (LUT array mismatch).
    NotConfiguredFor {
        /// The format found in the tile.
        found: String,
    },
    /// The compressed tile itself is inconsistent.
    Compress(CompressError),
}

impl std::fmt::Display for DecaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecaError::NotConfiguredFor { found } => {
                write!(f, "DECA PE is not configured for format {found}")
            }
            DecaError::Compress(e) => write!(f, "compressed tile error: {e}"),
        }
    }
}

impl std::error::Error for DecaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecaError::Compress(e) => Some(e),
            DecaError::NotConfiguredFor { .. } => None,
        }
    }
}

impl From<CompressError> for DecaError {
    fn from(e: CompressError) -> Self {
        DecaError::Compress(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = DecaError::NotConfiguredFor {
            found: "Q4".to_string(),
        };
        assert!(e.to_string().contains("Q4"));
        let e: DecaError = CompressError::InvalidDensity(2.0).into();
        assert!(matches!(e, DecaError::Compress(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<DecaError>();
    }
}
