//! Error type for the compression pipeline.

use deca_numerics::FormatError;

/// Errors produced while compressing or decompressing weights.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The requested density is not in `(0, 1]`.
    InvalidDensity(f64),
    /// Matrix dimensions are not positive or not tileable as required.
    InvalidShape {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
        /// Explanation of the constraint that was violated.
        reason: &'static str,
    },
    /// A compressed tile is internally inconsistent (e.g. bitmask popcount
    /// does not match the number of stored nonzeros).
    CorruptTile {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// A weight handed to the compressor is NaN or infinite.
    NonFiniteWeight {
        /// Row-major position of the first such weight within its tile.
        position: usize,
    },
    /// An underlying numeric-format error.
    Format(FormatError),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::InvalidDensity(d) => {
                write!(f, "density {d} is outside the valid range (0, 1]")
            }
            CompressError::InvalidShape { rows, cols, reason } => {
                write!(f, "invalid matrix shape {rows}x{cols}: {reason}")
            }
            CompressError::CorruptTile { reason } => write!(f, "corrupt compressed tile: {reason}"),
            CompressError::NonFiniteWeight { position } => {
                write!(f, "non-finite weight at tile position {position}")
            }
            CompressError::Format(e) => write!(f, "numeric format error: {e}"),
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::Format(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for CompressError {
    fn from(e: FormatError) -> Self {
        CompressError::Format(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CompressError::InvalidDensity(1.5)
            .to_string()
            .contains("1.5"));
        let e = CompressError::InvalidShape {
            rows: 3,
            cols: 5,
            reason: "rows must be a multiple of 16",
        };
        assert!(e.to_string().contains("3x5"));
        assert!(CompressError::CorruptTile {
            reason: "popcount mismatch".into()
        }
        .to_string()
        .contains("popcount"));
        assert!(CompressError::NonFiniteWeight { position: 37 }
            .to_string()
            .contains("37"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>() {}
        check::<CompressError>();
    }

    #[test]
    fn format_error_converts() {
        let fe = FormatError::InvalidGroupSize(0);
        let ce: CompressError = fe.into();
        assert!(matches!(ce, CompressError::Format(_)));
    }
}
