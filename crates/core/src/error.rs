//! Error types for the GreenFPGA model and its public API surface.
//!
//! Two layers live here:
//!
//! * [`GreenFpgaError`] — the model-level error raised while constructing
//!   inputs or evaluating estimates. Rich, `source()`-chained, and shaped
//!   for library callers.
//! * [`ApiError`] — the stable machine-readable taxonomy every frontend
//!   speaks: a [`ApiErrorCode`] (a small closed set with canonical HTTP
//!   status and CLI exit-code mappings), a human-readable message, and a
//!   `retryable` flag. The HTTP server encodes it as the JSON error body,
//!   the CLI maps it to its process exit code, and the library returns it
//!   from [`crate::Engine::run`].

use std::error::Error;
use std::fmt;

use gf_act::ActError;
use gf_lifecycle::LifecycleError;
use gf_units::UnitError;

/// Errors raised while constructing model inputs or evaluating estimates.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GreenFpgaError {
    /// A workload was constructed with no applications.
    EmptyWorkload,
    /// An application parameter was invalid (negative lifetime, zero volume
    /// where one is required, …).
    InvalidApplication {
        /// Which field was invalid.
        field: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A sweep or crossover search was configured with an empty or inverted
    /// range.
    InvalidRange {
        /// Which range was invalid.
        what: &'static str,
    },
    /// An inverse query has no feasible answer: no point in the searched
    /// box satisfies the carbon budget or constraints.
    Infeasible {
        /// What makes the problem infeasible.
        reason: String,
    },
    /// A result overflowed `f64`: the inputs are outside the range the
    /// model can represent.
    NonFinite {
        /// The quantity that is not finite, e.g. `the FPGA operation
        /// footprint`.
        what: String,
    },
    /// Error bubbled up from the manufacturing substrate.
    Act(ActError),
    /// Error bubbled up from the lifecycle models.
    Lifecycle(LifecycleError),
    /// Error bubbled up from unit construction.
    Unit(UnitError),
}

impl fmt::Display for GreenFpgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GreenFpgaError::EmptyWorkload => {
                write!(f, "workload must contain at least one application")
            }
            GreenFpgaError::InvalidApplication { field, reason } => {
                write!(f, "invalid application {field}: {reason}")
            }
            GreenFpgaError::InvalidRange { what } => {
                write!(f, "invalid range for {what}")
            }
            GreenFpgaError::Infeasible { reason } => {
                write!(f, "infeasible: {reason}")
            }
            GreenFpgaError::NonFinite { what } => write!(
                f,
                "{what} is not a finite number (the inputs overflow the model's range)"
            ),
            GreenFpgaError::Act(e) => write!(f, "manufacturing model error: {e}"),
            GreenFpgaError::Lifecycle(e) => write!(f, "lifecycle model error: {e}"),
            GreenFpgaError::Unit(e) => write!(f, "unit error: {e}"),
        }
    }
}

impl Error for GreenFpgaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GreenFpgaError::Act(e) => Some(e),
            GreenFpgaError::Lifecycle(e) => Some(e),
            GreenFpgaError::Unit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ActError> for GreenFpgaError {
    fn from(e: ActError) -> Self {
        GreenFpgaError::Act(e)
    }
}

impl From<LifecycleError> for GreenFpgaError {
    fn from(e: LifecycleError) -> Self {
        GreenFpgaError::Lifecycle(e)
    }
}

impl From<UnitError> for GreenFpgaError {
    fn from(e: UnitError) -> Self {
        GreenFpgaError::Unit(e)
    }
}

/// The closed set of machine-readable API error codes.
///
/// Every code carries a canonical HTTP status (what `greenfpga-serve`
/// answers) and a canonical process exit code (what the `greenfpga` CLI
/// exits with), so the three frontends agree on failure semantics by
/// construction. The set is deliberately small and stable: clients switch
/// on the code, not the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ApiErrorCode {
    /// The request was malformed: invalid JSON, a schema violation, an
    /// unknown query kind, or invalid CLI usage.
    BadRequest,
    /// No such route / query kind.
    NotFound,
    /// The route exists but not for this HTTP method.
    MethodNotAllowed,
    /// The request was well-formed but the model rejected it (degenerate
    /// ranges, empty workloads, out-of-domain parameters).
    Model,
    /// The server is at capacity; back off and retry.
    Overloaded,
    /// HTTP-level protocol violation (framing, size limits, smuggling).
    Protocol,
    /// An unexpected failure inside the engine or its serializers.
    Internal,
}

impl ApiErrorCode {
    /// Every code, in documentation order.
    pub const ALL: [ApiErrorCode; 7] = [
        ApiErrorCode::BadRequest,
        ApiErrorCode::NotFound,
        ApiErrorCode::MethodNotAllowed,
        ApiErrorCode::Model,
        ApiErrorCode::Overloaded,
        ApiErrorCode::Protocol,
        ApiErrorCode::Internal,
    ];

    /// The stable wire identifier (the `error.code` member of HTTP error
    /// bodies).
    pub fn id(self) -> &'static str {
        match self {
            ApiErrorCode::BadRequest => "bad_request",
            ApiErrorCode::NotFound => "not_found",
            ApiErrorCode::MethodNotAllowed => "method_not_allowed",
            ApiErrorCode::Model => "model",
            ApiErrorCode::Overloaded => "overloaded",
            ApiErrorCode::Protocol => "protocol",
            ApiErrorCode::Internal => "internal",
        }
    }

    /// The canonical HTTP status `greenfpga-serve` answers with.
    ///
    /// Transport-level [`ApiErrorCode::Protocol`] rejections may carry a
    /// more specific status on the wire (`413`, `431`, `505`, ...); this is
    /// the canonical fallback.
    pub fn http_status(self) -> u16 {
        match self {
            ApiErrorCode::BadRequest | ApiErrorCode::Protocol => 400,
            ApiErrorCode::NotFound => 404,
            ApiErrorCode::MethodNotAllowed => 405,
            ApiErrorCode::Model => 422,
            ApiErrorCode::Overloaded => 503,
            ApiErrorCode::Internal => 500,
        }
    }

    /// The canonical process exit code the `greenfpga` CLI maps this code
    /// to (`0` is success; `1` is reserved for panics).
    pub fn exit_code(self) -> u8 {
        match self {
            ApiErrorCode::BadRequest
            | ApiErrorCode::NotFound
            | ApiErrorCode::MethodNotAllowed
            | ApiErrorCode::Protocol => 2,
            ApiErrorCode::Model => 3,
            ApiErrorCode::Overloaded => 4,
            ApiErrorCode::Internal => 5,
        }
    }

    /// Whether retrying the identical request can ever succeed.
    pub fn default_retryable(self) -> bool {
        matches!(self, ApiErrorCode::Overloaded)
    }
}

impl fmt::Display for ApiErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// The stable machine-readable error of the unified API surface: a code
/// from the closed [`ApiErrorCode`] taxonomy, a human-readable message, and
/// whether retrying the identical request can succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The machine-readable code.
    pub code: ApiErrorCode,
    /// Human-readable description; never required for dispatch.
    pub message: String,
    /// `true` when retrying the identical request can succeed.
    pub retryable: bool,
}

impl ApiError {
    /// Builds an error with the code's default retryability.
    pub fn new(code: ApiErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
            retryable: code.default_retryable(),
        }
    }

    /// A [`ApiErrorCode::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::BadRequest, message)
    }

    /// A [`ApiErrorCode::NotFound`] error.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::NotFound, message)
    }

    /// A [`ApiErrorCode::MethodNotAllowed`] error.
    pub fn method_not_allowed(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::MethodNotAllowed, message)
    }

    /// A [`ApiErrorCode::Model`] error.
    pub fn model(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::Model, message)
    }

    /// A [`ApiErrorCode::Overloaded`] error.
    pub fn overloaded(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::Overloaded, message)
    }

    /// A [`ApiErrorCode::Protocol`] error.
    pub fn protocol(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::Protocol, message)
    }

    /// An [`ApiErrorCode::Internal`] error.
    pub fn internal(message: impl Into<String>) -> Self {
        ApiError::new(ApiErrorCode::Internal, message)
    }

    /// The canonical HTTP status for this error.
    pub fn http_status(&self) -> u16 {
        self.code.http_status()
    }

    /// The canonical CLI exit code for this error.
    pub fn exit_code(&self) -> u8 {
        self.code.exit_code()
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl Error for ApiError {}

impl From<GreenFpgaError> for ApiError {
    /// Model-level errors — including results that overflow `f64`
    /// ([`GreenFpgaError::NonFinite`]) — map to [`ApiErrorCode::Model`].
    fn from(e: GreenFpgaError) -> ApiError {
        ApiError::model(e.to_string())
    }
}

impl From<gf_json::JsonError> for ApiError {
    fn from(e: gf_json::JsonError) -> ApiError {
        ApiError::bad_request(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(GreenFpgaError::EmptyWorkload
            .to_string()
            .contains("at least one"));
        assert!(GreenFpgaError::InvalidRange {
            what: "volume sweep"
        }
        .to_string()
        .contains("volume sweep"));
        let e: GreenFpgaError = ActError::NonPositiveArea(0.0).into();
        assert!(e.to_string().contains("manufacturing"));
        assert!(e.source().is_some());
        let e: GreenFpgaError = UnitError::FractionOutOfRange(2.0).into();
        assert!(e.source().is_some());
        let e: GreenFpgaError = LifecycleError::ZeroCount {
            quantity: "project engineers",
        }
        .into();
        assert!(e.source().is_some());
        assert!(GreenFpgaError::EmptyWorkload.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GreenFpgaError>();
        assert_send_sync::<ApiError>();
    }

    #[test]
    fn api_error_codes_have_stable_unique_ids_and_mappings() {
        let mut seen = std::collections::HashSet::new();
        for code in ApiErrorCode::ALL {
            assert!(seen.insert(code.id()), "duplicate id {}", code.id());
            assert!((400..=599).contains(&code.http_status()), "{code}");
            assert!((2..=5).contains(&code.exit_code()), "{code}");
        }
        // The canonical table the README documents.
        assert_eq!(ApiErrorCode::BadRequest.http_status(), 400);
        assert_eq!(ApiErrorCode::NotFound.http_status(), 404);
        assert_eq!(ApiErrorCode::MethodNotAllowed.http_status(), 405);
        assert_eq!(ApiErrorCode::Model.http_status(), 422);
        assert_eq!(ApiErrorCode::Overloaded.http_status(), 503);
        assert_eq!(ApiErrorCode::Internal.http_status(), 500);
        assert_eq!(ApiErrorCode::Model.exit_code(), 3);
        assert_eq!(ApiErrorCode::Overloaded.exit_code(), 4);
        assert_eq!(ApiErrorCode::Internal.exit_code(), 5);
    }

    #[test]
    fn api_error_retryability_and_model_conversion() {
        assert!(ApiError::overloaded("busy").retryable);
        assert!(!ApiError::bad_request("nope").retryable);
        let model: ApiError = GreenFpgaError::EmptyWorkload.into();
        assert_eq!(model.code, ApiErrorCode::Model);
        assert_eq!(model.http_status(), 422);
        let overflow: ApiError = GreenFpgaError::NonFinite {
            what: "the FPGA operation footprint".to_string(),
        }
        .into();
        assert_eq!(overflow.code, ApiErrorCode::Model);
        let bad: ApiError = gf_json::JsonError::schema("domain", "missing").into();
        assert_eq!(bad.code, ApiErrorCode::BadRequest);
        assert!(bad.to_string().contains("bad_request"));
    }
}
