// Suppression cases, compiled as the root of a sim-deterministic crate:
//  - an expectation with a reason          -> suppressed, no error
//  - an expectation with no reason         -> allow_attributes_without_reason
//  - an unknown lint in an expectation     -> unknown_lints
//  - a bare allow, even with a reason      -> allow_attributes
#[expect(clippy::disallowed_types, reason = "fixture: justified map")]
pub type Covered = std::collections::HashMap<u64, u64>;

#[expect(clippy::disallowed_types)]
pub type NoReason = std::collections::HashMap<u64, u64>;

#[expect(clippy::not_a_lint, reason = "whatever")]
pub type BadLint = u64;

#[allow(clippy::disallowed_types, reason = "allows are not expectations")]
pub type Allowed = std::collections::HashMap<u64, u64>;
