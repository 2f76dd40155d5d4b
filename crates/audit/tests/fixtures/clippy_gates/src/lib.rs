//! Seeded violations for the clippy gates that enforce determinism,
//! wall-clock independence, lossless counter casts and no unwrap/expect
//! in library code.
//!
//! Every line ending in a `// seed: <code>` marker must be reported by
//! `cargo clippy --all-targets` under exactly that lint code, and no
//! other line may be; `// seed: none` marks a line that must stay quiet.
//! CI checks both directions from clippy's JSON output.

#![forbid(unsafe_code)]

pub fn unwrap_seed(x: Option<u8>) -> u8 {
    x.unwrap() // seed: clippy::unwrap_used
}

pub fn expect_seed(x: Option<u8>) -> u8 {
    x.expect("seeded") // seed: clippy::expect_used
}

pub type HashMapSeed = std::collections::HashMap<u8, u8>; // seed: clippy::disallowed_types

pub type HashSetSeed = std::collections::HashSet<u8>; // seed: clippy::disallowed_types

pub fn instant_seed() -> bool {
    std::time::Instant::now().elapsed().is_zero() // seed: clippy::disallowed_types
}

pub fn system_time_seed() -> bool {
    std::time::SystemTime::now() > std::time::SystemTime::UNIX_EPOCH // seed: clippy::disallowed_types
}

pub fn truncation_seed(x: u64) -> u32 {
    x as u32 // seed: clippy::cast_possible_truncation
}

pub fn wrap_seed(x: u32) -> i32 {
    x as i32 // seed: clippy::cast_possible_wrap
}

pub fn sign_loss_seed(x: i32) -> u32 {
    x as u32 // seed: clippy::cast_sign_loss
}

#[expect(clippy::unwrap_used, reason = "stale on purpose: nothing here unwraps")] // seed: unfulfilled_lint_expectations
pub fn stale_expect_seed(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_allowed() {
        let parsed: Option<u8> = "1".parse().ok();
        assert_eq!(parsed.unwrap(), 1); // seed: none
    }
}
