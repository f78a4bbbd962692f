//! A file whose test-only op counter sits above its product code.

#[cfg(test)]
thread_local! {
    static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counted: product code after the counter.
pub fn product(x: u64) -> u64 {
    #[cfg(test)]
    CALLS.with(|c| c.set(c.get() + 1));

    // A comment line counts too.
    x + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(product(1), 2);
    }
}
