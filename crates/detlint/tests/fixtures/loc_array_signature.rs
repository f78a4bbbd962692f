//! A file whose test-only items hold `;` inside brackets.

#[cfg(test)]
fn oracle(state: &mut [u32; 5], block: &[u8; 64]) -> u32 {
    let mut acc = state[0];
    for b in block {
        acc = acc.wrapping_add(u32::from(*b));
    }
    acc
}

/// Counted: product code between the test-only items.
pub fn product(x: u64) -> u64 {
    x + 1
}

#[cfg(test)]
const GOLDEN: [u8; 4] = [1, 2, 3, 4];
