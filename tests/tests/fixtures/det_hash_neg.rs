// DET-HASH negative: BTreeMap everywhere, plus HashMap mentions that only
// occur where the compiler does not look.
use std::collections::BTreeMap;

/// Docs may say HashMap as much as they like: HashMap, HashMap::new().
pub struct State {
    pub pending: BTreeMap<u64, String>, // HashMap in a trailing comment
}

pub fn describe() -> &'static str {
    "this returns the literal text HashMap::new() inside a string"
}

pub fn raw() -> &'static str {
    r#"raw strings hide HashSet<u64> too"#
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_only_hashmap_is_fine() {
        let mut m: HashMap<u32, u32> = HashMap::new();
        m.insert(1, 2);
        assert_eq!(m[&1], 2);
    }
}
