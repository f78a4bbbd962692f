//! Interned document names (shared by the timestamping and log layers).
//!
//! A document name crosses every layer of a request round-trip: the user
//! peer keys its replica table with it, the `Validate` message carries it,
//! the master stores it per key, every log record embeds it, and each event
//! records it. As plain `String`s that was ~15 heap copies per round-trip.
//! [`DocName`] wraps an `Arc<str>`: clones are a reference-count bump, and
//! equality/ordering/hashing delegate to the string content, so it drops
//! into `BTreeMap`/`HashMap` keys unchanged (including `&str` lookups via
//! `Borrow`).

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An interned, cheap-to-clone document name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocName(Arc<str>);

impl DocName {
    /// Intern a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        DocName(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for DocName {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

/// Enables `&str` lookups in maps keyed by `DocName` (consistent with the
/// derived `Eq`/`Ord`/`Hash`, which all delegate to the string content).
impl Borrow<str> for DocName {
    #[inline]
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for DocName {
    fn from(s: &str) -> Self {
        DocName::new(s)
    }
}

impl From<String> for DocName {
    fn from(s: String) -> Self {
        DocName(Arc::from(s))
    }
}

impl From<&DocName> for DocName {
    fn from(s: &DocName) -> Self {
        s.clone()
    }
}

impl PartialEq<str> for DocName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for DocName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Display for DocName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for DocName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};

    #[test]
    fn clones_share_the_allocation() {
        let a = DocName::new("wiki/Main");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_by_content() {
        assert_eq!(DocName::new("x"), DocName::from("x".to_string()));
        assert_eq!(DocName::new("x"), "x");
        assert_ne!(DocName::new("x"), "y");
    }

    #[test]
    fn str_lookup_in_maps() {
        let mut bt: BTreeMap<DocName, u32> = BTreeMap::new();
        bt.insert(DocName::new("a"), 1);
        assert_eq!(bt.get("a"), Some(&1));
        assert!(bt.contains_key("a"));
        // A hashed map finds a `DocName` by `&str` when both hash alike.
        let fixed = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(fixed.hash_one(DocName::new("b")), fixed.hash_one("b"));
    }

    #[test]
    fn ordering_matches_str() {
        let mut v = [DocName::new("zeta"), DocName::new("alpha")];
        v.sort();
        assert_eq!(v[0].as_str(), "alpha");
    }

    #[test]
    fn display_and_debug() {
        let d = DocName::new("wiki/Main");
        assert_eq!(format!("{d}"), "wiki/Main");
        assert_eq!(format!("{d:?}"), "\"wiki/Main\"");
    }
}
