//! A small bounded memo with exact keys, most recent entry first.
//!
//! The machine's measurement memo, physical memory's range digests and the
//! remote verifier each keep a handful of entries, so a linear scan is the
//! whole lookup. Keys are compared for equality, never through a digest of
//! them, so a hit cannot be a collision.

use std::borrow::Borrow;

/// At most `CAP` `(key, value)` pairs, most recently used first.
#[derive(Debug, Clone)]
pub struct Memo<K, V, const CAP: usize> {
    entries: Vec<(K, V)>,
}

impl<K, V, const CAP: usize> Default for Memo<K, V, CAP> {
    fn default() -> Self {
        Memo {
            entries: Vec::new(),
        }
    }
}

impl<K, V, const CAP: usize> Memo<K, V, CAP> {
    /// The value kept for `key`, which becomes the most recent entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let pos = self.entries.iter().position(|(k, _)| k.borrow() == key)?;
        self.entries[..=pos].rotate_right(1);
        Some(&self.entries[0].1)
    }

    /// Keeps `value` for `key` as the most recent entry and evicts the
    /// least recent one past `CAP`. Call it after [`Memo::get`] missed.
    pub fn insert(&mut self, key: K, value: V) {
        self.entries.insert(0, (key, value));
        self.entries.truncate(CAP);
    }

    /// The value kept for `key`, or `make()` kept for it; and whether the
    /// memo already held it.
    pub fn get_or_insert_with<Q>(&mut self, key: &Q, make: impl FnOnce() -> V) -> (V, bool)
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
        V: Clone,
    {
        if let Some(v) = self.get(key) {
            return (v.clone(), true);
        }
        let v = make();
        self.insert(key.to_owned(), v.clone());
        (v, false)
    }

    /// Drops every entry whose key fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.entries.retain(|(k, _)| keep(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_and_most_recent_first() {
        let mut m = Memo::<Vec<u8>, u8, 4>::default();
        for i in 0..4 {
            assert_eq!(m.get_or_insert_with(&[i][..], || i), (i, false));
        }
        assert_eq!(m.get(&[0][..]), Some(&0), "a hit refreshes");
        m.insert(vec![4], 4);
        assert_eq!(m.get(&[0][..]), Some(&0), "refreshed entry survives");
        assert_eq!(m.get(&[1][..]), None, "least recent entry evicted");
        assert_eq!(m.get_or_insert_with(&[4][..], || 9), (4, true));
    }

    #[test]
    fn keys_match_exactly_and_retain_drops() {
        let mut m = Memo::<Vec<u8>, u8, 2>::default();
        m.insert(vec![1, 2], 12);
        assert_eq!(m.get(&[1][..]), None, "a prefix is another key");
        assert_eq!(m.get(&[1, 2, 0][..]), None, "so is an extension");
        m.insert(vec![3], 3);
        m.retain(|k| k.len() == 1);
        assert_eq!(m.get(&[1, 2][..]), None);
        assert_eq!(m.get(&[3][..]), Some(&3));
    }
}
