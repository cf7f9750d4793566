//! Deterministic map/set facade.
//!
//! The determinism contract (DESIGN.md §8, enforced by `simlint`) bans
//! `std::collections::HashMap`/`HashSet` from the simulation crates:
//! their iteration order depends on `RandomState`, which is seeded from
//! OS entropy per instance, so any code path that iterates — eviction
//! scans, draining, debug dumps — silently becomes a function of
//! something other than (config, seed). [`DetMap`] and [`DetSet`] are
//! drop-in replacements backed by `BTreeMap`/`BTreeSet`: same surface
//! API for the operations the testbed uses, but iteration is always in
//! key order.
//!
//! The `Ord` bound this imposes on keys is a feature, not a cost: it
//! forces every key type used in the simulation to declare a total
//! order, which is exactly the property the `unstable-sort` lint rule
//! asks callers to assert by hand.
//!
//! Performance note: the testbed's maps are small (file tables, handle
//! tables, connection maps, a trial cache keyed by spec strings), so
//! the O(log n) vs. amortized O(1) difference is noise here. A set that
//! changes on nearly every event is another matter: the grid run loop's
//! idle-host set was a `DetSet<u32>` whose B-tree inserts and removes
//! took about a fifth of a 40k-host month, and it is now a bitset over
//! host ids (`grid::sim::IdleSet`), which iterates in the same
//! ascending order. Keep per-event sets of dense integer ids out of
//! these types.

use std::borrow::Borrow;
use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};
use std::ops::Index;

/// A deterministic, key-ordered map with a `HashMap`-shaped API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetMap<K: Ord, V> {
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> DetMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        DetMap {
            inner: BTreeMap::new(),
        }
    }

    /// Insert a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Look up a value by key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.get(key)
    }

    /// Look up a value mutably by key.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.get_mut(key)
    }

    /// Remove a key, returning its value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.remove(key)
    }

    /// Whether the key is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.inner.iter()
    }

    /// Iterate entries mutably in key order.
    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, K, V> {
        self.inner.iter_mut()
    }

    /// Iterate keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.inner.keys()
    }

    /// Iterate values in key order.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.inner.values()
    }

    /// Iterate values mutably in key order.
    pub fn values_mut(&mut self) -> btree_map::ValuesMut<'_, K, V> {
        self.inner.values_mut()
    }

    /// Keep only entries for which the predicate holds.
    pub fn retain<F: FnMut(&K, &mut V) -> bool>(&mut self, f: F) {
        self.inner.retain(f)
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.inner.clear()
    }

    /// The value for `key`, inserting `default()` first if absent.
    pub fn or_insert_with<F: FnOnce() -> V>(&mut self, key: K, default: F) -> &mut V {
        self.inner.entry(key).or_insert_with(default)
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap::new()
    }
}

impl<K, Q, V> Index<&Q> for DetMap<K, V>
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    type Output = V;

    fn index(&self, key: &Q) -> &V {
        self.inner.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetMap {
            inner: BTreeMap::from_iter(iter),
        }
    }
}

impl<K: Ord, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        self.inner.extend(iter)
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = btree_map::IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a mut DetMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = btree_map::IterMut<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter_mut()
    }
}

/// A deterministic, value-ordered set with a `HashSet`-shaped API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetSet<T: Ord> {
    inner: BTreeSet<T>,
}

impl<T: Ord> DetSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        DetSet {
            inner: BTreeSet::new(),
        }
    }

    /// Insert a value; returns whether it was newly inserted.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value)
    }

    /// Remove a value; returns whether it was present.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.remove(value)
    }

    /// Whether the value is present.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.inner.contains(value)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate elements in order.
    pub fn iter(&self) -> btree_set::Iter<'_, T> {
        self.inner.iter()
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.inner.clear()
    }
}

impl<T: Ord> Default for DetSet<T> {
    fn default() -> Self {
        DetSet::new()
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        DetSet {
            inner: BTreeSet::from_iter(iter),
        }
    }
}

impl<T: Ord> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.inner.extend(iter)
    }
}

impl<T: Ord> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = btree_set::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = btree_set::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_ops() {
        let mut m: DetMap<String, u32> = DetMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("b".into(), 2), None);
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 10), Some(1));
        assert_eq!(m.len(), 2);
        assert!(m.contains_key("a"));
        assert_eq!(m.get("b"), Some(&2));
        *m.get_mut("b").unwrap() += 1;
        assert_eq!(m["b"], 3);
        assert_eq!(m.remove("a"), Some(10));
        assert!(!m.contains_key("a"));
    }

    #[test]
    fn map_iterates_in_key_order() {
        let mut m = DetMap::new();
        for k in [5u32, 1, 4, 2, 3] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn map_retain_and_or_insert_with() {
        let mut m: DetMap<u32, u32> = (0..10).map(|k| (k, k)).collect();
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.len(), 5);
        let v = m.or_insert_with(100, || 7);
        assert_eq!(*v, 7);
        assert_eq!(m.or_insert_with(100, || 9), &7);
    }

    #[test]
    fn set_basic_ops_and_order() {
        let mut s: DetSet<[u8; 2]> = DetSet::new();
        assert!(s.insert([2, 0]));
        assert!(s.insert([1, 1]));
        assert!(!s.insert([2, 0]));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[1, 1]));
        let items: Vec<[u8; 2]> = s.iter().copied().collect();
        assert_eq!(items, vec![[1, 1], [2, 0]]);
        assert!(s.remove(&[1, 1]));
        assert_eq!(s.len(), 1);
    }
}
