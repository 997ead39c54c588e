//! Ordered runs: a sorted map kept as a vector of `Arc`-shared chunks of
//! bounded size — how a [`crate::table::Table`] holds its rows and each of
//! its secondary indexes.
//!
//! Cloning the map copies one pointer per chunk, so a table version a
//! snapshot pins shares every chunk with the head. A write copies only the
//! chunk it lands in, and only while something else still holds that
//! chunk; every entry so copied counts as `relational.cow_rows`. Dropping
//! the last holder of an old version frees the chunks that were copied
//! away from it and nothing else.
//!
//! Each chunk is a key-ordered `Vec` holding between `CHUNK / 2` and
//! `2 * CHUNK` entries (a lone chunk may hold fewer). A chunk is cut,
//! copied, split and merged at exact capacity; one written in place grows
//! `SPARE` entries at a time and is trimmed once more than `SPARE` are
//! free, so no chunk keeps more room than that. A chunk grown past
//! `2 * CHUNK` splits into two exact halves, and one shrunk below
//! `CHUNK / 2` merges with a neighbour. Chunks follow each other in key
//! order without overlapping, each beside its fence — a key that separates
//! it from the chunk before — so a lookup searches the fences, kept in
//! line with the chunk pointers, and then the one chunk.

use std::borrow::Borrow;
use std::sync::Arc;

/// Entries per chunk of a bulk build, and the unit of the bounds.
const CHUNK: usize = 64;
/// Fewest entries a chunk beside others holds.
const MIN: usize = CHUNK / 2;
/// Most entries a chunk holds.
const MAX: usize = 2 * CHUNK;
/// Most room for entries a chunk written in place keeps spare.
const SPARE: usize = 8;

/// One chunk and its fence.
#[derive(Debug, Clone)]
struct Fenced<K, V> {
    /// No entry of this chunk is below it, and every entry of the chunks
    /// before it is: the chunk's first key when it was cut. The first
    /// chunk's is never read.
    fence: K,
    entries: Arc<Vec<(K, V)>>,
}

impl<K: Clone, V> Fenced<K, V> {
    /// A chunk of `entries`, which are not empty, fenced by its first key.
    fn new(entries: Vec<(K, V)>) -> Self {
        Fenced {
            fence: entries[0].0.clone(),
            entries: Arc::new(entries),
        }
    }
}

/// A sorted map of `K` to `V` in shared chunks (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Runs<K, V> {
    chunks: Vec<Fenced<K, V>>,
    len: usize,
}

impl<K, V> Default for Runs<K, V> {
    fn default() -> Self {
        Runs {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<K, V> Runs<K, V> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry in key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            chunks: self.chunks.iter(),
            run: [].iter(),
        }
    }

    /// Every value in key order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord + Clone, V: Clone> Runs<K, V> {
    /// The map of `entries`, which ascend strictly by key: cut into chunks
    /// of `CHUNK`, the last taking a remainder too short to stand alone.
    pub(crate) fn from_sorted(entries: Vec<(K, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let len = entries.len();
        let mut chunks = Vec::with_capacity(len / CHUNK + 1);
        let mut entries = entries.into_iter();
        let mut left = len;
        while left > 0 {
            let cut = if left < CHUNK + MIN { left } else { CHUNK };
            let mut chunk = Vec::with_capacity(cut);
            chunk.extend(entries.by_ref().take(cut));
            chunks.push(Fenced::new(chunk));
            left -= cut;
        }
        Runs { chunks, len }
    }

    /// The position of the one chunk that holds `key` if any does, and
    /// that an entry at `key` belongs in: the last whose fence is not above
    /// it, else the first.
    fn chunk_of<Q: Ord + ?Sized>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
    {
        // the first chunk takes every key below the second's fence
        let rest = self.chunks.get(1..).unwrap_or_default();
        partition(rest, |c| c.fence.borrow().cmp(key).is_le())
    }

    /// The entry at `key`.
    pub(crate) fn get_key_value<Q: Ord + ?Sized>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
    {
        let chunk = &self.chunks.get(self.chunk_of(key))?.entries;
        let (k, v) = &chunk[search(chunk, key).ok()?];
        Some((k, v))
    }

    /// The value at `key`.
    pub(crate) fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// True when an entry has this key.
    pub(crate) fn contains_key<Q: Ord + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.get_key_value(key).is_some()
    }

    /// Every entry whose key is not below `from`, in key order.
    pub(crate) fn range_from<Q: Ord + ?Sized>(&self, from: &Q) -> Iter<'_, K, V>
    where
        K: Borrow<Q>,
    {
        let first = self.chunk_of(from);
        let Some(Fenced { entries: chunk, .. }) = self.chunks.get(first) else {
            return Iter {
                chunks: [].iter(),
                run: [].iter(),
            };
        };
        let at = partition(chunk, |(k, _)| k.borrow() < from);
        Iter {
            chunks: self.chunks[first + 1..].iter(),
            run: chunk[at..].iter(),
        }
    }

    /// Set `value` at `key`, returning the value it displaced (the key
    /// already held stays).
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.chunks.is_empty() {
            self.chunks.push(Fenced::new(vec![(key, value)]));
            self.len = 1;
            return None;
        }
        let i = self.chunk_of(&key);
        let len = self.chunks[i].entries.len();
        match search(&self.chunks[i].entries, &key) {
            Ok(at) => {
                let chunk = self.unshared(i, len);
                Some(std::mem::replace(&mut chunk[at].1, value))
            }
            Err(at) => {
                let chunk = self.unshared(i, len + 1);
                if chunk.len() == chunk.capacity() {
                    chunk.reserve_exact(SPARE);
                }
                chunk.insert(at, (key, value));
                if chunk.len() > MAX {
                    let right = split(chunk);
                    self.chunks.insert(i + 1, Fenced::new(right));
                }
                self.len += 1;
                None
            }
        }
    }

    /// Remove the entry at `key` and return it.
    pub(crate) fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<(K, V)>
    where
        K: Borrow<Q>,
    {
        let i = self.chunk_of(key);
        let slot = &mut self.chunks.get_mut(i)?.entries;
        let at = search(slot, key).ok()?;
        let removed = match Arc::get_mut(slot) {
            Some(chunk) => {
                let removed = chunk.remove(at);
                if chunk.capacity() - chunk.len() > SPARE {
                    chunk.shrink_to_fit();
                }
                removed
            }
            None => {
                // the rest is copied out at the size it keeps
                crate::stats::count_cow_rows(slot.len() as u64);
                let mut rest = Vec::with_capacity(slot.len() - 1);
                rest.extend(slot[..at].iter().cloned());
                rest.extend(slot[at + 1..].iter().cloned());
                let removed = slot[at].clone();
                *slot = Arc::new(rest);
                removed
            }
        };
        self.len -= 1;
        self.settle(i);
        Some(removed)
    }

    /// Chunk `i`, copied first if anything else holds it — into a `Vec` of
    /// `capacity`, so the write that follows keeps it exact.
    fn unshared(&mut self, i: usize, capacity: usize) -> &mut Vec<(K, V)> {
        let slot = &mut self.chunks[i].entries;
        if Arc::get_mut(slot).is_none() {
            crate::stats::count_cow_rows(slot.len() as u64);
            let mut copy = Vec::with_capacity(capacity);
            copy.extend(slot.iter().cloned());
            *slot = Arc::new(copy);
        }
        Arc::get_mut(slot).expect("unshared above")
    }

    /// Restore the bounds at chunk `i` after a removal: an empty lone
    /// chunk goes, and an underfull one beside others merges with its
    /// right neighbour (the last chunk with its left), the pair split
    /// again in halves when together they exceed the largest chunk.
    fn settle(&mut self, i: usize) {
        let n = self.chunks[i].entries.len();
        if self.chunks.len() == 1 {
            if n == 0 {
                self.chunks.clear();
            }
            return;
        }
        if n >= MIN {
            return;
        }
        let at = i.min(self.chunks.len() - 2);
        let right = self.chunks.remove(at + 1).entries;
        let Fenced {
            fence,
            entries: left,
        } = self.chunks.remove(at);
        let mut merged = Vec::with_capacity(left.len() + right.len());
        for chunk in [left, right] {
            match Arc::try_unwrap(chunk) {
                Ok(entries) => merged.extend(entries),
                Err(shared) => {
                    crate::stats::count_cow_rows(shared.len() as u64);
                    merged.extend(shared.iter().cloned());
                }
            }
        }
        if merged.len() > MAX {
            let right = split(&mut merged);
            self.chunks.insert(at, Fenced::new(right));
        }
        // the pair's first fence still separates it from what comes before
        let entries = Arc::new(merged);
        self.chunks.insert(at, Fenced { fence, entries });
    }
}

/// Entries a search steps over at once before it walks them one by one.
const STRIDE: usize = 8;

/// The first position in `items` not `below` (a predicate true of a prefix
/// of them), found as a B-tree node finds it: stride by stride, then entry
/// by entry — comparisons whose loads overlap, where a binary search's
/// each wait on the one before.
fn partition<T>(items: &[T], below: impl Fn(&T) -> bool) -> usize {
    let mut at = 0;
    while at + STRIDE < items.len() && below(&items[at + STRIDE]) {
        at += STRIDE;
    }
    while at < items.len() && below(&items[at]) {
        at += 1;
    }
    at
}

/// [`partition`] by a three-way comparison that stops at `key`: its
/// position in `chunk`, else where it would go.
fn search<K: Borrow<Q>, Q: Ord + ?Sized, V>(chunk: &[(K, V)], key: &Q) -> Result<usize, usize> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let mut at = 0;
    while at + STRIDE < chunk.len() {
        match chunk[at + STRIDE].0.borrow().cmp(key) {
            Less => at += STRIDE,
            Equal => return Ok(at + STRIDE),
            Greater => break,
        }
    }
    for (k, _) in &chunk[at..] {
        match k.borrow().cmp(key) {
            Less => at += 1,
            Equal => return Ok(at),
            Greater => break,
        }
    }
    Err(at)
}

/// Cut `chunk` in two halves at exact capacity: `chunk` keeps the first,
/// the second is returned.
fn split<T>(chunk: &mut Vec<T>) -> Vec<T> {
    let mid = chunk.len() / 2;
    let mut right = Vec::with_capacity(chunk.len() - mid);
    right.extend(chunk.drain(mid..));
    chunk.shrink_to_fit();
    right
}

/// The entries of a `Runs` in key order, chunk after chunk.
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    chunks: std::slice::Iter<'a, Fenced<K, V>>,
    run: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.run.next() {
                return Some((k, v));
            }
            self.run = self.chunks.next()?.entries.iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use std::collections::BTreeMap;
    use vo_obs::trace;

    /// The bounds the module promises: no empty chunk, every chunk within
    /// `MIN..=MAX` unless alone, exact capacity, keys ascending across
    /// chunks, and the counted length.
    fn assert_shape<K: Ord + std::fmt::Debug, V>(runs: &Runs<K, V>) {
        let lone = runs.chunks.len() == 1;
        for (
            i,
            Fenced {
                fence,
                entries: chunk,
            },
        ) in runs.chunks.iter().enumerate()
        {
            assert!(!chunk.is_empty(), "an empty chunk");
            assert!(i == 0 || fence <= &chunk[0].0, "a fence above its chunk");
            if let Some(next) = runs.chunks.get(i + 1) {
                assert!(
                    chunk[chunk.len() - 1].0 < next.fence,
                    "a fence below the chunk before"
                );
            }
            assert!(chunk.len() <= MAX, "a chunk of {}", chunk.len());
            assert!(lone || chunk.len() >= MIN, "a chunk of {}", chunk.len());
            assert!(chunk.capacity() - chunk.len() <= SPARE, "slack in a chunk");
        }
        let keys: Vec<&K> = runs.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
        assert_eq!(keys.len(), runs.len());
    }

    fn assert_same(runs: &Runs<u64, u64>, oracle: &BTreeMap<u64, u64>) {
        assert_shape(runs);
        assert!(runs.iter().eq(oracle.iter()));
        assert_eq!(runs.len(), oracle.len());
        assert_eq!(runs.is_empty(), oracle.is_empty());
    }

    /// Seeded random puts and removes, some beside a clone taken earlier:
    /// the map reads as the `BTreeMap` given the same writes, point and
    /// range lookups alike, and every clone still reads what it held when
    /// it was taken.
    #[test]
    fn random_writes_read_as_a_btreemap() {
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let span = [40, 400, 4000][seed as usize % 3];
            let mut runs = Runs::default();
            let mut oracle = BTreeMap::new();
            let mut pinned: Vec<(Runs<u64, u64>, BTreeMap<u64, u64>)> = Vec::new();
            for step in 0..3000u64 {
                let key = rng.next_below(span);
                if rng.gen_bool(0.6) {
                    assert_eq!(runs.insert(key, step), oracle.insert(key, step));
                } else {
                    assert_eq!(runs.remove(&key), oracle.remove_entry(&key));
                }
                if step % 500 == 0 {
                    pinned.push((runs.clone(), oracle.clone()));
                }
                if step % 97 == 0 {
                    assert_same(&runs, &oracle);
                    let probe = rng.next_below(span + 2);
                    assert_eq!(runs.get(&probe), oracle.get(&probe));
                    assert_eq!(runs.contains_key(&probe), oracle.contains_key(&probe));
                    assert!(runs.range_from(&probe).eq(oracle.range(probe..)));
                }
            }
            assert_same(&runs, &oracle);
            for (runs, oracle) in &pinned {
                assert_same(runs, oracle);
            }
            // removing everything leaves no chunk
            for key in oracle.keys() {
                runs.remove(key).unwrap();
            }
            assert!(runs.is_empty() && runs.chunks.is_empty());
        }
    }

    #[test]
    fn a_bulk_build_cuts_full_chunks_and_keeps_no_short_one() {
        for len in [0, 1, 31, 64, 65, 95, 96, 97, 128, 200, 1000] {
            let runs = Runs::from_sorted((0..len as u64).map(|k| (k, k)).collect());
            assert_shape(&runs);
            let sizes: Vec<usize> = runs.chunks.iter().map(|c| c.entries.len()).collect();
            let (last, full) = sizes.split_last().unwrap_or((&0, &[]));
            assert!(full.iter().all(|&n| n == CHUNK), "{len}: {sizes:?}");
            assert!(*last < CHUNK + MIN, "{len}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), len);
        }
    }

    /// Prefix ranges over composite keys — how a table finds a key's
    /// leading run and a secondary index its group — agree with the
    /// oracle's.
    #[test]
    fn prefix_ranges_match_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut runs = Runs::default();
        let mut oracle = BTreeMap::new();
        for _ in 0..2000 {
            let key = vec![rng.next_below(30), rng.next_below(30)];
            runs.insert(key.clone(), ());
            oracle.insert(key, ());
        }
        assert_shape(&runs);
        for lead in 0..31u64 {
            let prefix = [lead];
            let run: Vec<&Vec<u64>> = (runs.range_from(&prefix[..]))
                .map(|(k, _)| k)
                .take_while(|k| k.starts_with(&prefix))
                .collect();
            let want: Vec<&Vec<u64>> = (oracle.keys()).filter(|k| k.starts_with(&prefix)).collect();
            assert_eq!(run, want, "prefix {lead}");
        }
    }

    /// A write beside a clone copies the one chunk it lands in, counted
    /// entry by entry; the clone reads the old entry, and the chunks the
    /// write did not reach stay shared.
    #[test]
    fn a_write_beside_a_clone_copies_one_chunk() {
        let mut runs = Runs::from_sorted((0..1000u64).map(|k| (k, k)).collect());
        let pinned = runs.clone();
        let ((), taken) = trace::capture(|| {
            assert_eq!(runs.insert(500, 0), Some(500));
        });
        assert_eq!(taken.count("relational.cow_rows"), CHUNK as u64);
        assert_eq!(pinned.get(&500), Some(&500));
        assert_eq!(runs.get(&500), Some(&0));
        let shared = (runs.chunks.iter().zip(&pinned.chunks))
            .filter(|(a, b)| Arc::ptr_eq(&a.entries, &b.entries))
            .count();
        assert_eq!(shared, runs.chunks.len() - 1);
        // once unshared, the chunk is written in place
        let ((), taken) = trace::capture(|| {
            runs.insert(501, 0);
            runs.remove(&502);
        });
        assert_eq!(taken.count("relational.cow_rows"), 0);
        drop(pinned);
        let ((), taken) = trace::capture(|| {
            runs.insert(1500, 0);
        });
        assert_eq!(taken.count("relational.cow_rows"), 0);
        assert_shape(&runs);
    }
}
