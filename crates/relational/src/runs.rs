//! Ordered runs: a sorted set kept as a vector of `Arc`-shared chunks of
//! bounded size — how a [`crate::table::Table`] holds its rows and each of
//! its secondary indexes.
//!
//! The set orders its entries by a key its owner reads out of each one, so
//! an entry is its own key and nothing is stored beside it: every search
//! takes the owner's comparison of an entry with what is sought, and an
//! insertion puts its entry at the slot one such search found. A table's
//! entries are its rows, compared at their key positions; a secondary
//! index's are boxed values, compared whole.
//!
//! Cloning the set copies one pointer per chunk, so a table version a
//! snapshot pins shares every chunk with the head. A write copies only the
//! chunk it lands in, and only while something else still holds that
//! chunk; every entry so copied counts as `relational.cow_rows`. Dropping
//! the last holder of an old version frees the chunks that were copied
//! away from it and nothing else.
//!
//! Each chunk is an ordered `Vec` holding between `CHUNK / 2` and
//! `2 * CHUNK` entries (a lone chunk may hold fewer). A chunk is cut,
//! copied, split and merged at exact capacity; one written in place grows
//! `SPARE` entries at a time and is trimmed once more than `SPARE` are
//! free, so no chunk keeps more room than that. A chunk grown past
//! `2 * CHUNK` splits into two exact halves, and one shrunk below
//! `CHUNK / 2` merges with a neighbour. Chunks follow each other in order
//! without overlapping, each beside its fence — an entry that separates it
//! from the chunk before — so a lookup searches the fences, kept in line
//! with the chunk pointers, and then the one chunk.

use std::cmp::Ordering;
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
struct Fenced<T> {
    /// No entry of this chunk is below it, and every entry of the chunks
    /// before it is: a clone of the chunk's first entry, renewed by every
    /// write there, so it keeps no entry the chunk let go. The first
    /// chunk's is never read.
    fence: T,
    entries: Arc<Vec<T>>,
}

impl<T: Clone> Fenced<T> {
    /// A chunk of `entries`, which are not empty, fenced by its first.
    fn new(entries: Vec<T>) -> Self {
        Fenced {
            fence: entries[0].clone(),
            entries: Arc::new(entries),
        }
    }
}

/// Where an entry is, or would go, in a [`Runs`] left as it was when
/// [`Runs::slot`] found it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    chunk: usize,
    /// The entry's position in its chunk; `Err` where it would go.
    at: Result<usize, usize>,
}

impl Slot {
    /// True when an entry is there.
    pub(crate) fn held(self) -> bool {
        self.at.is_ok()
    }
}

/// A sorted set of `T` in shared chunks (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Runs<T> {
    chunks: Vec<Fenced<T>>,
    len: usize,
}

impl<T> Default for Runs<T> {
    fn default() -> Self {
        Runs {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Runs<T> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every entry in order.
    pub(crate) fn iter(&self) -> Iter<'_, T> {
        Iter {
            chunks: self.chunks.iter(),
            run: [].iter(),
        }
    }

    /// The position of the one chunk that holds the entry `at` finds equal
    /// if any does, and that such an entry belongs in: the last whose
    /// fence is not above it, else the first. `at` compares an entry with
    /// the one sought.
    fn chunk_of(&self, at: impl Fn(&T) -> Ordering) -> usize {
        // the first chunk takes every entry below the second's fence
        let rest = self.chunks.get(1..).unwrap_or_default();
        partition(rest, |c| at(&c.fence).is_le())
    }

    /// Where the entry `at` finds equal is, or would go: one descent.
    pub(crate) fn slot(&self, at: impl Fn(&T) -> Ordering) -> Slot {
        let chunk = self.chunk_of(&at);
        let at = (self.chunks.get(chunk)).map_or(Err(0), |c| search(&c.entries, at));
        Slot { chunk, at }
    }

    /// The entry `at` finds equal.
    pub(crate) fn get(&self, at: impl Fn(&T) -> Ordering) -> Option<&T> {
        let Slot { chunk, at: Ok(at) } = self.slot(at) else {
            return None;
        };
        Some(&self.chunks[chunk].entries[at])
    }

    /// Every entry `from` does not find below what it seeks, in order.
    pub(crate) fn range_from(&self, from: impl Fn(&T) -> Ordering) -> Iter<'_, T> {
        let first = self.chunk_of(&from);
        let Some(Fenced { entries: chunk, .. }) = self.chunks.get(first) else {
            return Iter {
                chunks: [].iter(),
                run: [].iter(),
            };
        };
        let at = partition(chunk, |e| from(e).is_lt());
        Iter {
            chunks: self.chunks[first + 1..].iter(),
            run: chunk[at..].iter(),
        }
    }
}

impl<T: Clone> Runs<T> {
    /// The set of `entries`, which ascend strictly by `order`: cut into
    /// chunks of `CHUNK`, the last taking a remainder too short to stand
    /// alone. Each entry is drawn as its chunk is cut, so an owner that
    /// builds its entries from something else builds them in place.
    pub(crate) fn from_sorted<I>(entries: I, order: impl Fn(&T, &T) -> Ordering) -> Self
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut entries = entries.into_iter();
        let len = entries.len();
        let mut chunks: Vec<Fenced<T>> = Vec::with_capacity(len / CHUNK + 1);
        let mut left = len;
        while left > 0 {
            let cut = if left < CHUNK + MIN { left } else { CHUNK };
            let mut chunk = Vec::with_capacity(cut);
            chunk.extend(entries.by_ref().take(cut));
            debug_assert!(
                (chunks.last().and_then(|c| c.entries.last()).into_iter())
                    .chain(&chunk)
                    .is_sorted_by(|a, b| order(a, b).is_lt()),
                "entries ascend strictly"
            );
            chunks.push(Fenced::new(chunk));
            left -= cut;
        }
        Runs { chunks, len }
    }

    /// Put `entry` at `slot`, which [`Runs::slot`] found for it, returning
    /// the entry it displaced. A chunk grown past the largest splits.
    pub(crate) fn put(&mut self, Slot { chunk: i, at }: Slot, entry: T) -> Option<T> {
        if self.chunks.is_empty() {
            self.chunks.push(Fenced::new(vec![entry]));
            self.len = 1;
            return None;
        }
        let len = self.chunks[i].entries.len();
        let displaced = match at {
            Ok(at) => Some(std::mem::replace(&mut self.unshared(i, len)[at], entry)),
            Err(at) => {
                let chunk = self.unshared(i, len + 1);
                if chunk.len() == chunk.capacity() {
                    chunk.reserve_exact(SPARE);
                }
                chunk.insert(at, entry);
                if chunk.len() > MAX {
                    let right = split(chunk);
                    self.chunks.insert(i + 1, Fenced::new(right));
                }
                self.len += 1;
                None
            }
        };
        if matches!(at, Ok(0) | Err(0)) {
            self.refence(i);
        }
        displaced
    }

    /// Remove the entry `at` finds equal and return it.
    pub(crate) fn remove(&mut self, at: impl Fn(&T) -> Ordering) -> Option<T> {
        let Slot {
            chunk: i,
            at: Ok(at),
        } = self.slot(at)
        else {
            return None;
        };
        let len = self.chunks[i].entries.len();
        let chunk = self.unshared(i, len);
        let removed = chunk.remove(at);
        if chunk.capacity() - chunk.len() > SPARE {
            chunk.shrink_to_fit();
        }
        self.len -= 1;
        if at == 0 {
            self.refence(i);
        }
        self.settle(i);
        Some(removed)
    }

    /// Fence chunk `i`, unless empty, by its first entry again.
    fn refence(&mut self, i: usize) {
        let Fenced { fence, entries } = &mut self.chunks[i];
        if let Some(first) = entries.first() {
            *fence = first.clone();
        }
    }

    /// Chunk `i`, copied first if anything else holds it — into a `Vec` of
    /// `capacity`, the size the write that follows leaves it (a removal's
    /// copy keeps one spare).
    fn unshared(&mut self, i: usize, capacity: usize) -> &mut Vec<T> {
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
        let left = self.chunks.remove(at).entries;
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
        // the pair's first entry separates it from what comes before
        self.chunks.insert(at, Fenced::new(merged));
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

/// [`partition`] by a three-way comparison that stops at the entry `at`
/// finds equal: its position in `chunk`, else where it would go.
fn search<T>(chunk: &[T], at: impl Fn(&T) -> Ordering) -> Result<usize, usize> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let mut pos = 0;
    while pos + STRIDE < chunk.len() {
        match at(&chunk[pos + STRIDE]) {
            Less => pos += STRIDE,
            Equal => return Ok(pos + STRIDE),
            Greater => break,
        }
    }
    for e in &chunk[pos..] {
        match at(e) {
            Less => pos += 1,
            Equal => return Ok(pos),
            Greater => break,
        }
    }
    Err(pos)
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

/// The entries of a `Runs` in order, chunk after chunk.
#[derive(Debug)]
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Fenced<T>>,
    run: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(e) = self.run.next() {
                return Some(e);
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

    /// An entry of the tests' set: a key and a value, ordered by the key.
    type Pair = (u64, u64);

    fn by_key(a: &Pair, b: &Pair) -> Ordering {
        a.0.cmp(&b.0)
    }

    fn at(key: u64) -> impl Fn(&Pair) -> Ordering {
        move |e| e.0.cmp(&key)
    }

    /// Put `entry` at its key, returning the entry it displaced.
    fn upsert(runs: &mut Runs<Pair>, entry: Pair) -> Option<Pair> {
        runs.put(runs.slot(at(entry.0)), entry)
    }

    /// The bounds the module promises: no empty chunk, every chunk within
    /// `MIN..=MAX` unless alone and fenced by its first entry (so no fence
    /// keeps a displaced one), exact capacity, entries ascending across
    /// chunks, and the counted length.
    fn assert_shape<T: Ord + std::fmt::Debug>(runs: &Runs<T>, order: impl Fn(&T, &T) -> Ordering) {
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
            assert_eq!(fence, &chunk[0], "a fence not its chunk's first entry");
            if let Some(next) = runs.chunks.get(i + 1) {
                assert!(
                    order(&chunk[chunk.len() - 1], &next.fence).is_lt(),
                    "a fence below the chunk before"
                );
            }
            assert!(chunk.len() <= MAX, "a chunk of {}", chunk.len());
            assert!(lone || chunk.len() >= MIN, "a chunk of {}", chunk.len());
            assert!(chunk.capacity() - chunk.len() <= SPARE, "slack in a chunk");
        }
        let entries: Vec<&T> = runs.iter().collect();
        assert!(
            entries.windows(2).all(|w| order(w[0], w[1]).is_lt()),
            "entries out of order"
        );
        assert_eq!(entries.len(), runs.len());
    }

    fn assert_same(runs: &Runs<Pair>, oracle: &BTreeMap<u64, u64>) {
        assert_shape(runs, by_key);
        assert!(runs
            .iter()
            .map(|&(k, v)| (k, v))
            .eq(oracle.iter().map(|(&k, &v)| (k, v))));
        assert_eq!(runs.len(), oracle.len());
        assert_eq!(runs.is_empty(), oracle.is_empty());
    }

    /// Seeded random puts and removes, some beside a clone taken earlier:
    /// the set reads as the `BTreeMap` given the same writes, point and
    /// range lookups alike, and every clone still reads what it held when
    /// it was taken.
    #[test]
    fn random_writes_read_as_a_btreemap() {
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let span = [40, 400, 4000][seed as usize % 3];
            let mut runs = Runs::default();
            let mut oracle = BTreeMap::new();
            let mut pinned: Vec<(Runs<Pair>, BTreeMap<u64, u64>)> = Vec::new();
            for step in 0..3000u64 {
                let key = rng.next_below(span);
                if rng.gen_bool(0.6) {
                    assert_eq!(runs.slot(at(key)).held(), oracle.contains_key(&key));
                    let displaced = upsert(&mut runs, (key, step)).map(|(_, v)| v);
                    assert_eq!(displaced, oracle.insert(key, step));
                } else {
                    assert_eq!(runs.remove(at(key)), oracle.remove_entry(&key));
                }
                if step % 500 == 0 {
                    pinned.push((runs.clone(), oracle.clone()));
                }
                if step % 97 == 0 {
                    assert_same(&runs, &oracle);
                    let probe = rng.next_below(span + 2);
                    let got = runs.get(at(probe)).map(|(_, v)| v);
                    assert_eq!(got, oracle.get(&probe));
                    let from = runs.range_from(at(probe)).map(|&(k, v)| (k, v));
                    assert!(from.eq(oracle.range(probe..).map(|(&k, &v)| (k, v))));
                }
            }
            assert_same(&runs, &oracle);
            for (runs, oracle) in &pinned {
                assert_same(runs, oracle);
            }
            // removing everything leaves no chunk
            for &key in oracle.keys() {
                runs.remove(at(key)).unwrap();
            }
            assert!(runs.is_empty() && runs.chunks.is_empty());
        }
    }

    #[test]
    fn a_bulk_build_cuts_full_chunks_and_keeps_no_short_one() {
        for len in [0, 1, 31, 64, 65, 95, 96, 97, 128, 200, 1000] {
            let runs = Runs::from_sorted((0..len).map(|k| (k as u64, k as u64)), by_key);
            assert_shape(&runs, by_key);
            let sizes: Vec<usize> = runs.chunks.iter().map(|c| c.entries.len()).collect();
            let (last, full) = sizes.split_last().unwrap_or((&0, &[]));
            assert!(full.iter().all(|&n| n == CHUNK), "{len}: {sizes:?}");
            assert!(*last < CHUNK + MIN, "{len}: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), len);
        }
    }

    /// Prefix ranges over composite entries — how a table finds a key's
    /// leading run and a secondary index its group — agree with the
    /// oracle's.
    #[test]
    fn prefix_ranges_match_the_oracle() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut runs = Runs::default();
        let mut oracle = BTreeMap::new();
        for _ in 0..2000 {
            let key = vec![rng.next_below(30), rng.next_below(30)];
            runs.put(runs.slot(|e: &Vec<u64>| e.cmp(&key)), key.clone());
            oracle.insert(key, ());
        }
        assert_shape(&runs, Ord::cmp);
        for lead in 0..31u64 {
            let prefix = [lead];
            let run: Vec<&Vec<u64>> = (runs.range_from(|e| e[..].cmp(&prefix[..])))
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
        let mut runs = Runs::from_sorted((0..1000).map(|k| (k as u64, k as u64)), by_key);
        let pinned = runs.clone();
        let ((), taken) = trace::capture(|| {
            assert_eq!(upsert(&mut runs, (500, 0)), Some((500, 500)));
        });
        assert_eq!(taken.count("relational.cow_rows"), CHUNK as u64);
        assert_eq!(pinned.get(at(500)), Some(&(500, 500)));
        assert_eq!(runs.get(at(500)), Some(&(500, 0)));
        let shared = (runs.chunks.iter().zip(&pinned.chunks))
            .filter(|(a, b)| Arc::ptr_eq(&a.entries, &b.entries))
            .count();
        assert_eq!(shared, runs.chunks.len() - 1);
        // once unshared, the chunk is written in place
        let ((), taken) = trace::capture(|| {
            upsert(&mut runs, (501, 0));
            runs.remove(at(502));
        });
        assert_eq!(taken.count("relational.cow_rows"), 0);
        drop(pinned);
        let ((), taken) = trace::capture(|| {
            upsert(&mut runs, (1500, 0));
        });
        assert_eq!(taken.count("relational.cow_rows"), 0);
        assert_shape(&runs, by_key);
    }
}
