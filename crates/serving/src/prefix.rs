//! Radix (token-trie) index of reusable KV-cache prefixes.
//!
//! Serving workloads repeat prompt prefixes constantly — shared system
//! prompts, few-shot templates, multi-turn histories. Recomputing the
//! prefill for a prefix the engine already ran wastes both array cycles
//! and KV-pool bytes. This module caches **page-aligned session
//! snapshots** keyed on token ids: an entry is a forked
//! [`QuantIncrementalSession`] whose paged self-attention K/V rows are
//! *shared* (refcounted, copy-on-write — see `tensor::kvpool`) with the
//! live session it was forked from, so a cached prefix costs ~1× its KV
//! bytes no matter how many sessions later attach to it.
//!
//! Keys are `src ++ [SRC_SEP] ++ consumed-target-tokens`. The source
//! sentence participates because every decoder layer's **cross**-
//! attention K/V derive from the encoder memory: a target prefix is
//! only reusable under the *exact* source that produced it. The
//! separator keeps `src = [a, b]` + target `[c]` distinct from
//! `src = [a]` + target `[b, c]`.
//!
//! Entries are stored only at **page-aligned** target depths (the
//! engine rolls snapshots back to a page boundary before inserting), so
//! a whole-entry hit shares pages and copies nothing. Lookup walks the
//! trie along the request's key to the deepest *matched* node — the
//! longest common prefix with anything cached — and then reuses **any**
//! entry in that node's subtree: an entry whose key extends the matched
//! prefix agrees with the request on every matched row, so the caller
//! forks it and rolls the fork back to the divergence point
//! (copy-on-write protects the entry's pages; rolled-back rows merely
//! drop refcounts). This is what makes the classic shared-preamble
//! workload (common system prompt, distinct per-request tails) hit: the
//! first request's snapshot serves every later request up to the
//! divergence. Eviction is LRU over entries under a byte budget
//! ([`PrefixIndex::new`]); evicting an entry releases its fork, which
//! only returns pages whose refcount drops to zero — pages still shared
//! with live sessions survive untouched.

use std::collections::HashMap;

use quantized::incremental::{KvArena, QuantIncrementalSession};

/// Separator token between the source sentence and the consumed
/// target-side tokens in a prefix key. `usize::MAX` cannot collide with
/// a vocabulary id (token ids index embedding rows).
pub const SRC_SEP: usize = usize::MAX;

/// Builds the trie key for a request: `src ++ [SRC_SEP] ++ target`,
/// where `target` is the consumed target-side row stream
/// (`[BOS] + prompt`).
pub fn prefix_key(src: &[usize], target: &[usize]) -> Vec<usize> {
    let mut key = Vec::with_capacity(src.len() + 1 + target.len());
    key.extend_from_slice(src);
    key.push(SRC_SEP);
    key.extend_from_slice(target);
    key
}

/// One cached prefix: a page-aligned forked session plus bookkeeping.
struct Entry {
    session: QuantIncrementalSession,
    /// Consumed target rows (`session.pos()`), page-aligned.
    rows: usize,
    /// Logical resident KV bytes charged against the budget.
    bytes: usize,
    /// LRU stamp (monotone per index; unique, so it doubles as an
    /// entry id during eviction).
    last_used: u64,
}

/// A trie node, one child per token id.
#[derive(Default)]
struct Node {
    children: HashMap<usize, Node>,
    entry: Option<Entry>,
}

/// The prefix cache: a token trie whose nodes may hold session
/// snapshots, bounded by a byte budget with LRU eviction.
pub struct PrefixIndex {
    root: Node,
    /// Byte budget; `0` disables the index entirely.
    budget: usize,
    bytes: usize,
    entries: usize,
    tick: u64,
}

impl std::fmt::Debug for PrefixIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixIndex")
            .field("budget", &self.budget)
            .field("bytes", &self.bytes)
            .field("entries", &self.entries)
            .finish()
    }
}

impl PrefixIndex {
    /// An index bounded to `budget` logical KV bytes (`0` disables it:
    /// every lookup misses and every insert is dropped).
    pub fn new(budget: usize) -> Self {
        Self {
            root: Node::default(),
            budget,
            bytes: 0,
            entries: 0,
            tick: 0,
        }
    }

    /// Whether the index accepts entries at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Logical KV bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Cached prefixes currently held.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Longest reusable cached prefix of `key`, bumping the serving
    /// entry's LRU stamp. Returns the snapshot to fork and the number of
    /// its leading target rows that are valid for this request — the
    /// snapshot may hold *more* rows (it came from a prompt that shares
    /// only a preamble with this one); the caller must roll the fork
    /// back to the returned count before ingesting its suffix.
    /// Copy-on-write makes that safe for the entry's own pages.
    ///
    /// Callers cap `max_rows` at one *less* than the full consumed-row
    /// count: a session must re-ingest at least one row to produce the
    /// logits the next token is sampled from.
    pub fn lookup(
        &mut self,
        key: &[usize],
        max_rows: usize,
    ) -> Option<(&QuantIncrementalSession, usize)> {
        if max_rows == 0 {
            return None;
        }
        let sep = key.iter().position(|&t| t == SRC_SEP)?;
        // Pass 1 (shared): walk the longest stored prefix of `key`.
        let mut node = &self.root;
        let mut depth = 0;
        while depth < key.len() {
            match node.children.get(&key[depth]) {
                Some(next) => {
                    node = next;
                    depth += 1;
                }
                None => break,
            }
        }
        // Matching must reach past the separator: a target row is only
        // reusable under the exact source that produced it.
        let usable = depth.saturating_sub(sep + 1).min(max_rows);
        if usable == 0 {
            return None;
        }
        // Every entry in the matched node's subtree agrees with this
        // request on its first `usable` rows (entry keys extend the
        // matched prefix, and entries at or below the matched node hold
        // at least that many rows). The shallowest one minimizes the
        // caller's rollback.
        let rel = shallowest_entry(node)?;
        // Pass 2 (exclusive): walk to it, stamp, hand the session out.
        self.tick += 1;
        let mut node = &mut self.root;
        for tok in key[..depth].iter().chain(rel.iter()) {
            node = node.children.get_mut(tok).expect("walked in pass 1");
        }
        let e = node.entry.as_mut().expect("found in pass 1");
        debug_assert!(e.rows >= usable, "subtree entries hold >= matched rows");
        e.last_used = self.tick;
        Some((&e.session, usable))
    }

    /// Whether an entry is stored at exactly `key`.
    pub fn contains(&self, key: &[usize]) -> bool {
        let mut node = &self.root;
        for tok in key {
            match node.children.get(tok) {
                Some(next) => node = next,
                None => return false,
            }
        }
        node.entry.is_some()
    }

    /// Inserts a page-aligned snapshot at `key`, evicting LRU entries
    /// until the budget holds. The snapshot is released (not stored) if
    /// the index is disabled, the snapshot holds no rows, it alone
    /// exceeds the budget, or `key` is already present — the caller
    /// never has to clean up. Returns whether the snapshot was kept.
    pub fn insert(
        &mut self,
        key: &[usize],
        mut session: QuantIncrementalSession,
        arena: &mut KvArena,
    ) -> bool {
        let rows = session.pos();
        let bytes = session.resident_kv_bytes(arena);
        if !self.enabled() || rows == 0 || bytes > self.budget || self.contains(key) {
            session.release(arena);
            return false;
        }
        self.tick += 1;
        let mut node = &mut self.root;
        for tok in key {
            node = node.children.entry(*tok).or_default();
        }
        debug_assert!(node.entry.is_none(), "contains() checked above");
        node.entry = Some(Entry {
            session,
            rows,
            bytes,
            last_used: self.tick,
        });
        self.bytes += bytes;
        self.entries += 1;
        // The fresh entry carries the newest stamp, so eviction reaches
        // it last — and never needs to, since bytes <= budget held.
        while self.bytes > self.budget {
            self.evict_lru(arena);
        }
        true
    }

    /// Evicts the least-recently-used entry, releasing its fork into
    /// `arena` (shared pages survive via their refcounts) and pruning
    /// the trie path it occupied. No-op on an empty index.
    fn evict_lru(&mut self, arena: &mut KvArena) {
        let Some(tick) = min_tick(&self.root) else {
            return;
        };
        let mut entry = remove_tick(&mut self.root, tick).expect("min tick exists");
        entry.session.release(arena);
        self.bytes -= entry.bytes;
        self.entries -= 1;
    }

    /// Every cached snapshot session — the block tables through which
    /// the index holds KV pages — in no particular order.
    pub fn sessions(&self) -> Vec<&QuantIncrementalSession> {
        let mut out = Vec::with_capacity(self.entries);
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            out.extend(node.entry.as_ref().map(|e| &e.session));
            stack.extend(node.children.values());
        }
        out
    }

    /// Drops every entry, releasing all forks into `arena`.
    pub fn clear(&mut self, arena: &mut KvArena) {
        while self.entries > 0 {
            self.evict_lru(arena);
        }
    }
}

/// Path (token sequence) from `node` down to its shallowest entry,
/// ties broken toward smaller tokens so the choice is deterministic.
/// `None` only for an entry-free subtree, which the pruning in
/// [`remove_tick`] never leaves behind below the root.
fn shallowest_entry(node: &Node) -> Option<Vec<usize>> {
    if node.entry.is_some() {
        return Some(Vec::new());
    }
    let mut toks: Vec<usize> = node.children.keys().copied().collect();
    toks.sort_unstable();
    let mut best: Option<Vec<usize>> = None;
    for t in toks {
        if let Some(mut p) = shallowest_entry(&node.children[&t]) {
            p.insert(0, t);
            if best.as_ref().is_none_or(|b| p.len() < b.len()) {
                best = Some(p);
            }
        }
    }
    best
}

/// Smallest LRU stamp in the subtree, if any entry exists.
fn min_tick(node: &Node) -> Option<u64> {
    let mut m = node.entry.as_ref().map(|e| e.last_used);
    for child in node.children.values() {
        m = match (m, min_tick(child)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        };
    }
    m
}

/// Removes the entry stamped `tick` (stamps are unique) and prunes any
/// node chain the removal leaves empty.
fn remove_tick(node: &mut Node, tick: u64) -> Option<Entry> {
    if node.entry.as_ref().is_some_and(|e| e.last_used == tick) {
        return node.entry.take();
    }
    let mut found = None;
    let mut empty_child = None;
    for (tok, child) in node.children.iter_mut() {
        if let Some(e) = remove_tick(child, tick) {
            if child.entry.is_none() && child.children.is_empty() {
                empty_child = Some(*tok);
            }
            found = Some(e);
            break;
        }
    }
    if let Some(tok) = empty_child {
        node.children.remove(&tok);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantized::QuantSeq2Seq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen, BOS};

    fn tiny_model() -> QuantSeq2Seq {
        let cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
        let corpus = gen.corpus(4, &mut StdRng::seed_from_u64(6));
        QuantSeq2Seq::from_trained(&model, &corpus, quantized::SoftmaxMode::Hardware)
    }

    /// Runs `target` rows into a fresh session and rolls back to a page
    /// boundary — the exact snapshot shape the engine inserts.
    fn aligned_snapshot(
        model: &QuantSeq2Seq,
        arena: &mut KvArena,
        src: &[usize],
        target: &[usize],
    ) -> (QuantIncrementalSession, usize) {
        let mut s = model.start_session(arena, src);
        let mut sess = vec![&mut s];
        let _ = model.prefill_sessions(arena, &mut sess, &[target]);
        let page = arena.page_rows();
        let aligned = (target.len() / page) * page;
        if target.len() > aligned {
            s.rollback_rows(arena, target.len() - aligned);
        }
        (s, aligned)
    }

    #[test]
    fn key_separator_disambiguates_src_target_split() {
        let a = prefix_key(&[1, 2], &[3]);
        let b = prefix_key(&[1], &[2, 3]);
        assert_ne!(a, b);
        assert_eq!(a, vec![1, 2, SRC_SEP, 3]);
    }

    #[test]
    fn lookup_finds_longest_aligned_prefix_and_caps_rows() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(usize::MAX);
        let src = vec![1, 2, 3];
        let target = vec![BOS, 7, 8, 9, 7, 8]; // 6 rows, pages of 2
        for rows in [2usize, 4] {
            let (snap, aligned) = aligned_snapshot(&model, &mut arena, &src, &target[..rows]);
            assert_eq!(aligned, rows);
            assert!(index.insert(&prefix_key(&src, &target[..rows]), snap, &mut arena));
        }
        assert_eq!(index.entries(), 2);

        // The deepest stored prefix wins.
        let key = prefix_key(&src, &target);
        let (_, rows) = index.lookup(&key, target.len() - 1).expect("hit");
        assert_eq!(rows, 4);
        // Capping trims the reuse below the deepest entry's rows: the
        // caller forks the snapshot and rolls it back to the cap.
        let (snap, rows) = index.lookup(&key, 3).expect("hit");
        assert_eq!(rows, 3);
        assert!(
            snap.pos() >= rows,
            "snapshot holds at least the reused rows"
        );
        // A different source misses even with an identical target: the
        // cross-attention K/V under the hood belong to `src` alone.
        assert!(index.lookup(&prefix_key(&[2, 2, 2], &target), 5).is_none());

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0, "clear released every fork");
    }

    #[test]
    fn diverged_tails_reuse_the_shared_preamble() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(usize::MAX);
        let src = vec![1, 2, 3];
        let a = vec![BOS, 7, 8, 9, 7, 8]; // cached in full (6 rows)
        let b = vec![BOS, 7, 8, 9, 5, 5, 5]; // shares only 4 leading rows
        let (snap, aligned) = aligned_snapshot(&model, &mut arena, &src, &a);
        assert_eq!(aligned, 6);
        assert!(index.insert(&prefix_key(&src, &a), snap, &mut arena));

        // The walk diverges after `[BOS, 7, 8, 9]`; the cached deeper
        // snapshot still serves those four rows (fork + roll back).
        let (snap, rows) = index
            .lookup(&prefix_key(&src, &b), b.len() - 1)
            .expect("preamble must hit");
        assert_eq!(rows, 4);
        assert_eq!(snap.pos(), 6, "entry itself is untrimmed");

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn disabled_index_stores_nothing_and_releases_the_offered_fork() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let mut index = PrefixIndex::new(0);
        assert!(!index.enabled());
        let (snap, _) = aligned_snapshot(&model, &mut arena, &[1, 2], &[BOS, 5, 6, 7]);
        assert!(!index.insert(&prefix_key(&[1, 2], &[BOS, 5, 6, 7]), snap, &mut arena));
        assert_eq!(index.entries(), 0);
        assert_eq!(arena.kv_bytes_in_use(), 0, "rejected fork must be released");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let model = tiny_model();
        let mut arena = KvArena::with_page_rows(model.tgt_embedding().d_model(), 2);
        let src = vec![4, 5, 6];
        let target = vec![BOS, 3, 9, 3, 9, 3];
        // Budget sized for exactly two 2-row entries.
        let (probe, _) = aligned_snapshot(&model, &mut arena, &src, &target[..2]);
        let entry_bytes = probe.resident_kv_bytes(&arena);
        {
            let mut probe = probe;
            probe.release(&mut arena);
        }
        let mut index = PrefixIndex::new(2 * entry_bytes);

        let srcs = [vec![4, 5, 6], vec![5, 6, 7], vec![6, 7, 8]];
        for s in &srcs {
            let (snap, _) = aligned_snapshot(&model, &mut arena, s, &target[..2]);
            assert!(index.insert(&prefix_key(s, &target[..2]), snap, &mut arena));
        }
        // Third insert evicted the first (LRU) entry.
        assert_eq!(index.entries(), 2);
        assert!(index.bytes() <= 2 * entry_bytes);
        assert!(index.lookup(&prefix_key(&srcs[0], &target), 5).is_none());
        assert!(index.lookup(&prefix_key(&srcs[1], &target), 5).is_some());

        // Touching srcs[1] then inserting again must evict srcs[2].
        let (snap, _) = aligned_snapshot(&model, &mut arena, &[7, 8, 9], &target[..2]);
        assert!(index.insert(&prefix_key(&[7, 8, 9], &target[..2]), snap, &mut arena));
        assert!(index.lookup(&prefix_key(&srcs[1], &target), 5).is_some());
        assert!(index.lookup(&prefix_key(&srcs[2], &target), 5).is_none());

        index.clear(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }
}
