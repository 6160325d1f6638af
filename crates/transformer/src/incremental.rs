//! KV-cached incremental decoding over a paged KV arena.
//!
//! [`crate::model::Seq2SeqTransformer::greedy_decode`] recomputes the
//! whole target prefix every step — O(L²) layer work per sentence. This
//! module keeps the projected self-attention keys/values of every
//! decoder layer (and the cross-attention K/V, which never change) in a
//! session cache, so each step runs the decoder on exactly one new row.
//! Results are equivalent to full recomputation (causal masking makes
//! position `t` independent of positions `> t`); tests assert agreement.
//!
//! The caches are the shared [`tensor::kvpool`] arena and session, over
//! f32 rows: pages hold the projected rows verbatim, so gathering a
//! cache back out reproduces the exact bytes a flat `Mat` held and
//! paging is **bit-identical** to a flat cache at any page height.
//! Sessions hold only block tables; call [`KvSession::release`] (or
//! drop the arena) to recycle pages.

use std::ops::{Deref, DerefMut};

use graph::{Executor, Graph, GraphConfig};
use tensor::kvpool::{KvArena, KvModel, KvSession};
use tensor::Mat;

use crate::exec::{RowExec, RowVal};
use crate::mha::MhaResBlock;
use crate::model::Seq2SeqTransformer;

/// The FP32 model's paged KV arena: f32 K and V page pools shared by
/// every session and layer.
pub type FpKvArena = KvArena<f32>;

impl KvModel for Seq2SeqTransformer {
    type Elem = f32;
    fn kv_cols(&self) -> usize {
        self.config().d_model
    }
}

/// A decoding session over one source sentence: a [`KvSession`] of f32
/// rows (position, release and resident bytes come from it through
/// `Deref`) plus the FP32 decoder step.
#[derive(Debug)]
pub struct IncrementalSession(KvSession<f32>);

impl Deref for IncrementalSession {
    type Target = KvSession<f32>;
    fn deref(&self) -> &KvSession<f32> {
        &self.0
    }
}

impl DerefMut for IncrementalSession {
    fn deref_mut(&mut self) -> &mut KvSession<f32> {
        &mut self.0
    }
}

/// The cached-KV graph for this model's decoder blocks, built once per
/// step and shared by the self- and cross-attention ResBlocks (same
/// shape parameters).
fn cached_graph(model: &Seq2SeqTransformer) -> Graph {
    graph::mha_cached_graph(&GraphConfig {
        d_model: model.config().d_model,
        d_ff: 0,
        h: model.config().h,
    })
}

/// Applies a full MHA ResBlock to a stack of rows, one per session, by
/// running the cached-KV graph through [`RowExec`]: the `W_Q` and `W_O`
/// projections run once over all rows; the per-session attention
/// (different cache lengths) fans out across threads. The GEMM kernels
/// never reorder a row's accumulation, so row `r` is bit-identical to a
/// single-row run on row `r` alone.
fn resblock_rows(
    g: &Graph,
    block: &MhaResBlock,
    x: &Mat<f32>,
    kvs: &[(&Mat<f32>, &Mat<f32>)],
) -> Mat<f32> {
    debug_assert_eq!(x.rows(), kvs.len());
    let mut exec = RowExec::new(block);
    let mut env = exec.run(
        g,
        vec![
            ("x", RowVal::Rows(x.clone())),
            ("keys", RowVal::Caches(kvs.iter().map(|kv| kv.0).collect())),
            ("vals", RowVal::Caches(kvs.iter().map(|kv| kv.1).collect())),
        ],
        None,
    );
    env.take("y").into_rows()
}

/// Gathers session `s`'s layer-`l` self-attention K and V out of the
/// arena's pages into dense matrices, bit-identical to a flat cache.
fn self_kv_mats(arena: &FpKvArena, s: &KvSession<f32>, l: usize) -> (Mat<f32>, Mat<f32>) {
    let (k, v) = s.self_kv(l);
    (arena.key_pool().to_mat(k), arena.val_pool().to_mat(v))
}

impl IncrementalSession {
    /// Encodes `src` and prepares per-layer caches in `arena`. A fresh
    /// session holds no KV pages; they are allocated on demand as
    /// tokens are consumed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn new(model: &Seq2SeqTransformer, arena: &mut FpKvArena, src: &[usize]) -> Self {
        assert!(!src.is_empty(), "source must be non-empty");
        let src_x = model.src_embedding().forward_inference(src);
        let memory = model.encoder().forward_inference(&src_x, None);
        let cross = model.decoder().layers().iter().map(|layer| {
            let (_, cross, _) = layer.blocks();
            let (_, wk, wv, _) = cross.mha().projections();
            (wk.forward_inference(&memory), wv.forward_inference(&memory))
        });
        Self(KvSession::new(arena, cross))
    }

    /// Forks this session (see [`KvSession::fork`]): full KV pages are
    /// shared with the parent, divergent pushes copy-on-write.
    pub fn fork(&self, arena: &mut FpKvArena) -> IncrementalSession {
        Self(self.0.fork(arena))
    }

    /// [`KvSession::rollback_rows`], callable as
    /// `s.rollback_rows(arena, s.pos() - n)` (a method reached through
    /// `DerefMut` cannot read `s` in its arguments).
    pub fn rollback_rows(&mut self, arena: &mut FpKvArena, rows: usize) {
        self.0.rollback_rows(arena, rows);
    }

    /// Feeds one target token (at the next position) and returns the
    /// next-token vocabulary logits.
    ///
    /// # Panics
    ///
    /// Panics if the token is out of vocabulary.
    pub fn step(
        &mut self,
        model: &Seq2SeqTransformer,
        arena: &mut FpKvArena,
        token: usize,
    ) -> Vec<f32> {
        let g = cached_graph(model);
        let emb = model.tgt_embedding().embed_at(token, self.pos());
        let mut x = Mat::from_vec(1, emb.len(), emb).expect("row");
        for (l, layer) in model.decoder().layers().iter().enumerate() {
            let (self_blk, cross_blk, ffn_blk) = layer.blocks();
            // Append this position's projected self-attention K/V.
            let (_, wk, wv, _) = self_blk.mha().projections();
            let k_new = wk.forward_inference(&x);
            let v_new = wv.forward_inference(&x);
            self.push_kv(arena, l, k_new.row(0), v_new.row(0));
            // Causal self-attention over the cache (past + current only).
            let (sk, sv) = self_kv_mats(arena, self, l);
            let a = resblock_rows(&g, self_blk, &x, &[(&sk, &sv)]);
            // Cross-attention over the fixed encoder K/V.
            let b = resblock_rows(&g, cross_blk, &a, &[self.cross_kv(l)]);
            // Position-wise FFN on the single row.
            x = ffn_blk.forward_inference(&b);
        }
        self.advance(1);
        // Route through forward_inference so the output projection's
        // prepacked weights are reused across steps.
        let logits = model.output_projection().forward_inference(&x);
        logits.row(0).to_vec()
    }
}

/// Advances several sessions by one token each, batching the GEMMs: the
/// active rows are stacked into one `b × d_model` matrix, and each
/// layer's projections, FFN sublayers and the output projection run once
/// over all rows. Row `r`'s logits are bit-identical to
/// [`IncrementalSession::step`] on session `r` alone (the GEMM kernels
/// never reorder a row's accumulation), for any batch composition.
/// Sessions may sit at different positions.
///
/// # Panics
///
/// Panics if `sessions` is empty or its length differs from `tokens`'.
pub fn step_batch(
    model: &Seq2SeqTransformer,
    arena: &mut FpKvArena,
    sessions: &mut [&mut IncrementalSession],
    tokens: &[usize],
) -> Vec<Vec<f32>> {
    assert_eq!(sessions.len(), tokens.len(), "one token per session");
    assert!(!sessions.is_empty(), "empty step batch");
    let g = cached_graph(model);
    let b = sessions.len();
    let d_model = model.config().d_model;
    let mut x = Mat::zeros(b, d_model);
    for (r, (session, &token)) in sessions.iter().zip(tokens).enumerate() {
        x.row_mut(r)
            .copy_from_slice(&model.tgt_embedding().embed_at(token, session.pos()));
    }
    for (l, layer) in model.decoder().layers().iter().enumerate() {
        let (self_blk, cross_blk, ffn_blk) = layer.blocks();
        let (_, wk, wv, _) = self_blk.mha().projections();
        let k_new = wk.forward_inference(&x);
        let v_new = wv.forward_inference(&x);
        for (r, session) in sessions.iter_mut().enumerate() {
            session.push_kv(arena, l, k_new.row(r), v_new.row(r));
        }
        let self_mats: Vec<(Mat<f32>, Mat<f32>)> =
            sessions.iter().map(|s| self_kv_mats(arena, s, l)).collect();
        let self_kvs: Vec<(&Mat<f32>, &Mat<f32>)> =
            self_mats.iter().map(|kv| (&kv.0, &kv.1)).collect();
        let a = resblock_rows(&g, self_blk, &x, &self_kvs);
        let cross_kvs: Vec<(&Mat<f32>, &Mat<f32>)> =
            sessions.iter().map(|s| s.cross_kv(l)).collect();
        let bm = resblock_rows(&g, cross_blk, &a, &cross_kvs);
        x = ffn_blk.forward_inference(&bm);
    }
    for session in sessions.iter_mut() {
        session.advance(1);
    }
    let logits = model.output_projection().forward_inference(&x);
    (0..b).map(|r| logits.row(r).to_vec()).collect()
}

/// Greedy decoding through the KV cache — output-equivalent to
/// [`Seq2SeqTransformer::greedy_decode`] but O(L) layer passes instead
/// of O(L²). Uses a private arena.
pub fn greedy_decode_incremental(
    model: &Seq2SeqTransformer,
    src: &[usize],
    bos: usize,
    eos: usize,
    max_len: usize,
) -> Vec<usize> {
    let mut arena = FpKvArena::for_model(model);
    let mut session = IncrementalSession::new(model, &mut arena, src);
    let mut out = Vec::new();
    let mut token = bos;
    for _ in 0..max_len {
        let logits = session.step(model, &mut arena, token);
        let next = tensor::ops::argmax(&logits);
        if next == eos {
            break;
        }
        out.push(next);
        token = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::tasks::{BOS, EOS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Seq2SeqTransformer {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        Seq2SeqTransformer::new(&cfg, &mut rng)
    }

    #[test]
    fn incremental_logits_match_full_recompute() {
        let mut m = model(1);
        let src = [3usize, 7, 4, 9];
        let prefix = [1usize, 5, 8, 6];
        // full recompute: teacher-forced logits of the last position
        let memory_logits = m.forward_train(&src, &prefix);
        let want = memory_logits.row(prefix.len() - 1).to_vec();
        // incremental
        let mut arena = FpKvArena::for_model(&m);
        let mut session = IncrementalSession::new(&m, &mut arena, &src);
        let mut got = Vec::new();
        for &t in &prefix {
            got = session.step(&m, &mut arena, t);
        }
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn incremental_greedy_equals_full_greedy() {
        for seed in [2u64, 3, 4] {
            let mut m = model(seed);
            let src = [4usize, 5, 6, 7, 8];
            let full = m.greedy_decode(&src, BOS, EOS, 8);
            let inc = greedy_decode_incremental(&m, &src, BOS, EOS, 8);
            assert_eq!(full, inc, "seed {seed}");
        }
    }

    #[test]
    fn fp32_pages_are_bit_identical_to_flat_caches() {
        // The paged Fp32 store must reproduce the exact bytes a flat
        // cache held: step logits across page boundaries must equal a
        // flat-cache reference computed by hand.
        let m = model(11);
        let src = [3usize, 7, 4];
        let prefix = [1usize, 5, 8, 6, 2, 9, 4, 3]; // crosses 3-row pages
        let mut arena = FpKvArena::with_page_rows(m.config().d_model, 3);
        let mut session = IncrementalSession::new(&m, &mut arena, &src);
        // Flat reference: rebuild the caches as plain matrices.
        let mut flat_arena = FpKvArena::with_page_rows(m.config().d_model, 64);
        let mut flat = IncrementalSession::new(&m, &mut flat_arena, &src);
        for &t in &prefix {
            let got = session.step(&m, &mut arena, t);
            let want = flat.step(&m, &mut flat_arena, t);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "paged Fp32 logits must be bit-identical");
        }
    }

    #[test]
    fn batched_step_is_bit_identical_to_single_steps() {
        let m = model(8);
        let srcs: [&[usize]; 3] = [&[3, 7, 4], &[5, 6], &[9, 2, 4, 6]];
        let mut arena_s = FpKvArena::for_model(&m);
        let mut arena_b = FpKvArena::for_model(&m);
        let mut singles: Vec<IncrementalSession> = srcs
            .iter()
            .map(|s| IncrementalSession::new(&m, &mut arena_s, s))
            .collect();
        let mut batched: Vec<IncrementalSession> = srcs
            .iter()
            .map(|s| IncrementalSession::new(&m, &mut arena_b, s))
            .collect();
        // Desynchronize: advance the first session one extra step.
        let a = singles[0].step(&m, &mut arena_s, BOS);
        let got = step_batch(&m, &mut arena_b, &mut [&mut batched[0]], &[BOS]);
        assert_eq!(a, got[0], "single-session batch must match step()");
        for tokens in [[1usize, 5, 8], [2, 6, 4]] {
            let want: Vec<Vec<f32>> = singles
                .iter_mut()
                .zip(&tokens)
                .map(|(s, &t)| s.step(&m, &mut arena_s, t))
                .collect();
            let mut refs: Vec<&mut IncrementalSession> = batched.iter_mut().collect();
            let got = step_batch(&m, &mut arena_b, &mut refs, &tokens);
            assert_eq!(want, got, "batched logits must be bit-identical");
        }
    }

    #[test]
    #[should_panic(expected = "one token per session")]
    fn batched_step_rejects_length_mismatch() {
        let m = model(9);
        let mut arena = FpKvArena::for_model(&m);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4]);
        let _ = step_batch(&m, &mut arena, &mut [&mut s], &[BOS, BOS]);
    }

    #[test]
    fn session_tracks_position() {
        let m = model(5);
        let mut arena = FpKvArena::for_model(&m);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4]);
        assert_eq!(s.pos(), 0);
        let _ = s.step(&m, &mut arena, BOS);
        let _ = s.step(&m, &mut arena, 5);
        assert_eq!(s.pos(), 2);
    }

    #[test]
    fn cross_kv_is_precomputed_once() {
        let m = model(6);
        let mut arena = FpKvArena::for_model(&m);
        let s = IncrementalSession::new(&m, &mut arena, &[3, 4, 5]);
        for l in 0..m.decoder().layers().len() {
            assert_eq!(s.cross_kv(l).0.rows(), 3);
            assert_eq!(s.self_kv(l).0.rows(), 0);
        }
    }

    #[test]
    fn kv_pages_allocate_on_demand_and_release() {
        // The old path reserved max_len rows per layer up front; a fresh
        // session must now hold zero pages, grow on demand, and return
        // everything to the free list on release.
        let m = model(10);
        let d_model = m.config().d_model;
        let mut arena = FpKvArena::with_page_rows(d_model, 4);
        let mut s = IncrementalSession::new(&m, &mut arena, &[3, 4, 5]);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        let _ = s.step(&m, &mut arena, BOS);
        let one_page = 4 * d_model * std::mem::size_of::<f32>();
        assert_eq!(arena.kv_bytes_in_use(), 2 * 2 * one_page); // layers × {K,V}
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn forked_session_steps_bit_identically() {
        // Fork after a prefix that leaves a partial tail page, then
        // diverge parent and child: each continuation must be
        // bit-identical to an independent cold session fed the same
        // tokens.
        let m = model(13);
        let src = [3usize, 7, 4];
        let prefix = [1usize, 5, 8, 6, 2]; // 5 rows on 4-row pages
        let d_model = m.config().d_model;
        let mut arena = FpKvArena::with_page_rows(d_model, 4);
        let mut s = IncrementalSession::new(&m, &mut arena, &src);
        for &t in &prefix {
            let _ = s.step(&m, &mut arena, t);
        }
        let mut f = s.fork(&mut arena);
        assert_eq!(f.pos(), s.pos());
        let mut arena_ref = FpKvArena::with_page_rows(d_model, 4);
        let mut r = IncrementalSession::new(&m, &mut arena_ref, &src);
        for &t in &prefix {
            let _ = r.step(&m, &mut arena_ref, t);
        }
        let got = f.step(&m, &mut arena, 9);
        let want = r.step(&m, &mut arena_ref, 9);
        let same = got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits());
        assert!(same, "forked continuation diverged");
        // The parent takes a different token; the fork's write must
        // not have leaked into its shared prefix pages.
        let mut arena_ref2 = FpKvArena::with_page_rows(d_model, 4);
        let mut r2 = IncrementalSession::new(&m, &mut arena_ref2, &src);
        for &t in &prefix {
            let _ = r2.step(&m, &mut arena_ref2, t);
        }
        let got_p = s.step(&m, &mut arena, 2);
        let want_p = r2.step(&m, &mut arena_ref2, 2);
        let same_p = got_p
            .iter()
            .zip(&want_p)
            .all(|(g, w)| g.to_bits() == w.to_bits());
        assert!(same_p, "parent perturbed by fork");
        // Roll the fork back across the shared boundary and replay.
        f.rollback_rows(&mut arena, 2);
        let _ = f.step(&m, &mut arena, 9);
        f.release(&mut arena);
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_source_rejected() {
        let m = model(7);
        let mut arena = FpKvArena::new(32);
        let _ = IncrementalSession::new(&m, &mut arena, &[]);
    }
}
