//! KV-cached incremental decoding for the quantized model, over a
//! shared **paged** KV arena.
//!
//! Mirrors `transformer::incremental` in the INT8 domain: the projected
//! self-attention K/V *codes* of every decoder layer are cached, and the
//! fixed cross-attention K/V codes are computed once per source
//! sentence. Every integer operation per row is identical to the full
//! recompute (the datapath is row-independent), so decodes are
//! **bit-identical** to [`QuantSeq2Seq::greedy_decode`] — asserted by
//! tests — while doing O(L) layer passes instead of O(L²).
//!
//! The caches are the shared [`tensor::kvpool`] arena and session over
//! i8 codes ([`KvArena`], [`KvSession`]): a session holds only block
//! tables, pages are allocated on demand as tokens are consumed and
//! returned copy-free when the session is
//! [released](KvSession::release). Since the pages store exactly the
//! same i8 codes a flat cache held, paging is lossless: every decode
//! remains bit-identical. Cross-attention K/V are exact-size flat
//! matrices (their length is the source length, known up front).
//!
//! Sessions can also advance **together**: [`QuantSeq2Seq::step_sessions`]
//! stacks one active row per session and runs each layer's projections,
//! output matmul and FFN as single multi-row GEMMs (one `matmul_i8` per
//! weight matrix per step instead of one per request). The GEMM kernels
//! never reorder a row's accumulation, so every batched row is
//! bit-identical to the single-session path for any batch composition —
//! the property the `serving` crate's continuous batcher is built on.
//! [`QuantSeq2Seq::prefill_sessions`] extends the same argument to
//! multi-row **chunks**: a prompt of length L is consumed in fixed-size
//! chunks (one GEMM per weight matrix per chunk instead of L sequential
//! steps), with the executor's intra-chunk causal mask keeping the
//! result bit-identical to token-at-a-time ingestion.

use std::ops::{Deref, DerefMut};

use graph::{Executor, Graph};
use tensor::kvpool::{KvModel, KvSession};
use tensor::Mat;
use transformer::tasks::{BOS, EOS};

use crate::exec::{CacheRef, QRowVal, QuantRowExec};
use crate::mha::QuantMhaResBlock;
use crate::model::QuantSeq2Seq;

/// The INT8 model's paged KV arena: i8 K and V code pools shared by
/// every session and layer.
pub type KvArena = tensor::kvpool::KvArena<i8>;

impl KvModel for QuantSeq2Seq {
    type Elem = i8;
    fn kv_cols(&self) -> usize {
        self.tgt_embedding().d_model()
    }
}

/// An INT8 decoding session over one source sentence: a
/// [`KvSession`] of i8 codes (position, memory length, release and
/// resident bytes come from it through `Deref`) plus the scratch row
/// the per-token attention writes into.
#[derive(Debug)]
pub struct QuantIncrementalSession {
    kv: KvSession<i8>,
    /// Scratch row for the concatenated head outputs `P` — allocated
    /// once per session and fully overwritten by every ResBlock pass, so
    /// the per-token hot loop never allocates head panels.
    p_buf: Mat<i8>,
}

impl Deref for QuantIncrementalSession {
    type Target = KvSession<i8>;
    fn deref(&self) -> &KvSession<i8> {
        &self.kv
    }
}

impl DerefMut for QuantIncrementalSession {
    fn deref_mut(&mut self) -> &mut KvSession<i8> {
        &mut self.kv
    }
}

/// The cached-KV operator graph shared by every decoder MHA ResBlock
/// (all layers have the same `d_model`/`h`, so one graph serves all).
fn cached_graph(block: &QuantMhaResBlock) -> Graph {
    graph::mha_cached_graph(&block.graph_config())
}

/// One cached-attention ResBlock applied to a single row of codes,
/// through [`QuantRowExec`]'s zero-allocation scratch path. `p_buf`
/// (1 × d_model) receives the concatenated requantized head outputs;
/// every column is written, so its previous contents are irrelevant.
fn resblock_row(
    g: &Graph,
    block: &QuantMhaResBlock,
    x_row: &Mat<i8>,
    keys: CacheRef<'_>,
    vals: CacheRef<'_>,
    p_buf: &mut Mat<i8>,
) -> Mat<i8> {
    let mut exec = QuantRowExec::with_scratch(block, p_buf);
    let mut env = exec.run(
        g,
        vec![
            ("x", QRowVal::Codes(x_row.clone())),
            ("keys", QRowVal::Caches(vec![keys])),
            ("vals", QRowVal::Caches(vec![vals])),
        ],
        None,
    );
    env.take("y").into_codes()
}

/// One cached-attention ResBlock applied to per-session multi-row
/// chunks through [`QuantRowExec::prefill`]. `groups[i]` consecutive
/// rows of `x` belong to session `i` and attend over cache `i`; with
/// `causal` set the executor masks each row's intra-chunk future, so
/// the chunk is bit-identical to feeding its rows one step at a time.
fn resblock_chunks(
    g: &Graph,
    block: &QuantMhaResBlock,
    x: &Mat<i8>,
    groups: &[usize],
    keys: Vec<CacheRef<'_>>,
    vals: Vec<CacheRef<'_>>,
    causal: bool,
) -> Mat<i8> {
    let mut exec = QuantRowExec::prefill(block, groups, causal);
    let mut env = exec.run(
        g,
        vec![
            ("x", QRowVal::Codes(x.clone())),
            ("keys", QRowVal::Caches(keys)),
            ("vals", QRowVal::Caches(vals)),
        ],
        None,
    );
    env.take("y").into_codes()
}

impl QuantSeq2Seq {
    /// Opens an incremental decoding session in `arena`: encodes `src`
    /// and precomputes each decoder layer's cross-attention K/V codes.
    /// Self-attention KV pages are allocated on demand as tokens are
    /// consumed — a fresh session holds no pages.
    ///
    /// # Panics
    ///
    /// Panics if `src` is empty.
    pub fn start_session(&self, arena: &mut KvArena, src: &[usize]) -> QuantIncrementalSession {
        assert!(!src.is_empty(), "source must be non-empty");
        let memory = self.encode(src);
        let cross = self.decoder_layers().iter().map(|layer| {
            let (_, wk, wv, _) = layer.cross_mha.projections();
            (wk.forward(&memory), wv.forward(&memory))
        });
        QuantIncrementalSession {
            kv: KvSession::new(arena, cross),
            p_buf: Mat::zeros(1, memory.cols()),
        }
    }

    /// Feeds one target token and returns the next-token logits (FP32,
    /// from the output projection). Bit-identical to the full-prefix
    /// decode at the same position.
    pub fn step_session(
        &self,
        arena: &mut KvArena,
        session: &mut QuantIncrementalSession,
        token: usize,
    ) -> Vec<f32> {
        let emb = self.tgt_embedding().embed_at(token, session.pos());
        let emb_row = Mat::from_vec(1, emb.len(), emb).expect("row");
        let mut x = self.decoder_layers()[0].self_mha.quantize_input_q(&emb_row);
        let g = cached_graph(&self.decoder_layers()[0].self_mha);
        let QuantIncrementalSession { kv, p_buf } = session;
        for (l, layer) in self.decoder_layers().iter().enumerate() {
            // Extend the projected self-attention cache with this row.
            let (_, wk, wv, _) = layer.self_mha.projections();
            let k_new = wk.forward(&x);
            let v_new = wv.forward(&x);
            kv.push_kv(arena, l, k_new.row(0), v_new.row(0));
            let (self_k, self_v) = kv.self_kv(l);
            let a = resblock_row(
                &g,
                &layer.self_mha,
                &x,
                CacheRef::paged(arena.key_pool(), self_k),
                CacheRef::paged(arena.val_pool(), self_v),
                p_buf,
            );
            let (cross_k, cross_v) = kv.cross_kv(l);
            let b = resblock_row(
                &g,
                &layer.cross_mha,
                &a,
                CacheRef::flat(cross_k),
                CacheRef::flat(cross_v),
                p_buf,
            );
            let (c, _) = layer.ffn.forward(&b);
            x = c;
        }
        kv.advance(1);
        let last_ffn = &self.decoder_layers().last().expect("nonempty decoder").ffn;
        let x_f32 = last_ffn.dequantize_output(&x);
        self.output_projection_logits(&x_f32)
    }

    /// Advances several sessions by one token each, batching the GEMMs:
    /// the active rows are stacked into one `b × d_model` matrix and each
    /// layer's `W_K`/`W_V`/`W_Q`/`W_G` projections, FFN sublayers and the
    /// final output projection run **once** over all rows, while the
    /// per-session attention (whose cache lengths differ) fans out across
    /// threads. Row `r`'s logits are bit-identical to
    /// [`QuantSeq2Seq::step_session`] on session `r` alone — the GEMM
    /// kernels never reorder a row's accumulation — so continuous
    /// batching cannot change any decode.
    ///
    /// Sessions may sit at different positions; each token is embedded at
    /// its own session's position.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty or its length differs from
    /// `tokens`'.
    pub fn step_sessions(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        tokens: &[usize],
    ) -> Vec<Vec<f32>> {
        assert_eq!(sessions.len(), tokens.len(), "one token per session");
        let chunks: Vec<&[usize]> = tokens.chunks(1).collect();
        self.prefill_sessions(arena, sessions, &chunks)
    }

    /// Consumes a multi-token **chunk** per session in one pass — the
    /// chunked-prefill step. Chunk rows are stacked across sessions into
    /// one matrix, so each layer's projections, output matmul and FFN
    /// run as a single GEMM over `sum(chunk lengths)` rows; per-session
    /// attention (with the executor's intra-chunk causal mask) fans out
    /// across threads. Returns each session's **last-row** logits — the
    /// next-token distribution after its chunk — bit-identical to
    /// feeding the same tokens one [`step_session`] at a time (masked
    /// softmax columns produce exactly-zero probability codes, which
    /// contribute nothing to the context GEMM).
    ///
    /// Chunks may have different lengths; a length-1 chunk is exactly a
    /// decode step, so prefill chunks and decode steps can share one
    /// batched call.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty, lengths differ, or any chunk is
    /// empty.
    ///
    /// [`step_session`]: QuantSeq2Seq::step_session
    pub fn prefill_sessions(
        &self,
        arena: &mut KvArena,
        sessions: &mut [&mut QuantIncrementalSession],
        chunks: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        assert_eq!(sessions.len(), chunks.len(), "one chunk per session");
        assert!(!sessions.is_empty(), "empty step batch");
        assert!(
            chunks.iter().all(|c| !c.is_empty()),
            "prefill chunks must be non-empty"
        );
        let b = sessions.len();
        let d_model = self.tgt_embedding().d_model();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        let groups: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let mut emb = Mat::zeros(total, d_model);
        let mut r = 0;
        for (session, chunk) in sessions.iter().zip(chunks) {
            for (j, &token) in chunk.iter().enumerate() {
                emb.row_mut(r)
                    .copy_from_slice(&self.tgt_embedding().embed_at(token, session.pos() + j));
                r += 1;
            }
        }
        let mut x = self.decoder_layers()[0].self_mha.quantize_input_q(&emb);
        let g = cached_graph(&self.decoder_layers()[0].self_mha);
        for (l, layer) in self.decoder_layers().iter().enumerate() {
            // Extend every session's projected self-attention cache with
            // its chunk's rows of this step's batched K/V projections.
            let (_, wk, wv, _) = layer.self_mha.projections();
            let k_new = wk.forward(&x);
            let v_new = wv.forward(&x);
            let mut r0 = 0;
            for (session, chunk) in sessions.iter_mut().zip(chunks) {
                for j in 0..chunk.len() {
                    session.push_kv(arena, l, k_new.row(r0 + j), v_new.row(r0 + j));
                }
                r0 += chunk.len();
            }
            let a = resblock_chunks(
                &g,
                &layer.self_mha,
                &x,
                &groups,
                sessions
                    .iter()
                    .map(|s| CacheRef::paged(arena.key_pool(), s.self_kv(l).0))
                    .collect(),
                sessions
                    .iter()
                    .map(|s| CacheRef::paged(arena.val_pool(), s.self_kv(l).1))
                    .collect(),
                true,
            );
            let bm = resblock_chunks(
                &g,
                &layer.cross_mha,
                &a,
                &groups,
                sessions
                    .iter()
                    .map(|s| CacheRef::flat(s.cross_kv(l).0))
                    .collect(),
                sessions
                    .iter()
                    .map(|s| CacheRef::flat(s.cross_kv(l).1))
                    .collect(),
                false,
            );
            let (c, _) = layer.ffn.forward(&bm);
            x = c;
        }
        for (session, chunk) in sessions.iter_mut().zip(chunks) {
            session.advance(chunk.len());
        }
        // Only each session's last chunk row carries next-token logits;
        // gather those b rows and project once.
        let last_ffn = &self.decoder_layers().last().expect("nonempty decoder").ffn;
        let mut last = Mat::zeros(b, d_model);
        let mut r0 = 0;
        for (i, chunk) in chunks.iter().enumerate() {
            r0 += chunk.len();
            last.row_mut(i).copy_from_slice(x.row(r0 - 1));
        }
        let last_f32 = last_ffn.dequantize_output(&last);
        let logits = self.output_projection_rows(&last_f32);
        (0..b).map(|i| logits.row(i).to_vec()).collect()
    }

    /// Greedy decoding through the INT8 KV cache (private arena; pages
    /// are reclaimed when it drops).
    pub fn greedy_decode_incremental(&self, src: &[usize], max_len: usize) -> Vec<usize> {
        let mut arena = KvArena::for_model(self);
        let mut session = self.start_session(&mut arena, src);
        let mut out = Vec::new();
        let mut token = BOS;
        for _ in 0..max_len {
            let logits = self.step_session(&mut arena, &mut session, token);
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            out.push(next);
            token = next;
        }
        out
    }

    /// Sequential (token-at-a-time) reference for prompted decoding:
    /// feeds `BOS` then every prompt token through single-row steps,
    /// then greedily generates up to `max_new` tokens. Returns only the
    /// generated tokens. The chunked-prefill serving path must match
    /// this bit for bit — it is the differential test's golden path and
    /// the throughput bench's "token-at-a-time prompt ingestion"
    /// baseline.
    pub fn greedy_decode_with_prompt(
        &self,
        src: &[usize],
        prompt: &[usize],
        max_new: usize,
    ) -> Vec<usize> {
        let mut arena = KvArena::for_model(self);
        let mut session = self.start_session(&mut arena, src);
        let mut logits = self.step_session(&mut arena, &mut session, BOS);
        for &t in prompt {
            logits = self.step_session(&mut arena, &mut session, t);
        }
        let mut out = Vec::new();
        for _ in 0..max_new {
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            out.push(next);
            logits = self.step_session(&mut arena, &mut session, next);
        }
        out
    }
}

impl QuantIncrementalSession {
    /// Rewinds the session by one step — the recovery primitive the
    /// serving layer's retry-on-detected-fault path is built on (see
    /// [`KvSession::rollback_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if the session has not consumed any tokens yet.
    pub fn rollback_step(&mut self, arena: &mut KvArena) {
        self.kv.rollback_rows(arena, 1);
    }

    /// [`KvSession::rollback_rows`], callable as
    /// `s.rollback_rows(arena, s.pos() - n)` (a method reached through
    /// `DerefMut` cannot read `s` in its arguments).
    pub fn rollback_rows(&mut self, arena: &mut KvArena, rows: usize) {
        self.kv.rollback_rows(arena, rows);
    }

    /// Forks this session (see [`KvSession::fork`]): full KV pages are
    /// shared with the parent, divergent pushes copy-on-write. This is
    /// the primitive the serving layer's shared-prefix cache hits fork
    /// on admission.
    pub fn fork(&self, arena: &mut KvArena) -> QuantIncrementalSession {
        QuantIncrementalSession {
            kv: self.kv.fork(arena),
            p_buf: Mat::zeros(1, self.p_buf.cols()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::model::Seq2SeqTransformer;
    use transformer::tasks::{Task, TaskGen};

    #[allow(clippy::type_complexity)]
    fn setup() -> (QuantSeq2Seq, Vec<(Vec<usize>, Vec<usize>)>) {
        let mut cfg = ModelConfig::tiny_for_tests();
        cfg.n_layers = 2;
        let mut rng = StdRng::seed_from_u64(21);
        let model = Seq2SeqTransformer::new(&cfg, &mut rng);
        let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
        let corpus = gen.corpus(5, &mut StdRng::seed_from_u64(22));
        (
            QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware),
            corpus,
        )
    }

    #[test]
    fn incremental_decode_is_bit_identical_to_full() {
        let (q, corpus) = setup();
        for (src, _) in &corpus {
            let full = q.greedy_decode(src, BOS, EOS, 8);
            let inc = q.greedy_decode_incremental(src, 8);
            assert_eq!(full, inc, "src {src:?}");
        }
    }

    #[test]
    fn step_logits_match_teacher_forced_last_row() {
        let (q, corpus) = setup();
        let (src, tgt) = &corpus[0];
        let mut tin = vec![BOS];
        tin.extend_from_slice(tgt);
        let full = q.forward_logits(src, &tin);
        let mut arena = KvArena::for_model(&q);
        let mut session = q.start_session(&mut arena, src);
        let mut got = Vec::new();
        for &t in &tin {
            got = q.step_session(&mut arena, &mut session, t);
        }
        let want = full.row(tin.len() - 1);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g, w, "logits must be bit-identical");
        }
    }

    #[test]
    fn session_bookkeeping() {
        let (q, corpus) = setup();
        let (src, _) = &corpus[1];
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        assert_eq!(s.pos(), 0);
        assert_eq!(s.memory_rows(), src.len());
        let _ = q.step_session(&mut arena, &mut s, BOS);
        assert_eq!(s.pos(), 1);
    }

    #[test]
    fn kv_pages_allocate_on_demand_and_release() {
        // The old path reserved max_len rows per layer up front; the
        // paged arena must hold zero pages for a fresh session, grow one
        // page per pool per layer on the first step, and return
        // everything on release.
        let (q, corpus) = setup();
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        assert_eq!(s.resident_kv_bytes(&arena), 0);
        let _ = q.step_session(&mut arena, &mut s, BOS);
        let n_layers = 2;
        let one_page = 4 * d_model;
        assert_eq!(arena.kv_bytes_in_use(), n_layers * 2 * one_page);
        // Steps 2..4 fit in the same pages; step 5 opens new ones.
        for t in 0..3 {
            let _ = q.step_session(&mut arena, &mut s, 3 + t);
        }
        assert_eq!(arena.kv_bytes_in_use(), n_layers * 2 * one_page);
        let _ = q.step_session(&mut arena, &mut s, 5);
        assert_eq!(arena.kv_bytes_in_use(), 2 * n_layers * 2 * one_page);
        assert_eq!(s.resident_kv_bytes(&arena), arena.kv_bytes_in_use());
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
        // A new session reuses the freed pages without fresh allocation.
        let allocated = arena.kv_bytes_allocated();
        let mut s2 = q.start_session(&mut arena, &corpus[1].0);
        for t in 0..5 {
            let _ = q.step_session(&mut arena, &mut s2, 3 + t);
        }
        assert_eq!(arena.kv_bytes_allocated(), allocated);
    }

    #[test]
    fn batched_step_is_bit_identical_to_single_steps() {
        // Advance the same sources once through step_session and once
        // through step_sessions (all together): every logit must match
        // bit for bit, even with sessions at different positions.
        let (q, corpus) = setup();
        let srcs: Vec<&Vec<usize>> = corpus.iter().map(|(s, _)| s).collect();
        let mut arena_s = KvArena::for_model(&q);
        let mut arena_b = KvArena::for_model(&q);
        let mut singles: Vec<QuantIncrementalSession> = srcs
            .iter()
            .map(|s| q.start_session(&mut arena_s, s))
            .collect();
        let mut batched: Vec<QuantIncrementalSession> = srcs
            .iter()
            .map(|s| q.start_session(&mut arena_b, s))
            .collect();
        // Desynchronize positions: pre-step a prefix of the sessions.
        for (i, (single, batch)) in singles.iter_mut().zip(&mut batched).enumerate().take(2) {
            let tok = 3 + i;
            let a = q.step_session(&mut arena_s, single, tok);
            let b = q.step_sessions(&mut arena_b, &mut [batch], &[tok]);
            assert_eq!(a, b[0]);
        }
        let tokens: Vec<usize> = (0..srcs.len()).map(|i| BOS + i % 3).collect();
        let want: Vec<Vec<f32>> = singles
            .iter_mut()
            .zip(&tokens)
            .map(|(s, &t)| q.step_session(&mut arena_s, s, t))
            .collect();
        let mut refs: Vec<&mut QuantIncrementalSession> = batched.iter_mut().collect();
        let got = q.step_sessions(&mut arena_b, &mut refs, &tokens);
        assert_eq!(want, got);
        for (s, b) in singles.iter().zip(&batched) {
            assert_eq!(s.pos(), b.pos());
            for l in 0..q.decoder_layers().len() {
                let ((ks, vs), (kb, vb)) = (s.self_kv(l), b.self_kv(l));
                assert_eq!(arena_s.key_pool().to_mat(ks), arena_b.key_pool().to_mat(kb));
                assert_eq!(arena_s.val_pool().to_mat(vs), arena_b.val_pool().to_mat(vb));
            }
        }
    }

    #[test]
    fn chunked_prefill_is_bit_identical_to_sequential_steps() {
        // The same prompt consumed in one chunk, in page-straddling
        // chunks, and token-at-a-time must leave bit-identical caches
        // and produce bit-identical next-token logits.
        let (q, corpus) = setup();
        let (src, tgt) = &corpus[0];
        let mut prompt = vec![BOS];
        prompt.extend_from_slice(tgt);
        prompt.extend(corpus[1].1.iter().copied());
        let d_model = q.tgt_embedding().d_model();

        // Sequential reference (page height 3 forces mid-chunk page
        // boundaries for every split below).
        let mut arena_ref = KvArena::with_page_rows(d_model, 3);
        let mut s_ref = q.start_session(&mut arena_ref, src);
        let mut want = Vec::new();
        for &t in &prompt {
            want = q.step_session(&mut arena_ref, &mut s_ref, t);
        }

        for split in [prompt.len(), 1, 3, 5] {
            let mut arena = KvArena::with_page_rows(d_model, 3);
            let mut s = q.start_session(&mut arena, src);
            let mut got = Vec::new();
            for chunk in prompt.chunks(split) {
                got = q
                    .prefill_sessions(&mut arena, &mut [&mut s], &[chunk])
                    .remove(0);
            }
            assert_eq!(want, got, "chunk size {split}");
            assert_eq!(s.pos(), s_ref.pos());
            for l in 0..q.decoder_layers().len() {
                assert_eq!(
                    arena.key_pool().to_mat(s.self_kv(l).0),
                    arena_ref.key_pool().to_mat(s_ref.self_kv(l).0),
                    "chunk size {split}"
                );
            }
        }
    }

    #[test]
    fn mixed_prefill_and_decode_chunks_are_bit_identical() {
        // One call carrying a 4-row prefill chunk for one session and a
        // 1-row decode step for another must match the two advanced
        // separately.
        let (q, corpus) = setup();
        let chunk: Vec<usize> = vec![BOS, 3, 4, 5];
        let mut arena = KvArena::for_model(&q);
        let mut a = q.start_session(&mut arena, &corpus[0].0);
        let mut b = q.start_session(&mut arena, &corpus[1].0);
        let _ = q.step_session(&mut arena, &mut b, BOS);

        let mut arena2 = KvArena::for_model(&q);
        let mut a2 = q.start_session(&mut arena2, &corpus[0].0);
        let mut b2 = q.start_session(&mut arena2, &corpus[1].0);
        let _ = q.step_session(&mut arena2, &mut b2, BOS);

        let want_a = q.prefill_sessions(&mut arena, &mut [&mut a], &[&chunk]);
        let want_b = q.step_session(&mut arena, &mut b, 7);
        let got = q.prefill_sessions(&mut arena2, &mut [&mut a2, &mut b2], &[&chunk, &[7usize]]);
        assert_eq!(got[0], want_a[0]);
        assert_eq!(got[1], want_b);
    }

    #[test]
    fn prompted_decode_matches_chunked_prefill_continuation() {
        let (q, corpus) = setup();
        let (src, tgt) = &corpus[2];
        let want = q.greedy_decode_with_prompt(src, tgt, 6);
        // Chunked path: prefill [BOS] + prompt in one chunk, then decode.
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        let mut chunk = vec![BOS];
        chunk.extend_from_slice(tgt);
        let mut logits = q
            .prefill_sessions(&mut arena, &mut [&mut s], &[&chunk])
            .remove(0);
        let mut got = Vec::new();
        for _ in 0..6 {
            let next = tensor::ops::argmax(&logits);
            if next == EOS {
                break;
            }
            got.push(next);
            logits = q.step_session(&mut arena, &mut s, next);
        }
        assert_eq!(want, got);
    }

    #[test]
    fn rollback_then_restep_is_bit_identical() {
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, src);
        let first = q.step_session(&mut arena, &mut s, BOS);
        let second = q.step_session(&mut arena, &mut s, 4);
        // Rewind the second step and replay it: logits and caches must
        // come back bit-identical.
        s.rollback_step(&mut arena);
        assert_eq!(s.pos(), 1);
        let replay = q.step_session(&mut arena, &mut s, 4);
        assert_eq!(second, replay);
        // Rewind everything and replay both steps.
        s.rollback_step(&mut arena);
        s.rollback_step(&mut arena);
        assert_eq!(s.pos(), 0);
        for l in 0..q.decoder_layers().len() {
            assert_eq!(s.self_kv(l).0.rows(), 0);
            assert_eq!(s.self_kv(l).1.rows(), 0);
        }
        assert_eq!(first, q.step_session(&mut arena, &mut s, BOS));
        assert_eq!(second, q.step_session(&mut arena, &mut s, 4));
    }

    #[test]
    fn chunk_rollback_across_page_boundary_is_bit_identical() {
        // Consume a chunk that straddles a page boundary, roll the whole
        // chunk back (pages must return to the free list), and replay:
        // the logits must be bit-identical to the first attempt.
        let (q, corpus) = setup();
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        let warm: Vec<usize> = vec![BOS, 3];
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&warm]);
        let chunk: Vec<usize> = vec![4, 5, 6, 7]; // rows 2..6: straddles page 0/1
        let first = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let pages_after = arena.pages_in_use();
        s.rollback_rows(&mut arena, chunk.len());
        assert_eq!(s.pos(), 2);
        assert!(arena.pages_in_use() < pages_after, "rollback frees pages");
        let replay = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        assert_eq!(first, replay);
        assert_eq!(arena.pages_in_use(), pages_after);
    }

    #[test]
    fn forked_session_decodes_bit_identically_and_shares_pages() {
        // Fork a session at a page-aligned position: zero extra KV
        // bytes, and the fork's continued decode is bit-identical to an
        // independent cold session fed the same tokens — while the
        // parent's own continuation stays undisturbed.
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let d_model = q.tgt_embedding().d_model();
        let chunk: Vec<usize> = vec![BOS, 3, 4, 5, 6, 7, 3, 4]; // 2 pages of 4
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, src);
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let bytes_before = arena.kv_bytes_in_use();
        let mut f = s.fork(&mut arena);
        assert_eq!(f.pos(), s.pos());
        assert_eq!(
            arena.kv_bytes_in_use(),
            bytes_before,
            "page-aligned fork must not copy KV"
        );
        // Cold reference for the fork's continuation.
        let mut arena_ref = KvArena::with_page_rows(d_model, 4);
        let mut r = q.start_session(&mut arena_ref, src);
        let _ = q.prefill_sessions(&mut arena_ref, &mut [&mut r], &[&chunk]);
        // Diverge: fork takes token 5, parent takes token 6.
        let got_f = q.step_session(&mut arena, &mut f, 5);
        let want_f = q.step_session(&mut arena_ref, &mut r, 5);
        assert_eq!(want_f, got_f, "forked decode diverged from cold start");
        let mut arena_ref2 = KvArena::with_page_rows(d_model, 4);
        let mut r2 = q.start_session(&mut arena_ref2, src);
        let _ = q.prefill_sessions(&mut arena_ref2, &mut [&mut r2], &[&chunk]);
        let got_p = q.step_session(&mut arena, &mut s, 6);
        let want_p = q.step_session(&mut arena_ref2, &mut r2, 6);
        assert_eq!(want_p, got_p, "parent decode perturbed by fork");
        // Independent teardown releases every page.
        f.release(&mut arena);
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    fn fork_then_truncate_gives_page_aligned_prefix_sharing() {
        // The prefix-cache insertion path: fork a live session, roll
        // the fork back to a page boundary, keep it as the cached
        // snapshot. The snapshot must hold only shared pages (zero
        // extra bytes) and replaying from it must be bit-identical.
        let (q, corpus) = setup();
        let (src, _) = &corpus[0];
        let d_model = q.tgt_embedding().d_model();
        let mut arena = KvArena::with_page_rows(d_model, 4);
        let mut s = q.start_session(&mut arena, src);
        let chunk: Vec<usize> = vec![BOS, 3, 4, 5, 6, 7]; // 6 rows: page + tail
        let _ = q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk]);
        let bytes_live = arena.kv_bytes_in_use();
        let mut snap = s.fork(&mut arena);
        snap.rollback_rows(&mut arena, 2); // back to the page boundary
        assert_eq!(snap.pos(), 4);
        assert_eq!(
            arena.kv_bytes_in_use(),
            bytes_live,
            "aligned snapshot must cost zero extra pages"
        );
        // A hit: fork the snapshot and replay the suffix on it.
        let mut hit = snap.fork(&mut arena);
        let mut logits = Vec::new();
        for &t in &chunk[4..] {
            logits = q.step_session(&mut arena, &mut hit, t);
        }
        // Cold reference.
        let mut arena_ref = KvArena::with_page_rows(d_model, 4);
        let mut r = q.start_session(&mut arena_ref, src);
        let mut want = Vec::new();
        for &t in &chunk {
            want = q.step_session(&mut arena_ref, &mut r, t);
        }
        assert_eq!(want, logits, "replay from shared snapshot diverged");
        hit.release(&mut arena);
        snap.release(&mut arena);
        s.release(&mut arena);
        assert_eq!(arena.kv_bytes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "rollback_step on a fresh session")]
    fn rollback_on_fresh_session_panics() {
        let (q, corpus) = setup();
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        s.rollback_step(&mut arena);
    }

    #[test]
    #[should_panic(expected = "one token per session")]
    fn batched_step_rejects_length_mismatch() {
        let (q, corpus) = setup();
        let mut arena = KvArena::for_model(&q);
        let mut s = q.start_session(&mut arena, &corpus[0].0);
        let _ = q.step_sessions(&mut arena, &mut [&mut s], &[BOS, BOS]);
    }

    #[test]
    fn works_in_fp32_softmax_mode_too() {
        let (mut q, corpus) = setup();
        q.set_softmax_mode(SoftmaxMode::Fp32);
        let (src, _) = &corpus[2];
        assert_eq!(
            q.greedy_decode(src, BOS, EOS, 8),
            q.greedy_decode_incremental(src, 8)
        );
    }
}
