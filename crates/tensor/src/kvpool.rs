//! Paged block storage for incremental-decoding KV caches, and the one
//! KV arena and session both decoders keep their caches in.
//!
//! [`KvPool`] is the classic paged layout: storage is a set of
//! fixed-size **pages** (`page_rows × cols` each), a free list recycles
//! pages across sessions, and every sequence is a [`KvSeq`] *block
//! table* — an ordered list of page indices plus a logical row count.
//! Sequences allocate pages on demand as rows are pushed, shrink across
//! page boundaries on rollback, and release every page copy-free on
//! retirement.
//!
//! On top of it, [`KvArena`] holds a model's K and V pools and
//! [`KvSession`] one decoding session's per-layer block tables, fixed
//! cross-attention K/V and position, with the session operations
//! (fork, rollback, release, resident bytes). Both are generic over the
//! element type: the FP32 decoder (`transformer::incremental`) caches
//! f32 rows and the INT8 decoder (`quantized::incremental`) caches i8
//! codes through the same code; each decoder only computes the rows.
//!
//! **Bit-identity:** a page stores exactly the rows that a flat `Mat`
//! would hold, in the same order; [`KvPool::gather_panel`] copies them
//! out row by row, so any kernel consuming a gathered panel sees the
//! same bytes it would have read from the flat cache. (The attention
//! executors already copy per-head panels out of flat caches, so the
//! gather is cost-neutral — one copy either way.)
//!
//! **Sharing:** pages are reference-counted, so a sequence can be
//! [`KvPool::fork`]ed in O(pages) without copying KV bytes: full pages
//! are shared (refcount bumped), only the partially-filled tail page is
//! copied. Writes go through [`KvPool::push_row`], which copies a
//! shared page before mutating it (copy-on-write), so no write is ever
//! visible through a sibling fork; [`KvPool::truncate`] and
//! [`KvPool::release`] decrement refcounts and recycle a page only when
//! the last holder lets go. This is what the serving layer's
//! shared-prefix cache is built on.
//!
//! The page size is tunable via the `ACCEL_KV_PAGE` environment
//! variable (see [`page_rows_from_env`]); CI runs a tiny-page stress
//! matrix so page-boundary paths are exercised on every change.

use crate::Mat;

/// Default page height (rows per page) when `ACCEL_KV_PAGE` is unset.
pub const DEFAULT_PAGE_ROWS: usize = 16;

/// Reads the page height from the `ACCEL_KV_PAGE` environment variable,
/// falling back to `default`. Parsed on every call (cheap — once per
/// arena construction), so tests and CI matrices can vary it without
/// process-global caching. Parsing lives in [`crate::envcfg`].
pub fn page_rows_from_env(default: usize) -> usize {
    crate::envcfg::kv_page_rows(default)
}

/// A sequence's block table: the ordered pages it owns inside one
/// [`KvPool`], plus its logical row count. Create with [`KvSeq::new`],
/// grow with [`KvPool::push_row`], shrink with [`KvPool::truncate`],
/// and hand back with [`KvPool::release`].
///
/// A `KvSeq` is only meaningful against the pool that grew it; the
/// pool's accessors assert index validity in debug builds.
///
/// Deliberately **not** `Clone`: duplicating a block table without
/// touching the pool's refcounts would alias pages invisibly. Use
/// [`KvPool::fork`] to share a sequence.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct KvSeq {
    pages: Vec<usize>,
    rows: usize,
}

impl KvSeq {
    /// An empty sequence holding no pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logical rows pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Pages currently held (resident, whether full or partial).
    pub fn pages_held(&self) -> usize {
        self.pages.len()
    }

    /// The pool page indices this sequence holds, in logical order.
    /// Exposed so byte accounting can count a page shared by several
    /// sequences exactly once (dedupe on `(pool, page)` identity).
    pub fn page_ids(&self) -> &[usize] {
        &self.pages
    }
}

/// A shared pool of fixed-size `page_rows × cols` pages with free-list
/// recycling. One pool serves every session and layer of a model side
/// (all caches share `cols = d_model`).
#[derive(Debug, Clone)]
pub struct KvPool<T> {
    page_rows: usize,
    cols: usize,
    pages: Vec<Mat<T>>,
    /// Per-page reference count, parallel to `pages`. `0` means the
    /// page sits on the free list; forking a sequence bumps the count
    /// of every shared page.
    refs: Vec<u32>,
    free: Vec<usize>,
}

impl<T: Copy + Default> KvPool<T> {
    /// A pool of `page_rows × cols` pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows` or `cols` is zero.
    pub fn new(page_rows: usize, cols: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be positive");
        assert!(cols > 0, "cols must be positive");
        Self {
            page_rows,
            cols,
            pages: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pages handed out to live sequences.
    pub fn pages_in_use(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Pages on the free list, ready for reuse.
    pub fn pages_free(&self) -> usize {
        self.free.len()
    }

    /// Bytes resident in pages currently held by sequences. Free-listed
    /// pages are excluded — they are reusable capacity, not live KV.
    pub fn bytes_in_use(&self) -> usize {
        self.pages_in_use() * self.page_rows * self.cols * std::mem::size_of::<T>()
    }

    /// Bytes ever allocated (live + free-listed pages) — the pool's
    /// high-water footprint.
    pub fn bytes_allocated(&self) -> usize {
        self.pages.len() * self.page_rows * self.cols * std::mem::size_of::<T>()
    }

    /// Rows of page storage resident for `seq` (its logical rows rounded
    /// up to whole pages).
    pub fn resident_rows(&self, seq: &KvSeq) -> usize {
        seq.pages.len() * self.page_rows
    }

    fn acquire_page(&mut self) -> usize {
        if let Some(i) = self.free.pop() {
            debug_assert_eq!(self.refs[i], 0, "free page {i} still referenced");
            self.refs[i] = 1;
            return i;
        }
        self.pages.push(Mat::zeros(self.page_rows, self.cols));
        self.refs.push(1);
        self.pages.len() - 1
    }

    /// Reference count of pool page `page` (`0` = on the free list).
    pub fn page_ref(&self, page: usize) -> u32 {
        self.refs[page]
    }

    /// Ensures `seq`'s page `p` is exclusively owned, copying the first
    /// `valid_rows` rows into a fresh page if it is shared — the
    /// copy-on-write step. Returns the (possibly new) pool page index.
    fn ensure_exclusive(&mut self, seq: &mut KvSeq, p: usize, valid_rows: usize) -> usize {
        let old = seq.pages[p];
        if self.refs[old] <= 1 {
            return old;
        }
        let fresh = self.acquire_page();
        for r in 0..valid_rows {
            let row = self.pages[old].row(r).to_vec();
            self.pages[fresh].row_mut(r).copy_from_slice(&row);
        }
        self.refs[old] -= 1;
        seq.pages[p] = fresh;
        fresh
    }

    /// Appends one row to `seq`, allocating a page on demand when the
    /// sequence's last page is full. If the target page is shared with
    /// a fork, it is copied first (copy-on-write) so the write is never
    /// visible through a sibling sequence.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, seq: &mut KvSeq, row: &[T]) {
        assert_eq!(
            row.len(),
            self.cols,
            "push_row width {} != cols {}",
            row.len(),
            self.cols
        );
        if seq.rows == seq.pages.len() * self.page_rows {
            let page = self.acquire_page();
            seq.pages.push(page);
        }
        let p = seq.rows / self.page_rows;
        let r = seq.rows % self.page_rows;
        let page = self.ensure_exclusive(seq, p, r);
        self.pages[page].row_mut(r).copy_from_slice(row);
        seq.rows += 1;
    }

    /// Forks `seq`: the returned sequence sees exactly the same logical
    /// rows, sharing every full page with the parent (refcount bump, no
    /// copy) and copying only the partially-filled tail page. O(pages)
    /// plus at most one page copy, regardless of sequence length.
    ///
    /// Parent and child are symmetric afterwards: either may push,
    /// truncate, or release independently; writes to shared pages go
    /// through copy-on-write in [`KvPool::push_row`].
    pub fn fork(&mut self, seq: &KvSeq) -> KvSeq {
        let full = seq.rows / self.page_rows;
        let tail_rows = seq.rows % self.page_rows;
        let mut pages = Vec::with_capacity(seq.pages.len());
        for &p in &seq.pages[..full] {
            self.refs[p] += 1;
            pages.push(p);
        }
        if tail_rows > 0 {
            let src = seq.pages[full];
            let fresh = self.acquire_page();
            for r in 0..tail_rows {
                let row = self.pages[src].row(r).to_vec();
                self.pages[fresh].row_mut(r).copy_from_slice(&row);
            }
            pages.push(fresh);
        }
        KvSeq {
            pages,
            rows: seq.rows,
        }
    }

    /// Borrow of `seq`'s logical row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= seq.rows()`.
    pub fn row<'a>(&'a self, seq: &KvSeq, r: usize) -> &'a [T] {
        assert!(r < seq.rows, "row {r} out of bounds ({})", seq.rows);
        self.pages[seq.pages[r / self.page_rows]].row(r % self.page_rows)
    }

    /// Copies `seq`'s rows, columns `c0 .. c0 + width`, into a dense
    /// matrix — the paged equivalent of `Mat::submatrix` over a flat
    /// cache, and bit-identical to it (same values, same order).
    ///
    /// # Panics
    ///
    /// Panics if the column range exceeds the pool width.
    pub fn gather_panel(&self, seq: &KvSeq, c0: usize, width: usize) -> Mat<T> {
        assert!(
            c0 + width <= self.cols,
            "panel {c0}..{} exceeds cols {}",
            c0 + width,
            self.cols
        );
        let mut out = Mat::zeros(seq.rows, width);
        for r in 0..seq.rows {
            let src = self.row(seq, r);
            out.row_mut(r).copy_from_slice(&src[c0..c0 + width]);
        }
        out
    }

    /// Copies all of `seq`'s rows into a dense `rows × cols` matrix.
    pub fn to_mat(&self, seq: &KvSeq) -> Mat<T> {
        self.gather_panel(seq, 0, self.cols)
    }

    /// Shrinks `seq` to its first `rows` rows, dropping this sequence's
    /// reference on now-unused trailing pages; a page is recycled to
    /// the free list only when the last referencing sequence lets go.
    /// Works across page boundaries — truncating from row 17 to row 15
    /// with 16-row pages drops the second page — which is what the
    /// serving layer's rollback-and-recompute relies on. Truncation
    /// never writes page contents, so rolling back into a shared page
    /// is safe: the subsequent re-push copies-on-write.
    ///
    /// # Panics
    ///
    /// Panics if `rows` exceeds the sequence's current row count.
    pub fn truncate(&mut self, seq: &mut KvSeq, rows: usize) {
        assert!(
            rows <= seq.rows,
            "truncate {rows} exceeds current rows {}",
            seq.rows
        );
        seq.rows = rows;
        let needed = rows.div_ceil(self.page_rows);
        while seq.pages.len() > needed {
            let page = seq.pages.pop().expect("len checked");
            debug_assert!(self.refs[page] > 0, "page {page} double-freed");
            self.refs[page] -= 1;
            if self.refs[page] == 0 {
                self.free.push(page);
            }
        }
    }

    /// Drops every page reference `seq` holds, recycling pages whose
    /// last reference this was (copy-free — the page contents are left
    /// in place and overwritten by the next owner).
    pub fn release(&mut self, seq: &mut KvSeq) {
        self.truncate(seq, 0);
    }

    /// Panics unless the pool's accounting matches `seqs`, which must be
    /// every live block table grown in this pool: each page's refcount
    /// equals the number of tables that list it, and
    /// [`KvPool::pages_in_use`] equals the number of referenced pages.
    pub fn check_refcounts<'a>(&self, seqs: impl IntoIterator<Item = &'a KvSeq>) {
        let mut listed = vec![0u32; self.pages.len()];
        for seq in seqs {
            for &p in &seq.pages {
                listed[p] += 1;
            }
        }
        for (p, (&refs, &want)) in self.refs.iter().zip(&listed).enumerate() {
            assert_eq!(
                refs, want,
                "page {p}: refcount {refs} but {want} block tables list it"
            );
        }
        let referenced = self.refs.iter().filter(|&&r| r > 0).count();
        assert_eq!(
            self.pages_in_use(),
            referenced,
            "pages_in_use disagrees with the referenced page count"
        );
    }
}

/// A decoder whose self-attention K/V rows page into a [`KvArena`]:
/// the model fixes the arena's element type and row width.
pub trait KvModel {
    /// Cached element type (f32 rows or INT8 codes).
    type Elem;
    /// Width of a cached K/V row (the decoder's `d_model`).
    fn kv_cols(&self) -> usize;
}

/// The shared paged store for one model's decoder self-attention K/V:
/// one [`KvPool`] for keys and one for values, serving every session
/// and every decoder layer (all caches are `d_model` wide). Create one
/// per engine (or one per decode for the convenience entry points) and
/// pass it to every call on the sessions started in it.
///
/// Page height defaults to [`DEFAULT_PAGE_ROWS`] and is overridable via
/// the `ACCEL_KV_PAGE` environment variable (read at construction).
#[derive(Debug)]
pub struct KvArena<T> {
    k: KvPool<T>,
    v: KvPool<T>,
}

impl<T: Copy + Default> KvArena<T> {
    /// An arena for caches `cols` wide, with the page height taken from
    /// `ACCEL_KV_PAGE` (default [`DEFAULT_PAGE_ROWS`]).
    pub fn new(cols: usize) -> Self {
        Self::with_page_rows(cols, page_rows_from_env(DEFAULT_PAGE_ROWS))
    }

    /// An arena sized for `model`'s decoder caches.
    pub fn for_model<M: KvModel<Elem = T>>(model: &M) -> Self {
        Self::new(model.kv_cols())
    }

    /// An arena with an explicit page height (tests pin this so their
    /// page-boundary assertions hold under any `ACCEL_KV_PAGE`).
    pub fn with_page_rows(cols: usize, page_rows: usize) -> Self {
        Self {
            k: KvPool::new(page_rows, cols),
            v: KvPool::new(page_rows, cols),
        }
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.k.page_rows()
    }

    /// Bytes resident in pages currently held by live sessions (whole
    /// pages, K and V pools together; a shared page counts once) — the
    /// serving memory budget's denominator.
    pub fn kv_bytes_in_use(&self) -> usize {
        self.k.bytes_in_use() + self.v.bytes_in_use()
    }

    /// High-water bytes ever allocated (live + free-listed pages).
    pub fn kv_bytes_allocated(&self) -> usize {
        self.k.bytes_allocated() + self.v.bytes_allocated()
    }

    /// Pages held by live sessions across both pools.
    pub fn pages_in_use(&self) -> usize {
        self.k.pages_in_use() + self.v.pages_in_use()
    }

    /// The key pool (attention kernels read a session's pages from it).
    pub fn key_pool(&self) -> &KvPool<T> {
        &self.k
    }

    /// The value pool.
    pub fn val_pool(&self) -> &KvPool<T> {
        &self.v
    }

    /// Panics unless both pools' refcounts match `sessions`, which must
    /// be every session holding pages in this arena (see
    /// [`KvPool::check_refcounts`]).
    pub fn check_refcounts<'a>(&self, sessions: impl IntoIterator<Item = &'a KvSession<T>>)
    where
        T: 'a,
    {
        let sessions: Vec<&KvSession<T>> = sessions.into_iter().collect();
        let layers = || sessions.iter().flat_map(|s| &s.layers);
        self.k.check_refcounts(layers().map(|l| &l.self_k));
        self.v.check_refcounts(layers().map(|l| &l.self_v));
    }
}

/// One decoder layer's cache: the paged self-attention K/V so far, and
/// the fixed cross-attention K/V of the encoder memory (exact-size flat
/// matrices — their length is the source length, known up front).
#[derive(Debug)]
struct LayerKv<T> {
    self_k: KvSeq,
    self_v: KvSeq,
    cross_k: Mat<T>,
    cross_v: Mat<T>,
}

/// The KV state of one decoding session over one source sentence: per
/// decoder layer, self-attention block tables into the [`KvArena`] the
/// session was started in plus the cross-attention K/V, and the number
/// of target rows consumed. Every method taking an arena must be given
/// that same arena. A fresh session holds no pages; call
/// [`release`](Self::release) when done (dropping a session without
/// releasing it leaks its pages until the arena is dropped).
#[derive(Debug)]
pub struct KvSession<T> {
    layers: Vec<LayerKv<T>>,
    pos: usize,
}

impl<T: Copy + Default> KvSession<T> {
    /// A fresh session (position 0, no pages) over each decoder layer's
    /// cross-attention `(K, V)`.
    ///
    /// # Panics
    ///
    /// Panics if a cross-attention K/V width differs from the arena's.
    pub fn new(arena: &KvArena<T>, cross: impl IntoIterator<Item = (Mat<T>, Mat<T>)>) -> Self {
        let layers = cross
            .into_iter()
            .map(|(cross_k, cross_v)| {
                assert!(
                    cross_k.cols() == arena.k.cols() && cross_v.cols() == arena.v.cols(),
                    "arena width does not match the model's d_model"
                );
                LayerKv {
                    self_k: KvSeq::new(),
                    self_v: KvSeq::new(),
                    cross_k,
                    cross_v,
                }
            })
            .collect();
        Self { layers, pos: 0 }
    }

    /// Target rows consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Encoder memory length the cross-attention attends over.
    pub fn memory_rows(&self) -> usize {
        self.layers.first().map_or(0, |l| l.cross_k.rows())
    }

    /// Layer `layer`'s self-attention `(K, V)` block tables.
    pub fn self_kv(&self, layer: usize) -> (&KvSeq, &KvSeq) {
        let l = &self.layers[layer];
        (&l.self_k, &l.self_v)
    }

    /// Layer `layer`'s cross-attention `(K, V)`.
    pub fn cross_kv(&self, layer: usize) -> (&Mat<T>, &Mat<T>) {
        let l = &self.layers[layer];
        (&l.cross_k, &l.cross_v)
    }

    /// Appends one projected row to layer `layer`'s self-attention K
    /// and V. [`advance`](Self::advance) moves the position once every
    /// layer holds the step's rows.
    pub fn push_kv(&mut self, arena: &mut KvArena<T>, layer: usize, k: &[T], v: &[T]) {
        let l = &mut self.layers[layer];
        arena.k.push_row(&mut l.self_k, k);
        arena.v.push_row(&mut l.self_v, v);
    }

    /// Moves the position past `rows` rows already pushed to every layer.
    pub fn advance(&mut self, rows: usize) {
        self.pos += rows;
    }

    /// Bytes of paged KV storage resident for this session (whole
    /// pages, K and V, all layers; pages shared with a fork count here
    /// too).
    pub fn resident_kv_bytes(&self, arena: &KvArena<T>) -> usize {
        let rows: usize = self
            .layers
            .iter()
            .map(|l| arena.k.resident_rows(&l.self_k) + arena.v.resident_rows(&l.self_v))
            .sum();
        rows * arena.k.cols() * std::mem::size_of::<T>()
    }

    /// Rewinds the session by `rows` steps, dropping the newest cached
    /// K/V rows from every layer. The caches hold *inputs* to the
    /// datapath, so replaying the same tokens afterwards is
    /// bit-identical to the first attempt. A page emptied by the
    /// rollback goes back to the free list once its last reference is
    /// dropped; rolling back into a page shared with a fork never
    /// mutates it (the re-push copies-on-write).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or exceeds the rows consumed.
    pub fn rollback_rows(&mut self, arena: &mut KvArena<T>, rows: usize) {
        assert!(rows > 0, "rollback of zero rows");
        assert!(
            self.pos >= rows,
            "rollback_step on a fresh session (pos {} < rows {rows})",
            self.pos
        );
        self.pos -= rows;
        for l in &mut self.layers {
            arena.k.truncate(&mut l.self_k, self.pos);
            arena.v.truncate(&mut l.self_v, self.pos);
        }
    }

    /// Returns every KV page this session holds to the arena's free
    /// list (copy-free). The session is back to a fresh state
    /// (`pos == 0`) but remains usable.
    pub fn release(&mut self, arena: &mut KvArena<T>) {
        self.pos = 0;
        for l in &mut self.layers {
            arena.k.release(&mut l.self_k);
            arena.v.release(&mut l.self_v);
        }
    }

    /// Forks this session: the child sees the same consumed prefix at
    /// the same position, **sharing** every full KV page with the
    /// parent (refcount bump; only partially-filled tail pages are
    /// copied) and cloning the cross-attention K/V. Parent and child
    /// then advance, roll back and release independently — divergent
    /// pushes copy-on-write, so neither can perturb the other's bits.
    pub fn fork(&self, arena: &mut KvArena<T>) -> Self {
        let layers = self
            .layers
            .iter()
            .map(|l| LayerKv {
                self_k: arena.k.fork(&l.self_k),
                self_v: arena.v.fork(&l.self_v),
                cross_k: l.cross_k.clone(),
                cross_v: l.cross_v.clone(),
            })
            .collect();
        Self {
            layers,
            pos: self.pos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(pool: &mut KvPool<i8>, seq: &mut KvSeq, n: usize, base: i8) {
        for i in 0..n {
            let row = vec![base.wrapping_add(i as i8); pool.cols()];
            pool.push_row(seq, &row);
        }
    }

    #[test]
    fn rows_round_trip_across_pages() {
        let mut pool = KvPool::<i8>::new(4, 3);
        let mut seq = KvSeq::new();
        fill(&mut pool, &mut seq, 10, 1);
        assert_eq!(seq.rows(), 10);
        assert_eq!(seq.pages_held(), 3);
        assert_eq!(pool.resident_rows(&seq), 12);
        for r in 0..10 {
            assert_eq!(pool.row(&seq, r), vec![1 + r as i8; 3].as_slice());
        }
    }

    #[test]
    fn gather_panel_matches_flat_submatrix() {
        let mut pool = KvPool::<i8>::new(3, 8);
        let mut seq = KvSeq::new();
        let flat = Mat::from_fn(7, 8, |r, c| (r * 8 + c) as i8);
        for r in 0..7 {
            pool.push_row(&mut seq, flat.row(r));
        }
        for (c0, w) in [(0usize, 8usize), (2, 4), (6, 2)] {
            assert_eq!(
                pool.gather_panel(&seq, c0, w),
                flat.submatrix(0, c0, 7, w).unwrap()
            );
        }
        assert_eq!(pool.to_mat(&seq), flat);
    }

    #[test]
    fn truncate_frees_pages_across_boundaries() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut seq = KvSeq::new();
        fill(&mut pool, &mut seq, 9, 0); // 3 pages
        pool.truncate(&mut seq, 4); // exactly one page's worth
        assert_eq!(seq.pages_held(), 1);
        assert_eq!(pool.pages_free(), 2);
        // Rollback one row below a boundary from above it.
        fill(&mut pool, &mut seq, 1, 50); // row 4 -> second page
        assert_eq!(seq.pages_held(), 2);
        pool.truncate(&mut seq, 3);
        assert_eq!(seq.pages_held(), 1);
        assert_eq!(pool.row(&seq, 2), &[2, 2]);
    }

    #[test]
    fn release_recycles_pages_to_other_sequences() {
        let mut pool = KvPool::<i8>::new(2, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 6, 1);
        let held = pool.pages_in_use();
        pool.release(&mut a);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(a.rows(), 0);
        let mut b = KvSeq::new();
        fill(&mut pool, &mut b, 6, 9);
        // No fresh allocation was needed.
        assert_eq!(pool.pages_in_use(), held);
        assert_eq!(pool.pages_free(), 0);
        assert_eq!(pool.row(&b, 5), &[14, 14]);
    }

    #[test]
    fn bytes_accounting_tracks_live_pages_only() {
        let mut pool = KvPool::<f32>::new(4, 8);
        assert_eq!(pool.bytes_in_use(), 0);
        let mut seq = KvSeq::new();
        pool.push_row(&mut seq, &[0.0; 8]);
        assert_eq!(pool.bytes_in_use(), 4 * 8 * 4);
        pool.release(&mut seq);
        assert_eq!(pool.bytes_in_use(), 0);
        assert_eq!(pool.bytes_allocated(), 4 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "push_row width")]
    fn wrong_width_rejected() {
        let mut pool = KvPool::<i8>::new(2, 3);
        let mut seq = KvSeq::new();
        pool.push_row(&mut seq, &[1, 2]);
    }

    #[test]
    fn fork_shares_full_pages_and_copies_tail() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 10, 1); // 2 full pages + 2-row tail
        let used_before = pool.pages_in_use();
        let b = pool.fork(&a);
        // Only the tail page is duplicated.
        assert_eq!(pool.pages_in_use(), used_before + 1);
        assert_eq!(b.rows(), 10);
        assert_eq!(a.page_ids()[..2], b.page_ids()[..2]);
        assert_ne!(a.page_ids()[2], b.page_ids()[2]);
        assert_eq!(pool.page_ref(a.page_ids()[0]), 2);
        assert_eq!(pool.to_mat(&a), pool.to_mat(&b));
    }

    #[test]
    fn fork_of_page_aligned_seq_copies_nothing() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1);
        let used = pool.pages_in_use();
        let b = pool.fork(&a);
        assert_eq!(pool.pages_in_use(), used);
        assert_eq!(pool.to_mat(&a), pool.to_mat(&b));
    }

    #[test]
    fn writes_after_fork_are_isolated() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 10, 1);
        let mut b = pool.fork(&a);
        let snap_a = pool.to_mat(&a);
        fill(&mut pool, &mut b, 3, 100); // grows b's private tail
        assert_eq!(pool.to_mat(&a), snap_a);
        assert_eq!(b.rows(), 13);
        assert_eq!(pool.row(&b, 10), &[100, 100]);
    }

    #[test]
    fn rollback_into_shared_page_cows_on_repush() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1); // two full pages
        let mut b = pool.fork(&a); // both pages shared
        assert_eq!(pool.page_ref(a.page_ids()[1]), 2);
        // Roll b back below the page boundary, into the shared page...
        pool.truncate(&mut b, 6);
        let snap_a = pool.to_mat(&a);
        // ...then re-push: the shared page must be copied, not mutated.
        fill(&mut pool, &mut b, 2, 50);
        assert_eq!(pool.to_mat(&a), snap_a, "write leaked through fork");
        assert_eq!(pool.row(&b, 5), &[6, 6]);
        assert_eq!(pool.row(&b, 6), &[50, 50]);
        assert_eq!(pool.page_ref(a.page_ids()[1]), 1);
    }

    #[test]
    fn release_recycles_only_at_refcount_zero() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1);
        let mut b = pool.fork(&a);
        pool.release(&mut a);
        // b still holds both pages; nothing recycled yet.
        assert_eq!(pool.pages_free(), 0);
        assert_eq!(pool.row(&b, 7), &[8, 8]);
        pool.release(&mut b);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.pages_free(), 2);
    }

    #[test]
    fn shared_pages_counted_once_in_bytes_in_use() {
        let mut pool = KvPool::<i8>::new(4, 8);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1); // 2 pages = 64 bytes
        assert_eq!(pool.bytes_in_use(), 64);
        let _b = pool.fork(&a);
        // Fully page-aligned fork: zero extra bytes.
        assert_eq!(pool.bytes_in_use(), 64);
    }

    #[test]
    fn refcount_check_counts_every_holder() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 10, 1);
        let b = pool.fork(&a);
        pool.check_refcounts([&a, &b]);
        pool.release(&mut a);
        pool.check_refcounts([&b]);
    }

    #[test]
    #[should_panic(expected = "block tables list it")]
    fn refcount_check_catches_an_unlisted_holder() {
        let mut pool = KvPool::<i8>::new(4, 2);
        let mut a = KvSeq::new();
        fill(&mut pool, &mut a, 8, 1);
        let _b = pool.fork(&a);
        pool.check_refcounts([&a]);
    }

    #[test]
    fn env_page_rows_parsing() {
        // Only exercises the fallback path (the variable is not set in
        // the test environment unless the CI page-stress matrix sets it,
        // in which case the parsed value must be positive).
        let v = page_rows_from_env(16);
        assert!(v > 0);
        match std::env::var("ACCEL_KV_PAGE") {
            Ok(s) => assert_eq!(v, s.trim().parse::<usize>().unwrap_or(16).max(1)),
            Err(_) => assert_eq!(v, 16),
        }
    }
}
