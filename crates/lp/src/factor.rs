//! Sparse LU basis factorization with Markowitz pivoting and an eta file.
//!
//! This module replaces the dense `m × m` basis inverse of the original
//! engine (ROADMAP item 1, DESIGN.md §2). The basis `B` — the columns of the
//! constraint matrix selected by the current basis header — is factorized as
//! `P B Q = L U` by right-looking sparse Gaussian elimination:
//!
//! * **Markowitz pivot selection.** At every elimination step the candidate
//!   pivot `(i, j)` minimizes the fill proxy `(r_i − 1)(c_j − 1)` where
//!   `r_i`/`c_j` are the active-submatrix row/column nonzero counts, searched
//!   over the sparsest few active columns. Those come from count buckets
//!   ([`CountBuckets`]) in `(count, column index)` order, so a step never
//!   scans every column, and the elimination reuses one workspace across
//!   calls.
//! * **Threshold partial pivoting.** A candidate is numerically admissible
//!   only when `|a_ij| ≥ markowitz_tol · max_i |a_ij|` within its column, so
//!   sparsity can be traded against growth ([`crate::Params::markowitz_tol`]).
//! * **Column-stored triangles.** `L` (unit lower) and `U` are stored
//!   column-wise in pivot order, which serves all four triangular solves:
//!   `L`-forward + `U`-backward for FTRAN (`Bx = b`) and `Uᵀ`-forward +
//!   `Lᵀ`-backward for BTRAN (`Bᵀy = c`). The FTRAN forward/backward passes
//!   skip work for zero positions of the running right-hand side
//!   (Suhl–Suhl-style exploit-sparsity solves), so a sparse rhs — the common
//!   case: entering columns and unit vectors — costs O(fill), not O(m²).
//! * **Sparse-eta product-form updates.** A basis exchange appends one eta
//!   vector built from the already-computed FTRAN spike ([`EtaFile`]); a
//!   pivot therefore costs work proportional to the spike's nonzeros. The
//!   eta file is replayed after (FTRAN) or before (BTRAN, transposed, in
//!   reverse) the LU solves, and its fill is bounded by
//!   [`crate::Params::eta_file_limit`] which forces an early refactorization.
//!
//! [`BasisFactor`] bundles the two pieces plus a solve workspace and is the
//! only interface the simplex engine uses. The `U`-diagonal ratio
//! `max|u_kk| / min|u_kk|` is exported as the ill-conditioning proxy feeding
//! the health monitor (it bounds `κ∞(B)` from below for the unit-scaled
//! TVNEP rows, replacing the dense engine's `max|B⁻¹|` scan).

use crate::sparse::CscMatrix;

/// How many of the sparsest active columns the Markowitz search inspects per
/// elimination step before falling back to a full scan. Suhl & Suhl report
/// tiny candidate sets lose almost nothing on LP bases; four keeps selection
/// O(candidates · column length) per step.
const MARKOWITZ_CANDIDATES: usize = 4;

/// Pivots smaller than this are never numerically admissible, matching the
/// dense factorization's singularity cutoff.
const ABS_PIVOT_MIN: f64 = 1e-12;

/// Column counts below this each get their own bucket in [`CountBuckets`];
/// counts at or above it share one overflow bucket. That keeps the buckets
/// at `O(m)` words whatever the fill, and an overflow search only happens
/// once fewer than [`MARKOWITZ_CANDIDATES`] active columns are sparser.
const COUNT_BUCKETS: usize = 64;

/// The active columns of an elimination, bucketed by nonzero count so the
/// Markowitz candidates — the [`MARKOWITZ_CANDIDATES`] columns smallest by
/// `(count, column index)` — are found without touching every column. Each
/// bucket is a bitset over column indices, so it yields its members
/// lowest-index-first; a count change moves one bit.
#[derive(Debug, Clone, Default)]
struct CountBuckets {
    /// `u64` words per bucket bitset.
    words: usize,
    /// `COUNT_BUCKETS + 1` bitsets of `words` words each, the last one the
    /// overflow bucket.
    bits: Vec<u64>,
    /// Members per bucket.
    len: Vec<usize>,
    /// Current nonzero count per column (meaningful while active).
    count: Vec<usize>,
    active: Vec<bool>,
    /// No non-empty bucket lies below this one.
    lowest: usize,
}

impl CountBuckets {
    /// Empties the structure for `m` columns, keeping its capacity.
    fn reset(&mut self, m: usize) {
        self.words = m.div_ceil(64);
        self.bits.clear();
        self.bits.resize((COUNT_BUCKETS + 1) * self.words, 0);
        self.len.clear();
        self.len.resize(COUNT_BUCKETS + 1, 0);
        self.count.clear();
        self.count.resize(m, 0);
        self.active.clear();
        self.active.resize(m, false);
        self.lowest = COUNT_BUCKETS;
    }

    fn bucket(count: usize) -> usize {
        count.min(COUNT_BUCKETS)
    }

    fn link(&mut self, j: usize) {
        let b = Self::bucket(self.count[j]);
        self.bits[b * self.words + j / 64] |= 1 << (j % 64);
        self.len[b] += 1;
        self.lowest = self.lowest.min(b);
    }

    fn unlink(&mut self, j: usize) {
        let b = Self::bucket(self.count[j]);
        self.bits[b * self.words + j / 64] &= !(1 << (j % 64));
        self.len[b] -= 1;
    }

    /// Activates column `j` with `count` nonzeros.
    fn insert(&mut self, j: usize, count: usize) {
        self.count[j] = count;
        self.active[j] = true;
        self.link(j);
    }

    /// Retires active column `j`.
    fn remove(&mut self, j: usize) {
        self.unlink(j);
        self.active[j] = false;
    }

    /// Sets the count of active column `j`.
    fn set_count(&mut self, j: usize, count: usize) {
        if Self::bucket(count) == Self::bucket(self.count[j]) {
            self.count[j] = count;
        } else {
            self.unlink(j);
            self.count[j] = count;
            self.link(j);
        }
    }

    /// Writes the (at most) `k` active columns smallest by `(count, index)`
    /// into `out`, in that order.
    fn smallest(&mut self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        while self.lowest < COUNT_BUCKETS && self.len[self.lowest] == 0 {
            self.lowest += 1;
        }
        for b in self.lowest..=COUNT_BUCKETS {
            if self.len[b] == 0 {
                continue;
            }
            let words = &self.bits[b * self.words..(b + 1) * self.words];
            for (w, &word) in words.iter().enumerate() {
                let mut x = word;
                while x != 0 {
                    let j = w * 64 + x.trailing_zeros() as usize;
                    x &= x - 1;
                    if b < COUNT_BUCKETS {
                        out.push(j);
                        if out.len() == k {
                            return;
                        }
                    } else {
                        // Overflow members differ in count: insertion-sort
                        // them behind the sparser buckets' picks.
                        let pos = out
                            .iter()
                            .position(|&c| self.count[j] < self.count[c])
                            .unwrap_or(out.len());
                        if pos < k {
                            if out.len() == k {
                                out.pop();
                            }
                            out.insert(pos, j);
                        }
                    }
                }
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + (self.len.capacity() + self.count.capacity()) * std::mem::size_of::<usize>()
            + self.active.capacity()
    }
}

/// Scratch state of one elimination, owned by [`LuFactors`] so repeated
/// factorizations reuse its buffers: cleared on every call, capacity kept.
/// Each row and column keeps its own buffer, so the held memory tracks the
/// per-row and per-column lengths seen — `O(nnz(B) + fill + m)`.
#[derive(Debug, Clone, Default)]
struct LuWorkspace {
    /// Active submatrix, row-major with sorted column entries. The row
    /// invariant — only active columns appear — keeps the nonzero counts
    /// exact without a cleanup sweep.
    rows: Vec<Vec<(usize, f64)>>,
    /// Per-column candidate row lists, validated lazily against
    /// `row_active` (rows are never edited out on deactivation).
    colrows: Vec<Vec<usize>>,
    row_active: Vec<bool>,
    buckets: CountBuckets,
    /// The pivot row of the current step.
    prow: Vec<(usize, f64)>,
    /// Entry scratch: a merged row, a candidate column's live entries, or
    /// an `L` column being sorted.
    merge: Vec<(usize, f64)>,
    cand: Vec<usize>,
    /// Rows of `U` in elimination order (`u_start[k]..u_start[k + 1]`),
    /// transposed into the column-stored triangle at the end.
    u_start: Vec<usize>,
    u_col: Vec<usize>,
    u_val: Vec<f64>,
    /// Per-column write cursor of that transpose.
    u_next: Vec<usize>,
}

impl LuWorkspace {
    /// Loads the basis columns as the initial active submatrix.
    fn load(&mut self, cols: &CscMatrix, basis: &[usize]) {
        let m = basis.len();
        self.rows.truncate(m);
        self.rows.iter_mut().for_each(Vec::clear);
        self.rows.resize_with(m, Vec::new);
        self.colrows.truncate(m);
        self.colrows.iter_mut().for_each(Vec::clear);
        self.colrows.resize_with(m, Vec::new);
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.buckets.reset(m);
        for (c, &j) in basis.iter().enumerate() {
            let (ridx, vals) = cols.column(j);
            for (&r, &v) in ridx.iter().zip(vals) {
                self.rows[r].push((c, v));
                self.colrows[c].push(r);
            }
            self.buckets.insert(c, ridx.len());
        }
        self.u_start.clear();
        self.u_start.push(0);
        self.u_col.clear();
        self.u_val.clear();
    }

    fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        let e = std::mem::size_of::<(usize, f64)>();
        let v = std::mem::size_of::<Vec<()>>();
        self.rows
            .iter()
            .map(|r| v + r.capacity() * e)
            .sum::<usize>()
            + self
                .colrows
                .iter()
                .map(|c| v + c.capacity() * u)
                .sum::<usize>()
            + self.row_active.capacity()
            + self.buckets.memory_bytes()
            + (self.prow.capacity() + self.merge.capacity()) * e
            + (self.cand.capacity()
                + self.u_start.capacity()
                + self.u_col.capacity()
                + self.u_next.capacity())
                * u
            + self.u_val.capacity() * f
    }
}

/// Sparse LU factors `P B Q = L U` of one basis, stored column-wise in pivot
/// order. Immutable after [`LuFactors::factorize`]; shared solves only need
/// a caller-provided workspace, so `&self` methods serve both the hot path
/// and `&self` verification code like `Simplex::kkt_violation`.
#[derive(Debug, Clone, Default)]
pub struct LuFactors {
    m: usize,
    /// `rowperm[k]` = original row eliminated at step `k`.
    rowperm: Vec<usize>,
    /// Inverse of `rowperm`: original row → pivot step.
    rowpos: Vec<usize>,
    /// `colperm[k]` = basis position eliminated at step `k`.
    colperm: Vec<usize>,
    /// Inverse of `colperm`: basis position → pivot step.
    colpos: Vec<usize>,
    /// Unit lower triangle, column `k` holding `(i, l_ik)` with `i > k` in
    /// pivot coordinates.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// Strict upper triangle, column `k` holding `(i, u_ik)` with `i < k`.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// `U` diagonal (the pivot values), dense by construction.
    u_diag: Vec<f64>,
    /// `max|u_kk| / min|u_kk|` of the fresh factorization.
    u_diag_ratio: f64,
    work: LuWorkspace,
}

impl LuFactors {
    /// Factorizes the basis given by `basis` (indices into `cols`). Returns
    /// `false` — leaving `self` unusable — when the basis is singular at the
    /// [`ABS_PIVOT_MIN`] cutoff. `markowitz_tol` in `(0, 1]` is the threshold
    /// partial-pivoting relaxation: smaller values favor sparsity harder.
    pub fn factorize(&mut self, cols: &CscMatrix, basis: &[usize], markowitz_tol: f64) -> bool {
        let m = basis.len();
        self.m = m;
        self.u_diag_ratio = 1.0;
        self.rowperm.clear();
        self.colperm.clear();
        self.rowpos.clear();
        self.rowpos.resize(m, usize::MAX);
        self.colpos.clear();
        self.colpos.resize(m, usize::MAX);
        // `L` columns are staged in place, indexed by original row until
        // every row has its pivot step.
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_idx.clear();
        self.l_val.clear();
        self.u_diag.clear();
        if m == 0 {
            self.u_ptr.clear();
            self.u_ptr.push(0);
            self.u_idx.clear();
            self.u_val.clear();
            return true;
        }
        let tol = markowitz_tol.clamp(1e-4, 1.0);
        self.work.load(cols, basis);
        let LuWorkspace {
            rows,
            colrows,
            row_active,
            buckets,
            prow,
            merge,
            cand,
            u_start,
            u_col,
            u_val,
            u_next,
        } = &mut self.work;

        for _step in 0..m {
            // The sparsest few active columns are the Markowitz candidates.
            buckets.smallest(MARKOWITZ_CANDIDATES, cand);
            let mut pivot =
                Self::pick_pivot(cand, colrows, rows, row_active, &buckets.count, tol, merge);
            if pivot.is_none() && cand.len() == MARKOWITZ_CANDIDATES {
                // The sparse candidates were all numerically inadmissible;
                // widen to every active column before declaring singularity.
                cand.clear();
                cand.extend((0..m).filter(|&j| buckets.active[j]));
                pivot =
                    Self::pick_pivot(cand, colrows, rows, row_active, &buckets.count, tol, merge);
            }
            let Some((pi, pj, pv)) = pivot else {
                return false;
            };

            // Retire the pivot row and column.
            row_active[pi] = false;
            buckets.remove(pj);
            prow.clear();
            prow.extend_from_slice(&rows[pi]);
            rows[pi].clear();
            for &(j, _) in prow.iter() {
                if buckets.active[j] {
                    buckets.set_count(j, buckets.count[j] - 1);
                }
            }
            let k = self.rowperm.len();
            self.rowperm.push(pi);
            self.colperm.push(pj);
            self.rowpos[pi] = k;
            self.colpos[pj] = k;
            self.u_diag.push(pv);

            // Eliminate the remaining rows of the pivot column.
            for t in 0..colrows[pj].len() {
                let r = colrows[pj][t];
                if !row_active[r] {
                    continue;
                }
                let Ok(pos) = rows[r].binary_search_by_key(&pj, |&(c, _)| c) else {
                    continue; // cancelled earlier; lazily dropped here
                };
                let f = rows[r][pos].1 / pv;
                self.l_idx.push(r);
                self.l_val.push(f);
                // rows[r] ← rows[r] − f · prow, dropping the pivot column.
                merge.clear();
                let mut a = rows[r].iter().copied().peekable();
                let mut b = prow.iter().copied().filter(|&(c, _)| c != pj).peekable();
                loop {
                    match (a.peek().copied(), b.peek().copied()) {
                        (Some((ca, va)), Some((cb, vb))) => {
                            if ca < cb {
                                if ca != pj {
                                    merge.push((ca, va));
                                }
                                a.next();
                            } else if cb < ca {
                                // Fill-in.
                                merge.push((cb, -f * vb));
                                buckets.set_count(cb, buckets.count[cb] + 1);
                                colrows[cb].push(r);
                                b.next();
                            } else {
                                let v = va - f * vb;
                                if v != 0.0 {
                                    merge.push((ca, v));
                                } else {
                                    buckets.set_count(ca, buckets.count[ca] - 1);
                                }
                                a.next();
                                b.next();
                            }
                        }
                        (Some((ca, va)), None) => {
                            if ca != pj {
                                merge.push((ca, va));
                            }
                            a.next();
                        }
                        (None, Some((cb, vb))) => {
                            merge.push((cb, -f * vb));
                            buckets.set_count(cb, buckets.count[cb] + 1);
                            colrows[cb].push(r);
                            b.next();
                        }
                        (None, None) => break,
                    }
                }
                rows[r].clear();
                rows[r].extend_from_slice(merge);
            }
            self.l_ptr.push(self.l_idx.len());

            // The retired pivot row is row `k` of `U` (active columns only —
            // every inactive column was merged out when it was eliminated).
            for &(c, v) in prow.iter() {
                if c != pj {
                    u_col.push(c);
                    u_val.push(v);
                }
            }
            u_start.push(u_col.len());
        }

        // Map the staged `L` rows to pivot steps and sort each column.
        for k in 0..m {
            let (s, e) = (self.l_ptr[k], self.l_ptr[k + 1]);
            merge.clear();
            merge.extend(
                self.l_idx[s..e]
                    .iter()
                    .zip(&self.l_val[s..e])
                    .map(|(&r, &v)| (self.rowpos[r], v)),
            );
            merge.sort_unstable_by_key(|&(i, _)| i);
            for (o, &(i, v)) in merge.iter().enumerate() {
                self.l_idx[s + o] = i;
                self.l_val[s + o] = v;
            }
        }
        // Transpose the `U` rows into pivot-order columns. Rows arrive in
        // elimination (= pivot-row) order, so every column comes out sorted.
        self.u_ptr.clear();
        self.u_ptr.resize(m + 1, 0);
        for &c in u_col.iter() {
            self.u_ptr[self.colpos[c] + 1] += 1;
        }
        for q in 0..m {
            self.u_ptr[q + 1] += self.u_ptr[q];
        }
        self.u_idx.clear();
        self.u_idx.resize(u_col.len(), 0);
        self.u_val.clear();
        self.u_val.resize(u_col.len(), 0.0);
        u_next.clear();
        u_next.extend_from_slice(&self.u_ptr[..m]);
        for k in 0..m {
            for t in u_start[k]..u_start[k + 1] {
                let q = self.colpos[u_col[t]];
                self.u_idx[u_next[q]] = k;
                self.u_val[u_next[q]] = u_val[t];
                u_next[q] += 1;
            }
        }

        let mut dmax = 0.0f64;
        let mut dmin = f64::INFINITY;
        for &d in &self.u_diag {
            let a = d.abs();
            dmax = dmax.max(a);
            dmin = dmin.min(a);
        }
        self.u_diag_ratio = if dmin > 0.0 {
            dmax / dmin
        } else {
            f64::INFINITY
        };
        true
    }

    /// Markowitz selection over `cand_cols`: the admissible entry minimizing
    /// `(r_i − 1)(c_j − 1)`, tie-broken toward larger magnitude, then lower
    /// indices (deterministic). Compacts stale `colrows` entries in passing;
    /// `entries` is scratch for one candidate column's live `(row, value)`.
    fn pick_pivot(
        cand_cols: &[usize],
        colrows: &mut [Vec<usize>],
        rows: &[Vec<(usize, f64)>],
        row_active: &[bool],
        ccount: &[usize],
        tol: f64,
        entries: &mut Vec<(usize, f64)>,
    ) -> Option<(usize, usize, f64)> {
        let mut best: Option<(usize, usize, f64, usize, f64)> = None; // (i, j, v, score, |v|)
        for &j in cand_cols {
            colrows[j].retain(|&r| row_active[r]);
            entries.clear();
            let mut colmax = 0.0f64;
            for &r in &colrows[j] {
                if let Ok(pos) = rows[r].binary_search_by_key(&j, |&(c, _)| c) {
                    let v = rows[r][pos].1;
                    colmax = colmax.max(v.abs());
                    entries.push((r, v));
                }
            }
            if colmax < ABS_PIVOT_MIN {
                continue;
            }
            let cutoff = (tol * colmax).max(ABS_PIVOT_MIN);
            for &(r, v) in entries.iter() {
                if v.abs() < cutoff {
                    continue;
                }
                let score = (rows[r].len() - 1) * (ccount[j] - 1);
                let better = match best {
                    None => true,
                    Some((bi, bj, _, bscore, babs)) => {
                        score < bscore
                            || (score == bscore
                                && (v.abs() > babs || (v.abs() == babs && (r, j) < (bi, bj))))
                    }
                };
                if better {
                    best = Some((r, j, v, score, v.abs()));
                }
            }
        }
        best.map(|(i, j, v, _, _)| (i, j, v))
    }

    /// Solves `B x = b` in place. On entry `x[r]` is the rhs indexed by
    /// *original row* `r`; on return `x[i]` is the solution indexed by
    /// *basis position* `i`. `work` is an `m`-length workspace; contents are
    /// clobbered. Forward and backward passes skip zero positions of the
    /// running rhs, so a sparse spike costs O(fill touched).
    pub fn ftran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            work[k] = x[self.rowperm[k]];
        }
        // L forward (unit diagonal), push style: nonzero positions only.
        for k in 0..m {
            let v = work[k];
            if v == 0.0 {
                continue;
            }
            for (idx, &i) in self.l_idx[self.l_ptr[k]..self.l_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                work[i] -= self.l_val[self.l_ptr[k] + idx] * v;
            }
        }
        // U backward, push style.
        for k in (0..m).rev() {
            let v = work[k];
            if v == 0.0 {
                continue;
            }
            let v = v / self.u_diag[k];
            work[k] = v;
            for (idx, &i) in self.u_idx[self.u_ptr[k]..self.u_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                work[i] -= self.u_val[self.u_ptr[k] + idx] * v;
            }
        }
        for k in 0..m {
            x[self.colperm[k]] = work[k];
        }
    }

    /// Solves `Bᵀ y = c` in place. On entry `x[i]` is indexed by *basis
    /// position* `i`; on return `x[r]` is indexed by *original row* `r`.
    /// The column-stored triangles make the transposed solves pull-style:
    /// `Uᵀ` is forward, `Lᵀ` is backward.
    pub fn btran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            work[k] = x[self.colperm[k]];
        }
        // Uᵀ forward: x_k = (c_k − Σ_{i<k} u_ik x_i) / u_kk.
        for k in 0..m {
            let mut acc = work[k];
            for (idx, &i) in self.u_idx[self.u_ptr[k]..self.u_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                acc -= self.u_val[self.u_ptr[k] + idx] * work[i];
            }
            work[k] = acc / self.u_diag[k];
        }
        // Lᵀ backward (unit diagonal): y_k = x_k − Σ_{i>k} l_ik y_i.
        for k in (0..m).rev() {
            let mut acc = work[k];
            for (idx, &i) in self.l_idx[self.l_ptr[k]..self.l_ptr[k + 1]]
                .iter()
                .enumerate()
            {
                acc -= self.l_val[self.l_ptr[k] + idx] * work[i];
            }
            work[k] = acc;
        }
        for k in 0..m {
            x[self.rowperm[k]] = work[k];
        }
    }

    /// Basis dimension of the stored factorization.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros in `L` and `U` (diagonal included).
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.u_diag.len()
    }

    /// `max|u_kk| / min|u_kk|` — the ill-conditioning proxy fed to the
    /// health monitor (∞ when a diagonal entry underflowed to zero).
    pub fn u_diag_ratio(&self) -> f64 {
        self.u_diag_ratio
    }

    /// Heap bytes held (capacities, not lengths), for `mem.lp.simplex_bytes`.
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        (self.rowperm.capacity()
            + self.rowpos.capacity()
            + self.colperm.capacity()
            + self.colpos.capacity()
            + self.l_ptr.capacity()
            + self.l_idx.capacity()
            + self.u_ptr.capacity()
            + self.u_idx.capacity())
            * u
            + (self.l_val.capacity() + self.u_val.capacity() + self.u_diag.capacity()) * f
            + self.work.memory_bytes()
    }
}

/// Product-form eta file layered on top of [`LuFactors`]: one eta per basis
/// exchange, built from the FTRAN spike of the entering column. Flattened
/// storage keeps replay allocation-free.
#[derive(Debug, Clone, Default)]
pub struct EtaFile {
    ptr: Vec<usize>,
    /// Off-pivot spike entries, in basis-position space.
    idx: Vec<usize>,
    val: Vec<f64>,
    pivot_row: Vec<usize>,
    inv_piv: Vec<f64>,
}

impl EtaFile {
    /// Drops every eta (after a refactorization).
    pub fn clear(&mut self) {
        self.ptr.clear();
        self.idx.clear();
        self.val.clear();
        self.pivot_row.clear();
        self.inv_piv.clear();
    }

    /// Number of recorded etas.
    pub fn count(&self) -> usize {
        self.pivot_row.len()
    }

    /// Total stored off-pivot nonzeros — the fill figure bounded by
    /// [`crate::Params::eta_file_limit`].
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Records the eta of a pivot at basis row `r` with FTRAN spike `w`
    /// (`w[r]` is the pivot element; caller guarantees it is nonzero).
    pub fn push(&mut self, r: usize, w: &[f64]) {
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                self.idx.push(i);
                self.val.push(wi);
            }
        }
        self.ptr.push(self.idx.len());
        self.pivot_row.push(r);
        self.inv_piv.push(1.0 / w[r]);
    }

    /// Applies the etas in recording order (FTRAN tail): for each eta,
    /// `x_r ← x_r / w_r` then `x_i ← x_i − w_i · x_r` — skipped entirely
    /// when the running `x_r` is zero.
    pub fn apply_ftran(&self, x: &mut [f64]) {
        for e in 0..self.count() {
            let r = self.pivot_row[e];
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            let t = xr * self.inv_piv[e];
            x[r] = t;
            for (idx, &i) in self.idx[self.ptr[e]..self.ptr[e + 1]].iter().enumerate() {
                x[i] -= self.val[self.ptr[e] + idx] * t;
            }
        }
    }

    /// Applies the transposed etas in reverse order (BTRAN head):
    /// `x_r ← (x_r − Σ_i w_i x_i) / w_r`.
    pub fn apply_btran(&self, x: &mut [f64]) {
        for e in (0..self.count()).rev() {
            let r = self.pivot_row[e];
            let mut acc = x[r];
            for (idx, &i) in self.idx[self.ptr[e]..self.ptr[e + 1]].iter().enumerate() {
                acc -= self.val[self.ptr[e] + idx] * x[i];
            }
            x[r] = acc * self.inv_piv[e];
        }
    }

    /// Heap bytes held (capacities, not lengths).
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let u = std::mem::size_of::<usize>();
        (self.ptr.capacity() + self.idx.capacity() + self.pivot_row.capacity()) * u
            + (self.val.capacity() + self.inv_piv.capacity()) * f
    }
}

/// The complete basis representation the simplex engine drives: sparse LU
/// factors plus the eta file accumulated since the last refactorization,
/// with an owned workspace for the `&mut self` hot-path solves.
#[derive(Debug, Clone, Default)]
pub struct BasisFactor {
    lu: LuFactors,
    etas: EtaFile,
    ready: bool,
    work: Vec<f64>,
}

impl BasisFactor {
    /// (Re-)factorizes the basis, dropping the eta file. Returns `false` on
    /// a singular basis, in which case the previous factorization is lost
    /// and [`BasisFactor::is_ready`] turns false.
    pub fn factorize(&mut self, cols: &CscMatrix, basis: &[usize], markowitz_tol: f64) -> bool {
        self.etas.clear();
        self.work.resize(basis.len(), 0.0);
        self.ready = self.lu.factorize(cols, basis, markowitz_tol);
        self.ready
    }

    /// True when a factorization of dimension `m` is available.
    pub fn is_ready(&self, m: usize) -> bool {
        self.ready && self.lu.dim() == m
    }

    /// `x ← B⁻¹ x`: rhs enters indexed by original row, the solution leaves
    /// indexed by basis position (LU solve, then the eta file forward).
    pub fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x, &mut self.work);
        self.etas.apply_ftran(x);
    }

    /// `x ← B⁻ᵀ x`: costs enter indexed by basis position, the multipliers
    /// leave indexed by original row (eta file transposed in reverse, then
    /// the LU transpose solve).
    pub fn btran(&mut self, x: &mut [f64]) {
        self.etas.apply_btran(x);
        self.lu.btran(x, &mut self.work);
    }

    /// `&self` BTRAN against a caller-provided workspace, for verification
    /// paths like `Simplex::kkt_violation` that only hold `&self`.
    pub fn btran_with(&self, x: &mut [f64], work: &mut [f64]) {
        self.etas.apply_btran(x);
        self.lu.btran(x, work);
    }

    /// Records the eta of a pivot at basis row `r` with FTRAN spike `w`.
    pub fn push_eta(&mut self, r: usize, w: &[f64]) {
        self.etas.push(r, w);
    }

    /// Off-pivot nonzeros currently held in the eta file.
    pub fn eta_nnz(&self) -> usize {
        self.etas.nnz()
    }

    /// Etas recorded since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.count()
    }

    /// Stored nonzeros in the LU triangles (diagonal included).
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Conditioning proxy of the last factorization; see
    /// [`LuFactors::u_diag_ratio`].
    pub fn u_diag_ratio(&self) -> f64 {
        self.lu.u_diag_ratio()
    }

    /// Heap bytes held by the factors, the eta file and the workspace.
    pub fn memory_bytes(&self) -> usize {
        self.lu.memory_bytes()
            + self.etas.memory_bytes()
            + self.work.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_matrix(entries: &[&[(usize, f64)]]) -> (CscMatrix, Vec<usize>) {
        let m = entries.len();
        let mut cols = CscMatrix::empty(m);
        for col in entries {
            cols.push_column(col);
        }
        (cols, (0..m).collect())
    }

    #[test]
    fn identity_factorizes_trivially() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(1, 1.0)], &[(2, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis, 0.1));
        assert!(f.is_ready(3));
        assert_eq!(f.u_diag_ratio(), 1.0);
        let mut x = vec![3.0, -1.0, 2.0];
        f.ftran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
        let mut y = vec![1.0, 2.0, 3.0];
        f.btran(&mut y);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let (cols, basis) = basis_matrix(&[&[(0, 1.0), (1, 1.0)], &[(0, 1.0), (1, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(!f.factorize(&cols, &basis, 0.1));
        assert!(!f.is_ready(2));
    }

    #[test]
    fn structurally_empty_row_is_singular() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(0, 2.0)]]);
        let mut f = BasisFactor::default();
        assert!(!f.factorize(&cols, &basis, 0.1));
    }

    #[test]
    fn solves_match_a_small_dense_system() {
        // B = [[2, 1, 0], [0, 3, 1], [1, 0, 4]] with known inverse action.
        let (cols, basis) = basis_matrix(&[
            &[(0, 2.0), (2, 1.0)],
            &[(0, 1.0), (1, 3.0)],
            &[(1, 1.0), (2, 4.0)],
        ]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis, 0.1));
        // Solve B x = [1, 2, 3]': x = B⁻¹ b, checked by multiplying back.
        let b = [1.0, 2.0, 3.0];
        let mut x = b.to_vec();
        f.ftran(&mut x);
        // x indexed by basis position; recompose Ax by columns.
        let mut back = [0.0; 3];
        for (c, &j) in basis.iter().enumerate() {
            cols.axpy_column(j, x[c], &mut back);
        }
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-12, "B·x = {back:?} vs {b:?}");
        }
        // Bᵀ y = c.
        let c = [1.0, -1.0, 0.5];
        let mut y = c.to_vec();
        f.btran(&mut y);
        for (pos, &j) in basis.iter().enumerate() {
            let dot = cols.column_dot(j, &y);
            assert!(
                (dot - c[pos]).abs() < 1e-12,
                "col {pos}: {dot} vs {}",
                c[pos]
            );
        }
    }

    #[test]
    fn eta_updates_track_a_column_replacement() {
        // Start from the identity, replace basis column 1 by [1, 2, 1]'.
        let m = 3;
        let mut cols = CscMatrix::empty(m);
        for i in 0..m {
            cols.push_column(&[(i, 1.0)]);
        }
        cols.push_column(&[(0, 1.0), (1, 2.0), (2, 1.0)]); // column index 3
        let mut basis: Vec<usize> = vec![0, 1, 2];
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis, 0.1));
        // FTRAN the entering column, pivot at row 1.
        let mut w = vec![0.0; m];
        cols.axpy_column(3, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(1, &w);
        basis[1] = 3;
        assert_eq!(f.eta_count(), 1);
        assert!(f.eta_nnz() > 0);
        // The updated representation must solve with the *new* basis.
        let b = [1.0, 1.0, 1.0];
        let mut x = b.to_vec();
        f.ftran(&mut x);
        let mut back = [0.0; 3];
        for (c, &j) in basis.iter().enumerate() {
            cols.axpy_column(j, x[c], &mut back);
        }
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-12, "B·x = {back:?}");
        }
        let cvec = [2.0, -1.0, 1.0];
        let mut y = cvec.to_vec();
        f.btran(&mut y);
        for (pos, &j) in basis.iter().enumerate() {
            let dot = cols.column_dot(j, &y);
            assert!((dot - cvec[pos]).abs() < 1e-12);
        }
        // Refactorizing from the new header clears the eta file.
        assert!(f.factorize(&cols, &basis, 0.1));
        assert_eq!(f.eta_count(), 0);
    }

    #[test]
    fn u_diag_ratio_flags_near_singularity() {
        let eps = 1e-6;
        let (cols, basis) = basis_matrix(&[&[(0, 1.0), (1, 1.0)], &[(0, 1.0), (1, 1.0 + eps)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis, 0.1));
        let ratio = f.u_diag_ratio();
        assert!(ratio > 1e5 && ratio < 1e8, "ratio {ratio}");
    }

    /// The old candidate search, kept as the oracle: one pass over every
    /// column, insertion-sorting the active ones by `(count, index)`.
    fn naive_smallest(b: &CountBuckets, k: usize) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for j in 0..b.count.len() {
            if !b.active[j] {
                continue;
            }
            let pos = out
                .iter()
                .position(|&c| b.count[j] < b.count[c])
                .unwrap_or(out.len());
            if pos < k {
                if out.len() == k {
                    out.pop();
                }
                out.insert(pos, j);
            }
        }
        out
    }

    fn assert_same_candidates(b: &mut CountBuckets, what: &str) {
        let want = naive_smallest(b, MARKOWITZ_CANDIDATES);
        let mut got = Vec::new();
        b.smallest(MARKOWITZ_CANDIDATES, &mut got);
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn count_buckets_match_the_naive_scan() {
        let mut state = 0x5eed_u64;
        let mut next = move |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut b = CountBuckets::default();
        for m in [1, 3, 63, 64, 65, 200] {
            b.reset(m);
            // Counts straddle the overflow bucket so its (count, index)
            // insertion path runs too; the narrow low range makes ties.
            let count = |next: &mut dyn FnMut(usize) -> usize| {
                if next(4) == 0 {
                    COUNT_BUCKETS - 2 + next(5)
                } else {
                    next(4)
                }
            };
            for step in 0..20 * m {
                let j = next(m);
                if !b.active[j] {
                    let c = count(&mut next);
                    b.insert(j, c);
                } else if next(3) == 0 {
                    b.remove(j);
                } else {
                    let c = count(&mut next);
                    b.set_count(j, c);
                }
                assert_same_candidates(&mut b, &format!("m={m} step={step}"));
            }
        }

        // All counts equal (including all in the overflow bucket), drained
        // one column at a time down through the tail of fewer than four.
        for c in [1, COUNT_BUCKETS + 5] {
            let m = 70;
            b.reset(m);
            for j in 0..m {
                b.insert(j, c);
            }
            assert_same_candidates(&mut b, "all equal");
            for _ in 0..m {
                let live: Vec<usize> = (0..m).filter(|&j| b.active[j]).collect();
                b.remove(live[next(live.len())]);
                assert_same_candidates(&mut b, &format!("{} left", live.len() - 1));
            }
            let mut got = vec![7];
            b.smallest(MARKOWITZ_CANDIDATES, &mut got);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn tie_heavy_basis_pins_the_pivot_order() {
        // Unit entries only, so every choice below is a tie broken by
        // score, then (row, column). Step 0's candidates are columns
        // 1, 3, 0, 4 (column 2 has three nonzeros): the score-0 entries are
        // (2,1), (4,3), (1,4) and the pivot is (1,4), although column 2's
        // entry (0,2) also scores 0 and would win on index. Eliminating
        // column 4 leaves row 3 a singleton; step 1 admits column 2 and
        // picks (0,2), then (2,1), (3,0) and (4,3).
        let (cols, basis) = basis_matrix(&[
            &[(3, 1.0), (4, 1.0)],
            &[(2, 1.0)],
            &[(0, 1.0), (2, 1.0), (4, 1.0)],
            &[(4, 1.0)],
            &[(1, 1.0), (3, 1.0)],
        ]);
        let mut lu = LuFactors::default();
        assert!(lu.factorize(&cols, &basis, 0.1));
        assert_eq!(lu.rowperm, [1, 0, 2, 3, 4]);
        assert_eq!(lu.colperm, [4, 2, 1, 0, 3]);
        assert_eq!(lu.u_diag, [1.0; 5]);
    }

    #[test]
    fn refactorizing_reuses_the_workspace() {
        // A second factorization of a different basis through the same
        // factors must match a fresh factors object bit for bit.
        let (a, ab) = basis_matrix(&[
            &[(0, 2.0), (2, 1.0)],
            &[(0, 1.0), (1, 3.0)],
            &[(1, 1.0), (2, 4.0)],
        ]);
        let (b, bb) = basis_matrix(&[&[(1, 1.0)], &[(0, 5.0), (1, -1.0)]]);
        let mut reused = LuFactors::default();
        assert!(reused.factorize(&a, &ab, 0.1));
        assert!(reused.factorize(&b, &bb, 0.1));
        let mut fresh = LuFactors::default();
        assert!(fresh.factorize(&b, &bb, 0.1));
        assert_eq!(reused.rowperm, fresh.rowperm);
        assert_eq!(reused.colperm, fresh.colperm);
        assert_eq!(reused.l_idx, fresh.l_idx);
        assert_eq!(reused.l_val, fresh.l_val);
        assert_eq!(reused.u_idx, fresh.u_idx);
        assert_eq!(reused.u_val, fresh.u_val);
        assert_eq!(reused.u_diag, fresh.u_diag);
    }

    #[test]
    fn memory_bytes_counts_factors_and_etas() {
        let (cols, basis) = basis_matrix(&[&[(0, 1.0)], &[(1, 1.0)]]);
        let mut f = BasisFactor::default();
        assert!(f.factorize(&cols, &basis, 0.1));
        let before = f.memory_bytes();
        assert!(before > 0);
        f.push_eta(0, &[2.0, 1.0]);
        assert!(f.memory_bytes() >= before);
    }
}
