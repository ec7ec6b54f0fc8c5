//! Anti-diagonal SIMD wavefront kernels (x86-64: AVX2 and SSE4.1).
//!
//! The scalar block kernel walks the tile row-major; every cell depends on
//! its left neighbour through `E`, so rows cannot be vectorized directly.
//! Cells on one **anti-diagonal** (`i + j = const`) are mutually
//! independent, which is the classic wavefront shape GPU Smith-Waterman
//! kernels exploit. This module runs the same recurrences over striped
//! anti-diagonal state vectors with 16-bit lanes:
//!
//! * state is held per tile row `k` in seven rolling arrays (`H` at
//!   diagonals `d`, `d−1`, `d−2`; `E`/`F` at `d`, `d−1`), so a lane load at
//!   offset `k` reads the neighbour values of cells `(k, d−k)`;
//! * sequence `b` is stored **reversed** so that ascending lane index `k`
//!   maps to the descending column `l = d − k` with a single contiguous
//!   load;
//! * scores are **rebased** against the tile's corner value (`bias =
//!   top.h[0]`): all arithmetic is saturating i16 on `value − bias`, so
//!   tiles whose absolute scores are far beyond `i16::MAX` (megabase
//!   alignments reach millions) still vectorize.
//!
//! **Masked tail.** Every cell runs in a vector lane. Diagonal `d` holds
//! rows `klo ..= khi` (`khi = min(d − 1, bh)`); it takes full steps while
//! more than `LANES` rows remain, then one last step whose lanes past
//! `khi` are dead. The arrays carry `LANES` slots of padding so that step
//! stays in bounds. Dead lanes are masked out of the diagonal max/min (so
//! the best-cell search, which takes the first lane equal to the max,
//! always lands on a live one), and what they store is never read: they
//! write only slots `> khi(d)`, while diagonals `d+1` and `d+2` read slots
//! of diagonal `d` up to `min(d, bh)` only. For `d > bh` that bound is
//! `khi(d) = bh`; for `d ≤ bh` the one slot above `khi(d) = d − 1` is slot
//! `d`, column 0, which the left border patches after the step
//! (DESIGN.md §11 spells the argument out).
//!
//! **Overflow rescue.** i16 lanes hold a tile only if its dynamic range
//! fits the safe band `±28_000`. A pre-scan bounds every incoming border
//! value and adds a per-cell drift margin (`(bh + bw + 4) · step`, where
//! `step` is the largest per-cell score change the scheme allows); a tile
//! that could leave the band — or, belt and braces, one whose computed `H`
//! values actually do — is re-run through the scalar i32 kernel and counted
//! in [`rescue_count`]. The rescue is invisible to callers: the vector and
//! scalar paths are bit-identical (same borders, same deterministic best
//! cell), which the conformance matrix asserts under every dispatch mode.
//!
//! Out-of-band "minus infinity" lanes (`E`/`F` seeds) are pinned at
//! [`NEG_INF16`]; the pre-scan margin guarantees any real arm of a `max`
//! beats any `NEG_INF16`-derived arm, so saturating decay of the infinity
//! lanes can never surface in a stored value.
//!
//! This module is private: the engines are reachable only through
//! [`crate::kernel::select`], which verifies CPU support at runtime.

use std::arch::x86_64::*;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::block::{compute_block_impl, BlockInput, BlockOutput};
use crate::border::{ColBorder, RowBorder};
use crate::cell::{BestCell, Score, NEG_INF};
use crate::kernel::{Kernel, KernelId};
use crate::scoring::ScoreScheme;

/// Rebased i16 "minus infinity" for E/F lanes. Far enough below the safe
/// band that a real arm always wins a `max` against anything derived from
/// it, far enough above `i16::MIN` that one saturating subtraction cannot
/// wrap.
const NEG_INF16: i16 = -30_000;

/// Safe dynamic range for rebased values, `|value − bias| ≤ BAND`. Leaves
/// `i16::MAX − BAND > 4_000` of headroom so a single saturating add/sub on
/// an in-band value cannot saturate.
const BAND: i64 = 28_000;

static RESCUES: AtomicU64 = AtomicU64::new(0);
static RESCUE_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread mirrors of the global rescue counters. A pipeline runs
    /// one worker thread per device, so sampling these from the worker
    /// gives *exact* per-device rescue attribution — the process-global
    /// counters cannot separate concurrent workers (or concurrent tests).
    static TLS_RESCUES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static TLS_RESCUE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Tiles re-run through the scalar i32 kernel by the overflow-rescue
/// protocol, process-wide and monotone.
pub(crate) fn rescue_count() -> u64 {
    RESCUES.load(Ordering::Relaxed)
}

/// Wall-clock nanoseconds spent in those scalar re-runs, process-wide and
/// monotone. Phase-attribution samples this around each tile to bill
/// rescue time separately from ordinary compute.
pub(crate) fn rescue_ns() -> u64 {
    RESCUE_NS.load(Ordering::Relaxed)
}

/// [`rescue_count`], but only the rescues the *calling thread* triggered.
pub(crate) fn rescue_count_thread() -> u64 {
    TLS_RESCUES.with(|c| c.get())
}

/// [`rescue_ns`], but only the nanoseconds the *calling thread* spent.
pub(crate) fn rescue_ns_thread() -> u64 {
    TLS_RESCUE_NS.with(|c| c.get())
}

/// Run the scalar fallback for a tile the vector engine gave up on,
/// charging its duration to the rescue clock.
fn rescue_block<const LOCAL: bool>(input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
    RESCUES.fetch_add(1, Ordering::Relaxed);
    TLS_RESCUES.with(|c| c.set(c.get() + 1));
    let t = std::time::Instant::now();
    let out = compute_block_impl::<LOCAL>(input, scheme);
    let spent = t.elapsed().as_nanos() as u64;
    RESCUE_NS.fetch_add(spent, Ordering::Relaxed);
    TLS_RESCUE_NS.with(|c| c.set(c.get() + spent));
    out
}

/// One SIMD instruction set: the i16-lane operations the wavefront needs.
trait Engine: Copy {
    const LANES: usize;
    type V: Copy;
    unsafe fn splat(v: i16) -> Self::V;
    unsafe fn loadu(p: *const i16) -> Self::V;
    unsafe fn storeu(p: *mut i16, v: Self::V);
    unsafe fn adds(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn subs(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn cmpeq(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn cmpgt(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn and(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise select: `mask` lanes all-ones take `yes`, zeros take `no`.
    unsafe fn blendv(no: Self::V, yes: Self::V, mask: Self::V) -> Self::V;
    /// Byte-granular mask of `v` (2 bits per i16 lane); nonzero iff any
    /// lane of a compare result is set.
    unsafe fn movemask(v: Self::V) -> u32;
    unsafe fn hmax(v: Self::V) -> i16;
    unsafe fn hmin(v: Self::V) -> i16;
}

#[derive(Clone, Copy)]
struct Avx2;

impl Engine for Avx2 {
    const LANES: usize = 16;
    type V = __m256i;
    #[inline(always)]
    unsafe fn splat(v: i16) -> __m256i {
        _mm256_set1_epi16(v)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const i16) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut i16, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }
    #[inline(always)]
    unsafe fn adds(a: __m256i, b: __m256i) -> __m256i {
        _mm256_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: __m256i, b: __m256i) -> __m256i {
        _mm256_subs_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m256i, b: __m256i) -> __m256i {
        _mm256_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m256i, b: __m256i) -> __m256i {
        _mm256_min_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpeq(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpeq_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpgt(a: __m256i, b: __m256i) -> __m256i {
        _mm256_cmpgt_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn and(a: __m256i, b: __m256i) -> __m256i {
        _mm256_and_si256(a, b)
    }
    #[inline(always)]
    unsafe fn blendv(no: __m256i, yes: __m256i, mask: __m256i) -> __m256i {
        // The i16 compare masks are all-ones/all-zero per lane, so the
        // byte-granular blend selects whole lanes.
        _mm256_blendv_epi8(no, yes, mask)
    }
    #[inline(always)]
    unsafe fn movemask(v: __m256i) -> u32 {
        _mm256_movemask_epi8(v) as u32
    }
    #[inline(always)]
    unsafe fn hmax(v: __m256i) -> i16 {
        let m = _mm_max_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<8>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
    #[inline(always)]
    unsafe fn hmin(v: __m256i) -> i16 {
        let m = _mm_min_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        let m = _mm_min_epi16(m, _mm_srli_si128::<8>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
}

#[derive(Clone, Copy)]
struct Sse41;

impl Engine for Sse41 {
    const LANES: usize = 8;
    type V = __m128i;
    #[inline(always)]
    unsafe fn splat(v: i16) -> __m128i {
        _mm_set1_epi16(v)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const i16) -> __m128i {
        _mm_loadu_si128(p as *const __m128i)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut i16, v: __m128i) {
        _mm_storeu_si128(p as *mut __m128i, v)
    }
    #[inline(always)]
    unsafe fn adds(a: __m128i, b: __m128i) -> __m128i {
        _mm_adds_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn subs(a: __m128i, b: __m128i) -> __m128i {
        _mm_subs_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn max(a: __m128i, b: __m128i) -> __m128i {
        _mm_max_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m128i, b: __m128i) -> __m128i {
        _mm_min_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpeq(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpeq_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn cmpgt(a: __m128i, b: __m128i) -> __m128i {
        _mm_cmpgt_epi16(a, b)
    }
    #[inline(always)]
    unsafe fn and(a: __m128i, b: __m128i) -> __m128i {
        _mm_and_si128(a, b)
    }
    #[inline(always)]
    unsafe fn blendv(no: __m128i, yes: __m128i, mask: __m128i) -> __m128i {
        _mm_blendv_epi8(no, yes, mask)
    }
    #[inline(always)]
    unsafe fn movemask(v: __m128i) -> u32 {
        _mm_movemask_epi8(v) as u32
    }
    #[inline(always)]
    unsafe fn hmax(v: __m128i) -> i16 {
        let m = _mm_max_epi16(v, _mm_srli_si128::<8>(v));
        let m = _mm_max_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_max_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
    #[inline(always)]
    unsafe fn hmin(v: __m128i) -> i16 {
        let m = _mm_min_epi16(v, _mm_srli_si128::<8>(v));
        let m = _mm_min_epi16(m, _mm_srli_si128::<4>(m));
        let m = _mm_min_epi16(m, _mm_srli_si128::<2>(m));
        _mm_extract_epi16::<0>(m) as i16
    }
}

/// Lane indices `0, 1, 2, …`, sized for the widest engine:
/// `cmpgt(splat(n), iota)` sets exactly the first `n` lanes.
const IOTA: [i16; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Compute one tile with the anti-diagonal wavefront, or return `None` when
/// the i16 band cannot hold it (the caller re-runs the tile in scalar i32).
///
/// Bit-identical to [`compute_block_impl`] whenever it returns `Some`:
/// identical borders, cell count, and deterministic best cell.
///
/// # Safety
///
/// The CPU must support the instruction set of `E`; callers reach this only
/// through the `#[target_feature]` wrappers below after a runtime check.
#[inline(always)]
unsafe fn wave<E: Engine, const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    let bh = input.a_rows.len();
    let bw = input.b_cols.len();
    debug_assert!(bh >= 1 && bw >= 1);
    debug_assert_eq!(input.top.width(), bw, "top border width mismatch");
    debug_assert_eq!(input.left.height(), bh, "left border height mismatch");
    debug_assert_eq!(
        input.top.h[0], input.left.h[0],
        "top and left borders disagree on the corner element"
    );
    debug_assert!(input.row_offset >= 1 && input.col_offset >= 1);

    let bias = i64::from(input.top.h[0]);

    // Overflow pre-scan: the largest score change any single DP step can
    // make, times the longest in-tile path plus slack, bounds how far any
    // in-tile value can drift from the border extremes. If that drift could
    // leave the i16 band, rescue to scalar before computing anything. The
    // bound is directional: a step can only *raise* a score by the match
    // bonus, but can *lower* it by a fresh gap open+extend or a mismatch —
    // so high-bias drift uses the (usually much smaller) match step and
    // large tiles stay vectorized far longer than a symmetric bound allows.
    let path = (bh + bw + 4) as i64;
    let margin_up = path * i64::from(scheme.match_score);
    let margin_down = path
        * (i64::from(scheme.gap_open) + i64::from(scheme.gap_extend))
            .max(-i64::from(scheme.mismatch_score));
    let mut lo = bias;
    let mut hi = bias;
    for &v in input.top.h.iter().chain(input.left.h.iter()) {
        lo = lo.min(i64::from(v));
        hi = hi.max(i64::from(v));
    }
    for &v in input.top.f.iter().chain(input.left.e.iter()) {
        if v > NEG_INF / 2 {
            lo = lo.min(i64::from(v));
            hi = hi.max(i64::from(v));
        }
    }
    if hi - bias + margin_up > BAND || bias - lo + margin_down > BAND {
        return None;
    }

    let lanes = E::LANES;
    let open_ext = scheme.gap_open + scheme.gap_extend;
    let ext = scheme.gap_extend;

    let reb_h = |v: Score| -> i16 { (i64::from(v) - bias) as i16 };
    let reb_aux = |v: Score| -> i16 {
        if v <= NEG_INF / 2 {
            NEG_INF16
        } else {
            (i64::from(v) - bias) as i16
        }
    };

    // Every array below carries `lanes` slots of padding, so the last
    // (masked) vector step of a diagonal stays in bounds: a step at row
    // k ≤ khi ≤ bh touches state slots up to k + lanes − 1, `a16` slots up
    // to k + lanes − 2 and `b_rev16` slots up to bw + k − d + lanes − 1,
    // which is below bw + lanes because k < d.
    let mut a16 = vec![0i16; bh + lanes];
    for (x, &c) in input.a_rows.iter().enumerate() {
        a16[x] = i16::from(c);
    }
    // b reversed: the vector load for cells (k, d−k), k ascending, reads
    // b_rev16[bw + k − d ..] contiguously.
    let mut b_rev16 = vec![0i16; bw + lanes];
    for (x, &c) in input.b_cols.iter().enumerate() {
        b_rev16[bw - 1 - x] = i16::from(c);
    }

    // Rolling anti-diagonal state, indexed by tile row k (0 = border row):
    // H at diagonals d−2/d−1/d, E and F at d−1/d. Slots outside the valid
    // range of a diagonal hold stale or masked-lane values that are
    // provably never read (module docs).
    // One allocation holds all seven, each placed so that slot 1 is
    // 32-byte aligned: while `klo = 1` every vector store of a diagonal is
    // aligned (~8 % on 512² AVX2 tiles).
    let stride = (bh + 1 + lanes).next_multiple_of(16);
    let mut state = vec![NEG_INF16; 7 * stride + 15];
    let skew = (state.as_ptr() as usize / 2 + 1).wrapping_neg() % 16;
    let mut rows = state[skew..].chunks_exact_mut(stride);
    let mut row = || rows.next().expect("the buffer holds seven rows");
    let (mut hp2, mut hp1, mut hc) = (row(), row(), row());
    let (mut ep, mut ec, mut fp, mut fc) = (row(), row(), row(), row());

    // Diagonals 0 and 1 are pure border cells.
    hp2[0] = reb_h(input.top.h[0]);
    hp1[0] = reb_h(input.top.h[1]);
    hp1[1] = reb_h(input.left.h[1]);
    ep[1] = reb_aux(input.left.e[1]);
    fp[0] = reb_aux(input.top.f[1]);

    // Rebased zero floor for local semantics. When `bias` exceeds i16 range
    // the clamp pins it at i16::MIN, which is exact: the pre-scan guarantees
    // in-tile values stay within BAND of the (huge) corner, so neither the
    // true zero floor nor the clamped one can ever bind.
    let floor16: i16 = (-bias).clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16;

    let v_ext = E::splat(ext as i16);
    let v_oe = E::splat(open_ext as i16);
    let v_match = E::splat(scheme.match_score as i16);
    let v_mis = E::splat(scheme.mismatch_score as i16);
    let v_four = E::splat(4);
    let v_floor = E::splat(floor16);
    let v_ninf = E::splat(NEG_INF16);
    let v_top = E::splat(i16::MAX);
    let v_iota = E::loadu(IOTA.as_ptr());

    // Band check accumulators over every computed (pre-store) H value.
    let mut v_maxall = v_ninf;
    let mut v_minall = v_top;

    // Outgoing borders, captured lane-exactly as diagonals sweep past the
    // tile's bottom row and right column (index 0 unused here; the corner
    // is attached during assembly).
    let mut bot_h16 = vec![0i16; bw + 1];
    let mut bot_f16 = vec![0i16; bw + 1];
    let mut rgt_h16 = vec![0i16; bh + 1];
    let mut rgt_e16 = vec![0i16; bh + 1];

    let mut best = BestCell::ZERO;

    for d in 2..=(bh + bw) {
        let klo = if d > bw { d - bw } else { 1 };
        let khi = if d - 1 < bh { d - 1 } else { bh };

        let mut v_dmax = v_ninf;
        let mut v_dmin = v_top;

        // One vector step at row `k`: computes lanes `k..k + lanes`,
        // stores them and evaluates to their H.
        macro_rules! step {
            ($k:expr) => {{
                let k = $k;
                let hd = E::loadu(hp2.as_ptr().add(k - 1));
                let hu = E::loadu(hp1.as_ptr().add(k - 1));
                let hl = E::loadu(hp1.as_ptr().add(k));
                let fv = E::max(
                    E::subs(E::loadu(fp.as_ptr().add(k - 1)), v_ext),
                    E::subs(hu, v_oe),
                );
                let ev = E::max(
                    E::subs(E::loadu(ep.as_ptr().add(k)), v_ext),
                    E::subs(hl, v_oe),
                );
                let va = E::loadu(a16.as_ptr().add(k - 1));
                let vb = E::loadu(b_rev16.as_ptr().add(bw + k - d));
                let mm = E::and(E::cmpeq(va, vb), E::cmpgt(v_four, va));
                let sub = E::blendv(v_mis, v_match, mm);
                let mut hv = E::adds(hd, sub);
                hv = E::max(hv, ev);
                hv = E::max(hv, fv);
                if LOCAL {
                    hv = E::max(hv, v_floor);
                }
                E::storeu(hc.as_mut_ptr().add(k), hv);
                E::storeu(ec.as_mut_ptr().add(k), ev);
                E::storeu(fc.as_mut_ptr().add(k), fv);
                hv
            }};
        }
        // Full steps while more than `lanes` cells remain, then one last
        // step with 1..=lanes live lanes. Its lanes past `khi` compute
        // garbage into slots no later diagonal reads (module docs); the
        // mask keeps them out of the min/max accumulators.
        let mut k = klo;
        while k + lanes <= khi {
            let hv = step!(k);
            v_dmax = E::max(v_dmax, hv);
            v_dmin = E::min(v_dmin, hv);
            k += lanes;
        }
        let hv = step!(k);
        let live = E::cmpgt(E::splat((khi + 1 - k) as i16), v_iota);
        v_dmax = E::max(v_dmax, E::blendv(v_ninf, hv, live));
        v_dmin = E::min(v_dmin, E::blendv(v_top, hv, live));
        // Band accumulators merge once per diagonal, not per step.
        v_maxall = E::max(v_maxall, v_dmax);
        v_minall = E::min(v_minall, v_dmin);

        // Border capture (before the patches below — patched slots are
        // border cells, never tile cells).
        if d > bh {
            bot_h16[d - bh] = hc[bh];
            bot_f16[d - bh] = fc[bh];
        }
        if d > bw {
            rgt_h16[d - bw] = hc[d - bw];
            rgt_e16[d - bw] = ec[d - bw];
        }

        // Best-cell tracking: a diagonal matters only when its max can reach
        // the running best. `>=` (not `>`) because a later diagonal can tie
        // the score at a smaller row index, which wins the deterministic
        // (score, i, j) order. The diagonal's own winner is fully determined
        // by its max: among equal-H cells the smallest k has the smallest
        // row index (and a larger k at the same d means a smaller column,
        // which only matters at the same row — impossible within one
        // diagonal). So instead of building a BestCell per cell — which
        // degenerates to scalar speed on homologous inputs, where the score
        // climbs on almost every diagonal — locate the first lane equal to
        // the max with a vector compare. The max is a live lane's value and
        // live lanes precede dead ones, so the first match is live.
        let dmax = E::hmax(v_dmax);
        if i64::from(dmax) + bias >= i64::from(best.score.max(1)) {
            let v_target = E::splat(dmax);
            let mut k = klo;
            let m = loop {
                let m = E::movemask(E::cmpeq(E::loadu(hc.as_ptr().add(k)), v_target));
                if m != 0 || k + lanes > khi {
                    break m;
                }
                k += lanes;
            };
            if m != 0 {
                let k = k + m.trailing_zeros() as usize / 2;
                let cand = BestCell::new(
                    (i64::from(dmax) + bias) as Score,
                    input.row_offset + k - 1,
                    input.col_offset + (d - k) - 1,
                );
                if cand.beats(&best) {
                    best = cand;
                }
            }
        }

        // Patch the border cells the next diagonals read: row 0 comes from
        // the top border, column 0 from the left border.
        if d <= bw {
            hc[0] = reb_h(input.top.h[d]);
            fc[0] = reb_aux(input.top.f[d]);
        }
        if d <= bh {
            hc[d] = reb_h(input.left.h[d]);
            ec[d] = reb_aux(input.left.e[d]);
        }

        std::mem::swap(&mut hp2, &mut hp1);
        std::mem::swap(&mut hp1, &mut hc);
        std::mem::swap(&mut ep, &mut ec);
        std::mem::swap(&mut fp, &mut fc);
    }

    // Belt-and-braces band check: the pre-scan margin should make this
    // unreachable, but if any computed H touched the band edge the tile is
    // rescued rather than trusted.
    let maxall = i64::from(E::hmax(v_maxall));
    let minall = i64::from(E::hmin(v_minall));
    if maxall > BAND || minall < -BAND {
        return None;
    }

    // Rebase back. Emitted E/F values are always real (each is ≥ some real
    // H minus open+extend — the border rows that carry NEG_INF never reach
    // the emitted edges), so adding the bias back is exact.
    let mut bottom_h = Vec::with_capacity(bw + 1);
    let mut bottom_f = Vec::with_capacity(bw + 1);
    bottom_h.push(input.left.h[bh]);
    bottom_f.push(NEG_INF);
    bottom_h.extend(
        bot_h16[1..=bw]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    bottom_f.extend(
        bot_f16[1..=bw]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    let mut right_h = Vec::with_capacity(bh + 1);
    let mut right_e = Vec::with_capacity(bh + 1);
    right_h.push(input.top.h[bw]);
    right_e.push(NEG_INF);
    right_h.extend(
        rgt_h16[1..=bh]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );
    right_e.extend(
        rgt_e16[1..=bh]
            .iter()
            .map(|&v| (i64::from(v) + bias) as Score),
    );

    Some(BlockOutput {
        bottom: RowBorder {
            h: bottom_h,
            f: bottom_f,
        },
        right: ColBorder {
            h: right_h,
            e: right_e,
        },
        best,
        cells: bh as u64 * bw as u64,
    })
}

/// # Safety
/// Requires AVX2 (checked by `kernel::select` before this is reachable).
#[target_feature(enable = "avx2")]
unsafe fn wave_avx2<const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    wave::<Avx2, LOCAL>(input, scheme)
}

/// # Safety
/// Requires SSE4.1 (checked by `kernel::select` before this is reachable).
#[target_feature(enable = "sse4.1")]
unsafe fn wave_sse41<const LOCAL: bool>(
    input: BlockInput<'_>,
    scheme: &ScoreScheme,
) -> Option<BlockOutput> {
    wave::<Sse41, LOCAL>(input, scheme)
}

/// Tiles with a side below this run scalar without counting as rescues:
/// there the wavefront's per-tile and per-diagonal bookkeeping outweighs
/// the lane win. Measured, not derived — the timings are in DESIGN.md §11.
const VECTOR_MIN: usize = 12;

/// A vector engine: its two `#[target_feature]` wavefronts (anchored,
/// local) behind the [`Kernel`] trait.
pub(crate) struct SimdKernel {
    id: KernelId,
    wave: [WaveFn; 2],
}

type WaveFn = for<'a> unsafe fn(BlockInput<'a>, &ScoreScheme) -> Option<BlockOutput>;

impl SimdKernel {
    fn dispatch<const LOCAL: bool>(
        &self,
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> BlockOutput {
        let (bh, bw) = (input.a_rows.len(), input.b_cols.len());
        if bh.min(bw) >= VECTOR_MIN {
            // SAFETY: this kernel is only handed out by `kernel::select`
            // after a successful runtime check for its instruction set.
            return match unsafe { (self.wave[usize::from(LOCAL)])(input, scheme) } {
                Some(out) => out,
                None => rescue_block::<LOCAL>(input, scheme),
            };
        }
        compute_block_impl::<LOCAL>(input, scheme)
    }
}

impl Kernel for SimdKernel {
    fn id(&self) -> KernelId {
        self.id
    }
    fn block(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        self.dispatch::<true>(input, scheme)
    }
    fn block_anchored(&self, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        self.dispatch::<false>(input, scheme)
    }
}

/// The AVX2 engine (16 × i16 lanes).
static AVX2_KERNEL: SimdKernel = SimdKernel {
    id: KernelId::Avx2,
    wave: [wave_avx2::<false>, wave_avx2::<true>],
};
/// The SSE4.1 engine (8 × i16 lanes).
static SSE41_KERNEL: SimdKernel = SimdKernel {
    id: KernelId::Sse41,
    wave: [wave_sse41::<false>, wave_sse41::<true>],
};

pub(crate) fn avx2_kernel() -> &'static dyn Kernel {
    &AVX2_KERNEL
}

pub(crate) fn sse41_kernel() -> &'static dyn Kernel {
    &SSE41_KERNEL
}

#[cfg(test)]
mod tests {
    use super::*;
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};

    fn engines() -> Vec<(&'static str, &'static dyn Kernel)> {
        let mut out: Vec<(&'static str, &'static dyn Kernel)> = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(("avx2", avx2_kernel()));
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            out.push(("sse41", sse41_kernel()));
        }
        out
    }

    fn run_wave(
        name: &str,
        local: bool,
        input: BlockInput<'_>,
        scheme: &ScoreScheme,
    ) -> Option<BlockOutput> {
        // SAFETY: `engines()` only yields names whose feature check passed.
        unsafe {
            match (name, local) {
                ("avx2", true) => wave_avx2::<true>(input, scheme),
                ("avx2", false) => wave_avx2::<false>(input, scheme),
                ("sse41", true) => wave_sse41::<true>(input, scheme),
                ("sse41", false) => wave_sse41::<false>(input, scheme),
                _ => unreachable!(),
            }
        }
    }

    fn scalar_out(local: bool, input: BlockInput<'_>, scheme: &ScoreScheme) -> BlockOutput {
        if local {
            compute_block_impl::<true>(input, scheme)
        } else {
            compute_block_impl::<false>(input, scheme)
        }
    }

    #[test]
    fn wave_matches_scalar_on_whole_matrix_tiles() {
        for (bh, bw, seed) in [
            (33usize, 40usize, 1u64),
            (64, 96, 2),
            (100, 100, 3),
            (48, 200, 4),
            (200, 48, 5),
        ] {
            let a = ChromosomeGenerator::new(GenerateConfig::sized(bh, seed)).generate();
            let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, seed + 77)).generate();
            for scheme in [ScoreScheme::cudalign(), ScoreScheme::lenient()] {
                for local in [true, false] {
                    let (top, left) = if local {
                        (RowBorder::zero(bw), ColBorder::zero(bh))
                    } else {
                        (
                            RowBorder::anchored(bw, 1, &scheme),
                            ColBorder::anchored(bh, 1, &scheme),
                        )
                    };
                    let input = BlockInput {
                        a_rows: a.codes(),
                        b_cols: b.codes(),
                        top: &top,
                        left: &left,
                        row_offset: 1,
                        col_offset: 1,
                    };
                    let want = scalar_out(local, input, &scheme);
                    for (name, _) in engines() {
                        let got = run_wave(name, local, input, &scheme)
                            .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
                        assert_eq!(got, want, "{name} {bh}x{bw} local={local}");
                    }
                }
            }
        }
    }

    /// Incoming borders of the bottom-right tile of a 2×2 split of
    /// `a × b` at (`si`, `sj`), produced by the scalar kernel: genuinely
    /// non-trivial borders, the exact situation the pipeline puts the
    /// vector engines in.
    fn composed_borders(
        local: bool,
        a: &[u8],
        b: &[u8],
        (si, sj): (usize, usize),
        scheme: &ScoreScheme,
    ) -> (RowBorder, ColBorder) {
        let fresh = |w: usize, h: usize, col: usize, row: usize| {
            if local {
                (RowBorder::zero(w), ColBorder::zero(h))
            } else {
                (
                    RowBorder::anchored(w, col, scheme),
                    ColBorder::anchored(h, row, scheme),
                )
            }
        };
        let tile = |rows: &[u8], cols: &[u8], top: &RowBorder, left: &ColBorder, at| {
            let (row_offset, col_offset) = at;
            let input = BlockInput {
                a_rows: rows,
                b_cols: cols,
                top,
                left,
                row_offset,
                col_offset,
            };
            scalar_out(local, input, scheme)
        };
        let (top0, left0) = fresh(sj, si, 1, 1);
        let t00 = tile(&a[..si], &b[..sj], &top0, &left0, (1, 1));
        let (top01, _) = fresh(b.len() - sj, 0, sj + 1, 1);
        let (_, left10) = fresh(0, a.len() - si, 1, si + 1);
        let t01 = tile(&a[..si], &b[sj..], &top01, &t00.right, (1, sj + 1));
        let t10 = tile(&a[si..], &b[..sj], &t00.bottom, &left10, (si + 1, 1));
        (t01.bottom, t10.right)
    }

    #[test]
    fn wave_matches_scalar_with_composed_borders() {
        let scheme = ScoreScheme::cudalign();
        let a = ChromosomeGenerator::new(GenerateConfig::sized(260, 0x51_01)).generate();
        let (b, _) = DivergenceModel::test_scale(0x51_02).apply(&a);
        let (si, sj) = (130usize, 120usize);
        for local in [true, false] {
            let (top, left) = composed_borders(local, a.codes(), b.codes(), (si, sj), &scheme);
            let t11_input = BlockInput {
                a_rows: &a.codes()[si..],
                b_cols: &b.codes()[sj..],
                top: &top,
                left: &left,
                row_offset: si + 1,
                col_offset: sj + 1,
            };
            let want = scalar_out(local, t11_input, &scheme);
            for (name, _) in engines() {
                let got = run_wave(name, local, t11_input, &scheme)
                    .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
                assert_eq!(got, want, "{name} local={local}");
            }
        }
    }

    fn lanes_of(name: &str) -> usize {
        match name {
            "avx2" => Avx2::LANES,
            _ => Sse41::LANES,
        }
    }

    #[test]
    fn masked_tail_matches_scalar_on_every_lane_residue() {
        // Every residue of the tile height mod LANES, against widths both
        // below and above it, so diagonals end in every possible partial
        // vector step — in the growing, the full-height and the shrinking
        // phase of the wavefront. N bases sit in the tail rows (the last
        // rows of the tile, which the masked step covers on every long
        // diagonal) and on the `b` side, so the masked lanes and the N
        // remap both meet real cells.
        for (name, _) in engines() {
            let lanes = lanes_of(name);
            for bh in 2 * lanes..=3 * lanes + 1 {
                for bw in [2 * lanes + 3, bh, bh + 5, 4 * lanes + 1] {
                    let (si, sj) = (9usize, 11usize);
                    let seed = (bh * 131 + bw) as u64;
                    let mut a = ChromosomeGenerator::new(GenerateConfig::sized(si + bh, seed))
                        .generate()
                        .codes()
                        .to_vec();
                    let mut b = ChromosomeGenerator::new(GenerateConfig::sized(sj + bw, seed + 1))
                        .generate()
                        .codes()
                        .to_vec();
                    // Homologous stretch so scores climb and ties occur.
                    b[sj..sj + bw.min(bh) / 2].copy_from_slice(&a[si..si + bw.min(bh) / 2]);
                    for x in [1, 2, lanes / 2, lanes - 1] {
                        a[si + bh - x] = 4;
                    }
                    b[sj + bw / 3] = 4;
                    b[sj + bw - 1] = 5;
                    for scheme in [ScoreScheme::cudalign(), ScoreScheme::lenient()] {
                        for local in [true, false] {
                            let (top, left) = composed_borders(local, &a, &b, (si, sj), &scheme);
                            let input = BlockInput {
                                a_rows: &a[si..],
                                b_cols: &b[sj..],
                                top: &top,
                                left: &left,
                                row_offset: si + 1,
                                col_offset: sj + 1,
                            };
                            let want = scalar_out(local, input, &scheme);
                            let got = run_wave(name, local, input, &scheme)
                                .unwrap_or_else(|| panic!("{name} {bh}x{bw}: unexpected rescue"));
                            assert_eq!(got, want, "{name} {bh}x{bw} local={local} {scheme:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_max_in_a_tail_lane_is_found() {
        // A 16-base match run ending at the tile's bottom row, column 16,
        // over an unrelated background: its diagonal d = bh + 16 spans rows
        // 1..=bh, and with bh = 3·LANES + 1 the bottom row is the only live
        // lane of the masked step — the best cell lives there and nowhere
        // else.
        let scheme = ScoreScheme::cudalign();
        for (name, _) in engines() {
            let lanes = lanes_of(name);
            let (bh, bw) = (3 * lanes + 1, 3 * lanes + 40);
            let mut a = ChromosomeGenerator::new(GenerateConfig::sized(bh, 0x55_01))
                .generate()
                .codes()
                .to_vec();
            let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, 0x55_02))
                .generate()
                .codes()
                .to_vec();
            a[bh - 16..].copy_from_slice(&b[..16]);
            let (top, left) = (RowBorder::zero(bw), ColBorder::zero(bh));
            let input = BlockInput {
                a_rows: &a,
                b_cols: &b,
                top: &top,
                left: &left,
                row_offset: 1,
                col_offset: 1,
            };
            let want = scalar_out(true, input, &scheme);
            assert_eq!((want.best.i, want.best.j), (bh, 16), "{name}: test setup");
            let got = run_wave(name, true, input, &scheme)
                .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn dead_lanes_never_reach_the_diagonal_max() {
        // Dead lanes compute real-looking values: on diagonal d = bh + l the
        // first dead lane (row bh + 1) extends the bottom-row cell
        // (bh, l − 2) diagonally against the zero padding of `a` (an `A`).
        // Plant a 20-match run ending there (score 40) with an `A` at the
        // column that lane reads, and a 22-cell run with one mismatch
        // (score 41) ending on the same diagonal higher up. Unmasked, the
        // dead lane's 42 would become the diagonal max, the search would
        // find no live lane holding it, and the 41 would be lost. The runs
        // are all-A and all-T on a C (`a`) / G (`b`) background, so no
        // other alignment scores as high.
        let scheme = ScoreScheme::lenient();
        let (bh, bw, l) = (51usize, 90usize, 30usize);
        let mut a = vec![1u8; bh];
        let mut b = vec![2u8; bw];
        for x in 0..20 {
            a[bh - 20 + x] = 0;
            b[l - 22 + x] = 0;
        }
        b[l - 2] = 0;
        for x in 0..22 {
            a[4 + x] = 3;
            b[l + 3 + x] = if x == 11 { 0 } else { 3 };
        }
        let (top, left) = (RowBorder::zero(bw), ColBorder::zero(bh));
        let input = BlockInput {
            a_rows: &a,
            b_cols: &b,
            top: &top,
            left: &left,
            row_offset: 1,
            col_offset: 1,
        };
        let want = scalar_out(true, input, &scheme);
        assert_eq!(
            (want.best.score, want.best.i, want.best.j),
            (41, 26, l + 25),
            "test setup"
        );
        for (name, _) in engines() {
            let got = run_wave(name, true, input, &scheme)
                .unwrap_or_else(|| panic!("{name}: unexpected rescue"));
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn large_bias_tile_stays_vectorized_and_exact() {
        // Absolute border scores way beyond i16::MAX: the bias rebase keeps
        // the tile in i16 range — no rescue, bit-identical output.
        let scheme = ScoreScheme::cudalign();
        let (bh, bw) = (128usize, 128usize);
        let a = ChromosomeGenerator::new(GenerateConfig::sized(bh, 0x52_01)).generate();
        let b = ChromosomeGenerator::new(GenerateConfig::sized(bw, 0x52_02)).generate();
        let big: Score = 40_000;
        assert!(i64::from(big) > i64::from(i16::MAX));
        let top = RowBorder {
            h: vec![big; bw + 1],
            f: vec![NEG_INF; bw + 1],
        };
        let left = ColBorder {
            h: vec![big; bh + 1],
            e: vec![NEG_INF; bh + 1],
        };
        let input = BlockInput {
            a_rows: a.codes(),
            b_cols: b.codes(),
            top: &top,
            left: &left,
            row_offset: 500,
            col_offset: 900,
        };
        for local in [true, false] {
            let want = scalar_out(local, input, &scheme);
            assert!(want.best.score >= big, "borders must dominate the tile");
            for (name, _) in engines() {
                let got = run_wave(name, local, input, &scheme)
                    .unwrap_or_else(|| panic!("{name}: rebased tile should not rescue"));
                assert_eq!(got, want, "{name} local={local}");
            }
        }
    }

    #[test]
    fn wide_range_scheme_triggers_rescue_and_stays_exact() {
        // match = 30 over a 600×600 tile: the pre-scan margin alone exceeds
        // the band, so the wave refuses and the kernel falls back — and the
        // fallback is the scalar kernel, so outputs stay bit-identical.
        let scheme = ScoreScheme {
            match_score: 30,
            mismatch_score: -3,
            gap_open: 3,
            gap_extend: 2,
        };
        let n = 600usize;
        let a = ChromosomeGenerator::new(GenerateConfig::sized(n, 0x53_01)).generate();
        let top = RowBorder::zero(n);
        let left = ColBorder::zero(n);
        let input = BlockInput {
            a_rows: a.codes(),
            b_cols: a.codes(),
            top: &top,
            left: &left,
            row_offset: 1,
            col_offset: 1,
        };
        let want = scalar_out(true, input, &scheme);
        for (name, kernel) in engines() {
            assert!(
                run_wave(name, true, input, &scheme).is_none(),
                "{name}: expected an overflow rescue"
            );
            let before = rescue_count();
            let via_kernel = kernel.block(input, &scheme);
            assert_eq!(via_kernel, want, "{name}");
            assert!(rescue_count() > before, "{name}: rescue not counted");
        }
    }

    #[test]
    fn running_score_across_i16_max_is_bit_identical_to_reference() {
        // Satellite regression: a single tile whose running score crosses
        // i16::MAX mid-wave (identical 1200 bp sequences at match = 30 peak
        // at 36_000). The rescue path must reproduce the reference exactly.
        let scheme = ScoreScheme {
            match_score: 30,
            mismatch_score: -3,
            gap_open: 3,
            gap_extend: 2,
        };
        let a = ChromosomeGenerator::new(GenerateConfig::sized(1_200, 0x54_01)).generate();
        let want = crate::reference::reference_best(a.codes(), a.codes(), &scheme);
        assert!(
            i64::from(want.score) > i64::from(i16::MAX),
            "test must actually cross i16::MAX, got {}",
            want.score
        );
        for (name, kernel) in engines() {
            let got = kernel.best(a.codes(), a.codes(), &scheme);
            assert_eq!(got, want, "{name}");
        }
    }
}
