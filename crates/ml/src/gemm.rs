//! Packed, parallel GEMM fast path for inference.
//!
//! The naive [`Matrix::matmul`] walks the right-hand side row by row in an
//! i-k-j saxpy. That keeps the *math* simple but leaves two costs on the
//! table for inference, where the weights are reused across every call:
//!
//! * the weight matrix is re-traversed in its row-major layout on every
//!   multiply, with no packing or padding, and
//! * everything runs on one thread.
//!
//! This module adds a fast path that fixes both while staying **bit-identical**
//! to the naive code, because the PR 2/3 chaos invariants (CPU fallback ==
//! GPU result, remote == local) compare outputs exactly:
//!
//! * [`PackedMatrix`] stores the weights **transposed** (column `j` of the
//!   original becomes a contiguous packed row) with the row stride padded to
//!   a 64-byte cache line and the base 64-byte aligned, so each output
//!   element is one linear streamed dot product.
//! * Each output element `out[i][j]` is computed as a single k-ascending
//!   accumulator starting from `0.0`, with the same `a == 0.0` skip the
//!   naive saxpy applies — the exact same float operation sequence, so the
//!   result is the exact same bits.
//! * A fixed-size [`WorkerPool`] partitions **disjoint output row ranges**
//!   across threads. Since no two workers ever touch the same accumulator,
//!   the reduction order per element is unchanged no matter how many
//!   workers run.
//! * Bias and activation are fused into the store ([`PackedMlp::forward`]):
//!   elementwise epilogues commute with the row partition, and the scalar
//!   formulas replicate [`Activation`]'s exactly.
//! * [`PackedLstm`] batches the gate GEMMs across the batch dimension (all
//!   rows of a timestep stream the packed `Wx`/`Wh` once) while keeping the
//!   per-row accumulation order of `LstmCell::step`. Under AVX2 the batch
//!   runs in blocks of 4 rows × 16 columns: 8 ymm accumulators, and each
//!   `k` loads two packed-weight vectors that all 4 rows share. A block
//!   takes this path only when every element of its 4-row `k`-slice
//!   passes the compaction scan's `!= 0.0` test (`-0.0` fails it), so no
//!   skip can apply inside it. Any other block, the row and column tails,
//!   and the scalar and SSE kernels use the per-row compacted
//!   `accumulate`. Either way each gate element sees bias, then
//!   ascending-k `x` products, then ascending-k `h` products.
//!
//! Single-thread speed comes from a [`Kernel`] dispatch layer: runtime-
//! detected AVX2 / SSE4.1 microkernels (register-blocked, 4 vector
//! accumulators resident across the whole reduction loop) plus MC/KC/NC
//! cache tiling, selectable via `LAKE_SIMD={auto,avx2,sse,scalar}`. The
//! SIMD kernels stay bit-identical to the scalar oracle because they only
//! widen across *independent* output columns: each element still sees
//! ascending-k accumulation, the `== 0.0` skip, and a separate multiply
//! then add (FMA is deliberately not used — its single rounding would
//! change bits).
//!
//! [`PackedModelCache`] memoizes the packed form per model id so packing is
//! paid once per load, and [`InferenceEngine`] bundles pool + cache with the
//! utilization counters surfaced through `SchedMetrics`.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use crate::lstm::LstmClassifier;
use crate::mlp::{Activation, Mlp};
use crate::tensor::Matrix;

/// Packed row stride granularity: 16 f32 = one 64-byte cache line.
pub const PACK_LANE: usize = 16;

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

/// Which microkernel family executes the GEMM inner loops.
///
/// All f32 kernels are **bit-identical**: per output element they perform
/// the exact op sequence of the scalar oracle (ascending-k accumulation,
/// the `a == 0.0` skip, separate multiply then add). SIMD only widens
/// across independent output columns. The int8 kernels accumulate in i32,
/// which is exact, so they too agree across kernels to the last bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable scalar loops — the chaos-invariant oracle.
    Scalar,
    /// SSE4.1 128-bit lanes (4 f32 / 8 i16 per op).
    Sse,
    /// AVX2 256-bit lanes (8 f32 / 16 i16 per op).
    Avx2,
}

/// Runtime CPU probe via CPUID, cached after the first call. AVX2 also
/// requires OS support for saving ymm state (OSXSAVE + XCR0 bits 1–2) —
/// checking the feature bit alone would fault on kernels that disable AVX.
#[cfg(target_arch = "x86_64")]
fn detect_cpu() -> Kernel {
    use std::sync::atomic::{AtomicU8, Ordering};
    static CACHED: AtomicU8 = AtomicU8::new(u8::MAX);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != u8::MAX {
        return match cached {
            2 => Kernel::Avx2,
            1 => Kernel::Sse,
            _ => Kernel::Scalar,
        };
    }
    // SAFETY: CPUID exists on every x86_64 CPU; _xgetbv is gated on the
    // OSXSAVE bit which guarantees the instruction is enabled.
    let best = unsafe {
        use std::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};
        let f1 = __cpuid(1);
        let sse41 = f1.ecx & (1 << 19) != 0;
        let osxsave = f1.ecx & (1 << 27) != 0;
        let ymm_enabled = osxsave && (_xgetbv(0) & 0x6) == 0x6;
        let avx2 = __cpuid_count(7, 0).ebx & (1 << 5) != 0;
        if avx2 && ymm_enabled {
            Kernel::Avx2
        } else if sse41 {
            Kernel::Sse
        } else {
            Kernel::Scalar
        }
    };
    CACHED.store(
        match best {
            Kernel::Avx2 => 2,
            Kernel::Sse => 1,
            Kernel::Scalar => 0,
        },
        Ordering::Relaxed,
    );
    best
}

impl Kernel {
    /// Best kernel the running CPU supports.
    pub fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            detect_cpu()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Kernel::Scalar
        }
    }

    /// Whether this kernel can run on the current CPU.
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            matches!(
                (self, detect_cpu()),
                (Kernel::Scalar, _)
                    | (Kernel::Sse, Kernel::Sse | Kernel::Avx2)
                    | (Kernel::Avx2, Kernel::Avx2)
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, Kernel::Scalar)
        }
    }

    /// Clamps a requested kernel down to the best one actually available.
    /// Identity for any available kernel; every public dispatch entry runs
    /// requests through this, so the `unsafe` target-feature kernels can
    /// never execute on a CPU that lacks them (the check is one relaxed
    /// atomic load, amortized over a whole tile of work).
    pub(crate) fn clamped(self) -> Kernel {
        match self {
            Kernel::Avx2 if Kernel::Avx2.available() => Kernel::Avx2,
            Kernel::Avx2 | Kernel::Sse if Kernel::Sse.available() => Kernel::Sse,
            Kernel::Scalar | Kernel::Sse | Kernel::Avx2 => Kernel::Scalar,
        }
    }

    /// Parses a `LAKE_SIMD` value. `auto` (or empty) detects the best
    /// kernel; explicit requests clamp down to what the CPU supports, so
    /// asking for `avx2` on an SSE-only host degrades instead of crashing.
    pub fn from_name(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "" | "auto" => Some(Kernel::detect()),
            "avx2" => Some(Kernel::Avx2.clamped()),
            "sse" | "sse4.1" | "sse41" => Some(Kernel::Sse.clamped()),
            "scalar" => Some(Kernel::Scalar),
            _ => None,
        }
    }

    /// Kernel selected by the `LAKE_SIMD` environment variable
    /// (`auto|avx2|sse|scalar`), defaulting to [`Kernel::detect`] when
    /// unset.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `LAKE_SIMD` value.
    pub fn from_env() -> Kernel {
        match std::env::var("LAKE_SIMD") {
            Ok(v) => Kernel::from_name(&v)
                .unwrap_or_else(|| panic!("LAKE_SIMD must be auto|avx2|sse|scalar, got {v:?}")),
            Err(_) => Kernel::detect(),
        }
    }

    /// Short name for metrics and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse => "sse4.1",
            Kernel::Avx2 => "avx2",
        }
    }
}

/// Numeric format of a packed model; part of the packed-cache key so an f32
/// oracle and its int8 quantized sibling never collide under one model id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFormat {
    /// Full-precision f32 weights (the correctness oracle).
    F32,
    /// Symmetric int8 weights with per-column scales.
    Int8,
}

// ---------------------------------------------------------------------------
// Packed weights
// ---------------------------------------------------------------------------

/// A weight matrix re-laid-out and padded for the inference fast path.
///
/// For an original `k × n` matrix `B`, packed row `k` is original row `k`,
/// padded with zeros to a [`PACK_LANE`]-multiple stride and based at a
/// 64-byte-aligned offset. The layout keeps the naive saxpy's k-outer loop
/// — the one shape whose inner loop carries `n` *independent* accumulators
/// and therefore vectorizes — while giving every row an aligned, uniformly
/// strided start the hot loop can stream.
///
/// (An earlier revision packed columns for dot-product reduction; a dot
/// carries one serial accumulator whose f32 adds cannot be reordered, so
/// it ran scalar and lost ~8× to the vectorized saxpy.)
#[derive(Debug)]
pub struct PackedMatrix {
    /// Original row count of `B` (the reduction dimension `k`).
    k: usize,
    /// Original column count of `B` (the output dimension).
    n: usize,
    /// Padded length of one packed row, a multiple of [`PACK_LANE`].
    stride: usize,
    /// Offset of the first packed element (aligns the base to 64 bytes).
    base: usize,
    data: Vec<f32>,
}

impl PackedMatrix {
    /// Packs `B` (pad + align). Cost is one pass over `B`.
    pub fn pack(b: &Matrix) -> Self {
        let (k, n) = (b.rows(), b.cols());
        let stride = n.div_ceil(PACK_LANE) * PACK_LANE;
        let mut data = vec![0.0f32; k * stride + PACK_LANE - 1];
        // Computed directly from the address instead of `align_offset`
        // (which is allowed to fail spuriously): a Vec<f32> base is always
        // 4-byte aligned, so at most 15 elements reach the next 64-byte
        // boundary and the slack above always covers it.
        let addr = data.as_ptr() as usize;
        let base = (addr.next_multiple_of(64) - addr) / std::mem::size_of::<f32>();
        debug_assert!(base < PACK_LANE, "alignment slack exceeded");
        let src = b.data();
        for kk in 0..k {
            data[base + kk * stride..base + kk * stride + n]
                .copy_from_slice(&src[kk * n..(kk + 1) * n]);
        }
        let pm = PackedMatrix { k, n, stride, base, data };
        debug_assert!(pm.base_aligned(), "packed base must be 64-byte aligned");
        pm
    }

    /// Whether every packed row starts on a 64-byte boundary (the base is
    /// aligned and the stride is a whole number of cache lines). SIMD
    /// kernels rely on rows never straddling a line start; this is asserted
    /// after every pack in debug builds and exposed for the alignment audit
    /// test.
    pub fn base_aligned(&self) -> bool {
        let base_ptr = self.data[self.base..].as_ptr() as usize;
        base_ptr.is_multiple_of(64) && (self.stride * std::mem::size_of::<f32>()).is_multiple_of(64)
    }

    /// Reduction dimension (rows of the original matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original matrix).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Padded stride of one packed row, in f32 elements.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bytes held by the packed buffer (pad + alignment included).
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Packed row `k`: original row `k` of `B`, contiguous, length `n`.
    #[inline]
    pub fn row(&self, k: usize) -> &[f32] {
        let start = self.base + k * self.stride;
        &self.data[start..start + self.n]
    }
}

// ---------------------------------------------------------------------------
// f32 microkernels
// ---------------------------------------------------------------------------

/// `out[j] += Σ_i a[i] * B[k0 + i][j0 + j]` — the one accumulation
/// primitive every f32 path uses.
///
/// Accumulators are loaded from and stored back to `out`, so callers may
/// seed `out` (LSTM bias) or tile the reduction dimension across several
/// calls without changing any per-element f32 op sequence: loads and
/// stores do not round. Ascending `i`, the scalar `a[i] == 0.0` skip, and
/// separate multiply-then-add are preserved by every kernel, so all three
/// are bit-identical.
///
/// The skip is hoisted out of the hot loops: a branchless scan compacts
/// the nonzero `(index, value)` pairs up front and every kernel walks the
/// compacted list with no data-dependent branch. ReLU activations are
/// ~half exact zeros in a random pattern, so the naive per-element
/// `if av == 0.0` test mispredicts constantly — on such layers the
/// misprediction stalls cost more than the arithmetic itself. Compaction
/// keeps the identical elements in identical ascending order, so the f32
/// op sequence (and therefore the bit pattern) is unchanged.
#[inline]
pub(crate) fn accumulate(
    kernel: Kernel,
    a: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    debug_assert!(k0 + a.len() <= pb.k, "accumulate k range out of bounds");
    debug_assert!(j0 + out.len() <= pb.n, "accumulate j range out of bounds");
    let mut idx = [0u32; TILE_KC];
    let mut val = [0f32; TILE_KC];
    for (c, chunk) in a.chunks(TILE_KC).enumerate() {
        let first = c * TILE_KC;
        // Unconditional stores + conditional increment: compiles to
        // setcc/add, never a branch, regardless of the zero pattern.
        let mut nz = 0usize;
        for (i, &av) in chunk.iter().enumerate() {
            idx[nz] = (first + i) as u32;
            val[nz] = av;
            nz += usize::from(av != 0.0);
        }
        if nz == 0 {
            continue;
        }
        let (idx, val) = (&idx[..nz], &val[..nz]);
        match kernel {
            Kernel::Scalar => accumulate_scalar(idx, val, pb, k0, j0, out),
            // SAFETY: every public dispatch entry normalizes its kernel via
            // `Kernel::clamped`, so a non-scalar kernel only reaches here
            // when the CPU reports the required target features.
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse => unsafe { accumulate_sse(idx, val, pb, k0, j0, out) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { accumulate_avx2(idx, val, pb, k0, j0, out) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Sse | Kernel::Avx2 => accumulate_scalar(idx, val, pb, k0, j0, out),
        }
    }
}

fn accumulate_scalar(
    idx: &[u32],
    val: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    for (&i, &av) in idx.iter().zip(val) {
        let row = &pb.row(k0 + i as usize)[j0..j0 + out.len()];
        for (o, &b) in out.iter_mut().zip(row) {
            *o += av * b;
        }
    }
}

/// AVX2: 32-column register block — 4 ymm accumulators stay resident
/// across the whole reduction loop; each non-zero `a[i]` costs one
/// broadcast, 4 multiplies and 4 adds, and the compacted `(idx, val)`
/// walk makes the loop branch-free. `mul + add`, **not** `fmadd`: a
/// fused multiply-add rounds once where the scalar oracle rounds twice,
/// which would change bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_avx2(
    idx: &[u32],
    val: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let jn = out.len();
    let op = out.as_mut_ptr();
    let stride = pb.stride;
    // Base of column j0 in packed row k0; row i is `i * stride` further on.
    // Every load below stays inside the packed buffer: j0 + j + 8 ≤ n ≤
    // stride, so even the last row's widest load ends before the pad does.
    let bbase = pb.data.as_ptr().add(pb.base + k0 * stride + j0);
    let mut j = 0;
    while j + 32 <= jn {
        let mut acc0 = _mm256_loadu_ps(op.add(j));
        let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
        let mut acc2 = _mm256_loadu_ps(op.add(j + 16));
        let mut acc3 = _mm256_loadu_ps(op.add(j + 24));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            let va = _mm256_set1_ps(av);
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(8))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(16))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(bp.add(24))));
        }
        _mm256_storeu_ps(op.add(j), acc0);
        _mm256_storeu_ps(op.add(j + 8), acc1);
        _mm256_storeu_ps(op.add(j + 16), acc2);
        _mm256_storeu_ps(op.add(j + 24), acc3);
        j += 32;
    }
    while j + 8 <= jn {
        let mut acc = _mm256_loadu_ps(op.add(j));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(bp)));
        }
        _mm256_storeu_ps(op.add(j), acc);
        j += 8;
    }
    if j < jn {
        accumulate_scalar(idx, val, pb, k0, j0 + j, &mut out[j..]);
    }
}

/// SSE4.1: 16-column register block with 4 xmm accumulators; same op
/// sequence as the scalar oracle, 4 columns per lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn accumulate_sse(
    idx: &[u32],
    val: &[f32],
    pb: &PackedMatrix,
    k0: usize,
    j0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let jn = out.len();
    let op = out.as_mut_ptr();
    let stride = pb.stride;
    let bbase = pb.data.as_ptr().add(pb.base + k0 * stride + j0);
    let mut j = 0;
    while j + 16 <= jn {
        let mut acc0 = _mm_loadu_ps(op.add(j));
        let mut acc1 = _mm_loadu_ps(op.add(j + 4));
        let mut acc2 = _mm_loadu_ps(op.add(j + 8));
        let mut acc3 = _mm_loadu_ps(op.add(j + 12));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            let va = _mm_set1_ps(av);
            acc0 = _mm_add_ps(acc0, _mm_mul_ps(va, _mm_loadu_ps(bp)));
            acc1 = _mm_add_ps(acc1, _mm_mul_ps(va, _mm_loadu_ps(bp.add(4))));
            acc2 = _mm_add_ps(acc2, _mm_mul_ps(va, _mm_loadu_ps(bp.add(8))));
            acc3 = _mm_add_ps(acc3, _mm_mul_ps(va, _mm_loadu_ps(bp.add(12))));
        }
        _mm_storeu_ps(op.add(j), acc0);
        _mm_storeu_ps(op.add(j + 4), acc1);
        _mm_storeu_ps(op.add(j + 8), acc2);
        _mm_storeu_ps(op.add(j + 12), acc3);
        j += 16;
    }
    while j + 4 <= jn {
        let mut acc = _mm_loadu_ps(op.add(j));
        for (&i, &av) in idx.iter().zip(val) {
            let bp = bbase.add(i as usize * stride + j);
            acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(av), _mm_loadu_ps(bp)));
        }
        _mm_storeu_ps(op.add(j), acc);
        j += 4;
    }
    if j < jn {
        accumulate_scalar(idx, val, pb, k0, j0 + j, &mut out[j..]);
    }
}

/// [`accumulate`] for a block of 4 batch rows: `out` holds the 4 output
/// rows back to back, `pb.n()` floats each, and row `r` accumulates
/// `a[r] · B[k0..]` over all `pb.n()` columns.
///
/// Under AVX2, when every element of the 4-row slice passes the
/// compaction scan's `!= 0.0` test (`-0.0` fails it), the 16-column
/// prefix runs through [`accumulate_rows4_avx2`]. No element would have
/// been skipped, so each output element sees the same ascending-k
/// multiply-then-add sequence as in [`accumulate`], and the same bits.
/// Every other block, and the column tail, goes row by row through
/// [`accumulate`].
fn accumulate_rows4(kernel: Kernel, a: [&[f32]; 4], pb: &PackedMatrix, k0: usize, out: &mut [f32]) {
    let n = pb.n;
    let done = match kernel {
        // SAFETY: every public dispatch entry clamps its kernel (see
        // `accumulate`), so AVX2 is present when it is selected here.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 if a.iter().all(|row| row.iter().all(|&v| v != 0.0)) => unsafe {
            accumulate_rows4_avx2(a, pb, k0, out)
        },
        _ => 0,
    };
    if done < n {
        for (a_row, out_row) in a.into_iter().zip(out.chunks_exact_mut(n)) {
            accumulate(kernel, a_row, pb, k0, done, &mut out_row[done..]);
        }
    }
}

/// AVX2 4-row block: 4 rows × 16 columns in 8 ymm accumulators. Each `k`
/// loads two packed-weight vectors once for all 4 rows, where
/// [`accumulate_avx2`] reloads them for every row, and the 8 independent
/// add chains hide the add latency that 4 chains expose. Every `a[r][i]`
/// is used, in ascending `i`, with a separate multiply then add (no FMA).
/// Returns how many leading columns were done: `pb.n()` rounded down to a
/// multiple of 16.
///
/// # Safety
///
/// The CPU must support AVX2. Shapes are checked here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_rows4_avx2(
    a: [&[f32]; 4],
    pb: &PackedMatrix,
    k0: usize,
    out: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let (n, stride) = (pb.n, pb.stride);
    let kw = a[0].len();
    assert!(a.iter().all(|row| row.len() == kw), "4-row block rows differ in length");
    assert!(k0 + kw <= pb.k, "4-row block k range out of bounds");
    assert_eq!(out.len(), 4 * n, "4-row block output size mismatch");
    let [a0, a1, a2, a3] = a.map(<[f32]>::as_ptr);
    let op = out.as_mut_ptr();
    // As in `accumulate_avx2`: j + 16 ≤ n ≤ stride keeps every load of
    // packed row k0 + i inside that row.
    let bbase = pb.data.as_ptr().add(pb.base + k0 * stride);
    let mut j = 0;
    while j + 16 <= n {
        let (o0, o1, o2, o3) = (op.add(j), op.add(n + j), op.add(2 * n + j), op.add(3 * n + j));
        let mut c00 = _mm256_loadu_ps(o0);
        let mut c01 = _mm256_loadu_ps(o0.add(8));
        let mut c10 = _mm256_loadu_ps(o1);
        let mut c11 = _mm256_loadu_ps(o1.add(8));
        let mut c20 = _mm256_loadu_ps(o2);
        let mut c21 = _mm256_loadu_ps(o2.add(8));
        let mut c30 = _mm256_loadu_ps(o3);
        let mut c31 = _mm256_loadu_ps(o3.add(8));
        for i in 0..kw {
            let bp = bbase.add(i * stride + j);
            let (b0, b1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)));
            let v0 = _mm256_set1_ps(*a0.add(i));
            c00 = _mm256_add_ps(c00, _mm256_mul_ps(v0, b0));
            c01 = _mm256_add_ps(c01, _mm256_mul_ps(v0, b1));
            let v1 = _mm256_set1_ps(*a1.add(i));
            c10 = _mm256_add_ps(c10, _mm256_mul_ps(v1, b0));
            c11 = _mm256_add_ps(c11, _mm256_mul_ps(v1, b1));
            let v2 = _mm256_set1_ps(*a2.add(i));
            c20 = _mm256_add_ps(c20, _mm256_mul_ps(v2, b0));
            c21 = _mm256_add_ps(c21, _mm256_mul_ps(v2, b1));
            let v3 = _mm256_set1_ps(*a3.add(i));
            c30 = _mm256_add_ps(c30, _mm256_mul_ps(v3, b0));
            c31 = _mm256_add_ps(c31, _mm256_mul_ps(v3, b1));
        }
        _mm256_storeu_ps(o0, c00);
        _mm256_storeu_ps(o0.add(8), c01);
        _mm256_storeu_ps(o1, c10);
        _mm256_storeu_ps(o1.add(8), c11);
        _mm256_storeu_ps(o2, c20);
        _mm256_storeu_ps(o2.add(8), c21);
        _mm256_storeu_ps(o3, c30);
        _mm256_storeu_ps(o3.add(8), c31);
        j += 16;
    }
    j
}

/// Reduction-dimension tile: a 256-element slice of one input row is 1 KB,
/// comfortably L1-resident alongside the accumulator block.
const TILE_KC: usize = 256;

/// Output-column tile: with [`TILE_KC`] this caps one packed weight panel
/// at 256 KB so it stays L2-resident while every row of a batch reuses it.
const TILE_NC: usize = 256;

/// Scalar replica of `Activation::apply`'s per-element formulas (both
/// route through the shared `fastmath` activations, so the engine and the
/// naive `Mlp` forward stay bit-identical).
#[inline]
pub(crate) fn apply_act(act: Activation, x: f32) -> f32 {
    match act {
        Activation::Relu => x.max(0.0),
        Activation::Sigmoid => crate::fastmath::sigmoid(x),
        Activation::Tanh => crate::fastmath::tanh(x),
    }
}

/// Packed GEMM for one contiguous row range of the output.
///
/// `a` is the full input (row-major, `a_cols` wide); rows `rows.start..
/// rows.end` are computed into `out`, which must hold exactly that range
/// (`(rows.len()) * pb.n()` floats). `bias`/`act` fuse the epilogue:
/// `out = act(a·B + bias)` with bias added **after** the accumulation,
/// matching `matmul` → `add_row_bias` → `Activation::apply`.
///
/// Per output element this performs the identical sequence of f32
/// operations as [`Matrix::matmul`]'s i-k-j loop: one accumulator starting
/// at `0.0`, adding `a[k] * b[k][j]` for ascending `k` where
/// `a[k] != 0.0`. The MC/KC/NC tiling below only reorders *between*
/// elements — for each column panel every KC block is visited in ascending
/// order and the accumulator round-trips through `out` (loads and stores
/// don't round), so the bit pattern is tiling-invariant. The win is reuse:
/// one L2-resident weight panel streams once while every row of the range
/// consumes it.
#[allow(clippy::too_many_arguments)] // internal driver: shape + fused epilogue
fn gemm_rows(
    kernel: Kernel,
    a: &[f32],
    a_cols: usize,
    rows: Range<usize>,
    pb: &PackedMatrix,
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    assert_eq!(a_cols, pb.k, "gemm reduction dim mismatch");
    let n = pb.n;
    assert_eq!(out.len(), rows.len() * n, "gemm output size mismatch");
    out.fill(0.0);
    for jc in (0..n).step_by(TILE_NC) {
        let jw = TILE_NC.min(n - jc);
        for kc in (0..a_cols).step_by(TILE_KC) {
            let kw = TILE_KC.min(a_cols - kc);
            for (li, i) in rows.clone().enumerate() {
                let a_row = &a[i * a_cols + kc..i * a_cols + kc + kw];
                let out_row = &mut out[li * n + jc..li * n + jc + jw];
                accumulate(kernel, a_row, pb, kc, jc, out_row);
            }
        }
    }
    for li in 0..rows.len() {
        let out_row = &mut out[li * n..(li + 1) * n];
        match (bias, act) {
            (Some(bs), Some(act)) => {
                for (o, &b) in out_row.iter_mut().zip(bs) {
                    *o = apply_act(act, *o + b);
                }
            }
            (Some(bs), None) => {
                for (o, &b) in out_row.iter_mut().zip(bs) {
                    *o += b;
                }
            }
            (None, Some(act)) => {
                for o in out_row.iter_mut() {
                    *o = apply_act(act, *o);
                }
            }
            (None, None) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// A job handed to the pool: called once per worker with the worker index.
type Job = &'static (dyn Fn(usize) + Sync);

enum Msg {
    Run(Job),
    Exit,
}

/// Fixed-size pool of persistent worker threads for partitioned GEMM.
///
/// [`WorkerPool::run`] hands every worker the same closure plus its worker
/// index; the closure picks its own disjoint output slice from the index.
/// `run` blocks until every worker has finished, so the closure may borrow
/// from the caller's stack even though the channel type is `'static`.
pub struct WorkerPool {
    txs: Vec<mpsc::Sender<Msg>>,
    done_rx: Mutex<mpsc::Receiver<bool>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    runs: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("runs", &self.runs.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (done_tx, done_rx) = mpsc::channel::<bool>();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = mpsc::channel::<Msg>();
            let done = done_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("lake-gemm-{w}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Msg::Run(job) => {
                                    let ok = catch_unwind(AssertUnwindSafe(|| job(w))).is_ok();
                                    if done.send(ok).is_err() {
                                        break;
                                    }
                                }
                                Msg::Exit => break,
                            }
                        }
                    })
                    .expect("spawn gemm worker"),
            );
            txs.push(tx);
        }
        WorkerPool { txs, done_rx: Mutex::new(done_rx), handles, workers, runs: AtomicU64::new(0) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs executed so far (each job fans out to every worker).
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Runs `job(worker_index)` on every worker and blocks until all done.
    ///
    /// # Panics
    ///
    /// Panics if any worker's closure panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the job reference is only lent to the workers for the
        // duration of this call — we block below until every worker has
        // reported completion, after which no worker retains the pointer.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        // One receiver guarded by a mutex serializes concurrent `run`s, so
        // completions from overlapping jobs cannot be misattributed.
        // Poisoning is benign here: a panicked `run` still drains every
        // completion before re-panicking, so the receiver state is clean.
        let done = self.done_rx.lock().unwrap_or_else(|e| e.into_inner());
        for tx in &self.txs {
            tx.send(Msg::Run(job)).expect("gemm worker gone");
        }
        let mut ok = true;
        for _ in 0..self.workers {
            ok &= done.recv().expect("gemm worker gone");
        }
        assert!(ok, "gemm worker panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(Msg::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Splits `rows` into at most `parts` contiguous, disjoint ranges.
pub(crate) fn partition(rows: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1);
    let per = rows.div_ceil(parts).max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + per).min(rows);
        out.push(start..end);
        start = end;
    }
    out
}

/// Packed, pool-partitioned matrix multiply, bit-identical to
/// [`Matrix::matmul`].
///
/// `pb` must be [`PackedMatrix::pack`] of the right-hand side. With a pool,
/// output rows are partitioned across workers (disjoint accumulators, so
/// the per-element reduction order — and therefore every output bit — is
/// independent of the worker count).
pub fn matmul_packed(a: &Matrix, pb: &PackedMatrix, pool: Option<&WorkerPool>) -> Matrix {
    matmul_packed_with(a, pb, pool, Kernel::from_env())
}

/// [`matmul_packed`] with an explicit microkernel (bit-identical for every
/// choice; see [`Kernel`]).
pub fn matmul_packed_with(
    a: &Matrix,
    pb: &PackedMatrix,
    pool: Option<&WorkerPool>,
    kernel: Kernel,
) -> Matrix {
    let kernel = kernel.clamped();
    let rows = a.rows();
    let mut out = Matrix::zeros(rows, pb.n);
    run_partitioned(pool, rows, pb.n, out.data_mut(), |range, chunk| {
        gemm_rows(kernel, a.data(), a.cols(), range, pb, None, None, chunk);
    });
    out
}

/// Partitions `rows` across the pool and hands each worker its disjoint
/// chunk of `out` (`row_width` floats per row). Falls back to inline
/// execution for tiny batches or a single worker.
pub(crate) fn run_partitioned(
    pool: Option<&WorkerPool>,
    rows: usize,
    row_width: usize,
    out: &mut [f32],
    work: impl Fn(Range<usize>, &mut [f32]) + Sync,
) {
    let parallel = match pool {
        Some(p) if p.workers() > 1 && rows > 1 => Some(p),
        _ => None,
    };
    match parallel {
        None => work(0..rows, out),
        Some(pool) => {
            let ranges = partition(rows, pool.workers());
            let per = ranges[0].len();
            let chunks: Vec<Mutex<(Range<usize>, &mut [f32])>> = out
                .chunks_mut(per * row_width)
                .zip(ranges)
                .map(|(chunk, range)| Mutex::new((range, chunk)))
                .collect();
            let job = |w: usize| {
                if let Some(slot) = chunks.get(w) {
                    let mut guard = slot.lock().expect("gemm chunk poisoned");
                    let (range, chunk) = &mut *guard;
                    work(range.clone(), chunk);
                }
            };
            pool.run(&job);
        }
    }
}

// ---------------------------------------------------------------------------
// Packed models
// ---------------------------------------------------------------------------

/// One MLP layer in packed form.
#[derive(Debug)]
struct PackedLayer {
    w: PackedMatrix,
    b: Vec<f32>,
}

/// An [`Mlp`] with every layer's weights packed, forward fused.
#[derive(Debug)]
pub struct PackedMlp {
    layers: Vec<PackedLayer>,
    hidden_activation: Activation,
}

impl PackedMlp {
    /// Packs all layers of `m`.
    pub fn pack(m: &Mlp) -> Self {
        let layers = m
            .parameters()
            .into_iter()
            .map(|(w, b)| PackedLayer { w: PackedMatrix::pack(w), b: b.to_vec() })
            .collect();
        PackedMlp { layers, hidden_activation: m.hidden_activation() }
    }

    /// Input width expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].w.k
    }

    /// Logits for a row range of the batch, written into `out`
    /// (`rows.len() * classes` floats). Bit-identical to `Mlp::forward`.
    fn forward_rows(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        rows: Range<usize>,
        out: &mut [f32],
    ) {
        let n_layers = self.layers.len();
        let local = rows.len();
        // First layer reads straight from the caller's (possibly shm-backed)
        // batch tensor; subsequent layers ping-pong a local buffer.
        let mut cur: Vec<f32> = Vec::new();
        let mut cur_cols = cols;
        for (li, layer) in self.layers.iter().enumerate() {
            let last = li + 1 == n_layers;
            let act = if last { None } else { Some(self.hidden_activation) };
            let n = layer.w.n;
            let b = Some(layer.b.as_slice());
            if last {
                if li == 0 {
                    gemm_rows(kernel, data, cur_cols, rows.clone(), &layer.w, b, act, out);
                } else {
                    gemm_rows(kernel, &cur, cur_cols, 0..local, &layer.w, b, act, out);
                }
            } else {
                let mut next = vec![0.0f32; local * n];
                if li == 0 {
                    gemm_rows(kernel, data, cur_cols, rows.clone(), &layer.w, b, act, &mut next);
                } else {
                    gemm_rows(kernel, &cur, cur_cols, 0..local, &layer.w, b, act, &mut next);
                }
                cur = next;
                cur_cols = n;
            }
        }
    }

    /// Batch logits, partitioned across `pool`. Bit-identical to
    /// `Mlp::forward` on the same batch. Kernel comes from `LAKE_SIMD` /
    /// CPU detection; see [`PackedMlp::forward_with`].
    pub fn forward(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
    ) -> Matrix {
        self.forward_with(data, rows, cols, pool, Kernel::from_env())
    }

    /// [`PackedMlp::forward`] with an explicit microkernel (bit-identical
    /// for every choice).
    pub fn forward_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Matrix {
        let kernel = kernel.clamped();
        assert_eq!(cols, self.input_size(), "mlp input width mismatch");
        assert!(data.len() >= rows * cols, "mlp batch buffer too short");
        let classes = self.layers.last().expect("non-empty mlp").w.n;
        let mut out = Matrix::zeros(rows.max(1), classes);
        if rows == 0 {
            return out;
        }
        run_partitioned(pool, rows, classes, out.data_mut(), |range, chunk| {
            self.forward_rows(kernel, data, cols, range, chunk);
        });
        out
    }

    /// Argmax classes for a batch; first maximal index wins on ties,
    /// replicating `Matrix::argmax_rows` (hence `Mlp::classify`).
    pub fn classify(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
    ) -> Vec<usize> {
        self.classify_with(data, rows, cols, pool, Kernel::from_env())
    }

    /// [`PackedMlp::classify`] with an explicit microkernel.
    pub fn classify_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Vec<usize> {
        let logits = self.forward_with(data, rows, cols, pool, kernel);
        if rows == 0 {
            return Vec::new();
        }
        logits.argmax_rows()
    }
}

/// One LSTM cell in packed form.
#[derive(Debug)]
struct PackedCell {
    input: usize,
    hidden: usize,
    /// Packed `input × 4·hidden` input weights.
    wx: PackedMatrix,
    /// Packed `hidden × 4·hidden` recurrent weights.
    wh: PackedMatrix,
    b: Vec<f32>,
}

/// Gate epilogue shared by every LSTM path (f32 and int8): sigmoid /
/// sigmoid / tanh / sigmoid over the four `hd`-wide `[i, f, g, o]` bands
/// of `z`, then `c = f*c_prev + i*g`, `h = o*tanh(c)`. Kernel-dispatched:
/// the SIMD paths evaluate the shared `fastmath` activations 8 (AVX2) or
/// 4 (SSE) lanes at a time with the identical per-element op sequence, so
/// `h` and `c` match the scalar oracle bit for bit. Elements are
/// independent per `j`, so lane-blocking only reorders *between*
/// elements, never within one.
pub(crate) fn lstm_gate_epilogue(kernel: Kernel, z: &[f32], h: &mut [f32], c: &mut [f32]) {
    match kernel {
        Kernel::Scalar => lstm_gate_epilogue_range(z, h, c, 0),
        // SAFETY: kernels are clamped at every public entry (see
        // `accumulate`), so the target features are present here.
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse => unsafe { lstm_gate_epilogue_sse(z, h, c) },
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { lstm_gate_epilogue_avx2(z, h, c) },
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Sse | Kernel::Avx2 => lstm_gate_epilogue_range(z, h, c, 0),
    }
}

/// Scalar gate epilogue over `from..h.len()` — the oracle sequence the
/// SIMD versions replicate lane-for-lane, and their shared tail handler.
fn lstm_gate_epilogue_range(z: &[f32], h: &mut [f32], c: &mut [f32], from: usize) {
    let hd = h.len();
    for j in from..hd {
        let i = crate::fastmath::sigmoid(z[j]);
        let f = crate::fastmath::sigmoid(z[hd + j]);
        let g = crate::fastmath::tanh(z[2 * hd + j]);
        let o = crate::fastmath::sigmoid(z[3 * hd + j]);
        let cn = f * c[j] + i * g;
        c[j] = cn;
        h[j] = o * crate::fastmath::tanh(cn);
    }
}

/// AVX2 gate epilogue: four activations and the cell update, 8 lanes at a
/// time. The `fastmath` SIMD activations are bit-identical to their
/// scalar forms, and `f*c + i*g` / `o*tanh(c)` keep the same separate
/// mul/add sequence, so `h` and `c` match the scalar oracle exactly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lstm_gate_epilogue_avx2(z: &[f32], h: &mut [f32], c: &mut [f32]) {
    use crate::fastmath::avx2::{sigmoid8, tanh8};
    use std::arch::x86_64::*;
    let hd = h.len();
    let zp = z.as_ptr();
    let mut j = 0;
    while j + 8 <= hd {
        let vi = sigmoid8(_mm256_loadu_ps(zp.add(j)));
        let vf = sigmoid8(_mm256_loadu_ps(zp.add(hd + j)));
        let vg = tanh8(_mm256_loadu_ps(zp.add(2 * hd + j)));
        let vo = sigmoid8(_mm256_loadu_ps(zp.add(3 * hd + j)));
        let vc = _mm256_loadu_ps(c.as_ptr().add(j));
        let cn = _mm256_add_ps(_mm256_mul_ps(vf, vc), _mm256_mul_ps(vi, vg));
        _mm256_storeu_ps(c.as_mut_ptr().add(j), cn);
        _mm256_storeu_ps(h.as_mut_ptr().add(j), _mm256_mul_ps(vo, tanh8(cn)));
        j += 8;
    }
    lstm_gate_epilogue_range(z, h, c, j);
}

/// SSE4.1 gate epilogue: same as AVX2, 4 lanes at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn lstm_gate_epilogue_sse(z: &[f32], h: &mut [f32], c: &mut [f32]) {
    use crate::fastmath::sse::{sigmoid4, tanh4};
    use std::arch::x86_64::*;
    let hd = h.len();
    let zp = z.as_ptr();
    let mut j = 0;
    while j + 4 <= hd {
        let vi = sigmoid4(_mm_loadu_ps(zp.add(j)));
        let vf = sigmoid4(_mm_loadu_ps(zp.add(hd + j)));
        let vg = tanh4(_mm_loadu_ps(zp.add(2 * hd + j)));
        let vo = sigmoid4(_mm_loadu_ps(zp.add(3 * hd + j)));
        let vc = _mm_loadu_ps(c.as_ptr().add(j));
        let cn = _mm_add_ps(_mm_mul_ps(vf, vc), _mm_mul_ps(vi, vg));
        _mm_storeu_ps(c.as_mut_ptr().add(j), cn);
        _mm_storeu_ps(h.as_mut_ptr().add(j), _mm_mul_ps(vo, tanh4(cn)));
        j += 4;
    }
    lstm_gate_epilogue_range(z, h, c, j);
}

/// Batched gate GEMM: `z[r] += a[r] · B` for every batch row `r`. `z`
/// holds the rows' gate accumulators back to back, `pb.n()` floats each,
/// and row `r`'s input is `a[r * a_stride..][..pb.k()]`. Each KC slice of
/// the packed panel streams through cache once while the whole batch
/// consumes it, 4 rows at a time through [`accumulate_rows4`]; the last
/// `rows % 4` rows go through [`accumulate`] one by one.
fn gate_gemm(kernel: Kernel, a: &[f32], a_stride: usize, pb: &PackedMatrix, z: &mut [f32]) {
    let (width, zw) = (pb.k, pb.n);
    let blocked = z.len() / (4 * zw) * 4;
    for kc in (0..width).step_by(TILE_KC) {
        let kw = TILE_KC.min(width - kc);
        let a_row = |r: usize| &a[r * a_stride + kc..r * a_stride + kc + kw];
        let mut blocks = z.chunks_exact_mut(4 * zw);
        for (b, zb) in (&mut blocks).enumerate() {
            let r = 4 * b;
            accumulate_rows4(
                kernel,
                [a_row(r), a_row(r + 1), a_row(r + 2), a_row(r + 3)],
                pb,
                kc,
                zb,
            );
        }
        for (r, zr) in blocks.into_remainder().chunks_exact_mut(zw).enumerate() {
            accumulate(kernel, a_row(blocked + r), pb, kc, 0, zr);
        }
    }
}

impl PackedCell {
    /// Runs every batch row's sequence through this cell and returns the
    /// per-timestep outputs. `input` holds row `r`'s `steps` timesteps of
    /// `self.input` features at `r * steps * self.input`; the result holds
    /// its `self.hidden`-wide outputs the same way. `h` and `c` carry the
    /// rows' states, `self.hidden` floats per row, in and out.
    ///
    /// Every row advances through timestep `t` before any row starts
    /// `t + 1`. Rows never share state, and each gate element sees bias,
    /// then ascending-k `x` products, then ascending-k `h` products — the
    /// exact per-element order of `LstmCell::step`.
    fn forward_batch(
        &self,
        kernel: Kernel,
        input: &[f32],
        steps: usize,
        h: &mut [f32],
        c: &mut [f32],
    ) -> Vec<f32> {
        let (width, hd, zw) = (self.input, self.hidden, 4 * self.hidden);
        let rows = h.len() / hd;
        assert!(input.len() == rows * steps * width && c.len() == h.len(), "lstm batch shape");
        let mut out = vec![0.0f32; rows * steps * hd];
        let mut z = vec![0.0f32; rows * zw];
        for t in 0..steps {
            for zr in z.chunks_exact_mut(zw) {
                zr.copy_from_slice(&self.b);
            }
            gate_gemm(kernel, &input[t * width..], steps * width, &self.wx, &mut z);
            gate_gemm(kernel, h, hd, &self.wh, &mut z);
            for (r, zr) in z.chunks_exact(zw).enumerate() {
                let (hr, cr) = (&mut h[r * hd..(r + 1) * hd], &mut c[r * hd..(r + 1) * hd]);
                lstm_gate_epilogue(kernel, zr, hr, cr);
                out[(r * steps + t) * hd..][..hd].copy_from_slice(hr);
            }
        }
        out
    }
}

/// An [`LstmClassifier`] with packed gate and head weights.
#[derive(Debug)]
pub struct PackedLstm {
    cells: Vec<PackedCell>,
    head_w: PackedMatrix,
    head_b: Vec<f32>,
}

impl PackedLstm {
    /// Packs all cells and the head of `m`.
    pub fn pack(m: &LstmClassifier) -> Self {
        let cells = m
            .cells()
            .iter()
            .map(|c| {
                let (wx, wh, b) = c.raw_parts();
                PackedCell {
                    input: c.input_size(),
                    hidden: c.hidden_size(),
                    wx: PackedMatrix::pack(wx),
                    wh: PackedMatrix::pack(wh),
                    b: b.to_vec(),
                }
            })
            .collect();
        let (head_w, head_b) = m.head();
        PackedLstm { cells, head_w: PackedMatrix::pack(head_w), head_b: head_b.to_vec() }
    }

    /// Feature width expected per timestep.
    pub fn input_size(&self) -> usize {
        self.cells[0].input
    }

    /// Classes for a row range; one batch row is one sequence of `steps`
    /// timesteps of `cols / steps` features, flattened row-major.
    fn classify_rows(
        &self,
        kernel: Kernel,
        data: &[f32],
        cols: usize,
        steps: usize,
        rows: Range<usize>,
        out: &mut [usize],
    ) {
        let local = rows.len();
        let top_hidden = self.cells.last().expect("non-empty lstm").hidden;
        // Row r's per-timestep inputs to the current layer sit at
        // r * steps * width: the raw feature rows are already laid out
        // that way, and each layer's outputs come back the same way.
        let features = &data[rows.start * cols..rows.end * cols];
        let mut layer_out = Vec::new();
        for (li, cell) in self.cells.iter().enumerate() {
            let input = if li == 0 { features } else { &layer_out };
            let mut h = vec![0.0f32; local * cell.hidden];
            let mut c = vec![0.0f32; local * cell.hidden];
            layer_out = cell.forward_batch(kernel, input, steps, &mut h, &mut c);
        }
        // Head: see `head_argmax` — identical math to the naive forward.
        let mut logits = vec![0.0f32; self.head_b.len()];
        for (r, slot) in out.iter_mut().enumerate() {
            let last_h =
                &layer_out[(r * steps + steps - 1) * top_hidden..(r * steps + steps) * top_hidden];
            *slot = head_argmax(&self.head_w, &self.head_b, last_h, &mut logits);
        }
    }

    /// Argmax classes for a batch of flattened sequences; bit-identical to
    /// looping `LstmClassifier::classify` row by row. Kernel comes from
    /// `LAKE_SIMD` / CPU detection; see [`PackedLstm::classify_with`].
    pub fn classify(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
        pool: Option<&WorkerPool>,
    ) -> Vec<usize> {
        self.classify_with(data, rows, cols, steps, pool, Kernel::from_env())
    }

    /// [`PackedLstm::classify`] with an explicit microkernel (bit-identical
    /// for every choice).
    pub fn classify_with(
        &self,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
        pool: Option<&WorkerPool>,
        kernel: Kernel,
    ) -> Vec<usize> {
        let kernel = kernel.clamped();
        assert!(steps > 0 && cols.is_multiple_of(steps), "bad sequence shape");
        assert_eq!(cols / steps, self.input_size(), "lstm feature width mismatch");
        assert!(data.len() >= rows * cols, "lstm batch buffer too short");
        let mut out = vec![0usize; rows];
        if rows == 0 {
            return out;
        }
        // `run_partitioned` is specialised for f32 chunks; partition the
        // usize output the same way here.
        let parallel = match pool {
            Some(p) if p.workers() > 1 && rows > 1 => Some(p),
            _ => None,
        };
        match parallel {
            None => self.classify_rows(kernel, data, cols, steps, 0..rows, &mut out),
            Some(pool) => {
                let ranges = partition(rows, pool.workers());
                let per = ranges[0].len();
                let chunks: Vec<Mutex<(Range<usize>, &mut [usize])>> = out
                    .chunks_mut(per)
                    .zip(ranges)
                    .map(|(chunk, range)| Mutex::new((range, chunk)))
                    .collect();
                let job = |w: usize| {
                    if let Some(slot) = chunks.get(w) {
                        let mut guard = slot.lock().expect("gemm chunk poisoned");
                        let (range, chunk) = &mut *guard;
                        self.classify_rows(kernel, data, cols, steps, range.clone(), chunk);
                    }
                };
                pool.run(&job);
            }
        }
        out
    }
}

/// Head logits + argmax for one row: logits seeded with the bias then
/// accumulated by k-outer saxpy with no zero skip, exactly as
/// `LstmClassifier::forward`; argmax keeps the *last* maximal index,
/// matching `max_by(partial_cmp)`. Shared by the f32 and int8 LSTM paths
/// (the int8 format keeps its head in f32 — it is a few dozen floats).
pub(crate) fn head_argmax(
    head_w: &PackedMatrix,
    head_b: &[f32],
    last_h: &[f32],
    logits: &mut [f32],
) -> usize {
    logits.copy_from_slice(head_b);
    for (k, &hv) in last_h.iter().enumerate() {
        let row = head_w.row(k);
        for (lj, &wj) in logits.iter_mut().zip(row) {
            *lj += hv * wj;
        }
    }
    let mut best = 0usize;
    let mut best_v = logits[0];
    for (j, &v) in logits.iter().enumerate().skip(1) {
        match v.partial_cmp(&best_v).expect("no NaN logits") {
            std::cmp::Ordering::Less => {}
            _ => {
                best = j;
                best_v = v;
            }
        }
    }
    best
}

/// A packed model, keyed in the cache by model id.
#[derive(Debug)]
pub enum PackedModel {
    /// Packed MLP.
    Mlp(PackedMlp),
    /// Packed LSTM classifier.
    Lstm(PackedLstm),
    /// Packed int8 MLP.
    QuantMlp(crate::quant::PackedQuantMlp),
    /// Packed int8 LSTM classifier.
    QuantLstm(crate::quant::PackedQuantLstm),
}

// ---------------------------------------------------------------------------
// Cache + engine
// ---------------------------------------------------------------------------

/// Per-model cache of packed weights, keyed by (model id, version,
/// [`ModelFormat`]).
///
/// Packing is paid once per installed version; versioned keys mean an
/// in-flight call pinned to version `v` and new calls on `v+1` each hit
/// their own packed form during a hot-swap window, and the format key
/// keeps an f32 oracle and an int8 sibling distinct. The daemon drops all
/// of an id's versions when the model is unloaded.
#[derive(Debug, Default)]
pub struct PackedModelCache {
    entries: Mutex<HashMap<(u64, u64, ModelFormat), Arc<PackedModel>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PackedModelCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached packed form of `(id, version, format)`, packing via `pack`
    /// on miss. `is_kind` guards against an id being reused by a different
    /// model family.
    fn get_or_pack(
        &self,
        id: u64,
        version: u64,
        format: ModelFormat,
        is_kind: impl Fn(&PackedModel) -> bool,
        pack: impl FnOnce() -> PackedModel,
    ) -> Arc<PackedModel> {
        let mut entries = self.entries.lock().expect("packed cache poisoned");
        if let Some(hit) = entries.get(&(id, version, format)) {
            if is_kind(hit) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let packed = Arc::new(pack());
        entries.insert((id, version, format), Arc::clone(&packed));
        packed
    }

    /// Drops every version's packed entry for `id` (model unloaded or its
    /// weights were replaced outside the versioned install path).
    pub fn invalidate(&self, id: u64) {
        self.entries.lock().expect("packed cache poisoned").retain(|&(k, _, _), _| k != id);
    }

    /// Drops every entry (daemon crash wipes model state).
    pub fn clear(&self) {
        self.entries.lock().expect("packed cache poisoned").clear();
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// Point-in-time counters for the fast path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Worker threads in the pool (after the host-core clamp).
    pub workers: usize,
    /// Worker threads originally requested, before clamping to host cores.
    pub workers_requested: usize,
    /// Name of the active microkernel (`avx2`, `sse4.1`, `scalar`).
    pub simd: &'static str,
    /// Pool jobs dispatched (each fans out to every worker).
    pub pool_runs: u64,
    /// Worker-slots that received a non-empty row range.
    pub pool_tasks: u64,
    /// Batches small enough to run inline on the caller thread.
    pub direct_runs: u64,
    /// Batches that *could* have pooled (multi-row, multi-worker) but ran
    /// inline because they were under the work-size threshold — fan-out
    /// and join cost more than they buy below it.
    pub pool_bypassed: u64,
    /// Packed-weight cache hits.
    pub cache_hits: u64,
    /// Packed-weight cache misses (a packing pass was paid).
    pub cache_misses: u64,
}

impl EngineStats {
    /// Fraction of dispatched worker-slots that carried work, in [0, 1].
    /// 1.0 means every pool fan-out kept every worker busy.
    pub fn pool_utilization(&self) -> f64 {
        let slots = self.pool_runs.saturating_mul(self.workers as u64);
        if slots == 0 {
            return 0.0;
        }
        self.pool_tasks as f64 / slots as f64
    }
}

/// Default pool work-size threshold: batches under this many rows run
/// inline on the caller. Measured floor, not a guess — the PR 4 scaling
/// numbers (`BENCH_PR4.json`) showed an 8-row LSTM batch *losing* to the
/// naive path under 4 workers (0.88×): per-row work is microseconds, so
/// the pool's fan-out/join handshake dominates until a few dozen rows.
pub const DEFAULT_POOL_MIN_ROWS: usize = 32;

/// The inference fast path: fixed worker pool + packed model cache.
///
/// Outputs are bit-identical to the naive `Mlp::classify` /
/// `LstmClassifier::classify` loops regardless of the worker count.
#[derive(Debug)]
pub struct InferenceEngine {
    pool: WorkerPool,
    cache: PackedModelCache,
    pool_min_rows: usize,
    workers_requested: usize,
    kernel: Kernel,
    tasks: AtomicU64,
    direct: AtomicU64,
    bypassed: AtomicU64,
}

impl InferenceEngine {
    /// Engine with a pool of `workers` threads (clamped to the host's
    /// available cores — an oversubscribed pool only buys context-switch
    /// latency, the BENCH_PR4 p99 blowup), the default work-size threshold
    /// ([`DEFAULT_POOL_MIN_ROWS`]), and the `LAKE_SIMD`-selected kernel.
    pub fn new(workers: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_host_cores(workers, cores)
    }

    /// [`InferenceEngine::new`] with an explicit host core count, for
    /// tests and benches that need a deterministic clamp regardless of the
    /// machine they run on.
    pub fn with_host_cores(workers: usize, host_cores: usize) -> Self {
        let effective = workers.clamp(1, host_cores.max(1));
        InferenceEngine {
            pool: WorkerPool::new(effective),
            cache: PackedModelCache::new(),
            pool_min_rows: DEFAULT_POOL_MIN_ROWS,
            workers_requested: workers,
            kernel: Kernel::from_env(),
            tasks: AtomicU64::new(0),
            direct: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
        }
    }

    /// Overrides the pool work-size threshold: batches with fewer than
    /// `min_rows` rows run inline on the caller thread even when a
    /// multi-worker pool is available. `0`/`1` disables the bypass
    /// (every multi-row batch pools — the pre-threshold behaviour).
    pub fn with_pool_threshold(mut self, min_rows: usize) -> Self {
        self.pool_min_rows = min_rows;
        self
    }

    /// Overrides the microkernel (default: `LAKE_SIMD` / CPU detection).
    /// Requests the CPU cannot honor clamp down to the best available.
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel.clamped();
        self
    }

    /// The microkernel this engine dispatches to.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The active pool work-size threshold.
    pub fn pool_threshold(&self) -> usize {
        self.pool_min_rows
    }

    /// The underlying pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The packed-model cache.
    pub fn cache(&self) -> &PackedModelCache {
        &self.cache
    }

    fn account(&self, rows: usize) -> Option<&WorkerPool> {
        if self.pool.workers() > 1 && rows > 1 {
            if rows < self.pool_min_rows {
                // Multi-worker pool available, but the batch is under the
                // work-size floor: the fan-out/join handshake would cost
                // more than the parallelism buys back, so run inline.
                self.bypassed.fetch_add(1, Ordering::Relaxed);
                self.direct.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            let active = partition(rows, self.pool.workers()).len() as u64;
            self.tasks.fetch_add(active, Ordering::Relaxed);
            Some(&self.pool)
        } else {
            self.direct.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Classifies a row-major MLP batch through the packed fast path.
    /// `version` keys the packed cache so hot-swapped weights never serve
    /// a call pinned to the previous version.
    pub fn classify_mlp(
        &self,
        id: u64,
        version: u64,
        model: &Mlp,
        data: &[f32],
        rows: usize,
        cols: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::F32,
            |m| matches!(m, PackedModel::Mlp(_)),
            || PackedModel::Mlp(PackedMlp::pack(model)),
        );
        let PackedModel::Mlp(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, pool, self.kernel)
    }

    /// Classifies a row-major batch through an int8 quantized MLP. Same
    /// cache/pool behaviour as [`InferenceEngine::classify_mlp`]; the
    /// packed entry is keyed [`ModelFormat::Int8`] so an f32 oracle under
    /// the same id never collides.
    pub fn classify_quant_mlp(
        &self,
        id: u64,
        version: u64,
        model: &crate::quant::QuantizedMlp,
        data: &[f32],
        rows: usize,
        cols: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::Int8,
            |m| matches!(m, PackedModel::QuantMlp(_)),
            || PackedModel::QuantMlp(crate::quant::PackedQuantMlp::pack(model)),
        );
        let PackedModel::QuantMlp(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, pool, self.kernel)
    }

    /// Classifies a batch of flattened sequences through an int8 quantized
    /// LSTM. Same cache/pool behaviour as
    /// [`InferenceEngine::classify_lstm`].
    #[allow(clippy::too_many_arguments)] // id+version key the packed cache
    pub fn classify_quant_lstm(
        &self,
        id: u64,
        version: u64,
        model: &crate::quant::QuantizedLstm,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::Int8,
            |m| matches!(m, PackedModel::QuantLstm(_)),
            || PackedModel::QuantLstm(crate::quant::PackedQuantLstm::pack(model)),
        );
        let PackedModel::QuantLstm(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, steps, pool, self.kernel)
    }

    /// Classifies a batch of flattened LSTM sequences through the packed
    /// fast path. `version` keys the packed cache so hot-swapped weights
    /// never serve a call pinned to the previous version.
    #[allow(clippy::too_many_arguments)] // id+version key the packed cache
    pub fn classify_lstm(
        &self,
        id: u64,
        version: u64,
        model: &LstmClassifier,
        data: &[f32],
        rows: usize,
        cols: usize,
        steps: usize,
    ) -> Vec<usize> {
        let packed = self.cache.get_or_pack(
            id,
            version,
            ModelFormat::F32,
            |m| matches!(m, PackedModel::Lstm(_)),
            || PackedModel::Lstm(PackedLstm::pack(model)),
        );
        let PackedModel::Lstm(packed) = &*packed else { unreachable!("kind-guarded") };
        let pool = self.account(rows);
        packed.classify_with(data, rows, cols, steps, pool, self.kernel)
    }

    /// Drops the packed entry for `id`.
    pub fn invalidate(&self, id: u64) {
        self.cache.invalidate(id);
    }

    /// Drops every packed entry.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let (cache_hits, cache_misses) = self.cache.stats();
        EngineStats {
            workers: self.pool.workers(),
            workers_requested: self.workers_requested,
            simd: self.kernel.name(),
            pool_runs: self.pool.runs(),
            pool_tasks: self.tasks.load(Ordering::Relaxed),
            direct_runs: self.direct.load(Ordering::Relaxed),
            pool_bypassed: self.bypassed.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize, sparse: bool) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if sparse && rng.gen_range(0.0..1.0f32) < 0.3 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0f32)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn packed_layout_is_row_major_and_padded() {
        let b = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let pb = PackedMatrix::pack(&b);
        assert_eq!(pb.k(), 2);
        assert_eq!(pb.n(), 3);
        assert_eq!(pb.stride() % PACK_LANE, 0);
        assert_eq!(pb.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(pb.row(1), &[4.0, 5.0, 6.0]);
    }

    /// Alignment audit: every packed row must start on a 64-byte boundary
    /// — SIMD kernels assume rows never straddle a cache-line start. The
    /// input `Matrix` carries no alignment guarantee (kernels only
    /// broadcast single elements from it), so the packed side is the one
    /// that has to hold.
    #[test]
    fn packed_rows_are_64_byte_aligned_for_all_shapes() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(k, n) in &[(1, 1), (2, 3), (7, 15), (16, 16), (17, 31), (64, 256), (3, 100)] {
            let pb = PackedMatrix::pack(&rand_matrix(&mut rng, k, n, false));
            assert!(pb.base_aligned(), "({k},{n}) base not aligned");
            for kk in 0..k {
                assert_eq!(pb.row(kk).as_ptr() as usize % 64, 0, "({k},{n}) row {kk}");
            }
        }
    }

    /// Every available kernel must agree with the scalar oracle to the
    /// bit, across shapes that exercise the 32/16-column register blocks,
    /// the narrow-vector loops, the scalar tails, and the KC/NC tiling
    /// boundaries.
    #[test]
    fn simd_kernels_are_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 31, 33),
            (2, 300, 40), // k spans two KC tiles
            (5, 64, 300), // n spans two NC tiles
            (2, 257, 260),
            (64, 256, 31),
        ] {
            let a = rand_matrix(&mut rng, m, k, true);
            let b = rand_matrix(&mut rng, k, n, false);
            let pb = PackedMatrix::pack(&b);
            let want = a.matmul(&b);
            for kernel in [Kernel::Scalar, Kernel::Sse, Kernel::Avx2] {
                if !kernel.available() {
                    continue;
                }
                let got = matmul_packed_with(&a, &pb, None, kernel);
                for (x, y) in want.data().iter().zip(got.data()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{} ({m},{k},{n})", kernel.name());
                }
            }
        }
    }

    #[test]
    fn kernel_requests_clamp_to_available() {
        // `auto` resolves to the detected best; explicit requests at or
        // below the detected level are honored exactly.
        let best = Kernel::detect();
        assert_eq!(Kernel::from_name("auto"), Some(best));
        assert_eq!(Kernel::from_name("scalar"), Some(Kernel::Scalar));
        assert_eq!(Kernel::from_name("nope"), None);
        for req in [Kernel::Sse, Kernel::Avx2] {
            let got = Kernel::from_name(req.name()).unwrap();
            assert!(got.available());
            if req.available() {
                assert_eq!(got, req);
            }
        }
    }

    #[test]
    fn packed_matmul_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in
            &[(1, 1, 1), (2, 3, 4), (17, 33, 9), (64, 256, 31), (5, 16, 16), (3, 100, 2)]
        {
            let a = rand_matrix(&mut rng, m, k, true);
            let b = rand_matrix(&mut rng, k, n, false);
            let pb = PackedMatrix::pack(&b);
            assert_bits_eq(&a.matmul(&b), &matmul_packed(&a, &pb, None));
        }
    }

    #[test]
    fn packed_matmul_parallel_is_bit_identical_for_any_worker_count() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_matrix(&mut rng, 67, 48, true);
        let b = rand_matrix(&mut rng, 48, 24, false);
        let pb = PackedMatrix::pack(&b);
        let want = a.matmul(&b);
        for workers in [1, 2, 3, 4, 7] {
            let pool = WorkerPool::new(workers);
            assert_bits_eq(&want, &matmul_packed(&a, &pb, Some(&pool)));
        }
    }

    #[test]
    fn packed_mlp_classify_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Tanh] {
            let m = Mlp::new(&[12, 32, 16, 4], act, &mut rng);
            let x = rand_matrix(&mut rng, 65, 12, true);
            let want = m.classify(&x);
            let packed = PackedMlp::pack(&m);
            let pool = WorkerPool::new(4);
            assert_eq!(want, packed.classify(x.data(), 65, 12, None));
            assert_eq!(want, packed.classify(x.data(), 65, 12, Some(&pool)));
        }
    }

    #[test]
    fn packed_mlp_logits_match_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = Mlp::new(&[8, 24, 3], Activation::Relu, &mut rng);
        let x = rand_matrix(&mut rng, 9, 8, true);
        let packed = PackedMlp::pack(&m);
        assert_bits_eq(&m.forward(&x), &packed.forward(x.data(), 9, 8, None));
    }

    #[test]
    fn packed_lstm_classify_matches_naive_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = LstmClassifier::new(6, 10, 2, 5, &mut rng);
        let (rows, steps, feat) = (33, 4, 6);
        let cols = steps * feat;
        let x = rand_matrix(&mut rng, rows, cols, true);
        let want: Vec<usize> = (0..rows)
            .map(|r| {
                let seq: Vec<Vec<f32>> =
                    (0..steps).map(|t| x.row(r)[t * feat..(t + 1) * feat].to_vec()).collect();
                m.classify(&seq)
            })
            .collect();
        let packed = PackedLstm::pack(&m);
        let pool = WorkerPool::new(3);
        assert_eq!(want, packed.classify(x.data(), rows, cols, steps, None));
        assert_eq!(want, packed.classify(x.data(), rows, cols, steps, Some(&pool)));
    }

    /// One LSTM path for every batch size: full 4-row blocks, row tails
    /// of 1–3, and batches on both sides of the pool floor all classify
    /// bit-identically to the naive loop under every available kernel.
    #[test]
    fn packed_lstm_matches_naive_bitwise_across_row_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = LstmClassifier::new(5, 9, 2, 4, &mut rng);
        let (steps, feat) = (3, 5);
        let cols = steps * feat;
        let packed = PackedLstm::pack(&m);
        // Dense features let whole blocks take the 4-row kernel; sparse
        // ones send most of them to the per-row fallback. Every row count
        // runs both.
        for (rows, sparse) in [1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 64]
            .into_iter()
            .flat_map(|rows| [(rows, false), (rows, true)])
        {
            let x = rand_matrix(&mut rng, rows, cols, sparse);
            let want: Vec<usize> = (0..rows)
                .map(|r| {
                    let seq: Vec<Vec<f32>> =
                        (0..steps).map(|t| x.row(r)[t * feat..(t + 1) * feat].to_vec()).collect();
                    m.classify(&seq)
                })
                .collect();
            for kernel in [Kernel::Scalar, Kernel::Sse, Kernel::Avx2] {
                if !kernel.available() {
                    continue;
                }
                let got = packed.classify_with(x.data(), rows, cols, steps, None, kernel);
                assert_eq!(want, got, "rows={rows} sparse={sparse} kernel={}", kernel.name());
            }
        }
    }

    /// The batched cell leaves every row's final `h` and `c` bit-identical
    /// to looping `LstmCell::step`, under every available kernel. The
    /// shapes put 4-row blocks next to row tails, and gate widths
    /// (`4·hidden` = 12, 20, 36) next to 16-column blocks with column
    /// tails; `x` of width 300 spans two KC slices. Exact `0.0` and `-0.0`
    /// in `x` and in the starting `h`, and rows whose `h` stays exactly
    /// zero while their `x` is zero, put dense and fallback blocks in one
    /// timestep.
    #[test]
    fn batched_cell_state_matches_lstm_cell_step_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(feat, hidden) in &[(1, 5), (7, 3), (7, 9), (300, 4), (6, 16)] {
            let m = LstmClassifier::new(feat, hidden, 1, 2, &mut rng);
            let cell = &m.cells()[0];
            let packed = &PackedLstm::pack(&m).cells[0];
            let steps = 4;
            for rows in [1, 3, 4, 5, 8, 9] {
                let mut x: Vec<f32> =
                    (0..rows * steps * feat).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
                let mut h0: Vec<f32> =
                    (0..rows * hidden).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                let mut c0: Vec<f32> =
                    (0..rows * hidden).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                for r in (1..rows).step_by(3) {
                    x[r * steps * feat] = 0.0;
                    h0[r * hidden] = -0.0;
                }
                for r in (2..rows).step_by(4) {
                    x[(r * steps + 1) * feat + feat - 1] = -0.0;
                    h0[r * hidden + hidden - 1] = 0.0;
                }
                if rows > 4 {
                    // Zero input and zero state: g = tanh(0) = 0 keeps c
                    // and h exactly zero for the first two steps.
                    x[4 * steps * feat..(4 * steps + 2) * feat].fill(0.0);
                    h0[4 * hidden..5 * hidden].fill(0.0);
                    c0[4 * hidden..5 * hidden].fill(0.0);
                }
                let mut want_h = Vec::new();
                let mut want_c = Vec::new();
                for r in 0..rows {
                    let mut h = h0[r * hidden..(r + 1) * hidden].to_vec();
                    let mut c = c0[r * hidden..(r + 1) * hidden].to_vec();
                    for t in 0..steps {
                        let xt = &x[(r * steps + t) * feat..(r * steps + t + 1) * feat];
                        (h, c, _) = cell.step(xt, &h, &c);
                    }
                    want_h.extend(h);
                    want_c.extend(c);
                }
                for kernel in [Kernel::Scalar, Kernel::Sse, Kernel::Avx2] {
                    if !kernel.available() {
                        continue;
                    }
                    let (mut h, mut c) = (h0.clone(), c0.clone());
                    packed.forward_batch(kernel, &x, steps, &mut h, &mut c);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    let what = format!("feat={feat} hidden={hidden} rows={rows} {}", kernel.name());
                    assert_eq!(bits(&want_h), bits(&h), "h: {what}");
                    assert_eq!(bits(&want_c), bits(&c), "c: {what}");
                }
            }
        }
    }

    #[test]
    fn lstm_head_tie_break_keeps_last_maximum() {
        // A classifier whose head weights are all zero produces logits equal
        // to the head bias; equal biases must resolve to the LAST class,
        // matching `max_by(partial_cmp)`.
        let mut rng = StdRng::seed_from_u64(2);
        let m = LstmClassifier::new(3, 4, 1, 3, &mut rng);
        let cells = m.cells().to_vec();
        let zero_head = Matrix::zeros(4, 3);
        let tied = LstmClassifier::from_parts(cells, zero_head, vec![1.0, 1.0, 1.0]);
        let seq = vec![vec![0.5, -0.25, 0.0]; 2];
        assert_eq!(tied.classify(&seq), 2);
        let packed = PackedLstm::pack(&tied);
        assert_eq!(packed.classify(&[0.5, -0.25, 0.0, 0.5, -0.25, 0.0], 1, 6, 2, None), vec![2]);
    }

    #[test]
    fn mlp_tie_break_keeps_first_maximum() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Mlp::from_parameters(vec![(Matrix::zeros(3, 2), vec![1.0, 1.0])], Activation::Relu);
        let x = rand_matrix(&mut rng, 4, 3, false);
        assert_eq!(m.classify(&x), vec![0, 0, 0, 0]);
        let packed = PackedMlp::pack(&m);
        assert_eq!(packed.classify(x.data(), 4, 3, None), vec![0, 0, 0, 0]);
    }

    #[test]
    fn engine_caches_packing_and_counts_utilization() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        // Explicit host-core override: the CI host may have a single core,
        // which would clamp the pool to one worker and bypass it entirely.
        let engine = InferenceEngine::with_host_cores(2, 2).with_pool_threshold(2);
        let x = rand_matrix(&mut rng, 8, 4, false);
        let a = engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        let b = engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        assert_eq!(a, b);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.pool_runs, 2);
        assert_eq!(stats.pool_bypassed, 0);
        assert!(stats.pool_utilization() > 0.9, "{stats:?}");

        engine.invalidate(7);
        engine.classify_mlp(7, 1, &m, x.data(), 8, 4);
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn single_row_batches_run_inline() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let engine = InferenceEngine::with_host_cores(4, 4);
        let x = rand_matrix(&mut rng, 1, 4, false);
        assert_eq!(engine.classify_mlp(1, 1, &m, x.data(), 1, 4), m.classify(&x));
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);
    }

    #[test]
    fn small_batches_bypass_the_pool() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        // 4 workers, default threshold (32): an 8-row batch is exactly the
        // regressing shape from the PR 4 scaling run and must stay inline.
        let engine = InferenceEngine::with_host_cores(4, 4);
        assert_eq!(engine.pool_threshold(), DEFAULT_POOL_MIN_ROWS);
        let small = rand_matrix(&mut rng, 8, 4, false);
        assert_eq!(engine.classify_mlp(3, 1, &m, small.data(), 8, 4), m.classify(&small));
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);
        assert_eq!(stats.pool_bypassed, 1);

        // At the threshold the pool engages again, with identical output.
        let big = rand_matrix(&mut rng, DEFAULT_POOL_MIN_ROWS, 4, false);
        assert_eq!(
            engine.classify_mlp(3, 1, &m, big.data(), DEFAULT_POOL_MIN_ROWS, 4),
            m.classify(&big)
        );
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 1);
        assert_eq!(stats.pool_bypassed, 1);

        // Single-row batches are direct but NOT counted as bypassed: the
        // pool was never a candidate for them.
        let one = rand_matrix(&mut rng, 1, 4, false);
        engine.classify_mlp(3, 1, &m, one.data(), 1, 4);
        let stats = engine.stats();
        assert_eq!(stats.direct_runs, 2);
        assert_eq!(stats.pool_bypassed, 1);
    }

    /// Regression (BENCH_PR4 oversubscription): a 2-worker pool on a
    /// 1-core host showed a 4.5× p99 blowup at batch 1 — two threads
    /// context-switching over one core buy nothing and cost latency. The
    /// engine now clamps effective workers to the host core count, so on
    /// an oversubscribed host every batch runs inline (the direct/bypass
    /// floor covers what the pool used to thrash on).
    #[test]
    fn oversubscribed_workers_clamp_to_host_cores() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = Mlp::new(&[4, 8, 2], Activation::Relu, &mut rng);
        let engine = InferenceEngine::with_host_cores(4, 1);
        let stats = engine.stats();
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.workers_requested, 4);

        // A batch far above the pool threshold still runs inline: with one
        // effective worker the pool is never a candidate.
        let big = rand_matrix(&mut rng, 2 * DEFAULT_POOL_MIN_ROWS, 4, false);
        assert_eq!(
            engine.classify_mlp(5, 1, &m, big.data(), 2 * DEFAULT_POOL_MIN_ROWS, 4),
            m.classify(&big)
        );
        let stats = engine.stats();
        assert_eq!(stats.pool_runs, 0);
        assert_eq!(stats.direct_runs, 1);

        // The default constructor also clamps to the real host.
        let auto = InferenceEngine::new(64);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(auto.stats().workers <= cores);
        assert_eq!(auto.stats().workers_requested, 64);
    }

    #[test]
    fn worker_pool_survives_panicking_job() {
        let pool = WorkerPool::new(2);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(panicked.is_err());
        // The pool stays usable for well-behaved jobs afterwards.
        let hits = AtomicU64::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Values with a healthy density of exact zeros (both signs) so the
    /// `a == 0.0` skip path is exercised — dropping or reordering the skip
    /// breaks bit identity as soon as rounding order matters.
    fn sparse_f32() -> impl Strategy<Value = f32> {
        prop_oneof![Just(0.0f32), Just(-0.0f32), -10.0f32..10.0]
    }

    proptest! {
        /// Packed GEMM is bit-identical to the naive matmul across shapes
        /// (and therefore packed strides), sparsity, and worker counts.
        #[test]
        fn packed_matmul_bit_identical(
            (m, k, n) in (1usize..32, 1usize..48, 1usize..24),
            workers in 1usize..5,
            a_data in proptest::collection::vec(sparse_f32(), 32 * 48),
            b_data in proptest::collection::vec(sparse_f32(), 48 * 24),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let pb = PackedMatrix::pack(&b);
            let want = a.matmul(&b);
            let serial = matmul_packed(&a, &pb, None);
            let pool = WorkerPool::new(workers);
            let parallel = matmul_packed(&a, &pb, Some(&pool));
            for ((x, y), z) in want.data().iter().zip(serial.data()).zip(parallel.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
                prop_assert_eq!(x.to_bits(), z.to_bits());
            }
        }

        /// Kernel-dispatch equivalence: every kernel the host supports
        /// (scalar always, SSE/AVX2 when detected) produces bit-identical
        /// output for arbitrary shapes and sparsity — the scalar oracle
        /// transfers its chaos-invariant guarantee to the SIMD paths.
        #[test]
        fn kernel_dispatch_bit_identical(
            (m, k, n) in (1usize..12, 1usize..80, 1usize..80),
            a_data in proptest::collection::vec(sparse_f32(), 12 * 80),
            b_data in proptest::collection::vec(sparse_f32(), 80 * 80),
        ) {
            let a = Matrix::from_vec(m, k, a_data[..m * k].to_vec());
            let b = Matrix::from_vec(k, n, b_data[..k * n].to_vec());
            let pb = PackedMatrix::pack(&b);
            let want = matmul_packed_with(&a, &pb, None, Kernel::Scalar);
            for kernel in [Kernel::Sse, Kernel::Avx2] {
                if !kernel.available() {
                    continue;
                }
                let got = matmul_packed_with(&a, &pb, None, kernel);
                for (x, y) in want.data().iter().zip(got.data()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        /// The packed MLP forward (fused bias+activation epilogue, any
        /// worker count) classifies bit-identically to `Mlp::classify`
        /// across layer shapes and batch sizes.
        #[test]
        fn packed_mlp_classify_equivalent(
            (input, hidden, classes) in (1usize..10, 1usize..24, 2usize..6),
            rows in 1usize..80,
            workers in 1usize..4,
            act_pick in 0u8..3,
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(sparse_f32(), 80 * 10),
        ) {
            let act = match act_pick {
                0 => Activation::Relu,
                1 => Activation::Sigmoid,
                _ => Activation::Tanh,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let model = Mlp::new(&[input, hidden, classes], act, &mut rng);
            let x = Matrix::from_vec(rows, input, x_data[..rows * input].to_vec());
            let want = model.classify(&x);
            let packed = PackedMlp::pack(&model);
            let pool = WorkerPool::new(workers);
            prop_assert_eq!(&want, &packed.classify(x.data(), rows, input, None));
            prop_assert_eq!(&want, &packed.classify(x.data(), rows, input, Some(&pool)));
            let logits = packed.forward(x.data(), rows, input, Some(&pool));
            let naive = model.forward(&x);
            for (x, y) in naive.data().iter().zip(logits.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        /// The batched packed LSTM classifies every row bit-identically to
        /// looping `LstmClassifier::classify` one sequence at a time.
        #[test]
        fn packed_lstm_classify_equivalent(
            (feat, hidden, layers, classes) in (1usize..6, 1usize..10, 1usize..3, 2usize..5),
            (rows, steps) in (1usize..32, 1usize..5),
            workers in 1usize..4,
            seed in 0u64..u64::MAX,
            x_data in proptest::collection::vec(sparse_f32(), 32 * 5 * 6),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = LstmClassifier::new(feat, hidden, layers, classes, &mut rng);
            let cols = steps * feat;
            let data = &x_data[..rows * cols];
            let want: Vec<usize> = (0..rows)
                .map(|r| {
                    let seq: Vec<Vec<f32>> = (0..steps)
                        .map(|t| data[r * cols + t * feat..r * cols + (t + 1) * feat].to_vec())
                        .collect();
                    model.classify(&seq)
                })
                .collect();
            let packed = PackedLstm::pack(&model);
            let pool = WorkerPool::new(workers);
            prop_assert_eq!(&want, &packed.classify(data, rows, cols, steps, None));
            prop_assert_eq!(&want, &packed.classify(data, rows, cols, steps, Some(&pool)));
        }
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;

    #[test]
    #[ignore]
    fn epilogue_share() {
        let hd = 64usize;
        let mut z = vec![0.3f32; 4 * hd];
        let mut h = vec![0.1f32; hd];
        let mut c = vec![0.2f32; hd];
        let reps = 256 * 8 * 10; // rows x steps x 10
        for kernel in [Kernel::Scalar, Kernel::detect()] {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                for (i, v) in z.iter_mut().enumerate() {
                    *v = 0.3 + (i as f32) * 1e-3;
                }
                lstm_gate_epilogue(kernel, &z, &mut h, &mut c);
            }
            let e = t.elapsed().as_secs_f64() * 1e6 / 10.0;
            println!("{} epilogue for 256 rows x 8 steps: {e:.0}us", kernel.name());
        }
    }
}
