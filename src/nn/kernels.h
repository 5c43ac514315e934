/**
 * @file
 * Cache-blocked, thread-parallel compute kernels under the autograd ops.
 *
 * Every kernel distributes disjoint output row (or batch) ranges across
 * the global ThreadPool and gives each output element a fixed
 * accumulation order that does not depend on the partition — k-blocks
 * are visited in increasing order, and each output element is owned by
 * exactly one thread — so results are bit-identical for any thread
 * count (no atomics, no cross-thread reductions).
 *
 * gemm/gemmTN keep the per-element order of the naive i-k-j loops they
 * replaced, with a single sequential accumulator chain per output
 * element and `__restrict`-qualified operands (they never alias).
 * gemmRows is register-blocked: six C rows times one or two vector
 * panels of columns stay in registers across the whole k loop, and the
 * last n % 8 columns run through the same panel code on a zero-padded
 * packed copy of B. gemmTN unrolls its i panel four-wide instead.
 *
 * gemmNT/bmmNT (dA = dC * B^T) pack B^T once per call (per batch entry
 * for bmmNT) into the calling thread's arena scratch. Each GA(i, p)
 * then sums j = 0, 1, ... n-1 from zero and adds the total to GA once,
 * with the p loop innermost as a vectorisable axpy over a packed row.
 * The order is fixed, so the contract above holds; the bits still
 * depend on where the compiler contracts multiply-adds into FMAs, so a
 * dot-product loop over the same j order does not reproduce them.
 *
 * The forward micro-kernels (gemmRows / bmm's per-batch body) are
 * exported and marked noinline: the fused inference path (nn/infer_ops,
 * models/fused_infer) calls the *same machine code* as the autograd
 * ops, which is what makes "fused forward == interpreted forward" an
 * exact bitwise statement instead of a numerical-tolerance one.
 */
#pragma once

#include <cstdint>

/** Non-aliasing pointer qualifier (GCC/Clang/MSVC spelling). */
#define TLP_RESTRICT __restrict

/** Force one shared code instance for bit-identity across call sites. */
#if defined(__GNUC__) || defined(__clang__)
#define TLP_NOINLINE __attribute__((noinline))
#else
#define TLP_NOINLINE
#endif

namespace tlp::nn::kern {

/**
 * Scalar work (~flops) a chunk must amortize before a loop is split
 * across threads; small tensors stay on the calling thread.
 */
constexpr int64_t kParallelGrainWork = 16 * 1024;

/** Rows per chunk so each chunk holds ~kParallelGrainWork scalar ops. */
int64_t rowGrain(int64_t work_per_row);

/**
 * Serial micro-kernel: rows [i0, i1) of C[m, n] = A[m, k] * B[k, n],
 * C fully overwritten. Register-blocked: six C rows times a one- or
 * two-vector column panel accumulate in registers across the whole k
 * loop; the last n % 8 columns use the same panel code on a zero-padded
 * pack of B. Every element is the chain c = 0, c += a[i, p] * b[p, j]
 * for p = 0, 1, ... k-1 — identical to naive i-k-j — whichever row
 * block or column panel holds it, so it is position-independent: any
 * row subset of A times any gathered column subset of B reproduces the
 * matching elements of the full product bit for bit (the fused forward
 * relies on this to multiply only distinct rows). Exported (and never
 * inlined) so the fused inference path reuses this exact code; all
 * three operands must be disjoint.
 */
TLP_NOINLINE void gemmRows(const float *TLP_RESTRICT a,
                           const float *TLP_RESTRICT b,
                           float *TLP_RESTRICT c, int64_t i0, int64_t i1,
                           int64_t k, int64_t n);

/** C[m, n] = A[m, k] * B[k, n] (C fully overwritten). */
void gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
          int64_t n);

/**
 * GA[m, k] += GC[m, n] * B[k, n]^T (the dA = dC * B^T update), with B^T
 * packed once into the calling thread's scratch.
 */
void gemmNT(const float *gc, const float *b, float *ga, int64_t m,
            int64_t k, int64_t n);

/** GB[k, n] += A[m, k]^T * GC[m, n] (the dB = A^T * dC update). */
void gemmTN(const float *a, const float *gc, float *gb, int64_t m,
            int64_t k, int64_t n);

/** C[s] = A[s] * B[s] for s in [0, batch) (C fully overwritten). */
void bmm(const float *a, const float *b, float *c, int64_t batch,
         int64_t m, int64_t k, int64_t n);

/** GA[s] += GC[s] * B[s]^T for s in [0, batch). */
void bmmNT(const float *gc, const float *b, float *ga, int64_t batch,
           int64_t m, int64_t k, int64_t n);

/** GB[s] += A[s]^T * GC[s] for s in [0, batch). */
void bmmTN(const float *a, const float *gc, float *gb, int64_t batch,
           int64_t m, int64_t k, int64_t n);

} // namespace tlp::nn::kern
