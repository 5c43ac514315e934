/**
 * @file
 * Register-blocked, thread-parallel compute kernels under the autograd ops.
 *
 * Every kernel distributes disjoint output row (or batch) ranges across
 * the global ThreadPool and gives each output element a fixed
 * accumulation order that does not depend on the partition — k-blocks
 * are visited in increasing order, and each output element is owned by
 * exactly one thread — so results are bit-identical for any thread
 * count (no atomics, no cross-thread reductions).
 *
 * All six products are register-blocked: up to six output rows times
 * one or two 8-lane vector panels of columns stay in registers across
 * the whole reduction, and a row count that is not a multiple of six
 * ends in one block of the remaining rows. Each output element keeps
 * the single accumulation chain of the naive loop it replaces:
 *
 * - gemm/bmm (gemmRows): C(i, j) starts at 0 and sums p = 0, 1, ...
 *   k-1; the last n % 8 columns run on a zero-padded pack of B.
 * - gemmNT/bmmNT (dA = dC * B^T): B^T is packed once per call (per
 *   batch entry for bmmNT) into the calling thread's arena scratch,
 *   zero-padded to whole panels, so attention's head dim of 8 is one
 *   panel. GA(i, p) sums j = 0, 1, ... n-1 from 0 and the total is
 *   added to GA once.
 * - gemmTN/bmmTN (dB = A^T * dC): A^T's rows are read from A's columns
 *   in place, and dC's last n % 8 columns are packed zero-padded.
 *   GB(p, j) starts from its stored value and sums i = 0, 1, ... m-1,
 *   a block of A's rows per pass; storing and reloading a float is
 *   exact, so the passes form one chain.
 *
 * The order is fixed, so the contract above holds. The bits still
 * depend on where the compiler contracts multiply-adds into FMAs, so
 * the same sum written as a different loop need not reproduce them.
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
