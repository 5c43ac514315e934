#include "nn/kernels.h"

#include <algorithm>

#include "support/arena.h"
#include "support/thread_pool.h"

namespace tlp::nn::kern {

namespace {

/** K-block size: a [kKBlock x n<=256] B panel stays L1-resident. */
constexpr int64_t kKBlock = 64;

/** I-block size for the transposed update (dC panel reuse). */
constexpr int64_t kIBlock = 64;

/** P-block width of the packed transposed update (stack accumulators). */
constexpr int64_t kPBlock = 256;

/**
 * Scratch for @p count floats from the calling thread's arena, valid
 * until the thread's next call (the arena stops growing once it has
 * seen the largest request).
 */
float *
threadScratch(int64_t count)
{
    thread_local Arena scratch;
    scratch.reset();
    return scratch.allocFloats(static_cast<size_t>(count));
}

/** BT[n, k] = B[k, n]^T. */
void
packTransposed(const float *TLP_RESTRICT b, float *TLP_RESTRICT bt,
               int64_t k, int64_t n)
{
    for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j)
            bt[j * k + p] = b[p * n + j];
}

/**
 * Serial micro-kernel: GA rows [i0, i1) of GA += GC * B^T, with B^T
 * packed as bt[n, k]. Per (i, p) the j sum starts from 0 and runs in
 * ascending order, then lands on GA once; the p loop is innermost, an
 * axpy over a contiguous bt row that the compiler vectorises.
 */
void
gemmNTPackedRows(const float *TLP_RESTRICT gc, const float *TLP_RESTRICT bt,
                 float *TLP_RESTRICT ga, int64_t i0, int64_t i1, int64_t k,
                 int64_t n)
{
    float acc[kPBlock];
    for (int64_t i = i0; i < i1; ++i) {
        const float *gcrow = gc + i * n;
        float *TLP_RESTRICT garow = ga + i * k;
        for (int64_t p0 = 0; p0 < k; p0 += kPBlock) {
            const int64_t width = std::min(kPBlock, k - p0);
            std::fill(acc, acc + width, 0.0f);
            for (int64_t j = 0; j < n; ++j) {
                const float g = gcrow[j];
                const float *TLP_RESTRICT btrow = bt + j * k + p0;
                for (int64_t p = 0; p < width; ++p)
                    acc[p] += g * btrow[p];
            }
            for (int64_t p = 0; p < width; ++p)
                garow[p0 + p] += acc[p];
        }
    }
}

/**
 * Serial micro-kernel: GB rows [p0, p1) of GB += A^T * GC, i-blocked.
 * Per (p, j) the i accumulation order is globally increasing, matching
 * the naive i-outer loop it replaced.
 */
void
gemmTNRows(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
           float *TLP_RESTRICT gb, int64_t p0, int64_t p1, int64_t m,
           int64_t k, int64_t n)
{
    for (int64_t i0 = 0; i0 < m; i0 += kIBlock) {
        const int64_t i1 = std::min(m, i0 + kIBlock);
        for (int64_t p = p0; p < p1; ++p) {
            float *TLP_RESTRICT gbrow = gb + p * n;
            int64_t i = i0;
            for (; i + 4 <= i1; i += 4) {
                const float a0 = a[(i + 0) * k + p];
                const float a1 = a[(i + 1) * k + p];
                const float a2 = a[(i + 2) * k + p];
                const float a3 = a[(i + 3) * k + p];
                const float *g0 = gc + (i + 0) * n;
                const float *g1 = gc + (i + 1) * n;
                const float *g2 = gc + (i + 2) * n;
                const float *g3 = gc + (i + 3) * n;
                // One sequential accumulator chain per element: the
                // float addition order is exactly the unrolled-by-1
                // loop's, just with the gbrow load/store hoisted.
                for (int64_t j = 0; j < n; ++j) {
                    float acc = gbrow[j];
                    acc += a0 * g0[j];
                    acc += a1 * g1[j];
                    acc += a2 * g2[j];
                    acc += a3 * g3[j];
                    gbrow[j] = acc;
                }
            }
            for (; i < i1; ++i) {
                const float aval = a[i * k + p];
                const float *gcrow = gc + i * n;
                for (int64_t j = 0; j < n; ++j)
                    gbrow[j] += aval * gcrow[j];
            }
        }
    }
}

} // namespace

int64_t
rowGrain(int64_t work_per_row)
{
    return std::max<int64_t>(
        1, kParallelGrainWork / std::max<int64_t>(1, work_per_row));
}

void
gemmRows(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
         float *TLP_RESTRICT c, int64_t i0, int64_t i1, int64_t k,
         int64_t n)
{
    std::fill(c + i0 * n, c + i1 * n, 0.0f);
    for (int64_t p0 = 0; p0 < k; p0 += kKBlock) {
        const int64_t p1 = std::min(k, p0 + kKBlock);
        for (int64_t i = i0; i < i1; ++i) {
            float *TLP_RESTRICT crow = c + i * n;
            const float *arow = a + i * k;
            int64_t p = p0;
            for (; p + 4 <= p1; p += 4) {
                const float a0 = arow[p + 0];
                const float a1 = arow[p + 1];
                const float a2 = arow[p + 2];
                const float a3 = arow[p + 3];
                const float *b0 = b + (p + 0) * n;
                const float *b1 = b + (p + 1) * n;
                const float *b2 = b + (p + 2) * n;
                const float *b3 = b + (p + 3) * n;
                // Sequential accumulator chain: same float op order as
                // four single-p iterations, but the C row stays in
                // registers across four FMA streams.
                for (int64_t j = 0; j < n; ++j) {
                    float acc = crow[j];
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    crow[j] = acc;
                }
            }
            for (; p < p1; ++p) {
                const float aval = arow[p];
                const float *brow = b + p * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += aval * brow[j];
            }
        }
    }
}

void
gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
     int64_t n)
{
    ThreadPool::global().parallelFor(
        0, m, rowGrain(k * n), [&](int64_t i0, int64_t i1) {
            gemmRows(a, b, c, i0, i1, k, n);
        });
}

void
gemmNT(const float *gc, const float *b, float *ga, int64_t m, int64_t k,
       int64_t n)
{
    float *bt = threadScratch(k * n);
    packTransposed(b, bt, k, n);
    ThreadPool::global().parallelFor(
        0, m, rowGrain(k * n), [&](int64_t i0, int64_t i1) {
            gemmNTPackedRows(gc, bt, ga, i0, i1, k, n);
        });
}

void
gemmTN(const float *a, const float *gc, float *gb, int64_t m, int64_t k,
       int64_t n)
{
    ThreadPool::global().parallelFor(
        0, k, rowGrain(m * n), [&](int64_t p0, int64_t p1) {
            gemmTNRows(a, gc, gb, p0, p1, m, k, n);
        });
}

void
bmm(const float *a, const float *b, float *c, int64_t batch, int64_t m,
    int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                gemmRows(a + s * m * k, b + s * k * n, c + s * m * n, 0,
                         m, k, n);
            }
        });
}

void
bmmNT(const float *gc, const float *b, float *ga, int64_t batch, int64_t m,
      int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            // Each worker packs B[s]^T into its own scratch.
            float *bt = threadScratch(k * n);
            for (int64_t s = s0; s < s1; ++s) {
                packTransposed(b + s * k * n, bt, k, n);
                gemmNTPackedRows(gc + s * m * n, bt, ga + s * m * k, 0, m,
                                 k, n);
            }
        });
}

void
bmmTN(const float *a, const float *gc, float *gb, int64_t batch, int64_t m,
      int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            for (int64_t s = s0; s < s1; ++s) {
                gemmTNRows(a + s * m * k, gc + s * m * n, gb + s * k * n,
                           0, k, m, k, n);
            }
        });
}

} // namespace tlp::nn::kern
