#include "nn/kernels.h"

#include <algorithm>
#include <cstring>

#include "support/arena.h"
#include "support/thread_pool.h"

namespace tlp::nn::kern {

namespace {

/** Float lanes in one gemmRows column panel (a 256-bit vector). */
constexpr int64_t kLanes = 8;

/** One column panel of C (or B) held in a vector register. */
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));

/** C rows gemmRows keeps in registers together (B panel reuse). */
constexpr int kRowBlock = 6;

/** B rows per zero-padded pack of gemmRows' last n % kLanes columns. */
constexpr int64_t kPackRows = 256;

/**
 * C[Rows, width] = A[Rows, k] * B[k, Panels * kLanes] restricted to its
 * first @p width columns (row strides lda, ldb, ldc). Each accumulator
 * starts at 0 — or, with @p resume, at the value C already holds, which
 * continues the same chain — takes a[r, p] * b[p, .] for p = 0, 1, ...
 * k-1 in order, and is stored once: a C element's bits depend only on
 * its A row, its B column and the k terms.
 */
template <int Rows, int Panels>
inline void
gemmPanel(const float *TLP_RESTRICT a, int64_t lda,
          const float *TLP_RESTRICT b, int64_t ldb, int64_t k,
          float *TLP_RESTRICT c, int64_t ldc, int64_t width, bool resume)
{
    Lanes acc[Rows][Panels] = {};
    if (resume) {
        for (int r = 0; r < Rows; ++r)
            std::memcpy(acc[r], c + r * ldc,
                        static_cast<size_t>(width) * sizeof(float));
    }
    for (int64_t p = 0; p < k; ++p) {
        Lanes bv[Panels];
        std::memcpy(bv, b + p * ldb, sizeof(bv));
        for (int r = 0; r < Rows; ++r) {
            const float av = a[r * lda + p];
            for (int v = 0; v < Panels; ++v)
                acc[r][v] += av * bv[v];
        }
    }
    for (int r = 0; r < Rows; ++r)
        std::memcpy(c + r * ldc, acc[r],
                    static_cast<size_t>(width) * sizeof(float));
}

/**
 * Rows [0, Rows) of C's first @p full columns (a multiple of kLanes):
 * two-panel strips, then a one-panel strip, all over the same A rows.
 */
template <int Rows>
inline void
gemmFullPanels(const float *TLP_RESTRICT a, const float *TLP_RESTRICT b,
               float *TLP_RESTRICT c, int64_t k, int64_t n, int64_t full)
{
    int64_t j = 0;
    for (; j + 2 * kLanes <= full; j += 2 * kLanes)
        gemmPanel<Rows, 2>(a, k, b + j, n, k, c + j, n, 2 * kLanes, false);
    for (; j < full; j += kLanes)
        gemmPanel<Rows, 1>(a, k, b + j, n, k, c + j, n, kLanes, false);
}

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
    const int64_t full = n - n % kLanes;
    int64_t i = i0;
    for (; i + kRowBlock <= i1; i += kRowBlock)
        gemmFullPanels<kRowBlock>(a + i * k, b, c + i * n, k, n, full);
    for (; i < i1; ++i)
        gemmFullPanels<1>(a + i * k, b, c + i * n, k, n, full);
    const int64_t rest = n - full;
    if (rest == 0)
        return;
    // The last n % kLanes columns of B, zero-padded to one panel and
    // packed kPackRows rows at a time, run through the same panel
    // chain; each later pack resumes from the C values stored so far.
    float packed[kPackRows * kLanes];
    for (int64_t p0 = 0; p0 < k; p0 += kPackRows) {
        const int64_t kc = std::min(kPackRows, k - p0);
        for (int64_t p = 0; p < kc; ++p) {
            for (int64_t l = 0; l < kLanes; ++l)
                packed[p * kLanes + l] =
                    l < rest ? b[(p0 + p) * n + full + l] : 0.0f;
        }
        const bool resume = p0 > 0;
        i = i0;
        for (; i + kRowBlock <= i1; i += kRowBlock)
            gemmPanel<kRowBlock, 1>(a + i * k + p0, k, packed, kLanes, kc,
                                    c + i * n + full, n, rest, resume);
        for (; i < i1; ++i)
            gemmPanel<1, 1>(a + i * k + p0, k, packed, kLanes, kc,
                            c + i * n + full, n, rest, resume);
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
