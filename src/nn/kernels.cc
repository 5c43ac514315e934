#include "nn/kernels.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "support/arena.h"
#include "support/thread_pool.h"

namespace tlp::nn::kern {

namespace {

/** Float lanes in one column panel (a 256-bit vector). */
constexpr int64_t kLanes = 8;

/** One column panel of C (or B) held in a vector register. */
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));

/** Output rows a micro-kernel keeps in registers together (panel reuse). */
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

/**
 * One block of a backward product: C[Rows, width] accumulates
 * a[r * a_row + t * a_red] * b[t * ldb + .] for t = 0, 1, ... len-1 in
 * order, with Rows rows times Panels vector panels of C in registers
 * across the whole reduction. With @p AddOnce every chain starts at 0
 * and its total is added to C once (GA += GC * B^T); otherwise it
 * starts from the value C holds and is stored back (GB += A^T * GC),
 * so a reduction split into consecutive calls continues one chain.
 * Only the first @p width columns of C are read or written; B holds
 * whole panels (zero-padded past @p width).
 */
template <int Rows, int Panels, bool AddOnce>
inline void
gradPanel(const float *TLP_RESTRICT a, int64_t a_row, int64_t a_red,
          const float *TLP_RESTRICT b, int64_t ldb, int64_t len,
          float *TLP_RESTRICT c, int64_t ldc, int64_t width)
{
    Lanes acc[Rows][Panels] = {};
    if (!AddOnce) {
        for (int r = 0; r < Rows; ++r)
            std::memcpy(acc[r], c + r * ldc,
                        static_cast<size_t>(width) * sizeof(float));
    }
    for (int64_t t = 0; t < len; ++t) {
        Lanes bv[Panels];
        std::memcpy(bv, b + t * ldb, sizeof(bv));
        for (int r = 0; r < Rows; ++r) {
            const float av = a[r * a_row + t * a_red];
            for (int v = 0; v < Panels; ++v)
                acc[r][v] += av * bv[v];
        }
    }
    for (int r = 0; r < Rows; ++r) {
        if (AddOnce) {
            float total[Panels * kLanes];
            std::memcpy(total, acc[r], sizeof(total));
            for (int64_t l = 0; l < width; ++l)
                c[r * ldc + l] += total[l];
        } else {
            std::memcpy(c + r * ldc, acc[r],
                        static_cast<size_t>(width) * sizeof(float));
        }
    }
}

/**
 * fn(std::integral_constant<int, Rows>, i) over [i0, i1): blocks of
 * kRowBlock rows, then one block of the remaining rows.
 */
template <typename Fn>
inline void
forRowBlocks(int64_t i0, int64_t i1, Fn &&fn)
{
    static_assert(kRowBlock == 6, "forRowBlocks handles 1-5 left over");
    int64_t i = i0;
    for (; i + kRowBlock <= i1; i += kRowBlock)
        fn(std::integral_constant<int, kRowBlock>(), i);
    switch (i1 - i) {
    case 5: fn(std::integral_constant<int, 5>(), i); break;
    case 4: fn(std::integral_constant<int, 4>(), i); break;
    case 3: fn(std::integral_constant<int, 3>(), i); break;
    case 2: fn(std::integral_constant<int, 2>(), i); break;
    case 1: fn(std::integral_constant<int, 1>(), i); break;
    default: break;
    }
}

/** @p count rounded up to whole panels. */
constexpr int64_t
wholePanels(int64_t count)
{
    return (count + kLanes - 1) / kLanes * kLanes;
}

/** Rows of A^T * GC reduced per pass (an A and a GC block stay in L2). */
constexpr int64_t kTnRowBlock = 128;

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

/** BT[n, wholePanels(k)] = B[k, n]^T, zero past column k. */
void
packTransposed(const float *TLP_RESTRICT b, float *TLP_RESTRICT bt,
               int64_t k, int64_t n)
{
    const int64_t kp = wholePanels(k);
    for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j)
            bt[j * kp + p] = b[p * n + j];
    for (int64_t j = 0; j < n; ++j)
        std::fill(bt + j * kp + k, bt + (j + 1) * kp, 0.0f);
}

/**
 * TAIL[m, kLanes] = the last n % kLanes columns of GC[m, n], zero
 * past them (0 floats when n is a whole number of panels).
 */
void
packTail(const float *TLP_RESTRICT gc, float *TLP_RESTRICT tail,
         int64_t m, int64_t n)
{
    const int64_t rest = n % kLanes;
    if (rest == 0)
        return;
    std::fill(tail, tail + m * kLanes, 0.0f);
    for (int64_t i = 0; i < m; ++i)
        std::copy_n(gc + i * n + n - rest, rest, tail + i * kLanes);
}

/** Floats packTail writes for an [m, n] GC. */
int64_t
tailFloats(int64_t m, int64_t n)
{
    return n % kLanes == 0 ? 0 : m * kLanes;
}

/**
 * Serial micro-kernel: GA rows [i0, i1) of GA += GC * B^T, with B^T
 * packed by packTransposed. Per (i, p) the j sum starts from 0, runs
 * j = 0, 1, ... n-1, and lands on GA once.
 */
void
gemmNTRows(const float *TLP_RESTRICT gc, const float *TLP_RESTRICT bt,
           float *TLP_RESTRICT ga, int64_t i0, int64_t i1, int64_t k,
           int64_t n)
{
    const int64_t kp = wholePanels(k);
    forRowBlocks(i0, i1, [&](auto rows, int64_t i) {
        constexpr int Rows = decltype(rows)::value;
        const float *gcrows = gc + i * n;
        float *garows = ga + i * k;
        int64_t p = 0;
        for (; p + 2 * kLanes <= kp; p += 2 * kLanes)
            gradPanel<Rows, 2, true>(gcrows, n, 1, bt + p, kp, n,
                                     garows + p, k,
                                     std::min(2 * kLanes, k - p));
        for (; p < kp; p += kLanes)
            gradPanel<Rows, 1, true>(gcrows, n, 1, bt + p, kp, n,
                                     garows + p, k, std::min(kLanes, k - p));
    });
}

/**
 * Serial micro-kernel: GB rows [p0, p1) of GB += A^T * GC, with GC's
 * last n % kLanes columns packed by packTail. Per (p, j) the chain
 * starts from GB's value and takes i = 0, 1, ... m-1 in order,
 * kTnRowBlock rows per pass.
 */
void
gemmTNRows(const float *TLP_RESTRICT a, const float *TLP_RESTRICT gc,
           const float *TLP_RESTRICT tail, float *TLP_RESTRICT gb,
           int64_t p0, int64_t p1, int64_t m, int64_t k, int64_t n)
{
    const int64_t full = n - n % kLanes;
    for (int64_t i0 = 0; i0 < m; i0 += kTnRowBlock) {
        const int64_t len = std::min(kTnRowBlock, m - i0);
        forRowBlocks(p0, p1, [&](auto rows, int64_t p) {
            constexpr int Rows = decltype(rows)::value;
            const float *acols = a + i0 * k + p;
            float *gbrows = gb + p * n;
            int64_t j = 0;
            for (; j + 2 * kLanes <= full; j += 2 * kLanes)
                gradPanel<Rows, 2, false>(acols, 1, k, gc + i0 * n + j, n,
                                          len, gbrows + j, n, 2 * kLanes);
            for (; j < full; j += kLanes)
                gradPanel<Rows, 1, false>(acols, 1, k, gc + i0 * n + j, n,
                                          len, gbrows + j, n, kLanes);
            if (full < n)
                gradPanel<Rows, 1, false>(acols, 1, k, tail + i0 * kLanes,
                                          kLanes, len, gbrows + full, n,
                                          n - full);
        });
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
    float *bt = threadScratch(n * wholePanels(k));
    packTransposed(b, bt, k, n);
    ThreadPool::global().parallelFor(
        0, m, rowGrain(k * n), [&](int64_t i0, int64_t i1) {
            gemmNTRows(gc, bt, ga, i0, i1, k, n);
        });
}

void
gemmTN(const float *a, const float *gc, float *gb, int64_t m, int64_t k,
       int64_t n)
{
    float *tail = threadScratch(tailFloats(m, n));
    packTail(gc, tail, m, n);
    ThreadPool::global().parallelFor(
        0, k, rowGrain(m * n), [&](int64_t p0, int64_t p1) {
            gemmTNRows(a, gc, tail, gb, p0, p1, m, k, n);
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
            float *bt = threadScratch(n * wholePanels(k));
            for (int64_t s = s0; s < s1; ++s) {
                packTransposed(b + s * k * n, bt, k, n);
                gemmNTRows(gc + s * m * n, bt, ga + s * m * k, 0, m, k, n);
            }
        });
}

void
bmmTN(const float *a, const float *gc, float *gb, int64_t batch, int64_t m,
      int64_t k, int64_t n)
{
    ThreadPool::global().parallelFor(
        0, batch, rowGrain(m * k * n), [&](int64_t s0, int64_t s1) {
            // Each worker packs GC[s]'s last columns into its own scratch.
            float *tail = threadScratch(tailFloats(m, n));
            for (int64_t s = s0; s < s1; ++s) {
                packTail(gc + s * m * n, tail, m, n);
                gemmTNRows(a + s * m * k, gc + s * m * n, tail,
                           gb + s * k * n, 0, k, m, k, n);
            }
        });
}

} // namespace tlp::nn::kern
