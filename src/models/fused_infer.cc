#include "models/fused_infer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "nn/infer_ops.h"
#include "nn/kernels.h"
#include "support/thread_pool.h"

namespace tlp::model {

namespace nk = nn::kern;
namespace io = nn::iops;

FusedTlpInference::FusedTlpInference(std::shared_ptr<TlpNet> net)
    : net_(std::move(net))
{
    TLP_CHECK(net_ != nullptr, "null TLP net");
    config_ = net_->config();
    if (!usable())
        return;

    // Lay out the slab and wire the per-layer pointers once; repack()
    // only re-copies values (sizes are fixed by the architecture).
    params_ = net_->parameters();
    int64_t total = 0;
    for (nn::Tensor &param : params_)
        total += param.numel();
    // predict() never allocates from the heap.
    // tlp-lint: allow(hot-alloc) -- one-time weight-slab sizing.
    packed_.resize(static_cast<size_t>(total));

    size_t cursor = 0;
    auto take = [&](int64_t numel) {
        const float *ptr = packed_.data() + cursor;
        TLP_CHECK(cursor + static_cast<size_t>(numel) <= packed_.size(),
                  "packed-parameter overrun");
        cursor += static_cast<size_t>(numel);
        return ptr;
    };
    const int64_t h = config_.hidden;
    auto affine = [&](int64_t in, int64_t out) {
        Affine a;
        a.w = take(in * out);
        a.b = take(out);
        return a;
    };
    auto norm = [&] {
        Norm nrm;
        nrm.gamma = take(h);
        nrm.beta = take(h);
        return nrm;
    };
    // The packing order is TlpNet::parameters() order (the snapshot
    // order): up1, up2, attention (q, k, v, out, norm), residual
    // blocks, then one (fc1, fc2) pair per task head.
    up1_ = affine(config_.emb_size, h);
    up2_ = affine(h, h);
    q_ = affine(h, h);
    k_ = affine(h, h);
    v_ = affine(h, h);
    attn_out_ = affine(h, h);
    attn_norm_ = norm();
    for (int i = 0; i < config_.residual_blocks; ++i) {
        Residual res;
        res.fc1 = affine(h, h);
        res.fc2 = affine(h, h);
        res.norm = norm();
        // tlp-lint: allow(hot-alloc) -- construction-time layout.
        residuals_.push_back(res);
    }
    for (int t = 0; t < config_.num_tasks; ++t) {
        Head head;
        head.fc1 = affine(h, config_.head_hidden);
        head.fc2 = affine(config_.head_hidden, 1);
        // tlp-lint: allow(hot-alloc) -- construction-time layout.
        heads_.push_back(head);
    }
    TLP_CHECK(cursor == packed_.size(), "packed-parameter underrun");
    // Row-dedup table: a power of two at least twice a block's rows,
    // so open-addressed probes stay short.
    while (dedup_slots_ < static_cast<size_t>(2 * kRowsPerBlock *
                                              config_.seq_len))
        dedup_slots_ *= 2;
    repack();
}

void
FusedTlpInference::repack()
{
    if (!usable())
        return;
    size_t cursor = 0;
    for (const nn::Tensor &param : params_) {
        const auto &value = param.value();
        TLP_CHECK(cursor + value.size() <= packed_.size(),
                  "net architecture changed under the packed weights");
        std::memcpy(packed_.data() + cursor, value.data(),
                    value.size() * sizeof(float));
        cursor += value.size();
    }
    TLP_CHECK(cursor == packed_.size(),
              "net architecture changed under the packed weights");
}

void
FusedTlpInference::predict(const float *features, int64_t rows, int task,
                           double *out)
{
    TLP_CHECK(usable(), "fused inference has no LSTM path");
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    if (rows == 0)
        return;
    const int64_t blocks =
        (rows + kRowsPerBlock - 1) / kRowsPerBlock;
    // One private arena per concurrently-running chunk. parallelFor
    // creates at most numThreads() chunks; which arena a chunk draws is
    // scheduling-dependent, but arenas are scratch-only so the values
    // written to `out` never depend on the assignment.
    const auto workers =
        static_cast<size_t>(ThreadPool::global().numThreads());
    while (arenas_.size() < workers) {
        // Warm-up growth after a thread-count change only.
        // tlp-lint: allow(hot-alloc) -- arena-pool warm-up growth.
        arenas_.push_back(std::make_unique<Arena>(size_t{2} << 20));
    }
    std::atomic<size_t> next_arena{0};
    const int64_t dim =
        static_cast<int64_t>(config_.seq_len) * config_.emb_size;
    ThreadPool::global().parallelFor(
        0, blocks, 1, [&](int64_t b0, int64_t b1) {
            Arena &arena =
                *arenas_[next_arena.fetch_add(1) % arenas_.size()];
            for (int64_t block = b0; block < b1; ++block) {
                const int64_t row0 = block * kRowsPerBlock;
                const int64_t n =
                    std::min(kRowsPerBlock, rows - row0);
                const Arena::Mark mark = arena.checkpoint();
                forwardBlock(arena, features + row0 * dim, n, task,
                             out + row0);
                arena.rewind(mark);
            }
        });
}

namespace {

/** Hash of one feature row's bytes (rows are keyed by bytes, not ==). */
uint64_t
hashRow(const float *row, int64_t width)
{
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (int64_t c = 0; c < width; ++c) {
        uint32_t word;
        std::memcpy(&word, row + c, sizeof(word));
        h = (h ^ word) * 0xff51afd7ed558ccdull;
    }
    return h ^ (h >> 29);
}

} // namespace

void
FusedTlpInference::forwardBlock(Arena &arena, const float *x, int64_t n,
                                int task, double *out)
{
    const int64_t S = config_.seq_len;
    const int64_t E = config_.emb_size;
    const int64_t H = config_.hidden;
    const int64_t heads = config_.heads;
    const int64_t hd = H / heads;
    const int64_t rows = n * S;   // the flattened [n*S, .] row count
    // Every buffer is sized for a full block, whatever this block's
    // dedup ratio, so the arena high-water mark is the same each block.
    const auto max_rows = static_cast<size_t>(kRowsPerBlock * S);

    // Distinct input rows across the block, keyed by their bytes (so
    // +0.0/-0.0 and NaN rows stay apart): row_of[r] names row r's
    // distinct row, first[d] the first row with those bytes.
    int32_t *row_of = arena.alloc<int32_t>(max_rows);
    int32_t *first = arena.alloc<int32_t>(max_rows);
    int32_t *slots = arena.alloc<int32_t>(dedup_slots_);
    std::fill(slots, slots + dedup_slots_, -1);
    const size_t row_bytes = static_cast<size_t>(E) * sizeof(float);
    const size_t slot_mask = dedup_slots_ - 1;
    int32_t distinct = 0;
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = x + r * E;
        for (size_t slot = hashRow(row, E) & slot_mask;;
             slot = (slot + 1) & slot_mask) {
            const int32_t d = slots[slot];
            if (d < 0) {
                slots[slot] = distinct;
                first[distinct] = static_cast<int32_t>(r);
                row_of[r] = distinct++;
                break;
            }
            if (std::memcmp(x + first[d] * E, row, row_bytes) == 0) {
                row_of[r] = d;
                break;
            }
        }
    }

    // Each candidate's distinct rows ("pairs"): attention mixes rows
    // only within a candidate, so equal input rows of one candidate stay
    // equal to the head. Pairs of candidate c are [pair_begin[c],
    // pair_begin[c + 1]); pair_row[t] is pair t's distinct row and
    // pos_pair[c*S + l] the pair of position l, counted from
    // pair_begin[c].
    int32_t *pair_row = arena.alloc<int32_t>(max_rows);
    int32_t *pos_pair = arena.alloc<int32_t>(max_rows);
    int32_t *pair_begin =
        arena.alloc<int32_t>(static_cast<size_t>(kRowsPerBlock + 1));
    int32_t *seen_by = arena.alloc<int32_t>(max_rows);
    int32_t *seen_pair = arena.alloc<int32_t>(max_rows);
    std::fill(seen_by, seen_by + distinct, -1);
    int32_t pairs = 0;
    for (int32_t c = 0; c < n; ++c) {
        pair_begin[c] = pairs;
        for (int64_t l = 0; l < S; ++l) {
            const int32_t d = row_of[c * S + l];
            if (seen_by[d] != c) {
                seen_by[d] = c;
                seen_pair[d] = pairs - pair_begin[c];
                pair_row[pairs++] = d;
            }
            pos_pair[c * S + l] = seen_pair[d];
        }
    }
    pair_begin[n] = pairs;

    // Up-sampling and the Q/K/V projections are row-wise: run them once
    // per distinct row.
    float *xd = arena.allocFloats(max_rows * static_cast<size_t>(E));
    for (int32_t d = 0; d < distinct; ++d)
        std::memcpy(xd + d * E, x + first[d] * E, row_bytes);
    const auto act = max_rows * static_cast<size_t>(H);
    float *h1 = arena.allocFloats(act);
    nk::gemmRows(xd, up1_.w, h1, 0, distinct, E, H);
    io::addBiasReluRows(h1, up1_.b, h1, 0, distinct, H);
    float *h2 = arena.allocFloats(act);
    nk::gemmRows(h1, up2_.w, h2, 0, distinct, H, H);
    io::addBiasReluRows(h2, up2_.b, h2, 0, distinct, H);
    float *qf = arena.allocFloats(act);
    float *kf = arena.allocFloats(act);
    float *vf = arena.allocFloats(act);
    nk::gemmRows(h2, q_.w, qf, 0, distinct, H, H);
    io::addBiasRows(qf, q_.b, qf, 0, distinct, H);
    nk::gemmRows(h2, k_.w, kf, 0, distinct, H, H);
    io::addBiasRows(kf, k_.b, kf, 0, distinct, H);
    nk::gemmRows(h2, v_.w, vf, 0, distinct, H, H);
    io::addBiasRows(vf, v_.b, vf, 0, distinct, H);

    // Self-attention per candidate and head over the candidate's u
    // distinct rows, key-major: scores[j, i] = k_j . q_i / sqrt(hd) for
    // the u x u distinct key/query pairs, softmax over all S key
    // positions in order, then ctx[e, i] = sum over all S positions, in
    // order, of v[l, e] * probs[l, i]. A product's operand order never
    // changes its bits, so each element repeats the interpreted
    // forward's chain exactly.
    const auto seq = static_cast<size_t>(S);
    const auto head_dim = static_cast<size_t>(hd);
    float *k_d = arena.allocFloats(seq * head_dim);
    float *q_t = arena.allocFloats(seq * head_dim);
    float *v_t = arena.allocFloats(seq * head_dim);
    float *scores = arena.allocFloats(seq * seq);
    float *probs = arena.allocFloats(seq * seq);
    float *stats = arena.allocFloats(2 * seq);
    float *ctx = arena.allocFloats(seq * head_dim);
    float *merged = arena.allocFloats(act);
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const size_t head_bytes = head_dim * sizeof(float);
    for (int64_t c = 0; c < n; ++c) {
        const int64_t p0 = pair_begin[c];
        const int64_t u = pair_begin[c + 1] - p0;
        const int32_t *pos = pos_pair + c * S;
        for (int64_t ih = 0; ih < heads; ++ih) {
            const int64_t col = ih * hd;
            for (int64_t j = 0; j < u; ++j) {
                const int64_t d = pair_row[p0 + j];
                std::memcpy(k_d + j * hd, kf + d * H + col, head_bytes);
                for (int64_t e = 0; e < hd; ++e)
                    q_t[e * u + j] = qf[d * H + col + e];
            }
            for (int64_t l = 0; l < S; ++l) {
                const float *v = vf + row_of[c * S + l] * H + col;
                for (int64_t e = 0; e < hd; ++e)
                    v_t[e * S + l] = v[e];
            }
            nk::gemmRows(k_d, q_t, scores, 0, u, hd, u);
            io::scaleInPlace(scores, u * u, scale);
            io::softmaxKeyMajor(scores, pos, probs, stats, u, S);
            nk::gemmRows(v_t, probs, ctx, 0, hd, S, u);
            for (int64_t j = 0; j < u; ++j)
                for (int64_t e = 0; e < hd; ++e)
                    merged[(p0 + j) * H + col + e] = ctx[e * u + j];
        }
    }

    // Output projection, residual + layer norm against the attention
    // input h2, residual blocks and the head: row-wise, once per pair.
    float *attn = arena.allocFloats(act);
    nk::gemmRows(merged, attn_out_.w, attn, 0, pairs, H, H);
    io::addBiasRows(attn, attn_out_.b, attn, 0, pairs, H);
    for (int64_t t = 0; t < pairs; ++t)
        io::addInto(attn + t * H, h2 + pair_row[t] * H, attn + t * H, H);
    float *bb = arena.allocFloats(act);
    io::layerNormRows(attn, attn_norm_.gamma, attn_norm_.beta, bb,
                      nullptr, 0, pairs, H, 1e-5f);

    // Residual blocks: norm(x + fc2(relu(fc1(x)))).
    float *r1 = arena.allocFloats(act);
    float *r2 = arena.allocFloats(act);
    for (const Residual &res : residuals_) {
        nk::gemmRows(bb, res.fc1.w, r1, 0, pairs, H, H);
        io::addBiasReluRows(r1, res.fc1.b, r1, 0, pairs, H);
        nk::gemmRows(r1, res.fc2.w, r2, 0, pairs, H, H);
        io::addBiasRows(r2, res.fc2.b, r2, 0, pairs, H);
        io::addInto(r2, bb, r2, pairs * H);
        io::layerNormRows(r2, res.norm.gamma, res.norm.beta, bb, nullptr,
                          0, pairs, H, 1e-5f);
    }

    // Task head: fc2(relu(fc1(h))) per pair, then the sum over all S
    // sequence positions in order.
    const Head &head = heads_[static_cast<size_t>(task)];
    const int64_t hh = config_.head_hidden;
    float *hh1 = arena.allocFloats(max_rows * static_cast<size_t>(hh));
    nk::gemmRows(bb, head.fc1.w, hh1, 0, pairs, H, hh);
    io::addBiasReluRows(hh1, head.fc1.b, hh1, 0, pairs, hh);
    float *hs_pair = arena.allocFloats(max_rows);
    nk::gemmRows(hh1, head.fc2.w, hs_pair, 0, pairs, hh, 1);
    io::addBiasRows(hs_pair, head.fc2.b, hs_pair, 0, pairs, 1);
    float *hs = arena.allocFloats(max_rows);
    for (int64_t c = 0; c < n; ++c)
        for (int64_t l = 0; l < S; ++l)
            hs[c * S + l] = hs_pair[pair_begin[c] + pos_pair[c * S + l]];
    float *sums = arena.allocFloats(static_cast<size_t>(kRowsPerBlock));
    io::sumRows(hs, sums, 0, n, S);
    // predictTlpNet widens the float predictions to double on readout.
    for (int64_t r = 0; r < n; ++r)
        out[r] = static_cast<double>(sums[r]);
}

} // namespace tlp::model
