#include "nn/infer_ops.h"

#include <algorithm>
#include <cmath>

namespace tlp::nn::iops {

void
softmaxRows(const float *in, float *out, int64_t r0, int64_t r1,
            int64_t cols)
{
    for (int64_t r = r0; r < r1; ++r) {
        const float *row_in = in + r * cols;
        float *row_out = out + r * cols;
        float max_v = row_in[0];
        for (int64_t c = 1; c < cols; ++c)
            max_v = std::max(max_v, row_in[c]);
        float sum = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
            row_out[c] = std::exp(row_in[c] - max_v);
            sum += row_out[c];
        }
        const float inv = 1.0f / sum;
        for (int64_t c = 0; c < cols; ++c)
            row_out[c] *= inv;
    }
}

void
softmaxKeyMajor(float *scores, const int32_t *pos, float *probs,
                float *stats, int64_t distinct, int64_t cols)
{
    float *max_v = stats;
    float *inv = stats + distinct;
    std::copy_n(scores + pos[0] * distinct, distinct, max_v);
    for (int64_t c = 1; c < cols; ++c) {
        const float *key = scores + pos[c] * distinct;
        for (int64_t i = 0; i < distinct; ++i)
            max_v[i] = std::max(max_v[i], key[i]);
    }
    for (int64_t j = 0; j < distinct; ++j) {
        float *key = scores + j * distinct;
        for (int64_t i = 0; i < distinct; ++i)
            key[i] = std::exp(key[i] - max_v[i]);
    }
    std::fill(inv, inv + distinct, 0.0f);
    for (int64_t c = 0; c < cols; ++c) {
        const float *key = scores + pos[c] * distinct;
        for (int64_t i = 0; i < distinct; ++i)
            inv[i] += key[i];
    }
    for (int64_t i = 0; i < distinct; ++i)
        inv[i] = 1.0f / inv[i];
    for (int64_t c = 0; c < cols; ++c) {
        const float *key = scores + pos[c] * distinct;
        float *out = probs + c * distinct;
        for (int64_t i = 0; i < distinct; ++i)
            out[i] = key[i] * inv[i];
    }
}

void
layerNormRows(const float *in, const float *gamma, const float *beta,
              float *out, float *stats, int64_t r0, int64_t r1,
              int64_t cols, float eps)
{
    for (int64_t r = r0; r < r1; ++r) {
        const float *row_in = in + r * cols;
        float mean = 0.0f;
        for (int64_t c = 0; c < cols; ++c)
            mean += row_in[c];
        mean /= static_cast<float>(cols);
        float var = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
            const float d = row_in[c] - mean;
            var += d * d;
        }
        var /= static_cast<float>(cols);
        const float inv_std = 1.0f / std::sqrt(var + eps);
        if (stats) {
            stats[2 * r] = mean;
            stats[2 * r + 1] = inv_std;
        }
        float *row_out = out + r * cols;
        for (int64_t c = 0; c < cols; ++c)
            row_out[c] = (row_in[c] - mean) * inv_std * gamma[c] + beta[c];
    }
}

} // namespace tlp::nn::iops
