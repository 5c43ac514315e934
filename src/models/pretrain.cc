#include "models/pretrain.h"

#include <cmath>
#include <numeric>

namespace tlp::model {

using nn::Tensor;

namespace {

enum class Pretext { Gpt, Bert };

double
pretrain(TlpNet &net, const data::LabeledSet &set,
         const PretrainOptions &options, Pretext pretext)
{
    const auto &config = net.config();
    TLP_CHECK(set.feature_dim == config.seq_len * config.emb_size,
              "feature width mismatch");
    Rng rng(options.seed);

    // Reconstruction head: hidden -> embedding (discarded afterwards).
    nn::Linear recon(config.hidden, config.emb_size, rng);
    auto params = net.backboneParameters();
    for (Tensor &param : recon.parameters())
        params.push_back(param);

    std::vector<int> order(static_cast<size_t>(set.rows));
    std::iota(order.begin(), order.end(), 0);

    const int l = config.seq_len;
    const int e = config.emb_size;
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto batch_size = static_cast<size_t>(options.batch_size);

    // Default AdamOptions weight decay and a constant learning rate.
    return trainSupervised(
        params, {.lr = options.lr}, options.supervisor, options.epochs,
        1.0, options.verbose ? "pretrain" : nullptr,
        [&](int) {
            rng.shuffle(order);
            return (order.size() + batch_size - 1) / batch_size;
        },
        [&](size_t batch, const BatchStep &step) {
            const size_t start = batch * batch_size;
            const size_t end = std::min(order.size(), start + batch_size);
            const int b = static_cast<int>(end - start);

            std::vector<float> input;
            std::vector<float> targets;
            input.reserve(static_cast<size_t>(b) * set.feature_dim);
            targets.reserve(static_cast<size_t>(b) * set.feature_dim);
            for (size_t i = start; i < end; ++i) {
                const float *row = set.row(order[i]);
                if (pretext == Pretext::Gpt) {
                    input.insert(input.end(), row, row + set.feature_dim);
                    // Predict row t+1 from rows <= t.
                    for (int t = 0; t < l; ++t) {
                        for (int c = 0; c < e; ++c) {
                            targets.push_back(
                                t + 1 < l ? row[(t + 1) * e + c] : nan);
                        }
                    }
                } else {
                    // BERT: zero masked rows, reconstruct only them.
                    for (int t = 0; t < l; ++t) {
                        const bool masked =
                            rng.bernoulli(options.mask_prob);
                        for (int c = 0; c < e; ++c) {
                            input.push_back(masked ? 0.0f
                                                   : row[t * e + c]);
                            targets.push_back(masked ? row[t * e + c]
                                                     : nan);
                        }
                    }
                }
            }

            const Tensor x = Tensor::fromData({b, set.feature_dim},
                                              std::move(input));
            step([&] {
                Tensor h = net.backbone(x, pretext == Pretext::Gpt);
                Tensor pred = recon.forward(h);   // [B, L, E]
                pred = nn::reshape(pred, {b * l * e});
                return nn::mseLoss(pred, targets);
            });
        });
}

} // namespace

double
gptPretrain(TlpNet &net, const data::LabeledSet &set,
            const PretrainOptions &options)
{
    return pretrain(net, set, options, Pretext::Gpt);
}

double
bertPretrain(TlpNet &net, const data::LabeledSet &set,
             const PretrainOptions &options)
{
    return pretrain(net, set, options, Pretext::Bert);
}

} // namespace tlp::model
