#include "models/tenset_mlp.h"

#include <cmath>
#include <map>

namespace tlp::model {

using nn::Tensor;

TensetMlpNet::TensetMlpNet(MlpConfig config, Rng &rng) : config_(config)
{
    int in = config_.input;
    for (int i = 0; i < config_.layers; ++i) {
        layers_.push_back(
            std::make_unique<nn::Linear>(in, config_.hidden, rng));
        in = config_.hidden;
    }
    layers_.push_back(std::make_unique<nn::Linear>(in, 1, rng));
}

Tensor
TensetMlpNet::forward(const Tensor &x)
{
    Tensor h = x;
    for (size_t i = 0; i + 1 < layers_.size(); ++i)
        h = nn::relu(layers_[i]->forward(h));
    h = layers_.back()->forward(h);                 // [N, 1]
    return nn::reshape(h, {x.dim(0)});
}

std::vector<Tensor>
TensetMlpNet::parameters()
{
    std::vector<Tensor> params;
    for (auto &layer : layers_)
        for (Tensor &param : layer->parameters())
            params.push_back(param);
    return params;
}

double
trainMlp(TensetMlpNet &net, const data::LabeledSet &set,
         const TrainOptions &options)
{
    TLP_CHECK(set.num_tasks == 1, "MLP baseline is single-task");
    TLP_CHECK(set.feature_dim == net.config().input,
              "feature width mismatch");
    Rng rng(options.seed);

    // Group-aware batches (rank loss needs in-group pairs).
    std::map<int, std::vector<int>> by_group;
    for (int r = 0; r < set.rows; ++r)
        by_group[set.groups[static_cast<size_t>(r)]].push_back(r);
    const auto batch_size = static_cast<size_t>(options.batch_size);
    std::vector<std::vector<int>> batches;
    return trainSupervised(
        net.parameters(),
        {.lr = options.lr, .weight_decay = options.weight_decay},
        options.supervisor, options.epochs, options.lr_decay,
        options.verbose ? "mlp" : nullptr,
        [&](int) {
            batches.clear();
            for (auto &[group, rows] : by_group) {
                rng.shuffle(rows);
                for (size_t start = 0; start < rows.size();
                     start += batch_size) {
                    const size_t end =
                        std::min(rows.size(), start + batch_size);
                    batches.emplace_back(
                        rows.begin() + static_cast<long>(start),
                        rows.begin() + static_cast<long>(end));
                }
            }
            rng.shuffle(batches);
            return batches.size();
        },
        [&](size_t b, const BatchStep &step) {
            const std::vector<int> &rows = batches[b];
            std::vector<float> targets;
            std::vector<int> groups;
            bool any_label = false;
            for (int r : rows) {
                targets.push_back(set.labels[static_cast<size_t>(r)]);
                groups.push_back(set.groups[static_cast<size_t>(r)]);
                any_label |= !std::isnan(targets.back());
            }
            if (!any_label)
                return;
            const Tensor x =
                gatherRows(set.features.data(), set.feature_dim, rows);
            step([&] {
                Tensor pred = net.forward(x);
                return options.use_rank_loss
                           ? nn::rankLoss(pred, targets, groups)
                           : nn::mseLoss(pred, targets);
            });
        });
}

std::vector<double>
predictMlp(TensetMlpNet &net, const data::LabeledSet &set, int batch_size)
{
    return forwardRows(set.features.data(), set.rows, set.feature_dim,
                       batch_size,
                       [&](const Tensor &x) { return net.forward(x); });
}

} // namespace tlp::model
