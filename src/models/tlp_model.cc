#include "models/tlp_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "support/logging.h"

namespace tlp::model {

using nn::Tensor;

TlpNet::TlpNet(TlpNetConfig config, Rng &rng)
    : config_(config),
      up1_(config.emb_size, config.hidden, rng),
      up2_(config.hidden, config.hidden, rng)
{
    if (config_.lstm_backbone) {
        lstm_ = std::make_unique<nn::Lstm>(config_.hidden, config_.hidden,
                                           rng);
    } else {
        attention_ = std::make_unique<nn::MultiHeadSelfAttention>(
            config_.hidden, config_.heads, rng);
    }
    for (int i = 0; i < config_.residual_blocks; ++i)
        residuals_.push_back(
            std::make_unique<nn::ResidualBlock>(config_.hidden, rng));
    TLP_CHECK(config_.num_tasks >= 1, "need at least one task head");
    for (int t = 0; t < config_.num_tasks; ++t) {
        Head head;
        head.fc1 = std::make_unique<nn::Linear>(config_.hidden,
                                                config_.head_hidden, rng);
        head.fc2 = std::make_unique<nn::Linear>(config_.head_hidden, 1,
                                                rng);
        heads_.push_back(std::move(head));
    }
}

Tensor
TlpNet::backbone(const Tensor &x, bool causal)
{
    const int n = x.dim(0);
    TLP_CHECK(x.shape().size() == 2 &&
                  x.dim(1) == config_.seq_len * config_.emb_size,
              "bad TLP feature width");
    Tensor h = nn::reshape(x, {n, config_.seq_len, config_.emb_size});
    h = nn::relu(up1_.forward(h));
    h = nn::relu(up2_.forward(h));
    if (config_.lstm_backbone) {
        h = lstm_->forward(h);
    } else {
        h = attention_->forward(h, causal);
    }
    for (auto &block : residuals_)
        h = block->forward(h);
    return h;   // [N, L, hidden]
}

Tensor
TlpNet::forwardTask(const Tensor &x, int task)
{
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    const int n = x.dim(0);
    Tensor h = backbone(x);
    Head &head = heads_[static_cast<size_t>(task)];
    Tensor scores = nn::relu(head.fc1->forward(h));
    scores = head.fc2->forward(scores);                  // [N, L, 1]
    scores = nn::reshape(scores, {n, config_.seq_len});
    return nn::sumAxis1(scores);                         // [N]
}

std::vector<Tensor>
TlpNet::parameters()
{
    auto params = backboneParameters();
    for (int t = 0; t < config_.num_tasks; ++t)
        for (Tensor &param : headParameters(t))
            params.push_back(param);
    return params;
}

std::vector<Tensor>
TlpNet::backboneParameters()
{
    std::vector<Tensor> params;
    auto absorb = [&](nn::Module &module) {
        for (Tensor &param : module.parameters())
            params.push_back(param);
    };
    absorb(up1_);
    absorb(up2_);
    if (lstm_)
        absorb(*lstm_);
    if (attention_)
        absorb(*attention_);
    for (auto &block : residuals_)
        absorb(*block);
    return params;
}

std::vector<Tensor>
TlpNet::headParameters(int task)
{
    TLP_CHECK(task >= 0 && task < config_.num_tasks, "bad task ", task);
    std::vector<Tensor> params;
    Head &head = heads_[static_cast<size_t>(task)];
    for (Tensor &param : head.fc1->parameters())
        params.push_back(param);
    for (Tensor &param : head.fc2->parameters())
        params.push_back(param);
    return params;
}

namespace {

/**
 * Group-aware batch order: group chunks (so the rank loss sees dense
 * in-group pairs) packed several-to-a-batch up to batch_size.
 */
std::vector<std::vector<int>>
makeBatches(const data::LabeledSet &set, int batch_size, Rng &rng)
{
    std::map<int, std::vector<int>> by_group;
    for (int r = 0; r < set.rows; ++r)
        by_group[set.groups[static_cast<size_t>(r)]].push_back(r);

    // Chunk each group, then pack chunks into batches.
    const size_t chunk_size = std::max<size_t>(
        8, static_cast<size_t>(batch_size) / 4);
    std::vector<std::vector<int>> chunks;
    for (auto &[group, rows] : by_group) {
        rng.shuffle(rows);
        for (size_t start = 0; start < rows.size(); start += chunk_size) {
            const size_t end =
                std::min(rows.size(), start + chunk_size);
            chunks.emplace_back(rows.begin() + static_cast<long>(start),
                                rows.begin() + static_cast<long>(end));
        }
    }
    rng.shuffle(chunks);

    std::vector<std::vector<int>> batches;
    for (auto &chunk : chunks) {
        if (batches.empty() ||
            batches.back().size() + chunk.size() >
                static_cast<size_t>(batch_size)) {
            batches.emplace_back();
        }
        auto &batch = batches.back();
        batch.insert(batch.end(), chunk.begin(), chunk.end());
    }
    return batches;
}

} // namespace

Tensor
gatherRows(const float *features, int dim, const std::vector<int> &rows)
{
    std::vector<float> data;
    data.reserve(rows.size() * static_cast<size_t>(dim));
    for (int r : rows) {
        const float *src =
            features + static_cast<size_t>(r) * static_cast<size_t>(dim);
        data.insert(data.end(), src, src + dim);
    }
    return Tensor::fromData({static_cast<int>(rows.size()), dim},
                            std::move(data));
}

std::vector<double>
forwardRows(const float *features, int64_t n, int dim, int64_t chunk,
            const std::function<Tensor(const Tensor &)> &forward)
{
    std::vector<double> scores;
    scores.reserve(static_cast<size_t>(n));
    std::vector<int> rows;
    for (int64_t start = 0; start < n; start += chunk) {
        rows.resize(static_cast<size_t>(std::min(chunk, n - start)));
        std::iota(rows.begin(), rows.end(), static_cast<int>(start));
        Tensor pred = forward(gatherRows(features, dim, rows));
        for (float v : pred.value())
            scores.push_back(v);
    }
    return scores;
}

double
trainTlpNet(TlpNet &net, const data::LabeledSet &set,
            const TrainOptions &options)
{
    TLP_CHECK(set.num_tasks == net.config().num_tasks,
              "label columns (", set.num_tasks, ") != net tasks (",
              net.config().num_tasks, ")");
    Rng rng(options.seed);
    std::vector<std::vector<int>> batches;
    return trainSupervised(
        net.parameters(),
        {.lr = options.lr, .weight_decay = options.weight_decay},
        options.supervisor, options.epochs, options.lr_decay,
        options.verbose ? "tlp" : nullptr,
        [&](int) {
            batches = makeBatches(set, options.batch_size, rng);
            return batches.size();
        },
        [&](size_t b, const BatchStep &step) {
            const std::vector<int> &rows = batches[b];
            // Per-task targets/groups up front, so a batch without any
            // label is skipped before the supervisor sees a step.
            std::vector<int> active_tasks;
            std::vector<std::vector<float>> task_targets(
                static_cast<size_t>(set.num_tasks));
            std::vector<int> groups;
            groups.reserve(rows.size());
            for (int r : rows)
                groups.push_back(set.groups[static_cast<size_t>(r)]);
            for (int task = 0; task < set.num_tasks; ++task) {
                auto &targets = task_targets[static_cast<size_t>(task)];
                targets.reserve(rows.size());
                for (int r : rows) {
                    targets.push_back(
                        set.labels[static_cast<size_t>(r) *
                                       static_cast<size_t>(set.num_tasks) +
                                   static_cast<size_t>(task)]);
                }
                bool any_label = false;
                for (float t : targets)
                    any_label |= !std::isnan(t);
                if (any_label)
                    active_tasks.push_back(task);
                // else: this head sees nothing in this batch
            }
            if (active_tasks.empty())
                return;

            const Tensor x = gatherRows(set.features.data(),
                                        set.feature_dim, rows);
            step([&] {
                Tensor loss;
                for (int task : active_tasks) {
                    Tensor pred = net.forwardTask(x, task);
                    const auto &targets =
                        task_targets[static_cast<size_t>(task)];
                    Tensor task_loss =
                        options.use_rank_loss
                            ? nn::rankLoss(pred, targets, groups)
                            : nn::mseLoss(pred, targets);
                    loss = loss.defined() ? nn::add(loss, task_loss)
                                          : task_loss;
                }
                return loss;
            });
        });
}

std::vector<double>
predictTlpNet(TlpNet &net, const data::LabeledSet &set, int task,
              int batch_size)
{
    return forwardRows(set.features.data(), set.rows, set.feature_dim,
                       batch_size, [&](const Tensor &x) {
                           return net.forwardTask(x, task);
                       });
}

} // namespace tlp::model
