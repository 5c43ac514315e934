#include "nn/losses.h"

#include <cmath>
#include <map>

namespace tlp::nn {

Tensor
mseLoss(const Tensor &pred, const std::vector<float> &targets)
{
    const int64_t n = pred.numel();
    TLP_CHECK(static_cast<int64_t>(targets.size()) == n,
              "mse target size mismatch");
    auto node = std::make_shared<Node>();
    node->shape = {1};
    node->allocValue(1);
    node->parents = {pred.node()};
    node->requires_grad = pred.requiresGrad();

    // NaN targets mark missing labels (MTL tuples); they contribute
    // neither loss nor gradient.
    const auto &pv = pred.value();
    double loss = 0.0;
    int64_t valid = 0;
    for (int64_t i = 0; i < n; ++i) {
        const float target = targets[static_cast<size_t>(i)];
        if (std::isnan(target))
            continue;
        const double d = pv[static_cast<size_t>(i)] - target;
        loss += d * d;
        ++valid;
    }
    node->value[0] = valid > 0 ? static_cast<float>(
                                     loss / static_cast<double>(valid))
                               : 0.0f;

    auto targets_copy = std::make_shared<std::vector<float>>(targets);
    const int64_t valid_c = valid;
    node->backward_fn = [targets_copy, n, valid_c](Node &self) {
        if (valid_c == 0)
            return;
        auto &gx = self.parents[0]->grad;
        const auto &pv = self.parents[0]->value;
        const float g = self.grad[0] * 2.0f / static_cast<float>(valid_c);
        for (int64_t i = 0; i < n; ++i) {
            const float target = (*targets_copy)[static_cast<size_t>(i)];
            if (std::isnan(target))
                continue;
            gx[static_cast<size_t>(i)] +=
                g * (pv[static_cast<size_t>(i)] - target);
        }
    };
    return Tensor::fromNode(std::move(node));
}

Tensor
rankLoss(const Tensor &pred, const std::vector<float> &targets,
         const std::vector<int> &groups)
{
    const int64_t n = pred.numel();
    TLP_CHECK(static_cast<int64_t>(targets.size()) == n &&
                  static_cast<int64_t>(groups.size()) == n,
              "rank loss size mismatch");

    // Bucket indices by group.
    std::map<int, std::vector<int64_t>> buckets;
    for (int64_t i = 0; i < n; ++i)
        buckets[groups[static_cast<size_t>(i)]].push_back(i);

    auto node = std::make_shared<Node>();
    node->shape = {1};
    node->allocValue(1);
    node->parents = {pred.node()};
    node->requires_grad = pred.requiresGrad();

    const auto &pv = pred.value();
    auto grad_buffer =
        std::make_shared<std::vector<float>>(static_cast<size_t>(n), 0.0f);
    double loss = 0.0;
    int64_t pairs = 0;
    for (const auto &[group, indices] : buckets) {
        for (size_t a = 0; a < indices.size(); ++a) {
            for (size_t b = 0; b < indices.size(); ++b) {
                const int64_t i = indices[a];
                const int64_t j = indices[b];
                const float li = targets[static_cast<size_t>(i)];
                const float lj = targets[static_cast<size_t>(j)];
                if (std::isnan(li) || std::isnan(lj))
                    continue;   // missing labels contribute nothing
                if (li <= lj)
                    continue;   // only pairs where i should rank above j
                const float weight = li - lj;   // lambda weight
                const double diff =
                    static_cast<double>(pv[static_cast<size_t>(i)]) -
                    pv[static_cast<size_t>(j)];
                // log(1 + exp(-diff)), numerically stable.
                const double softplus =
                    diff > 0 ? std::log1p(std::exp(-diff))
                             : -diff + std::log1p(std::exp(diff));
                loss += weight * softplus;
                const double sig = 1.0 / (1.0 + std::exp(diff));
                (*grad_buffer)[static_cast<size_t>(i)] -=
                    static_cast<float>(weight * sig);
                (*grad_buffer)[static_cast<size_t>(j)] +=
                    static_cast<float>(weight * sig);
                ++pairs;
            }
        }
    }
    const double norm = pairs > 0 ? 1.0 / static_cast<double>(pairs) : 0.0;
    node->value[0] = static_cast<float>(loss * norm);
    for (auto &g : *grad_buffer)
        g *= static_cast<float>(norm);

    node->backward_fn = [grad_buffer](Node &self) {
        auto &gx = self.parents[0]->grad;
        const float g = self.grad[0];
        for (size_t i = 0; i < gx.size(); ++i)
            gx[i] += g * (*grad_buffer)[i];
    };
    return Tensor::fromNode(std::move(node));
}

} // namespace tlp::nn
