#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

namespace tlp::nn {

namespace {

/** Innermost live TapePool of this thread (nullptr outside any). */
thread_local TapePool *t_active_pool = nullptr;

/** Pool ids start at 1; 0 marks a node whose buffers are heap memory. */
std::atomic<uint64_t> g_next_pool_id{1};

} // namespace

int64_t
shapeNumel(const std::vector<int> &shape)
{
    int64_t count = 1;
    for (int extent : shape) {
        TLP_CHECK(extent > 0, "non-positive tensor extent");
        count *= extent;
    }
    return count;
}

Node::~Node()
{
    TapePool *pool = t_active_pool;
    if (pool == nullptr || pool->id_ != pool_id)
        return;   // not lent, another thread, or the pool has ended
    if (value_slot >= 0)
        pool->park(value_slot, value);
    if (grad_slot >= 0)
        pool->park(grad_slot, grad);
}

void
Node::allocValue(int64_t count)
{
    TapePool *pool = t_active_pool;
    if (pool == nullptr) {
        value.assign(static_cast<size_t>(count), 0.0f);
        return;
    }
    pool_id = pool->id_;
    value_slot = pool->lend(value, count);
}

void
Node::ensureGrad()
{
    if (grad.size() == value.size())
        return;
    TapePool *pool = t_active_pool;
    if (pool != nullptr && value_slot >= 0 && pool->id_ == pool_id) {
        grad_slot = pool->lend(grad, numel());
        return;
    }
    grad.assign(value.size(), 0.0f);
}

void
Node::releaseGrad()
{
    TapePool *pool = t_active_pool;
    if (grad_slot >= 0 && pool != nullptr && pool->id_ == pool_id)
        pool->park(grad_slot, grad);
    grad_slot = -1;
    std::vector<float>().swap(grad);
}

TapePool::TapePool()
    : id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)),
      outer_(t_active_pool)
{
    t_active_pool = this;
}

TapePool::~TapePool()
{
    TLP_CHECK(t_active_pool == this,
              "TapePool ended out of scope order or on another thread");
    t_active_pool = outer_;
}

void
TapePool::restart()
{
    TLP_CHECK(t_active_pool == this,
              "TapePool::restart on a pool that is not this thread's "
              "active one");
    cursor_ = 0;
}

int64_t
TapePool::retainedBytes() const
{
    int64_t bytes = 0;
    for (const auto &slot : slots_)
        bytes += static_cast<int64_t>(slot.capacity() * sizeof(float));
    return bytes;
}

int32_t
TapePool::lend(std::vector<float> &buf, int64_t count)
{
    const int32_t slot = cursor_++;
    if (static_cast<size_t>(slot) == slots_.size())
        slots_.emplace_back();
    buf.swap(slots_[static_cast<size_t>(slot)]);
    buf.assign(static_cast<size_t>(count), 0.0f);   // grows only if short
    return slot;
}

void
TapePool::park(int32_t slot, std::vector<float> &buf)
{
    auto &parked = slots_[static_cast<size_t>(slot)];
    if (parked.capacity() == 0)
        parked.swap(buf);
    // else: a newer node already parked here; buf frees with its node
}

const std::vector<int> &
Tensor::shape() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->shape;
}

int64_t
Tensor::numel() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->numel();
}

int
Tensor::dim(int axis) const
{
    const auto &s = shape();
    TLP_CHECK(axis >= 0 && axis < static_cast<int>(s.size()),
              "bad axis ", axis);
    return s[static_cast<size_t>(axis)];
}

std::vector<float> &
Tensor::value()
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->value;
}

const std::vector<float> &
Tensor::value() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->value;
}

std::vector<float> &
Tensor::grad()
{
    TLP_CHECK(node_, "undefined tensor");
    node_->ensureGrad();
    return node_->grad;
}

bool
Tensor::requiresGrad() const
{
    TLP_CHECK(node_, "undefined tensor");
    return node_->requires_grad;
}

void
Tensor::backward()
{
    TLP_CHECK(node_, "undefined tensor");
    TLP_CHECK(node_->numel() == 1, "backward() needs a scalar loss");

    // Topological order via iterative DFS.
    std::vector<Node *> order;
    std::unordered_set<Node *> visited;
    std::vector<std::pair<Node *, size_t>> stack;
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto &[node, child] = stack.back();
        if (child < node->parents.size()) {
            Node *parent = node->parents[child++].get();
            if (visited.insert(parent).second)
                stack.push_back({parent, 0});
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    node_->ensureGrad();
    node_->grad[0] = 1.0f;
    // A node without requires_grad has no parent that wants a gradient,
    // and a parent without it gets no grad buffer: every backward_fn
    // skips the parents that do not require grad.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        if (node->backward_fn && node->requires_grad) {
            for (auto &parent : node->parents) {
                if (parent->requires_grad)
                    parent->ensureGrad();
            }
            node->backward_fn(*node);
            node->releaseGrad();
        }
    }
}

Tensor
Tensor::zeros(const std::vector<int> &shape, bool requires_grad)
{
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value.assign(static_cast<size_t>(shapeNumel(shape)), 0.0f);
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::fromData(const std::vector<int> &shape, std::vector<float> data,
                 bool requires_grad)
{
    TLP_CHECK(static_cast<int64_t>(data.size()) == shapeNumel(shape),
              "data size does not match shape");
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value = std::move(data);
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::randn(const std::vector<int> &shape, Rng &rng, double stddev,
              bool requires_grad)
{
    auto node = std::make_shared<Node>();
    node->shape = shape;
    node->value.resize(static_cast<size_t>(shapeNumel(shape)));
    for (auto &v : node->value)
        v = static_cast<float>(rng.normal(0.0, stddev));
    node->requires_grad = requires_grad;
    return fromNode(std::move(node));
}

Tensor
Tensor::fromNode(std::shared_ptr<Node> node)
{
    Tensor tensor;
    tensor.node_ = std::move(node);
    return tensor;
}

} // namespace tlp::nn
