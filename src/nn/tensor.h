/**
 * @file
 * A small tape-based autograd tensor.
 *
 * Tensors are dense float32 arrays with dynamic shapes. Operations (see
 * ops.h) eagerly compute values and record a backward closure; calling
 * backward() on a scalar tensor topologically sorts the recorded graph
 * and accumulates gradients into every node with requires_grad set.
 *
 * The library is deliberately minimal — just enough to train the TLP /
 * MTL-TLP architectures (linear layers, multi-head self-attention, LSTM,
 * residual MLP blocks) on CPU — and fully deterministic given an Rng.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "support/logging.h"
#include "support/rng.h"

namespace tlp::nn {

/** Autograd graph node backing a Tensor. */
struct Node
{
    Node() = default;
    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;
    /** Hands pooled value/grad buffers back to their TapePool. */
    ~Node();

    std::vector<int> shape;
    std::vector<float> value;
    std::vector<float> grad;     ///< allocated lazily at backward time
    bool requires_grad = false;
    std::vector<std::shared_ptr<Node>> parents;
    /** Accumulates this node's grad into its parents' grads. */
    std::function<void(Node &)> backward_fn;

    /** TapePool that lent value (and grad) to this node; 0 = heap. */
    uint64_t pool_id = 0;
    int32_t value_slot = -1;     ///< pool position of value, or -1
    int32_t grad_slot = -1;      ///< pool position of grad, or -1

    int64_t numel() const { return static_cast<int64_t>(value.size()); }

    /**
     * Size value to @p count zeros: an op output. Inside a TapePool the
     * buffer comes from the pool's next position.
     */
    void allocValue(int64_t count);

    /**
     * Ensure the grad buffer exists (zero-filled). A node whose value
     * came from the calling thread's active pool takes its grad from
     * that pool too.
     */
    void ensureGrad();

    /**
     * Give up the grad buffer (back to its pool position, or the heap):
     * backward() calls this once an op output's grad has reached its
     * parents, so only leaves keep a grad after backward().
     */
    void releaseGrad();
};

/**
 * Step-recycled storage for the tape's op-output value and grad
 * buffers (DESIGN.md §7).
 *
 * A training run opens one pool and calls restart() at the top of
 * every step attempt. Within a step, the k-th buffer requested (op
 * outputs in forward order, then grads in backward order) takes over
 * whatever buffer sits at position k — the one the previous step's
 * k-th node handed back when it was freed — and grows it if it is too
 * small. A buffer is always owned by exactly one node or one pool
 * slot; the slots are freed when the scope ends.
 *
 * The pool binds to the constructing thread and nests: the innermost
 * live pool of a thread is its active one. A node freed on another
 * thread, after its pool ended, or while a different pool is active
 * frees its buffers to the heap; a node kept past its step keeps its
 * buffers, and that position falls back to the heap until the node
 * is gone. Results are bit-identical with and without a pool: every
 * buffer is zero-filled on hand-out either way.
 */
class TapePool
{
  public:
    TapePool();
    ~TapePool();
    TapePool(const TapePool &) = delete;
    TapePool &operator=(const TapePool &) = delete;

    /** Start a step attempt: the next request is position 0 again. */
    void restart();

    /** Positions seen so far (the most buffers any one step used). */
    int64_t positions() const
    {
        return static_cast<int64_t>(slots_.size());
    }

    /** Bytes of buffer capacity currently parked in the slots. */
    int64_t retainedBytes() const;

  private:
    friend struct Node;

    /** Hand the next position's buffer to @p buf (@p count zeros). */
    int32_t lend(std::vector<float> &buf, int64_t count);

    /**
     * Park @p buf at @p slot if that slot is empty; otherwise @p buf
     * stays with its node, which frees it.
     */
    void park(int32_t slot, std::vector<float> &buf);

    uint64_t id_;
    TapePool *outer_;
    int32_t cursor_ = 0;
    std::vector<std::vector<float>> slots_;
};

/** Handle to an autograd node. */
class Tensor
{
  public:
    Tensor() = default;

    /** True when this handle points at a node. */
    bool defined() const { return node_ != nullptr; }

    const std::vector<int> &shape() const;
    int64_t numel() const;
    int dim(int axis) const;

    std::vector<float> &value();
    const std::vector<float> &value() const;
    std::vector<float> &grad();

    bool requiresGrad() const;

    /** Run reverse-mode autodiff from this (scalar) tensor. */
    void backward();

    std::shared_ptr<Node> node() const { return node_; }

    // --- constructors ---

    /** All-zeros tensor. */
    static Tensor zeros(const std::vector<int> &shape,
                        bool requires_grad = false);

    /** Tensor wrapping explicit data. */
    static Tensor fromData(const std::vector<int> &shape,
                           std::vector<float> data,
                           bool requires_grad = false);

    /** Gaussian-initialized tensor (mean 0, given stddev). */
    static Tensor randn(const std::vector<int> &shape, Rng &rng,
                        double stddev, bool requires_grad = true);

    /** Wrap an existing node. */
    static Tensor fromNode(std::shared_ptr<Node> node);

  private:
    std::shared_ptr<Node> node_;
};

/** Number of elements implied by @p shape. */
int64_t shapeNumel(const std::vector<int> &shape);

} // namespace tlp::nn
