/**
 * @file
 * Unit tests for the autograd NN library: op forward values, numeric
 * gradient checks, module training behaviour, and the optimizer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <thread>

#include "nn/kernels.h"
#include "nn/losses.h"
#include "nn/modules.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "support/thread_pool.h"

namespace tlp::nn {
namespace {

/**
 * Numeric gradient check: f builds a scalar loss from the given leaf.
 * Compares the autograd gradient of every leaf element against central
 * differences (leaves are small, so probing each element is cheap and
 * no element of an op's backward goes unchecked).
 */
void
checkGradient(Tensor leaf, const std::function<Tensor(const Tensor &)> &f,
              double tol = 2e-2)
{
    Tensor loss = f(leaf);
    loss.backward();
    const std::vector<float> analytic = leaf.grad();

    const float eps = 1e-3f;
    for (size_t i = 0; i < leaf.value().size(); ++i) {
        const float saved = leaf.value()[i];
        leaf.value()[i] = saved + eps;
        const float up = f(leaf).value()[0];
        leaf.value()[i] = saved - eps;
        const float down = f(leaf).value()[0];
        leaf.value()[i] = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(analytic[i], numeric,
                    tol * std::max(1.0, std::abs(numeric)))
            << "index " << i;
    }
}

TEST(Tensor, ConstructorsAndShape)
{
    Tensor z = Tensor::zeros({2, 3});
    EXPECT_EQ(z.numel(), 6);
    EXPECT_EQ(z.dim(1), 3);
    Tensor d = Tensor::fromData({2}, {1.0f, 2.0f});
    EXPECT_FLOAT_EQ(d.value()[1], 2.0f);
    Rng rng(1);
    Tensor r = Tensor::randn({16, 16}, rng, 0.1);
    EXPECT_TRUE(r.requiresGrad());
}

TEST(Ops, AddAndMulForward)
{
    Tensor a = Tensor::fromData({2}, {1.0f, 2.0f});
    Tensor b = Tensor::fromData({2}, {3.0f, 4.0f});
    EXPECT_FLOAT_EQ(add(a, b).value()[1], 6.0f);
    EXPECT_FLOAT_EQ(mul(a, b).value()[1], 8.0f);
}

TEST(Ops, MatmulForward)
{
    Tensor a = Tensor::fromData({2, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromData({2, 2}, {5, 6, 7, 8});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c.value()[0], 19.0f);
    EXPECT_FLOAT_EQ(c.value()[3], 50.0f);
}

TEST(Ops, BmmForwardMatchesMatmulPerBatch)
{
    Rng rng(2);
    Tensor a = Tensor::randn({3, 4, 5}, rng, 1.0, false);
    Tensor b = Tensor::randn({3, 5, 2}, rng, 1.0, false);
    const Tensor c = bmm(a, b);
    for (int s = 0; s < 3; ++s) {
        Tensor as = Tensor::fromData(
            {4, 5}, std::vector<float>(a.value().begin() + s * 20,
                                       a.value().begin() + (s + 1) * 20));
        Tensor bs = Tensor::fromData(
            {5, 2}, std::vector<float>(b.value().begin() + s * 10,
                                       b.value().begin() + (s + 1) * 10));
        const Tensor cs = matmul(as, bs);
        for (int i = 0; i < 8; ++i)
            EXPECT_NEAR(c.value()[static_cast<size_t>(s * 8 + i)],
                        cs.value()[static_cast<size_t>(i)], 1e-4);
    }
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(3);
    Tensor x = Tensor::randn({4, 7}, rng, 2.0, false);
    const Tensor y = softmaxLastDim(x);
    for (int r = 0; r < 4; ++r) {
        float sum = 0.0f;
        for (int c = 0; c < 7; ++c)
            sum += y.value()[static_cast<size_t>(r * 7 + c)];
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(Ops, TransposeAndPermuteAreInverses)
{
    Rng rng(4);
    Tensor x = Tensor::randn({2, 3, 4, 5}, rng, 1.0, false);
    const Tensor p = permute0213(permute0213(x));
    EXPECT_EQ(p.value(), x.value());
    Tensor m = Tensor::randn({3, 4}, rng, 1.0, false);
    const Tensor t = transposeLast2(transposeLast2(m));
    EXPECT_EQ(t.value(), m.value());
}

TEST(Ops, GradMatmul)
{
    Rng rng(5);
    Tensor a = Tensor::randn({3, 4}, rng, 1.0);
    Tensor b = Tensor::randn({4, 2}, rng, 1.0, false);
    checkGradient(a, [&](const Tensor &leaf) {
        return sumAll(matmul(leaf, b));
    });
}

TEST(Ops, GradBmm)
{
    Rng rng(6);
    Tensor a = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor b = Tensor::randn({2, 4, 3}, rng, 1.0, false);
    checkGradient(a, [&](const Tensor &leaf) {
        return sumAll(tanhT(bmm(leaf, b)));
    });
}

TEST(Ops, MatmulSkipsTheGradOfAnInputWithoutRequiresGrad)
{
    Rng rng(35);
    Tensor w = Tensor::randn({22, 16}, rng, 0.5);
    const std::vector<float> xv =
        Tensor::randn({40, 22}, rng, 1.0, false).value();
    auto weight_grad = [&](bool x_requires_grad) {
        for (float &g : w.grad())
            g = 0.0f;
        Tensor x = Tensor::fromData({40, 22}, xv, x_requires_grad);
        sumAll(relu(matmul(x, w))).backward();
        EXPECT_EQ(x.node()->grad.empty(), !x_requires_grad);
        return w.grad();
    };
    EXPECT_EQ(weight_grad(false), weight_grad(true));
}

TEST(Ops, BmmSkipsTheGradOfAnInputWithoutRequiresGrad)
{
    Rng rng(36);
    Tensor b = Tensor::randn({3, 8, 25}, rng, 0.5);
    const std::vector<float> av =
        Tensor::randn({3, 25, 8}, rng, 1.0, false).value();
    auto b_grad = [&](bool a_requires_grad) {
        for (float &g : b.grad())
            g = 0.0f;
        Tensor a = Tensor::fromData({3, 25, 8}, av, a_requires_grad);
        sumAll(tanhT(bmm(a, b))).backward();
        EXPECT_EQ(a.node()->grad.empty(), !a_requires_grad);
        return b.grad();
    };
    EXPECT_EQ(b_grad(false), b_grad(true));
}

TEST(Ops, BackwardKeepsGradsOfLeavesOnly)
{
    Rng rng(37);
    Tensor x = Tensor::randn({4, 6}, rng, 1.0);
    Tensor h = relu(x);
    sumAll(h).backward();
    EXPECT_EQ(x.node()->grad.size(), 24u);
    EXPECT_TRUE(h.node()->grad.empty());
}

TEST(Ops, GradSoftmaxChain)
{
    Rng rng(7);
    Tensor x = Tensor::randn({3, 5}, rng, 1.0);
    Tensor w = Tensor::randn({5, 5}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(softmaxLastDim(matmul(leaf, w)),
                          softmaxLastDim(leaf)));
    });
}

TEST(Ops, CausalSoftmaxMasksStrictUpperTriangle)
{
    Rng rng(23);
    Tensor x = Tensor::randn({2, 4, 4}, rng, 1.0, false);
    const Tensor y = softmaxLastDimCausal(x);
    for (int b = 0; b < 2; ++b) {
        for (int r = 0; r < 4; ++r) {
            float sum = 0.0f;
            for (int c = 0; c < 4; ++c) {
                const float v =
                    y.value()[static_cast<size_t>((b * 4 + r) * 4 + c)];
                if (c > r)
                    EXPECT_FLOAT_EQ(v, 0.0f);
                sum += v;
            }
            EXPECT_NEAR(sum, 1.0f, 1e-5);
        }
    }
}

TEST(Ops, GradCausalSoftmax)
{
    Rng rng(24);
    Tensor x = Tensor::randn({1, 4, 4}, rng, 1.0);
    Tensor w = Tensor::randn({1, 4, 4}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(softmaxLastDimCausal(leaf), w));
    });
}

TEST(Ops, GradPermute0213)
{
    Rng rng(25);
    Tensor x = Tensor::randn({2, 3, 2, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor p = permute0213(leaf);
        return sumAll(mul(p, p));
    });
}

TEST(Ops, GradTransposeLast2)
{
    Rng rng(26);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor w = Tensor::randn({2, 4, 3}, rng, 0.5, false);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(transposeLast2(leaf), w));
    });
}

TEST(Ops, GradActivations)
{
    Rng rng(8);
    Tensor x = Tensor::randn({4, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(add(relu(leaf), add(tanhT(leaf), sigmoidT(leaf))));
    });
}

TEST(Ops, GradLayerNorm)
{
    Rng rng(9);
    Tensor x = Tensor::randn({3, 8}, rng, 1.0);
    Tensor gamma = Tensor::fromData({8}, std::vector<float>(8, 1.5f));
    Tensor beta = Tensor::fromData({8}, std::vector<float>(8, 0.2f));
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(layerNorm(leaf, gamma, beta), leaf));
    }, 5e-2);
}

TEST(Ops, GradSliceStackSelect)
{
    Rng rng(10);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor t0 = selectAxis1(leaf, 0);
        Tensor t2 = selectAxis1(leaf, 2);
        Tensor stacked = stackAxis1({t0, t2, t0});
        return sumAll(mul(stacked, stacked));
    });
}

TEST(Ops, GradSliceCols)
{
    Rng rng(11);
    Tensor x = Tensor::randn({3, 8}, rng, 1.0);
    checkGradient(x, [&](const Tensor &leaf) {
        return sumAll(mul(sliceCols(leaf, 2, 4), sliceCols(leaf, 0, 4)));
    });
}

TEST(Ops, GradAddBiasAndReshape)
{
    Rng rng(12);
    Tensor x = Tensor::randn({2, 3, 4}, rng, 1.0);
    Tensor b = Tensor::fromData({4}, {0.1f, 0.2f, 0.3f, 0.4f});
    checkGradient(x, [&](const Tensor &leaf) {
        Tensor y = addBias(leaf, b);
        y = reshape(y, {6, 4});
        return sumAll(mul(y, y));
    });
}

/** True when @p a and @p b hold the same floats, bit for bit. */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** A leaf's shape and its values. */
struct LeafSpec
{
    std::vector<int> shape;
    std::vector<float> values;
};

LeafSpec
randomLeaf(std::vector<int> shape, Rng &rng)
{
    std::vector<float> values(static_cast<size_t>(shapeNumel(shape)));
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return {std::move(shape), std::move(values)};
}

/**
 * y = f(leaves) on fresh leaves built from @p spec, twice, each time
 * with loss sum(y * r) + sum(leaves[0] * r0) for fixed random r, r0:
 * the first leaf's grad takes two contributions, and the second
 * backward adds to grads that already hold values. Returns both values
 * of y and then every leaf's grad.
 */
std::vector<std::vector<float>>
twoBackwardPasses(const std::vector<LeafSpec> &spec,
                  const std::function<Tensor(const std::vector<Tensor> &)>
                      &f)
{
    std::vector<Tensor> leaves;
    for (const LeafSpec &leaf : spec)
        leaves.push_back(Tensor::fromData(leaf.shape, leaf.values, true));
    std::vector<std::vector<float>> out;
    for (int pass = 0; pass < 2; ++pass) {
        Tensor y = f(leaves);
        Rng rng(77 + static_cast<uint64_t>(pass));
        const Tensor r = Tensor::randn(y.shape(), rng, 1.0, false);
        const Tensor r0 = Tensor::randn(spec[0].shape, rng, 1.0, false);
        add(sumAll(mul(y, r)), sumAll(mul(leaves[0], r0))).backward();
        out.push_back(y.value());
    }
    for (Tensor &leaf : leaves)
        out.push_back(leaf.grad());
    return out;
}

/** Both builders give the same value and leaf grads, bit for bit. */
void
expectSameBits(const std::vector<LeafSpec> &spec,
               const std::function<Tensor(const std::vector<Tensor> &)> &a,
               const std::function<Tensor(const std::vector<Tensor> &)> &b)
{
    const auto got = twoBackwardPasses(spec, a);
    const auto want = twoBackwardPasses(spec, b);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(sameBits(got[i], want[i]))
            << (i < 2 ? "value, pass " : "grad of leaf ")
            << (i < 2 ? i : i - 2);
}

TEST(Ops, LinearIsBitIdenticalToItsComposition)
{
    Rng rng(13);
    // 21 rows (not a whole row block), 13 -> 10 columns (panel tails).
    for (std::vector<int> x_shape :
         {std::vector<int>{3, 7, 13}, std::vector<int>{21, 13}}) {
        SCOPED_TRACE(::testing::Message() << "rank " << x_shape.size());
        const std::vector<LeafSpec> spec = {randomLeaf(x_shape, rng),
                                            randomLeaf({13, 10}, rng),
                                            randomLeaf({10}, rng)};
        expectSameBits(
            spec,
            [](const std::vector<Tensor> &l) {
                return linear(l[0], l[1], l[2]);
            },
            [&](const std::vector<Tensor> &l) {
                Tensor flat = reshape(l[0], {21, 13});
                Tensor y = addBias(matmul(flat, l[1]), l[2]);
                std::vector<int> y_shape = x_shape;
                y_shape.back() = 10;
                return reshape(y, y_shape);
            });
    }
}

TEST(Ops, HeadSplitAndMergeAreBitIdenticalToTheirCompositions)
{
    Rng rng(14);
    const int n = 3, l = 5, heads = 4, hd = 3;
    expectSameBits(
        {randomLeaf({n, l, heads * hd}, rng)},
        [&](const std::vector<Tensor> &x) {
            return splitHeads(x[0], heads);
        },
        [&](const std::vector<Tensor> &x) {
            Tensor t = reshape(x[0], {n, l, heads, hd});
            return reshape(permute0213(t), {n * heads, l, hd});
        });
    expectSameBits(
        {randomLeaf({n * heads, l, hd}, rng)},
        [&](const std::vector<Tensor> &x) {
            return mergeHeads(x[0], heads);
        },
        [&](const std::vector<Tensor> &x) {
            Tensor t = reshape(x[0], {n, heads, l, hd});
            return reshape(permute0213(t), {n, l, heads * hd});
        });

    // Both sides above share one copy body, so check it by index too:
    // y[b * H + h, t, e] = x[b, t, h * hd + e], and x's grad under
    // sum(y * r) is exactly the weight r its element meets.
    Tensor x = Tensor::randn({n, l, heads * hd}, rng, 1.0);
    Tensor y = splitHeads(x, heads);
    const Tensor r = Tensor::randn(y.shape(), rng, 1.0, false);
    sumAll(mul(y, r)).backward();
    for (int b = 0; b < n; ++b)
        for (int t = 0; t < l; ++t)
            for (int h = 0; h < heads; ++h)
                for (int e = 0; e < hd; ++e) {
                    const size_t from = static_cast<size_t>(
                        ((b * l + t) * heads + h) * hd + e);
                    const size_t to = static_cast<size_t>(
                        ((b * heads + h) * l + t) * hd + e);
                    EXPECT_EQ(y.value()[to], x.value()[from]);
                    EXPECT_EQ(x.grad()[from], r.value()[to]);
                }
}

TEST(Ops, DropoutTrainVsEval)
{
    Rng rng(13);
    Tensor x = Tensor::fromData({4}, {1, 1, 1, 1});
    Rng drop_rng(14);
    const Tensor eval = dropout(x, 0.5, drop_rng, false);
    EXPECT_EQ(eval.value(), x.value());
    // Training mode: scaled mask of zeros and 2s.
    const Tensor train = dropout(x, 0.5, drop_rng, true);
    for (float v : train.value())
        // tlp-lint: allow(float-eq) -- dropout writes exact 0.0f into masked slots; the test pins that
        EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6);
}

TEST(Losses, MseValueAndGrad)
{
    Tensor pred = Tensor::fromData({2}, {1.0f, 3.0f}, true);
    Tensor loss = mseLoss(pred, {0.0f, 1.0f});
    EXPECT_NEAR(loss.value()[0], (1.0 + 4.0) / 2.0, 1e-6);
    loss.backward();
    EXPECT_NEAR(pred.grad()[0], 1.0f, 1e-5);
    EXPECT_NEAR(pred.grad()[1], 2.0f, 1e-5);
}

TEST(Losses, RankLossOrderingSignal)
{
    // Element 0 has a higher label but a lower score: the gradient must
    // push score 0 up (negative grad) and score 1 down.
    Tensor pred = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor loss = rankLoss(pred, {1.0f, 0.2f}, {0, 0});
    EXPECT_GT(loss.value()[0], 0.0f);
    loss.backward();
    EXPECT_LT(pred.grad()[0], 0.0f);
    EXPECT_GT(pred.grad()[1], 0.0f);
}

TEST(Losses, RankLossRespectsGroups)
{
    // Cross-group pairs contribute nothing.
    Tensor pred = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor loss = rankLoss(pred, {1.0f, 0.0f}, {0, 1});
    EXPECT_FLOAT_EQ(loss.value()[0], 0.0f);
}

TEST(Losses, NanTargetsContributeNoLossOrGradient)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();

    // MSE: the NaN element must affect neither value nor gradient, and
    // the mean must be over the valid elements only.
    Tensor pred = Tensor::fromData({3}, {1.0f, 3.0f, 2.0f}, true);
    Tensor loss = mseLoss(pred, {0.0f, nan, 1.0f});
    EXPECT_NEAR(loss.value()[0], (1.0 + 1.0) / 2.0, 1e-6);
    loss.backward();
    EXPECT_NEAR(pred.grad()[0], 1.0f, 1e-5);
    EXPECT_FLOAT_EQ(pred.grad()[1], 0.0f);
    EXPECT_NEAR(pred.grad()[2], 1.0f, 1e-5);

    // Rank: pairs touching a NaN label are dropped.
    Tensor scores = Tensor::fromData({2}, {0.0f, 1.0f}, true);
    Tensor rank = rankLoss(scores, {nan, 0.2f}, {0, 0});
    EXPECT_FLOAT_EQ(rank.value()[0], 0.0f);
    rank.backward();
    EXPECT_FLOAT_EQ(scores.grad()[0], 0.0f);
    EXPECT_FLOAT_EQ(scores.grad()[1], 0.0f);
}

TEST(Losses, AllNanTargetsGiveZeroFiniteLoss)
{
    // A record labeled on no platform (every measurement failed) must be
    // a clean no-op: zero loss, zero gradients, nothing non-finite.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Tensor pred = Tensor::fromData({3}, {1.0f, -2.0f, 0.5f}, true);
    Tensor loss = mseLoss(pred, {nan, nan, nan});
    EXPECT_FLOAT_EQ(loss.value()[0], 0.0f);
    loss.backward();
    for (float g : pred.grad()) {
        EXPECT_TRUE(std::isfinite(g));
        EXPECT_FLOAT_EQ(g, 0.0f);
    }

    Tensor scores = Tensor::fromData({3}, {1.0f, -2.0f, 0.5f}, true);
    Tensor rank = rankLoss(scores, {nan, nan, nan}, {0, 0, 0});
    EXPECT_FLOAT_EQ(rank.value()[0], 0.0f);
    rank.backward();
    for (float g : scores.grad())
        EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Modules, LinearShapes)
{
    Rng rng(15);
    Linear linear(8, 3, rng);
    Tensor x = Tensor::randn({5, 8}, rng, 1.0, false);
    EXPECT_EQ(linear.forward(x).shape(), (std::vector<int>{5, 3}));
    Tensor x3 = Tensor::randn({2, 5, 8}, rng, 1.0, false);
    EXPECT_EQ(linear.forward(x3).shape(), (std::vector<int>{2, 5, 3}));
    EXPECT_EQ(linear.numParameters(), 8 * 3 + 3);
}

TEST(Modules, AttentionPreservesShape)
{
    Rng rng(16);
    MultiHeadSelfAttention attn(16, 4, rng);
    Tensor x = Tensor::randn({3, 6, 16}, rng, 1.0, false);
    EXPECT_EQ(attn.forward(x).shape(), (std::vector<int>{3, 6, 16}));
}

TEST(Modules, LstmShapes)
{
    Rng rng(17);
    Lstm lstm(8, 12, rng);
    Tensor x = Tensor::randn({4, 5, 8}, rng, 1.0, false);
    EXPECT_EQ(lstm.forward(x).shape(), (std::vector<int>{4, 5, 12}));
}

TEST(Modules, SaveLoadRoundTrip)
{
    Rng rng(18);
    Linear a(6, 6, rng), b(6, 6, rng);
    std::stringstream ss;
    BinaryWriter writer(ss);
    a.saveParameters(writer);
    BinaryReader reader(ss);
    b.loadParameters(reader);
    Tensor x = Tensor::randn({2, 6}, rng, 1.0, false);
    EXPECT_EQ(a.forward(x).value(), b.forward(x).value());
}

TEST(Training, LinearRegressionConverges)
{
    Rng rng(19);
    Linear model(4, 1, rng);
    Adam adam(model.parameters(), {.lr = 0.05});
    // Ground truth: y = 2x0 - x1 + 0.5x2 + 3.
    auto target = [](const float *x) {
        return 2 * x[0] - x[1] + 0.5f * x[2] + 3.0f;
    };
    double last_loss = 0.0;
    for (int step = 0; step < 300; ++step) {
        Tensor x = Tensor::randn({16, 4}, rng, 1.0, false);
        std::vector<float> labels(16);
        for (int i = 0; i < 16; ++i)
            labels[static_cast<size_t>(i)] =
                target(x.value().data() + i * 4);
        Tensor pred = reshape(model.forward(x), {16});
        Tensor loss = mseLoss(pred, labels);
        adam.zeroGrad();
        loss.backward();
        adam.step();
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.05);
}

TEST(Training, AttentionLearnsPositionSum)
{
    // Learn to score sequences by a weighted sum of one feature — sanity
    // that gradients flow through the full attention stack.
    Rng rng(20);
    Linear up(4, 16, rng);
    MultiHeadSelfAttention attn(16, 4, rng);
    Linear head(16, 1, rng);
    std::vector<Tensor> params;
    for (Module *m :
         std::initializer_list<Module *>{&up, &attn, &head})
        for (Tensor &p : m->parameters())
            params.push_back(p);
    Adam adam(params, {.lr = 0.01});

    double last_loss = 1e9;
    for (int step = 0; step < 150; ++step) {
        Tensor x = Tensor::randn({8, 5, 4}, rng, 1.0, false);
        std::vector<float> labels(8, 0.0f);
        for (int i = 0; i < 8; ++i)
            for (int t = 0; t < 5; ++t)
                labels[static_cast<size_t>(i)] +=
                    0.2f * x.value()[static_cast<size_t>((i * 5 + t) * 4)];
        Tensor h = attn.forward(up.forward(x));
        Tensor scores = head.forward(h);              // [8, 5, 1]
        Tensor pred = sumAxis1(reshape(scores, {8, 5}));
        Tensor loss = mseLoss(pred, labels);
        adam.zeroGrad();
        loss.backward();
        adam.step();
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.4);
}

// --- kernels ------------------------------------------------------------

/** One kernel problem: batch x ([m, k] * [k, n]). */
struct KernelShape
{
    int64_t batch, m, k, n;
};

/** The model's shapes plus awkward ones. */
const std::vector<KernelShape> kKernelShapes = {
    {1, 300, 22, 64},   // up-sample Linear: k = 22 input features
    {1, 300, 64, 64},   // hidden Linear
    {1, 300, 64, 1},    // fc2 head: n = 1
    {16, 25, 8, 25},    // attention Q K^T: n = 25, not a vector multiple
    {16, 25, 25, 8},    // attention P V
    {1, 1, 7, 3},       // a single row
    {3, 5, 300, 17},    // k wider than one accumulator block
    {1, 13, 300, 9},    // row and column remainders, k over one pack
    // Remainders of the blocked backward kernels: m (NT rows) and k (TN
    // rows) modulo the 6-row block, k and n just above multiples of the
    // 8-lane panel and of the 16-lane wide panel, and m over one TN pass.
    {2, 6, 40, 33},     // a whole row block; n one over a wide panel
    {1, 133, 17, 41},   // m % 6 = 1, m over 128; k, n one over 16 and 40
    {2, 14, 9, 23},     // m % 6 = 2; k one over a panel; n % 8 = 7
    {1, 9, 33, 10},     // m % 6 = 3; k % 6 = 3 and one over 32
    {3, 4, 25, 16},     // m % 6 = 4; n one whole wide panel, no tail
};

std::vector<float>
randomValues(int64_t count, Rng &rng)
{
    std::vector<float> values(static_cast<size_t>(count));
    for (float &v : values)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return values;
}

/** Float result vs a double-precision sum of @p count terms. */
void
expectClose(float got, double ref, double abs_sum, const char *what)
{
    EXPECT_NEAR(got, ref, 1e-5 * abs_sum + 1e-6) << what;
}

/** Every kernel's output for one shape, at the current thread count. */
std::vector<std::vector<float>>
runKernels(const KernelShape &s, uint64_t seed)
{
    Rng rng(seed);
    const auto a = randomValues(s.batch * s.m * s.k, rng);
    const auto b = randomValues(s.batch * s.k * s.n, rng);
    const auto gc = randomValues(s.batch * s.m * s.n, rng);
    std::vector<float> c(static_cast<size_t>(s.batch * s.m * s.n));
    auto ga = randomValues(s.batch * s.m * s.k, rng);   // += targets
    auto gb = randomValues(s.batch * s.k * s.n, rng);
    const std::vector<float> ga0 = ga, gb0 = gb;
    if (s.batch == 1) {
        kern::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
        kern::gemmNT(gc.data(), b.data(), ga.data(), s.m, s.k, s.n);
        kern::gemmTN(a.data(), gc.data(), gb.data(), s.m, s.k, s.n);
    } else {
        kern::bmm(a.data(), b.data(), c.data(), s.batch, s.m, s.k, s.n);
        kern::bmmNT(gc.data(), b.data(), ga.data(), s.batch, s.m, s.k,
                    s.n);
        kern::bmmTN(a.data(), gc.data(), gb.data(), s.batch, s.m, s.k,
                    s.n);
    }

    for (int64_t t = 0; t < s.batch; ++t) {
        const float *at = a.data() + t * s.m * s.k;
        const float *bt = b.data() + t * s.k * s.n;
        const float *gct = gc.data() + t * s.m * s.n;
        for (int64_t i = 0; i < s.m; ++i) {
            for (int64_t j = 0; j < s.n; ++j) {
                double ref = 0.0, abs_sum = 0.0;
                for (int64_t p = 0; p < s.k; ++p) {
                    const double term = static_cast<double>(
                                            at[i * s.k + p]) *
                                        bt[p * s.n + j];
                    ref += term;
                    abs_sum += std::abs(term);
                }
                expectClose(c[static_cast<size_t>((t * s.m + i) * s.n + j)],
                            ref, abs_sum, "gemm");
            }
            for (int64_t p = 0; p < s.k; ++p) {
                const size_t idx =
                    static_cast<size_t>((t * s.m + i) * s.k + p);
                double ref = ga0[idx], abs_sum = std::abs(ga0[idx]);
                for (int64_t j = 0; j < s.n; ++j) {
                    const double term = static_cast<double>(
                                            gct[i * s.n + j]) *
                                        bt[p * s.n + j];
                    ref += term;
                    abs_sum += std::abs(term);
                }
                expectClose(ga[idx], ref, abs_sum, "gemmNT");
            }
        }
        for (int64_t p = 0; p < s.k; ++p) {
            for (int64_t j = 0; j < s.n; ++j) {
                const size_t idx =
                    static_cast<size_t>((t * s.k + p) * s.n + j);
                double ref = gb0[idx], abs_sum = std::abs(gb0[idx]);
                for (int64_t i = 0; i < s.m; ++i) {
                    const double term = static_cast<double>(
                                            at[i * s.k + p]) *
                                        gct[i * s.n + j];
                    ref += term;
                    abs_sum += std::abs(term);
                }
                expectClose(gb[idx], ref, abs_sum, "gemmTN");
            }
        }
    }
    return {c, ga, gb};
}

TEST(Kernels, MatchDoublePrecisionReference)
{
    for (const KernelShape &s : kKernelShapes) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << s.batch << " m " << s.m << " k " << s.k
                     << " n " << s.n);
        runKernels(s, 40);
    }
}

TEST(Kernels, GemmRowsIsPositionIndependent)
{
    // The fused forward multiplies row subsets (distinct rows) against
    // gathered column subsets (distinct keys): every such product must
    // reproduce the matching elements of the full product bit for bit.
    Rng rng(42);
    const int64_t m = 25;
    for (int64_t n : {1, 8, 25, 64}) {
        for (int64_t k : {8, 22, 25, 64, 130}) {
            SCOPED_TRACE(::testing::Message() << "k " << k << " n " << n);
            const auto a = randomValues(m * k, rng);
            const auto b = randomValues(k * n, rng);
            std::vector<float> full(static_cast<size_t>(m * n));
            kern::gemmRows(a.data(), b.data(), full.data(), 0, m, k, n);
            for (int trial = 0; trial < 8; ++trial) {
                // Random row and column subsets, in random order.
                const int64_t rows = 1 + rng.randint(m);
                const int64_t cols = 1 + rng.randint(n);
                std::vector<int64_t> row_of(static_cast<size_t>(rows));
                std::vector<int64_t> col_of(static_cast<size_t>(cols));
                for (int64_t &r : row_of)
                    r = rng.randint(m);
                for (int64_t &c : col_of)
                    c = rng.randint(n);
                std::vector<float> sub_a(static_cast<size_t>(rows * k));
                std::vector<float> sub_b(static_cast<size_t>(k * cols));
                for (int64_t i = 0; i < rows; ++i)
                    std::copy_n(a.data() + row_of[i] * k, k,
                                sub_a.data() + i * k);
                for (int64_t p = 0; p < k; ++p)
                    for (int64_t j = 0; j < cols; ++j)
                        sub_b[p * cols + j] = b[p * n + col_of[j]];
                std::vector<float> sub(static_cast<size_t>(rows * cols));
                kern::gemmRows(sub_a.data(), sub_b.data(), sub.data(), 0,
                               rows, k, cols);
                for (int64_t i = 0; i < rows; ++i) {
                    for (int64_t j = 0; j < cols; ++j) {
                        const float got = sub[i * cols + j];
                        const float want =
                            full[row_of[i] * n + col_of[j]];
                        EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)),
                                  0)
                            << "row " << row_of[i] << " col " << col_of[j];
                    }
                }
            }
            // A row range [i0, i1) writes exactly those rows of C.
            for (int64_t i0 = 0; i0 < m; i0 += 7) {
                const int64_t i1 = std::min(m, i0 + 1 + rng.randint(9));
                std::vector<float> part(full.size(), 0.0f);
                kern::gemmRows(a.data(), b.data(), part.data(), i0, i1, k,
                               n);
                EXPECT_EQ(std::memcmp(part.data() + i0 * n,
                                      full.data() + i0 * n,
                                      static_cast<size_t>((i1 - i0) * n) *
                                          sizeof(float)),
                          0)
                    << "rows [" << i0 << ", " << i1 << ")";
            }
        }
    }
}

TEST(Kernels, BitIdenticalAtOneAndFourThreads)
{
    struct Restore
    {
        ~Restore()
        {
            ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
        }
    } restore;
    for (const KernelShape &s : kKernelShapes) {
        SCOPED_TRACE(::testing::Message()
                     << "batch " << s.batch << " m " << s.m << " k " << s.k
                     << " n " << s.n);
        ThreadPool::setGlobalThreads(1);
        const auto serial = runKernels(s, 41);
        ThreadPool::setGlobalThreads(4);
        EXPECT_EQ(runKernels(s, 41), serial);
    }
}

// --- TapePool -----------------------------------------------------------

/** Rows of the two batches makeBatches alternates on the mini set. */
constexpr int kBigBatch = 252;
constexpr int kSmallBatch = 76;

/** A small attention scorer with Adam, trained one batch per step(). */
struct TinyTrainer
{
    explicit TinyTrainer(uint64_t seed)
        : rng(seed), data_rng(seed + 1), up(4, 16, rng), attn(16, 4, rng),
          head(16, 1, rng), adam(parameters(), {.lr = 0.01})
    {}

    std::vector<Tensor>
    parameters()
    {
        std::vector<Tensor> params;
        for (Module *m :
             std::initializer_list<Module *>{&up, &attn, &head})
            for (Tensor &p : m->parameters())
                params.push_back(p);
        return params;
    }

    /** One optimizer step on @p rows fresh rows; returns the loss. */
    float
    step(int rows)
    {
        Tensor x = Tensor::randn({rows, 5, 4}, data_rng, 1.0, false);
        std::vector<float> labels(static_cast<size_t>(rows));
        for (int i = 0; i < rows; ++i)
            labels[static_cast<size_t>(i)] =
                x.value()[static_cast<size_t>(i * 20)];
        adam.zeroGrad();
        Tensor scores = head.forward(attn.forward(up.forward(x)));
        Tensor loss =
            mseLoss(sumAxis1(reshape(scores, {rows, 5})), labels);
        loss.backward();
        adam.step();
        return loss.value()[0];
    }

    Rng rng, data_rng;
    Linear up;
    MultiHeadSelfAttention attn;
    Linear head;
    Adam adam;
};

TEST(TapePool, PooledTrainingIsBitIdenticalToUnpooled)
{
    auto train = [](bool pooled) {
        TinyTrainer trainer(31);
        std::optional<TapePool> pool;
        if (pooled)
            pool.emplace();
        std::vector<std::vector<float>> out(1);
        for (int step = 0; step < 6; ++step) {
            if (pool)
                pool->restart();
            out[0].push_back(
                trainer.step(step % 2 == 0 ? kBigBatch : kSmallBatch));
        }
        for (Tensor &param : trainer.parameters()) {
            out.push_back(param.value());
            out.push_back(param.grad());
        }
        return out;
    };
    EXPECT_EQ(train(true), train(false));
}

TEST(TapePool, AlternatingBatchesRetainNoMoreThanTheFirstStep)
{
    TinyTrainer trainer(32);
    TapePool pool;
    pool.restart();
    trainer.step(kBigBatch);
    const int64_t first_bytes = pool.retainedBytes();
    const int64_t first_positions = pool.positions();
    EXPECT_GT(first_bytes, 0);
    for (int step = 1; step < 6; ++step) {
        pool.restart();
        trainer.step(step % 2 == 0 ? kBigBatch : kSmallBatch);
        EXPECT_LE(pool.retainedBytes(), first_bytes) << "step " << step;
        EXPECT_EQ(pool.positions(), first_positions) << "step " << step;
    }
}

TEST(TapePool, OneStepLendsNoBuffersToCopyOnlyNodes)
{
    // Each Linear is one node and each attention head split or merge is
    // one node, so a step lends 40 buffers (values and grads). As
    // reshape -> matmul -> addBias -> reshape and reshape -> permute0213
    // -> reshape chains the same step lent 91.
    TinyTrainer trainer(32);
    TapePool pool;
    pool.restart();
    trainer.step(kBigBatch);
    EXPECT_LE(pool.positions(), 40);
}

TEST(TapePool, TensorKeptPastItsStepStaysValid)
{
    Rng rng(33);
    Tensor w = Tensor::randn({8, 8}, rng, 1.0);
    Tensor kept;
    std::vector<float> expected;
    {
        TapePool pool;
        for (int step = 0; step < 3; ++step) {
            pool.restart();
            Tensor x = Tensor::randn({16, 8}, rng, 1.0, false);
            Tensor h = relu(matmul(x, w));
            sumAll(h).backward();
            if (step == 0) {
                kept = h;
                expected = h.value();
            }
            // Later steps never write into the kept node's buffer.
            EXPECT_EQ(kept.value(), expected) << "step " << step;
        }
    }
    EXPECT_EQ(kept.value(), expected);   // and it outlives the pool
}

TEST(TapePool, NodeFreedOnAnotherThreadOrAfterThePoolIsJustFreed)
{
    Rng rng(34);
    const Tensor x = Tensor::randn({64, 64}, rng, 1.0, false);
    const std::vector<float> expected = relu(x).value();
    const int64_t bytes = 64 * 64 * sizeof(float);
    Tensor outlives_pool;
    {
        TapePool pool;
        pool.restart();
        Tensor y = relu(x);
        EXPECT_EQ(pool.positions(), 1);
        std::thread([t = std::move(y)]() mutable { t = Tensor(); }).join();
        EXPECT_EQ(pool.retainedBytes(), 0);   // not parked from there

        pool.restart();
        Tensor z = relu(x);
        z = Tensor();   // freed on the pool's thread: parked
        EXPECT_GE(pool.retainedBytes(), bytes);

        pool.restart();
        outlives_pool = relu(x);   // takes the parked buffer back
        EXPECT_EQ(pool.retainedBytes(), 0);
        EXPECT_EQ(pool.positions(), 1);
    }
    EXPECT_EQ(outlives_pool.value(), expected);
    outlives_pool = Tensor();   // after the pool: plain heap memory
}

TEST(TapePool, NestedPoolsEachServeTheirOwnScope)
{
    Rng rng(38);
    const Tensor x = Tensor::randn({8, 8}, rng, 1.0, false);
    TapePool outer;
    outer.restart();
    Tensor a = relu(x);
    {
        TapePool inner;
        inner.restart();
        Tensor b = relu(x);
        EXPECT_EQ(inner.positions(), 1);
        a = Tensor();   // lent by the outer pool: not parked in inner
        EXPECT_EQ(inner.retainedBytes(), 0);
    }
    EXPECT_EQ(outer.positions(), 1);
    EXPECT_EQ(outer.retainedBytes(), 0);
}

TEST(Optim, WeightDecayShrinksWeights)
{
    Rng rng(21);
    Tensor w = Tensor::randn({4}, rng, 1.0);
    Adam adam({w}, {.lr = 0.1, .weight_decay = 0.5});
    const float before = std::abs(w.value()[0]);
    // Zero gradient step: only decay acts.
    w.grad();
    adam.step();
    EXPECT_LT(std::abs(w.value()[0]), before);
}

} // namespace
} // namespace tlp::nn
