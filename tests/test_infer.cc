/**
 * @file
 * Tests for the inference hot path (DESIGN.md §13): the Arena scratch
 * allocator, the in-place feature extractor, the fused forward, and the
 * primitive-seq score memo. The load-bearing claim everywhere is
 * bit-identity: at any memo capacity, cold or warm, TlpCostModel
 * must predict the exact bits of the interpreted oracle.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "bench/bench_common.h"
#include "features/tlp_features.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "models/feature_cache.h"
#include "models/fused_infer.h"
#include "nn/infer_ops.h"
#include "sketch/policy.h"
#include "support/arena.h"

namespace tlp {
namespace {

TEST(Arena, AlignsAndBumps)
{
    Arena arena(256);
    float *a = arena.allocFloats(3);
    float *b = arena.allocFloats(5);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Arena::kAlign, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Arena::kAlign, 0u);
    EXPECT_NE(a, b);
    a[0] = 1.0f;
    b[0] = 2.0f;
    EXPECT_EQ(a[0], 1.0f);
}

TEST(Arena, RewindReusesTheSamePointers)
{
    Arena arena(1024);
    const Arena::Mark mark = arena.checkpoint();
    float *first = arena.allocFloats(64);
    arena.rewind(mark);
    float *second = arena.allocFloats(64);
    // The whole point: the steady state recycles identical storage.
    EXPECT_EQ(first, second);
    EXPECT_EQ(arena.blockCount(), 1u);
}

TEST(Arena, GrowsAcrossBlocksAndStopsGrowingAtSteadyState)
{
    Arena arena(128);
    const Arena::Mark mark = arena.checkpoint();
    for (int round = 0; round < 8; ++round) {
        arena.rewind(mark);
        for (int i = 0; i < 10; ++i)
            arena.allocFloats(100);   // ~4 KB live, first block is 128 B
    }
    const size_t blocks = arena.blockCount();
    const size_t reserved = arena.reservedBytes();
    EXPECT_GT(blocks, 1u);
    for (int round = 0; round < 8; ++round) {
        arena.rewind(mark);
        for (int i = 0; i < 10; ++i)
            arena.allocFloats(100);
    }
    // Same workload after warm-up: no new blocks, no new reservation.
    EXPECT_EQ(arena.blockCount(), blocks);
    EXPECT_EQ(arena.reservedBytes(), reserved);
    EXPECT_GE(arena.highWaterBytes(), 10u * 100u * sizeof(float));
}

TEST(Arena, ResetKeepsCapacity)
{
    Arena arena(64);
    arena.allocFloats(1000);
    const size_t reserved = arena.reservedBytes();
    arena.reset();
    EXPECT_EQ(arena.reservedBytes(), reserved);
    float *p = arena.allocFloats(1000);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(arena.reservedBytes(), reserved);
}

/**
 * Deterministic candidate schedules from the real sketch policy. Small
 * subgraphs dedup to few unique schedules, so pool across the
 * workload's subgraphs until @p n states are gathered.
 */
std::vector<sched::State>
samplePopulation(size_t n, uint64_t seed)
{
    static const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    Rng rng(seed);
    std::vector<sched::State> states;
    while (states.size() < n) {
        for (const auto &subgraph : workload.subgraphs) {
            sketch::SchedulePolicy policy(subgraph, false);
            for (auto &state : policy.sampleInitPopulation(
                     static_cast<int>(n), rng)) {
                if (states.size() < n)
                    states.push_back(std::move(state));
            }
        }
    }
    return states;
}

TEST(TlpFeatures, ExtractIntoMatchesReturningExtractor)
{
    const auto states = samplePopulation(8, 41);
    ASSERT_FALSE(states.empty());
    feat::TlpFeatureOptions options;
    const size_t dim = static_cast<size_t>(options.seq_len) *
                       static_cast<size_t>(options.emb_size);
    std::vector<float> row(dim);
    for (const sched::State &state : states) {
        const auto expect =
            feat::extractTlpFeatures(state.steps(), options);
        ASSERT_EQ(expect.size(), dim);
        feat::extractTlpFeaturesInto(state.steps(), options, row.data());
        EXPECT_EQ(std::memcmp(row.data(), expect.data(),
                              dim * sizeof(float)),
                  0);
    }
}

TEST(SeqKey, DistinguishesSequencesAndIsStable)
{
    const auto states = samplePopulation(16, 42);
    ASSERT_GE(states.size(), 2u);
    std::vector<model::SeqKey> keys;
    for (const sched::State &state : states)
        keys.push_back(model::seqKeyOf(state.steps()));
    for (size_t i = 0; i < keys.size(); ++i) {
        EXPECT_TRUE(keys[i] == model::seqKeyOf(states[i].steps()));
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_FALSE(keys[i] == keys[j]);
    }
}

/** Fresh TlpNet of @p config, seeded deterministically. */
std::shared_ptr<model::TlpNet>
makeNet(const model::TlpNetConfig &config, uint64_t seed = 7)
{
    Rng rng(seed);
    return std::make_shared<model::TlpNet>(config, rng);
}

/** Memo capacities every equivalence check runs at: the default, one
 *  that fits the populations, and one that evicts. */
constexpr int64_t kCapacities[] = {
    model::TlpCostModel::kDefaultCacheCapacity, 64, 4};

/** predictBatch through a fresh model with @p capacity cache entries. */
std::vector<double>
modelScores(std::shared_ptr<model::TlpNet> net, int64_t capacity,
            const std::vector<sched::State> &states, int task = 0)
{
    model::TlpCostModel cost_model(std::move(net), {}, task, capacity);
    return cost_model.predictBatch(task, states);
}

TEST(FusedInfer, MatchesInterpretedBitForBit)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    config.head_hidden = 16;
    auto net = makeNet(config);
    // Row counts straddling the block size: partial, exact, multi-block.
    for (int n : {1, 5, 16, 33}) {
        const auto states = samplePopulation(n, 43);
        ASSERT_FALSE(states.empty());
        const auto oracle = bench::oracleTlpScores(*net, states);
        for (int64_t capacity : kCapacities) {
            EXPECT_EQ(oracle, modelScores(net, capacity, states))
                << "rows=" << n << " capacity=" << capacity;
        }
    }
}

TEST(FusedInfer, MatchesInterpretedAcrossConfigs)
{
    std::vector<model::TlpNetConfig> configs(3);
    configs[0].hidden = 32;
    configs[0].heads = 4;
    configs[1].hidden = 48;
    configs[1].heads = 6;
    configs[1].residual_blocks = 1;
    configs[1].head_hidden = 24;
    configs[2].hidden = 32;
    configs[2].heads = 8;
    configs[2].num_tasks = 3;
    const auto states = samplePopulation(20, 44);
    for (const auto &config : configs) {
        auto net = makeNet(config, 11);
        for (int task = 0; task < config.num_tasks; ++task) {
            const auto oracle = bench::oracleTlpScores(*net, states, task);
            for (int64_t capacity : kCapacities) {
                EXPECT_EQ(oracle,
                          modelScores(net, capacity, states, task))
                    << "hidden=" << config.hidden << " task=" << task
                    << " capacity=" << capacity;
            }
        }
    }
}

TEST(FusedInfer, AllCacheCapacitiesMatchOracle)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    const auto states = samplePopulation(24, 45);
    const auto oracle = bench::oracleTlpScores(*net, states);
    for (int64_t capacity : kCapacities) {
        // Cold, then warm (score memos, or evictions at capacity 4).
        model::TlpCostModel cost_model(net, {}, 0, capacity);
        EXPECT_EQ(oracle, cost_model.predictBatch(0, states)) << capacity;
        EXPECT_EQ(oracle, cost_model.predictBatch(0, states)) << capacity;
    }
}

/**
 * @p n candidate feature matrices built to stress the distinct-row
 * forward: rows drawn from a small pool (so they repeat within and
 * across candidates), plus whole-candidate copies, all-padding
 * candidates, single-distinct-row candidates and rows that differ only
 * by the sign of a zero.
 */
std::vector<float>
duplicateHeavyFeatures(const model::TlpNetConfig &config, int n,
                       uint64_t seed)
{
    const auto E = static_cast<size_t>(config.emb_size);
    const auto S = static_cast<size_t>(config.seq_len);
    Rng rng(seed);
    std::vector<std::vector<float>> pool(6, std::vector<float>(E));
    for (auto &row : pool)
        for (float &v : row)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
    // Signed-zero twins: equal under float ==, distinct as bytes.
    for (size_t e = 0; e < E; e += 3)
        pool[4][e] = 0.0f;
    pool[5] = pool[4];
    for (size_t e = 0; e < E; e += 3)
        pool[5][e] = -0.0f;

    std::vector<float> features(static_cast<size_t>(n) * S * E, 0.0f);
    for (int c = 0; c < n; ++c) {
        float *cand = features.data() + static_cast<size_t>(c) * S * E;
        auto row = [&](size_t l) { return cand + l * E; };
        switch (c % 6) {
          case 0:   // all padding
            break;
          case 1:   // one distinct row
            for (size_t l = 0; l < S; ++l)
                std::copy(pool[1].begin(), pool[1].end(), row(l));
            break;
          case 2:   // a copy of the previous candidate
            std::copy(cand - S * E, cand, cand);
            break;
          case 3: {  // pool rows, then zero padding (the real layout)
            const auto used =
                1 + static_cast<size_t>(rng.randint(
                        static_cast<int64_t>(S)));
            for (size_t l = 0; l < used; ++l) {
                const auto &src = rng.choice(pool);
                std::copy(src.begin(), src.end(), row(l));
            }
            break;
          }
          case 4:   // signed-zero twins interleaved with padding
            for (size_t l = 0; l < S; ++l) {
                if (l % 3 == 2)
                    continue;
                const auto &src = pool[4 + l % 3];
                std::copy(src.begin(), src.end(), row(l));
            }
            break;
          default:  // every position different
            for (size_t l = 0; l < S; ++l)
                for (size_t e = 0; e < E; ++e)
                    row(l)[e] = static_cast<float>(rng.uniform(-1.0, 1.0));
            break;
        }
    }
    return features;
}

TEST(FusedInfer, DuplicateHeavyBatchesMatchOracleBitForBit)
{
    std::vector<model::TlpNetConfig> configs(3);
    configs[0].hidden = 32;
    configs[0].heads = 4;
    configs[1].hidden = 48;
    configs[1].heads = 6;
    configs[1].head_hidden = 24;
    configs[1].num_tasks = 2;   // configs[2] is the default 64 / 8
    for (const auto &config : configs) {
        auto net = makeNet(config, 12);
        model::FusedTlpInference fused(net);
        for (int n : {1, 15, 16, 17, 33}) {
            data::LabeledSet set;
            set.rows = n;
            set.feature_dim = config.seq_len * config.emb_size;
            set.features = duplicateHeavyFeatures(config, n, 100 + n);
            for (int task = 0; task < config.num_tasks; ++task) {
                const auto oracle = model::predictTlpNet(*net, set, task);
                std::vector<double> got(static_cast<size_t>(n));
                fused.predict(set.features.data(), n, task, got.data());
                ASSERT_EQ(got.size(), oracle.size());
                EXPECT_EQ(std::memcmp(got.data(), oracle.data(),
                                      got.size() * sizeof(double)),
                          0)
                    << "hidden=" << config.hidden << " n=" << n
                    << " task=" << task;
            }
        }
    }
}

TEST(FusedInfer, KeyMajorSoftmaxMatchesGatheredSoftmaxRows)
{
    // Per query, softmaxKeyMajor must equal softmaxRows on the gathered
    // position row bit for bit — NaN, signed zeros and ties included.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        const int cols = 1 + static_cast<int>(rng.randint(25));
        // Positions map to distinct keys with repeats, numbered by first
        // occurrence as forwardBlock numbers them.
        std::vector<int32_t> pos(static_cast<size_t>(cols));
        int32_t distinct = 0;
        for (int32_t &p : pos) {
            p = distinct > 0 && rng.uniform() < 0.5
                    ? static_cast<int32_t>(rng.randint(distinct))
                    : distinct++;
        }
        const auto u = static_cast<size_t>(distinct);
        std::vector<float> scores(u * u);
        for (float &s : scores) {
            const double kind = rng.uniform();
            s = kind < 0.05   ? nan
                : kind < 0.15 ? 0.0f
                : kind < 0.25 ? -0.0f
                : kind < 0.35 ? 1.5f
                              : static_cast<float>(rng.uniform(-4.0, 4.0));
        }
        std::vector<float> expect(u * static_cast<size_t>(cols));
        for (size_t i = 0; i < u; ++i) {
            float *row = expect.data() + i * static_cast<size_t>(cols);
            for (int c = 0; c < cols; ++c)
                row[c] = scores[static_cast<size_t>(pos[c]) * u + i];
            nn::iops::softmaxRows(row, row, 0, 1, cols);
        }
        std::vector<float> probs(static_cast<size_t>(cols) * u);
        std::vector<float> stats(2 * u);
        nn::iops::softmaxKeyMajor(scores.data(), pos.data(), probs.data(),
                                  stats.data(), distinct, cols);
        for (size_t i = 0; i < u; ++i) {
            for (int c = 0; c < cols; ++c) {
                const float got = probs[static_cast<size_t>(c) * u + i];
                const float want =
                    expect[i * static_cast<size_t>(cols) + c];
                EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
                    << "trial " << trial << " query " << i << " pos " << c;
            }
        }
    }
}

TEST(FusedInfer, LstmBackboneFallsBackToInterpreted)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    config.lstm_backbone = true;
    auto net = makeNet(config);
    const auto states = samplePopulation(6, 46);
    // An LSTM net has no fused forward: TlpCostModel scores it through
    // the interpreted forward behind the cache, so it equals the oracle.
    const auto oracle = bench::oracleTlpScores(*net, states);
    for (int64_t capacity : kCapacities)
        EXPECT_EQ(oracle, modelScores(net, capacity, states)) << capacity;
}

TEST(FeatureCache, InterleavedGenerationsMatchOracle)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel cached(net, {}, 0, 256);

    // Evolution-shaped workload: each generation keeps survivors from
    // the previous one (score-memo hits), mutates every member with its
    // own subgraph's policy (fresh rows), and injects duplicates (two
    // misses storing the same key). One subgraph dedups to a few
    // schedules, so the population pools across subgraphs, as
    // samplePopulation does.
    static const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork("mlp-mixer"));
    std::vector<sketch::SchedulePolicy> policies;
    for (const auto &subgraph : workload.subgraphs)
        policies.emplace_back(subgraph, false);
    constexpr size_t kPopulation = 24;
    Rng rng(47);
    std::vector<sched::State> population;
    std::vector<size_t> owner;   // policy index of each member
    for (size_t p = 0; p < policies.size(); ++p) {
        for (auto &state : policies[p].sampleInitPopulation(
                 static_cast<int>(kPopulation), rng)) {
            if (population.size() < kPopulation) {
                population.push_back(std::move(state));
                owner.push_back(p);
            }
        }
    }
    ASSERT_EQ(population.size(), kPopulation);
    for (int generation = 0; generation < 4; ++generation) {
        // Duplicates inside one batch both miss and both store.
        std::vector<sched::State> batch = population;
        batch.push_back(population[0]);
        batch.push_back(population[population.size() / 2]);
        ASSERT_EQ(cached.predictBatch(0, batch),
                  bench::oracleTlpScores(*net, batch))
            << "generation " << generation;
        // Survivors + mutants for the next round.
        const size_t survivors = population.size() / 2;
        std::vector<sched::State> next(population.begin(),
                                       population.begin() +
                                           static_cast<long>(survivors));
        std::vector<size_t> next_owner(owner.begin(),
                                       owner.begin() +
                                           static_cast<long>(survivors));
        for (size_t i = 0; i < population.size(); ++i) {
            if (auto mutant = policies[owner[i]].mutate(population[i], rng)) {
                next.push_back(std::move(*mutant));
                next_owner.push_back(owner[i]);
            }
        }
        population = std::move(next);
        owner = std::move(next_owner);
    }
    const auto stats = cached.cacheStats();
    EXPECT_GT(stats.score_hits, 0u);     // survivors + in-batch dups
    EXPECT_GT(stats.misses, 0u);         // fresh mutants
}

TEST(FeatureCache, TinyCapacityEvictsButNeverChangesScores)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel tiny(net, {}, 0, 4);
    const auto states = samplePopulation(32, 48);
    ASSERT_GT(states.size(), 4u);
    const auto baseline = bench::oracleTlpScores(*net, states);
    // Thrash the 4-entry cache repeatedly; every pass must match.
    for (int pass = 0; pass < 3; ++pass)
        EXPECT_EQ(tiny.predictBatch(0, states), baseline) << pass;
    EXPECT_GT(tiny.cacheStats().evictions, 0u);
}

TEST(FeatureCache, ScoreMemosInvalidateWhenParametersChange)
{
    model::TlpNetConfig config;
    config.hidden = 32;
    config.heads = 4;
    auto net = makeNet(config);
    model::TlpCostModel cached(net, {}, 0, 256);
    const auto states = samplePopulation(12, 49);
    const auto before = cached.predictBatch(0, states);
    EXPECT_EQ(before, cached.predictBatch(0, states));

    // Perturb the head's output bias in place — what continued training
    // does; this bias shifts every score, so the change must show.
    net->parameters().back().value()[0] += 0.25f;
    const auto after = cached.predictBatch(0, states);
    EXPECT_EQ(after, bench::oracleTlpScores(*net, states));
    EXPECT_NE(after, before);
}

TEST(FeatureCache, EvictionUnitSemantics)
{
    const auto states = samplePopulation(8, 50);
    ASSERT_GE(states.size(), 5u);
    model::FeatureCache cache(2);
    std::vector<model::SeqKey> keys;
    for (const sched::State &state : states)
        keys.push_back(model::seqKeyOf(state.steps()));

    double score = 0.0;
    EXPECT_FALSE(cache.lookup(keys[0], 9, &score));   // miss 1
    cache.store(keys[0], 9, 1.5);
    cache.store(keys[1], 9, 2.5);
    EXPECT_TRUE(cache.lookup(keys[0], 9, &score));    // hit 1
    EXPECT_EQ(score, 1.5);
    EXPECT_FALSE(cache.lookup(keys[0], 8, &score));   // stale: miss 2
    EXPECT_TRUE(cache.lookup(keys[1], 9, &score));    // hit 2
    EXPECT_EQ(score, 2.5);

    // Refreshing a present key rewrites it in place: no eviction, and
    // its FIFO position (oldest) is kept.
    cache.store(keys[0], 10, 3.5);
    EXPECT_EQ(cache.size(), 2);
    EXPECT_FALSE(cache.lookup(keys[0], 9, &score));   // miss 3
    EXPECT_TRUE(cache.lookup(keys[0], 10, &score));   // hit 3
    EXPECT_EQ(score, 3.5);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // A third key evicts the oldest insertion (keys[0]), then keys[1].
    cache.store(keys[2], 10, 4.5);
    EXPECT_FALSE(cache.lookup(keys[0], 10, &score));  // miss 4
    EXPECT_TRUE(cache.lookup(keys[1], 9, &score));    // hit 4
    EXPECT_TRUE(cache.lookup(keys[2], 10, &score));   // hit 5
    EXPECT_EQ(score, 4.5);
    cache.store(keys[3], 10, 5.5);
    EXPECT_FALSE(cache.lookup(keys[1], 9, &score));   // miss 5
    EXPECT_TRUE(cache.lookup(keys[2], 10, &score));   // hit 6
    EXPECT_TRUE(cache.lookup(keys[3], 10, &score));   // hit 7
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().score_hits, 7u);
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().feature_hits, 0u);
    EXPECT_EQ(cache.stats().bypasses, 0u);

    // Hammer it: cycling more keys than slots evicts on every store,
    // and each fresh store must read back exactly.
    for (int round = 0; round < 200; ++round) {
        const model::SeqKey &key =
            keys[static_cast<size_t>(round) % keys.size()];
        const auto want = static_cast<double>(round);
        EXPECT_FALSE(cache.lookup(key, 11, &score));
        cache.store(key, 11, want);
        EXPECT_TRUE(cache.lookup(key, 11, &score));
        EXPECT_EQ(score, want);
    }
    EXPECT_EQ(cache.stats().evictions, 202u);
    EXPECT_EQ(cache.size(), 2);
}

} // namespace
} // namespace tlp
