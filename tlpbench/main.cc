/**
 * @file
 * The repository benchmark: one workload per process, timed through the
 * library's public calls, with every correctness check on every run.
 *
 * Usage: tlpbench --workload pretrain|search-tlp|fleet --seed N
 *                 --seconds S --trace 0|1 [--tiny] [--plant-mismatch]
 *                 [--work-dir DIR] [--revision R] [--lib-flags F]
 *
 * Workloads (closed loop, one caller; the library's worker pool runs
 * one thread):
 *   pretrain    collect the mini dataset, then trainTlpNet + top-k on a
 *               held-out network — the tune_workload recipe's dominant
 *               cost, with no search at all.
 *   search-tlp  tune every resnet-50 subgraph behind a briefly trained
 *               TlpCostModel wrapped in a forwarding decorator — scoring,
 *               features, sketch and simulation, no training. The model
 *               is the same for every seed; --seed drives the search.
 *   fleet       a 16-session ansor-online TuningService run to
 *               completion, plus the same fleet stopped at half its
 *               ticks and recovered — checkpoint I/O, lowering + GBDT,
 *               service scheduling.
 *
 * Each run sets up several times (setup_s is their median) and repeats
 * its timed job until --seconds have passed (wall_s is the median job).
 * With --trace 1, repetitions alternate between recording spans and
 * not; per-module metrics, the self-time table and the tracing overhead
 * come from that run, end-to-end metrics only from --trace 0 runs.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. A failed check prints correct=false
 * and exits 1.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "artifact/audit.h"
#include "dataset/collect.h"
#include "dataset/metrics.h"
#include "dataset/splits.h"
#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "support/argparse.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "trace.h"
#include "tuner/service/service.h"
#include "tuner/session.h"

using namespace tlp;
namespace fs = std::filesystem;

namespace tlpbench {
namespace {

const char *const kPlatform = "i7-10510u";
const char *const kHeldOut = "resnet-50";
/** search-tlp tunes behind one pretrained model, as a user does: the
 *  model's data and training seed stay fixed, --seed drives the search. */
constexpr uint64_t kModelSeed = 1;

/** Sizes of one run; --tiny shrinks every loop for the self-check. */
struct Scale
{
    int setups;                  ///< set-ups per run (setup_s = median)
    int programs_per_subgraph;   ///< mini dataset collection
    int pretrain_epochs;         ///< trainTlpNet epochs per repetition
    int setup_train_epochs;      ///< search-tlp's compact model
    int search_subgraphs;        ///< 0 = every resnet-50 subgraph
    int search_rounds;           ///< tuning rounds per repetition
    int fleet_sessions;
    int fleet_rounds;            ///< rounds per fleet session
    int nn_steps;                ///< sampled nn steps in a traced run
    int oracle_per_call;         ///< oracle-checked candidates per call
    /** Round (or tick) latencies a run collects at least, so that ten
     *  samples lie beyond the reported p95. */
    int min_round_samples;
};

constexpr Scale kFull{5, 8, 4, 1, 0, 100, 16, 4, 8, 2, 200};
constexpr Scale kTiny{2, 4, 1, 1, 3, 8, 4, 2, 2, 2, 0};

/** Repetitions needed for @p scale's round samples at @p per_rep each. */
int
minReps(const Scale &scale, int per_rep, bool trace)
{
    const int needed = (scale.min_round_samples + per_rep - 1) / per_rep;
    return std::max(trace ? 2 : 1, needed);
}

/** Named values reported in the result line. */
struct Metrics
{
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        items.push_back({name, value, unit});
    }
};

/** Correctness bookkeeping: every check is one attempted operation. */
struct Checks
{
    int64_t attempted = 0;
    int64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("CHECK FAILED: %s\n", what.c_str());
        }
    }
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<size_t>(rank, 1) - 1];
}

struct Usage
{
    double sys_s;
    double minor_faults;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {static_cast<double>(ru.ru_stime.tv_sec) +
                1e-6 * static_cast<double>(ru.ru_stime.tv_usec),
            static_cast<double>(ru.ru_minflt)};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
digestBytes(uint64_t digest, const void *data, size_t size)
{
    return hashCombine(digest, fnv1a(data, size));
}

uint64_t
digestDouble(uint64_t digest, double value)
{
    return digestBytes(digest, &value, sizeof(value));
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * Repetition loop: runs @p rep at least @p min_reps times, and then
 * again while another repetition as long as the last one still ends
 * within @p seconds of the start. With tracing, even repetitions record
 * spans and odd ones do not.
 */
template <class Rep>
void
repeat(double seconds, int min_reps, bool trace, Rep &&rep)
{
    const double start = now();
    double last = 0.0;
    for (int i = 0; i < min_reps || now() - start + last <= seconds; ++i) {
        const bool traced = trace && i % 2 == 0;
        const double t0 = now();
        g_tracer->setEnabled(traced);
        rep(i, traced);
        g_tracer->setEnabled(false);
        last = now() - t0;
    }
}

/** Medians of the traced and untraced repetition walls. */
double
traceOverhead(const std::vector<double> &walls)
{
    std::vector<double> traced, plain;
    for (size_t i = 0; i < walls.size(); ++i)
        (i % 2 == 0 ? traced : plain).push_back(walls[i]);
    return median(traced) - median(plain);
}

// --------------------------------------------------------------------
// Shared set-up: the mini offline dataset
// --------------------------------------------------------------------

struct MiniData
{
    data::Dataset dataset;
    data::Split split;
    data::LabeledSet train;
    data::LabeledSet test;
    double collect_s = 0.0;
    double build_set_s = 0.0;
};

/** The tune_workload collection recipe plus one held-out network. */
MiniData
collectMiniData(const Scale &scale, uint64_t seed)
{
    MiniData mini;
    data::CollectOptions collect;
    collect.networks = {"resnet-34", "vgg-16", "bert-small", kHeldOut};
    collect.platforms = {kPlatform};
    collect.programs_per_subgraph = scale.programs_per_subgraph;
    collect.seed = hashCombine(seed, 0xda7a);
    double t0 = now();
    {
        Scope span("data.collectDataset");
        mini.dataset = data::collectDataset(collect);
    }
    mini.collect_s = now() - t0;

    t0 = now();
    {
        Scope span("data.makeSplit");
        mini.split = data::makeSplit(mini.dataset, {kHeldOut});
    }
    std::vector<int> records = mini.split.train_records;
    records.insert(records.end(), mini.split.valid_records.begin(),
                   mini.split.valid_records.end());
    {
        Scope span("data.buildTlpSet");
        mini.train = data::buildTlpSet(mini.dataset, records, {0});
        mini.test =
            data::buildTlpSet(mini.dataset, mini.split.test_records, {0});
    }
    mini.build_set_s = now() - t0;
    return mini;
}

void
reportDataset(const MiniData &mini, const std::vector<double> &collect_s,
              const std::vector<double> &build_s, Metrics &layer)
{
    layer.set("dataset.collect_s", median(collect_s), "s");
    layer.set("dataset.records",
              static_cast<double>(mini.dataset.records.size()), "count");
    layer.set("dataset.build_set_s", median(build_s), "s");
    layer.set("dataset.rows", static_cast<double>(mini.train.rows),
              "count");
}

/**
 * A fixed sample of training steps through the public calls trainTlpNet
 * makes, each timed on its own: forward (forwardTask + rankLoss),
 * backward and the Adam update, per batch.
 */
void
sampleNnSteps(const Scale &scale, const data::LabeledSet &set,
              uint64_t seed, Metrics &layer)
{
    Rng rng(hashCombine(seed, 0x22));
    model::TlpNet net(model::TlpNetConfig{}, rng);
    nn::AdamOptions adam_options;
    adam_options.lr = model::TrainOptions{}.lr;
    nn::Adam adam(net.parameters(), adam_options);

    const int rows = std::min(set.rows, model::TrainOptions{}.batch_size);
    std::vector<float> features(set.row(0),
                                set.row(0) + static_cast<size_t>(rows) *
                                                 set.feature_dim);
    std::vector<float> targets(set.labels.begin(),
                               set.labels.begin() + rows);
    std::vector<int> groups(set.groups.begin(), set.groups.begin() + rows);
    const nn::Tensor x =
        nn::Tensor::fromData({rows, set.feature_dim}, std::move(features));

    std::vector<double> forward_ms, backward_ms, adam_ms;
    for (int step = 0; step < scale.nn_steps; ++step) {
        adam.zeroGrad();
        const double t0 = now();
        nn::Tensor loss;
        {
            Scope span("nn.forwardTask+rankLoss");
            loss = nn::rankLoss(net.forwardTask(x, 0), targets, groups);
        }
        const double t1 = now();
        {
            Scope span("nn.Tensor::backward");
            loss.backward();
        }
        const double t2 = now();
        {
            Scope span("nn.Adam::step");
            adam.step();
        }
        const double t3 = now();
        forward_ms.push_back(1e3 * (t1 - t0));
        backward_ms.push_back(1e3 * (t2 - t1));
        adam_ms.push_back(1e3 * (t3 - t2));
    }
    layer.set("nn.forward_ms", median(forward_ms), "ms");
    layer.set("nn.backward_ms", median(backward_ms), "ms");
    layer.set("nn.adam_ms", median(adam_ms), "ms");
}

/** Every per-layer metric, zero unless the workload exercises it. */
const std::vector<std::pair<std::string, std::string>> &
layerCatalogue()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"dataset.collect_s", "s"},
        {"dataset.records", "count"},
        {"dataset.build_set_s", "s"},
        {"dataset.rows", "count"},
        {"nn.forward_ms", "ms"},
        {"nn.backward_ms", "ms"},
        {"nn.adam_ms", "ms"},
        {"models.train_s", "s"},
        {"models.train_sys_s", "s"},
        {"models.train_minor_faults", "count"},
        {"models.train_samples_per_s", "1/s"},
        {"models.top5", "ratio"},
        {"models.score_s", "s"},
        {"models.score_calls", "count"},
        {"models.candidates_scored", "count"},
        {"models.score_us_per_candidate", "us"},
        {"models.cache_score_hits", "count"},
        {"models.cache_feature_hits", "count"},
        {"models.cache_misses", "count"},
        {"models.cache_evictions", "count"},
        {"models.cache_hit_ratio", "ratio"},
        {"models.update_s", "s"},
        {"models.oracle_mismatches", "count"},
        {"tuner.step_s", "s"},
        {"tuner.self_s", "s"},
        {"tuner.measurements", "count"},
        {"tuner.failed_measurements", "count"},
        {"tuner.rounds_per_s", "1/s"},
        {"tuner.round_ms_p50", "ms"},
        {"tuner.round_ms_p95", "ms"},
        {"tuner.round_samples", "count"},
        {"hwmodel.simulated_s", "s"},
        {"service.tick_s", "s"},
        {"service.rounds_run", "count"},
        {"service.idle_ticks", "count"},
        {"service.ckpt_write_failures", "count"},
        {"service.recover_s", "s"},
        {"artifact.files", "count"},
        {"artifact.ckpt_bytes", "bytes"},
        {"artifact.verify_s", "s"},
        {"bench.error_rate", "ratio"},
        {"bench.trace_overhead_s", "s"},
    };
    return names;
}

/** What one workload hands back to main. */
struct Outcome
{
    Metrics end_to_end;
    Metrics layer;
    uint64_t digest = 0;
    std::string digest_detail;
    std::vector<double> walls;   ///< per repetition, in run order
};

// --------------------------------------------------------------------
// pretrain
// --------------------------------------------------------------------

/** Held-out network latencies, each a sum of weight x subgraph latency. */
struct HeldOutLatency
{
    double optimal = 0.0;   ///< every subgraph runs its best program
    /** Every subgraph runs the best of the model's top-5 picks; ties in
     *  score at the fifth place resolved in the luckiest and unluckiest
     *  order (data::topKScores may take either). */
    double picked_lo = 0.0;
    double picked_hi = 0.0;
};

/**
 * The top-5 score's numerator and denominator, computed here
 * independently of data::topKScores so the two can be checked against
 * each other.
 */
HeldOutLatency
heldOutLatency(const MiniData &mini, const std::vector<double> &scores)
{
    std::map<int, std::vector<std::pair<double, float>>> by_group;
    for (size_t i = 0; i < mini.split.test_records.size(); ++i) {
        const auto &rec = mini.dataset.records[static_cast<size_t>(
            mini.split.test_records[i])];
        if (rec.hasLabel(0))
            by_group[static_cast<int>(rec.group)].push_back(
                {scores[i], rec.latency_ms[0]});
    }
    HeldOutLatency out;
    for (const auto &[group, weight] :
         mini.dataset.network_groups.at(kHeldOut)) {
        auto it = by_group.find(group);
        const float min_lat = mini.dataset.groups[static_cast<size_t>(group)]
                                  .min_latency_ms[0];
        if (it == by_group.end() || std::isnan(min_lat))
            continue;
        auto &scored = it->second;
        std::sort(scored.begin(), scored.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        const size_t k = std::min<size_t>(5, scored.size());
        const double fifth = scored[k - 1].first;
        double sure = std::numeric_limits<double>::infinity();
        std::vector<double> tied;
        for (const auto &[score, latency] : scored) {
            if (score > fifth)
                sure = std::min(sure, static_cast<double>(latency));
            else if (score == fifth)
                tied.push_back(latency);
        }
        // Slots left for the tied candidates after the sure ones.
        size_t slots = k;
        for (const auto &entry : scored)
            slots -= entry.first > fifth ? 1 : 0;
        std::sort(tied.begin(), tied.end());
        const double lucky = std::min(sure, tied.front());
        const double unlucky = std::min(sure, tied[tied.size() - slots]);
        out.optimal += static_cast<double>(min_lat) * weight;
        out.picked_lo += lucky * weight;
        out.picked_hi += unlucky * weight;
    }
    return out;
}

Outcome
runPretrain(const Scale &scale, uint64_t seed, double seconds, bool trace,
            Checks &checks, std::vector<double> &setup_s)
{
    Outcome out;
    MiniData mini;
    std::vector<double> collect_s, build_s;
    for (int i = 0; i < scale.setups; ++i) {
        const double t0 = now();
        mini = collectMiniData(scale, seed);
        setup_s.push_back(now() - t0);
        collect_s.push_back(mini.collect_s);
        build_s.push_back(mini.build_set_s);
    }
    checks.expect(mini.train.rows > 0 && mini.test.rows > 0,
                  "mini dataset has train and held-out rows");

    model::TrainOptions options;
    options.epochs = scale.pretrain_epochs;
    options.seed = hashCombine(seed, 0x7ea1);
    const double samples =
        static_cast<double>(mini.train.rows) * options.epochs;

    std::vector<double> walls, rates, train_s, sys_s, faults;
    double top5 = 0.0, best_latency = 0.0;
    uint64_t first_digest = 0;
    repeat(seconds, trace ? 2 : 1, trace, [&](int rep, bool) {
        Scope rep_span("bench.pretrain_rep");
        Rng rng(hashCombine(seed, 0x11));
        model::TlpNet net(model::TlpNetConfig{}, rng);
        const Usage before = usage();
        const double t0 = now();
        double loss = 0.0;
        {
            Scope span("models.trainTlpNet");
            loss = model::trainTlpNet(net, mini.train, options);
        }
        const double t1 = now();
        const Usage after = usage();
        std::vector<double> scores;
        data::TopKPair topk;
        {
            Scope span("models.predictTlpNet");
            scores = model::predictTlpNet(net, mini.test, 0);
        }
        {
            Scope span("data.topKScores");
            topk = data::topKScores(mini.dataset, {kHeldOut}, 0,
                                    mini.split.test_records, scores);
        }
        const double t2 = now();
        walls.push_back(t2 - t0);
        rates.push_back(samples / (t1 - t0));
        train_s.push_back(t1 - t0);
        sys_s.push_back(after.sys_s - before.sys_s);
        faults.push_back(after.minor_faults - before.minor_faults);

        const HeldOutLatency held_out = heldOutLatency(mini, scores);
        top5 = topk.top5;
        best_latency = held_out.optimal / top5;
        checks.expect(std::isfinite(loss), "training loss is finite");
        checks.expect(top5 > 0.0 && top5 <= 1.0 &&
                          best_latency >= held_out.picked_lo * (1 - 1e-9) &&
                          best_latency <= held_out.picked_hi * (1 + 1e-9),
                      "top-5 score matches the benchmark's own top-5 picks");
        uint64_t digest = digestDouble(0, loss);
        digest = digestBytes(digest, scores.data(),
                             scores.size() * sizeof(double));
        digest = digestDouble(digest, top5);
        if (rep == 0)
            first_digest = digest;
        checks.expect(digest == first_digest,
                      "repetition reproduces the first one bit for bit");
    });

    out.end_to_end.set("wall_s", median(walls), "s");
    out.end_to_end.set("work_per_s", median(rates), "1/s");
    out.end_to_end.set("best_latency_ms", best_latency, "ms");

    reportDataset(mini, collect_s, build_s, out.layer);
    out.layer.set("models.train_s", median(train_s), "s");
    out.layer.set("models.train_sys_s", median(sys_s), "s");
    out.layer.set("models.train_minor_faults", median(faults), "count");
    out.layer.set("models.train_samples_per_s", median(rates), "1/s");
    out.layer.set("models.top5", top5, "ratio");
    if (trace) {
        g_tracer->setEnabled(true);
        sampleNnSteps(scale, mini.train, seed, out.layer);
        g_tracer->setEnabled(false);
        out.layer.set("bench.trace_overhead_s", traceOverhead(walls), "s");
    }

    out.digest = first_digest;
    out.walls = walls;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "top5=%.17g best_latency_ms=%.17g train_rows=%d", top5,
                  best_latency, mini.train.rows);
    out.digest_detail = detail;
    std::printf("pretrain: %zu repetitions of %d epochs over %d rows\n",
                walls.size(), options.epochs, mini.train.rows);
    return out;
}

// --------------------------------------------------------------------
// search-tlp
// --------------------------------------------------------------------

/**
 * Forwarding CostModel decorator: times and counts every call into the
 * wrapped TlpCostModel, and keeps a seeded sample of (candidate, score)
 * pairs for the oracle check that runs after the timed repetition.
 */
class ProbedCostModel : public model::CostModel
{
  public:
    struct Sample
    {
        sched::State state;
        double score;
    };

    ProbedCostModel(model::TlpCostModel &inner, uint64_t seed,
                    int per_call, bool plant_mismatch)
        : inner_(inner), rng_(seed), per_call_(per_call),
          plant_(plant_mismatch)
    {
    }

    std::string name() const override { return inner_.name(); }

    std::vector<double>
    scoreStates(int task_id,
                const std::vector<sched::State> &states) override
    {
        const double t0 = now();
        std::vector<double> scores;
        {
            Scope span("models.scoreStates");
            scores = inner_.scoreStates(task_id, states);
        }
        account(now() - t0, states, scores);
        return scores;
    }

    std::vector<double>
    predictBatch(int task_id,
                 const std::vector<sched::State> &states) override
    {
        const double t0 = now();
        std::vector<double> scores;
        {
            Scope span("models.predictBatch");
            scores = inner_.predictBatch(task_id, states);
        }
        account(now() - t0, states, scores);
        return scores;
    }

    void
    update(int task_id, const std::vector<const sched::State *> &states,
           const std::vector<double> &latency_ms) override
    {
        const double t0 = now();
        {
            Scope span("models.update");
            inner_.update(task_id, states, latency_ms);
        }
        update_s += now() - t0;
    }

    bool needsLowering() const override { return inner_.needsLowering(); }

    void
    serializeState(BinaryWriter &writer) const override
    {
        inner_.serializeState(writer);
    }

    void
    deserializeState(BinaryReader &reader) override
    {
        inner_.deserializeState(reader);
    }

    double score_s = 0.0;
    double update_s = 0.0;
    int64_t calls = 0;
    int64_t candidates = 0;
    std::vector<Sample> samples;

  private:
    void
    account(double seconds, const std::vector<sched::State> &states,
            std::vector<double> &scores)
    {
        score_s += seconds;
        ++calls;
        candidates += static_cast<int64_t>(states.size());
        const auto n = static_cast<int64_t>(scores.size());
        for (int k = 0; k < per_call_ && n > 0; ++k) {
            const auto i = static_cast<size_t>(rng_.randint(n));
            if (plant_) {
                // A deliberately wrong score, to prove the check bites.
                uint64_t bits = 0;
                std::memcpy(&bits, &scores[i], sizeof(bits));
                bits ^= 1;
                std::memcpy(&scores[i], &bits, sizeof(bits));
                plant_ = false;
            }
            samples.push_back({states[i], scores[i]});
        }
    }

    model::TlpCostModel &inner_;
    Rng rng_;
    int per_call_;
    bool plant_;
};

/** Oracle: the interpreted TlpNet forward on extractTlpFeatures rows. */
int64_t
oracleMismatches(model::TlpNet &net,
                 const std::vector<ProbedCostModel::Sample> &samples)
{
    const feat::TlpFeatureOptions options;
    const int dim = options.seq_len * options.emb_size;
    const size_t chunk = 256;
    int64_t mismatches = 0;
    for (size_t begin = 0; begin < samples.size(); begin += chunk) {
        const size_t end = std::min(samples.size(), begin + chunk);
        std::vector<float> rows;
        rows.reserve((end - begin) * static_cast<size_t>(dim));
        for (size_t i = begin; i < end; ++i) {
            const auto row =
                feat::extractTlpFeatures(samples[i].state.steps(), options);
            rows.insert(rows.end(), row.begin(), row.end());
        }
        const nn::Tensor x = nn::Tensor::fromData(
            {static_cast<int>(end - begin), dim}, std::move(rows));
        const nn::Tensor pred = net.forwardTask(x, 0);
        for (size_t i = begin; i < end; ++i) {
            const double oracle =
                static_cast<double>(pred.value()[i - begin]);
            mismatches += sameBits(oracle, samples[i].score) ? 0 : 1;
        }
    }
    return mismatches;
}

Outcome
runSearch(const Scale &scale, uint64_t seed, double seconds, bool trace,
          bool plant_mismatch, Checks &checks, std::vector<double> &setup_s)
{
    Outcome out;
    MiniData mini;
    std::vector<double> collect_s, build_s, train_s, sys_s, faults;
    std::shared_ptr<model::TlpNet> net;
    ir::Workload workload;
    for (int i = 0; i < scale.setups; ++i) {
        const double t0 = now();
        mini = collectMiniData(scale, kModelSeed);
        Rng rng(hashCombine(kModelSeed, 0x12));
        net = std::make_shared<model::TlpNet>(model::TlpNetConfig{}, rng);
        model::TrainOptions options;
        options.epochs = scale.setup_train_epochs;
        options.seed = hashCombine(kModelSeed, 0x7ea2);
        const Usage before = usage();
        const double t1 = now();
        {
            Scope span("models.trainTlpNet");
            model::trainTlpNet(*net, mini.train, options);
        }
        train_s.push_back(now() - t1);
        const Usage after = usage();
        sys_s.push_back(after.sys_s - before.sys_s);
        faults.push_back(after.minor_faults - before.minor_faults);
        {
            Scope span("ir.partitionGraph");
            workload =
                ir::partitionGraph(ir::buildNetwork("resnet-50"));
        }
        if (scale.search_subgraphs > 0) {
            workload.subgraphs.resize(
                static_cast<size_t>(scale.search_subgraphs));
            workload.weights.resize(
                static_cast<size_t>(scale.search_subgraphs));
        }
        setup_s.push_back(now() - t0);
        collect_s.push_back(mini.collect_s);
        build_s.push_back(mini.build_set_s);
    }

    const auto platform = hw::HardwarePlatform::preset(kPlatform);
    tune::TuneOptions options;
    options.rounds = std::max(scale.search_rounds,
                              static_cast<int>(workload.subgraphs.size()));
    options.measures_per_round = 10;
    options.seed = hashCombine(seed, 0x702e);

    std::vector<double> walls, rates, round_ms, score_s, update_s, self_s,
        per_candidate;
    int64_t calls = 0, candidates = 0, mismatches = 0;
    model::FeatureCache::Stats cache;
    tune::TuneResult result;
    uint64_t first_digest = 0;
    repeat(seconds, minReps(scale, options.rounds, trace), trace,
           [&](int rep, bool) {
        Scope rep_span("bench.search_rep");
        model::TlpCostModel tlp_model(net);
        ProbedCostModel probe(tlp_model, hashCombine(seed, 0x0c),
                              scale.oracle_per_call,
                              plant_mismatch && rep == 0);
        tune::TuningSession session(workload, platform, probe, options);
        double steps = 0.0;
        bool more = true;
        while (more) {
            const double t0 = now();
            {
                Scope span("tune.TuningSession::step");
                more = session.step();
            }
            const double dt = now() - t0;
            steps += dt;
            round_ms.push_back(1e3 * dt);
        }
        {
            Scope span("tune.TuningSession::finish");
            result = session.finish();
        }
        walls.push_back(steps);
        rates.push_back(session.roundsDone() / steps);
        score_s.push_back(probe.score_s);
        update_s.push_back(probe.update_s);
        self_s.push_back(steps - probe.score_s - probe.update_s);
        per_candidate.push_back(1e6 * probe.score_s /
                                static_cast<double>(probe.candidates));
        calls = probe.calls;
        candidates = probe.candidates;
        cache = tlp_model.cacheStats();

        // Untimed checks: the oracle and the curve.
        g_tracer->setEnabled(false);
        const int64_t bad = oracleMismatches(*net, probe.samples);
        mismatches += bad;
        checks.attempted += static_cast<int64_t>(probe.samples.size());
        checks.failed += bad;
        if (bad > 0)
            std::printf("CHECK FAILED: %lld of %zu sampled scores differ "
                        "from the TlpNet::forwardTask oracle\n",
                        static_cast<long long>(bad), probe.samples.size());
        bool monotone = true;
        double last = std::numeric_limits<double>::infinity();
        uint64_t digest = 0;
        for (const auto &point : result.curve) {
            const double lat = point.workload_latency_ms;
            if (std::isfinite(lat)) {
                monotone &= lat <= last;
                last = lat;
            }
            digest = digestDouble(digest, lat);
            digest = digestDouble(digest, point.measure_seconds);
            digest = digestDouble(digest,
                                  static_cast<double>(point.measurements));
        }
        checks.expect(monotone && std::isfinite(last),
                      "search curve is finite and monotone non-increasing");
        if (rep == 0)
            first_digest = digest;
        checks.expect(digest == first_digest,
                      "repetition reproduces the first curve bit for bit");
    });

    out.end_to_end.set("wall_s", median(walls), "s");
    out.end_to_end.set("work_per_s", median(rates), "1/s");
    out.end_to_end.set("best_latency_ms", result.best_workload_latency_ms,
                       "ms");

    reportDataset(mini, collect_s, build_s, out.layer);
    out.layer.set("models.train_s", median(train_s), "s");
    out.layer.set("models.train_sys_s", median(sys_s), "s");
    out.layer.set("models.train_minor_faults", median(faults), "count");
    out.layer.set("models.score_s", median(score_s), "s");
    out.layer.set("models.score_calls", static_cast<double>(calls), "count");
    out.layer.set("models.candidates_scored",
                  static_cast<double>(candidates), "count");
    out.layer.set("models.score_us_per_candidate", median(per_candidate),
                  "us");
    out.layer.set("models.cache_score_hits",
                  static_cast<double>(cache.score_hits), "count");
    out.layer.set("models.cache_feature_hits",
                  static_cast<double>(cache.feature_hits), "count");
    out.layer.set("models.cache_misses", static_cast<double>(cache.misses),
                  "count");
    out.layer.set("models.cache_evictions",
                  static_cast<double>(cache.evictions), "count");
    const double lookups = static_cast<double>(
        cache.score_hits + cache.feature_hits + cache.misses +
        cache.bypasses);
    out.layer.set("models.cache_hit_ratio",
                  lookups > 0.0 ? static_cast<double>(cache.score_hits +
                                                      cache.feature_hits) /
                                      lookups
                                : 0.0,
                  "ratio");
    out.layer.set("models.update_s", median(update_s), "s");
    out.layer.set("models.oracle_mismatches",
                  static_cast<double>(mismatches), "count");
    out.layer.set("tuner.step_s", median(walls), "s");
    out.layer.set("tuner.self_s", median(self_s), "s");
    out.layer.set("tuner.measurements",
                  static_cast<double>(result.total_measurements), "count");
    out.layer.set("tuner.failed_measurements",
                  static_cast<double>(result.failed_measurements), "count");
    out.layer.set("tuner.rounds_per_s", median(rates), "1/s");
    out.layer.set("tuner.round_ms_p50", percentile(round_ms, 0.50), "ms");
    out.layer.set("tuner.round_ms_p95", percentile(round_ms, 0.95), "ms");
    out.layer.set("tuner.round_samples",
                  static_cast<double>(round_ms.size()), "count");
    out.layer.set("hwmodel.simulated_s", result.measure_seconds, "s");
    if (trace) {
        g_tracer->setEnabled(true);
        sampleNnSteps(scale, mini.train, seed, out.layer);
        g_tracer->setEnabled(false);
        out.layer.set("bench.trace_overhead_s", traceOverhead(walls), "s");
    }

    out.digest = first_digest;
    out.walls = walls;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "best_latency_ms=%.17g measurements=%lld",
                  result.best_workload_latency_ms,
                  static_cast<long long>(result.total_measurements));
    out.digest_detail = detail;
    std::printf("search-tlp: %zu repetitions of %d rounds over %zu tasks, "
                "%zu round samples (p95 has %zu beyond it)\n",
                walls.size(), options.rounds, workload.subgraphs.size(),
                round_ms.size(), round_ms.size() / 20);
    return out;
}

// --------------------------------------------------------------------
// fleet
// --------------------------------------------------------------------

std::vector<serve::SessionSpec>
buildFleet(const Scale &scale, uint64_t seed)
{
    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < scale.fleet_sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = "resnet-18";
        spec.platform = kPlatform;
        spec.model = serve::ModelKind::Ansor;
        spec.max_subgraphs = 2;
        spec.tune.rounds = scale.fleet_rounds;
        spec.tune.seed = hashCombine(seed, static_cast<uint64_t>(i));
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

serve::ServiceOptions
fleetOptions(const std::string &dir, int sessions)
{
    serve::ServiceOptions options;
    options.dir = dir;
    options.max_active = sessions;
    options.max_queued = sessions;
    options.checkpoint_every = 1;
    return options;
}

/** Tick @p service until idle or @p max_ticks (> 0); times each tick. */
int64_t
timedTicks(serve::TuningService &service, int64_t max_ticks,
           std::vector<double> &tick_ms, double &total_s)
{
    int64_t ticks = 0;
    bool more = true;
    while (more && (max_ticks <= 0 || ticks < max_ticks)) {
        const double t0 = now();
        {
            Scope span("serve.TuningService::tick");
            more = service.tick();
        }
        const double dt = now() - t0;
        total_s += dt;
        tick_ms.push_back(1e3 * dt);
        ++ticks;
    }
    return ticks;
}

Outcome
runFleet(const Scale &scale, uint64_t seed, double seconds, bool trace,
         const std::string &work_dir, Checks &checks,
         std::vector<double> &setup_s)
{
    Outcome out;
    const auto fleet = buildFleet(scale, seed);
    std::vector<double> walls, rates, tick_ms, verify_s,
        self_s;
    serve::ServiceStats stats;
    double latency_sum = 0.0, simulated = 0.0;
    int64_t measurements = 0, failed_measurements = 0, files = 0,
            ckpt_bytes = 0;
    uint64_t first_digest = 0;
    int64_t golden_ticks = 0;
    std::vector<std::string> golden_curves;
    // Service start-up is the fleet's set-up, so it repeats per job.
    const int min_reps = std::max(
        scale.setups,
        minReps(scale, scale.fleet_sessions * scale.fleet_rounds, trace));
    repeat(seconds, min_reps, trace, [&](int rep, bool) {
        Scope rep_span("bench.fleet_rep");
        const std::string base = work_dir + "/rep" + std::to_string(rep);
        const std::string golden_dir = base + "/golden";

        // Set-up: service start-up, i.e. construction plus recover()
        // over an empty directory (every session is instantiated).
        double t0 = now();
        serve::TuningService golden(
            fleetOptions(golden_dir, scale.fleet_sessions));
        {
            Scope span("serve.TuningService::recover");
            golden.recover(fleet);
        }
        setup_s.push_back(now() - t0);

        double wall = 0.0;
        golden_ticks = timedTicks(golden, 0, tick_ms, wall);
        stats = golden.stats();
        walls.push_back(wall);
        rates.push_back(static_cast<double>(stats.rounds_run) / wall);

        latency_sum = simulated = 0.0;
        measurements = failed_measurements = 0;
        double model_s = 0.0;
        uint64_t digest = 0;
        for (const auto &spec : fleet) {
            checks.expect(golden.status(spec.name) ==
                              serve::SessionStatus::Finished,
                          "golden session " + spec.name + " finished");
            const auto &result = golden.result(spec.name);
            latency_sum += result.best_workload_latency_ms;
            simulated += result.measure_seconds;
            measurements += result.total_measurements;
            failed_measurements += result.failed_measurements;
            model_s += result.model_seconds;
            const std::string curve = readFile(golden.curvePath(spec.name));
            digest = digestBytes(digest, curve.data(), curve.size());
            if (rep == 0)
                golden_curves.push_back(curve);
        }
        self_s.push_back(wall - model_s);
        if (rep == 0)
            first_digest = digest;
        checks.expect(digest == first_digest,
                      "repetition reproduces the first fleet's curves");

        // Every artifact the fleet left behind must verify.
        files = ckpt_bytes = 0;
        t0 = now();
        for (const auto &entry : fs::directory_iterator(golden_dir)) {
            const std::string path = entry.path().string();
            artifact::VerifyOutcome verdict;
            {
                Scope span("artifact.verifyArtifactFile");
                verdict = artifact::verifyArtifactFile(path);
            }
            checks.expect(verdict.status.ok(), "artifact verifies: " + path);
            ++files;
            if (entry.path().extension() == ".ckpt")
                ckpt_bytes += static_cast<int64_t>(entry.file_size());
        }
        verify_s.push_back(now() - t0);

        fs::remove_all(base);
    });

    // Once per run: the same fleet in a fresh directory stops at half the
    // golden ticks; a new service recovers it and finishes.
    g_tracer->setEnabled(trace);
    const std::string drill_dir = work_dir + "/drill";
    {
        serve::TuningService victim(
            fleetOptions(drill_dir, scale.fleet_sessions));
        victim.recover(fleet);
        double ignored = 0.0;
        timedTicks(victim, golden_ticks / 2, tick_ms, ignored);
    }
    serve::TuningService recovered(
        fleetOptions(drill_dir, scale.fleet_sessions));
    double t0 = now();
    serve::RecoveryReport report;
    {
        Scope span("serve.TuningService::recover");
        report = recovered.recover(fleet);
    }
    const double recover_s = now() - t0;
    double ignored = 0.0;
    timedTicks(recovered, 0, tick_ms, ignored);
    g_tracer->setEnabled(false);
    checks.expect(report.quarantined == 0 && report.recovered > 0,
                  "recover() resumed the stopped fleet");
    for (size_t i = 0; i < fleet.size(); ++i) {
        const std::string &name = fleet[i].name;
        checks.expect(recovered.status(name) ==
                          serve::SessionStatus::Finished,
                      "recovered session " + name + " finished");
        checks.expect(readFile(recovered.curvePath(name)) ==
                          golden_curves[i],
                      "recovered curve of " + name +
                          " equals the uninterrupted one");
    }
    fs::remove_all(drill_dir);

    out.end_to_end.set("wall_s", median(walls), "s");
    out.end_to_end.set("work_per_s", median(rates), "1/s");
    out.end_to_end.set("best_latency_ms", latency_sum, "ms");

    out.layer.set("tuner.step_s", median(walls), "s");
    out.layer.set("tuner.self_s", median(self_s), "s");
    out.layer.set("tuner.measurements", static_cast<double>(measurements),
                  "count");
    out.layer.set("tuner.failed_measurements",
                  static_cast<double>(failed_measurements), "count");
    out.layer.set("tuner.rounds_per_s", median(rates), "1/s");
    out.layer.set("tuner.round_ms_p50", percentile(tick_ms, 0.50), "ms");
    out.layer.set("tuner.round_ms_p95", percentile(tick_ms, 0.95), "ms");
    out.layer.set("tuner.round_samples",
                  static_cast<double>(tick_ms.size()), "count");
    out.layer.set("hwmodel.simulated_s", simulated, "s");
    out.layer.set("service.tick_s", median(walls), "s");
    out.layer.set("service.rounds_run", static_cast<double>(stats.rounds_run),
                  "count");
    out.layer.set("service.idle_ticks", static_cast<double>(stats.idle_ticks),
                  "count");
    out.layer.set("service.ckpt_write_failures",
                  static_cast<double>(stats.ckpt_write_failures), "count");
    out.layer.set("service.recover_s", recover_s, "s");
    out.layer.set("artifact.files", static_cast<double>(files), "count");
    out.layer.set("artifact.ckpt_bytes", static_cast<double>(ckpt_bytes),
                  "bytes");
    out.layer.set("artifact.verify_s", median(verify_s), "s");
    if (trace)
        out.layer.set("bench.trace_overhead_s", traceOverhead(walls), "s");

    out.digest = first_digest;
    out.walls = walls;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "best_latency_sum_ms=%.17g measurements=%lld",
                  latency_sum, static_cast<long long>(measurements));
    out.digest_detail = detail;
    std::printf("fleet: %zu repetitions of %d sessions x %d rounds, %zu "
                "tick samples (p95 has %zu beyond it)\n",
                walls.size(), scale.fleet_sessions, scale.fleet_rounds,
                tick_ms.size(), tick_ms.size() / 20);
    return out;
}

// --------------------------------------------------------------------
// Environment stamp and output
// --------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

void
printEnvironment(const std::string &workload, uint64_t seed, int threads,
                 const std::string &revision, const std::string &flags)
{
#ifdef __AVX512F__
    const bool avx512f = true;
#else
    const bool avx512f = false;
#endif
#ifdef __FP_FAST_FMA
    const bool fast_fma = true;
#else
    const bool fast_fma = false;
#endif
    std::printf("env: {\"workload\": \"%s\", \"seed\": %llu, "
                "\"cpu_model\": \"%s\", \"nproc\": %u, "
                "\"pool_threads\": %d, \"compiler\": \"%s\", "
                "\"__AVX512F__\": %s, \"__FP_FAST_FMA\": %s, "
                "\"lib_flags\": \"%s\", \"revision\": \"%s\"}\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                jsonEscape(cpuModel()).c_str(),
                std::thread::hardware_concurrency(), threads,
                jsonEscape(__VERSION__).c_str(),
                avx512f ? "true" : "false", fast_fma ? "true" : "false",
                jsonEscape(flags).c_str(), jsonEscape(revision).c_str());
}

void
printSelfTimes(const Tracer &tracer)
{
    std::printf("%-36s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, row] : tracer.selfTimes()) {
        std::printf("%-36s %8lld %12.3f %12.3f\n", name.c_str(),
                    static_cast<long long>(row.count), 1e3 * row.total_s,
                    1e3 * row.self_s);
    }
}

void
printResult(const Checks &checks, const Metrics &metrics)
{
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.items.size(); ++i) {
        const Metrics::Item &item = metrics.items[i];
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", item.value);
        json += (i ? ", \"" : "\"") + item.name + "\": {\"value\": " +
                number + ", \"unit\": \"" + item.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/** Removes the run's private work directory however main returns. */
struct WorkDir
{
    std::string path;
    ~WorkDir()
    {
        std::error_code ignored;
        fs::remove_all(path, ignored);
    }
};

} // namespace
} // namespace tlpbench

int
main(int argc, char **argv)
{
    using namespace tlpbench;
    ArgParser args("TLP benchmark: one workload, timed and checked");
    args.addString("workload", "", "pretrain | search-tlp | fleet");
    args.addInt("seed", 1, "input seed");
    args.addInt("seconds", 10, "how long the timed phase repeats");
    args.addInt("trace", 0, "1 = per-module metrics and spans");
    args.addBool("tiny", false, "self-check scale");
    args.addBool("plant-mismatch", false,
                 "corrupt one sampled score (search-tlp self-check)");
    args.addString("work-dir", ".bench_build/runs",
                   "parent of the per-run scratch directory");
    args.addString("trace-dir", ".bench_build/traces",
                   "where a traced run writes its spans");
    args.addString("revision", "unknown", "source revision stamp");
    args.addString("lib-flags", "unknown", "library compile flags stamp");
    args.parse(argc, argv);

    const std::string workload = args.getString("workload");
    if (workload != "pretrain" && workload != "search-tlp" &&
        workload != "fleet")
        TLP_FATAL("--workload must be pretrain, search-tlp or fleet");
    const auto seed = static_cast<uint64_t>(args.getInt("seed"));
    const auto seconds = static_cast<double>(args.getInt("seconds"));
    const int trace_flag = static_cast<int>(args.getInt("trace"));
    if (seconds < 0 || (trace_flag != 0 && trace_flag != 1))
        TLP_FATAL("--seconds must be >= 0 and --trace 0 or 1");
    const bool trace = trace_flag == 1;
    const Scale &scale = args.getBool("tiny") ? kTiny : kFull;

    // One pool thread: on a shared VM, a parallelFor waits for whichever
    // worker's vCPU a neighbour took, which made 4-thread job times swing
    // by up to 50% where one thread swings by about 10%.
    const int threads = 1;
    ThreadPool::setGlobalThreads(threads);
    printEnvironment(workload, seed, threads, args.getString("revision"),
                     args.getString("lib-flags"));

    WorkDir work{args.getString("work-dir") + "/run-" +
                 std::to_string(getpid())};
    fs::remove_all(work.path);
    fs::create_directories(work.path);

    Tracer tracer;
    g_tracer = &tracer;
    tracer.setEnabled(trace);   // set-up is traced; repeat() takes over
    Checks checks;
    std::vector<double> setup_s;
    Outcome out;
    if (workload == "pretrain") {
        out = runPretrain(scale, seed, seconds, trace, checks, setup_s);
    } else if (workload == "search-tlp") {
        out = runSearch(scale, seed, seconds, trace,
                        args.getBool("plant-mismatch"), checks, setup_s);
    } else {
        out = runFleet(scale, seed, seconds, trace, work.path, checks,
                       setup_s);
    }
    std::printf("digest %s seed=%llu: %016llx %s\n", workload.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(out.digest),
                out.digest_detail.c_str());
    std::printf("setups: %zu; repetition walls_s:", setup_s.size());
    for (double wall : out.walls)
        std::printf(" %.4f", wall);
    std::printf("\n");

    if (trace) {
        printSelfTimes(tracer);
        const std::string dir = args.getString("trace-dir");
        fs::create_directories(dir);
        const std::string path = dir + "/" + workload + "-seed" +
                                 std::to_string(seed) + ".jsonl";
        checks.expect(tracer.write(path), "spans written to " + path);
        std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                    path.c_str());
    }
    const double error_rate =
        static_cast<double>(checks.failed) /
        static_cast<double>(std::max<int64_t>(1, checks.attempted));
    std::printf("error_rate: %.6g (%lld of %lld checks failed)\n",
                error_rate, static_cast<long long>(checks.failed),
                static_cast<long long>(checks.attempted));

    Metrics result;
    if (trace) {
        out.layer.set("bench.error_rate", error_rate, "ratio");
        for (const auto &[name, unit] : layerCatalogue()) {
            double value = 0.0;
            for (const auto &item : out.layer.items) {
                if (item.name == name)
                    value = item.value;
            }
            result.set(name, value, unit);
        }
    } else {
        result.set("setup_s", median(setup_s), "s");
        for (const auto &item : out.end_to_end.items)
            result.set(item.name, item.value, item.unit);
        result.set("peak_rss_mb", peakRssMb(), "MB");
    }
    std::fflush(stdout);
    printResult(checks, result);
    return checks.failed == 0 ? 0 : 1;
}
