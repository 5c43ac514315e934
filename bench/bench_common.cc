#include "bench/bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ir/model_zoo.h"
#include "ir/partition.h"
#include "models/cost_model.h"
#include "schedule/lower.h"
#include "sketch/policy.h"
#include "support/io_env.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/str_util.h"

namespace tlp::bench {

namespace {

uint64_t
mixDouble(uint64_t hash, double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return hashCombine(hash, bits);
}

/**
 * Fingerprint of everything that determines a memoized dataset's
 * contents: the on-disk format version, the collection options, and a
 * behavioral probe of the sampling + lowering + measurement pipeline
 * (one fixed schedule labeled on every platform), so simulator or
 * sketch-rule changes invalidate stale memos instead of being silently
 * served stale labels.
 */
uint64_t
collectionFingerprint(const data::CollectOptions &options)
{
    uint64_t hash = data::Dataset::kFormatVersion;
    for (const auto &network : options.networks)
        hash = hashCombine(hash, fnv1a(network.data(), network.size()));
    for (const auto &platform : options.platforms)
        hash = hashCombine(hash, fnv1a(platform.data(), platform.size()));
    hash = hashCombine(hash, options.is_gpu ? 1 : 0);
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.programs_per_subgraph));
    hash = hashCombine(hash, options.seed);
    hash = mixDouble(hash, options.measure_noise);
    hash = hashCombine(hash, options.faults.digest());
    hash = hashCombine(hash,
                       static_cast<uint64_t>(options.measure_retries));

    const ir::Workload probe_workload =
        ir::partitionGraph(ir::buildNetwork("resnet-18"));
    const auto &subgraph = probe_workload.subgraphs.front();
    sketch::SchedulePolicy policy(subgraph, options.is_gpu);
    Rng rng(0xbead);
    const auto population = policy.sampleInitPopulation(1, rng);
    TLP_CHECK(!population.empty(), "empty probe population");
    const auto nest = sched::lower(population.front());
    for (const auto &platform : options.platforms) {
        hw::MeasureOptions measure_options;
        measure_options.noise_std = options.measure_noise;
        hw::Measurer measurer(hw::HardwarePlatform::preset(platform),
                              measure_options, options.seed);
        hash = mixDouble(hash, measurer.measureMs(nest));
    }

    // Scoring-path probe: a fixed tiny net scored over a fixed
    // population by the interpreted oracle and then by TlpCostModel
    // (fused forward + cache). Any behavioral drift in feature
    // extraction or either forward — including a fused/oracle
    // divergence, which must never happen — moves the fingerprint and
    // regenerates the memo instead of serving it stale.
    const auto score_states = policy.sampleInitPopulation(4, rng);
    TLP_CHECK(!score_states.empty(), "empty scoring probe population");
    model::TlpNetConfig probe_config;
    probe_config.hidden = 16;
    probe_config.heads = 4;
    probe_config.head_hidden = 8;
    probe_config.residual_blocks = 1;
    Rng probe_rng(0x70be);
    auto probe_net =
        std::make_shared<model::TlpNet>(probe_config, probe_rng);
    for (double score : oracleTlpScores(*probe_net, score_states))
        hash = mixDouble(hash, score);
    model::TlpCostModel cost_model(probe_net, {}, 0, 64);
    for (double score : cost_model.predictBatch(0, score_states))
        hash = mixDouble(hash, score);
    return hash;
}

} // namespace

std::vector<std::string>
benchTrainNetworks()
{
    return {"resnet-18", "resnet-34", "vgg-16", "squeezenet",
            "mlp-mixer", "bert-small", "gpt2-lite"};
}

std::vector<std::string>
benchTestNetworks()
{
    return {"resnet-50", "mobilenet-v2", "resnext-50", "bert-tiny",
            "bert-base"};
}

std::vector<std::string>
benchNetworks()
{
    auto networks = benchTrainNetworks();
    for (const auto &name : benchTestNetworks())
        networks.push_back(name);
    return networks;
}

data::Dataset
standardDataset(const std::vector<std::string> &platforms, bool is_gpu)
{
    // Cache on disk so consecutive benches share the collection cost.
    std::string key = is_gpu ? "gpu" : "cpu";
    for (const auto &platform : platforms)
        key += "_" + platform;
    const int64_t programs = scaledCount(72, 16);
    key += "_" + std::to_string(programs);
    const std::string path = "/tmp/tlp_bench_" + key + ".bin";

    data::CollectOptions options;
    options.networks = benchNetworks();
    options.platforms = platforms;
    options.is_gpu = is_gpu;
    options.programs_per_subgraph = static_cast<int>(programs);
    options.seed = 0xda7a;

    // The memo is stamped with a fingerprint of the format version, the
    // collection options and a behavioral probe; any mismatch (including
    // a corrupt, truncated, or version-skewed file) regenerates instead
    // of serving stale labels or crashing.
    const uint64_t fingerprint = collectionFingerprint(options);
    std::error_code exists_ec;
    if (std::filesystem::exists(path, exists_ec)) {
        Result<data::Dataset> memo = loadBenchMemo(path, fingerprint);
        if (memo.ok())
            return memo.take();
        inform("bench memo ", path, " unusable (",
               memo.status().toString(), "); regenerating");
    }

    // Regeneration is also the moment to reap temp files a crashed
    // bench stranded next to this memo (scoped to this artifact: /tmp
    // is shared, a directory-wide sweep could race live writers) —
    // with the same temp-name classifier tlp_fsck's audit uses.
    sweepStaleTempsFor(path);
    data::Dataset dataset = data::collectDataset(options);
    const Status status = writeBenchMemo(path, fingerprint, dataset);
    if (!status.ok()) {
        // The memo is only a cache: losing it costs re-collection time on
        // the next bench, never correctness.
        warn("bench memo not saved: ", status.toString());
    }
    return dataset;
}

void
writeBenchMemo(std::ostream &os, uint64_t fingerprint,
               const data::Dataset &dataset)
{
    BinaryWriter writer(os);
    writeHeader(writer, kMemoMagic, kMemoVersion);
    writer.writePod(fingerprint);
    dataset.save(os);
}

Status
writeBenchMemo(const std::string &path, uint64_t fingerprint,
               const data::Dataset &dataset)
{
    return atomicWriteFile(path, [&](std::ostream &os) {
        writeBenchMemo(os, fingerprint, dataset);
    });
}

Result<data::Dataset>
loadBenchMemo(std::istream &is, uint64_t fingerprint)
{
    uint64_t stamp = 0;
    const Status status = guardedParse([&] {
        BinaryReader reader(is);
        readHeader(reader, kMemoMagic, kMemoVersion, kMemoVersion);
        stamp = reader.readPod<uint64_t>();
    });
    if (!status.ok())
        return status;
    if (stamp != fingerprint) {
        return Status::error(ErrorCode::Invalid,
                             "memo fingerprint is stale (collection "
                             "options, format, or pipeline changed)");
    }
    return data::Dataset::tryLoad(is);
}

Result<data::Dataset>
loadBenchMemo(const std::string &path, uint64_t fingerprint)
{
    const Status injected = IoEnv::global().checkRead(path);
    if (!injected.ok())
        return injected;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        return Status::error(ErrorCode::IoError,
                             "cannot open for read: " + path);
    }
    return loadBenchMemo(is, fingerprint);
}

std::vector<int>
capTrainRecords(std::vector<int> records, int64_t base_cap, uint64_t seed)
{
    const int64_t cap = scaledCount(base_cap, 500);
    if (static_cast<int64_t>(records.size()) <= cap)
        return records;
    Rng rng(seed);
    rng.shuffle(records);
    // tlp-lint: allow(unbounded-alloc) -- cap derives from TLP_BENCH_SCALE, not from stream bytes; this only ever shrinks
    records.resize(static_cast<size_t>(cap));
    return records;
}

model::TrainOptions
benchTrainOptions()
{
    model::TrainOptions options;
    options.epochs = std::max<int>(3, static_cast<int>(5 * benchScale()));
    options.lr = 2e-3;
    return options;
}

TrainedTlp
trainAndEvalTlp(const data::Dataset &dataset, const data::Split &split,
                const std::vector<int> &platform_indices,
                model::TlpNetConfig config, model::TrainOptions options,
                const std::vector<int> *train_records)
{
    config.num_tasks = static_cast<int>(platform_indices.size());

    feat::TlpFeatureOptions feature_options;
    feature_options.seq_len = config.seq_len;
    feature_options.emb_size = config.emb_size;

    const std::vector<int> records =
        train_records ? *train_records
                      : capTrainRecords(split.train_records);
    auto train_set = data::buildTlpSet(dataset, records, platform_indices,
                                       feature_options);

    Rng rng(options.seed);
    TrainedTlp result;
    result.net = std::make_shared<model::TlpNet>(config, rng);
    trainTlpNet(*result.net, train_set, options);

    auto test_set = data::buildTlpSet(dataset, split.test_records,
                                      platform_indices, feature_options);
    const auto scores = predictTlpNet(*result.net, test_set, 0);
    result.topk = data::topKScores(dataset, benchTestNetworks(),
                                   platform_indices.at(0),
                                   split.test_records, scores);
    return result;
}

TrainedMlp
trainAndEvalMlp(const data::Dataset &dataset, const data::Split &split,
                int platform_index, model::TrainOptions options)
{
    const auto records = capTrainRecords(split.train_records);
    auto train_set = data::buildAnsorSet(dataset, records, platform_index);

    Rng rng(options.seed);
    TrainedMlp result;
    result.net = std::make_shared<model::TensetMlpNet>(model::MlpConfig{},
                                                       rng);
    trainMlp(*result.net, train_set, options);

    auto test_set =
        data::buildAnsorSet(dataset, split.test_records, platform_index);
    const auto scores = predictMlp(*result.net, test_set);
    result.topk =
        data::topKScores(dataset, benchTestNetworks(), platform_index,
                         split.test_records, scores);
    return result;
}

std::string
fmtScore(double value)
{
    return formatDouble(value, 4);
}

SearchModels
prepareSearchModels(const data::Dataset &dataset, const data::Split &split)
{
    SearchModels models;
    models.ansor = std::make_unique<model::AnsorOnlineCostModel>();

    auto options = benchTrainOptions();
    options.epochs = std::max(3, options.epochs - 2);

    auto mlp = trainAndEvalMlp(dataset, split, 0, options);
    models.mlp = std::make_unique<model::TensetMlpCostModel>(mlp.net);

    auto tlp = trainAndEvalTlp(dataset, split, {0},
                               model::TlpNetConfig{}, options);
    models.tlp = std::make_unique<model::TlpCostModel>(tlp.net);

    if (dataset.platforms.size() > 1) {
        // MTL-TLP: scarce target labels plus the donor platform.
        model::TlpNetConfig config;
        config.num_tasks = 2;
        feat::TlpFeatureOptions feature_options;
        auto records = capTrainRecords(split.train_records);
        auto train_set = data::buildTlpSet(dataset, records, {0, 1},
                                           feature_options);
        Rng mask_rng(0x3a5c);
        const int64_t scarce = scaledCount(800, 200);
        std::vector<int> order(static_cast<size_t>(train_set.rows));
        for (int r = 0; r < train_set.rows; ++r)
            order[static_cast<size_t>(r)] = r;
        mask_rng.shuffle(order);
        for (int64_t i = scarce; i < train_set.rows; ++i) {
            train_set.labels[static_cast<size_t>(
                                 order[static_cast<size_t>(i)]) *
                             2] = std::numeric_limits<float>::quiet_NaN();
        }
        Rng rng(options.seed);
        auto net = std::make_shared<model::TlpNet>(config, rng);
        trainTlpNet(*net, train_set, options);
        models.mtl = std::make_unique<model::TlpCostModel>(net);
    }
    return models;
}

tune::TuneOptions
benchTuneOptions(int num_tasks)
{
    tune::TuneOptions options;
    options.rounds = num_tasks * std::max(2, static_cast<int>(
                                                 2 * benchScale()));
    options.measures_per_round = 10;
    options.evolution.population = static_cast<int>(scaledCount(32, 16));
    options.evolution.iterations = 2;
    options.evolution.children_per_iter = 16;
    return options;
}

tune::TuneResult
tuneNetwork(const std::string &network, const std::string &platform,
            model::CostModel &cost_model)
{
    const ir::Workload workload =
        ir::partitionGraph(ir::buildNetwork(network));
    const auto hw = hw::HardwarePlatform::preset(platform);
    return tune::tuneWorkload(
        workload, hw, cost_model,
        benchTuneOptions(static_cast<int>(workload.subgraphs.size())));
}

std::vector<double>
oracleTlpScores(model::TlpNet &net, const std::vector<sched::State> &states,
                int task)
{
    feat::TlpFeatureOptions options;
    options.seq_len = net.config().seq_len;
    options.emb_size = net.config().emb_size;
    std::vector<float> rows;
    for (const sched::State &state : states) {
        const auto row = feat::extractTlpFeatures(state.steps(), options);
        rows.insert(rows.end(), row.begin(), row.end());
    }
    return model::interpretedTlpScores(
        net, rows.data(), static_cast<int64_t>(states.size()), task);
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::string
scratchPath(const std::string &name)
{
    /** The process's scratch root, removed when the process exits. */
    struct ScratchRoot
    {
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("tlp_bench_scratch_" + std::to_string(::getpid()));

        ScratchRoot() { std::filesystem::create_directories(path); }
        ~ScratchRoot()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    };
    static const ScratchRoot root;
    return (root.path / name).string();
}

std::vector<serve::SessionSpec>
buildFleet(int sessions, int rounds, uint64_t seed_base,
           const std::vector<serve::ModelKind> &kinds)
{
    std::vector<serve::SessionSpec> fleet;
    for (int i = 0; i < sessions; ++i) {
        serve::SessionSpec spec;
        char name[16];
        std::snprintf(name, sizeof(name), "s%03d", i);
        spec.name = name;
        spec.network = "resnet-18";
        spec.platform = i % 2 == 0 ? "i7-10510u" : "platinum-8272";
        spec.model = kinds[static_cast<size_t>(i) % kinds.size()];
        spec.max_subgraphs = 2;
        spec.tune.rounds = rounds;
        spec.tune.measures_per_round = 4;
        spec.tune.evolution.population = 24;
        spec.tune.evolution.iterations = 2;
        spec.tune.evolution.children_per_iter = 12;
        spec.tune.measure.seconds_per_measure = 0.25;
        spec.tune.seed = seed_base + static_cast<uint64_t>(i);
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

serve::ServiceOptions
serviceOptions(const std::string &dir, int fleet_size)
{
    serve::ServiceOptions options;
    options.dir = dir;
    options.max_active = fleet_size;
    options.max_queued = fleet_size;
    return options;
}

data::TopKPair
mtlTopK(const data::Dataset &dataset, const data::Split &split,
        int target_platform, const std::vector<int> &donor_platforms,
        int64_t target_rows, model::TrainOptions options)
{
    std::vector<int> platforms = {target_platform};
    for (int donor : donor_platforms)
        platforms.push_back(donor);

    model::TlpNetConfig config;
    config.num_tasks = static_cast<int>(platforms.size());

    feat::TlpFeatureOptions feature_options;
    auto records = capTrainRecords(split.train_records);
    auto train_set =
        data::buildTlpSet(dataset, records, platforms, feature_options);

    // Keep target labels only on the first target_rows records (the
    // scarce-data regime); donors keep all labels.
    Rng mask_rng(0x3a5c);
    std::vector<int> order(static_cast<size_t>(train_set.rows));
    for (int r = 0; r < train_set.rows; ++r)
        order[static_cast<size_t>(r)] = r;
    mask_rng.shuffle(order);
    const int64_t keep = std::min<int64_t>(target_rows, train_set.rows);
    for (int64_t i = keep; i < train_set.rows; ++i) {
        const int row = order[static_cast<size_t>(i)];
        train_set.labels[static_cast<size_t>(row) *
                         static_cast<size_t>(train_set.num_tasks)] =
            std::numeric_limits<float>::quiet_NaN();
    }

    Rng rng(options.seed);
    model::TlpNet net(config, rng);
    trainTlpNet(net, train_set, options);

    auto test_set = data::buildTlpSet(dataset, split.test_records,
                                      platforms, feature_options);
    const auto scores = predictTlpNet(net, test_set, 0);
    return data::topKScores(dataset, benchTestNetworks(), target_platform,
                            split.test_records, scores);
}

} // namespace tlp::bench
