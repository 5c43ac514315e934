/**
 * @file
 * Shared machinery for the benchmark harness.
 *
 * Every bench regenerates one table or figure of the paper at a reduced,
 * laptop-friendly scale and prints `paper` vs `measured` rows. Scale is
 * controlled by the TLP_BENCH_SCALE environment variable (default 1.0;
 * larger values move toward paper scale).
 */
#pragma once

#include <string>
#include <vector>

#include "artifact/audit.h"
#include "dataset/collect.h"
#include "dataset/metrics.h"
#include "dataset/splits.h"
#include "models/cost_model.h"
#include "models/tlp_model.h"
#include "support/config.h"
#include "support/table.h"
#include "tuner/service/service.h"
#include "tuner/session.h"

namespace tlp::bench {

/** Networks used for dataset collection in the benches. */
std::vector<std::string> benchTrainNetworks();

/** The paper's five held-out evaluation networks. */
std::vector<std::string> benchTestNetworks();

/** All bench networks (train + test). */
std::vector<std::string> benchNetworks();

/**
 * Collect (and memoize on disk under /tmp) the standard bench dataset
 * for @p platforms. GPU datasets use the GPU sketch rules.
 */
data::Dataset standardDataset(const std::vector<std::string> &platforms,
                              bool is_gpu);

// --- bench memo format (exposed for the corruption tests/bench) ---

/** Bench memo file magic ("TLPM"); the audit module owns the value so
 *  tlp_fsck recognizes memos without linking bench code. */
inline constexpr uint32_t kMemoMagic = artifact::kBenchMemoMagic;

/** Memo format version (v2: recoverable load + atomic write). */
inline constexpr uint32_t kMemoVersion = artifact::kBenchMemoVersion;

/** Atomically write a fingerprint-stamped dataset memo to @p path. */
Status writeBenchMemo(const std::string &path, uint64_t fingerprint,
                      const data::Dataset &dataset);

/** Stream variant of writeBenchMemo. */
void writeBenchMemo(std::ostream &os, uint64_t fingerprint,
                    const data::Dataset &dataset);

/**
 * Load a bench memo. Ok only when the file is intact AND stamped with
 * @p fingerprint; anything else (corruption, truncation, version skew,
 * stale fingerprint) comes back as a Status so the caller regenerates.
 */
Result<data::Dataset> loadBenchMemo(const std::string &path,
                                    uint64_t fingerprint);
Result<data::Dataset> loadBenchMemo(std::istream &is,
                                    uint64_t fingerprint);

/** Cap a record-index list to the scaled default training size. */
std::vector<int> capTrainRecords(std::vector<int> records,
                                 int64_t base_cap = 5000,
                                 uint64_t seed = 0xcab);

/** Default TLP training options at bench scale. */
model::TrainOptions benchTrainOptions();

/**
 * Train a TLP net on @p platform_indices (multi-task when several) and
 * return top-1/top-5 on the test split for the first platform index.
 */
struct TrainedTlp
{
    std::shared_ptr<model::TlpNet> net;
    data::TopKPair topk;
};

TrainedTlp trainAndEvalTlp(const data::Dataset &dataset,
                           const data::Split &split,
                           const std::vector<int> &platform_indices,
                           model::TlpNetConfig config,
                           model::TrainOptions options,
                           const std::vector<int> *train_records = nullptr);

/** Train + evaluate the TenSet-MLP baseline on one platform. */
struct TrainedMlp
{
    std::shared_ptr<model::TensetMlpNet> net;
    data::TopKPair topk;
};

TrainedMlp trainAndEvalMlp(const data::Dataset &dataset,
                           const data::Split &split, int platform_index,
                           model::TrainOptions options);

/** Format a top-k pair as "0.9194". */
std::string fmtScore(double value);

/**
 * The MTL-TLP recipe of Sec. 6.2: task 1 is the target platform with
 * only @p target_rows labeled training records (the "500K" subset),
 * tasks 2..n are donor platforms with all labels. Returns target-platform
 * top-k. Pass an empty donor list for the single-task reference row.
 */
data::TopKPair mtlTopK(const data::Dataset &dataset,
                       const data::Split &split, int target_platform,
                       const std::vector<int> &donor_platforms,
                       int64_t target_rows,
                       model::TrainOptions options);

/** The four cost models compared in the search experiments (Sec. 6.3). */
struct SearchModels
{
    std::unique_ptr<model::CostModel> ansor;   ///< online GBDT
    std::unique_ptr<model::CostModel> mlp;     ///< pretrained TenSet MLP
    std::unique_ptr<model::CostModel> tlp;     ///< pretrained TLP
    std::unique_ptr<model::CostModel> mtl;     ///< MTL-TLP (scarce target)
};

/**
 * Prepare all four models for search on platform 0 of @p dataset (the
 * second platform, when present, is MTL-TLP's donor).
 */
SearchModels prepareSearchModels(const data::Dataset &dataset,
                                 const data::Split &split);

/** Bench-scale tuning options for a workload with @p num_tasks tasks. */
tune::TuneOptions benchTuneOptions(int num_tasks);

/** Tune @p network with @p cost_model and return the result. */
tune::TuneResult tuneNetwork(const std::string &network,
                             const std::string &platform,
                             model::CostModel &cost_model);

/**
 * The interpreted oracle (model::interpretedTlpScores) over the
 * extractTlpFeatures rows of @p states: the bits TlpCostModel must
 * reproduce.
 */
std::vector<double> oracleTlpScores(model::TlpNet &net,
                                    const std::vector<sched::State> &states,
                                    int task = 0);

// --- shared setup of the timing and robustness drills ---

/** Monotonic seconds, for wall-clock timings. */
double now();

/** Whole contents of @p path (empty when it cannot be read). */
std::string readFile(const std::string &path);

/**
 * Path of @p name in this process's scratch directory,
 * `<temp>/tlp_bench_scratch_<pid>/`, which is created on first use and
 * removed at exit: benches running in parallel never share a path.
 */
std::string scratchPath(const std::string &name);

/**
 * The drills' fleet: @p sessions resnet-18 sessions of @p rounds rounds
 * named s000, s001, ..., alternating the two CPU platforms, cycling
 * through @p kinds, seeded @p seed_base + index.
 */
std::vector<serve::SessionSpec>
buildFleet(int sessions, int rounds, uint64_t seed_base,
           const std::vector<serve::ModelKind> &kinds);

/** Service options that admit a whole @p fleet_size fleet at once. */
serve::ServiceOptions serviceOptions(const std::string &dir,
                                     int fleet_size);

} // namespace tlp::bench
