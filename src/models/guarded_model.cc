#include "models/guarded_model.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "support/stats.h"

namespace tlp::model {

namespace {

// Health-probe thresholds (DESIGN.md Sec. 10).
/** Scores spanning less than this over >= kMinProbeCandidates
 *  candidates count as output collapse. */
constexpr double kConstantEps = 1e-9;
/** Collapse and rank correlation are only judged on populations at
 *  least this large. */
constexpr size_t kMinProbeCandidates = 8;
/** The rank-correlation probe runs on every Nth update(). */
constexpr int64_t kProbeEvery = 4;
/** Spearman(model scores, -latency) below this floor is sick. */
constexpr double kRankCorrFloor = -0.2;
/** Measured records the correlation probe keeps (most recent). */
constexpr size_t kProbeWindow = 64;

} // namespace

// --- GuardedCostModel ---------------------------------------------------

GuardedCostModel::GuardedCostModel(
    std::vector<std::shared_ptr<CostModel>> ladder,
    HealthCounters *health_out)
    : ladder_(std::move(ladder)), health_out_(health_out)
{
    TLP_CHECK(!ladder_.empty(), "guarded ladder must be non-empty");
    for (const auto &model : ladder_)
        TLP_CHECK(model != nullptr, "null rung in guarded ladder");
    if (health_out_ != nullptr)
        health_ = *health_out_;
}

std::string
GuardedCostModel::name() const
{
    std::string out = "guarded:";
    for (size_t i = 0; i < ladder_.size(); ++i) {
        if (i > 0)
            out += '>';
        out += ladder_[i]->name();
    }
    return out;
}

std::string
GuardedCostModel::activeName() const
{
    return ladder_[static_cast<size_t>(active_)]->name();
}

bool
GuardedCostModel::needsLowering() const
{
    return ladder_[static_cast<size_t>(active_)]->needsLowering();
}

bool
GuardedCostModel::scoresUnhealthy(const std::vector<double> &scores,
                                  HealthEvent *event) const
{
    for (double s : scores) {
        if (!std::isfinite(s)) {
            *event = HealthEvent::NanScore;
            return true;
        }
    }
    // Constant-output collapse is only judged on a meaningful population
    // and only once measured feedback exists — online models legitimately
    // return uniform scores before their first fit.
    if (updates_seen_ > 0 && scores.size() >= kMinProbeCandidates) {
        double lo = scores[0], hi = scores[0];
        for (double s : scores) {
            lo = std::min(lo, s);
            hi = std::max(hi, s);
        }
        if (hi - lo < kConstantEps) {
            *event = HealthEvent::ConstantScore;
            return true;
        }
    }
    return false;
}

void
GuardedCostModel::failover(HealthEvent cause)
{
    health_[cause]++;
    if (active_ + 1 >= static_cast<int>(ladder_.size()))
        return; // last rung: nothing left to fail over to
    ++active_;
    health_[HealthEvent::Failover]++;
    // Rung indices tell the rungs apart: a fault-injected rung reports
    // its wrapped model's name().
    warn("cost model rung ", active_ - 1, " '",
         ladder_[static_cast<size_t>(active_ - 1)]->name(),
         "' quarantined (", healthEventName(cause), "); search continues "
         "with rung ", active_, " '", activeName(), "'");
    publishHealth();
}

std::vector<double>
GuardedCostModel::predictBatch(int task_id,
                               const std::vector<sched::State> &states)
{
    while (true) {
        CostModel &model = *ladder_[static_cast<size_t>(active_)];
        std::vector<double> scores = model.predictBatch(task_id, states);
        HealthEvent event = HealthEvent::NumEvents;
        const bool last_rung =
            active_ + 1 >= static_cast<int>(ladder_.size());
        if (last_rung || !scoresUnhealthy(scores, &event)) {
            publishHealth();
            return scores;
        }
        failover(event); // advances active_; re-score with the next rung
    }
}

void
GuardedCostModel::update(int task_id,
                         const std::vector<const sched::State *> &states,
                         const std::vector<double> &latency_ms)
{
    // Every rung learns from every measurement, so a later failover
    // lands on a model that is already warm.
    for (auto &model : ladder_)
        model->update(task_id, states, latency_ms);
    ++updates_seen_;

    // Maintain the probe window of recent healthy measurements.
    for (size_t i = 0; i < states.size(); ++i) {
        if (!std::isfinite(latency_ms[i]) || latency_ms[i] <= 0.0)
            continue;
        probe_states_.push_back(*states[i]);
        probe_latencies_.push_back(latency_ms[i]);
    }
    if (probe_states_.size() > kProbeWindow) {
        const size_t drop = probe_states_.size() - kProbeWindow;
        probe_states_.erase(probe_states_.begin(),
                            probe_states_.begin() +
                                static_cast<long>(drop));
        probe_latencies_.erase(probe_latencies_.begin(),
                               probe_latencies_.begin() +
                                   static_cast<long>(drop));
    }

    // Rank-correlation probe: does the active model still order the
    // measured states the way the hardware did?
    const bool last_rung =
        active_ + 1 >= static_cast<int>(ladder_.size());
    if (last_rung || updates_seen_ % kProbeEvery != 0 ||
        probe_states_.size() < kMinProbeCandidates) {
        publishHealth();
        return;
    }
    CostModel &model = *ladder_[static_cast<size_t>(active_)];
    const auto scores = model.predictBatch(task_id, probe_states_);
    HealthEvent event = HealthEvent::NumEvents;
    if (scoresUnhealthy(scores, &event)) {
        failover(event);
        publishHealth();
        return;
    }
    // Higher score must mean lower latency: correlate against -latency.
    std::vector<double> neg_latency(probe_latencies_.size());
    for (size_t i = 0; i < probe_latencies_.size(); ++i)
        neg_latency[i] = -probe_latencies_[i];
    const double corr = spearman(scores, neg_latency);
    if (std::isfinite(corr) && corr < kRankCorrFloor)
        failover(HealthEvent::LowRankCorrelation);
    publishHealth();
}

void
GuardedCostModel::publishHealth()
{
    if (health_out_ != nullptr)
        *health_out_ = health_;
}

void
GuardedCostModel::serializeState(BinaryWriter &writer) const
{
    writer.writePod<int32_t>(active_);
    writer.writePod<int64_t>(updates_seen_);
    health_.serialize(writer);
    // Member states as length-prefixed blobs: a rung whose state is pure
    // replay writes an empty blob, and the frame stays self-delimiting.
    writer.writePod<uint32_t>(static_cast<uint32_t>(ladder_.size()));
    for (const auto &model : ladder_) {
        std::ostringstream buffer(std::ios::binary);
        BinaryWriter blob(buffer);
        model->serializeState(blob);
        writer.writeString(buffer.str());
    }
    // The probe window itself is not serialized: the session resume
    // replays the measured history through update(), which rebuilds it.
}

void
GuardedCostModel::deserializeState(BinaryReader &reader)
{
    const auto active = reader.readPod<int32_t>();
    if (active < 0 || active >= static_cast<int32_t>(ladder_.size())) {
        throw SerializeError(ErrorCode::Invalid,
                             "checkpointed fallback position " +
                                 std::to_string(active) +
                                 " outside this ladder");
    }
    const auto updates = reader.readPod<int64_t>();
    HealthCounters health = HealthCounters::deserialize(reader);
    const auto count = reader.readPod<uint32_t>();
    if (count != ladder_.size()) {
        throw SerializeError(ErrorCode::Invalid,
                             "checkpoint holds " + std::to_string(count) +
                                 " ladder rungs, this session has " +
                                 std::to_string(ladder_.size()));
    }
    std::vector<std::string> blobs;
    blobs.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        blobs.push_back(reader.readString());
    // All validated: commit.
    active_ = active;
    updates_seen_ = updates;
    health_ = health;
    for (uint32_t i = 0; i < count; ++i) {
        if (blobs[i].empty())
            continue;
        std::istringstream buffer(blobs[i], std::ios::binary);
        BinaryReader blob(buffer);
        ladder_[i]->deserializeState(blob);
    }
    publishHealth();
}

// --- FaultInjectedCostModel ---------------------------------------------

FaultInjectedCostModel::FaultInjectedCostModel(
    std::shared_ptr<CostModel> inner, int collapse_after_updates)
    : inner_(std::move(inner)),
      collapse_after_updates_(collapse_after_updates)
{
    TLP_CHECK(inner_ != nullptr, "null inner model");
}

bool
FaultInjectedCostModel::collapsed() const
{
    return collapse_after_updates_ > 0 &&
           updates_seen_ >= collapse_after_updates_;
}

std::vector<double>
FaultInjectedCostModel::maybeCollapse(std::vector<double> scores)
{
    if (!collapsed())
        return scores;
    // Alternate the two sickness modes by update parity so both the NaN
    // probe and the constant-collapse probe get exercised.
    const bool nan_mode = updates_seen_ % 2 == 0;
    for (auto &score : scores) {
        score = nan_mode ? std::numeric_limits<double>::quiet_NaN()
                         : 0.5;
    }
    return scores;
}

std::vector<double>
FaultInjectedCostModel::predictBatch(
    int task_id, const std::vector<sched::State> &states)
{
    return maybeCollapse(inner_->predictBatch(task_id, states));
}

void
FaultInjectedCostModel::update(
    int task_id, const std::vector<const sched::State *> &states,
    const std::vector<double> &latency_ms)
{
    inner_->update(task_id, states, latency_ms);
    ++updates_seen_;
}

void
FaultInjectedCostModel::serializeState(BinaryWriter &writer) const
{
    writer.writePod<int64_t>(updates_seen_);
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter blob(buffer);
    inner_->serializeState(blob);
    writer.writeString(buffer.str());
}

void
FaultInjectedCostModel::deserializeState(BinaryReader &reader)
{
    updates_seen_ = reader.readPod<int64_t>();
    const std::string bytes = reader.readString();
    if (!bytes.empty()) {
        std::istringstream buffer(bytes, std::ios::binary);
        BinaryReader blob(buffer);
        inner_->deserializeState(blob);
    }
}

std::shared_ptr<GuardedCostModel>
makeGuardedLadder(std::shared_ptr<CostModel> preferred,
                  HealthCounters *health_out)
{
    std::vector<std::shared_ptr<CostModel>> ladder;
    ladder.push_back(std::move(preferred));
    ladder.push_back(std::make_shared<AnsorOnlineCostModel>());
    ladder.push_back(std::make_shared<RandomCostModel>());
    return std::make_shared<GuardedCostModel>(std::move(ladder),
                                              health_out);
}

} // namespace tlp::model
