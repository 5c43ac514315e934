#include "models/supervisor.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace tlp::model {

namespace {

// Recovery thresholds (DESIGN.md Sec. 10).
/** Retry attempts per step before the batch is skipped. */
constexpr int kMaxRetries = 3;
/** Learning-rate backoff factor applied on each rollback-retry. */
constexpr double kLrBackoff = 0.5;
/** Seed of the deterministic backoff jitter. */
constexpr uint64_t kBackoffSeed = 0x5afe;
/** Hard gradient global-norm limit (NaN/Inf is always unhealthy).
 *  Generous on purpose: OptimConfig::grad_clip handles the routine
 *  clipping; this catches true explosions. */
constexpr double kGradNormLimit = 1e6;
/** Loss EWMA smoothing factor. */
constexpr double kLossEwmaAlpha = 0.1;
/** A loss above kDivergenceFactor x EWMA + kDivergenceFloor is
 *  divergent; the floor keeps tiny early losses from tripping it. */
constexpr double kDivergenceFactor = 10.0;
constexpr double kDivergenceFloor = 1.0;

// Stream discriminators of the per-(step, attempt) fault draws, so the
// nan-grad and loss-spike Bernoullis are independent.
constexpr uint64_t kStreamNanGrad = 0x6772;   // "gr"
constexpr uint64_t kStreamLossSpike = 0x6c73; // "ls"

} // namespace

// --- HealthCounters -----------------------------------------------------

std::string
healthEventName(HealthEvent event)
{
    switch (event) {
      case HealthEvent::NanLoss:            return "nan_loss";
      case HealthEvent::NanGrad:            return "nan_grad";
      case HealthEvent::GradExplosion:      return "grad_explosion";
      case HealthEvent::LossDivergence:     return "loss_divergence";
      case HealthEvent::Rollback:           return "rollback";
      case HealthEvent::RetryExhausted:     return "retry_exhausted";
      case HealthEvent::AbortPolicy:        return "abort_policy";
      case HealthEvent::WallClockBudget:    return "wall_clock_budget";
      case HealthEvent::StepBudget:         return "step_budget";
      case HealthEvent::NanScore:           return "nan_score";
      case HealthEvent::ConstantScore:      return "constant_score";
      case HealthEvent::LowRankCorrelation: return "low_rank_correlation";
      case HealthEvent::Failover:           return "failover";
      case HealthEvent::CheckpointWritten:  return "checkpoint_written";
      case HealthEvent::NumEvents:          break;
    }
    return "unknown";
}

int64_t
HealthCounters::total() const
{
    int64_t sum = 0;
    for (int64_t count : counts)
        sum += count;
    return sum;
}

std::string
HealthCounters::toString() const
{
    std::string out;
    for (int e = 0; e < kNumHealthEvents; ++e) {
        if (counts[static_cast<size_t>(e)] == 0)
            continue;
        if (!out.empty())
            out += ' ';
        out += healthEventName(static_cast<HealthEvent>(e)) + "=" +
               std::to_string(counts[static_cast<size_t>(e)]);
    }
    return out.empty() ? "none" : out;
}

void
HealthCounters::serialize(BinaryWriter &writer) const
{
    writer.writePod<uint32_t>(static_cast<uint32_t>(kNumHealthEvents));
    for (int64_t count : counts)
        writer.writePod<int64_t>(count);
}

HealthCounters
HealthCounters::deserialize(BinaryReader &reader)
{
    const auto count = reader.readPod<uint32_t>();
    // Older artifacts may carry fewer counters (appended events); more
    // than we know of — or an absurd count — is corruption.
    if (count > 256) {
        throw SerializeError(ErrorCode::Corrupt,
                             "health counter count " +
                                 std::to_string(count) + " is implausible");
    }
    if (count > static_cast<uint32_t>(kNumHealthEvents)) {
        throw SerializeError(ErrorCode::VersionSkew,
                             "artifact holds " + std::to_string(count) +
                                 " health counters, this build knows " +
                                 std::to_string(kNumHealthEvents));
    }
    HealthCounters counters;
    for (uint32_t e = 0; e < count; ++e)
        counters.counts[e] = reader.readPod<int64_t>();
    return counters;
}

// --- TrainFaultProfile --------------------------------------------------

bool
TrainFaultProfile::enabled() const
{
    return nan_grad_prob > 0.0 || loss_spike_prob > 0.0 ||
           collapse_after_updates > 0;
}

TrainFaultProfile
TrainFaultProfile::uniform(double total_rate, uint64_t seed)
{
    TrainFaultProfile profile;
    profile.nan_grad_prob = total_rate / 2.0;
    profile.loss_spike_prob = total_rate / 2.0;
    profile.seed = seed;
    return profile;
}

uint64_t
TrainFaultProfile::digest() const
{
    uint64_t digest = fnv1a(&nan_grad_prob, sizeof(nan_grad_prob));
    digest = fnv1a(&loss_spike_prob, sizeof(loss_spike_prob), digest);
    digest = fnv1a(&collapse_after_updates, sizeof(collapse_after_updates),
                   digest);
    digest = fnv1a(&seed, sizeof(seed), digest);
    return digest;
}

bool
TrainFaultProfile::draw(int64_t step, int attempt, uint64_t stream,
                        double prob) const
{
    if (prob <= 0.0)
        return false;
    // Pure function of (step, attempt, stream, seed): retries see a
    // fresh draw and replays are bit-identical regardless of call order.
    uint64_t h = hashCombine(seed, static_cast<uint64_t>(step));
    h = hashCombine(h, static_cast<uint64_t>(attempt));
    h = hashCombine(h, stream);
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < prob;
}

// --- TrainSupervisor ----------------------------------------------------

TrainSupervisor::TrainSupervisor(std::vector<nn::Tensor> params,
                                 nn::Adam &adam, SupervisorOptions options)
    : params_(std::move(params)), adam_(adam),
      options_(std::move(options)), backoff_rng_(kBackoffSeed)
{
    if (options_.policy != RecoveryPolicy::Off)
        takeSnapshot();
    if (options_.health_out != nullptr)
        health_ = *options_.health_out;
}

void
TrainSupervisor::takeSnapshot()
{
    snapshot_params_.resize(params_.size());
    for (size_t p = 0; p < params_.size(); ++p)
        snapshot_params_[p] = params_[p].value();
    std::ostringstream buffer(std::ios::binary);
    BinaryWriter writer(buffer);
    adam_.serializeState(writer);
    snapshot_optimizer_ = buffer.str();
}

void
TrainSupervisor::rollback()
{
    for (size_t p = 0; p < params_.size(); ++p)
        params_[p].value() = snapshot_params_[p];
    std::istringstream buffer(snapshot_optimizer_, std::ios::binary);
    BinaryReader reader(buffer);
    adam_.deserializeState(reader);
    health_[HealthEvent::Rollback]++;
}

bool
TrainSupervisor::gradsUnhealthy(double *norm_out) const
{
    double norm_sq = 0.0;
    bool non_finite = false;
    for (const nn::Tensor &param : params_) {
        // grad() is non-const on Tensor; the node is shared, values are
        // only read here.
        for (float g : const_cast<nn::Tensor &>(param).grad()) {
            if (!std::isfinite(g))
                non_finite = true;
            norm_sq += static_cast<double>(g) * g;
        }
    }
    *norm_out = std::sqrt(norm_sq);
    return non_finite;
}

StepOutcome
TrainSupervisor::step(const std::function<double()> &attempt)
{
    if (options_.policy == RecoveryPolicy::Off) {
        attempt();
        adam_.step();
        ++steps_done_;
        return StepOutcome::Ok;
    }
    if (stopped_)
        return StepOutcome::Stop;

    const int64_t step_id = step_serial_++;
    const double schedule_lr = adam_.lr();
    for (int att = 0; att <= kMaxRetries; ++att) {
        double loss = attempt();

        // Deterministic fault injection (off unless a profile is set).
        if (options_.faults.draw(step_id, att, kStreamLossSpike,
                                 options_.faults.loss_spike_prob)) {
            loss *= 1e4;
        }
        if (options_.faults.draw(step_id, att, kStreamNanGrad,
                                 options_.faults.nan_grad_prob) &&
            !params_.empty() && params_[0].numel() > 0) {
            params_[0].grad()[0] =
                std::numeric_limits<float>::quiet_NaN();
        }

        // Health checks, cheapest first.
        HealthEvent problem = HealthEvent::NumEvents;
        double grad_norm = 0.0;
        if (!std::isfinite(loss)) {
            problem = HealthEvent::NanLoss;
        } else if (ewma_ready_ &&
                   loss > kDivergenceFactor * loss_ewma_ +
                              kDivergenceFloor) {
            problem = HealthEvent::LossDivergence;
        } else if (gradsUnhealthy(&grad_norm)) {
            problem = HealthEvent::NanGrad;
        } else if (!std::isfinite(grad_norm) ||
                   grad_norm > kGradNormLimit) {
            problem = HealthEvent::GradExplosion;
        }

        if (problem == HealthEvent::NumEvents) {
            adam_.step();
            adam_.setLr(schedule_lr); // backoff is per-step, not sticky
            loss_ewma_ = ewma_ready_
                             ? (1.0 - kLossEwmaAlpha) * loss_ewma_ +
                                   kLossEwmaAlpha * loss
                             : loss;
            ewma_ready_ = true;
            ++steps_done_;
            takeSnapshot();
            publishHealth();
            return StepOutcome::Ok;
        }

        health_[problem]++;
        rollback(); // restores params, moments, step count, and lr

        if (options_.policy == RecoveryPolicy::AbortOnFault) {
            health_[HealthEvent::AbortPolicy]++;
            adam_.setLr(schedule_lr);
            stopped_ = true;
            publishHealth();
            return StepOutcome::Stop;
        }
        if (att == kMaxRetries) {
            health_[HealthEvent::RetryExhausted]++;
            adam_.setLr(schedule_lr);
            publishHealth();
            return StepOutcome::Skipped;
        }
        // Seeded learning-rate backoff with mild jitter so retries of a
        // genuinely borderline step explore slightly different updates.
        const double jitter = backoff_rng_.uniform(0.9, 1.0);
        adam_.setLr(schedule_lr * std::pow(kLrBackoff, att + 1) * jitter);
    }
    // tlp-lint: allow(loader-fatal) -- internal invariant in training logic, unreachable from artifact bytes; counter parsing throws SerializeError
    TLP_PANIC("unreachable: supervisor retry loop fell through");
}

void
TrainSupervisor::publishHealth()
{
    if (options_.health_out != nullptr)
        *options_.health_out = health_;
}

// --- the supervised training loop ---------------------------------------

double
trainSupervised(const std::vector<nn::Tensor> &params,
                const nn::AdamOptions &adam_options,
                const SupervisorOptions &supervisor_options, int epochs,
                double lr_decay, const char *verbose_label,
                const std::function<size_t(int epoch)> &plan_epoch,
                const std::function<void(size_t batch,
                                         const BatchStep &step)> &run_batch)
{
    nn::Adam adam(params, adam_options);
    TrainSupervisor supervisor(params, adam, supervisor_options);
    // Every step attempt reuses the previous step's tape buffers.
    nn::TapePool tape;

    // Both closures are built once per run, so a step costs no heap
    // traffic beyond the trainer's own loss closure.
    const BatchLoss *batch_loss = nullptr;
    double attempt_loss = 0.0;
    const std::function<double()> attempt = [&] {
        tape.restart();
        adam.zeroGrad();
        nn::Tensor loss = (*batch_loss)();
        loss.backward();
        attempt_loss = loss.value()[0];
        return attempt_loss;
    };
    StepOutcome outcome = StepOutcome::Ok;
    double total = 0.0;
    int64_t count = 0;
    const BatchStep step = [&](const BatchLoss &loss) {
        batch_loss = &loss;
        outcome = supervisor.step(attempt);
        if (outcome == StepOutcome::Ok) {
            total += attempt_loss;
            ++count;
        }
    };

    double epoch_loss = 0.0;
    for (int epoch = 0; epoch < epochs && !supervisor.stopped(); ++epoch) {
        const size_t batches = plan_epoch(epoch);
        total = 0.0;
        count = 0;
        outcome = StepOutcome::Ok;
        for (size_t b = 0; b < batches && outcome != StepOutcome::Stop; ++b)
            run_batch(b, step);
        epoch_loss = count > 0 ? total / static_cast<double>(count) : 0.0;
        if (verbose_label != nullptr) {
            inform(verbose_label, " epoch ", epoch, " loss ", epoch_loss,
                   " lr ", adam.lr());
        }
        adam.setLr(adam.lr() * lr_decay);
    }
    return epoch_loss;
}

} // namespace tlp::model
