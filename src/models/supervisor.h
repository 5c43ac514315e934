/**
 * @file
 * Training-run supervisor: numeric-anomaly detection and rollback-retry
 * for every gradient-descent loop.
 *
 * TLP's value rests on one expensive offline pretraining run (paper
 * Sec. 6.1) and a long model-guided search; a single NaN gradient or
 * diverging loss aborts or silently poisons hours of work. The
 * supervisor wraps each optimizer step with health checks — NaN/Inf
 * loss, NaN/Inf or exploding gradient global norm, loss divergence
 * against an EWMA — and recovers by rolling the parameters and
 * optimizer state back to the last-good in-memory snapshot, backing the
 * learning rate off (seeded, deterministic), and retrying a bounded
 * number of times. The thresholds are fixed constants (DESIGN.md
 * Sec. 10). Every health event lands in a typed counter
 * (HealthCounters).
 *
 * A deterministic TrainFaultProfile (mirroring hw::FaultProfile)
 * injects NaN gradients and loss spikes keyed by (step, attempt, seed)
 * — never by wall clock — so every recovery path is testable and
 * benchable bit-for-bit.
 *
 * With supervision off (the default) or on but healthy, the checks are
 * read-only: the trained weights are bit-identical to an unsupervised
 * run (tests/test_supervisor.cc pins this down).
 */
#pragma once

#include <array>
#include <functional>
#include <string>

#include "nn/optim.h"
#include "support/rng.h"
#include "support/serialize.h"

namespace tlp::model {

/**
 * Typed health events recorded by the training & search supervisors.
 * HealthCounters serialize by position inside tuning checkpoints, so
 * positions never move; retired events keep theirs.
 */
enum class HealthEvent : uint8_t
{
    NanLoss = 0,        ///< loss came back NaN/Inf
    NanGrad,            ///< a gradient is NaN/Inf
    GradExplosion,      ///< gradient global norm above the hard limit
    LossDivergence,     ///< loss far above its EWMA trend
    Rollback,           ///< parameters restored from the last-good snapshot
    RetryExhausted,     ///< a batch was skipped after bounded retries
    AbortPolicy,        ///< AbortOnFault policy stopped the run
    WallClockBudget,    ///< retired (wall-clock watchdog); never counted
    StepBudget,         ///< retired (step-count watchdog); never counted
    NanScore,           ///< cost model produced NaN/Inf scores
    ConstantScore,      ///< cost model output collapsed to a constant
    LowRankCorrelation, ///< model-vs-measured rank correlation below floor
    Failover,           ///< search switched to the next fallback model
    CheckpointWritten,  ///< retired (training checkpoint); never counted
    NumEvents
};

/** Number of distinct health events. */
inline constexpr int kNumHealthEvents =
    static_cast<int>(HealthEvent::NumEvents);

/** Short event name, e.g. "nan_grad". */
std::string healthEventName(HealthEvent event);

/** Typed per-event counters; the unit all health telemetry flows into. */
struct HealthCounters
{
    std::array<int64_t, kNumHealthEvents> counts{};

    int64_t &operator[](HealthEvent event)
    {
        return counts[static_cast<size_t>(event)];
    }
    int64_t operator[](HealthEvent event) const
    {
        return counts[static_cast<size_t>(event)];
    }

    /** Sum of all counters. */
    int64_t total() const;

    /** "nan_grad=3 rollback=3" (only non-zero counters; "none" if all 0). */
    std::string toString() const;

    void serialize(BinaryWriter &writer) const;
    static HealthCounters deserialize(BinaryReader &reader);

    bool operator==(const HealthCounters &other) const
    {
        return counts == other.counts;
    }
};

/**
 * Deterministic training-fault injection (mirrors hw::FaultProfile).
 *
 * Each probability is the per-step-attempt chance of that fault. Draws
 * are pure functions of hash(step, attempt, seed) — never of wall clock
 * or call order — so faulty runs replay bit-identically and retries
 * (fresh attempt index) can succeed.
 */
struct TrainFaultProfile
{
    /** Chance a step attempt's gradients are scribbled with NaN. */
    double nan_grad_prob = 0.0;
    /** Chance a step attempt's observed loss is inflated 1e4x. */
    double loss_spike_prob = 0.0;
    /** Search side: cost-model scores collapse after this many online
     *  updates (0 = never). Consumed by FaultInjectedCostModel. */
    int collapse_after_updates = 0;
    /** Seed of the fault draws. */
    uint64_t seed = 0x7fa1;

    /** True when any fault has a non-zero probability/threshold. */
    bool enabled() const;

    /** Split @p total_rate evenly over nan-grad and loss-spike. */
    static TrainFaultProfile uniform(double total_rate,
                                     uint64_t seed = 0x7fa1);

    /** Mix the profile parameters into a config digest. */
    uint64_t digest() const;

    /** Deterministic Bernoulli draw for (step, attempt, stream). */
    bool draw(int64_t step, int attempt, uint64_t stream,
              double prob) const;
};

/** Whether the supervisor checks steps, and what it does on a fault. */
enum class RecoveryPolicy : uint8_t
{
    Off = 0,       ///< never consulted: each step runs the attempt and
                   ///< steps the optimizer, exactly as unsupervised
    RollbackRetry, ///< roll back, back off lr, retry (bounded)
    AbortOnFault,  ///< roll back and stop the run at the first fault
};

/** Supervisor parameters. */
struct SupervisorOptions
{
    RecoveryPolicy policy = RecoveryPolicy::Off;

    /** Fault injection (off by default; ignored when policy is Off). */
    TrainFaultProfile faults;

    /** Where health counters accumulate (optional, caller-owned). */
    HealthCounters *health_out = nullptr;
};

/** Outcome of one supervised optimizer step. */
enum class StepOutcome : uint8_t
{
    Ok = 0,     ///< step applied (possibly after retries)
    Skipped,    ///< retries exhausted; batch skipped, weights last-good
    Stop,       ///< abort policy: stop training now
};

/**
 * The per-step supervisor. One instance wraps one training run: it owns
 * the last-good snapshot of (parameters, optimizer state) and decides,
 * for every step attempt, whether to apply, retry, skip, or stop.
 *
 * Usage (trainSupervised is the one training loop that drives it):
 *   TrainSupervisor supervisor(params, adam, options);
 *   for each batch:
 *       switch (supervisor.step([&] { zeroGrad; forward; backward;
 *                                     return loss; })) ...
 */
class TrainSupervisor
{
  public:
    /**
     * @p params must be the exact tensor list @p adam was built from.
     * With RecoveryPolicy::Off every step() call simply runs the
     * attempt and adam.step() — zero behavioral change.
     */
    TrainSupervisor(std::vector<nn::Tensor> params, nn::Adam &adam,
                    SupervisorOptions options = {});

    /**
     * Run one supervised optimizer step. @p attempt must zero the
     * gradients, run forward + backward, and return the loss value; it
     * may be called up to 1 + 3 times (three bounded retries). On Ok the
     * optimizer stepped; on Skipped/Stop the parameters are the
     * last-good ones.
     */
    StepOutcome step(const std::function<double()> &attempt);

    /** Health counters accumulated so far. */
    const HealthCounters &health() const { return health_; }

    /** Steps applied (== optimizer steps) so far. */
    int64_t stepsDone() const { return steps_done_; }

    /** True once the abort policy fired. */
    bool stopped() const { return stopped_; }

  private:
    /** Copy parameter values + optimizer state into the snapshot. */
    void takeSnapshot();

    /** Restore parameters + optimizer state from the snapshot. */
    void rollback();

    /** True when any gradient is non-finite; also yields the norm. */
    bool gradsUnhealthy(double *norm_out) const;

    /** Mirror the counters into options_.health_out (when set). */
    void publishHealth();

    std::vector<nn::Tensor> params_;
    nn::Adam &adam_;
    SupervisorOptions options_;
    Rng backoff_rng_;
    HealthCounters health_;

    std::vector<std::vector<float>> snapshot_params_;
    std::string snapshot_optimizer_;

    double loss_ewma_ = 0.0;
    bool ewma_ready_ = false;
    int64_t steps_done_ = 0;        ///< applied optimizer steps
    int64_t step_serial_ = 0;       ///< attempted steps (fault-draw key)
    bool stopped_ = false;
};

/** A staged batch's forward + loss; returns the scalar loss tensor. */
using BatchLoss = std::function<nn::Tensor()>;

/** Runs one supervised optimizer step around a staged batch's loss. */
using BatchStep = std::function<void(const BatchLoss &loss)>;

/**
 * The one supervised training loop (TLP, MTL-TLP, the TenSet MLP and
 * GPT/BERT pretraining all train through it). It builds the Adam
 * optimizer over @p params, the TrainSupervisor and the step-recycled
 * tape, then runs up to @p epochs epochs until the supervisor stops.
 * Each epoch it calls @p plan_epoch, which draws the epoch's batch plan
 * from the trainer's own Rng and returns its batch count, then
 * @p run_batch for every batch in order. run_batch stages the batch and
 * hands its loss closure to the step it is given, or returns without
 * stepping to skip a batch with no label. The loss closure runs with
 * the tape restarted and the gradients zeroed, and may run again on a
 * rollback-retry. After each epoch the loop logs the mean loss of its
 * applied steps (when @p verbose_label is non-null), scales the
 * learning rate by @p lr_decay.
 * @return the last epoch's mean loss.
 */
double trainSupervised(const std::vector<nn::Tensor> &params,
                       const nn::AdamOptions &adam_options,
                       const SupervisorOptions &supervisor_options,
                       int epochs, double lr_decay,
                       const char *verbose_label,
                       const std::function<size_t(int epoch)> &plan_epoch,
                       const std::function<void(size_t batch,
                                                const BatchStep &step)>
                           &run_batch);

} // namespace tlp::model
