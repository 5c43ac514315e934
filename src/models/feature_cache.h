/**
 * @file
 * Primitive-sequence score memo for the scoring hot path
 * (DESIGN.md §13).
 *
 * Evolutionary search re-scores survivors every generation, so many
 * predictBatch candidates have been scored before under the same
 * weights. The memo keeps their scores, keyed by a 128-bit content hash
 * of the PrimitiveSeq (two independent fnv1a-style walks; a
 * primary-hash collision with a mismatched secondary is treated as a
 * miss, so a 64-bit collision cannot silently serve the wrong
 * candidate's score). Feature rows are not kept: TLP extracts them
 * straight from the sequence, so a miss re-extracts and forwards.
 *
 * Determinism contract: the memo is an accelerator, never an oracle —
 * scores are pure per-row functions of (sequence, params, task), so
 * memoized and fresh scores are bit-identical; eviction is
 * deterministic FIFO in insertion order. Every score carries the
 * owning parameter fingerprint ("epoch"): retraining or hot-swapping
 * the net turns every older score into a miss.
 *
 * Storage is fully preallocated at construction (entry array,
 * open-addressed index with tombstone-triggered in-place rebuild), so
 * steady-state lookup/store/evict performs zero heap allocations — the
 * TU is declared hot in tools/lint_manifest.txt.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "schedule/primitive.h"

namespace tlp::model {

/** 128-bit content key of a PrimitiveSeq. */
struct SeqKey
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool
    operator==(const SeqKey &other) const
    {
        return lo == other.lo && hi == other.hi;
    }
};

/** Both hash walks in one pass over @p seq. */
SeqKey seqKeyOf(const sched::PrimitiveSeq &seq);

/** Bounded FIFO memo of scores keyed by (SeqKey, epoch). A memo serves
 *  one model's one head, so the task is not part of the key. */
class FeatureCache
{
  public:
    /** Hit/miss accounting (monotonic; reset never).
     *  feature_hits and bypasses are always 0: no rows are kept, so
     *  nothing is reused or bypassed; they remain because tlpbench
     *  reports every field. */
    struct Stats
    {
        uint64_t score_hits = 0;    ///< memoized score reused
        uint64_t feature_hits = 0;  ///< always 0
        uint64_t misses = 0;        ///< absent or stale-epoch lookups
        uint64_t evictions = 0;     ///< FIFO evictions performed
        uint64_t bypasses = 0;      ///< always 0
    };

    /** At most @p capacity memoized scores. */
    explicit FeatureCache(int64_t capacity);

    /** Live entries (monotone up to capacity; eviction reuses slots). */
    int64_t size() const { return size_; }

    /**
     * The score of @p key memoized under @p epoch into @p score, if
     * present. Counts a score hit, or a miss (an entry under another
     * epoch is a miss too).
     */
    bool lookup(const SeqKey &key, uint64_t epoch, double *score);

    /**
     * Memoize @p score for @p key under @p epoch. A present key is
     * refreshed in place (keeping its FIFO position); otherwise the
     * oldest entry is evicted at capacity.
     */
    void store(const SeqKey &key, uint64_t epoch, double score);

    const Stats &stats() const { return stats_; }

  private:
    struct Entry
    {
        SeqKey key;
        uint64_t epoch = 0;   ///< params fingerprint of the score
        double score = 0.0;
    };

    /** Index table values: 0 = empty, -1 = tombstone, else slot + 1. */
    int64_t probeFind(const SeqKey &key) const;
    void tableInsert(const SeqKey &key, int64_t slot);
    void tableErase(const SeqKey &key);
    void rebuildTable();

    int64_t capacity_;
    int64_t size_ = 0;
    int64_t next_evict_ = 0;     ///< FIFO cursor once full
    int64_t tombstones_ = 0;
    std::vector<Entry> entries_;
    std::vector<int64_t> table_; ///< open-addressed, power-of-two sized
    uint64_t mask_ = 0;
    Stats stats_;
};

} // namespace tlp::model
