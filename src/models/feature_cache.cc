#include "models/feature_cache.h"

#include "support/rng.h"

namespace tlp::model {

SeqKey
seqKeyOf(const sched::PrimitiveSeq &seq)
{
    // lo is exactly PrimitiveSeq::hash(); hi is an independent walk with
    // a different basis and per-token mixing, computed in the same pass.
    SeqKey key;
    key.lo = 1469598103934665603ull;
    key.hi = 0x9e3779b97f4a7c15ull;
    for (const sched::Primitive &prim : seq.prims) {
        const auto kind = static_cast<uint64_t>(prim.kind);
        key.lo = hashCombine(key.lo, kind);
        key.hi = hashCombine(key.hi, kind ^ 0x517cc1b727220a95ull);
        for (const sched::Param &param : prim.params) {
            if (std::holds_alternative<int64_t>(param)) {
                const auto v =
                    static_cast<uint64_t>(std::get<int64_t>(param));
                key.lo = hashCombine(key.lo, v);
                key.hi = hashCombine(key.hi, ~v);
            } else {
                const auto &name = std::get<std::string>(param);
                key.lo =
                    hashCombine(key.lo, fnv1a(name.data(), name.size()));
                key.hi = hashCombine(
                    key.hi, fnv1a(name.data(), name.size(),
                                  0xff51afd7ed558ccdull));
            }
        }
    }
    return key;
}

FeatureCache::FeatureCache(int64_t capacity) : capacity_(capacity)
{
    TLP_CHECK(capacity_ > 0, "score memo needs a positive capacity");
    // All storage up front: the steady state must never allocate.
    uint64_t table_size = 64;
    while (table_size < static_cast<uint64_t>(capacity_) * 2)
        table_size *= 2;
    mask_ = table_size - 1;
    // Every lookup/store/evict afterwards reuses this storage.
    // tlp-lint: allow(hot-alloc) -- one-time construction sizing.
    entries_.resize(static_cast<size_t>(capacity_));
    // tlp-lint: allow(hot-alloc) -- one-time construction sizing.
    table_.resize(static_cast<size_t>(table_size), 0);
}

int64_t
FeatureCache::probeFind(const SeqKey &key) const
{
    uint64_t idx = key.lo & mask_;
    while (true) {
        const int64_t cell = table_[static_cast<size_t>(idx)];
        if (cell == 0)
            return -1;
        if (cell > 0) {
            const Entry &entry =
                entries_[static_cast<size_t>(cell - 1)];
            if (entry.key == key)
                return cell - 1;
        }
        idx = (idx + 1) & mask_;
    }
}

void
FeatureCache::tableInsert(const SeqKey &key, int64_t slot)
{
    uint64_t idx = key.lo & mask_;
    while (true) {
        int64_t &cell = table_[static_cast<size_t>(idx)];
        if (cell == 0 || cell == -1) {
            if (cell == -1)
                --tombstones_;
            cell = slot + 1;
            return;
        }
        idx = (idx + 1) & mask_;
    }
}

void
FeatureCache::tableErase(const SeqKey &key)
{
    uint64_t idx = key.lo & mask_;
    while (true) {
        int64_t &cell = table_[static_cast<size_t>(idx)];
        TLP_CHECK(cell != 0, "erasing a key the cache never held");
        if (cell > 0 &&
            entries_[static_cast<size_t>(cell - 1)].key == key) {
            cell = -1;
            ++tombstones_;
            return;
        }
        idx = (idx + 1) & mask_;
    }
}

void
FeatureCache::rebuildTable()
{
    // In-place, allocation-free: clear and reinsert the live entries.
    std::fill(table_.begin(), table_.end(), int64_t{0});
    tombstones_ = 0;
    for (int64_t slot = 0; slot < size_; ++slot)
        tableInsert(entries_[static_cast<size_t>(slot)].key, slot);
}

bool
FeatureCache::lookup(const SeqKey &key, uint64_t epoch, double *score)
{
    const int64_t slot = probeFind(key);
    if (slot < 0 || entries_[static_cast<size_t>(slot)].epoch != epoch) {
        ++stats_.misses;
        return false;
    }
    ++stats_.score_hits;
    *score = entries_[static_cast<size_t>(slot)].score;
    return true;
}

void
FeatureCache::store(const SeqKey &key, uint64_t epoch, double score)
{
    int64_t slot = probeFind(key);
    if (slot < 0) {
        if (size_ < capacity_) {
            slot = size_++;
        } else {
            // Deterministic FIFO: slots were filled in insertion order
            // and next_evict_ cycles through them in that same order,
            // so the victim is always the oldest inserted entry.
            slot = next_evict_;
            next_evict_ = (next_evict_ + 1) % capacity_;
            tableErase(entries_[static_cast<size_t>(slot)].key);
            ++stats_.evictions;
        }
        entries_[static_cast<size_t>(slot)].key = key;
        tableInsert(key, slot);
        // Probe chains degrade as tombstones accumulate; rebuilding in
        // place (after the slot holds its new key, so the evicted key
        // is not re-indexed) keeps lookups O(1) without allocating.
        if (tombstones_ > static_cast<int64_t>(table_.size()) / 4)
            rebuildTable();
    }
    Entry &entry = entries_[static_cast<size_t>(slot)];
    entry.epoch = epoch;
    entry.score = score;
}

} // namespace tlp::model
