/**
 * @file
 * In-memory spans recorded around the benchmark's calls into the
 * library, and the per-name self-time table derived from them.
 *
 * Spans are recorded only while a Tracer is installed and enabled, so
 * untraced repetitions pay one branch per call site. Every span keeps
 * its name, start, end and the span that was open when it began; the
 * benchmark calls the library from one thread, so spans nest strictly
 * and a span's self time is its duration minus its children's.
 */
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace tlpbench {

/** Seconds on the steady clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Records spans while enabled; owned by main for the whole run. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;   ///< index of the enclosing span, -1 at the root
    };

    /** Per-name totals over the recorded spans. */
    struct Row
    {
        int64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    int
    begin(const char *name)
    {
        spans_.push_back({name, now(), 0.0, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int id)
    {
        spans_[static_cast<size_t>(id)].end = now();
        open_ = spans_[static_cast<size_t>(id)].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per span name: duration minus direct children's. */
    std::map<std::string, Row>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &span : spans_) {
            if (span.parent >= 0)
                child[static_cast<size_t>(span.parent)] +=
                    span.end - span.start;
        }
        std::map<std::string, Row> rows;
        for (size_t i = 0; i < spans_.size(); ++i) {
            Row &row = rows[spans_[i].name];
            const double duration = spans_[i].end - spans_[i].start;
            ++row.count;
            row.total_s += duration;
            row.self_s += duration - child[i];
        }
        return rows;
    }

    /** Write every span as one JSON object per line. */
    bool
    write(const std::string &path) const
    {
        FILE *out = std::fopen(path.c_str(), "w");
        if (!out)
            return false;
        const double origin = spans_.empty() ? 0.0 : spans_[0].start;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            std::fprintf(out,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_s\": "
                         "%.9f, \"end_s\": %.9f, \"parent\": %d}\n",
                         i, span.name, span.start - origin,
                         span.end - origin, span.parent);
        }
        return std::fclose(out) == 0;
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
    bool enabled_ = false;
};

/** The run's tracer (spans go nowhere while it is null or disabled). */
inline Tracer *g_tracer = nullptr;

/** RAII span around one call into the library. */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (g_tracer && g_tracer->enabled())
            id_ = g_tracer->begin(name);
    }
    ~Scope()
    {
        if (id_ >= 0)
            g_tracer->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_ = -1;
};

} // namespace tlpbench
