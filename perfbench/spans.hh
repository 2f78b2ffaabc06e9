#ifndef SPIKESIM_PERFBENCH_SPANS_HH
#define SPIKESIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <vector>

/**
 * @file
 * In-memory span recorder for the benchmark. Spans are recorded only
 * around the benchmark's own calls into each layer (one span per public
 * call), on the benchmark's main thread, so they nest strictly and never
 * overlap their siblings. Nothing is written until the run ends.
 */

namespace perfbench {

/** Seconds on the steady clock. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU seconds (all threads). */
inline double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One recorded call: layer name, optional detail, wall and process
 *  CPU intervals, and the index of the enclosing span (-1 at the
 *  root). */
struct SpanRecord
{
    std::string name;
    std::string detail;
    double start = 0.0;
    double end = 0.0;
    double cpu_start = 0.0;
    double cpu_end = 0.0;
    int parent = -1;
};

/** Per-layer totals over a set of spans. */
struct LayerTime
{
    double total = 0.0; ///< sum of span durations
    double self = 0.0;  ///< total minus time covered by child spans
    double cpu = 0.0;   ///< process CPU seconds inside the spans
    std::uint64_t calls = 0;
};

class Tracer
{
  public:
    /** Spans are only kept while enabled. */
    bool enabled = false;
    /** Shared by every span of one workload run. */
    std::uint64_t run_id = 0;

    int
    open(std::string name, std::string detail)
    {
        SpanRecord s;
        s.name = std::move(name);
        s.detail = std::move(detail);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = wallNow();
        s.cpu_start = cpuNow();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        SpanRecord& s = spans_[static_cast<std::size_t>(id)];
        s.end = wallNow();
        s.cpu_end = cpuNow();
        stack_.pop_back();
    }

    /** Number of spans recorded so far (a mark for layerTimes). */
    std::size_t size() const { return spans_.size(); }

    /**
     * Totals and self times by span name over spans [from, to).
     * Self time subtracts each child's full duration: children of one
     * span are sequential on one thread, so they never overlap.
     */
    std::map<std::string, LayerTime>
    layerTimes(std::size_t from, std::size_t to) const
    {
        std::map<std::string, LayerTime> out;
        for (std::size_t i = from; i < to; ++i) {
            const SpanRecord& s = spans_[i];
            LayerTime& t = out[s.name];
            t.total += s.end - s.start;
            t.self += s.end - s.start;
            t.cpu += s.cpu_end - s.cpu_start;
            ++t.calls;
            if (s.parent >= static_cast<int>(from))
                out[spans_[static_cast<std::size_t>(s.parent)].name]
                    .self -= s.end - s.start;
        }
        return out;
    }

    /** Summed duration of the spans in [from, to) named `name` with
     *  the given detail. */
    double
    detailTotal(std::size_t from, std::size_t to, const std::string& name,
                const std::string& detail) const
    {
        double total = 0.0;
        for (std::size_t i = from; i < to; ++i)
            if (spans_[i].name == name && spans_[i].detail == detail)
                total += spans_[i].end - spans_[i].start;
        return total;
    }

    /** Write every span as a Chrome trace "X" event (Perfetto-loadable);
     *  the run id and parent index ride along in args. */
    bool
    writeChromeTrace(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord& s = spans_[i];
            out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
                << "\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": "
                << static_cast<std::uint64_t>((s.start - t0) * 1e6)
                << ", \"dur\": "
                << static_cast<std::uint64_t>((s.end - s.start) * 1e6)
                << ", \"args\": {\"run\": " << run_id
                << ", \"id\": " << i << ", \"parent\": " << s.parent
                << ", \"detail\": \"" << s.detail << "\"}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    Span(Tracer& tracer, std::string name, std::string detail = "")
        : tracer_(tracer),
          id_(tracer.enabled
                  ? tracer.open(std::move(name), std::move(detail))
                  : -1)
    {
    }
    ~Span()
    {
        if (id_ >= 0)
            tracer_.close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

} // namespace perfbench

#endif // SPIKESIM_PERFBENCH_SPANS_HH
