#ifndef SPIKESIM_OBS_TIMELINE_HH
#define SPIKESIM_OBS_TIMELINE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/**
 * @file
 * Flight-recorder timelines: fixed-interval windowed samples of named
 * series (throughput, queue depth, window quantiles, ...) held in
 * preallocated ring buffers. The serving simulation drives windows on
 * its virtual clock (one window per `window_cycles`). The result
 * renders two ways: a compact `timeline` section in the run manifest,
 * and a Chrome trace-event document of counter ("C") events
 * (`--timeline-out`) that Perfetto plots as per-window counter tracks.
 *
 * The counter trace is a separate document from the span trace on
 * purpose: spans are stamped in wall nanoseconds since the trace epoch
 * while serving windows live on the simulated cycle clock, and merging
 * the two time axes into one file would make both unreadable.
 */

namespace spikesim::obs {

struct TimelineConfig
{
    /** Display name (one Perfetto "process" per timeline). */
    std::string name;
    /** Ticks (e.g. simulated cycles, or seconds) per window. */
    double window_ticks = 1.0;
    /** Microseconds one tick maps to in the counter trace. */
    double us_per_tick = 1.0;
    /** Ring capacity in windows; older windows are evicted. */
    std::size_t capacity = 512;
};

/**
 * One timeline: N named series sampled once per window into rings of
 * `capacity` windows. Windows are appended in order; when the ring is
 * full the oldest window falls off (evicted() counts them). Copyable —
 * ObsRun snapshots timelines by value at registration.
 */
class Timeline
{
  public:
    explicit Timeline(TimelineConfig config);

    const TimelineConfig& config() const { return config_; }

    /**
     * Register a series and return its id. Allowed after windows were
     * appended: retained windows read 0 for the new series.
     */
    std::size_t addSeries(std::string name);

    /** Series id by name, or npos. */
    static constexpr std::size_t npos = std::size_t(-1);
    std::size_t findSeries(std::string_view name) const;

    std::size_t numSeries() const { return series_.size(); }
    const std::string&
    seriesName(std::size_t id) const
    {
        return series_[id].name;
    }

    /**
     * Append one window: `values[i]` is series i's sample (missing
     * trailing series read 0). Evicts the oldest window when full.
     */
    void appendWindow(std::span<const double> values);

    /** Windows ever appended (retained + evicted). */
    std::size_t totalWindows() const { return total_windows_; }
    /** Index of the oldest retained window. */
    std::size_t firstWindow() const;
    std::size_t
    evictedWindows() const
    {
        return firstWindow();
    }

    /** Value of series `id` at absolute window `w` (must be
     *  retained). */
    double value(std::size_t id, std::size_t w) const;

    /**
     * Render the manifest section: {"name", "window_ticks",
     * "us_per_tick", "capacity", "total_windows", "first_window",
     * "series": {name: [...retained values...]}}.
     */
    std::string renderSection() const;

  private:
    struct Series {
        std::string name;
        std::vector<double> ring; ///< slot = window % capacity
    };

    TimelineConfig config_;
    std::vector<Series> series_;
    std::size_t total_windows_ = 0;
};

/**
 * Render timelines as one Chrome trace-event document of counter ("C")
 * events: per retained window, one event per series with ts = window
 * start in microseconds and args {"value": sample}. Each timeline gets
 * its own pid so Perfetto groups its counter tracks together.
 */
std::string renderTimelineTrace(std::span<const Timeline> timelines);

/** renderTimelineTrace() + write to a file; fatal() on I/O failure. */
void writeTimelineTrace(std::span<const Timeline> timelines,
                        const std::string& path);

} // namespace spikesim::obs

#endif // SPIKESIM_OBS_TIMELINE_HH
