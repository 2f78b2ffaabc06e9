#include "obs/timeline.hh"

#include <fstream>

#include "obs/json.hh"
#include "support/panic.hh"

namespace spikesim::obs {

Timeline::Timeline(TimelineConfig config) : config_(std::move(config))
{
    SPIKESIM_ASSERT(config_.capacity >= 1,
                    "timeline capacity must be >= 1");
}

std::size_t
Timeline::addSeries(std::string name)
{
    Series s;
    s.name = std::move(name);
    // Retained windows predate this series; they read 0.
    s.ring.assign(config_.capacity, 0.0);
    series_.push_back(std::move(s));
    return series_.size() - 1;
}

std::size_t
Timeline::findSeries(std::string_view name) const
{
    for (std::size_t i = 0; i < series_.size(); ++i)
        if (series_[i].name == name)
            return i;
    return npos;
}

void
Timeline::appendWindow(std::span<const double> values)
{
    const std::size_t slot = total_windows_ % config_.capacity;
    for (std::size_t i = 0; i < series_.size(); ++i)
        series_[i].ring[slot] = i < values.size() ? values[i] : 0.0;
    ++total_windows_;
}

std::size_t
Timeline::firstWindow() const
{
    return total_windows_ > config_.capacity
               ? total_windows_ - config_.capacity
               : 0;
}

double
Timeline::value(std::size_t id, std::size_t w) const
{
    SPIKESIM_ASSERT(w >= firstWindow() && w < total_windows_,
                    "timeline window not retained");
    return series_[id].ring[w % config_.capacity];
}

std::string
Timeline::renderSection() const
{
    std::string out = "{\"name\":\"";
    out += jsonEscape(config_.name);
    out += "\",\"window_ticks\":" + jsonNumber(config_.window_ticks);
    out += ",\"us_per_tick\":" + jsonNumber(config_.us_per_tick);
    out += ",\"capacity\":" + std::to_string(config_.capacity);
    out += ",\"total_windows\":" + std::to_string(total_windows_);
    out += ",\"first_window\":" + std::to_string(firstWindow());
    out += ",\"series\":{";
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += jsonEscape(series_[i].name);
        out += "\":[";
        for (std::size_t w = firstWindow(); w < total_windows_; ++w) {
            if (w != firstWindow())
                out += ',';
            out += jsonNumber(value(i, w));
        }
        out += ']';
    }
    out += "}}";
    return out;
}

std::string
renderTimelineTrace(std::span<const Timeline> timelines)
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t t = 0; t < timelines.size(); ++t) {
        const Timeline& tl = timelines[t];
        const double window_us =
            tl.config().window_ticks * tl.config().us_per_tick;
        for (std::size_t w = tl.firstWindow(); w < tl.totalWindows();
             ++w) {
            const double ts = static_cast<double>(w) * window_us;
            for (std::size_t s = 0; s < tl.numSeries(); ++s) {
                if (!first)
                    out += ',';
                first = false;
                out += "{\"name\":\"";
                out += jsonEscape(tl.seriesName(s));
                out += "\",\"cat\":\"timeline\",\"ph\":\"C\",\"pid\":";
                out += std::to_string(t + 1);
                out += ",\"tid\":0,\"ts\":";
                out += jsonNumber(ts);
                out += ",\"args\":{\"value\":";
                out += jsonNumber(tl.value(s, w));
                out += "}}";
            }
        }
    }
    out += "],\"displayTimeUnit\":\"ms\"}";
    return out;
}

void
writeTimelineTrace(std::span<const Timeline> timelines,
                   const std::string& path)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        support::fatal("cannot open timeline output file: " + path);
    f << renderTimelineTrace(timelines) << '\n';
    f.close();
    if (!f)
        support::fatal("failed writing timeline output file: " + path);
}

} // namespace spikesim::obs
