#include "span_log.hh"

#include <fstream>
#include <stdexcept>

#include "common/frame.hh"

namespace mssr::perf
{

int
SpanLog::open(const std::string &name, const std::string &layer, long job)
{
    if (!enabled_)
        return -1;
    const int id = add(name, layer, at(Clock::now()), 0.0, current(), job);
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    // Spans nest, so @p id is normally innermost. When an exception
    // skipped an inner close, end the inner spans here too.
    const double t = at(Clock::now());
    while (!stack_.empty()) {
        const int top = stack_.back();
        stack_.pop_back();
        spans_[top].end = t;
        if (top == id)
            break;
    }
}

int
SpanLog::add(const std::string &name, const std::string &layer,
             double start, double end, int parent, long job)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, layer, start, end, parent, job});
    return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, LayerTotals>
SpanLog::layerTotals() const
{
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        LayerTotals &t = out[spans_[i].layer];
        const double dur = spans_[i].end - spans_[i].start;
        t.count++;
        t.totalS += dur;
        t.selfS += dur - childTime[i];
    }
    return out;
}

void
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write trace '" + path + "'");
    os.precision(3);
    os << std::fixed << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << jsonEscape(s.name)
           << "\", \"cat\": \"" << jsonEscape(s.layer)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.start * 1e6 << ", \"dur\": " << (s.end - s.start) * 1e6
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"job\": " << s.job << "}}";
    }
    os << "\n]}\n";
    if (!os.flush())
        throw std::runtime_error("cannot write trace '" + path + "'");
}

} // namespace mssr::perf
