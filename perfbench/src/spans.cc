#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Innermost open span on this thread (0 = none). */
thread_local std::uint32_t tCurrent = 0;

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

SpanLog::SpanLog() : originNs_(steadyNs()) {}

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

std::int64_t
SpanLog::nowNs() const
{
    return steadyNs() - originNs_;
}

void
SpanLog::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::vector<SpanRecord> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << static_cast<double>(s.startNs) / 1e3
            << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *name, std::uint64_t request, std::uint32_t parent)
{
    if (SpanLog::global().enabled()) {
        rec_.name = name;
        open(request, parent);
    }
}

Span::Span(const std::string &name, std::uint64_t request,
           std::uint32_t parent)
{
    if (SpanLog::global().enabled()) {
        rec_.name = name;
        open(request, parent);
    }
}

void
Span::open(std::uint64_t request, std::uint32_t parent)
{
    SpanLog &log = SpanLog::global();
    on_ = true;
    rec_.id = log.nextId();
    rec_.parent = parent == kInherit ? tCurrent : parent;
    rec_.request = request;
    saved_ = tCurrent;
    tCurrent = rec_.id;
    rec_.startNs = log.nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    SpanLog &log = SpanLog::global();
    rec_.endNs = log.nowNs();
    tCurrent = saved_;
    log.record(std::move(rec_));
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::map<std::string, double>
selfSeconds(const std::vector<SpanRecord> &spans, bool byLayer,
            const std::string &rootPrefix)
{
    std::unordered_map<std::uint32_t, std::size_t> byId;
    for (std::size_t i = 0; i < spans.size(); ++i)
        byId[spans[i].id] = i;

    // Root of each span, found by walking parents (memoized).
    std::vector<std::int64_t> root(spans.size(), -1);
    auto rootOf = [&](std::size_t i) {
        std::vector<std::size_t> path;
        std::size_t cur = i;
        while (root[cur] < 0) {
            path.push_back(cur);
            auto it = byId.find(spans[cur].parent);
            if (spans[cur].parent == 0 || it == byId.end()) {
                root[cur] = static_cast<std::int64_t>(cur);
                break;
            }
            cur = it->second;
        }
        for (std::size_t p : path)
            root[p] = root[cur];
        return static_cast<std::size_t>(root[i]);
    };

    std::unordered_map<std::uint32_t, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            children[spans[i].parent].push_back(i);

    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (spans[rootOf(i)].name.rfind(rootPrefix, 0) != 0)
            continue;
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (std::size_t c : it->second)
                iv.emplace_back(std::max(spans[c].startNs, s.startNs),
                                std::min(spans[c].endNs, s.endNs));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        const double self =
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
        out[byLayer ? layerOf(s.name) : s.name] += self;
    }
    return out;
}

} // namespace perfbench
