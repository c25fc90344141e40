/**
 * @file
 * Tracer implementation + TPL_OBS_TRACE env bootstrap.
 */

#include "pimsim/obs/trace.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.h"

namespace tpl {
namespace obs {

namespace {

std::string
formatDouble(double v)
{
    std::ostringstream s;
    s.precision(15);
    s << v;
    std::string out = s.str();
    if (out.find("inf") != std::string::npos ||
        out.find("nan") != std::string::npos)
        out = "0";
    return out;
}

} // namespace

std::string
argKv(const char* key, uint64_t value)
{
    std::ostringstream s;
    s << "\"" << key << "\": " << value;
    return s.str();
}

std::string
argKv(const char* key, double value)
{
    std::ostringstream s;
    s << "\"" << key << "\": " << formatDouble(value);
    return s.str();
}

std::string
argKv(const char* key, const std::string& value)
{
    std::ostringstream s;
    s << "\"" << key << "\": \"" << jsonEscape(value) << "\"";
    return s.str();
}

std::string
argsObject(std::initializer_list<std::string> kvs)
{
    std::string out;
    for (const auto& kv : kvs) {
        if (kv.empty())
            continue;
        if (!out.empty())
            out += ", ";
        out += kv;
    }
    return out;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer&
Tracer::global()
{
    static Tracer* instance = new Tracer(); // never destroyed: pool
    // workers and the atexit exporter may outlive static dtors.
    return *instance;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::ThreadBuffer&
Tracer::localBuffer()
{
    // One buffer per (thread, tracer). A plain thread_local pointer
    // would alias across tracer instances (tests build their own), so
    // the cache is keyed by tracer identity.
    struct Cache
    {
        Tracer* owner = nullptr;
        ThreadBuffer* buf = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner == this && cache.buf)
        return *cache.buf;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<uint32_t>(buffers_.size() - 1);
    cache.owner = this;
    cache.buf = buffers_.back().get();
    return *cache.buf;
}

void
Tracer::begin(const std::string& name, const char* cat,
              std::string args)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'B';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    buf.events.push_back(std::move(ev));
}

void
Tracer::end()
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'E';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    buf.events.push_back(std::move(ev));
}

void
Tracer::complete(const std::string& name, const char* cat, double tsUs,
                 double durUs, std::string args)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'X';
    ev.tsUs = tsUs;
    ev.durUs = durUs;
    ev.tid = buf.tid;
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    buf.events.push_back(std::move(ev));
}

void
Tracer::instant(const std::string& name, const char* cat,
                std::string args)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'i';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    buf.events.push_back(std::move(ev));
}

void
Tracer::counterValue(const std::string& name, const char* cat,
                     double value)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'C';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.name = name;
    ev.cat = cat;
    ev.args = argKv("value", value);
    buf.events.push_back(std::move(ev));
}

void
Tracer::flowBegin(const std::string& name, const char* cat, uint64_t id)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 's';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.flowId = id;
    ev.name = name;
    ev.cat = cat;
    buf.events.push_back(std::move(ev));
}

void
Tracer::flowStep(const std::string& name, const char* cat, uint64_t id)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 't';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.flowId = id;
    ev.name = name;
    ev.cat = cat;
    buf.events.push_back(std::move(ev));
}

void
Tracer::flowEnd(const std::string& name, const char* cat, uint64_t id)
{
    if (!enabled())
        return;
    ThreadBuffer& buf = localBuffer();
    TraceEvent ev;
    ev.phase = 'f';
    ev.tsUs = nowUs();
    ev.tid = buf.tid;
    ev.flowId = id;
    ev.name = name;
    ev.cat = cat;
    buf.events.push_back(std::move(ev));
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& buf : buffers_)
        buf->events.clear();
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& buf : buffers_)
        n += buf->events.size();
    return n;
}

std::string
Tracer::toChromeJson() const
{
    // Concatenate per-thread buffers in registration order, then
    // stable-sort by timestamp: equal timestamps keep each thread's
    // append order, so B/E pairs can never invert within a tid.
    std::vector<const TraceEvent*> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& buf : buffers_)
            for (const auto& ev : buf->events)
                events.push_back(&ev);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                         return a->tsUs < b->tsUs;
                     });

    std::ostringstream out;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const TraceEvent* ev : events) {
        out << (first ? "" : ",") << "\n  {\"ph\": \"" << ev->phase
            << "\", \"pid\": 1, \"tid\": " << ev->tid
            << ", \"ts\": " << formatDouble(ev->tsUs);
        if (ev->phase == 'X')
            out << ", \"dur\": " << formatDouble(ev->durUs);
        if (ev->phase != 'E') {
            out << ", \"name\": \"" << jsonEscape(ev->name)
                << "\", \"cat\": \"" << jsonEscape(ev->cat) << "\"";
            if (ev->phase == 'i')
                out << ", \"s\": \"t\"";
            if (ev->phase == 's' || ev->phase == 't' ||
                ev->phase == 'f') {
                out << ", \"id\": " << ev->flowId;
                // Bind the flow terminus to the enclosing slice's end.
                if (ev->phase == 'f')
                    out << ", \"bp\": \"e\"";
            }
            if (!ev->args.empty())
                out << ", \"args\": {" << ev->args << "}";
        }
        out << "}";
        first = false;
    }
    out << "\n]}\n";
    return out.str();
}

bool
Tracer::writeChromeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toChromeJson();
    return static_cast<bool>(out);
}

namespace {

/**
 * TPL_OBS_TRACE=<path>: enable the global tracer for the whole
 * process and export the Chrome JSON to <path> at exit.
 */
struct TraceEnvBootstrap
{
    TraceEnvBootstrap()
    {
        const char* path = std::getenv("TPL_OBS_TRACE");
        if (!path || !*path)
            return;
        Tracer::global().setEnabled(true);
        static std::string outPath = path;
        std::atexit(
            [] { Tracer::global().writeChromeJson(outPath); });
    }
};

const TraceEnvBootstrap traceEnvBootstrap{};

} // namespace

} // namespace obs
} // namespace tpl
