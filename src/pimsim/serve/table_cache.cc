/**
 * @file
 * TableCache implementation.
 */

#include "pimsim/serve/table_cache.h"

#include "pimsim/obs/metrics.h"

namespace tpl {
namespace sim {
namespace serve {

void
TableCache::setLaneCount(uint32_t lanes)
{
    laneCount_ = lanes;
    laneBroadcasts_ = 0;
    for (auto& [hash, entry] : entries_)
        entry.resident.assign(lanes, false);
}

TableCache::Lookup
TableCache::lookup(const TableKey& key, uint32_t lane)
{
    obs::Registry& reg = obs::Registry::global();
    Lookup out;
    auto it = entries_.find(key.hash);
    if (it != entries_.end()) {
        ++hits_;
        if (reg.enabled())
            reg.counter("serve/lut_cache/hits").add(1);
    } else {
        ++misses_;
        if (reg.enabled())
            reg.counter("serve/lut_cache/misses").add(1);
        Entry entry;
        entry.binding = std::make_unique<TableBinding>(
            provider_ ? provider_(key, system_) : TableBinding{});
        entry.resident.assign(laneCount_, false);
        it = entries_.emplace(key.hash, std::move(entry)).first;
        out.miss = true;
    }
    Entry& entry = it->second;
    out.binding = entry.binding.get();
    if (out.binding->valid && lane < entry.resident.size() &&
        !entry.resident[lane]) {
        entry.resident[lane] = true;
        out.laneMiss = true;
        ++laneBroadcasts_;
    }
    return out;
}

const TableBinding*
TableCache::peek(const TableKey& key) const
{
    auto it = entries_.find(key.hash);
    return it == entries_.end() ? nullptr : it->second.binding.get();
}

uint32_t
TableCache::evict(const TableKey& key)
{
    auto it = entries_.find(key.hash);
    if (it == entries_.end())
        return 0;
    const uint32_t bytes = it->second.binding->tableBytes;
    // Retire, don't destroy: in-flight waves may still reference the
    // binding (kernels capture evaluator state by shared_ptr, but
    // the pipeline holds the raw binding pointer).
    retired_.push_back(std::move(it->second.binding));
    entries_.erase(it);
    obs::Registry& reg = obs::Registry::global();
    if (reg.enabled())
        reg.counter("serve/lut_cache/evictions").add(1);
    return bytes;
}

bool
TableCache::resident(const TableKey& key, uint32_t lane) const
{
    auto it = entries_.find(key.hash);
    return it != entries_.end() && lane < it->second.resident.size() &&
           it->second.resident[lane];
}

size_t
TableCache::residency(uint32_t lane) const
{
    size_t n = 0;
    for (const auto& [hash, entry] : entries_)
        if (lane < entry.resident.size() && entry.resident[lane])
            ++n;
    return n;
}

} // namespace serve
} // namespace sim
} // namespace tpl
