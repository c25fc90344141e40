/**
 * @file
 * BatchQueue implementation.
 */

#include "pimsim/serve/batch_queue.h"

#include "pimsim/obs/journal.h"

#include <algorithm>

namespace tpl {
namespace sim {
namespace serve {

uint64_t
BatchQueue::push(Request request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return 0;
    request.id = nextId_++;
    ++totalPushed_;
    uint64_t id = request.id;
    if (journal_ && journal_->eventsEnabled()) {
        obs::JournalEvent ev;
        ev.kind = "enqueue";
        ev.t = request.arrivalSeconds;
        ev.request = id;
        ev.elements = request.elements;
        ev.tenant = request.tenant;
        ev.table = request.table.label;
        journal_->record(ev);
    }
    ++depth_;
    queuedElements_ += request.elements;
    Lane& lane = lanes_[{request.table.hash, request.tenant}];
    if (lane.empty())
        heads_.emplace(id, &lane);
    lane.push_back(std::move(request));
    cv_.notify_one();
    return id;
}

void
BatchQueue::setJournal(obs::Journal* journal)
{
    std::lock_guard<std::mutex> lock(mutex_);
    journal_ = journal;
}

void
BatchQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
}

bool
BatchQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

size_t
BatchQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_;
}

uint64_t
BatchQueue::queuedElements() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queuedElements_;
}

uint64_t
BatchQueue::totalPushed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalPushed_;
}

std::optional<Wave>
BatchQueue::popWave(uint64_t maxElements)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !heads_.empty() || closed_; });
    if (heads_.empty())
        return std::nullopt;

    // The lane holding the oldest queued request supplies the wave.
    auto head = heads_.begin();
    Lane& lane = *head->second;
    heads_.erase(head);

    const uint64_t budget = std::max<uint64_t>(maxElements, 1);
    Wave wave;
    wave.table = lane.front().table;
    wave.tenant = lane.front().tenant;

    // FIFO sweep of the lane until the budget is spent. Zero-element
    // requests are closed for free; a request larger than the
    // remaining budget is consumed partially and its spans advance in
    // place. Every erase is at or next to the lane front: O(1).
    uint64_t taken = 0;
    for (auto it = lane.begin(); it != lane.end();) {
        if (it->elements == 0) {
            ++wave.requestsClosed;
            --depth_;
            it = lane.erase(it);
            continue;
        }
        if (taken == budget)
            break;
        uint64_t take = std::min(it->elements, budget - taken);
        const bool wholeTail = take == it->elements;
        wave.items.push_back({it->id, it->input, it->output, take,
                              it->arrivalSeconds, wholeTail});
        taken += take;
        queuedElements_ -= take;
        if (wholeTail) {
            ++wave.requestsClosed;
            --depth_;
            it = lane.erase(it);
        } else {
            it->input += take;
            it->output += take;
            it->elements -= take;
            ++it;
        }
    }
    if (!lane.empty())
        heads_.emplace(lane.front().id, &lane);
    return wave;
}

} // namespace serve
} // namespace sim
} // namespace tpl
