/**
 * @file
 * The label pool behind tpl::Label.
 */

#include "common/label.h"

#include <deque>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace tpl {

namespace {

struct LabelPool
{
    std::mutex mutex;
    /** Pooled text. A deque never moves its elements on push_back,
     * so every pooled string (and its character buffer) keeps its
     * address for the life of the process. */
    std::deque<std::string> texts;
    std::unordered_map<std::string_view, const std::string*> index;
};

LabelPool&
pool()
{
    // Deliberately never destroyed: labels held by other static
    // objects stay valid through exit.
    static LabelPool* const instance = new LabelPool;
    return *instance;
}

const std::string&
emptyText()
{
    static const std::string* const empty = new std::string;
    return *empty;
}

} // namespace

Label::Label(std::string_view text)
{
    if (text.empty())
        return;
    LabelPool& p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    auto it = p.index.find(text);
    if (it == p.index.end()) {
        const std::string& pooled = p.texts.emplace_back(text);
        it = p.index.emplace(std::string_view(pooled), &pooled).first;
    }
    text_ = it->second;
}

const std::string&
Label::str() const noexcept
{
    return text_ ? *text_ : emptyText();
}

std::ostream&
operator<<(std::ostream& out, const Label& label)
{
    return out << label.str();
}

} // namespace tpl
