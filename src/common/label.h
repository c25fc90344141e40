/**
 * @file
 * Interned labels: a process-lifetime, pointer-stable string pool.
 *
 * Human-readable names that many records share — the serve layer's
 * table labels above all, carried by every queued request and every
 * latency record — are stored once in a global pool and referred to
 * by pointer. A Label is one pointer wide, copies for free, compares
 * by address, and never dangles: pooled text is never freed or moved,
 * so a Label (or a string_view of it) stays valid for the rest of the
 * process, whatever happened to the string it was built from.
 *
 * Constructing a Label from text interns it (one mutex-guarded hash
 * lookup, plus one allocation on the first sighting of that text);
 * build labels once per identity and copy them thereafter. The pool
 * only grows, so intern names, not per-record data.
 */

#ifndef TPL_COMMON_LABEL_H
#define TPL_COMMON_LABEL_H

#include <iosfwd>
#include <string>
#include <string_view>

namespace tpl {

/** An interned string, one pointer wide: equal text always yields the
 * same pooled string. Interning is thread-safe. The empty label is
 * the default and needs no pool entry. */
class Label
{
  public:
    Label() noexcept = default;
    Label(std::string_view text);
    Label(const std::string& text) : Label(std::string_view(text)) {}
    Label(const char* text) : Label(std::string_view(text)) {}

    const std::string& str() const noexcept;
    operator const std::string&() const noexcept { return str(); }
    std::string_view view() const noexcept { return str(); }

    /** Equal text is interned once, so equality is identity. */
    friend bool
    operator==(const Label& a, const Label& b) noexcept
    {
        return a.text_ == b.text_;
    }

  private:
    const std::string* text_ = nullptr; ///< pooled; nullptr = empty
};

std::ostream& operator<<(std::ostream& out, const Label& label);

} // namespace tpl

#endif // TPL_COMMON_LABEL_H
