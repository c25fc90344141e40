/**
 * @file
 * Serialized cost certificates.
 *
 * A certificate bundles what the static passes proved about one
 * kernel — its cycle-bound interval (bound.h) and, when the
 * interleaving explorer ran, its race/deadlock verdict (interleave.h)
 * — into a JSON document tools can emit (`pimlint --json`) and CI can
 * archive. The schema is documented in docs/analysis.md;
 * `parseCertificate()` round-trips everything
 * `serializeCertificate()` emits (it is a reader for this one schema,
 * not a general JSON parser).
 */

#ifndef TPL_PIMSIM_ANALYSIS_CERTIFICATE_H
#define TPL_PIMSIM_ANALYSIS_CERTIFICATE_H

#include <string>

#include "pimsim/analysis/bound.h"
#include "pimsim/analysis/interleave.h"

namespace tpl {
namespace sim {
namespace check {

/** Everything proven about one kernel, ready to serialize. */
struct KernelCertificate
{
    std::string kernel;   ///< kernel name (free-form identifier)
    CycleBound bound;     ///< static cycle bounds (bound.h)
    bool interleaveChecked = false; ///< explorer ran
    uint32_t interleaveTasklets = 0; ///< tasklets it modeled
    InterleaveVerdict interleave = InterleaveVerdict::Inconclusive;
    uint32_t interleavePhases = 0; ///< barrier phases explored
};

/** Serialize to the JSON schema in docs/analysis.md. */
std::string serializeCertificate(const KernelCertificate& cert);

/**
 * Parse a document produced by serializeCertificate() back into
 * @p cert. Returns false (leaving @p cert partially filled) on
 * malformed input.
 */
bool parseCertificate(const std::string& json, KernelCertificate& cert);

} // namespace check
} // namespace sim
} // namespace tpl

#endif // TPL_PIMSIM_ANALYSIS_CERTIFICATE_H
