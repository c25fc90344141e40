/**
 * @file
 * Evaluator glue for the serve layer.
 */

#include "transpim/serve_glue.h"

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace tpl {
namespace transpim {

namespace {

/** FNV-1a, the idiomatic small stable hash. */
class Fnv1a
{
  public:
    template <typename T>
    void
    mix(const T& value)
    {
        const unsigned char* p =
            reinterpret_cast<const unsigned char*>(&value);
        for (size_t i = 0; i < sizeof(T); ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t
tableHash(Function f, const MethodSpec& spec)
{
    // Field-by-field (never the raw struct: padding bytes are
    // indeterminate), covering every knob that shapes the generated
    // tables or the kernel's evaluation path.
    Fnv1a h;
    h.mix(static_cast<uint32_t>(f));
    h.mix(static_cast<uint32_t>(spec.method));
    h.mix(static_cast<uint8_t>(spec.interpolated));
    h.mix(static_cast<uint32_t>(spec.placement));
    h.mix(spec.log2Entries);
    h.mix(spec.iterations);
    h.mix(spec.gridBits);
    h.mix(spec.polyDegree);
    h.mix(spec.dlutMantBits);
    h.mix(spec.dlutMinExp);
    h.mix(static_cast<uint8_t>(spec.reduceRange));
    h.mix(static_cast<uint8_t>(spec.shareTrigTables));
    return h.value();
}

/** The body of every streaming kernel: one tasklet's share of
 * @p task, in chunks of @p chunk (already clamped) elements. */
void
streamSlice(const FunctionEvaluator& ev, const sim::ShardTask& task,
            uint32_t chunk, sim::TaskletContext& ctx)
{
    float buffer[256];
    uint32_t chunks = (task.elements + chunk - 1) / chunk;
    for (uint32_t c = ctx.taskletId(); c < chunks;
         c += ctx.numTasklets()) {
        uint32_t beg = c * chunk;
        uint32_t cnt = std::min(chunk, task.elements - beg);
        ctx.mramRead(task.inAddr + beg * sizeof(float), buffer,
                     cnt * sizeof(float));
        // loop control + WRAM load/store, bulk-charged
        ctx.chargeClassN(InstrClass::IntAlu, 4, cnt);
        std::span<float> span(buffer, cnt);
        ev.evalBatch(span, span, &ctx);
        ctx.mramWrite(task.outAddr + beg * sizeof(float), buffer,
                      cnt * sizeof(float));
    }
}

/** What a bound key's kernels read: the one evaluator attached to
 * every core and the catalog's chunk size. */
struct StreamingTables
{
    FunctionEvaluator ev;
    uint32_t chunk = 0;
};

} // namespace

sim::serve::TableKey
batchTableKey(Function f, const MethodSpec& spec)
{
    sim::serve::TableKey key;
    key.hash = tableHash(f, spec);
    key.label =
        std::string(functionName(f)) + "/" + methodLabel(spec);
    return key;
}

sim::Kernel
makeStreamingKernel(const FunctionEvaluator& ev,
                    const sim::ShardTask& task, uint32_t chunkElems)
{
    const FunctionEvaluator* evp = &ev;
    const uint32_t chunk = std::clamp(chunkElems, 1u, 256u);
    return [evp, task, chunk](sim::TaskletContext& ctx) {
        streamSlice(*evp, task, chunk, ctx);
    };
}

sim::serve::TableKey
EvaluatorCatalog::add(Function f, const MethodSpec& spec)
{
    // Called once per pushed request: only a first sighting builds
    // and interns the label.
    auto it = entries_.find(tableHash(f, spec));
    if (it == entries_.end()) {
        sim::serve::TableKey key = batchTableKey(f, spec);
        it = entries_.emplace(key.hash, Entry{f, spec, key}).first;
    }
    return it->second.key;
}

sim::serve::TableProvider
EvaluatorCatalog::provider() const
{
    return [this](const sim::serve::TableKey& key,
                  sim::PimSystem& sys) -> sim::serve::TableBinding {
        sim::serve::TableBinding binding;
        auto it = entries_.find(key.hash);
        if (it == entries_.end())
            return binding; // unknown configuration
        const Entry& entry = it->second;

        // Generate the tables once and map them into every core: the
        // cores allocate in lockstep, so each core holds them at the
        // same address and a kernel reads through its own core. The
        // bind is all or nothing: a table that does not fit on some
        // core (say a configuration's second table) rolls back every
        // core it touched, keeping the cores in lockstep.
        auto tables = std::make_shared<StreamingTables>();
        std::vector<sim::DpuCore::AllocMark> marks;
        try {
            tables->ev =
                FunctionEvaluator::create(entry.function, entry.spec);
            marks.reserve(sys.numDpus());
            for (uint32_t d = 0; d < sys.numDpus(); ++d) {
                marks.push_back(sys.dpu(d).allocMark());
                tables->ev.attach(sys.dpu(d));
            }
        } catch (const std::invalid_argument&) {
            // An unsupported pair (UnsupportedCombination) or a spec
            // no table can be built for; create() threw, so no core
            // was touched.
            return binding;
        } catch (const std::bad_alloc&) {
            for (uint32_t d = 0; d < marks.size(); ++d)
                sys.dpu(d).rollback(marks[d]);
            return binding;
        }

        binding.valid = true;
        binding.tableBytes = tables->ev.memoryBytes();
        tables->chunk = std::clamp(chunkElems_, 1u, 256u);
        // Runs on pool threads: it only reads the shared tables. The
        // kernel holds two pointers (the slice outlives it, see
        // ShardKernelFactory), so it fits std::function's inline
        // buffer and building it allocates nothing.
        const StreamingTables* shared = tables.get();
        binding.makeKernel =
            [shared](const sim::ShardTask& t) -> sim::Kernel {
            return [shared, &t](sim::TaskletContext& ctx) {
                streamSlice(shared->ev, t, shared->chunk, ctx);
            };
        };
        binding.state = std::move(tables);
        return binding;
    };
}

} // namespace transpim
} // namespace tpl
