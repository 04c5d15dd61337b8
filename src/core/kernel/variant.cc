#include "core/kernel/variant.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/kernel/compiled_layer.hh"

namespace eie::core::kernel {

const std::vector<std::string> &
kernelVariantNames()
{
    static const std::vector<std::string> names{"auto", "vector",
                                                "actsparse"};
    return names;
}

const char *
kernelVariantName(KernelVariant variant)
{
    switch (variant) {
      case KernelVariant::Auto:
        return "auto";
      case KernelVariant::Vector:
        return "vector";
      case KernelVariant::ActSparse:
        return "actsparse";
    }
    panic("invalid kernel variant %d", static_cast<int>(variant));
    return ""; // unreachable: panic() aborts
}

KernelVariant
kernelVariantFromName(const std::string &name)
{
    if (name == "auto")
        return KernelVariant::Auto;
    if (name == "vector")
        return KernelVariant::Vector;
    if (name == "actsparse")
        return KernelVariant::ActSparse;
    std::string known;
    for (const std::string &n : kernelVariantNames())
        known += (known.empty() ? "" : ", ") + n;
    fatal("unknown kernel variant '%s' (known: %s)", name.c_str(),
          known.c_str());
    return KernelVariant::Auto; // unreachable: fatal() exits
}

bool
vectorEligible(const FixedFormat &weight_fmt, const FixedFormat &acc_fmt)
{
    // The "shift and add" alignment must be an arithmetic right shift
    // (a left shift would widen the product past the lane).
    const int shift = 2 * static_cast<int>(weight_fmt.fracBits) -
        static_cast<int>(acc_fmt.fracBits);
    if (shift < 0 || shift > 31)
        return false;
    // w * a must fit an int32 lane: |w| <= 2^(wb-1), |a| <= 2^(ab-1),
    // so the product magnitude is at most 2^(wb+ab-2).
    const int product_bits = static_cast<int>(weight_fmt.totalBits) +
        static_cast<int>(acc_fmt.totalBits) - 2;
    if (product_bits > 30)
        return false;
    // acc + (product >> shift) must fit an int32 lane before the
    // saturation clamp.
    const int sum_bits = std::max(
        static_cast<int>(acc_fmt.totalBits) - 1, product_bits - shift);
    return sum_bits <= 29;
}

bool
vectorEligible(const CompiledLayer &layer)
{
    return vectorEligible(layer.weight_format, layer.act_format);
}

KernelVariant
resolveKernelVariant(KernelVariant requested, const CompiledLayer &layer,
                     std::size_t batch)
{
    if (requested == KernelVariant::ActSparse)
        return KernelVariant::ActSparse;
    fatal_if(requested == KernelVariant::Vector && !vectorEligible(layer),
             "kernel variant 'vector' is not bit-exact for layer "
             "'%s' (weights Q%u.%u, accumulator Q%u.%u overflow "
             "32-bit lanes); use 'auto' or 'actsparse'",
             layer.name.c_str(), layer.weight_format.totalBits,
             layer.weight_format.fracBits, layer.act_format.totalBits,
             layer.act_format.fracBits);
    // Two or more frames share each entry's MAC across the frame lanes;
    // one frame spreads a column's entries across the row lanes, whose
    // two registers hold the table. The int64 column walk takes the
    // rest: formats the lanes cannot run, and one frame on a larger
    // table.
    if (vectorEligible(layer) &&
        (batch >= 2 || layer.lut.size() <= kRowLaneTableEntries))
        return KernelVariant::Vector;
    return KernelVariant::ActSparse;
}

// simdIsaName() is defined in executor.cc, next to the vector sweep
// dispatch it reports on, so the stamp can never drift from the loop
// that actually runs.

} // namespace eie::core::kernel
