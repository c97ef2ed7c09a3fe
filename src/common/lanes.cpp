/**
 * @file
 * The CPU probe behind every lane kernel (common/lanes.hpp).
 */

#include "common/lanes.hpp"

namespace dhl {
namespace lanes {

const char *
isaName(LaneIsa isa)
{
    switch (isa) {
    case LaneIsa::Avx512:
        return "avx512";
    case LaneIsa::Avx2:
        return "avx2";
    case LaneIsa::Scalar:
        return "scalar";
    }
    return "?";
}

const std::vector<LaneIsa> &
supportedIsas()
{
    static const std::vector<LaneIsa> isas = [] {
        std::vector<LaneIsa> v;
#if defined(__x86_64__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f"))
            v.push_back(LaneIsa::Avx512);
        if (__builtin_cpu_supports("avx2"))
            v.push_back(LaneIsa::Avx2);
#endif
        v.push_back(LaneIsa::Scalar);
        return v;
    }();
    return isas;
}

} // namespace lanes
} // namespace dhl
