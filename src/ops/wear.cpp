/**
 * @file
 * Implementation of the wear coupling.
 */

#include "ops/wear.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace ops {

void
validate(const WearCouplingConfig &cfg)
{
    fatal_if(cfg.breakdown_gain < 0.0,
             "breakdown wear gain must be non-negative");
    fatal_if(cfg.station_gain < 0.0,
             "station wear gain must be non-negative");
}

double
cartWear(const core::Library &library, std::uint32_t cart)
{
    const core::Cart &c = library.cart(cart);
    const std::size_t n = c.ssdCount();
    if (n == 0)
        return 0.0;
    // Every SSD of a cart carries the same wear; adding it once per SSD
    // in index order keeps the bits of a per-SSD sum.
    const double wear = c.wearFraction();
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += wear;
    return total / static_cast<double>(n);
}

double
libraryWear(const core::Library &library)
{
    const std::size_t n = library.totalCarts();
    if (n == 0)
        return 0.0;
    double total = 0.0;
    for (std::size_t id = 0; id < n; ++id)
        total += cartWear(library, static_cast<std::uint32_t>(id));
    return total / static_cast<double>(n);
}

WearCoupling::WearCoupling(const WearCouplingConfig &cfg) : cfg_(cfg)
{
    validate(cfg_);
}

void
WearCoupling::attach(faults::FaultInjector &injector,
                     core::Library &library) const
{
    if (cfg_.breakdown_gain > 0.0) {
        injector.setBreakdownScale(
            [gain = cfg_.breakdown_gain, &library](std::uint32_t cart) {
                return 1.0 + gain * cartWear(library, cart);
            });
    }
    if (cfg_.station_gain > 0.0) {
        injector.setMtbfScale(
            [gain = cfg_.station_gain, &library](
                faults::Component kind, std::uint32_t) {
                if (kind != faults::Component::Station)
                    return 1.0;
                return 1.0 / (1.0 + gain * libraryWear(library));
            });
    }
}

} // namespace ops
} // namespace dhl
