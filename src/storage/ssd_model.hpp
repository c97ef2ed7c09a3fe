/**
 * @file
 * SSD facts for the event-driven simulations: the docking connector's
 * rated mating cycles (Discussion: USB-C 10k-20k cycles vs M.2's
 * hundreds — the reason the paper recommends USB-C carrying PCIe for the
 * docking interface).  The SSD state itself is kept per cart
 * (core::Cart): every dock and undock mates all of a cart's connectors
 * at once.
 */

#ifndef DHL_STORAGE_SSD_MODEL_HPP
#define DHL_STORAGE_SSD_MODEL_HPP

#include <cstdint>

namespace dhl {
namespace storage {

/** Connector technology used for docking. */
enum class ConnectorKind
{
    M2,   ///< M.2 edge connector: rated ~250 mating cycles.
    UsbC, ///< USB-C (carrying PCIe): rated ~10,000 cycles.
};

/** Rated mating cycles for a connector kind. */
std::uint64_t ratedCycles(ConnectorKind kind);

} // namespace storage
} // namespace dhl

#endif // DHL_STORAGE_SSD_MODEL_HPP
