/**
 * @file
 * SSD connector ratings.
 */

#include "storage/ssd_model.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace storage {

std::uint64_t
ratedCycles(ConnectorKind kind)
{
    switch (kind) {
      case ConnectorKind::M2:
        return 250;
      case ConnectorKind::UsbC:
        return 10000;
    }
    panic("unreachable connector kind");
}

} // namespace storage
} // namespace dhl
