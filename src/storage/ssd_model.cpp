/**
 * @file
 * SSD connector ratings and state names.
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

std::string
to_string(SsdState state)
{
    switch (state) {
      case SsdState::Healthy:
        return "healthy";
      case SsdState::Failed:
        return "failed";
      case SsdState::ConnectorWorn:
        return "connector-worn";
    }
    panic("unreachable SSD state");
}

} // namespace storage
} // namespace dhl
