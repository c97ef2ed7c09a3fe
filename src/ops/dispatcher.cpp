/**
 * @file
 * Implementation of the fleet dispatch vocabulary.
 */

#include "ops/dispatcher.hpp"

#include "common/logging.hpp"

namespace dhl {
namespace ops {

std::string
to_string(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "round-robin";
      case DispatchPolicy::LeastQueued:
        return "least-queued";
      case DispatchPolicy::AvailabilityAware:
        return "availability";
    }
    return "?";
}

DispatchPolicy
parseDispatchPolicy(const std::string &name)
{
    if (name == "round-robin")
        return DispatchPolicy::RoundRobin;
    if (name == "least-queued")
        return DispatchPolicy::LeastQueued;
    if (name == "availability")
        return DispatchPolicy::AvailabilityAware;
    fatal("unknown dispatch policy '" + name +
          "' (expected round-robin, least-queued, or availability)");
}

void
validate(const DispatchConfig &cfg)
{
    fatal_if(cfg.overcommit == 0,
             "dispatch overcommit must be at least 1 (otherwise an "
             "outage never finds a queued open to re-route)");
}

} // namespace ops
} // namespace dhl
