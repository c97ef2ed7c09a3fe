/**
 * @file
 * Implementation of SimObject.
 */

#include "sim/sim_object.hpp"

#include <utility>

#include "common/logging.hpp"

namespace dhl {
namespace sim {

SimObject::SimObject(Simulator &sim, std::string name)
    : sim_(sim), name_(std::move(name)), stats_(name_)
{
    fatal_if(name_.empty(), "SimObject needs a non-empty name");
}

EventHandle
SimObject::schedule(Time delay, Simulator::Action action)
{
    return sim_.schedule(delay, std::move(action));
}

} // namespace sim
} // namespace dhl
