/**
 * @file
 * Unit tests for SimObject.
 */

#include <gtest/gtest.h>

#include "sim/sim_object.hpp"

using dhl::sim::SimObject;
using dhl::sim::Simulator;

namespace {

class Dummy : public SimObject
{
  public:
    Dummy(Simulator &sim) : SimObject(sim, "dummy") {}

    void
    fireIn(double delay, int *counter)
    {
        schedule(delay, [counter] { ++*counter; });
    }
};

} // namespace

TEST(SimObjectTest, NameAndStats)
{
    Simulator sim;
    Dummy d(sim);
    EXPECT_EQ(d.name(), "dummy");
    EXPECT_EQ(&d.simulator(), &sim);
    EXPECT_EQ(d.statsGroup().name(), "dummy");
    EXPECT_DOUBLE_EQ(d.now(), 0.0);
}

TEST(SimObjectTest, ScheduleForwardsToSimulator)
{
    Simulator sim;
    Dummy d(sim);
    int counter = 0;
    d.fireIn(2.0, &counter);
    sim.run();
    EXPECT_EQ(counter, 1);
    EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}
