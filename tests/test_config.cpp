/**
 * @file
 * Unit tests for the DHL configuration (Table V presets and derived
 * helpers).
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/units.hpp"
#include "dhl/config.hpp"

using namespace dhl::core;
namespace u = dhl::units;

TEST(DhlConfigTest, DefaultIsTheBoldTableVRow)
{
    const DhlConfig cfg = defaultConfig();
    EXPECT_DOUBLE_EQ(cfg.track_length, 500.0);
    EXPECT_DOUBLE_EQ(cfg.max_speed, 200.0);
    EXPECT_DOUBLE_EQ(cfg.dock_time, 3.0);
    EXPECT_EQ(cfg.ssds_per_cart, 32u);
    EXPECT_DOUBLE_EQ(cfg.lim.efficiency, 0.75);
    EXPECT_DOUBLE_EQ(cfg.lim.accel, 1000.0);
    EXPECT_NO_THROW(validate(cfg));
}

TEST(DhlConfigTest, DerivedHelpers)
{
    const DhlConfig cfg = defaultConfig();
    EXPECT_DOUBLE_EQ(cfg.cartCapacity().value(), u::terabytes(256));
    EXPECT_NEAR(u::toGrams(cfg.cartMass().value()), 282.0, 0.5);
    EXPECT_DOUBLE_EQ(cfg.limLength().value(), 20.0);
    // Trip: 3 + (500/200 + 200/2000) + 3 = 8.6 s.
    EXPECT_NEAR(cfg.tripTime().value(), 8.6, 1e-12);
}

TEST(DhlConfigTest, Label)
{
    EXPECT_EQ(defaultConfig().label(), "DHL-200-500-256");
    EXPECT_EQ(makeConfig(100, 1000, 64).label(), "DHL-100-1000-512");
}

TEST(DhlConfigTest, TrapezoidModeChangesTripTime)
{
    DhlConfig cfg = defaultConfig();
    cfg.kinematics = dhl::physics::KinematicsMode::Trapezoid;
    EXPECT_NEAR(cfg.tripTime().value(), 8.7, 1e-12);
}

TEST(DhlConfigTest, ValidationCatchesNonsense)
{
    DhlConfig cfg = defaultConfig();
    cfg.track_length = -1.0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    cfg = defaultConfig();
    cfg.max_speed = 0.0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    cfg = defaultConfig();
    cfg.ssds_per_cart = 0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    cfg = defaultConfig();
    cfg.docking_stations = 0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    cfg = defaultConfig();
    cfg.library_slots = 0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    // One station per slot is the most that can ever mate.
    cfg = defaultConfig();
    cfg.docking_stations = cfg.library_slots;
    EXPECT_NO_THROW(validate(cfg));
    cfg.docking_stations = cfg.library_slots + 1;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    // Track shorter than its two LIM sections (40 m at 200 m/s).
    cfg = defaultConfig();
    cfg.track_length = 30.0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);

    cfg = defaultConfig();
    cfg.headway = 0.0;
    EXPECT_THROW(validate(cfg), dhl::FatalError);
}

TEST(DhlConfigTest, TableViRowsAreValidAndOrdered)
{
    const auto &rows = tableViRows();
    ASSERT_EQ(rows.size(), 13u);
    for (const auto &row : rows)
        EXPECT_NO_THROW(validate(row.config));
    // The bold default appears as the speed-sweep middle row.
    EXPECT_DOUBLE_EQ(rows[1].config.max_speed, 200.0);
    EXPECT_DOUBLE_EQ(rows[1].config.track_length, 500.0);
    EXPECT_EQ(rows[1].config.ssds_per_cart, 32u);
}

TEST(DhlConfigTest, MakeConfigSweepsOnlyThreeParams)
{
    const DhlConfig cfg = makeConfig(300, 1000, 64);
    EXPECT_DOUBLE_EQ(cfg.max_speed, 300.0);
    EXPECT_DOUBLE_EQ(cfg.track_length, 1000.0);
    EXPECT_EQ(cfg.ssds_per_cart, 64u);
    EXPECT_DOUBLE_EQ(cfg.dock_time, defaultConfig().dock_time);
}

TEST(TrackModeNames, ToString)
{
    EXPECT_EQ(to_string(TrackMode::Exclusive), "exclusive");
    EXPECT_EQ(to_string(TrackMode::Pipelined), "pipelined");
    EXPECT_EQ(to_string(TrackMode::DualTrack), "dual-track");
}
