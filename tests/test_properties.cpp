/**
 * @file
 * Unit tests for the properties format and DhlConfig serialisation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/logging.hpp"
#include "common/properties.hpp"
#include "dhl/config_io.hpp"

using dhl::Properties;
using namespace dhl::core;

TEST(PropertiesTest, ParsesBasicFormat)
{
    const auto props = Properties::fromString(
        "# a comment\n"
        "track_length = 500\n"
        "  lim.efficiency=0.75   # trailing comment\n"
        "\n"
        "name = DHL one\n");
    EXPECT_EQ(props.size(), 3u);
    EXPECT_TRUE(props.has("track_length"));
    EXPECT_EQ(props.get("track_length"), "500");
    EXPECT_DOUBLE_EQ(props.getDouble("lim.efficiency", 0.0), 0.75);
    EXPECT_EQ(props.get("name"), "DHL one");
    EXPECT_EQ(props.get("missing", "fallback"), "fallback");
}

TEST(PropertiesTest, TypedAccessors)
{
    auto props = Properties::fromString(
        "d = 2.5\ni = 42\nb1 = true\nb2 = off\nbad = zz\n");
    EXPECT_DOUBLE_EQ(props.getDouble("d", 0.0), 2.5);
    EXPECT_EQ(props.getInt("i", 0), 42);
    EXPECT_TRUE(props.getBool("b1", false));
    EXPECT_FALSE(props.getBool("b2", true));
    EXPECT_DOUBLE_EQ(props.getDouble("absent", 9.0), 9.0);
    EXPECT_THROW(props.getDouble("bad", 0.0), dhl::FatalError);
    EXPECT_THROW(props.getInt("bad", 0), dhl::FatalError);
    EXPECT_THROW(props.getBool("bad", false), dhl::FatalError);
}

TEST(PropertiesTest, RejectsNonFiniteDoubles)
{
    const auto props = Properties::fromString(
        "a = nan\nb = inf\nc = -inf\nd = 1e400\ne = 1e-400\n");
    for (const char *key : {"a", "b", "c", "d"}) {
        try {
            props.getDouble(key, 0.0);
            ADD_FAILURE() << "accepted key " << key;
        } catch (const dhl::FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("property '") + key +
                          "' expects a finite number, got '" +
                          props.get(key) + "'");
        }
    }
    // An underflow is finite and still parses.
    EXPECT_GE(props.getDouble("e", 1.0), 0.0);
}

TEST(PropertiesTest, SettersAndRoundTrip)
{
    Properties props;
    props.set("a", "x");
    props.setDouble("b", 1.5);
    props.setInt("c", 7);
    props.setBool("d", true);
    const auto round = Properties::fromString(props.toString());
    EXPECT_EQ(round.get("a"), "x");
    EXPECT_DOUBLE_EQ(round.getDouble("b", 0.0), 1.5);
    EXPECT_EQ(round.getInt("c", 0), 7);
    EXPECT_TRUE(round.getBool("d", false));
    // Insertion order preserved.
    const auto keys = round.keys();
    ASSERT_EQ(keys.size(), 4u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[3], "d");
}

TEST(PropertiesTest, MalformedLinesRejected)
{
    EXPECT_THROW(Properties::fromString("no equals sign\n"),
                 dhl::FatalError);
    EXPECT_THROW(Properties::fromString("= value\n"), dhl::FatalError);
    EXPECT_THROW(Properties::fromFile("/nonexistent/path.props"),
                 dhl::FatalError);
}

TEST(PropertiesTest, FileRoundTrip)
{
    const std::string path = "/tmp/dhl_test_props.cfg";
    {
        std::ofstream f(path);
        f << "track_length = 1000\nmax_speed = 300\n";
    }
    const auto props = Properties::fromFile(path);
    EXPECT_DOUBLE_EQ(props.getDouble("track_length", 0.0), 1000.0);
    std::remove(path.c_str());
}

TEST(ConfigIoTest, DefaultsRoundTripExactly)
{
    const DhlConfig original = defaultConfig();
    const DhlConfig loaded = loadConfig(saveConfig(original));
    EXPECT_DOUBLE_EQ(loaded.track_length, original.track_length);
    EXPECT_DOUBLE_EQ(loaded.max_speed, original.max_speed);
    EXPECT_EQ(loaded.kinematics, original.kinematics);
    EXPECT_DOUBLE_EQ(loaded.dock_time, original.dock_time);
    EXPECT_DOUBLE_EQ(loaded.lim.efficiency, original.lim.efficiency);
    EXPECT_EQ(loaded.ssds_per_cart, original.ssds_per_cart);
    EXPECT_DOUBLE_EQ(loaded.ssd.capacity, original.ssd.capacity);
    EXPECT_DOUBLE_EQ(loaded.ssd.mass, original.ssd.mass);
    EXPECT_EQ(loaded.track_mode, original.track_mode);
    EXPECT_EQ(loaded.docking_stations, original.docking_stations);
    EXPECT_DOUBLE_EQ(loaded.cartMass().value(), original.cartMass().value());
    EXPECT_NEAR(loaded.tripTime().value(), original.tripTime().value(), 1e-12);
}

TEST(ConfigIoTest, CustomConfigRoundTrips)
{
    DhlConfig cfg = makeConfig(300, 1000, 64);
    cfg.track_mode = TrackMode::DualTrack;
    cfg.docking_stations = 4;
    cfg.kinematics = dhl::physics::KinematicsMode::Trapezoid;
    cfg.lim.braking = dhl::physics::BrakingMode::Regenerative;
    cfg.lim.regen_fraction = 0.4;
    const DhlConfig loaded = loadConfig(saveConfig(cfg));
    EXPECT_DOUBLE_EQ(loaded.max_speed, 300.0);
    EXPECT_EQ(loaded.track_mode, TrackMode::DualTrack);
    EXPECT_EQ(loaded.kinematics,
              dhl::physics::KinematicsMode::Trapezoid);
    EXPECT_EQ(loaded.lim.braking,
              dhl::physics::BrakingMode::Regenerative);
    EXPECT_DOUBLE_EQ(loaded.lim.regen_fraction, 0.4);
}

TEST(ConfigIoTest, PartialOverridesKeepDefaults)
{
    const auto props = Properties::fromString(
        "max_speed = 100\nssds_per_cart = 64\n");
    const DhlConfig cfg = loadConfig(props);
    EXPECT_DOUBLE_EQ(cfg.max_speed, 100.0);
    EXPECT_EQ(cfg.ssds_per_cart, 64u);
    EXPECT_DOUBLE_EQ(cfg.track_length, 500.0); // untouched default
}

TEST(ConfigIoTest, UnknownKeysRejected)
{
    const auto props =
        Properties::fromString("max_sped = 100\n"); // typo
    EXPECT_THROW(loadConfig(props), dhl::FatalError);
}

TEST(ConfigIoTest, InvalidValuesRejectedByValidation)
{
    const auto props = Properties::fromString("track_length = -5\n");
    EXPECT_THROW(loadConfig(props), dhl::FatalError);
    const auto bad_mode =
        Properties::fromString("track_mode = sideways\n");
    EXPECT_THROW(loadConfig(bad_mode), dhl::FatalError);
    const auto bad_kin = Properties::fromString("kinematics = magic\n");
    EXPECT_THROW(loadConfig(bad_kin), dhl::FatalError);
    const auto bad_brake = Properties::fromString("lim.braking = abs\n");
    EXPECT_THROW(loadConfig(bad_brake), dhl::FatalError);
}

/** Each count key: a negative value dies naming the key, not wrapping
 *  into a huge size. */
class ConfigIoNegativeCount : public ::testing::TestWithParam<const char *>
{};

TEST_P(ConfigIoNegativeCount, RejectedWithTheKeyName)
{
    const std::string key = GetParam();
    const auto props = Properties::fromString(key + " = -1\n");
    try {
        (void)loadConfig(props);
        ADD_FAILURE() << key << " = -1 was accepted";
    } catch (const dhl::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(key + " must be >= 0, got -1"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(Keys, ConfigIoNegativeCount,
                         ::testing::Values("ssds_per_cart",
                                           "pcie.lanes_per_ssd",
                                           "docking_stations",
                                           "library_slots"));

TEST(PropertiesTest, RejectsOutOfRangeIntegers)
{
    auto props = Properties::fromString(
        "big = 99999999999999999999\nsmall = -99999999999999999999\n"
        "edge = -9223372036854775808\n");
    for (const char *key : {"big", "small"}) {
        try {
            (void)props.getInt(key, 0);
            ADD_FAILURE() << key << " was accepted";
        } catch (const dhl::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("property '") + key +
                          "' is out of range"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(props.getInt("edge", 0), -9223372036854775807L - 1);
}
