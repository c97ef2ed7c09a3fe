/**
 * @file
 * Integration: the event-driven DHL simulation must agree with the
 * closed-form analytical model across the whole Table VI design space
 * (experiment E11).  A scaled-down dataset keeps run times sane; the
 * agreement is exact because both sides share the same kinematics.
 */

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "dhl/analytical.hpp"
#include "dhl/simulation.hpp"

using namespace dhl::core;
namespace u = dhl::units;

class DesVsAnalytical : public ::testing::TestWithParam<TableVirow>
{};

TEST_P(DesVsAnalytical, SerialBulkAgreesExactly)
{
    const DhlConfig cfg = GetParam().config;
    // ~6 carts worth of data per configuration.
    const double dataset = 6.0 * cfg.cartCapacity().value() - u::terabytes(1);

    DhlSimulation des(cfg);
    const auto sim_result = des.runBulkTransfer(dataset);

    const AnalyticalModel model(cfg);
    const auto closed = model.bulk(dhl::qty::Bytes{dataset});

    EXPECT_EQ(sim_result.launches, closed.total_trips);
    EXPECT_NEAR(sim_result.total_time, closed.total_time.value(),
                closed.total_time.value() * 1e-9);
    EXPECT_NEAR(sim_result.total_energy, closed.total_energy.value(),
                closed.total_energy.value() * 1e-9);
    EXPECT_NEAR(sim_result.effective_bandwidth,
                closed.effective_bandwidth.value(),
                closed.effective_bandwidth.value() * 1e-9);
}

TEST_P(DesVsAnalytical, SerialWithReadsAgrees)
{
    const DhlConfig cfg = GetParam().config;
    const double dataset = 3.0 * cfg.cartCapacity().value();

    DhlSimulation des(cfg);
    BulkRunOptions des_opts;
    des_opts.include_read_time = true;
    const auto sim_result = des.runBulkTransfer(dataset, des_opts);

    const AnalyticalModel model(cfg);
    BulkOptions opts;
    opts.include_read_time = true;
    const auto closed = model.bulk(dhl::qty::Bytes{dataset}, opts);

    EXPECT_NEAR(sim_result.total_time, closed.total_time.value(),
                closed.total_time.value() * 1e-9);
    EXPECT_DOUBLE_EQ(sim_result.bytes_read, dataset);
}

INSTANTIATE_TEST_SUITE_P(
    AllTableViConfigs, DesVsAnalytical,
    ::testing::ValuesIn(tableViRows()),
    [](const ::testing::TestParamInfo<TableVirow> &info) {
        const auto &c = info.param.config;
        std::string name = "v";
        name += std::to_string(static_cast<int>(c.max_speed));
        name += "_L";
        name += std::to_string(static_cast<int>(c.track_length));
        name += "_n";
        name += std::to_string(c.ssds_per_cart);
        name += "_row";
        name += std::to_string(info.index);
        return name;
    });

TEST(DesVsAnalyticalTrapezoid, ExactKinematicsAlsoAgree)
{
    DhlConfig cfg = defaultConfig();
    cfg.kinematics = dhl::physics::KinematicsMode::Trapezoid;
    const double dataset = 4.0 * cfg.cartCapacity().value();

    DhlSimulation des(cfg);
    const auto sim_result = des.runBulkTransfer(dataset);
    const AnalyticalModel model(cfg);
    const auto closed = model.bulk(dhl::qty::Bytes{dataset});
    EXPECT_NEAR(sim_result.total_time, closed.total_time.value(),
                1e-6);
}
