/**
 * @file
 * Implementation of the training-iteration simulator.
 */

#include "mlsim/training_sim.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace dhl {
namespace mlsim {

TrainingSim::TrainingSim(const TrainingWorkload &workload,
                         const CommLayer &comm)
    : workload_(workload), comm_(comm)
{
    validate(workload_);
}

IterationResult
TrainingSim::iterate(double units) const
{
    IterationResult r{};
    r.units = units;
    r.comm_time = comm_.ingestionTime(workload_.dataset_bytes, units);
    r.iter_time = r.comm_time + workload_.compute_time;
    r.comm_energy = comm_.ingestionEnergy(workload_.dataset_bytes);
    r.avg_comm_power = r.comm_energy / r.comm_time;
    return r;
}

IterationResult
TrainingSim::isoPower(double power_budget) const
{
    fatal_if(!(power_budget > 0.0), "power budget must be positive");
    double units = power_budget / comm_.unitPower();
    if (comm_.quantised()) {
        units = std::floor(units + 1e-9);
        if (units < 1.0)
            fatal("power budget below one unit of '" + comm_.name() + "' (" +
                  std::to_string(comm_.unitPower()) + " W)");
    }
    return iterate(units);
}

double
TrainingSim::powerForIterTime(double target_iter_time) const
{
    fatal_if(!(target_iter_time > workload_.compute_time),
             "target iteration time is at or below the compute floor");
    const double comm_budget = target_iter_time - workload_.compute_time;

    if (!comm_.quantised()) {
        // Continuous: time scales as 1/units, so solve directly from a
        // one-unit reference.
        const double t1 =
            comm_.ingestionTime(workload_.dataset_bytes, 1.0);
        const double units = t1 / comm_budget;
        return units * comm_.unitPower();
    }

    // Quantised: smallest whole unit count meeting the budget.
    double units = 1.0;
    while (comm_.ingestionTime(workload_.dataset_bytes, units) >
           comm_budget) {
        units += 1.0;
        fatal_if(units > 1e7, "iso-time search failed to converge");
    }
    return units * comm_.unitPower();
}

IterationResult
TrainingSim::iterateScaled(double units, double factor) const
{
    fatal_if(!(factor > 0.0) || factor > 1.0,
             "scale factor must be in (0, 1]");
    const TrainingWorkload small = scaled(workload_, factor);
    TrainingSim small_sim(small, comm_);
    IterationResult r = small_sim.iterate(units);
    // Upscale the times (and energy) back, per the paper's protocol.
    r.comm_time /= factor;
    r.iter_time /= factor;
    r.comm_energy /= factor;
    return r;
}

} // namespace mlsim
} // namespace dhl
