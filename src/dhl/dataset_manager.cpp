/**
 * @file
 * Implementation of the dataset manager.
 */

#include "dhl/dataset_manager.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hpp"

namespace dhl {
namespace core {

std::string
to_string(DatasetPlacement placement)
{
    switch (placement) {
      case DatasetPlacement::Library:
        return "library";
      case DatasetPlacement::Staged:
        return "staged";
      case DatasetPlacement::InTransit:
        return "in-transit";
      case DatasetPlacement::Mixed:
        return "mixed";
    }
    panic("unreachable dataset placement");
}

DatasetManager::DatasetManager(DhlController &controller)
    : controller_(controller)
{}

const std::vector<CartId> &
DatasetManager::registerDataset(const std::string &name, double bytes)
{
    fatal_if(name.empty(), "a dataset needs a name");
    if (datasets_.count(name) != 0)
        fatal("dataset '" + name + "' is already registered");
    fatal_if(!(bytes > 0.0), "dataset size must be positive");

    const double capacity = controller_.config().cartCapacity().value();
    const auto n_carts =
        static_cast<std::size_t>(std::ceil(bytes / capacity));

    Entry e{};
    e.bytes = bytes;
    double remaining = bytes;
    for (std::size_t i = 0; i < n_carts; ++i) {
        const double load = std::min(capacity, remaining);
        Cart &cart = controller_.addCart(load);
        e.carts.push_back(cart.id());
        remaining -= load;
    }
    auto [it, inserted] = datasets_.emplace(name, std::move(e));
    panic_if(!inserted, "dataset insertion raced");
    order_.push_back(name);
    return it->second.carts;
}

bool
DatasetManager::has(const std::string &name) const
{
    return datasets_.count(name) != 0;
}

std::vector<std::string>
DatasetManager::names() const
{
    return order_;
}

const DatasetManager::Entry &
DatasetManager::entry(const std::string &name) const
{
    auto it = datasets_.find(name);
    if (it == datasets_.end())
        fatal("unknown dataset: " + name);
    return it->second;
}

DatasetInfo
DatasetManager::info(const std::string &name) const
{
    const Entry &e = entry(name);
    DatasetInfo out{};
    out.name = name;
    out.bytes = e.bytes;
    out.carts = e.carts;

    std::size_t stored = 0, docked = 0;
    for (CartId id : e.carts) {
        const Cart &c = controller_.library().cart(id);
        if (c.place() == CartPlace::Library &&
            c.state() == CartState::Stored) {
            ++stored;
        } else if (c.place() == CartPlace::Rack &&
                   (c.state() == CartState::Docked ||
                    c.state() == CartState::Busy)) {
            ++docked;
        }
    }
    if (stored == e.carts.size())
        out.placement = DatasetPlacement::Library;
    else if (docked == e.carts.size())
        out.placement = DatasetPlacement::Staged;
    else if (stored + docked == e.carts.size())
        out.placement = DatasetPlacement::Mixed;
    else
        out.placement = DatasetPlacement::InTransit;
    return out;
}

void
DatasetManager::stage(const std::string &name, Done done,
                      const RequestMeta &meta)
{
    const Entry &e = entry(name);
    // Staged means every cart docked at once; with fewer stations than
    // carts the later opens could never dispatch (the earlier carts
    // hold their stations until unstage), deadlocking the request.
    if (e.carts.size() > controller_.numStations())
        fatal("dataset '" + name + "' spans " +
              std::to_string(e.carts.size()) +
              " carts but the rack has only " +
              std::to_string(controller_.numStations()) +
              " docking stations; add stations or split the dataset");
    auto pending = std::make_shared<std::size_t>(e.carts.size());
    for (CartId id : e.carts) {
        controller_.open(id, meta,
                         [pending, done](Cart &, DockingStation &) {
                             if (--*pending == 0 && done)
                                 done();
                         });
    }
}

void
DatasetManager::unstage(const std::string &name, Done done)
{
    const Entry &e = entry(name);
    auto pending = std::make_shared<std::size_t>(e.carts.size());
    for (CartId id : e.carts) {
        controller_.close(id, [pending, done](Cart &) {
            if (--*pending == 0 && done)
                done();
        });
    }
}

void
DatasetManager::readAll(const std::string &name, ReadDone done)
{
    const Entry &e = entry(name);
    const DatasetInfo inf = info(name);
    if (inf.placement != DatasetPlacement::Staged)
        fatal("dataset '" + name + "' is not fully staged (" +
              to_string(inf.placement) + ")");

    auto pending = std::make_shared<std::size_t>(e.carts.size());
    auto total = std::make_shared<double>(0.0);
    for (CartId id : e.carts) {
        const Cart &c = controller_.library().cart(id);
        controller_.read(id, c.storedBytes(),
                         [pending, total, done](double bytes) {
                             *total += bytes;
                             if (--*pending == 0 && done)
                                 done(*total);
                         });
    }
}

double
DatasetManager::totalBytes() const
{
    // Sum in sorted-name order: datasets_ is an unordered_map, and a
    // float accumulation in hash order would not be reproducible
    // across library implementations.
    std::vector<std::string> names;
    names.reserve(datasets_.size());
    for (const auto &[name, e] : datasets_)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    double total = 0.0;
    for (const auto &name : names)
        total += datasets_.at(name).bytes;
    return total;
}

} // namespace core
} // namespace dhl
