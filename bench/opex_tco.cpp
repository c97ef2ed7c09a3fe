/**
 * @file
 * Experiment E14 (beyond-paper) — total cost of ownership: extends the
 * paper's Table VIII capex argument ("a DHL costs about one large
 * 400 Gbit/s switch") with the energy opex of a recurring bulk-transfer
 * duty, per DHL configuration and per route class.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/units.hpp"
#include "cost/opex.hpp"

using namespace dhl;
using namespace dhl::cost;
namespace u = dhl::units;

namespace {

/** A dollar cell.  Appended, not `"$" + cell(...)`: GCC 12 at -O3
 *  reports a false -Wrestrict overlap inside that operator+. */
std::string
dollars(double value, int significant_digits)
{
    std::string s = "$";
    s += cell(value, significant_digits);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool csv = bench::wantCsv(argc, argv);
    if (!csv) {
        bench::banner("E14 (TCO extension of Table VIII)",
                      "capex + 5-year energy opex for a 4x2 PB/day "
                      "backup duty");
    }

    TcoModel model;
    TransferDuty duty{};
    duty.bytes_per_transfer = u::petabytes(2);
    duty.transfers_per_day = 4.0;
    duty.years = 5.0;

    TextTable table({"DHL config", "vs route", "DHL capex", "DHL opex/yr",
                     "DHL 5yr total", "Net capex", "Net opex/yr",
                     "Net 5yr total", "Payback"});

    const std::vector<core::DhlConfig> cfgs = {
        core::makeConfig(100, 500, 64), // most efficient
        core::defaultConfig(),
        core::makeConfig(300, 1000, 64), // fastest, longest
    };
    for (const auto &cfg : cfgs) {
        for (const char *route : {"A0", "B", "C"}) {
            const auto cmp =
                model.compare(cfg, network::findRoute(route), duty);
            table.addRow(
                {cfg.label(), route, dollars(cmp.dhl.capex, 5),
                 dollars(cmp.dhl.opex_per_year, 4),
                 dollars(cmp.dhl.total, 5), dollars(cmp.network.capex, 5),
                 dollars(cmp.network.opex_per_year, 4),
                 dollars(cmp.network.total, 5),
                 cmp.payback_days == 0.0
                     ? "immediate"
                     : cell(cmp.payback_days, 4) + " days"});
        }
        if (!csv)
            table.addSeparator();
    }
    bench::emit(table, csv);

    if (!csv) {
        std::cout << "\nReading: at $0.10/kWh the network's energy bill "
                     "for this duty runs hundreds to thousands of "
                     "dollars a year; the DHL's runs cents to a few "
                     "dollars.  Since the DHL build (Table VIII) is "
                     "also at or below the switch's price, payback is "
                     "immediate in the default setup.\n";
    }
    return 0;
}
