/**
 * @file
 * Quickstart: the paper's Fig. 1 running example end to end.
 *
 * Builds a small sales database, loads it onto the simulated flash
 * device, runs the aggregate query
 *
 *   SELECT department,
 *          sum(price*(1-discount))         AS netsale,
 *          sum(price*(1-discount)*(1+tax)) AS revenue
 *   FROM sales_transactions
 *   WHERE saledate <= '2018-12-01'
 *   GROUP BY department;
 *
 * on the software baseline and on the AQUOMAN device, and shows that
 * the answers agree while the device does the work in-storage.
 */

#include <cstdio>
#include <memory>

#include "aquoman/device.hh"
#include "aquoman/query_profile.hh"
#include "aquoman/perf_model.hh"
#include "common/rng.hh"

using namespace aquoman;

namespace {

std::shared_ptr<Table>
makeSalesTable()
{
    auto t = std::make_shared<Table>("sales_transactions");
    auto &tid = t->addColumn("transactionID", ColumnType::Int64);
    auto &dept = t->addColumn("department", ColumnType::Varchar);
    auto &sdate = t->addColumn("saledate", ColumnType::Date);
    auto &price = t->addColumn("price", ColumnType::Decimal);
    auto &disc = t->addColumn("discount", ColumnType::Decimal);
    auto &tax = t->addColumn("tax", ColumnType::Decimal);
    const char *departments[] = {"toys", "garden", "electronics",
                                 "books"};
    Rng rng(2018);
    for (int i = 0; i < 50000; ++i) {
        tid.push(i);
        t->pushString(dept, departments[rng.uniform(0, 3)]);
        sdate.push(parseDate("2018-01-01")
                   + static_cast<std::int32_t>(rng.uniform(0, 420)));
        price.push(rng.uniform(100, 50000));   // 1.00 .. 500.00
        disc.push(rng.uniform(0, 10));
        tax.push(rng.uniform(0, 8));
    }
    return t;
}

} // namespace

int
main()
{
    // 1. A simulated 1GB flash device with its controller switch.
    FlashConfig fc;
    fc.capacityBytes = 1ll << 30;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);

    // 2. Load the database onto flash and register it.
    Catalog catalog;
    auto sales = makeSalesTable();
    catalog.put(sales, store.store(sales));
    catalog.get("sales_transactions").densePrimaryKey = "transactionID";

    // 3. Express the query as a plan (Fig. 1's dataflow).
    auto netsale = mul(col("price"), sub(litDec("1.00"),
                                         col("discount")));
    auto plan = orderBy(
        groupBy(project(filter(scan("sales_transactions"),
                               le(col("saledate"),
                                  litDate("2018-12-01"))),
                        {{"department", col("department")},
                         {"netsale_in", netsale},
                         {"revenue_in",
                          mul(netsale, add(litDec("1.00"),
                                           col("tax")))}}),
                {"department"},
                {{"netsale", AggKind::Sum, col("netsale_in")},
                 {"revenue", AggKind::Sum, col("revenue_in")}}),
        {{"department", false}});
    Query query{"fig1_aggregate", {{"out", plan}}};

    // 4. Baseline: the software engine (the "MonetDB" role).
    Executor engine(catalog, &sw);
    RelTable base = engine.run(query);

    // 5. Offloaded: the AQUOMAN device executes Table Tasks in-storage.
    AquomanDevice device(catalog, sw, AquomanConfig::paper40());
    OffloadedQueryResult off = device.runQuery(query);

    std::printf("department      netsale        revenue\n");
    for (std::int64_t r = 0; r < off.result.numRows(); ++r) {
        std::printf("%-12s %10s %14s\n",
                    std::string(off.result.col("department").str(r))
                        .c_str(),
                    decimalToString(off.result.col("netsale").get(r))
                        .c_str(),
                    decimalToString(off.result.col("revenue").get(r))
                        .c_str());
    }

    bool same = base.numRows() == off.result.numRows();
    for (std::int64_t r = 0; same && r < base.numRows(); ++r)
        same = base.col("netsale").get(r)
            == off.result.col("netsale").get(r);
    std::printf("\nbaseline and AQUOMAN answers agree: %s\n",
                same ? "yes" : "NO");

    std::printf("\nWhat the device did:\n");
    for (const TableTaskRecord &t : off.stats.tasks)
        std::printf("  %s\n", describeTask(t).c_str());
    std::printf("\ndevice flash traffic: %.1f MB; host residual work: "
                "%.0f row-ops (just the final sort)\n",
                off.stats.deviceFlashBytes / 1e6,
                off.stats.hostResidual.rowOps);
    return same ? 0 : 1;
}
