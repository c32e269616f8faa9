/**
 * @file
 * The paper's Fig. 4/5 join example: total shoe sales after a date,
 * computed as an in-storage two-table join.
 *
 *   SELECT sum(price) AS shoe_sales
 *   FROM inventory ti, sales_transactions ts
 *   WHERE ti.invtID = ts.invtID
 *     AND ti.category = 'Shoes'
 *     AND ts.saledate > '2018-03-15';
 *
 * Shows the Table-Task decomposition the device derives (Fig. 5) and
 * how the join runs through the RowID-probe / merger machinery.
 */

#include <cstdio>
#include <memory>

#include "aquoman/device.hh"
#include "aquoman/query_profile.hh"
#include "common/rng.hh"

using namespace aquoman;

int
main()
{
    FlashConfig fc;
    fc.capacityBytes = 1ll << 30;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);
    Catalog catalog;

    // inventory: items with categories; invtID is a dense primary key,
    // which lets AQUOMAN use the materialised-RowID join optimisation.
    auto inventory = std::make_shared<Table>("inventory");
    {
        auto &ik = inventory->addColumn("invtID", ColumnType::Int64);
        auto &cat = inventory->addColumn("category",
                                         ColumnType::Varchar);
        auto &name = inventory->addColumn("productname",
                                          ColumnType::Varchar);
        const char *cats[] = {"Shoes", "Hats", "Coats", "Socks"};
        Rng rng(1);
        for (int i = 1; i <= 5000; ++i) {
            ik.push(i);
            inventory->pushString(cat, cats[rng.uniform(0, 3)]);
            inventory->pushString(name,
                                  "item-" + std::to_string(i));
        }
        ik.setSorted(true);
    }

    auto sales = std::make_shared<Table>("sales_transactions");
    {
        auto &tid = sales->addColumn("transactionID", ColumnType::Int64);
        auto &item = sales->addColumn("invtID", ColumnType::Int64);
        auto &sdate = sales->addColumn("saledate", ColumnType::Date);
        auto &price = sales->addColumn("price", ColumnType::Decimal);
        Rng rng(2);
        for (int i = 0; i < 200000; ++i) {
            tid.push(i);
            item.push(rng.uniform(1, 5000));
            sdate.push(parseDate("2018-01-01")
                       + static_cast<std::int32_t>(rng.uniform(0, 364)));
            price.push(rng.uniform(500, 20000));
        }
        tid.setSorted(true);
    }

    catalog.put(inventory, store.store(inventory));
    catalog.get("inventory").densePrimaryKey = "invtID";
    catalog.put(sales, store.store(sales));
    catalog.get("sales_transactions").densePrimaryKey = "transactionID";
    catalog.get("sales_transactions").fkRowIdTargets["invtID"] =
        "inventory";

    auto plan = groupBy(
        join(JoinType::Inner,
             filter(scan("sales_transactions",
                         "", {"invtID", "saledate", "price"}),
                    gt(col("saledate"), litDate("2018-03-15"))),
             filter(scan("inventory", "ti", {"invtID", "category"}),
                    eq(col("ti.category"), litStr("Shoes"))),
             {"invtID"}, {"ti.invtID"}),
        {}, {{"shoe_sales", AggKind::Sum, col("price")}});
    Query query{"fig4_join", {{"out", plan}}};

    Executor engine(catalog, &sw);
    RelTable base = engine.run(query);

    AquomanDevice device(catalog, sw, AquomanConfig::paper40());
    OffloadedQueryResult off = device.runQuery(query);

    std::printf("shoe_sales (baseline): %s\n",
                decimalToString(base.col("shoe_sales").get(0)).c_str());
    std::printf("shoe_sales (AQUOMAN):  %s\n",
                decimalToString(off.result.col("shoe_sales").get(0))
                    .c_str());

    std::printf("\nTable-Task program (compare with the paper's "
                "Fig. 5):\n");
    for (const TableTaskRecord &t : off.stats.tasks)
        std::printf("  %s\n", describeTask(t).c_str());

    std::printf("\ndevice DRAM peak: %.1f KB (row masks + RowIDs "
                "only); flash streamed: %.1f MB\n",
                off.stats.deviceDramPeak / 1024.0,
                off.stats.deviceFlashBytes / 1e6);
    bool same = base.col("shoe_sales").get(0)
        == off.result.col("shoe_sales").get(0);
    return same ? 0 : 1;
}
