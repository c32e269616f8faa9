/**
 * @file
 * TPC-H demo: generates the benchmark database at a small scale factor
 * (argv[1], default 0.01), loads it onto the simulated AQUOMAN SSD and
 * runs a chosen query (argv[2], default 5) through both execution
 * paths, printing the answer, the offload decision and the performance
 * trace. Run e.g.
 *
 *     ./tpch_offload 0.02 17
 *
 * to watch a suspended query split between device and host.
 */

#include <cstdio>
#include <cstdlib>

#include "aquoman/device.hh"
#include "aquoman/query_profile.hh"
#include "aquoman/perf_model.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

using namespace aquoman;

int
main(int argc, char **argv)
{
    double sf = argc > 1 ? std::atof(argv[1]) : 0.01;
    int qnum = argc > 2 ? std::atoi(argv[2]) : 5;

    std::printf("generating TPC-H SF %.3f ...\n", sf);
    tpch::TpchConfig cfg;
    cfg.scaleFactor = sf;
    auto db = tpch::TpchDatabase::generate(cfg);

    FlashConfig fc;
    fc.capacityBytes = 32ll << 30;
    FlashDevice flash(fc);
    ControllerSwitch sw(flash);
    TableStore store(sw);
    Catalog catalog;
    db.installInto(catalog, store);
    std::printf("loaded %.1f MB of column files onto flash\n",
                db.storedBytes() / 1e6);

    Query query = tpch::tpchQuery(qnum, sf);
    std::printf("\nquery plan:\n%s\n", queryToString(query).c_str());

    Executor engine(catalog, &sw);
    RelTable base = engine.run(query);

    AquomanDevice device(catalog, sw, AquomanConfig::paper40());
    OffloadedQueryResult off = device.runQuery(query);

    std::printf("answer (%lld row(s), first 5 shown):\n",
                static_cast<long long>(off.result.numRows()));
    for (std::int64_t r = 0; r < std::min<std::int64_t>(5,
             off.result.numRows()); ++r) {
        std::printf("  ");
        for (int c = 0; c < off.result.numColumns(); ++c) {
            const RelColumn &col = off.result.col(c);
            if (col.type == ColumnType::Varchar)
                std::printf("%s ", std::string(col.str(r)).c_str());
            else if (col.type == ColumnType::Decimal)
                std::printf("%s ", decimalToString(col.get(r)).c_str());
            else
                std::printf("%lld ",
                            static_cast<long long>(col.get(r)));
        }
        std::printf("\n");
    }
    std::printf("baseline row count matches: %s\n",
                base.numRows() == off.result.numRows() ? "yes" : "NO");

    std::printf("\noffload decision per stage:\n");
    for (const auto &s : off.stats.deviceStages)
        std::printf("  [device] %s\n", s.c_str());
    for (const StageSuspension &s : off.stats.suspensions)
        std::printf("  [host]   %s  (%s)\n", s.stage.c_str(),
                    s.detail.c_str());

    std::printf("\nTable-Task log:\n");
    for (const TableTaskRecord &t : off.stats.tasks)
        std::printf("  %s\n", describeTask(t).c_str());

    HostModel host(HostConfig::large());
    SystemEvaluation ev = evaluateOffload(engine.metrics(), off.stats,
                                          host);
    std::printf("\nsystem model (host L): baseline %.3fs, offloaded "
                "%.3fs (%.0f%% on device), CPU saving %.0f%%, class "
                "%s\n",
                ev.baseline.runtime, ev.offloadRuntime,
                100.0 * ev.offloadFraction, 100.0 * ev.cpuSaving,
                offloadClassName(ev.offloadClass));
    return 0;
}
