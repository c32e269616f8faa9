/**
 * @file
 * Reproduces the Sec. VI-E / VIII-B offload behaviour table: per query,
 * whether it ran fully on AQUOMAN, suspended at a mid-plan aggregate,
 * or stayed on the host (regex over a large string heap); plus the
 * spill-over summary ("seven queries caused spillovers; only Q18's was
 * significant") and the Table-Task log of a representative query.
 */

#include <cstdio>

#include "aquoman/query_profile.hh"
#include "bench_util.hh"

using namespace aquoman;
using namespace aquoman::bench;

int
main()
{
    double sf = env::scaleFactor();
    Fixture fx(sf);
    HostModel host(HostConfig::large());
    header("Offload classification (paper: 14 full / {11,17,18,22} "
           "suspended / {9,13,16,20} host-only)");

    std::printf("%-5s %-8s %10s %12s %12s  %s\n", "query", "class",
                "dev stages", "host stages", "spill grps",
                "first host reason");
    int spilling = 0;
    for (int q : tpch::allQueryNumbers()) {
        EngineMetrics base = fx.baselineMetrics(q);
        OffloadedQueryResult r = fx.offload(q, fx.scaledDevice(40ll << 30));
        SystemEvaluation ev = evaluateOffload(base, r.stats, host);
        spilling += r.stats.spillGroups > 0;
        std::printf("q%-4d %-8s %10zu %12zu %12lld  %s\n", q,
                    offloadClassName(ev.offloadClass),
                    r.stats.deviceStages.size(),
                    r.stats.suspensions.size(),
                    static_cast<long long>(r.stats.spillGroups),
                    r.stats.suspensions.empty()
                        ? "-"
                        : r.stats.suspensions[0].detail.substr(0, 60)
                              .c_str());
    }
    std::printf("\n%d queries caused Aggregate Group-By spill-overs at "
                "this scale (paper: 7 at SF-1000, Q18 dominant).\n",
                spilling);

    header("Table-Task program of q6 (paper Fig. 5 style)");
    OffloadedQueryResult q6 = fx.offload(6, fx.scaledDevice(40ll << 30));
    for (const TableTaskRecord &t : q6.stats.tasks)
        std::printf("  %s\n", describeTask(t).c_str());
    return 0;
}
