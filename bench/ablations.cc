/**
 * @file
 * Ablation benches for the design choices DESIGN.md calls out:
 *  1. Column Predicate Evaluator count — the paper claims 4-6 CPEs
 *     cover most TPC-H filter predicates (Sec. VI-A);
 *  2. Aggregate Group-By bucket count — spill-over sensitivity;
 *  3. Device DRAM capacity — which queries suspend (generalising the
 *     AQUOMAN16 experiment);
 *  4. Sorter merge fan-in — streaming-sorter DRAM/throughput trade.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "aquoman/swissknife/groupby.hh"
#include "aquoman/swissknife/streaming_sorter.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

using namespace aquoman;
using namespace aquoman::bench;

namespace {

/** Count selector-eligible conjuncts of every filter in a plan. */
void
countSelectorPredicates(const PlanPtr &p, std::vector<int> &out)
{
    if (!p)
        return;
    if (p->kind == PlanKind::Filter) {
        // Split top-level AND; single-column compares are CPE work.
        std::vector<ExprPtr> stack{p->predicate};
        int eligible = 0;
        while (!stack.empty()) {
            ExprPtr e = stack.back();
            stack.pop_back();
            if (e->kind == ExprKind::Logic
                    && e->logicOp == LogicOp::And) {
                stack.push_back(e->children[0]);
                stack.push_back(e->children[1]);
                continue;
            }
            std::vector<std::string> cols;
            collectColumns(e, cols);
            if (cols.size() == 1 && (e->kind == ExprKind::Compare
                                     || e->kind == ExprKind::InList))
                ++eligible;
        }
        out.push_back(eligible);
    }
    for (const auto &c : p->children)
        countSelectorPredicates(c, out);
}

} // namespace

int
main()
{
    double sf = env::scaleFactor();
    Fixture fx(sf);

    // ------------------------------------------------------------ 1
    header("Ablation 1: Column Predicate Evaluators needed per TPC-H "
           "filter (paper: 4-6 suffice)");
    std::map<int, int> histogram;
    int max_needed = 0;
    for (int q : tpch::allQueryNumbers()) {
        Query query = tpch::tpchQuery(q, sf);
        std::vector<int> counts;
        for (const auto &st : query.stages)
            countSelectorPredicates(st.plan, counts);
        for (int c : counts) {
            histogram[c]++;
            max_needed = std::max(max_needed, c);
        }
    }
    for (const auto &[preds, filters] : histogram)
        std::printf("  %d CPE predicate(s): %d filter(s)\n", preds,
                    filters);
    std::printf("  max simultaneous CPE predicates: %d (paper: 4-6 "
                "evaluators are enough)\n", max_needed);

    // ------------------------------------------------------------ 2
    header("Ablation 2: Aggregate Group-By buckets vs spill-over "
           "(100k-group stream)");
    for (int buckets : {256, 1024, 4096, 16384, 65536}) {
        AquomanConfig cfg;
        cfg.groupByBuckets = buckets;
        GroupByAccelerator gb(cfg, 1, {HwAgg::Sum});
        Rng rng(13);
        for (int i = 0; i < 200000; ++i)
            gb.update({rng.uniform(0, 99999)}, {1});
        std::printf("  %6d buckets: %6.2f%% rows spilled, %lld "
                    "spill groups\n",
                    buckets,
                    100.0 * gb.stats().rowsSpilled / gb.stats().rowsIn,
                    static_cast<long long>(gb.stats().groupsSpilled));
    }

    // ------------------------------------------------------------ 3
    header("Ablation 3: device DRAM capacity vs suspensions "
           "(generalised AQUOMAN16 experiment)");
    for (std::int64_t gbytes : {4, 16, 40, 128}) {
        AquomanConfig cfg = fx.scaledDevice(gbytes << 30);
        // Queries are independent; fan them across the pool and sum
        // their per-query counts in query order.
        std::vector<int> queries = tpch::allQueryNumbers();
        std::vector<int> counts(queries.size(), 0);
        parallelFor(0, static_cast<std::int64_t>(queries.size()), 1,
                    [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
                OffloadedQueryResult r = fx.offload(queries[i], cfg);
                counts[i] = r.stats.suspendedDram;
            }
        });
        int suspended = 0;
        for (int c : counts)
            suspended += c;
        std::printf("  %4lldGB device DRAM: %d quer%s hit the DRAM "
                    "suspension (paper: 4 at 16GB, 0 at 40GB)\n",
                    static_cast<long long>(gbytes), suspended,
                    suspended == 1 ? "y" : "ies");
    }

    // ------------------------------------------------------------ 4
    header("Ablation 4: sorter merge fan-in vs modelled throughput "
           "(100GB random input)");
    for (int fan : {16, 64, 256, 1024}) {
        AquomanConfig cfg;
        cfg.sorterMergeFanIn = fan;
        StreamingSorter sorter(cfg);
        double bytes = 100.0 * (1ll << 30);
        double secs = sorter.modelSeconds(
            static_cast<std::int64_t>(bytes), 1.0, false);
        std::printf("  fan-in %5d: %5.1f GB/s (merge tree depth %s)\n",
                    fan, bytes / secs / 1e9,
                    fan >= 256 ? "3 layers" : ">3 layers");
    }
    return 0;
}
