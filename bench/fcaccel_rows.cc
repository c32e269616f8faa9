/**
 * @file
 * Reproduces the Sec. VIII-D rows/second comparison against FCAccel:
 * AQUOMAN sustains ~100.5M rows/s on the filter-and-aggregate q6 and
 * ~69M rows/s on the transform-heavy q1 (2.5x FCAccel's 27M rows/s,
 * thanks to the systolic Row Transformer).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace aquoman;
using namespace aquoman::bench;

int
main()
{
    double sf = env::scaleFactor();
    Fixture fx(sf);
    header("Sec VIII-D: AQUOMAN vs FCAccel throughput (M rows/s)");

    std::int64_t lineitem_rows = fx.db.lineitem->numRows();
    struct Ref { int q; double aq_paper; double fcaccel; };
    for (Ref ref : {Ref{6, 100.5, 111.0}, Ref{1, 69.0, 27.0}}) {
        OffloadedQueryResult r =
            fx.offload(ref.q, fx.scaledDevice(40ll << 30));
        double mrows = lineitem_rows / r.stats.deviceSeconds / 1e6;
        std::printf("q%-3d measured %6.1f M rows/s | paper AQUOMAN "
                    "%6.1f | FCAccel %6.1f\n",
                    ref.q, mrows, ref.aq_paper, ref.fcaccel);
    }
    std::printf("\npaper shape check: q6 runs near flash line rate; "
                "q1's extra row-transform work lowers rows/s but stays "
                "well above FCAccel's multi-cycle design.\n");
    return 0;
}
