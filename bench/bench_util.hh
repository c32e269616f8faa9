/**
 * @file
 * Shared fixture for the evaluation benches: builds the TPC-H database
 * at the configured scale factor (env::scaleFactor(), AQUOMAN_SF), runs
 * queries through both paths, and extrapolates the machine-independent
 * traces to the paper's SF-1000 operating point so that Fig. 16-style
 * numbers land in the same regime the paper reports.
 */

#ifndef AQUOMAN_BENCH_BENCH_UTIL_HH
#define AQUOMAN_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aquoman/device.hh"
#include "aquoman/perf_model.hh"
#include "common/env_options.hh"
#include "obs/cli_args.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "tpch/dbgen.hh"
#include "tpch/queries.hh"

namespace aquoman::bench {

/**
 * Exit 2 printing "<bench>: <fault>" when the bench's command line
 * @p a (obs::parseArgs) holds a fault. Call it after reading integer
 * flags, whose faults are recorded as they are read.
 */
inline void
exitOnArgError(const obs::Args &a, const char *prog)
{
    if (a.error.empty())
        return;
    std::fprintf(stderr, "%s: %s\n", prog, a.error.c_str());
    std::exit(2);
}

/** The TPC-H fixture shared by the figure benches. */
struct Fixture
{
    double sf;
    tpch::TpchDatabase db;
    FlashDevice flash;
    ControllerSwitch sw;
    TableStore store;
    Catalog catalog;

    explicit Fixture(double sf_)
        : sf(sf_),
          db(tpch::TpchDatabase::generate(
              tpch::TpchConfig{sf_, 19920101})),
          flash(flashConfig()), sw(flash), store(sw)
    {
        db.installInto(catalog, store);
    }

    static FlashConfig
    flashConfig()
    {
        FlashConfig fc;
        fc.capacityBytes = 32ll << 30;
        return fc;
    }

    /**
     * AQUOMAN configuration whose capacity parameters are scaled from
     * the paper's 1TB operating point down to this fixture's data
     * size, so DRAM-overflow behaviour (Sec. VI-E cond. 4) reproduces.
     */
    AquomanConfig
    scaledDevice(std::int64_t paper_dram_bytes) const
    {
        AquomanConfig cfg;
        double ratio = sf / 1000.0;
        cfg.dramBytes = static_cast<std::int64_t>(
            static_cast<double>(paper_dram_bytes) * ratio);
        cfg.sorterBlockBytes = std::max<std::int64_t>(
            4096,
            static_cast<std::int64_t>((1ll << 30) * ratio));
        return cfg;
    }

    EngineMetrics
    baselineMetrics(int q)
    {
        Executor ex(catalog, &sw);
        ex.run(tpch::tpchQuery(q, sf));
        return ex.metrics();
    }

    OffloadedQueryResult
    offload(int q, const AquomanConfig &cfg)
    {
        AquomanDevice device(catalog, sw, cfg);
        return device.runQuery(tpch::tpchQuery(q, sf));
    }
};

/** Scale a machine-independent trace linearly to SF-1000. */
inline EngineMetrics
scaleMetrics(const EngineMetrics &m, double sf)
{
    double k = 1000.0 / sf;
    EngineMetrics out = m;
    out.rowOps *= k;
    out.seqRowOps *= k;
    out.flashBytesRead = static_cast<std::int64_t>(m.flashBytesRead * k);
    out.touchedBaseBytes =
        static_cast<std::int64_t>(m.touchedBaseBytes * k);
    out.peakIntermediateBytes =
        static_cast<std::int64_t>(m.peakIntermediateBytes * k);
    out.totalIntermediateBytes =
        static_cast<std::int64_t>(m.totalIntermediateBytes * k);
    out.hostFinishBytes =
        static_cast<std::int64_t>(m.hostFinishBytes * k);
    return out;
}

/**
 * Scale a device trace linearly to SF-1000. The Table-Task ledger is
 * scaled per stage component and the totals recomputed from it, so the
 * exact-sum invariants the profiler audits (per-task stage seconds sum
 * to task seconds; task seconds sum to deviceSeconds; task flash bytes
 * partition deviceFlashBytes) survive scaling bitwise.
 */
inline AquomanRunStats
scaleStats(const AquomanRunStats &s, double sf)
{
    double k = 1000.0 / sf;
    AquomanRunStats out = s;
    if (out.tasks.empty()) {
        out.deviceSeconds *= k;
        out.deviceFlashBytes =
            static_cast<std::int64_t>(s.deviceFlashBytes * k);
    } else {
        out.deviceSeconds = 0.0;
        out.deviceFlashBytes = 0;
        for (TableTaskRecord &t : out.tasks) {
            for (int i = 0; i < obs::kNumPipeStages; ++i)
                t.stages.sec[i] *= k;
            t.seconds = t.stages.total();
            t.flashBytes =
                static_cast<std::int64_t>(t.flashBytes * k);
            if (t.rowsIn >= 0)
                t.rowsIn = static_cast<std::int64_t>(t.rowsIn * k);
            if (t.rowsOut >= 0)
                t.rowsOut = static_cast<std::int64_t>(t.rowsOut * k);
            out.deviceSeconds += t.seconds;
            out.deviceFlashBytes += t.flashBytes;
        }
    }
    out.deviceDramPeak = static_cast<std::int64_t>(s.deviceDramPeak * k);
    out.spillRows = static_cast<std::int64_t>(s.spillRows * k);
    out.spillGroups = static_cast<std::int64_t>(s.spillGroups * k);
    out.dmaBytes = static_cast<std::int64_t>(s.dmaBytes * k);
    out.hostResidual = scaleMetrics(s.hostResidual, sf);
    return out;
}

/** Print a section header. */
inline void
header(const std::string &title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title.c_str());
}

/** Wall-clock seconds since construction (real time, not modelled). */
class WallTimer
{
  public:
    WallTimer() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * Write the bench's --json report:
 *   {"records": [...], "histograms": {...}, "trace": {...}}
 * @p records writes the records, one flat object each: numeric fields
 * (`aqreport gate` compares the modelled_* ones exactly) followed by
 * any nested values (profiles, histograms, port ledgers). The trace
 * section reflects the global SimTracer (enabled flag, the
 * AQUOMAN_TRACE path if any, and the event count). Returns false (with
 * a message) when the file can't be written.
 */
inline bool
writeJsonReport(
    const std::string &path,
    const std::function<void(obs::JsonWriter &)> &records,
    const std::vector<std::pair<std::string, obs::Histogram>> &histograms
        = {})
{
    return obs::writeJsonFile(path, [&](obs::JsonWriter &w) {
        w.beginObject().key("records").beginArray();
        records(w);
        w.endArray().key("histograms").beginObject();
        for (const auto &[name, h] : histograms) {
            w.key(name);
            h.toJson(w);
        }
        const obs::SimTracer &tracer = obs::SimTracer::global();
        w.endObject().key("trace").beginObject();
        w.key("enabled").boolean(tracer.enabled());
        w.key("path").string(tracer.envPath());
        w.key("events").integer(tracer.eventCount()).endObject();
        w.endObject();
    });
}

/** One numeric column of a bench results table. */
struct TableColumn
{
    std::string header;
    int width = 10;
    int precision = 1;
};

/**
 * Fixed-width results-table printer shared by the figure benches: a
 * left-justified label column, numeric columns with per-column width
 * and precision, and an optional trailing text column.
 */
class StatTable
{
  public:
    StatTable(int label_width, std::vector<TableColumn> columns,
              int trailer_width = 0)
        : labelWidth(label_width), cols(std::move(columns)),
          trailerWidth(trailer_width)
    {
    }

    void
    printHeader(const std::string &label_header,
                const std::string &trailer_header = "") const
    {
        std::printf("%-*s", labelWidth, label_header.c_str());
        for (const TableColumn &c : cols)
            std::printf(" %*s", c.width, c.header.c_str());
        if (trailerWidth > 0)
            std::printf(" %*s", trailerWidth, trailer_header.c_str());
        std::printf("\n");
    }

    void
    printRow(const std::string &label, const std::vector<double> &vals,
             const std::string &trailer = "") const
    {
        std::printf("%-*s", labelWidth, label.c_str());
        for (std::size_t i = 0; i < vals.size() && i < cols.size(); ++i)
            std::printf(" %*.*f", cols[i].width, cols[i].precision,
                        vals[i]);
        if (trailerWidth > 0)
            std::printf(" %*s", trailerWidth, trailer.c_str());
        std::printf("\n");
    }

  private:
    int labelWidth;
    std::vector<TableColumn> cols;
    int trailerWidth;
};

} // namespace aquoman::bench

#endif // AQUOMAN_BENCH_BENCH_UTIL_HH
