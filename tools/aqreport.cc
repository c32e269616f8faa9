/**
 * @file
 * aqreport: one CLI over the JSON reports the benches write, sharing
 * one reader and one structural diff (report_core.hh).
 *
 *   aqreport gate <baseline.json> <candidate.json>
 *                 [--wall-threshold-pct P] [--model-tolerance T]
 *                 [--flash-bytes-threshold-pct P] [--verbose]
 *       Bench regression gate over two BENCH_*.json reports
 *       (writeJsonReport format). Per record pair matched on the
 *       composed identity key (query / devices / tenant / overload /
 *       fifo):
 *        - wall_seconds: real time, inherently noisy. The gate is the
 *          geometric mean of candidate/baseline ratios over all matched
 *          records; it fails when the geomean exceeds 1 + threshold
 *          (--wall-threshold-pct, default 10).
 *        - modelled_* fields: machine-independent simulator output that
 *          must be bit-stable. Any relative drift beyond
 *          --model-tolerance (default 0, exact) fails the gate.
 *        - flash_bytes: modelled bytes streamed off flash. Geomean gate
 *          over records carrying the field on both sides
 *          (--flash-bytes-threshold-pct, default 0 — any net bytes-read
 *          regression fails). Baselines predating the field simply
 *          contribute no samples.
 *        - record coverage: a baseline record key with no candidate
 *          match fails, naming the key and the side it is missing from;
 *          candidate-only keys are informational notes.
 *       --verbose additionally prints every matched record's wall ratio
 *       (worst first) even when the gate passes.
 *
 *   aqreport diff <baseline.json> <candidate.json> [--tolerance T]
 *       Structural diff of two documents (--slo-report timelines,
 *       anatomy --json summaries). Every missing member is named with
 *       the side it is missing from; numeric leaves compare exactly
 *       unless --tolerance (relative) is given.
 *
 *   aqreport slo <report.json>
 *       Pretty-print a --slo-report file from bench/service_workload:
 *       per-run, per-tenant totals, windowed latency quantiles, burn
 *       rates, error-budget consumption and burn-rate alert firings.
 *
 *   aqreport anatomy <anatomy.json> [--report <bench.json>] [--top K]
 *                    [--json <out.json>]
 *       Validate an --anatomy file from bench/service_workload, then
 *       print per run the wait-class breakdown, the blame matrix and
 *       the top-K slowest queries' critical paths. Invariants (exit 1
 *       when any fails):
 *        - exact wait partition: each query's wait-class seconds sum —
 *          in fixed class order, on the parsed doubles — to
 *          done_seconds - submit_seconds bitwise (shed: all-zero);
 *        - blame row sums equal tenant_contention_seconds per tenant;
 *        - per-run wait_totals match the per-class sums over the
 *          queries (ulp-tolerant: the two sides accumulate in different
 *          orders);
 *        - critical paths tile [submit, done] contiguously (when
 *          segment collection was enabled).
 *       With --report, also cross-check against the bench's own --json
 *       report: the p99 recomputed from per-query latencies must
 *       reproduce modelled_p99_latency_seconds, and the modelled_wait_*
 *       / contention fields must equal the anatomy's aggregates
 *       exactly. --json writes a deterministic summary for `diff`.
 *
 * Numeric flag values must be JSON numbers (--top a non-negative
 * integer); a malformed value, a missing value or an unknown flag is a
 * usage error.
 *
 * Exit codes: 0 pass / identical, 1 regression, differences or check
 * failure, 2 usage or parse error.
 */

#include "report_core.hh"

#include <cstdio>
#include <string>
#include <vector>

#include "obs/cli_args.hh"
#include "obs/latency_anatomy.hh"
#include "obs/metrics.hh"

using namespace aquoman;
using namespace aquoman::tools;
using obs::Args;
using obs::jsonNumber;
using obs::kNumWaitClasses;
using obs::percentile;

namespace {

const char kUsage[] =
    "usage: aqreport gate <baseline.json> <candidate.json>\n"
    "                     [--wall-threshold-pct P] [--model-tolerance T]\n"
    "                     [--flash-bytes-threshold-pct P] [--verbose]\n"
    "       aqreport diff <baseline.json> <candidate.json> "
    "[--tolerance T]\n"
    "       aqreport slo <report.json>\n"
    "       aqreport anatomy <anatomy.json> [--report <bench.json>]\n"
    "                        [--top K] [--json <out.json>]\n";

/** Print "aqreport: @p msg" to stderr; returns exit code 2. */
int
fatal(const std::string &msg)
{
    std::fprintf(stderr, "aqreport: %s\n", msg.c_str());
    return 2;
}

int
usage(const std::string &msg)
{
    fatal(msg);
    std::fputs(kUsage, stderr);
    return 2;
}

/** Parse @p path into @p root, which must carry a "runs" array. */
bool
loadRuns(const std::string &path, JsonValue *root)
{
    std::string error;
    if (!parseJsonFile(path, root, &error))
        fatal(error);
    else if (root->at("runs").kind != JsonValue::Kind::Array)
        fatal(path + " has no \"runs\" array");
    else
        return true;
    return false;
}

// ---------------------------------------------------------------------
// gate
// ---------------------------------------------------------------------

int
gate(int argc, char **argv)
{
    Args a = obs::parseArgs(argc, argv, 2,
                            {"--wall-threshold-pct", "--model-tolerance",
                             "--flash-bytes-threshold-pct"},
                            {"--verbose"}, 2);
    DiffOptions opt;
    opt.wallThresholdPct =
        a.number("--wall-threshold-pct", opt.wallThresholdPct);
    opt.modelTolerance = a.number("--model-tolerance", opt.modelTolerance);
    opt.flashThresholdPct =
        a.number("--flash-bytes-threshold-pct", opt.flashThresholdPct);
    opt.verbose = a.has("--verbose");
    if (!a.error.empty())
        return usage(a.error);

    std::vector<Record> baseline, candidate;
    std::string error;
    if (!parseReport(a.paths[0], &baseline, &error)
        || !parseReport(a.paths[1], &candidate, &error))
        return fatal(error);

    DiffResult res = diffReports(baseline, candidate, opt);
    if (res.fatal)
        return fatal(res.fatalMessage + " (" + a.paths[0] + " vs "
                     + a.paths[1] + ")");

    for (const std::string &note : res.notes)
        std::printf("aqreport: %s\n", note.c_str());
    for (const std::string &msg : res.failureMessages)
        std::fprintf(stderr, "%s\n", msg.c_str());

    std::printf("aqreport: %d record(s) matched, wall geomean ratio "
                "%.4f (limit %.4f), failures %d\n",
                res.matched, res.wallGeomean,
                1.0 + opt.wallThresholdPct / 100.0, res.failures);
    if (res.flashSamples > 0)
        std::printf("aqreport: flash_bytes geomean ratio %.4f over "
                    "%d record(s) (limit %.4f)\n",
                    res.flashGeomean, res.flashSamples,
                    1.0 + opt.flashThresholdPct / 100.0);
    return res.failures > 0 ? 1 : 0;
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

int
diff(int argc, char **argv)
{
    Args a = obs::parseArgs(argc, argv, 2, {"--tolerance"}, {}, 2);
    double tolerance = a.number("--tolerance", 0.0);
    if (!a.error.empty())
        return usage(a.error);

    JsonValue base, cand;
    std::string error;
    if (!parseJsonFile(a.paths[0], &base, &error)
        || !parseJsonFile(a.paths[1], &cand, &error))
        return fatal(error);
    Findings diffs;
    diffJson("$", base, cand, tolerance, diffs);
    if (diffs.count == 0) {
        std::printf("aqreport: %s and %s match\n", a.paths[0].c_str(),
                    a.paths[1].c_str());
        return 0;
    }
    diffs.print("DIFF", "differences");
    std::fprintf(stderr, "aqreport: %d difference(s) between %s and %s\n",
                 diffs.count, a.paths[0].c_str(), a.paths[1].c_str());
    return 1;
}

// ---------------------------------------------------------------------
// slo
// ---------------------------------------------------------------------

void
printSloRun(const JsonValue &run)
{
    std::printf("run %s  (overload x%.1f, %s)\n",
                run.text("label").c_str(), run.num("overload", 1.0),
                run.num("fifo") != 0.0 ? "fifo" : "drr");

    const JsonValue *slo = run.find("slo");
    if (!slo) {
        std::printf("  (no slo section)\n");
        return;
    }
    for (const JsonValue &t : slo->at("tenants").array) {
        const JsonValue &obj = t.at("objective");
        std::printf("  tenant %-12s", t.text("name").c_str());
        if (obj.kind == JsonValue::Kind::Object)
            std::printf(" slo<=%.3fs @%.2f%%",
                        obj.num("latency_target_seconds"),
                        100.0 * obj.num("attainment"));
        else
            std::printf(" (no objective)");
        if (const JsonValue *tot = t.find("totals"))
            std::printf("  done=%g viol=%g shed=%g susp=%g "
                        "attain=%.4f budget=%.3f\n",
                        tot->num("completed"), tot->num("violations"),
                        tot->num("shed"), tot->num("suspended"),
                        tot->num("attainment", 1.0),
                        tot->num("budget_consumed"));
        else
            std::printf("\n");

        const JsonValue &wins = t.at("windows");
        if (wins.array.empty())
            continue;
        std::printf("    %6s %9s %5s %5s %5s %5s %8s %8s %8s %7s %7s\n",
                    "win", "start_s", "done", "viol", "shed", "susp",
                    "p50_s", "p90_s", "p99_s", "burn", "budget");
        for (const JsonValue &w : wins.array) {
            const JsonValue &lat = w.at("latency");
            std::printf("    %6.0f %9.2f %5.0f %5.0f %5.0f %5.0f "
                        "%8.4f %8.4f %8.4f %7.2f %7.3f\n",
                        w.num("window"), w.num("start_seconds"),
                        w.num("completed"), w.num("violations"),
                        w.num("shed"), w.num("suspended"),
                        lat.num("p50"), lat.num("p90"), lat.num("p99"),
                        w.num("burn"), w.num("budget_consumed"));
        }
    }
    const JsonValue &alerts = slo->at("alerts");
    if (alerts.kind != JsonValue::Kind::Array)
        return;
    if (alerts.array.empty())
        std::printf("  alerts: none\n");
    for (const JsonValue &al : alerts.array)
        std::printf("  ALERT %-8s tenant=%-12s at=%.2fs "
                    "short_burn=%.2f long_burn=%.2f\n",
                    al.text("rule").c_str(), al.text("tenant").c_str(),
                    al.num("at_seconds"), al.num("short_burn"),
                    al.num("long_burn"));
}

int
slo(int argc, char **argv)
{
    Args a = obs::parseArgs(argc, argv, 2, {}, {}, 1);
    if (!a.error.empty())
        return usage(a.error);
    JsonValue root;
    if (!loadRuns(a.paths[0], &root))
        return 2;
    std::printf("slo report %s  window=%.3gs seed=%g\n",
                a.paths[0].c_str(), root.num("window_seconds"),
                root.num("seed"));
    for (const JsonValue &run : root.at("runs").array)
        printSloRun(run);
    return 0;
}

// ---------------------------------------------------------------------
// anatomy
// ---------------------------------------------------------------------

const char *
className(int i)
{
    return obs::waitClassName(static_cast<obs::WaitClass>(i));
}

/** One parsed query of a run. */
struct QueryRow
{
    double id = -1.0;
    std::string name;
    double tenant = 0.0;
    double latency = 0.0;
    bool shed = false;
    obs::WaitLedger wait;
    const JsonValue *path = nullptr;
};

/** Name of the query's largest wait class (earliest wins ties). */
const char *
dominantClass(const QueryRow &q)
{
    return obs::waitClassName(q.wait.dominant());
}

/** One validated run: its queries plus what the printers share. */
struct RunAnatomy
{
    const JsonValue *run = nullptr;
    std::string label;
    std::vector<QueryRow> rows;
    /// Per-class sums over rows, in row order.
    obs::WaitLedger classSum;
    /// Non-shed latencies, ascending.
    std::vector<double> latencies;
    /// Non-shed queries, slowest first, ties by id. Points into rows,
    /// which is complete before this is filled and never resized.
    std::vector<const QueryRow *> slowest;
};

/**
 * Validate one run's anatomy and collect its rows. Run-local exact
 * checks: per-query partition, blame row sums vs
 * tenant_contention_seconds, wait_totals vs per-class query sums,
 * critical-path tiling.
 */
RunAnatomy
validateRun(const JsonValue &run, Findings &st)
{
    RunAnatomy ra;
    ra.run = &run;
    ra.label = run.text("label");
    const std::string &label = ra.label;
    const JsonValue &queries = run.at("queries");
    if (queries.kind != JsonValue::Kind::Array) {
        st.add(label + ": no \"queries\" array");
        return ra;
    }

    for (const JsonValue &q : queries.array) {
        QueryRow row;
        row.id = q.num("id", -1.0);
        row.name = q.text("name", "");
        row.tenant = q.num("tenant");
        double submit = q.num("submit_seconds");
        double done = q.num("done_seconds");
        row.latency = done - submit;
        row.shed = q.num("shed") != 0.0;
        row.path = q.find("path");

        const JsonValue &wait = q.at("wait");
        std::string qlabel = label + " query " + jsonNumber(row.id);
        if (wait.kind != JsonValue::Kind::Object) {
            st.add(qlabel + ": no \"wait\" ledger");
            continue;
        }
        for (int i = 0; i < kNumWaitClasses; ++i) {
            if (const JsonValue *v = wait.find(className(i)))
                row.wait.sec[i] = v->numberOr(0.0);
            else
                st.add(qlabel + ": wait ledger missing class "
                       + className(i));
        }
        ra.classSum += row.wait;
        // The exact-partition contract: fixed-order class sum equals
        // end-to-end latency bitwise (all-zero for shed queries).
        double sum = row.wait.total();
        if (sum != row.latency)
            st.add(qlabel + ": wait classes sum to " + jsonNumber(sum)
                   + " but done - submit = " + jsonNumber(row.latency));
        if (row.shed && sum != 0.0)
            st.add(qlabel + ": shed query has non-zero wait ledger");

        // Critical-path tiling: contiguous from submit to done.
        if (row.path && !row.path->array.empty()) {
            double cursor = submit;
            for (std::size_t si = 0; si < row.path->array.size(); ++si) {
                const JsonValue &seg = row.path->array[si];
                double s = seg.num("start_seconds");
                if (s != cursor) {
                    st.add(qlabel + ": path segment " + std::to_string(si)
                           + " starts at " + jsonNumber(s) + ", expected "
                           + jsonNumber(cursor));
                    break;
                }
                cursor = seg.num("end_seconds");
            }
            if (cursor != done)
                st.add(qlabel + ": path ends at " + jsonNumber(cursor)
                       + ", done at " + jsonNumber(done));
        }
        ra.rows.push_back(std::move(row));
    }

    // Aggregate ledger: wait_totals vs the per-class sums over the
    // queries. The service accumulates in completion order, this pass
    // in id order, so the comparison is ulp-tolerant — unlike the
    // per-query partition, which is bitwise.
    const JsonValue &totals = run.at("wait_totals");
    for (int i = 0; i < kNumWaitClasses; ++i) {
        double t = totals.num(className(i));
        double denom = std::max(1.0, std::fabs(t));
        if (std::fabs(t - ra.classSum.sec[i]) > 1e-9 * denom)
            st.add(label + ": wait_totals." + className(i) + " = "
                   + jsonNumber(t) + " but queries sum to "
                   + jsonNumber(ra.classSum.sec[i]));
    }

    // Blame row sums ARE each tenant's total contention wait.
    const JsonValue &seconds = run.at("blame").at("seconds");
    const JsonValue &contention = run.at("tenant_contention_seconds");
    if (seconds.kind != JsonValue::Kind::Array
        || contention.kind != JsonValue::Kind::Array) {
        st.add(label + ": missing blame matrix or "
               "tenant_contention_seconds");
    } else {
        if (seconds.array.size() != contention.array.size())
            st.add(label + ": blame rows vs contention entries "
                   "length mismatch");
        std::size_t n =
            std::min(seconds.array.size(), contention.array.size());
        for (std::size_t v = 0; v < n; ++v) {
            double rowSum = 0.0;
            for (const JsonValue &cell : seconds.array[v].array)
                rowSum += cell.numberOr(0.0);
            double want = contention.array[v].numberOr(0.0);
            if (rowSum != want)
                st.add(label + ": blame row " + std::to_string(v)
                       + " sums to " + jsonNumber(rowSum)
                       + " but tenant_contention_seconds = "
                       + jsonNumber(want));
        }
    }

    for (const QueryRow &q : ra.rows)
        if (!q.shed) {
            ra.latencies.push_back(q.latency);
            ra.slowest.push_back(&q);
        }
    std::sort(ra.latencies.begin(), ra.latencies.end());
    std::sort(ra.slowest.begin(), ra.slowest.end(),
              [](const QueryRow *a, const QueryRow *b) {
                  if (a->latency != b->latency)
                      return a->latency > b->latency;
                  return a->id < b->id;
              });
    return ra;
}

/**
 * Cross-check one run against the bench --json report: find the
 * run-level record (no "tenant" key) matching (overload, fifo), then
 * require the nearest-rank p99 recomputed from the anatomy's non-shed
 * latencies to reproduce modelled_p99_latency_seconds, and the
 * modelled_wait_* / modelled_contention_wait_seconds fields to equal
 * the anatomy aggregates exactly.
 */
void
crossCheckReport(const RunAnatomy &ra, const std::vector<Record> &records,
                 Findings &st)
{
    const JsonValue &run = *ra.run;
    const std::string &label = ra.label;
    double overload = run.num("overload", 1.0);
    double fifo = run.num("fifo");
    auto rec = std::find_if(records.begin(), records.end(),
                            [&](const Record &r) {
                                return !r.count("tenant")
                                    && r.count("overload") && r.count("fifo")
                                    && r.at("overload") == overload
                                    && r.at("fifo") == fifo;
                            });
    if (rec == records.end()) {
        st.add(label + ": no run record (overload=" + jsonNumber(overload)
               + ", fifo=" + jsonNumber(fifo) + ") in the bench report");
        return;
    }

    auto field = [&](const std::string &name) {
        auto it = rec->find(name);
        return it == rec->end() ? -1.0 : it->second;
    };
    double p99 = percentile(ra.latencies, 0.99);
    double want = field("modelled_p99_latency_seconds");
    if (p99 != want)
        st.add(label + ": anatomy p99 " + jsonNumber(p99)
               + " does not reproduce modelled_p99_latency_seconds "
               + jsonNumber(want));

    const JsonValue &totals = run.at("wait_totals");
    for (int i = 0; i < kNumWaitClasses; ++i) {
        std::string name =
            std::string("modelled_wait_") + className(i) + "_seconds";
        double repv = field(name);
        double anav = totals.num(className(i));
        if (repv != anav)
            st.add(label + ": " + name + " = " + jsonNumber(repv)
                   + " in the report but " + jsonNumber(anav)
                   + " in the anatomy");
    }
    double blameTotal = 0.0;
    for (const JsonValue &r : run.at("blame").at("seconds").array)
        for (const JsonValue &cell : r.array)
            blameTotal += cell.numberOr(0.0);
    double repc = field("modelled_contention_wait_seconds");
    if (repc != blameTotal)
        st.add(label + ": modelled_contention_wait_seconds = "
               + jsonNumber(repc) + " but the blame matrix sums to "
               + jsonNumber(blameTotal));
}

void
printRun(const RunAnatomy &ra, std::size_t topk)
{
    const JsonValue &run = *ra.run;
    std::printf("\nrun %s  (overload x%.1f, %s): %zu queries\n",
                ra.label.c_str(), run.num("overload", 1.0),
                run.num("fifo") != 0.0 ? "fifo" : "drr", ra.rows.size());

    double total = 0.0;
    for (const QueryRow &q : ra.rows)
        for (double w : q.wait.sec)
            total += w;
    std::printf("  %-16s %12s %7s\n", "wait class", "seconds", "share");
    for (int i = 0; i < kNumWaitClasses; ++i)
        std::printf("  %-16s %12.4f %6.1f%%\n", className(i),
                    ra.classSum.sec[i],
                    total > 0.0 ? 100.0 * ra.classSum.sec[i] / total : 0.0);

    const JsonValue &tenants = run.at("blame").at("tenants");
    const JsonValue &seconds = run.at("blame").at("seconds");
    if (tenants.kind == JsonValue::Kind::Array
        && seconds.kind == JsonValue::Kind::Array) {
        std::printf("  blame (victim rows x culprit columns, "
                    "waiter-seconds):\n");
        std::printf("  %-14s", "victim\\culprit");
        for (const JsonValue &t : tenants.array)
            std::printf(" %12s", t.str.c_str());
        std::printf(" %12s\n", "row_sum");
        for (std::size_t v = 0; v < seconds.array.size(); ++v) {
            std::printf("  %-14s", v < tenants.array.size()
                                       ? tenants.array[v].str.c_str()
                                       : "?");
            double rowSum = 0.0;
            for (const JsonValue &cell : seconds.array[v].array) {
                std::printf(" %12.4f", cell.numberOr(0.0));
                rowSum += cell.numberOr(0.0);
            }
            std::printf(" %12.4f\n", rowSum);
        }
    }

    std::size_t k = std::min(topk, ra.slowest.size());
    std::printf("  top %zu critical paths:\n", k);
    for (std::size_t i = 0; i < k; ++i) {
        const QueryRow *q = ra.slowest[i];
        std::printf("    #%.0f %-4s tenant=%.0f latency=%.4fs "
                    "dominant=%s\n",
                    q->id, q->name.c_str(), q->tenant, q->latency,
                    dominantClass(*q));
        if (!q->path)
            continue;
        for (const JsonValue &seg : q->path->array) {
            std::printf("      %-16s %9.4fs", seg.text("class").c_str(),
                        seg.num("end_seconds") - seg.num("start_seconds"));
            if (double device = seg.num("device", -1); device >= 0)
                std::printf("  dev%.0f", device);
            if (std::string detail = seg.text("detail", ""); !detail.empty())
                std::printf("  %s", detail.c_str());
            std::printf("\n");
        }
    }
}

/** Deterministic summary JSON (stable key order). */
void
writeSummary(obs::JsonWriter &w, const JsonValue &root,
             const std::vector<RunAnatomy> &runs, std::size_t topk)
{
    w.beginObject().key("seed").number(root.num("seed"));
    w.key("runs").beginArray();
    for (const RunAnatomy &ra : runs) {
        const JsonValue &run = *ra.run;
        w.beginObject().key("label").string(run.text("label", ""));
        w.key("overload").number(run.num("overload", 1.0));
        w.key("fifo").number(run.num("fifo"));
        w.key("queries").integer(ra.rows.size());
        w.key("shed").integer(ra.rows.size() - ra.latencies.size());
        w.key("p50_seconds").number(percentile(ra.latencies, 0.50));
        w.key("p99_seconds").number(percentile(ra.latencies, 0.99));
        w.key("wait_totals");
        ra.classSum.toJson(w);
        w.key("tenant_contention_seconds").beginArray();
        for (const JsonValue &c : run.at("tenant_contention_seconds").array)
            w.number(c.numberOr(0.0));
        w.endArray().key("top").beginArray();
        for (std::size_t i = 0; i < std::min(topk, ra.slowest.size());
             ++i) {
            const QueryRow *q = ra.slowest[i];
            w.beginObject().key("id").number(q->id);
            w.key("name").string(q->name).key("tenant").number(q->tenant);
            w.key("latency_seconds").number(q->latency);
            w.key("dominant").string(dominantClass(*q)).endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
}

int
anatomy(int argc, char **argv)
{
    Args a = obs::parseArgs(argc, argv, 2, {"--report", "--top", "--json"},
                            {}, 1);
    std::size_t topk = a.integer("--top", 5);
    if (!a.error.empty())
        return usage(a.error);
    const std::string &path = a.paths[0];
    std::string report_path = a.value("--report");
    std::string json_path = a.value("--json");

    JsonValue root;
    if (!loadRuns(path, &root))
        return 2;
    std::vector<Record> records;
    std::string error;
    if (!report_path.empty() && !parseReport(report_path, &records, &error))
        return fatal(error);

    const JsonValue &runs = root.at("runs");
    std::printf("anatomy %s  seed=%g, %zu run(s)\n", path.c_str(),
                root.num("seed"), runs.array.size());

    Findings st;
    std::vector<RunAnatomy> anatomies;
    for (const JsonValue &run : runs.array) {
        anatomies.push_back(validateRun(run, st));
        if (!report_path.empty())
            crossCheckReport(anatomies.back(), records, st);
        printRun(anatomies.back(), topk);
    }

    if (!json_path.empty()) {
        if (!obs::writeJsonFile(json_path, [&](obs::JsonWriter &w) {
                writeSummary(w, root, anatomies, topk);
            }))
            return 2;
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (st.count > 0) {
        st.print("CHECK FAIL", "failures");
        std::fprintf(stderr, "aqreport: %d check failure(s)\n", st.count);
        return 1;
    }
    std::printf("aqreport: all anatomy checks passed%s\n",
                report_path.empty() ? ""
                                    : " (report cross-check included)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sub = argc > 1 ? argv[1] : "";
    if (sub == "gate")
        return gate(argc, argv);
    if (sub == "diff")
        return diff(argc, argv);
    if (sub == "slo")
        return slo(argc, argv);
    if (sub == "anatomy")
        return anatomy(argc, argv);
    return usage(sub.empty() ? "missing subcommand"
                             : "unknown subcommand " + sub);
}
