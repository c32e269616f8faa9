/**
 * @file
 * Closed-loop throughput bench for the query service layer: N synthetic
 * TPC-H clients each keep one query in flight against a QueryService,
 * cycling through a query rotation for a fixed number of rounds, at
 * device counts 1 / 2 / 4. Reports per-query latency percentiles,
 * queue wait, suspend rate, and modelled throughput (which must rise
 * monotonically with the device count — the array splits every scan
 * Table Task across its stripes).
 *
 * All times are modelled seconds from the service's discrete-event
 * simulation; results are bit-identical for every AQUOMAN_THREADS.
 *
 * JSON report (--json <path>): {"records": [...], "histograms": {...},
 * "trace": {...}} — one record per device count with
 *   devices, clients, rounds, queries_completed, makespan_seconds,
 *   throughput_qps, p50_latency_seconds, p95_latency_seconds,
 *   p99_latency_seconds, mean_queue_wait_seconds, suspend_rate,
 * plus embedded query_latency / queue_wait histograms and per-device
 * switch-port counters; the top-level histograms section carries the
 * largest run's distributions. With AQUOMAN_TRACE=<path> set, each run
 * traces onto "m<devices>."-prefixed tracks of one Perfetto file.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "service/query_service.hh"
#include "workload/tpch_params.hh"

using namespace aquoman;
using namespace aquoman::bench;
using namespace aquoman::service;

namespace {

constexpr int kClients = 6;
constexpr int kRounds = 2;
/// Tighter than the client count so admission queueing is visible.
constexpr int kAdmissionLimit = 4;
const std::vector<int> kRotation{6, 14, 12, 1, 3, 13};

struct RunResult
{
    int devices;
    ServiceStats stats;
    double wallSeconds;
    std::string switchPorts; ///< per-device port ledgers, JSON array
    std::vector<obs::QueryProfile> profiles; ///< per completed query
    std::int64_t flightDumps = 0;
};

/**
 * One device's switch-port byte ledgers as a JSON object
 * ({"aquoman.bytesRead": .., "host.bytesWritten": .., ...}), keys in
 * name order, ports that moved no bytes omitted.
 */
void
switchPortsJson(obs::JsonWriter &w, const ControllerSwitch &sw)
{
    w.beginObject();
    for (FlashPort port : {FlashPort::Aquoman, FlashPort::Host}) {
        std::string name = port == FlashPort::Host ? "host" : "aquoman";
        for (auto [what, bytes] :
             {std::pair{".bytesRead", sw.bytesRead(port)},
              std::pair{".bytesWritten", sw.bytesWritten(port)}}) {
            if (bytes != 0)
                w.key(name + what).number(static_cast<double>(bytes));
        }
    }
    w.endObject();
}

RunResult
runWorkload(const tpch::TpchDatabase &db,
            const workload::TpchInstanceGenerator &gen, int num_devices)
{
    WallTimer timer;
    ServiceConfig cfg;
    cfg.numDevices = num_devices;
    cfg.admissionLimit = kAdmissionLimit;
    // Distinct trace tracks per device count, so all three runs can
    // share one AQUOMAN_TRACE file without overlapping timelines.
    cfg.traceLabel = "m" + std::to_string(num_devices);
    QueryService svc(cfg);
    for (const auto &t : {db.region, db.nation, db.supplier, db.customer,
                          db.part, db.partsupp, db.orders, db.lineitem})
        svc.addTable(t);
    db.registerMetadata(svc.catalog());

    // Closed loop: each client resubmits as soon as its query is done.
    std::map<QueryId, int> owner;
    std::vector<int> done(kClients, 0);
    // Seed 0 runs instance 0 (the validation parameters) everywhere;
    // otherwise each (client, round) gets its own parameter draw.
    auto clientQuery = [&](int client, int round) {
        int q = kRotation[(client + round)
                          % static_cast<int>(kRotation.size())];
        std::uint64_t idx = gen.seed() == 0
            ? 0
            : 1 + static_cast<std::uint64_t>(client) * kRounds + round;
        return gen.build(gen.instance(q, idx));
    };
    svc.setOnComplete([&](const QueryRecord &rec) {
        int client = owner.at(rec.id);
        if (++done[client] < kRounds)
            owner[svc.submit(clientQuery(client, done[client]))] = client;
    });
    for (int c = 0; c < kClients; ++c)
        owner[svc.submit(clientQuery(c, 0))] = c;
    svc.drain();

    RunResult r;
    r.devices = num_devices;
    r.stats = svc.aggregate();
    r.wallSeconds = timer.seconds();
    r.flightDumps = svc.flightDumps();
    r.switchPorts = obs::jsonString([&](obs::JsonWriter &w) {
        w.beginArray();
        for (int d = 0; d < num_devices; ++d)
            switchPortsJson(w, svc.deviceSwitch(d));
        w.endArray();
    });
    for (QueryId id = 0;
         id < static_cast<QueryId>(svc.numQueries()); ++id)
        r.profiles.push_back(svc.record(id).profile);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::Args args = obs::parseArgs(argc, argv, 1, {"--json", "--seed"},
                                    {"--explain"}, 0);
    // Seed 0 pins every client to the validation-parameter instances
    // (the plans this bench has always run); a nonzero seed draws a
    // distinct parameter set per (client, round).
    std::uint64_t seed = args.integer("--seed", 0);
    exitOnArgError(args, argv[0]);
    std::string json_path = args.value("--json");
    double sf = env::scaleFactor();
    header("Service throughput: " + std::to_string(kClients)
           + " closed-loop TPC-H clients x " + std::to_string(kRounds)
           + " rounds (functional runs at SF " + std::to_string(sf)
           + ", seed " + std::to_string(seed) + ")");

    tpch::TpchDatabase db =
        tpch::TpchDatabase::generate(tpch::TpchConfig{sf, 19920101});
    workload::TpchInstanceGenerator gen(seed, sf);

    std::vector<RunResult> runs;
    for (int m : {1, 2, 4})
        runs.push_back(runWorkload(db, gen, m));

    std::printf("%-8s %9s %12s %10s %10s %10s %12s %9s\n", "devices",
                "queries", "makespan s", "p50 s", "p95 s", "p99 s",
                "queue-wait s", "qps");
    for (const RunResult &r : runs) {
        std::printf("%-8d %9lld %12.4f %10.4f %10.4f %10.4f %12.4f "
                    "%9.2f\n",
                    r.devices, static_cast<long long>(r.stats.completed),
                    r.stats.makespanSec, r.stats.p50LatencySec,
                    r.stats.p95LatencySec, r.stats.p99LatencySec,
                    r.stats.meanQueueWaitSec, r.stats.throughputQps);
    }

    bool monotonic = true;
    for (std::size_t i = 1; i < runs.size(); ++i)
        monotonic &= runs[i].stats.throughputQps
            > runs[i - 1].stats.throughputQps;
    std::printf("\nthroughput scaling 1 -> %d devices: %.2fx "
                "(monotonic: %s)\n",
                runs.back().devices,
                runs.back().stats.throughputQps
                    / runs.front().stats.throughputQps,
                monotonic ? "yes" : "NO");
    std::printf("suspend rate: %.2f (all runs share one admission "
                "policy)\n", runs.front().stats.suspendRate);

    std::printf("\nbottleneck histogram (Table Tasks, %d devices):\n",
                runs.back().devices);
    for (const auto &[stage, n] : runs.back().stats.bottleneckTaskCounts)
        std::printf("  %-12s %6lld\n", stage.c_str(),
                    static_cast<long long>(n));
    for (const auto &[why, n] : runs.back().stats.suspendReasonCounts)
        std::printf("  suspend %-12s %6lld\n", why.c_str(),
                    static_cast<long long>(n));

    if (args.has("--explain")) {
        header("EXPLAIN ANALYZE: completed queries ("
               + std::to_string(runs.back().devices) + " devices)");
        for (const obs::QueryProfile &p : runs.back().profiles)
            std::printf("\n%s", p.textString().c_str());
    }

    if (!json_path.empty()) {
        auto records = [&](obs::JsonWriter &w) {
            auto num = [&w](const char *k, double v) { w.key(k).number(v); };
            auto counts = [&w](const char *k,
                               const std::map<std::string, std::int64_t> &m) {
                w.key(k).beginObject();
                for (const auto &[name, n] : m)
                    w.key(name).integer(n);
                w.endObject();
            };
            for (const RunResult &r : runs) {
                w.beginObject();
                num("devices", r.devices);
                num("clients", kClients);
                num("rounds", kRounds);
                num("seed", seed);
                num("queries_completed", r.stats.completed);
                num("makespan_seconds", r.stats.makespanSec);
                num("throughput_qps", r.stats.throughputQps);
                num("p50_latency_seconds", r.stats.p50LatencySec);
                num("p95_latency_seconds", r.stats.p95LatencySec);
                num("p99_latency_seconds", r.stats.p99LatencySec);
                num("mean_queue_wait_seconds", r.stats.meanQueueWaitSec);
                num("suspend_rate", r.stats.suspendRate);
                num("flight_dumps", r.flightDumps);
                num("wall_seconds", r.wallSeconds);
                counts("bottleneck_tasks", r.stats.bottleneckTaskCounts);
                counts("suspend_reasons", r.stats.suspendReasonCounts);
                w.key("query_latency_histogram");
                r.stats.latencyHistogram.toJson(w);
                w.key("queue_wait_histogram");
                r.stats.queueWaitHistogram.toJson(w);
                w.key("switch_ports").raw(r.switchPorts);
                w.endObject();
            }
        };
        const ServiceStats &widest = runs.back().stats;
        if (!writeJsonReport(
                json_path, records,
                {{"query_latency_seconds", widest.latencyHistogram},
                 {"queue_wait_seconds", widest.queueWaitHistogram}}))
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }
    return monotonic ? 0 : 1;
}
