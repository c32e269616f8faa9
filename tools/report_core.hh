/**
 * @file
 * Core of aqreport, split out of aqreport.cc so the bench gate and the
 * structural diff are unit-testable. Both read reports with the one
 * JSON reader (obs/json.hh).
 *
 * Two layers:
 *  - Record / parseReport / recordKey / diffReports: the bench gate. A
 *    record key present in the baseline but absent from the candidate
 *    (or vice versa) is reported by name and side — never as a bare
 *    "no match" failure.
 *  - Findings / diffJson: the structural diff of two JSON documents,
 *    naming every difference by path.
 */

#ifndef AQUOMAN_TOOLS_REPORT_CORE_HH
#define AQUOMAN_TOOLS_REPORT_CORE_HH

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"

namespace aquoman::tools {

using obs::JsonValue;
using obs::parseJson;
using obs::parseJsonFile;

namespace detail {

inline std::string
formatMsg(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** |cand - base| relative to |base|; absolute when base is 0. */
inline double
relativeDrift(double base, double cand)
{
    double denom = std::fabs(base) > 0.0 ? std::fabs(base) : 1.0;
    return std::fabs(cand - base) / denom;
}

} // namespace detail

// ---------------------------------------------------------------------
// Bench-report records and the regression gate.
// ---------------------------------------------------------------------

/** Numeric fields of one record; non-numeric members are dropped. */
using Record = std::map<std::string, double>;

/**
 * Read a writeJsonReport file: {"records": [{...}, ...], ...}. Only
 * the records array is retained.
 */
inline bool
parseReport(const std::string &path, std::vector<Record> *out,
            std::string *error)
{
    JsonValue root;
    if (!parseJsonFile(path, &root, error))
        return false;
    auto bad = [&](const char *what) {
        *error = path + ": " + what;
        return false;
    };
    if (root.kind != JsonValue::Kind::Object)
        return bad("report is not a JSON object");
    const JsonValue &records = root.at("records");
    if (records.kind == JsonValue::Kind::Null)
        return true;
    if (records.kind != JsonValue::Kind::Array)
        return bad("\"records\" is not an array");
    for (const JsonValue &r : records.array) {
        if (r.kind != JsonValue::Kind::Object)
            return bad("a record is not an object");
        Record rec;
        for (const auto &[name, v] : r.object)
            if (v.kind == JsonValue::Kind::Number)
                rec[name] = v.number;
        out->push_back(std::move(rec));
    }
    return true;
}

/**
 * Key a record by its identity fields for baseline/candidate matching.
 * All present identity fields compose, so the multi-tenant workload
 * bench can distinguish (tenant, overload, policy) slices while the
 * single-field figure benches keep their "query=N" / "devices=M" keys.
 */
inline std::string
recordKey(const Record &r)
{
    std::string key;
    for (const char *id :
         {"query", "devices", "tenant", "overload", "fifo"}) {
        auto it = r.find(id);
        if (it == r.end())
            continue;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s%s=%g",
                      key.empty() ? "" : ",", id, it->second);
        key += buf;
    }
    return key;
}

struct DiffOptions
{
    double wallThresholdPct = 10.0;
    double modelTolerance = 0.0;
    double flashThresholdPct = 0.0;

    /** Emit every matched record's wall ratio (worst first) as notes,
     *  healthy or not — the gate only lists them on failure. */
    bool verbose = false;
};

struct DiffResult
{
    int failures = 0;
    int matched = 0;
    /// FAIL lines, one per violation; callers print them to stderr.
    std::vector<std::string> failureMessages;
    /// Informational lines (candidate-only records etc.).
    std::vector<std::string> notes;
    double wallGeomean = 1.0;
    int wallSamples = 0;
    double flashGeomean = 1.0;
    int flashSamples = 0;
    bool fatal = false; ///< no records matched at all
    std::string fatalMessage;
};

/**
 * Compare @p candidate against @p baseline. Fails when a modelled_*
 * field drifts beyond tolerance, when a baseline record key or
 * modelled field is missing from the candidate (named, with the side),
 * or when the wall / flash geomean gates trip. Candidate-only record
 * keys are reported as notes, not failures, so adding new bench
 * coverage never trips the gate.
 */
inline DiffResult
diffReports(const std::vector<Record> &baseline,
            const std::vector<Record> &candidate,
            const DiffOptions &opt)
{
    DiffResult res;

    auto byKey = [](const std::vector<Record> &records) {
        std::map<std::string, const Record *> out;
        for (const Record &r : records)
            if (std::string key = recordKey(r); !key.empty())
                out[key] = &r;
        return out;
    };
    std::map<std::string, const Record *> base_by_key = byKey(baseline);
    std::map<std::string, const Record *> cand_by_key = byKey(candidate);

    // Records present on exactly one side: name the key and the side
    // it is missing from. Baseline coverage that disappeared is a
    // regression; candidate-only records are informational.
    for (const auto &[key, rec] : base_by_key) {
        if (cand_by_key.find(key) == cand_by_key.end()) {
            res.failureMessages.push_back(detail::formatMsg(
                "FAIL record '%s' missing from candidate report",
                key.c_str()));
            ++res.failures;
        }
    }
    for (const auto &[key, rec] : cand_by_key) {
        if (base_by_key.find(key) == base_by_key.end())
            res.notes.push_back(detail::formatMsg(
                "note: record '%s' missing from baseline report "
                "(new coverage)",
                key.c_str()));
    }

    // (ratio, key, base, cand) per matched record, kept so a tripped
    // geomean gate can name the records that dragged it over the line.
    struct Sample
    {
        double ratio;
        std::string key;
        double base;
        double cand;
    };
    std::vector<Sample> wall_samples;
    std::vector<Sample> flash_samples;
    // One sample when both records carry @p field positive.
    auto sample = [](const char *field, const std::string &key,
                     const Record &base, const Record &cand,
                     std::vector<Sample> &out) {
        auto b = base.find(field);
        auto c = cand.find(field);
        if (b != base.end() && c != cand.end() && b->second > 0.0
            && c->second > 0.0)
            out.push_back({c->second / b->second, key, b->second,
                           c->second});
    };

    for (const auto &[key, candp] : cand_by_key) {
        auto bit = base_by_key.find(key);
        if (bit == base_by_key.end())
            continue;
        const Record &base = *bit->second;
        const Record &cand = *candp;
        ++res.matched;
        sample("wall_seconds", key, base, cand, wall_samples);
        sample("flash_bytes", key, base, cand, flash_samples);

        for (const auto &[name, base_v] : base) {
            if (name.rfind("modelled_", 0) != 0)
                continue;
            auto cit = cand.find(name);
            if (cit == cand.end()) {
                res.failureMessages.push_back(detail::formatMsg(
                    "FAIL %s: field '%s' missing from candidate "
                    "report",
                    key.c_str(), name.c_str()));
                ++res.failures;
                continue;
            }
            double cand_v = cit->second;
            double drift = detail::relativeDrift(base_v, cand_v);
            if (drift > opt.modelTolerance) {
                res.failureMessages.push_back(detail::formatMsg(
                    "FAIL %s: %s drifted %s -> %s (rel %.3g > tol %.3g)",
                    key.c_str(), name.c_str(),
                    obs::jsonNumber(base_v).c_str(),
                    obs::jsonNumber(cand_v).c_str(), drift,
                    opt.modelTolerance));
                ++res.failures;
            }
        }
    }

    if (res.matched == 0) {
        res.fatal = true;
        res.fatalMessage = "no matching records between the reports";
        return res;
    }

    // Geometric mean over the samples in match order, after which the
    // samples are sorted worst first for the per-record listings.
    auto geomean = [](std::vector<Sample> &samples) {
        double log_ratio_sum = 0.0;
        for (const Sample &s : samples)
            log_ratio_sum += std::log(s.ratio);
        std::sort(samples.begin(), samples.end(),
                  [](const Sample &a, const Sample &b) {
                      return a.ratio > b.ratio;
                  });
        return samples.empty()
            ? 1.0 : std::exp(log_ratio_sum / samples.size());
    };
    auto listRatios = [](const char *indent, const char *field,
                         const std::vector<Sample> &samples,
                         std::vector<std::string> &out) {
        for (const Sample &s : samples)
            out.push_back(detail::formatMsg(
                "%s%s '%s' ratio %.4f (%.6g -> %.6g)", indent, field,
                s.key.c_str(), s.ratio, s.base, s.cand));
    };
    // A tripped gate lists every matched record's ratio, worst first,
    // so the offending queries are identifiable without a rerun.
    auto gate = [&](const char *field, double geo, double thresholdPct,
                    const std::vector<Sample> &samples) {
        double limit = 1.0 + thresholdPct / 100.0;
        if (geo <= limit)
            return;
        res.failureMessages.push_back(detail::formatMsg(
            "FAIL %s geomean ratio %.4f exceeds limit %.4f", field, geo,
            limit));
        ++res.failures;
        listRatios("  ", field, samples, res.failureMessages);
    };

    res.wallSamples = static_cast<int>(wall_samples.size());
    res.wallGeomean = geomean(wall_samples);
    // --verbose: every matched record's wall ratio as a note, worst
    // first, whether or not the geomean gate trips.
    if (opt.verbose)
        listRatios("", "wall_seconds", wall_samples, res.notes);
    gate("wall_seconds", res.wallGeomean, opt.wallThresholdPct,
         wall_samples);
    res.flashSamples = static_cast<int>(flash_samples.size());
    if (res.flashSamples > 0) {
        res.flashGeomean = geomean(flash_samples);
        gate("flash_bytes", res.flashGeomean, opt.flashThresholdPct,
             flash_samples);
    }
    return res;
}

// ---------------------------------------------------------------------
// Structural diff and check findings.
// ---------------------------------------------------------------------

/** Messages of one checking pass; the first kMaxShown are kept. */
struct Findings
{
    static constexpr std::size_t kMaxShown = 64;
    int count = 0;
    std::vector<std::string> shown;

    void
    add(std::string msg)
    {
        ++count;
        if (shown.size() < kMaxShown)
            shown.push_back(std::move(msg));
    }

    /** "<tag> <message>" per kept message on stderr. */
    void
    print(const char *tag, const char *noun) const
    {
        for (const std::string &m : shown)
            std::fprintf(stderr, "%s %s\n", tag, m.c_str());
        if (shown.size() == kMaxShown)
            std::fprintf(stderr, "%s (further %s suppressed)\n", tag, noun);
    }
};

inline const char *
kindName(JsonValue::Kind k)
{
    switch (k) {
      case JsonValue::Kind::Null: return "null";
      case JsonValue::Kind::Bool: return "bool";
      case JsonValue::Kind::Number: return "number";
      case JsonValue::Kind::String: return "string";
      case JsonValue::Kind::Array: return "array";
      case JsonValue::Kind::Object: return "object";
    }
    return "?";
}

/**
 * Structural diff of baseline @p a against candidate @p b at @p path
 * ("$" for the root). Every missing member is named with the side it is
 * missing from; numeric leaves compare exactly unless @p tolerance
 * (relative) is positive.
 */
inline void
diffJson(const std::string &path, const JsonValue &a, const JsonValue &b,
         double tolerance, Findings &out)
{
    if (a.kind != b.kind) {
        out.add(path + ": type " + kindName(a.kind) + " in baseline vs "
                + kindName(b.kind) + " in candidate");
        return;
    }
    switch (a.kind) {
      case JsonValue::Kind::Null:
        return;
      case JsonValue::Kind::Bool:
        if (a.boolean != b.boolean)
            out.add(path + ": " + (a.boolean ? "true" : "false") + " vs "
                    + (b.boolean ? "true" : "false"));
        return;
      case JsonValue::Kind::Number: {
        double drift = detail::relativeDrift(a.number, b.number);
        if (drift > tolerance)
            out.add(detail::formatMsg(
                "%s: %s vs %s (rel %.3g > tol %.3g)", path.c_str(),
                obs::jsonNumber(a.number).c_str(),
                obs::jsonNumber(b.number).c_str(), drift, tolerance));
        return;
      }
      case JsonValue::Kind::String:
        if (a.str != b.str)
            out.add(path + ": \"" + a.str + "\" vs \"" + b.str + "\"");
        return;
      case JsonValue::Kind::Array: {
        if (a.array.size() != b.array.size())
            out.add(detail::formatMsg(
                "%s: array length %zu in baseline vs %zu in candidate",
                path.c_str(), a.array.size(), b.array.size()));
        std::size_t n = std::min(a.array.size(), b.array.size());
        for (std::size_t i = 0; i < n; ++i)
            diffJson(detail::formatMsg("%s[%zu]", path.c_str(), i),
                     a.array[i], b.array[i], tolerance, out);
        return;
      }
      case JsonValue::Kind::Object: {
        for (const auto &[key, av] : a.object) {
            const JsonValue *bv = b.find(key);
            if (bv == nullptr)
                out.add(path + "." + key + ": missing from candidate");
            else
                diffJson(path + "." + key, av, *bv, tolerance, out);
        }
        for (const auto &[key, bv] : b.object)
            if (a.find(key) == nullptr)
                out.add(path + "." + key + ": missing from baseline");
        return;
      }
    }
}

} // namespace aquoman::tools

#endif // AQUOMAN_TOOLS_REPORT_CORE_HH
