/**
 * @file
 * Core of aqreport, split out of aqreport.cc so the reader, the bench
 * gate and the structural diff are unit-testable.
 *
 * Three layers:
 *  - JsonValue / parseJson / parseJsonFile: the one JSON reader. It
 *    builds a value tree (object member order preserved) and rejects
 *    anything outside RFC 8259: trailing text after the root value,
 *    numbers outside JSON's grammar ("inf", "0x10"), and nesting deeper
 *    than kMaxJsonDepth. Every error names the fault and its offset;
 *    parseJsonFile prefixes the file.
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
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace aquoman::tools {

// ---------------------------------------------------------------------
// JSON value tree and its reader.
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /// Members in file order (deterministic writers sort their keys).
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member @p key of an object (nullptr when absent / not object). */
    const JsonValue *
    find(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** Member @p key, or a shared null value when find() has none. */
    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue kNull;
        const JsonValue *v = find(key);
        return v ? *v : kNull;
    }

    double
    numberOr(double fallback) const
    {
        return kind == Kind::Number ? number : fallback;
    }

    /** Numeric member @p key, or @p fallback. */
    double
    num(const std::string &key, double fallback = 0.0) const
    {
        return at(key).numberOr(fallback);
    }

    /** String member @p key, or @p fallback. */
    std::string
    text(const std::string &key, const std::string &fallback = "?") const
    {
        const JsonValue &v = at(key);
        return v.kind == Kind::String ? v.str : fallback;
    }
};

/// Deepest array/object nesting the reader accepts; deeper input is
/// rejected instead of recursing the stack away.
inline constexpr int kMaxJsonDepth = 512;

/**
 * End of the JSON number starting at @p p — grammar
 * -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — or nullptr when the
 * text there is not one.
 */
inline const char *
scanJsonNumber(const char *p, const char *end)
{
    auto digits = [end](const char *q) -> const char * {
        const char *start = q;
        while (q < end && *q >= '0' && *q <= '9')
            ++q;
        return q == start ? nullptr : q;
    };
    if (p < end && *p == '-')
        ++p;
    if (p < end && *p == '0')
        ++p;
    else if (!(p = digits(p)))
        return nullptr;
    if (p < end && *p == '.' && !(p = digits(p + 1)))
        return nullptr;
    if (p < end && (*p == 'e' || *p == 'E')) {
        ++p;
        if (p < end && (*p == '+' || *p == '-'))
            ++p;
        p = digits(p);
    }
    return p;
}

/** @p text as a number when all of it follows JSON's number grammar. */
inline bool
parseJsonNumber(const std::string &text, double *out)
{
    const char *end = text.data() + text.size();
    return scanJsonNumber(text.data(), end) == end
        && std::from_chars(text.data(), end, *out).ec == std::errc();
}

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

/** Recursive-descent reader behind parseJson. */
struct JsonParser
{
    const char *begin;
    const char *p;
    const char *end;
    std::string error;

    explicit JsonParser(const std::string &text)
        : begin(text.data()), p(text.data()), end(text.data() + text.size())
    {
    }

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(p - begin);
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n'
                           || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return fail(p < end ? std::string("expected '") + c + "'"
                            : "unexpected end of input");
    }

    bool
    peek(char c)
    {
        skipWs();
        return p < end && *p == c;
    }

    /** Whether a literal or number ending at @p q runs on into more
     *  token characters ("truex", "0x10", "1.5.2"). */
    bool
    runsOn(const char *q) const
    {
        return q < end
            && (std::isalnum(static_cast<unsigned char>(*q)) || *q == '.');
    }

    /** \uXXXX (after the "\u") as UTF-8; surrogates are not paired. */
    bool
    parseUnicodeEscape(std::string &s)
    {
        unsigned cp = 0;
        if (end - p < 4 || std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            return fail("bad \\u escape");
        p += 4;
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        std::string s;
        while (p < end && *p != '"') {
            char c = *p++;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            if (c != '\\') {
                s += c;
                continue;
            }
            if (p >= end)
                break;
            switch (char e = *p++) {
              case '"': case '\\': case '/': s += e; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u':
                if (!parseUnicodeEscape(s))
                    return false;
                break;
              default:
                return fail("bad escape");
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p;
        *out = std::move(s);
        return true;
    }

    bool
    parseValue(JsonValue *out, int depth)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        if ((*p == '{' || *p == '[') && depth >= kMaxJsonDepth)
            return fail("nesting deeper than "
                        + std::to_string(kMaxJsonDepth) + " levels");
        switch (*p) {
          case '{': {
            ++p;
            out->kind = JsonValue::Kind::Object;
            if (peek('}'))
                return consume('}');
            do {
                std::string key;
                JsonValue v;
                if (!parseString(&key) || !consume(':')
                    || !parseValue(&v, depth + 1))
                    return false;
                out->object.emplace_back(std::move(key), std::move(v));
            } while (peek(',') && consume(','));
            return consume('}');
          }
          case '[': {
            ++p;
            out->kind = JsonValue::Kind::Array;
            if (peek(']'))
                return consume(']');
            do {
                JsonValue v;
                if (!parseValue(&v, depth + 1))
                    return false;
                out->array.push_back(std::move(v));
            } while (peek(',') && consume(','));
            return consume(']');
          }
          case '"':
            out->kind = JsonValue::Kind::String;
            return parseString(&out->str);
          case 't':
          case 'f':
          case 'n': {
            const char *lit = *p == 't' ? "true"
                : *p == 'f'            ? "false"
                                       : "null";
            auto len = static_cast<std::ptrdiff_t>(std::strlen(lit));
            if (end - p < len || std::strncmp(p, lit, len) != 0
                || runsOn(p + len))
                return fail("bad literal");
            p += len;
            out->kind = *lit == 'n' ? JsonValue::Kind::Null
                                    : JsonValue::Kind::Bool;
            out->boolean = *lit == 't';
            return true;
          }
          default: {
            if (*p != '-' && !std::isdigit(static_cast<unsigned char>(*p)))
                return fail(std::string("unexpected character '") + *p
                            + "'");
            const char *num_end = scanJsonNumber(p, end);
            if (num_end == nullptr || runsOn(num_end))
                return fail("malformed number");
            if (std::from_chars(p, num_end, out->number).ec != std::errc())
                return fail("number out of range");
            out->kind = JsonValue::Kind::Number;
            p = num_end;
            return true;
          }
        }
    }
};

} // namespace detail

/**
 * Parse @p text as one JSON document. On failure @p error names the
 * fault and its byte offset.
 */
inline bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    detail::JsonParser ps(text);
    if (ps.parseValue(out, 0)) {
        ps.skipWs();
        if (ps.p == ps.end)
            return true;
        ps.fail("trailing characters after the root value");
    }
    *error = ps.error;
    return false;
}

/** parseJson over a file; the error is prefixed with @p path. */
inline bool
parseJsonFile(const std::string &path, JsonValue *out,
              std::string *error)
{
    std::ifstream f(path);
    if (!f) {
        *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    if (!parseJson(buf.str(), out, error)) {
        *error = path + ": " + *error;
        return false;
    }
    return true;
}

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
                    "FAIL %s: %s drifted %.17g -> %.17g "
                    "(rel %.3g > tol %.3g)",
                    key.c_str(), name.c_str(), base_v, cand_v, drift,
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
                "%s: %.17g vs %.17g (rel %.3g > tol %.3g)", path.c_str(),
                a.number, b.number, drift, tolerance));
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
