/**
 * @file
 * The one JSON module: the streaming writer behind every report the
 * simulator, the benches and aqreport emit, and the reader behind every
 * report they consume.
 *
 *  - JsonWriter streams tokens straight into an std::ostream: no
 *    document tree and no string per value. It places the commas
 *    itself, escapes every key and string, and renders numbers as
 *    jsonNumber does, so every double round-trips exactly. Its one
 *    output style is compact: no whitespace between tokens.
 *  - JsonValue / parseJson / parseJsonFile build a value tree (object
 *    member order preserved) and reject anything outside RFC 8259:
 *    trailing text after the root value, numbers outside JSON's grammar
 *    ("inf", "0x10"), and nesting deeper than kMaxJsonDepth. Every
 *    error names the fault and its offset; parseJsonFile prefixes the
 *    file.
 */

#ifndef AQUOMAN_OBS_JSON_HH
#define AQUOMAN_OBS_JSON_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace aquoman::obs {

/// Deepest array/object nesting the reader accepts; deeper input is
/// rejected instead of recursing the stack away.
inline constexpr int kMaxJsonDepth = 512;

/** Render @p v as a JSON number that round-trips exactly. */
std::string jsonNumber(double v);

/** JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON writer over an std::ostream. Inside an object every
 * value follows a key(); the writer emits the separating commas. A
 * failed write sets badbit and stops further writes, so callers check
 * the stream once at the end (writeJsonFile does).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os(os) {}

    JsonWriter &beginObject() { return open("{"); }
    JsonWriter &endObject() { return close("}"); }
    JsonWriter &beginArray() { return open("["); }
    JsonWriter &endArray() { return close("]"); }

    /** Object member name; the next call writes the member's value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &number(double v);
    JsonWriter &integer(std::int64_t v);
    JsonWriter &string(std::string_view s);
    JsonWriter &boolean(bool b) { return raw(b ? "true" : "false"); }
    JsonWriter &null() { return raw("null"); }

    /** An already-rendered JSON value, written verbatim. */
    JsonWriter &raw(std::string_view json);

  private:
    JsonWriter &
    open(std::string_view bracket)
    {
        raw(bracket);
        comma = false;
        return *this;
    }

    JsonWriter &
    close(std::string_view bracket)
    {
        put(bracket);
        comma = true;
        return *this;
    }

    void put(std::string_view s);
    /// Comma if due, then @p s quoted and escaped, then @p tail.
    void quoted(std::string_view s, std::string_view tail);

    std::ostream &os;
    /// The last token was a value or a closing bracket, so the next
    /// value, key or opening bracket needs a comma first.
    bool comma = false;
};

/**
 * What @p f writes, as a string: @p f is a callback taking the writer
 * or a value with toJson(JsonWriter &).
 */
template <typename F>
std::string
jsonString(const F &f)
{
    std::ostringstream os;
    JsonWriter w(os);
    if constexpr (std::is_invocable_v<const F &, JsonWriter &>)
        f(w);
    else
        f.toJson(w);
    return os.str();
}

/**
 * Write the document @p fn produces, plus a final newline, to @p path.
 * Returns false, naming the path on stderr, when the file cannot be
 * opened or any write or the final flush fails (a full disk).
 */
bool writeJsonFile(const std::string &path,
                   const std::function<void(JsonWriter &)> &fn);

// ---------------------------------------------------------------------
// Reader.
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

/**
 * End of the JSON number starting at @p p — grammar
 * -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? — or nullptr when the
 * text there is not one.
 */
const char *scanJsonNumber(const char *p, const char *end);

/** @p text as a number when all of it follows JSON's number grammar. */
bool parseJsonNumber(const std::string &text, double *out);

/**
 * Parse @p text as one JSON document. On failure @p error names the
 * fault and its byte offset.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *error);

/** parseJson over a file; the error is prefixed with @p path. */
bool parseJsonFile(const std::string &path, JsonValue *out,
                   std::string *error);

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_JSON_HH
