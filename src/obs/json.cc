#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace aquoman::obs {

namespace {

/** @p v with 17 significant digits, enough to round-trip any double;
 *  returns the length written to @p buf. */
std::size_t
formatNumber(char (&buf)[32], double v)
{
    return static_cast<std::size_t>(
        std::snprintf(buf, sizeof buf, "%.17g", v));
}

/** The escape sequence for @p c, or nullptr when @p c stands as is. */
const char *
escapeOf(char c, char (&buf)[8])
{
    switch (c) {
      case '"': return "\\\"";
      case '\\': return "\\\\";
      case '\n': return "\\n";
      case '\t': return "\\t";
      case '\r': return "\\r";
    }
    if (static_cast<unsigned char>(c) >= 0x20)
        return nullptr;
    std::snprintf(buf, sizeof buf, "\\u%04x", c);
    return buf;
}

} // namespace

std::string
jsonNumber(double v)
{
    char buf[32];
    return std::string(buf, formatNumber(buf, v));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    char buf[8];
    for (char c : s) {
        const char *esc = escapeOf(c, buf);
        if (esc)
            out += esc;
        else
            out += c;
    }
    return out;
}

void
JsonWriter::put(std::string_view s)
{
    // Straight to the stream buffer: ostream::write would build a
    // sentry per token. Like it, stop once the stream has failed (a
    // file buffer must not be written after a failed write).
    auto n = static_cast<std::streamsize>(s.size());
    if (os && os.rdbuf()->sputn(s.data(), n) != n)
        os.setstate(std::ios::badbit);
}

void
JsonWriter::quoted(std::string_view s, std::string_view tail)
{
    put(comma ? ",\"" : "\"");
    std::size_t run = 0;
    char buf[8];
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (const char *esc = escapeOf(s[i], buf)) {
            put(s.substr(run, i - run));
            put(esc);
            run = i + 1;
        }
    }
    put(s.substr(run));
    put(tail);
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    quoted(k, "\":");
    comma = false;
    return *this;
}

JsonWriter &
JsonWriter::number(double v)
{
    char buf[32];
    return raw(std::string_view(buf, formatNumber(buf, v)));
}

JsonWriter &
JsonWriter::integer(std::int64_t v)
{
    char buf[24];
    return raw(std::string_view(
        buf, static_cast<std::size_t>(
                 std::to_chars(buf, buf + sizeof buf, v).ptr - buf)));
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    quoted(s, "\"");
    comma = true;
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    if (comma)
        put(",");
    put(json);
    comma = true;
    return *this;
}

bool
writeJsonFile(const std::string &path,
              const std::function<void(JsonWriter &)> &fn)
{
    std::ofstream f(path);
    if (f) {
        JsonWriter w(f);
        fn(w);
        f << '\n';
        f.flush();
    }
    if (f.good())
        return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
}

const char *
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

bool
parseJsonNumber(const std::string &text, double *out)
{
    const char *end = text.data() + text.size();
    return scanJsonNumber(text.data(), end) == end
        && std::from_chars(text.data(), end, *out).ec == std::errc();
}

namespace {

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

} // namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *error)
{
    JsonParser ps(text);
    if (ps.parseValue(out, 0)) {
        ps.skipWs();
        if (ps.p == ps.end)
            return true;
        ps.fail("trailing characters after the root value");
    }
    *error = ps.error;
    return false;
}

bool
parseJsonFile(const std::string &path, JsonValue *out, std::string *error)
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

} // namespace aquoman::obs
