/**
 * @file
 * Minimal JSON substrate for the observability subsystem.
 *
 * Two halves:
 *
 *  - composing: JsonObject builds one flat-or-nested JSON object as a
 *    string, with correct escaping and locale-independent number
 *    formatting. This is all the telemetry/trace writers need — no
 *    dependency, no DOM.
 *  - parsing: parseJson() is a strict recursive-descent reader used by
 *    the tests (every emitted line must round-trip) and by any tooling
 *    that wants to consume our own output without a third-party
 *    library.
 */

#ifndef EAT_OBS_JSON_HH
#define EAT_OBS_JSON_HH

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hh"

namespace eat::obs
{

/** @return @p s quoted and escaped as a JSON string literal. */
std::string jsonQuote(std::string_view s);

/** @return @p v formatted the way JSON requires (locale-independent;
 *  non-finite values become 0, which JSON cannot express). */
std::string jsonNumber(double v);

/** Like jsonNumber() but at precision 17, which round-trips every
 *  finite double bit-exactly. Used where a reader must reconstruct the
 *  original value (provenance pJ, telemetry dynamic_pj). */
std::string jsonNumberExact(double v);

/**
 * Incrementally builds one JSON object ("{...}") in its own buffer:
 * keys and strings are escaped in place and numbers are printed with
 * std::to_chars, so a reused object (clear()) builds line after line
 * without allocating.
 *
 * Doubles print at precision 12 (put) or 17 (putExact) in
 * chars_format::general, which is byte-for-byte printf's %.12g and
 * %.17g in the C locale; integers print as std::to_string does.
 */
class JsonObject
{
  public:
    void put(std::string_view key, std::string_view value);
    void put(std::string_view key, const char *value);
    void put(std::string_view key, bool value);
    void put(std::string_view key, double value);
    void put(std::string_view key, std::uint64_t value);
    void put(std::string_view key, std::int64_t value);
    void put(std::string_view key, int value);
    void put(std::string_view key, unsigned value);

    /** Add @p value with full round-trip precision (jsonNumberExact). */
    void putExact(std::string_view key, double value);

    /** Insert pre-rendered JSON (a nested object/array) verbatim. */
    void putRaw(std::string_view key, std::string_view json);

    bool empty() const { return len_ == 1; }

    /** Drop every member, keeping the buffer. */
    void clear() { len_ = 1; }

    /** Render "{...}". */
    std::string str() const;

    /** Write "{...}\n" to @p os in one write() call. */
    void writeLine(std::ostream &os);

  private:
    /** Make room for @p n more bytes; @return where they go. */
    char *
    room(std::size_t n)
    {
        if (len_ + n > buf_.size())
            buf_.resize(std::max(len_ + n, 2 * buf_.size()));
        return buf_.data() + len_;
    }

    /** Room for @p n value bytes after key @p k; writes the key.
     *  @return where the value goes. */
    char *key(std::string_view k, std::size_t n);

    /** Everything before @p end is written. */
    void commit(const char *end) { len_ = end - buf_.data(); }

    std::string buf_ = "{"; ///< [0, len_) = "{" + members, unterminated
    std::size_t len_ = 1;
};

/** A parsed JSON value (strict; no comments, no trailing commas). */
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
    /** The exact value of a non-negative integer token that fits 64
     *  bits; `number` rounds such a token beyond 2^53. */
    std::optional<std::uint64_t> exactUint;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered members. */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;
};

/** Parse one complete JSON document (trailing junk is an error). */
Result<JsonValue> parseJson(std::string_view text);

} // namespace eat::obs

#endif // EAT_OBS_JSON_HH
