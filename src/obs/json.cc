#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>

namespace eat::obs
{

namespace
{

// %.17g round-trips any double but is noisy; %.12g keeps every digit
// our picojoule/MPKI magnitudes can meaningfully carry.
constexpr int kPrecision = 12;
constexpr int kExactPrecision = 17;

/** Bytes writeQuoted() may need for @p s: every byte escaped. */
constexpr std::size_t
quotedRoom(std::string_view s)
{
    return 2 + 6 * s.size();
}

/** Bytes writeDouble() and writeInt() may need: "-d.<16 digits>e-308"
 *  is 24, and 2^64 - 1 is 20 digits. */
constexpr std::size_t kNumberRoom = 32;

/** Write @p s at @p p as a quoted, escaped JSON string literal.
 *  @return one past the last byte written. */
char *
writeQuoted(char *p, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    *p++ = '"';
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u >= 0x20 && c != '"' && c != '\\') {
            *p++ = c;
            continue;
        }
        *p++ = '\\';
        switch (c) {
          case '"': *p++ = '"'; break;
          case '\\': *p++ = '\\'; break;
          case '\n': *p++ = 'n'; break;
          case '\r': *p++ = 'r'; break;
          case '\t': *p++ = 't'; break;
          default:
            *p++ = 'u';
            *p++ = '0';
            *p++ = '0';
            *p++ = kHex[u >> 4];
            *p++ = kHex[u & 0xf];
        }
    }
    *p++ = '"';
    return p;
}

/** Write @p v at @p p in chars_format::general at @p precision: the
 *  bytes of printf's %.<precision>g. Non-finite values become 0, since
 *  JSON has no Inf/NaN literal. @return one past the last byte. */
char *
writeDouble(char *p, double v, int precision)
{
    if (!std::isfinite(v))
        v = 0.0;
    return std::to_chars(p, p + kNumberRoom, v, std::chars_format::general,
                         precision)
        .ptr;
}

template <typename Int>
char *
writeInt(char *p, Int v)
{
    return std::to_chars(p, p + kNumberRoom, v).ptr;
}

} // namespace

std::string
jsonQuote(std::string_view s)
{
    std::string out(quotedRoom(s), '\0');
    out.resize(writeQuoted(out.data(), s) - out.data());
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[kNumberRoom];
    return std::string(buf, writeDouble(buf, v, kPrecision));
}

std::string
jsonNumberExact(double v)
{
    char buf[kNumberRoom];
    return std::string(buf, writeDouble(buf, v, kExactPrecision));
}

char *
JsonObject::key(std::string_view k, std::size_t n)
{
    char *p = room(1 + quotedRoom(k) + 1 + n);
    if (!empty())
        *p++ = ',';
    p = writeQuoted(p, k);
    *p++ = ':';
    return p;
}

void
JsonObject::put(std::string_view k, std::string_view value)
{
    commit(writeQuoted(key(k, quotedRoom(value)), value));
}

void
JsonObject::put(std::string_view k, const char *value)
{
    put(k, std::string_view(value));
}

void
JsonObject::put(std::string_view k, bool value)
{
    putRaw(k, value ? "true" : "false");
}

void
JsonObject::put(std::string_view k, double value)
{
    commit(writeDouble(key(k, kNumberRoom), value, kPrecision));
}

void
JsonObject::put(std::string_view k, std::uint64_t value)
{
    commit(writeInt(key(k, kNumberRoom), value));
}

void
JsonObject::put(std::string_view k, std::int64_t value)
{
    commit(writeInt(key(k, kNumberRoom), value));
}

void
JsonObject::put(std::string_view k, int value)
{
    put(k, static_cast<std::int64_t>(value));
}

void
JsonObject::put(std::string_view k, unsigned value)
{
    put(k, static_cast<std::uint64_t>(value));
}

void
JsonObject::putExact(std::string_view k, double value)
{
    commit(writeDouble(key(k, kNumberRoom), value, kExactPrecision));
}

void
JsonObject::putRaw(std::string_view k, std::string_view json)
{
    char *p = key(k, json.size());
    commit(std::copy(json.begin(), json.end(), p));
}

std::string
JsonObject::str() const
{
    std::string out;
    out.reserve(len_ + 1);
    out.append(buf_.data(), len_);
    out += '}';
    return out;
}

void
JsonObject::writeLine(std::ostream &os)
{
    char *p = room(2);
    p[0] = '}';
    p[1] = '\n';
    os.write(buf_.data(), static_cast<std::streamsize>(len_ + 2));
}

const JsonValue *
JsonValue::find(std::string_view k) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : object) {
        if (name == k)
            return &value;
    }
    return nullptr;
}

namespace
{

/** Recursive-descent JSON reader over a string_view cursor. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Result<JsonValue>
    parse()
    {
        auto v = value();
        if (!v.ok())
            return v;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON document");
        return v;
    }

  private:
    Status
    fail(std::string_view what) const
    {
        return Status::error("JSON parse error at offset ", pos_, ": ",
                             std::string(what));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(std::string_view w)
    {
        if (text_.substr(pos_, w.size()) == w) {
            pos_ += w.size();
            return true;
        }
        return false;
    }

    Result<JsonValue>
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return objectValue();
        if (c == '[')
            return arrayValue();
        if (c == '"')
            return stringValue();
        if (consumeWord("true")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeWord("false")) {
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (consumeWord("null"))
            return JsonValue{};
        return numberValue();
    }

    Result<JsonValue>
    stringValue()
    {
        auto s = rawString();
        if (!s.ok())
            return s.status();
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = std::move(s.value());
        return v;
    }

    Result<std::string>
    rawString()
    {
        if (!consume('"'))
            return fail("expected '\"'");
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("dangling escape");
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    // Our own writers only escape control characters;
                    // encode the code point as UTF-8 for completeness.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape character");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    Result<JsonValue>
    numberValue()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        const std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        std::uint64_t exact = 0;
        const auto [ptr, ec] = std::from_chars(
            token.data(), token.data() + token.size(), exact);
        if (ec == std::errc() && ptr == token.data() + token.size())
            v.exactUint = exact;
        return v;
    }

    Result<JsonValue>
    arrayValue()
    {
        consume('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            auto item = value();
            if (!item.ok())
                return item;
            v.array.push_back(std::move(item.value()));
            skipWs();
            if (consume(']'))
                return v;
            if (!consume(','))
                return fail("expected ',' or ']'");
        }
    }

    Result<JsonValue>
    objectValue()
    {
        consume('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            auto name = rawString();
            if (!name.ok())
                return name.status();
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            auto member = value();
            if (!member.ok())
                return member;
            v.object.emplace_back(std::move(name.value()),
                                  std::move(member.value()));
            skipWs();
            if (consume('}'))
                return v;
            if (!consume(','))
                return fail("expected ',' or '}'");
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Result<JsonValue>
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

} // namespace eat::obs
