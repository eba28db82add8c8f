#include "api/Json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace qc {

namespace {

[[noreturn]] void
jsonError(const std::string &what)
{
    throw std::invalid_argument("json: " + what);
}

const char *
kindName(Json::Kind kind)
{
    switch (kind) {
      case Json::Kind::Null:   return "null";
      case Json::Kind::Bool:   return "bool";
      case Json::Kind::Number: return "number";
      case Json::Kind::String: return "string";
      case Json::Kind::Array:  return "array";
      case Json::Kind::Object: return "object";
    }
    return "?";
}

/** Largest integer magnitude exactly representable in a double. */
constexpr double exactIntLimit = 9007199254740992.0; // 2^53

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (std::isfinite(v) && v == std::floor(v)
        && std::fabs(v) < exactIntLimit) {
        out += std::to_string(static_cast<std::int64_t>(v));
        return;
    }
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null like most encoders.
        out += "null";
        return;
    }
    // std::to_chars is locale-independent by definition; an
    // ostringstream here would honor the global locale's decimal
    // separator and could emit "0,5" — invalid JSON — under e.g.
    // de_DE. %.17g-equivalent formatting keeps the bytes identical
    // to the previous precision(17) stream under the C locale
    // (round-trip exact for every double).
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

/** Recursive-descent parser over a bounds-checked cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    document()
    {
        const Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            jsonError("trailing characters at offset "
                      + std::to_string(pos_));
        return value;
    }

  private:
    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            jsonError("unexpected end of input");
        return text_[pos_];
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(
                   text_[pos_])))
            ++pos_;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            jsonError(std::string("expected '") + c + "' at offset "
                      + std::to_string(pos_));
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                jsonError(std::string("bad literal, expected ")
                          + word);
            ++pos_;
        }
    }

    Json
    parseValue()
    {
        // Bound recursion so hostile nesting ("[[[[...") throws
        // like every other malformed input instead of overflowing
        // the stack; real configs/results nest a handful deep.
        if (depth_ >= Json::kMaxParseDepth)
            jsonError("nesting deeper than "
                      + std::to_string(Json::kMaxParseDepth)
                      + " levels");
        ++depth_;
        Json out;
        switch (peek()) {
          case '{': out = parseObject(); break;
          case '[': out = parseArray(); break;
          case '"': out = Json(parseString()); break;
          case 't': literal("true"); out = Json(true); break;
          case 'f': literal("false"); out = Json(false); break;
          case 'n': literal("null"); break;
          default:  out = parseNumber(); break;
        }
        --depth_;
        return out;
    }

    Json
    parseObject()
    {
        expect('{');
        Json out = Json::object();
        if (consume('}'))
            return out;
        do {
            if (peek() != '"')
                jsonError("object key must be a string at offset "
                          + std::to_string(pos_));
            std::string key = parseString();
            expect(':');
            out.set(key, parseValue());
        } while (consume(','));
        expect('}');
        return out;
    }

    Json
    parseArray()
    {
        expect('[');
        Json out = Json::array();
        if (consume(']'))
            return out;
        do {
            out.push(parseValue());
        } while (consume(','));
        expect(']');
        return out;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                jsonError("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                jsonError("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'n':  out += '\n'; break;
              case 't':  out += '\t'; break;
              case 'r':  out += '\r'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    jsonError("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_ + static_cast<
                        std::size_t>(i)];
                    unsigned digit;
                    if (h >= '0' && h <= '9')
                        digit = static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        digit = static_cast<unsigned>(h - 'a') + 10;
                    else if (h >= 'A' && h <= 'F')
                        digit = static_cast<unsigned>(h - 'A') + 10;
                    else
                        jsonError(std::string("bad hex digit '") + h
                                  + "' in \\u escape");
                    code = code * 16 + digit;
                }
                pos_ += 4;
                // Config/result content is ASCII; encode the BMP
                // code point as UTF-8 without surrogate handling.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80
                                             | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                jsonError(std::string("bad escape '\\") + esc + "'");
            }
        }
    }

    Json
    parseNumber()
    {
        skipSpace();
        const std::size_t start = pos_;
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(
                       text_[pos_]))
                   || text_[pos_] == '-' || text_[pos_] == '+'
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            jsonError("expected a value at offset "
                      + std::to_string(start));
        const std::string token = text_.substr(start, pos_ - start);
        // std::from_chars parses in the C locale regardless of the
        // global locale (std::stod would read "0,5" under de_DE).
        // It rejects a leading '+', which strtod accepted — keep
        // accepting it for compatibility with the old parser.
        const char *first = token.data();
        const char *last = token.data() + token.size();
        if (first != last && *first == '+')
            ++first;
        double value = 0;
        const std::from_chars_result r =
            std::from_chars(first, last, value);
        if (r.ec != std::errc() || r.ptr != last || first == last)
            jsonError("bad number '" + token + "'");
        return Json(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        jsonError(std::string("expected bool, have ")
                  + kindName(kind_));
    return bool_;
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Number)
        jsonError(std::string("expected number, have ")
                  + kindName(kind_));
    return number_;
}

std::int64_t
Json::asInt() const
{
    const double v = asDouble();
    // The bounds are the two nearest doubles bracketing the int64
    // range; a value outside them (or NaN, which fails both
    // comparisons) would make the cast undefined behavior.
    if (!(v >= -9223372036854775808.0
          && v < 9223372036854775808.0))
        jsonError("number " + std::to_string(v)
                  + " does not fit in int64");
    return static_cast<std::int64_t>(v);
}

bool
Json::asIndex(std::size_t &out) const
{
    if (kind_ != Kind::Number)
        return false;
    const double v = number_;
    if (!(v >= 0.0 && v < exactIntLimit)
        || v != std::floor(v))
        return false;
    out = static_cast<std::size_t>(v);
    return true;
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        jsonError(std::string("expected string, have ")
                  + kindName(kind_));
    return string_;
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    jsonError(std::string("expected array/object, have ")
              + kindName(kind_));
}

const Json &
Json::at(std::size_t index) const
{
    if (kind_ != Kind::Array)
        jsonError(std::string("expected array, have ")
                  + kindName(kind_));
    if (index >= array_.size())
        jsonError("array index " + std::to_string(index)
                  + " out of range");
    return array_[index];
}

void
Json::push(Json value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        jsonError(std::string("push into ") + kindName(kind_));
    array_.push_back(std::move(value));
}

bool
Json::has(const std::string &key) const
{
    return kind_ == Kind::Object && object_.count(key) > 0;
}

const Json &
Json::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        jsonError(std::string("expected object, have ")
                  + kindName(kind_));
    const auto it = object_.find(key);
    if (it == object_.end())
        jsonError("missing key \"" + key + "\"");
    return it->second;
}

void
Json::set(const std::string &key, Json value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        jsonError(std::string("set on ") + kindName(kind_));
    object_[key] = std::move(value);
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    const auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

const Json *
Json::find(std::size_t index) const
{
    if (kind_ != Kind::Array || index >= array_.size())
        return nullptr;
    return &array_[index];
}

const std::map<std::string, Json> &
Json::items() const
{
    if (kind_ != Kind::Object)
        jsonError(std::string("expected object, have ")
                  + kindName(kind_));
    return object_;
}

bool
Json::getBool(const std::string &key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

double
Json::getDouble(const std::string &key, double fallback) const
{
    return has(key) ? at(key).asDouble() : fallback;
}

std::int64_t
Json::getInt(const std::string &key, std::int64_t fallback) const
{
    return has(key) ? at(key).asInt() : fallback;
}

std::string
Json::getString(const std::string &key,
                const std::string &fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(static_cast<std::size_t>(
                              indent > 0 ? indent * (depth + 1) : 0),
                          ' ');
    const std::string close(static_cast<std::size_t>(
                                indent > 0 ? indent * depth : 0),
                            ' ');
    const char *nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, number_);
        break;
      case Kind::String:
        appendEscaped(out, string_);
        break;
      case Kind::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        bool first = true;
        for (const Json &v : array_) {
            if (!first) {
                out += ',';
                out += nl;
            }
            first = false;
            out += pad;
            v.dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += close;
        out += ']';
        break;
      }
      case Kind::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        bool first = true;
        for (const auto &[key, v] : object_) {
            if (!first) {
                out += ',';
                out += nl;
            }
            first = false;
            out += pad;
            appendEscaped(out, key);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += close;
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

std::uint64_t
Json::hash() const
{
    // FNV-1a over the compact dump: the dump is canonical (sorted
    // keys, shortest-round-trip numbers), so the hash is stable
    // across construction order, processes and platforms.
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : dump(0)) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

Json
Json::parse(const std::string &text)
{
    if (text.size() > kMaxDocumentBytes)
        jsonError("document of " + std::to_string(text.size())
                  + " bytes exceeds the "
                  + std::to_string(kMaxDocumentBytes)
                  + "-byte limit");
    return Parser(text).document();
}

Json
Json::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        jsonError("cannot open " + path);
    // Reject oversized files before buffering them: the parse()
    // bound alone would still have read the whole file into
    // memory first.
    in.seekg(0, std::ios::end);
    const std::streamoff bytes = in.tellg();
    if (bytes >= 0
        && static_cast<std::uint64_t>(bytes) > kMaxDocumentBytes)
        jsonError(path + " is " + std::to_string(bytes)
                  + " bytes, over the "
                  + std::to_string(kMaxDocumentBytes)
                  + "-byte document limit");
    in.seekg(0, std::ios::beg);
    std::ostringstream ss;
    ss << in.rdbuf();
    return parse(ss.str());
}

void
Json::saveFile(const std::string &path, int indent) const
{
    std::ofstream out(path);
    if (!out)
        jsonError("cannot write " + path);
    out << dump(indent) << "\n";
    if (!out)
        jsonError("write to " + path + " failed");
}

bool
Json::operator==(const Json &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:   return true;
      case Kind::Bool:   return bool_ == other.bool_;
      case Kind::Number: return number_ == other.number_;
      case Kind::String: return string_ == other.string_;
      case Kind::Array:  return array_ == other.array_;
      case Kind::Object: return object_ == other.object_;
    }
    return false;
}

void
setJsonPath(Json &object, const std::string &path, Json value)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        object.set(path, std::move(value));
        return;
    }
    const std::string head = path.substr(0, dot);
    Json child = object.has(head) && object.at(head).isObject()
        ? object.at(head)
        : Json::object();
    setJsonPath(child, path.substr(dot + 1), std::move(value));
    object.set(head, std::move(child));
}

void
flattenPaths(const Json &json, const std::string &prefix,
             std::vector<std::string> &out)
{
    for (const auto &[key, value] : json.items()) {
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        if (value.isObject() && value.items().size() > 0)
            flattenPaths(value, path, out);
        else
            out.push_back(path);
    }
}

} // namespace qc
