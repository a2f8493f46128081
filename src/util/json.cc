#include "util/json.hh"

#include <cctype>
#include <stdexcept>

#include "util/strings.hh"

namespace cellbw::util
{

bool
JsonValue::boolean() const
{
    if (kind_ != Kind::Bool)
        throw std::logic_error("JsonValue: not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    if (kind_ != Kind::Number)
        throw std::logic_error("JsonValue: not a number");
    return num_;
}

const std::string &
JsonValue::str() const
{
    if (kind_ != Kind::String)
        throw std::logic_error("JsonValue: not a string");
    return str_;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    if (kind_ != Kind::Array)
        throw std::logic_error("JsonValue: not an array");
    return arr_;
}

const std::vector<JsonValue::Member> &
JsonValue::object() const
{
    if (kind_ != Kind::Object)
        throw std::logic_error("JsonValue: not an object");
    return obj_;
}

namespace
{

/** The JSON number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
bool
validNumberToken(const std::string &tok)
{
    std::size_t i = 0;
    const std::size_t n = tok.size();
    auto digit = [&](std::size_t p) {
        return p < n && tok[p] >= '0' && tok[p] <= '9';
    };
    if (i < n && tok[i] == '-')
        ++i;
    if (!digit(i))
        return false;
    if (tok[i] == '0')
        ++i;
    else
        while (digit(i))
            ++i;
    if (i < n && tok[i] == '.') {
        ++i;
        if (!digit(i))
            return false;
        while (digit(i))
            ++i;
    }
    if (i < n && (tok[i] == 'e' || tok[i] == 'E')) {
        ++i;
        if (i < n && (tok[i] == '+' || tok[i] == '-'))
            ++i;
        if (!digit(i))
            return false;
        while (digit(i))
            ++i;
    }
    return i == n;
}

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &m : obj_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

std::string
JsonValue::strOr(const std::string &key, const std::string &def) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->str() : def;
}

bool
JsonValue::boolOr(const std::string &key, bool def) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->boolean() : def;
}

/** One parse over one input; tracks position for error messages. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    run(JsonValue &out, std::string &err)
    {
        try {
            skipWs();
            parseValue(out);
            skipWs();
            if (pos_ != text_.size())
                fail("trailing characters after document");
        } catch (const std::runtime_error &e) {
            err = e.what();
            return false;
        }
        return true;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error(
            format("offset %zu: %s", pos_, what.c_str()));
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    char
    next()
    {
        char c = peek();
        ++pos_;
        return c;
    }

    void
    expect(char c)
    {
        if (next() != c)
            fail(format("expected '%c'", c));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(format("bad literal (expected %s)", word));
            ++pos_;
        }
    }

    void
    parseValue(JsonValue &out)
    {
        switch (peek()) {
          case '{':
            parseObject(out);
            return;
          case '[':
            parseArray(out);
            return;
          case '"':
            out.kind_ = JsonValue::Kind::String;
            out.str_ = parseString();
            return;
          case 't':
            literal("true");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return;
          case 'f':
            literal("false");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return;
          case 'n':
            literal("null");
            out.kind_ = JsonValue::Kind::Null;
            return;
          default:
            parseNumber(out);
            return;
        }
    }

    /** RAII nesting guard: deep documents fail instead of overflowing. */
    struct DepthGuard
    {
        explicit DepthGuard(JsonParser &p) : parser(p)
        {
            if (++parser.depth_ > JsonValue::kMaxDepth)
                parser.fail("nesting deeper than 512 levels");
        }
        ~DepthGuard() { --parser.depth_; }
        JsonParser &parser;
    };

    void
    parseObject(JsonValue &out)
    {
        DepthGuard guard(*this);
        expect('{');
        out.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            skipWs();
            JsonValue v;
            parseValue(v);
            out.obj_.emplace_back(std::move(key), std::move(v));
            skipWs();
            char c = next();
            if (c == '}')
                return;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    void
    parseArray(JsonValue &out)
    {
        DepthGuard guard(*this);
        expect('[');
        out.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            parseValue(v);
            out.arr_.push_back(std::move(v));
            skipWs();
            char c = next();
            if (c == ']')
                return;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            char c = next();
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            char esc = next();
            switch (esc) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = next();
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (the writer never
                // emits surrogate pairs; treat them as literal units).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    void
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        // Strict JSON grammar: rejects what a C-library parse would
        // take ("+1", "01", "1.", hex).
        if (!validNumberToken(tok)) {
            pos_ = start;
            fail("malformed number");
        }
        if (!parseDouble(tok, out.num_)) {
            pos_ = start;
            fail("number out of range");
        }
        out.kind_ = JsonValue::Kind::Number;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

bool
JsonValue::parse(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue();
    return JsonParser(text).run(out, err);
}

} // namespace cellbw::util
