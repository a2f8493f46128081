#include "stats/json_writer.hh"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace cellbw::stats
{

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        if (started_)
            sim::fatal("JsonWriter: more than one top-level value");
        started_ = true;
        return;
    }
    if (stack_.back() == Scope::Object) {
        if (!keyPending_)
            sim::fatal("JsonWriter: object value without a key");
        keyPending_ = false;
    } else {
        if (hasValue_.back())
            out_ += ',';
        hasValue_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    stack_.push_back(Scope::Object);
    hasValue_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        sim::fatal("JsonWriter: endObject outside an object");
    if (keyPending_)
        sim::fatal("JsonWriter: endObject with a dangling key");
    out_ += '}';
    stack_.pop_back();
    hasValue_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    stack_.push_back(Scope::Array);
    hasValue_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        sim::fatal("JsonWriter: endArray outside an array");
    out_ += ']';
    stack_.pop_back();
    hasValue_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        sim::fatal("JsonWriter: key('%s') outside an object", k.c_str());
    if (keyPending_)
        sim::fatal("JsonWriter: two keys in a row ('%s')", k.c_str());
    if (hasValue_.back())
        out_ += ',';
    hasValue_.back() = true;
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    keyPending_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &s)
{
    beforeValue();
    out_ += '"';
    out_ += escape(s);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *s)
{
    return value(std::string(s));
}

JsonWriter &
JsonWriter::value(double d)
{
    beforeValue();
    out_ += number(d);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t u)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, u);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t i)
{
    beforeValue();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, i);
    out_ += buf;
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    beforeValue();
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beforeValue();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    beforeValue();
    out_ += json;
    return *this;
}

const std::string &
JsonWriter::str() const
{
    if (!complete())
        sim::fatal("JsonWriter: document incomplete (unbalanced "
                   "begin/end or nothing written)");
    return out_;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
JsonWriter::number(double d)
{
    if (!std::isfinite(d))
        return "null";
    // Integral doubles in the exactly-representable range print as
    // integers: stable golden files and no "1e+06" surprises.
    if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        return buf;
    }
    // Shortest representation that round-trips: try increasing
    // precision until the parse matches.  to_chars/from_chars, not
    // printf/scanf: those follow LC_NUMERIC, and a comma-decimal locale
    // would turn every non-integral number into invalid JSON.
    // to_chars(general, prec) is defined as C-locale "%.*g", so the
    // bytes are unchanged where it mattered before.
    char buf[40];
    std::size_t len = 0;
    for (int prec = 15; prec <= 17; ++prec) {
        auto res = std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, prec);
        len = static_cast<std::size_t>(res.ptr - buf);
        double back = 0.0;
        std::from_chars(buf, res.ptr, back);
        if (back == d)
            break;
    }
    return std::string(buf, len);
}

} // namespace cellbw::stats
