#include "util/strings.hh"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/types.hh"

namespace cellbw::util
{

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<size_t>(len));
    }
    va_end(ap2);
    return out;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

std::string
bytesToString(std::uint64_t bytes)
{
    if (bytes >= GiB && bytes % GiB == 0)
        return format("%llu GiB", (unsigned long long)(bytes / GiB));
    if (bytes >= MiB && bytes % MiB == 0)
        return format("%llu MiB", (unsigned long long)(bytes / MiB));
    if (bytes >= KiB && bytes % KiB == 0)
        return format("%llu KiB", (unsigned long long)(bytes / KiB));
    return format("%llu B", (unsigned long long)bytes);
}

std::uint64_t
parseUint64(const std::string &raw)
{
    std::string s = trim(raw);
    // std::stoull quietly accepts a sign ("-1" wraps to UINT64_MAX);
    // require the string to start with a digit instead.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        throw std::invalid_argument("not a non-negative integer: " + raw);
    size_t pos = 0;
    unsigned long long v = std::stoull(s, &pos);    // may throw out_of_range
    if (pos != s.size())
        throw std::invalid_argument("trailing garbage in integer: " + raw);
    return v;
}

std::uint64_t
parseByteSize(const std::string &raw)
{
    std::string s = toLower(trim(raw));
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        throw std::invalid_argument("bad byte size: " + raw);
    size_t pos = 0;
    unsigned long long v = std::stoull(s, &pos);    // may throw out_of_range
    std::string suffix = trim(s.substr(pos));
    std::uint64_t mult;
    if (suffix.empty() || suffix == "b")
        mult = 1;
    else if (suffix == "k" || suffix == "kb" || suffix == "kib")
        mult = KiB;
    else if (suffix == "m" || suffix == "mb" || suffix == "mib")
        mult = MiB;
    else if (suffix == "g" || suffix == "gb" || suffix == "gib")
        mult = GiB;
    else
        throw std::invalid_argument("bad byte-size suffix: " + raw);
    if (mult > 1 && v > std::numeric_limits<std::uint64_t>::max() / mult)
        throw std::out_of_range("byte size overflows 64 bits: " + raw);
    return v * mult;
}

std::size_t
parseDoublePrefix(const std::string &s, double &out)
{
    std::size_t b = 0;
    while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    double v = 0.0;
    auto res = std::from_chars(s.data() + b, s.data() + s.size(), v);
    if (res.ec != std::errc())
        return 0;
    out = v;
    return static_cast<std::size_t>(res.ptr - s.data());
}

bool
parseDouble(const std::string &s, double &out)
{
    const std::string t = trim(s);
    double v = 0.0;
    if (t.empty() || parseDoublePrefix(t, v) != t.size())
        return false;
    out = v;
    return true;
}

} // namespace cellbw::util
