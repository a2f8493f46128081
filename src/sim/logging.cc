#include "sim/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cellbw::sim
{

namespace
{

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<size_t>(len));
    }
    va_end(ap2);
    return out;
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    throw FatalError(msg);
}

} // namespace cellbw::sim
