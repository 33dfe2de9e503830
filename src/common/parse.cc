#include "src/common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace modm {

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return errno == 0 && end != nullptr && *end == '\0';
}

bool
parseDouble(const std::string &tok, double &out)
{
    if (tok.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return errno == 0 && end != nullptr && *end == '\0' &&
           std::isfinite(out);
}

bool
parseFloat(const std::string &tok, float &out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    out = std::strtof(tok.c_str(), &end);
    return end != nullptr && *end == '\0' && std::isfinite(out);
}

} // namespace modm
