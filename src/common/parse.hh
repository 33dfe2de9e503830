/**
 * @file
 * Strict token parsers for the text formats the repo reads (.scn
 * scenarios, trace CSVs). A token parses only when all of it is the
 * number: trailing junk ("1.5x"), signs on unsigned fields ("-1"),
 * out-of-range values and non-finite ones ("nan", "inf") are
 * rejected, never clamped, wrapped or truncated. Callers turn a false
 * return into a diagnostic that names where the token came from.
 */

#ifndef MODM_COMMON_PARSE_HH
#define MODM_COMMON_PARSE_HH

#include <cstdint>
#include <string>

namespace modm {

/** Decimal digits only, within 64 bits. */
bool parseU64(const std::string &tok, std::uint64_t &out);

/** A finite double; underflow to a subnormal or zero counts as a
 *  range error and is rejected too. */
bool parseDouble(const std::string &tok, double &out);

/** A finite float. Values that round to a float subnormal or zero are
 *  accepted: they are what a %.9g print of such a float reads back. */
bool parseFloat(const std::string &tok, float &out);

} // namespace modm

#endif // MODM_COMMON_PARSE_HH
