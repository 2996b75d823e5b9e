/**
 * @file
 * The JSON string escaper and number formatter every emitter in src/
 * uses.
 */

#ifndef SILO_SIM_JSON_HH
#define SILO_SIM_JSON_HH

#include <string>

namespace silo
{

/**
 * @return @p s escaped for use inside a JSON string literal: quote and
 * backslash are backslash-escaped, newline and tab become \n and \t,
 * and every other control byte below 0x20 becomes \u00XX, so the
 * result is valid JSON whatever bytes a name carries.
 */
std::string jsonEscape(const std::string &s);

/** @return @p v formatted round-trippably ("%.17g"), locale-independent. */
std::string jsonNum(double v);

} // namespace silo

#endif // SILO_SIM_JSON_HH
