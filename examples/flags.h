#ifndef HPR_EXAMPLES_FLAGS_H
#define HPR_EXAMPLES_FLAGS_H

// Command-line value parsing shared by the example programs.

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

/// Strict decimal parse of a whole flag value into [min_value, ULONG_MAX],
/// rejecting empty strings, trailing garbage, signs, and — via
/// errno/ERANGE — values strtoul would otherwise silently saturate
/// (e.g. --threads=99999999999999999999).  Returns false on any defect.
inline bool parse_flag_size(const char* text, unsigned long min_value,
                            std::size_t& out) {
    if (*text == '\0' || *text == '-' || *text == '+') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0') return false;
    if (value < min_value || value > SIZE_MAX) return false;
    out = static_cast<std::size_t>(value);
    return true;
}

/// Strict parse of a whole flag value as a double, with the same
/// no-garbage and no-overflow (errno/ERANGE) discipline as
/// parse_flag_size.  NaN is rejected.
inline bool parse_flag_double(const char* text, double& out) {
    if (*text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (errno == ERANGE || end == text || *end != '\0' || std::isnan(value)) return false;
    out = value;
    return true;
}

/// Strict parse of a flag value into a double in [0, 1].
inline bool parse_flag_unit(const char* text, double& out) {
    double value = 0.0;
    if (!parse_flag_double(text, value) || value < 0.0 || value > 1.0) return false;
    out = value;
    return true;
}

#endif  // HPR_EXAMPLES_FLAGS_H
