#ifndef HPR_EXAMPLES_FLAGS_H
#define HPR_EXAMPLES_FLAGS_H

// Command-line value parsing shared by the example programs.

#include <cerrno>
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

#endif  // HPR_EXAMPLES_FLAGS_H
