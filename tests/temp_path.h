#ifndef HPR_TESTS_TEMP_PATH_H
#define HPR_TESTS_TEMP_PATH_H

/// \file temp_path.h
/// Scratch file names for tests that write under the temp directory.
///
/// A fixed name there is shared by every process running the same test:
/// two suites run side by side (a sanitizer build's beside a release
/// build's, or parallel --gtest_repeat loops) then delete or overwrite
/// each other's files mid-test.  The process id in the name keeps each
/// process's files its own.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>

namespace hpr::test {

/// `<temp dir>/<name>.<pid>`: unique to this process, stable within it.
inline std::string unique_temp_path(std::string_view name) {
    return (std::filesystem::temp_directory_path() /
            (std::string{name} + '.' + std::to_string(::getpid())))
        .string();
}

}  // namespace hpr::test

#endif  // HPR_TESTS_TEMP_PATH_H
