/**
 * @file
 * Per-test scratch directories.
 *
 * Every test that writes files gets its own directory under the system
 * temp dir, keyed by process id and test name, so tests that run in
 * parallel (`ctest -j`) never share a path. The directory is created on
 * first use and removed when the test ends.
 */
#pragma once

#include <string>

namespace tlp::test {

/**
 * The running test's own directory, created on first use:
 * `<temp>/tlp_test_<pid>/<Suite>.<Test>`.
 */
std::string testDir();

/** Path of @p name inside testDir(). */
std::string testPath(const std::string &name);

} // namespace tlp::test
