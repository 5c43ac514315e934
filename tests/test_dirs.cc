#include "test_dirs.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

namespace tlp::test {

namespace {

namespace fs = std::filesystem;

/** `<temp>/tlp_test_<pid>`: the parent of this process's test dirs. */
fs::path
processRoot()
{
    return fs::temp_directory_path() /
           ("tlp_test_" + std::to_string(::getpid()));
}

/** Directory of @p info's test (parameterized names lose their '/'). */
fs::path
dirOf(const ::testing::TestInfo &info)
{
    std::string name =
        std::string(info.test_suite_name()) + "." + info.name();
    std::replace(name.begin(), name.end(), '/', '_');
    return processRoot() / name;
}

/** Removes each test's directory when it ends, and the root at exit. */
class Cleanup : public ::testing::EmptyTestEventListener
{
    void
    OnTestEnd(const ::testing::TestInfo &info) override
    {
        std::error_code ec;
        fs::remove_all(dirOf(info), ec);
    }

    void
    OnTestProgramEnd(const ::testing::UnitTest &) override
    {
        std::error_code ec;
        fs::remove_all(processRoot(), ec);
    }
};

/** Registers Cleanup before gtest_main runs the tests. */
const bool kCleanupRegistered = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new Cleanup);
    return true;
}();

} // namespace

std::string
testDir()
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    const fs::path dir =
        info != nullptr ? dirOf(*info) : processRoot() / "no_test";
    fs::create_directories(dir);
    return dir.string();
}

std::string
testPath(const std::string &name)
{
    return testDir() + "/" + name;
}

} // namespace tlp::test
