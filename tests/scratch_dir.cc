#include "scratch_dir.hh"

#include <cctype>
#include <filesystem>
#include <system_error>

#include <unistd.h>

#include <gtest/gtest.h>

namespace eat::test
{

namespace
{

/** The running test's directory; empty until scratchDir() makes it. */
std::filesystem::path current;

/** Removes the running test's directory when the test ends. */
class RemoveAtTestEnd : public ::testing::EmptyTestEventListener
{
    void
    OnTestEnd(const ::testing::TestInfo &) override
    {
        if (current.empty())
            return;
        std::error_code ec;
        std::filesystem::remove_all(current, ec);
        current.clear();
    }
};

[[maybe_unused]] const bool registered = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(
        new RemoveAtTestEnd);
    return true;
}();

} // namespace

std::string
scratchDir()
{
    if (current.empty()) {
        const ::testing::TestInfo &info =
            *::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string("eat_") + info.test_suite_name() +
                           "." + info.name() + "_" +
                           std::to_string(::getpid());
        // Parameterized names carry '/', spaces and the like; the CLI
        // tests splice these paths into shell commands unquoted.
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
                c != '-')
                c = '_';
        }
        const std::filesystem::path dir =
            std::filesystem::path(::testing::TempDir()) / name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        current = dir;
    }
    return current.string() + "/";
}

} // namespace eat::test
