/**
 * @file
 * Per-test scratch directories for tests that write files.
 *
 * ctest runs every test in its own process, several at once under
 * `ctest -j`, so a fixed path under ::testing::TempDir() is shared by
 * parallel tests that overwrite each other's files. scratchDir() gives
 * each test its own directory instead.
 */

#ifndef EAT_TESTS_SCRATCH_DIR_HH
#define EAT_TESTS_SCRATCH_DIR_HH

#include <string>

namespace eat::test
{

/**
 * A directory unique to the running test (suite, name and pid), with a
 * trailing '/'. Created on first use in a test; removed with its
 * contents when that test ends.
 */
std::string scratchDir();

} // namespace eat::test

#endif // EAT_TESTS_SCRATCH_DIR_HH
