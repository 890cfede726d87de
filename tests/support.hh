/**
 * @file
 * Scratch helpers shared by the store, sweep, net and dist suites: a
 * temporary directory that removes itself, and measurement budgets
 * small enough that a whole grid measures in well under a second.
 */

#ifndef SMT_TESTS_SUPPORT_HH
#define SMT_TESTS_SUPPORT_HH

#include <filesystem>
#include <random>
#include <string>
#include <system_error>

#include "sim/mix_runner.hh"

namespace smt
{

/** Tiny budgets so a whole grid measures in well under a second. */
inline MeasureOptions
tinyOptions()
{
    MeasureOptions opts;
    opts.cyclesPerRun = 1200;
    opts.warmupCycles = 300;
    opts.runs = 2;
    return opts;
}

/** A scratch directory, created at once and removed when the test
 *  ends. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_((std::filesystem::temp_directory_path()
                 / ("smt_test_" + tag + "_"
                    + std::to_string(std::random_device{}())))
                    .string())
    {
        std::filesystem::create_directories(path_);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace smt

#endif // SMT_TESTS_SUPPORT_HH
