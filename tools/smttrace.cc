/**
 * @file
 * smttrace: profile a sweep from its trace files and store access
 * logs.
 *
 *   smttrace TRACE.jsonl [MORE.jsonl ...] [--access-log LOG] ...
 *       ingest every file (trace spans and access logs are told apart
 *       by line shape, so the slots are interchangeable), join them
 *       by trace id, and print the analysis: per-worker utilization
 *       ledger, straggler/skew, store latency percentiles, claim
 *       contention, the critical-path digest chain, and any digest
 *       that never reached a terminal state (stored/hit).
 *
 * Readers tolerate malformed, torn, and foreign lines (counted,
 * skipped, never fatal) and collapse byte-identical duplicates, so a
 * file passed twice, or a copy beside its original, counts once.
 *
 * Outputs beyond the text report:
 *   --json PATH        the machine-readable summary ("smt-trace-v1");
 *                      "-" prints to stdout
 *   --chrome-out PATH  Chrome trace-event JSON: load in Perfetto or
 *                      chrome://tracing, one track per worker
 *   --check            exit 1 when any digest never reached a
 *                      terminal state, or when the trace contains no
 *                      digest lifecycle at all (the signature of
 *                      workers whose spans were lost) — CI's gate
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/trace_analysis.hh"
#include "sweep/runner.hh"

namespace
{

int
usage(int code)
{
    std::fprintf(
        code == 0 ? stdout : stderr,
        "usage: smttrace FILE [FILE ...] [options]\n"
        "\n"
        "Analyze sweep trace files (--trace-out spans) joined with\n"
        "smtstore access logs.\n"
        "\n"
        "options:\n"
        "  --access-log F  ingest an smtstore --access-log file\n"
        "                  (repeatable; store latency and claim\n"
        "                  contention come from these records)\n"
        "  --trace ID      analyze this trace id (default: the id\n"
        "                  with the most spans in the input)\n"
        "  --json PATH     write the machine-readable summary\n"
        "                  (\"-\" for stdout)\n"
        "  --chrome-out P  write a Chrome trace-event JSON export\n"
        "                  (open in Perfetto / chrome://tracing)\n"
        "  --stalls F      embed the stall ledger from an\n"
        "                  `smtsweep --stall-report --json` artifact\n"
        "                  into the summary\n"
        "  --check         exit 1 if any digest never reached a\n"
        "                  terminal state (stored/hit), or if no\n"
        "                  digest lifecycle was traced at all\n"
        "  --quiet         suppress the text report\n"
        "  --help, -h      print this help\n");
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace smt;

    std::vector<std::string> files;
    std::vector<std::string> access_logs;
    std::string trace_id;
    std::string json_path;
    std::string chrome_path;
    std::string stalls_path;
    bool check = false;
    bool quiet = false;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "smttrace: %s needs a value\n",
                         argv[i]);
            std::exit(usage(2));
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--access-log") == 0)
            access_logs.push_back(next_arg(i));
        else if (std::strcmp(arg, "--trace") == 0)
            trace_id = next_arg(i);
        else if (std::strcmp(arg, "--json") == 0)
            json_path = next_arg(i);
        else if (std::strcmp(arg, "--chrome-out") == 0)
            chrome_path = next_arg(i);
        else if (std::strcmp(arg, "--stalls") == 0)
            stalls_path = next_arg(i);
        else if (std::strcmp(arg, "--check") == 0)
            check = true;
        else if (std::strcmp(arg, "--quiet") == 0)
            quiet = true;
        else if (std::strcmp(arg, "--help") == 0
                 || std::strcmp(arg, "-h") == 0)
            return usage(0);
        else if (arg[0] == '-' && arg[1] != '\0') {
            std::fprintf(stderr, "smttrace: unknown option %s\n", arg);
            return usage(2);
        } else
            files.push_back(arg);
    }
    if (files.empty() && access_logs.empty()) {
        std::fprintf(stderr, "smttrace: no input files\n");
        return usage(2);
    }

    obs::TraceSet set;
    for (const std::string &path : files) {
        std::string error;
        if (!set.addFile(path, &error)) {
            std::fprintf(stderr, "smttrace: %s\n", error.c_str());
            return 2;
        }
    }
    for (const std::string &path : access_logs) {
        std::string error;
        if (!set.addFile(path, &error)) {
            std::fprintf(stderr, "smttrace: %s\n", error.c_str());
            return 2;
        }
    }

    // An optional stall ledger (from `smtsweep --stall-report --json`)
    // rides the summary verbatim, so one artifact profiles both tiers:
    // where the sweep's wall time went and where the simulated
    // machine's issue slots went.
    sweep::Json stalls;
    bool have_stalls = false;
    if (!stalls_path.empty()) {
        if (!sweep::Json::readFile(stalls_path, stalls)) {
            std::fprintf(stderr,
                         "smttrace: cannot read stall JSON %s\n",
                         stalls_path.c_str());
            return 2;
        }
        have_stalls = true;
    }

    const obs::TraceAnalysis analysis =
        obs::analyzeTrace(set, trace_id);

    if (!quiet)
        std::fputs(obs::analysisReport(analysis, set).c_str(), stdout);

    if (!json_path.empty()) {
        const sweep::Json summary = obs::analysisSummary(
            analysis, set, have_stalls ? &stalls : nullptr);
        if (json_path == "-")
            std::printf("%s\n", summary.dump(2).c_str());
        else
            sweep::writeJsonFile(json_path, summary);
    }

    if (!chrome_path.empty())
        sweep::writeJsonFile(chrome_path,
                             obs::chromeTrace(set, trace_id));

    if (check) {
        if (analysis.digests.empty()) {
            std::fprintf(stderr,
                         "smttrace: check FAILED — the trace has no "
                         "digest lifecycle at all (were worker spans "
                         "collected?)\n");
            return 1;
        }
        if (analysis.nonTerminal > 0) {
            std::fprintf(stderr,
                         "smttrace: check FAILED — %zu digest(s) "
                         "never reached a terminal state\n",
                         analysis.nonTerminal);
            return 1;
        }
        if (!quiet)
            std::printf("smttrace: check passed — %zu digest(s) all "
                        "terminal\n",
                        analysis.digests.size());
    }
    return 0;
}
