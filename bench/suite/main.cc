/**
 * @file
 * bench_suite: end-to-end and per-layer benchmark of the Fathom
 * runtime, training, inference and serving, on three workloads.
 *
 *   bench_suite --workload seq2seq --seed 1 --seconds 30 --trace 0
 *       One run of one workload. --trace 0 measures the end-to-end
 *       metrics with tracing and telemetry off; --trace 1 is the
 *       separate traced run that measures the per-layer metrics (and,
 *       with --out DIR, writes the trace artifacts there). The last
 *       line of stdout is the run's JSON result. Exits 1 when a
 *       correctness check failed.
 *
 *   bench_suite --seed 1 --out DIR [--seconds 30] [--commit SHA] [--smoke]
 *       Every workload, untraced then traced, each run in a child
 *       process of its own (so peak RSS, the buffer pool and the
 *       metrics registry start fresh), appending rows to
 *       DIR/results.jsonl. --smoke shortens every phase to one window.
 *
 *   bench_suite --compare DIR_A DIR_B
 *       Judges two sets of runs against the metric bounds; every
 *       results.jsonl under a set's directory is one run. Exits 1 when
 *       a metric got worse.
 *
 *   bench_suite --catalog
 *       Prints the workloads and metric catalog as JSON.
 */
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalog.h"
#include "report.h"
#include "workload_run.h"

extern char** environ;

namespace {

using namespace fathom::bench_suite;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool smoke = false;
    std::string out_dir;
    std::string commit = "unknown";
    std::vector<std::string> compare;
    bool catalog = false;
};

Args
Parse(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            args.workload = value();
        } else if (arg == "--seed") {
            args.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            args.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            args.trace = v == "1";
        } else if (arg == "--out") {
            args.out_dir = value();
        } else if (arg == "--commit") {
            args.commit = value();
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else if (arg == "--catalog") {
            args.catalog = true;
        } else if (arg == "--compare") {
            args.compare.push_back(value());
            args.compare.push_back(value());
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (args.seconds <= 0.0 || args.seconds > 120.0) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
    }
    return args;
}

/** One workload run in this process. @return the exit code. */
int
RunOne(const Args& args)
{
    const WorkloadSpec* spec = FindWorkload(args.workload);
    if (spec == nullptr) {
        std::cerr << "bench_suite: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    if (!args.out_dir.empty()) {
        std::filesystem::create_directories(args.out_dir);
    }
    RunOptions options;
    options.seed = args.seed;
    options.seconds = args.seconds;
    options.trace = args.trace;
    options.smoke = args.smoke;
    options.out_dir = args.out_dir;
    const RunResult result = RunWorkload(*spec, options);

    PrintMetrics(std::cout, spec->name, result);
    if (!args.out_dir.empty()) {
        std::ofstream rows(args.out_dir + "/results.jsonl", std::ios::app);
        WriteRows(rows, args.commit, spec->name, args.trace, result);
    }
    std::cout << ResultJson(result) << std::endl;
    return result.correct() ? 0 : 1;
}

/** Runs this binary with @p args as a child and waits for it. */
int
RunChild(const std::vector<std::string>& args)
{
    std::vector<char*> argv;
    for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int err =
        posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(), environ);
    if (err != 0) {
        throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(err));
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            throw std::runtime_error(std::string("waitpid: ") + std::strerror(errno));
        }
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/** Every workload, untraced then traced, in child processes. */
int
RunSuite(const Args& args, const std::string& self)
{
    std::filesystem::create_directories(args.out_dir);
    std::ofstream(args.out_dir + "/results.jsonl", std::ios::trunc);
    int code = 0;
    for (const WorkloadSpec& w : kWorkloads) {
        for (const char* trace : {"0", "1"}) {
            std::vector<std::string> child = {
                self, "--workload", w.name, "--seed", std::to_string(args.seed),
                "--seconds", std::to_string(args.seconds), "--trace", trace,
                "--out", args.out_dir, "--commit", args.commit};
            if (args.smoke) {
                child.push_back("--smoke");
            }
            const int rc = RunChild(child);
            if (rc != 0) {
                std::cerr << "bench_suite: " << w.name << " --trace " << trace
                          << " exited " << rc << "\n";
                code = 1;
            }
        }
    }
    return code;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        const Args args = Parse(argc, argv);
        if (args.catalog) {
            std::cout << CatalogJson() << "\n";
            return 0;
        }
        if (!args.compare.empty()) {
            return Compare(args.compare[0], args.compare[1], std::cout);
        }
        if (!args.workload.empty()) {
            return RunOne(args);
        }
        if (args.out_dir.empty()) {
            throw std::invalid_argument(
                "give --workload NAME, --out DIR (every workload) or --compare A B");
        }
        return RunSuite(args, argv[0]);
    } catch (const std::exception& e) {
        std::cerr << "bench_suite: " << e.what() << "\n";
        return 2;
    }
}
