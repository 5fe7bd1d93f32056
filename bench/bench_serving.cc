/**
 * @file
 * Closed-loop serving load generator.
 *
 * For each (workload, client concurrency, latency budget, max batch)
 * configuration this spins up C client threads against one
 * ServingRuntime sharing one FrozenPlan; each client submits a request,
 * waits for its response, and immediately submits the next (closed
 * loop, the classic serving-benchmark shape: offered load tracks
 * achieved throughput, so the system is never driven into unbounded
 * queueing). Reported per configuration: QPS, client-observed p50/p99
 * latency decomposed into time-in-queue (the batcher's budget
 * guarantee) and execution time (batch formation -> response), and the
 * mean formed batch size from the telemetry registry. The queue/exec
 * split shows where each configuration's latency lives: batch-1 pays
 * in queueing (requests serialize behind each other), dynamic batching
 * pays a bounded queue wait to buy amortized execution.
 *
 * The headline comparison is max_batch=1 (no coalescing — every
 * request executes alone) against max_batch=8 under the same latency
 * budget: dynamic batching should win QPS at concurrency >= 8 because
 * a batched GEMM amortizes packing and weight traffic across rows.
 *
 *   bench_serving --workloads alexnet,vgg,deepq --concurrency 1,4,8 \
 *       --budgets-us 1000,5000 --max-batches 1,8 --requests 40 \
 *       --out-dir bench_out
 *
 * --out-dir writes the results table (serving_table.txt) and the
 * per-configuration serving metrics (metrics.jsonl) as CI artifacts.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/table.h"
#include "serving/frozen_plan.h"
#include "serving/serving_runtime.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace {

using namespace fathom;

struct Options {
    std::vector<std::string> workloads = {"alexnet", "vgg", "deepq"};
    std::vector<int> concurrency = {1, 4, 8};
    std::vector<std::int64_t> budgets_us = {1000, 5000};
    std::vector<std::int64_t> max_batches = {1, 8};
    int requests_per_client = 40;
    std::string out_dir;
};

Options
ParseArgs(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error("missing value for " + arg);
            }
            return argv[++i];
        };
        if (arg == "--workloads") {
            options.workloads = core::SplitCsv(next());
        } else if (arg == "--concurrency") {
            options.concurrency.clear();
            for (const auto& v : core::SplitCsv(next())) {
                options.concurrency.push_back(std::stoi(v));
            }
        } else if (arg == "--budgets-us") {
            options.budgets_us.clear();
            for (const auto& v : core::SplitCsv(next())) {
                options.budgets_us.push_back(std::stoll(v));
            }
        } else if (arg == "--max-batches") {
            options.max_batches.clear();
            for (const auto& v : core::SplitCsv(next())) {
                options.max_batches.push_back(std::stoll(v));
            }
        } else if (arg == "--requests") {
            options.requests_per_client = std::stoi(next());
        } else if (arg == "--out-dir") {
            options.out_dir = next();
        } else {
            throw std::runtime_error("unknown argument: " + arg);
        }
    }
    return options;
}

struct ConfigResult {
    std::string workload;
    int clients = 0;
    std::int64_t budget_us = 0;
    std::int64_t max_batch = 0;
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double queue_p50_ms = 0.0;
    double queue_p99_ms = 0.0;
    double exec_p50_ms = 0.0;
    double exec_p99_ms = 0.0;
    double mean_batch = 0.0;
};

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

ConfigResult
RunConfig(const std::string& name,
          const std::shared_ptr<const serving::FrozenPlan>& plan,
          const std::vector<serving::RequestFeeds>& pool, int clients,
          std::int64_t budget_us, std::int64_t max_batch,
          int requests_per_client, std::ostream* jsonl)
{
    serving::ServingOptions serve_options;
    serve_options.max_batch = max_batch;
    serve_options.max_queue_delay = std::chrono::microseconds(budget_us);
    serve_options.executors = 2;
    serving::ServingRuntime runtime(plan, serve_options);

    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::MetricsRegistry::set_enabled(true);

    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    std::vector<std::vector<double>> queue_times(
        static_cast<std::size_t>(clients));
    std::vector<std::vector<double>> exec_times(
        static_cast<std::size_t>(clients));

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            auto& lat = latencies[static_cast<std::size_t>(c)];
            auto& que = queue_times[static_cast<std::size_t>(c)];
            auto& exe = exec_times[static_cast<std::size_t>(c)];
            lat.reserve(static_cast<std::size_t>(requests_per_client));
            for (int r = 0; r < requests_per_client; ++r) {
                const auto& request =
                    pool[static_cast<std::size_t>(c * requests_per_client +
                                                  r) %
                         pool.size()];
                const auto t0 = std::chrono::steady_clock::now();
                auto response = runtime.Submit(request).get();
                lat.push_back(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
                que.push_back(response.queue_seconds);
                // Batch formation -> completion: the part of the
                // latency spent executing rather than waiting.
                exe.push_back(response.latency_seconds -
                              response.queue_seconds);
            }
        });
    }
    for (auto& t : threads) {
        t.join();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    runtime.Stop();

    std::vector<double> all_lat;
    std::vector<double> all_queue;
    std::vector<double> all_exec;
    for (int c = 0; c < clients; ++c) {
        all_lat.insert(all_lat.end(),
                       latencies[static_cast<std::size_t>(c)].begin(),
                       latencies[static_cast<std::size_t>(c)].end());
        all_queue.insert(all_queue.end(),
                         queue_times[static_cast<std::size_t>(c)].begin(),
                         queue_times[static_cast<std::size_t>(c)].end());
        all_exec.insert(all_exec.end(),
                        exec_times[static_cast<std::size_t>(c)].begin(),
                        exec_times[static_cast<std::size_t>(c)].end());
    }

    const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
    telemetry::MetricsRegistry::set_enabled(false);
    if (jsonl != nullptr) {
        *jsonl << "{\"kind\":\"config\",\"workload\":\"" << name
               << "\",\"clients\":" << clients
               << ",\"budget_us\":" << budget_us
               << ",\"max_batch\":" << max_batch << "}\n"
               << telemetry::MetricsToJsonl(snapshot);
    }

    ConfigResult result;
    result.workload = name;
    result.clients = clients;
    result.budget_us = budget_us;
    result.max_batch = max_batch;
    result.qps = static_cast<double>(all_lat.size()) / wall;
    result.p50_ms = Percentile(all_lat, 0.50) * 1e3;
    result.p99_ms = Percentile(all_lat, 0.99) * 1e3;
    result.queue_p50_ms = Percentile(all_queue, 0.50) * 1e3;
    result.queue_p99_ms = Percentile(all_queue, 0.99) * 1e3;
    result.exec_p50_ms = Percentile(all_exec, 0.50) * 1e3;
    result.exec_p99_ms = Percentile(all_exec, 0.99) * 1e3;
    result.mean_batch =
        snapshot.HistogramValue("serving.batch_size").Mean();
    return result;
}

void
PrintTable(std::ostream& os, const std::vector<ConfigResult>& results)
{
    os << std::left << std::setw(10) << "workload" << std::right
       << std::setw(9) << "clients" << std::setw(11) << "budget_us"
       << std::setw(10) << "max_batch" << std::setw(10) << "qps"
       << std::setw(10) << "p50_ms" << std::setw(10) << "p99_ms"
       << std::setw(11) << "queue_p50" << std::setw(11) << "queue_p99"
       << std::setw(10) << "exec_p50" << std::setw(10) << "exec_p99"
       << std::setw(11) << "mean_batch" << "\n";
    os << std::string(113, '-') << "\n";
    for (const auto& r : results) {
        os << std::left << std::setw(10) << r.workload << std::right
           << std::setw(9) << r.clients << std::setw(11) << r.budget_us
           << std::setw(10) << r.max_batch << std::setw(10) << std::fixed
           << std::setprecision(1) << r.qps << std::setw(10)
           << std::setprecision(2) << r.p50_ms << std::setw(10) << r.p99_ms
           << std::setw(11) << r.queue_p50_ms << std::setw(11)
           << r.queue_p99_ms << std::setw(10) << r.exec_p50_ms
           << std::setw(10) << r.exec_p99_ms << std::setw(11)
           << std::setprecision(2) << r.mean_batch << "\n";
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    Options options;
    try {
        options = ParseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "bench_serving: " << e.what() << "\n";
        return 2;
    }

    workloads::RegisterAllWorkloads();

    std::ofstream jsonl_file;
    std::ostream* jsonl = nullptr;
    if (!options.out_dir.empty()) {
        jsonl_file.open(options.out_dir + "/metrics.jsonl");
        if (!jsonl_file) {
            std::cerr << "bench_serving: cannot write to " << options.out_dir
                      << " (create the directory first)\n";
            return 2;
        }
        jsonl = &jsonl_file;
    }

    std::vector<ConfigResult> results;
    for (const auto& name : options.workloads) {
        auto workload = workloads::WorkloadRegistry::Global().Create(name);
        workloads::WorkloadConfig config;
        config.seed = 42;
        config.tracing = false;
        workload->Setup(config);
        const auto plan = workload->FreezeServingPlan();

        std::vector<serving::RequestFeeds> pool;
        for (int i = 0; i < 16; ++i) {
            pool.push_back(workload->SampleServingRequest());
        }
        // Warm the buffer pool and pack caches before timing.
        plan->ServeOne(pool[0]);

        for (const int clients : options.concurrency) {
            for (const std::int64_t budget : options.budgets_us) {
                for (const std::int64_t max_batch : options.max_batches) {
                    results.push_back(RunConfig(
                        name, plan, pool, clients, budget, max_batch,
                        options.requests_per_client, jsonl));
                    const auto& r = results.back();
                    std::cerr << name << " clients=" << clients
                              << " budget_us=" << budget
                              << " max_batch=" << max_batch << " qps="
                              << std::fixed << std::setprecision(1) << r.qps
                              << "\n";
                }
            }
        }
    }

    std::cout << "\n";
    PrintTable(std::cout, results);

    // The tentpole claim, stated by the bench itself: at the highest
    // swept concurrency, dynamic batching vs batch-1 on each workload.
    std::cout << "\nDynamic batching vs batch-1 (highest concurrency, "
                 "per budget):\n";
    for (const auto& base : results) {
        if (base.max_batch != 1 ||
            base.clients !=
                *std::max_element(options.concurrency.begin(),
                                  options.concurrency.end())) {
            continue;
        }
        for (const auto& dyn : results) {
            if (dyn.workload == base.workload &&
                dyn.clients == base.clients &&
                dyn.budget_us == base.budget_us && dyn.max_batch > 1) {
                std::cout << "  " << base.workload << " budget "
                          << base.budget_us << "us: " << std::fixed
                          << std::setprecision(1) << base.qps << " -> "
                          << dyn.qps << " qps ("
                          << std::setprecision(2) << dyn.qps / base.qps
                          << "x)\n";
            }
        }
    }

    if (!options.out_dir.empty()) {
        std::ofstream table(options.out_dir + "/serving_table.txt");
        PrintTable(table, results);
    }
    return 0;
}
