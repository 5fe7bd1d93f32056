#include "report.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace fathom::bench_suite {

namespace {

/**
 * Parses one flat JSON object of string, number and boolean values (the
 * rows WriteRows emits). Values come back as their raw text, strings
 * without quotes. @return false on anything else.
 */
bool
ParseFlatObject(const std::string& line, std::map<std::string, std::string>* out)
{
    std::size_t i = 0;
    const auto skip_ws = [&] {
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
        }
    };
    const auto read_string = [&](std::string* s) {
        if (i >= line.size() || line[i] != '"') {
            return false;
        }
        for (++i; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size()) {
                ++i;
            }
            *s += line[i];
        }
        return i++ < line.size();
    };
    skip_ws();
    if (i >= line.size() || line[i++] != '{') {
        return false;
    }
    for (;;) {
        skip_ws();
        std::string key;
        if (!read_string(&key)) {
            return false;
        }
        skip_ws();
        if (i >= line.size() || line[i++] != ':') {
            return false;
        }
        skip_ws();
        std::string value;
        if (i < line.size() && line[i] == '"') {
            if (!read_string(&value)) {
                return false;
            }
        } else {
            while (i < line.size() && line[i] != ',' && line[i] != '}' &&
                   !std::isspace(static_cast<unsigned char>(line[i]))) {
                value += line[i++];
            }
        }
        (*out)[key] = value;
        skip_ws();
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        return i < line.size() && line[i] == '}';
    }
}

/** Per-run values of every (workload, metric) in one set of runs. */
struct RunSet {
    std::map<std::pair<std::string, std::string>, std::vector<double>> values;
    std::map<std::string, std::string> units;
    int runs = 0;
};

/** @return false (after saying why on @p os) when @p dir is unusable. */
bool
LoadSet(const std::string& dir, RunSet* set, std::ostream& os)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<fs::path> files;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->is_regular_file() && it->path().filename() == "results.jsonl") {
            files.push_back(it->path());
        }
    }
    if (ec || files.empty()) {
        os << "compare: no results.jsonl files under " << dir << "\n";
        return false;
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
        std::ifstream in(file);
        std::vector<std::map<std::string, std::string>> rows;
        std::set<std::string> invalid;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos) {
                continue;
            }
            std::map<std::string, std::string> row;
            if (!ParseFlatObject(line, &row) || !row.count("workload") ||
                !row.count("metric") || !row.count("value")) {
                os << "compare: " << file.string() << ": not a results row: "
                   << line << "\n";
                return false;
            }
            if (row["valid"] == "false") {
                invalid.insert(row["workload"]);
            }
            rows.push_back(std::move(row));
        }
        for (const auto& workload : invalid) {
            os << "compare: refusing " << workload << " in " << file.string()
               << ": its generator ran late (valid: false)\n";
        }
        for (auto& row : rows) {
            if (invalid.count(row["workload"])) {
                continue;
            }
            set->values[{row["workload"], row["metric"]}].push_back(
                std::strtod(row["value"].c_str(), nullptr));
            set->units[row["metric"]] = row["unit"];
        }
        ++set->runs;
    }
    return true;
}

std::string
Describe(const std::vector<double>& v)
{
    const Summary s = Summarize(v);
    std::ostringstream os;
    os << std::setprecision(5) << s.median << " [" << s.q1 << ", " << s.q3
       << "] n=" << s.n;
    return os.str();
}

}  // namespace

std::string
FormatNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

std::string
CatalogJson()
{
    std::ostringstream os;
    os << "{\"workloads\": [";
    const char* sep = "";
    for (const WorkloadSpec& w : kWorkloads) {
        os << sep << Quote(w.name);
        sep = ", ";
    }
    const auto metrics = [&](const char* key, const auto& specs, bool bounded) {
        os << "], \"" << key << "\": [";
        sep = "";
        for (const MetricSpec& m : specs) {
            os << sep << "{\"name\": " << Quote(m.name) << ", \"unit\": " << Quote(m.unit)
               << ", \"better\": " << Quote(m.better == Better::kLower ? "lower" : "higher");
            if (bounded) {
                os << ", \"bound\": " << FormatNumber(m.bound);
            }
            os << "}";
            sep = ", ";
        }
    };
    metrics("end_to_end", kEndToEnd, true);
    metrics("per_layer", kPerLayer, false);
    os << "]}";
    return os.str();
}

void
PrintMetrics(std::ostream& os, const std::string& workload,
             const RunResult& result)
{
    for (const Metric& m : result.metrics) {
        os << workload << " " << m.name << " = " << std::setprecision(6)
           << m.value << " " << m.unit;
        if (m.n > 1) {
            os << "  (n=" << m.n << ", q1 " << m.q1 << ", q3 " << m.q3 << ")";
        }
        os << "\n";
    }
    os << workload << " attempted " << result.attempted << ", failed "
       << result.failed << (result.valid ? "" : ", INVALID (generator late)")
       << "\n";
    for (const std::string& e : result.errors) {
        os << workload << " failure: " << e << "\n";
    }
}

std::string
ResultJson(const RunResult& result)
{
    std::ostringstream os;
    os << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        os << (i ? ", " : "") << Quote(m.name) << ": {\"value\": "
           << FormatNumber(m.value) << ", \"unit\": " << Quote(m.unit) << "}";
    }
    os << "}}";
    return os.str();
}

void
WriteRows(std::ostream& os, const std::string& commit,
          const std::string& workload, bool traced, const RunResult& result)
{
    const auto row = [&](const Metric& m) {
        os << "{\"commit\": " << Quote(commit)
           << ", \"workload\": " << Quote(workload)
           << ", \"metric\": " << Quote(m.name)
           << ", \"value\": " << FormatNumber(m.value)
           << ", \"unit\": " << Quote(m.unit) << ", \"n\": " << m.n
           << ", \"q1\": " << FormatNumber(m.q1)
           << ", \"q3\": " << FormatNumber(m.q3)
           << ", \"valid\": " << (result.valid ? "true" : "false") << "}\n";
    };
    for (const Metric& m : result.metrics) {
        row(m);
    }
    if (!traced) {
        const double frac =
            result.attempted > 0
                ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
                : 0.0;
        row(Metric{kFailedFrac, frac, "fraction", 1, frac, frac});
    }
}

int
Compare(const std::string& dir_a, const std::string& dir_b, std::ostream& os)
{
    RunSet a;
    RunSet b;
    if (!LoadSet(dir_a, &a, os) || !LoadSet(dir_b, &b, os)) {
        return 2;
    }
    os << "A = " << dir_a << " (" << a.runs << " runs), B = " << dir_b << " ("
       << b.runs << " runs)\n";
    os << std::left << std::setw(10) << "workload" << std::setw(22) << "metric"
       << std::setw(34) << "A median [q1, q3]" << std::setw(34)
       << "B median [q1, q3]" << std::setw(10) << "change" << std::setw(10)
       << "bound" << "verdict\n";

    std::vector<MetricSpec> judged(std::begin(kEndToEnd), std::end(kEndToEnd));
    judged.push_back(MetricSpec{kFailedFrac, "fraction", Better::kLower, 0.0});

    bool worse = false;
    bool missing = false;
    for (const WorkloadSpec& w : kWorkloads) {
        for (const MetricSpec& spec : judged) {
            const std::string name = spec.name;
            const auto key = std::make_pair(std::string(w.name), name);
            if (!a.values.count(key) || !b.values.count(key)) {
                os << std::setw(10) << w.name << std::setw(22) << name
                   << "missing from " << (a.values.count(key) ? "B" : "A") << "\n";
                missing = true;
                continue;
            }
            const auto& va = a.values[key];
            const auto& vb = b.values[key];
            const bool absolute = name == kFailedFrac;
            const Verdict v = Judge(va, vb, spec.better, Bound{spec.bound, absolute});
            worse = worse || v == Verdict::kWorse;
            const double ma = Summarize(va).median;
            const double mb = Summarize(vb).median;
            std::ostringstream change;
            std::ostringstream bound;
            if (absolute) {
                change << std::showpos << std::setprecision(3) << mb - ma;
                bound << "+" << spec.bound << " abs";
            } else {
                change << std::showpos << std::fixed << std::setprecision(1)
                       << (ma != 0.0 ? (mb - ma) / std::fabs(ma) * 100.0 : 0.0)
                       << "%";
                bound << std::fixed << std::setprecision(0) << spec.bound * 100.0
                      << "%";
            }
            os << std::setw(10) << w.name << std::setw(22) << name
               << std::setw(34) << Describe(va) << std::setw(34) << Describe(vb)
               << std::setw(10) << change.str() << std::setw(10) << bound.str()
               << VerdictName(v) << "\n";
        }
    }

    // Counts repeat exactly from run to run, so they are equal or changed.
    os << "\nexact counts (traced run):\n";
    for (const WorkloadSpec& w : kWorkloads) {
        for (const MetricSpec& count : kPerLayer) {
            const std::string name = count.name;
            if (std::string(count.unit) != "count") {
                continue;
            }
            const auto key = std::make_pair(std::string(w.name), name);
            if (!a.values.count(key) || !b.values.count(key)) {
                continue;
            }
            const auto& va = a.values[key];
            const auto& vb = b.values[key];
            const bool equal =
                std::all_of(va.begin(), va.end(), [&](double x) { return x == va[0]; }) &&
                std::all_of(vb.begin(), vb.end(), [&](double x) { return x == va[0]; });
            os << std::setw(10) << w.name << std::setw(30) << name
               << std::setw(14) << FormatNumber(va[0]) << std::setw(14)
               << FormatNumber(vb[0]) << (equal ? "equal" : "changed") << "\n";
        }
    }
    if (missing) {
        return 2;
    }
    return worse ? 1 : 0;
}

}  // namespace fathom::bench_suite
