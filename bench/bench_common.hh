/**
 * @file
 * Shared helpers for the figure/table benches: each bench prints the
 * paper-shaped table, a machine-readable CSV block, and (for the
 * characterization figures) the same breakdown re-derived through the
 * profiling pipeline as a cross-check.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "profiling/breakdown_report.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "workload/granularities.hh"
#include "workload/profiles.hh"

namespace accel::bench {

/** The gated benches' command line: `[--seed N] [--json PATH]`. */
struct BenchArgs
{
    std::string bench; //!< binary name, for messages
    std::uint64_t seed = 2020;
    std::string jsonPath; //!< empty = no JSON report

    /**
     * Parse @p argv for bench @p bench. The seed parses as a count,
     * so `--seed abc` is an error rather than seed 0.
     * @throws FatalError on an unknown argument or a malformed seed.
     */
    static BenchArgs
    parse(const std::string &bench, int argc, char **argv)
    {
        BenchArgs args;
        args.bench = bench;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--seed" && i + 1 < argc) {
                std::string value = argv[++i];
                try {
                    args.seed = parseCount(value);
                } catch (const FatalError &) {
                    fatal(bench + ": --seed wants a non-negative "
                                  "integer, got '" + value + "'");
                }
            } else if (arg == "--json" && i + 1 < argc) {
                args.jsonPath = argv[++i];
            } else {
                fatal(bench + ": unknown argument '" + arg +
                      "' (usage: [--seed N] [--json PATH])");
            }
        }
        return args;
    }

    /**
     * Write @p json to jsonPath, if one was given, and say so.
     * @throws FatalError when the file cannot be opened.
     */
    void
    writeJson(const std::string &json) const
    {
        if (jsonPath.empty())
            return;
        std::ofstream out(jsonPath);
        require(static_cast<bool>(out),
                bench + ": cannot write '" + jsonPath + "'");
        out << json;
        std::cout << "json written to " << jsonPath << "\n";
    }
};

/** Print a bench banner. */
inline void
banner(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

/** Traces per service for pipeline cross-checks (speed/precision). */
constexpr size_t kTraceCount = 120000;

/**
 * Print one characterization figure: for each characterized service a
 * row per category with the encoded (paper) share, plus a CSV block,
 * plus a pipeline-recovered comparison for the anchor service.
 */
template <typename Category>
void
printShareFigure(
    const std::string &title,
    const std::vector<Category> &categories,
    const std::function<const workload::ShareMap<Category> &(
        const workload::ServiceProfile &)> &select,
    const std::function<std::map<Category, double>(
        const profiling::Aggregator &)> &recover,
    workload::ServiceId anchor)
{
    banner(title);

    std::vector<std::string> headers = {"service"};
    for (Category c : categories)
        headers.push_back(toString(c));
    TextTable table(headers);
    for (size_t c = 1; c < headers.size(); ++c)
        table.setAlign(c, Align::Right);

    std::ostringstream csv_text;
    CsvWriter csv(csv_text, headers);
    for (workload::ServiceId id : workload::characterizedServices()) {
        const auto &profile = workload::profile(id);
        const auto &shares = select(profile);
        std::vector<std::string> row = {profile.name};
        for (Category c : categories)
            row.push_back(fmtF(shares.at(c), 0));
        table.addRow(row);
        csv.row(row);
    }
    std::cout << table.str() << "\ncsv:\n" << csv_text.str() << "\n";

    // Cross-check: re-derive the anchor service's row from sampled
    // traces through the tagging pipeline.
    profiling::Aggregator agg = profiling::profileService(
        anchor, workload::CpuGen::GenC, /*seed=*/2020, kTraceCount);
    std::cout << profiling::comparisonBlock(
        "pipeline cross-check (" + workload::toString(anchor) + ")",
        select(workload::profile(anchor)), recover(agg));
}

/** Print a CDF figure from a BucketDist in the paper's bucket scheme. */
inline void
printCdf(const std::string &series, const BucketDist &dist)
{
    TextTable table({"bucket (bytes)", "mass %", "CDF"});
    table.setAlign(1, Align::Right);
    table.setAlign(2, Align::Right);
    double cum = 0;
    for (size_t i = 0; i < dist.bucketCount(); ++i) {
        cum += dist.bucket(i).mass;
        table.addRow({dist.bucketLabel(i),
                      fmtF(dist.bucket(i).mass * 100, 1), fmtF(cum, 3)});
    }
    std::cout << series << "\n" << table.str() << "\n";
}

} // namespace accel::bench
