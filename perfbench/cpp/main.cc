/**
 * @file
 * cppc_perfbench: one workload run of the end-to-end benchmark.
 *
 *   cppc_perfbench --workload=sweep|campaign|fuzz|accuracy --seed=N
 *                  --seconds=S [--trace] [--setup-only] [--scratch=DIR]
 *
 * Prints one JSON object on stdout: the run's units (key, digest, ok),
 * its metrics and a manifest.  perfbench/run.py checks the digests and
 * prints the benchmark's result line.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "sim/experiment.hh"
#include "workloads.hh"

namespace {

#if !defined(__OPTIMIZE__)
constexpr bool kOptimized = false;
#else
constexpr bool kOptimized = true;
#endif

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
takeValue(const std::string &arg, const char *name, std::string &out)
{
    const std::string prefix = std::string("--") + name + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "cppc_perfbench: %s\nusage: cppc_perfbench "
                 "--workload=sweep|campaign|fuzz|accuracy --seed=N "
                 "--seconds=S [--trace] [--setup-only] [--scratch=DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!kOptimized || std::string(PB_BUILD_TYPE) == "Debug") {
        std::fprintf(stderr, "cppc_perfbench: refusing to measure an "
                             "unoptimized (%s) build\n",
                     PB_BUILD_TYPE);
        return 2;
    }
    perfbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string v;
        try {
            if (takeValue(arg, "workload", v))
                a.workload = v;
            else if (takeValue(arg, "seed", v))
                a.seed = std::stoull(v);
            else if (takeValue(arg, "seconds", v))
                a.seconds = std::stod(v);
            else if (takeValue(arg, "scratch", v))
                a.scratch = v;
            else if (arg == "--trace")
                a.trace = true;
            else if (arg == "--setup-only")
                a.setup_only = true;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value in " + arg).c_str());
        }
    }

    try {
        if (a.setup_only) {
            perfbench::setupOnly(a);
            return 0;
        }
        perfbench::Result r;
        if (a.workload == "sweep")
            r = perfbench::runSweep(a);
        else if (a.workload == "campaign")
            r = perfbench::runCampaign(a);
        else if (a.workload == "fuzz")
            r = perfbench::runFuzz(a);
        else if (a.workload == "accuracy")
            r = perfbench::runAccuracy(a);
        else
            return usage("unknown workload");

        std::string out = "{\"units\": [";
        for (size_t i = 0; i < r.units.size(); ++i) {
            const perfbench::Unit &u = r.units[i];
            out += (i ? ", " : "") + std::string("{\"key\": ") +
                jsonString(u.key) + ", \"digest\": " + jsonString(u.digest) +
                ", \"ok\": " + (u.ok ? "true" : "false") +
                ", \"why\": " + jsonString(u.why) + "}";
        }
        out += "], \"metrics\": {";
        bool firstm = true;
        for (const auto &kv : r.metrics) {
            out += (firstm ? "" : ", ") + jsonString(kv.first) + ": " +
                jsonNumber(kv.second);
            firstm = false;
        }
        out += "}, \"info\": {";
        bool firsti = true;
        for (const auto &kv : r.info) {
            out += (firsti ? "" : ", ") + jsonString(kv.first) + ": " +
                jsonString(kv.second);
            firsti = false;
        }
        out += "}, \"manifest\": {";
        out += "\"ncores\": " +
            std::to_string(std::thread::hardware_concurrency()) +
            ", \"threads\": " + std::to_string(perfbench::poolThreads()) +
            ", \"simd_backend\": " + jsonString(PB_SIMD) +
            ", \"build_type\": " + jsonString(PB_BUILD_TYPE) +
            ", \"compiler\": " + jsonString(PB_COMPILER) +
            ", \"flags\": " + jsonString(PB_FLAGS) +
            ", \"sweep_instructions_per_cell\": " +
            std::to_string(perfbench::kSweepInstructions) +
            ", \"accuracy_instructions_per_cell\": " +
            std::to_string(cppc::ExperimentOptions{}.instructions) +
            ", \"campaign_strikes_per_scheme\": " +
            std::to_string(perfbench::kCampaignStrikes) +
            ", \"fuzz_seeds_per_spec\": " +
            std::to_string(perfbench::kFuzzSeeds) +
            ", \"fuzz_ops_per_seed\": " + std::to_string(perfbench::kFuzzOps) +
            ", \"seed\": " + std::to_string(a.seed) + "}}";
        std::printf("%s\n", out.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cppc_perfbench: %s\n", e.what());
        return 1;
    }
}
