/**
 * @file
 * The benchmark's workloads.  Each builds its inputs from the seed,
 * runs its measured passes, and reports one Unit per operation (sweep
 * cell, campaign shard, fuzz batch or sabotaged seed) with a digest of
 * the unit's output, so perfbench/run.py can compare committed digests
 * and count failed operations.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Instructions per sweep cell: the budget at which the 4-job sweep was
 * measured to scale 2.8x rather than 4x (ROADMAP item 1).
 */
constexpr uint64_t kSweepInstructions = 500'000;
/** Strikes per (scheme, campaign pass): 16 shards of 512. */
constexpr uint64_t kCampaignStrikes = 8192;
/** Seeds per fuzz pass per spec, and ops per seed. */
constexpr uint64_t kFuzzSeeds = 64;
constexpr unsigned kFuzzOps = 400;
/** Fixed sabotaged-CPPC seeds every fuzz pass must catch and shrink. */
constexpr uint64_t kSabotagedSeeds[] = {1, 2, 3, 4};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    /** Directory for journals; must exist. */
    std::string scratch = ".";
};

/** One operation's outcome. */
struct Unit
{
    std::string key;
    std::string digest;
    bool ok = true;
    std::string why; ///< set when !ok
};

struct Result
{
    std::vector<Unit> units;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> info;
};

/** Workload set-up only: everything before the first unit starts. */
void setupOnly(const Args &a);

Result runSweep(const Args &a);
Result runCampaign(const Args &a);
Result runFuzz(const Args &a);
/** The canonical parity1d/cppc grid behind the *_err metrics. */
Result runAccuracy(const Args &a);

/** Worker threads of every pool the workloads use: one per core. */
unsigned poolThreads();

/** splitmix64 of (seed, salt): derived per-input seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** FNV-1a 64 of @p s as 16 hex digits. */
std::string digestOf(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
