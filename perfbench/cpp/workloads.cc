#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "fault/campaign.hh"
#include "harness/runners.hh"
#include "shims.hh"
#include "sim/sweep.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "verify/fuzzer.hh"

namespace perfbench {

using namespace cppc;
namespace fs = std::filesystem;

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

unsigned
poolThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
digestOf(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return strfmt("%016llx", static_cast<unsigned long long>(h));
}

namespace {

const SchemeKind kSweepKinds[] = {SchemeKind::Parity1D, SchemeKind::Cppc,
                                  SchemeKind::Secded, SchemeKind::Ldpc};
const SchemeKind kCampaignKinds[] = {SchemeKind::Cppc, SchemeKind::Secded,
                                     SchemeKind::Ldpc};
/** Schemes whose protection hooks get a per-scheme metric. */
const char *const kSchemeSuffixes[] = {"parity1d", "cppc", "secded",
                                       "ldpc"};
const char *const kHookNames[] = {"on_store", "on_fill",  "on_evict",
                                  "check",    "recover",  "resync_row",
                                  "on_clean"};

std::string
bits(double d)
{
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return strfmt("%016llx", static_cast<unsigned long long>(u));
}

/** Every RunMetrics field, doubles by bit pattern. */
std::string
canonical(const RunMetrics &m)
{
    std::ostringstream os;
    const CoreResult &c = m.core;
    os << m.benchmark << ' ' << schemeKindName(m.kind) << ' '
       << c.instructions << ' ' << c.cycles << ' ' << c.loads << ' '
       << c.stores << ' ' << c.load_stall_cycles << ' '
       << c.port_conflict_cycles << ' ' << c.lsq_stall_cycles << ' '
       << c.fetch_stall_cycles;
    for (const EnergyBreakdown *e : {&m.l1_energy, &m.l2_energy})
        os << ' ' << bits(e->demand_pj) << ' ' << bits(e->rbw_word_pj)
           << ' ' << bits(e->rbw_line_pj) << ' ' << e->demand_ops << ' '
           << e->rbw_word_ops << ' ' << e->rbw_line_ops;
    os << ' ' << bits(m.l1_miss_rate) << ' ' << bits(m.l2_miss_rate)
       << ' ' << bits(m.l1_dirty_fraction) << ' '
       << bits(m.l1_tavg_cycles) << ' ' << bits(m.l2_dirty_fraction)
       << ' ' << bits(m.l2_tavg_cycles) << ' ' << m.stats_dump;
    return os.str();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
joined(const std::vector<double> &v)
{
    std::string out;
    for (double x : v)
        out += strfmt(out.empty() ? "%.6f" : " %.6f", x);
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/** Per-unit seconds and wall of @p n tasks on a pool of @p jobs. */
template <typename F>
std::pair<double, std::vector<double>>
poolTimed(size_t n, unsigned jobs, F fn)
{
    std::vector<double> unit_s(n, 0.0);
    const Clock::time_point t0 = Clock::now();
    {
        ThreadPool pool(jobs);
        for (size_t i = 0; i < n; ++i)
            pool.run([i, &unit_s, &fn] {
                const Clock::time_point c0 = Clock::now();
                fn(i);
                unit_s[i] = secondsSince(c0);
            });
        pool.drain();
    }
    return {secondsSince(t0), unit_s};
}

/**
 * Run one input untraced and traced, back to back.  The order alternates
 * with @p i, so neither side always runs first (on a colder process) or
 * second; @return the untraced and the traced wall.
 */
template <typename U, typename T>
std::pair<double, double>
bothWays(size_t i, U untraced, T traced)
{
    double u = 0.0, t = 0.0;
    for (size_t k = 0; k < 2; ++k) {
        const Clock::time_point t0 = Clock::now();
        if ((i + k) % 2 == 0) {
            untraced();
            u = secondsSince(t0);
        } else {
            traced();
            t = secondsSince(t0);
        }
    }
    return {u, t};
}

/** Record the repeat-consistency verdict of a unit against pass 0. */
void
addUnit(Result &r, std::map<std::string, std::string> &first,
        unsigned pass, const std::string &key, const std::string &digest,
        bool ok, const std::string &why)
{
    Unit u;
    u.key = strfmt("p%u/", pass) + key;
    u.digest = digest;
    u.ok = ok;
    u.why = why;
    auto it = first.find(key);
    if (it == first.end()) {
        first.emplace(key, digest);
    } else if (it->second != digest) {
        u.ok = false;
        u.why = "differs from pass 0";
    }
    r.units.push_back(std::move(u));
}

/** Per-layer metrics every traced workload derives from its spans. */
void
layerMetrics(const Tracer &t, Result &r)
{
    auto self = [&t](const std::string &n) { return t.get(n).self_s; };
    auto calls = [&t](const std::string &n) {
        return static_cast<double>(t.get(n).calls);
    };
    r.metrics["trace.records"] = calls("trace");
    r.metrics["trace.gen_s"] = self("trace");
    r.metrics["cpu.run_s"] = t.get("cpu").incl_s;
    r.metrics["cpu.self_s"] = self("cpu");
    for (const char *lvl : {"l2", "mem"}) {
        const std::string n = std::string("cache.") + lvl;
        r.metrics[n + "_s"] = self(n + ".read") + self(n + ".write");
        r.metrics[n + "_reads"] = calls(n + ".read");
        r.metrics[n + "_writes"] = calls(n + ".write");
    }
    for (const char *hook : kHookNames) {
        const std::string prefix = std::string("protection.") + hook + ".";
        double s = 0.0, c = 0.0;
        for (const Tracer::Layer &l : t.layers())
            if (l.name.rfind(prefix, 0) == 0) {
                s += l.self_s;
                c += static_cast<double>(l.calls);
            }
        r.metrics[std::string("protection.") + hook + "_s"] = s;
        r.metrics[std::string("protection.") + hook + "_calls"] = c;
        if (std::strcmp(hook, "on_clean") == 0)
            continue;
        for (const char *scheme : kSchemeSuffixes)
            r.metrics[std::string("protection.") + hook + "_s." + scheme] =
                self(prefix + scheme);
    }
    r.metrics["energy.compute_s"] = self("energy");
    r.metrics["sim.hierarchy_build_s"] = t.get("sim.hierarchy_build").incl_s;
    r.metrics["sim.self_s"] = self("sim.cell");
}

/**
 * Attribution: every layer's self time plus the time outside all spans
 * is the traced wall.  A negative remainder would mean double-counted
 * time.
 */
void
attribution(const Tracer &t, double traced_wall, double overhead_frac,
            Result &r)
{
    const double unattributed = traced_wall - t.selfTotal();
    r.metrics["unattributed_s"] = unattributed;
    r.metrics["trace_overhead_frac"] = overhead_frac;
    r.info["traced_wall_s"] = strfmt("%.6f", traced_wall);
    r.info["layer_self_sum_s"] = strfmt("%.6f", t.selfTotal());
    r.info["attribution_ok"] =
        unattributed >= -1e-6 * traced_wall ? "1" : "0";
}

/**
 * work_per_s: one pass's work over the first quartile of the pass
 * walls.  Every pass repeats the same inputs (and is checked to give
 * the same outputs), so the work per pass is fixed; the lower quartile
 * of the walls discounts passes slowed by other load on the host,
 * which a total-work-over-total-time rate would fold in.
 */
void
passRate(Result &r, uint64_t total_work, const std::vector<double> &pass_s,
         const char *unit)
{
    const double per_pass =
        static_cast<double>(total_work) / static_cast<double>(pass_s.size());
    r.metrics["work_per_s"] = per_pass / quantile(pass_s, 0.25);
    r.info["passes"] = std::to_string(pass_s.size());
    r.info["pass_walls_s"] = joined(pass_s);
    r.info["work_per_pass"] = strfmt("%.0f", per_pass);
    r.info["work_unit"] = unit;
}

// ---------------------------------------------------------------- sweep

ExperimentOptions
sweepOptions(uint64_t trace_seed)
{
    ExperimentOptions o;
    o.instructions = kSweepInstructions;
    o.seed = trace_seed;
    return o;
}

std::string
cellKey(const RunMetrics &m)
{
    return m.benchmark + ":" + schemeKindName(m.kind);
}

std::string
cellProblem(const RunMetrics &m, uint64_t budget = kSweepInstructions)
{
    if (m.core.instructions != budget)
        return "instruction count differs from the budget";
    if (m.core.cycles == 0 || !(m.l1_energy.total() > 0.0) ||
        !(m.l2_energy.total() > 0.0))
        return "empty cycle or energy result";
    return "";
}

Result
sweepTraced(const Args &a)
{
    Result r;
    const std::vector<BenchmarkProfile> &profiles = spec2000Profiles();
    const ExperimentOptions opts = sweepOptions(a.seed);
    struct Cell
    {
        const BenchmarkProfile *p;
        SchemeKind k;
    };
    std::vector<Cell> cells;
    for (const BenchmarkProfile &p : profiles)
        for (SchemeKind k : kSweepKinds)
            cells.push_back({&p, k});

    // Each cell serially, untraced (the reference outputs and per-cell
    // seconds) and traced through the shims (must reproduce them).
    Tracer t;
    std::map<std::string, std::string> first;
    std::vector<RunMetrics> ref(cells.size()), traced(cells.size());
    std::vector<double> serial_s(cells.size());
    double untraced_wall = 0.0, traced_wall = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto [u, tr] = bothWays(
            i, [&] { ref[i] = runExperiment(*cells[i].p, cells[i].k, opts); },
            [&] {
                traced[i] =
                    runTracedExperiment(*cells[i].p, cells[i].k, opts, t);
            });
        serial_s[i] = u;
        untraced_wall += u;
        traced_wall += tr;
    }

    // The same cells on the worker pool, untraced, timed per cell.
    const unsigned jobs = poolThreads();
    std::vector<RunMetrics> pooled(cells.size());
    auto [pool_wall, pool_s] =
        poolTimed(cells.size(), jobs, [&](size_t i) {
            pooled[i] = runExperiment(*cells[i].p, cells[i].k, opts);
        });
    for (size_t i = 0; i < cells.size(); ++i) {
        std::string why = cellProblem(ref[i]);
        if (!metricsIdentical(traced[i], ref[i]))
            why = "traced output differs from untraced";
        else if (!metricsIdentical(pooled[i], ref[i]))
            why = "pool output differs from serial";
        addUnit(r, first, 0, cellKey(ref[i]), digestOf(canonical(ref[i])),
                why.empty(), why);
    }

    layerMetrics(t, r);
    r.metrics["sim.cell_s_p50"] = quantile(serial_s, 0.5);
    r.metrics["sim.cell_s_max"] = quantile(serial_s, 1.0);
    for (SchemeKind k : kSweepKinds) {
        double s = 0.0;
        for (size_t i = 0; i < cells.size(); ++i)
            if (cells[i].k == k)
                s += serial_s[i];
        r.metrics["sim.cell_s." + schemeKindName(k)] = s;
    }
    r.metrics["util.pool_busy_frac"] =
        sum(pool_s) / (static_cast<double>(jobs) * pool_wall);
    r.metrics["sim.cell_inflation"] = sum(pool_s) / sum(serial_s);
    attribution(t, traced_wall, (traced_wall - untraced_wall) / untraced_wall,
                r);
    r.info["pool_wall_s"] = strfmt("%.6f", pool_wall);
    return r;
}

// ------------------------------------------------------------- campaign

/**
 * The campaign target of `cppcsim campaign`: an 8KB 2-way L1 with
 * 8-byte units in front of its own memory, every unit loaded or
 * stored once (half dirty) from a fixed seed, so every copy the
 * factory builds is identical.
 */
class BenchHost : public CampaignHost
{
  public:
    BenchHost(SchemeKind kind, uint64_t populate_seed, Tracer *t)
        : cache_("L1D", geometry(), ReplacementKind::LRU, &mem_,
                 t ? traced(makeScheme(kind), *t) : makeScheme(kind))
    {
        Rng rng(populate_seed);
        for (Addr a = 0; a < geometry().size_bytes; a += 8) {
            if (rng.chance(0.5)) {
                uint64_t v = rng.next();
                uint8_t buf[8];
                std::memcpy(buf, &v, 8);
                cache_.store(a, 8, buf);
            } else {
                cache_.load(a, 8, nullptr);
            }
        }
    }

    WriteBackCache &cache() override { return cache_; }

    static CacheGeometry
    geometry()
    {
        CacheGeometry g;
        g.size_bytes = 8 * 1024;
        g.assoc = 2;
        g.line_bytes = 32;
        g.unit_bytes = 8;
        return g;
    }

  private:
    MainMemory mem_;
    WriteBackCache cache_;
};

struct CampaignSpec
{
    SchemeKind kind;
    Campaign::Config cfg;
    uint64_t populate_seed;
    std::string target;
};

std::vector<CampaignSpec>
campaignSpecs(uint64_t seed)
{
    std::vector<CampaignSpec> specs;
    for (SchemeKind k : kCampaignKinds) {
        CampaignSpec s;
        s.kind = k;
        s.cfg.injections = kCampaignStrikes;
        s.cfg.seed = mixSeed(seed, 10 + static_cast<uint64_t>(k));
        s.cfg.shapes = StrikeShapeDistribution::scaledTechnologyMix(0.5);
        s.cfg.physical_interleave = 1;
        s.populate_seed = mixSeed(seed, 20 + static_cast<uint64_t>(k));
        s.target = strfmt("perfbench:scheme=%s,dirty=0.5,populate=%016llx",
                          schemeKindName(k).c_str(),
                          static_cast<unsigned long long>(s.populate_seed));
        specs.push_back(s);
    }
    return specs;
}

CampaignHostFactory
hostFactory(const CampaignSpec &s, Tracer *t = nullptr)
{
    return [kind = s.kind, seed = s.populate_seed,
            t]() -> std::unique_ptr<CampaignHost> {
        if (!t)
            return std::make_unique<BenchHost>(kind, seed, nullptr);
        Span b(*t, t->layer("fault.host_build"));
        return std::make_unique<BenchHost>(kind, seed, t);
    };
}

/** Shards of [0, n) exactly as runCampaignHarness cuts them. */
std::vector<std::pair<size_t, size_t>>
shards(size_t n)
{
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t b = 0; b < n; b += kCampaignShardStrikes)
        out.emplace_back(b, std::min<size_t>(b + kCampaignShardStrikes, n));
    return out;
}

uint64_t
dirBytes(const fs::path &dir, uint64_t &files_under_snaps)
{
    uint64_t bytes = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (!it->is_regular_file())
            continue;
        if (it->path().parent_path().filename().string().find(".snaps") !=
            std::string::npos)
            ++files_under_snaps;
        else
            bytes += it->file_size();
    }
    return bytes;
}

/**
 * One journaled (or, with an empty @p dir, unjournaled) harness run;
 * shard payloads are returned in shard order.
 */
std::vector<std::string>
harnessCampaign(const CampaignSpec &s, unsigned jobs, const fs::path &dir,
                double &wall, std::string &error)
{
    HarnessOptions h;
    h.jobs = jobs;
    h.use_stop_token = false;
    if (!dir.empty()) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        h.journal_path = (dir / "journal").string();
    }
    const Clock::time_point t0 = Clock::now();
    CampaignHarnessResult res =
        runCampaignHarness(hostFactory(s), s.cfg, s.target, h);
    wall = secondsSince(t0);
    std::vector<std::string> payloads;
    for (const UnitResult &u : res.report.results)
        payloads.push_back(u.status == CellStatus::Ok ? u.payload : "");
    if (!res.report.complete())
        error = res.report.summary("campaign");
    return payloads;
}

std::string
shardProblem(const std::string &payload, size_t strikes)
{
    if (payload.empty())
        return "shard did not complete";
    const CampaignResult c = decodeCampaignResult(payload);
    if (c.injections != strikes ||
        c.benign + c.corrected + c.due + c.sdc + c.misrepair != strikes)
        return "outcome counts do not sum to the shard's strikes";
    return "";
}

Result
campaignTraced(const Args &a)
{
    Result r;
    const unsigned jobs = poolThreads();
    const fs::path dir = fs::path(a.scratch) / "campaign-traced";
    std::map<std::string, std::string> first;
    Tracer t;
    std::vector<double> strike_us;
    std::vector<double> serial_s, pool_s;
    double untraced_wall = 0.0, traced_wall = 0.0, pool_wall = 0.0;
    double journaled = 0.0, unjournaled = 0.0;
    uint64_t journal_bytes = 0, snap_files = 0;

    for (const CampaignSpec &s : campaignSpecs(a.seed)) {
        const std::string scheme = schemeKindName(s.kind);
        Clock::time_point t0 = Clock::now();
        const std::vector<Strike> strikes =
            Campaign::sampleStrikes(BenchHost::geometry(), s.cfg);
        untraced_wall += secondsSince(t0);
        t0 = Clock::now();
        {
            Span sp(t, t.layer("fault.sample"));
            Campaign::sampleStrikes(BenchHost::geometry(), s.cfg);
        }
        traced_wall += secondsSince(t0);
        const auto cuts = shards(strikes.size());
        // Strike latencies come from the untraced serial pass: under the
        // decorator every hook call would be inflated by its span.
        auto runShard = [&](size_t i, Tracer *tr, bool latencies) {
            std::unique_ptr<CampaignHost> host = hostFactory(s, tr)();
            Campaign c(host->cache(), s.cfg);
            CampaignResult res;
            const int id = tr ? tr->layer("fault.strike." + scheme) : 0;
            for (size_t j = cuts[i].first; j < cuts[i].second; ++j) {
                if (tr) {
                    Span sp(*tr, id);
                    Campaign::reduceOutcome(res, c.runOne(strikes[j]));
                } else if (latencies) {
                    const Clock::time_point s0 = Clock::now();
                    const InjectionOutcome o = c.runOne(strikes[j]);
                    strike_us.push_back(secondsSince(s0) * 1e6);
                    Campaign::reduceOutcome(res, o);
                } else {
                    Campaign::reduceOutcome(res, c.runOne(strikes[j]));
                }
            }
            return encodeCampaignResult(res);
        };

        // Each shard serially, untraced and traced.
        std::vector<std::string> direct(cuts.size()), shimmed(cuts.size());
        for (size_t i = 0; i < cuts.size(); ++i) {
            const auto [u, tr] = bothWays(
                i, [&] { direct[i] = runShard(i, nullptr, true); },
                [&] { shimmed[i] = runShard(i, &t, false); });
            serial_s.push_back(u);
            untraced_wall += u;
            traced_wall += tr;
        }

        // Untraced shards on the pool, timed per shard.
        std::vector<std::string> pooled(cuts.size());
        auto [pw, ps] = poolTimed(cuts.size(), jobs, [&](size_t i) {
            pooled[i] = runShard(i, nullptr, false);
        });
        pool_wall += pw;
        pool_s.insert(pool_s.end(), ps.begin(), ps.end());

        // The harness, with and without its journal.
        std::string err;
        double wj = 0.0, wu = 0.0;
        const fs::path jdir = dir / scheme;
        std::vector<std::string> hj = harnessCampaign(s, jobs, jdir, wj, err);
        journal_bytes += dirBytes(jdir, snap_files);
        fs::remove_all(jdir);
        std::vector<std::string> hu = harnessCampaign(s, jobs, {}, wu, err);
        journaled += wj;
        unjournaled += wu;

        for (size_t i = 0; i < cuts.size(); ++i) {
            std::string why = shardProblem(hj[i], cuts[i].second -
                                                      cuts[i].first);
            if (!err.empty())
                why = err;
            else if (shimmed[i] != direct[i] || pooled[i] != direct[i] ||
                     hj[i] != direct[i] || hu[i] != direct[i])
                why = "traced/pool/harness shard results disagree";
            addUnit(r, first, 0,
                    scheme + "/" + campaignShardKey(cuts[i].first),
                    digestOf(hj[i]), why.empty(), why);
        }
    }
    fs::remove_all(dir);

    layerMetrics(t, r);
    double bookkeeping = 0.0;
    for (SchemeKind k : kCampaignKinds)
        bookkeeping += t.get("fault.strike." + schemeKindName(k)).self_s;
    r.metrics["fault.sample_s"] = t.get("fault.sample").incl_s;
    r.metrics["fault.host_build_s"] = t.get("fault.host_build").incl_s;
    r.metrics["fault.strike_us_p50"] = quantile(strike_us, 0.5);
    r.metrics["fault.strike_us_p99"] = quantile(strike_us, 0.99);
    r.metrics["fault.bookkeeping_s"] = bookkeeping;
    // Gate for a faster LDPC span decode: recover()'s share of the
    // time LDPC strikes take.
    r.metrics["fault.recover_frac.ldpc"] =
        t.get("protection.recover.ldpc").incl_s /
        t.get("fault.strike.ldpc").incl_s;
    r.metrics["harness.persist_s"] = journaled - unjournaled;
    r.metrics["harness.journal_bytes"] = static_cast<double>(journal_bytes);
    r.metrics["harness.snapshot_files"] = static_cast<double>(snap_files);
    r.metrics["util.pool_busy_frac"] =
        sum(pool_s) / (static_cast<double>(jobs) * pool_wall);
    r.metrics["sim.cell_inflation"] = sum(pool_s) / sum(serial_s);
    attribution(t, traced_wall, (traced_wall - untraced_wall) / untraced_wall,
                r);
    return r;
}

// ----------------------------------------------------------------- fuzz

uint64_t
fuzzBaseSeed(uint64_t seed)
{
    return 1 + mixSeed(seed, 30) % 1'000'000'000ull;
}

/** The benchmark's unit for a sabotaged seed: its minimal length. */
Unit
sabotagedUnit(uint64_t seed, const FuzzOneResult &fr)
{
    Unit u;
    u.key = strfmt("sabotaged:%llu", static_cast<unsigned long long>(seed));
    u.digest = strfmt("minimal_len=%zu", fr.minimal.size());
    u.ok = fr.failed() && !fr.minimal.empty();
    if (!u.ok)
        u.why = "sabotaged CPPC seed was not caught and shrunk";
    return u;
}

std::string
batchProblem(const UnitResult &u)
{
    if (u.status != CellStatus::Ok)
        return "batch did not complete: " + u.error;
    if (decodeFuzzBatch(u.payload).failures != 0)
        return "conformance breach: " +
            decodeFuzzBatch(u.payload).first_violation;
    return "";
}

Result
fuzzTraced(const Args &a)
{
    Result r;
    const uint64_t base = fuzzBaseSeed(a.seed);
    const std::vector<FuzzSchemeSpec> &specs = conformanceSchemes();

    // Untraced reference: the harness itself.
    HarnessOptions h;
    h.jobs = poolThreads();
    h.use_stop_token = false;
    FuzzHarnessResult ref =
        runFuzzHarness(specs, true, base, kFuzzSeeds, kFuzzOps, h);

    // Every batch and tag-array seed serially, untraced and traced.
    Tracer t;
    const int gen_id = t.layer("verify.generate");
    const int replay_id = t.layer("verify.replay");
    uint64_t checks = 0;
    auto replayBatch = [&](const FuzzSchemeSpec &spec, uint64_t b,
                           bool shimmed) {
        FuzzBatchResult res;
        for (uint64_t s = base + b;
             s < base + std::min(b + kFuzzBatchSeeds, kFuzzSeeds); ++s) {
            std::vector<FuzzOp> ops;
            ReplayResult rr;
            if (shimmed) {
                Span g(t, gen_id);
                ops = generateOps(s, kFuzzOps);
                g.close();
                Span p(t, replay_id);
                rr = replaySequence(spec, ops, s);
                checks += rr.checks;
            } else {
                ops = generateOps(s, kFuzzOps);
                rr = replaySequence(spec, ops, s);
            }
            ++res.seeds;
            res.checks += rr.checks;
            res.strikes += rr.strikes;
            res.corrected += rr.corrected;
            res.refetched += rr.refetched;
            res.dues += rr.dues;
            res.misrepairs += rr.misrepairs;
            if (!rr.ok) {
                if (!res.failures) {
                    res.first_fail_seed = s;
                    res.first_violation = rr.violation;
                }
                ++res.failures;
            }
        }
        return res;
    };
    std::vector<FuzzBatchResult> traced_batches;
    double untraced_wall = 0.0, traced_wall = 0.0;
    size_t order = 0;
    for (const FuzzSchemeSpec &spec : specs)
        for (uint64_t b = 0; b < kFuzzSeeds; b += kFuzzBatchSeeds) {
            const auto [u, tr] = bothWays(
                order++, [&] { replayBatch(spec, b, false); },
                [&] { traced_batches.push_back(replayBatch(spec, b, true)); });
            untraced_wall += u;
            traced_wall += tr;
        }
    for (uint64_t s = base; s < base + kFuzzSeeds; ++s) {
        // The tag-array fuzz generates its own ops internally.
        const auto [u, tr] = bothWays(
            order++, [&] { fuzzTagCppc(s, kFuzzOps); },
            [&] {
                Span p(t, replay_id);
                fuzzTagCppc(s, kFuzzOps);
            });
        untraced_wall += u;
        traced_wall += tr;
    }

    // Sabotaged slice: generate + replay, then the full catch-and-shrink.
    const double conformance_overhead =
        (traced_wall - untraced_wall) / untraced_wall;
    double shrink_s = 0.0;
    uint64_t shrink_ops = 0;
    const FuzzSchemeSpec sab = sabotagedCppcSpec();
    const Clock::time_point t0 = Clock::now();
    for (uint64_t s : kSabotagedSeeds) {
        Span g(t, gen_id);
        std::vector<FuzzOp> ops = generateOps(s, kFuzzOps);
        double pre = g.close();
        Span p(t, replay_id);
        replaySequence(sab, ops, s);
        pre += p.close();
        Span f(t, t.layer("verify.fuzz_one"));
        FuzzOneResult fr = fuzzOne(sab, s, kFuzzOps);
        shrink_s += f.close() - pre;
        shrink_ops += fr.shrink.ops_replayed;
        r.units.push_back(sabotagedUnit(s, fr));
    }
    traced_wall += secondsSince(t0);
    for (Unit &u : r.units)
        u.key = "p0/" + u.key;

    // Batches: harness payloads vs the traced serial replays.
    std::map<std::string, std::string> first;
    size_t idx = 0;
    for (size_t sp = 0; sp < specs.size(); ++sp)
        for (uint64_t b = 0; b < kFuzzSeeds; b += kFuzzBatchSeeds, ++idx) {
            const UnitResult &u = ref.report.results[idx];
            std::string why = batchProblem(u);
            if (why.empty() &&
                !fuzzBatchesIdentical(decodeFuzzBatch(u.payload),
                                      traced_batches[idx]))
                why = "traced replay differs from the harness batch";
            addUnit(r, first, 0, u.key, digestOf(u.payload), why.empty(),
                    why);
        }
    for (; idx < ref.report.results.size(); ++idx) {
        const UnitResult &u = ref.report.results[idx];
        const std::string why = batchProblem(u);
        addUnit(r, first, 0, u.key, digestOf(u.payload), why.empty(), why);
    }

    layerMetrics(t, r);
    r.metrics["verify.generate_s"] = t.get("verify.generate").self_s;
    r.metrics["verify.replay_s"] = t.get("verify.replay").self_s;
    r.metrics["verify.checks"] = static_cast<double>(checks);
    r.metrics["verify.shrink_s"] = shrink_s;
    r.metrics["verify.shrink_replayed_ops"] = static_cast<double>(shrink_ops);
    // The sabotaged slice has no untraced twin in this pass, so the
    // overhead compares the conformance replays only.
    attribution(t, traced_wall, conformance_overhead, r);
    return r;
}

} // namespace

// ------------------------------------------------------------ set-up

void
setupOnly(const Args &a)
{
    const unsigned jobs = poolThreads();
    if (a.workload == "sweep") {
        // Up to the first simulated instruction: profiles, the pool,
        // and the first cell's hierarchy, core and trace generator.
        const std::vector<BenchmarkProfile> &profiles = spec2000Profiles();
        ThreadPool pool(jobs);
        pool.submit([&] {
               Hierarchy h(kSweepKinds[0]);
               OooCoreModel core(PaperConfig::coreParams(), h.l1d.get(),
                                 h.l2.get(), h.l1i.get());
               TraceGenerator gen(profiles[0], a.seed);
               return gen.next().pc;
           })
            .get();
    } else if (a.workload == "campaign") {
        // What runCampaignHarness does before its first shard.
        const CampaignSpec s = campaignSpecs(a.seed)[0];
        std::unique_ptr<CampaignHost> host = hostFactory(s)();
        Campaign::sampleStrikes(host->cache().geometry(), s.cfg);
        ThreadPool pool(jobs);
    } else if (a.workload == "fuzz") {
        conformanceSchemes();
        ThreadPool pool(jobs);
        generateOps(fuzzBaseSeed(a.seed), kFuzzOps);
    } else {
        fatal("no set-up probe for workload '%s'", a.workload.c_str());
    }
}

// --------------------------------------------------------- untraced runs

Result
runSweep(const Args &a)
{
    if (a.trace)
        return sweepTraced(a);
    Result r;
    const std::vector<BenchmarkProfile> &profiles = spec2000Profiles();
    const std::vector<SchemeKind> kinds(std::begin(kSweepKinds),
                                        std::end(kSweepKinds));
    const ExperimentOptions opts = sweepOptions(a.seed);
    const unsigned jobs = poolThreads();
    std::map<std::string, std::string> first;
    std::vector<double> pass_s;
    uint64_t instructions = 0;
    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0;
         pass == 0 || secondsSince(start) < a.seconds; ++pass) {
        const Clock::time_point t0 = Clock::now();
        SweepGrid grid = runSweepParallel(profiles, kinds, opts, jobs);
        pass_s.push_back(secondsSince(t0));
        for (const auto &row : grid)
            for (const auto &cell : row.second) {
                instructions += cell.second.core.instructions;
                const std::string why = cellProblem(cell.second);
                addUnit(r, first, pass, cellKey(cell.second),
                        digestOf(canonical(cell.second)), why.empty(), why);
            }
    }
    passRate(r, instructions, pass_s, "simulated instruction");
    return r;
}

Result
runCampaign(const Args &a)
{
    if (a.trace)
        return campaignTraced(a);
    Result r;
    const unsigned jobs = poolThreads();
    const std::vector<CampaignSpec> specs = campaignSpecs(a.seed);
    const fs::path dir = fs::path(a.scratch) / "campaign";
    std::map<std::string, std::string> first;
    std::vector<double> pass_s;
    uint64_t strikes = 0;
    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0;
         pass == 0 || secondsSince(start) < a.seconds; ++pass) {
        double this_pass = 0.0;
        for (const CampaignSpec &s : specs) {
            const std::string scheme = schemeKindName(s.kind);
            std::string err;
            double wall = 0.0;
            const fs::path jdir = dir / strfmt("%s.%u", scheme.c_str(), pass);
            std::vector<std::string> payloads =
                harnessCampaign(s, jobs, jdir, wall, err);
            fs::remove_all(jdir);
            this_pass += wall;
            const auto cuts = shards(s.cfg.injections);
            for (size_t i = 0; i < cuts.size(); ++i) {
                const size_t n = cuts[i].second - cuts[i].first;
                std::string why = err.empty()
                    ? shardProblem(payloads[i], n) : err;
                strikes += n;
                addUnit(r, first, pass,
                        scheme + "/" + campaignShardKey(cuts[i].first),
                        digestOf(payloads[i]), why.empty(), why);
            }
        }
        pass_s.push_back(this_pass);
    }
    fs::remove_all(dir);
    passRate(r, strikes, pass_s, "strike");
    return r;
}

Result
runFuzz(const Args &a)
{
    if (a.trace)
        return fuzzTraced(a);
    Result r;
    const unsigned jobs = poolThreads();
    const uint64_t base = fuzzBaseSeed(a.seed);
    const std::vector<FuzzSchemeSpec> &specs = conformanceSchemes();
    const FuzzSchemeSpec sab = sabotagedCppcSpec();
    HarnessOptions h;
    h.jobs = jobs;
    h.use_stop_token = false;
    std::map<std::string, std::string> first;
    std::vector<double> pass_s;
    uint64_t ops = 0;
    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0;
         pass == 0 || secondsSince(start) < a.seconds; ++pass) {
        const Clock::time_point t0 = Clock::now();
        FuzzHarnessResult res =
            runFuzzHarness(specs, true, base, kFuzzSeeds, kFuzzOps, h);
        std::vector<FuzzOneResult> caught(std::size(kSabotagedSeeds));
        {
            ThreadPool pool(jobs);
            for (size_t i = 0; i < caught.size(); ++i)
                pool.run([i, &caught, &sab] {
                    caught[i] = fuzzOne(sab, kSabotagedSeeds[i], kFuzzOps);
                });
            pool.drain();
        }
        pass_s.push_back(secondsSince(t0));
        for (const UnitResult &u : res.report.results) {
            const std::string why = batchProblem(u);
            if (u.status == CellStatus::Ok)
                ops += decodeFuzzBatch(u.payload).seeds * kFuzzOps;
            addUnit(r, first, pass, u.key, digestOf(u.payload), why.empty(),
                    why);
        }
        for (size_t i = 0; i < caught.size(); ++i) {
            Unit u = sabotagedUnit(kSabotagedSeeds[i], caught[i]);
            ops += kFuzzOps + caught[i].shrink.ops_replayed;
            addUnit(r, first, pass, u.key, u.digest, u.ok, u.why);
        }
    }
    passRate(r, ops, pass_s, "fuzz op");
    return r;
}

Result
runAccuracy(const Args &)
{
    // Fixed inputs (no seed): the Figure 10-12 comparison of CPPC
    // against 1D parity with the figure harnesses' settings (default
    // ExperimentOptions: 2M instructions, trace seed 42), averaged as
    // they do (geomean of per-benchmark ratios).  Reference values:
    // EXPERIMENTS.md Figure 10 (+0.3% CPI), Figure 11 (1.14x L1),
    // Figure 12 (1.07x L2).
    Result r;
    const std::vector<BenchmarkProfile> &profiles = spec2000Profiles();
    const ExperimentOptions opts;
    const SweepGrid grid = runSweepParallel(
        profiles, {SchemeKind::Parity1D, SchemeKind::Cppc}, opts,
        poolThreads());
    double log_cpi = 0.0, log_l1 = 0.0, log_l2 = 0.0;
    std::map<std::string, std::string> first;
    for (const auto &row : grid) {
        const RunMetrics &base = row.second.at(SchemeKind::Parity1D);
        const RunMetrics &cppc = row.second.at(SchemeKind::Cppc);
        log_cpi += std::log(cppc.core.cpi() / base.core.cpi());
        log_l1 += std::log(cppc.l1_energy.total() / base.l1_energy.total());
        log_l2 += std::log(cppc.l2_energy.total() / base.l2_energy.total());
        for (const RunMetrics *m : {&base, &cppc}) {
            const std::string why = cellProblem(*m, opts.instructions);
            addUnit(r, first, 0, "canonical/" + cellKey(*m),
                    digestOf(canonical(*m)), why.empty(), why);
        }
    }
    const double n = static_cast<double>(grid.size());
    const double cpi_overhead_pct = (std::exp(log_cpi / n) - 1.0) * 100.0;
    const double l1 = std::exp(log_l1 / n), l2 = std::exp(log_l2 / n);
    r.metrics["cpi_err_pp"] = std::fabs(cpi_overhead_pct - 0.3);
    r.metrics["l1_energy_err_pct"] = std::fabs(l1 / 1.14 - 1.0) * 100.0;
    r.metrics["l2_energy_err_pct"] = std::fabs(l2 / 1.07 - 1.0) * 100.0;
    r.info["cppc_cpi_overhead_pct"] = strfmt("%.6f", cpi_overhead_pct);
    r.info["cppc_l1_energy_x"] = strfmt("%.6f", l1);
    r.info["cppc_l2_energy_x"] = strfmt("%.6f", l2);
    return r;
}

} // namespace perfbench
