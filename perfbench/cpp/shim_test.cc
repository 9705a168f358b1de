/**
 * @file
 * Transparency of the benchmark's tracing shims, for every SchemeKind:
 *
 *  - a sweep cell run through TracedHierarchy (level shims, scheme
 *    decorators, traced source) is bit-identical to runExperiment(),
 *    per-cache stats dump and dirty profile included;
 *  - a fault campaign against a cache whose scheme is decorated gives
 *    the same outcome counts, scheme stats and save-state image as the
 *    plain cache, and the image restores through the decorator
 *    (saveBody/loadBody forwarding) to the same state.
 *
 * Exit status 0 when every check passes.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "fault/campaign.hh"
#include "shims.hh"
#include "sim/sweep.hh"
#include "state/state_io.hh"
#include "util/rng.hh"

using namespace cppc;
using perfbench::Tracer;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

const SchemeKind kAllKinds[] = {
    SchemeKind::None,  SchemeKind::Parity1D, SchemeKind::Secded,
    SchemeKind::Parity2D, SchemeKind::Cppc,  SchemeKind::Icr,
    SchemeKind::MmEcc, SchemeKind::Ldpc,     SchemeKind::ChipRepair,
};

struct Host
{
    Host(SchemeKind kind, Tracer *t)
        : cache("L1D", geometry(), ReplacementKind::LRU, &mem,
                t ? perfbench::traced(makeScheme(kind), *t)
                  : makeScheme(kind))
    {
        Rng rng(7);
        for (Addr a = 0; a < geometry().size_bytes; a += 8) {
            if (rng.chance(0.5))
                cache.storeWord(a, rng.next());
            else
                cache.load(a, 8, nullptr);
        }
    }
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
    std::string
    image() const
    {
        StateWriter w;
        cache.saveState(w);
        return w.image();
    }
    MainMemory mem;
    WriteBackCache cache;
};

bool
sameStats(const WriteBackCache &a, const WriteBackCache &b)
{
    if (!a.scheme() || !b.scheme())
        return !a.scheme() && !b.scheme();
    const SchemeStats &x = a.scheme()->stats(), &y = b.scheme()->stats();
    return std::memcmp(&x, &y, sizeof x) == 0;
}

void
checkSweepCell(SchemeKind kind)
{
    for (const char *bench : {"gzip", "mcf"}) {
        ExperimentOptions o;
        o.instructions = 30'000;
        o.dump_stats = true;
        o.profile_dirty = true;
        const BenchmarkProfile &p = profileByName(bench);
        Tracer t;
        const RunMetrics plain = runExperiment(p, kind, o);
        const RunMetrics traced =
            perfbench::runTracedExperiment(p, kind, o, t);
        expect(metricsIdentical(plain, traced),
               "sweep cell " + std::string(bench) + " under " +
                   schemeKindName(kind) + " is bit-identical");
    }
}

void
checkCampaign(SchemeKind kind)
{
    Campaign::Config cfg;
    cfg.injections = 600;
    cfg.seed = 11;
    cfg.shapes = StrikeShapeDistribution::scaledTechnologyMix(0.5);
    const std::string name = schemeKindName(kind);

    Tracer t;
    Host plain(kind, nullptr), traced(kind, &t);
    expect(plain.image() == traced.image(),
           "populated " + name + " host saves the same image");
    const CampaignResult a = Campaign(plain.cache, cfg).run();
    const CampaignResult b = Campaign(traced.cache, cfg).run();
    expect(a.injections == b.injections && a.benign == b.benign &&
               a.corrected == b.corrected && a.due == b.due &&
               a.sdc == b.sdc && a.misrepair == b.misrepair,
           "campaign on " + name + " has the same outcome counts");
    expect(sameStats(plain.cache, traced.cache),
           "campaign on " + name + " leaves the same scheme stats");
    const std::string img = plain.image();
    expect(img == traced.image(),
           "campaign on " + name + " leaves the same save-state image");

    // Restore through the decorator into a fresh host, then keep going:
    // the restored decorated host must track the plain one exactly.
    Host restored(kind, &t);
    StateReader r(img);
    restored.cache.loadState(r);
    expect(restored.image() == img,
           "save-state image of " + name + " restores through the shim");
    cfg.seed = 12;
    const CampaignResult c = Campaign(plain.cache, cfg).run();
    const CampaignResult d = Campaign(restored.cache, cfg).run();
    expect(c.corrected == d.corrected && c.due == d.due &&
               c.sdc == d.sdc && c.misrepair == d.misrepair &&
               plain.image() == restored.image() &&
               sameStats(plain.cache, restored.cache),
           "restored " + name + " host continues identically");
    if (kind != SchemeKind::None)
        expect(t.get("protection.check." + name).calls > 0,
               "decorator on " + name + " saw check() calls");
}

} // namespace

int
main()
{
    for (SchemeKind k : kAllKinds) {
        checkSweepCell(k);
        checkCampaign(k);
    }
    std::printf("%s: %d failure%s\n", failures ? "FAIL" : "OK", failures,
                failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}
