/**
 * @file
 * Tracing for the benchmark's traced run: a span recorder plus
 * forwarding shims placed at the simulator's public layer boundaries —
 * a TraceSource wrapper, MemoryLevel shims between cache levels, and a
 * ProtectionScheme decorator.  Nothing inside the simulator is
 * instrumented; every span is opened by the benchmark's own code
 * around a call into a module's public interface.
 *
 * The shims are transparent: a hierarchy built from them produces
 * bit-identical results to the plain one (shim_test.cc proves it for
 * every SchemeKind).
 */

#ifndef PERFBENCH_SHIMS_HH
#define PERFBENCH_SHIMS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/memory_level.hh"
#include "cache/protection_scheme.hh"
#include "cache/write_back_cache.hh"
#include "sim/experiment.hh"
#include "sim/paper_config.hh"
#include "trace/trace_io.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Single-threaded span recorder.  A span's self time is its duration
 * minus the time covered by spans opened inside it, so the self times
 * of all layers plus the time outside every span add up to the wall
 * time of the traced pass.
 */
class Tracer
{
  public:
    struct Layer
    {
        std::string name;
        double self_s = 0.0;
        double incl_s = 0.0;
        uint64_t calls = 0;
    };

    /** Id of layer @p name, registering it on first use. */
    int layer(const std::string &name);

    void
    enter(int id)
    {
        stack_.push_back(Frame{id, Clock::now(), 0.0});
    }

    /** Close the innermost span; @return its duration in seconds. */
    double leave();

    const std::vector<Layer> &layers() const { return layers_; }
    /** Layer by name; a zero layer when it was never entered. */
    Layer get(const std::string &name) const;
    /** Sum of self time over every layer. */
    double selfTotal() const;

  private:
    struct Frame
    {
        int id;
        Clock::time_point t0;
        double child_s;
    };
    std::vector<Layer> layers_;
    std::map<std::string, int> ids_;
    std::vector<Frame> stack_;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, int id) : t_(&t) { t_->enter(id); }
    ~Span()
    {
        if (t_)
            t_->leave();
    }
    /** Close early; @return the span's duration. */
    double
    close()
    {
        double d = t_->leave();
        t_ = nullptr;
        return d;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t_;
};

/** Counts and times every record pulled from the wrapped source. */
class TracingSource : public cppc::TraceSource
{
  public:
    TracingSource(cppc::TraceSource &inner, Tracer &t)
        : inner_(&inner), t_(&t), id_(t.layer("trace"))
    {
    }
    cppc::TraceRecord
    next() override
    {
        Span s(*t_, id_);
        return inner_->next();
    }

  private:
    cppc::TraceSource *inner_;
    Tracer *t_;
    int id_;
};

/**
 * Forwards line reads/writes to the level below, timed under layers
 * "<layer>.read" and "<layer>.write" ("cache.l2" between the L1s and
 * L2, "cache.mem" between L2 and memory); their call counts are the
 * level's read and write counts.
 */
class TracingLevel : public cppc::MemoryLevel
{
  public:
    TracingLevel(cppc::MemoryLevel &inner, Tracer &t,
                 const std::string &layer)
        : inner_(&inner), t_(&t), read_id_(t.layer(layer + ".read")),
          write_id_(t.layer(layer + ".write"))
    {
    }
    void readLine(cppc::Addr addr, uint8_t *out, unsigned len) override;
    void writeLine(cppc::Addr addr, const uint8_t *data,
                   unsigned len) override;
    std::string name() const override { return inner_->name(); }

  private:
    cppc::MemoryLevel *inner_;
    Tracer *t_;
    int read_id_;
    int write_id_;
};

/**
 * ProtectionScheme decorator: forwards every virtual — including the
 * defaulted onClean, resyncRow, decodeSpanUnits, bitlineOverheadFactor
 * and the protected saveBody/loadBody — and times each hook under
 * "protection.<hook>.<family>", the family being the scheme's name up
 * to its first '-' ("parity1d-k8" -> "parity1d").
 *
 * The base class keeps stats in a non-virtual member that the cache
 * and the energy model read through the decorator, so each forwarded
 * hook adds the inner scheme's stats delta to the decorator's copy;
 * resetStats() and loadState() on the decorator then behave exactly as
 * on the inner scheme.
 *
 * Not usable where a caller down-casts the scheme or attaches an
 * OpObserver (the fuzz rig): those reach the decorator, not the inner
 * scheme.
 */
class TracingScheme : public cppc::ProtectionScheme
{
  public:
    TracingScheme(std::unique_ptr<cppc::ProtectionScheme> inner,
                  Tracer &t);

    std::string name() const override { return inner_->name(); }
    void attach(cppc::CacheBackdoor &cache) override;
    cppc::FillEffect onFill(cppc::Row row0, unsigned n_units,
                            const uint8_t *data,
                            bool victim_was_dirty) override;
    void onEvict(cppc::Row row0, unsigned n_units, const uint8_t *data,
                 const uint8_t *dirty) override;
    cppc::StoreEffect onStore(cppc::Row row,
                              const cppc::WideWord &old_data,
                              const cppc::WideWord &new_data,
                              bool was_dirty, bool partial) override;
    void onClean(cppc::Row row, const cppc::WideWord &data) override;
    bool check(cppc::Row row) const override;
    cppc::VerifyOutcome recover(cppc::Row row) override;
    void resyncRow(cppc::Row row) override;
    uint64_t codeBitsTotal() const override
    {
        return inner_->codeBitsTotal();
    }
    unsigned decodeSpanUnits() const override
    {
        return inner_->decodeSpanUnits();
    }
    double bitlineOverheadFactor() const override
    {
        return inner_->bitlineOverheadFactor();
    }

  protected:
    void saveBody(cppc::StateWriter &w) const override;
    void loadBody(cppc::StateReader &r) override;

  private:
    enum Hook
    {
        kFill,
        kEvict,
        kStore,
        kClean,
        kCheck,
        kRecover,
        kResync,
        kHooks
    };
    /** Span over one forwarded hook plus the stats-delta fold. */
    class HookSpan;

    std::unique_ptr<cppc::ProtectionScheme> inner_;
    Tracer *t_;
    int ids_[kHooks];
};

/** Wrap @p s (which may be null: an unprotected cache stays so). */
std::unique_ptr<cppc::ProtectionScheme>
traced(std::unique_ptr<cppc::ProtectionScheme> s, Tracer &t);

/**
 * The Table 1 hierarchy of cppc::Hierarchy with a TracingLevel between
 * the L1s and L2 and between L2 and memory, and every scheme wrapped
 * in a TracingScheme.
 */
class TracedHierarchy
{
  public:
    TracedHierarchy(cppc::SchemeKind kind,
                    const cppc::CppcConfig &cppc_cfg, Tracer &t);
    TracedHierarchy(const TracedHierarchy &) = delete;
    TracedHierarchy &operator=(const TracedHierarchy &) = delete;

    cppc::MainMemory mem;
    TracingLevel mem_shim;
    std::unique_ptr<cppc::WriteBackCache> l2;
    std::unique_ptr<TracingLevel> l2_shim;
    std::unique_ptr<cppc::WriteBackCache> l1d;
    std::unique_ptr<cppc::WriteBackCache> l1i;
};

/**
 * runExperiment() on a TracedHierarchy: the same steps in the same
 * order, each public call wrapped in its layer's span ("sim.cell",
 * "sim.hierarchy_build", "cpu", "energy").  Bit-identical results.
 */
cppc::RunMetrics runTracedExperiment(const cppc::BenchmarkProfile &profile,
                                     cppc::SchemeKind kind,
                                     const cppc::ExperimentOptions &opts,
                                     Tracer &t);

} // namespace perfbench

#endif // PERFBENCH_SHIMS_HH
