#include "shims.hh"

#include <sstream>

#include "energy/cacti_model.hh"

namespace perfbench {

using namespace cppc;

int
Tracer::layer(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const int id = static_cast<int>(layers_.size());
    layers_.push_back(Layer{name});
    ids_.emplace(name, id);
    return id;
}

double
Tracer::leave()
{
    const Clock::time_point now = Clock::now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = std::chrono::duration<double>(now - f.t0).count();
    Layer &l = layers_[static_cast<size_t>(f.id)];
    l.incl_s += d;
    l.self_s += d - f.child_s;
    ++l.calls;
    if (!stack_.empty())
        stack_.back().child_s += d;
    return d;
}

Tracer::Layer
Tracer::get(const std::string &name) const
{
    auto it = ids_.find(name);
    return it == ids_.end() ? Layer{name}
                            : layers_[static_cast<size_t>(it->second)];
}

double
Tracer::selfTotal() const
{
    double s = 0.0;
    for (const Layer &l : layers_)
        s += l.self_s;
    return s;
}

void
TracingLevel::readLine(Addr addr, uint8_t *out, unsigned len)
{
    Span s(*t_, read_id_);
    inner_->readLine(addr, out, len);
}

void
TracingLevel::writeLine(Addr addr, const uint8_t *data, unsigned len)
{
    Span s(*t_, write_id_);
    inner_->writeLine(addr, data, len);
}

namespace {

/**
 * Reaches the protected members of another ProtectionScheme object:
 * a member pointer formed through a derived class may be applied to
 * any object of the base type, and dispatches virtually.
 */
struct SchemeAccess : ProtectionScheme
{
    static void
    save(const ProtectionScheme &s, StateWriter &w)
    {
        (s.*(&SchemeAccess::saveBody))(w);
    }
    static void
    load(ProtectionScheme &s, StateReader &r)
    {
        (s.*(&SchemeAccess::loadBody))(r);
    }
};

} // namespace

/**
 * Times one forwarded hook and, on close, folds the inner scheme's
 * stats delta into the decorator's own stats (inside the span, so the
 * decorator's bookkeeping is charged to the protection layer rather
 * than to its caller).
 */
class TracingScheme::HookSpan
{
  public:
    HookSpan(TracingScheme &s, Hook h)
        : s_(s), before_(s.inner_->stats()), span_(*s.t_, s.ids_[h])
    {
    }
    ~HookSpan()
    {
        const SchemeStats &now = s_.inner_->stats();
        SchemeStats &out = s_.stats_;
        out.rbw_words += now.rbw_words - before_.rbw_words;
        out.rbw_lines += now.rbw_lines - before_.rbw_lines;
        out.detections += now.detections - before_.detections;
        out.refetched_clean += now.refetched_clean - before_.refetched_clean;
        out.corrected_clean += now.corrected_clean - before_.corrected_clean;
        out.corrected_dirty += now.corrected_dirty - before_.corrected_dirty;
        out.corrected_code += now.corrected_code - before_.corrected_code;
        out.due += now.due - before_.due;
        out.miscorrected += now.miscorrected - before_.miscorrected;
    }
    HookSpan(const HookSpan &) = delete;
    HookSpan &operator=(const HookSpan &) = delete;

  private:
    TracingScheme &s_;
    const SchemeStats before_;
    Span span_;
};

TracingScheme::TracingScheme(std::unique_ptr<ProtectionScheme> inner,
                             Tracer &t)
    : inner_(std::move(inner)), t_(&t)
{
    static const char *const kNames[kHooks] = {
        "on_fill", "on_evict", "on_store", "on_clean",
        "check",   "recover",  "resync_row"};
    // Scheme family: "parity1d-k8" -> "parity1d".
    const std::string full = inner_->name();
    const std::string scheme = full.substr(0, full.find('-'));
    for (int h = 0; h < kHooks; ++h)
        ids_[h] = t.layer(std::string("protection.") + kNames[h] + "." +
                          scheme);
    stats_ = inner_->stats();
}

void
TracingScheme::attach(CacheBackdoor &cache)
{
    inner_->attach(cache);
}

FillEffect
TracingScheme::onFill(Row row0, unsigned n_units, const uint8_t *data,
                      bool victim_was_dirty)
{
    HookSpan s(*this, kFill);
    return inner_->onFill(row0, n_units, data, victim_was_dirty);
}

void
TracingScheme::onEvict(Row row0, unsigned n_units, const uint8_t *data,
                       const uint8_t *dirty)
{
    HookSpan s(*this, kEvict);
    inner_->onEvict(row0, n_units, data, dirty);
}

StoreEffect
TracingScheme::onStore(Row row, const WideWord &old_data,
                       const WideWord &new_data, bool was_dirty,
                       bool partial)
{
    HookSpan s(*this, kStore);
    return inner_->onStore(row, old_data, new_data, was_dirty, partial);
}

void
TracingScheme::onClean(Row row, const WideWord &data)
{
    HookSpan s(*this, kClean);
    inner_->onClean(row, data);
}

bool
TracingScheme::check(Row row) const
{
    // const hook: the inner scheme cannot change its stats here.
    Span s(*t_, ids_[kCheck]);
    return inner_->check(row);
}

VerifyOutcome
TracingScheme::recover(Row row)
{
    HookSpan s(*this, kRecover);
    return inner_->recover(row);
}

void
TracingScheme::resyncRow(Row row)
{
    HookSpan s(*this, kResync);
    inner_->resyncRow(row);
}

void
TracingScheme::saveBody(StateWriter &w) const
{
    SchemeAccess::save(*inner_, w);
}

void
TracingScheme::loadBody(StateReader &r)
{
    SchemeAccess::load(*inner_, r);
}

std::unique_ptr<ProtectionScheme>
traced(std::unique_ptr<ProtectionScheme> s, Tracer &t)
{
    if (!s)
        return s;
    return std::make_unique<TracingScheme>(std::move(s), t);
}

TracedHierarchy::TracedHierarchy(SchemeKind kind, const CppcConfig &cppc_cfg,
                                 Tracer &t)
    : mem_shim(mem, t, "cache.mem")
{
    l2 = std::make_unique<WriteBackCache>(
        "L2", PaperConfig::l2Geometry(), ReplacementKind::LRU, &mem_shim,
        traced(makeScheme(kind, cppc_cfg), t));
    l2_shim = std::make_unique<TracingLevel>(*l2, t, "cache.l2");
    l1d = std::make_unique<WriteBackCache>(
        "L1D", PaperConfig::l1dGeometry(), ReplacementKind::LRU,
        l2_shim.get(), traced(makeScheme(kind, cppc_cfg), t));
    l1i = std::make_unique<WriteBackCache>(
        "L1I", PaperConfig::l1iGeometry(), ReplacementKind::LRU,
        l2_shim.get(), traced(makeScheme(SchemeKind::Parity1D), t));
}

RunMetrics
runTracedExperiment(const BenchmarkProfile &profile, SchemeKind kind,
                    const ExperimentOptions &opts, Tracer &t)
{
    Span cell(t, t.layer("sim.cell"));
    std::unique_ptr<TracedHierarchy> hp;
    {
        Span b(t, t.layer("sim.hierarchy_build"));
        hp = std::make_unique<TracedHierarchy>(kind, opts.cppc_cfg, t);
    }
    TracedHierarchy &h = *hp;
    OooCoreModel core(PaperConfig::coreParams(), h.l1d.get(), h.l2.get(),
                      h.l1i.get());
    TraceGenerator gen(profile, opts.seed);
    GeneratorSource gsrc(gen);
    TracingSource src(gsrc, t);

    DirtyProfiler l1_prof, l2_prof;
    RunMetrics m;
    m.benchmark = profile.name;
    m.kind = kind;
    {
        Span c(t, t.layer("cpu"));
        m.core = core.run(src, opts.instructions,
                          opts.profile_dirty ? &l1_prof : nullptr,
                          opts.profile_dirty ? &l2_prof : nullptr,
                          opts.cancel);
    }

    CactiModel l1_model(PaperConfig::l1dGeometry(), PaperConfig::kFeatureNm);
    CactiModel l2_model(PaperConfig::l2Geometry(), PaperConfig::kFeatureNm);
    {
        Span e(t, t.layer("energy"));
        m.l1_energy = EnergyAccountant(l1_model).compute(*h.l1d);
        m.l2_energy = EnergyAccountant(l2_model).compute(*h.l2);
    }

    m.l1_miss_rate = h.l1d->stats().missRate();
    m.l2_miss_rate = h.l2->stats().missRate();

    if (opts.dump_stats) {
        std::ostringstream os;
        h.l1d->dumpStats(os);
        h.l1i->dumpStats(os);
        h.l2->dumpStats(os);
        os << "mem.reads " << h.mem.reads() << "\n";
        os << "mem.writes " << h.mem.writes() << "\n";
        m.stats_dump = os.str();
    }

    if (opts.profile_dirty) {
        m.l1_dirty_fraction = l1_prof.avgDirtyFraction();
        m.l1_tavg_cycles = l1_prof.tavgCycles();
        m.l2_dirty_fraction = l2_prof.avgDirtyFraction();
        m.l2_tavg_cycles = l2_prof.tavgCycles();
    }
    return m;
}

} // namespace perfbench
