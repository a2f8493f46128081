#include "core/experiment_registry.hh"

#include <cstdio>
#include <optional>

#include "core/worker_pool.hh"

#include "sim/logging.hh"
#include "util/strings.hh"

namespace cellbw::core
{

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(Experiment e)
{
    if (experiments_.count(e.name)) {
        sim::fatal("duplicate experiment registration: %s",
                   e.name.c_str());
    }
    std::string name = e.name;
    experiments_.emplace(std::move(name), std::move(e));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    auto it = experiments_.find(name);
    return it == experiments_.end() ? nullptr : &it->second;
}

std::vector<const Experiment *>
ExperimentRegistry::sorted() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &kv : experiments_)
        out.push_back(&kv.second);    // std::map: already name-sorted
    return out;
}

std::string
ExperimentRegistry::listText(std::optional<Backend> filter) const
{
    std::vector<const Experiment *> shown;
    for (const Experiment *e : sorted()) {
        if (!filter || e->backend == *filter)
            shown.push_back(e);
    }
    std::string out = util::format("%zu experiments:\n", shown.size());
    for (const Experiment *e : shown) {
        out += util::format("  %-20s %-12s %-8s %s\n", e->name.c_str(),
                            e->figure.c_str(), toString(e->backend),
                            e->description.c_str());
    }
    return out;
}

int
runExperimentCli(const std::string &name, int argc,
                 const char *const *argv)
{
    const Experiment *e = ExperimentRegistry::instance().find(name);
    if (!e) {
        std::fprintf(stderr,
                     "cellbw: unknown experiment '%s' (see `cellbw "
                     "list`)\n",
                     name.c_str());
        return 1;
    }
    ExperimentContext ctx(e->name, e->description, e->backend);
    if (!ctx.parse(argc, argv))
        return 1;
    // A config the components reject throws from the body, and so does
    // a --jobs above the pool's cap; report either like a bad flag
    // instead of terminating.
    try {
        // One pool for every seed sweep of this run; --jobs 1 keeps
        // them inline on this thread.
        std::optional<WorkerPool> pool;
        const std::uint64_t jobs = ctx.opts.getUint("jobs");
        if (jobs != 1) {
            pool.emplace(jobs);
            ctx.pool = &*pool;
        }
        return e->body(ctx);
    } catch (const sim::FatalError &err) {
        std::fprintf(stderr, "%s: %s\n", e->name.c_str(), err.what());
        return 1;
    }
}

} // namespace cellbw::core
