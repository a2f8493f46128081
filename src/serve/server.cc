#include "serve/server.hh"

#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/experiment_registry.hh"
#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace cellbw::serve
{

namespace
{

HttpResponse
makeError(int status, const std::string &message)
{
    HttpResponse resp;
    resp.status = status;
    stats::JsonWriter w;
    w.beginObject();
    w.key("error").value(message);
    w.endObject();
    resp.body = w.str() + "\n";
    return resp;
}

} // namespace

Server::Server(ServeSpec spec)
    : spec_(std::move(spec)), cache_(spec_.cacheDir), pool_(spec_.jobs)
{
    if (spec_.active == 0)
        spec_.active = 1;
}

Server::~Server()
{
    beginShutdown();
    for (auto &t : runners_) {
        if (t.joinable())
            t.join();
    }
    pool_.shutdown();
    std::map<std::uint64_t, std::thread> taken;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        taken.swap(connections_);
        finishedConnections_.clear();
    }
    for (auto &kv : taken) {
        if (kv.second.joinable())
            kv.second.join();
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : wakePipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
Server::start()
{
    std::error_code ec;
    std::filesystem::create_directories(spec_.spoolDir, ec);
    if (ec) {
        std::fprintf(stderr, "cellbw serve: cannot create spool %s: %s\n",
                     spec_.spoolDir.c_str(), ec.message().c_str());
        return false;
    }

    if (::pipe(wakePipe_) != 0) {
        std::perror("cellbw serve: pipe");
        return false;
    }

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) {
        std::perror("cellbw serve: socket");
        return false;
    }
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(spec_.port);
    if (::inet_pton(AF_INET, spec_.host.c_str(), &addr.sin_addr) != 1) {
        std::fprintf(stderr, "cellbw serve: bad bind address '%s'\n",
                     spec_.host.c_str());
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::fprintf(stderr, "cellbw serve: cannot bind %s:%u: %s\n",
                     spec_.host.c_str(), unsigned(spec_.port),
                     std::strerror(errno));
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        std::perror("cellbw serve: listen");
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        boundPort_ = ntohs(addr.sin_port);

    if (!spec_.portFile.empty() &&
        !util::writeFileAtomic(spec_.portFile,
                               std::to_string(boundPort_) + "\n")) {
        std::fprintf(stderr, "cellbw serve: cannot write %s\n",
                     spec_.portFile.c_str());
        return false;
    }

    runners_.reserve(spec_.active);
    for (unsigned i = 0; i < spec_.active; ++i)
        runners_.emplace_back([this] { runnerLoop(); });

    std::printf("cellbw serve: listening on http://%s:%u "
                "(pool %u workers, %u active runs, cache %s%s)\n",
                spec_.host.c_str(), unsigned(boundPort_),
                pool_.workers(), spec_.active, spec_.cacheDir.c_str(),
                spec_.useCache ? "" : " disabled");
    std::fflush(stdout);
    return true;
}

void
Server::beginShutdown()
{
    if (draining_.exchange(true, std::memory_order_acq_rel))
        return;
    queue_.close();
    if (wakePipe_[1] >= 0) {
        char b = 'w';
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
    }
}

int
Server::run()
{
    pollfd fds[2];
    fds[0].fd = listenFd_;
    fds[0].events = POLLIN;
    fds[1].fd = wakePipe_[0];
    fds[1].events = POLLIN;

    for (;;) {
        fds[0].revents = fds[1].revents = 0;
        // The timeout bounds how stale the finished-connection reap
        // can get; the wake pipe makes shutdown prompt regardless.
        int rc = ::poll(fds, 2, 500);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            std::perror("cellbw serve: poll");
            break;
        }
        reapConnections(false);
        if (fds[1].revents & POLLIN)
            break;          // signal or beginShutdown(): drain
        if (!(fds[0].revents & POLLIN))
            continue;

        sockaddr_in peer;
        socklen_t len = sizeof(peer);
        int fd = ::accept(listenFd_, reinterpret_cast<sockaddr *>(&peer),
                          &len);
        if (fd < 0)
            continue;
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
        spawnConnection(fd, ip);
    }

    beginShutdown();
    ::close(listenFd_);
    listenFd_ = -1;
    logf("cellbw serve: draining (%zu queued, %zu in flight)\n",
         queue_.depth(), coalescer_.inflight());

    // Order matters: runners drain the queued jobs (clients blocked in
    // await() get their bytes), then the pool has no submitters left
    // and can join, then every connection thread has a response written
    // and exits.
    for (auto &t : runners_) {
        if (t.joinable())
            t.join();
    }
    pool_.shutdown();
    reapConnections(true);

    std::printf("cellbw serve: drained; %llu runs, %llu cache hits, "
                "%llu coalesced, %zu jobs\n",
                (unsigned long long)metrics_.counter("serve.runs")
                    .value(),
                (unsigned long long)metrics_.counter("serve.cache_hits")
                    .value(),
                (unsigned long long)metrics_.counter("serve.coalesced")
                    .value(),
                jobs_.size());
    std::fflush(stdout);
    return 0;
}

void
Server::spawnConnection(int fd, std::string peer)
{
    std::lock_guard<std::mutex> lock(connMutex_);
    const std::uint64_t id = nextConnection_++;
    connections_.emplace(
        id, std::thread([this, fd, peer = std::move(peer), id] {
            serveConnection(fd, peer, *this);
            std::lock_guard<std::mutex> lk(connMutex_);
            finishedConnections_.push_back(id);
        }));
}

void
Server::reapConnections(bool all)
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        if (all) {
            for (auto &kv : connections_)
                done.push_back(std::move(kv.second));
            connections_.clear();
        } else {
            for (std::uint64_t id : finishedConnections_) {
                auto it = connections_.find(id);
                if (it == connections_.end())
                    continue;
                done.push_back(std::move(it->second));
                connections_.erase(it);
            }
        }
        finishedConnections_.clear();
    }
    for (auto &t : done) {
        if (t.joinable())
            t.join();
    }
}

HttpResponse
Server::route(const HttpRequest &req, const std::string &peer)
{
    metrics_.counter("serve.requests").increment();

    // Strip any query string; the API is path-addressed.
    std::string target = req.target;
    if (auto q = target.find('?'); q != std::string::npos)
        target.erase(q);

    HttpResponse resp;
    if (target == "/healthz") {
        resp = req.method == "GET" ? handleHealth()
                                   : makeError(405, "use GET");
    } else if (target == "/experiments") {
        resp = req.method == "GET" ? handleExperiments()
                                   : makeError(405, "use GET");
    } else if (target == "/metrics") {
        resp = req.method == "GET" ? handleMetrics()
                                   : makeError(405, "use GET");
    } else if (target == "/run") {
        resp = req.method == "POST" ? handleRun(req, peer)
                                    : makeError(405, "use POST");
    } else if (target.rfind("/jobs/", 0) == 0) {
        resp = req.method == "GET" ? handleJob(target.substr(6))
                                   : makeError(405, "use GET");
    } else {
        resp = makeError(404, "no such endpoint");
    }

    metrics_
        .counter(util::format("serve.http_%dxx", resp.status / 100))
        .increment();
    metrics_.counter("serve.bytes_served").add(resp.body.size());
    return resp;
}

HttpResponse
Server::handleHealth() const
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("status").value("ok");
    w.key("draining").value(draining());
    w.endObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
}

HttpResponse
Server::handleExperiments() const
{
    stats::JsonWriter w;
    w.beginObject();
    w.key("experiments").beginArray();
    for (const core::Experiment *e :
         core::ExperimentRegistry::instance().sorted()) {
        w.beginObject();
        w.key("name").value(e->name);
        w.key("figure").value(e->figure);
        w.key("description").value(e->description);
        w.key("backend").value(core::toString(e->backend));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
}

HttpResponse
Server::handleMetrics()
{
    metrics_.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.depth()));
    metrics_.gauge("serve.inflight_keys")
        .set(static_cast<double>(coalescer_.inflight()));
    metrics_.gauge("serve.jobs_total")
        .set(static_cast<double>(jobs_.size()));
    metrics_.gauge("serve.draining").set(draining() ? 1.0 : 0.0);
    stats::JsonWriter w;
    metrics_.writeJson(w);
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
}

HttpResponse
Server::handleRun(const HttpRequest &req, const std::string &peer)
{
    if (draining()) {
        metrics_.counter("serve.rejected_draining").increment();
        return makeError(503, "draining: not accepting new runs");
    }

    util::JsonValue body;
    std::string perr;
    if (req.body.empty() ||
        !util::JsonValue::parse(req.body, body, perr) ||
        !body.isObject())
        return makeError(400, "request body must be a JSON object");

    const std::string name = body.strOr("experiment", "");
    if (name.empty())
        return makeError(400, "missing \"experiment\"");

    std::vector<std::string> args;
    if (const util::JsonValue *a = body.find("args")) {
        if (!a->isArray())
            return makeError(400, "\"args\" must be an array of strings");
        for (const util::JsonValue &v : a->array()) {
            if (!v.isString())
                return makeError(
                    400, "\"args\" must be an array of strings");
            args.push_back(v.str());
        }
    }
    for (const auto &a : args) {
        // The server owns report output, and --help would turn a run
        // into a usage dump.
        if (a == "--json" || a.rfind("--json=", 0) == 0 ||
            a == "--help" || a == "-h")
            return makeError(400, "flag not allowed here: " + a);
    }

    const bool wait = body.boolOr("wait", true);
    const std::string client =
        body.strOr("client", req.header("x-cellbw-client", peer));

    const core::Experiment *e =
        core::ExperimentRegistry::instance().find(name);
    if (!e)
        return makeError(404, "unknown experiment '" + name +
                                  "' (see GET /experiments)");

    // An explicit "backend" in the request config must name a known
    // backend and match the experiment's registration.
    if (const util::JsonValue *b = body.find("backend")) {
        if (!b->isString())
            return makeError(400, "\"backend\" must be a string");
        core::Backend requested;
        if (!core::parseBackend(b->str(), requested)) {
            return makeError(
                400, "unknown backend '" + b->str() +
                         "' (known backends: " +
                         std::string(core::knownBackends()) + ")");
        }
        if (requested != e->backend) {
            return makeError(400, "experiment '" + name +
                                      "' runs on the " +
                                      core::toString(e->backend) +
                                      " backend, not '" + b->str() +
                                      "'");
        }
    }
    if (spec_.simOnly && e->backend == core::Backend::Native) {
        metrics_.counter("serve.rejected_native").increment();
        return makeError(403, "this daemon was started --sim-only; "
                              "native-backend experiments are "
                              "refused");
    }

    // Validate the flags and compute the canonical cache identity
    // through the exact parse path `cellbw run` uses.
    core::ExperimentContext ctx(e->name, e->description, e->backend);
    ctx.setQuiet(true);
    std::vector<std::string> argStore;
    argStore.push_back(e->name);
    for (const auto &a : args)
        argStore.push_back(a);
    std::vector<const char *> argv;
    argv.reserve(argStore.size());
    for (const auto &a : argStore)
        argv.push_back(a.c_str());
    if (!ctx.parse(static_cast<int>(argv.size()), argv.data()))
        return makeError(400, "invalid experiment flags");

    if (spec_.useCache && core::backendIsCacheable(e->backend)) {
        if (auto stored =
                cache_.load(ctx.cacheKey(), ctx.cacheMaterial())) {
            metrics_.counter("serve.cache_hits").increment();
            logf("  [hit ] %-20s %s client=%s\n", name.c_str(),
                 ctx.cacheKey().c_str(), client.c_str());
            HttpResponse resp;
            resp.body = std::move(*stored);
            resp.headers = {{"X-Cellbw-Cache", "hit"},
                            {"X-Cellbw-Key", ctx.cacheKey()}};
            return resp;
        }
    }

    auto fresh = jobs_.create(name, args, client, ctx.cacheKey(),
                              ctx.cacheMaterial());
    auto [job, admitted] = coalescer_.admit(fresh);
    if (admitted) {
        metrics_.counter("serve.jobs_created").increment();
        if (!queue_.push(job)) {
            // Drain began between the check above and here; the job
            // must fail loudly for anyone who already coalesced on it.
            job->finish(Job::State::Failed, nullptr,
                        "server is draining");
            coalescer_.finished(job->key);
            metrics_.counter("serve.rejected_draining").increment();
            return makeError(503, "draining: not accepting new runs");
        }
        logf("  [cold] %-20s %s job=%s client=%s\n", name.c_str(),
             job->key.c_str(), job->id.c_str(), client.c_str());
    } else {
        metrics_.counter("serve.coalesced").increment();
        logf("  [coal] %-20s %s -> job=%s client=%s\n", name.c_str(),
             job->key.c_str(), job->id.c_str(), client.c_str());
    }

    if (!wait) {
        Job::State state;
        {
            std::lock_guard<std::mutex> lock(job->mutex);
            state = job->state;
        }
        HttpResponse resp;
        resp.status = 202;
        stats::JsonWriter w;
        w.beginObject();
        w.key("job").value(job->id);
        w.key("state").value(Job::stateName(state));
        w.endObject();
        resp.body = w.str() + "\n";
        resp.headers = {{"X-Cellbw-Job", job->id}};
        return resp;
    }

    job->await();
    return jobOutcome(job, admitted ? "miss" : "coalesced");
}

HttpResponse
Server::jobOutcome(const std::shared_ptr<Job> &job,
                   const char *cacheDisposition)
{
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->state == Job::State::Done) {
        HttpResponse resp;
        resp.body = *job->report;
        resp.headers = {
            {"X-Cellbw-Cache", job->hit ? "hit" : cacheDisposition},
            {"X-Cellbw-Key", job->key},
            {"X-Cellbw-Job", job->id}};
        return resp;
    }
    HttpResponse resp = makeError(500, job->error.empty()
                                           ? "run failed"
                                           : job->error);
    resp.headers = {{"X-Cellbw-Job", job->id}};
    return resp;
}

HttpResponse
Server::handleJob(const std::string &rest) const
{
    std::string id = rest;
    std::string sub;
    if (auto slash = rest.find('/'); slash != std::string::npos) {
        id = rest.substr(0, slash);
        sub = rest.substr(slash + 1);
    }
    auto job = jobs_.find(id);
    if (!job)
        return makeError(404, "unknown job '" + id + "'");

    std::lock_guard<std::mutex> lock(job->mutex);
    if (sub == "report") {
        if (job->state == Job::State::Done) {
            HttpResponse resp;
            resp.body = *job->report;
            resp.headers = {{"X-Cellbw-Key", job->key},
                            {"X-Cellbw-Job", job->id}};
            return resp;
        }
        if (job->state == Job::State::Failed)
            return makeError(500, job->error);
        return makeError(409, std::string("job is ") +
                                  Job::stateName(job->state));
    }
    if (!sub.empty())
        return makeError(404, "no such job endpoint");

    stats::JsonWriter w;
    w.beginObject();
    w.key("job").value(job->id);
    w.key("experiment").value(job->experiment);
    w.key("state").value(Job::stateName(job->state));
    w.key("client").value(job->client);
    w.key("key").value(job->key);
    w.key("hit").value(job->hit);
    w.key("coalesced").value(job->coalesced);
    w.key("error").value(job->error);
    if (job->state == Job::State::Done)
        w.key("report").value("/jobs/" + job->id + "/report");
    w.endObject();
    HttpResponse resp;
    resp.body = w.str() + "\n";
    return resp;
}

void
Server::runnerLoop()
{
    while (auto job = queue_.pop())
        runJob(job);
}

void
Server::runJob(const std::shared_ptr<Job> &job)
{
    {
        std::lock_guard<std::mutex> lock(job->mutex);
        job->state = Job::State::Running;
    }

    const core::Experiment *e =
        core::ExperimentRegistry::instance().find(job->experiment);
    if (!e) {
        // handleRun only admits registered names; the registry is
        // immutable after static init, so this cannot happen.
        job->finish(Job::State::Failed, nullptr,
                    "experiment vanished from the registry");
        coalescer_.finished(job->key);
        return;
    }

    // Exactly-once guard: a request probes the cache *before* it wins
    // the coalescer slot, so an identical run finishing in that window
    // (store -> coalescer.finished) would be invisible to it.  The
    // store is ordered before finished(), so re-probing here after
    // winning the slot closes the window: either we see the entry, or
    // no identical run has completed and we are the one run.  Native
    // jobs skip this (nothing is ever stored for them): coalescing
    // still dedups concurrent identical requests, but every fresh
    // request measures.
    if (spec_.useCache && core::backendIsCacheable(e->backend)) {
        if (auto stored = cache_.load(job->key, job->material)) {
            metrics_.counter("serve.cache_hits").increment();
            {
                std::lock_guard<std::mutex> lock(job->mutex);
                job->hit = true;
            }
            job->finish(Job::State::Done,
                        std::make_shared<const std::string>(
                            std::move(*stored)),
                        "");
            coalescer_.finished(job->key);
            return;
        }
    }
    const std::string reportPath =
        spec_.spoolDir + "/" + job->id + ".json";

    std::vector<std::string> argStore;
    argStore.push_back(job->experiment);
    for (const auto &a : job->args)
        argStore.push_back(a);
    argStore.push_back("--json");
    argStore.push_back(reportPath);
    std::vector<const char *> argv;
    argv.reserve(argStore.size());
    for (const auto &a : argStore)
        argv.push_back(a.c_str());

    std::string err;
    core::ExperimentContext ctx(e->name, e->description, e->backend);
    ctx.setQuiet(true);
    if (!ctx.parse(static_cast<int>(argv.size()), argv.data())) {
        err = "flag parse failed";
    } else {
        if (spec_.useCache)
            ctx.attachCache(&cache_);
        ctx.pool = &pool_;
        try {
            int rc = e->body(ctx);
            if (rc != 0)
                err = util::format("exit code %d", rc);
        } catch (const std::exception &ex) {
            err = ex.what();
        }
    }

    std::string bytes;
    if (err.empty() && !util::readFile(reportPath, bytes))
        err = "cannot read report " + reportPath;

    if (!err.empty()) {
        metrics_.counter("serve.failures").increment();
        logf("  [fail] %-20s job=%s: %s\n", job->experiment.c_str(),
             job->id.c_str(), err.c_str());
        job->finish(Job::State::Failed, nullptr, std::move(err));
        coalescer_.finished(job->key);
        return;
    }

    metrics_.counter("serve.runs").increment();
    logf("  [run ] %-20s %s job=%s\n", job->experiment.c_str(),
         job->key.c_str(), job->id.c_str());
    job->finish(Job::State::Done,
                std::make_shared<const std::string>(std::move(bytes)),
                "");
    // Only after the result is in the cache (ctx.finish() stored it
    // inside body()) and published on the job may the in-flight slot
    // disappear — that ordering is what makes the re-probe above an
    // exactly-once guarantee.
    coalescer_.finished(job->key);

    if (spec_.useCache && spec_.cacheMaxBytes > 0)
        cache_.prune(spec_.cacheMaxBytes);
}

void
Server::logf(const char *fmt, ...)
{
    if (spec_.terse)
        return;
    static std::mutex logMutex;
    std::lock_guard<std::mutex> lock(logMutex);
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::fflush(stdout);
}

namespace
{

std::atomic<int> g_wakeFd{-1};

void
onShutdownSignal(int)
{
    int fd = g_wakeFd.load(std::memory_order_acquire);
    if (fd >= 0) {
        char b = 's';
        [[maybe_unused]] ssize_t n = ::write(fd, &b, 1);
    }
}

} // namespace

int
runServe(const ServeSpec &spec)
{
    Server server(spec);
    if (!server.start())
        return 2;

    // SIGTERM/SIGINT begin a graceful drain via the wake pipe (the
    // only async-signal-safe handoff); SIGPIPE from half-closed
    // clients is handled per-send with MSG_NOSIGNAL, but ignore it
    // globally too in case a write sneaks in elsewhere.
    g_wakeFd.store(server.wakeFd(), std::memory_order_release);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onShutdownSignal;
    sigemptyset(&sa.sa_mask);
    struct sigaction oldTerm, oldInt, oldPipe, ignPipe;
    std::memset(&ignPipe, 0, sizeof(ignPipe));
    ignPipe.sa_handler = SIG_IGN;
    sigemptyset(&ignPipe.sa_mask);
    ::sigaction(SIGTERM, &sa, &oldTerm);
    ::sigaction(SIGINT, &sa, &oldInt);
    ::sigaction(SIGPIPE, &ignPipe, &oldPipe);

    int rc = server.run();

    ::sigaction(SIGTERM, &oldTerm, nullptr);
    ::sigaction(SIGINT, &oldInt, nullptr);
    ::sigaction(SIGPIPE, &oldPipe, nullptr);
    g_wakeFd.store(-1, std::memory_order_release);
    return rc;
}

} // namespace cellbw::serve
