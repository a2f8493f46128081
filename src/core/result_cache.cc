#include "core/result_cache.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <vector>

#include "core/json_report.hh"
#include "util/file.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace cellbw::core
{

namespace
{

/**
 * Canonical, locale-independent rendering of a Double option value.
 * The C library's number parsing and printf follow LC_NUMERIC — under
 * a comma-decimal locale "2.1" parses as 2 and 2.1 renders as "2,1",
 * so the same config hashed to a different key depending on the host
 * locale.  util::parseDouble and std::to_chars always use the C
 * grammar.
 */
std::string
canonicalDouble(const std::string &text)
{
    double v = 0.0;
    util::parseDouble(text, v);
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    return std::string(buf, res.ptr);
}

} // namespace

std::string
ResultCache::materialFor(const std::string &experiment,
                         const util::Options &opts)
{
    using util::Options;
    std::string m;
    m += "salt ";
    m += kSalt;
    m += "\nschema ";
    m += JsonReport::kSchema;
    m += "\nexperiment ";
    m += experiment;
    m += '\n';
    for (const auto &o : opts.list()) {
        if (o.resultNeutral)
            continue;
        std::string canon;
        switch (o.type) {
          case Options::OptionInfo::Type::Uint:
            canon = std::to_string(util::parseUint64(o.text));
            break;
          case Options::OptionInfo::Type::Double:
            canon = canonicalDouble(o.text);
            break;
          case Options::OptionInfo::Type::Bool: {
            std::string v = util::toLower(o.text);
            canon = (v == "true" || v == "1" || v == "yes") ? "true"
                                                            : "false";
            break;
          }
          case Options::OptionInfo::Type::Bytes:
            canon = std::to_string(util::parseByteSize(o.text));
            break;
          case Options::OptionInfo::Type::String:
            canon = o.text;
            break;
        }
        m += "opt ";
        m += o.name;
        m += '=';
        m += canon;
        m += '\n';
    }
    return m;
}

std::string
ResultCache::hashKey(const std::string &material)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : material) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return util::format("%016llx", static_cast<unsigned long long>(h));
}

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {}

std::string
ResultCache::dirFor(const std::string &key) const
{
    return root_ + "/" + key.substr(0, 2);
}

std::string
ResultCache::lockPath() const
{
    return root_ + "/.lock";
}

bool
ResultCache::lockRoot(util::FileLock &lock) const
{
    std::error_code ec;
    std::filesystem::create_directories(root_, ec);
    if (ec)
        return false;
    return lock.lock(lockPath());
}

bool
ResultCache::validReport(const std::string &report)
{
    util::JsonValue doc;
    std::string err;
    if (!util::JsonValue::parse(report, doc, err))
        return false;
    const util::JsonValue *schema = doc.find("schema");
    return schema && schema->isString() &&
           schema->str() == JsonReport::kSchema;
}

std::optional<std::string>
ResultCache::load(const std::string &key,
                  const std::string &material) const
{
    const std::string base = dirFor(key) + "/" + key;
    std::string storedMaterial;
    if (!util::readFile(base + ".key", storedMaterial))
        return std::nullopt;
    if (storedMaterial != material)
        return std::nullopt;
    std::string report;
    bool haveBytes = util::readFile(base + ".json", report);
    // A torn write or on-disk corruption can leave a valid .key next
    // to missing or damaged report bytes; replaying those would poison
    // the output tree.  Sanity-parse the stored document and treat
    // anything that is not a report of our schema as a miss — and
    // repair the entry so every later reader agrees it is a miss.
    if (!haveBytes || !validReport(report)) {
        recoverTornEntry(base, material);
        return std::nullopt;
    }
    // Refresh the entry's recency so prune() evicts in true LRU order.
    std::error_code ec;
    std::filesystem::last_write_time(
        base + ".json", std::filesystem::file_time_type::clock::now(),
        ec);
    return report;
}

void
ResultCache::recoverTornEntry(const std::string &base,
                              const std::string &material) const
{
    // Serialize with writers: a store() may be completing this entry
    // right now, in which case it is not torn and must be left alone.
    util::FileLock lock;
    lockRoot(lock);         // best effort; removal is safe regardless
    std::string storedMaterial;
    if (!util::readFile(base + ".key", storedMaterial) ||
        storedMaterial != material)
        return;             // already repaired or replaced
    std::string report;
    if (util::readFile(base + ".json", report) && validReport(report))
        return;             // a writer completed it; entry is whole
    // Key first: a half-removed entry must look like a miss, never
    // like a valid entry with missing bytes.
    std::error_code ec;
    std::filesystem::remove(base + ".key", ec);
    std::filesystem::remove(base + ".json", ec);
}

bool
ResultCache::store(const std::string &key, const std::string &material,
                   const std::string &reportBytes) const
{
    std::error_code ec;
    std::filesystem::create_directories(dirFor(key), ec);
    if (ec)
        return false;
    // Exclude concurrent store()/prune()/recovery in this and other
    // processes.  The lock is advisory and best effort — if it cannot
    // be taken the atomic rename protocol below still guarantees
    // whole-file visibility, just not store-vs-prune ordering.
    util::FileLock lock;
    lockRoot(lock);
    const std::string base = dirFor(key) + "/" + key;
    // Report first, material last: an entry is visible to load() only
    // once its .key file exists, and by then the .json is complete.
    if (!util::writeFileAtomic(base + ".json", reportBytes))
        return false;
    return util::writeFileAtomic(base + ".key", material);
}

ResultCache::PruneStats
ResultCache::prune(std::uint64_t maxBytes) const
{
    namespace fs = std::filesystem;
    struct Entry
    {
        fs::path json;
        fs::path key;
        std::uint64_t bytes;
        fs::file_time_type used;
    };
    PruneStats stats;
    std::error_code ec;
    if (!fs::exists(root_, ec) || ec)
        return stats;
    // Hold the writer lock across scan + eviction so a parallel
    // store() can never interleave with the key/json removal pair.
    util::FileLock lock;
    lockRoot(lock);
    std::vector<Entry> entries;
    for (fs::recursive_directory_iterator it(root_, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec) || it->path().extension() != ".json")
            continue;
        fs::path key = it->path();
        key.replace_extension(".key");
        if (!fs::exists(key, ec))
            continue;       // not a cache entry; leave it alone
        // Stat each file individually and skip the entry when any stat
        // fails: file_size() reports uintmax_t(-1) on error, and
        // summing that unchecked once inflated stats.bytes enough to
        // evict the whole cache.  Entries racing a concurrent writer
        // or pruner simply drop out of this scan.
        std::error_code sEc;
        const auto jsonBytes = fs::file_size(it->path(), sEc);
        if (sEc)
            continue;
        const auto keyBytes = fs::file_size(key, sEc);
        if (sEc)
            continue;
        const auto used = fs::last_write_time(it->path(), sEc);
        if (sEc)
            continue;
        Entry e;
        e.json = it->path();
        e.key = key;
        e.bytes = jsonBytes + keyBytes;
        e.used = used;
        entries.push_back(std::move(e));
    }
    for (const auto &e : entries) {
        ++stats.entries;
        stats.bytes += e.bytes;
    }
    if (stats.bytes <= maxBytes)
        return stats;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.used != b.used)
                      return a.used < b.used;
                  return a.json < b.json;   // stable across equal mtimes
              });
    std::uint64_t held = stats.bytes;
    for (const auto &e : entries) {
        if (held <= maxBytes)
            break;
        // Key first: a half-removed entry must look like a miss, never
        // like a valid entry with missing bytes.
        fs::remove(e.key, ec);
        fs::remove(e.json, ec);
        held -= e.bytes;
        ++stats.evicted;
        stats.evictedBytes += e.bytes;
    }
    return stats;
}

} // namespace cellbw::core
