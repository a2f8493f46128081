#include "core/json_report.hh"

#include <cstdlib>

#include "stats/json_writer.hh"
#include "util/strings.hh"

namespace cellbw::core
{

namespace
{

/** True iff @p s parses fully as a finite JSON-able number. */
bool
parseNumber(const std::string &s, double &out)
{
    double v = 0.0;
    if (s.empty() || util::parseDoublePrefix(s, v) != s.size())
        return false;
    out = v;
    return v == v && v <= 1.7976931348623157e308 &&
           v >= -1.7976931348623157e308;
}

void
writeCell(stats::JsonWriter &w, const std::string &cell)
{
    double num = 0.0;
    if (parseNumber(cell, num))
        w.raw(stats::JsonWriter::number(num));
    else
        w.value(cell);
}

} // namespace

void
JsonReport::setBench(std::string bench, std::string figure,
                     std::string description)
{
    bench_ = std::move(bench);
    figure_ = std::move(figure);
    description_ = std::move(description);
}

void
JsonReport::setExperiment(std::string experiment)
{
    experiment_ = std::move(experiment);
}

void
JsonReport::setSuite(std::string suite)
{
    suite_ = std::move(suite);
}

void
JsonReport::setBackend(std::string backend, bool reproducible)
{
    backend_ = std::move(backend);
    reproducible_ = reproducible;
}

void
JsonReport::setCacheInfo(std::string salt, std::string key)
{
    cacheSalt_ = std::move(salt);
    cacheKey_ = std::move(key);
}

void
JsonReport::setConfig(const util::Options &opts)
{
    config_ = opts.list();
}

void
JsonReport::addTable(const std::string &tableName,
                     const stats::Table &table)
{
    for (const auto &row : table.rows()) {
        Point p;
        p.table = tableName;
        p.headers = table.headers();
        p.cells = row;
        points_.push_back(std::move(p));
    }
}

std::string
JsonReport::render() const
{
    using util::Options;
    stats::JsonWriter w;
    w.beginObject();
    w.key("schema").value(kSchema);
    w.key("schema_version").value(kSchemaVersion);
    w.key("bench").value(bench_);
    w.key("experiment").value(experiment_.empty() ? bench_ : experiment_);
    w.key("figure").value(figure_);
    w.key("description").value(description_);
    w.key("backend").value(backend_);
    w.key("reproducible").value(reproducible_);
    if (!suite_.empty())
        w.key("suite").value(suite_);
    if (!cacheKey_.empty()) {
        w.key("cache").beginObject();
        w.key("salt").value(cacheSalt_);
        w.key("key").value(cacheKey_);
        w.endObject();
    }

    w.key("config").beginObject();
    for (const auto &o : config_) {
        if (o.resultNeutral)
            continue;
        w.key(o.name);
        switch (o.type) {
          case Options::OptionInfo::Type::Uint:
            w.value(util::parseUint64(o.text));
            break;
          case Options::OptionInfo::Type::Double: {
            double v = 0.0;
            util::parseDouble(o.text, v);
            w.value(v);
            break;
          }
          case Options::OptionInfo::Type::Bool: {
            std::string v = util::toLower(o.text);
            w.value(v == "true" || v == "1" || v == "yes");
            break;
          }
          case Options::OptionInfo::Type::Bytes:
            w.value(util::parseByteSize(o.text));
            break;
          case Options::OptionInfo::Type::String:
            w.value(o.text);
            break;
        }
    }
    w.endObject();

    w.key("points").beginArray();
    for (const auto &p : points_) {
        w.beginObject();
        w.key("table").value(p.table);
        for (std::size_t c = 0;
             c < p.headers.size() && c < p.cells.size(); ++c) {
            w.key(p.headers[c]);
            writeCell(w, p.cells[c]);
        }
        w.endObject();
    }
    w.endArray();

    w.key("metrics");
    metrics_.writeJson(w);

    w.endObject();
    return w.str();
}

} // namespace cellbw::core
