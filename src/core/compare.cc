#include "core/compare.hh"

#include <cmath>
#include <cstdlib>

#include "util/file.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace cellbw::core
{

namespace
{

using util::JsonValue;

bool
schemaOk(const JsonValue &doc, const char *which, std::string &err)
{
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString()) {
        err = util::format("%s: missing schema field", which);
        return false;
    }
    const std::string &s = schema->str();
    if (s != "cellbw-bench-v1" && s != "cellbw-bench-v2" &&
        s != "cellbw-bench-v3") {
        err = util::format("%s: unsupported schema '%s'", which,
                           s.c_str());
        return false;
    }
    return true;
}

/** points grouped by table name, preserving document order. */
std::vector<std::pair<std::string, std::vector<const JsonValue *>>>
groupPoints(const JsonValue &doc)
{
    std::vector<std::pair<std::string, std::vector<const JsonValue *>>>
        out;
    const JsonValue *points = doc.find("points");
    if (!points || !points->isArray())
        return out;
    for (const JsonValue &p : points->array()) {
        const JsonValue *table = p.find("table");
        std::string name =
            table && table->isString() ? table->str() : "";
        auto it = out.begin();
        for (; it != out.end(); ++it) {
            if (it->first == name)
                break;
        }
        if (it == out.end()) {
            out.emplace_back(name, std::vector<const JsonValue *>{});
            it = out.end() - 1;
        }
        it->second.push_back(&p);
    }
    return out;
}

/** "results[3] (op=Get, elem=128B)" — identify a point in messages. */
std::string
pointLabel(const std::string &table, std::size_t idx,
           const JsonValue &point)
{
    std::string label = util::format("%s[%zu]", table.c_str(), idx);
    std::string ident;
    for (const auto &m : point.object()) {
        if (m.first == "table" || !m.second.isString())
            continue;
        if (!ident.empty())
            ident += ", ";
        ident += m.first + "=" + m.second.str();
    }
    if (!ident.empty())
        label += " (" + ident + ")";
    return label;
}

bool
withinTol(double candidate, double baseline, double tolPct)
{
    return std::abs(candidate - baseline) <=
           tolPct / 100.0 * std::abs(baseline) + 1e-12;
}

double
tolForColumn(const ComparePolicy &policy, const std::string &column)
{
    auto it = policy.columnTolPct.find(column);
    return it == policy.columnTolPct.end() ? policy.tolPct : it->second;
}

void
comparePoint(const std::string &table, std::size_t idx,
             const JsonValue &candidate, const JsonValue &baseline,
             const ComparePolicy &policy, CompareResult &out)
{
    ++out.pointsCompared;
    for (const auto &m : baseline.object()) {
        const std::string &column = m.first;
        if (column == "table")
            continue;
        const JsonValue *c = candidate.find(column);
        std::string label = pointLabel(table, idx, baseline);
        if (!c) {
            out.regressions.push_back(util::format(
                "%s: column '%s' missing from candidate",
                label.c_str(), column.c_str()));
            continue;
        }
        ++out.valuesCompared;
        if (m.second.isNumber() && c->isNumber()) {
            double tol = tolForColumn(policy, column);
            if (!withinTol(c->number(), m.second.number(), tol)) {
                out.regressions.push_back(util::format(
                    "%s: %s = %.6g, baseline %.6g (tolerance %.3g%%)",
                    label.c_str(), column.c_str(), c->number(),
                    m.second.number(), tol));
            }
        } else if (m.second.isString() && c->isString()) {
            if (m.second.str() != c->str()) {
                out.regressions.push_back(util::format(
                    "%s: %s = '%s', baseline '%s'", label.c_str(),
                    column.c_str(), c->str().c_str(),
                    m.second.str().c_str()));
            }
        } else {
            out.regressions.push_back(util::format(
                "%s: column '%s' changed type", label.c_str(),
                column.c_str()));
        }
    }
}

void
compareMetrics(const JsonValue &candidateDoc, const JsonValue &baselineDoc,
               const ComparePolicy &policy, CompareResult &out)
{
    const JsonValue *base = baselineDoc.find("metrics");
    if (!base || !base->isObject())
        return;
    const JsonValue *cand = candidateDoc.find("metrics");
    for (const auto &m : base->object()) {
        const JsonValue *c = cand ? cand->find(m.first) : nullptr;
        if (!c || !c->isNumber() || !m.second.isNumber()) {
            out.regressions.push_back(util::format(
                "metric '%s' missing from candidate",
                m.first.c_str()));
            continue;
        }
        ++out.metricsCompared;
        if (!withinTol(c->number(), m.second.number(),
                       policy.metricsTolPct)) {
            out.regressions.push_back(util::format(
                "metric '%s' = %.6g, baseline %.6g (tolerance "
                "%.3g%%)",
                m.first.c_str(), c->number(), m.second.number(),
                policy.metricsTolPct));
        }
    }
}

} // namespace

bool
compareReportTexts(const std::string &candidateText,
                   const std::string &baselineText,
                   const ComparePolicy &policy, CompareResult &out,
                   std::string &err)
{
    JsonValue candidate, baseline;
    std::string jsonErr;
    if (!JsonValue::parse(candidateText, candidate, jsonErr)) {
        err = "candidate: " + jsonErr;
        return false;
    }
    if (!JsonValue::parse(baselineText, baseline, jsonErr)) {
        err = "baseline: " + jsonErr;
        return false;
    }
    if (!schemaOk(candidate, "candidate", err) ||
        !schemaOk(baseline, "baseline", err)) {
        return false;
    }

    auto baseTables = groupPoints(baseline);
    auto candTables = groupPoints(candidate);
    auto candTable = [&](const std::string &name)
        -> const std::vector<const JsonValue *> * {
        for (const auto &t : candTables) {
            if (t.first == name)
                return &t.second;
        }
        return nullptr;
    };

    for (const auto &bt : baseTables) {
        const auto *ct = candTable(bt.first);
        if (!ct) {
            out.regressions.push_back(util::format(
                "table '%s' missing from candidate",
                bt.first.c_str()));
            continue;
        }
        if (ct->size() != bt.second.size()) {
            out.regressions.push_back(util::format(
                "table '%s': %zu points in baseline, %zu in "
                "candidate",
                bt.first.c_str(), bt.second.size(), ct->size()));
        }
        std::size_t n = std::min(ct->size(), bt.second.size());
        for (std::size_t i = 0; i < n; ++i) {
            comparePoint(bt.first, i, *(*ct)[i], *bt.second[i], policy,
                         out);
        }
    }

    if (policy.includeMetrics)
        compareMetrics(candidate, baseline, policy, out);
    return true;
}

bool
compareReportFiles(const std::string &candidatePath,
                   const std::string &baselinePath,
                   const ComparePolicy &policy, CompareResult &out,
                   std::string &err)
{
    std::string candidateText, baselineText;
    if (!util::readFile(candidatePath, candidateText)) {
        err = "cannot read " + candidatePath;
        return false;
    }
    if (!util::readFile(baselinePath, baselineText)) {
        err = "cannot read " + baselinePath;
        return false;
    }
    return compareReportTexts(candidateText, baselineText, policy, out,
                              err);
}

bool
parseColumnTols(const std::string &spec,
                std::map<std::string, double> &out, std::string &err)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string entry = spec.substr(pos, comma - pos);
        std::size_t eq = entry.rfind('=');
        if (eq == std::string::npos || eq == 0) {
            err = "bad tolerance entry '" + entry +
                  "' (want name=pct)";
            return false;
        }
        std::string name = entry.substr(0, eq);
        std::string pct = util::trim(entry.substr(eq + 1));
        double v = 0.0;
        if (!util::parseDouble(pct, v) || v < 0) {
            err = "bad tolerance value in '" + entry + "'";
            return false;
        }
        out[name] = v;
        pos = comma + 1;
    }
    return true;
}

} // namespace cellbw::core
