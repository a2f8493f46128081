#include "core/validate.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <set>

#include "core/experiment_registry.hh"
#include "core/json_report.hh"
#include "core/oracle.hh"
#include "core/suite.hh"
#include "stats/json_writer.hh"
#include "stats/table.hh"
#include "util/file.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace cellbw::core
{

namespace
{

constexpr const char *kPaperSchema = "cellbw-paper-v1";

/** One loaded report plus its derived analytic oracle. */
struct LoadedReport
{
    util::JsonValue doc;
    std::vector<const util::JsonValue *> points;
    Oracle oracle{cell::CellConfig{}};
};

/** A check plus where it came from, for error messages. */
struct LoadedCheck
{
    std::string file;
    std::string defaultExperiment;
    const util::JsonValue *check = nullptr;
};

/** Setup-phase failure (malformed baseline, missing file, ...). */
struct SetupError
{
    std::string message;
};

[[noreturn]] void
setupFail(const std::string &message)
{
    throw SetupError{message};
}

/**
 * Numeric view of a point cell: numbers as-is, byte-size labels
 * ("128B", "1KiB") as bytes, the sync sweep's "all" as +infinity.
 */
bool
numericValue(const util::JsonValue &v, double &out)
{
    if (v.isNumber()) {
        out = v.number();
        return true;
    }
    if (!v.isString())
        return false;
    const std::string &s = v.str();
    if (s == "all") {
        out = std::numeric_limits<double>::infinity();
        return true;
    }
    double num = 0.0;
    const std::size_t used = util::parseDoublePrefix(s, num);
    if (used == 0)
        return false;
    std::string suffix = s.substr(used);
    double scale = 0.0;
    if (suffix.empty() || suffix == "B")
        scale = 1.0;
    else if (suffix == "KiB" || suffix == "KB")
        scale = 1024.0;
    else if (suffix == "MiB" || suffix == "MB")
        scale = 1024.0 * 1024.0;
    else if (suffix == "GiB" || suffix == "GB")
        scale = 1024.0 * 1024.0 * 1024.0;
    else
        return false;
    out = num * scale;
    return true;
}

/** Does @p cell satisfy matcher @p m (see validate.hh header)? */
bool
matchOne(const util::JsonValue &cell, const util::JsonValue &m)
{
    switch (m.kind()) {
      case util::JsonValue::Kind::String:
        return cell.isString() && cell.str() == m.str();
      case util::JsonValue::Kind::Number: {
        double x = 0.0;
        return numericValue(cell, x) && x == m.number();
      }
      case util::JsonValue::Kind::Array: {
        for (const auto &alt : m.array()) {
            if (matchOne(cell, alt))
                return true;
        }
        return false;
      }
      case util::JsonValue::Kind::Object: {
        double x = 0.0;
        if (!numericValue(cell, x))
            return false;
        if (const auto *lo = m.find("min")) {
            if (!lo->isNumber() || x < lo->number())
                return false;
        }
        if (const auto *hi = m.find("max")) {
            if (!hi->isNumber() || x > hi->number())
                return false;
        }
        return true;
      }
      default:
        return false;
    }
}

bool
pointMatches(const util::JsonValue &point, const util::JsonValue &select)
{
    for (const auto &m : select.object()) {
        const util::JsonValue *cell = point.find(m.first);
        if (!cell || !matchOne(*cell, m.second))
            return false;
    }
    return true;
}

/** "op=GET spes=8 elem=16KiB" — the point's identity for diagnostics. */
std::string
describePoint(const util::JsonValue &point)
{
    std::string out;
    for (const auto &m : point.object()) {
        if (m.first == "table")
            continue;
        std::string text;
        if (m.second.isString())
            text = m.second.str();
        else if (m.second.isNumber())
            text = stats::JsonWriter::number(m.second.number());
        else
            continue;
        if (!out.empty())
            out += ' ';
        out += m.first + "=" + text;
    }
    return out;
}

const std::string &
requireString(const LoadedCheck &c, const util::JsonValue &obj,
              const char *key)
{
    const util::JsonValue *v = obj.find(key);
    if (!v || !v->isString()) {
        setupFail(util::format("%s: check '%s' needs a string '%s'",
                               c.file.c_str(),
                               c.check->find("rule") &&
                                       c.check->find("rule")->isString()
                                   ? c.check->find("rule")->str().c_str()
                                   : "?",
                               key));
    }
    return v->str();
}

double
numberOr(const util::JsonValue &obj, const char *key, double def)
{
    const util::JsonValue *v = obj.find(key);
    if (!v)
        return def;
    if (!v->isNumber())
        setupFail(util::format("'%s' must be a number", key));
    return v->number();
}

std::string
stringOr(const util::JsonValue &obj, const char *key,
         const std::string &def)
{
    const util::JsonValue *v = obj.find(key);
    if (!v)
        return def;
    if (!v->isString())
        setupFail(util::format("'%s' must be a string", key));
    return v->str();
}

/** The points of one experiment's report, by select. */
std::vector<const util::JsonValue *>
selectPoints(const LoadedReport &report, const util::JsonValue &select)
{
    if (!select.isObject())
        setupFail("'select' must be an object of column matchers");
    std::vector<const util::JsonValue *> out;
    for (const auto *p : report.points) {
        if (pointMatches(*p, select))
            out.push_back(p);
    }
    return out;
}

/** A column's numeric value in @p point, or a setup error. */
bool
columnValue(const util::JsonValue &point, const std::string &column,
            double &out)
{
    const util::JsonValue *cell = point.find(column);
    return cell && numericValue(*cell, out);
}

struct Evaluator
{
    const std::map<std::string, LoadedReport> &reports;

    const LoadedReport &
    reportFor(const LoadedCheck &c, const std::string &experiment) const
    {
        auto it = reports.find(experiment);
        if (it == reports.end()) {
            setupFail(util::format(
                "%s: check references experiment '%s' which is not "
                "part of this validation run",
                c.file.c_str(), experiment.c_str()));
        }
        return it->second;
    }

    /** Resolve a bound that may be absolute or oracle-relative. */
    void
    resolveBounds(const LoadedCheck &c, const LoadedReport &report,
                  const util::JsonValue &check, double &lo, double &hi,
                  std::string &boundDesc) const
    {
        lo = -std::numeric_limits<double>::infinity();
        hi = std::numeric_limits<double>::infinity();
        std::string desc;
        if (const auto *v = check.find("min")) {
            lo = v->number();
            desc += util::format("min %.4g", lo);
        }
        if (const auto *v = check.find("max")) {
            hi = v->number();
            if (!desc.empty())
                desc += ", ";
            desc += util::format("max %.4g", hi);
        }
        if (const auto *o = check.find("oracle")) {
            if (!o->isString())
                setupFail(util::format("%s: 'oracle' must name a peak",
                                       c.file.c_str()));
            double peak = 0.0;
            if (!report.oracle.peak(o->str(), peak)) {
                setupFail(util::format("%s: unknown oracle peak '%s'",
                                       c.file.c_str(),
                                       o->str().c_str()));
            }
            const double relLo = numberOr(check, "rel_min", 0.0);
            const double relHi = numberOr(
                check, "rel_max",
                std::numeric_limits<double>::infinity());
            lo = std::max(lo, relLo * peak);
            hi = std::min(hi, relHi * peak);
            if (!desc.empty())
                desc += ", ";
            desc += util::format("oracle %s=%.4g x [%.3g, %.3g]",
                                 o->str().c_str(), peak, relLo, relHi);
        }
        boundDesc = util::format("[%.4g, %.4g] GB/s (%s)", lo, hi,
                                 desc.empty() ? "unbounded" : desc.c_str());
    }

    CheckOutcome
    evalBand(const LoadedCheck &c, CheckOutcome out) const
    {
        const util::JsonValue &check = *c.check;
        const LoadedReport &report = reportFor(c, out.experiment);
        const std::string &column = requireString(c, check, "column");
        auto points = selectPoints(report, *check.find("select"));
        if (points.empty()) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = "selection matched no points";
            return out;
        }
        double lo = 0, hi = 0;
        std::string bounds;
        resolveBounds(c, report, check, lo, hi, bounds);

        std::string bad;
        for (const auto *p : points) {
            double v = 0.0;
            if (!columnValue(*p, column, v)) {
                out.status = CheckOutcome::Status::Fail;
                out.detail = util::format(
                    "point %s has no numeric column '%s'",
                    describePoint(*p).c_str(), column.c_str());
                return out;
            }
            if (v < lo || v > hi) {
                bad += util::format("\n    point %s: %s=%.4g outside %s",
                                    describePoint(*p).c_str(),
                                    column.c_str(), v, bounds.c_str());
            }
        }
        if (!bad.empty()) {
            out.status = CheckOutcome::Status::Fail;
            const auto badCount = static_cast<std::size_t>(
                std::count(bad.begin(), bad.end(), '\n'));
            out.detail = util::format("%zu/%zu points out of band:",
                                      badCount, points.size()) + bad;
        } else {
            out.status = CheckOutcome::Status::Pass;
            out.detail = util::format("%zu points within %s",
                                      points.size(), bounds.c_str());
        }
        return out;
    }

    CheckOutcome
    evalMonotonic(const LoadedCheck &c, CheckOutcome out) const
    {
        const util::JsonValue &check = *c.check;
        const LoadedReport &report = reportFor(c, out.experiment);
        const std::string &column = requireString(c, check, "column");
        const std::string &orderBy = requireString(c, check, "order_by");
        const std::string direction =
            stringOr(check, "direction", "increasing");
        if (direction != "increasing" && direction != "decreasing") {
            setupFail(util::format("%s: bad direction '%s'",
                                   c.file.c_str(), direction.c_str()));
        }
        const double slack = numberOr(check, "slack_pct", 0.0) / 100.0;

        auto points = selectPoints(report, *check.find("select"));
        if (points.size() < 2) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = util::format(
                "selection matched %zu points; monotonicity needs >= 2",
                points.size());
            return out;
        }
        std::vector<std::pair<double, const util::JsonValue *>> ordered;
        for (const auto *p : points) {
            double key = 0.0;
            if (!columnValue(*p, orderBy, key)) {
                out.status = CheckOutcome::Status::Fail;
                out.detail = util::format(
                    "point %s has no numeric order column '%s'",
                    describePoint(*p).c_str(), orderBy.c_str());
                return out;
            }
            ordered.emplace_back(key, p);
        }
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });

        std::string bad;
        for (std::size_t i = 1; i < ordered.size(); ++i) {
            double prev = 0, cur = 0;
            if (!columnValue(*ordered[i - 1].second, column, prev) ||
                !columnValue(*ordered[i].second, column, cur)) {
                out.status = CheckOutcome::Status::Fail;
                out.detail = util::format("missing numeric column '%s'",
                                          column.c_str());
                return out;
            }
            const bool ok = direction == "increasing"
                                ? cur >= prev * (1.0 - slack)
                                : cur <= prev * (1.0 + slack);
            if (!ok) {
                bad += util::format(
                    "\n    %s then %s: %s goes %.4g -> %.4g (not %s, "
                    "slack %.3g%%)",
                    describePoint(*ordered[i - 1].second).c_str(),
                    describePoint(*ordered[i].second).c_str(),
                    column.c_str(), prev, cur, direction.c_str(),
                    slack * 100.0);
            }
        }
        if (!bad.empty()) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = "monotonicity violated:" + bad;
        } else {
            out.status = CheckOutcome::Status::Pass;
            out.detail = util::format("%zu points %s in %s",
                                      ordered.size(), direction.c_str(),
                                      orderBy.c_str());
        }
        return out;
    }

    /** Aggregate one side of an `ordering` check. */
    double
    aggregate(const LoadedCheck &c, const util::JsonValue &side,
              std::string &desc, std::string &experimentOut) const
    {
        const std::string experiment =
            stringOr(side, "experiment", c.defaultExperiment);
        if (experiment.empty()) {
            setupFail(util::format("%s: ordering side needs an "
                                   "'experiment'", c.file.c_str()));
        }
        experimentOut = experiment;
        const LoadedReport &report = reportFor(c, experiment);
        const util::JsonValue *select = side.find("select");
        if (!select)
            setupFail(util::format("%s: ordering side needs 'select'",
                                   c.file.c_str()));
        const std::string &column = requireString(c, side, "column");
        const std::string agg = stringOr(side, "agg", "mean");

        auto points = selectPoints(report, *select);
        if (points.empty()) {
            setupFail(util::format(
                "%s: ordering selection over %s matched no points",
                c.file.c_str(), experiment.c_str()));
        }
        double sum = 0, lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto *p : points) {
            double v = 0.0;
            if (!columnValue(*p, column, v)) {
                setupFail(util::format(
                    "%s: point %s has no numeric column '%s'",
                    c.file.c_str(), describePoint(*p).c_str(),
                    column.c_str()));
            }
            sum += v;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        double value = 0.0;
        if (agg == "mean")
            value = sum / static_cast<double>(points.size());
        else if (agg == "min")
            value = lo;
        else if (agg == "max")
            value = hi;
        else
            setupFail(util::format("%s: unknown agg '%s'",
                                   c.file.c_str(), agg.c_str()));
        desc = util::format("%s(%s over %zu points of %s)", agg.c_str(),
                            column.c_str(), points.size(),
                            experiment.c_str());
        return value;
    }

    CheckOutcome
    evalOrdering(const LoadedCheck &c, CheckOutcome out) const
    {
        const util::JsonValue &check = *c.check;
        const util::JsonValue *a = check.find("a");
        const util::JsonValue *b = check.find("b");
        if (!a || !b)
            setupFail(util::format("%s: ordering check '%s' needs 'a' "
                                   "and 'b'", c.file.c_str(),
                                   out.rule.c_str()));
        const std::string cmp = stringOr(check, "cmp", ">=");
        if (cmp != ">=" && cmp != "<=")
            setupFail(util::format("%s: bad cmp '%s'", c.file.c_str(),
                                   cmp.c_str()));
        const double factor = numberOr(check, "factor", 1.0);

        std::string descA, descB, expA, expB;
        const double va = aggregate(c, *a, descA, expA);
        const double vb = aggregate(c, *b, descB, expB);
        out.experiment = expA == expB ? expA : expA + "," + expB;

        const double bound = factor * vb;
        const bool ok = cmp == ">=" ? va >= bound : va <= bound;
        out.status =
            ok ? CheckOutcome::Status::Pass : CheckOutcome::Status::Fail;
        out.detail = util::format(
            "%s = %.4g %s %.4g = %.4g x %s%s", descA.c_str(), va,
            cmp.c_str(), bound, factor, descB.c_str(),
            ok ? "" : " VIOLATED");
        return out;
    }

    CheckOutcome
    evalPlateau(const LoadedCheck &c, CheckOutcome out) const
    {
        const util::JsonValue &check = *c.check;
        const LoadedReport &report = reportFor(c, out.experiment);
        const std::string &column = requireString(c, check, "column");
        const double spreadPct = numberOr(check, "spread_pct", 10.0);

        auto points = selectPoints(report, *check.find("select"));
        if (points.size() < 2) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = util::format(
                "selection matched %zu points; a plateau needs >= 2",
                points.size());
            return out;
        }
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        const util::JsonValue *pLo = nullptr, *pHi = nullptr;
        for (const auto *p : points) {
            double v = 0.0;
            if (!columnValue(*p, column, v)) {
                out.status = CheckOutcome::Status::Fail;
                out.detail = util::format(
                    "point %s has no numeric column '%s'",
                    describePoint(*p).c_str(), column.c_str());
                return out;
            }
            if (v < lo) {
                lo = v;
                pLo = p;
            }
            if (v > hi) {
                hi = v;
                pHi = p;
            }
        }
        const double spread = hi > 0 ? (hi - lo) / hi * 100.0 : 0.0;
        if (spread > spreadPct) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = util::format(
                "spread %.3g%% > %.3g%%: low %s (%s=%.4g), high %s "
                "(%s=%.4g)",
                spread, spreadPct, describePoint(*pLo).c_str(),
                column.c_str(), lo, describePoint(*pHi).c_str(),
                column.c_str(), hi);
        } else {
            out.status = CheckOutcome::Status::Pass;
            out.detail = util::format("%zu points flat within %.3g%% "
                                      "(allowed %.3g%%)",
                                      points.size(), spread, spreadPct);
        }
        return out;
    }

    CheckOutcome
    evalSpread(const LoadedCheck &c, CheckOutcome out) const
    {
        const util::JsonValue &check = *c.check;
        const LoadedReport &report = reportFor(c, out.experiment);
        const std::string &lowCol = requireString(c, check, "column_lo");
        const std::string &highCol = requireString(c, check, "column_hi");
        const double minGap = numberOr(check, "min_gap", 0.0);
        const std::string mode = stringOr(check, "mode", "all");
        if (mode != "all" && mode != "any")
            setupFail(util::format("%s: bad spread mode '%s'",
                                   c.file.c_str(), mode.c_str()));

        auto points = selectPoints(report, *check.find("select"));
        if (points.empty()) {
            out.status = CheckOutcome::Status::Fail;
            out.detail = "selection matched no points";
            return out;
        }
        unsigned wide = 0;
        std::string bad;
        double best = 0.0;
        for (const auto *p : points) {
            double lo = 0, hi = 0;
            if (!columnValue(*p, lowCol, lo) ||
                !columnValue(*p, highCol, hi)) {
                out.status = CheckOutcome::Status::Fail;
                out.detail = util::format(
                    "point %s lacks numeric '%s'/'%s'",
                    describePoint(*p).c_str(), lowCol.c_str(),
                    highCol.c_str());
                return out;
            }
            const double gap = hi - lo;
            best = std::max(best, gap);
            if (gap >= minGap) {
                ++wide;
            } else if (mode == "all") {
                bad += util::format(
                    "\n    point %s: %s-%s gap %.4g < %.4g GB/s",
                    describePoint(*p).c_str(), highCol.c_str(),
                    lowCol.c_str(), gap, minGap);
            }
        }
        const bool ok = mode == "all" ? bad.empty() : wide > 0;
        if (!ok) {
            out.status = CheckOutcome::Status::Fail;
            out.detail =
                mode == "all"
                    ? ("placement spread too small:" + bad)
                    : util::format("no point reaches a %s-%s gap of "
                                   "%.4g GB/s (best %.4g)",
                                   highCol.c_str(), lowCol.c_str(),
                                   minGap, best);
        } else {
            out.status = CheckOutcome::Status::Pass;
            out.detail = util::format(
                "%u/%zu points spread >= %.4g GB/s (widest %.4g)", wide,
                points.size(), minGap, best);
        }
        return out;
    }

    CheckOutcome
    evaluate(const LoadedCheck &c) const
    {
        const util::JsonValue &check = *c.check;
        CheckOutcome out;
        out.rule = requireString(c, check, "rule");
        out.experiment =
            stringOr(check, "experiment", c.defaultExperiment);
        const std::string &kind = requireString(c, check, "kind");

        if (kind == "ordering")
            return evalOrdering(c, std::move(out));
        if (out.experiment.empty()) {
            setupFail(util::format("%s: check '%s' names no experiment",
                                   c.file.c_str(), out.rule.c_str()));
        }
        if (!check.find("select")) {
            setupFail(util::format("%s: check '%s' needs 'select'",
                                   c.file.c_str(), out.rule.c_str()));
        }
        if (kind == "band")
            return evalBand(c, std::move(out));
        if (kind == "monotonic")
            return evalMonotonic(c, std::move(out));
        if (kind == "plateau")
            return evalPlateau(c, std::move(out));
        if (kind == "spread")
            return evalSpread(c, std::move(out));
        setupFail(util::format("%s: check '%s' has unknown kind '%s'",
                               c.file.c_str(), out.rule.c_str(),
                               kind.c_str()));
    }

    /** Every experiment a check needs a report for. */
    std::set<std::string>
    referencedExperiments(const LoadedCheck &c) const
    {
        std::set<std::string> out;
        const util::JsonValue &check = *c.check;
        const std::string kind = stringOr(check, "kind", "");
        if (kind == "ordering") {
            for (const char *side : {"a", "b"}) {
                if (const auto *s = check.find(side)) {
                    std::string e =
                        stringOr(*s, "experiment", c.defaultExperiment);
                    if (!e.empty())
                        out.insert(e);
                }
            }
        } else {
            std::string e =
                stringOr(check, "experiment", c.defaultExperiment);
            if (!e.empty())
                out.insert(e);
        }
        return out;
    }
};

/** Parse one cellbw-paper-v1 file into checks. */
void
loadBaselineFile(const std::string &path,
                 std::vector<util::JsonValue> &docStore,
                 std::vector<LoadedCheck> &checks,
                 std::map<std::string, std::string> &baselineByExperiment)
{
    std::string text;
    if (!util::readFile(path, text))
        setupFail(util::format("cannot read baseline %s", path.c_str()));
    util::JsonValue doc;
    std::string err;
    if (!util::JsonValue::parse(text, doc, err)) {
        setupFail(util::format("malformed baseline %s: %s", path.c_str(),
                               err.c_str()));
    }
    const util::JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() || schema->str() != kPaperSchema) {
        setupFail(util::format("%s: not a %s document", path.c_str(),
                               kPaperSchema));
    }
    std::string experiment;
    if (const auto *e = doc.find("experiment")) {
        if (!e->isString())
            setupFail(util::format("%s: 'experiment' must be a string",
                                   path.c_str()));
        experiment = e->str();
        baselineByExperiment[experiment] = path;
    }
    const util::JsonValue *list = doc.find("checks");
    if (!list || !list->isArray() || list->array().empty()) {
        setupFail(util::format("%s: needs a non-empty 'checks' array",
                               path.c_str()));
    }

    docStore.push_back(std::move(doc));
    for (const auto &c : docStore.back().find("checks")->array()) {
        if (!c.isObject())
            setupFail(util::format("%s: every check must be an object",
                                   path.c_str()));
        checks.push_back({path, experiment, &c});
    }
}

std::string
statusWord(CheckOutcome::Status s)
{
    switch (s) {
      case CheckOutcome::Status::Pass:
        return "PASS";
      case CheckOutcome::Status::Fail:
        return "FAIL";
      case CheckOutcome::Status::Skip:
        return "SKIP";
    }
    return "?";
}

std::string
renderValidateReport(const ValidateOutcome &outcome)
{
    JsonReport report;
    report.setBench("validate", "Validate",
                    "paper-fidelity validation of suite results");
    stats::Table table({"rule", "experiment", "status", "detail"});
    for (const auto &c : outcome.checks) {
        table.addRow({c.rule, c.experiment.empty() ? "-" : c.experiment,
                      statusWord(c.status), c.detail});
    }
    report.addTable("checks", table);
    return report.render();
}

} // namespace

int
runValidate(const ValidateSpec &spec, ValidateOutcome *outcome)
{
    namespace fs = std::filesystem;

    ValidateOutcome result;
    try {
        // 1. Load every expectation file in the baseline directory.
        std::vector<util::JsonValue> docStore;
        docStore.reserve(64);
        std::vector<LoadedCheck> checks;
        std::map<std::string, std::string> baselineByExperiment;
        {
            std::error_code ec;
            std::vector<std::string> files;
            for (const auto &entry :
                 fs::directory_iterator(spec.baselineDir, ec)) {
                if (entry.path().extension() == ".json")
                    files.push_back(entry.path().string());
            }
            if (ec) {
                setupFail(util::format(
                    "cannot read baseline directory %s: %s",
                    spec.baselineDir.c_str(), ec.message().c_str()));
            }
            std::sort(files.begin(), files.end());
            if (files.empty()) {
                setupFail(util::format("no paper baselines under %s",
                                       spec.baselineDir.c_str()));
            }
            if (docStore.capacity() < files.size())
                docStore.reserve(files.size());
            for (const auto &f : files) {
                loadBaselineFile(f, docStore, checks,
                                 baselineByExperiment);
            }
        }

        // 2. Resolve the experiment set to run.
        auto &registry = ExperimentRegistry::instance();
        std::set<std::string> targets;
        if (spec.targets.empty()) {
            for (const auto &kv : baselineByExperiment)
                targets.insert(kv.first);
        } else {
            for (const auto &name : spec.targets) {
                if (!registry.find(name)) {
                    setupFail(util::format(
                        "unknown experiment '%s' (see `cellbw list`)",
                        name.c_str()));
                }
                if (!baselineByExperiment.count(name)) {
                    setupFail(util::format(
                        "no paper baseline for experiment '%s' under "
                        "%s",
                        name.c_str(), spec.baselineDir.c_str()));
                }
                targets.insert(name);
            }
        }
        for (const auto &t : targets) {
            if (!registry.find(t)) {
                setupFail(util::format(
                    "%s names experiment '%s' which is not registered",
                    baselineByExperiment[t].c_str(), t.c_str()));
            }
        }

        // 3. Run them through the shared suite/cache path.
        std::error_code ec;
        fs::create_directories(spec.outDir, ec);
        if (ec) {
            setupFail(util::format("cannot create %s: %s",
                                   spec.outDir.c_str(),
                                   ec.message().c_str()));
        }
        const std::string manifestPath = spec.outDir + "/validate.manifest";
        {
            std::string manifest =
                "# generated by `cellbw validate`; selected experiments\n";
            for (const auto &t : targets)
                manifest += t + "\n";
            if (!util::writeFileAtomic(manifestPath, manifest))
                setupFail("cannot write " + manifestPath);
        }
        SuiteSpec suite;
        suite.manifest = manifestPath;
        suite.outDir = spec.outDir;
        suite.cacheDir = spec.cacheDir;
        suite.useCache = spec.useCache;
        suite.jobs = spec.jobs;
        suite.forward = spec.forward;
        suite.terse = spec.terse;
        if (runSuite(suite) != 0)
            setupFail("experiment suite failed; cannot validate");

        // 4. Parse the fresh reports and derive each one's oracle.
        std::map<std::string, LoadedReport> reports;
        for (const auto &t : targets) {
            const std::string path = spec.outDir + "/" + t + ".json";
            std::string text;
            if (!util::readFile(path, text))
                setupFail("cannot read report " + path);
            LoadedReport r;
            std::string err;
            if (!util::JsonValue::parse(text, r.doc, err)) {
                setupFail(util::format("malformed report %s: %s",
                                       path.c_str(), err.c_str()));
            }
            const util::JsonValue *points = r.doc.find("points");
            if (!points || !points->isArray())
                setupFail(path + ": report has no points array");
            for (const auto &p : points->array()) {
                if (p.isObject())
                    r.points.push_back(&p);
            }
            const util::JsonValue *config = r.doc.find("config");
            if (!config ||
                !Oracle::fromReportConfig(*config, r.oracle, err)) {
                setupFail(util::format("%s: cannot derive oracle: %s",
                                       path.c_str(), err.c_str()));
            }
            reports.emplace(t, std::move(r));
        }

        // 5. Evaluate every check; cross-experiment checks that
        // reference experiments outside this run are skipped, not
        // failed (running a subset must stay useful).
        Evaluator ev{reports};
        for (const auto &c : checks) {
            bool runnable = true;
            std::string missing;
            for (const auto &e : ev.referencedExperiments(c)) {
                if (!reports.count(e)) {
                    runnable = false;
                    missing = e;
                }
            }
            if (!runnable) {
                CheckOutcome out;
                out.rule = stringOr(*c.check, "rule", "?");
                out.experiment = missing;
                out.status = CheckOutcome::Status::Skip;
                out.detail = util::format(
                    "experiment %s not part of this run",
                    missing.c_str());
                result.checks.push_back(std::move(out));
                continue;
            }
            result.checks.push_back(ev.evaluate(c));
        }
    } catch (const SetupError &e) {
        std::fprintf(stderr, "cellbw validate: %s\n", e.message.c_str());
        return 2;
    }

    for (const auto &c : result.checks) {
        switch (c.status) {
          case CheckOutcome::Status::Pass:
            ++result.passed;
            break;
          case CheckOutcome::Status::Fail:
            ++result.failed;
            break;
          case CheckOutcome::Status::Skip:
            ++result.skipped;
            break;
        }
    }

    // 6. Report: one line per check, details on failures.
    std::printf("\npaper checks:\n");
    for (const auto &c : result.checks) {
        std::printf("  %-4s  %-34s [%s]\n",
                    statusWord(c.status).c_str(), c.rule.c_str(),
                    c.experiment.empty() ? "-" : c.experiment.c_str());
        if (c.status == CheckOutcome::Status::Fail)
            std::printf("        %s\n", c.detail.c_str());
    }
    std::printf("validate: %u passed, %u failed, %u skipped (%zu "
                "checks)\n",
                result.passed, result.failed, result.skipped,
                result.checks.size());

    const std::string reportJson = renderValidateReport(result) + "\n";
    const std::string reportPath = spec.outDir + "/validate.json";
    if (!util::writeFileAtomic(reportPath, reportJson)) {
        std::fprintf(stderr, "cellbw validate: cannot write %s\n",
                     reportPath.c_str());
        return 2;
    }
    if (!spec.jsonPath.empty() &&
        !util::writeFileAtomic(spec.jsonPath, reportJson)) {
        std::fprintf(stderr, "cellbw validate: cannot write %s\n",
                     spec.jsonPath.c_str());
        return 2;
    }

    if (outcome)
        *outcome = result;
    return result.ok() ? 0 : 1;
}

} // namespace cellbw::core
