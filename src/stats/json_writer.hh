/**
 * @file
 * A small hand-rolled JSON writer.
 *
 * Reports (--json), the result cache and the serve daemon all need
 * strictly valid JSON without pulling in an external dependency.
 * JsonWriter is a push-style serializer: begin/end objects and arrays,
 * write keys and typed values, and it takes care of commas, escaping,
 * and number formatting.
 *
 * @code
 *   stats::JsonWriter w;
 *   w.beginObject();
 *   w.key("bench").value("fig08");
 *   w.key("points").beginArray();
 *   w.beginObject().key("gbps").value(9.87).endObject();
 *   w.endArray();
 *   w.endObject();
 *   std::string json = w.str();
 * @endcode
 *
 * Misuse (a key outside an object, unbalanced end calls, two keys in a
 * row) is a programming error and fatal()s rather than producing broken
 * output.
 */

#ifndef CELLBW_STATS_JSON_WRITER_HH
#define CELLBW_STATS_JSON_WRITER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cellbw::stats
{

class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Write an object key; must be followed by exactly one value. */
    JsonWriter &key(const std::string &k);

    /** @name Scalar values. */
    /** @{ */
    JsonWriter &value(const std::string &s);
    JsonWriter &value(const char *s);
    JsonWriter &value(double d);
    JsonWriter &value(std::uint64_t u);
    JsonWriter &value(std::int64_t i);
    JsonWriter &value(int i) { return value(static_cast<std::int64_t>(i)); }
    JsonWriter &value(unsigned u)
    {
        return value(static_cast<std::uint64_t>(u));
    }
    JsonWriter &value(bool b);
    JsonWriter &null();
    /** @} */

    /**
     * Emit a value that is already valid JSON (e.g. a nested document
     * produced by another writer).  The caller vouches for validity.
     */
    JsonWriter &raw(const std::string &json);

    /** True once every begin has been matched by an end. */
    bool complete() const { return stack_.empty() && started_; }

    /** The serialized document; fatal()s if incomplete. */
    const std::string &str() const;

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

    /**
     * Shortest-ish JSON number for @p d: integers print without a
     * fraction, non-finite values (JSON has no NaN/Inf) print as null.
     */
    static std::string number(double d);

  private:
    enum class Scope { Object, Array };

    void beforeValue();

    std::string out_;
    std::vector<Scope> stack_;
    /** A value was already written in the current scope (comma needed). */
    std::vector<bool> hasValue_;
    bool keyPending_ = false;
    bool started_ = false;
};

} // namespace cellbw::stats

#endif // CELLBW_STATS_JSON_WRITER_HH
