/**
 * @file
 * A small recursive-descent JSON parser.
 *
 * The cellbw driver consumes its own reports: `cellbw compare` diffs
 * two `cellbw-bench-v*` documents and the result cache validates
 * stored entries.  Both need to *read* the JSON that
 * stats::JsonWriter produces, without an external dependency.
 *
 * JsonValue is an immutable tree; stats::JsonWriter is the one
 * emitter.  Object members preserve insertion order (the writer emits
 * deterministic documents; keeping the order makes diffs and error
 * messages deterministic too).  Numbers follow the strict JSON grammar
 * and are read locale-independently.  Nesting depth is capped at
 * kMaxDepth: a hostile or corrupt deeply-nested document is a parse
 * error, not a stack overflow.
 *
 * @code
 *   util::JsonValue doc;
 *   std::string err;
 *   if (!util::JsonValue::parse(text, doc, err))
 *       fatal("bad report: %s", err.c_str());
 *   const util::JsonValue *points = doc.find("points");
 * @endcode
 */

#ifndef CELLBW_UTIL_JSON_HH
#define CELLBW_UTIL_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace cellbw::util
{

class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    /** Maximum container nesting parse() accepts. */
    static constexpr std::size_t kMaxDepth = 512;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @name Accessors; calling the wrong one is a programming error. */
    /** @{ */
    bool boolean() const;
    double number() const;
    const std::string &str() const;
    const std::vector<JsonValue> &array() const;
    const std::vector<Member> &object() const;
    /** @} */

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** @name Defaulted member accessors (request/config parsing).
     * The default is returned when this is not an object, the member
     * is absent, or it has the wrong kind. */
    /** @{ */
    std::string strOr(const std::string &key,
                      const std::string &def) const;
    bool boolOr(const std::string &key, bool def) const;
    /** @} */

    /**
     * Parse @p text into @p out.  @return false (with a
     * position-annotated message in @p err) on malformed input;
     * trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, JsonValue &out,
                      std::string &err);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<Member> obj_;

    friend class JsonParser;
};

} // namespace cellbw::util

#endif // CELLBW_UTIL_JSON_HH
