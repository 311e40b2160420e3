/**
 * @file
 * A minimal reader for the flat JSON dialect SystemConfig files use:
 * one object whose members are numbers, strings, or booleans, either
 * with dotted keys ("host.numCores") or grouped into nested section
 * objects ({"host": {"numCores": 16}}). Nested sections flatten into
 * dotted keys. Line comments (// and #) are allowed so example
 * configs can document themselves. Arrays and null are rejected —
 * config files stay a flat key/value namespace on purpose.
 */

#ifndef DIMMLINK_COMMON_JSON_HH
#define DIMMLINK_COMMON_JSON_HH

#include <string>
#include <vector>

namespace dimmlink {
namespace json {

/** One flattened member: dotted key plus the unquoted value text. */
struct Entry
{
    std::string key;
    std::string value;
    /** True when the value was a quoted string in the document. */
    bool wasString = false;
};

/**
 * Parse @p text as a flat config document. @p origin names the source
 * (file name) in error messages. fatal()s on malformed input and on a
 * key that appears twice once flattened. Members are returned in
 * document order.
 */
std::vector<Entry> parseFlat(const std::string &text,
                             const std::string &origin);

} // namespace json
} // namespace dimmlink

#endif // DIMMLINK_COMMON_JSON_HH
