#include "common/json.hh"

#include <cctype>

#include "common/log.hh"

namespace dimmlink {
namespace json {

namespace {

/** Cursor over the document with line tracking for error messages. */
class Lexer
{
  public:
    Lexer(const std::string &text, const std::string &origin)
        : text(text), origin(origin)
    {}

    [[noreturn]] void
    error(const std::string &what) const
    {
        fatal("%s:%u: %s", origin.c_str(), line, what.c_str());
    }

    /** Skip whitespace and // / # line comments. */
    void
    skip()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c == '\n') {
                ++line;
                ++pos;
            } else if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '#' ||
                       (c == '/' && pos + 1 < text.size() &&
                        text[pos + 1] == '/')) {
                while (pos < text.size() && text[pos] != '\n')
                    ++pos;
            } else {
                return;
            }
        }
    }

    bool
    atEnd()
    {
        skip();
        return pos >= text.size();
    }

    char
    peek()
    {
        skip();
        if (pos >= text.size())
            error("unexpected end of document");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            error(strFormat("expected '%c', got '%c'", c, text[pos]));
        ++pos;
    }

    bool
    consumeIf(char c)
    {
        if (!atEnd() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    std::string
    quotedString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                error("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c == '\n')
                error("newline inside string");
            if (c == '\\') {
                if (pos >= text.size())
                    error("unterminated escape");
                const char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default:
                    error(strFormat("unsupported escape '\\%c'", e));
                }
            } else {
                out += c;
            }
        }
    }

    /** An unquoted scalar: number, true, or false. */
    std::string
    bareScalar()
    {
        skip();
        std::string out;
        while (pos < text.size()) {
            const char c = text[pos];
            if (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '+' || c == '-' || c == '.' || c == '_') {
                out += c;
                ++pos;
            } else {
                break;
            }
        }
        if (out.empty())
            error("expected a value");
        if (out == "null")
            error("null is not a valid config value");
        return out;
    }

  private:
    const std::string &text;
    const std::string &origin;
    std::size_t pos = 0;
    unsigned line = 1;
};

void
parseObject(Lexer &lx, const std::string &prefix,
            std::vector<Entry> &out, unsigned depth)
{
    if (depth > 4)
        lx.error("config objects nest too deeply");
    lx.expect('{');
    if (lx.consumeIf('}'))
        return;
    while (true) {
        const std::string key = lx.quotedString();
        if (key.empty())
            lx.error("empty key");
        const std::string path =
            prefix.empty() ? key : prefix + "." + key;
        lx.expect(':');
        const char c = lx.peek();
        if (c == '{') {
            parseObject(lx, path, out, depth + 1);
        } else if (c == '[') {
            lx.error("arrays are not valid config values");
        } else {
            for (const Entry &e : out)
                if (e.key == path)
                    lx.error("duplicate key '" + path + "'");
            const bool quoted = c == '"';
            out.push_back(Entry{
                path, quoted ? lx.quotedString() : lx.bareScalar(),
                quoted});
        }
        if (lx.consumeIf(','))
            continue;
        lx.expect('}');
        return;
    }
}

} // namespace

std::vector<Entry>
parseFlat(const std::string &text, const std::string &origin)
{
    Lexer lx(text, origin);
    std::vector<Entry> out;
    parseObject(lx, "", out, 0);
    if (!lx.atEnd())
        lx.error("trailing content after the config object");
    return out;
}

} // namespace json
} // namespace dimmlink
