/**
 * @file
 * The shared JSON escaper: names carrying quotes, newlines and other
 * control bytes must still give valid JSON from every emitter.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace silo
{
namespace
{

/** Strict RFC 8259 recognizer: is the whole text one JSON value? */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : _s(text) {}

    bool
    valid()
    {
        return value() && (skipSpace(), _i == _s.size());
    }

  private:
    void
    skipSpace()
    {
        while (_i < _s.size() && _s[_i] != '\0' &&
               std::strchr(" \t\r\n", _s[_i]))
            ++_i;
    }

    bool
    eat(char c)
    {
        skipSpace();
        if (_i < _s.size() && _s[_i] == c) {
            ++_i;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (_s.compare(_i, n, word) != 0)
            return false;
        _i += n;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (_i < _s.size()) {
            auto c = static_cast<unsigned char>(_s[_i++]);
            if (c == '"')
                return true;
            if (c < 0x20 || (c == '\\' && !escape()))
                return false;
        }
        return false;
    }

    bool
    escape()
    {
        if (_i >= _s.size())
            return false;
        char e = _s[_i++];
        if (e != 'u')
            return e != '\0' && std::strchr("\"\\/bfnrt", e);
        for (int k = 0; k < 4; ++k) {
            if (_i >= _s.size() ||
                !std::isxdigit(static_cast<unsigned char>(_s[_i++])))
                return false;
        }
        return true;
    }

    bool
    number()
    {
        std::size_t start = _i;
        while (_i < _s.size() &&
               (std::isdigit(static_cast<unsigned char>(_s[_i])) ||
                (_s[_i] != '\0' && std::strchr("+-.eE", _s[_i]))))
            ++_i;
        return _i > start;
    }

    /** An array (@p close ']') or an object (@p close '}'). */
    bool
    container(char close)
    {
        if (eat(close))
            return true;
        do {
            if (close == '}' && !(string() && eat(':')))
                return false;
            if (!value())
                return false;
        } while (eat(','));
        return eat(close);
    }

    bool
    value()
    {
        skipSpace();
        if (_i >= _s.size())
            return false;
        switch (_s[_i]) {
          case '{': ++_i; return container('}');
          case '[': ++_i; return container(']');
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    const std::string &_s;
    std::size_t _i = 0;
};

/** A name no emitter may copy through raw. */
const std::string awkward = "q\"n\n\x01\\t\t";

TEST(Json, EscapesQuotesBackslashesAndControlBytes)
{
    EXPECT_EQ(jsonEscape(awkward), "q\\\"n\\n\\u0001\\\\t\\t");
    EXPECT_EQ(jsonEscape("\x1f plain"), "\\u001f plain");
}

TEST(Json, CheckerRejectsRawControlBytes)
{
    EXPECT_TRUE(JsonChecker("{\"a\": [1, \"b\\n\"]}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": \"b\nc\"}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\": \"\x01\"}").valid());
}

TEST(Json, TracerOutputWithAwkwardNamesParses)
{
    trace::Tracer t;
    t.enable();
    auto track = t.track(awkward, awkward);
    t.completeSpan(track, awkward, 1, 2);
    t.instant(track, awkward, 3);
    std::ostringstream os;
    t.writeJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(Json, StatsOutputWithAwkwardPathParses)
{
    stats::Scalar s("x", "");
    stats::StatGroup g("g");
    g.addScalar(s);
    stats::StatRegistry reg;
    reg.add(awkward + "/" + awkward, g);
    const std::string text = reg.toJson();
    EXPECT_TRUE(JsonChecker(text).valid()) << text;
}

} // namespace
} // namespace silo
