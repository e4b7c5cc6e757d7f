#include "refpga/common/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>

namespace refpga::json {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Sign and magnitude of an integer-valued number literal, computed from its
/// digits (never through a double), so every value up to 2^64 - 1 is exact.
struct Integer {
    bool negative = false;
    std::uint64_t magnitude = 0;
};

Integer integer_of(std::string_view literal) {
    std::size_t i = 0;
    Integer out;
    if (i < literal.size() && (literal[i] == '-' || literal[i] == '+'))
        out.negative = literal[i++] == '-';
    std::string digits;
    long exponent = 0;
    for (; i < literal.size() && is_digit(literal[i]); ++i) digits += literal[i];
    if (i < literal.size() && literal[i] == '.')
        for (++i; i < literal.size() && is_digit(literal[i]); ++i) {
            digits += literal[i];
            --exponent;
        }
    if (i < literal.size() && (literal[i] == 'e' || literal[i] == 'E')) {
        ++i;
        const bool negative_exp = i < literal.size() && literal[i] == '-';
        if (i < literal.size() && (literal[i] == '-' || literal[i] == '+')) ++i;
        long e = 0;
        for (; i < literal.size(); ++i)
            if (e < 100000) e = e * 10 + (literal[i] - '0');  // saturates
        exponent += negative_exp ? -e : e;
    }
    digits.erase(0, digits.find_first_not_of('0'));
    if (digits.empty()) return out;  // any form of zero, "-0" included
    for (; exponent < 0; ++exponent) {
        if (digits.back() != '0')
            throw Error("number " + std::string(literal) + " is not an integer");
        digits.pop_back();
    }
    if (digits.size() + static_cast<std::size_t>(exponent) > 20)
        throw Error("number " + std::string(literal) + " overflows 64 bits");
    digits.append(static_cast<std::size_t>(exponent), '0');
    try {
        out.magnitude = parse_u64(digits);
    } catch (const Error&) {
        throw Error("number " + std::string(literal) + " overflows 64 bits");
    }
    return out;
}

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value document() {
        Value v = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing bytes after document");
        return v;
    }

private:
    Value value() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end of document");
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string_value();
            case 't':
            case 'f': return boolean();
            case 'n': return null();
            default: return number();
        }
    }

    Value object() {
        Value v;
        v.kind = Value::Kind::Object;
        ++pos_;  // '{'
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            if (peek() != '"') fail("expected object key");
            std::string key = parse_string();
            for (const auto& [name, _] : v.object)
                if (name == key) fail("duplicate object key '" + key + "'");
            skip_ws();
            if (peek() != ':') fail("expected ':'");
            ++pos_;
            v.object.emplace_back(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}'");
        }
    }

    Value array() {
        Value v;
        v.kind = Value::Kind::Array;
        ++pos_;  // '['
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']'");
        }
    }

    Value string_value() {
        Value v;
        v.kind = Value::Kind::String;
        v.text = parse_string();
        return v;
    }

    std::string parse_string() {
        ++pos_;  // '"'
        std::string out;
        while (true) {
            const std::size_t run = pos_;  // copy unescaped runs in one go
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\' &&
                   static_cast<unsigned char>(text_[pos_]) >= 0x20)
                ++pos_;
            out.append(text_.substr(run, pos_ - run));
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') fail("raw control byte in string");
            if (pos_ >= text_.size()) fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            fail("bad \\u escape digit");
                    }
                    if (code > 0xff)
                        fail("\\u escape beyond Basic Latin is unsupported");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Value boolean() {
        Value v;
        v.kind = Value::Kind::Bool;
        if (text_.substr(pos_, 4) == "true") {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.substr(pos_, 5) == "false") {
            v.boolean = false;
            pos_ += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    Value null() {
        if (text_.substr(pos_, 4) != "null") fail("expected null");
        pos_ += 4;
        return Value{};
    }

    // [+-]? (digits [. digits?] | . digits) ([eE] [+-]? digits)?
    Value number() {
        const std::size_t start = pos_;
        if (peek() == '-' || peek() == '+') ++pos_;
        std::size_t mantissa_digits = skip_digits();
        if (peek() == '.') {
            ++pos_;
            mantissa_digits += skip_digits();
        }
        if (mantissa_digits == 0) {
            if (pos_ == start) fail("expected value");
            fail("malformed number");
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '-' || peek() == '+') ++pos_;
            if (skip_digits() == 0) fail("malformed number exponent");
        }
        Value v;
        v.kind = Value::Kind::Number;
        v.text = text_.substr(start, pos_ - start);
        return v;
    }

    std::size_t skip_digits() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
        return pos_ - start;
    }

    [[nodiscard]] char peek() const {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string& why) const {
        throw Error("JSON byte " + std::to_string(pos_) + ": " + why);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string hexfloat(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

double parse_hexfloat(std::string_view text) {
    const std::string s(text);
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || end != s.c_str() + s.size())
        throw Error("malformed number '" + s + "'");
    return v;
}

std::uint64_t parse_u64(std::string_view text) {
    if (text.empty()) throw Error("empty integer");
    std::uint64_t value = 0;
    for (const char c : text) {
        if (!is_digit(c))
            throw Error("'" + std::string(text) + "' is not a decimal integer");
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            throw Error("'" + std::string(text) + "' overflows 64 bits");
        value = value * 10 + digit;
    }
    return value;
}

const Value* Value::find(std::string_view key) const {
    if (kind != Kind::Object) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

bool Value::as_bool() const {
    if (kind != Kind::Bool) throw Error("expected boolean");
    return boolean;
}

double Value::as_number() const {
    if (kind != Kind::Number) throw Error("expected number");
    return std::strtod(text.c_str(), nullptr);
}

std::uint64_t Value::as_u64() const {
    if (kind != Kind::Number) throw Error("expected number");
    const Integer i = integer_of(text);
    if (i.negative && i.magnitude != 0)
        throw Error("number " + text + " is negative");
    return i.magnitude;
}

std::int64_t Value::as_i64() const {
    if (kind != Kind::Number) throw Error("expected number");
    const Integer i = integer_of(text);
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (i.magnitude > kMax + (i.negative ? 1 : 0))
        throw Error("number " + text + " overflows 64-bit signed");
    // Two's-complement negation of the magnitude is exact for all of
    // [0, 2^63], INT64_MIN included.
    return i.negative ? static_cast<std::int64_t>(0 - i.magnitude)
                      : static_cast<std::int64_t>(i.magnitude);
}

const std::string& Value::as_string() const {
    if (kind != Kind::String) throw Error("expected string");
    return text;
}

const std::vector<Value>& Value::as_array() const {
    if (kind != Kind::Array) throw Error("expected array");
    return array;
}

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace refpga::json
