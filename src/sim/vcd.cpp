#include "refpga/sim/vcd.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "refpga/common/contracts.hpp"

namespace refpga::sim {

VcdWriter::VcdWriter(std::ostream& os, const SimEngine& sim,
                     std::vector<netlist::NetId> nets,
                     std::vector<VcdVectorVar> vectors)
    : os_(os), sim_(sim), scalars_(nets.size()), vectors_(std::move(vectors)) {
    watched_ = std::move(nets);
    codes_.reserve(scalars_ + vectors_.size());
    vec_first_.reserve(vectors_.size());

    // Room for one sample that changes every variable: "<v><code>\n" per
    // scalar, "b<bits> <code>\n" per vector, plus the slack of one
    // whole-CodeLine copy past the end.
    std::size_t worst = sizeof(CodeLine::text);
    auto add_code = [&](std::size_t index) -> std::string {
        std::string code = code_for(index);
        REFPGA_EXPECTS(code.size() < sizeof(CodeLine::text));
        CodeLine line{};
        std::copy(code.begin(), code.end(), line.text.begin());
        line.text[code.size()] = '\n';
        line.size = static_cast<std::uint8_t>(code.size() + 1);
        codes_.push_back(line);
        worst += line.size + 1;
        return code;
    };

    // The header goes out in one write: it has a line per watched variable.
    std::string header = "$timescale 1ps $end\n$scope module top $end\n";
    for (std::size_t i = 0; i < scalars_; ++i) {
        // VCD identifiers must not contain whitespace; net names are safe
        // (builder uses [a-zA-Z0-9_/.\[\]]).
        header.append("$var wire 1 ").append(add_code(i)).append(" ");
        header.append(sim_.netlist().net(watched_[i]).name).append(" $end\n");
    }
    for (std::size_t j = 0; j < vectors_.size(); ++j) {
        const auto& bits = vectors_[j].bits;
        REFPGA_EXPECTS(!bits.empty());
        header.append("$var wire ").append(std::to_string(bits.size())).append(" ");
        header.append(add_code(scalars_ + j)).append(" ");
        header.append(vectors_[j].name).append(" $end\n");
        vec_first_.push_back(watched_.size());
        watched_.insert(watched_.end(), bits.begin(), bits.end());
        worst += bits.size() + 1;
    }
    header.append("$upscope $end\n$enddefinitions $end\n");
    os_.write(header.data(), static_cast<std::streamsize>(header.size()));
    last_.assign(watched_.size(), -1);
    parity_.assign((watched_.size() + 63) / 64, 0);
    vec_dirty_.assign(vectors_.size(), 0);
    changes_.resize(worst);
}

std::string VcdWriter::code_for(std::size_t index) {
    // Printable identifier alphabet '!'..'~' (94 symbols), little-endian.
    std::string code;
    do {
        code += static_cast<char>('!' + index % 94);
        index /= 94;
    } while (index != 0);
    return code;
}

void VcdWriter::sample(std::int64_t time_ps) {
    REFPGA_EXPECTS(time_ps > last_time_);
    // Every value change counts one toggle, so a watched bit's value differs
    // from the one last dumped exactly when the parity of its toggle count
    // moved since the last sample. The count covers every settle in between
    // (set_input as well as tick), which changed_nets() does not; a net that
    // flipped and flipped back is not visited.
    const std::vector<std::int64_t>& toggles = sim_.toggle_counts();
    const bool first = last_time_ < 0;  // dumps every bit, read from the engine
    // Locals, because the output goes through a char pointer, which may alias
    // any member and would force a reload of each after every byte.
    const netlist::NetId* const watched = watched_.data();
    const CodeLine* const codes = codes_.data();
    std::int8_t* const last = last_.data();
    const std::size_t scalars = scalars_;
    char* out = changes_.data();  // sized for every variable changing at once
    auto put_code = [&](std::size_t var) {  // "<code>\n"
        std::memcpy(out, codes[var].text.data(), sizeof(CodeLine::text));
        out += codes[var].size;
    };
    for (std::size_t w = 0; w < parity_.size(); ++w) {
        const std::size_t base = w * 64;
        const std::size_t count = std::min<std::size_t>(64, watched_.size() - base);
        std::uint64_t now = 0;
        for (std::size_t b = 0; b < count; ++b)
            now |= static_cast<std::uint64_t>(toggles[watched[base + b].value()] & 1) << b;
        std::uint64_t flipped = first ? ~std::uint64_t{0} >> (64 - count) : now ^ parity_[w];
        parity_[w] = now;
        for (; flipped != 0; flipped &= flipped - 1) {
            const std::size_t i = base + static_cast<std::size_t>(std::countr_zero(flipped));
            last[i] = static_cast<std::int8_t>(
                first ? (sim_.net_value(watched[i]) ? 1 : 0) : 1 - last[i]);
            if (i >= scalars) {
                const auto j = std::upper_bound(vec_first_.begin(), vec_first_.end(), i) -
                               vec_first_.begin() - 1;
                vec_dirty_[static_cast<std::size_t>(j)] = 1;
                continue;
            }
            // Arithmetic, not a branch: the values are too irregular to predict.
            *out++ = static_cast<char>('0' + last[i]);
            put_code(i);
        }
    }
    for (std::size_t j = 0; j < vectors_.size(); ++j) {
        if (vec_dirty_[j] == 0) continue;
        vec_dirty_[j] = 0;
        *out++ = 'b';
        const std::size_t first_bit = vec_first_[j];
        for (std::size_t b = vectors_[j].bits.size(); b-- > 0;)  // MSB first
            *out++ = static_cast<char>('0' + last[first_bit + b]);
        *out++ = ' ';
        put_code(scalars + j);
    }
    if (out != changes_.data()) {
        os_ << '#' << time_ps << '\n';
        os_.write(changes_.data(), out - changes_.data());
    }
    last_time_ = time_ps;
}

double VcdActivity::toggle_rate_hz(const std::string& signal) const {
    if (duration_ps <= 0) return 0.0;
    const auto it = toggles.find(signal);
    if (it == toggles.end()) return 0.0;
    return static_cast<double>(it->second) / duration_s();
}

namespace {

/// Whitespace-separated tokens of a stream, read in fixed-size chunks so the
/// dump is never held in memory. A token stays valid until the next call.
class Tokenizer {
public:
    explicit Tokenizer(std::istream& is) : is_(is) {}

    bool next(std::string_view& token) {
        for (;;) {  // skip whitespace, refilling as needed
            pos_ = skip(pos_, 'x');
            if (pos_ < end_) break;
            if (!refill()) return false;
        }
        const std::size_t start = pos_;
        pos_ = scan(pos_);
        if (pos_ < end_) {
            token = std::string_view(buf_.data() + start, pos_ - start);
            return true;
        }
        // The token runs into the chunk boundary: carry it across.
        carry_.assign(buf_.data() + start, pos_ - start);
        while (refill()) {
            pos_ = scan(0);
            carry_.append(buf_.data(), pos_);
            if (pos_ < end_) break;
        }
        token = carry_;
        return true;
    }

    /// Consumes a run of scalar changes — '0' or '1', then an identifier of
    /// one to four symbols — calling f(value, code) for each: the bulk of a
    /// dump, without a round trip through next() per token. Stops, having
    /// consumed only whitespace, before any other token and before one that
    /// may run past the chunk.
    template <typename F>
    void scalar_run(F&& f) {
        for (;;) {
            const std::size_t p = skip(pos_, 'x');
            if (p + 5 > end_) {
                pos_ = p;
                return;
            }
            const char lead = buf_[p];
            std::size_t q = p + 1;
            while (!is_space(buf_[q]) && q < p + 5) ++q;
            if ((lead != '0' && lead != '1') || q == p + 1 || !is_space(buf_[q])) {
                pos_ = p;
                return;
            }
            f(static_cast<std::int8_t>(lead - '0'),
              std::string_view(buf_.data() + p + 1, q - p - 1));
            pos_ = q;
        }
    }

    bool next(std::string& token) {
        std::string_view view;
        if (!next(view)) return false;
        token.assign(view);
        return true;
    }

private:
    // The "C" locale's whitespace, as operator>> splits tokens.
    static bool is_space(char c) { return kSpace[static_cast<unsigned char>(c)]; }
    static constexpr std::array<bool, 256> kSpace = [] {
        std::array<bool, 256> space{};
        for (const char c : {' ', '\n', '\t', '\r', '\v', '\f'})
            space[static_cast<unsigned char>(c)] = true;
        return space;
    }();

    /// The first position from `pos` on whose whitespace-ness matches the
    /// sentinel's: skip(pos, 'x') skips whitespace, scan(pos) a token. The
    /// sentinel, stored at end_, stops the loop there without a bounds check.
    std::size_t skip(std::size_t pos, char sentinel) {
        buf_[end_] = sentinel;
        const bool space = is_space(sentinel);
        while (is_space(buf_[pos]) != space) ++pos;
        return pos;
    }
    std::size_t scan(std::size_t pos) { return skip(pos, ' '); }

    bool refill() {
        pos_ = end_ = 0;
        if (!is_) return false;
        is_.read(buf_.data(), static_cast<std::streamsize>(buf_.size() - 1));
        end_ = static_cast<std::size_t>(is_.gcount());
        return end_ > 0;
    }

    std::istream& is_;
    std::array<char, 64 * 1024 + 1> buf_{};  ///< a chunk, then a sentinel
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::string carry_;
};

/// Identifier code -> declaration index. VcdWriter's codes, like most
/// tools', are short base-94 numbers; those index a flat table, and any other
/// code goes through a hash map.
class CodeTable {
public:
    static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

    void bind(const std::string& code, std::uint32_t var) {
        const std::size_t k = dense_index(code);
        if (k == kSparse) {
            other_.insert_or_assign(code, var);
            return;
        }
        if (k >= dense_.size()) dense_.resize(k + 1, kNone);
        dense_[k] = var;
    }

    [[nodiscard]] std::uint32_t find(std::string_view code) {
        const std::size_t k = dense_index(code);
        if (k != kSparse) return k < dense_.size() ? dense_[k] : kNone;
        key_.assign(code);
        const auto it = other_.find(key_);
        return it == other_.end() ? kNone : it->second;
    }

private:
    /// The number a canonical code encodes: one to three symbols '!'..'~',
    /// least significant first, no trailing '!' unless the code is "!". Each
    /// number has exactly one canonical code. kSparse for any other code.
    static std::size_t dense_index(std::string_view code) {
        if (code.empty() || code.size() > 3) return kSparse;
        if (code.size() > 1 && code.back() == '!') return kSparse;
        std::size_t k = 0;
        for (std::size_t i = code.size(); i-- > 0;) {
            const char c = code[i];
            if (c < '!' || c > '~') return kSparse;
            k = k * 94 + static_cast<std::size_t>(c - '!');
        }
        return k;
    }

    static constexpr std::size_t kSparse = 94 * 94 * 94;  ///< not a dense index

    std::vector<std::uint32_t> dense_;
    std::unordered_map<std::string, std::uint32_t> other_;
    std::string key_;  ///< reused lookup key
};

/// Toggles counted under one signal name; -1 until the name gets a record
/// in the result, when its first known value arrives or it toggles.
using Tally = std::int64_t;

/// Folds value `v` (0/1, or -1 for x/z, which resets tracking) into the
/// last-value slot `prev` and the tally of the name it is counted under.
/// Known values are 0 and 1 about equally often, so the toggle test is
/// arithmetic rather than a branch.
void observe(std::int8_t& prev, std::int8_t v, Tally& tally) {
    if (v >= 0) {
        const bool known = prev >= 0;
        const bool toggled = known & (prev != v);
        if (tally < 0 && (!known || toggled)) tally = 0;
        tally += static_cast<Tally>(toggled);
    }
    prev = v;
}

/// One `$var` declaration; its name is kept apart, off the hot path. A
/// redeclared identifier gets a fresh record, so toggles already counted stay
/// with the earlier name.
struct VcdVar {
    std::uint32_t width = 1;
    std::uint32_t first_bit = 0;  ///< into the flattened per-bit state
    Tally scalar = -1;          ///< scalar changes, counted under the name
};

/// 0 and 1 for the digits '0' and '1', -1 for anything else (x, z).
std::int8_t digit_value(char ch) {
    static constexpr std::array<std::int8_t, 256> kDigit = [] {
        std::array<std::int8_t, 256> digit{};
        digit.fill(-1);
        digit['0'] = 0;
        digit['1'] = 1;
        return digit;
    }();
    return kDigit[static_cast<unsigned char>(ch)];
}

}  // namespace

VcdActivity parse_vcd(std::istream& is) {
    VcdActivity activity;
    std::vector<VcdVar> vars;
    std::vector<std::string> names;  ///< per declaration
    std::vector<std::int8_t> last;  ///< per declared bit; -1 = unknown
    std::vector<Tally> bit_tally;   ///< per declared bit, under name[i]
    CodeTable codes;
    std::int64_t first_time = -1;
    std::int64_t time = 0;

    auto lookup = [&](std::string_view code) -> VcdVar* {
        const std::uint32_t var = codes.find(code);
        return var == CodeTable::kNone ? nullptr : &vars[var];
    };
    auto scalar_change = [&](std::int8_t value, std::string_view code) {
        VcdVar* var = lookup(code);
        if (var == nullptr)
            throw VcdParseError("vcd: value change for undeclared "
                                "identifier '" + std::string(code) + "'");
        observe(last[var->first_bit], value, var->scalar);
    };

    Tokenizer tokens(is);
    std::string_view token;
    std::string change;  // a vector change, held while its identifier is read
    std::string var_width, var_code, var_name;  // the fields of a $var, likewise
    for (;;) {
        if (first_time >= 0) tokens.scalar_run(scalar_change);
        if (!tokens.next(token)) break;
        const char lead = token[0];
        if (lead == '0' || lead == '1' || lead == 'x' || lead == 'z' ||
            lead == 'X' || lead == 'Z') {
            if (first_time < 0)
                throw VcdParseError(
                    "vcd: value change before the first timestamp");
            scalar_change(digit_value(lead), token.substr(1));
        } else if (token == "$var") {
            // $var wire N <code> <name> $end
            std::string_view field;
            if (!(tokens.next(field) && tokens.next(var_width) && tokens.next(var_code) &&
                  tokens.next(var_name) && tokens.next(field)))
                throw VcdParseError("vcd: truncated $var declaration");
            if (field != "$end")
                throw VcdParseError("vcd: $var declaration not closed by $end");
            std::size_t w = 0;
            std::size_t consumed = 0;
            try {
                w = static_cast<std::size_t>(std::stoull(var_width, &consumed));
            } catch (const std::exception&) {
                consumed = 0;
            }
            if (consumed != var_width.size() || w == 0 ||
                w > std::numeric_limits<std::uint32_t>::max() - last.size())
                throw VcdParseError("vcd: bad $var width '" + var_width + "'");
            names.push_back(var_name);
            VcdVar& v = vars.emplace_back();
            v.width = static_cast<std::uint32_t>(w);
            v.first_bit = static_cast<std::uint32_t>(last.size());
            last.resize(last.size() + w, -1);
            bit_tally.resize(last.size(), -1);
            codes.bind(var_code, static_cast<std::uint32_t>(vars.size() - 1));
        } else if (lead == '$') {
            // Skip other directives until their $end.
            if (token != "$end" && token.find("$end") == std::string_view::npos) {
                const std::string directive(token);
                std::string_view w;
                bool closed = false;
                while (tokens.next(w))
                    if (w == "$end") {
                        closed = true;
                        break;
                    }
                if (!closed)
                    throw VcdParseError("vcd: directive " + directive +
                                        " not closed by $end");
            }
        } else if (lead == '#') {
            const std::string stamp(token);
            std::int64_t t = 0;
            std::size_t consumed = 0;
            try {
                t = std::stoll(stamp.substr(1), &consumed);
            } catch (const std::exception&) {
                throw VcdParseError("vcd: malformed timestamp '" + stamp + "'");
            }
            if (consumed != stamp.size() - 1)
                throw VcdParseError("vcd: malformed timestamp '" + stamp + "'");
            if (first_time >= 0 && t <= time)
                throw VcdParseError("vcd: non-increasing timestamp '" + stamp +
                                    "'");
            time = t;
            if (first_time < 0) first_time = time;
            activity.duration_ps = time - first_time;
        } else if (lead == 'b' || lead == 'B' || lead == 'r' || lead == 'R') {
            // Vector/real change: the value token is followed by its
            // identifier. Width-1 declarations keep the historical
            // skip-but-validate behaviour; width>1 accumulates per-bit
            // toggles under name[i].
            change.assign(token);
            const std::string_view value = std::string_view(change).substr(1);
            std::string_view code;
            if (!tokens.next(code))
                throw VcdParseError("vcd: truncated vector value change");
            VcdVar* var = lookup(code);
            if (var == nullptr)
                throw VcdParseError("vcd: vector change for undeclared "
                                    "identifier '" + std::string(code) + "'");
            if (var->width <= 1 || lead == 'r' || lead == 'R') continue;
            if (first_time < 0)
                throw VcdParseError(
                    "vcd: value change before the first timestamp");
            if (value.empty() || value.size() > var->width)
                throw VcdParseError("vcd: vector value '" + change +
                                    "' does not fit width " +
                                    std::to_string(var->width) + " variable '" +
                                    names[static_cast<std::size_t>(var - vars.data())] +
                                    "'");
            for (const char ch : value)
                if (ch != '0' && ch != '1' && ch != 'x' && ch != 'X' &&
                    ch != 'z' && ch != 'Z')
                    throw VcdParseError("vcd: bad vector digit in '" + change + "'");
            // IEEE 1364 left-extension: short values extend with 0 unless the
            // leftmost digit is x/z, which extends with itself.
            const char leftmost = value.front();
            const char pad =
                (leftmost == '0' || leftmost == '1') ? '0' : leftmost;
            for (std::size_t bit = 0; bit < var->width; ++bit) {
                // bit 0 is the rightmost digit.
                const char ch = bit < value.size()
                                    ? value[value.size() - 1 - bit]
                                    : pad;
                const std::size_t i = var->first_bit + bit;
                observe(last[i], digit_value(ch), bit_tally[i]);
            }
        } else {
            throw VcdParseError("vcd: unrecognized token '" + std::string(token) +
                                "'");
        }
    }
    if (first_time < 0 && !vars.empty())
        throw VcdParseError("vcd: no value-change section after declarations");

    // Names may repeat across declarations; their counts add up. Sorted
    // first, the records go into the map in order, each in constant time.
    std::vector<std::pair<std::string, std::int64_t>> records;
    records.reserve(vars.size());
    for (std::size_t k = 0; k < vars.size(); ++k) {
        const VcdVar& var = vars[k];
        if (var.width > 1)
            for (std::size_t bit = 0; bit < var.width; ++bit) {
                const Tally tally = bit_tally[var.first_bit + bit];
                if (tally >= 0)
                    records.emplace_back(names[k] + "[" + std::to_string(bit) + "]",
                                         tally);
            }
        if (var.scalar >= 0) records.emplace_back(std::move(names[k]), var.scalar);
    }
    std::sort(records.begin(), records.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [signal, count] : records) {
        if (!activity.toggles.empty() && activity.toggles.rbegin()->first == signal)
            activity.toggles.rbegin()->second += count;
        else
            activity.toggles.emplace_hint(activity.toggles.end(), std::move(signal), count);
    }
    return activity;
}

}  // namespace refpga::sim
