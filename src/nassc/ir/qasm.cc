#include "nassc/ir/qasm.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace nassc {

namespace {

// Character classes of the "C" locale, which the reader assumes: inline
// tests instead of a locale-aware call per character.
bool
is_digit(char c)
{
    return c >= '0' && c <= '9';
}

bool
is_alpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/** std::isspace: blank, tab, newline, vertical tab, form feed, CR. */
bool
is_space(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** What trim() strips: blank, tab, CR and newline only. */
bool
is_blank(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// ---- tiny arithmetic expression evaluator ----------------------------------

class ExprParser
{
  public:
    explicit ExprParser(std::string_view s) : s_(s) {}

    double parse()
    {
        double v = expr();
        skip_ws();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    double expr()
    {
        double v = term();
        for (;;) {
            skip_ws();
            if (peek() == '+') {
                ++pos_;
                v += term();
            } else if (peek() == '-') {
                ++pos_;
                v -= term();
            } else {
                return v;
            }
        }
    }

    double term()
    {
        double v = factor();
        for (;;) {
            skip_ws();
            if (peek() == '*') {
                ++pos_;
                v *= factor();
            } else if (peek() == '/') {
                ++pos_;
                v /= factor();
            } else {
                return v;
            }
        }
    }

    double factor()
    {
        skip_ws();
        char c = peek();
        if (c == '-') {
            ++pos_;
            return -factor();
        }
        if (c == '+') {
            ++pos_;
            return factor();
        }
        if (c == '(') {
            ++pos_;
            double v = expr();
            skip_ws();
            if (peek() != ')')
                fail("expected ')'");
            ++pos_;
            return v;
        }
        if (is_alpha(c)) {
            size_t start = pos_;
            while (pos_ < s_.size() && is_alpha(s_[pos_]))
                ++pos_;
            const std::string_view name = s_.substr(start, pos_ - start);
            if (name == "pi")
                return M_PI;
            fail("unknown identifier '" + std::string(name) + "'");
        }
        // Number.
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (is_digit(s_[pos_]) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                ((s_[pos_] == '+' || s_[pos_] == '-') && pos_ > start &&
                 (s_[pos_ - 1] == 'e' || s_[pos_ - 1] == 'E'))))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        // strtod, not stod: overflow becomes inf (rejected with the
        // gate's name by the caller's finiteness check) and underflow a
        // subnormal or zero, where stod throws a bare out_of_range.
        // The whole token must be consumed, so "1e" is malformed rather
        // than silently read as 1.  strtod needs a terminator: the
        // token is copied to the stack, or the heap if it is very long.
        const std::string_view token = s_.substr(start, pos_ - start);
        char stack_buf[64];
        std::string heap_buf;
        char *buf = stack_buf;
        if (token.size() >= sizeof(stack_buf)) {
            heap_buf.assign(token);
            buf = heap_buf.data();
        } else {
            token.copy(stack_buf, token.size());
            stack_buf[token.size()] = '\0';
        }
        char *end = nullptr;
        const double v = std::strtod(buf, &end);
        if (end != buf + token.size())
            fail("malformed number '" + std::string(token) + "'");
        return v;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void skip_ws()
    {
        while (pos_ < s_.size() && is_space(s_[pos_]))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string &msg)
    {
        throw std::runtime_error("qasm expression error: " + msg + " in '" +
                                 std::string(s_) + "'");
    }

    std::string_view s_;
    size_t pos_ = 0;
};

/**
 * Call `fn` on each `delim`-separated piece of `s`, empty pieces
 * included.  A delimiter inside parentheses does not separate; the
 * depth is counted over the whole of `s`, so an unbalanced ')' keeps
 * every later delimiter from separating.
 */
template <class Fn>
void
for_each_piece(std::string_view s, char delim, Fn &&fn)
{
    // The depth at a delimiter is the count of '(' before it minus that
    // of ')', whatever their order: jump from delimiter to delimiter
    // and count the parentheses of each run in one vectorizable loop.
    int depth = 0;
    size_t begin = 0;
    for (size_t from = 0;;) {
        const size_t at = s.find(delim, from);
        const size_t end = at == std::string_view::npos ? s.size() : at;
        for (size_t i = from; i < end; ++i)
            depth += (s[i] == '(') - (s[i] == ')');
        if (at == std::string_view::npos)
            break;
        if (depth == 0) {
            fn(s.substr(begin, at - begin));
            begin = at + 1;
        }
        from = at + 1;
    }
    fn(s.substr(begin));
}

void
append_int(std::string &out, int v)
{
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** `%.17g` (what an ostream prints at precision 17): enough digits for
 *  every double to round-trip through from_qasm. */
void
append_param(std::string &out, double v)
{
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                  std::chars_format::general, 17)
                        .ptr);
}

std::string_view
trim(std::string_view s)
{
    size_t b = 0, e = s.size();
    while (b < e && is_blank(s[b]))
        ++b;
    while (e > b && is_blank(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

template <size_t N>
bool
starts_with(std::string_view s, const char (&prefix)[N])
{
    return s.size() >= N - 1 && std::memcmp(s.data(), prefix, N - 1) == 0;
}

/**
 * A whole decimal integer: optional blanks, an optional sign, digits,
 * optional blanks.  False on anything else or on overflow of int.
 */
bool
parse_int(std::string_view s, int &out)
{
    size_t i = 0;
    while (i < s.size() && is_space(s[i]))
        ++i;
    const bool negative = i < s.size() && s[i] == '-';
    if (i < s.size() && (s[i] == '-' || s[i] == '+'))
        ++i;
    const size_t digits = i;
    long long v = 0;
    for (; i < s.size() && is_digit(s[i]); ++i) {
        v = 10 * v + (s[i] - '0');
        if (v > static_cast<long long>(INT_MAX) + 1)
            return false;
    }
    if (i == digits)
        return false;
    while (i < s.size() && is_space(s[i]))
        ++i;
    if (i != s.size() || (!negative && v > INT_MAX))
        return false;
    out = static_cast<int>(negative ? -v : v);
    return true;
}

/** One pass over comment-free OpenQASM text; see from_qasm(). */
class QasmReader
{
  public:
    /** `src` must outlive the reader: registers keep views of it. */
    QuantumCircuit read(std::string_view src)
    {
        // Every gate ends in ';', so this bounds the gate count.
        gates_.reserve(std::count(src.begin(), src.end(), ';') + 1);
        for_each_piece(src, ';',
                       [&](std::string_view raw) { statement(trim(raw)); });
        QuantumCircuit qc(total_qubits_);
        // Every operand was range-checked against its register.
        qc.mutable_gates() = std::move(gates_);
        return qc;
    }

  private:
    struct Register
    {
        std::string_view name;
        int offset;
        int size;
    };

    [[noreturn]] static void fail(const std::string &what,
                                  std::string_view stmt)
    {
        throw std::runtime_error("qasm: " + what + " in '" +
                                 std::string(stmt) + "'");
    }

    void statement(std::string_view stmt)
    {
        if (stmt.empty() || starts_with(stmt, "OPENQASM") ||
            starts_with(stmt, "include") || starts_with(stmt, "creg"))
            return;
        if (starts_with(stmt, "qreg")) {
            declare(stmt);
        } else if (starts_with(stmt, "measure")) {
            const size_t arrow = stmt.find("->");
            if (arrow == std::string_view::npos)
                throw std::runtime_error("qasm: bad measure: " +
                                         std::string(stmt));
            gates_.push_back(
                Gate::measure(resolve(stmt.substr(7, arrow - 7), stmt)));
        } else if (starts_with(stmt, "barrier")) {
            QubitVec qs;
            for_each_piece(stmt.substr(7), ',', [&](std::string_view op) {
                qs.push_back(resolve(op, stmt));
            });
            gates_.emplace_back(OpKind::kBarrier, std::move(qs));
        } else {
            gate(stmt);
        }
    }

    void declare(std::string_view stmt)
    {
        const size_t lb = stmt.find('[');
        const size_t rb = stmt.find(']');
        if (lb == std::string_view::npos || rb == std::string_view::npos)
            throw std::runtime_error("qasm: bad qreg: " + std::string(stmt));
        if (rb < lb || !trim(stmt.substr(rb + 1)).empty())
            fail("unexpected text after ']'", stmt);
        const std::string_view name = trim(stmt.substr(4, lb - 4));
        int size = 0;
        if (!parse_int(stmt.substr(lb + 1, rb - lb - 1), size) || size < 0 ||
            size > INT_MAX - total_qubits_)
            fail("bad register size", stmt);
        if (find(name))
            fail("register '" + std::string(name) + "' redeclared", stmt);
        regs_.push_back({name, total_qubits_, size});
        total_qubits_ += size;
    }

    void gate(std::string_view stmt)
    {
        // name[(params)] operands
        size_t name_end = 0;
        while (name_end < stmt.size() &&
               (is_alpha(stmt[name_end]) || is_digit(stmt[name_end]) ||
                stmt[name_end] == '_'))
            ++name_end;
        const std::string_view name = stmt.substr(0, name_end);
        ParamVec params;
        size_t rest_begin = name_end;
        if (rest_begin < stmt.size() && stmt[rest_begin] == '(') {
            size_t close = rest_begin;
            int depth = 0;
            for (; close < stmt.size(); ++close) {
                if (stmt[close] == '(')
                    ++depth;
                if (stmt[close] == ')' && --depth == 0)
                    break;
            }
            if (close >= stmt.size())
                throw std::runtime_error("qasm: missing ')' in " +
                                         std::string(stmt));
            for_each_piece(
                stmt.substr(rest_begin + 1, close - rest_begin - 1), ',',
                [&](std::string_view p) {
                    const double v = ExprParser(p).parse();
                    if (!std::isfinite(v))
                        fail("non-finite parameter '" +
                                 std::string(trim(p)) + "' of gate '" +
                                 std::string(name) + "'",
                             stmt);
                    params.push_back(v);
                });
            rest_begin = close + 1;
        }
        QubitVec qs;
        for_each_piece(stmt.substr(rest_begin), ',',
                       [&](std::string_view op) {
                           qs.push_back(resolve(op, stmt));
                       });

        const std::optional<OpKind> kind = op_from_name(name);
        if (!kind) {
            if (name != "u2")
                throw std::runtime_error("qasm: unsupported gate '" +
                                         std::string(name) + "'");
            // u2(phi, lambda) = u(pi/2, phi, lambda)
            if (params.size() != 2)
                throw std::runtime_error("qasm: u2 needs 2 params");
            if (qs.size() != 1)
                fail("u2 takes one qubit", stmt);
            gates_.push_back(Gate::u(qs[0], M_PI / 2.0, params[0], params[1]));
            return;
        }
        if (*kind == OpKind::kP && params.empty())
            throw std::runtime_error("qasm: p gate needs a parameter");
        gates_.emplace_back(*kind, std::move(qs), std::move(params));
    }

    /** Flat index of one `reg[index]` operand of `stmt`. */
    int resolve(std::string_view raw, std::string_view stmt) const
    {
        const std::string_view operand = trim(raw);
        size_t lb = 0;
        while (lb < operand.size() && operand[lb] != '[')
            ++lb;
        if (lb == operand.size())
            fail("whole-register operands unsupported", stmt);
        const std::string_view name = trim(operand.substr(0, lb));
        size_t rb = lb + 1;
        while (rb < operand.size() && operand[rb] != ']')
            ++rb;
        if (rb == operand.size())
            fail("missing ']'", stmt);
        const std::string_view index = operand.substr(lb + 1, rb - lb - 1);
        int idx = 0;
        if (!parse_int(index, idx))
            fail("bad index '" + std::string(index) + "'", stmt);
        if (rb + 1 != operand.size())
            fail("unexpected text after operand '" +
                     std::string(operand.substr(0, rb + 1)) + "'",
                 stmt);
        const Register *reg = find(name);
        if (!reg)
            fail("unknown register '" + std::string(name) + "'", stmt);
        if (idx < 0 || idx >= reg->size)
            fail("index out of range", stmt);
        return reg->offset + idx;
    }

    const Register *find(std::string_view name) const
    {
        for (const Register &r : regs_)
            if (r.name == name)
                return &r;
        return nullptr;
    }

    std::vector<Register> regs_;
    std::vector<Gate> gates_;
    int total_qubits_ = 0;
};

} // namespace

std::string
to_qasm(const QuantumCircuit &qc)
{
    std::string out;
    // A routed gate line averages under 24 bytes; longer ones just grow.
    out.reserve(64 + 24 * qc.gates().size());
    out += "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[";
    append_int(out, qc.num_qubits());
    out += "];\ncreg c[";
    append_int(out, qc.num_qubits());
    out += "];\n";
    for (const Gate &g : qc.gates()) {
        if (g.kind == OpKind::kMeasure) {
            out += "measure q[";
            append_int(out, g.qubits[0]);
            out += "] -> c[";
            append_int(out, g.qubits[0]);
            out += "];\n";
            continue;
        }
        if (g.kind == OpKind::kMCX && g.qubits.size() > 3)
            throw std::invalid_argument(
                "to_qasm: decompose mcx gates before export");
        if (g.kind == OpKind::kMCX)
            out += g.qubits.size() == 3 ? "ccx" : "cx";
        else
            out += op_name(g.kind);
        if (!g.params.empty()) {
            out += '(';
            for (size_t i = 0; i < g.params.size(); ++i) {
                if (i)
                    out += ',';
                append_param(out, g.params[i]);
            }
            out += ')';
        }
        for (size_t i = 0; i < g.qubits.size(); ++i) {
            out += i ? ", q[" : " q[";
            append_int(out, g.qubits[i]);
            out += ']';
        }
        out += ";\n";
    }
    return out;
}

QuantumCircuit
from_qasm(const std::string &text)
{
    if (text.find("//") == std::string::npos)
        return QasmReader().read(text);
    // Comments run to the end of the line; drop them once up front so
    // the reader sees the same statements with or without them.
    std::string clean;
    clean.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
            while (i < text.size() && text[i] != '\n')
                ++i;
        }
        if (i < text.size())
            clean += text[i];
    }
    return QasmReader().read(clean);
}

} // namespace nassc
