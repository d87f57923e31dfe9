#include "nassc/ir/qasm.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <vector>

namespace nassc {

namespace {

// ---- tiny arithmetic expression evaluator ----------------------------------

class ExprParser
{
  public:
    explicit ExprParser(const std::string &s) : s_(s) {}

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
        if (std::isalpha(static_cast<unsigned char>(c))) {
            size_t start = pos_;
            while (pos_ < s_.size() &&
                   std::isalpha(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
            std::string name = s_.substr(start, pos_ - start);
            if (name == "pi")
                return M_PI;
            fail("unknown identifier '" + name + "'");
        }
        // Number.
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
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
        // than silently read as 1.
        const std::string token = s_.substr(start, pos_ - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            fail("malformed number '" + token + "'");
        return v;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    [[noreturn]] void fail(const std::string &msg)
    {
        throw std::runtime_error("qasm expression error: " + msg + " in '" +
                                 s_ + "'");
    }

    const std::string &s_;
    size_t pos_ = 0;
};

double
eval_expr(const std::string &s)
{
    ExprParser p(s);
    return p.parse();
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '(')
            ++depth;
        if (c == ')')
            --depth;
        if (c == delim && depth == 0) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
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

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

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
    // Strip comments, split on ';'.
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

    std::map<std::string, int> reg_offset;
    std::map<std::string, int> reg_size;
    int total_qubits = 0;
    std::vector<Gate> pending;

    auto resolve = [&](const std::string &operand_raw,
                       const std::string &stmt) {
        std::string operand = trim(operand_raw);
        size_t lb = operand.find('[');
        if (lb == std::string::npos)
            throw std::runtime_error(
                "qasm: whole-register operands unsupported in '" + stmt +
                "'");
        std::string reg = trim(operand.substr(0, lb));
        size_t rb = operand.find(']', lb);
        if (rb == std::string::npos)
            throw std::runtime_error("qasm: missing ']' in '" + stmt + "'");
        int idx = std::stoi(operand.substr(lb + 1, rb - lb - 1));
        auto it = reg_offset.find(reg);
        if (it == reg_offset.end())
            throw std::runtime_error("qasm: unknown register '" + reg +
                                     "' in '" + stmt + "'");
        if (idx < 0 || idx >= reg_size[reg])
            throw std::runtime_error("qasm: index out of range in '" + stmt +
                                     "'");
        return it->second + idx;
    };

    for (const std::string &raw : split(clean, ';')) {
        std::string stmt = trim(raw);
        if (stmt.empty())
            continue;
        if (stmt.rfind("OPENQASM", 0) == 0 || stmt.rfind("include", 0) == 0)
            continue;
        if (stmt.rfind("creg", 0) == 0)
            continue;
        if (stmt.rfind("qreg", 0) == 0) {
            size_t lb = stmt.find('[');
            size_t rb = stmt.find(']');
            if (lb == std::string::npos || rb == std::string::npos)
                throw std::runtime_error("qasm: bad qreg: " + stmt);
            std::string name = trim(stmt.substr(4, lb - 4));
            int size = std::stoi(stmt.substr(lb + 1, rb - lb - 1));
            reg_offset[name] = total_qubits;
            reg_size[name] = size;
            total_qubits += size;
            continue;
        }
        if (stmt.rfind("measure", 0) == 0) {
            size_t arrow = stmt.find("->");
            if (arrow == std::string::npos)
                throw std::runtime_error("qasm: bad measure: " + stmt);
            int q = resolve(stmt.substr(7, arrow - 7), stmt);
            pending.push_back(Gate::measure(q));
            continue;
        }
        if (stmt.rfind("barrier", 0) == 0) {
            std::vector<int> qs;
            for (const std::string &tok : split(stmt.substr(7), ','))
                qs.push_back(resolve(tok, stmt));
            pending.push_back(Gate::barrier(std::move(qs)));
            continue;
        }

        // Generic gate: name[(params)] operands.
        size_t name_end = 0;
        while (name_end < stmt.size() &&
               (std::isalnum(static_cast<unsigned char>(stmt[name_end])) ||
                stmt[name_end] == '_'))
            ++name_end;
        std::string name = stmt.substr(0, name_end);
        std::vector<double> params;
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
                throw std::runtime_error("qasm: missing ')' in " + stmt);
            for (const std::string &p :
                 split(stmt.substr(rest_begin + 1, close - rest_begin - 1),
                       ',')) {
                const double v = eval_expr(p);
                if (!std::isfinite(v))
                    throw std::runtime_error("qasm: non-finite parameter '" +
                                             trim(p) + "' of gate '" + name +
                                             "' in '" + stmt + "'");
                params.push_back(v);
            }
            rest_begin = close + 1;
        }
        std::vector<int> qs;
        for (const std::string &tok : split(stmt.substr(rest_begin), ','))
            qs.push_back(resolve(tok, stmt));

        auto kind = op_from_name(name);
        if (!kind) {
            if (name == "u2") {
                // u2(phi, lambda) = u(pi/2, phi, lambda)
                if (params.size() != 2)
                    throw std::runtime_error("qasm: u2 needs 2 params");
                pending.push_back(
                    Gate::u(qs.at(0), M_PI / 2.0, params[0], params[1]));
                continue;
            }
            throw std::runtime_error("qasm: unsupported gate '" + name +
                                     "'");
        }
        if (*kind == OpKind::kP && params.empty())
            throw std::runtime_error("qasm: p gate needs a parameter");
        pending.push_back(Gate(*kind, std::move(qs), std::move(params)));
    }

    QuantumCircuit qc(total_qubits);
    for (Gate &g : pending)
        qc.append(std::move(g));
    return qc;
}

} // namespace nassc
