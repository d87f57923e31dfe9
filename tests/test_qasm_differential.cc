// Differential test of from_qasm (ir/qasm.cc) against the reader it
// replaced, which is kept verbatim below as legacy::from_qasm.  Both
// parsers read:
//
//  - to_qasm of every Table I benchmark, and of its routed output;
//  - the hand-written fixtures of test_ir and test_edge_cases;
//  - 2,400 seeded mutations of those texts (statement deletion and
//    duplication, truncation, byte flips inside numbers).
//
// On each input either both throw, or both return circuits with equal
// num_qubits() and fingerprint().  The one exception is the malformed
// forms the current reader rejects on purpose (kNewlyRejected), which
// the legacy reader read as something else; the reverse, a text only
// the legacy reader rejects, always fails the test.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/circuit.h"
#include "nassc/ir/qasm.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace legacy {

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

} // namespace legacy

namespace {

/** What one parser made of one input. */
struct Outcome
{
    bool ok = false;
    int num_qubits = 0;
    std::uint64_t fingerprint = 0;
    std::string error;
};

Outcome
run(QuantumCircuit (*parse)(const std::string &), const std::string &text)
{
    Outcome out;
    try {
        const QuantumCircuit qc = parse(text);
        out.ok = true;
        out.num_qubits = qc.num_qubits();
        out.fingerprint = qc.fingerprint();
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

/** The error text of each malformed form that only the current reader
 *  rejects; the legacy reader accepted all of them. */
const char *const kNewlyRejected[] = {
    "unexpected text after", // a dropped trailing token: h q[0] q[0];
    "redeclared",            // qreg q[2]; qreg q[3]; shifted offsets
    "bad index",             // q[x], q[1x], q[99999999999]
    "bad register size",     // the same for a qreg size, or a negative one
    "u2 takes one qubit",    // u2(0,0) q[0], q[1]; dropped q[1]
};

bool
newly_rejected(const std::string &error)
{
    return std::any_of(std::begin(kNewlyRejected), std::end(kNewlyRejected),
                       [&](const char *form) {
                           return error.find(form) != std::string::npos;
                       });
}

struct Tally
{
    int both_ok = 0;
    int both_failed = 0;
    int newly_rejected = 0;
};

void
compare(const std::string &text, const std::string &what, Tally &tally)
{
    const Outcome old = run(legacy::from_qasm, text);
    const Outcome now = run(from_qasm, text);
    const std::string shown = text.size() <= 240
                                  ? text
                                  : text.substr(0, 240) + "...";
    if (old.ok && now.ok) {
        ++tally.both_ok;
        EXPECT_EQ(now.num_qubits, old.num_qubits) << what << "\n" << shown;
        EXPECT_EQ(now.fingerprint, old.fingerprint) << what << "\n" << shown;
    } else if (!old.ok && !now.ok) {
        ++tally.both_failed;
    } else if (old.ok) {
        ++tally.newly_rejected;
        EXPECT_TRUE(newly_rejected(now.error))
            << what << ": " << now.error << "\n" << shown;
    } else {
        ADD_FAILURE() << what << ": accepted, the legacy reader threw '"
                      << old.error << "'\n" << shown;
    }
}

/** Logical and routed texts of every Table I benchmark. */
struct Corpus
{
    std::vector<std::string> logical;
    std::vector<std::string> routed;
};

const Corpus &
corpus()
{
    static const Corpus c = [] {
        Corpus out;
        const Backend montreal = montreal_backend();
        TranspileOptions opts;
        opts.layout_trials = 1;
        for (const BenchmarkCase &b : table_benchmarks()) {
            // to_qasm needs gates of at most three qubits, as a wire
            // client's request does.
            out.logical.push_back(to_qasm(decompose_to_2q(b.circuit)));
            out.routed.push_back(
                to_qasm(transpile(b.circuit, montreal, opts).circuit));
        }
        return out;
    }();
    return c;
}

/** The QASM fixtures of test_ir and test_edge_cases, valid or not. */
const std::vector<std::string> &
fixtures()
{
    static const std::vector<std::string> texts = {
        R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[1];
        rz(pi/2) q[0];
        rz(-pi/4) q[0];
        rz(3*pi/2) q[0];
        rz(2*(pi+1)) q[0];
        rz(1.5e-3) q[0];
    )",
        R"(
        OPENQASM 2.0;
        qreg a[2];
        qreg b[2];
        cx a[1], b[0];
    )",
        "qreg q[1]; u2(0.1, 0.2) q[0];",
        "qreg q[1]; frobnicate q[0];",
        "qreg q[1]; h q[5];",
        "qreg q[1]; h q[0]; rz(0/0) q[0]; h q[0];",
        "qreg q[1]; h q[0]; rz(pi/0) q[0]; h q[0];",
        "qreg q[1]; h q[0]; rz(-pi/0) q[0]; h q[0];",
        "qreg q[1]; h q[0]; rz(1e308*10) q[0]; h q[0];",
        "qreg q[1]; rz(1e12) q[0];",
        "qreg q[1]; rz(1e400) q[0];",
        "qreg q[1]; rz(1e-400) q[0];",
        "qreg q[1]; rz(4.9406564584124654e-324) q[0];",
        "qreg q[1]; rz(1e) q[0];",
        "qreg q[1]; rz(1e+) q[0];",
        "qreg q[1]; rz(1.2.3) q[0];",
        "qreg q[1]; rz(2e-) q[0];",
        "// header comment\nqreg q[1];\nh q[0]; // trailing\n",
        "h q[0];",
        "qreg q[1]; rz(pi*) q[0];",
        "qreg q[1]; rz(frob) q[0];",
        "qreg q[1]; rz((1+2) q[0];",
        "qreg q[2]; h q;",
        "OPENQASM 2.0;\n",
        // A ',' or ';' inside parentheses separates nothing, even in a
        // register name.
        "qreg a(,)[2]; h a(,)[0]; cx a(,)[0], a(,)[1];",
        "qreg a(;)[2]; h a(;)[1];",
        // The forms only the current reader rejects.
        "qreg q[2]; h q[0] q[0];",
        "qreg q[2]; cx q[0], q[1] q[0];",
        "qreg q[2]; measure q[0] q[1] -> c[0];",
        "qreg q[2]; qreg q[3]; h q[2];",
        "qreg q[2]; h q[x];",
        "qreg q[2]; h q[1x];",
        "qreg q[2]; h q[99999999999];",
        "qreg q[x];",
        "qreg q[99999999999];",
        "qreg q[-1]; qreg r[3]; h r[1];",
        "qreg q[2] junk; h q[0];",
        "qreg q]x[2]; h q]x[1];",
        "qreg q[2]; u2(0, 0) q[0], q[1];",
    };
    return texts;
}

/** Half-open [begin, end) of every ';'-terminated statement. */
std::vector<std::pair<size_t, size_t>>
statements(const std::string &text)
{
    std::vector<std::pair<size_t, size_t>> out;
    size_t begin = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ';') {
            out.emplace_back(begin, i + 1);
            begin = i + 1;
        }
    }
    return out;
}

/** One seeded edit of `text`; `what` gets a description of it. */
std::string
mutate(const std::string &text, std::mt19937 &rng, std::string &what)
{
    auto pick = [&](size_t n) {
        return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
    };
    const auto stmts = statements(text);
    switch (pick(4)) {
      case 0: { // delete a statement
        if (stmts.empty())
            break;
        const auto [b, e] = stmts[pick(stmts.size())];
        what += " delete@" + std::to_string(b);
        return text.substr(0, b) + text.substr(e);
      }
      case 1: { // duplicate a statement
        if (stmts.empty())
            break;
        const auto [b, e] = stmts[pick(stmts.size())];
        what += " duplicate@" + std::to_string(b);
        return text.substr(0, e) + text.substr(b, e - b) + text.substr(e);
      }
      case 2: { // truncate
        const size_t at = pick(text.size() + 1);
        what += " truncate@" + std::to_string(at);
        return text.substr(0, at);
      }
      default:
        break;
    }
    // Flip a byte inside a number.
    std::vector<size_t> digits;
    for (size_t i = 0; i < text.size(); ++i)
        if (std::isdigit(static_cast<unsigned char>(text[i])))
            digits.push_back(i);
    if (digits.empty())
        return text;
    const size_t at = digits[pick(digits.size())];
    static const char kPunct[] = ".e-+x []();,";
    std::string out = text;
    switch (pick(4)) {
      case 0:
      case 1:
        out[at] = static_cast<char>('0' + pick(10));
        break;
      case 2:
        out[at] = kPunct[pick(sizeof(kPunct) - 1)];
        break;
      default:
        out[at] = static_cast<char>(out[at] ^ (1 << pick(8)));
        break;
    }
    what += " flip@" + std::to_string(at);
    return out;
}

TEST(QasmDifferential, TableBenchmarksAndRoutedOutputs)
{
    Tally tally;
    const std::vector<BenchmarkCase> cases = table_benchmarks();
    for (size_t i = 0; i < cases.size(); ++i) {
        compare(corpus().logical[i], cases[i].name, tally);
        compare(corpus().routed[i], cases[i].name + " routed", tally);
    }
    EXPECT_EQ(tally.both_ok, static_cast<int>(2 * cases.size()));
}

TEST(QasmDifferential, Fixtures)
{
    Tally tally;
    for (const std::string &text : fixtures())
        compare(text, "fixture", tally);
    EXPECT_EQ(tally.newly_rejected, 9);
}

TEST(QasmDifferential, SeededMutations)
{
    // Mutate every fixture and the logical texts of up to 16 KB (nine
    // of the fifteen); the longer texts, up to 440 KB, would add time,
    // not new statement shapes.
    std::vector<std::string> bases = fixtures();
    for (const std::string &text : corpus().logical)
        if (text.size() <= 16384)
            bases.push_back(text);
    std::mt19937 rng(1);
    Tally tally;
    for (int i = 0; i < 2400; ++i) {
        const size_t base = i % bases.size();
        std::string what = "mutation " + std::to_string(i) + " of base " +
                           std::to_string(base) + ":";
        std::string text = bases[base];
        const int edits =
            1 + std::uniform_int_distribution<int>(0, 2)(rng);
        for (int e = 0; e < edits; ++e)
            text = mutate(text, rng, what);
        compare(text, what, tally);
    }
    // Every outcome class is exercised, so agreement is not vacuous.
    EXPECT_GT(tally.both_ok, 400);
    EXPECT_GT(tally.both_failed, 400);
    EXPECT_GT(tally.newly_rejected, 20);
    std::printf("both accepted %d, both rejected %d, newly rejected %d\n",
                tally.both_ok, tally.both_failed, tally.newly_rejected);
}

} // namespace
} // namespace nassc
