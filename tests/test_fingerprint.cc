// Tests for the serving layer's fingerprint keys:
//
//  (a) stability — exact pinned values for QuantumCircuit::fingerprint()
//      and TranspileOptions::fingerprint().  These hashes are persistent
//      cache-key material (TranspileService), so any change to the
//      encoding, the FNV constants, or the option field order is a
//      BREAKING change and must show up here;
//  (b) structural identity — independently built identical circuits
//      collide, any structural difference (order, operands, params,
//      width, orientation flags, gate grouping) separates;
//  (c) option field coverage in both directions — flipping any of the
//      14 output-identity fields, one at a time, changes the
//      fingerprint (all variants pairwise distinct), and flipping any
//      of the 4 execution knobs leaves it unchanged.  Adding a field
//      without sorting it into one list fails the count check below.

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/circuit.h"
#include "nassc/ir/qasm.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

QuantumCircuit
mixed_circuit()
{
    QuantumCircuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.rz(0.5, 2);
    c.swap(1, 2);
    c.mutable_gates().back().swap_orient = SwapOrient::kSecond;
    c.measure(0);
    c.barrier();
    return c;
}

TEST(CircuitFingerprint, PinnedStableValues)
{
    // Cache-key contract: these exact values must survive refactors.
    EXPECT_EQ(QuantumCircuit(0).fingerprint(), 0x5467b0da1d106495ull);
    EXPECT_EQ(mixed_circuit().fingerprint(), 0x262e293add70384bull);
}

TEST(CircuitFingerprint, IndependentlyBuiltTwinsCollide)
{
    EXPECT_EQ(mixed_circuit().fingerprint(), mixed_circuit().fingerprint());
}

TEST(CircuitFingerprint, StructuralDifferencesSeparate)
{
    const std::uint64_t base = mixed_circuit().fingerprint();

    { // gate order
        QuantumCircuit c(3);
        c.cx(0, 1);
        c.h(0);
        c.rz(0.5, 2);
        c.swap(1, 2);
        c.mutable_gates().back().swap_orient = SwapOrient::kSecond;
        c.measure(0);
        c.barrier();
        EXPECT_NE(c.fingerprint(), base);
    }
    { // operand order
        QuantumCircuit c = mixed_circuit();
        c.mutable_gates()[1] = Gate::two_q(OpKind::kCX, 1, 0);
        EXPECT_NE(c.fingerprint(), base);
    }
    { // parameter value
        QuantumCircuit c = mixed_circuit();
        c.mutable_gates()[2] = Gate::one_q(OpKind::kRZ, 2, 0.5000001);
        EXPECT_NE(c.fingerprint(), base);
    }
    { // SWAP orientation flag
        QuantumCircuit c = mixed_circuit();
        c.mutable_gates()[3].swap_orient = SwapOrient::kDefault;
        EXPECT_NE(c.fingerprint(), base);
    }
    { // register width (same gate stream)
        const QuantumCircuit m = mixed_circuit();
        QuantumCircuit c(4);
        for (const Gate &g : m.gates())
            c.append(g);
        EXPECT_NE(c.fingerprint(), base);
    }
    { // trailing gate dropped
        QuantumCircuit c = mixed_circuit();
        c.mutable_gates().pop_back();
        EXPECT_NE(c.fingerprint(), base);
    }
}

TEST(CircuitFingerprint, GateGroupingCannotAlias)
{
    // Same flat operand stream, different gate boundaries: the per-gate
    // operand-count mixing must separate them.
    QuantumCircuit a(3);
    a.append(Gate::barrier({0, 1}));
    a.append(Gate::barrier({2}));
    QuantumCircuit b(3);
    b.append(Gate::barrier({0}));
    b.append(Gate::barrier({1, 2}));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(OptionsFingerprint, PinnedStableValues)
{
    // Over the 14 output-identity fields only.
    EXPECT_EQ(TranspileOptions{}.fingerprint(), 0x100d21e18670fd4cull);
    TranspileOptions s;
    s.router = RoutingAlgorithm::kSabre;
    s.seed = 7;
    EXPECT_EQ(s.fingerprint(), 0x240a1e4eec4d6d72ull);
}

TEST(OptionsFingerprint, EveryFieldIsCovered)
{
    // One variant per field, each differing from the default in exactly
    // that field.  If TranspileOptions grows a field, add a variant to
    // the list it belongs in (and, for identity, a line to
    // fingerprint()) — the count assert is the tripwire.
    std::vector<TranspileOptions> identity;
    std::vector<TranspileOptions> knobs;
    auto vary = [](std::vector<TranspileOptions> &into, auto &&set) {
        TranspileOptions o;
        set(o);
        into.push_back(o);
    };
    using O = TranspileOptions;
    vary(identity, [](O &o) { o.router = RoutingAlgorithm::kSabre; });
    vary(identity, [](O &o) { o.seed = 12345; });
    vary(identity, [](O &o) { o.noise_aware = true; });
    vary(identity, [](O &o) { o.enable_c2q = false; });
    vary(identity, [](O &o) { o.enable_commute1 = false; });
    vary(identity, [](O &o) { o.enable_commute2 = false; });
    vary(identity, [](O &o) { o.extended_size = 21; });
    vary(identity, [](O &o) { o.extended_weight = 0.25; });
    vary(identity, [](O &o) { o.layout_iterations = 4; });
    vary(identity, [](O &o) { o.layout_trials = 4; });
    vary(identity, [](O &o) { o.opt_loop_rounds = 5; });
    vary(identity,
         [](O &o) { o.orientation_aware_decomposition = false; });
    vary(identity, [](O &o) { o.use_decay = false; });
    vary(identity, [](O &o) { o.region_radius = 4; });
    // Execution knobs: the equivalence tests pin that none of them
    // changes the output, so none may split the cache key.
    vary(knobs, [](O &o) { o.layout_threads = 2; });
    vary(knobs, [](O &o) { o.reuse_routing = false; });
    vary(knobs, [](O &o) { o.sparse_distance_threshold = 64; });
    vary(knobs, [](O &o) { o.distance_row_budget_bytes = 1 << 20; });

    // Tripwire over all 18 fields: update the variant lists, the hash,
    // and these constants together.
    ASSERT_EQ(identity.size(), 14u);
    ASSERT_EQ(knobs.size(), 4u);

    const std::uint64_t base = TranspileOptions{}.fingerprint();
    std::set<std::uint64_t> seen{base};
    for (const TranspileOptions &o : identity) {
        const std::uint64_t fp = o.fingerprint();
        EXPECT_NE(fp, base);
        EXPECT_TRUE(seen.insert(fp).second)
            << "fingerprint collision between option variants";
    }
    for (const TranspileOptions &o : knobs)
        EXPECT_EQ(o.fingerprint(), base);
}

// ---------------------------------------------------------------------
// QASM round-trip identity.  The daemon's wire format is OpenQASM 2.0
// (serve/protocol.h), and submit_qasm() keys requests by the PARSED
// circuit's fingerprint — so from_qasm(to_qasm(c)) must reproduce c's
// fingerprint exactly or text and object submissions of the same
// circuit would stop deduping against each other.

std::uint64_t
round_trip_fp(const QuantumCircuit &c)
{
    return from_qasm(to_qasm(c)).fingerprint();
}

TEST(QasmRoundTrip, EveryOpKindFingerprintIdentical)
{
    // One gate of every serializable kind, with params chosen so the
    // printed precision-17 doubles must survive stod exactly.
    QuantumCircuit c(4);
    c.id(0);
    c.x(1);
    c.y(2);
    c.z(3);
    c.h(0);
    c.s(1);
    c.sdg(2);
    c.t(3);
    c.tdg(0);
    c.sx(1);
    c.sxdg(2);
    c.rx(0.1, 0);
    c.ry(-2.0 / 3.0, 1);
    c.rz(3.14159265358979312, 2);
    c.p(1e-17, 3);
    c.u(0.5, -0.25, 0.125, 0);
    c.cx(0, 1);
    c.cy(1, 2);
    c.cz(2, 3);
    c.ch(3, 0);
    c.cp(0.7, 0, 2);
    c.crx(-0.3, 1, 3);
    c.cry(0.9, 2, 0);
    c.crz(-1.1, 3, 1);
    c.rzz(0.4, 0, 3);
    c.rxx(-0.6, 1, 2);
    c.swap(0, 2);
    c.iswap(1, 3);
    c.ccx(0, 1, 2);
    c.ccz(1, 2, 3);
    c.cswap(0, 2, 3);
    EXPECT_EQ(round_trip_fp(c), c.fingerprint());
}

TEST(QasmRoundTrip, MeasureAndBarrierCircuits)
{
    QuantumCircuit c(3);
    c.h(0);
    c.cx(0, 1);
    c.barrier();
    c.append(Gate::barrier({1, 2})); // partial barrier
    c.measure(1);
    c.measure_all();
    EXPECT_EQ(round_trip_fp(c), c.fingerprint());
}

TEST(QasmRoundTrip, MultiRegisterFlattening)
{
    // Two qregs flatten into one contiguous index space in declaration
    // order: a[0..1] -> 0..1, b[0..2] -> 2..4.
    const std::string text = "OPENQASM 2.0;\n"
                             "include \"qelib1.inc\";\n"
                             "qreg a[2];\n"
                             "qreg b[3];\n"
                             "creg m[5];\n"
                             "h a[0];\n"
                             "cx a[1],b[0];\n"
                             "rz(0.25) b[2];\n"
                             "measure b[1] -> m[3];\n";
    QuantumCircuit expected(5);
    expected.h(0);
    expected.cx(1, 2);
    expected.rz(0.25, 4);
    expected.measure(3);
    const QuantumCircuit parsed = from_qasm(text);
    EXPECT_EQ(parsed.fingerprint(), expected.fingerprint());
    // And the flattened form is itself a fixed point.
    EXPECT_EQ(round_trip_fp(parsed), parsed.fingerprint());
}

TEST(QasmRoundTrip, McxNormalizesToCcx)
{
    // Documented carve-out: a 2-control kMCX prints as "ccx" (OpenQASM
    // has no mcx), so it round-trips as the EQUIVALENT kCCX gate — same
    // unitary, different OpKind tag, hence a different fingerprint from
    // the kMCX original.  Wire users see the normalized form.
    QuantumCircuit m(3);
    m.mcx({0, 1}, 2);
    QuantumCircuit c(3);
    c.ccx(0, 1, 2);
    EXPECT_EQ(round_trip_fp(m), c.fingerprint());
    EXPECT_NE(m.fingerprint(), c.fingerprint());
}

// The previous to_qasm, two ostringstreams per gate at precision 17,
// kept as the byte-exact reference for the to_chars serializer: the
// wire is pinned to these bytes.
std::string
ostream_to_qasm(const QuantumCircuit &qc)
{
    std::ostringstream os;
    os << "OPENQASM 2.0;\n";
    os << "include \"qelib1.inc\";\n";
    os << "qreg q[" << qc.num_qubits() << "];\n";
    os << "creg c[" << qc.num_qubits() << "];\n";
    for (const Gate &g : qc.gates()) {
        if (g.kind == OpKind::kMeasure) {
            os << "measure q[" << g.qubits[0] << "] -> c[" << g.qubits[0]
               << "];\n";
            continue;
        }
        if (g.kind == OpKind::kBarrier) {
            os << "barrier";
            for (size_t i = 0; i < g.qubits.size(); ++i)
                os << (i ? "," : "") << " q[" << g.qubits[i] << "]";
            os << ";\n";
            continue;
        }
        std::string name = op_name(g.kind);
        if (g.kind == OpKind::kMCX)
            name = g.qubits.size() == 3 ? "ccx" : "cx";
        os << name;
        if (!g.params.empty()) {
            os << "(";
            std::ostringstream ps;
            ps.precision(17);
            for (size_t i = 0; i < g.params.size(); ++i)
                ps << (i ? "," : "") << g.params[i];
            os << ps.str() << ")";
        }
        for (size_t i = 0; i < g.qubits.size(); ++i)
            os << (i ? "," : "") << " q[" << g.qubits[i] << "]";
        os << ";\n";
    }
    return os.str();
}

TEST(QasmRoundTrip, ParamsPrintLikeOstreamPrecision17)
{
    const double pi = 3.14159265358979323846;
    const std::vector<double> angles = {
        pi / 3, 0.1 + 0.2, -0.0, 1e-300, 1e17, -pi / 7, -2.5e-5, 1.0, 0.0,
        std::numeric_limits<double>::denorm_min(), 1.5e308, -123456789.125};
    QuantumCircuit c(12);
    for (std::size_t i = 0; i < angles.size(); ++i) {
        const int q = static_cast<int>(i);
        c.rz(angles[i], q);
        c.u(angles[i], -angles[i], angles[(i + 1) % angles.size()], q);
    }
    c.cx(10, 11);
    c.barrier();
    c.measure(11);
    const std::string text = to_qasm(c);
    EXPECT_EQ(text, ostream_to_qasm(c));
    EXPECT_NE(text.find("rz(1.0471975511965976) q[0];"), std::string::npos);
    EXPECT_NE(text.find("rz(0.30000000000000004) q[1];"), std::string::npos);
    EXPECT_NE(text.find("rz(-0) q[2];"), std::string::npos);
    EXPECT_NE(text.find("rz(1e-300) q[3];"), std::string::npos);
    EXPECT_NE(text.find("rz(1e+17) q[4];"), std::string::npos);
    EXPECT_NE(text.find("rz(-0.44879895051282759) q[5];"), std::string::npos);
    EXPECT_EQ(round_trip_fp(c), c.fingerprint());

    QuantumCircuit mcx(3); // prints as ccx, like the reference
    mcx.mcx({0, 1}, 2);
    EXPECT_EQ(to_qasm(mcx), ostream_to_qasm(mcx));

    // A routed circuit: thousands of transpiler-produced angles.
    const QuantumCircuit routed =
        transpile(qft(15), montreal_backend(), TranspileOptions{}).circuit;
    EXPECT_EQ(to_qasm(routed), ostream_to_qasm(routed));
}

TEST(OptionsFingerprint, BoolFieldsDoNotAliasAcrossPositions)
{
    // Two single-bool flips in different fields must not cancel: flip
    // pairs and require distinctness from each other and the base.
    TranspileOptions a;
    a.enable_c2q = false;
    TranspileOptions b;
    b.enable_commute1 = false;
    TranspileOptions both;
    both.enable_c2q = false;
    both.enable_commute1 = false;
    std::set<std::uint64_t> s{TranspileOptions{}.fingerprint(),
                              a.fingerprint(), b.fingerprint(),
                              both.fingerprint()};
    EXPECT_EQ(s.size(), 4u);
}

} // namespace
} // namespace nassc
