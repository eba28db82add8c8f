#include "circuit/Circuit.hh"

#include "common/Logging.hh"

namespace qc {

Circuit::Circuit(Qubit num_qubits, std::string name)
    : numQubits_(num_qubits), name_(std::move(name))
{
    if (num_qubits == 0)
        fatal("circuit '", name_, "' must have at least one qubit");
}

void
Circuit::checkQubit(Qubit q) const
{
    if (q >= numQubits_) {
        panic("qubit index ", q, " out of range (circuit '", name_,
              "' has ", numQubits_, " qubits)");
    }
}

void
Circuit::append(const Gate &gate)
{
    const int arity = gate.arity();
    for (int i = 0; i < arity; ++i) {
        const Qubit q = gate.ops[static_cast<std::size_t>(i)];
        checkQubit(q);
        for (int j = i + 1; j < arity; ++j) {
            if (q == gate.ops[static_cast<std::size_t>(j)]) {
                panic("gate ", gateName(gate.kind),
                      " has duplicate operand ", q);
            }
        }
    }
    gates_.push_back(gate);
}

Qubit
Circuit::addQubits(Qubit count)
{
    const Qubit first = numQubits_;
    numQubits_ += count;
    return first;
}

namespace {

Gate
make1(GateKind kind, Qubit q, std::int16_t param = 0)
{
    Gate g;
    g.kind = kind;
    g.ops = {q, invalidQubit, invalidQubit};
    g.param = param;
    return g;
}

Gate
make2(GateKind kind, Qubit a, Qubit b, std::int16_t param = 0)
{
    Gate g;
    g.kind = kind;
    g.ops = {a, b, invalidQubit};
    g.param = param;
    return g;
}

} // namespace

Circuit &
Circuit::prepZ(Qubit q)
{
    append(make1(GateKind::PrepZ, q));
    return *this;
}

Circuit &
Circuit::h(Qubit q)
{
    append(make1(GateKind::H, q));
    return *this;
}

Circuit &
Circuit::x(Qubit q)
{
    append(make1(GateKind::X, q));
    return *this;
}

Circuit &
Circuit::y(Qubit q)
{
    append(make1(GateKind::Y, q));
    return *this;
}

Circuit &
Circuit::z(Qubit q)
{
    append(make1(GateKind::Z, q));
    return *this;
}

Circuit &
Circuit::s(Qubit q)
{
    append(make1(GateKind::S, q));
    return *this;
}

Circuit &
Circuit::t(Qubit q)
{
    append(make1(GateKind::T, q));
    return *this;
}

Circuit &
Circuit::tdg(Qubit q)
{
    append(make1(GateKind::Tdg, q));
    return *this;
}

Circuit &
Circuit::cx(Qubit control, Qubit target)
{
    append(make2(GateKind::CX, control, target));
    return *this;
}

Circuit &
Circuit::cz(Qubit a, Qubit b)
{
    append(make2(GateKind::CZ, a, b));
    return *this;
}

Circuit &
Circuit::rotZ(Qubit q, int k)
{
    append(make1(GateKind::RotZ, q, static_cast<std::int16_t>(k)));
    return *this;
}

Circuit &
Circuit::crotZ(Qubit control, Qubit target, int k)
{
    append(make2(GateKind::CRotZ, control, target,
                 static_cast<std::int16_t>(k)));
    return *this;
}

Circuit &
Circuit::toffoli(Qubit a, Qubit b, Qubit target)
{
    Gate g;
    g.kind = GateKind::Toffoli;
    g.ops = {a, b, target};
    append(g);
    return *this;
}

Circuit &
Circuit::measure(Qubit q)
{
    append(make1(GateKind::Measure, q));
    return *this;
}

GateCensus
Circuit::census() const
{
    GateCensus c;
    for (const Gate &g : gates_) {
        ++c.byKind[static_cast<std::size_t>(g.kind)];
        ++c.total;
    }
    return c;
}

} // namespace qc
