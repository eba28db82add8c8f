#include "kernels/Qft.hh"

#include <stdexcept>
#include <string>

namespace qc {

Circuit
makeQft(int n, const QftOptions &options)
{
    if (n < 1)
        throw std::invalid_argument(
            "makeQft: width must be >= 1, got " + std::to_string(n));
    const auto un = static_cast<Qubit>(n);
    Circuit circ(un, "qft" + std::to_string(n));

    const int max_k = options.maxK > 0 ? options.maxK : n - 1;
    for (int i = 0; i < n; ++i) {
        const auto qi = static_cast<Qubit>(i);
        circ.h(qi);
        for (int d = 1; d <= max_k && i + d < n; ++d) {
            circ.crotZ(static_cast<Qubit>(i + d), qi, d);
        }
    }
    if (options.withSwaps) {
        for (int i = 0; i < n / 2; ++i) {
            const auto lo = static_cast<Qubit>(i);
            const auto hi = static_cast<Qubit>(n - 1 - i);
            circ.cx(lo, hi);
            circ.cx(hi, lo);
            circ.cx(lo, hi);
        }
    }
    return circ;
}

} // namespace qc
