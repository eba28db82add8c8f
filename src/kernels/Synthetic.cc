#include "kernels/Synthetic.hh"

#include <stdexcept>
#include <string>

namespace qc {

Circuit
makeChain(int length)
{
    if (length < 1)
        throw std::invalid_argument(
            "makeChain: length must be positive, got "
            + std::to_string(length));
    Circuit c(1, "chain-" + std::to_string(length));
    for (int i = 0; i < length; ++i) {
        if (i % 2 == 0)
            c.h(0);
        else
            c.t(0);
    }
    return c;
}

Circuit
makeLadder(int width, int layers)
{
    if (width < 2 || layers < 1)
        throw std::invalid_argument(
            "makeLadder: need width >= 2 and layers >= 1, got "
            + std::to_string(width) + "x" + std::to_string(layers));
    const Qubit w = static_cast<Qubit>(width);
    Circuit c(w, "ladder-" + std::to_string(width) + "x"
                  + std::to_string(layers));
    for (int layer = 0; layer < layers; ++layer) {
        for (Qubit q = 0; q < w; ++q)
            c.h(q);
        // Brick pattern: pairs (0,1),(2,3),... on even layers,
        // (1,2),(3,4),... on odd ones.
        for (Qubit q = static_cast<Qubit>(layer % 2); q + 1 < w;
             q += 2)
            c.cx(q, q + 1);
    }
    return c;
}

} // namespace qc
