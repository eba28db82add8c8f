#include "error/AncillaSim.hh"

namespace qc {

const char *
zeroPrepStrategyName(ZeroPrepStrategy strategy)
{
    switch (strategy) {
      case ZeroPrepStrategy::Basic:
        return "Basic 0 (no conditioning)";
      case ZeroPrepStrategy::VerifyOnly:
        return "Verify Only (Fig 4a)";
      case ZeroPrepStrategy::CorrectOnly:
        return "Correct Only (Fig 4b)";
      case ZeroPrepStrategy::VerifyAndCorrect:
        return "Verify and Correct (Fig 4c)";
    }
    return "?";
}

double
PrepEstimate::errorRate() const
{
    return trials ? static_cast<double>(failures)
                      / static_cast<double>(trials)
                  : 0.0;
}

Interval
PrepEstimate::errorInterval() const
{
    return wilsonInterval(failures, trials ? trials : 1);
}

double
PrepEstimate::discardRate() const
{
    return verifyTrials ? static_cast<double>(discards)
                            / static_cast<double>(verifyTrials)
                        : 0.0;
}

} // namespace qc
