/**
 * @file
 * The batched Monte Carlo worker, templated on SIMD width.
 *
 * BatchWorkerT<Ops> is the engine behind BatchAncillaSim: a frame
 * wide enough for one batch plus the masked circuit routines and
 * popcount tallies, mirroring the scalar reference engine
 * (tests/ScalarAncillaSim.hh) step for step. The Ops policy
 * (common/simd/SimdOps.hh) picks how many 64-bit words the
 * pure-bitwise frame loops advance per step; every RNG-consuming
 * routine is ordered per 64-bit word of the *bit stream*
 * (RareBernoulliStream) or per trial, so a batch's results are a
 * pure function of its seed — bit-identical across every width.
 *
 * A batch runs one of two kinds of trials:
 *  - naive Monte Carlo trials conditioned on at least one fault on
 *    their nominal (fault-free) path, under FirstFaults: each
 *    trial's first fault is placed at a nominal site and every
 *    later site draws at its natural rate. The trials that meet no
 *    fault cannot fail, and BatchAncillaSim tallies them exactly
 *    from the nominal path (NominalPath) without simulating them;
 *  - one stratum of the stratified estimator
 *    (error/ImportanceSampler.hh) under a FaultPlan.
 *
 * Each width is instantiated in its own translation unit
 * (src/error/simd/BatchEngine*.cc) so the 256/512-bit ones can be
 * compiled with -mavx2/-mavx512f without imposing those ISAs on the
 * rest of the binary; makeBatchWorker() dispatches on a resolved
 * simd::Width (see common/simd/SimdDispatch.hh for the resolution
 * rules and the QC_FORCE_WIDTH override).
 */

#ifndef QC_ERROR_BATCH_ENGINE_HH
#define QC_ERROR_BATCH_ENGINE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "codes/SteaneCode.hh"
#include "common/Rng.hh"
#include "common/simd/SimdDispatch.hh"
#include "error/AncillaSim.hh"
#include "error/BatchPauliFrame.hh"
#include "error/ImportanceSampler.hh"

namespace qc {

/**
 * Where a stratified batch places its faults: one stratum (a, b) of
 * error/ImportanceSampler.hh. Each trial faults at exactly
 * `gateFaults` of its first `gateSites` gate-class sites and
 * `moveFaults` of its first `moveSites` movement sites, a uniformly
 * random subset per trial drawn from the batch's RNG before the
 * batch runs (the distribution the scalar engine's online r-of-m
 * rule samples); its later sites draw at the natural rate.
 */
struct FaultPlan
{
    std::uint64_t gateSites = 0;
    std::uint64_t moveSites = 0;
    int gateFaults = 0;
    int moveFaults = 0;
};

/**
 * A noiseless trial's walk through the circuits
 * (BatchWorkerBase::probe): its fault sites in visit order and its
 * tallies. Every trial that meets no fault walks this path. Faults
 * only add work (verify retries, correction recycles, extra
 * extraction rounds), so every trial visits at least its sites of
 * each class — the bound a FaultPlan's subsets rely on.
 */
struct NominalPath
{
    /** One fault site. */
    struct Site
    {
        bool gate;     ///< gate class (pGate), else movement (pMove)
        bool readout;  ///< a measurement: a fault flips its outcome
        std::int8_t a; ///< the site's qubit
        std::int8_t b; ///< its second qubit, or -1

        bool operator==(const Site &) const = default;
    };

    std::vector<Site> sites;
    PrepEstimate tally; ///< the trial's tallies; trials = 1

    /** Gate-class sites (N_g). */
    std::uint64_t
    gateSites() const
    {
        return static_cast<std::uint64_t>(std::count_if(
            sites.begin(), sites.end(),
            [](const Site &s) { return s.gate; }));
    }

    /** Movement sites (N_m). */
    std::uint64_t
    moveSites() const
    {
        return sites.size() - gateSites();
    }
};

/**
 * The naive trials of a batch that fault on their nominal path,
 * each conditioned on its first fault. Per nominal site j the
 * hazard is p_j / P(a fault at sites j..end): the chance that a
 * trial with no fault before j, and at least one from j on, faults
 * first at j. The batch draws how many of its trials first fault
 * at each site, one binomial per site over the trials not yet
 * placed, and lays its trials out in that order.
 */
struct FirstFaults
{
    std::vector<double> hazard; ///< per nominal site, in visit order
    bool coin = false;          ///< every trial's pi/8 fix-up coin
};

/** One job of a batch loop: `trials` trials under one of the two. */
struct BatchJob
{
    std::uint64_t trials = 0;
    const FaultPlan *plan = nullptr;     ///< a stratum's trials
    const FirstFaults *faults = nullptr; ///< or naive faulty trials
};

/** Width-erased interface of one batch worker. */
class BatchWorkerBase
{
  public:
    using Word = std::uint64_t;

    virtual ~BatchWorkerBase() = default;

    /**
     * Run `trials` (at most the batch width) trials of one stratum
     * under `plan`: a zero prep, then the pi/8 conversion (Fig 5b)
     * if `pi8`. Adds the batch's tallies to `tally`, all but
     * `trials`.
     */
    virtual void runBatch(Rng rng, ZeroPrepStrategy strategy,
                          bool pi8, int trials, const FaultPlan &plan,
                          PrepEstimate &tally) = 0;

    /** Run `trials` naive trials that fault on the nominal path
     *  whose hazards `faults` holds. */
    virtual void runBatch(Rng rng, ZeroPrepStrategy strategy,
                          bool pi8, int trials,
                          const FirstFaults &faults,
                          PrepEstimate &tally) = 0;

    /** One noiseless trial with the pi/8 fix-up coin pinned to
     *  `coin`: the nominal path it walks. */
    virtual NominalPath probe(ZeroPrepStrategy strategy, bool pi8,
                              bool coin) = 0;
};

/**
 * Construct a worker for the given (already resolved, non-Auto)
 * width. Defined in src/error/simd/BatchEngineFactory.cc; each case
 * forwards to the factory exported by that width's translation unit.
 */
std::unique_ptr<BatchWorkerBase>
makeBatchWorker(simd::Width width, const ErrorParams &errors,
                const MovementModel &movement,
                CorrectionSemantics semantics, int words);

namespace batch_detail {

inline std::uint64_t
popcount(const std::uint64_t *m, int words)
{
    std::uint64_t n = 0;
    for (int w = 0; w < words; ++w)
        n += static_cast<std::uint64_t>(__builtin_popcountll(m[w]));
    return n;
}

inline bool
any(const std::uint64_t *m, int words)
{
    for (int w = 0; w < words; ++w) {
        if (m[w])
            return true;
    }
    return false;
}

/** Hamming syndrome bits and parity of a block's readout. */
template <class O>
struct Readout
{
    typename O::V s0, s1, s2, parity;
};

/**
 * Bit-sliced readout of the seven bit-planes `plane + q * stride`
 * (q = 0..6) at word w: bit t of s0/s1/s2 is bit 0/1/2 of trial
 * t's syndrome (SteaneCode::syndromeOf: qubit q contributes q + 1),
 * bit t of parity its readout parity.
 */
template <class O>
inline Readout<O>
readout(const std::uint64_t *plane, std::size_t stride, int w)
{
    Readout<O> r{O::zero(), O::zero(), O::zero(), O::zero()};
    for (int q = 0; q < SteaneCode::numPhysical; ++q) {
        const auto e =
            O::load(plane + static_cast<std::size_t>(q) * stride + w);
        r.parity = r.parity ^ e;
        const unsigned col = static_cast<unsigned>(q) + 1;
        if (col & 1u)
            r.s0 = r.s0 ^ e;
        if (col & 2u)
            r.s1 = r.s1 ^ e;
        if (col & 4u)
            r.s2 = r.s2 ^ e;
    }
    return r;
}

// Block base offsets within the batched frame (same layout as the
// scalar engine: output block, two correction ancillae, cat qubits).
constexpr int blockA = 0;
constexpr int blockB = 7;
constexpr int blockC = 14;
constexpr int catBase = 21;
constexpr int frameQubits = 28;

} // namespace batch_detail

/**
 * One shard of the batched Monte Carlo at a fixed SIMD width. The
 * control flow mirrors the scalar reference engine step for step;
 * every routine takes the active-trial mask of the trials it
 * advances.
 */
template <class Ops>
class BatchWorkerT final : public BatchWorkerBase
{
  public:
    BatchWorkerT(const ErrorParams &errors,
                 const MovementModel &movement,
                 CorrectionSemantics semantics, int words)
        : movement_(movement), semantics_(semantics), words_(words),
          gate_(errors.pGate), move_(errors.pMove),
          frame_(batch_detail::frameQubits, words), meas_(7 * wv()),
          active_(wv()), pending_(wv()), survivors_(wv()),
          done_(wv()), ok_(wv()), prepMask_(wv()), flip_(wv()),
          measTmp_(wv()), eq_(wv()), confirm_(wv()),
          have_(wv()), agree_(wv()), prevS0_(wv()), prevS1_(wv()),
          prevS2_(wv()), prevP_(wv()), coin_(wv()),
          hitBuffer_(64 * wv() + 1)
    {
    }

    void
    runBatch(Rng rng, ZeroPrepStrategy strategy, bool pi8, int trials,
             const FaultPlan &plan, PrepEstimate &tally) override
    {
        const Word *active = start(rng, trials, tally, &plan);
        arm(gate_, plan.gateSites, plan.gateFaults, active);
        arm(move_, plan.moveSites, plan.moveFaults, active);
        simulate(strategy, pi8, active);
    }

    void
    runBatch(Rng rng, ZeroPrepStrategy strategy, bool pi8, int trials,
             const FirstFaults &faults, PrepEstimate &tally) override
    {
        const Word *active = start(rng, trials, tally, nullptr);
        coinOn_ = faults.coin;
        // Per nominal site, how many of the trials not yet placed
        // fault first there; the last site's hazard is 1.
        firstFaults_.assign(faults.hazard.size(), 0);
        std::uint64_t left = static_cast<std::uint64_t>(trials);
        for (std::size_t j = 0; left > 0 && j < faults.hazard.size();
             ++j) {
            const std::uint64_t n =
                drawBinomial(rng_, left, faults.hazard[j]);
            firstFaults_[j] = static_cast<std::uint32_t>(n);
            left -= n;
        }
        assert(left == 0);
        simulate(strategy, pi8, active);
    }

    NominalPath
    probe(ZeroPrepStrategy strategy, bool pi8, bool coin) override
    {
        // One trial that never faults: every site it visits is
        // nominal, and no stream draws for it (no lane is past its
        // first fault).
        NominalPath path;
        const Word *active = start(Rng(), 1, path.tally, nullptr);
        coinOn_ = coin;
        record_ = &path;
        simulate(strategy, pi8, active);
        record_ = nullptr;
        path.tally.trials = 1;
        return path;
    }

  private:
    /**
     * Trials not yet natural that stood in and out of a class's site
     * masks together, so they stand at one index: the count of class
     * sites each has visited.
     */
    struct Cohort
    {
        bool present;      ///< in the last site's mask
        std::uint32_t key; ///< present: clock - index; else index
        std::vector<Word> members;
    };

    /**
     * One fault class's sites: its natural-rate stream and, in a
     * planned batch, each trial's planned faults by index into the
     * class sites it visits; at index N_c it turns natural and draws
     * from the stream. The clock counts the batch's class sites. A
     * trial's index trails it by the sites it missed, which change
     * only where it leaves or rejoins the site mask, so trials that
     * moved together share it as a cohort. A site costs a mask
     * compare plus the trials filed at its present cohorts' indices.
     */
    struct FaultSites
    {
        explicit FaultSites(double p) : stream(p) {}

        RareBernoulliStream stream;
        std::uint32_t sites = 0; ///< N_c
        std::uint32_t clock = 0; ///< class sites so far
        /** Per index, ascending, the trials yet to fault there. */
        std::vector<std::vector<int>> due;
        std::vector<Cohort> cohorts;
        std::vector<Word> seen;    ///< the last site's mask
        std::vector<Word> natural; ///< trials past their N_c sites
        std::vector<Word> draws;   ///< seen & natural
        std::vector<Word> moved;   ///< regroup's scratch
    };

    std::size_t wv() const { return static_cast<std::size_t>(words_); }

    /** Reset the batch state for `trials` trials; their mask. */
    const Word *
    start(Rng rng, int trials, PrepEstimate &tally,
          const FaultPlan *plan)
    {
        rng_ = rng;
        gate_.stream.reset(rng_);
        move_.stream.reset(rng_);
        tally_ = &tally;
        plan_ = plan;
        trials_ = trials;
        placed_ = 0;
        site_ = 0;
        for (int w = 0; w < words_; ++w)
            active_[w] = laneRange(w, 0, trials);
        return active_.data();
    }

    void
    simulate(ZeroPrepStrategy strategy, bool pi8, const Word *active)
    {
        frame_.clear();
        const bool verified =
            strategy == ZeroPrepStrategy::VerifyOnly ||
            strategy == ZeroPrepStrategy::VerifyAndCorrect;
        const bool corrected =
            strategy == ZeroPrepStrategy::CorrectOnly ||
            strategy == ZeroPrepStrategy::VerifyAndCorrect;

        if (corrected)
            drainCorrectedPrep(active, verified);
        else
            prepareBlock(batch_detail::blockA, verified, active);
        if (pi8)
            convertPi8(active);
        classifyTally(active);
    }

    /**
     * Draw each active trial's planned sites of one class: a uniform
     * `faults`-subset of its first `sites` sites by Floyd's
     * algorithm (`faults` draws per trial, in trial order), filed by
     * index. Every trial starts at index 0, in one present cohort.
     */
    void
    arm(FaultSites &c, std::uint64_t sites, int faults,
        const Word *active)
    {
        assert(faults >= 0 && static_cast<std::uint64_t>(faults) <= sites
               && sites < (std::uint64_t{1} << 31));
        c.sites = static_cast<std::uint32_t>(sites);
        c.clock = 0;
        c.seen.assign(active, active + words_);
        c.natural.assign(wv(), Word{0});
        c.draws.assign(wv(), Word{0});
        c.moved.resize(wv());
        c.cohorts.assign(1, {true, 0, c.seen});
        c.due.resize(std::max<std::size_t>(c.due.size(), sites));
        for (auto &d : c.due)
            d.clear();
        picks_.resize(static_cast<std::size_t>(faults));
        for (int w = 0; w < words_; ++w) {
            for (Word left = active[w]; left; left &= left - 1) {
                const int t = 64 * w + std::countr_zero(left);
                for (int n = 0; n < faults; ++n) {
                    // Floyd: r, or j if r is taken.
                    const std::uint64_t j = sites - faults + n;
                    const auto r =
                        static_cast<std::uint32_t>(rng_.below(j + 1));
                    const auto e = picks_.begin() + n;
                    *e = std::find(picks_.begin(), e, r) != e
                        ? static_cast<std::uint32_t>(j)
                        : r;
                    c.due[*e].push_back(t);
                }
            }
        }
    }

    /**
     * The site mask changed from c.seen to m. The members of each
     * cohort that moved in or out split off to the other side, at
     * the same index; cohorts on one side at one index merge. The
     * draws follow the mask.
     */
    void
    regroup(FaultSites &c, const Word *m)
    {
        auto &cs = c.cohorts;
        for (std::size_t i = 0, n = cs.size(); i < n; ++i) {
            Word moving = 0;
            for (int w = 0; w < words_; ++w) {
                c.moved[w] = cs[i].members[w] & (m[w] ^ c.seen[w]);
                cs[i].members[w] &= ~c.moved[w];
                moving |= c.moved[w];
            }
            // The movers keep their index, so their key is the other
            // side's reading of it.
            if (moving)
                cs.push_back({!cs[i].present, c.clock - cs[i].key, c.moved});
        }
        std::erase_if(cs, [&](const Cohort &g) {
            return !batch_detail::any(g.members.data(), words_);
        });
        for (std::size_t i = 0; i < cs.size(); ++i) {
            for (std::size_t j = cs.size(); j-- > i + 1;) {
                if (cs[j].present != cs[i].present
                    || cs[j].key != cs[i].key)
                    continue;
                for (int w = 0; w < words_; ++w)
                    cs[i].members[w] |= cs[j].members[w];
                cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
            }
        }
        std::copy(m, m + words_, c.seen.begin());
        for (int w = 0; w < words_; ++w)
            c.draws[w] = m[w] & c.natural[w];
    }

    /**
     * One class-c site of a planned batch for the trials in m. A
     * present cohort at index N_c turns natural; at an earlier index
     * its trials filed there fault, and hits_ lists them in trial
     * order. On return c.draws holds m's natural trials, the ones
     * that draw from the stream here.
     */
    void
    place(FaultSites &c, const Word *m)
    {
        if (!std::equal(m, m + words_, c.seen.begin()))
            regroup(c, m);
        int *hit = hitBuffer_.data();
        for (Cohort &g : c.cohorts) {
            if (!g.present)
                continue;
            const std::uint32_t index = c.clock - g.key;
            assert(index <= c.sites);
            if (index == c.sites) {
                for (int w = 0; w < words_; ++w) {
                    c.natural[w] |= g.members[w];
                    c.draws[w] |= g.members[w];
                    g.members[w] = 0;
                }
                g.present = false; // empty: the next regroup drops it
                continue;
            }
            // Branch-free: each trial is written to both lists, and
            // the one it belongs to keeps it.
            int *const run = hit;
            std::vector<int> &due = c.due[index];
            int *kept = due.data();
            for (const int t : due) {
                const bool faults = g.members[t / 64] >> (t & 63) & 1;
                *hit = t;
                hit += faults;
                *kept = t;
                kept += !faults;
            }
            due.resize(static_cast<std::size_t>(kept - due.data()));
            std::inplace_merge(hitBuffer_.data(), run, hit);
        }
        hits_ = {hitBuffer_.data(), hit};
        ++c.clock;
    }

    /** Trials [0, from) draw from the stream at a site; [from, to)
     *  fault first there. */
    struct Lanes
    {
        int from, to;
    };

    /**
     * A naive batch's site of class c for the trials in m. Its
     * trials are laid out in first-fault order, so the ones not yet
     * placed, [placed_, trials_), have met no fault: they walk the
     * nominal path, all in m at a nominal site and none elsewhere,
     * and the last one's bit tells which. At a nominal site the next
     * firstFaults_ count of them fault first (a probe records the
     * site instead); the trials before them draw from the stream.
     */
    [[gnu::always_inline]] Lanes
    firstFault(FaultSites &c, int a, int b, bool readout, const Word *m)
    {
        const int from = placed_;
        const int last = trials_ - 1;
        if (from < trials_ && (m[last / 64] >> (last % 64) & 1)) {
            if (record_) {
                record(c, a, b, readout);
            } else {
                assert(site_ < firstFaults_.size());
                placed_ += static_cast<int>(firstFaults_[site_++]);
            }
        }
        return {from, placed_};
    }

    [[gnu::noinline]] void
    record(const FaultSites &c, int a, int b, bool readout)
    {
        record_->sites.push_back({&c == &gate_, readout,
                                  static_cast<std::int8_t>(a),
                                  static_cast<std::int8_t>(b)});
    }

    /**
     * A one-qubit fault site of class c on q for the trials in m.
     * Inlined: at low rates a naive site is a compare in the stream
     * and costs less than a call; a planned one is not.
     */
    [[gnu::always_inline]] void
    inject1(FaultSites &c, int q, const Word *m)
    {
        if (plan_) {
            plannedInject1(c, q, m);
            return;
        }
        const Lanes l = firstFault(c, q, -1, false, m);
        frame_.inject1q(rng_, c.stream, q, m, l.from);
        if (l.to > l.from)
            frame_.fault1q(rng_, q, l.from, l.to);
    }

    /** A two-qubit fault site of class c on (a, b). */
    [[gnu::always_inline]] void
    inject2(FaultSites &c, int a, int b, const Word *m)
    {
        if (plan_) {
            plannedInject2(c, a, b, m);
            return;
        }
        const Lanes l = firstFault(c, a, b, false, m);
        frame_.inject2q(rng_, c.stream, a, b, m, l.from);
        if (l.to > l.from)
            frame_.fault2q(rng_, a, b, l.from, l.to);
    }

    /** A planned batch's site: the stream's draws for the trials
     *  already natural, then its placed faults. */
    [[gnu::noinline]] void
    plannedInject1(FaultSites &c, int q, const Word *m)
    {
        place(c, m);
        frame_.inject1q(rng_, c.stream, q, c.draws.data(), 64 * words_);
        for (const int t : hits_)
            frame_.fault1q(rng_, q, t, t + 1);
    }

    [[gnu::noinline]] void
    plannedInject2(FaultSites &c, int a, int b, const Word *m)
    {
        place(c, m);
        frame_.inject2q(rng_, c.stream, a, b, c.draws.data(),
                        64 * words_);
        for (const int t : hits_)
            frame_.fault2q(rng_, a, b, t, t + 1);
    }

    /** The Fig 5b conversion of the corrected zero on block A. */
    void
    convertPi8(const Word *active)
    {
        // 7-qubit cat state on the freed block B.
        const int cat7 = batch_detail::blockB;
        for (int i = 0; i < 7; ++i)
            gatePrep(cat7 + i, active);
        gateH(cat7, active);
        for (int i = 0; i < 6; ++i)
            gateCx(cat7 + i, cat7 + i + 1, active);

        // Transversal cat/zero interaction plus transversal pi/8
        // (conjugated through the frame as S, as in the scalar
        // engine).
        for (int i = 0; i < 7; ++i) {
            chargeCxMovement(cat7 + i, batch_detail::blockA + i,
                             active);
            frame_.applyCz(cat7 + i, batch_detail::blockA + i,
                           active);
            inject2(gate_, cat7 + i, batch_detail::blockA + i,
                    active);
        }
        for (int i = 0; i < 7; ++i) {
            frame_.applyS(batch_detail::blockA + i, active);
            inject1(gate_, batch_detail::blockA + i, active);
        }

        // Decode the cat block and measure it out.
        for (int i = 5; i >= 0; --i)
            gateCx(cat7 + i, cat7 + i + 1, active);
        gateH(cat7, active);
        for (int i = 0; i < 7; ++i)
            measureFlip(/*xBasis=*/false, cat7 + i, active,
                        measTmp_.data());

        // Conditional transversal Z fix-up on half the outcomes: the
        // intended gate leaves the frame untouched but its physical
        // ops still inject errors. One fair coin per trial, drawn
        // here in a planned batch; a naive batch draws it up front
        // (FirstFaults::coin), a probe pins it.
        for (int w = 0; w < words_; ++w)
            coin_[w] = plan_ ? rng_() & active[w]
                             : coinOn_ ? active[w] : Word{0};
        for (int i = 0; i < 7; ++i)
            inject1(gate_, batch_detail::blockA + i, coin_.data());
    }

    /**
     * Drain the corrected-preparation pipeline for every trial in
     * `active`: prepare blocks A and B, bit-correct, prepare C,
     * phase-correct. Trials whose correction stage detects an error
     * recycle the whole pipeline; finished trials drop out of the
     * mask and their frame bits stay frozen while the stragglers
     * loop (every op is masked), so they are classified at the end.
     */
    void
    drainCorrectedPrep(const Word *active, bool verified)
    {
        using batch_detail::any;
        // Under ApplyFix a verified pipeline must not trust a
        // single Z-syndrome extraction (the ancilla's correlated Z
        // errors are invisible to verification and would be patched
        // onto A): the phase patch requires two consecutive
        // agreeing extractions instead (phaseCorrectConfirmed).
        const bool confirmed = verified
            && semantics_ == CorrectionSemantics::ApplyFix;
        std::copy(active, active + words_, pending_.begin());
        while (any(pending_.data(), words_)) {
            prepareBlock(batch_detail::blockA, verified,
                         pending_.data());
            prepareBlock(batch_detail::blockB, verified,
                         pending_.data());
            correctStage(false, batch_detail::blockA,
                         batch_detail::blockB, pending_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(survivors_.data() + w,
                         O::load(pending_.data() + w)
                             & O::load(ok_.data() + w));
            });
            if (!any(survivors_.data(), words_)) {
                std::fill(done_.begin(), done_.end(), Word{0});
            } else if (confirmed) {
                phaseCorrectConfirmed(batch_detail::blockA,
                                      batch_detail::blockC,
                                      survivors_.data());
                std::copy(survivors_.begin(), survivors_.end(),
                          done_.begin());
            } else {
                prepareBlock(batch_detail::blockC, verified,
                             survivors_.data());
                correctStage(true, batch_detail::blockA,
                             batch_detail::blockC,
                             survivors_.data());
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    O::store(done_.data() + w,
                             O::load(survivors_.data() + w)
                                 & O::load(ok_.data() + w));
                });
            }
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(pending_.data() + w,
                         O::load(pending_.data() + w)
                             & ~O::load(done_.data() + w));
            });
        }
    }

    void
    chargeCxMovement(int a, int b, const Word *m)
    {
        for (int i = 0; i < movement_.movesPerCx; ++i)
            inject1(move_, (i & 1) ? b : a, m);
        for (int i = 0; i < movement_.turnsPerCx; ++i)
            inject1(move_, (i & 1) ? b : a, m);
    }

    void
    chargeMeasMovement(int q, const Word *m)
    {
        for (int i = 0; i < movement_.movesPerMeas; ++i)
            inject1(move_, q, m);
    }

    void
    gateH(int q, const Word *m)
    {
        for (int i = 0; i < movement_.movesPer1q; ++i)
            inject1(move_, q, m);
        frame_.applyH(q, m);
        inject1(gate_, q, m);
    }

    void
    gatePrep(int q, const Word *m)
    {
        frame_.clearQubit(q, m);
        inject1(gate_, q, m);
    }

    void
    gateCx(int control, int target, const Word *m)
    {
        chargeCxMovement(control, target, m);
        frame_.applyCx(control, target, m);
        inject2(gate_, control, target, m);
    }

    /**
     * Per-trial recorded-outcome flips of measuring q in the X basis
     * (`xBasis`: phase errors flip the outcome) or the Z basis (bit
     * errors do). The flip stream advances regardless of the mask
     * (width-invariant RNG), over all words in a planned batch and
     * over the trials past their first fault in a naive one; flips
     * outside the mask (or outside draws_, resp. those trials) are
     * discarded. A trial whose first fault is this site flips.
     */
    void
    measureFlip(bool xBasis, int q, const Word *m, Word *out)
    {
        chargeMeasMovement(q, m);
        const Word *plane = xBasis ? frame_.z(q) : frame_.x(q);
        std::fill(out, out + words_, Word{0});
        if (plan_) {
            place(gate_, m);
            gate_.stream.window(rng_, words_, [&](int w, Word f) {
                out[w] = f & gate_.draws[w];
            });
            for (const int t : hits_)
                out[t / 64] |= Word{1} << (t & 63);
        } else {
            const Lanes l = firstFault(gate_, q, -1, true, m);
            gate_.stream.window(rng_, (l.from + 63) / 64,
                                [&](int w, Word f) {
                                    out[w] = f & laneRange(w, 0, l.from);
                                });
            for (int w = l.from / 64; w < (l.to + 63) / 64; ++w)
                out[w] |= laneRange(w, l.from, l.to);
        }
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            O::store(out + w, (O::load(plane + w) ^ O::load(out + w))
                                  & O::load(m + w));
        });
        frame_.clearQubit(q, m);
    }

    void
    basicEncode(int base, const Word *m)
    {
        for (int q = 0; q < SteaneCode::numPhysical; ++q)
            gatePrep(base + q, m);
        for (int seed : SteaneCode::encoderSeeds)
            gateH(base + seed, m);
        for (const auto &cx : SteaneCode::encoderCxs)
            gateCx(base + cx.control, base + cx.target, m);
    }

    /**
     * Verify the block against a 3-qubit cat; on return flip_ holds
     * the rejected trials (subset of m). Tallies attempts/failures.
     */
    void
    verifyBlock(int base, const Word *m)
    {
        using batch_detail::catBase;
        tally_->verifyTrials += batch_detail::popcount(m, words_);

        for (int i = 0; i < 3; ++i)
            gatePrep(catBase + i, m);
        gateH(catBase, m);
        gateCx(catBase, catBase + 1, m);
        gateCx(catBase + 1, catBase + 2, m);

        int cat = catBase;
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (SteaneCode::verifyMask & (SteaneCode::Mask{1} << q)) {
                chargeCxMovement(base + q, cat, m);
                frame_.applyCz(base + q, cat, m);
                inject2(gate_, base + q, cat, m);
                ++cat;
            }
        }

        std::fill(flip_.begin(), flip_.end(), Word{0});
        for (int i = 0; i < 3; ++i) {
            measureFlip(/*xBasis=*/true, catBase + i, m,
                        measTmp_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(flip_.data() + w,
                         O::load(flip_.data() + w)
                             ^ O::load(measTmp_.data() + w));
            });
        }
        tally_->discards +=
            batch_detail::popcount(flip_.data(), words_);
    }

    /**
     * Encode (and, if verified, verify with masked retries) the
     * block for every trial in m. On return all m trials hold an
     * accepted block.
     */
    void
    prepareBlock(int base, bool verified, const Word *m)
    {
        std::copy(m, m + words_, prepMask_.begin());
        for (;;) {
            basicEncode(base, prepMask_.data());
            if (!verified)
                return;
            verifyBlock(base, prepMask_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                O::store(prepMask_.data() + w,
                         O::load(prepMask_.data() + w)
                             & O::load(flip_.data() + w));
            });
            if (!batch_detail::any(prepMask_.data(), words_))
                return;
        }
    }

    /**
     * One syndrome extraction on block A for the trials in m: the
     * transversal CX with the ancilla block (data->ancilla for the
     * bit stage, ancilla->data for the phase stage) and the
     * ancilla's seven readouts (Z basis, resp. X basis) into meas_.
     * Tallies a correction attempt per trial.
     */
    void
    extract(bool phase, int base_a, int base_anc, const Word *m)
    {
        tally_->correctionTrials += batch_detail::popcount(m, words_);
        for (int q = 0; q < SteaneCode::numPhysical; ++q) {
            if (phase)
                gateCx(base_anc + q, base_a + q, m);
            else
                gateCx(base_a + q, base_anc + q, m);
        }
        for (int q = 0; q < SteaneCode::numPhysical; ++q)
            measureFlip(/*xBasis=*/phase, base_anc + q, m,
                        &meas_[static_cast<std::size_t>(q) * wv()]);
    }

    /**
     * One correction stage (bit stage when phase == false, phase
     * stage otherwise) on block A using a fresh ancilla block. On
     * return ok_ holds the trials that keep their block (under
     * DiscardOnSyndrome, trials with a non-trivial syndrome or odd
     * readout parity are dropped; under ApplyFix every trial passes
     * and the decoded patch is applied per trial).
     */
    void
    correctStage(bool phase, int base_a, int base_anc, const Word *m)
    {
        extract(phase, base_a, base_anc, m);
        if (semantics_ == CorrectionSemantics::ApplyFix) {
            applyFixScatter(phase, base_a, m);
            std::copy(m, m + words_, ok_.begin());
            return;
        }
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            const auto r = batch_detail::readout<O>(meas_.data(), wv(), w);
            const auto bad =
                (r.s0 | r.s1 | r.s2 | r.parity) & O::load(m + w);
            O::store(measTmp_.data() + w, bad);
            O::store(ok_.data() + w, O::load(m + w) & ~bad);
        });
        tally_->correctionDiscards +=
            batch_detail::popcount(measTmp_.data(), words_);
    }

    /**
     * Parity-aware patch scatter from the current meas_ readout
     * (SteaneCode::fixFor): over the 15 non-trivial (syndrome,
     * parity) readout classes, trials in a class get the decoded
     * minimal-weight patch (one gate error per patched qubit) on
     * block A — X patches for the bit stage, Z for the phase
     * stage. The patch matches the readout's coset, so correlated
     * even-parity patterns are not "completed" into logical
     * operators (the first-order failure path of a syndrome-only
     * single-qubit decode).
     */
    void
    applyFixScatter(bool phase, int base_a, const Word *m)
    {
        for (int odd = 1; odd >= 0; --odd) {
            for (unsigned s = 0; s < 8; ++s) {
                const SteaneCode::Mask fix =
                    SteaneCode::fixFor(s, odd != 0);
                if (!fix)
                    continue;
                // eq_ := trials in m whose readout class is (s, odd).
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    const auto r =
                        batch_detail::readout<O>(meas_.data(), wv(), w);
                    const auto ones = ~O::zero();
                    const auto zero = O::zero();
                    const auto mismatch =
                        (r.s0 ^ ((s & 1u) ? ones : zero))
                        | (r.s1 ^ ((s & 2u) ? ones : zero))
                        | (r.s2 ^ ((s & 4u) ? ones : zero))
                        | (r.parity ^ (odd ? ones : zero));
                    O::store(eq_.data() + w,
                             ~mismatch & O::load(m + w));
                });
                if (!batch_detail::any(eq_.data(), words_))
                    continue;
                for (int q = 0; q < SteaneCode::numPhysical; ++q) {
                    if (!(fix & (SteaneCode::Mask{1} << q)))
                        continue;
                    if (phase)
                        frame_.flipZ(base_a + q, eq_.data());
                    else
                        frame_.flipX(base_a + q, eq_.data());
                    inject1(gate_, base_a + q, eq_.data());
                }
            }
        }
    }

    /**
     * ApplyFix phase correction for verified pipelines: Shor-style
     * repeated syndrome extraction, mirroring the scalar engine's
     * phaseCorrectConfirmed. Each round preps a fresh verified
     * ancilla for the still-unconfirmed trials, extracts (syndrome,
     * parity), and patches the trials whose extraction agrees with
     * their previous one; the rest carry the new readout into the
     * next round. Each extraction tallies a correction attempt.
     */
    void
    phaseCorrectConfirmed(int base_a, int base_c, const Word *m)
    {
        using batch_detail::any;
        std::copy(m, m + words_, confirm_.begin());
        std::fill(have_.begin(), have_.end(), Word{0});
        while (any(confirm_.data(), words_)) {
            prepareBlock(base_c, /*verified=*/true,
                         confirm_.data());
            extract(/*phase=*/true, base_a, base_c, confirm_.data());
            simd::spans<Ops>(words_, [&](auto ops, int w) {
                using O = decltype(ops);
                const auto r =
                    batch_detail::readout<O>(meas_.data(), wv(), w);
                const auto confirm = O::load(confirm_.data() + w);
                O::store(
                    agree_.data() + w,
                    confirm & O::load(have_.data() + w)
                        & ~((r.s0 ^ O::load(prevS0_.data() + w))
                            | (r.s1 ^ O::load(prevS1_.data() + w))
                            | (r.s2 ^ O::load(prevS2_.data() + w))
                            | (r.parity
                               ^ O::load(prevP_.data() + w))));
                O::store(prevS0_.data() + w, r.s0);
                O::store(prevS1_.data() + w, r.s1);
                O::store(prevS2_.data() + w, r.s2);
                O::store(prevP_.data() + w, r.parity);
                O::store(have_.data() + w,
                         O::load(have_.data() + w) | confirm);
            });
            if (any(agree_.data(), words_)) {
                applyFixScatter(/*phase=*/true, base_a,
                                agree_.data());
                simd::spans<Ops>(words_, [&](auto ops, int w) {
                    using O = decltype(ops);
                    O::store(confirm_.data() + w,
                             O::load(confirm_.data() + w)
                                 & ~O::load(agree_.data() + w));
                });
            }
        }
    }

    /**
     * Word-parallel residual classification of block A. For the
     * Steane code with perfect decoding, the residual is logical iff
     * parity(error) XOR (syndrome != 0): the correction flips one
     * qubit exactly when the syndrome is non-trivial, and a
     * trivial-syndrome residual is a stabilizer (even parity) or a
     * logical representative (odd parity). A unit test checks this
     * identity against SteaneCode::badCoset for all 128 patterns.
     */
    void
    classifyTally(const Word *m)
    {
        if (!batch_detail::any(m, words_))
            return;
        simd::spans<Ops>(words_, [&](auto ops, int w) {
            using O = decltype(ops);
            auto fail = O::zero();
            for (const Word *plane :
                 {frame_.x(batch_detail::blockA),
                  frame_.z(batch_detail::blockA)}) {
                const auto r = batch_detail::readout<O>(plane, wv(), w);
                fail = fail | (r.parity ^ (r.s0 | r.s1 | r.s2));
            }
            O::store(measTmp_.data() + w, fail & O::load(m + w));
        });
        tally_->failures +=
            batch_detail::popcount(measTmp_.data(), words_);
    }

    MovementModel movement_;
    CorrectionSemantics semantics_;
    int words_;
    Rng rng_;
    FaultSites gate_;
    FaultSites move_;
    const FaultPlan *plan_ = nullptr; ///< this batch's, or naive
    PrepEstimate *tally_ = nullptr;   ///< this batch's tallies
    int trials_ = 0;                  ///< this batch's active lanes
    // Naive batch state (firstFault): trials past their first fault,
    // [0, placed_); per nominal site, the trials that fault first
    // there; the next nominal site; the pi/8 coin; a probe's record.
    int placed_ = 0;
    std::vector<std::uint32_t> firstFaults_;
    std::size_t site_ = 0;
    bool coinOn_ = false;
    NominalPath *record_ = nullptr;
    BatchPauliFrameT<Ops> frame_;

    std::vector<Word> meas_; ///< 7 readout-flip planes (7 * words_)
    std::vector<Word> active_;
    std::vector<Word> pending_;
    std::vector<Word> survivors_;
    std::vector<Word> done_;
    std::vector<Word> ok_;
    std::vector<Word> prepMask_;
    std::vector<Word> flip_;
    std::vector<Word> measTmp_;
    std::vector<Word> eq_;
    // Confirmed phase-correction state (syndrome bits + parity of
    // the previous extraction, per trial).
    std::vector<Word> confirm_; ///< trials awaiting confirmation
    std::vector<Word> have_;    ///< trials with a previous readout
    std::vector<Word> agree_;   ///< trials whose extractions agree
    std::vector<Word> prevS0_;
    std::vector<Word> prevS1_;
    std::vector<Word> prevS2_;
    std::vector<Word> prevP_;
    std::vector<Word> coin_;
    std::vector<std::uint32_t> picks_; ///< arm's subset
    std::vector<int> hitBuffer_; ///< every trial, plus place's spare
    std::span<const int> hits_;  ///< a planned site's faults
};

} // namespace qc

#endif // QC_ERROR_BATCH_ENGINE_HH
