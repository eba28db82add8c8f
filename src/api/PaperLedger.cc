#include "api/PaperLedger.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/Experiment.hh"
#include "codes/EncodedOp.hh"
#include "common/Stats.hh"
#include "error/BatchAncillaSim.hh"
#include "factory/Cascade.hh"
#include "factory/FunctionalUnit.hh"
#include "layout/Builders.hh"

namespace qc {

namespace {

/**
 * Every value the paper prints for a ledger row, exactly as printed
 * (percentages without their % sign). Rows absent here are
 * extensions: their "paper" is null and nothing compares them.
 */
const std::map<std::string, std::string> kPaperValues = {
    // Tables 1 and 4: physical operation latencies (us).
    {"table1.t1q_us", "1"},
    {"table1.t2q_us", "10"},
    {"table1.tmeas_us", "50"},
    {"table1.tprep_us", "51"},
    {"table4.tmove_us", "1"},
    {"table4.tturn_us", "10"},

    // Table 2: serial latency split of the 32-bit circuits.
    {"table2.qrca.data_op_us", "29508"},
    {"table2.qrca.data_op_pct", "5.2"},
    {"table2.qrca.qec_interact_us", "95641"},
    {"table2.qrca.qec_interact_pct", "16.7"},
    {"table2.qrca.ancilla_prep_us", "447726"},
    {"table2.qrca.ancilla_prep_pct", "78.2"},
    {"table2.qcla.data_op_us", "3827"},
    {"table2.qcla.data_op_pct", "5.3"},
    {"table2.qcla.qec_interact_us", "11921"},
    {"table2.qcla.qec_interact_pct", "16.7"},
    {"table2.qcla.ancilla_prep_us", "55806"},
    {"table2.qcla.ancilla_prep_pct", "78.0"},
    {"table2.qft.data_op_us", "77057"},
    {"table2.qft.data_op_pct", "5.0"},
    {"table2.qft.qec_interact_us", "365792"},
    {"table2.qft.qec_interact_pct", "23.7"},
    {"table2.qft.ancilla_prep_us", "1097376"},
    {"table2.qft.ancilla_prep_pct", "71.2"},

    // Table 3: average ancilla bandwidth at the speed of data (per
    // ms) and the non-transversal share of the gates.
    {"table3.qrca.zero_per_ms", "34.8"},
    {"table3.qrca.pi8_per_ms", "7.0"},
    {"table3.qrca.non_transversal_pct", "40.5"},
    {"table3.qcla.zero_per_ms", "306.1"},
    {"table3.qcla.pi8_per_ms", "62.7"},
    {"table3.qcla.non_transversal_pct", "41.0"},
    {"table3.qft.zero_per_ms", "36.8"},
    {"table3.qft.pi8_per_ms", "8.6"},
    {"table3.qft.non_transversal_pct", "46.9"},

    // Table 5: zero-factory functional units (us, qubits/ms,
    // macroblocks).
    {"table5.zero_prep.latency_us", "73"},
    {"table5.zero_prep.in_per_ms", "13.7"},
    {"table5.zero_prep.out_per_ms", "13.7"},
    {"table5.zero_prep.area", "1"},
    {"table5.cx_stage.latency_us", "95"},
    {"table5.cx_stage.in_per_ms", "221.1"},
    {"table5.cx_stage.out_per_ms", "221.1"},
    {"table5.cx_stage.area", "28"},
    {"table5.cat_prep.latency_us", "62"},
    {"table5.cat_prep.in_per_ms", "96.8"},
    {"table5.cat_prep.out_per_ms", "96.8"},
    {"table5.cat_prep.area", "6"},
    {"table5.verify.latency_us", "82"},
    {"table5.verify.in_per_ms", "122.0"},
    {"table5.verify.out_per_ms", "85.2"},
    {"table5.verify.area", "10"},
    {"table5.bp_correct.latency_us", "138"},
    {"table5.bp_correct.in_per_ms", "152.2"},
    {"table5.bp_correct.out_per_ms", "50.7"},
    {"table5.bp_correct.area", "21"},

    // Table 6: the pipelined zero factory.
    {"table6.zero_prep.count", "24"},
    {"table6.zero_prep.height", "24"},
    {"table6.cx_stage.count", "1"},
    {"table6.cx_stage.height", "4"},
    {"table6.cat_prep.count", "1"},
    {"table6.cat_prep.height", "2"},
    {"table6.verify.count", "3"},
    {"table6.verify.height", "30"},
    {"table6.bp_correct.count", "2"},
    {"table6.bp_correct.height", "42"},
    {"table6.unit_area", "130"},
    {"table6.crossbar_area", "168"},
    {"table6.total_area", "298"},
    {"table6.throughput_per_ms", "10.5"},

    // Table 7: pi/8-factory stages.
    {"table7.cat_prep.latency_us", "218"},
    {"table7.cat_prep.in_per_ms", "32.1"},
    {"table7.cat_prep.out_per_ms", "32.1"},
    {"table7.cat_prep.area", "12"},
    {"table7.transversal.latency_us", "53"},
    {"table7.transversal.in_per_ms", "264.2"},
    {"table7.transversal.out_per_ms", "264.2"},
    {"table7.transversal.area", "7"},
    {"table7.decode.latency_us", "218"},
    {"table7.decode.in_per_ms", "64.2"},
    {"table7.decode.out_per_ms", "36.7"},
    {"table7.decode.area", "19"},
    {"table7.fixup.latency_us", "74"},
    {"table7.fixup.in_per_ms", "108.1"},
    {"table7.fixup.out_per_ms", "94.6"},
    {"table7.fixup.area", "8"},

    // Table 8: the pipelined pi/8 factory.
    {"table8.cat_prep.count", "4"},
    {"table8.cat_prep.height", "24"},
    {"table8.transversal.count", "1"},
    {"table8.transversal.height", "7"},
    {"table8.decode.count", "4"},
    {"table8.decode.height", "52"},
    {"table8.fixup.count", "2"},
    {"table8.fixup.height", "16"},
    {"table8.unit_area", "147"},
    {"table8.crossbar_area", "256"},
    {"table8.total_area", "403"},
    {"table8.throughput_per_ms", "18.3"},
    {"table8.zero_input_per_ms", "18.3"},

    // Table 9: chip area at the speed of data (macroblocks).
    {"table9.qrca.data_area", "679"},
    {"table9.qrca.data_pct", "33.6"},
    {"table9.qrca.qec_area", "986.9"},
    {"table9.qrca.qec_pct", "48.8"},
    {"table9.qrca.pi8_area", "354.7"},
    {"table9.qrca.pi8_pct", "17.6"},
    {"table9.qcla.data_area", "861"},
    {"table9.qcla.data_pct", "6.8"},
    {"table9.qcla.qec_area", "8682.2"},
    {"table9.qcla.qec_pct", "68.4"},
    {"table9.qcla.pi8_area", "3154.4"},
    {"table9.qcla.pi8_pct", "24.8"},
    {"table9.qft.data_area", "224"},
    {"table9.qft.data_pct", "13.2"},
    {"table9.qft.qec_area", "1043.5"},
    {"table9.qft.qec_pct", "61.3"},
    {"table9.qft.pi8_area", "433.7"},
    {"table9.qft.pi8_pct", "25.5"},

    // Figure 4: encoded-zero prep error rates (the paper's in-place
    // fix-up semantics) and the verification failure rate.
    {"fig4.basic.error_rate", "1.8e-3"},
    {"fig4.verify_only.error_rate", "3.7e-4"},
    {"fig4.correct_only.error_rate", "1.1e-3"},
    {"fig4.verify_and_correct.error_rate", "2.9e-5"},
    {"fig4.verify_fail_pct", "0.2"},
};

/** The rows of one ledger, each id added exactly once. */
class Ledger
{
  public:
    void
    add(const std::string &id, double measured)
    {
        put(id, row(id, measured));
    }

    /** A Monte Carlo row: the estimate and its 95% interval. */
    void
    add(const std::string &id, double measured, Interval ci)
    {
        Json r = row(id, measured);
        r.set("ci_lo", ci.lo);
        r.set("ci_hi", ci.hi);
        put(id, std::move(r));
    }

    /** The finished rows; every paper value must have a row. */
    const Json &
    rows() const
    {
        for (const auto &[id, printed] : kPaperValues) {
            if (!rows_.has(id))
                throw std::logic_error(
                    "paper ledger: no measured row for \"" + id + "\"");
        }
        return rows_;
    }

  private:
    static Json
    row(const std::string &id, double measured)
    {
        const auto paper = kPaperValues.find(id);
        Json r = Json::object();
        r.set("measured", measured);
        r.set("paper",
              paper == kPaperValues.end() ? Json() : Json(paper->second));
        return r;
    }

    void
    put(const std::string &id, Json r)
    {
        if (rows_.has(id))
            throw std::logic_error("paper ledger: duplicate row \"" + id
                                   + "\"");
        rows_.set(id, std::move(r));
    }

    Json rows_ = Json::object();
};

/** Tables 1 and 4, and the composite latencies built on them. */
void
techRows(Ledger &ledger)
{
    const IonTrapParams tech = IonTrapParams::paper();
    ledger.add("table1.t1q_us", toUs(tech.t1q));
    ledger.add("table1.t2q_us", toUs(tech.t2q));
    ledger.add("table1.tmeas_us", toUs(tech.tmeas));
    ledger.add("table1.tprep_us", toUs(tech.tprep));
    ledger.add("table4.tmove_us", toUs(tech.tmove));
    ledger.add("table4.tturn_us", toUs(tech.tturn));

    const EncodedOpModel model(tech);
    ledger.add("derived.qec_interact_us",
               toUs(model.qecInteractLatency()));
    ledger.add("derived.pi8_interact_us",
               toUs(model.pi8InteractLatency()));
    ledger.add("derived.zero_prep_us", toUs(model.zeroPrepLatency()));
    ledger.add("derived.pi8_prep_us", toUs(model.pi8PrepLatency()));
}

/**
 * Tables 2, 3 and 9, Figure 7 and the Qalypso tile-size ablation:
 * the three 32-bit paper workloads at the speed of data.
 */
void
workloadRows(Ledger &ledger)
{
    const EncodedOpModel model(IonTrapParams::paper());
    FowlerSynth synth(ExperimentConfig::paper("qrca").synth);
    for (const char *key : {"qrca", "qcla", "qft"}) {
        const std::string name = key;
        const ExperimentConfig config = ExperimentConfig::paper(name);
        const SharedWorkload shared =
            makeSharedWorkload(WorkloadRegistry::instance().build(
                name, synth, config.params));
        const Result r = Experiment(config, shared).run();

        const std::string t2 = "table2." + name + ".";
        ledger.add(t2 + "data_op_us", toUs(r.split.dataOp));
        ledger.add(t2 + "data_op_pct", 100 * r.split.dataOpShare());
        ledger.add(t2 + "qec_interact_us", toUs(r.split.qecInteract));
        ledger.add(t2 + "qec_interact_pct",
                   100 * r.split.qecInteractShare());
        ledger.add(t2 + "ancilla_prep_us", toUs(r.split.ancillaPrep));
        ledger.add(t2 + "ancilla_prep_pct",
                   100 * r.split.ancillaPrepShare());

        const std::string t3 = "table3." + name + ".";
        ledger.add(t3 + "runtime_ms", toMs(r.bandwidth.runtime));
        ledger.add(t3 + "zero_per_ms", r.bandwidth.zeroPerMs());
        ledger.add(t3 + "pi8_per_ms", r.bandwidth.pi8PerMs());
        ledger.add(t3 + "zeros",
                   static_cast<double>(r.bandwidth.zerosConsumed));
        ledger.add(t3 + "pi8s",
                   static_cast<double>(r.bandwidth.pi8Consumed));
        ledger.add(t3 + "non_transversal_pct",
                   100 * static_cast<double>(r.pi8Gates)
                       / static_cast<double>(r.gates));

        const Area data = dataQubitArea() * r.qubits;
        const Area total = data + r.allocation.totalArea();
        const std::string t9 = "table9." + name + ".";
        ledger.add(t9 + "data_area", data);
        ledger.add(t9 + "data_pct", 100 * data / total);
        ledger.add(t9 + "qec_area", r.allocation.qecArea());
        ledger.add(t9 + "qec_pct", 100 * r.allocation.qecArea() / total);
        ledger.add(t9 + "pi8_area", r.allocation.pi8Area());
        ledger.add(t9 + "pi8_pct", 100 * r.allocation.pi8Area() / total);

        ledger.add("fig7." + name + ".peak_in_flight",
                   *std::max_element(r.demandProfile.begin(),
                                     r.demandProfile.end()));

        // One total factory budget at every tile size, so only the
        // organization varies.
        for (int tile : {8, 16, 32, 64, 128, 256}) {
            if (tile > 2 * r.qubits)
                break;
            QalypsoConfig tiled;
            tiled.tileSize = tile;
            tiled.factoryAreaPerTile =
                4000.0 / ((r.qubits + tile - 1) / tile);
            const QalypsoRunResult run =
                runQalypso(*shared.graph, model, tiled);
            const std::string t = "ablation.tile." + name + ".t"
                + std::to_string(tile) + ".";
            ledger.add(t + "makespan_ms", toMs(run.makespan));
            ledger.add(t + "inter_tile_pct",
                       100 * run.interTileFraction());
            ledger.add(t + "teleports",
                       static_cast<double>(run.teleports));
        }
    }
}

/** Per-unit rows of Table 5 or 7, units in pipeline order. */
void
unitRows(Ledger &ledger, const std::string &table,
         const std::vector<std::string> &keys,
         const std::vector<const FunctionalUnitSpec *> &units)
{
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const FunctionalUnitSpec &u = *units.at(i);
        const std::string id = table + "." + keys[i] + ".";
        ledger.add(id + "latency_us", toUs(u.latency));
        ledger.add(id + "stages", u.stages);
        ledger.add(id + "in_per_ms", u.inBandwidth());
        ledger.add(id + "out_per_ms", u.outBandwidth());
        ledger.add(id + "area", u.area);
    }
}

/** Stage counts, crossbars and totals of Table 6 or 8. */
template <typename Factory>
void
designRows(Ledger &ledger, const std::string &table,
           const std::vector<std::string> &keys, const Factory &factory)
{
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const StageDesign &s = factory.stages().at(i);
        const std::string id = table + "." + keys[i] + ".";
        ledger.add(id + "count", s.count);
        ledger.add(id + "height", s.totalHeight());
        ledger.add(id + "area", s.totalArea());
    }
    for (std::size_t i = 0; i < factory.crossbars().size(); ++i) {
        const CrossbarDesign &c = factory.crossbars()[i];
        const std::string id =
            table + ".crossbar" + std::to_string(i + 1) + ".";
        ledger.add(id + "columns", c.columns);
        ledger.add(id + "height", c.height);
    }
    ledger.add(table + ".unit_area", factory.functionalUnitArea());
    ledger.add(table + ".crossbar_area", factory.crossbarArea());
    ledger.add(table + ".total_area", factory.totalArea());
    ledger.add(table + ".throughput_per_ms", factory.throughput());
    ledger.add(table + ".latency_us", toUs(factory.latency()));
}

/** Tables 5-8: the pipelined zero and pi/8 factories. */
void
factoryRows(Ledger &ledger)
{
    const IonTrapParams tech = IonTrapParams::paper();
    const std::vector<std::string> zeroKeys = {
        "zero_prep", "cx_stage", "cat_prep", "verify", "bp_correct"};
    const ZeroFactoryUnits zeroUnits(tech, 0.998);
    unitRows(ledger, "table5", zeroKeys,
             {&zeroUnits.zeroPrep, &zeroUnits.cxStage,
              &zeroUnits.catPrep, &zeroUnits.verify,
              &zeroUnits.bpCorrect});
    designRows(ledger, "table6", zeroKeys, ZeroFactory(tech, 0.998));

    const std::vector<std::string> pi8Keys = {"cat_prep", "transversal",
                                              "decode", "fixup"};
    const Pi8FactoryUnits pi8Units(tech);
    unitRows(ledger, "table7", pi8Keys,
             {&pi8Units.catPrep7, &pi8Units.transversal,
              &pi8Units.decode, &pi8Units.fixup});
    const Pi8Factory pi8(tech);
    designRows(ledger, "table8", pi8Keys, pi8);
    ledger.add("table8.zero_input_per_ms", pi8.zeroInputBandwidth());
}

/**
 * Figures 4 and 5b: Monte Carlo prep error rates at the paper's
 * error rates, with the seed and trial count of the shipped Figure 4
 * sweep (specs/fig4_grid.json).
 */
void
monteCarloRows(Ledger &ledger)
{
    constexpr std::uint64_t kSeed = 20080623;
    constexpr std::uint64_t kTrials = 2000000;
    const MovementModel movement = calibrateMovement(
        buildSimpleFactory(), IonTrapParams::paper());
    BatchSimConfig batch;
    batch.threads = 1;
    const struct
    {
        const char *key;
        ZeroPrepStrategy strategy;
    } strategies[] = {
        {"basic", ZeroPrepStrategy::Basic},
        {"verify_only", ZeroPrepStrategy::VerifyOnly},
        {"correct_only", ZeroPrepStrategy::CorrectOnly},
        {"verify_and_correct", ZeroPrepStrategy::VerifyAndCorrect},
    };

    // The paper's Fig 4b/4c apply the decoded fix in place.
    BatchAncillaSim applyFix(ErrorParams::paper(), movement, kSeed,
                             CorrectionSemantics::ApplyFix, batch);
    for (const auto &s : strategies) {
        const PrepEstimate est = applyFix.estimate(s.strategy, kTrials);
        ledger.add(std::string("fig4.") + s.key + ".error_rate",
                   est.errorRate(), est.errorInterval());
        if (s.strategy == ZeroPrepStrategy::VerifyOnly) {
            const Interval ci =
                wilsonInterval(est.discards, est.verifyTrials);
            ledger.add("fig4.verify_fail_pct", 100 * est.discardRate(),
                       {100 * ci.lo, 100 * ci.hi});
        }
    }

    // Extension: a factory that recycles every block with a detected
    // error, as the factory throughput model assumes. Only the two
    // correcting strategies depend on the semantics.
    BatchAncillaSim recycle(ErrorParams::paper(), movement, kSeed,
                            CorrectionSemantics::DiscardOnSyndrome,
                            batch);
    for (const auto &s : strategies) {
        if (s.strategy != ZeroPrepStrategy::CorrectOnly
            && s.strategy != ZeroPrepStrategy::VerifyAndCorrect)
            continue;
        const PrepEstimate est = recycle.estimate(s.strategy, kTrials);
        ledger.add(std::string("fig4.discard.") + s.key + ".error_rate",
                   est.errorRate(), est.errorInterval());
    }
    const PrepEstimate pi8 = recycle.estimatePi8(kTrials);
    ledger.add("fig5b.pi8.error_rate", pi8.errorRate(),
               pi8.errorInterval());
}

/**
 * Figure 6 ablation: the exact pi/2^k cascade against the {H, T}
 * word a deeper search (7 syllables) finds for the same rotation,
 * by data critical path per rotation.
 */
void
cascadeRows(Ledger &ledger)
{
    const IonTrapParams tech = IonTrapParams::paper();
    const EncodedOpModel model(tech);
    FowlerSynth synth(FowlerSynth::Options{/*maxSyllables=*/7});
    for (int k = 3; k <= 10; ++k) {
        const ApproxSequence &word = synth.rotZ(k);
        // T gates are ancilla interactions, Cliffords transversal;
        // each gate is followed by its QEC interaction.
        Time latency = 0;
        for (GateKind g : word.gates) {
            Gate gate;
            gate.kind = g;
            gate.ops = {0, invalidQubit, invalidQubit};
            latency += model.dataLatency(gate) + model.qecInteractLatency();
        }
        const std::string id =
            "ablation.cascade.k" + std::to_string(k) + ".";
        ledger.add(id + "word_gates", word.size());
        ledger.add(id + "word_t_count", word.tCount());
        ledger.add(id + "word_error", word.error);
        ledger.add(id + "word_latency_us", toUs(latency));
        ledger.add(id + "cascade_cx", CascadeModel::expectedCxCount(k));
        ledger.add(id + "cascade_latency_us",
                   toUs(CascadeModel::expectedDataLatency(k, tech)));
    }
}

/**
 * Section 5.3 ablation: the simple (Fig 11) zero factory against the
 * pipelined one (Fig 12, Table 6), and how many of each reach a
 * bandwidth target.
 */
void
factoryAblationRows(Ledger &ledger)
{
    const SimpleZeroFactory simple;
    const ZeroFactory pipelined;
    ledger.add("ablation.factory.simple.area", simple.area());
    ledger.add("ablation.factory.simple.throughput_per_ms",
               simple.throughput());
    ledger.add("ablation.factory.simple.latency_us",
               toUs(simple.latency()));
    for (int target : {10, 35, 100, 306}) {
        const std::string id =
            "ablation.factory.target_" + std::to_string(target) + ".";
        ledger.add(id + "simple_replicas",
                   std::ceil(target / simple.throughput()));
        ledger.add(id + "pipelined_factories",
                   std::ceil(target / pipelined.throughput()));
    }
}

} // namespace

Json
paperLedger()
{
    Ledger ledger;
    techRows(ledger);
    workloadRows(ledger);
    factoryRows(ledger);
    monteCarloRows(ledger);
    cascadeRows(ledger);
    factoryAblationRows(ledger);
    return ledger.rows();
}

} // namespace qc
