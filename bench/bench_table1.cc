/**
 * @file
 * Table 1: base machine parameters. Prints the configuration the
 * simulator instantiates so it can be eyeballed against the paper.
 */

#include "bench/bench_util.hh"
#include "isa/decode.hh"

using namespace vpir;
using namespace vpir::bench;

void
runTable1(Runner &)
{
    banner("Table 1", "details of the base simulator");
    CoreParams p = baseConfig();

    TextTable t({"parameter", "this simulator", "paper"});
    t.addRow({"fetch width", std::to_string(p.fetchWidth),
              "4 insts/cycle, 1 taken branch, no line crossing"});
    t.addRow({"icache",
              std::to_string(p.icache.sizeBytes / 1024) + "KB " +
                  std::to_string(p.icache.ways) + "-way " +
                  std::to_string(p.icache.lineBytes) + "B line, " +
                  std::to_string(p.icache.missLatency) + "-cycle miss",
              "64KB 2-way 32B, 6-cycle miss"});
    t.addRow({"branch predictor",
              "gshare " + std::to_string(p.bpred.historyBits) +
                  "-bit history, " +
                  std::to_string(p.bpred.tableEntries / 1024) +
                  "K counters",
              "gshare, 10-bit history, 16K counters"});
    t.addRow({"issue",
              "OoO " + std::to_string(p.issueWidth) + " ops/cycle, " +
                  std::to_string(p.robEntries) + "-entry ROB, " +
                  std::to_string(p.lsqEntries) + "-entry LSQ, " +
                  std::to_string(p.maxUnresolvedBranches) +
                  " unresolved branches",
              "OoO 4/cycle, 32 ROB, 32 LSQ, 8 branches"});
    t.addRow({"int ALUs", std::to_string(fuPoolSize(FuType::IntAlu)),
              "8"});
    t.addRow({"load/store units",
              std::to_string(fuPoolSize(FuType::LoadStore)), "2"});
    t.addRow({"FP adders", std::to_string(fuPoolSize(FuType::FpAdder)),
              "4"});
    t.addRow({"int mult/div",
              std::to_string(fuPoolSize(FuType::IntMulDiv)), "1"});
    t.addRow({"FP mult/div",
              std::to_string(fuPoolSize(FuType::FpMulDiv)), "1"});
    t.addRow({"int alu latency",
              std::to_string(decodeInfo(Op::ADD).opLat) + "/" +
                  std::to_string(decodeInfo(Op::ADD).issueLat),
              "1/1"});
    t.addRow({"int mult latency",
              std::to_string(decodeInfo(Op::MULT).opLat) + "/" +
                  std::to_string(decodeInfo(Op::MULT).issueLat),
              "3/1"});
    t.addRow({"int div latency",
              std::to_string(decodeInfo(Op::DIV).opLat) + "/" +
                  std::to_string(decodeInfo(Op::DIV).issueLat),
              "20/19"});
    t.addRow({"fp add latency",
              std::to_string(decodeInfo(Op::ADD_D).opLat) + "/" +
                  std::to_string(decodeInfo(Op::ADD_D).issueLat),
              "2/1"});
    t.addRow({"fp mult latency",
              std::to_string(decodeInfo(Op::MUL_D).opLat) + "/" +
                  std::to_string(decodeInfo(Op::MUL_D).issueLat),
              "4/1"});
    t.addRow({"fp div latency",
              std::to_string(decodeInfo(Op::DIV_D).opLat) + "/" +
                  std::to_string(decodeInfo(Op::DIV_D).issueLat),
              "12/12"});
    t.addRow({"fp sqrt latency",
              std::to_string(decodeInfo(Op::SQRT_D).opLat) + "/" +
                  std::to_string(decodeInfo(Op::SQRT_D).issueLat),
              "24/24"});
    t.addRow({"dcache",
              std::to_string(p.dcache.sizeBytes / 1024) + "KB " +
                  std::to_string(p.dcache.ways) + "-way " +
                  std::to_string(p.dcache.lineBytes) + "B line, " +
                  std::to_string(p.dcache.missLatency) +
                  "-cycle miss, " + std::to_string(p.dcachePorts) +
                  " ports",
              "64KB 2-way 32B, 6-cycle miss, dual ported"});
    t.addRow({"VPT (VP runs)", "16K entries, 4-way, LRU",
              "16K entries, 4-way, LRU"});
    t.addRow({"RB (IR runs)", "4K entries, 4-way, LRU",
              "4K entries, 4-way, LRU"});
    std::printf("%s\n", t.render().c_str());
}
