#include "fuzz/generator.hh"

#include <cstdio>

#include "common/rng.hh"
#include "workload/wregs.hh"

namespace vpir
{
namespace fuzz
{

namespace
{

using namespace wreg;

/** Registers gadgets may freely clobber. Everything structural —
 *  S0/S2/S6 (data bases), S1 (outer counter), S4 (inner counter,
 *  owned by the squash-loop gadget), RA, T8/T9 (leaf temps) — is
 *  deliberately absent, which is what makes termination provable. */
constexpr RegId IPOOL[] = {T0, T1, T2, T3, T4, T5, T6, T7,
                           V0, V1, A0, A1, A2, A3};
constexpr unsigned IPOOL_N = sizeof(IPOOL) / sizeof(IPOOL[0]);
constexpr unsigned FPOOL_N = 8; //!< f0..f7

constexpr unsigned SCRATCH_BYTES = 1024; //!< 256 words
constexpr unsigned FPDATA_DWORDS = 16;

/** Program shape: a few-thousand-instruction run. */
constexpr int32_t OUTER_ITERS = 24; //!< trip count of the outer loop
constexpr unsigned GADGETS = 40;    //!< random gadgets per loop body

/** Gadget emitter: owns the label counter and the one Rng stream. */
struct Gen
{
    Assembler &a;
    Rng rng;

    unsigned labelN = 0;

    explicit Gen(Assembler &as, uint64_t seed) : a(as), rng(seed) {}

    std::string
    lbl(const char *stem)
    {
        return std::string(stem) + "_" + std::to_string(labelN++);
    }

    RegId ir() { return IPOOL[rng.below(IPOOL_N)]; }
    RegId fr() { return fpReg(static_cast<unsigned>(rng.below(FPOOL_N))); }

    int32_t byteOff() { return static_cast<int32_t>(rng.below(SCRATCH_BYTES)); }
    int32_t halfOff() { return byteOff() & ~1; }
    int32_t wordOff() { return byteOff() & ~3; }
    int32_t dwordOff() { return static_cast<int32_t>(rng.below(FPDATA_DWORDS)) * 8; }

    int32_t smallImm() { return static_cast<int32_t>(rng.range(-512, 512)); }

    // --- gadgets ------------------------------------------------------

    /** Random integer ALU register ops. */
    void
    aluReg()
    {
        unsigned n = static_cast<unsigned>(rng.range(2, 5));
        for (unsigned i = 0; i < n; ++i) {
            RegId d = ir(), s = ir(), t = ir();
            switch (rng.below(8)) {
              case 0: a.add(d, s, t); break;
              case 1: a.sub(d, s, t); break;
              case 2: a.and_(d, s, t); break;
              case 3: a.or_(d, s, t); break;
              case 4: a.xor_(d, s, t); break;
              case 5: a.nor(d, s, t); break;
              case 6: a.slt(d, s, t); break;
              default: a.sltu(d, s, t); break;
            }
        }
    }

    /** Random integer ALU immediate ops. */
    void
    aluImm()
    {
        unsigned n = static_cast<unsigned>(rng.range(2, 4));
        for (unsigned i = 0; i < n; ++i) {
            RegId d = ir(), s = ir();
            switch (rng.below(8)) {
              case 0: a.addi(d, s, smallImm()); break;
              case 1: a.andi(d, s, static_cast<int32_t>(rng.below(0xffff))); break;
              case 2: a.ori(d, s, static_cast<int32_t>(rng.below(0xffff))); break;
              case 3: a.xori(d, s, static_cast<int32_t>(rng.below(0xffff))); break;
              case 4: a.slti(d, s, smallImm()); break;
              case 5: a.sltiu(d, s, smallImm()); break;
              case 6: a.lui(d, static_cast<int32_t>(rng.below(0xffff))); break;
              default: a.li(d, static_cast<int32_t>(rng.next())); break;
            }
        }
    }

    /** Immediate and variable shifts (executor masks amounts to 5 bits). */
    void
    shifts()
    {
        RegId d = ir(), s = ir();
        switch (rng.below(6)) {
          case 0: a.sll(d, s, static_cast<unsigned>(rng.below(32))); break;
          case 1: a.srl(d, s, static_cast<unsigned>(rng.below(32))); break;
          case 2: a.sra(d, s, static_cast<unsigned>(rng.below(32))); break;
          case 3: a.sllv(d, s, ir()); break;
          case 4: a.srlv(d, s, ir()); break;
          default: a.srav(d, s, ir()); break;
        }
    }

    /** VP fodder: a constant-stride accumulator spilled to a fixed
     *  slot and reloaded — last-value/stride predictable on both the
     *  register result and the load. */
    void
    predictChain()
    {
        RegId r = ir();
        int32_t k = static_cast<int32_t>(rng.range(1, 7));
        int32_t slot = wordOff();
        a.li(r, static_cast<int32_t>(rng.below(1000)));
        unsigned n = static_cast<unsigned>(rng.range(2, 5));
        for (unsigned i = 0; i < n; ++i)
            a.addi(r, r, k);
        a.sw(r, S0, slot);
        a.lw(ir(), S0, slot);
    }

    /** IR fodder: a dependence chain whose operands are re-materialised
     *  from constants, so every outer iteration presents the reuse
     *  buffer with identical (pc, operands) instances. */
    void
    reuseChain()
    {
        RegId x = ir(), y = ir();
        a.li(x, static_cast<int32_t>(rng.below(256)));
        a.li(y, static_cast<int32_t>(rng.below(256)));
        RegId d1 = ir(), d2 = ir(), d3 = ir();
        a.add(d1, x, y);
        a.xor_(d2, d1, y);
        a.slt(d3, d2, x);
        if (rng.chance(1, 2))
            a.sw(d1, S0, wordOff());
    }

    /** Random-width memory traffic over the scratch array. */
    void
    memMix()
    {
        unsigned n = static_cast<unsigned>(rng.range(3, 6));
        for (unsigned i = 0; i < n; ++i) {
            RegId r = ir();
            switch (rng.below(10)) {
              case 0: a.lb(r, S0, byteOff()); break;
              case 1: a.lbu(r, S0, byteOff()); break;
              case 2: a.lh(r, S0, halfOff()); break;
              case 3: a.lhu(r, S0, halfOff()); break;
              case 4: a.lw(r, S0, wordOff()); break;
              case 5: a.sb(r, S0, byteOff()); break;
              case 6: a.sh(r, S0, halfOff()); break;
              case 7: a.sw(r, S0, wordOff()); break;
              case 8: a.ld(fr(), S2, dwordOff()); break;
              default: a.sd(fr(), S2, dwordOff()); break;
            }
        }
    }

    /** Store/load aliasing: same-word and sub-word partial overlaps
     *  in close succession, the reuse buffer's invalidation and the
     *  LSQ's disambiguation worst case. */
    void
    aliasing()
    {
        int32_t w = wordOff();
        a.sw(ir(), S0, w);
        switch (rng.below(3)) {
          case 0: a.sb(ir(), S0, w + static_cast<int32_t>(rng.below(4))); break;
          case 1: a.sh(ir(), S0, w + (rng.chance(1, 2) ? 2 : 0)); break;
          default: a.sw(ir(), S0, w); break;
        }
        a.lw(ir(), S0, w);
        if (rng.chance(1, 2))
            a.lhu(ir(), S0, w + 2);
        if (rng.chance(1, 3)) {
            // Load, overwrite, reload: a stale reuse of the first
            // load's value is an early-validation bug.
            a.lbu(ir(), S0, w + 1);
            a.sb(ir(), S0, w + 1);
            a.lbu(ir(), S0, w + 1);
        }
    }

    /** Multiply/divide and HI/LO reads (div-by-zero is defined). */
    void
    mulDiv()
    {
        RegId s = ir(), t = ir();
        switch (rng.below(4)) {
          case 0: a.mult(s, t); break;
          case 1: a.multu(s, t); break;
          case 2: a.div(s, t); break;
          default: a.divu(s, t); break;
        }
        if (rng.chance(2, 3))
            a.mfhi(ir());
        a.mflo(ir());
    }

    /** Double-precision arithmetic over the FP pool. Values may run
     *  off to inf/NaN — fine for FP ops and compares; only the cvt
     *  gadget converts to int, and only from bounded values. */
    void
    fpArith()
    {
        if (rng.chance(1, 2))
            a.ld(fr(), S2, dwordOff());
        unsigned n = static_cast<unsigned>(rng.range(2, 4));
        for (unsigned i = 0; i < n; ++i) {
            RegId d = fr(), s = fr(), t = fr();
            switch (rng.below(6)) {
              case 0: a.add_d(d, s, t); break;
              case 1: a.sub_d(d, s, t); break;
              case 2: a.mul_d(d, s, t); break;
              case 3: a.div_d(d, s, t); break;
              case 4: a.mov_d(d, s); break;
              default: a.neg_d(d, s); break;
            }
        }
        if (rng.chance(1, 2))
            a.sd(fr(), S2, dwordOff());
    }

    /** FP compare + branch on the condition code. */
    void
    fpCmpBranch()
    {
        std::string skip = lbl("fcb");
        switch (rng.below(3)) {
          case 0: a.c_eq_d(fr(), fr()); break;
          case 1: a.c_lt_d(fr(), fr()); break;
          default: a.c_le_d(fr(), fr()); break;
        }
        if (rng.chance(1, 2))
            a.bc1t(skip);
        else
            a.bc1f(skip);
        a.add_d(fr(), fr(), fr());
        a.addi(ir(), ir(), smallImm());
        a.label(skip);
    }

    /** Int<->double conversion round trip, bounded so CVT_W_D never
     *  sees an unrepresentable double. */
    void
    cvt()
    {
        RegId f = fr();
        a.andi(S5, ir(), 1023);
        a.cvt_d_w(f, S5);
        if (rng.chance(1, 3))
            a.sqrt_d(f, f);
        a.cvt_w_d(ir(), f);
    }

    /** Conditional forward branch over a short block. */
    void
    condBranch()
    {
        std::string skip = lbl("cb");
        RegId s = ir(), t = ir();
        switch (rng.below(6)) {
          case 0: a.beq(s, t, skip); break;
          case 1: a.bne(s, t, skip); break;
          case 2: a.blez(s, skip); break;
          case 3: a.bgtz(s, skip); break;
          case 4: a.bltz(s, skip); break;
          default: a.bgez(s, skip); break;
        }
        unsigned n = static_cast<unsigned>(rng.range(1, 3));
        for (unsigned i = 0; i < n; ++i) {
            if (rng.chance(1, 4))
                a.sw(ir(), S0, wordOff());
            else
                a.addi(ir(), ir(), smallImm());
        }
        a.label(skip);
    }

    /** Unconditional jump over a dead block: the block is only ever
     *  fetched on the wrong path, stressing squash/rollback. */
    void
    jumpSkip()
    {
        std::string skip = lbl("js");
        a.j(skip);
        unsigned n = static_cast<unsigned>(rng.range(1, 3));
        for (unsigned i = 0; i < n; ++i) {
            switch (rng.below(3)) {
              case 0: a.lw(ir(), S0, wordOff()); break;
              case 1: a.sw(ir(), S0, wordOff()); break;
              default: a.addi(ir(), ir(), smallImm()); break;
            }
        }
        a.label(skip);
    }

    /** Direct call to a leaf. */
    void
    call()
    {
        a.jal(rng.chance(1, 2) ? "leaf_a" : "leaf_b");
    }

    /** Indirect call through the patched jump table. */
    void
    indirectCall()
    {
        a.lw(T9, S6, static_cast<int32_t>(rng.below(2)) * 4);
        a.jalr(RA, T9);
    }

    /** Tight counted loop with a data-dependent branch inside: the
     *  paper's squash storm. S4 is this gadget's private counter. */
    void
    squashLoop()
    {
        std::string top = lbl("sq"), skip = lbl("sqs");
        int32_t slot = wordOff();
        a.li(S4, static_cast<int32_t>(rng.range(2, 5)));
        a.label(top);
        if (rng.chance(1, 2))
            a.lw(S5, S0, slot);
        else
            a.lbu(S5, S0, byteOff());
        a.andi(S5, S5, 1);
        if (rng.chance(1, 2))
            a.bne(S5, ZERO, skip);
        else
            a.beq(S5, ZERO, skip);
        a.addi(ir(), ir(), static_cast<int32_t>(rng.range(1, 9)));
        a.sw(ir(), S0, slot); // perturb the tested value
        a.label(skip);
        a.addi(S4, S4, -1);
        a.bgtz(S4, top);
    }

    /** Pipeline bubbles. */
    void
    nopFill()
    {
        unsigned n = static_cast<unsigned>(rng.range(1, 2));
        for (unsigned i = 0; i < n; ++i)
            a.nop();
    }

    /** Emit one weighted-random gadget. */
    void
    emitGadget()
    {
        uint64_t w = rng.below(100);
        if (w < 12) aluReg();
        else if (w < 22) aluImm();
        else if (w < 27) shifts();
        else if (w < 35) predictChain();
        else if (w < 43) reuseChain();
        else if (w < 53) memMix();
        else if (w < 61) aliasing();
        else if (w < 66) mulDiv();
        else if (w < 73) fpArith();
        else if (w < 79) fpCmpBranch();
        else if (w < 83) cvt();
        else if (w < 91) condBranch();
        else if (w < 94) jumpSkip();
        else if (w < 97) call();
        else if (w < 99) indirectCall();
        else nopFill();
    }
};

/**
 * A fixed straight-line block that exercises every opcode once with
 * safe values, emitted before the random loop. This guarantees full
 * static Op coverage in every generated program regardless of seed —
 * the round-trip tests rely on it — and doubles as a smoke path.
 */
void
emitCoverageBlock(Gen &g)
{
    Assembler &a = g.a;
    a.add(T2, T0, T1); a.sub(T3, T0, T1); a.and_(T4, T0, T1);
    a.or_(T5, T0, T1); a.xor_(T6, T0, T1); a.nor(T7, T0, T1);
    a.slt(V0, T0, T1); a.sltu(V1, T0, T1);
    a.sllv(A0, T0, T1); a.srlv(A1, T0, T1); a.srav(A2, T0, T1);
    a.addi(A3, T0, 17); a.andi(T2, T0, 0xff); a.ori(T3, T0, 0x10);
    a.xori(T4, T0, 0x3c); a.slti(T5, T0, 5); a.sltiu(T6, T0, 5);
    a.sll(T7, T0, 3); a.srl(V0, T0, 2); a.sra(V1, T0, 1);
    a.lui(A0, 0x1234); a.li(A1, 0x7654321);
    a.mult(T0, T1); a.mfhi(A2); a.mflo(A3);
    a.multu(T0, T1); a.div(T0, T1); a.divu(T0, T1); a.mflo(T2);
    a.lb(T3, S0, 1); a.lbu(T4, S0, 2); a.lh(T5, S0, 4);
    a.lhu(T6, S0, 6); a.lw(T7, S0, 8);
    a.sb(T3, S0, 12); a.sh(T5, S0, 14); a.sw(T7, S0, 16);
    a.ld(fpReg(0), S2, 0); a.sd(fpReg(0), S2, 8);
    a.add_d(fpReg(1), fpReg(0), fpReg(0));
    a.sub_d(fpReg(2), fpReg(1), fpReg(0));
    a.mul_d(fpReg(3), fpReg(1), fpReg(2));
    a.div_d(fpReg(4), fpReg(3), fpReg(1));
    a.sqrt_d(fpReg(5), fpReg(4));
    a.mov_d(fpReg(6), fpReg(5)); a.neg_d(fpReg(7), fpReg(6));
    a.c_eq_d(fpReg(0), fpReg(1)); a.bc1t("cov_t"); a.nop();
    a.label("cov_t");
    a.c_lt_d(fpReg(0), fpReg(1)); a.bc1f("cov_f"); a.nop();
    a.label("cov_f");
    a.c_le_d(fpReg(0), fpReg(1));
    a.andi(S5, T0, 1023);
    a.cvt_d_w(fpReg(1), S5); a.cvt_w_d(T2, fpReg(1));
    a.beq(ZERO, ZERO, "cov_beq"); a.nop(); a.label("cov_beq");
    a.bne(T0, T0, "cov_bne"); a.label("cov_bne");
    a.blez(ZERO, "cov_blez"); a.nop(); a.label("cov_blez");
    a.bgtz(ZERO, "cov_bgtz"); a.label("cov_bgtz");
    a.bltz(ZERO, "cov_bltz"); a.label("cov_bltz");
    a.bgez(ZERO, "cov_bgez"); a.nop(); a.label("cov_bgez");
    a.j("cov_j"); a.nop(); a.label("cov_j");
    a.jal("leaf_a");                 // JAL + the leaf's JR
    a.lw(T9, S6, 0); a.jalr(RA, T9); // JALR via the jump table
}

void
emitLeaves(Assembler &a)
{
    a.label("leaf_a");
    a.addi(T8, T8, 3);
    a.lw(T9, S0, 64);
    a.xor_(T8, T8, T9);
    a.jr(RA);

    a.label("leaf_b");
    a.sll(T9, T8, 2);
    a.sub(T8, T9, T8);
    a.jr(RA);

    a.label("leaf_c");
    a.addi(T8, T8, 1);
    a.lbu(T9, S0, 5);
    a.jr(RA);

    a.label("leaf_d");
    a.add(T8, T8, T9);
    a.sw(T8, S0, 96);
    a.jr(RA);
}

} // anonymous namespace

Program
generateProgram(uint64_t seed)
{
    Assembler a;
    Gen g(a, seed);

    // Data: scratch words, FP doubles, and the indirect-call table.
    a.dataLabel("scratch");
    for (unsigned i = 0; i < SCRATCH_BYTES / 4; ++i)
        a.word(static_cast<uint32_t>(g.rng.next()));
    a.align(8);
    a.dataLabel("fpdata");
    for (unsigned i = 0; i < FPDATA_DWORDS; ++i)
        a.dword(1.0 + static_cast<double>(g.rng.below(4000)) / 8.0);
    a.dataLabel("jumptab");
    a.word(0); // patched with leaf_c
    a.word(0); // patched with leaf_d

    // Prologue: bases, counters, pool seeds.
    a.la(S0, "scratch");
    a.la(S2, "fpdata");
    a.la(S6, "jumptab");
    a.li(T8, 0);
    a.li(T9, 0);
    for (unsigned i = 0; i < IPOOL_N; ++i)
        a.li(IPOOL[i], static_cast<int32_t>(g.rng.next()));
    for (unsigned i = 0; i < FPOOL_N; ++i)
        a.ld(fpReg(i), S2, static_cast<int32_t>(i % FPDATA_DWORDS) * 8);

    emitCoverageBlock(g);

    // The random loop body. The only registers that can steer a
    // backward branch (S1, S4) are never written by a gadget body.
    a.li(S1, OUTER_ITERS);
    a.label("outer");
    for (unsigned i = 0; i < GADGETS; ++i)
        g.emitGadget();
    a.addi(S1, S1, -1);
    a.bgtz(S1, "outer");
    a.halt();

    emitLeaves(a);

    a.patchWord(a.dataAddr("jumptab"), a.labelPC("leaf_c"));
    a.patchWord(a.dataAddr("jumptab") + 4, a.labelPC("leaf_d"));

    return a.finish();
}

std::string
fuzzWorkloadName(uint64_t seed)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fuzz:%016llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

} // namespace fuzz
} // namespace vpir
