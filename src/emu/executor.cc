#include "emu/executor.hh"

#include <cmath>
#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

namespace
{

double
asDouble(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

uint64_t
asBits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

uint32_t
lo32(uint64_t v)
{
    return static_cast<uint32_t>(v);
}

int32_t
slo32(uint64_t v)
{
    return static_cast<int32_t>(lo32(v));
}

} // anonymous namespace

void
evalInstr(SemOut &o, const Instr &inst, Addr pc, uint64_t src0,
          uint64_t src1, const EmuState *mem)
{
    o = SemOut{};
    o.nextPC = pc + 4;

    const uint32_t a = lo32(src0);
    const uint32_t b = lo32(src1);
    const int32_t sa = slo32(src0);
    const int32_t sb = slo32(src1);
    const double fa = asDouble(src0);
    const double fb = asDouble(src1);

    switch (inst.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        break;

      case Op::ADD: o.result = lo32(a + b); break;
      case Op::SUB: o.result = lo32(a - b); break;
      case Op::AND: o.result = a & b; break;
      case Op::OR: o.result = a | b; break;
      case Op::XOR: o.result = a ^ b; break;
      case Op::NOR: o.result = lo32(~(a | b)); break;
      case Op::SLT: o.result = sa < sb ? 1 : 0; break;
      case Op::SLTU: o.result = a < b ? 1 : 0; break;
      case Op::SLLV: o.result = lo32(a << (b & 31)); break;
      case Op::SRLV: o.result = a >> (b & 31); break;
      case Op::SRAV: o.result = lo32(static_cast<uint32_t>(
                         sa >> (b & 31))); break;

      case Op::ADDI:
        o.result = lo32(a + static_cast<uint32_t>(inst.imm));
        break;
      case Op::ANDI:
        o.result = a & static_cast<uint32_t>(inst.imm);
        break;
      case Op::ORI:
        o.result = a | static_cast<uint32_t>(inst.imm);
        break;
      case Op::XORI:
        o.result = a ^ static_cast<uint32_t>(inst.imm);
        break;
      case Op::SLTI: o.result = sa < inst.imm ? 1 : 0; break;
      case Op::SLTIU:
        o.result = a < static_cast<uint32_t>(inst.imm) ? 1 : 0;
        break;
      case Op::SLL: o.result = lo32(a << (inst.imm & 31)); break;
      case Op::SRL: o.result = a >> (inst.imm & 31); break;
      case Op::SRA:
        o.result = lo32(static_cast<uint32_t>(sa >> (inst.imm & 31)));
        break;
      case Op::LUI:
        o.result = lo32(static_cast<uint32_t>(inst.imm) << 16);
        break;
      case Op::LI:
        o.result = static_cast<uint32_t>(inst.imm);
        break;

      case Op::MULT: {
        int64_t p = static_cast<int64_t>(sa) * static_cast<int64_t>(sb);
        o.result = lo32(static_cast<uint64_t>(p));          // LO
        o.result2 = lo32(static_cast<uint64_t>(p) >> 32);   // HI
        break;
      }
      case Op::MULTU: {
        uint64_t p = static_cast<uint64_t>(a) * static_cast<uint64_t>(b);
        o.result = lo32(p);
        o.result2 = lo32(p >> 32);
        break;
      }
      case Op::DIV:
        if (sb == 0 || (sa == INT32_MIN && sb == -1)) {
            o.result = 0;
            o.result2 = lo32(static_cast<uint32_t>(sa));
        } else {
            o.result = lo32(static_cast<uint32_t>(sa / sb));  // LO
            o.result2 = lo32(static_cast<uint32_t>(sa % sb)); // HI
        }
        break;
      case Op::DIVU:
        if (b == 0) {
            o.result = 0;
            o.result2 = a;
        } else {
            o.result = a / b;
            o.result2 = a % b;
        }
        break;
      case Op::MFHI:
      case Op::MFLO:
        o.result = a; // source (HI or LO) arrives as src0
        break;

      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::LW: case Op::L_D: {
        o.memAddr = a + static_cast<uint32_t>(inst.imm);
        auto load = [&](unsigned size) -> uint64_t {
            return mem ? mem->readMem(o.memAddr, size) : 0;
        };
        switch (inst.op) {
          case Op::LB:
            o.result = lo32(static_cast<uint32_t>(
                signExtendByte(static_cast<uint8_t>(load(1)))));
            break;
          case Op::LBU: o.result = load(1) & 0xff; break;
          case Op::LH:
            o.result = lo32(static_cast<uint32_t>(
                signExtendHalf(static_cast<uint16_t>(load(2)))));
            break;
          case Op::LHU: o.result = load(2) & 0xffff; break;
          case Op::LW: o.result = lo32(load(4)); break;
          case Op::L_D: o.result = load(8); break;
          default: break;
        }
        break;
      }

      case Op::SB: case Op::SH: case Op::SW: case Op::S_D:
        o.memAddr = a + static_cast<uint32_t>(inst.imm);
        o.storeValue = inst.op == Op::S_D ? src1
                                          : static_cast<uint64_t>(b);
        break;

      case Op::BEQ: o.taken = a == b; break;
      case Op::BNE: o.taken = a != b; break;
      case Op::BLEZ: o.taken = sa <= 0; break;
      case Op::BGTZ: o.taken = sa > 0; break;
      case Op::BLTZ: o.taken = sa < 0; break;
      case Op::BGEZ: o.taken = sa >= 0; break;
      case Op::BC1T: o.taken = (src0 & 1) != 0; break;
      case Op::BC1F: o.taken = (src0 & 1) == 0; break;

      case Op::J:
        o.taken = true;
        break;
      case Op::JAL:
        o.taken = true;
        o.result = pc + 4; // link
        break;
      case Op::JR:
        o.taken = true;
        o.nextPC = a;
        break;
      case Op::JALR:
        o.taken = true;
        o.nextPC = a;
        o.result = pc + 4;
        break;

      case Op::ADD_D: o.result = asBits(fa + fb); break;
      case Op::SUB_D: o.result = asBits(fa - fb); break;
      case Op::MUL_D: o.result = asBits(fa * fb); break;
      case Op::DIV_D:
        o.result = asBits(fb != 0.0 ? fa / fb : 0.0);
        break;
      case Op::SQRT_D:
        o.result = asBits(fa >= 0.0 ? std::sqrt(fa) : 0.0);
        break;
      case Op::MOV_D: o.result = src0; break;
      case Op::NEG_D: o.result = asBits(-fa); break;
      case Op::C_EQ_D: o.result = fa == fb ? 1 : 0; break;
      case Op::C_LT_D: o.result = fa < fb ? 1 : 0; break;
      case Op::C_LE_D: o.result = fa <= fb ? 1 : 0; break;
      case Op::CVT_D_W: o.result = asBits(static_cast<double>(sa)); break;
      case Op::CVT_W_D:
        // Truncates toward zero. NaN, the infinities and every double
        // whose truncation leaves int32 give 0x80000000, the value
        // x86's cvttsd2si returns for them, where the cast alone would
        // be undefined.
        o.result = fa > -2147483649.0 && fa < 2147483648.0
                       ? lo32(static_cast<uint32_t>(static_cast<int32_t>(fa)))
                       : 0x80000000u;
        break;

      default:
        panic("evalInstr: unhandled opcode");
    }

    // Direction-style control flow resolves against the encoded target.
    if (isCondBranch(inst.op)) {
        o.nextPC = o.taken ? inst.target : pc + 4;
    } else if (inst.op == Op::J || inst.op == Op::JAL) {
        o.nextPC = inst.target;
    }
}

Emulator::Emulator(const Program &program, EmuState &state)
    : prog(program), st(state), curPC(program.entry)
{
    statics.reserve(program.text.size());
    for (const Instr &i : program.text)
        statics.push_back(makeStaticInst(i));
}

void
Emulator::loadProgram(const Program &program, EmuState &state)
{
    for (const auto &[addr, bytes] : program.dataInit) {
        if (!bytes.empty())
            state.initBytes(addr, bytes.data(), bytes.size());
    }
    state.initReg(REG_SP, program.stackTop);
}

ExecResult
Emulator::step()
{
    ExecResult r;
    step(r);
    return r;
}

void
Emulator::step(ExecResult &r)
{
    r.pc = curPC;
    r.srcVals[0] = 0;
    r.srcVals[1] = 0;

    const StaticInst *si = staticAt(curPC);
    if (!si || si->isHalt) {
        // Off the end of text (wrong path) behaves as a halt; the
        // core never lets such instructions commit.
        r.inst = si ? si->inst : Instr{Op::HALT};
        r.out = SemOut{};
        r.halted = true;
        isHalted = true;
        return;
    }
    r.inst = si->inst;
    r.halted = false;

    if (si->src[0] != REG_INVALID)
        r.srcVals[0] = st.readReg(si->src[0]);
    if (si->src[1] != REG_INVALID)
        r.srcVals[1] = st.readReg(si->src[1]);

    evalInstr(r.out, si->inst, curPC, r.srcVals[0], r.srcVals[1], &st);

    if (si->isSt)
        st.writeMem(r.out.memAddr, si->memSz, r.out.storeValue);
    if (si->dst[0] != REG_INVALID)
        st.writeReg(si->dst[0], r.out.result);
    if (si->dst[1] != REG_INVALID)
        st.writeReg(si->dst[1], r.out.result2);

    curPC = r.out.nextPC;
}

EmuSnapshot
makeWarmSnapshot(const Program &program, uint64_t warmupInsts)
{
    EmuSnapshot snap;
    Emulator emu(program, snap.state);
    Emulator::loadProgram(program, snap.state);
    for (uint64_t i = 0; i < warmupInsts && !emu.halted(); ++i) {
        emu.step();
        snap.state.retire(snap.state.mark());
    }
    // The one place that decides where timing starts: where the
    // warmup stopped, or back at the entry when it ran the program to
    // its end (the state stays as the warmup left it).
    snap.halted = emu.halted();
    snap.pc = snap.halted ? program.entry : emu.pc();
    snap.warmupInsts = warmupInsts;
    return snap;
}

} // namespace vpir
