#include "isa/decode.hh"

#include "common/logging.hh"

namespace vpir
{

unsigned
fuPoolSize(FuType t)
{
    switch (t) {
      case FuType::None:      return 0;
      case FuType::IntAlu:    return 8;
      case FuType::LoadStore: return 2;
      case FuType::FpAdder:   return 4;
      case FuType::IntMulDiv: return 1;
      case FuType::FpMulDiv:  return 1;
      default: panic("bad FU type");
    }
}

SrcRegs
srcRegs(const Instr &inst)
{
    SrcRegs s{{REG_INVALID, REG_INVALID}};
    switch (inst.op) {
      case Op::NOP:
      case Op::HALT:
      case Op::J:
      case Op::JAL:
      case Op::LUI:
      case Op::LI:
        break;

      case Op::BC1T:
      case Op::BC1F:
        s.src[0] = REG_FCC;
        break;

      case Op::MFHI:
        s.src[0] = REG_HI;
        break;
      case Op::MFLO:
        s.src[0] = REG_LO;
        break;

      // rs-only forms.
      case Op::ADDI: case Op::ANDI: case Op::ORI: case Op::XORI:
      case Op::SLTI: case Op::SLTIU:
      case Op::SLL: case Op::SRL: case Op::SRA:
      case Op::BLEZ: case Op::BGTZ: case Op::BLTZ: case Op::BGEZ:
      case Op::JR: case Op::JALR:
      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU:
      case Op::LW: case Op::L_D:
      case Op::CVT_D_W:
      case Op::MOV_D: case Op::NEG_D: case Op::SQRT_D:
      case Op::CVT_W_D:
        s.src[0] = inst.rs;
        break;

      // rs+rt forms.
      case Op::ADD: case Op::SUB: case Op::AND: case Op::OR:
      case Op::XOR: case Op::NOR: case Op::SLT: case Op::SLTU:
      case Op::SLLV: case Op::SRLV: case Op::SRAV:
      case Op::MULT: case Op::MULTU: case Op::DIV: case Op::DIVU:
      case Op::BEQ: case Op::BNE:
      case Op::SB: case Op::SH: case Op::SW: case Op::S_D:
      case Op::ADD_D: case Op::SUB_D: case Op::MUL_D: case Op::DIV_D:
      case Op::C_EQ_D: case Op::C_LT_D: case Op::C_LE_D:
        s.src[0] = inst.rs;
        s.src[1] = inst.rt;
        break;

      default:
        panic("srcRegs: unhandled opcode");
    }
    // r0 reads are not dependences.
    for (RegId &r : s.src) {
        if (r == REG_ZERO)
            r = REG_INVALID;
    }
    return s;
}

DstRegs
dstRegs(const Instr &inst)
{
    DstRegs d{{inst.rd, inst.rd2}};
    // Writes to r0 are discarded.
    for (RegId &r : d.dst) {
        if (r == REG_ZERO)
            r = REG_INVALID;
    }
    return d;
}

unsigned
memSize(Op op)
{
    switch (op) {
      case Op::LB: case Op::LBU: case Op::SB: return 1;
      case Op::LH: case Op::LHU: case Op::SH: return 2;
      case Op::LW: case Op::SW: return 4;
      case Op::L_D: case Op::S_D: return 8;
      default: return 0;
    }
}

StaticInst
makeStaticInst(const Instr &inst)
{
    StaticInst si{};
    si.inst = inst;
    si.di = decodeInfo(inst.op);
    SrcRegs s = srcRegs(inst);
    DstRegs d = dstRegs(inst);
    for (int k = 0; k < 2; ++k) {
        si.src[k] = s.src[k];
        si.dst[k] = d.dst[k];
    }
    si.memSz = static_cast<uint8_t>(memSize(inst.op));
    si.isLd = si.di.cls == InstClass::Load;
    si.isSt = si.di.cls == InstClass::Store;
    si.isCtrl = isControl(inst.op);
    si.resolvable = isCondBranch(inst.op) || isIndirectJump(inst.op);
    si.isHalt = si.di.cls == InstClass::Halt;
    si.isCall = isCall(inst.op);
    si.isReturn = isReturn(inst);
    return si;
}

} // namespace vpir
