#include "check/checker.hh"

#include <sstream>

#include "common/logging.hh"
#include "isa/decode.hh"
#include "isa/disasm.hh"

namespace vpir
{

LockstepChecker::LockstepChecker(const Program &program,
                                 const EmuSnapshot &start)
    : emu(program, state)
{
    state = start.state; // COW page share; writes fault private
    emu.setPC(start.pc);
}

void
LockstepChecker::onRetire(const Retired &r)
{
    ring[ringCount % histSize] = r;
    ++ringCount;

    if (r.inst.op == Op::HALT) {
        // Nothing architectural to compare; the run is over.
        ++checked;
        return;
    }

    if (emu.pc() != r.pc) {
        diverge(r, "retired PC " + std::to_string(r.pc) +
                       " but the reference machine is at PC " +
                       std::to_string(emu.pc()));
    }

    ExecResult x = emu.step();
    // Keep the reference journal empty: every replayed write is final.
    state.retire(state.mark());

    std::ostringstream mismatch;
    auto expect = [&](const char *field, uint64_t want, uint64_t got) {
        if (want != got) {
            mismatch << "  " << field << ": expected 0x" << std::hex
                     << want << ", core committed 0x" << got << std::dec
                     << "\n";
        }
    };

    if (r.inst.rd != REG_INVALID)
        expect("result(rd)", x.out.result, r.result);
    if (r.inst.rd2 != REG_INVALID)
        expect("result2(rd2)", x.out.result2, r.result2);
    if (isControl(r.inst.op))
        expect("nextPC", x.out.nextPC, r.nextPC);
    if (isMem(r.inst.op))
        expect("memAddr", x.out.memAddr, r.memAddr);
    if (isStore(r.inst.op))
        expect("storeValue", x.out.storeValue, r.storeValue);

    std::string bad = mismatch.str();
    if (!bad.empty())
        diverge(r, "value mismatch\n" + bad);

    ++checked;
}

void
LockstepChecker::diverge(const Retired &r, const std::string &what)
{
    std::ostringstream os;
    os << "lockstep divergence at cycle " << r.cycle << ", seq " << r.seq
       << ", pc 0x" << std::hex << r.pc << std::dec << " ["
       << disassemble(r.inst) << "]: " << what << "\n"
       << "last " << std::min(ringCount, histSize)
       << " retired instructions (oldest first):\n"
       << history();
    panic(os.str());
}

std::string
LockstepChecker::history() const
{
    std::ostringstream os;
    size_t n = std::min(ringCount, histSize);
    for (size_t i = 0; i < n; ++i) {
        const Retired &r = ring[(ringCount - n + i) % histSize];
        os << "  seq " << r.seq << " cyc " << r.cycle << " pc 0x"
           << std::hex << r.pc << std::dec << "  " << disassemble(r.inst);
        if (r.inst.rd != REG_INVALID)
            os << "  => 0x" << std::hex << r.result << std::dec;
        os << "\n";
    }
    return os.str();
}

} // namespace vpir
