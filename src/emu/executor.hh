/**
 * @file
 * Instruction semantics and the functional stepper.
 *
 * Semantics are factored into a pure evaluator (evalInstr) that maps
 * operand values to results, so the out-of-order core can re-evaluate
 * instructions with *speculative* operand values: this is how branches
 * executed with wrong value-predicted inputs compute genuinely wrong
 * outcomes (the paper's spurious mispredictions).
 */

#ifndef VPIR_EMU_EXECUTOR_HH
#define VPIR_EMU_EXECUTOR_HH

#include <vector>

#include "asm/assembler.hh"
#include "emu/state.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Outcome of evaluating one instruction's semantics. */
struct SemOut
{
    uint64_t result = 0;      //!< value for rd
    uint64_t result2 = 0;     //!< value for rd2 (HI)
    bool taken = false;       //!< control: branch/jump taken
    Addr nextPC = 0;          //!< control: next PC
    Addr memAddr = 0;         //!< memory: effective address
    uint64_t storeValue = 0;  //!< memory: value stored
};

/**
 * Evaluate an instruction given its operand values, writing every
 * field of @p out (nothing of what it held before survives). Callers
 * hand it the record they read from: the emulator its ExecResult, the
 * core a ROB slot's pending outputs.
 *
 * @param out   Receives the outcome.
 * @param inst  The instruction.
 * @param pc    Its PC (for fall-through / link values).
 * @param src0  Value of the first source register, StaticInst::src[0]
 *              (0 if absent).
 * @param src1  Value of the second, StaticInst::src[1] (0 if absent).
 * @param mem   State loads read; when null, loads return 0.
 */
void evalInstr(SemOut &out, const Instr &inst, Addr pc, uint64_t src0,
               uint64_t src1, const EmuState *mem);

/** A fully executed dynamic instruction, as seen by the dispatcher. */
struct ExecResult
{
    Addr pc = 0;
    Instr inst;
    SemOut out;
    uint64_t srcVals[2] = {0, 0}; //!< architectural operand values used
    bool halted = false;
};

/**
 * Functional stepper: fetches from a Program, executes on an EmuState,
 * applies journaled writes, and advances PC. Construction decodes
 * every text word once into a StaticInst table, which the stepper and
 * its clients (the core, the limit study) read per instance.
 */
class Emulator
{
  public:
    Emulator(const Program &program, EmuState &state);
    /** The emulator keeps a reference: a temporary would dangle. */
    Emulator(const Program &&, EmuState &) = delete;

    /** Execute the instruction at the current PC. */
    ExecResult step();

    /** Execute the instruction at the current PC, writing every field
     *  of @p r in place (the core's ROB slot, with no temporary). */
    void step(ExecResult &r);

    /** Execute the instruction at an explicit PC (sets PC first),
     *  writing @p r in place like step(r). */
    void
    stepAt(Addr pc, ExecResult &r)
    {
        curPC = pc;
        step(r);
    }

    /** Static decode of the text word at @p pc; null off the text or
     *  at a misaligned PC (Program::at's checks guard every lookup). */
    const StaticInst *
    staticAt(Addr pc) const
    {
        const Instr *ip = prog.at(pc);
        return ip ? &statics[static_cast<size_t>(ip - prog.text.data())]
                  : nullptr;
    }

    /** One record per text word, text[i] at index i. */
    const std::vector<StaticInst> &staticTable() const { return statics; }

    Addr pc() const { return curPC; }
    void setPC(Addr pc) { curPC = pc; }
    bool halted() const { return isHalted; }

    EmuState &state() { return st; }

    /** Load the program image and initial registers into the state. */
    static void loadProgram(const Program &program, EmuState &state);

  private:
    const Program &prog;
    EmuState &st;
    std::vector<StaticInst> statics;
    Addr curPC;
    bool isHalted = false;
};

/**
 * Frozen post-warmup machine state: the program image loaded and the
 * first warmupInsts instructions retired functionally. The start
 * state of every core and lockstep checker: built once per (program,
 * warmup) by the warm-start cache, or privately by a Core given
 * none, and cloned copy-on-write (EmuState's copy is O(leaves)) into
 * each machine that starts from it. Immutable after construction.
 */
struct EmuSnapshot
{
    EmuState state;         //!< post-load, post-warmup architecture
    Addr pc = 0;            //!< where timing starts (entry if halted)
    bool halted = false;    //!< warmup consumed the whole program
    uint64_t warmupInsts = 0; //!< requested warmup (key sanity check)
};

/**
 * Execute loadProgram + the functional warmup and freeze the result,
 * including the one decision of where timing starts.
 */
EmuSnapshot makeWarmSnapshot(const Program &program, uint64_t warmupInsts);

} // namespace vpir

#endif // VPIR_EMU_EXECUTOR_HH
