/**
 * @file
 * Named machine configurations matching the paper's experimental
 * setup (§4.1): the Table 1 base machine, the IR machine (4K-entry RB,
 * early or late validation), and the four VP configurations
 * {ME,NME} x {SB,NSB} for each predictor scheme and verification
 * latency.
 */

#ifndef VPIR_SIM_CONFIGS_HH
#define VPIR_SIM_CONFIGS_HH

#include "core/params.hh"

namespace vpir
{

/** Table 1 base machine (no VP, no IR). */
CoreParams baseConfig();

/** IR machine: S_{n+d} reuse buffer, 4K entries, 4-way. */
CoreParams irConfig(IrValidation validation = IrValidation::Early);

/** VP machine: 16K-entry 4-way VPT with the given knobs. */
CoreParams vpConfig(VpScheme scheme, ReexecPolicy reexec,
                    BranchResolution branch_res,
                    unsigned verify_latency);

/**
 * Hybrid machine (the paper's suggested future direction): the reuse
 * buffer is probed first and a value prediction fills in when the
 * operand-based test fails. Carries both structures.
 */
CoreParams hybridConfig(VpScheme scheme = VpScheme::Magic,
                        BranchResolution branch_res =
                            BranchResolution::Speculative,
                        unsigned verify_latency = 0);

/** Apply a run-length limit to any configuration. */
CoreParams withLimits(CoreParams p, uint64_t max_insts,
                      uint64_t max_cycles = UINT64_MAX);

/**
 * Apply the hardening environment knobs to a configuration:
 *
 *   VPIR_CHECK=1             enable the lockstep retire checker
 *   VPIR_WATCHDOG_CYCLES=N   commit-progress watchdog (default 100000
 *                            when VPIR_CHECK is on, else off)
 *   VPIR_FAULT_SEED / VPIR_FAULT_VPT_VALUE / VPIR_FAULT_VPT_CONF /
 *   VPIR_FAULT_RB_OPERAND / VPIR_FAULT_RB_RESULT / VPIR_FAULT_RB_LINK
 *   / VPIR_FAULT_RB_DROPINV  deterministic fault injection rates
 *
 * Called by the bench Runner and vpirsim on every cell's params, so
 * any experiment can run self-verifying without a rebuild.
 */
void applyHardeningEnv(CoreParams &p);

/** Every variable applyHardeningEnv() reads, in the order a fuzz
 *  repro bundle records the ones set. */
inline constexpr const char *hardeningEnvVars[] = {
    "VPIR_CHECK",           "VPIR_AUDIT",
    "VPIR_WATCHDOG_CYCLES", "VPIR_FAULT_SEED",
    "VPIR_FAULT_VPT_VALUE", "VPIR_FAULT_VPT_CONF",
    "VPIR_FAULT_RB_OPERAND", "VPIR_FAULT_RB_RESULT",
    "VPIR_FAULT_RB_LINK",   "VPIR_FAULT_RB_DROPINV",
};

} // namespace vpir

#endif // VPIR_SIM_CONFIGS_HH
