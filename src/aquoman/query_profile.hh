/**
 * @file
 * Builds the EXPLAIN-ANALYZE cost-attribution tree for one offloaded
 * query from the artefacts a run already produces: the Table-Task
 * compiler's per-stage decisions, the device executor's structured
 * Table-Task ledger, and the host-phase estimate. The tree's pre-order
 * leaf seconds reproduce modelled deviceSeconds plus host seconds
 * bitwise (see obs::QueryProfile::totalSeconds).
 */

#ifndef AQUOMAN_AQUOMAN_QUERY_PROFILE_HH
#define AQUOMAN_AQUOMAN_QUERY_PROFILE_HH

#include <string>

#include "aquoman/device.hh"
#include "obs/profile.hh"

namespace aquoman {

/**
 * The modelled host phase of an offloaded query, split the same way
 * perf_model.hh's evaluateOffload computes it: residual x86 runtime
 * plus result/intermediate DMA over the controller switch.
 */
struct HostPhaseProfile
{
    double hostSeconds = 0.0;  ///< HostModel::estimate(...).runtime
    double dmaSeconds = 0.0;   ///< dmaBytes / storage read bandwidth
    std::int64_t dmaBytes = 0;
    /// Base-table bytes the host pulled through its switch port to
    /// finish suspended stages (informational).
    std::int64_t hostBytes = 0;
};

/**
 * Query-level suspension classification: runtime DRAM overflow wins,
 * then the compiler's whole-query regex verdict, then the first
 * structured stage suspension, then group spill-over.
 */
obs::SuspendReason classifyQuerySuspension(const QueryCompilation &comp,
                                           const AquomanRunStats &stats);

/**
 * Assemble the profile tree. @p offload_class is the caller's label
 * ("full"/"partial"/"none"); empty derives it from the run: no device
 * tasks -> none, any suspension or spill -> partial, else full.
 */
obs::QueryProfile buildQueryProfile(const std::string &query_name,
                                    const QueryCompilation &comp,
                                    const AquomanRunStats &stats,
                                    const HostPhaseProfile &host,
                                    const std::string &offload_class = "");

/** One line of the paper's Fig. 5-style Table-Task listing. */
std::string describeTask(const TableTaskRecord &t);

} // namespace aquoman

#endif // AQUOMAN_AQUOMAN_QUERY_PROFILE_HH
