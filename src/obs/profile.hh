/**
 * @file
 * Cost-attribution profiling for offloaded queries (EXPLAIN ANALYZE).
 *
 * AQUOMAN's argument is an accounting one: which stage of the
 * Row Selector -> Row Transformer -> SQL Swissknife pipeline bounds
 * each Table Task, why a query suspends to the host (paper Sec. VI-E),
 * and where the modelled seconds go. This header defines the shared
 * vocabulary for that accounting:
 *
 *  - PipeStage / StageSeconds: modelled seconds decomposed over the six
 *    pipeline resources, with a deterministic argmax bottleneck rule.
 *  - SuspendReason: the structured taxonomy replacing ad-hoc strings.
 *  - ProfileNode / QueryProfile: one node per relalg operator or Table
 *    Task, rendered as an aligned text tree or deterministic JSON.
 *  - FlightRecorder: a ring buffer of recent structured service events,
 *    dumped when a query suspends or admission fails.
 *  - auditLedgers: debug-mode cross-check that per-task ledgers tile
 *    the device totals and switch-port bytes partition exactly.
 *
 * Everything here is modelled time and modelled bytes only — profile
 * output is byte-identical across AQUOMAN_THREADS and AQUOMAN_BATCH.
 */

#ifndef AQUOMAN_OBS_PROFILE_HH
#define AQUOMAN_OBS_PROFILE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace aquoman::obs {

/**
 * The resources a modelled second can be attributed to. The first
 * four are the in-device pipeline (Fig. 4 of the paper); Switch is
 * DMA / controller-switch transfer time; HostPhase is x86 residual
 * execution after suspension or for host-only stages; Decode is
 * line-rate decompression of encoded column pages in the Row
 * Transformer (appended last so pre-compression stage indices — and
 * the earliest-wins bottleneck rule on uncompressed runs — are
 * unchanged).
 */
enum class PipeStage
{
    FlashRead,
    Selector,
    Transformer,
    Swissknife,
    Switch,
    HostPhase,
    Decode,
};

inline constexpr int kNumPipeStages = 7;

/** Stable lower-case name ("flash_read", ..., "decode"). */
const char *pipeStageName(PipeStage s);

/**
 * Why (part of) a query left the device. Structured replacement for
 * the ad-hoc reason strings threaded through SuspendError and
 * StageDecision; paper Sec. VI-E and Sec. VIII-B.
 */
enum class SuspendReason
{
    None,           ///< ran to completion on the device
    MidPlanGroupBy, ///< consumes an aggregate not buffered in DRAM
    StringHeapRegex,///< LIKE over a heap exceeding the regex cache
    GroupSpill,     ///< group-by overflowed the HwAgg slots (partial)
    DramOverflow,   ///< runtime device-DRAM exhaustion
    AdmissionDram,  ///< service declined the DRAM reservation upfront
    UnsupportedOp,  ///< operator with no device implementation
};

/** Stable snake_case name ("none", "mid_plan_group_by", ...). */
const char *suspendReasonName(SuspendReason r);

/**
 * Modelled seconds split over the pipeline stages. total() sums
 * the slots in fixed declaration order so the decomposition is exact:
 * accruing into slots and reading total() is how the device keeps its
 * per-task seconds bitwise equal to the stage breakdown.
 */
struct StageSeconds
{
    double sec[kNumPipeStages] = {};

    void
    add(PipeStage s, double t)
    {
        sec[static_cast<int>(s)] += t;
    }

    double at(PipeStage s) const { return sec[static_cast<int>(s)]; }

    /** Fixed-order sum of the six slots (deterministic association). */
    double total() const;

    /**
     * Bottleneck resource: argmax over the slots, earliest slot wins
     * ties so the rule is deterministic. A all-zero breakdown reports
     * FlashRead (callers render it as idle).
     */
    PipeStage bottleneck() const;

    StageSeconds &operator+=(const StageSeconds &o);
};

/**
 * One node of the cost-attribution tree: a relalg operator, a Table
 * Task, a plan stage, or the trailing host phase. `stages` holds the
 * node's *own* modelled seconds (exclusive); tree rollups are computed
 * by the renderers so leaf sums stay exact.
 */
struct ProfileNode
{
    std::string name;
    std::string kind;          ///< "query", "device-stage", "host-stage",
                               ///< "table-task", "host-op", "host-phase"
    std::int64_t rowsIn = -1;  ///< -1 means unknown / not applicable
    std::int64_t rowsOut = -1;
    std::int64_t flashBytes = 0;
    std::int64_t switchBytes = 0;
    StageSeconds stages;       ///< exclusive (self) seconds
    SuspendReason suspend = SuspendReason::None;
    std::string detail;        ///< free-form annotation (deterministic)
    std::vector<ProfileNode> children;

    double selfSeconds() const { return stages.total(); }

    /** rowsOut / rowsIn, or -1 when either side is unknown. */
    double selectivity() const;

    /** Per-stage rollup over this node and its subtree (pre-order). */
    StageSeconds subtreeStages() const;

    /** Pre-order sequential sum of selfSeconds() over the subtree. */
    double subtreeSeconds() const;

    std::int64_t subtreeFlashBytes() const;
};

/**
 * A full query's profile: the tree plus query-level classification.
 * Rendered as an aligned EXPLAIN ANALYZE text tree or as deterministic
 * JSON (stable key order) for report merging.
 */
struct QueryProfile
{
    std::string query;
    std::string offloadClass;  ///< "full", "partial", "none" (or "")
    SuspendReason suspend = SuspendReason::None;
    ProfileNode root;

    /**
     * Pre-order sequential sum of every node's self seconds. Device
     * Table Tasks are visited in execution order, so this is bitwise
     * equal to modelled deviceSeconds plus the host-phase seconds.
     */
    double totalSeconds() const { return root.subtreeSeconds(); }

    void renderText(std::ostream &os) const;
    std::string textString() const;

    void toJson(JsonWriter &w) const;
};

/**
 * One structured event in the service flight recorder. `seq` is a
 * monotonically increasing sequence number (survives ring wraps).
 */
struct FlightEvent
{
    std::int64_t seq = 0;
    double atSec = 0.0;      ///< simulated service time
    std::string category;    ///< "submit", "admit", "dispatch", ...
    std::string subject;     ///< query label or device name
    std::string detail;
};

/**
 * Fixed-capacity ring buffer of recent FlightEvents. The service
 * records every scheduling decision here cheaply; the ring is rendered
 * (and mirrored as trace instants) only when something goes wrong —
 * a suspension or an admission/allocation failure.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity = 128);

    void record(double at_sec, std::string category,
                std::string subject, std::string detail);

    /** Events still in the ring, oldest first. */
    std::vector<FlightEvent> snapshot() const;

    /** Render the ring as aligned text under a "why" header. */
    void render(std::ostream &os, const std::string &why) const;

    std::size_t size() const { return count; }
    std::size_t capacityEvents() const { return ring.size(); }
    /** Events overwritten since construction. */
    std::int64_t dropped() const { return droppedEvents; }
    /** Total events ever recorded. */
    std::int64_t recorded() const { return nextSeq; }

  private:
    std::vector<FlightEvent> ring;
    std::size_t head = 0;  ///< next write position
    std::size_t count = 0;
    std::int64_t nextSeq = 0;
    std::int64_t droppedEvents = 0;
};

/**
 * Inputs for the debug-mode ledger audit. Task decompositions come
 * from AquomanRunStats; the optional switch-port section cross-checks
 * that per-port ControllerSwitch bytes partition an expected total.
 */
struct LedgerAudit
{
    /// Per-Table-Task modelled seconds, in execution order. Their
    /// sequential sum must equal deviceSeconds bitwise (the spans
    /// tile [0, deviceSeconds]).
    std::vector<double> taskSeconds;
    double deviceSeconds = 0.0;

    /// Per-task flash bytes; must sum exactly to deviceFlashBytes.
    std::vector<std::int64_t> taskFlashBytes;
    std::int64_t deviceFlashBytes = 0;

    /// Optional: per-port byte ledgers and the total they must
    /// partition. Skipped when expectedPortTotal < 0.
    std::vector<std::int64_t> portBytes;
    std::int64_t expectedPortTotal = -1;
};

/**
 * Verify the ledgers are mutually consistent. Returns true when every
 * check passes; otherwise fills *error (if non-null) with the first
 * violated invariant. Callers run this under !NDEBUG builds.
 */
bool auditLedgers(const LedgerAudit &a, std::string *error);

namespace detail {

inline std::atomic<bool> profileGate{true};

} // namespace detail

/**
 * Global profile-collection gate: a relaxed atomic, on by default and
 * switched only programmatically (setProfileCollection). Hot paths
 * check it before building ProfileNodes, so the disabled path must
 * stay a single inline relaxed load.
 */
inline bool
profileCollectionEnabled()
{
    return detail::profileGate.load(std::memory_order_relaxed);
}

inline void
setProfileCollection(bool on)
{
    detail::profileGate.store(on, std::memory_order_relaxed);
}

} // namespace aquoman::obs

#endif // AQUOMAN_OBS_PROFILE_HH
