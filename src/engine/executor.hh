/**
 * @file
 * Column-at-a-time query executor over the flash-resident column store.
 * This is the software baseline (the paper's MonetDB role): it computes
 * exact query answers and collects machine-independent work metrics
 * which HostModel converts into runtimes for the S and L hosts.
 */

#ifndef AQUOMAN_ENGINE_EXECUTOR_HH
#define AQUOMAN_ENGINE_EXECUTOR_HH

#include <map>
#include <string>
#include <vector>

#include "columnstore/catalog.hh"
#include "columnstore/selection_vector.hh"
#include "common/thread_pool.hh"
#include "engine/metrics.hh"
#include "obs/profile.hh"
#include "relalg/plan.hh"
#include "relalg/reltable.hh"

namespace aquoman {

/** Cost (abstract row-ops) of evaluating one expression node per row. */
double exprCost(const ExprPtr &e);

/**
 * Gathers at least this long fan out on the pool. A gather is one load
 * and one store per row (about 1 ns), so below a few morsels waking the
 * workers costs what it saves, and every fork/join is a point where the
 * caller waits for the slowest worker. On a 4-vCPU VM a 2-morsel gather
 * took 45 us fanned out against 26 us inline; at 8 morsels fanning out
 * was 1.5x faster.
 */
constexpr std::int64_t kGatherFanoutRows = 8 * kMorselRows;

/**
 * The entries of @p src at positions @p idx (values or RowIDs); a
 * negative index yields kNullValue. From kGatherFanoutRows on it runs
 * in kMorselRows morsels on the pool, bit-identical for any thread
 * count. The engine's row gathers and the device's tuple-table gathers
 * all go through here.
 */
std::vector<std::int64_t> gatherValues(const std::vector<std::int64_t> &src,
                                       const std::vector<std::int64_t> &idx);

/**
 * Gather rows @p idx of @p t into a new relation. A negative index
 * emits a NULL row (used by outer joins).
 */
RelTable gatherRows(const RelTable &t, const std::vector<std::int64_t> &idx);

/**
 * Append to @p li / @p ri the row pairs whose key columns @p lk of
 * @p left equal @p rk of @p right: probe (@p left) row ascending and,
 * within one probe row, build (@p right) rows descending. The order is
 * part of every join's answer, on the host and on the device.
 *
 * The build runs serially in row order and chains each distinct key's
 * rows newest first. A one-lane key whose values span under
 * 4 * rows + 1024 slots indexes its chains directly by value; any other
 * key hashes into a KeyTable. The probe reads the finished chains in
 * morsels on the pool and writes each morsel's pairs at its offset, so
 * the output equals the serial probe's for any thread count. Varchar
 * keys compare as interned heap offsets; build columns on a heap other
 * than the probe column's are translated into the probe's.
 */
void equiJoinCandidates(const RelTable &left, const std::vector<int> &lk,
                        const RelTable &right, const std::vector<int> &rk,
                        std::vector<std::int64_t> &li,
                        std::vector<std::int64_t> &ri);

/**
 * Turn a join's candidate pairs (@p li, @p ri) and the candidate
 * positions @p pass its residual kept into output rows. Inner keeps the
 * passing pairs in candidate order; LeftSemi/LeftAnti emit, in left
 * order, the left rows with / without a passing pair (@p out_r stays
 * empty); LeftOuter emits the passing pairs, then every left row
 * without one paired with -1 (a NULL right side).
 */
void joinOutputRows(JoinType type, const std::vector<std::int64_t> &li,
                    const std::vector<std::int64_t> &ri,
                    const SelectionVector &pass, std::int64_t left_rows,
                    std::vector<std::int64_t> &out_l,
                    std::vector<std::int64_t> &out_r);

/**
 * One aggregate's output column over @p groups groups: @p acc holds the
 * per-group accumulator (sum, min or max; unused by Count) and @p cnt
 * the per-group count of contributing non-NULL inputs (the distinct
 * count for CountDistinct). Count kinds yield Int64, Avg a Decimal
 * (Int64 sums are scaled first), the rest @p in_type; Min, Max and Avg
 * of a group without input are NULL. With @p empty_global (a global
 * aggregate over no rows, @p groups == 0) the column is SQL's one row:
 * 0 for the count kinds, NULL otherwise.
 */
RelColumn finalizeAggregate(const std::string &name, AggKind kind,
                            ColumnType in_type, const std::int64_t *acc,
                            const std::int64_t *cnt, std::int64_t groups,
                            bool empty_global);

/** Executes Query stages against a Catalog. */
class Executor
{
  public:
    /**
     * @param cat database catalog
     * @param sw  flash controller switch; when non-null, base-table
     *            scans charge the bytes a flash read of their columns
     *            would stream to the host port (the values come from
     *            the in-memory columns)
     */
    explicit Executor(const Catalog &cat, ControllerSwitch *sw = nullptr)
        : catalog(cat), flashSwitch(sw)
    {
    }

    /** Run all stages; returns the last stage's relation. */
    RelTable run(const Query &q);

    /**
     * Run a single plan tree against previously computed stage results.
     */
    RelTable runPlan(const PlanPtr &plan,
                     const std::map<std::string, RelTable> &stages);

    /** Work metrics accumulated since construction (or clearMetrics). */
    const EngineMetrics &metrics() const { return trace; }
    void clearMetrics() { trace = EngineMetrics{}; }

    /**
     * Name this executor's simulation-trace track ("host:<label>").
     * While the tracer is enabled, every plan node then emits one span
     * on the modelled operator timeline (cumulative abstract row-ops at
     * the host's nominal per-thread rate — never wall clock, so spans
     * are identical for every AQUOMAN_THREADS). Empty label (the
     * default) keeps the executor un-traced.
     */
    void
    setTraceLabel(const std::string &label)
    {
        traceLabel = label;
        traceTrack = -1;
    }

    /**
     * Collect per-operator profile nodes into @p sink: each top-level
     * runPlan() appends one "host-op" subtree (rows in/out plus the
     * modelled row-op cost) as a child of @p sink. Collection is also
     * gated on obs::profileCollectionEnabled(); pass nullptr to stop.
     * The sink must outlive every run routed through this executor.
     */
    void setProfileSink(obs::ProfileNode *sink) { profileSink = sink; }

  private:
    RelTable execNode(const PlanPtr &p,
                      const std::map<std::string, RelTable> &stages);
    RelTable execNodeDispatch(const PlanPtr &p,
                              const std::map<std::string, RelTable> &stages);

    RelTable execScan(const Plan &p,
                      const std::map<std::string, RelTable> &stages);
    RelTable execFilter(const Plan &p, const RelTable &in);
    RelTable execProject(const Plan &p, const RelTable &in);
    RelTable execJoin(const Plan &p, const RelTable &left,
                      const RelTable &right);
    RelTable execGroupBy(const Plan &p, const RelTable &in);
    RelTable execOrderBy(const Plan &p, const RelTable &in);

    /**
     * Track intermediate memory with MonetDB-like charges: @p out_bytes
     * is the operator's materialised footprint (candidate lists for
     * filters, computed BATs for projects, RowID pair lists for joins),
     * not the logical relation width.
     */
    void accountIntermediate(std::int64_t out_bytes,
                             std::int64_t child_bytes);

    const Catalog &catalog;
    ControllerSwitch *flashSwitch;
    EngineMetrics trace;

    std::string traceLabel;
    int traceTrack = -1;

    obs::ProfileNode *profileSink = nullptr;
    /** Node the currently executing operator reports into. */
    obs::ProfileNode *profileCur = nullptr;
};

} // namespace aquoman

#endif // AQUOMAN_ENGINE_EXECUTOR_HH
