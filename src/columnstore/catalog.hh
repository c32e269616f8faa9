/**
 * @file
 * Database catalog: names tables, records key metadata (dense primary
 * keys, foreign-key RowID materialisation in the MonetDB style) and owns
 * the flash-resident handles. The AQUOMAN Table-Task compiler consults
 * this metadata for its join and memory optimisations (Sec. VI-D).
 */

#ifndef AQUOMAN_COLUMNSTORE_CATALOG_HH
#define AQUOMAN_COLUMNSTORE_CATALOG_HH

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "columnstore/flash_layout.hh"

namespace aquoman {

/** String-heap footprint of one column (all zero but @c rows unless
 *  the column is varchar). */
struct ColumnHeapInfo
{
    std::int64_t heapBytes = 0; ///< its distinct strings, +1 byte each
    std::int64_t distinct = 0;  ///< distinct strings
    std::int64_t rows = 0;
};

/** Per-table catalog entry. */
struct CatalogEntry
{
    std::shared_ptr<const Table> table;
    std::shared_ptr<FlashResidentTable> resident;

    /**
     * Name of the dense primary-key column (RowID-equivalent in
     * MonetDB's internal representation), empty if none.
     */
    std::string densePrimaryKey;

    /**
     * Foreign-key columns materialised as RowID references into another
     * table: fk column name -> (target table, implicit via RowID).
     */
    std::map<std::string, std::string> fkRowIdTargets;

    /**
     * Per-column string-heap statistics, computed on first use under
     * @c heapInfoMu: concurrent device runs and compiles share one
     * catalog.
     */
    mutable std::map<std::string, ColumnHeapInfo> heapInfoCache;
    mutable std::mutex heapInfoMu;
};

/**
 * String-heap statistics of @p column of @p entry's table, cached per
 * (table, column). They price scans of one varchar column without
 * charging the whole table heap, and decide whether a LIKE fits the
 * regex accelerator's string cache.
 */
inline ColumnHeapInfo
columnHeapInfo(const CatalogEntry &entry, const std::string &column)
{
    std::lock_guard<std::mutex> lock(entry.heapInfoMu);
    auto it = entry.heapInfoCache.find(column);
    if (it != entry.heapInfoCache.end())
        return it->second;
    const Table &t = *entry.table;
    const Column &c = t.col(column);
    ColumnHeapInfo info;
    info.rows = c.size();
    if (c.type() == ColumnType::Varchar) {
        std::vector<std::int64_t> offsets(c.size());
        for (std::int64_t i = 0; i < c.size(); ++i)
            offsets[i] = c.get(i);
        std::sort(offsets.begin(), offsets.end());
        offsets.erase(std::unique(offsets.begin(), offsets.end()),
                      offsets.end());
        info.distinct = static_cast<std::int64_t>(offsets.size());
        for (std::int64_t off : offsets) {
            info.heapBytes += static_cast<std::int64_t>(
                t.strings().get(off).size()) + 1;
        }
    }
    entry.heapInfoCache.emplace(column, info);
    return info;
}

/** Name-indexed collection of catalog entries. */
class Catalog
{
  public:
    /** Register a table (already flash-resident). */
    CatalogEntry &
    put(std::shared_ptr<const Table> table,
        std::shared_ptr<FlashResidentTable> resident)
    {
        const std::string &name = table->name();
        CatalogEntry &e = entries[name];
        e.table = std::move(table);
        e.resident = std::move(resident);
        std::lock_guard<std::mutex> lock(e.heapInfoMu);
        e.heapInfoCache.clear(); // a re-registered table's heap differs
        return e;
    }

    /** Lookup by name. @throws FatalError when absent. */
    const CatalogEntry &
    get(const std::string &name) const
    {
        auto it = entries.find(name);
        if (it == entries.end())
            fatal("no table '", name, "' in catalog");
        return it->second;
    }

    CatalogEntry &
    get(const std::string &name)
    {
        auto it = entries.find(name);
        if (it == entries.end())
            fatal("no table '", name, "' in catalog");
        return it->second;
    }

    bool has(const std::string &name) const
    {
        return entries.count(name) != 0;
    }

    const std::map<std::string, CatalogEntry> &all() const
    {
        return entries;
    }

  private:
    std::map<std::string, CatalogEntry> entries;
};

} // namespace aquoman

#endif // AQUOMAN_COLUMNSTORE_CATALOG_HH
