/**
 * @file
 * Flash controller switch (Fig. 3 of the paper). AQUOMAN and the x86
 * host both access NAND flash through this switch, which fairly
 * arbitrates page commands. In the simulator it accounts per-port
 * traffic and models the effective bandwidth each port observes when
 * both are active.
 */

#ifndef AQUOMAN_FLASH_CONTROLLER_SWITCH_HH
#define AQUOMAN_FLASH_CONTROLLER_SWITCH_HH

#include <atomic>
#include <cstdint>

#include "flash/flash_device.hh"

namespace aquoman {

/** Ports into the flash controller switch. */
enum class FlashPort
{
    Host,    ///< legacy OS I/O path
    Aquoman, ///< in-storage accelerator path
};

/**
 * Fair round-robin arbiter between the host I/O queues and the AQUOMAN
 * page-request stream. Functionally both ports read the same device;
 * the switch records who moved how many bytes so the performance models
 * can derive contention-adjusted bandwidth.
 */
class ControllerSwitch
{
  public:
    explicit ControllerSwitch(FlashDevice &dev) : device(dev) {}

    /** Read through the switch on behalf of @p port. */
    void
    read(FlashPort port, const FlashExtent &ext, std::int64_t offset,
         void *out, std::int64_t bytes)
    {
        device.read(ext, offset, out, bytes);
        portBytesRead[portIdx(port)].fetch_add(
            bytes, std::memory_order_relaxed);
    }

    /** Write through the switch on behalf of @p port. */
    void
    write(FlashPort port, const FlashExtent &ext, std::int64_t offset,
          const void *data, std::int64_t bytes)
    {
        device.write(ext, offset, data, bytes);
        portBytesWritten[portIdx(port)].fetch_add(
            bytes, std::memory_order_relaxed);
    }

    /**
     * Account @p bytes of modelled read traffic on @p port without
     * moving data. Every query path computes on in-memory columns but
     * streams page reads in the model: the host executor's base-table
     * scans, the service's device shards, and the service's merge of
     * each run's private ledger into the shared switch. This keeps the
     * per-port ledgers complete.
     */
    void
    accountRead(FlashPort port, std::int64_t bytes)
    {
        portBytesRead[portIdx(port)].fetch_add(
            bytes, std::memory_order_relaxed);
    }

    /** Account modelled write traffic on @p port (no data movement). */
    void
    accountWrite(FlashPort port, std::int64_t bytes)
    {
        portBytesWritten[portIdx(port)].fetch_add(
            bytes, std::memory_order_relaxed);
    }

    /** Total bytes read on @p port (real + modelled). */
    std::int64_t
    bytesRead(FlashPort port) const
    {
        return portBytesRead[portIdx(port)].load(
            std::memory_order_relaxed);
    }

    /** Total bytes written on @p port (real + modelled). */
    std::int64_t
    bytesWritten(FlashPort port) const
    {
        return portBytesWritten[portIdx(port)].load(
            std::memory_order_relaxed);
    }

    /**
     * Bandwidth seen by one port. With both ports active the fair
     * arbiter halves each port's share of the device's read bandwidth.
     */
    double
    effectiveReadBandwidth(bool both_ports_active) const
    {
        double bw = device.cfg().readBandwidth;
        return both_ports_active ? bw / 2.0 : bw;
    }

    /** Underlying device. */
    FlashDevice &dev() { return device; }

  private:
    static int portIdx(FlashPort port) { return static_cast<int>(port); }

    FlashDevice &device;
    /// Queries run concurrently through one switch; the per-port byte
    /// ledgers are lock-free relaxed atomics (exact sums).
    mutable std::atomic<std::int64_t> portBytesRead[2]{};
    mutable std::atomic<std::int64_t> portBytesWritten[2]{};
};

} // namespace aquoman

#endif // AQUOMAN_FLASH_CONTROLLER_SWITCH_HH
