/**
 * @file
 * The memory controller: a 64-entry write pending queue (WPQ) inside
 * the ADR persistent domain, a read path with WPQ forwarding, and a
 * FIFO drain engine into the PM device (Table II).
 *
 * A write is durable the moment it is accepted into the WPQ (the ADR
 * persist point every scheme's commit rules are defined against).
 * Same-line writes coalesce inside the WPQ. When the queue is full,
 * producers wait in FIFO order — this back-pressure is what couples a
 * scheme's write traffic to its transaction throughput.
 *
 * LAD support: entries can be enqueued "held" — durable but not
 * drainable (LAD's in-MC buffering of uncommitted cachelines); commit
 * releases them and a crash discards them.
 */

#ifndef SILO_MC_MEM_CONTROLLER_HH
#define SILO_MC_MEM_CONTROLLER_HH

#include <array>
#include <deque>
#include <functional>

#include "nvm/pm_device.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/log_region.hh"
#include "sim/persist_event_sink.hh"
#include "sim/stats.hh"
#include "sim/tracer.hh"

namespace silo::mc
{

/** Memory controller with an ADR write pending queue. */
class MemController
{
  public:
    /**
     * @param name Stats/trace label; the multi-MC router passes
     *        "mc<i>" so per-controller statistics stay distinguishable.
     */
    MemController(EventQueue &eq, const SimConfig &cfg,
                  nvm::PmDevice &pm, log::LogRegionStore &logs,
                  std::string name = "mc");

    /** @name Write producers (all return false when the WPQ is full) */
    /// @{

    /**
     * Accept a full 64 B cacheline write.
     * @param line_addr 64 B-aligned address.
     * @param values The line's eight words.
     * @param evicted True on the cacheline-eviction path (CE) — fires
     *        the eviction observer used by Silo's flush-bit logic.
     * @param held True for LAD's buffered uncommitted lines.
     */
    bool tryWriteLine(Addr line_addr,
                      const std::array<Word, wordsPerLine> &values,
                      bool evicted, bool held = false);

    /** Accept an 8 B in-place word update (Silo's log-as-data path). */
    bool tryWriteWord(Addr word_addr, Word value);

    /**
     * Accept a log-region record write of record.sizeBytes() bytes at
     * @p rec_addr; the record becomes durable at acceptance.
     */
    bool tryWriteLog(Addr rec_addr, const log::LogRecord &record);
    /// @}

    /** FIFO wait for WPQ space; @p cb runs once when a slot frees. */
    void requestWriteSlot(std::function<void()> cb);

    unsigned freeWpqSlots() const
    {
        return _cfg.wpqEntries - unsigned(_wpq.size());
    }

    /** @name LAD held-entry control */
    /// @{
    /** Make held entries for @p line_addr drainable (LAD commit). */
    void releaseHeld(Addr line_addr);
    /** Number of held entries currently buffered. */
    unsigned heldEntries() const { return _heldCount; }
    /// @}

    /**
     * Issue a read of the 64 B line at @p line_addr; @p done runs at
     * completion (forwarded from the WPQ or read from media).
     */
    void read(Addr line_addr, std::function<void()> done);

    /** Observer invoked when an evicted data line is accepted. */
    void
    setEvictionObserver(std::function<void(Addr)> observer)
    {
        _evictionObserver = std::move(observer);
    }

    /**
     * Register the persistency checker (nullptr when disabled). Accept,
     * held-release, and crash-discard events are reported to it before
     * any scheme observer runs.
     */
    void setCheckSink(log::PersistEventSink *sink) { _check = sink; }

    /**
     * Crash: ADR drains every non-held entry into the media and the
     * held (uncommitted LAD) entries are discarded.
     */
    void crashDrain();

    /** End of run: drain everything drainable, ignoring timing; held
     *  (revocable-uncommitted) entries are discarded like a crash.
     *  Producers parked in requestWriteSlot() are served until none
     *  is left. */
    void drainAll();

    /** Producers parked in requestWriteSlot(). */
    unsigned parkedWriters() const
    {
        return unsigned(_writeWaiters.size());
    }

    /** @name Statistics */
    /// @{
    std::uint64_t acceptedWrites() const { return _writes.value(); }
    std::uint64_t acceptedBytes() const { return _bytes.value(); }
    std::uint64_t coalescedWrites() const { return _coalesced.value(); }
    std::uint64_t readForwards() const { return _forwards.value(); }
    std::uint64_t fullStalls() const { return _fullStalls.value(); }
    /** Current WPQ occupancy in entries (interval-sampler probe). */
    unsigned wpqOccupancy() const { return unsigned(_wpq.size()); }
    /// @}

    stats::StatGroup &statGroup() { return _stats; }
    const stats::StatGroup &statGroup() const { return _stats; }

  private:
    struct WpqEntry
    {
        Addr key;          //!< 64 B line key (coalescing granularity)
        Addr pmLine;       //!< 256 B on-PM buffer line
        bool logRegion = false;
        bool held = false;
        /**
         * Dirty words, indexed within the 256 B pm line: bit i of
         * wordMask gates values[i]. Flat storage (the index space is
         * only 32 words) replaced a per-entry std::map whose node
         * churn showed up in whole-simulation profiles; drain paths
         * iterate the mask ascending, matching the map's order.
         */
        std::uint32_t wordMask = 0;
        std::array<Word, pmBufferLineBytes / wordBytes> values;
        unsigned bytes = 0;

        void
        set(unsigned idx, Word value)
        {
            wordMask |= std::uint32_t(1) << idx;
            values[idx] = value;
        }
    };

    /** WPQ entries data writes may occupy (the rest is log reserve). */
    unsigned dataCapacity() const;

    /** Core accept path shared by the tryWrite* entry points. */
    bool enqueue(WpqEntry &&entry);

    /** Drain the oldest drainable entry; reschedules itself. */
    void drainOne();
    void scheduleDrain(Cycles delay = 0);
    void notifyWaiters(unsigned count);

    /** Apply one entry straight to media (crash / final drain). */
    void applyEntry(const WpqEntry &entry);
    /** Apply every non-held entry, discard the held ones, empty the
     *  WPQ and the device buffer: the body of both drains. */
    void applyAll();

    EventQueue &_eq;
    const SimConfig &_cfg;
    nvm::PmDevice &_pm;
    log::LogRegionStore &_logs;

    std::deque<WpqEntry> _wpq;
    std::deque<std::function<void()>> _writeWaiters;
    std::function<void(Addr)> _evictionObserver;
    log::PersistEventSink *_check = nullptr;
    unsigned _heldCount = 0;
    bool _drainScheduled = false;

    stats::StatGroup _stats;
    stats::Scalar _writes{"wpq_writes", "writes accepted into the WPQ"};
    stats::Scalar _bytes{"wpq_bytes", "bytes accepted into the WPQ"};
    stats::Scalar _coalesced{"wpq_coalesced",
        "writes merged into an existing WPQ entry"};
    stats::Scalar _forwards{"read_forwards",
        "reads served by WPQ forwarding"};
    stats::Scalar _reads{"reads", "reads issued to the PM device"};
    stats::Scalar _fullStalls{"wpq_full_stalls",
        "write attempts rejected because the WPQ was full"};
    stats::Distribution _occupancy{
        "wpq_occupancy", "WPQ entries occupied at each accept", 4, 32};
    /** This controller's trace timeline; 0 when tracing is off. */
    trace::Tracer::TrackId _track = 0;
};

} // namespace silo::mc

#endif // SILO_MC_MEM_CONTROLLER_HH
