/**
 * @file
 * Benchmark binary: runs one named workload of the Silo simulator as a
 * closed batch (a fixed list of cells, each run to completion) through
 * the library's public API only, and prints its metrics.
 *
 *   silobench --workload matrix|crash-sweep|logcap --seed N
 *             --seconds S [--trace 0|1] [--jobs J] [--out-dir D]
 *             [--source-id ID] [--fail-check] [--known-defects]
 *
 * One run: generate the inputs from the seed several times (setup_s is
 * the median), run one untimed verification batch with every output
 * check on, then repeat the batch until --seconds have passed and
 * report medians. Every timed batch must reproduce the verified
 * batch's simulated-stat digest, so a timed batch that simulated
 * anything else counts as failed.
 *
 * The traced binary (silobench_traced) alternates untraced and traced
 * batches instead: traced batches record one span around every public
 * call and count heap allocations (alloc_count.cc); the per-layer
 * metrics come from them, and the difference of the two batch medians
 * is the tracing overhead.
 *
 * Cells on which the simulator is known to fail its checks are left
 * out (knownDefects, listed in every run's output); --known-defects
 * runs only those cells instead.
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics. Any failed output check makes the
 * exit code 1.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/fuzz_runner.hh"
#include "fuzz/litmus_gen.hh"
#include "harness/sweep.hh"
#include "sim/sha256.hh"
#include "workload/litmus.hh"
#include "workload/trace_gen.hh"

#ifdef SILOBENCH_TRACED
namespace silobench
{
extern bool countAllocs;
extern thread_local std::uint64_t allocCount;
} // namespace silobench
#endif

namespace
{

using namespace silo;
using harness::SimReport;

/** @name Workload sizes (see perfbench/BENCHMARK.md for why) */
/// @{
constexpr std::uint64_t matrixTx = 500;
constexpr unsigned matrixCores[] = {1, 2, 4, 8};
constexpr unsigned matrixJobs = 2;
constexpr std::uint64_t logcapTx = 200;
constexpr unsigned logcapCores = 8;
/**
 * crash-sweep runs every program to completion on every scheme (the
 * modeled metrics average over all of them), and crash cases in
 * program order until the budget is spent, so a batch's work hardly
 * depends on the seed.
 */
constexpr unsigned crashPrograms = 150;
constexpr std::uint64_t crashCaseBudget = 24000;
/** Setups per run: at least this many, and at least setupMinSeconds. */
constexpr int setupMinReps = 5;
constexpr double setupMinSeconds = 2.0;
constexpr int setupMaxReps = 1000;
/// @}

/** Events per runEvents() call of a run to completion. */
constexpr std::uint64_t runChunkEvents = 1 << 20;
/**
 * A run still busy after this many events per transaction is treated
 * as hung. Finishing cells execute about 100-300 events per
 * transaction.
 */
constexpr std::uint64_t maxEventsPerTx = 5000;

// ------------------------------------------------------------------
// Clock, allocation counter, spans

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

#ifdef SILOBENCH_TRACED
bool tracing = false;
std::uint64_t
allocs()
{
    return silobench::allocCount;
}
void
setTracing(bool on)
{
    tracing = on;
    silobench::countAllocs = on;
}
#else
constexpr bool tracing = false;
std::uint64_t
allocs()
{
    return 0;
}
void
setTracing(bool)
{
}
#endif

struct Span
{
    const char *name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the parent span in the same SpanLog; -1 = root. */
    std::int32_t parent = -1;
};

/** Spans recorded by one thread of work: one cell, or the batch. */
struct SpanLog
{
    std::vector<Span> spans;
    std::int32_t open = -1;
};

/** One span around a public call; records nothing untraced. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name)
    {
        if (!tracing)
            return;
        _log = &log;
        _id = std::int32_t(log.spans.size());
        log.spans.push_back({name, nowNs(), 0, log.open});
        log.open = _id;
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    close()
    {
        if (!_log)
            return;
        Span &s = _log->spans[std::size_t(_id)];
        s.end = nowNs();
        _log->open = s.parent;
        _log = nullptr;
    }

    /** Index of this span in its log (the parent of cells it runs). */
    std::int32_t id() const { return _id; }

  private:
    SpanLog *_log = nullptr;
    std::int32_t _id = -1;
};

// ------------------------------------------------------------------
// Cells and batches

/** What one cell reports back; written only by the thread running it. */
struct CellOut
{
    SpanLog log;
    /** Batch span (the Sweep::run call) the cell ran under. */
    std::int32_t parent = -1;
    /** Host seconds from System construction to destruction. */
    double seconds = 0;
    std::uint64_t events = 0;
    std::uint64_t runEvents = 0;
    std::uint64_t ctorAllocs = 0;
    std::uint64_t runAllocs = 0;
    std::uint64_t violations = 0;
    std::uint64_t commits = 0;
    bool crash = false;
    /** Why the cell's output check failed; empty when it passed. */
    std::string why;
};

/** One pass over the workload's fixed cell list. */
struct Batch
{
    SpanLog log;
    std::vector<CellOut> cells;
    double wallSeconds = 0;
    /** Sum over Sweep::run calls of the last cell's queue wait. */
    double queueWaitSeconds = 0;
    /** Sum over Sweep::run calls of workers x wall seconds. */
    double workerSeconds = 0;
    std::string digest;
};

/** Everything a batch needs to know about the run it belongs to. */
struct BatchMode
{
    /** Run the expensive output checks (verification batch). */
    bool verify = false;
    /** Invert the first cell's check (tests the failure path). */
    bool failCheck = false;
};

void
digestReport(Sha256 &h, const std::string &label, const SimReport &r)
{
    std::ostringstream os;
    os.precision(17);
    os << label << ' ' << r.committedTransactions << ' ' << r.ticks
       << ' ' << r.txPerMillionCycles << ' ' << r.mediaWordWrites << ' '
       << r.mediaLineWrites << ' ' << r.dataRegionWordWrites << ' '
       << r.logRegionWordWrites << ' ' << r.logRecordsWritten << ' '
       << r.commitStallCycles << ' ' << r.storeStallCycles << ' '
       << r.wpqFullStalls << ' ' << r.wpqAcceptedWrites << ' '
       << r.wpqAcceptedBytes << '\n'
       << r.statsJson << '\n';
    const std::string s = os.str();
    h.update(s.data(), s.size());
}

/**
 * Stack storage for one System (~400 KiB) whose construction and
 * destruction are timed separately. Declaring a std::optional<System>
 * instead cost about 8 us per cell on a 4-core Xeon host, comparable
 * to a whole crash case; raw storage costs what a plain local System
 * (harness::runCell) does.
 */
class SystemSlot
{
  public:
    SystemSlot() = default;
    ~SystemSlot() { reset(); }
    SystemSlot(const SystemSlot &) = delete;
    SystemSlot &operator=(const SystemSlot &) = delete;

    void
    emplace(const SimConfig &cfg, const workload::WorkloadTraces &traces)
    {
        _sys = new (_storage) harness::System(cfg, traces);
    }

    void
    reset()
    {
        if (_sys)
            _sys->~System();
        _sys = nullptr;
    }

    harness::System *operator->() { return _sys; }
    harness::System &operator*() { return *_sys; }

  private:
    alignas(harness::System) unsigned char
        _storage[sizeof(harness::System)];
    harness::System *_sys = nullptr;
};

/** Print why @p out's check failed, if it did. */
void
reportFailure(const std::string &label, const CellOut &out)
{
    if (!out.why.empty())
        std::fprintf(stderr, "silobench: check failed: %s: %s\n",
                     label.c_str(), out.why.c_str());
}

/** Words of @p traces' final memory that PM media does not hold. */
std::uint64_t
mediaMismatches(harness::System &sys,
                const workload::WorkloadTraces &traces, Word flip)
{
    std::uint64_t bad = 0;
    for (const auto &[addr, value] : traces.finalMemory) {
        bad += sys.pm().media().load(addr) != (value ^ flip);
        flip = 0;
    }
    return bad;
}

/**
 * Construct, run to completion, settle, drain and tear down one System,
 * with one span per call. The run goes in chunks of runEvents() so that
 * a cell still busy after @p event_cap events fails instead of hanging
 * the benchmark; the cap is far above any finishing cell's count.
 *
 * @p oracle adds the final-state check of system_test: after the
 * drain, PM media must equal the trace's final memory word for word
 * (@p flip is XORed into the first expected word to test the failure
 * path). On a mismatch the cell is crashed and recovered to report how
 * many words the scheme's log still held.
 */
SimReport
runToCompletion(const SimConfig &cfg,
                const workload::WorkloadTraces &traces, CellOut &out,
                std::uint64_t event_cap, bool oracle, Word flip)
{
    SimReport report;
    const std::int64_t t0 = nowNs();
    {
        SystemSlot sys;
        Scope cell(out.log, "cell");
        std::uint64_t a = allocs();
        {
            Scope s(out.log, "harness.ctor");
            sys.emplace(cfg, traces);
        }
        out.ctorAllocs = allocs() - a;
        a = allocs();
        bool busy = false;
        {
            Scope s(out.log, "harness.run");
            while ((busy = sys->runEvents(runChunkEvents)) &&
                   sys->eventQueue().executedEvents() < event_cap) {
            }
        }
        out.runAllocs = allocs() - a;
        out.runEvents = sys->eventQueue().executedEvents();
        if (busy) {
            out.why = "still running after " +
                      std::to_string(out.runEvents) + " events";
        } else {
            {
                Scope s(out.log, "harness.settle");
                sys->settle();
            }
            {
                Scope s(out.log, "harness.drain");
                sys->drainToMedia();
            }
        }
        out.events = sys->eventQueue().executedEvents();
        {
            Scope s(out.log, "harness.report");
            report = sys->report();
        }
        {
            Scope s(out.log, "harness.stats_json");
            report.statsJson = sys->statsJson();
        }
        if (const check::PersistencyChecker *ck = sys->checker()) {
            out.violations = ck->violations().size();
            out.commits = ck->counters().commits;
        }
        if (oracle && !busy) {
            if (std::uint64_t bad = mediaMismatches(*sys, traces, flip)) {
                sys->crash();
                sys->recover();
                out.why = std::to_string(bad) +
                          " final-memory words differ on media after "
                          "drainToMedia (" +
                          std::to_string(
                              mediaMismatches(*sys, traces, flip)) +
                          " after crash and recovery)";
            }
        }
        Scope s(out.log, "harness.dtor");
        sys.reset();
    }
    out.seconds = double(nowNs() - t0) * 1e-9;
    return report;
}

/**
 * Construct one litmus System, crash it after @p crash_index events,
 * recover and tear down, as fuzz::runLitmusCase does, with one span
 * per call.
 */
void
runCrashCase(const SimConfig &cfg, const workload::WorkloadTraces &traces,
             std::uint64_t crash_index, CellOut &out)
{
    out.crash = true;
    const std::int64_t t0 = nowNs();
    {
        SystemSlot sys;
        Scope cell(out.log, "cell");
        std::uint64_t a = allocs();
        {
            Scope s(out.log, "harness.ctor");
            sys.emplace(cfg, traces);
        }
        out.ctorAllocs = allocs() - a;
        a = allocs();
        {
            Scope s(out.log, "harness.run");
            sys->runEvents(crash_index);
        }
        out.runAllocs = allocs() - a;
        out.runEvents = sys->eventQueue().executedEvents();
        {
            Scope s(out.log, "harness.crash");
            sys->crash();
        }
        {
            Scope s(out.log, "harness.recover");
            sys->recover();
        }
        out.events = sys->eventQueue().executedEvents();
        out.violations = sys->checker()->violations().size();
        out.commits = sys->checker()->counters().commits;
        Scope s(out.log, "harness.dtor");
        sys.reset();
    }
    out.seconds = double(nowNs() - t0) * 1e-9;
}

// ------------------------------------------------------------------
// Modeled results

/** Scheme-level sums over a group of cells, for per-layer metrics. */
struct SchemeTotals
{
    double tx = 0;
    double commitStall = 0;
    double storeStall = 0;
    double wpqFullStalls = 0;
    double wpqBytes = 0;
    double wpqWrites = 0;
    double wpqCoalesced = 0;
    double wpqOccP99 = 0;
    double mediaWords = 0;
    double mediaLines = 0;
    double dcwSuppressed = 0;
    double bufferCoalesced = 0;
    double logRecords = 0;
    double logBytes = 0;
    double l1dHits = 0, l1dMisses = 0;
    double l3Hits = 0, l3Misses = 0;
    double l3DirtyEvictions = 0;
    double reclaimed = 0, migrated = 0, checkpoints = 0,
           admissionStalls = 0;
    double siloTotalLogs = 0, siloIgnored = 0, siloMerged = 0,
           siloOverflows = 0, siloInPlace = 0;
};

/**
 * Flattens a silo-stats-v1 document into "path/leaf" -> number.
 * Histogram bucket arrays are skipped; nothing else in the format is
 * an array.
 */
class StatsFlattener
{
  public:
    explicit StatsFlattener(const std::string &json) : _s(json) {}

    std::map<std::string, double>
    flatten()
    {
        value("");
        return std::move(_out);
    }

  private:
    void
    ws()
    {
        while (_i < _s.size() && std::isspace((unsigned char)_s[_i]))
            ++_i;
    }

    std::string
    str()
    {
        std::string out;
        for (++_i; _i < _s.size() && _s[_i] != '"'; ++_i) {
            if (_s[_i] == '\\')
                ++_i;
            out += _s[_i];
        }
        ++_i;
        return out;
    }

    void
    value(const std::string &path)
    {
        ws();
        if (_i >= _s.size())
            return;
        char c = _s[_i];
        if (c == '{') {
            ++_i;
            for (ws(); _i < _s.size() && _s[_i] != '}'; ws()) {
                std::string key = str();
                ws();
                ++_i; // ':'
                value(path.empty() ? key : path + "/" + key);
                ws();
                if (_s[_i] == ',')
                    ++_i;
            }
            ++_i;
        } else if (c == '[') {
            int depth = 0;
            do {
                if (_s[_i] == '[')
                    ++depth;
                else if (_s[_i] == ']')
                    --depth;
                ++_i;
            } while (depth > 0 && _i < _s.size());
        } else if (c == '"') {
            str();
        } else {
            const char *begin = _s.c_str() + _i;
            char *end = nullptr;
            _out[path] = std::strtod(begin, &end);
            _i += std::max<std::size_t>(1, std::size_t(end - begin));
        }
    }

    const std::string &_s;
    std::size_t _i = 0;
    std::map<std::string, double> _out;
};

/** Sum of every "<prefix>.../<leaf>" entry. */
double
sumStat(const std::map<std::string, double> &flat,
        const std::string &prefix, const std::string &leaf)
{
    double total = 0;
    for (auto it = flat.lower_bound(prefix);
         it != flat.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
        const std::string &k = it->first;
        if (k.size() > leaf.size() &&
            k.compare(k.size() - leaf.size(), leaf.size(), leaf) == 0 &&
            k[k.size() - leaf.size() - 1] == '/')
            total += it->second;
    }
    return total;
}

void
addCell(SchemeTotals &t, const SimReport &r)
{
    auto flat = StatsFlattener(r.statsJson).flatten();
    auto stat = [&](const char *group, const char *leaf) {
        return sumStat(flat, std::string("groups/") + group, leaf);
    };
    t.tx += double(r.committedTransactions);
    t.commitStall += double(r.commitStallCycles);
    t.storeStall += double(r.storeStallCycles);
    t.wpqFullStalls += double(r.wpqFullStalls);
    t.wpqBytes += double(r.wpqAcceptedBytes);
    t.wpqWrites += stat("mc", "wpq_writes");
    t.wpqCoalesced += stat("mc", "wpq_coalesced");
    t.wpqOccP99 = std::max(t.wpqOccP99, stat("mc", "wpq_occupancy/p99"));
    t.mediaWords += double(r.mediaWordWrites);
    t.mediaLines += double(r.mediaLineWrites);
    t.dcwSuppressed += stat("pm", "dcw_suppressed_words");
    t.bufferCoalesced += stat("pm", "buffer_coalesced_writes");
    t.logRecords += double(r.logRecordsWritten);
    t.logBytes += stat("scheme", "log_bytes");
    t.l1dHits += stat("cache/l1d/", "hits");
    t.l1dMisses += stat("cache/l1d/", "misses");
    t.l3Hits += stat("cache/l3", "hits");
    t.l3Misses += stat("cache/l3", "misses");
    t.l3DirtyEvictions += stat("cache/l3", "dirty_evictions");
    t.reclaimed += stat("log_lifecycle", "segments_reclaimed");
    t.migrated += stat("log_lifecycle", "records_migrated");
    t.checkpoints += stat("log_lifecycle", "checkpoints");
    t.admissionStalls += stat("log_lifecycle", "admission_stalls");
    t.siloTotalLogs += stat("scheme_extra", "total_logs/sum");
    t.siloIgnored += stat("scheme_extra", "ignored");
    t.siloMerged += stat("scheme_extra", "merged");
    t.siloOverflows += stat("scheme_extra", "overflow_evictions");
    t.siloInPlace += stat("scheme_extra", "in_place_updates");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * Paired per-input values of one modeled metric: inputs[i][scheme].
 * Inputs are the 8-core workloads on matrix/logcap and the programs'
 * completion runs on crash-sweep.
 */
using PerInput = std::vector<std::map<SchemeKind, double>>;

/** Geomean over inputs of a/b; inputs where either is 0 are skipped. */
double
geomeanRatio(const PerInput &in, SchemeKind a, SchemeKind b)
{
    double log_sum = 0;
    int n = 0;
    for (const auto &row : in) {
        auto ia = row.find(a), ib = row.find(b);
        if (ia == row.end() || ib == row.end() || ia->second <= 0 ||
            ib->second <= 0)
            continue;
        log_sum += std::log(ia->second / ib->second);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0;
}

struct Modeled
{
    double siloSpeedup = 0;
    double siloWriteRatio = 0;
    double paperErrPct = 0;
    /** The ratios behind paperErrPct, for the printed table. */
    std::vector<std::pair<std::string, double>> paperTerms;
};

Modeled
modeledMetrics(const PerInput &throughput, const PerInput &writes)
{
    using S = SchemeKind;
    Modeled m;
    m.siloSpeedup = geomeanRatio(throughput, S::Silo, S::Base);
    m.siloWriteRatio = geomeanRatio(writes, S::Silo, S::Base);
    // The paper's 8-core claims: Silo = 1.5x LAD, 4.3x MorLog and
    // 6.4x FWB throughput; Silo writes 76.5% less than MorLog and 82%
    // less than FWB.
    struct Claim
    {
        const char *name;
        double paper;
        double model;
    };
    const Claim claims[] = {
        {"silo/lad_tput", 1.5, geomeanRatio(throughput, S::Silo, S::Lad)},
        {"silo/morlog_tput", 4.3,
         geomeanRatio(throughput, S::Silo, S::MorLog)},
        {"silo/fwb_tput", 6.4, geomeanRatio(throughput, S::Silo, S::Fwb)},
        {"silo/morlog_writes", 1 - 0.765,
         geomeanRatio(writes, S::Silo, S::MorLog)},
        {"silo/fwb_writes", 1 - 0.82, geomeanRatio(writes, S::Silo, S::Fwb)},
    };
    // A claim whose schemes share no input (a scheme left out as a
    // known defect) is not averaged in.
    double err = 0;
    int n = 0;
    for (const Claim &c : claims) {
        if (c.model <= 0)
            continue;
        err += std::abs(c.model - c.paper) / c.paper;
        ++n;
        m.paperTerms.emplace_back(c.name, c.model);
    }
    m.paperErrPct = n ? 100 * err / n : 0;
    return m;
}

// ------------------------------------------------------------------
// Workloads

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs from @p seed.
     * @return host seconds spent generating (setup_s).
     */
    virtual double setup(std::uint64_t seed, SpanLog &log) = 0;

    /** Run the fixed cell list once into @p b. */
    virtual void run(Batch &b, const BatchMode &mode) = 0;

    /** Modeled end-to-end metrics of the verified batch. */
    virtual Modeled modeled() const = 0;

    /** Per-scheme totals over the top-core-count cells. */
    virtual std::map<SchemeKind, SchemeTotals> totals() const = 0;
};

/**
 * matrix and logcap: full runs of (scheme x workload x cores) cells
 * through one harness::Sweep, whose results are written as the
 * silo-sweep-v1 JSON after every batch.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::string name, std::vector<harness::CellSpec> specs,
                  unsigned jobs, unsigned top_cores, std::string out_dir)
        : _name(std::move(name)), _sweep({jobs, false}),
          _topCores(top_cores), _outDir(std::move(out_dir))
    {
        for (auto &spec : specs) {
            const std::size_t i = _sweep.size();
            const std::uint64_t cap = maxEventsPerTx *
                                      spec.trace.numThreads *
                                      spec.trace.transactionsPerThread;
            spec.runner = [this, i, cap](const SimConfig &cfg,
                                         const workload::WorkloadTraces &tr) {
                return runToCompletion(
                    cfg, tr, _batch->cells[i], cap, _mode->verify,
                    _mode->failCheck && i == 0 ? 1 : 0);
            };
            _sweep.add(std::move(spec));
        }
    }

    double
    setup(std::uint64_t, SpanLog &log) override
    {
        // Specs already carry the seed; generate each unique trace
        // config once, as Sweep::run would, and hand the result to the
        // sweep's cache so its run() generates nothing.
        std::map<std::string, const workload::TraceGenConfig *> unique;
        for (const auto &spec : _sweep.specs())
            unique.emplace(harness::TraceCache::key(spec.trace),
                           &spec.trace);
        _traces.clear();
        const std::int64_t t0 = nowNs();
        for (const auto &[key, cfg] : unique) {
            Scope s(log, "workload.trace_gen");
            _traces.emplace_back(*cfg, workload::generateTraces(*cfg));
        }
        return double(nowNs() - t0) * 1e-9;
    }

    void
    run(Batch &b, const BatchMode &mode) override
    {
        if (!_traces.empty()) {
            for (auto &[cfg, tr] : _traces)
                _sweep.traceCache().insert(cfg, std::move(tr));
            _traces.clear();
        }
        b.cells.assign(_sweep.size(), CellOut{});
        _batch = &b;
        _mode = &mode;
        const std::int64_t t0 = nowNs();
        {
            Scope s(b.log, "harness.sweep_run");
            for (auto &c : b.cells)
                c.parent = s.id();
            _sweep.run();
        }
        const double sweep_s = double(nowNs() - t0) * 1e-9;
        {
            Scope s(b.log, "harness.write_json");
            _sweep.writeJson(_outDir + "/" + _name + ".json", _name);
        }
        const auto &results = _sweep.results();
        Sha256 h;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const harness::CellSpec &spec = _sweep.specs()[i];
            CellOut &out = b.cells[i];
            const std::uint64_t want = std::uint64_t(spec.trace.numThreads) *
                                       spec.trace.transactionsPerThread;
            const std::uint64_t got = results[i].report.committedTransactions;
            if (got != want && out.why.empty())
                out.why = "committed " + std::to_string(got) + " of " +
                          std::to_string(want) + " transactions";
            reportFailure(spec.label, out);
            digestReport(h, spec.label, results[i].report);
            b.queueWaitSeconds = std::max(b.queueWaitSeconds,
                                          results[i].queueWaitSeconds);
        }
        b.workerSeconds += sweep_s * std::min<double>(_sweep.jobs(),
                                                      results.size());
        b.digest = h.hex();
        if (mode.verify)
            _verified = results;
    }

    Modeled
    modeled() const override
    {
        PerInput tput, writes;
        std::map<workload::WorkloadKind, std::size_t> row;
        for (std::size_t i = 0; i < _verified.size(); ++i) {
            const harness::CellSpec &spec = _sweep.specs()[i];
            if (spec.sim.numCores != _topCores)
                continue;
            auto [it, fresh] = row.emplace(spec.trace.kind, tput.size());
            if (fresh) {
                tput.emplace_back();
                writes.emplace_back();
            }
            const SimReport &r = _verified[i].report;
            tput[it->second][spec.sim.scheme] = r.txPerMillionCycles;
            writes[it->second][spec.sim.scheme] =
                double(r.mediaWordWrites);
        }
        return modeledMetrics(tput, writes);
    }

    std::map<SchemeKind, SchemeTotals>
    totals() const override
    {
        std::map<SchemeKind, SchemeTotals> t;
        for (std::size_t i = 0; i < _verified.size(); ++i) {
            const harness::CellSpec &spec = _sweep.specs()[i];
            if (spec.sim.numCores == _topCores)
                addCell(t[spec.sim.scheme], _verified[i].report);
        }
        return t;
    }

  private:
    std::string _name;
    harness::Sweep _sweep;
    unsigned _topCores;
    std::string _outDir;
    std::vector<std::pair<workload::TraceGenConfig,
                          workload::WorkloadTraces>> _traces;
    std::vector<harness::CellResult> _verified;
    Batch *_batch = nullptr;
    const BatchMode *_mode = nullptr;
};

/**
 * Cells the benchmark leaves out because the simulator fails their
 * output checks (perfbench/BENCHMARK.md, "Known defects"). The list is
 * fixed, not chosen per seed. `--known-defects` runs exactly these
 * cells with every check on, so each defect stays reproducible; drop an
 * entry once the simulator passes it on every seed.
 */
struct KnownDefect
{
    /** matrix or logcap; nullptr matches both. */
    const char *workload;
    SchemeKind scheme;
    /** Trace kind; nullopt matches every kind. */
    std::optional<workload::WorkloadKind> kind;
    /** Core count; 0 matches every count. */
    unsigned cores;
    const char *what;
};

const KnownDefect knownDefects[] = {
    {nullptr, SchemeKind::Fwb, std::nullopt, 0,
     "after settle() and drainToMedia() some committed words are only in "
     "FWB's redo log, so PM media differs from the trace's final memory "
     "(crash and recovery restore them); the failing cells change with "
     "the seed"},
    {"matrix", SchemeKind::Lad, workload::WorkloadKind::Tpcc, 8,
     "deadlock on most seeds: the event queue empties with 1000-2700 of "
     "4000 transactions committed"},
    {"logcap", SchemeKind::Lad, workload::WorkloadKind::Tpcc, 0,
     "livelock on some seeds: still running after 5000 events per "
     "transaction"},
};

const KnownDefect *
knownDefect(const std::string &wl, const harness::CellSpec &spec)
{
    for (const KnownDefect &d : knownDefects) {
        if ((!d.workload || wl == d.workload) &&
            spec.sim.scheme == d.scheme &&
            (!d.kind || *d.kind == spec.trace.kind) &&
            (!d.cores || d.cores == spec.sim.numCores))
            return &d;
    }
    return nullptr;
}

/**
 * Keep the cells of @p specs that are known defects of @p wl when
 * @p defects is set, else the others.
 */
std::vector<harness::CellSpec>
selectCells(const std::string &wl, std::vector<harness::CellSpec> specs,
            bool defects)
{
    std::erase_if(specs, [&](const harness::CellSpec &spec) {
        return (knownDefect(wl, spec) != nullptr) != defects;
    });
    return specs;
}

std::vector<harness::CellSpec>
matrixSpecs(std::uint64_t seed)
{
    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::Fwb,
                                  SchemeKind::MorLog, SchemeKind::Lad,
                                  SchemeKind::Silo};
    std::vector<harness::CellSpec> specs;
    for (unsigned cores : matrixCores) {
        for (auto wl : workload::evaluationWorkloads) {
            for (SchemeKind scheme : schemes) {
                harness::CellSpec spec;
                spec.trace.kind = wl;
                spec.trace.numThreads = cores;
                spec.trace.transactionsPerThread = matrixTx;
                spec.trace.seed = seed;
                spec.sim.numCores = cores;
                spec.sim.scheme = scheme;
                spec.label = std::string(workload::workloadName(wl)) +
                             "/" + schemeName(scheme) + "/" +
                             std::to_string(cores) + "c";
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

std::vector<harness::CellSpec>
logcapSpecs(std::uint64_t seed)
{
    std::vector<harness::CellSpec> specs;
    for (auto wl : workload::evaluationWorkloads) {
        for (SchemeKind scheme : allSchemes) {
            harness::CellSpec spec;
            spec.trace.kind = wl;
            spec.trace.numThreads = logcapCores;
            spec.trace.transactionsPerThread = logcapTx;
            spec.trace.seed = seed;
            spec.sim.numCores = logcapCores;
            spec.sim.scheme = scheme;
            // The tight ring of bench/logcap_lifecycle: cleaning,
            // migration and checkpoints run beside every append.
            spec.sim.logSegmented = true;
            spec.sim.logSegmentBytes = 1024;
            spec.sim.logSegmentsPerThread = 4;
            spec.sim.logCleanReserve = 1;
            spec.sim.logCheckpointBytes = 4 * 1024;
            spec.label = std::string("logcap/") +
                         workload::workloadName(wl) + "/" +
                         schemeName(scheme);
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

/**
 * crash-sweep: the fuzz campaign's phases A and B on seeded litmus
 * programs. Per program, one Sweep runs every scheme to completion
 * (bounding the crash range), then a second Sweep crashes each scheme
 * at every event index and recovers, with the persistency checker on.
 */
class CrashSweepWorkload : public Workload
{
  public:
    double
    setup(std::uint64_t seed, SpanLog &log) override
    {
        _programs.clear();
        const std::int64_t t0 = nowNs();
        Rng rng(seed);
        const fuzz::LitmusGenConfig gen;
        for (unsigned p = 0; p < crashPrograms; ++p) {
            Program prog;
            workload::LitmusProgram program;
            {
                Scope s(log, "fuzz.litmus_gen");
                program = fuzz::generateLitmus(
                    rng, gen,
                    "fuzz-" + std::to_string(seed) + "-" +
                        std::to_string(p));
            }
            {
                Scope s(log, "fuzz.litmus_compile");
                prog.trace.kind = workload::WorkloadKind::Litmus;
                prog.trace.numThreads =
                    unsigned(program.threads.size());
                prog.trace.options.litmus =
                    workload::serializeLitmus(program);
                prog.traces = workload::litmusTraces(program);
            }
            prog.name = program.name;
            prog.tx = program.txCount();
            _programs.push_back(std::move(prog));
        }
        return double(nowNs() - t0) * 1e-9;
    }

    void
    run(Batch &b, const BatchMode &mode) override
    {
        _batch = &b;
        Sha256 h;
        std::uint64_t budget = crashCaseBudget;
        if (mode.verify)
            _completions.assign(_programs.size(), {});
        for (std::size_t p = 0; p < _programs.size(); ++p) {
            const Program &prog = _programs[p];

            // Phase A: completion run per scheme.
            const std::size_t base_a = b.cells.size();
            harness::Sweep phase_a = newSweep(prog);
            Scope build_a(b.log, "harness.sweep_build");
            for (SchemeKind scheme : allSchemes) {
                const std::size_t i = b.cells.size();
                const std::uint64_t cap =
                    maxEventsPerTx * std::max<std::uint64_t>(1, prog.tx);
                addCase(b, phase_a, prog, scheme, "complete",
                        [this, i, cap](const SimConfig &cfg,
                                       const workload::WorkloadTraces &tr) {
                            return runToCompletion(cfg, tr, _batch->cells[i],
                                                   cap, false, 0);
                        });
            }
            build_a.close();
            runSweep(b, phase_a, base_a);

            // Phase B: crash at every event index of every scheme,
            // while the case budget lasts.
            const std::size_t base_b = b.cells.size();
            harness::Sweep phase_b = newSweep(prog);
            Scope build_b(b.log, "harness.sweep_build");
            for (std::size_t si = 0; si < std::size(allSchemes); ++si) {
                const std::uint64_t events = b.cells[base_a + si].events;
                for (std::uint64_t k = 1; k <= events && budget > 0;
                     ++k, --budget) {
                    const std::size_t i = b.cells.size();
                    addCase(b, phase_b, prog, allSchemes[si],
                            "crash:" + std::to_string(k),
                            [this, i, k](const SimConfig &cfg,
                                         const workload::WorkloadTraces &tr) {
                                runCrashCase(cfg, tr, k, _batch->cells[i]);
                                return SimReport{};
                            });
                }
            }
            build_b.close();
            if (phase_b.size())
                runSweep(b, phase_b, base_b);

            // Checks and digest, outside every span.
            for (std::size_t si = 0; si < std::size(allSchemes); ++si) {
                const SimReport &r = phase_a.results()[si].report;
                digestReport(h, phase_a.specs()[si].label, r);
                if (!mode.verify)
                    continue;
                _completions[p][allSchemes[si]] = r;
                // The direct drive must agree with the library's own
                // case runner.
                fuzz::FuzzCaseConfig cc;
                cc.scheme = allSchemes[si];
                const fuzz::FuzzCaseResult ref = fuzz::runLitmusCase(
                    prog.traces, prog.trace.numThreads, cc);
                CellOut &out = b.cells[base_a + si];
                if ((ref.executedEvents != out.events ||
                     ref.commits != out.commits ||
                     ref.violations.size() != out.violations) &&
                    out.why.empty())
                    out.why = "differs from fuzz::runLitmusCase";
            }
            for (std::size_t c = base_a; c < b.cells.size(); ++c) {
                CellOut &out = b.cells[c];
                const std::uint64_t expect =
                    mode.failCheck && c == 0 ? 1 : 0;
                if (out.violations != expect && out.why.empty())
                    out.why = std::to_string(out.violations) +
                              " checker violation(s)";
                reportFailure(c < base_b
                                  ? phase_a.specs()[c - base_a].label
                                  : phase_b.specs()[c - base_b].label,
                              out);
                const std::uint64_t v[] = {out.events, out.commits,
                                           out.violations};
                h.update(v, sizeof(v));
            }
        }
        b.digest = h.hex();
    }

    Modeled
    modeled() const override
    {
        PerInput tput, writes;
        for (const auto &runs : _completions) {
            tput.emplace_back();
            writes.emplace_back();
            for (const auto &[scheme, r] : runs) {
                tput.back()[scheme] = r.txPerMillionCycles;
                writes.back()[scheme] = double(r.mediaWordWrites);
            }
        }
        return modeledMetrics(tput, writes);
    }

    std::map<SchemeKind, SchemeTotals>
    totals() const override
    {
        std::map<SchemeKind, SchemeTotals> t;
        for (const auto &runs : _completions)
            for (const auto &[scheme, r] : runs)
                addCell(t[scheme], r);
        return t;
    }

  private:
    struct Program
    {
        std::string name;
        std::uint64_t tx = 0;
        workload::TraceGenConfig trace;
        workload::WorkloadTraces traces;
    };

    /** A serial Sweep whose trace cache already holds @p prog. */
    static harness::Sweep
    newSweep(const Program &prog)
    {
        harness::Sweep sweep(harness::Sweep::Options{1, false});
        sweep.traceCache().insert(prog.trace, prog.traces);
        return sweep;
    }

    /** Add one case of @p prog on @p scheme, with a CellOut slot. */
    template <typename Runner>
    static void
    addCase(Batch &b, harness::Sweep &sweep, const Program &prog,
            SchemeKind scheme, const std::string &what, Runner runner)
    {
        harness::CellSpec spec;
        spec.trace = prog.trace;
        spec.sim = fuzz::litmusSimConfig(prog.trace.numThreads, scheme);
        spec.label = prog.name + "/" + schemeName(scheme) + "/" + what;
        spec.runner = std::move(runner);
        sweep.add(std::move(spec));
        b.cells.emplace_back();
    }

    /** Sweep::run() over the cells from @p base on. */
    static void
    runSweep(Batch &b, harness::Sweep &sweep, std::size_t base)
    {
        const std::int64_t t0 = nowNs();
        {
            Scope s(b.log, "harness.sweep_run");
            for (std::size_t c = base; c < b.cells.size(); ++c)
                b.cells[c].parent = s.id();
            sweep.run();
        }
        b.workerSeconds += double(nowNs() - t0) * 1e-9;
        double last_start = 0;
        for (const auto &r : sweep.results())
            last_start = std::max(last_start, r.queueWaitSeconds);
        b.queueWaitSeconds += last_start;
    }

    std::vector<Program> _programs;
    std::vector<std::map<SchemeKind, SimReport>> _completions;
    Batch *_batch = nullptr;
};

// ------------------------------------------------------------------
// Statistics and output

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * p99, or a lower percentile where p99 would have fewer than ten
 * samples beyond it: the (k+1)-th largest sample with
 * k = max(10, n / 100), at percentile 100 * (n - k) / n.
 */
struct Tail
{
    double value = 0;
    double percentile = 0;
    std::size_t samples = 0;
};

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t k = std::max<std::size_t>(10, n / 100);
    t.value = v[n > k ? n - k - 1 : 0];
    t.percentile = n > k ? 100.0 * double(n - k) / double(n) : 0;
    return t;
}

/** A "Vm...:" line of /proc/self/status (VmHWM, VmRSS) in MiB. */
double
procStatusMiB(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
    return 0;
}

std::string
firstLineWith(const char *path, const char *prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0)
            return line;
    }
    return "";
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (std::isprint((unsigned char)c) || c == '"' || c == '\\')
            out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Self time per layer and the unattributed remainder of one batch. */
struct Attribution
{
    std::map<std::string, double> selfSeconds;
    double unattributed = 0;
    double attributed = 0;
    double maxCellUnattributedFrac = 0;
    /** Each cell's unattributed remainder (its root span's self time). */
    std::vector<std::int64_t> cellUnattributedNs;
};

/** Length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0, cur_s = 0, cur_e = 0;
    bool open = false;
    for (auto [s, e] : iv) {
        if (!open || s > cur_e) {
            if (open)
                total += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
            open = true;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (open)
        total += cur_e - cur_s;
    return total;
}

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals. Cells' root spans are children of the batch
 * span they ran under. "cell" and "bench.batch" self time is the
 * benchmark's own glue, reported as unattributed.
 */
Attribution
attribute(const Batch &b)
{
    Attribution a;
    const std::size_t nb = b.log.spans.size();
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        batch_children(nb);
    auto charge = [&](const Span &s, std::int64_t self) {
        const double sec = double(self) * 1e-9;
        const std::string name = s.name;
        if (name == "cell" || name == "bench.batch") {
            a.unattributed += sec;
        } else {
            a.attributed += sec;
            a.selfSeconds[name] += sec;
        }
    };
    for (const CellOut &c : b.cells) {
        const auto &spans = c.log.spans;
        std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
            kids(spans.size());
        for (const Span &s : spans) {
            if (s.parent >= 0)
                kids[std::size_t(s.parent)].emplace_back(s.start, s.end);
            else if (c.parent >= 0)
                batch_children[std::size_t(c.parent)].emplace_back(
                    s.start, s.end);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::int64_t dur = spans[i].end - spans[i].start;
            const std::int64_t self = dur - unionLength(kids[i]);
            charge(spans[i], self);
            if (spans[i].parent >= 0)
                continue;
            a.cellUnattributedNs.push_back(self);
            if (dur > 0)
                a.maxCellUnattributedFrac =
                    std::max(a.maxCellUnattributedFrac,
                             double(self) / double(dur));
        }
    }
    for (const Span &s : b.log.spans)
        if (s.parent >= 0)
            batch_children[std::size_t(s.parent)].emplace_back(s.start,
                                                                s.end);
    for (std::size_t i = 0; i < nb; ++i) {
        const Span &s = b.log.spans[i];
        charge(s, s.end - s.start - unionLength(batch_children[i]));
    }
    return a;
}

/**
 * Write the spans of @p b as JSON, one record per span, and each
 * cell's unattributed nanoseconds.
 */
void
writeSpans(const std::string &path, const Batch &b)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return;
    os << "{\"schema\":\"silobench-spans-v1\",\"spans\":[";
    bool first = true;
    auto emit = [&](const Span &s, long cell, long parent) {
        os << (first ? "\n" : ",\n") << "[" << jsonStr(s.name) << ","
           << s.start << "," << s.end << "," << parent << "," << cell
           << "]";
        first = false;
    };
    // Batch spans keep their indices; cell spans follow, re-indexed.
    for (const Span &s : b.log.spans)
        emit(s, -1, s.parent);
    long base = long(b.log.spans.size());
    for (std::size_t c = 0; c < b.cells.size(); ++c) {
        const CellOut &cell = b.cells[c];
        for (const Span &s : cell.log.spans)
            emit(s, long(c), s.parent >= 0 ? base + s.parent
                                           : long(cell.parent));
        base += long(cell.log.spans.size());
    }
    os << "\n],\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
          "\"cell\"],\n\"cell_unattributed_ns\":[";
    const Attribution a = attribute(b);
    for (std::size_t c = 0; c < a.cellUnattributedNs.size(); ++c)
        os << (c ? "," : "") << a.cellUnattributedNs[c];
    os << "]}\n";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 0;
    std::string outDir = ".";
    std::string sourceId = "unknown";
    bool failCheck = false;
    bool knownDefects = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "silobench: %s\nusage: silobench --workload "
                 "matrix|crash-sweep|logcap --seed N --seconds S "
                 "[--trace 0|1] [--jobs J] [--out-dir D] "
                 "[--source-id ID] [--fail-check] [--known-defects]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end || errno || v[0] == '-')
        usage("bad value for " + flag + ": " + v);
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--fail-check") {
            a.failCheck = true;
            continue;
        }
        if (flag == "--known-defects") {
            a.knownDefects = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUnsigned(flag, v);
        else if (flag == "--seconds")
            a.seconds = double(parseUnsigned(flag, v));
        else if (flag == "--trace")
            a.trace = parseUnsigned(flag, v) != 0;
        else if (flag == "--jobs")
            a.jobs = unsigned(parseUnsigned(flag, v));
        else if (flag == "--out-dir")
            a.outDir = v;
        else if (flag == "--source-id")
            a.sourceId = v;
        else
            usage("unknown flag " + flag);
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const Args &a)
{
    if (a.workload == "matrix")
        return std::make_unique<SweepWorkload>(
            "matrix",
            selectCells("matrix", matrixSpecs(a.seed), a.knownDefects),
            a.jobs ? a.jobs : matrixJobs, 8, a.outDir);
    if (a.workload == "logcap")
        return std::make_unique<SweepWorkload>(
            "logcap",
            selectCells("logcap", logcapSpecs(a.seed), a.knownDefects),
            a.jobs ? a.jobs : 1, logcapCores, a.outDir);
    if (a.workload == "crash-sweep") {
        if (a.knownDefects)
            usage("crash-sweep has no known defects");
        return std::make_unique<CrashSweepWorkload>();
    }
    usage("unknown workload " + a.workload);
}

void
addModeledLayers(std::vector<Metric> &m,
                 const std::map<SchemeKind, SchemeTotals> &per_scheme)
{
    SchemeTotals all;
    for (const auto &[scheme, t] : per_scheme) {
        all.tx += t.tx;
        all.l1dHits += t.l1dHits;
        all.l1dMisses += t.l1dMisses;
        all.l3Hits += t.l3Hits;
        all.l3Misses += t.l3Misses;
        all.l3DirtyEvictions += t.l3DirtyEvictions;
        all.reclaimed += t.reclaimed;
        all.migrated += t.migrated;
        all.checkpoints += t.checkpoints;
        all.admissionStalls += t.admissionStalls;
    }
    m.push_back({"mem.l1d_miss_rate",
                 ratio(all.l1dMisses, all.l1dHits + all.l1dMisses),
                 "ratio"});
    m.push_back({"mem.l3_miss_rate",
                 ratio(all.l3Misses, all.l3Hits + all.l3Misses),
                 "ratio"});
    m.push_back({"mem.dirty_evictions_per_tx",
                 ratio(all.l3DirtyEvictions, all.tx), "lines/tx"});
    m.push_back({"log.segments_reclaimed_per_tx",
                 ratio(all.reclaimed, all.tx), "count/tx"});
    m.push_back({"log.records_migrated_per_tx",
                 ratio(all.migrated, all.tx), "count/tx"});
    m.push_back({"log.checkpoints_per_tx", ratio(all.checkpoints, all.tx),
                 "count/tx"});
    m.push_back({"log.admission_stalls_per_tx",
                 ratio(all.admissionStalls, all.tx), "count/tx"});

    for (SchemeKind scheme : allSchemes) {
        auto it = per_scheme.find(scheme);
        const SchemeTotals t = it == per_scheme.end() ? SchemeTotals{}
                                                      : it->second;
        const std::string s = std::string(".") + schemeName(scheme);
        m.push_back({"core.commit_stall_cycles_per_tx" + s,
                     ratio(t.commitStall, t.tx), "cycles/tx"});
        m.push_back({"core.store_stall_cycles_per_tx" + s,
                     ratio(t.storeStall, t.tx), "cycles/tx"});
        m.push_back({"mc.wpq_full_stalls_per_tx" + s,
                     ratio(t.wpqFullStalls, t.tx), "count/tx"});
        m.push_back({"mc.wpq_bytes_per_tx" + s, ratio(t.wpqBytes, t.tx),
                     "B/tx"});
        m.push_back({"mc.wpq_coalesced_frac" + s,
                     ratio(t.wpqCoalesced, t.wpqCoalesced + t.wpqWrites),
                     "ratio"});
        m.push_back({"mc.wpq_occupancy_p99" + s, t.wpqOccP99, "entries"});
        m.push_back({"nvm.media_word_writes_per_tx" + s,
                     ratio(t.mediaWords, t.tx), "words/tx"});
        m.push_back({"nvm.dcw_suppressed_frac" + s,
                     ratio(t.dcwSuppressed, t.dcwSuppressed + t.mediaWords),
                     "ratio"});
        m.push_back({"nvm.buffer_coalesced_frac" + s,
                     ratio(t.bufferCoalesced,
                           t.bufferCoalesced + t.mediaLines),
                     "ratio"});
        m.push_back({"log.records_per_tx" + s, ratio(t.logRecords, t.tx),
                     "count/tx"});
        m.push_back({"log.bytes_per_tx" + s, ratio(t.logBytes, t.tx),
                     "B/tx"});
    }
    const auto silo = per_scheme.find(SchemeKind::Silo);
    const SchemeTotals t =
        silo == per_scheme.end() ? SchemeTotals{} : silo->second;
    m.push_back({"silo.ignored_frac", ratio(t.siloIgnored, t.siloTotalLogs),
                 "ratio"});
    m.push_back({"silo.merged_frac", ratio(t.siloMerged, t.siloTotalLogs),
                 "ratio"});
    m.push_back({"silo.overflow_evictions_per_tx",
                 ratio(t.siloOverflows, t.tx), "count/tx"});
    m.push_back({"silo.in_place_updates_per_tx",
                 ratio(t.siloInPlace, t.tx), "words/tx"});
}

/** Spans whose self time is a setup layer's host time. */
constexpr const char *setupLayers[] = {
    "workload.trace_gen", "fuzz.litmus_gen", "fuzz.litmus_compile"};

/** Spans around the public calls a batch makes. */
constexpr const char *callLayers[] = {
    "harness.ctor",   "harness.dtor",       "harness.run",
    "harness.settle", "harness.drain",      "harness.crash",
    "harness.recover", "harness.report",    "harness.stats_json",
    "harness.write_json", "harness.sweep_run", "harness.sweep_build"};

std::uint64_t
failures(const Batch &b)
{
    return std::uint64_t(
        std::count_if(b.cells.begin(), b.cells.end(),
                      [](const CellOut &c) { return !c.why.empty(); }));
}

/** Named per-batch samples; each metric is the median of its samples. */
class SampleSet
{
  public:
    void add(const std::string &name, double v) { _s[name].push_back(v); }

    const std::vector<double> &get(const std::string &name)
    {
        return _s[name];
    }

    double median(const std::string &name) { return ::median(_s[name]); }

    template <std::size_t N>
    void
    addSelf(const Attribution &a, const char *const (&layers)[N])
    {
        for (const char *layer : layers) {
            auto it = a.selfSeconds.find(layer);
            add(layer, it == a.selfSeconds.end() ? 0 : it->second);
        }
    }

    /** Host time and cell-time quantiles of an untraced batch. */
    Tail
    addUntraced(const Batch &b)
    {
        std::vector<double> ms;
        for (const CellOut &c : b.cells)
            ms.push_back(c.seconds * 1e3);
        const Tail tail = tailOf(ms);
        add("wall", b.wallSeconds);
        add("cell_tail_ms", tail.value);
        add("cell_p50_ms", ::median(std::move(ms)));
        return tail;
    }

    /** Per-layer self times and sweep figures of a traced batch. */
    void
    addTraced(const Batch &b)
    {
        const Attribution a = attribute(b);
        addSelf(a, callLayers);
        add("wall", b.wallSeconds);
        add("unattributed", a.unattributed);
        add("unattributed_frac",
            ratio(a.unattributed, a.unattributed + a.attributed));
        add("cell_max", a.maxCellUnattributedFrac);
        double cell_s = 0;
        std::uint64_t run_events = 0;
        for (const CellOut &c : b.cells) {
            cell_s += c.seconds;
            run_events += c.runEvents;
        }
        add("busy", ratio(cell_s, b.workerSeconds));
        add("queue_wait", b.queueWaitSeconds);
        add("events_per_s",
            ratio(double(run_events), _s["harness.run"].back()));
    }

  private:
    std::map<std::string, std::vector<double>> _s;
};

/**
 * The host-time and simulator-count per-layer metrics: host times are
 * medians over traced batches, counts come from the last one.
 */
std::vector<Metric>
perLayerMetrics(SampleSet &traced, SampleSet &untraced, SampleSet &setup,
                const Batch &last, bool litmus)
{
    std::uint64_t events = 0, run_events = 0, run_allocs = 0,
                  ctor_allocs = 0, violations = 0, commits = 0,
                  crash_cases = 0;
    for (const CellOut &c : last.cells) {
        events += c.events;
        run_events += c.runEvents;
        run_allocs += c.runAllocs;
        ctor_allocs += c.ctorAllocs;
        violations += c.violations;
        commits += c.commits;
        crash_cases += c.crash;
    }
    const double n_cells = double(last.cells.size());
    const double tw = traced.median("wall"), uw = untraced.median("wall");
    auto layer = [&](const char *name) { return traced.median(name); };
    return {
        {"harness.ctor_s", layer("harness.ctor"), "s"},
        {"harness.dtor_s", layer("harness.dtor"), "s"},
        {"harness.run_s", layer("harness.run"), "s"},
        {"harness.settle_s", layer("harness.settle"), "s"},
        {"harness.drain_s", layer("harness.drain"), "s"},
        {"harness.crash_s", layer("harness.crash"), "s"},
        {"harness.recover_s", layer("harness.recover"), "s"},
        {"harness.report_s", layer("harness.report"), "s"},
        {"harness.stats_json_s", layer("harness.stats_json"), "s"},
        {"harness.write_json_s", layer("harness.write_json"), "s"},
        {"harness.sweep_s", layer("harness.sweep_run"), "s"},
        {"harness.sweep_build_s", layer("harness.sweep_build"), "s"},
        {"harness.sweep_queue_wait_s", layer("queue_wait"), "s"},
        {"harness.worker_busy_frac", layer("busy"), "ratio"},
        {"harness.ctor_ms_per_cell",
         1e3 * ratio(layer("harness.ctor"), n_cells), "ms"},
        {"harness.dtor_ms_per_cell",
         1e3 * ratio(layer("harness.dtor"), n_cells), "ms"},
        {"harness.ctor_allocs", ratio(double(ctor_allocs), n_cells),
         "count"},
        {"bench.unattributed_s", layer("unattributed"), "s"},
        {"bench.cell_unattributed_max_frac", layer("cell_max"), "ratio"},
        {"trace.coverage_frac", 1 - layer("unattributed_frac"), "ratio"},
        {"trace.traced_wall_s", tw, "s"},
        {"trace.untraced_wall_s", uw, "s"},
        {"trace.overhead_s", tw - uw, "s"},
        {"trace.overhead_frac", ratio(tw - uw, uw), "ratio"},
        {"workload.trace_gen_s", setup.median("workload.trace_gen"), "s"},
        {"fuzz.litmus_gen_s", setup.median("fuzz.litmus_gen"), "s"},
        {"fuzz.litmus_compile_s", setup.median("fuzz.litmus_compile"),
         "s"},
        {"fuzz.cases", litmus ? n_cells : 0, "count"},
        {"fuzz.crash_cases", double(crash_cases), "count"},
        {"sim.events", double(events), "count"},
        {"sim.events_per_run_s", layer("events_per_s"), "1/s"},
        {"sim.run_allocs_per_event",
         ratio(double(run_allocs), double(run_events)), "count"},
        {"check.violations", double(violations), "count"},
        {"check.commits", double(commits), "count"},
    };
}

/** Print every metric, then the result object as the last line. */
void
printResult(const std::vector<Metric> &metrics, std::uint64_t attempted,
            std::uint64_t failed)
{
    for (const Metric &m : metrics)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
    std::string out = "{\"correct\": ";
    out += failed ? "false" : "true";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonStr(metrics[i].name) +
               ": {\"value\": " + num(metrics[i].value) +
               ", \"unit\": " + jsonStr(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
#ifndef SILOBENCH_TRACED
    if (args.trace)
        usage("--trace 1 needs the silobench_traced binary");
#endif
    const std::string loadavg = firstLineWith("/proc/loadavg", "");
    std::unique_ptr<Workload> wl = makeWorkload(args);

    std::printf(
        "fingerprint {\"build\": %s, \"compiler\": %s, \"cpu\": %s, "
        "\"nproc\": %u, \"loadavg\": %s, \"source\": %s, "
        "\"workload\": %s, \"seed\": %llu, \"trace\": %d}\n",
        jsonStr(SILOBENCH_BUILD_INFO).c_str(),
        jsonStr(__VERSION__).c_str(),
        jsonStr(firstLineWith("/proc/cpuinfo", "model name")).c_str(),
        std::thread::hardware_concurrency(), jsonStr(loadavg).c_str(),
        jsonStr(args.sourceId).c_str(), jsonStr(args.workload).c_str(),
        (unsigned long long)args.seed, int(args.trace));
    for (const KnownDefect &d : knownDefects) {
        if (args.workload == "crash-sweep" ||
            (d.workload && args.workload != d.workload))
            continue;
        std::printf("info %s %s/%s/%s/%s: %s\n",
                    args.knownDefects ? "running_known_defect"
                                      : "left_out_known_defect",
                    args.workload.c_str(), schemeName(d.scheme),
                    d.kind ? workload::workloadName(*d.kind) : "*",
                    d.cores ? (std::to_string(d.cores) + "c").c_str()
                            : "*",
                    d.what);
    }
    std::fflush(stdout);

    // Set-up, several times: setup_s is the median.
    std::vector<double> setup_s;
    SampleSet setup_layers;
    setTracing(args.trace);
    for (double total = 0;
         setup_s.size() < std::size_t(setupMinReps) ||
         (total < setupMinSeconds && setup_s.size() < setupMaxReps);
         total += setup_s.back()) {
        Batch setup;
        setup_s.push_back(wl->setup(args.seed, setup.log));
        setup_layers.addSelf(attribute(setup), setupLayers);
    }
    setTracing(false);

    // Untimed verification batch: every output check on.
    BatchMode verify_mode;
    verify_mode.verify = true;
    verify_mode.failCheck = args.failCheck;
    Batch verified;
    wl->run(verified, verify_mode);
    // Peak memory of set-up plus one pass, which is what a user running
    // the workload once sees. Growth over the later batches is reported
    // on its own (sim.rss_growth_mib_per_batch).
    const double peak_rss_mib = procStatusMiB("VmHWM");
    const double verified_rss_mib = procStatusMiB("VmRSS");
    std::uint64_t attempted = verified.cells.size();
    std::uint64_t failed = failures(verified);
    std::printf("digest %s %s\n", args.workload.c_str(),
                verified.digest.c_str());

    // Timed batches until --seconds have passed. The traced binary
    // alternates an untraced and a traced batch; only summaries and
    // the last traced batch stay in memory.
    const BatchMode timed_mode;
    SampleSet untraced, traced;
    Tail tail;
    Batch last;
    const std::int64_t start = nowNs();
    do {
        for (bool on : {false, true}) {
            if (on && !args.trace)
                continue;
            setTracing(on);
            Batch b;
            Scope s(b.log, "bench.batch");
            const std::int64_t t0 = nowNs();
            wl->run(b, timed_mode);
            b.wallSeconds = double(nowNs() - t0) * 1e-9;
            s.close();
            setTracing(false);
            attempted += b.cells.size();
            failed += failures(b);
            if (b.digest != verified.digest) {
                std::fprintf(stderr, "silobench: batch digest %s differs "
                             "from the verified %s\n", b.digest.c_str(),
                             verified.digest.c_str());
                ++failed;
            }
            if (on) {
                traced.addTraced(b);
                last = std::move(b);
            } else {
                tail = untraced.addUntraced(b);
            }
        }
    } while (double(nowNs() - start) * 1e-9 < args.seconds);
    const double rss_growth_mib =
        (procStatusMiB("VmRSS") - verified_rss_mib) /
        double(untraced.get("wall").size() + traced.get("wall").size());

    std::printf("info fail_frac %s (%llu of %llu)\n",
                num(double(failed) / double(std::max<std::uint64_t>(
                                         1, attempted)))
                    .c_str(),
                (unsigned long long)failed, (unsigned long long)attempted);
    std::printf("info batch_walls_s");
    for (double w : untraced.get("wall"))
        std::printf(" %.4f", w);
    std::printf("\n");

    std::vector<Metric> metrics;
    if (!args.trace) {
        const Modeled modeled = wl->modeled();
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"host_wall_s", untraced.median("wall"), "s"},
            {"cell_p50_ms", untraced.median("cell_p50_ms"), "ms"},
            {"cell_tail_ms", untraced.median("cell_tail_ms"), "ms"},
            {"peak_rss_mib", peak_rss_mib, "MiB"},
            {"silo_speedup", modeled.siloSpeedup, "x"},
            {"silo_write_ratio", modeled.siloWriteRatio, "x"},
            {"paper_err_pct", modeled.paperErrPct, "%"},
        };
        std::printf("info cell_tail_ms is p%.4f of %zu cells per batch "
                    "(median over batches)\n",
                    tail.percentile, tail.samples);
        for (const auto &[name, v] : modeled.paperTerms)
            std::printf("info paper_term %s %s\n", name.c_str(),
                        num(v).c_str());
    } else {
        metrics = perLayerMetrics(traced, untraced, setup_layers, last,
                                  args.workload == "crash-sweep");
        metrics.push_back(
            {"sim.rss_growth_mib_per_batch", rss_growth_mib, "MiB"});
        addModeledLayers(metrics, wl->totals());
        writeSpans(args.outDir + "/spans-" + args.workload + ".json",
                   last);
    }
    printResult(metrics, attempted, failed);
    return failed ? 1 : 0;
}
