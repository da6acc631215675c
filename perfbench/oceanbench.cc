/**
 * @file
 * End-to-end OceanStore benchmark: the `serve`, `archive` and
 * `zipf_flash` workloads (see README.md for why each exists and which
 * layer each metric belongs to).
 *
 *   oceanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--trace-out <file>]
 *
 * The program is driven only through its public API (Universe,
 * ObjectHandle, WorkloadDriver) from this one process.  A run is a
 * sequence of rounds; each round builds a fresh Universe
 * (timed as set-up), generates its inputs outside the timed window,
 * then runs the measured phase.  Rounds repeat until --seconds have
 * passed and every reported percentile has at least ten samples
 * beyond it.
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics.
 * With --trace 1 rounds alternate untraced / traced: traced rounds
 * record the benchmark's own spans (one request id per operation,
 * kept in memory and written to --trace-out at the end) and attach
 * the program's message Tracer, and the last line carries the
 * per-layer metrics.  Every read, restore and post-restart restore is
 * byte-verified; a wrong byte makes `correct` false and the exit code
 * non-zero.
 */

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/universe.h"
#include "crypto/block_cipher.h"
#include "crypto/merkle.h"
#include "erasure/reed_solomon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/driver.h"

using namespace oceanstore;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Heap bytes the process holds in live allocations right now, in MB
 *  (every malloc arena, mmapped blocks included). */
double
liveHeapMb()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / 1e6;
}

// --- samples ------------------------------------------------------------

/** Raw samples; percentiles by nearest rank. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    void append(const Samples &o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
    std::size_t size() const { return v.size(); }

    double
    pct(double p) const
    {
        if (v.empty())
            return 0.0;
        std::vector<double> s = v;
        std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(s.size())));
        rank = std::clamp<std::size_t>(rank, 1, s.size());
        std::nth_element(s.begin(), s.begin() + (rank - 1), s.end());
        return s[rank - 1];
    }
};

double
median(std::vector<double> v)
{
    Samples s;
    s.v = std::move(v);
    return s.pct(50);
}

/** Samples a p99 needs so that ten lie beyond it. */
constexpr std::size_t kP99Samples = 1000;

/**
 * Latency percentiles over windows of consecutive rounds, each window
 * holding at least kP99Samples samples; a metric is the median over
 * windows, so a short stall of the machine moves one window, not the
 * run's figure.
 */
class WindowedPercentiles
{
  public:
    void
    add(const Samples &round)
    {
        open_.append(round);
        if (open_.size() < kP99Samples)
            return;
        p50_.push_back(open_.pct(50));
        p99_.push_back(open_.pct(99));
        open_.v.clear();
    }

    /** True when every sample so far lies in a closed window. */
    bool closed() const { return !p50_.empty() && open_.v.empty(); }

    double p50() const { return median(p50_); }
    double p99() const { return median(p99_); }

  private:
    Samples open_;
    std::vector<double> p50_, p99_;
};

/** Set-up-only repetitions before each round (setup_s samples). */
constexpr unsigned kSetupsPerRound = 8;

// --- the benchmark's own spans ------------------------------------------

struct Span
{
    std::uint64_t req = 0;   //!< Request (operation) id.
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char *name = "";
    double t0 = 0.0;         //!< Seconds since process start.
    double t1 = 0.0;
};

const Clock::time_point kEpoch = Clock::now();
std::atomic<std::uint32_t> nextSpanId{1};
std::atomic<std::uint64_t> nextRequestId{1};

/** Per-thread span buffer; null when the round is untraced. */
class SpanLog
{
  public:
    std::uint32_t
    open(const char *name, std::uint64_t req)
    {
        Span s;
        s.req = req;
        s.id = nextSpanId.fetch_add(1, std::memory_order_relaxed);
        s.parent = stack_.empty() ? 0 : spans[stack_.back()].id;
        s.name = name;
        s.t0 = secondsSince(kEpoch);
        stack_.push_back(spans.size());
        spans.push_back(s);
        return s.id;
    }

    void
    close()
    {
        spans[stack_.back()].t1 = secondsSince(kEpoch);
        stack_.pop_back();
    }

    std::vector<Span> spans;

  private:
    std::vector<std::size_t> stack_; //!< Indices of open spans.
};

/** RAII span; costs one null check when @p log is null. */
class BenchSpan
{
  public:
    BenchSpan(SpanLog *log, const char *name, std::uint64_t req)
        : log_(log)
    {
        if (log_)
            log_->open(name, req);
    }
    ~BenchSpan()
    {
        if (log_)
            log_->close();
    }
    BenchSpan(const BenchSpan &) = delete;
    BenchSpan &operator=(const BenchSpan &) = delete;

  private:
    SpanLog *log_;
};

/** Per-name totals over a span set, with self time (duration minus
 *  the part covered by child spans). */
struct SpanStats
{
    Samples durMs;
    double totalS = 0.0;
    double selfS = 0.0;
};

std::map<std::string, SpanStats>
summarize(const std::vector<Span> &spans)
{
    std::map<std::uint32_t, double> childS;
    for (const Span &s : spans)
        if (s.parent)
            childS[s.parent] += s.t1 - s.t0;
    std::map<std::string, SpanStats> out;
    for (const Span &s : spans) {
        SpanStats &st = out[s.name];
        double d = s.t1 - s.t0;
        st.durMs.add(d * 1e3);
        st.totalS += d;
        auto it = childS.find(s.id);
        st.selfS += d - (it == childS.end() ? 0.0 : it->second);
    }
    return out;
}

// --- per-run tallies ----------------------------------------------------

/** What one client (or the whole run) observed. */
struct Tally
{
    Samples writeMs, readMs, restoreMs, restartMs;
    std::uint64_t attempted = 0; //!< Operations started.
    std::uint64_t failed = 0;    //!< Failed or unverified.
    std::uint64_t wrongBytes = 0; //!< Verified against wrong bytes.
    std::uint64_t ops = 0;       //!< Verified operations completed.
    std::uint64_t commits = 0;
    std::uint64_t readAttempts = 0;
    std::uint64_t readsVerified = 0;
    std::uint64_t restores = 0;
    std::uint64_t fragmentsRequested = 0;
    std::uint64_t fragmentsReceived = 0;
    std::uint64_t fragmentsUsed = 0;
    std::uint64_t userBytes = 0; //!< Plaintext bytes committed.
    std::uint64_t storedBytes = 0;
    double replayedMb = 0.0; //!< Log bytes replayed by restarts.

    void
    merge(const Tally &o)
    {
        writeMs.append(o.writeMs);
        readMs.append(o.readMs);
        restoreMs.append(o.restoreMs);
        restartMs.append(o.restartMs);
        attempted += o.attempted;
        failed += o.failed;
        wrongBytes += o.wrongBytes;
        ops += o.ops;
        commits += o.commits;
        readAttempts += o.readAttempts;
        readsVerified += o.readsVerified;
        restores += o.restores;
        fragmentsRequested += o.fragmentsRequested;
        fragmentsReceived += o.fragmentsReceived;
        fragmentsUsed += o.fragmentsUsed;
        userBytes += o.userBytes;
        storedBytes += o.storedBytes;
        replayedMb += o.replayedMb;
    }
};

/** Layer replays run after the first traced round, on that round's
 *  own inputs (payloads, archived states, (server, object) pairs). */
struct Replay
{
    std::vector<Bytes> payloads;    //!< Plaintexts the round wrote.
    std::vector<Bytes> states;      //!< Archived object states.
    std::vector<Guid> objects;
    Samples bloomUs, plaxtonUs, introspectUs;
    std::size_t contextsLearned = 0; //!< Prefetcher state after the round.
    double keystreamMbS = 0.0, sha1MbS = 0.0;
    Samples encodeMs, decodeMs;
    double erasureMbS = 0.0;
    double workerUtil = 0.0; //!< Threaded backend, since start.
};

/** One measured round, as the round loop sees it. */
struct RoundOutcome
{
    double setupS = 0.0;
    double measuredS = 0.0; //!< The timed phase.
    /** Operations and wall seconds behind ops_per_s: the timed phase,
     *  except on zipf_flash where it is the WorkloadDriver phase alone. */
    std::uint64_t rateOps = 0;
    double rateS = 0.0;
    double replayS = 0.0;   //!< Layer replays (first traced round).
    double heapMb = 0.0;    //!< Live heap at the round's end.
    Tally tally;
};

/** Everything a traced round adds. */
struct TraceCapture
{
    SpanLog main;
    std::vector<SpanLog> clients;
    Tracer tracer; //!< The program's own message tracer.
    std::unique_ptr<TraceScope> scope;

    TraceCapture() : scope(std::make_unique<TraceScope>(tracer)) {}

    std::vector<Span>
    allSpans() const
    {
        std::vector<Span> out = main.spans;
        for (const SpanLog &c : clients)
            out.insert(out.end(), c.spans.begin(), c.spans.end());
        return out;
    }
};

// --- workload building blocks --------------------------------------------

Bytes
randomPayload(Rng &rng, std::size_t n)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    Bytes b(n);
    for (std::uint8_t &c : b)
        c = static_cast<std::uint8_t>(alphabet[rng.below(62)]);
    return b;
}

/** True when @p got equals the first @p n bytes of @p expected. */
bool
matchesPrefix(const Bytes &got, const Bytes &expected, std::size_t n)
{
    return got.size() == n && n <= expected.size() &&
           std::memcmp(got.data(), expected.data(), n) == 0;
}

/**
 * One closed-loop cycle: seal and commit an append, then read the
 * object back from @p from until the committed version is visible,
 * decrypt it and byte-compare with the first @p expected_len bytes of
 * @p expected.  Write latency runs from sealing to commit; read
 * latency from the first read request to decrypted plaintext.
 * @return the committed version, or nullopt on failure.
 */
std::optional<VersionNum>
appendAndReadBack(Universe &u, const ObjectHandle &doc,
                  const Bytes &payload, VersionNum expect_version,
                  Timestamp ts, std::size_t from, const Bytes &expected,
                  std::size_t expected_len, Tally &t, SpanLog *log,
                  std::uint64_t req)
{
    t.attempted++;
    auto w0 = Clock::now();
    WriteResult wr;
    {
        Update up = [&] {
            BenchSpan s(log, "crypto.seal", req);
            return doc.makeAppendUpdate(payload, expect_version, ts);
        }();
        BenchSpan s(log, "core.write", req);
        wr = u.writeSync(up);
    }
    t.writeMs.add(secondsSince(w0) * 1e3);
    if (!wr.committed) {
        t.failed++;
        return std::nullopt;
    }
    t.commits++;
    t.userBytes += payload.size();

    auto r0 = Clock::now();
    ReadResult rr;
    // Bounded retry until the secondary push reaches the replica that
    // answers.  Threaded time moves by itself; simulated time moves
    // only when driven, and a read served locally takes none, so the
    // sim backend is stepped 50 ms of virtual time between attempts.
    for (unsigned attempt = 0; attempt < 2000; attempt++) {
        {
            BenchSpan s(log, "core.read", req);
            rr = u.readSync(from, doc.guid());
        }
        t.readAttempts++;
        if (rr.found && rr.version >= wr.version)
            break;
        if (u.rt().deterministic())
            u.advance(0.05);
    }
    if (!rr.found || rr.version < wr.version) {
        t.failed++;
        return std::nullopt;
    }
    Bytes plain;
    {
        BenchSpan s(log, "crypto.open", req);
        plain = doc.decryptContent(rr.blocks);
    }
    t.readMs.add(secondsSince(r0) * 1e3);
    bool ok;
    {
        BenchSpan s(log, "bench.verify", req);
        ok = rr.version == wr.version &&
             matchesPrefix(plain, expected, expected_len);
    }
    if (!ok) {
        t.failed++;
        t.wrongBytes++;
        return std::nullopt;
    }
    t.readsVerified++;
    return wr.version;
}

constexpr std::size_t kArchiveServers = 24;
constexpr std::size_t kArchiveObjects = 128;
constexpr unsigned kArchiveOps = 512;           //!< Per round.
constexpr std::size_t kArchivePayload = 16 * 1024;
constexpr unsigned kArchiveData = 8;            //!< Reed-Solomon k.
constexpr unsigned kArchiveTotal = 16;          //!< Reed-Solomon n.

// --- layer replays --------------------------------------------------------

/** Time bloom query and mesh locate on every (server, object) pair,
 *  then the introspection taps on every object. */
void
replayLocation(Universe &u, Replay &r)
{
    u.rt().execute([&]() {
        for (std::size_t s = 0; s < u.numServers(); s++) {
            for (const Guid &g : r.objects) {
                auto t0 = Clock::now();
                u.bloomLocator().query(static_cast<NodeId>(s), g);
                r.bloomUs.add(secondsSince(t0) * 1e6);
                t0 = Clock::now();
                u.mesh().locate(u.secondaryTier().replica(s).nodeId(), g);
                r.plaxtonUs.add(secondsSince(t0) * 1e6);
            }
        }
        // The read path's introspection taps (cluster graph and
        // prefetcher), on the state the round left behind.
        r.contextsLearned = u.prefetcher().contextsLearned();
        for (const Guid &g : r.objects) {
            auto t0 = Clock::now();
            u.semanticGraph().onAccess(g);
            u.prefetcher().onAccess(g);
            r.introspectUs.add(secondsSince(t0) * 1e6);
        }
    });
}

/** Replay BlockCipher, Sha1/MerkleTree and ReedSolomonCode (with the
 *  archive workload's geometry) on the round's own payloads and
 *  archived states. */
void
replayCodecs(Replay &r)
{
    const unsigned n = kArchiveTotal;
    BlockCipher cipher(toBytes("oceanbench-replay-key"));
    std::size_t bytes = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < r.payloads.size(); i++) {
        bytes += cipher.encrypt(i, r.payloads[i]).size();
    }
    double s = secondsSince(t0);
    r.keystreamMbS = s > 0.0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;

    // Merkle build + verify of every leaf: fragments when the round
    // archived, otherwise its payloads.
    ReedSolomonCode code(kArchiveData, kArchiveTotal);
    std::vector<std::vector<Bytes>> fragmentSets;
    std::size_t stateBytes = 0;
    double encodeS = 0.0;
    for (const Bytes &state : r.states) {
        auto e0 = Clock::now();
        fragmentSets.push_back(code.encode(state));
        double es = secondsSince(e0);
        encodeS += es;
        stateBytes += state.size();
        r.encodeMs.add(es * 1e3);
    }
    for (std::size_t i = 0; i < fragmentSets.size(); i++) {
        std::vector<std::optional<Bytes>> avail(n);
        for (unsigned f = 0; f < n; f++)
            if (f % 2 == 1) // half data, half parity
                avail[f] = fragmentSets[i][f];
        auto d0 = Clock::now();
        auto back = code.decode(avail, r.states[i].size());
        r.decodeMs.add(secondsSince(d0) * 1e3);
        OS_CHECK(back && *back == r.states[i], "erasure replay mismatch");
    }
    r.erasureMbS = encodeS > 0.0
                       ? static_cast<double>(stateBytes) / 1e6 / encodeS
                       : 0.0;

    std::vector<std::vector<Bytes>> leafSets = fragmentSets;
    if (leafSets.empty())
        leafSets.push_back(r.payloads);
    bytes = 0;
    t0 = Clock::now();
    for (const std::vector<Bytes> &leaves : leafSets) {
        MerkleTree tree(leaves);
        for (std::size_t l = 0; l < leaves.size(); l++) {
            OS_CHECK(MerkleTree::verify(leaves[l], tree.path(l), tree.root()),
                     "merkle replay failed");
            bytes += 2 * leaves[l].size(); // hashed at build and verify
        }
    }
    s = secondsSince(t0);
    r.sha1MbS = s > 0.0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;
}

// --- workload: serve ------------------------------------------------------

constexpr unsigned kServeClients = 2;
constexpr unsigned kServeCycles = 300;      //!< Per client per round.
constexpr std::size_t kServePayload = 100;

RoundOutcome
serveRound(std::uint64_t seed, TraceCapture *trace, Replay *replay,
           bool setup_only)
{
    RoundOutcome out;
    auto s0 = Clock::now();
    UniverseConfig cfg;
    cfg.numServers = 16;
    cfg.archiveOnCommit = false;
    cfg.seed = seed;
    cfg.runtime = RuntimeKind::Threaded;
    cfg.threaded.workers = 2;
    cfg.threaded.baseLatency = 0.0;    // no injected link delay
    cfg.threaded.latencyPerUnit = 0.0;
    cfg.threaded.seed = mixSeed64(seed, 1);
    Universe u(cfg);
    std::vector<ObjectHandle> docs;
    for (unsigned c = 0; c < kServeClients; c++) {
        KeyPair user = u.makeUser();
        docs.push_back(u.createObject(user, "serve/doc" + std::to_string(c)));
    }
    out.setupS = secondsSince(s0);
    if (setup_only)
        return out;

    // Inputs: per-client payloads, their running concatenation (the
    // expected plaintext) and the server each read starts from.
    struct ClientInput
    {
        std::vector<Bytes> payloads;
        Bytes expected;
        std::vector<std::size_t> from;
    };
    std::vector<ClientInput> in(kServeClients);
    {
        BenchSpan s(trace ? &trace->main : nullptr, "bench.gen", 0);
        Rng rng(mixSeed64(seed, 2));
        for (ClientInput &ci : in) {
            for (unsigned w = 0; w < kServeCycles; w++) {
                ci.payloads.push_back(randomPayload(rng, kServePayload));
                ci.expected.insert(ci.expected.end(),
                                   ci.payloads.back().begin(),
                                   ci.payloads.back().end());
                ci.from.push_back(rng.below(cfg.numServers));
            }
        }
    }

    if (trace)
        trace->clients.resize(kServeClients);
    std::vector<Tally> tallies(kServeClients);
    auto m0 = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned c = 0; c < kServeClients; c++) {
        pool.emplace_back([&, c]() {
            SpanLog *log = trace ? &trace->clients[c] : nullptr;
            Tally &t = tallies[c];
            std::size_t len = 0;
            unsigned w = 0;
            try {
                for (; w < kServeCycles; w++) {
                    std::uint64_t req = nextRequestId.fetch_add(1);
                    BenchSpan op(log, "op", req);
                    len += in[c].payloads[w].size();
                    if (!appendAndReadBack(u, docs[c], in[c].payloads[w], w,
                                           Timestamp{w + 1ull, c},
                                           in[c].from[w], in[c].expected, len,
                                           t, log, req))
                        break;
                    t.ops++;
                }
            } catch (const std::exception &e) {
                std::fprintf(stderr, "oceanbench: client %u: %s\n", c, e.what());
                t.failed++; // the cycle was counted as attempted
            }
            // A broken version chain fails the client's remaining cycles.
            if (w + 1 < kServeCycles) {
                t.attempted += kServeCycles - w - 1;
                t.failed += kServeCycles - w - 1;
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    out.measuredS = secondsSince(m0);
    for (const Tally &t : tallies)
        out.tally.merge(t);
    out.rateOps = out.tally.ops;
    out.rateS = out.measuredS;

    if (replay) {
        auto p0 = Clock::now();
        for (const ClientInput &ci : in)
            replay->payloads.insert(replay->payloads.end(),
                                    ci.payloads.begin(), ci.payloads.end());
        for (const ObjectHandle &d : docs)
            replay->objects.push_back(d.guid());
        u.rt().execute([&]() {
            replay->workerUtil = u.rt().stats().workerUtilization;
        });
        replayLocation(u, *replay);
        out.replayS = secondsSince(p0);
    }
    out.heapMb = liveHeapMb();
    return out;
}

// --- workload: archive ----------------------------------------------------


RoundOutcome
archiveRound(std::uint64_t seed, TraceCapture *trace, Replay *replay,
             bool setup_only)
{
    RoundOutcome out;
    SpanLog *log = trace ? &trace->main : nullptr;
    auto s0 = Clock::now();
    UniverseConfig cfg;
    cfg.numServers = kArchiveServers;
    cfg.archiveDataFragments = kArchiveData;
    cfg.archiveTotalFragments = kArchiveTotal;
    cfg.archiveOnCommit = false; // each op archives explicitly
    cfg.storage.kind = StorageKind::Log;
    cfg.seed = seed;
    Universe u(cfg);
    KeyPair owner = u.makeUser();
    std::vector<ObjectHandle> docs;
    for (std::size_t i = 0; i < kArchiveObjects; i++)
        docs.push_back(u.createObject(owner, "archive/obj" + std::to_string(i)));
    out.setupS = secondsSince(s0);
    if (setup_only)
        return out;

    std::vector<Bytes> payloads;
    std::vector<std::size_t> from;
    std::vector<Bytes> expected(kArchiveObjects);
    {
        BenchSpan s(log, "bench.gen", 0);
        Rng rng(mixSeed64(seed, 3));
        for (unsigned op = 0; op < kArchiveOps; op++) {
            payloads.push_back(randomPayload(rng, kArchivePayload));
            Bytes &e = expected[op % kArchiveObjects];
            e.insert(e.end(), payloads.back().begin(), payloads.back().end());
            from.push_back(rng.below(kArchiveServers));
        }
    }

    struct Archived
    {
        Guid archive;
        Bytes state; //!< readVersion's serialized state, the oracle.
    };
    std::vector<Archived> archived;
    Tally &t = out.tally;

    auto restoreAndVerify = [&](const Archived &a, std::uint64_t req) {
        t.attempted++;
        t.restores++;
        auto r0 = Clock::now();
        ReconstructResult rr;
        {
            BenchSpan s(log, "archive.restore", req);
            rr = u.restoreSync(a.archive);
        }
        t.restoreMs.add(secondsSince(r0) * 1e3);
        t.fragmentsRequested += rr.fragmentsRequested;
        t.fragmentsReceived += rr.fragmentsReceived;
        bool ok;
        {
            BenchSpan s(log, "bench.verify", req);
            ok = rr.success && rr.data == a.state;
        }
        if (!ok) {
            t.failed++;
            t.wrongBytes += rr.success ? 1 : 0;
            return false;
        }
        t.fragmentsUsed += cfg.archiveDataFragments;
        return true;
    };

    auto m0 = Clock::now();
    std::vector<VersionNum> version(kArchiveObjects, 0);
    std::vector<std::size_t> len(kArchiveObjects, 0);
    for (unsigned op = 0; op < kArchiveOps; op++) {
        std::size_t i = op % kArchiveObjects;
        std::uint64_t req = nextRequestId.fetch_add(1);
        BenchSpan ops(log, "op", req);
        len[i] += payloads[op].size();
        auto v = appendAndReadBack(u, docs[i], payloads[op], version[i],
                                   Timestamp{op + 1ull, 0}, from[op],
                                   expected[i], len[i], t, log, req);
        if (!v)
            continue;
        version[i] = *v;
        Archived a;
        {
            BenchSpan s(log, "archive.disperse", req);
            a.archive = u.archiveObject(docs[i].guid());
        }
        {
            BenchSpan s(log, "bench.verify", req);
            std::optional<DataObject> want = u.readVersion(docs[i].guid(), *v);
            if (want)
                a.state = want->serializeState();
        }
        if (a.state.empty() || !restoreAndVerify(a, req))
            continue;
        t.ops++;
        archived.push_back(std::move(a));
    }
    out.measuredS = secondsSince(m0);
    out.rateOps = t.ops;
    out.rateS = out.measuredS;

    // Durability sweep: crash and restart every server once (recovery
    // replays its log), then rebuild every archive again from the
    // replayed fragments alone.
    for (std::size_t i = 0; i < kArchiveServers; i++)
        t.storedBytes += u.storageOf(i).disk().size();
    for (unsigned r = 0; r < 3 * cfg.pbftFaults + 1; r++)
        t.storedBytes += u.primaryStorage(r).disk().size();
    for (std::size_t i = 0; i < kArchiveServers; i++) {
        std::uint64_t req = nextRequestId.fetch_add(1);
        u.crashServer(i);
        t.replayedMb += static_cast<double>(u.storageOf(i).disk().size()) / 1e6;
        auto r0 = Clock::now();
        {
            BenchSpan s(log, "storage.restart", req);
            u.restartServer(i);
        }
        t.restartMs.add(secondsSince(r0) * 1e3);
    }
    for (const Archived &a : archived)
        restoreAndVerify(a, nextRequestId.fetch_add(1));

    if (replay) {
        auto p0 = Clock::now();
        replay->payloads = payloads;
        for (const Archived &a : archived)
            replay->states.push_back(a.state);
        for (const ObjectHandle &d : docs)
            replay->objects.push_back(d.guid());
        replayLocation(u, *replay);
        out.replayS = secondsSince(p0);
    }
    out.heapMb = liveHeapMb();
    return out;
}

// --- workload: zipf_flash -------------------------------------------------

constexpr std::size_t kZipfServers = 24;
constexpr std::size_t kZipfObjects = 64;
constexpr double kZipfDuration = 600.0;   //!< Sim seconds per round.
constexpr unsigned kZipfProbes = 512;     //!< Closed-loop probe cycles.

RoundOutcome
zipfRound(std::uint64_t seed, TraceCapture *trace, Replay *replay,
          bool setup_only)
{
    RoundOutcome out;
    SpanLog *log = trace ? &trace->main : nullptr;
    auto s0 = Clock::now();
    UniverseConfig cfg;
    cfg.numServers = kZipfServers;
    cfg.archiveOnCommit = false;
    cfg.seed = seed;
    Universe u(cfg);
    WorkloadPlan plan;
    plan.seed = mixSeed64(seed, 4);
    plan.numObjects = kZipfObjects;
    plan.zipfExponent = 0.9;
    plan.readFraction = 0.7;
    plan.duration = kZipfDuration;
    plan.flash.enabled = true;
    plan.flash.object = kZipfObjects - 1; // the coldest rank erupts
    plan.flash.start = kZipfDuration * 0.33;
    plan.flash.end = kZipfDuration * 0.67;
    plan.flash.share = 0.8;
    WorkloadDriver driver(u, plan);
    out.setupS = secondsSince(s0);
    if (setup_only)
        return out;

    // Phase 1: open-loop sessions in virtual time.  WorkloadDriver
    // byte-verifies its own reads; its failure counts are ours.
    Tally &t = out.tally;
    auto d0 = Clock::now();
    {
        BenchSpan s(log, "workload.run", nextRequestId.fetch_add(1));
        driver.run();
    }
    double driverS = secondsSince(d0);
    const WorkloadStats &ws = driver.stats();
    std::uint64_t driverOps = ws.reads + ws.writes + ws.restores;
    t.attempted += driverOps;
    t.failed += ws.readMisses + ws.readMismatches + ws.writeAborts +
                ws.writeTimeouts + ws.restoreFailures;
    t.wrongBytes += ws.readMismatches;
    t.commits += ws.writes - std::min<std::uint64_t>(
                                 ws.writes, ws.writeAborts + ws.writeTimeouts);
    t.ops += driverOps - std::min<std::uint64_t>(driverOps, t.failed);

    // Phase 2 inputs: each object's expected plaintext after the
    // driver, extended by the probe appends.
    std::vector<Bytes> payloads;
    std::vector<std::size_t> from;
    std::vector<Bytes> expected(kZipfObjects);
    std::vector<VersionNum> version(kZipfObjects);
    std::vector<std::size_t> len(kZipfObjects);
    {
        BenchSpan s(log, "bench.gen", 0);
        for (std::size_t i = 0; i < kZipfObjects; i++) {
            version[i] = driver.version(i);
            expected[i] = driver.expectedContent(i, version[i]);
            len[i] = expected[i].size();
        }
        Rng rng(mixSeed64(seed, 5));
        for (unsigned p = 0; p < kZipfProbes; p++) {
            payloads.push_back(randomPayload(rng, plan.payloadBytes));
            Bytes &e = expected[p % kZipfObjects];
            e.insert(e.end(), payloads.back().begin(), payloads.back().end());
            from.push_back(rng.below(kZipfServers));
        }
    }

    // Phase 2: a closed-loop probe client appends to every object in
    // turn and reads each append back, so write and read latency are
    // measured on the state the crowd left behind.
    auto m0 = Clock::now();
    for (unsigned p = 0; p < kZipfProbes; p++) {
        std::size_t i = p % kZipfObjects;
        std::uint64_t req = nextRequestId.fetch_add(1);
        BenchSpan op(log, "op", req);
        len[i] += payloads[p].size();
        auto v = appendAndReadBack(u, driver.handle(i), payloads[p],
                                   version[i], Timestamp{1000000ull + p, 9},
                                   from[p], expected[i], len[i], t, log, req);
        if (!v)
            continue;
        version[i] = *v;
        t.ops++;
    }
    out.measuredS = driverS + secondsSince(m0);
    out.rateOps = driverOps;
    out.rateS = driverS;

    if (replay) {
        auto p0 = Clock::now();
        replay->payloads = payloads;
        for (std::size_t i = 0; i < kZipfObjects; i++)
            replay->objects.push_back(driver.handle(i).guid());
        replayLocation(u, *replay);
        out.replayS = secondsSince(p0);
    }
    out.heapMb = liveHeapMb();
    return out;
}

// --- reporting ------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

/** Counter delta by name (0 when absent). */
std::uint64_t
counter(const MetricsSnapshot &d, const std::string &name)
{
    auto it = d.counters.find(name);
    return it == d.counters.end() ? 0 : it->second;
}

/** Lower edge of the bin holding percentile @p p of a unit-width
 *  histogram (hop counts). */
double
histPct(const MetricsSnapshot &d, const std::string &name, double p)
{
    auto it = d.histograms.find(name);
    if (it == d.histograms.end() || it->second.total == 0)
        return 0.0;
    const MetricsSnapshot::Hist &h = it->second;
    double width = (h.hi - h.lo) / static_cast<double>(h.bins.size() - 2);
    std::uint64_t need = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(h.total)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h.bins.size(); b++) {
        seen += h.bins[b];
        if (seen >= need && need > 0) {
            if (b == 0)
                return h.lo;
            return h.lo + width * static_cast<double>(b - 1);
        }
    }
    return h.hi;
}

double
histMean(const MetricsSnapshot &d, const std::string &name)
{
    auto it = d.histograms.find(name);
    if (it == d.histograms.end() || it->second.total == 0)
        return 0.0;
    return it->second.sum / static_cast<double>(it->second.total);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

void
printJsonLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
              const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); i++) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           const std::map<std::string, SpanStats> &byName)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "oceanbench: cannot write %s\n", path.c_str());
        return;
    }
    char line[256];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof line,
                      "{\"req\": %llu, \"id\": %u, \"parent\": %u, "
                      "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}\n",
                      static_cast<unsigned long long>(s.req), s.id, s.parent,
                      s.name, s.t0, s.t1);
        f << line;
    }
    for (const auto &[name, st] : byName) {
        std::snprintf(line, sizeof line,
                      "{\"summary\": \"%s\", \"count\": %zu, "
                      "\"total_ms\": %.6f, \"self_ms\": %.6f}\n",
                      name.c_str(), st.durMs.size(), st.totalS * 1e3,
                      st.selfS * 1e3);
        f << line;
    }
}

/** Per-layer metric with the count of samples it rests on. */
struct LayerMetric
{
    std::string name;
    std::string unit;
    double value;
    std::uint64_t samples;
};

std::vector<LayerMetric>
layerMetrics(const std::string &workload, const MetricsSnapshot &d,
             const Tally &ft, double firstMeasuredS, std::uint64_t pbftMsgs,
             std::uint64_t pbftBytes, const Replay &rp,
             const std::map<std::string, SpanStats> &sp, const Tally &total,
             double archiveMbS, double overheadPct, double harnessShare,
             std::size_t rounds)
{
    auto c = [&](const char *name) {
        return static_cast<double>(counter(d, name));
    };
    auto span = [&](const char *name) -> const Samples & {
        static const Samples none;
        auto it = sp.find(name);
        return it == sp.end() ? none : it->second.durMs;
    };
    double ops = static_cast<double>(ft.ops);
    double commits = static_cast<double>(ft.commits);
    double restarts = static_cast<double>(ft.restartMs.size());
    auto n = [](double x) { return static_cast<std::uint64_t>(x); };
    auto hist = [&](const char *name) {
        auto it = d.histograms.find(name);
        return it == d.histograms.end() ? 0 : it->second.total;
    };
    bool archived = workload == "archive";
    // The sim runtime records task delay in virtual seconds; only the
    // threaded backend's is a wall-clock queue wait.
    bool threaded = workload == "serve";
    return {
        {"runtime.task_delay_mean_ms", "ms",
         threaded ? histMean(d, "runtime.task_delay") * 1e3 : 0.0,
         threaded ? hist("runtime.task_delay") : 0},
        {"runtime.tasks_per_op", "count", ratio(c("runtime.tasks"), ops), n(ops)},
        {"runtime.timers_fired_per_op", "count",
         ratio(c("runtime.timers_fired"), ops), n(ops)},
        {"runtime.worker_utilization", "ratio", rp.workerUtil,
         n(c("runtime.tasks"))},
        {"runtime.frame_bytes_per_op", "B", ratio(c("runtime.frame_bytes"), ops),
         n(ops)},
        {"sim.events_per_op", "count", ratio(c("sim.events_fired"), ops), n(ops)},
        {"sim.events_per_s", "1/s", ratio(c("sim.events_fired"), firstMeasuredS),
         n(c("sim.events_fired"))},
        {"core.write_ms", "ms", span("core.write").pct(50),
         span("core.write").size()},
        {"core.read_ms", "ms", span("core.read").pct(50), span("core.read").size()},
        {"core.read_attempts_per_verified", "ratio",
         ratio(static_cast<double>(ft.readAttempts),
               static_cast<double>(ft.readsVerified)),
         ft.readsVerified},
        {"core.read_bloom_hit_ratio", "ratio",
         ratio(c("core.read_bloom_hits"), c("core.reads")), n(c("core.reads"))},
        {"core.read_misses", "count", c("core.read_misses"), n(c("core.reads"))},
        {"pbft.msgs_per_commit", "count",
         ratio(static_cast<double>(pbftMsgs), commits), n(commits)},
        {"pbft.bytes_per_commit", "B",
         ratio(static_cast<double>(pbftBytes), commits), n(commits)},
        {"pbft.client_retries", "count", c("pbft.client_retries"),
         n(c("pbft.client_submits"))},
        {"pbft.view_changes", "count", c("pbft.view_changes"), n(commits)},
        {"sec.pushes_per_commit", "count", ratio(c("sec.pushes"), commits),
         n(commits)},
        {"sec.push_retransmits", "count", c("sec.push_retransmits"),
         n(c("sec.pushes"))},
        {"crypto.seal_ms", "ms", span("crypto.seal").pct(50),
         span("crypto.seal").size()},
        {"crypto.open_ms", "ms", span("crypto.open").pct(50),
         span("crypto.open").size()},
        {"crypto.keystream_mb_per_s", "MB/s", rp.keystreamMbS,
         rp.payloads.size()},
        {"crypto.sha1_mb_per_s", "MB/s", rp.sha1MbS,
         rp.states.empty() ? rp.payloads.size() : rp.states.size()},
        {"erasure.encode_ms", "ms", rp.encodeMs.pct(50), rp.encodeMs.size()},
        {"erasure.decode_ms", "ms", rp.decodeMs.pct(50), rp.decodeMs.size()},
        {"erasure.mb_per_s", "MB/s", rp.erasureMbS, rp.encodeMs.size()},
        {"archive.disperse_ms", "ms", span("archive.disperse").pct(50),
         span("archive.disperse").size()},
        {"archive.restore_ms", "ms", span("archive.restore").pct(50),
         span("archive.restore").size()},
        {"archive.restore_p99_ms", "ms", total.restoreMs.pct(99),
         total.restoreMs.size()},
        {"archive.fragments_requested_per_restore", "count",
         ratio(static_cast<double>(ft.fragmentsRequested),
               static_cast<double>(ft.restores)),
         ft.restores},
        {"archive.fragments_used_ratio", "ratio",
         ratio(static_cast<double>(ft.fragmentsUsed),
               static_cast<double>(ft.fragmentsReceived)),
         ft.restores},
        {"archive.reconstruct_success_ratio", "ratio",
         ratio(c("archive.reconstructs_succeeded"), c("archive.reconstructs")),
         n(c("archive.reconstructs"))},
        {"archive.escalations", "count", c("archive.escalation_requests"),
         n(c("archive.reconstructs"))},
        {"archive.mb_per_s", "MB/s", archived ? archiveMbS : 0.0,
         archived ? total.ops : 0},
        {"storage.bytes_written_per_user_byte", "ratio",
         ratio(c("storage.bytes_written"), static_cast<double>(ft.userBytes)),
         n(c("storage.puts"))},
        {"storage.stored_bytes_per_user_byte", "ratio",
         ratio(static_cast<double>(ft.storedBytes),
               static_cast<double>(ft.userBytes)),
         ft.storedBytes ? ft.commits : 0},
        {"storage.syncs_per_commit", "count", ratio(c("storage.syncs"), commits),
         n(commits)},
        {"storage.puts_per_commit", "count", ratio(c("storage.puts"), commits),
         n(commits)},
        {"storage.restart_ms", "ms", total.restartMs.pct(50),
         total.restartMs.size()},
        {"storage.replay_ms_per_mb", "ms/MB",
         ratio(std::accumulate(ft.restartMs.v.begin(), ft.restartMs.v.end(), 0.0),
               ft.replayedMb),
         n(restarts)},
        {"recovery.records_per_restart", "count",
         ratio(c("recovery.records"), restarts), n(restarts)},
        {"bloom.hit_ratio", "ratio", ratio(c("bloom.hits"), c("bloom.queries")),
         n(c("bloom.queries"))},
        {"bloom.query_hops_p50", "count", histPct(d, "bloom.query_hops", 50),
         hist("bloom.query_hops")},
        {"bloom.query_us", "us", rp.bloomUs.pct(50), rp.bloomUs.size()},
        {"plaxton.lookup_hops_p50", "count",
         histPct(d, "plaxton.lookup_hops", 50), hist("plaxton.lookup_hops")},
        {"plaxton.locate_us", "us", rp.plaxtonUs.pct(50), rp.plaxtonUs.size()},
        {"plaxton.lookups_failed", "count", c("plaxton.lookups_failed"),
         n(c("plaxton.lookups"))},
        {"introspect.access_us", "us", rp.introspectUs.pct(50),
         rp.introspectUs.size()},
        {"introspect.contexts_learned", "count",
         static_cast<double>(rp.contextsLearned), rp.introspectUs.size()},
        {"obs.trace_overhead_pct", "%", overheadPct, rounds},
        {"bench.harness_share", "ratio", harnessShare, rounds},
    };
}

int
run(const Options &opt)
{
    auto start = Clock::now();

    Tally total;
    Samples setupS, heapMb;
    WindowedPercentiles writeWin, readWin;
    std::vector<double> perOpUntraced, perOpTraced;
    double measuredS = 0.0;
    std::uint64_t rateOps = 0;
    double rateS = 0.0;
    double tracedWorkS = 0.0; //!< Traced rounds minus set-up and replay.

    // The first traced round supplies the exact counters, the
    // program's message spans and the layer replays.
    bool haveFirst = false;
    MetricsSnapshot firstDelta;
    Tally firstTally;
    double firstMeasuredS = 0.0;
    std::uint64_t pbftMsgs = 0, pbftBytes = 0;
    Replay replay;
    std::vector<Span> spans;

    // Round r draws its inputs from (seed, r): a run averages over many
    // draws of the workload, and round r is the same in every run with
    // this seed, so the first traced round's exact counters repeat.
    auto runRound = [&](unsigned round, TraceCapture *trace, Replay *rp,
                        bool setup_only) {
        std::uint64_t seed = mixSeed64(opt.seed, round);
        if (opt.workload == "serve")
            return serveRound(seed, trace, rp, setup_only);
        if (opt.workload == "archive")
            return archiveRound(seed, trace, rp, setup_only);
        return zipfRound(seed, trace, rp, setup_only);
    };

    // Stop well inside the 180 s limit whatever the sample rule says.
    const double hardStop =
        std::min(150.0, std::max(opt.seconds * 4, opt.seconds + 30));
    unsigned rounds = 0;
    for (unsigned round = 0;; round++) {
        bool traced = opt.trace && round % 2 == 1;
        bool first = traced && !haveFirst;
        auto r0 = Clock::now();
        std::unique_ptr<TraceCapture> cap;
        if (traced)
            cap = std::make_unique<TraceCapture>();
        Replay *rp = first ? &replay : nullptr;
        MetricsSnapshot before = MetricsRegistry::global().snapshot();
        RoundOutcome ro = runRound(round, cap.get(), rp, false);
        // The round's Universe is gone and its threads joined.
        MetricsSnapshot after = MetricsRegistry::global().snapshot();
        double roundS = secondsSince(r0);

        setupS.add(ro.setupS);
        heapMb.add(ro.heapMb);
        total.merge(ro.tally);
        writeWin.add(ro.tally.writeMs);
        readWin.add(ro.tally.readMs);
        measuredS += ro.measuredS;
        rateOps += ro.rateOps;
        rateS += ro.rateS;
        (traced ? perOpTraced : perOpUntraced)
            .push_back(ratio(ro.rateS, static_cast<double>(ro.rateOps)));
        if (traced) {
            tracedWorkS += roundS - ro.setupS - ro.replayS;
            std::vector<Span> rsp = cap->allSpans();
            spans.insert(spans.end(), rsp.begin(), rsp.end());
        }
        if (first) {
            haveFirst = true;
            firstDelta = after.deltaFrom(before);
            firstTally = ro.tally;
            firstMeasuredS = ro.measuredS;
            for (const SpanRecord &rec : cap->tracer.buffer().snapshot()) {
                if (rec.kind == SpanKind::Local ||
                    cap->tracer.internedString(rec.name).rfind("pbft.", 0) != 0)
                    continue;
                std::uint64_t legs =
                    rec.kind == SpanKind::Multicast ? rec.peer : 1;
                pbftMsgs += legs;
                pbftBytes += legs * rec.bytes;
            }
            replayCodecs(replay);
        }

        // Set-up takes milliseconds; repeat it after every round, on a
        // heap the round has grown, so its median covers the same
        // machine states as the other metrics.
        for (unsigned i = 0; i < kSetupsPerRound; i++)
            setupS.add(runRound(round, nullptr, nullptr, true).setupS);

        bool enough = writeWin.closed() && readWin.closed() &&
                      (opt.workload != "archive" ||
                       total.restoreMs.size() >= kP99Samples) &&
                      (!opt.trace || !perOpUntraced.empty());
        double elapsed = secondsSince(start);
        if ((elapsed >= opt.seconds && enough && (!opt.trace || haveFirst)) ||
            elapsed >= hardStop) {
            rounds = round + 1;
            break;
        }
    }

    bool correct = total.wrongBytes == 0 && total.failed == 0;
    std::fprintf(stderr,
                 "oceanbench %s seed=%llu trace=%d: %zu rounds, %llu ops, "
                 "%llu attempted, %llu failed, %llu wrong bytes\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                 static_cast<std::size_t>(rounds),
                 static_cast<unsigned long long>(total.ops),
                 static_cast<unsigned long long>(total.attempted),
                 static_cast<unsigned long long>(total.failed),
                 static_cast<unsigned long long>(total.wrongBytes));

    // Detail line: sample counts and (traced) exact counters and span
    // self times, for the benchmark's own checks.
    std::printf("{\"detail\": {\"workload\": \"%s\", \"rounds\": %zu, "
                "\"failed_frac\": %.17g, \"samples\": {\"write\": %zu, "
                "\"read\": %zu, \"restore\": %zu, \"restart\": %zu}",
                opt.workload.c_str(), static_cast<std::size_t>(rounds),
                ratio(static_cast<double>(total.failed),
                      static_cast<double>(total.attempted)),
                total.writeMs.size(), total.readMs.size(),
                total.restoreMs.size(), total.restartMs.size());

    std::vector<Metric> m;
    if (!opt.trace) {
        m = {
            {"setup_s", "s", setupS.pct(50)},
            {"heap_mb", "MB", heapMb.pct(50)},
            {"ops_per_s", "1/s", ratio(static_cast<double>(rateOps), rateS)},
            {"write_p50_ms", "ms", writeWin.p50()},
            {"write_p99_ms", "ms", writeWin.p99()},
            {"read_p50_ms", "ms", readWin.p50()},
            {"read_p99_ms", "ms", readWin.p99()},
        };
        std::printf("}}\n");
    } else {
        std::map<std::string, SpanStats> byName = summarize(spans);
        double harnessS = 0.0;
        for (const char *name : {"bench.gen", "bench.verify"})
            if (byName.count(name))
                harnessS += byName[name].totalS;
        if (byName.count("op"))
            harnessS += byName["op"].selfS;
        double overheadPct =
            (ratio(median(perOpTraced), median(perOpUntraced)) - 1.0) * 100.0;
        std::vector<LayerMetric> layers = layerMetrics(
            opt.workload, firstDelta, firstTally, firstMeasuredS, pbftMsgs,
            pbftBytes, replay, byName, total,
            ratio(static_cast<double>(total.userBytes) / 1e6, measuredS),
            overheadPct, ratio(harnessS, tracedWorkS), rounds);
        std::printf(", \"layer_samples\": {");
        for (std::size_t i = 0; i < layers.size(); i++) {
            std::printf("%s\"%s\": %llu", i ? ", " : "", layers[i].name.c_str(),
                        static_cast<unsigned long long>(layers[i].samples));
            m.push_back({layers[i].name, layers[i].unit, layers[i].value});
        }
        std::printf("}, \"self_ms\": {");
        bool firstName = true;
        for (const auto &[name, st] : byName) {
            std::printf("%s\"%s\": %.6f", firstName ? "" : ", ", name.c_str(),
                        st.selfS * 1e3);
            firstName = false;
        }
        std::printf("}, \"exact\": {");
        firstName = true;
        for (const auto &[name, value] : firstDelta.counters) {
            std::printf("%s\"%s\": %llu", firstName ? "" : ", ", name.c_str(),
                        static_cast<unsigned long long>(value));
            firstName = false;
        }
        std::printf("}}}\n");
        if (!opt.traceOut.empty())
            writeSpans(opt.traceOut, spans, byName);
    }
    printJsonLine(correct, total.attempted, total.failed, m);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--trace-out")
            opt.traceOut = val;
        else {
            std::fprintf(stderr, "oceanbench: unknown option %s\n", key.c_str());
            return 2;
        }
    }
    if (opt.workload != "serve" && opt.workload != "archive" &&
        opt.workload != "zipf_flash") {
        std::fprintf(stderr,
                     "usage: oceanbench --workload serve|archive|zipf_flash "
                     "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    return run(opt);
}
