/**
 * @file
 * Admission and batching policy for the serving runtime.
 *
 * Requests queue per catalog model. A model becomes "ready" when a
 * full batch (its catalog batch size, the one the cost model's
 * mini-batch derivation understands) is queued, or when its oldest
 * request has waited longer than maxQueueDelaySec. When the MCM is
 * free and at least one model is ready, the controller drains every
 * model with pending work into one dispatch: the co-scheduled mix.
 *
 * Partially filled batches are rounded up to the next power of two
 * (capped at the catalog batch) so the space of dispatched batch
 * sizes — and therefore of mix signatures that trigger a fresh
 * Scar::run() — stays small; the unfilled slots model the padding a
 * real batching server would submit. Re-scheduling is thereby driven
 * purely by mix changes: the schedule cache re-runs the search only
 * when the dispatched (model, batch) signature is new.
 *
 * Preemption eligibility: a queued request whose slack
 * (deadline - now) has shrunk to the serving runtime's configured
 * threshold is "urgent" — it can no longer afford to wait out the
 * backlog or an in-flight replay. The urgent-dispatch path
 * (urgentQueued / peekUrgentMix / formUrgentDispatch) boards only the
 * models holding such a request, so the preemptive dispatch the fleet
 * squeezes in at a window boundary stays as short as possible; the
 * non-urgent queues keep aging toward their normal forced-dispatch
 * timer. All urgency comparisons use the expression
 * `nowSec >= deadlineSec - slackSec` so the fleet's urgency timer and
 * the eligibility test agree bit-for-bit at the crossing instant
 * (the same FP-symmetry rule ready() and nextForcedDispatchSec()
 * follow).
 */

#ifndef SCAR_RUNTIME_ADMISSION_H
#define SCAR_RUNTIME_ADMISSION_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/request.h"
#include "workload/scenario.h"

namespace scar
{
namespace runtime
{

/**
 * Which queued requests ride when a dispatch cannot take everyone.
 */
enum class QueueOrder
{
    /** Oldest arrivals first (the PR 1 behavior). */
    FifoArrival,
    /**
     * Earliest SLO deadline first (EDF). Under overload — more
     * queued requests than the batch cap — the deadline-critical
     * requests board the next dispatch instead of waiting out the
     * backlog, which lowers the tail violation rate whenever request
     * deadlines are heterogeneous (e.g. interactive vs background
     * traffic against the same model).
     */
    EarliestDeadline,
};

/**
 * How autoregressive decode rounds batch requests (only meaningful
 * for catalog entries with LlmProfile::autoregressive set).
 */
enum class LlmBatchingMode
{
    /**
     * Batch-and-replay baseline: the requests boarding a decode round
     * are locked into one batch that decodes in lockstep until every
     * member reaches its output length; finished members ride along
     * as padding and retire with the batch, and later arrivals wait
     * for the next batch.
     */
    Static,
    /**
     * Continuous batching: waiting requests join the in-flight decode
     * stream at the next step-aligned window boundary (the fleet cuts
     * the replay with ReplayExecutor::suspend) and finished sequences
     * retire at their own final step, shrinking the dispatched mix.
     */
    Continuous,
};

/** Batching knobs. */
struct AdmissionOptions
{
    /**
     * Oldest-request age that forces a partial-batch dispatch, in
     * seconds. Smaller values favor latency, larger values favor
     * full batches (throughput).
     */
    double maxQueueDelaySec = 0.05;
    /** Round partial batches up to powers of two (signature hygiene). */
    bool quantizeBatches = true;
    /** Boarding order when a queue exceeds the batch cap. */
    QueueOrder order = QueueOrder::FifoArrival;
    /** Decode-round batching policy for autoregressive models. */
    LlmBatchingMode llmBatching = LlmBatchingMode::Continuous;
    /**
     * Dispatch a partial batch as soon as a shard would otherwise sit
     * idle, instead of waiting out maxQueueDelaySec for the batch to
     * fill. Raises occupancy under bursty load (and decode-batch
     * occupancy under continuous batching) at the cost of smaller
     * batches. Off by default: the timer-paced behavior is the
     * baseline the goldens pin.
     */
    bool speculativePartialDispatch = false;
};

/** One model's share of a dispatch. */
struct BatchGroup
{
    int catalogIdx = -1;
    /** Dispatched batch size (>= requests.size() when padded). */
    int batch = 0;
    /** Requests riding in this batch, oldest first. */
    std::vector<Request> requests;
};

/** A co-scheduled batch of requests: the unit the executor replays. */
struct Dispatch
{
    Scenario mix;                 ///< scenario handed to the scheduler
    std::vector<int> catalogIdx;  ///< mix.models[i] -> catalog index
    std::vector<BatchGroup> groups; ///< aligned with mix.models
    /**
     * Decode steps this dispatch advances each rider by (0 = not a
     * decode round). The executor replays the cached one-step
     * schedule this many times by window index (ReplayExecutor), so
     * the schedule-cache key — the one-step mix signature — is shared
     * by every round of the same (context bucket, batch).
     */
    int llmDecodeSteps = 0;
    /** Context bucket a decode round is priced at (0 = not one). */
    std::int64_t llmCtxBucket = 0;
};

/**
 * The one-model mix of a decode round, memoized per run by
 * AdmissionController for each (catalog model, context bucket,
 * batch). The signature is a pure function of those keys, so it is
 * computed once here and the fleet routes on the stored string.
 */
struct DecodeMix
{
    int model = -1;             ///< catalog index
    std::int64_t ctxBucket = 0; ///< priced context bucket
    int batch = 0;              ///< quantized round batch
    Scenario mix;               ///< the one-step mix at that batch
    std::string signature;      ///< mix.signature()
};

/** Per-model queues plus the dispatch-forming policy. */
class AdmissionController
{
  public:
    AdmissionController(const std::vector<ServedModel>& catalog,
                        AdmissionOptions options = AdmissionOptions{});

    /** Admits an arrived request into its model queue. */
    void enqueue(const Request& request);

    /** Total queued requests across models. */
    int queuedCount() const;

    /** Queued requests of one catalog model (observability sampling). */
    int queuedCount(int model) const;

    /**
     * True when some model has a ready batch at the given time: a
     * full batch queued, or an oldest request older than
     * maxQueueDelaySec.
     */
    bool ready(double nowSec) const;

    /**
     * Forms a dispatch at nowSec, consuming the queued requests. All
     * models with pending work join the mix (partial batches
     * included) so the package is shared the way the offline
     * scheduler optimizes for. Requires ready(nowSec).
     */
    Dispatch formDispatch(double nowSec);

    /**
     * The mix formDispatch would build right now, without consuming
     * any queue. The serving loop uses this to begin a speculative
     * background schedule solve while every shard is still busy; the
     * actual dispatch later re-checks the (possibly grown) mix.
     */
    Scenario peekMix() const;

    /**
     * Earliest future instant at which a queued request's age crosses
     * maxQueueDelaySec (infinity when no requests are queued). Used
     * by the event loop to schedule its batching timer.
     */
    double nextForcedDispatchSec() const;

    /**
     * Earliest SLO deadline among all queued requests (infinity when
     * none are queued). `earliestDeadlineSec() - slackSec` is the
     * instant the next request turns urgent — the fleet's preemption
     * timer.
     */
    double earliestDeadlineSec() const;

    /**
     * Preemption-eligibility test: true when some queued request's
     * slack at nowSec is at or below slackSec (evaluated as
     * `nowSec >= deadlineSec - slackSec`; a negative slack — an
     * already-blown deadline — still counts, minimizing lateness).
     */
    bool urgentQueued(double nowSec, double slackSec) const;

    /**
     * The mix formUrgentDispatch would build right now: only the
     * models holding an urgent request, at their dispatched batch
     * sizes. Requires urgentQueued(nowSec, slackSec).
     */
    Scenario peekUrgentMix(double nowSec, double slackSec) const;

    /**
     * Forms a dispatch draining only the urgent models' queues
     * (boarding order as in formDispatch); the other models' requests
     * stay queued and keep aging toward their forced-dispatch timer.
     * Requires urgentQueued(nowSec, slackSec).
     */
    Dispatch formUrgentDispatch(double nowSec, double slackSec);

    // ---- autoregressive decode queue -----------------------------
    // Requests whose prefill has completed but whose output length is
    // not reached wait here between decode rounds. Decode rounds are
    // single-model dispatches formed by the fleet whenever a shard is
    // free (no batching timer: generation throughput dominates).

    /** Queues a prefill-completed request for its next decode round. */
    void enqueueDecode(const Request& request);

    /** Total decode-waiting requests across models. */
    int decodeQueuedCount() const;

    /** Decode-waiting requests of one catalog model. */
    int decodeQueuedCount(int model) const;

    /**
     * The single-model mix formDecodeDispatch would build for this
     * model right now: the one-step decode variant at the boarders'
     * context bucket and quantized batch. The returned entry lives in
     * the controller's memo and stays valid for its lifetime.
     * Requires waiters.
     */
    const DecodeMix& peekDecodeMix(int model) const;

    /**
     * Forms a decode round for one model, consuming the boarding
     * requests. Boarding follows options().llmBatching: Continuous
     * boards the FIFO prefix up to the batch cap; Static boards the
     * oldest locked batch if one is waiting, else locks a fresh one.
     * Each boarded request is stamped with ridingDecodeSteps = the
     * round's step count (0 for finished lockstep padding); the
     * dispatch carries llmDecodeSteps > 0 and the llmCtxBucket its
     * mix (the memoized peekDecodeMix entry) was priced at.
     */
    Dispatch formDecodeDispatch(int model);

    const std::vector<ServedModel>& catalog() const { return catalog_; }

    const AdmissionOptions& options() const { return options_; }

  private:
    /**
     * The next decode round of one model. Its boarders are every
     * member of Static locked batch `lockedId`, or (lockedId < 0) the
     * queue prefix [0, count).
     */
    struct DecodePlan
    {
        std::int64_t lockedId = -1;
        std::size_t count = 0;      ///< boarders
        std::int64_t ctxBucket = 0; ///< priced context bucket
        int steps = 1;              ///< decode steps advanced
        int batch = 0;              ///< quantized round batch
    };
    /** The (model, context bucket) half of the decode-mix memo. */
    struct DecodeStepMemo
    {
        Model step;                       ///< built once per key
        std::map<int, DecodeMix> byBatch; ///< one mix per round batch
    };

    int dispatchBatch(std::size_t model) const;
    /** Plans the next decode round of `model` (requires waiters). */
    DecodePlan planDecode(std::size_t model) const;
    /** The memoized mix for (model, ctxBucket, batch). */
    const DecodeMix& decodeMix(std::size_t model,
                               std::int64_t ctxBucket, int batch) const;
    /**
     * The scheduled model for queue `m`: the catalog model, or for
     * autoregressive entries the prefill variant at the queue's max
     * prompt bucket (identical in peek and form, so the mix-signature
     * handshake with the fleet holds).
     */
    Model scheduledModel(std::size_t model) const;
    /** True when queue `model` holds a request urgent at nowSec. */
    bool modelUrgent(std::size_t model, double nowSec,
                     double slackSec) const;
    /** The shared mix-building path of peekMix / peekUrgentMix. */
    Scenario peekFrom(const std::vector<bool>& take) const;
    /** The shared queue-draining path of formDispatch /
     *  formUrgentDispatch. */
    Dispatch formFrom(double nowSec, const std::vector<bool>& take);

    std::vector<ServedModel> catalog_;
    AdmissionOptions options_;
    std::vector<std::deque<Request>> queues_; ///< per model, FIFO
    /** Per-model decode-round waiting rooms (LLM entries only). */
    std::vector<std::deque<Request>> decodeQueues_;
    /** Next Static-mode locked-batch id (monotone, deterministic). */
    std::int64_t nextLlmBatchId_ = 0;
    /**
     * Decode-step mixes keyed by (catalog index, context bucket):
     * buildDecodeStepModel runs once per key, and each round batch's
     * mix and signature once per key and batch. std::map nodes never
     * move, so peekDecodeMix can hand out references. Mutable because
     * peeking fills it; admission is single-threaded, so no lock.
     */
    mutable std::map<std::pair<std::size_t, std::int64_t>,
                     DecodeStepMemo>
        decodeMemo_;
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_ADMISSION_H
