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
 * backlog or an in-flight replay. An urgent plan
 * (urgentQueued, then plan(true, ...)) boards only the
 * models holding such a request, so the preemptive dispatch the fleet
 * squeezes in at a window boundary stays as short as possible; the
 * non-urgent queues keep aging toward their normal forced-dispatch
 * timer. All urgency comparisons use the expression
 * `nowSec >= deadlineSec - slackSec` so the fleet's urgency timer and
 * the eligibility test agree bit-for-bit at the crossing instant
 * (the same FP-symmetry rule ready() and nextForcedDispatchSec()
 * follow).
 *
 * Plan, route, commit: plan() or planDecode() decides a dispatch —
 * its mix, the mix signature (the schedule-cache key's mix half,
 * computed once) and the boarders — without touching a queue, so the
 * fleet can route on the signature, defer, or warm the cache; commit()
 * then drains exactly the planned boarders. The controller owns a
 * queue epoch, bumped by every enqueue, enqueueDecode and commit;
 * commit() refuses a plan made by another controller or at another
 * epoch, so a plan only ever describes the queues it drains.
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
    /** mix.signature(): the mix half of the schedule-cache key. */
    std::string signature;
    /**
     * Decode steps this dispatch advances each rider by (0 = not a
     * decode round). The executor replays the cached one-step
     * schedule this many times by window index (ReplayExecutor), so
     * the schedule-cache key — the one-step mix signature — is shared
     * by every round of the same (context bucket, batch).
     */
    int llmDecodeSteps = 0;
};

/** What a dispatch plan boards (see the planner that makes it). */
enum class DispatchKind
{
    Regular, ///< every model with queued work (plan)
    Urgent,  ///< only the models holding an urgent request (plan)
    Decode,  ///< one autoregressive model's next round (planDecode)
};

/**
 * The boarders and pricing of one decode round. Its boarders are
 * every member of Static locked batch `lockedId`, or (lockedId < 0)
 * the decode-queue prefix [0, count).
 */
struct DecodePlan
{
    std::int64_t lockedId = -1;
    std::size_t count = 0;      ///< boarders
    std::int64_t ctxBucket = 0; ///< priced context bucket
    int steps = 1;              ///< decode steps advanced
    int batch = 0;              ///< quantized round batch
};

class AdmissionController;

/**
 * A dispatch decided but not yet drained. Only AdmissionController's
 * planners make one, and its decision is read-only, so commit()
 * drains exactly what was planned. Valid for commit() only on the
 * controller that made it, at the admission epoch it was made at,
 * and only once (commit() bumps the epoch).
 */
class DispatchPlan
{
  public:
    DispatchKind kind() const { return kind_; }
    /** The mix the dispatch will carry. */
    const Scenario& mix() const { return mix_; }
    /** mix().signature(), computed once. */
    const std::string& signature() const { return signature_; }
    /** mix().models[i] -> catalog index. */
    const std::vector<int>& catalogIdx() const { return catalogIdx_; }
    /** Decode: the round's boarders and steps. */
    const DecodePlan& decode() const { return decode_; }

  private:
    friend class AdmissionController;

    DispatchKind kind_ = DispatchKind::Regular;
    Scenario mix_;
    std::string signature_;
    std::vector<int> catalogIdx_;
    /** Regular / Urgent: the instant EDF boarding ranks aging at. */
    double nowSec_ = 0.0;
    DecodePlan decode_;
    const AdmissionController* owner_ = nullptr; ///< the planner
    long epoch_ = -1; ///< admission epoch the plan was made at
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

    // ---- plan, then commit ---------------------------------------

    /**
     * Plans a Regular dispatch at nowSec without consuming any queue:
     * every model with queued work, partial batches included, so the
     * package is shared the way the offline scheduler optimizes for.
     * With `urgent`, an Urgent one: only the models holding a request
     * urgent at nowSec under the threshold slackSec; the others keep
     * aging toward their forced-dispatch timer. Each model rides at
     * its dispatched batch — the catalog batch when full, else
     * rounded up to a power of two (capped) under quantizeBatches.
     * An autoregressive entry is scheduled as its prefill variant at
     * the queue's max prompt bucket. Fatal unless ready(nowSec) (or
     * any work is queued under speculativePartialDispatch), or for
     * an urgent plan unless urgentQueued(nowSec, slackSec).
     */
    DispatchPlan plan(bool urgent, double nowSec, double slackSec) const;

    /**
     * Plans `model`'s next decode round: the one-step decode variant
     * at the boarders' context bucket and quantized batch, served
     * from the per-run memo. Boarding follows options().llmBatching:
     * Continuous boards the FIFO prefix up to the batch cap; Static
     * boards the oldest locked batch if one is waiting, else locks a
     * fresh one. Fatal unless `model` has decode waiters.
     */
    DispatchPlan planDecode(int model) const;

    /**
     * Drains exactly the planned boarders into a dispatch carrying the
     * planned mix and signature, and bumps the epoch. Regular/Urgent
     * boarding takes a queue's oldest requests, or under EDF the
     * oldest plus the best-ranked rest (see QueueOrder). A decode
     * round stamps each boarder with ridingDecodeSteps = the round's
     * step count (0 for finished lockstep padding) and sets the
     * dispatch's llmDecodeSteps. Fatal for a plan this controller did
     * not make, or one made at another epoch (so also for a plan
     * already committed).
     */
    Dispatch commit(DispatchPlan&& plan);

    /**
     * The queue epoch: bumped by every enqueue, enqueueDecode and
     * commit, so an unchanged epoch means unchanged queues (the fleet
     * skips re-planning a speculative solve on it).
     */
    long epoch() const { return epoch_; }

    /**
     * Decode-round mixes built so far: one per (catalog model,
     * context bucket, batch) ever planned. A round whose key was
     * planned before reuses the memoized mix and builds none.
     */
    std::size_t decodeMixBuilds() const { return decodeMixBuilds_; }

    const std::vector<ServedModel>& catalog() const { return catalog_; }

    const AdmissionOptions& options() const { return options_; }

  private:
    /**
     * The one-model mix of a decode round and its signature, memoized
     * per (catalog model, context bucket, batch): both are pure
     * functions of those keys.
     */
    struct DecodeMix
    {
        Scenario mix;
        std::string signature;
    };
    /** The (model, context bucket) half of the decode-mix memo. */
    struct DecodeStepMemo
    {
        Model step;                       ///< built once per key
        std::map<int, DecodeMix> byBatch; ///< one mix per round batch
    };

    /** The boarders and pricing of `model`'s next decode round. */
    DecodePlan decodeRound(std::size_t model) const;
    /** The memoized mix for (model, ctxBucket, batch). */
    const DecodeMix& decodeMix(std::size_t model,
                               std::int64_t ctxBucket, int batch) const;
    /**
     * The scheduled model for queue `m`: the catalog model, or for
     * autoregressive entries the prefill variant at the queue's max
     * prompt bucket.
     */
    Model scheduledModel(std::size_t model) const;
    /** True when queue `model` holds a request urgent at nowSec. */
    bool modelUrgent(std::size_t model, double nowSec,
                     double slackSec) const;
    /** commit()'s draining of a Regular / Urgent plan's boarders. */
    void boardQueues(const DispatchPlan& plan, Dispatch& dispatch);
    /** commit()'s draining of a Decode plan's boarders. */
    void boardDecode(const DispatchPlan& plan, Dispatch& dispatch);

    std::vector<ServedModel> catalog_;
    AdmissionOptions options_;
    std::vector<std::deque<Request>> queues_; ///< per model, FIFO
    /** Per-model decode-round waiting rooms (LLM entries only). */
    std::vector<std::deque<Request>> decodeQueues_;
    /** Next Static-mode locked-batch id (monotone, deterministic). */
    std::int64_t nextLlmBatchId_ = 0;
    long epoch_ = 0; ///< see epoch()
    /**
     * Decode-step mixes keyed by (catalog index, context bucket):
     * buildDecodeStepModel runs once per key, and each round batch's
     * mix and signature once per key and batch. Mutable because
     * planning fills it; admission is single-threaded, so no lock.
     */
    mutable std::map<std::pair<std::size_t, std::int64_t>,
                     DecodeStepMemo>
        decodeMemo_;
    mutable std::size_t decodeMixBuilds_ = 0; ///< see decodeMixBuilds()
};

} // namespace runtime
} // namespace scar

#endif // SCAR_RUNTIME_ADMISSION_H
