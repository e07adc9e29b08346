#include "runtime/admission.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace scar
{
namespace runtime
{
namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Smallest power of two >= n. */
int
nextPow2(int n)
{
    int p = 1;
    while (p < n)
        p *= 2;
    return p;
}

/** Quantized decode-round batch for `boarded` riders. */
int
decodeRoundBatch(int boarded, int cap, bool quantize)
{
    if (boarded >= cap)
        return cap;
    return quantize ? std::min(nextPow2(boarded), cap) : boarded;
}

} // namespace

AdmissionController::AdmissionController(
    const std::vector<ServedModel>& catalog, AdmissionOptions options)
    : catalog_(catalog), options_(options), queues_(catalog.size()),
      decodeQueues_(catalog.size())
{
    SCAR_REQUIRE(!catalog_.empty(), "admission: empty catalog");
    for (const ServedModel& sm : catalog_) {
        SCAR_REQUIRE(sm.model.batch >= 1, "admission: model ",
                     sm.model.name, " has batch ", sm.model.batch);
        if (sm.llm.autoregressive) {
            SCAR_REQUIRE(sm.llm.decoder.dModel >= 1 &&
                             sm.llm.decoder.dFf >= 1 &&
                             sm.llm.decoder.numBlocks >= 1,
                         "admission: model ", sm.model.name,
                         " has an invalid decoder config");
            SCAR_REQUIRE(sm.llm.promptBucket >= 1 &&
                             sm.llm.contextBucket >= 1 &&
                             sm.llm.maxDecodeSteps >= 1,
                         "admission: model ", sm.model.name,
                         " has invalid LLM buckets");
        }
    }
    SCAR_REQUIRE(options_.maxQueueDelaySec >= 0.0,
                 "admission: negative maxQueueDelaySec");
}

void
AdmissionController::enqueue(const Request& request)
{
    SCAR_REQUIRE(request.modelIdx >= 0 &&
                     request.modelIdx <
                         static_cast<int>(catalog_.size()),
                 "admission: request model ", request.modelIdx,
                 " outside catalog");
    queues_[request.modelIdx].push_back(request);
}

int
AdmissionController::queuedCount() const
{
    int total = 0;
    for (const auto& q : queues_)
        total += static_cast<int>(q.size());
    return total;
}

int
AdmissionController::queuedCount(int model) const
{
    SCAR_REQUIRE(model >= 0 &&
                     model < static_cast<int>(queues_.size()),
                 "admission: queue index ", model, " outside catalog");
    return static_cast<int>(queues_[model].size());
}

bool
AdmissionController::ready(double nowSec) const
{
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        const auto& q = queues_[m];
        if (q.empty())
            continue;
        if (static_cast<int>(q.size()) >= catalog_[m].model.batch)
            return true;
        // Same expression as nextForcedDispatchSec so the two agree
        // bit-for-bit at the timer instant (a - b >= d can round the
        // other way and livelock the event loop).
        if (nowSec >= q.front().arrivalSec + options_.maxQueueDelaySec)
            return true;
    }
    return false;
}

int
AdmissionController::dispatchBatch(std::size_t model) const
{
    const int queued = static_cast<int>(queues_[model].size());
    const int cap = catalog_[model].model.batch;
    if (queued >= cap)
        return cap;
    return options_.quantizeBatches
               ? std::min(nextPow2(queued), cap)
               : queued;
}

Dispatch
AdmissionController::formDispatch(double nowSec)
{
    // The speculative path dispatches partial batches before the
    // batching timer: any queued work suffices.
    SCAR_REQUIRE(ready(nowSec) || (options_.speculativePartialDispatch &&
                                   queuedCount() > 0),
                 "admission: formDispatch while idle");
    return formFrom(nowSec,
                    std::vector<bool>(queues_.size(), true));
}

Dispatch
AdmissionController::formFrom(double nowSec,
                              const std::vector<bool>& take)
{
    Dispatch dispatch;
    dispatch.mix.name = "mix";
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        auto& q = queues_[m];
        if (q.empty() || !take[m])
            continue;
        BatchGroup group;
        group.catalogIdx = static_cast<int>(m);
        group.batch = dispatchBatch(m);
        // Derive the scheduled model before draining the queue: the
        // prefill variant's bucket scans the queued prompts, and the
        // peeked signature the fleet routed on saw the full queue.
        Model scheduled = scheduledModel(m);
        const int boardCount =
            std::min(static_cast<int>(q.size()), group.batch);
        if (options_.order == QueueOrder::EarliestDeadline &&
            boardCount < static_cast<int>(q.size())) {
            // Overload boarding. Starvation bound: the queue front —
            // the oldest request, the one driving the forced-dispatch
            // timer — always boards, so every dispatch makes
            // head-of-line progress and a request admitted behind k
            // others boards within k dispatches, whatever its
            // deadline. The remaining slots go to requests that have
            // waited past maxQueueDelaySec first (older traffic
            // outranks fresh tight-deadline arrivals), then earliest
            // deadline, with the queue-position tie-break making the
            // order total and deterministic.
            auto agedOut = [&](const Request& req) {
                return nowSec >=
                       req.arrivalSec + options_.maxQueueDelaySec;
            };
            // Only the `boardCount` best boarders are needed, so a
            // partial sort over indices suffices.
            std::vector<std::size_t> byDeadline(q.size());
            for (std::size_t i = 0; i < q.size(); ++i)
                byDeadline[i] = i;
            std::partial_sort(
                byDeadline.begin(), byDeadline.begin() + boardCount,
                byDeadline.end(),
                [&](std::size_t a, std::size_t b) {
                    if (a == 0 || b == 0)
                        return a == 0; // oldest always boards
                    const bool agedA = agedOut(q[a]);
                    const bool agedB = agedOut(q[b]);
                    if (agedA != agedB)
                        return agedA;
                    if (q[a].deadlineSec != q[b].deadlineSec)
                        return q[a].deadlineSec < q[b].deadlineSec;
                    return a < b;
                });
            std::vector<bool> boarded(q.size(), false);
            for (int i = 0; i < boardCount; ++i) {
                boarded[byDeadline[i]] = true;
                group.requests.push_back(q[byDeadline[i]]);
            }
            std::deque<Request> remaining;
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (!boarded[i])
                    remaining.push_back(q[i]);
            }
            q = std::move(remaining);
        } else {
            for (int i = 0; i < boardCount; ++i) {
                group.requests.push_back(q.front());
                q.pop_front();
            }
        }
        // The scheduled model carries the dispatched batch size: the
        // mix signature (and so the schedule-cache key) reflects the
        // padded batch, not the raw queue depth.
        scheduled.batch = group.batch;
        dispatch.mix.models.push_back(std::move(scheduled));
        dispatch.catalogIdx.push_back(static_cast<int>(m));
        dispatch.groups.push_back(std::move(group));
    }
    return dispatch;
}

Scenario
AdmissionController::peekMix() const
{
    return peekFrom(std::vector<bool>(queues_.size(), true));
}

Scenario
AdmissionController::peekFrom(const std::vector<bool>& take) const
{
    Scenario mix;
    mix.name = "mix";
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        if (queues_[m].empty() || !take[m])
            continue;
        Model scheduled = scheduledModel(m);
        scheduled.batch = dispatchBatch(m);
        mix.models.push_back(std::move(scheduled));
    }
    return mix;
}

Model
AdmissionController::scheduledModel(std::size_t model) const
{
    const ServedModel& sm = catalog_[model];
    if (!sm.llm.autoregressive)
        return sm.model;
    // Prefill variant at the queue's max prompt, bucket-rounded. The
    // max ranges over the whole queue — not just the boarders — so
    // peekMix and formDispatch trivially agree on the signature the
    // fleet's routing handshake asserts; the cost is mild over-padding
    // when a long-prompt request waits behind the batch cap.
    std::int64_t maxPrompt = 1;
    for (const Request& req : queues_[model])
        maxPrompt = std::max(
            maxPrompt, static_cast<std::int64_t>(req.promptTokens));
    TransformerConfig cfg = sm.llm.decoder;
    cfg.name = sm.model.name;
    return buildPrefillModel(
        cfg, llmLengthBucket(maxPrompt, sm.llm.promptBucket));
}

bool
AdmissionController::modelUrgent(std::size_t model, double nowSec,
                                 double slackSec) const
{
    for (const Request& req : queues_[model]) {
        // Same expression as the fleet's urgency timer
        // (earliestDeadlineSec() - slackSec) so the two agree
        // bit-for-bit at the crossing instant.
        if (nowSec >= req.deadlineSec - slackSec)
            return true;
    }
    return false;
}

double
AdmissionController::earliestDeadlineSec() const
{
    double earliest = kInf;
    for (const auto& q : queues_) {
        for (const Request& req : q)
            earliest = std::min(earliest, req.deadlineSec);
    }
    return earliest;
}

bool
AdmissionController::urgentQueued(double nowSec, double slackSec) const
{
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        if (modelUrgent(m, nowSec, slackSec))
            return true;
    }
    return false;
}

Scenario
AdmissionController::peekUrgentMix(double nowSec,
                                   double slackSec) const
{
    std::vector<bool> take(queues_.size());
    for (std::size_t m = 0; m < queues_.size(); ++m)
        take[m] = modelUrgent(m, nowSec, slackSec);
    return peekFrom(take);
}

Dispatch
AdmissionController::formUrgentDispatch(double nowSec, double slackSec)
{
    SCAR_REQUIRE(urgentQueued(nowSec, slackSec),
                 "admission: formUrgentDispatch without an urgent "
                 "request queued");
    std::vector<bool> take(queues_.size());
    for (std::size_t m = 0; m < queues_.size(); ++m)
        take[m] = modelUrgent(m, nowSec, slackSec);
    return formFrom(nowSec, take);
}

void
AdmissionController::enqueueDecode(const Request& request)
{
    SCAR_REQUIRE(request.modelIdx >= 0 &&
                     request.modelIdx <
                         static_cast<int>(catalog_.size()),
                 "admission: decode request model ", request.modelIdx,
                 " outside catalog");
    SCAR_REQUIRE(catalog_[request.modelIdx].llm.autoregressive,
                 "admission: decode enqueue for non-LLM model ",
                 catalog_[request.modelIdx].model.name);
    SCAR_REQUIRE(request.prefillDone(),
                 "admission: decode enqueue before prefill");
    decodeQueues_[request.modelIdx].push_back(request);
}

int
AdmissionController::decodeQueuedCount() const
{
    int total = 0;
    for (const auto& q : decodeQueues_)
        total += static_cast<int>(q.size());
    return total;
}

int
AdmissionController::decodeQueuedCount(int model) const
{
    SCAR_REQUIRE(model >= 0 &&
                     model < static_cast<int>(decodeQueues_.size()),
                 "admission: decode queue index ", model,
                 " outside catalog");
    return static_cast<int>(decodeQueues_[model].size());
}

AdmissionController::DecodePlan
AdmissionController::planDecode(std::size_t model) const
{
    const ServedModel& sm = catalog_[model];
    const auto& q = decodeQueues_[model];
    DecodePlan plan;
    if (options_.llmBatching == LlmBatchingMode::Static) {
        // A waiting locked batch outranks fresh arrivals and boards
        // whole (its members only ever enter and leave the queue
        // together, so every member is present).
        for (const Request& req : q) {
            if (req.llmBatchId >= 0 &&
                (plan.lockedId < 0 || req.llmBatchId < plan.lockedId))
                plan.lockedId = req.llmBatchId;
        }
    }
    // Price the KV footprint at the max rider context rounded up to
    // the bucket, and advance by the largest step count that (a) no
    // unfinished rider overshoots its output length, (b) no rider's
    // context outgrows the priced bucket, (c) stays within the
    // profile's per-round cap.
    std::int64_t maxCtx = 1;
    int minRemaining = sm.llm.maxDecodeSteps;
    auto board = [&](const Request& req) {
        ++plan.count;
        maxCtx = std::max(maxCtx, req.contextTokens());
        const int remaining = req.outputTokens - req.generatedTokens;
        if (remaining > 0)
            minRemaining = std::min(minRemaining, remaining);
    };
    if (plan.lockedId >= 0) {
        for (const Request& req : q) {
            if (req.llmBatchId == plan.lockedId)
                board(req);
        }
    } else {
        const std::size_t prefix = std::min(
            q.size(), static_cast<std::size_t>(sm.model.batch));
        for (std::size_t i = 0; i < prefix; ++i)
            board(q[i]);
    }
    plan.ctxBucket = llmLengthBucket(maxCtx, sm.llm.contextBucket);
    const std::int64_t toBucketEdge = plan.ctxBucket - maxCtx + 1;
    plan.steps = static_cast<int>(std::min<std::int64_t>(
        std::min(minRemaining, sm.llm.maxDecodeSteps), toBucketEdge));
    plan.steps = std::max(plan.steps, 1);
    plan.batch = decodeRoundBatch(static_cast<int>(plan.count),
                                  sm.model.batch,
                                  options_.quantizeBatches);
    return plan;
}

const DecodeMix&
AdmissionController::decodeMix(std::size_t model, std::int64_t ctxBucket,
                               int batch) const
{
    auto [it, fresh] = decodeMemo_.try_emplace({model, ctxBucket});
    DecodeStepMemo& memo = it->second;
    if (fresh) {
        const ServedModel& sm = catalog_[model];
        TransformerConfig cfg = sm.llm.decoder;
        cfg.name = sm.model.name;
        memo.step = buildDecodeStepModel(cfg, ctxBucket);
    }
    auto [mixIt, freshMix] = memo.byBatch.try_emplace(batch);
    DecodeMix& entry = mixIt->second;
    if (freshMix) {
        entry.model = static_cast<int>(model);
        entry.ctxBucket = ctxBucket;
        entry.batch = batch;
        entry.mix.name = "mix";
        entry.mix.models.push_back(memo.step);
        entry.mix.models.back().batch = batch;
        entry.signature = entry.mix.signature();
    }
    return entry;
}

const DecodeMix&
AdmissionController::peekDecodeMix(int model) const
{
    SCAR_REQUIRE(decodeQueuedCount(model) > 0,
                 "admission: peekDecodeMix on empty decode queue");
    const std::size_t m = static_cast<std::size_t>(model);
    const DecodePlan plan = planDecode(m);
    return decodeMix(m, plan.ctxBucket, plan.batch);
}

Dispatch
AdmissionController::formDecodeDispatch(int model)
{
    SCAR_REQUIRE(decodeQueuedCount(model) > 0,
                 "admission: formDecodeDispatch on empty decode "
                 "queue");
    const std::size_t m = static_cast<std::size_t>(model);
    auto& q = decodeQueues_[m];
    const DecodePlan plan = planDecode(m);
    const bool lockstep =
        options_.llmBatching == LlmBatchingMode::Static;

    BatchGroup group;
    group.catalogIdx = model;
    group.batch = plan.batch;
    group.requests.reserve(plan.count);
    auto board = [&](Request req) {
        if (lockstep && req.llmBatchId < 0)
            req.llmBatchId = nextLlmBatchId_;
        // Finished lockstep padding rides without advancing.
        req.ridingDecodeSteps =
            req.generatedTokens >= req.outputTokens ? 0 : plan.steps;
        group.requests.push_back(std::move(req));
    };
    if (plan.lockedId < 0) {
        for (std::size_t i = 0; i < plan.count; ++i) {
            board(std::move(q.front()));
            q.pop_front();
        }
    } else {
        std::deque<Request> remaining;
        for (Request& req : q) {
            if (req.llmBatchId == plan.lockedId)
                board(std::move(req));
            else
                remaining.push_back(std::move(req));
        }
        q = std::move(remaining);
    }
    if (lockstep)
        ++nextLlmBatchId_;

    Dispatch dispatch;
    dispatch.mix = decodeMix(m, plan.ctxBucket, plan.batch).mix;
    dispatch.catalogIdx.push_back(model);
    dispatch.groups.push_back(std::move(group));
    dispatch.llmDecodeSteps = plan.steps;
    dispatch.llmCtxBucket = plan.ctxBucket;
    return dispatch;
}

double
AdmissionController::nextForcedDispatchSec() const
{
    double earliest = kInf;
    for (const auto& q : queues_) {
        if (q.empty())
            continue;
        earliest = std::min(earliest, q.front().arrivalSec +
                                          options_.maxQueueDelaySec);
    }
    return earliest;
}

} // namespace runtime
} // namespace scar
