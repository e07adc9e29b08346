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

/**
 * Dispatched batch for `riders` requests under batch cap `cap`: the
 * cap when full, else `riders` rounded up to the next power of two
 * (capped) when quantizing.
 */
int
dispatchBatch(int riders, int cap, bool quantize)
{
    if (riders >= cap || !quantize)
        return std::min(riders, cap);
    int p = 1;
    while (p < riders)
        p *= 2;
    return std::min(p, cap);
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
    ++epoch_;
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

DispatchPlan
AdmissionController::plan(bool urgent, double nowSec,
                          double slackSec) const
{
    if (urgent) {
        SCAR_REQUIRE(urgentQueued(nowSec, slackSec),
                     "admission: urgent plan without an urgent "
                     "request queued");
    } else {
        // The speculative path dispatches partial batches before the
        // batching timer: any queued work suffices.
        SCAR_REQUIRE(ready(nowSec) ||
                         (options_.speculativePartialDispatch &&
                          queuedCount() > 0),
                     "admission: regular plan while idle");
    }
    DispatchPlan plan;
    plan.kind_ = urgent ? DispatchKind::Urgent : DispatchKind::Regular;
    plan.nowSec_ = nowSec;
    plan.owner_ = this;
    plan.epoch_ = epoch_;
    plan.mix_.name = "mix";
    for (std::size_t m = 0; m < queues_.size(); ++m) {
        const auto& q = queues_[m];
        if (q.empty() || (urgent && !modelUrgent(m, nowSec, slackSec)))
            continue;
        // The scheduled model carries the dispatched batch size: the
        // mix signature (and so the schedule-cache key) reflects the
        // padded batch, not the raw queue depth.
        Model scheduled = scheduledModel(m);
        scheduled.batch = dispatchBatch(static_cast<int>(q.size()),
                                        catalog_[m].model.batch,
                                        options_.quantizeBatches);
        plan.mix_.models.push_back(std::move(scheduled));
        plan.catalogIdx_.push_back(static_cast<int>(m));
    }
    plan.signature_ = plan.mix_.signature();
    return plan;
}

DispatchPlan
AdmissionController::planDecode(int model) const
{
    SCAR_REQUIRE(decodeQueuedCount(model) > 0,
                 "admission: decode plan on empty decode queue");
    const std::size_t m = static_cast<std::size_t>(model);
    DispatchPlan plan;
    plan.kind_ = DispatchKind::Decode;
    plan.owner_ = this;
    plan.epoch_ = epoch_;
    plan.decode_ = decodeRound(m);
    const DecodeMix& memo =
        decodeMix(m, plan.decode_.ctxBucket, plan.decode_.batch);
    plan.mix_ = memo.mix;
    plan.signature_ = memo.signature;
    plan.catalogIdx_.push_back(model);
    return plan;
}

Dispatch
AdmissionController::commit(DispatchPlan&& plan)
{
    SCAR_REQUIRE(plan.owner_ == this,
                 "admission: commit of a plan this controller did not "
                 "make");
    SCAR_REQUIRE(plan.epoch_ == epoch_, "admission: stale plan (made at "
                                        "epoch ",
                 plan.epoch_, ", queues at epoch ", epoch_, ")");
    Dispatch dispatch;
    if (plan.kind_ == DispatchKind::Decode)
        boardDecode(plan, dispatch);
    else
        boardQueues(plan, dispatch);
    dispatch.mix = std::move(plan.mix_);
    dispatch.signature = std::move(plan.signature_);
    dispatch.catalogIdx = std::move(plan.catalogIdx_);
    ++epoch_;
    return dispatch;
}

void
AdmissionController::boardQueues(const DispatchPlan& plan,
                                 Dispatch& dispatch)
{
    const double nowSec = plan.nowSec_;
    for (std::size_t slot = 0; slot < plan.catalogIdx_.size(); ++slot) {
        const std::size_t m =
            static_cast<std::size_t>(plan.catalogIdx_[slot]);
        auto& q = queues_[m];
        BatchGroup group;
        group.catalogIdx = plan.catalogIdx_[slot];
        group.batch = plan.mix_.models[slot].batch;
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
        dispatch.groups.push_back(std::move(group));
    }
}

Model
AdmissionController::scheduledModel(std::size_t model) const
{
    const ServedModel& sm = catalog_[model];
    if (!sm.llm.autoregressive)
        return sm.model;
    // Prefill variant at the queue's max prompt, bucket-rounded. The
    // max ranges over the whole queue — not just the boarders — which
    // keeps the plan independent of boarding order; the cost is mild
    // over-padding when a long-prompt request waits behind the batch
    // cap.
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
    ++epoch_;
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

DecodePlan
AdmissionController::decodeRound(std::size_t model) const
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
    plan.batch = dispatchBatch(static_cast<int>(plan.count),
                               sm.model.batch, options_.quantizeBatches);
    return plan;
}

const AdmissionController::DecodeMix&
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
        entry.mix.name = "mix";
        entry.mix.models.push_back(memo.step);
        entry.mix.models.back().batch = batch;
        entry.signature = entry.mix.signature();
        ++decodeMixBuilds_;
    }
    return entry;
}

void
AdmissionController::boardDecode(const DispatchPlan& plan,
                                 Dispatch& dispatch)
{
    const DecodePlan& round = plan.decode_;
    auto& q = decodeQueues_[plan.catalogIdx_.front()];
    const bool lockstep =
        options_.llmBatching == LlmBatchingMode::Static;

    BatchGroup group;
    group.catalogIdx = plan.catalogIdx_.front();
    group.batch = round.batch;
    group.requests.reserve(round.count);
    auto board = [&](Request req) {
        if (lockstep && req.llmBatchId < 0)
            req.llmBatchId = nextLlmBatchId_;
        // Finished lockstep padding rides without advancing.
        req.ridingDecodeSteps =
            req.generatedTokens >= req.outputTokens ? 0 : round.steps;
        group.requests.push_back(std::move(req));
    };
    if (round.lockedId < 0) {
        for (std::size_t i = 0; i < round.count; ++i) {
            board(std::move(q.front()));
            q.pop_front();
        }
    } else {
        std::deque<Request> remaining;
        for (Request& req : q) {
            if (req.llmBatchId == round.lockedId)
                board(std::move(req));
            else
                remaining.push_back(std::move(req));
        }
        q = std::move(remaining);
    }
    if (lockstep)
        ++nextLlmBatchId_;
    dispatch.groups.push_back(std::move(group));
    dispatch.llmDecodeSteps = round.steps;
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
