/**
 * @file
 * Tests for autoregressive (LLM) serving: the prefill/decode workload
 * builders and their KV-cache footprint, the admission decode queue
 * (boarding, buckets, round planning, the decode-step mix memo),
 * the plan/commit handshake of every dispatch kind (and its refusal
 * of stale or reused plans), index replay of one-step schedules
 * against the old tiling,
 * continuous-batching joins and per-sequence retirement at the fleet
 * level, the byte-identical disabled path, determinism across worker
 * pools, and the speculative partial-dispatch admission flag.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <utility>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "eval/reporter.h"
#include "runtime/arrival.h"
#include "runtime/fleet.h"
#include "workload/model_zoo.h"
#include "workload/transformer_builder.h"

namespace scar
{
namespace runtime
{
namespace
{

/** A deliberately small decoder so schedule solves stay cheap. */
TransformerConfig
tinyDecoder()
{
    TransformerConfig cfg;
    cfg.name = "chat";
    cfg.numBlocks = 2;
    cfg.dModel = 128;
    cfg.dFf = 256;
    cfg.vocab = 0;
    return cfg;
}

/** One-model LLM catalog around tinyDecoder(). */
std::vector<ServedModel>
llmCatalog(int batchCap)
{
    std::vector<ServedModel> catalog(1);
    TransformerConfig cfg = tinyDecoder();
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = batchCap;
    catalog[0].rateRps = 100.0;
    catalog[0].llm.autoregressive = true;
    catalog[0].llm.decoder = cfg;
    catalog[0].llm.promptBucket = 64;
    catalog[0].llm.contextBucket = 256;
    catalog[0].llm.maxDecodeSteps = 32;
    return catalog;
}

/** A prefill-completed request ready for the decode queue. */
Request
decodeWaiter(std::int64_t id, int prompt, int output)
{
    Request req;
    req.id = id;
    req.modelIdx = 0;
    req.arrivalSec = 0.0;
    req.dispatchSec = 0.0;
    req.promptTokens = prompt;
    req.outputTokens = output;
    req.generatedTokens = 1;
    req.firstTokenSec = 0.001;
    return req;
}

TEST(TransformerBuilder, LengthBucketRoundsUp)
{
    EXPECT_EQ(llmLengthBucket(1, 64), 64);
    EXPECT_EQ(llmLengthBucket(64, 64), 64);
    EXPECT_EQ(llmLengthBucket(65, 64), 128);
    EXPECT_EQ(llmLengthBucket(256, 256), 256);
    EXPECT_EQ(llmLengthBucket(257, 256), 512);
}

TEST(TransformerBuilder, PrefillVariantEmbedsLengthInName)
{
    const TransformerConfig cfg = tinyDecoder();
    const Model prefill = buildPrefillModel(cfg, 128);
    EXPECT_EQ(prefill.name, "chat.prefill128");
    // Same architecture as the encoder build at seqLen = 128.
    TransformerConfig enc = cfg;
    enc.seqLen = 128;
    EXPECT_EQ(prefill.numLayers(), buildTransformer(enc).numLayers());
}

TEST(TransformerBuilder, DecodeStepKvFootprintGrowsWithContext)
{
    const TransformerConfig cfg = tinyDecoder();
    const Model s64 = buildDecodeStepModel(cfg, 64);
    const Model s256 = buildDecodeStepModel(cfg, 256);
    const Model s1024 = buildDecodeStepModel(cfg, 1024);
    EXPECT_EQ(s256.name, "chat.decode256");
    // The fused-MHA weight side carries the KV cache: the priced
    // footprint must grow strictly with the attended context.
    EXPECT_LT(s64.totalWeightBytes(), s256.totalWeightBytes());
    EXPECT_LT(s256.totalWeightBytes(), s1024.totalWeightBytes());
    // Exactly 2 * ctx * d extra weight elements per block per 1
    // context-token delta (coarse granularity, fp16 handled inside
    // totalWeightBytes uniformly, so compare element deltas via two
    // gaps of equal context ratio).
    const double gapA =
        s256.totalWeightBytes() - s64.totalWeightBytes();
    const double gapB =
        s1024.totalWeightBytes() - s256.totalWeightBytes();
    EXPECT_NEAR(gapB / gapA, 4.0, 1e-9)
        << "KV bytes must scale linearly in context length";
}

/**
 * The decode-round tiling that index replay replaced, kept as the
 * reference the executor must match: `times` copies of the one-step
 * windows back to back, the makespan summed sequentially, and every
 * model completing at the final tiled window.
 */
std::shared_ptr<const CachedSchedule>
tiledReference(const std::shared_ptr<const CachedSchedule>& step,
               int times)
{
    if (times == 1)
        return step;
    auto entry = std::make_shared<CachedSchedule>();
    entry->mix = step->mix;
    entry->result = step->result;
    const std::size_t perStep = step->windowSec.size();
    entry->windowSec.reserve(perStep * static_cast<std::size_t>(times));
    entry->makespanSec = 0.0;
    for (int t = 0; t < times; ++t) {
        for (const double sec : step->windowSec) {
            entry->windowSec.push_back(sec);
            entry->makespanSec += sec;
        }
    }
    entry->lastWindow.assign(step->lastWindow.size(),
                             static_cast<int>(perStep) * times - 1);
    return entry;
}

/** A two-rider round over `mix` advancing `steps` (0 = plain replay). */
Dispatch
decodeRound(const Scenario& mix, int steps)
{
    Dispatch dispatch;
    dispatch.mix = mix;
    dispatch.catalogIdx = {0};
    BatchGroup group;
    group.catalogIdx = 0;
    group.batch = mix.models[0].batch;
    group.requests = {decodeWaiter(0, 10, 40), decodeWaiter(1, 20, 40)};
    for (Request& req : group.requests)
        req.ridingDecodeSteps = steps;
    dispatch.groups = {group};
    dispatch.llmDecodeSteps = steps;
    return dispatch;
}

/**
 * Crosses boundaries on both executors until `reference` has
 * `stopAt` windows left, checking every probe and tick for exact
 * (==, not ulp-tolerant) equality.
 */
void
expectSameReplay(ReplayExecutor& indexed, ReplayExecutor& reference,
                 std::size_t stopAt)
{
    while (reference.busy() && reference.windowsRemaining() > stopAt) {
        ASSERT_TRUE(indexed.busy());
        EXPECT_EQ(indexed.windowsRemaining(),
                  reference.windowsRemaining());
        EXPECT_EQ(indexed.nextBoundarySec(), reference.nextBoundarySec());
        EXPECT_EQ(indexed.finalBoundarySec(),
                  reference.finalBoundarySec());
        EXPECT_EQ(indexed.nextStepBoundarySec(2),
                  reference.nextStepBoundarySec(2));
        const WindowTick a = indexed.advance();
        const WindowTick b = reference.advance();
        EXPECT_EQ(a.timeSec, b.timeSec);
        EXPECT_EQ(a.windowIdx, b.windowIdx);
        EXPECT_EQ(a.dispatchDone, b.dispatchDone);
        ASSERT_EQ(a.completed.size(), b.completed.size());
        for (std::size_t i = 0; i < a.completed.size(); ++i) {
            EXPECT_EQ(a.completed[i].id, b.completed[i].id);
            EXPECT_EQ(a.completed[i].completionSec,
                      b.completed[i].completionSec);
            EXPECT_EQ(a.completed[i].preempted,
                      b.completed[i].preempted);
        }
    }
    EXPECT_EQ(indexed.busy(), reference.busy());
}

TEST(Executor, DecodeIndexReplayMatchesTiledSchedule)
{
    Scenario mix;
    mix.name = "mix";
    mix.models = {buildDecodeStepModel(tinyDecoder(), 256)};
    // Two one-step windows of 777 and 101 cycles: over 7 steps their
    // sequential sum differs from 7 * the step makespan and from
    // summing each window's repeats first (asserted below), so a
    // replay that sums in any other order fails the makespan checks.
    const auto step = makeCachedSchedule(mix, [](const Scenario& m) {
        ScheduleResult result;
        for (const double cycles : {777.0, 101.0}) {
            ScheduledWindow sw;
            sw.cost.latencyCycles = cycles;
            ModelPlacement mp;
            mp.modelIdx = 0;
            mp.segments.push_back(
                {LayerRange{0, m.models[0].numLayers() - 1}, 0});
            sw.placement.models.push_back(mp);
            result.windows.push_back(sw);
        }
        return result;
    });
    ASSERT_EQ(step->windowSec.size(), 2u);

    for (const int steps : {1, 2, 7}) {
        SCOPED_TRACE(steps);
        const auto tiled = tiledReference(step, steps);
        ReplayExecutor indexed;
        ReplayExecutor reference;
        indexed.start(step, decodeRound(mix, steps), 0.25);
        reference.start(tiled, decodeRound(mix, 0), 0.25);
        EXPECT_EQ(indexed.makespanSec(), tiled->makespanSec);
        EXPECT_EQ(reference.makespanSec(), tiled->makespanSec);
        EXPECT_EQ(indexed.finalBoundarySec(),
                  reference.finalBoundarySec());
        expectSameReplay(indexed, reference, 0);
    }

    double perStepSum = 0.0;
    double perWindowSum = 0.0;
    for (int t = 0; t < 7; ++t)
        perStepSum += step->makespanSec;
    for (const double sec : step->windowSec)
        for (int t = 0; t < 7; ++t)
            perWindowSum += sec;
    EXPECT_NE(tiledReference(step, 7)->makespanSec, perStepSum);
    EXPECT_NE(tiledReference(step, 7)->makespanSec, perWindowSum);

    // Suspend mid-round (after 5 of 14 windows, inside step 3) and
    // resume elsewhere: the cursor, the remaining duration and every
    // later tick still match the tiled replay.
    const auto tiled = tiledReference(step, 7);
    ReplayExecutor indexed;
    ReplayExecutor reference;
    indexed.start(step, decodeRound(mix, 7), 0.25);
    reference.start(tiled, decodeRound(mix, 0), 0.25);
    expectSameReplay(indexed, reference, 14 - 5);
    SuspendedReplay a = indexed.suspend();
    SuspendedReplay b = reference.suspend();
    EXPECT_EQ(a.window, 5u);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.remainingSec, b.remainingSec);
    indexed.resume(std::move(a), 3.5);
    reference.resume(std::move(b), 3.5);
    EXPECT_EQ(indexed.makespanSec(), reference.makespanSec());
    expectSameReplay(indexed, reference, 0);
}

/** Exact equality of two models, layer field by layer field. */
void
expectSameModel(const Model& a, const Model& b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.batch, b.batch);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        const Layer& la = a.layers[i];
        const Layer& lb = b.layers[i];
        EXPECT_EQ(la.id, lb.id);
        EXPECT_EQ(la.name, lb.name);
        EXPECT_EQ(la.type, lb.type);
        EXPECT_EQ(la.dims.k, lb.dims.k);
        EXPECT_EQ(la.dims.c, lb.dims.c);
        EXPECT_EQ(la.dims.r, lb.dims.r);
        EXPECT_EQ(la.dims.s, lb.dims.s);
        EXPECT_EQ(la.dims.y, lb.dims.y);
        EXPECT_EQ(la.dims.x, lb.dims.x);
        EXPECT_EQ(la.dims.strideY, lb.dims.strideY);
        EXPECT_EQ(la.dims.strideX, lb.dims.strideX);
    }
}

TEST(Admission, DecodeStepMemoMatchesFreshBuild)
{
    const auto catalog = llmCatalog(/*batchCap=*/4);
    TransformerConfig cfg = catalog[0].llm.decoder;
    cfg.name = catalog[0].model.name;
    for (const bool quantize : {true, false}) {
        SCOPED_TRACE(quantize);
        AdmissionOptions options;
        options.quantizeBatches = quantize;
        AdmissionController admission(catalog, options);
        std::set<std::pair<std::int64_t, int>> memoKeys;
        std::int64_t id = 0;
        // Two passes, so the second revisits every memo entry.
        for (int pass = 0; pass < 2; ++pass) {
            // Prompts 10 / 300 / 600 put the max rider context in the
            // 256 / 512 / 768 buckets; 1-4 riders give batches 1, 2,
            // 3 (unquantized) or 4.
            for (const int prompt : {10, 300, 600}) {
                for (int riders = 1; riders <= 4; ++riders) {
                    for (int r = 0; r < riders; ++r)
                        admission.enqueueDecode(
                            decodeWaiter(id++, prompt, 64));
                    DispatchPlan plan = admission.planDecode(0);
                    EXPECT_EQ(plan.catalogIdx(), std::vector<int>{0});
                    const DecodePlan& round = plan.decode();
                    EXPECT_EQ(round.ctxBucket,
                              llmLengthBucket(prompt + 1, 256));
                    EXPECT_EQ(round.batch,
                              quantize && riders == 3 ? 4 : riders);
                    // One mix build per (bucket, batch) ever planned.
                    memoKeys.emplace(round.ctxBucket, round.batch);
                    EXPECT_EQ(admission.decodeMixBuilds(),
                              memoKeys.size());
                    Scenario fresh;
                    fresh.name = "mix";
                    fresh.models = {
                        buildDecodeStepModel(cfg, round.ctxBucket)};
                    fresh.models[0].batch = round.batch;
                    EXPECT_EQ(plan.mix().name, fresh.name);
                    ASSERT_EQ(plan.mix().numModels(), 1);
                    expectSameModel(plan.mix().models[0],
                                    fresh.models[0]);
                    EXPECT_EQ(plan.signature(), fresh.signature());
                    EXPECT_EQ(plan.mix().signature(), fresh.signature());
                    // A repeated plan is a memo hit: it builds nothing.
                    const DispatchPlan again = admission.planDecode(0);
                    EXPECT_EQ(admission.decodeMixBuilds(),
                              memoKeys.size());
                    EXPECT_EQ(again.signature(), plan.signature());
                    ASSERT_EQ(again.mix().numModels(), 1);
                    expectSameModel(again.mix().models[0],
                                    plan.mix().models[0]);

                    // The committed round is the planned one.
                    const int plannedBatch = round.batch;
                    const Dispatch dispatch =
                        admission.commit(std::move(plan));
                    EXPECT_EQ(dispatch.catalogIdx.front(), 0);
                    EXPECT_EQ(dispatch.groups.front().batch,
                              plannedBatch);
                    ASSERT_EQ(dispatch.mix.numModels(), 1);
                    expectSameModel(dispatch.mix.models[0],
                                    fresh.models[0]);
                    EXPECT_EQ(dispatch.signature, fresh.signature());
                    EXPECT_EQ(dispatch.mix.signature(),
                              fresh.signature());
                    EXPECT_EQ(admission.decodeQueuedCount(0), 0);
                }
            }
        }
    }
}

TEST(Admission, DecodeQueueBoardsAndPlansRounds)
{
    const auto catalog = llmCatalog(/*batchCap=*/4);
    AdmissionController admission(catalog);

    admission.enqueueDecode(decodeWaiter(0, 10, 5));
    admission.enqueueDecode(decodeWaiter(1, 20, 9));
    admission.enqueueDecode(decodeWaiter(2, 30, 60));
    EXPECT_EQ(admission.decodeQueuedCount(), 3);
    EXPECT_EQ(admission.decodeQueuedCount(0), 3);

    // Context bucket: max context = 30 + 1 -> 256; partial batch of 3
    // quantizes up to 4.
    DispatchPlan plan = admission.planDecode(0);
    const Scenario mix = plan.mix();
    ASSERT_EQ(mix.numModels(), 1);
    EXPECT_EQ(mix.models[0].name, "chat.decode256");
    EXPECT_EQ(mix.models[0].batch, 4);

    Dispatch dispatch = admission.commit(std::move(plan));
    EXPECT_EQ(dispatch.mix.signature(), mix.signature());
    // Steps: min over riders' remaining tokens (5-1 = 4), under the
    // 32-step cap and far from the 256 bucket edge.
    EXPECT_EQ(dispatch.llmDecodeSteps, 4);
    ASSERT_EQ(dispatch.groups.size(), 1u);
    ASSERT_EQ(dispatch.groups[0].requests.size(), 3u);
    for (const Request& req : dispatch.groups[0].requests)
        EXPECT_EQ(req.ridingDecodeSteps, 4);
    EXPECT_EQ(admission.decodeQueuedCount(), 0);
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/** A queued (pre-prefill) request for enqueue(). */
Request
queuedRequest(std::int64_t id, int model, double arrival,
              double deadline = kNoDeadline, int prompt = 0)
{
    Request req;
    req.id = id;
    req.modelIdx = model;
    req.arrivalSec = arrival;
    req.deadlineSec = deadline;
    req.promptTokens = prompt;
    req.outputTokens = prompt > 0 ? 8 : 0;
    return req;
}

/** One plan/commit handshake: the queues, the plan, and what the
 *  committed dispatch must carry. */
struct CommitCase
{
    std::string name;
    std::vector<ServedModel> catalog;
    AdmissionOptions options;
    std::vector<Request> queued;       ///< enqueue()d
    std::vector<Request> decodeQueued; ///< enqueueDecode()d (model 0)
    DispatchKind kind = DispatchKind::Regular;
    double nowSec = 0.0;
    double slackSec = 0.0;
    std::vector<std::string> models;    ///< planned mix, in order
    std::vector<std::int64_t> boarders; ///< committed ids, group order
};

std::vector<CommitCase>
commitCases()
{
    std::vector<CommitCase> cases;
    std::vector<ServedModel> vision(2);
    vision[0].model = zoo::eyeCod(4);
    vision[1].model = zoo::handSP(2);
    const std::string eye = vision[0].model.name;
    const std::string hand = vision[1].model.name;
    auto start = [](std::string name, std::vector<ServedModel> catalog) {
        CommitCase c;
        c.name = std::move(name);
        c.catalog = std::move(catalog);
        return c;
    };
    {
        // FIFO: a full eyeCod batch boards its four oldest; the
        // partial handSP queue joins the mix.
        CommitCase c = start("fifo", vision);
        for (int i = 0; i < 5; ++i)
            c.queued.push_back(queuedRequest(i, 0, 0.001 * i));
        c.queued.push_back(queuedRequest(5, 1, 0.002));
        c.nowSec = 0.005;
        c.models = {eye, hand};
        c.boarders = {0, 1, 2, 3, 5};
        cases.push_back(c);
    }
    {
        // EDF overflow: the oldest boards, then the aged request
        // beats the fresh tight deadlines
        // (EdfBoardsOldestThenAgedBeforeFreshTightDeadlines' queue).
        CommitCase c = start("edf-overflow", {vision[1]});
        c.options.order = QueueOrder::EarliestDeadline;
        c.queued = {queuedRequest(0, 0, 0.000, 100.0),
                    queuedRequest(1, 0, 0.005, 90.0),
                    queuedRequest(2, 0, 0.055, 0.10),
                    queuedRequest(3, 0, 0.056, 0.11)};
        c.nowSec = 0.057;
        c.models = {hand};
        c.boarders = {0, 1};
        cases.push_back(c);
    }
    {
        // Urgent-only: the loose eyeCod request stays queued.
        CommitCase c = start("urgent-only", vision);
        c.queued = {queuedRequest(0, 0, 0.0, 10.0),
                    queuedRequest(1, 1, 0.0, 0.05)};
        c.kind = DispatchKind::Urgent;
        c.nowSec = 0.031;
        c.slackSec = 0.02;
        c.models = {hand};
        c.boarders = {1};
        cases.push_back(c);
    }
    {
        // LLM prefill: three aged prompts, the longest (100 tokens)
        // sets the 128 bucket; 3 riders pad to a batch of 4.
        CommitCase c = start("llm-prefill", llmCatalog(4));
        c.queued = {queuedRequest(0, 0, 0.0, kNoDeadline, 10),
                    queuedRequest(1, 0, 0.0, kNoDeadline, 100),
                    queuedRequest(2, 0, 0.0, kNoDeadline, 30)};
        c.nowSec = 0.06;
        c.models = {"chat.prefill128"};
        c.boarders = {0, 1, 2};
        cases.push_back(c);
    }
    {
        // Continuous decode: the FIFO prefix up to the batch cap.
        CommitCase c = start("continuous-decode", llmCatalog(2));
        c.decodeQueued = {decodeWaiter(0, 10, 5), decodeWaiter(1, 300, 9),
                          decodeWaiter(2, 20, 60)};
        c.kind = DispatchKind::Decode;
        c.models = {"chat.decode512"};
        c.boarders = {0, 1};
        cases.push_back(c);
    }
    {
        // Static decode: the waiting locked batch outranks the fresh
        // waiter ahead of it.
        CommitCase c = start("static-locked-decode", llmCatalog(4));
        c.options.llmBatching = LlmBatchingMode::Static;
        c.decodeQueued = {decodeWaiter(0, 10, 5), decodeWaiter(1, 20, 9),
                          decodeWaiter(2, 30, 60)};
        c.decodeQueued[1].llmBatchId = 7;
        c.decodeQueued[2].llmBatchId = 7;
        c.kind = DispatchKind::Decode;
        c.models = {"chat.decode256"};
        c.boarders = {1, 2};
        cases.push_back(c);
    }
    return cases;
}

TEST(Admission, CommitTakesThePlannedDispatch)
{
    for (const CommitCase& c : commitCases()) {
        SCOPED_TRACE(c.name);
        AdmissionController admission(c.catalog, c.options);
        for (const Request& req : c.queued)
            admission.enqueue(req);
        for (const Request& req : c.decodeQueued)
            admission.enqueueDecode(req);
        const int waiting =
            admission.queuedCount() + admission.decodeQueuedCount();
        DispatchPlan plan =
            c.kind == DispatchKind::Decode
                ? admission.planDecode(0)
                : admission.plan(c.kind == DispatchKind::Urgent,
                                 c.nowSec, c.slackSec);
        EXPECT_EQ(plan.kind(), c.kind);
        std::vector<std::string> names;
        for (const Model& model : plan.mix().models)
            names.push_back(model.name);
        EXPECT_EQ(names, c.models);
        const std::string planned = plan.signature();
        EXPECT_EQ(planned, plan.mix().signature());
        EXPECT_EQ(admission.queuedCount() + admission.decodeQueuedCount(),
                  waiting)
            << "planning consumes nothing";

        const Dispatch dispatch = admission.commit(std::move(plan));
        EXPECT_EQ(dispatch.signature, planned);
        EXPECT_EQ(dispatch.mix.signature(), planned);
        ASSERT_EQ(dispatch.groups.size(), dispatch.mix.models.size());
        std::vector<std::int64_t> boarders;
        for (std::size_t g = 0; g < dispatch.groups.size(); ++g) {
            EXPECT_EQ(dispatch.groups[g].catalogIdx,
                      dispatch.catalogIdx[g]);
            EXPECT_EQ(dispatch.groups[g].batch,
                      dispatch.mix.models[g].batch);
            for (const Request& req : dispatch.groups[g].requests)
                boarders.push_back(req.id);
        }
        EXPECT_EQ(boarders, c.boarders);
        EXPECT_EQ(admission.queuedCount() + admission.decodeQueuedCount(),
                  waiting - static_cast<int>(boarders.size()));
        EXPECT_EQ(dispatch.llmDecodeSteps > 0,
                  c.kind == DispatchKind::Decode);
    }

    // A plan is valid only on its controller, at the epoch it was
    // made at, and only once.
    const auto catalog = llmCatalog(4);
    AdmissionController admission(catalog);
    admission.enqueue(queuedRequest(0, 0, 0.0, kNoDeadline, 10));
    DispatchPlan stale = admission.plan(false, 1.0, 0.0);
    admission.enqueue(queuedRequest(1, 0, 0.0, kNoDeadline, 10));
    EXPECT_THROW(admission.commit(std::move(stale)), FatalError)
        << "an enqueue after planning";
    EXPECT_EQ(admission.queuedCount(), 2) << "a refused commit drains "
                                             "nothing";

    DispatchPlan plan = admission.plan(false, 1.0, 0.0);
    const DispatchPlan copy = plan;
    EXPECT_EQ(admission.commit(std::move(plan)).groups[0].requests.size(),
              2u);
    EXPECT_THROW(admission.commit(std::move(plan)), FatalError)
        << "the same plan twice";
    EXPECT_THROW(admission.commit(DispatchPlan(copy)), FatalError)
        << "a copy of a committed plan";
    EXPECT_THROW(admission.commit(DispatchPlan{}), FatalError);

    admission.enqueueDecode(decodeWaiter(2, 10, 5));
    DispatchPlan round = admission.planDecode(0);
    admission.enqueueDecode(decodeWaiter(3, 10, 5));
    EXPECT_THROW(admission.commit(std::move(round)), FatalError)
        << "an enqueueDecode after planning";

    // A twin controller at the same epoch, with the same queues,
    // still refuses the other's plan.
    AdmissionController left(catalog);
    AdmissionController right(catalog);
    left.enqueue(queuedRequest(4, 0, 0.0, kNoDeadline, 10));
    right.enqueue(queuedRequest(4, 0, 0.0, kNoDeadline, 10));
    ASSERT_EQ(left.epoch(), right.epoch());
    EXPECT_THROW(right.commit(left.plan(false, 1.0, 0.0)), FatalError)
        << "another controller's plan";
    EXPECT_EQ(right.queuedCount(), 1);

    // Each kind's precondition is checked when planning.
    AdmissionController idle(catalog);
    EXPECT_THROW(idle.plan(false, 0.0, 0.0), FatalError);
    EXPECT_THROW(idle.plan(true, 0.0, 0.01), FatalError);
    EXPECT_THROW(idle.planDecode(0), FatalError);
}

TEST(Admission, DecodeEnqueueRequiresPrefill)
{
    const auto catalog = llmCatalog(4);
    AdmissionController admission(catalog);
    Request raw = decodeWaiter(0, 10, 5);
    raw.firstTokenSec = -1.0; // prefill not done
    EXPECT_THROW(admission.enqueueDecode(raw), FatalError);
}

/**
 * Continuous batching joins a late sequence into the running decode
 * stream: request B finishes its prefill on the second shard while
 * request A's multi-step decode round replays on the first; at A's
 * next step-aligned boundary the round is cut and the merged batch
 * re-forms. The join counter proves the cut happened, and everyone
 * still completes.
 */
TEST(LlmServing, ContinuousJoinsAtStepBoundary)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    std::vector<std::pair<double, int>> arrivals = {{0.0, 0},
                                                    {0.001, 0}};
    auto trace = traceFromArrivals(catalog, arrivals);
    trace[0].promptTokens = 16;
    trace[0].outputTokens = 200; // long generation: many rounds
    trace[1].promptTokens = 16;
    trace[1].outputTokens = 8;

    FleetOptions options;
    options.shards = 2;
    options.serving.admission.llmBatching =
        LlmBatchingMode::Continuous;
    options.serving.admission.maxQueueDelaySec = 0.0002;
    FleetSimulator fleet(
        catalog, templates::hetSides3x3(templates::kArvrPes),
        options);
    const ServingReport report = fleet.run(trace);

    EXPECT_TRUE(report.llmEnabled);
    EXPECT_EQ(report.completed, 2);
    EXPECT_EQ(report.llmRequests, 2);
    EXPECT_GE(report.llmJoins, 1)
        << "B must join A's in-flight decode stream";
    EXPECT_GT(report.llmDecodeRounds, 1);
    EXPECT_GT(report.llmMeanDecodeBatch, 1.0)
        << "post-join rounds carry both riders";
    EXPECT_GT(report.meanTtftSec, 0.0);
    EXPECT_GT(report.genTokensPerSec, 0.0);
    // Every generated token is accounted for.
    for (const Request& req : fleet.records())
        EXPECT_EQ(req.generatedTokens, req.outputTokens);
}

/**
 * A decode round suspended by boundary preemption resumes on its own
 * step grid. Chat A decodes in multi-step rounds on the only shard,
 * and each step of this decoder's one-step schedule spans several
 * windows. Chat B and an XR frame arrive mid-round, both urgent, so
 * the round is suspended and the urgent prefill and vision batch runs
 * in between. B then waits for decode, so the resumed round is cut
 * for the join, and that cut must land on a step boundary and credit
 * whole steps. Crediting one step per window hands A tokens it never
 * replayed: A then over-generates, or finishes before it could have
 * alone.
 */
TEST(LlmServing, ResumedDecodeRoundJoinsOnItsStepGrid)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    TransformerConfig cfg = tinyDecoder();
    cfg.numBlocks = 4;
    cfg.dFf = 512;
    catalog[0].model = buildTransformer(cfg);
    catalog[0].model.batch = 4;
    catalog[0].llm.decoder = cfg;
    catalog[0].sloSec = 0.001; // every chat prefill is urgent
    catalog.push_back(ServedModel{});
    catalog[1].model = zoo::eyeCod(1);
    catalog[1].sloSec = 0.001;

    FleetOptions options;
    options.shards = 1;
    options.serving.admission.llmBatching = LlmBatchingMode::Continuous;
    options.serving.admission.maxQueueDelaySec = 0.0002;
    options.serving.preemption.enabled = true;
    options.serving.preemption.slackThresholdSec = 0.03;
    auto serve = [&](std::vector<std::pair<double, int>> arrivals,
                     ServingReport& report) {
        auto trace = traceFromArrivals(catalog, std::move(arrivals));
        trace[0].promptTokens = 16;
        trace[0].outputTokens = 200;
        if (trace.size() > 1) {
            trace[1].promptTokens = 16;
            trace[1].outputTokens = 8;
        }
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        report = fleet.run(trace);
        return fleet.records();
    };

    ServingReport alone;
    const auto aloneRecords = serve({{0.0, 0}}, alone);
    ASSERT_EQ(aloneRecords.size(), 1u);
    const double aloneDoneSec = aloneRecords[0].completionSec;

    ServingReport report;
    const auto records =
        serve({{0.0, 0}, {0.003, 0}, {0.003, 1}}, report);
    EXPECT_EQ(report.completed, 3);
    EXPECT_EQ(report.preemptions, 1) << "the urgent batch must cut in";
    EXPECT_GE(report.llmJoins, 1) << "B must join A's resumed round";
    for (const Request& req : records) {
        EXPECT_EQ(req.generatedTokens, req.outputTokens)
            << "request " << req.id;
        if (req.id == 0) {
            EXPECT_GE(req.completionSec, aloneDoneSec)
                << "sharing the shard cannot speed A's decode up";
        }
    }
}

/**
 * Retirement policy: under Static batch-and-replay the short sequence
 * is locked into the long one's batch and retires with it; under
 * continuous batching it leaves at its own final decode round. The
 * short request's completion time is the whole point of the feature.
 */
TEST(LlmServing, ShortSequenceLeavesEarlyOnlyWhenContinuous)
{
    auto catalog = llmCatalog(/*batchCap=*/2);
    std::vector<std::pair<double, int>> arrivals = {{0.0, 0},
                                                    {0.0001, 0}};
    auto makeTrace = [&]() {
        auto trace = traceFromArrivals(catalog, arrivals);
        trace[0].promptTokens = 16;
        trace[0].outputTokens = 4; // short
        trace[1].promptTokens = 16;
        trace[1].outputTokens = 96; // long tail
        return trace;
    };

    auto runWith = [&](LlmBatchingMode mode) {
        FleetOptions options;
        options.shards = 1;
        options.serving.admission.llmBatching = mode;
        options.serving.admission.maxQueueDelaySec = 0.0002;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        fleet.run(makeTrace());
        double shortDone = -1.0;
        double longDone = -1.0;
        for (const Request& req : fleet.records()) {
            if (req.id == 0)
                shortDone = req.completionSec;
            if (req.id == 1)
                longDone = req.completionSec;
        }
        return std::make_pair(shortDone, longDone);
    };

    const auto [staticShort, staticLong] =
        runWith(LlmBatchingMode::Static);
    EXPECT_DOUBLE_EQ(staticShort, staticLong)
        << "lockstep padding retires with the batch";

    const auto [contShort, contLong] =
        runWith(LlmBatchingMode::Continuous);
    EXPECT_LT(contShort, contLong)
        << "continuous batching frees the short sequence at its own "
           "final round";
    EXPECT_LT(contShort, staticShort);
}

/**
 * The LLM machinery must be invisible to a catalog without
 * autoregressive entries: with every LLM knob armed the rendered
 * report stays byte-identical to the default configuration, and no
 * LLM rows appear.
 */
TEST(LlmServing, DisabledRendersByteIdenticalReports)
{
    std::vector<ServedModel> catalog(2);
    catalog[0].model = zoo::eyeCod(4);
    catalog[0].rateRps = 200.0;
    catalog[0].sloSec = 0.05;
    catalog[1].model = zoo::handSP(2);
    catalog[1].rateRps = 100.0;
    catalog[1].sloSec = 0.02;
    const auto trace = poissonTrace(catalog, 300, 21);

    auto renderWith = [&](AdmissionOptions admission) {
        FleetOptions options;
        options.shards = 2;
        options.routing = RoutingPolicy::BestFit;
        options.serving.modeledSolveSec = 0.01;
        options.serving.switchOverheadSec = 0.002;
        admission.maxQueueDelaySec = 0.005;
        options.serving.admission = admission;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        const ServingReport report = fleet.run(trace);
        EXPECT_FALSE(report.llmEnabled);
        EXPECT_EQ(report.llmDecodeRounds, 0);
        return describeServingReport(report);
    };

    AdmissionOptions armed;
    armed.llmBatching = LlmBatchingMode::Static; // non-default knob
    const std::string baseline = renderWith(AdmissionOptions{});
    EXPECT_EQ(baseline, renderWith(armed));
    EXPECT_EQ(baseline.find("LLM requests"), std::string::npos);
    EXPECT_EQ(baseline.find("Decode rounds"), std::string::npos);
}

/** Virtual-time LLM serving must not depend on wall-clock solve
 *  concurrency. */
TEST(LlmServing, DeterministicAcrossThreadCounts)
{
    auto catalog = llmCatalog(/*batchCap=*/4);
    catalog[0].rateRps = 400.0;
    catalog[0].llm.meanOutputTokens = 24.0;
    catalog[0].llm.maxOutputTokens = 96;
    catalog[0].llm.maxPromptTokens = 128;
    const auto trace = llmPoissonTrace(catalog, 60, 7);

    auto renderWith = [&](int solveThreads) {
        ThreadPool pool(solveThreads);
        FleetOptions options;
        options.shards = 2;
        options.serving.pool = &pool;
        options.serving.modeledSolveSec = 0.002;
        options.serving.admission.maxQueueDelaySec = 0.001;
        options.serving.admission.llmBatching =
            LlmBatchingMode::Continuous;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        return describeServingReport(fleet.run(trace));
    };

    const std::string serial = renderWith(1);
    EXPECT_EQ(serial, renderWith(8));
    EXPECT_NE(serial.find("Continuous-batching joins"),
              std::string::npos);
}

/**
 * AdmissionOptions::speculativePartialDispatch: a lone request on an
 * idle fleet dispatches immediately instead of aging out the batching
 * timer. Off (the default) preserves the timer-paced baseline.
 */
TEST(Admission, SpeculativePartialDispatchSkipsBatchTimer)
{
    std::vector<ServedModel> catalog(1);
    catalog[0].model = zoo::eyeCod(4); // batch cap 4, one request
    catalog[0].sloSec = 10.0;
    const auto trace =
        traceFromArrivals(catalog, {{0.0, 0}});

    auto runWith = [&](bool speculative) {
        FleetOptions options;
        options.shards = 1;
        options.serving.admission.maxQueueDelaySec = 0.5;
        options.serving.admission.speculativePartialDispatch =
            speculative;
        FleetSimulator fleet(
            catalog, templates::hetSides3x3(templates::kArvrPes),
            options);
        fleet.run(trace);
        return fleet.records().front().dispatchSec;
    };

    EXPECT_GE(runWith(false), 0.5)
        << "default path waits out the batching timer";
    EXPECT_DOUBLE_EQ(runWith(true), 0.0)
        << "speculative path dispatches on the idle shard at once";
}

} // namespace
} // namespace runtime
} // namespace scar
