/**
 * @file
 * Tests for the description-file front end (paper Figure 4 inputs):
 * workload and MCM config parsing, error reporting, and round-trips
 * through the scheduler.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "io/config.h"
#include "sched/scar.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace
{

TEST(IoScenario, ParsesZooModelsWithBatches)
{
    std::istringstream in(R"(# comment
scenario demo
model gptL batch=8
model resNet50 batch=32
)");
    const Scenario sc = io::parseScenario(in);
    EXPECT_EQ(sc.name, "demo");
    ASSERT_EQ(sc.models.size(), 2u);
    EXPECT_EQ(sc.models[0].name, "GPT-L");
    EXPECT_EQ(sc.models[0].batch, 8);
    EXPECT_EQ(sc.models[1].batch, 32);
    EXPECT_EQ(sc.models[0].numLayers(), zoo::gptL(8).numLayers());
}

TEST(IoScenario, DefaultBatchIsOne)
{
    std::istringstream in("scenario s\nmodel eyeCod\n");
    EXPECT_EQ(io::parseScenario(in).models[0].batch, 1);
}

TEST(IoScenario, ParsesCustomModelLayers)
{
    std::istringstream in(R"(scenario custom-demo
model custom name=MyNet batch=2
gemm name=fc1 m=128 n=1024 k=512
conv name=c1 k=64 c=3 r=7 s=7 y=224 x=224 stride=2
pool name=p1 c=64 y=112 x=112 window=2
eltwise name=e1 c=64 y=56 x=56
)");
    const Scenario sc = io::parseScenario(in);
    ASSERT_EQ(sc.models.size(), 1u);
    const Model& m = sc.models[0];
    EXPECT_EQ(m.name, "MyNet");
    ASSERT_EQ(m.numLayers(), 4);
    EXPECT_EQ(m.layers[0].type, OpType::Gemm);
    EXPECT_DOUBLE_EQ(m.layers[0].macs(), 128.0 * 1024 * 512);
    EXPECT_EQ(m.layers[1].type, OpType::Conv2D);
    EXPECT_EQ(m.layers[1].outY(), 112);
    EXPECT_EQ(m.layers[2].type, OpType::Pool);
    EXPECT_EQ(m.layers[3].type, OpType::Elementwise);
}

TEST(IoScenario, RejectsUnknownModel)
{
    std::istringstream in("scenario s\nmodel doesNotExist\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsLayerOutsideCustomModel)
{
    std::istringstream in("scenario s\ngemm m=1 n=1 k=1\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsEmptyFile)
{
    std::istringstream in("# nothing here\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

TEST(IoScenario, RejectsNonNumericAttribute)
{
    std::istringstream in(
        "scenario s\nmodel custom\ngemm m=abc n=1 k=1\n");
    EXPECT_THROW(io::parseScenario(in), FatalError);
}

/** Runs `parse` and returns the FatalError message ("" if none). */
template <typename Parse>
std::string
fatalMessage(Parse parse)
{
    try {
        parse();
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(IoStrictIntegers, RejectsTrailingJunkInAttribute)
{
    // std::stoll parsed the "8" prefix and accepted batch=8x as 8.
    std::istringstream in("scenario s\nmodel eyeCod batch=8x\n");
    const std::string msg = fatalMessage([&] { io::parseScenario(in); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'batch'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("not an integer"), std::string::npos) << msg;
}

TEST(IoStrictIntegers, RejectsBatchOutsideIntRange)
{
    // int64 parsed, then silently narrowed to int.
    std::istringstream in(
        "scenario s\n\nmodel eyeCod batch=99999999999\n");
    const std::string msg = fatalMessage([&] { io::parseScenario(in); });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(IoStrictIntegers, RejectsOverflowingLayerDimension)
{
    std::istringstream in("scenario s\nmodel custom\n"
                          "gemm m=99999999999999999999 n=1 k=1\n");
    const std::string msg = fatalMessage([&] { io::parseScenario(in); });
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(IoStrictIntegers, NonNumericMeshIsFatalNotAnAbort)
{
    // std::stoi threw an uncaught std::invalid_argument (exit 134).
    std::istringstream in("mcm m\nmesh a b\nmap NVD\n");
    const std::string msg = fatalMessage([&] { io::parseMcm(in); });
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mesh width"), std::string::npos) << msg;
}

TEST(IoStrictIntegers, RejectsJunkInMcmCounts)
{
    for (const char* text :
         {"mcm m\ntemplate hetSides3x3\npes 256k\n",
          "mcm m\nmesh 3 3x\n",
          "mcm m\ntopology express\nexpress 0 +\n",
          "mcm m\ntopology broadcast\nbroadcast 0 4.5\n"}) {
        std::istringstream in(text);
        EXPECT_THROW(io::parseMcm(in), FatalError) << text;
    }
}

TEST(IoStrictIntegers, AcceptsWholeIntegerTokens)
{
    std::istringstream in("scenario s\nmodel custom batch=3\n"
                          "conv k=64 c=3 r=7 s=7 y=224 x=224 stride=2\n"
                          "gemm m=128 n=1024 k=512\n");
    const Scenario sc = io::parseScenario(in);
    ASSERT_EQ(sc.models.size(), 1u);
    EXPECT_EQ(sc.models[0].batch, 3);
    EXPECT_EQ(sc.models[0].layers[0].dims.strideY, 2);
    EXPECT_EQ(sc.models[0].layers[1].dims.k, 1024);
}

TEST(IoMcm, ParsesTemplateReference)
{
    std::istringstream in("mcm pkg\ntemplate hetSides3x3\npes 256\n");
    const Mcm mcm = io::parseMcm(in);
    EXPECT_EQ(mcm.numChiplets(), 9);
    EXPECT_EQ(mcm.chiplet(0).spec.numPes, 256);
    EXPECT_EQ(mcm.numWithDataflow(Dataflow::NvdlaWS), 6);
}

TEST(IoMcm, ParsesCustomMeshWithDataflowMap)
{
    std::istringstream in(R"(mcm custom
mesh 3 2
pes 1024
map NVD RS Shi / Shi RS NVD
)");
    const Mcm mcm = io::parseMcm(in);
    EXPECT_EQ(mcm.name(), "custom");
    EXPECT_EQ(mcm.numChiplets(), 6);
    EXPECT_EQ(mcm.chiplet(0).spec.dataflow, Dataflow::NvdlaWS);
    EXPECT_EQ(mcm.chiplet(1).spec.dataflow, Dataflow::EyerissRS);
    EXPECT_EQ(mcm.chiplet(2).spec.dataflow, Dataflow::ShiOS);
    EXPECT_EQ(mcm.chiplet(3).spec.dataflow, Dataflow::ShiOS);
    EXPECT_TRUE(mcm.chiplet(0).memInterface);
    EXPECT_FALSE(mcm.chiplet(1).memInterface);
}

TEST(IoMcm, RejectsMapShapeMismatch)
{
    std::istringstream in("mcm m\nmesh 3 3\nmap NVD Shi / NVD Shi\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsUnknownTemplate)
{
    std::istringstream in("mcm m\ntemplate nope\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsUnknownDataflow)
{
    std::istringstream in("mcm m\nmesh 1 1\nmap XYZ\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoMcm, RejectsMissingGeometry)
{
    std::istringstream in("mcm m\npes 64\n");
    EXPECT_THROW(io::parseMcm(in), FatalError);
}

TEST(IoRoundTrip, ParsedConfigsScheduleEndToEnd)
{
    std::istringstream workload(
        "scenario io-demo\nmodel eyeCod batch=8\nmodel handSP "
        "batch=2\n");
    std::istringstream mcmIn(
        "mcm pkg\ntemplate hetTriple3x3\npes 256\n");
    const Scenario sc = io::parseScenario(workload);
    const Mcm mcm = io::parseMcm(mcmIn);
    ScarOptions opts;
    opts.nsplits = 2;
    Scar scar(sc, mcm, opts);
    const ScheduleResult result = scar.run();
    EXPECT_GT(result.metrics.latencySec, 0.0);
    EXPECT_EQ(result.windows.front().assignment.perModel.size(), 2u);
}

TEST(IoFiles, LoadsShippedConfigFiles)
{
    const std::string dir = SCAR_CONFIG_DIR;
    const Scenario sc =
        io::loadScenario(dir + "/workload_datacenter.cfg");
    EXPECT_EQ(sc.models.size(), 4u);
    const Mcm mcm = io::loadMcm(dir + "/mcm_het_sides.cfg");
    EXPECT_EQ(mcm.numChiplets(), 9);
    const Mcm custom = io::loadMcm(dir + "/mcm_custom_mesh.cfg");
    EXPECT_EQ(custom.numWithDataflow(Dataflow::EyerissRS), 3);
}

TEST(IoFiles, MissingFileRaisesFatal)
{
    EXPECT_THROW(io::loadScenario("/nonexistent/file.cfg"), FatalError);
    EXPECT_THROW(io::loadMcm("/nonexistent/file.cfg"), FatalError);
}

} // namespace
} // namespace scar
