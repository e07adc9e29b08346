/**
 * @file
 * Tests for the description-file front end (paper Figure 4 inputs):
 * workload and MCM config parsing, error reporting, round-trips
 * through the scheduler, and a seeded mutation fuzz of both grammars.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
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

/** Model and layer validation errors name the offending line. */
TEST(IoLineNumbers, ValidationErrorsNameTheirLine)
{
    struct Case
    {
        const char* text;
        const char* line;
        const char* what;
    };
    const Case cases[] = {
        {"scenario s\nmodel gptL batch=0\n", "line 2: ", "batch 0"},
        {"scenario s\nmodel custom\n\ngemm name=f m=0 n=1 k=1\n",
         "line 4: ", "layer f: spatial dims must be positive"},
        {"scenario s\nmodel custom\n"
         "conv name=c k=8 c=3 y=8 x=8 stride=0\n",
         "line 3: ", "layer c: strides must be positive"},
        // An empty custom model is only known at the end of the file;
        // the error names the model's own line.
        {"scenario s\nmodel eyeCod\nmodel custom name=A\n"
         "model handSP\n",
         "line 3: ", "model A has no layers"},
    };
    for (const Case& c : cases) {
        std::istringstream in(c.text);
        const std::string msg =
            fatalMessage([&] { io::parseScenario(in); });
        EXPECT_NE(msg.find(c.line), std::string::npos) << msg;
        EXPECT_NE(msg.find(c.what), std::string::npos) << msg;
    }
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

// ---- seeded mutation fuzz ------------------------------------------

using Tokens = std::vector<std::vector<std::string>>; ///< per line

Tokens
tokenize(const std::string& text)
{
    Tokens lines;
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        std::istringstream words(raw);
        lines.emplace_back();
        for (std::string w; words >> w;)
            lines.back().push_back(w);
    }
    return lines;
}

/**
 * One to three token edits — replace a token (or just the value of a
 * key=value token), delete one, or insert one — drawing new values
 * from the edge cases the parser must reject or accept cleanly.
 */
std::string
mutate(Tokens lines, Rng& rng)
{
    static const std::vector<std::string> kValues = {
        "0",   "-1", "2147483648", "9223372036854775807", "1e3",
        "",    "NVD", "Shi",       "RS",                  "/"};
    const int edits = rng.uniformInt(1, 3);
    for (int e = 0; e < edits; ++e) {
        std::vector<std::string>& line = lines[rng.index(lines.size())];
        const std::string& value = kValues[rng.index(kValues.size())];
        const int op = rng.uniformInt(0, 2);
        if (op == 2 || line.empty()) {
            line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                           rng.index(line.size() + 1)),
                        value);
            continue;
        }
        const std::size_t t = rng.index(line.size());
        const std::size_t eq = line[t].find('=');
        if (op == 1)
            line.erase(line.begin() + static_cast<std::ptrdiff_t>(t));
        else if (eq != std::string::npos && rng.chance(0.5))
            line[t] = line[t].substr(0, eq + 1) + value;
        else
            line[t] = value;
    }
    std::string text;
    for (const std::vector<std::string>& line : lines) {
        for (const std::string& token : line)
            text += token + " ";
        text += "\n";
    }
    return text;
}

/**
 * Every mutated config either parses or raises FatalError: no other
 * exception type (PanicError, std::out_of_range, ...) and no crash
 * (the ASan+UBSan job runs this too). Seeds are fixed, so a failure
 * reproduces exactly; its input is printed.
 */
TEST(IoFuzz, MutatedConfigsParseOrRaiseFatal)
{
    std::vector<Tokens> mcms;
    std::vector<Tokens> workloads = {tokenize(R"(scenario custom-demo
model custom name=MyNet batch=2
gemm name=fc1 m=128 n=1024 k=512
conv name=c1 k=64 c=3 r=7 s=7 y=224 x=224 stride=2
dwconv name=d1 k=64 y=112 x=112
pool name=p1 c=64 y=112 x=112 window=2 stride=2
eltwise name=e1 c=64 y=56 x=56
model eyeCod batch=4
)")};
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(SCAR_CONFIG_DIR))
        if (entry.path().extension() == ".cfg")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& file : files) {
        std::ifstream in(file);
        std::stringstream text;
        text << in.rdbuf();
        const bool isMcm = file.filename().string().rfind("mcm", 0) == 0;
        (isMcm ? mcms : workloads).push_back(tokenize(text.str()));
    }
    ASSERT_GE(mcms.size(), 5u);
    ASSERT_GE(workloads.size(), 2u);

    constexpr int kInputsPerGrammar = 500;
    int rejected = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        for (int i = 0; i < 2 * kInputsPerGrammar; ++i) {
            const bool mcm = i % 2 == 0;
            const std::vector<Tokens>& bases = mcm ? mcms : workloads;
            const std::string text =
                mutate(bases[rng.index(bases.size())], rng);
            std::istringstream in(text);
            try {
                if (mcm)
                    io::parseMcm(in);
                else
                    io::parseScenario(in);
            } catch (const FatalError&) {
                ++rejected;
            } catch (const std::exception& e) {
                ADD_FAILURE() << "seed " << seed << " input " << i
                              << " threw a non-fatal error: " << e.what()
                              << "\n"
                              << text;
            }
        }
    }
    // The edits are mostly destructive: most inputs must be rejected.
    EXPECT_GT(rejected, 3 * kInputsPerGrammar);
}

} // namespace
} // namespace scar
