#include "io/config.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <vector>

#include "arch/mcm_templates.h"
#include "common/error.h"
#include "workload/model_zoo.h"

namespace scar
{
namespace io
{

namespace
{

/**
 * Parses a whole token as an integer of type T. A token with anything
 * but an optional '-' and digits, or whose value does not fit T, is a
 * fatal error naming the line and what the token was for.
 */
template <typename T>
T
parseInteger(const std::string& token, int line, const std::string& what)
{
    std::int64_t value = 0;
    const char* const first = token.data();
    const char* const last = first + token.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::invalid_argument || end != last) {
        fatal("line ", line, ": ", what, " is not an integer: '", token,
              "'");
    }
    if (ec == std::errc::result_out_of_range ||
        value < std::numeric_limits<T>::min() ||
        value > std::numeric_limits<T>::max()) {
        fatal("line ", line, ": ", what, " is out of range [",
              std::numeric_limits<T>::min(), ", ",
              std::numeric_limits<T>::max(), "]: ", token);
    }
    return static_cast<T>(value);
}

/**
 * Runs `build` (a model or layer construction step whose validation
 * knows nothing of the file) and prefixes any FatalError it raises
 * with the config line it came from.
 */
template <typename Build>
auto
atLine(int line, Build&& build)
{
    try {
        return build();
    } catch (const FatalError& e) {
        std::string msg = e.what();
        const std::string prefix = "fatal: ";
        if (msg.compare(0, prefix.size(), prefix) == 0)
            msg.erase(0, prefix.size());
        fatal("line ", line, ": ", msg);
    }
}

/** A parsed line: the keyword plus positional and key=value tokens. */
struct ConfigLine
{
    int number = 0;
    std::string keyword;
    std::vector<std::string> positional;
    std::map<std::string, std::string> kv;

    bool has(const std::string& key) const { return kv.count(key) > 0; }

    std::string
    str(const std::string& key) const
    {
        auto it = kv.find(key);
        SCAR_REQUIRE(it != kv.end(), "line ", number,
                     ": missing attribute '", key, "'");
        return it->second;
    }

    template <typename T = std::int64_t>
    T
    num(const std::string& key) const
    {
        return parseInteger<T>(str(key), number,
                               "attribute '" + key + "'");
    }

    // The fallback's type is not deduced (common_type_t), so T stays
    // int64 unless named: numOr("stride", 1) parses an int64.
    template <typename T = std::int64_t>
    T
    numOr(const std::string& key, std::common_type_t<T> fallback) const
    {
        return has(key) ? num<T>(key) : fallback;
    }

    /** The i-th positional token as an integer of type T. */
    template <typename T>
    T
    positionalNum(std::size_t i, const std::string& what) const
    {
        return parseInteger<T>(positional[i], number, what);
    }
};

/** Tokenizes one line; returns false for blanks and comments. */
bool
parseLine(const std::string& raw, int number, ConfigLine& out)
{
    const std::size_t hash = raw.find('#');
    const std::string text =
        hash == std::string::npos ? raw : raw.substr(0, hash);
    std::istringstream iss(text);
    std::string token;
    out = ConfigLine{};
    out.number = number;
    while (iss >> token) {
        if (out.keyword.empty()) {
            out.keyword = token;
        } else if (token.find('=') != std::string::npos) {
            const std::size_t eq = token.find('=');
            out.kv[token.substr(0, eq)] = token.substr(eq + 1);
        } else {
            out.positional.push_back(token);
        }
    }
    return !out.keyword.empty();
}

using ZooBuilder = std::function<Model(int)>;

const std::map<std::string, ZooBuilder>&
zooBuilders()
{
    static const std::map<std::string, ZooBuilder> builders = {
        {"gptL", [](int b) { return zoo::gptL(b); }},
        {"bertLarge", [](int b) { return zoo::bertLarge(b); }},
        {"bertBase", [](int b) { return zoo::bertBase(b); }},
        {"resNet50", [](int b) { return zoo::resNet50(b); }},
        {"uNet", [](int b) { return zoo::uNet(b); }},
        {"googleNet", [](int b) { return zoo::googleNet(b); }},
        {"d2go", [](int b) { return zoo::d2go(b); }},
        {"planeRcnn", [](int b) { return zoo::planeRcnn(b); }},
        {"midas", [](int b) { return zoo::midas(b); }},
        {"emformer", [](int b) { return zoo::emformer(b); }},
        {"hrvit", [](int b) { return zoo::hrvit(b); }},
        {"handSP", [](int b) { return zoo::handSP(b); }},
        {"eyeCod", [](int b) { return zoo::eyeCod(b); }},
        {"sp2Dense", [](int b) { return zoo::sp2Dense(b); }},
    };
    return builders;
}

Dataflow
parseDataflow(const std::string& token, int line)
{
    if (token == "NVD")
        return Dataflow::NvdlaWS;
    if (token == "Shi")
        return Dataflow::ShiOS;
    if (token == "RS")
        return Dataflow::EyerissRS;
    fatal("line ", line, ": unknown dataflow '", token,
          "' (expected NVD, Shi, or RS)");
}

/** Appends a custom layer described by a config line. */
void
appendCustomLayer(Model& model, const ConfigLine& line)
{
    Layer layer;
    layer.id = model.numLayers();
    layer.name = line.has("name")
                     ? line.str("name")
                     : line.keyword + std::to_string(layer.id);
    if (line.keyword == "gemm") {
        const std::int64_t m = line.num("m");
        const std::int64_t n = line.num("n");
        const std::int64_t k = line.num("k");
        model.layers.push_back(atLine(line.number, [&] {
            return makeGemmLayer(layer.id, layer.name, m, n, k);
        }));
        return;
    }
    if (line.keyword == "conv" || line.keyword == "dwconv") {
        layer.type = line.keyword == "conv" ? OpType::Conv2D
                                            : OpType::DepthwiseConv;
        const std::int64_t stride = line.numOr("stride", 1);
        layer.dims = LayerDims{line.num("k"),
                               line.keyword == "conv" ? line.num("c")
                                                      : line.num("k"),
                               line.numOr("r", 3), line.numOr("s", 3),
                               line.num("y"), line.num("x"), stride,
                               stride};
    } else if (line.keyword == "pool") {
        layer.type = OpType::Pool;
        const std::int64_t window = line.numOr("window", 2);
        const std::int64_t stride = line.numOr("stride", window);
        layer.dims = LayerDims{line.num("c"), line.num("c"), window,
                               window, line.num("y"), line.num("x"),
                               stride, stride};
    } else if (line.keyword == "eltwise") {
        layer.type = OpType::Elementwise;
        layer.dims = LayerDims{line.num("c"), line.num("c"), 1, 1,
                               line.num("y"), line.num("x"), 1, 1};
    } else {
        fatal("line ", line.number, ": unknown layer kind '",
              line.keyword, "'");
    }
    atLine(line.number, [&] { layer.validate(); });
    model.layers.push_back(std::move(layer));
}

} // namespace

Scenario
parseScenario(std::istream& in)
{
    Scenario sc;
    std::vector<int> modelLines; ///< the `model` line of each model
    Model* currentCustom = nullptr;
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        ConfigLine line;
        if (!parseLine(raw, number, line))
            continue;

        if (line.keyword == "scenario") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": scenario needs a name");
            sc.name = line.positional.front();
        } else if (line.keyword == "model") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": model needs a kind");
            const std::string kind = line.positional.front();
            const int batch = line.numOr<int>("batch", 1);
            if (kind == "custom") {
                Model model;
                model.name = line.has("name") ? line.str("name")
                                              : "custom";
                model.batch = batch;
                sc.models.push_back(std::move(model));
                modelLines.push_back(number);
                currentCustom = &sc.models.back();
            } else {
                auto it = zooBuilders().find(kind);
                SCAR_REQUIRE(it != zooBuilders().end(), "line ",
                             number, ": unknown zoo model '", kind,
                             "'");
                sc.models.push_back(
                    atLine(number, [&] { return it->second(batch); }));
                modelLines.push_back(number);
                currentCustom = nullptr;
            }
        } else {
            SCAR_REQUIRE(currentCustom != nullptr, "line ", number,
                         ": layer line outside a custom model");
            appendCustomLayer(*currentCustom, line);
        }
    }
    SCAR_REQUIRE(!sc.models.empty(), "workload file defines no models");
    // Custom models are complete only here (an empty one, a zero
    // batch): check each against its own `model` line first.
    for (std::size_t m = 0; m < sc.models.size(); ++m)
        atLine(modelLines[m], [&] { sc.models[m].finalize(); });
    sc.finalize();
    return sc;
}

Scenario
loadScenario(const std::string& path)
{
    std::ifstream in(path);
    SCAR_REQUIRE(in.good(), "cannot open workload file: ", path);
    return parseScenario(in);
}

Mcm
parseMcm(std::istream& in)
{
    std::string name = "custom-mcm";
    std::string templateName;
    int meshW = 0;
    int meshH = 0;
    int pes = templates::kDatacenterPes;
    std::vector<std::vector<Dataflow>> map;
    std::string topoKind = "mesh";
    std::vector<Link> expressLinks;
    std::vector<int> broadcastMembers;
    bool broadcastAll = false;

    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) {
        ++number;
        ConfigLine line;
        if (!parseLine(raw, number, line))
            continue;
        if (line.keyword == "mcm") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": mcm needs a name");
            name = line.positional.front();
        } else if (line.keyword == "template") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": template needs a name");
            templateName = line.positional.front();
        } else if (line.keyword == "mesh") {
            SCAR_REQUIRE(line.positional.size() == 2, "line ", number,
                         ": mesh needs width and height");
            meshW = line.positionalNum<int>(0, "mesh width");
            meshH = line.positionalNum<int>(1, "mesh height");
        } else if (line.keyword == "pes") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": pes needs a count");
            pes = line.positionalNum<int>(0, "pes");
        } else if (line.keyword == "topology") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": topology needs a kind (mesh, torus, "
                         "express, broadcast)");
            topoKind = line.positional.front();
            SCAR_REQUIRE(topoKind == "mesh" || topoKind == "torus" ||
                             topoKind == "express" ||
                             topoKind == "broadcast",
                         "line ", number, ": unknown topology kind '",
                         topoKind, "'");
        } else if (line.keyword == "express") {
            SCAR_REQUIRE(line.positional.size() == 2, "line ", number,
                         ": express needs two chiplet ids");
            expressLinks.emplace_back(
                line.positionalNum<int>(0, "express chiplet id"),
                line.positionalNum<int>(1, "express chiplet id"));
        } else if (line.keyword == "broadcast") {
            SCAR_REQUIRE(!line.positional.empty(), "line ", number,
                         ": broadcast needs 'all' or member ids");
            if (line.positional.front() == "all") {
                broadcastAll = true;
            } else {
                for (std::size_t i = 0; i < line.positional.size(); ++i) {
                    broadcastMembers.push_back(line.positionalNum<int>(
                        i, "broadcast member id"));
                }
            }
        } else if (line.keyword == "map") {
            // Row-major dataflow map; '/' separates mesh rows.
            map.emplace_back();
            for (const std::string& token : line.positional) {
                if (token == "/") {
                    map.emplace_back();
                } else {
                    map.back().push_back(
                        parseDataflow(token, number));
                }
            }
        } else {
            fatal("line ", number, ": unknown MCM keyword '",
                  line.keyword, "'");
        }
    }

    if (!templateName.empty()) {
        using TemplateFn = std::function<Mcm(int)>;
        const std::map<std::string, TemplateFn> catalog = {
            {"simba3x3Nvd",
             [](int p) { return templates::simba3x3(Dataflow::NvdlaWS, p); }},
            {"simba3x3Shi",
             [](int p) { return templates::simba3x3(Dataflow::ShiOS, p); }},
            {"simba6x6Nvd",
             [](int p) { return templates::simba6x6(Dataflow::NvdlaWS, p); }},
            {"simba6x6Shi",
             [](int p) { return templates::simba6x6(Dataflow::ShiOS, p); }},
            {"hetCb3x3", [](int p) { return templates::hetCb3x3(p); }},
            {"hetSides3x3",
             [](int p) { return templates::hetSides3x3(p); }},
            {"hetCross6x6",
             [](int p) { return templates::hetCross6x6(p); }},
            {"hetTriple3x3",
             [](int p) { return templates::hetTriple3x3(p); }},
            {"simbaTriangularNvd",
             [](int p) {
                 return templates::simbaTriangular(Dataflow::NvdlaWS, p);
             }},
            {"simbaTriangularShi",
             [](int p) {
                 return templates::simbaTriangular(Dataflow::ShiOS, p);
             }},
            {"hetTriangular",
             [](int p) { return templates::hetTriangular(p); }},
            {"hetSidesTorus3x3",
             [](int p) { return templates::hetSidesTorus3x3(p); }},
            {"hetSidesExpress3x3",
             [](int p) { return templates::hetSidesExpress3x3(p); }},
            {"hetSidesBroadcast3x3",
             [](int p) { return templates::hetSidesBroadcast3x3(p); }},
        };
        auto it = catalog.find(templateName);
        SCAR_REQUIRE(it != catalog.end(), "unknown MCM template '",
                     templateName, "'");
        return it->second(pes);
    }

    SCAR_REQUIRE(meshW > 0 && meshH > 0,
                 "MCM file needs a 'template' or a 'mesh' line");
    SCAR_REQUIRE(static_cast<int>(map.size()) == meshH,
                 "dataflow map has ", map.size(), " rows, mesh needs ",
                 meshH);
    for (const auto& row : map) {
        SCAR_REQUIRE(static_cast<int>(row.size()) == meshW,
                     "dataflow map row has ", row.size(),
                     " entries, mesh needs ", meshW);
    }

    SCAR_REQUIRE(expressLinks.empty() || topoKind == "express",
                 "'express' lines require 'topology express'");
    SCAR_REQUIRE((broadcastMembers.empty() && !broadcastAll) ||
                     topoKind == "broadcast",
                 "'broadcast' lines require 'topology broadcast'");
    Topology topo = Topology::mesh(meshW, meshH);
    if (topoKind == "torus") {
        topo = Topology::torus(meshW, meshH);
    } else if (topoKind == "express") {
        topo = Topology::expressMesh(meshW, meshH,
                                     std::move(expressLinks));
    } else if (topoKind == "broadcast") {
        if (broadcastAll || broadcastMembers.empty()) {
            broadcastMembers.resize(
                static_cast<std::size_t>(meshW) * meshH);
            for (std::size_t i = 0; i < broadcastMembers.size(); ++i)
                broadcastMembers[i] = static_cast<int>(i);
        }
        topo = Topology::broadcastMesh(meshW, meshH,
                                       std::move(broadcastMembers));
    }
    std::vector<Chiplet> chiplets;
    for (int y = 0; y < meshH; ++y) {
        for (int x = 0; x < meshW; ++x) {
            Chiplet c;
            c.id = y * meshW + x;
            c.x = x;
            c.y = y;
            c.memInterface = (x == 0 || x == meshW - 1);
            c.spec.dataflow = map[y][x];
            c.spec.numPes = pes;
            chiplets.push_back(c);
        }
    }
    return Mcm(name, std::move(chiplets), std::move(topo));
}

Mcm
loadMcm(const std::string& path)
{
    std::ifstream in(path);
    SCAR_REQUIRE(in.good(), "cannot open MCM file: ", path);
    return parseMcm(in);
}

} // namespace io
} // namespace scar
