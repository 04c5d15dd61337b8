/**
 * @file
 * ModelRegistry tests: publish/list/load round trips through the
 * EIEM file format, version resolution, the shared-artifact cache,
 * and bit-exactness of a registry-loaded plan against the original
 * in-process compression pipeline — including re-planning for a
 * different PE count than the file was encoded with.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include <unistd.h>

#include "core/functional.hh"
#include "helpers.hh"
#include "serve/registry.hh"

namespace {

using namespace eie;
namespace fs = std::filesystem;

/** A unique scratch registry directory, removed on destruction. */
struct ScratchDir
{
    fs::path path;

    ScratchDir()
    {
        static int counter = 0;
        path = fs::temp_directory_path() /
            ("eie_registry_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
        fs::remove_all(path);
    }

    ~ScratchDir() { fs::remove_all(path); }
};

core::EieConfig
makeConfig(unsigned n_pe = 4)
{
    core::EieConfig config;
    config.n_pe = n_pe;
    return config;
}

TEST(ModelRegistry, PublishListLatestHas)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());

    const auto layer =
        test::randomCompressedLayer(32, 24, 0.3, 4, 101);
    registry.publish("fc6", 1, layer.storage());
    registry.publish("fc6", 3, layer.storage());
    registry.publish("fc7", 2, layer.storage());

    const auto models = registry.list();
    ASSERT_EQ(models.size(), 3u);
    EXPECT_EQ(models[0].name, "fc6");
    EXPECT_EQ(models[0].version, 1u);
    EXPECT_EQ(models[1].name, "fc6");
    EXPECT_EQ(models[1].version, 3u);
    EXPECT_EQ(models[2].name, "fc7");
    EXPECT_EQ(models[2].version, 2u);

    EXPECT_EQ(registry.latestVersion("fc6"), 3u);
    EXPECT_EQ(registry.latestVersion("fc7"), 2u);
    EXPECT_EQ(registry.latestVersion("absent"), 0u);
    EXPECT_TRUE(registry.has("fc6", 3));
    EXPECT_FALSE(registry.has("fc6", 2));
}

TEST(ModelRegistry, LoadedPlanIsBitExactWithTheOriginalPipeline)
{
    ScratchDir dir;
    const core::EieConfig config = makeConfig();
    serve::ModelRegistry registry(dir.path.string(), config);

    const auto layer =
        test::randomCompressedLayer(48, 40, 0.25, 4, 202);
    registry.publish("m", 1, layer.storage());
    const auto loaded = registry.load("m");
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->name(), "m");
    EXPECT_EQ(loaded->version(), 1u);
    EXPECT_EQ(loaded->inputSize(), 40u);
    EXPECT_EQ(loaded->outputSize(), 48u);

    const core::LayerPlan original =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config);
    const core::FunctionalModel model(config);
    for (int i = 0; i < 8; ++i) {
        const auto input = model.quantizeInput(
            test::randomActivations(40, 0.5, 300 + i));
        EXPECT_EQ(model.run(loaded->plan(), input).output_raw,
                  model.run(original, input).output_raw)
            << "input " << i;
    }
}

TEST(ModelRegistry, ReplansForADifferentPeCountBitExactly)
{
    ScratchDir dir;
    // The file is encoded for 4 PEs; the serving machine has 8. The
    // per-accumulator MAC order is column-ascending regardless of the
    // interleaving, so outputs must not change.
    const auto layer =
        test::randomCompressedLayer(48, 40, 0.25, 4, 404);
    const core::EieConfig config4 = makeConfig(4);
    const core::EieConfig config8 = makeConfig(8);

    serve::ModelRegistry registry(dir.path.string(), config8);
    registry.publish("m", 1, layer.storage());
    const auto loaded = registry.load("m");
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->plan().n_pe, 8u);

    const core::LayerPlan original =
        core::planLayer(layer, nn::Nonlinearity::ReLU, config4);
    const core::FunctionalModel model4(config4);
    const core::FunctionalModel model8(config8);
    for (int i = 0; i < 8; ++i) {
        const auto input = model4.quantizeInput(
            test::randomActivations(40, 0.5, 500 + i));
        EXPECT_EQ(model8.run(loaded->plan(), input).output_raw,
                  model4.run(original, input).output_raw)
            << "input " << i;
    }
}

TEST(ModelRegistry, VersionZeroResolvesLatestAndCacheShares)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());

    const auto v1 = test::randomCompressedLayer(32, 24, 0.3, 4, 601);
    const auto v2 = test::randomCompressedLayer(32, 24, 0.3, 4, 602);
    registry.publish("m", 1, v1.storage());
    registry.publish("m", 2, v2.storage());

    const auto latest = registry.load("m");
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->version(), 2u);

    // Cache identity: the same (name, version) is one artifact.
    EXPECT_EQ(registry.load("m", 2).get(), latest.get());
    EXPECT_EQ(registry.load("m", 0).get(), latest.get());
    EXPECT_NE(registry.load("m", 1).get(), latest.get());
}

TEST(ModelRegistry, RepublishInvalidatesTheCachedArtifact)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());

    const auto v1 = test::randomCompressedLayer(32, 24, 0.3, 4, 701);
    registry.publish("m", 1, v1.storage());
    const auto before = registry.load("m", 1);
    ASSERT_NE(before, nullptr);

    const auto v2 = test::randomCompressedLayer(32, 24, 0.3, 4, 702);
    registry.publish("m", 1, v2.storage());
    const auto after = registry.load("m", 1);
    ASSERT_NE(after, nullptr);
    EXPECT_NE(after.get(), before.get());
}

TEST(ModelRegistry, MissingModelsReturnNull)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());
    EXPECT_EQ(registry.load("nope"), nullptr);
    EXPECT_EQ(registry.load("nope", 7), nullptr);
    EXPECT_EQ(registry.load("../escape"), nullptr);
    EXPECT_TRUE(registry.list().empty());
}

TEST(ModelRegistry, InconsistentFileIsCorruptNotAProcessExit)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());

    // A valid checksum over inconsistent contents: a 4-entry codebook
    // and a stored codebook index of 9.
    compress::InterleaveOptions opts;
    opts.n_pe = 1;
    std::vector<compress::PeSlice> slices;
    slices.push_back(compress::PeSlice::fromParts({{9, 0}}, {0, 1, 1}, 4));
    registry.publish("bad", 1,
                     compress::InterleavedCsc::fromParts(
                         4, 2, opts,
                         compress::Codebook({0.0f, 0.5f, -0.5f, 1.0f}),
                         std::move(slices)));

    serve::LoadError error = serve::LoadError::None;
    std::string detail;
    EXPECT_EQ(registry.load("bad", 1, nn::Nonlinearity::ReLU, &error,
                            &detail),
              nullptr);
    EXPECT_EQ(error, serve::LoadError::Corrupt);
    EXPECT_NE(detail.find("codebook index"), std::string::npos)
        << detail;

    // The process lives on and serves the models that are intact.
    registry.publish("good", 1,
                     test::randomCompressedLayer(32, 24, 0.3, 4, 102)
                         .storage());
    EXPECT_NE(registry.load("good"), nullptr);
}

TEST(ModelRegistryDeath, RejectsInvalidNamesAndVersionZero)
{
    ScratchDir dir;
    serve::ModelRegistry registry(dir.path.string(), makeConfig());
    const auto layer =
        test::randomCompressedLayer(32, 24, 0.3, 4, 801);
    EXPECT_EXIT(registry.publish("bad/name", 1, layer.storage()),
                ::testing::ExitedWithCode(1), "invalid model name");
    EXPECT_EXIT(registry.publish("ok", 0, layer.storage()),
                ::testing::ExitedWithCode(1), "versions start at 1");
}

} // namespace
