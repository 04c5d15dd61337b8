/**
 * @file
 * The serving cluster's model registry: named, versioned compressed
 * models on disk in the EIEM format (compress/model_file), loaded and
 * planned once and handed out as shared immutable artifacts.
 *
 * Directory layout, one file per published version:
 *
 *   <root>/<model name>/v<version>.eiem
 *
 * load() deserialises the interleaved-CSC image, reconstructs the
 * quantised weight matrix and codebook from it, and compiles a
 * LayerPlan for the registry's machine configuration — possibly a
 * different PE count than the file was encoded for, since planLayer
 * re-interleaves tiles for the target machine. The decoded matrix is
 * dropped once planned. Loaded models are cached by (name, version):
 * every shard of a ClusterEngine (and any number of clusters) shares
 * one LoadedModel, so the planning work and the plan exist once per
 * process.
 */

#ifndef EIE_SERVE_REGISTRY_HH
#define EIE_SERVE_REGISTRY_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "compress/interleaved.hh"
#include "core/config.hh"
#include "core/plan.hh"
#include "nn/sparse.hh"

namespace eie::serve {

/** One (name, version) coordinate in the registry. */
struct ModelId
{
    std::string name;
    std::uint32_t version = 0;

    bool
    operator==(const ModelId &other) const
    {
        return name == other.name && version == other.version;
    }
};

/**
 * A model loaded and planned for one machine configuration. Immutable
 * after construction; shards of a cluster share it by shared_ptr.
 * It keeps only its plans: column-partitioned placement rebuilds a
 * single-layer model's weights from the plan's tiles when the cluster
 * is built.
 */
class LoadedModel
{
  public:
    /** Plan @p storage (an EIEM image, from disk or in memory) for
     *  @p config. */
    static std::shared_ptr<const LoadedModel>
    fromStorage(std::string name, std::uint32_t version,
                const compress::InterleavedCsc &storage,
                nn::Nonlinearity nonlin, const core::EieConfig &config);

    /** Serve the in-memory stack @p plans (execution order) as version
     *  1 of @p name. The plans are borrowed: they, and what they point
     *  into, must outlive the model. */
    static std::shared_ptr<const LoadedModel>
    fromPlans(std::string name,
              std::vector<const core::LayerPlan *> plans,
              const core::EieConfig &config);

    LoadedModel(const LoadedModel &) = delete;
    LoadedModel &operator=(const LoadedModel &) = delete;

    const std::string &name() const { return name_; }
    std::uint32_t version() const { return version_; }
    const core::EieConfig &config() const { return config_; }

    /** The drain non-linearity of the top layer. */
    nn::Nonlinearity nonlin() const { return plans_.back()->nonlin; }

    /** The first layer's plan, compiled for config() (a stored
     *  model's only layer). */
    const core::LayerPlan &plan() const { return *plans_.front(); }

    /** Every layer's plan, execution order. */
    const std::vector<const core::LayerPlan *> &plans() const
    {
        return plans_;
    }

    std::size_t inputSize() const { return plan().input_size; }
    std::size_t outputSize() const { return plans_.back()->output_size; }

  private:
    LoadedModel(std::string name, std::uint32_t version,
                nn::Nonlinearity nonlin, const core::EieConfig &config,
                const nn::SparseMatrix &quantized,
                const compress::Codebook &codebook);
    LoadedModel(std::string name,
                std::vector<const core::LayerPlan *> plans,
                const core::EieConfig &config);

    std::string name_;
    std::uint32_t version_;
    core::EieConfig config_;
    core::LayerPlan plan_; ///< a stored model's plan (unused by stacks)
    std::vector<const core::LayerPlan *> plans_;
};

/** Why ModelRegistry::load() returned nullptr. */
enum class LoadError {
    None,     ///< load succeeded
    NotFound, ///< no such model/version on disk
    Corrupt,  ///< the file exists but cannot be parsed
};

/** Named, versioned EIEM models under one root directory. */
class ModelRegistry
{
  public:
    /**
     * @param root   registry directory (created if missing)
     * @param config machine configuration models are planned for
     */
    ModelRegistry(std::string root, const core::EieConfig &config);

    const std::string &root() const { return root_; }
    const core::EieConfig &config() const { return config_; }

    /**
     * Write @p storage as version @p version of model @p name
     * (version must be >= 1; overwriting an existing version is
     * allowed and invalidates its cache entry). Returns the file
     * path. Fatal on an invalid name (allowed: [A-Za-z0-9._-]).
     */
    std::string publish(const std::string &name, std::uint32_t version,
                        const compress::InterleavedCsc &storage);

    /** Every (name, version) present on disk, sorted by name then
     *  ascending version. */
    std::vector<ModelId> list() const;

    /** Highest published version of @p name; 0 when absent. The
     *  directory scan is cached while the model directory's stat
     *  identity holds (see VersionScan), so a version file written in
     *  without publish() is still seen. */
    std::uint32_t latestVersion(const std::string &name) const;

    /** Whether version @p version of @p name exists on disk. */
    bool has(const std::string &name, std::uint32_t version) const;

    /**
     * Load (or fetch from cache) version @p version of @p name;
     * version 0 resolves to the latest published version. Returns
     * nullptr when the model (or the requested version) does not
     * exist or its file is corrupt — @p error (when non-null)
     * distinguishes the two and @p detail carries the parse error, so
     * one bad `.eiem` is a per-request failure, never a process exit.
     */
    std::shared_ptr<const LoadedModel>
    load(const std::string &name, std::uint32_t version = 0,
         nn::Nonlinearity nonlin = nn::Nonlinearity::ReLU,
         LoadError *error = nullptr, std::string *detail = nullptr);

  private:
    std::string modelDir(const std::string &name) const;
    std::string versionPath(const std::string &name,
                            std::uint32_t version) const;

    /** A directory's stat identity. Adding, removing or renaming a
     *  file changes its mtime and ctime. */
    struct DirStamp
    {
        std::int64_t mtime_ns = 0;
        std::int64_t ctime_ns = 0;
        std::uint64_t inode = 0;
        std::int64_t size = 0;

        bool operator==(const DirStamp &) const = default;
    };

    /**
     * One model directory's latest version, good while the directory
     * keeps the stamp it had before the scan. A scan is kept only
     * when that mtime was at least two seconds old at scan time
     * (Git's racy-timestamp rule): a change within the mtime's
     * granularity of the scan could leave the stamp unchanged.
     */
    struct VersionScan
    {
        DirStamp stamp;
        std::uint32_t latest = 0;
    };

    std::string root_;
    core::EieConfig config_;

    mutable std::mutex mutex_;
    /** Cache key "name@version#nonlin" (version resolved, never 0):
     *  the plan depends on the drain nonlinearity too. */
    std::map<std::string, std::shared_ptr<const LoadedModel>> cache_;
    /** latestVersion()'s trusted scans, by model name. */
    mutable std::map<std::string, VersionScan> scans_;
};

} // namespace eie::serve

#endif // EIE_SERVE_REGISTRY_HH
