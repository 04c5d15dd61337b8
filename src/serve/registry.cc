#include "serve/registry.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "compress/model_file.hh"

namespace eie::serve {

namespace fs = std::filesystem;

namespace {

bool
validModelName(const std::string &name)
{
    if (name.empty() || name.size() > 128)
        return false;
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
            c == '.' || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    // Dot-only names would escape the registry root as path segments.
    return name != "." && name != "..";
}

/** Cache key: a LoadedModel is specific to (name, version, nonlin). */
std::string
cacheKey(const std::string &name, std::uint32_t version,
         nn::Nonlinearity nonlin)
{
    return name + "@" + std::to_string(version) + "#" +
        std::to_string(static_cast<int>(nonlin));
}

/** Parse "v<digits>.eiem" into a version number; 0 on mismatch. */
std::uint32_t
parseVersionFile(const std::string &filename)
{
    if (filename.size() < 7 || filename.front() != 'v' ||
        !filename.ends_with(".eiem"))
        return 0;
    const std::string digits =
        filename.substr(1, filename.size() - 6);
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        }))
        return 0;
    try {
        const unsigned long value = std::stoul(digits);
        return value > 0xffffffffUL
            ? 0
            : static_cast<std::uint32_t>(value);
    } catch (const std::exception &) {
        return 0;
    }
}

} // namespace

// ---------------------------------------------------------- LoadedModel

LoadedModel::LoadedModel(std::string name, std::uint32_t version,
                         nn::Nonlinearity nonlin,
                         const core::EieConfig &config,
                         const nn::SparseMatrix &quantized,
                         const compress::Codebook &codebook)
    : name_(std::move(name)), version_(version), config_(config),
      plan_(core::planLayer(name_, quantized, codebook, nonlin,
                            config_)),
      plans_{&plan_}
{}

LoadedModel::LoadedModel(std::string name,
                         std::vector<const core::LayerPlan *> plans,
                         const core::EieConfig &config)
    : name_(std::move(name)), version_(1), config_(config),
      plans_(std::move(plans))
{}

std::shared_ptr<const LoadedModel>
LoadedModel::fromStorage(std::string name, std::uint32_t version,
                         const compress::InterleavedCsc &storage,
                         nn::Nonlinearity nonlin,
                         const core::EieConfig &config)
{
    // decode() drops the padding entries and yields codebook values,
    // so re-planning for any PE count reproduces the stored network
    // exactly (nearest-codebook re-encoding of codebook values is the
    // identity).
    return std::shared_ptr<const LoadedModel>(new LoadedModel(
        std::move(name), version, nonlin, config, storage.decode(),
        storage.codebook()));
}

std::shared_ptr<const LoadedModel>
LoadedModel::fromPlans(std::string name,
                       std::vector<const core::LayerPlan *> plans,
                       const core::EieConfig &config)
{
    fatal_if(plans.empty() ||
                 std::find(plans.begin(), plans.end(), nullptr) !=
                     plans.end(),
             "in-memory model '%s' needs a stack of plans",
             name.c_str());
    return std::shared_ptr<const LoadedModel>(
        new LoadedModel(std::move(name), std::move(plans), config));
}

// -------------------------------------------------------- ModelRegistry

ModelRegistry::ModelRegistry(std::string root,
                             const core::EieConfig &config)
    : root_(std::move(root)), config_(config)
{
    config_.validate();
    fatal_if(root_.empty(), "registry needs a root directory");
    std::error_code ec;
    fs::create_directories(root_, ec);
    fatal_if(ec && !fs::is_directory(root_),
             "cannot create registry root '%s': %s", root_.c_str(),
             ec.message().c_str());
}

std::string
ModelRegistry::modelDir(const std::string &name) const
{
    return (fs::path(root_) / name).string();
}

std::string
ModelRegistry::versionPath(const std::string &name,
                           std::uint32_t version) const
{
    return (fs::path(root_) / name /
            ("v" + std::to_string(version) + ".eiem"))
        .string();
}

std::string
ModelRegistry::publish(const std::string &name, std::uint32_t version,
                       const compress::InterleavedCsc &storage)
{
    fatal_if(!validModelName(name),
             "invalid model name '%s' (allowed: [A-Za-z0-9._-], "
             "max 128 chars)", name.c_str());
    fatal_if(version == 0, "model versions start at 1");

    std::error_code ec;
    fs::create_directories(modelDir(name), ec);
    fatal_if(ec && !fs::is_directory(modelDir(name)),
             "cannot create model directory '%s': %s",
             modelDir(name).c_str(), ec.message().c_str());

    // Write-then-rename so a daemon serving from the same registry
    // can never observe (and fatal on) a half-written file: rename
    // within one directory is atomic, and the temp name does not
    // parse as a version file, so latestVersion() ignores it.
    const std::string path = versionPath(name, version);
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid());
    compress::saveModelFile(temp, storage);
    std::error_code rename_ec;
    fs::rename(temp, path, rename_ec);
    if (rename_ec) {
        fs::remove(temp);
        fatal("cannot move '%s' into place: %s", path.c_str(),
              rename_ec.message().c_str());
    }
    {
        // A republished version must not serve the stale artifact
        // (under any nonlinearity it was loaded with).
        std::lock_guard<std::mutex> lock(mutex_);
        const std::string prefix =
            name + "@" + std::to_string(version) + "#";
        for (auto it = cache_.lower_bound(prefix);
             it != cache_.end() && it->first.starts_with(prefix);)
            it = cache_.erase(it);
        scans_.erase(name);
    }
    return path;
}

std::vector<ModelId>
ModelRegistry::list() const
{
    std::vector<ModelId> models;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(root_, ec)) {
        if (!entry.is_directory())
            continue;
        const std::string name = entry.path().filename().string();
        if (!validModelName(name))
            continue;
        for (const auto &file :
             fs::directory_iterator(entry.path(), ec)) {
            const std::uint32_t version =
                parseVersionFile(file.path().filename().string());
            if (version != 0)
                models.push_back(ModelId{name, version});
        }
    }
    std::sort(models.begin(), models.end(),
              [](const ModelId &a, const ModelId &b) {
                  return a.name != b.name ? a.name < b.name
                                          : a.version < b.version;
              });
    return models;
}

std::uint32_t
ModelRegistry::latestVersion(const std::string &name) const
{
    const std::string dir = modelDir(name);
    struct stat st{};
    if (::stat(dir.c_str(), &st) != 0)
        return 0;
    const auto ns = [](const struct timespec &t) {
        return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
            t.tv_nsec;
    };
    VersionScan scan;
    scan.stamp = {ns(st.st_mtim), ns(st.st_ctim),
                  static_cast<std::uint64_t>(st.st_ino),
                  static_cast<std::int64_t>(st.st_size)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = scans_.find(name);
        if (it != scans_.end() && it->second.stamp == scan.stamp)
            return it->second.latest;
    }
    const std::int64_t scanned_at_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::error_code ec;
    for (const auto &file : fs::directory_iterator(dir, ec))
        scan.latest = std::max(
            scan.latest,
            parseVersionFile(file.path().filename().string()));
    if (scanned_at_ns - scan.stamp.mtime_ns >= 2'000'000'000) {
        std::lock_guard<std::mutex> lock(mutex_);
        scans_[name] = scan;
    }
    return scan.latest;
}

bool
ModelRegistry::has(const std::string &name, std::uint32_t version) const
{
    std::error_code ec;
    return version != 0 &&
        fs::is_regular_file(versionPath(name, version), ec);
}

std::shared_ptr<const LoadedModel>
ModelRegistry::load(const std::string &name, std::uint32_t version,
                    nn::Nonlinearity nonlin, LoadError *error,
                    std::string *detail)
{
    const auto fail = [&](LoadError why, const std::string &what) {
        if (error)
            *error = why;
        if (detail)
            *detail = what;
        return nullptr;
    };
    if (error)
        *error = LoadError::None;

    if (!validModelName(name))
        return fail(LoadError::NotFound,
                    "invalid model name '" + name + "'");
    if (version == 0) {
        version = latestVersion(name);
        if (version == 0)
            return fail(LoadError::NotFound,
                        "no published versions of '" + name + "'");
    }
    const std::string key = cacheKey(name, version, nonlin);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
    }
    if (!has(name, version))
        return fail(LoadError::NotFound,
                    "'" + versionPath(name, version) + "' not found");

    // Deserialise and plan outside the lock: loading a large model
    // must not stall lookups of already-cached ones. A racing load of
    // the same model wastes one plan; the first insert wins.
    std::shared_ptr<const LoadedModel> loaded;
    try {
        loaded = LoadedModel::fromStorage(
            name, version,
            compress::loadModelFile(versionPath(name, version)),
            nonlin, config_);
    } catch (const compress::ModelFileError &e) {
        // A corrupt artifact must poison only requests for it, not
        // the serving process — and must not be cached, so a repaired
        // republish is picked up on the next load.
        warn("model '%s' v%u is unreadable: %s", name.c_str(), version,
             e.what());
        return fail(LoadError::Corrupt, e.what());
    }

    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = cache_.emplace(key, std::move(loaded));
    return it->second;
}

} // namespace eie::serve
