#include "client/endpoint.hh"

#include <algorithm>
#include <vector>

#include "core/kernel/variant.hh"
#include "engine/backend.hh"

namespace eie::client {

namespace {

/** Split "a,b,c" on commas (no escaping; registry paths with commas
 *  are not supported by the grammar). */
std::vector<std::string>
splitComma(const std::string &text)
{
    std::vector<std::string> parts;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const std::size_t comma = text.find(',', begin);
        if (comma == std::string::npos) {
            parts.push_back(text.substr(begin));
            break;
        }
        parts.push_back(text.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return parts;
}

Status
badEndpoint(const std::string &detail)
{
    return Status::error(StatusCode::InvalidArgument,
                         detail + "\nendpoint grammar:\n" +
                             endpointGrammar());
}

Status
checkBackendName(const std::string &name)
{
    const std::vector<std::string> &names = engine::backendNames();
    if (std::find(names.begin(), names.end(), name) != names.end())
        return Status::success();
    std::string known;
    for (const std::string &n : names)
        known += (known.empty() ? "" : ", ") + n;
    return badEndpoint("unknown backend '" + name + "' (known: " +
                       known + ")");
}

Status
checkKernelName(const std::string &name)
{
    const std::vector<std::string> &names =
        core::kernel::kernelVariantNames();
    if (std::find(names.begin(), names.end(), name) != names.end())
        return Status::success();
    std::string known;
    for (const std::string &n : names)
        known += (known.empty() ? "" : ", ") + n;
    return badEndpoint("unknown kernel variant '" + name +
                       "' (known: " + known + ")");
}

Status
parseCount(const std::string &key, const std::string &value,
           unsigned &out)
{
    // The length bound keeps std::stoul in range: the parse must
    // yield InvalidArgument, never an out_of_range escaping the
    // never-throws contract.
    if (value.empty() || value.size() > 7 ||
        value.find_first_not_of("0123456789") != std::string::npos)
        return badEndpoint(key + "= needs a positive integer, got '" +
                           value + "'");
    const unsigned long parsed = std::stoul(value);
    if (parsed == 0 || parsed > 1u << 20)
        return badEndpoint(key + "= needs a positive integer, got '" +
                           value + "'");
    out = static_cast<unsigned>(parsed);
    return Status::success();
}

Status
parseLocal(const std::string &rest, ParsedEndpoint &out)
{
    const std::vector<std::string> parts = splitComma(rest);
    if (parts.empty() || parts.front().empty())
        return badEndpoint("local: endpoint needs a backend name");
    out.backend = parts.front();
    if (Status status = checkBackendName(out.backend); !status.ok())
        return status;

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &part = parts[i];
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return badEndpoint("local: option '" + part +
                               "' is not key=value");
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        if (key == "kernel") {
            if (Status status = checkKernelName(value); !status.ok())
                return status;
            out.kernel = value;
        } else if (key == "threads") {
            if (Status status = parseCount(key, value, out.threads);
                !status.ok())
                return status;
        } else if (key == "dir") {
            if (value.empty())
                return badEndpoint("dir= needs a path");
            out.dir = value;
        } else {
            return badEndpoint("unknown local: option '" + key + "'");
        }
    }
    return Status::success();
}

Status
parseCluster(const std::string &rest, ParsedEndpoint &out)
{
    const std::vector<std::string> parts = splitComma(rest);
    if (parts.empty() || parts.front().empty())
        return badEndpoint(
            "cluster: endpoint needs a registry directory");
    out.dir = parts.front();

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &part = parts[i];
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return badEndpoint("cluster: option '" + part +
                               "' is not key=value");
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        if (key == "shards") {
            if (Status status = parseCount(key, value, out.shards);
                !status.ok())
                return status;
        } else if (key == "policy") {
            if (value != "replicated" && value != "partitioned")
                return badEndpoint("policy= must be 'replicated' or "
                                   "'partitioned', got '" +
                                   value + "'");
            out.placement = value;
        } else if (key == "backend") {
            if (Status status = checkBackendName(value); !status.ok())
                return status;
            out.cluster_backend = value;
        } else if (key == "kernel") {
            if (Status status = checkKernelName(value); !status.ok())
                return status;
            out.kernel = value;
        } else if (key == "threads") {
            if (Status status = parseCount(key, value, out.threads);
                !status.ok())
                return status;
        } else {
            return badEndpoint("unknown cluster: option '" + key +
                               "'");
        }
    }
    return Status::success();
}

Status
parseHostPort(const std::string &scheme, const std::string &rest,
              ParsedEndpoint &out)
{
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size())
        return badEndpoint(scheme + "// endpoint needs HOST:PORT, "
                           "got '" + rest + "'");
    out.host = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    if (port.find_first_not_of("0123456789") != std::string::npos)
        return badEndpoint(scheme + "// port '" + port +
                           "' is not a number");
    if (port.size() > 5) // keeps std::stoul in range (never throws)
        return badEndpoint(scheme + "// port '" + port +
                           "' is out of range");
    const unsigned long parsed = std::stoul(port);
    if (parsed == 0 || parsed > 65535)
        return badEndpoint(scheme + "// port '" + port +
                           "' is out of range");
    out.port = static_cast<std::uint16_t>(parsed);
    return Status::success();
}

Status
parseTcp(const std::string &rest, ParsedEndpoint &out)
{
    return parseHostPort("tcp:", rest, out);
}

Status
parseHttp(const std::string &rest, ParsedEndpoint &out)
{
    const std::vector<std::string> parts = splitComma(rest);
    if (Status status = parseHostPort("http:", parts.front(), out);
        !status.ok())
        return status;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &part = parts[i];
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            return badEndpoint("http:// option '" + part +
                               "' is not key=value");
        const std::string key = part.substr(0, eq);
        const std::string value = part.substr(eq + 1);
        if (key == "token") {
            if (value.empty())
                return badEndpoint("token= needs a value");
            out.token = value;
        } else {
            return badEndpoint("unknown http:// option '" + key +
                               "'");
        }
    }
    return Status::success();
}

} // namespace

const char *
transportKindName(TransportKind kind)
{
    switch (kind) {
      case TransportKind::Local: return "local";
      case TransportKind::Cluster: return "cluster";
      case TransportKind::Tcp: return "tcp";
      case TransportKind::Http: return "http";
    }
    return "local";
}

const char *
endpointGrammar()
{
    return
        "  local:<backend>[,kernel=K][,threads=N][,dir=PATH]\n"
        "  cluster:<dir>[,shards=N][,policy=replicated|partitioned]"
        "[,backend=B][,kernel=K][,threads=N]\n"
        "  tcp://HOST:PORT\n"
        "  http://HOST:PORT[,token=TOKEN]";
}

Status
parseEndpoint(const std::string &endpoint, ParsedEndpoint &out)
{
    out = ParsedEndpoint{};
    if (endpoint.rfind("local:", 0) == 0) {
        out.kind = TransportKind::Local;
        return parseLocal(endpoint.substr(6), out);
    }
    if (endpoint.rfind("cluster:", 0) == 0) {
        out.kind = TransportKind::Cluster;
        return parseCluster(endpoint.substr(8), out);
    }
    if (endpoint.rfind("tcp://", 0) == 0) {
        out.kind = TransportKind::Tcp;
        return parseTcp(endpoint.substr(6), out);
    }
    if (endpoint.rfind("http://", 0) == 0) {
        out.kind = TransportKind::Http;
        return parseHttp(endpoint.substr(7), out);
    }
    return badEndpoint("endpoint '" + endpoint +
                       "' names no known transport");
}

} // namespace eie::client
