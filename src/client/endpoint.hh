/**
 * @file
 * The endpoint-string grammar of eie::client::Client — one string
 * names any of the four transports plus its per-endpoint knobs:
 *
 *   local:<backend>[,kernel=K][,threads=N][,dir=PATH]
 *       A one-shard in-process cluster: the cluster: engine with one
 *       replicated shard on execution backend <backend> ("scalar" |
 *       "compiled" | "sim"), serving ClientOptions::models before
 *       the optional ModelRegistry at dir= (defaults to
 *       ClientOptions::registry). ClientOptions::cluster does not
 *       apply.
 *
 *   cluster:<dir>[,shards=N][,policy=replicated|partitioned]
 *                [,backend=B][,kernel=K][,threads=N]
 *       In-process serve::ClusterEngine(s) over the ModelRegistry at
 *       <dir>, via a ServingDirectory. Unset knobs fall back to
 *       ClientOptions::cluster.
 *
 *   tcp://HOST:PORT
 *       A remote eie_serve daemon over the binary wire protocol.
 *
 *   http://HOST:PORT[,token=TOKEN]
 *       A remote eie_gateway daemon over JSON/HTTP — the
 *       multi-tenant front door. token= is the bearer token sent as
 *       `Authorization: Bearer <TOKEN>` on every request (required
 *       when the gateway has tenants configured).
 *
 * Parsing is Status-returning (never fatal): endpoint strings come
 * from config files and CLI flags, and the client API's contract is
 * that bad input yields InvalidArgument, not a dead process.
 */

#ifndef EIE_CLIENT_ENDPOINT_HH
#define EIE_CLIENT_ENDPOINT_HH

#include <cstdint>
#include <string>

#include "client/status.hh"

namespace eie::client {

/** Which transport an endpoint string selects. */
enum class TransportKind
{
    Local,   ///< in-process one-shard cluster
    Cluster, ///< in-process ClusterEngine via ServingDirectory
    Tcp,     ///< remote daemon over the wire protocol
    Http,    ///< remote gateway over JSON/HTTP
};

/** The stable name of @p kind ("local", "cluster", "tcp", "http"). */
const char *transportKindName(TransportKind kind);

/** A decoded endpoint string (fields beyond the selected transport's
 *  keep their "unset" defaults). */
struct ParsedEndpoint
{
    TransportKind kind = TransportKind::Local;

    // local:
    std::string backend = "compiled"; ///< execution backend name
    std::string dir;                  ///< registry dir ("" = options)

    // local: + cluster: (0 / "" = fall back to ClientOptions)
    std::string kernel;    ///< kernel variant name ("" = options)
    unsigned threads = 0;  ///< worker threads ("" = options)

    // cluster: (dir doubles as the registry directory)
    unsigned shards = 0;   ///< shard count (0 = options)
    std::string placement; ///< "replicated"/"partitioned" ("" = opts)
    std::string cluster_backend; ///< shard backend ("" = options)

    // tcp:// + http://
    std::string host;
    std::uint16_t port = 0;

    // http://
    std::string token; ///< bearer token ("" = unauthenticated)
};

/**
 * Parse @p endpoint into @p out. Returns InvalidArgument (naming the
 * offending part and the grammar) on anything malformed; unknown
 * backend/kernel/placement names are rejected here so they can never
 * reach the fatal()-validating factories underneath.
 */
Status parseEndpoint(const std::string &endpoint, ParsedEndpoint &out);

/** The grammar, one line per transport — for --help texts. */
const char *endpointGrammar();

} // namespace eie::client

#endif // EIE_CLIENT_ENDPOINT_HH
