/**
 * @file
 * Endpoint-string grammar tests: every transport form parses into
 * the right ParsedEndpoint, and malformed strings come back as
 * InvalidArgument Statuses (never fatal) naming the problem.
 */

#include <gtest/gtest.h>

#include "client/endpoint.hh"

namespace {

using namespace eie::client;

TEST(Endpoint, LocalForms)
{
    ParsedEndpoint parsed;
    ASSERT_TRUE(parseEndpoint("local:compiled", parsed).ok());
    EXPECT_EQ(parsed.kind, TransportKind::Local);
    EXPECT_EQ(parsed.backend, "compiled");
    EXPECT_TRUE(parsed.kernel.empty());
    EXPECT_EQ(parsed.threads, 0u);
    EXPECT_TRUE(parsed.dir.empty());

    ASSERT_TRUE(parseEndpoint("local:scalar", parsed).ok());
    EXPECT_EQ(parsed.backend, "scalar");

    ASSERT_TRUE(parseEndpoint(
                    "local:compiled,kernel=vector,threads=4,"
                    "dir=/tmp/models",
                    parsed)
                    .ok());
    EXPECT_EQ(parsed.backend, "compiled");
    EXPECT_EQ(parsed.kernel, "vector");
    EXPECT_EQ(parsed.threads, 4u);
    EXPECT_EQ(parsed.dir, "/tmp/models");
}

TEST(Endpoint, ClusterForms)
{
    ParsedEndpoint parsed;
    ASSERT_TRUE(parseEndpoint("cluster:/srv/models", parsed).ok());
    EXPECT_EQ(parsed.kind, TransportKind::Cluster);
    EXPECT_EQ(parsed.dir, "/srv/models");
    EXPECT_EQ(parsed.shards, 0u);
    EXPECT_TRUE(parsed.placement.empty());

    ASSERT_TRUE(parseEndpoint(
                    "cluster:/srv/models,shards=4,"
                    "policy=partitioned,backend=scalar,"
                    "kernel=reference,threads=2",
                    parsed)
                    .ok());
    EXPECT_EQ(parsed.dir, "/srv/models");
    EXPECT_EQ(parsed.shards, 4u);
    EXPECT_EQ(parsed.placement, "partitioned");
    EXPECT_EQ(parsed.cluster_backend, "scalar");
    EXPECT_EQ(parsed.kernel, "reference");
    EXPECT_EQ(parsed.threads, 2u);
}

TEST(Endpoint, TcpForms)
{
    ParsedEndpoint parsed;
    ASSERT_TRUE(parseEndpoint("tcp://127.0.0.1:7070", parsed).ok());
    EXPECT_EQ(parsed.kind, TransportKind::Tcp);
    EXPECT_EQ(parsed.host, "127.0.0.1");
    EXPECT_EQ(parsed.port, 7070u);

    ASSERT_TRUE(parseEndpoint("tcp://serving-box:1", parsed).ok());
    EXPECT_EQ(parsed.host, "serving-box");
    EXPECT_EQ(parsed.port, 1u);
}

TEST(Endpoint, HttpForms)
{
    ParsedEndpoint parsed;
    ASSERT_TRUE(
        parseEndpoint("http://127.0.0.1:8080", parsed).ok());
    EXPECT_EQ(parsed.kind, TransportKind::Http);
    EXPECT_EQ(parsed.host, "127.0.0.1");
    EXPECT_EQ(parsed.port, 8080u);
    EXPECT_TRUE(parsed.token.empty());

    ASSERT_TRUE(
        parseEndpoint("http://gw:9090,token=s3cret", parsed).ok());
    EXPECT_EQ(parsed.host, "gw");
    EXPECT_EQ(parsed.port, 9090u);
    EXPECT_EQ(parsed.token, "s3cret");
}

TEST(Endpoint, MalformedStringsAreInvalidArgumentNotFatal)
{
    ParsedEndpoint parsed;
    const char *bad[] = {
        "",
        "bogus:whatever",
        "local:",
        "local:no-such-backend",
        "local:compiled,kernel=warp",       // unknown kernel
        "local:compiled,kernel=fused",      // deleted kernel variant
        "local:compiled,kernel=compressed", // deleted kernel variant
        "local:compiled,residency=decoded", // deleted option
        "local:compiled,threads=0",         // zero threads
        "local:compiled,threads=lots",      // non-numeric
        // beyond ULONG_MAX: must be InvalidArgument, not a thrown
        // std::out_of_range escaping the never-throws contract
        "local:compiled,threads=99999999999999999999",
        "tcp://host:99999999999999999999",
        "local:compiled,dir=",              // empty path
        "local:compiled,shards=2",          // cluster-only option
        "cluster:",
        "cluster:/d,policy=diagonal",       // unknown placement
        "cluster:/d,backend=no-such",       // unknown backend
        "cluster:/d,kernel=fused",          // deleted kernel variant
        "cluster:/d,kernel=compressed",     // deleted kernel variant
        "cluster:/d,residency=auto",        // deleted option
        "cluster:/d,frobnicate=1",          // unknown option
        "tcp://",
        "tcp://hostonly",
        "tcp://host:",
        "tcp://host:notaport",
        "tcp://host:0",
        "tcp://host:65536",
        "http://",
        "http://hostonly",
        "http://host:",
        "http://host:0",
        "http://host:notaport",
        "http://host:8080,token=",      // empty token
        "http://host:8080,bearer=x",    // unknown option
        "http://host:8080,token",       // not key=value
    };
    for (const char *endpoint : bad) {
        const Status status = parseEndpoint(endpoint, parsed);
        EXPECT_FALSE(status.ok()) << "'" << endpoint << "' parsed";
        EXPECT_EQ(status.code, StatusCode::InvalidArgument)
            << "'" << endpoint << "': " << status.toString();
        // Every rejection teaches the grammar.
        EXPECT_NE(status.message.find("local:<backend>"),
                  std::string::npos)
            << status.message;
    }
}

TEST(Endpoint, StatusRendersCodeAndMessage)
{
    EXPECT_STREQ(statusCodeName(StatusCode::Ok), "OK");
    EXPECT_STREQ(statusCodeName(StatusCode::DeadlineExpired),
                 "DEADLINE_EXPIRED");
    const Status status =
        Status::error(StatusCode::NotFound, "model 'x' missing");
    EXPECT_EQ(status.toString(), "NOT_FOUND: model 'x' missing");
    EXPECT_EQ(Status::success().toString(), "OK");
}

} // namespace
